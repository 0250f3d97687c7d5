"""Span tracing from outside the program, and the per-layer metrics.

`Tracer.install` swaps the public names that callers look up (module
attributes such as `toricgraphs.cli.buchberger` or
`toricgraphs.grobner.reduce`) for wrappers that record a span per call: name,
start, end, parent span and instance id.  Spans stay in memory until the
run ends.  A layer's self time is its span time minus that of its child
spans; single-threaded calls nest, so children never overlap.

The work counts `quotients.taylor_subsets` and
`invariants.enumerated_monomials` are computed from call arguments (2^M per
Taylor call on M generators; C(q+k-1, k) monomials per degree k <= max_deg
per oracle call on q edges), not counted inside the program.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter
from math import comb


def _taylor_subsets(counts, args, kwargs, result):
    counts["taylor_subsets"] += 2 ** len((args[0] if args else kwargs["ideal"]).min_gens)


def _enumerated_monomials(counts, args, kwargs, result):
    graph = args[0] if args else kwargs["graph"]
    max_deg = args[1] if len(args) > 1 else kwargs["max_deg"]
    q = len(graph.edges)
    counts["enumerated_monomials"] += sum(comb(q + k - 1, k) for k in range(1, max_deg + 1))


def _minimal_walks(counts, args, kwargs, result):
    counts["minimal_walks"] += len(result)


def _primitive_walks(counts, args, kwargs, result):
    counts["primitive_walks"] += len(result)


def _basis_size(counts, args, kwargs, result):
    counts["basis_size"] += len(result)


def _zero_reduction(counts, args, kwargs, result):
    if result is None:
        counts["zero_reductions"] += 1


# (module, attribute, span name, count hook).  The cli entries time whole
# stages as `cli` calls them; the others time the calls one layer makes
# into another.
HOOKS = (
    ("toricgraphs.cli", "enumerate_primitive_walks", "walks.enumerate", _primitive_walks),
    ("toricgraphs.walks", "minimal_closed_even_walks", "walks.dfs", _minimal_walks),
    ("toricgraphs.walks", "is_primitive", "walks.is_primitive", None),
    ("toricgraphs.cli", "buchberger", "grobner.buchberger", _basis_size),
    ("toricgraphs.grobner", "reduce", "grobner.reduce", _zero_reduction),
    ("toricgraphs.grobner", "s_binomial", "grobner.s_binomial", None),
    ("toricgraphs.cli", "initial_ideal", "grobner.initial_ideal", None),
    ("toricgraphs.cli", "quotient_profile", "quotients.profile", None),
    ("toricgraphs.quotients", "colon_with_monomial", "quotients.colon", None),
    ("toricgraphs.cli", "betti_taylor_oracle", "quotients.taylor", _taylor_subsets),
    ("toricgraphs.quotients", "sparse_rational_rank", "linalg.sparse_rank", None),
    ("toricgraphs.invariants", "rational_rank", "linalg.dense_rank", None),
    ("toricgraphs.cli", "minimal_generators_oracle", "invariants.mingens_oracle", _enumerated_monomials),
    ("toricgraphs.cli", "hilbert_enumeration_oracle", "invariants.hilbert_enum", _enumerated_monomials),
    ("toricgraphs.cli", "build_grd", "graphs.build", None),
    ("toricgraphs.cli", "build_k2d", "graphs.build", None),
    ("toricgraphs.cli", "parse_graph", "graphs.build", None),
)

PER_LAYER_METRICS = (
    ("walks.enumerate_s", "s"), ("walks.dfs_s", "s"), ("walks.primitive_filter_s", "s"),
    ("walks.minimal_walks", "count"), ("walks.primitive_walks", "count"),
    ("walks.primitive_yield", "ratio"),
    ("grobner.buchberger_s", "s"), ("grobner.buchberger_self_s", "s"), ("grobner.reduce_s", "s"),
    ("grobner.reduce_calls", "count"), ("grobner.zero_reduction_ratio", "ratio"),
    ("grobner.s_binomial_calls", "count"), ("grobner.basis_size", "count"),
    ("grobner.initial_ideal_s", "s"),
    ("quotients.profile_s", "s"), ("quotients.colon_calls", "count"), ("quotients.taylor_s", "s"),
    ("quotients.taylor_self_s", "s"), ("quotients.taylor_subsets", "count"),
    ("linalg.sparse_rank_s", "s"), ("linalg.sparse_rank_calls", "count"), ("linalg.dense_rank_s", "s"),
    ("invariants.mingens_oracle_s", "s"), ("invariants.hilbert_enum_s", "s"),
    ("invariants.enumerated_monomials", "count"),
    ("graphs.build_s", "s"), ("cli.self_s", "s"), ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, instance, pass]
        self.counts: list[Counter] = []  # per pass
        self.instance = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def start_pass(self) -> None:
        self.counts.append(Counter())

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, len(self.counts) - 1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if hook is not None:
                hook(self.counts[-1], args, kwargs, result)
            return result

        return traced

    def instance_call(self, run):
        """A pass `call` that runs `run(argv)` inside a `cli.run` span tagged with the instance."""
        traced = self.wrap("cli.run", run)

        def call(inst):
            self.instance = inst.name
            return traced(list(inst.argv))

        return call

    def install(self) -> None:
        """Wrap every hook that exists; a name the program no longer has is skipped."""
        for module_name, attr, name, hook in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def layer_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass (overhead excluded)."""
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        child = {}
        for idx, (name, start, end, parent, _, pid) in enumerate(self.spans):
            if pid == pass_id and parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        for idx, (name, start, end, parent, _, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            total[name] += end - start
            self_time[name] += end - start - child.get(idx, 0.0)
            calls[name] += 1
        counts = self.counts[pass_id]

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "walks.enumerate_s": total["walks.enumerate"],
            "walks.dfs_s": total["walks.dfs"],
            "walks.primitive_filter_s": total["walks.is_primitive"],
            "walks.minimal_walks": counts["minimal_walks"],
            "walks.primitive_walks": counts["primitive_walks"],
            "walks.primitive_yield": ratio(counts["primitive_walks"], counts["minimal_walks"]),
            "grobner.buchberger_s": total["grobner.buchberger"],
            "grobner.buchberger_self_s": self_time["grobner.buchberger"],
            "grobner.reduce_s": total["grobner.reduce"],
            "grobner.reduce_calls": calls["grobner.reduce"],
            "grobner.zero_reduction_ratio": ratio(counts["zero_reductions"], calls["grobner.reduce"]),
            "grobner.s_binomial_calls": calls["grobner.s_binomial"],
            "grobner.basis_size": counts["basis_size"],
            "grobner.initial_ideal_s": total["grobner.initial_ideal"],
            "quotients.profile_s": total["quotients.profile"],
            "quotients.colon_calls": calls["quotients.colon"],
            "quotients.taylor_s": total["quotients.taylor"],
            "quotients.taylor_self_s": self_time["quotients.taylor"],
            "quotients.taylor_subsets": counts["taylor_subsets"],
            "linalg.sparse_rank_s": total["linalg.sparse_rank"],
            "linalg.sparse_rank_calls": calls["linalg.sparse_rank"],
            "linalg.dense_rank_s": total["linalg.dense_rank"],
            "invariants.mingens_oracle_s": total["invariants.mingens_oracle"],
            "invariants.hilbert_enum_s": total["invariants.hilbert_enum"],
            "invariants.enumerated_monomials": counts["enumerated_monomials"],
            "graphs.build_s": total["graphs.build"],
            "cli.self_s": self_time["cli.run"],
        }

    def median_metrics(self) -> dict[str, float]:
        per_pass = [self.layer_metrics(p) for p in range(len(self.counts))]
        return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "instance", "pass")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
