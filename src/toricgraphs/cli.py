"""Command-line interface.

Every command and `verify` read their results from one `Chain`, the paper's
method as a lazily evaluated sequence of stages: primitive walks -> reduced
Groebner basis -> in(I_G), its generators stored ascending -> their quotient
profile -> graded Betti numbers (-> Hilbert series).  Each stage runs at
most once per command, on first use, and each result is held only there;
`verify` interreduces the searched walks' binomials in place of running
Buchberger.  Every command that takes `--budget` rejects a negative one.

Exit codes: 0 success, 1 domain/usage error (and a closed stdout), 2
verification failure (the math disagrees), 3 budget exhaustion.

`verify` gives each check the status pass, fail or budget (the check ran out
of its search budget; the other checks still run).  Its overall status is
fail (exit 2) if any check failed, else budget (exit 3) if any check ran out
of budget, else pass (exit 0).
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import os
import sys
import time
from collections import Counter

from .errors import DEFAULT_BUDGET, BudgetError, ConsistencyError, DomainError, ParseError
from .graphs import SimpleGraph, build_grd, build_k2d, parse_graph, serialize_graph
from .grobner import (
    GrevlexOrder,
    buchberger,
    default_order,
    format_binomial,
    format_monomial,
    initial_ideal,
    reduced_basis,
)
from .invariants import (
    family_invariants,
    hilbert_enumeration_oracle,
    hilbert_from_betti,
    krull_dim,
    lower_bounds_from_induced,
    minimal_generators_oracle,
    reg_pdim,
)
from .quotients import (
    TAYLOR_MAX_GENERATORS,
    betti_from_linear_quotients,
    betti_taylor_oracle,
    quotient_profile,
)
from .walks import (
    canonical_edge_names,
    default_max_len,
    enumerate_primitive_walks,
    family_initial_generators,
    family_primitive_walks,
    walk_to_binomial,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _add_graph_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="FILE", help="JSON graph file")
    group.add_argument("--grd", nargs=2, type=int, metavar=("R", "D"),
                       help="family graph: K_{2,D} plus an even path of length 2R-2")
    group.add_argument("--k2d", type=int, metavar="D", help="complete bipartite graph K_{2,D}")


def _load_graph(args) -> SimpleGraph:
    if args.graph is not None:
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read graph file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"graph file is not UTF-8: {exc}") from exc
        return parse_graph(text)
    if args.grd is not None:
        return build_grd(args.grd[0], args.grd[1])
    return build_k2d(args.k2d)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _closed_forms(graph):
    if graph.family is None:
        raise DomainError("--method formula needs a family graph (--grd or --k2d)")
    return family_invariants(graph.family)


class Chain:
    """The stage chain on one graph under one monomial order; each stage is cached.

    `searched` is the primitive walk search up to default_max_len.  On every
    graph, family or not, the basis is Buchberger's on the searched walks
    unless `verify` assigns the one that `reduced_basis` interreduces from
    them; no stage reads the closed forms.  `budget` caps the search's
    nodes and, at max(1000, budget // 50), Buchberger's S-pairs.
    """

    def __init__(self, graph: SimpleGraph, order: GrevlexOrder, budget: int):
        if budget < 0:
            raise DomainError(f"--budget must be >= 0, got {budget}")
        self.graph, self.order, self.budget = graph, order, budget

    @functools.cached_property
    def searched(self):
        return enumerate_primitive_walks(self.graph, node_budget=self.budget)

    @functools.cached_property
    def basis(self):
        return buchberger(map(walk_to_binomial, self.searched), self.order, max(1000, self.budget // 50))

    @functools.cached_property
    def initial(self):
        return initial_ideal(self.basis)

    @functools.cached_property
    def quotients(self):
        """The quotient profile of in(I_G)'s generators in ascending order."""
        return quotient_profile(self.initial)

    def betti(self, method):
        """The closed-form table of I_G (formula), or in(I_G)'s (quotients, oracle)."""
        if method == "formula":
            return _closed_forms(self.graph).betti
        if method == "quotients":
            return betti_from_linear_quotients(self.quotients)
        return betti_taylor_oracle(self.initial)


def _chain(args) -> Chain:
    """The chain of a command's graph, under --order if given."""
    graph = _load_graph(args)
    spec = getattr(args, "order", None)
    priority = [s.strip() for s in spec.split(",")] if spec else None
    return Chain(graph, default_order(graph, priority), args.budget)


def cmd_gen(args) -> int:
    graph = _load_graph(args)
    if args.json:
        print(serialize_graph(graph))
    else:
        lines = [f"{len(graph.vertices)} vertices: {' '.join(graph.vertices)}",
                 f"{len(graph.edges)} edges:"]
        for e in graph.edges:
            lines.append(f"  {e.name} = {{{e.ends[0]}, {e.ends[1]}}}")
        print("\n".join(lines))
    return EXIT_OK


def cmd_walks(args) -> int:
    """List the primitive walk classes up to a length cap.

    ``truncated`` is true when ``--max-len`` is below the general bound 2|E|;
    the default cap (the proven family bound, or 2|E|) never counts.
    """
    chain = _chain(args)
    graph = chain.graph
    general = 2 * len(graph.edges)
    max_len = args.max_len if args.max_len is not None else default_max_len(graph)
    walks = enumerate_primitive_walks(graph, max_len, node_budget=chain.budget)
    truncated = args.max_len is not None and max_len < general
    payload = {
        "count": len(walks),
        "max_len": max_len,
        "truncated": truncated,
        "walks": [list(w.edge_names) for w in walks],
    }
    lines = [f"{len(walks)} primitive walk classes (length <= {max_len})"]
    if truncated:
        note = f"note: search capped at {max_len}, below the general bound 2|E| = {general}"
        if graph.family is not None:
            note += f"; proven {family_invariants(graph.family).bound_name} {default_max_len(graph)}"
        lines.append(note)
    lines += [" ".join(w.edge_names) for w in walks]
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_gb(args) -> int:
    chain = _chain(args)
    basis = [format_binomial(g, chain.order.names) for g in chain.basis]
    _emit(args, {"basis": basis}, "\n".join(basis))
    return EXIT_OK


def cmd_initial(args) -> int:
    chain = _chain(args)
    gens = [format_monomial(m, chain.order.names) for m in chain.initial.min_gens]
    _emit(args, {"generators": gens}, "\n".join(gens))
    return EXIT_OK


def cmd_betti(args) -> int:
    chain = _chain(args)
    table = chain.betti(args.method)
    ideal = "I_G" if args.method == "formula" else "in(I_G)"
    header = f"graded Betti numbers of {ideal}"
    if ideal == "in(I_G)" and chain.graph.family is None:
        header += " (an entrywise upper bound for those of I_G)"
    payload = {"method": args.method, "ideal": ideal, "betti": table.to_triples()}
    _emit(args, payload, f"{header}\n{table.to_grid()}")
    return EXIT_OK


def cmd_hilbert(args) -> int:
    chain = _chain(args)
    graph = chain.graph
    if args.max_deg is not None and args.max_deg < 0:
        raise DomainError(f"--max-deg must be >= 0, got {args.max_deg}")
    if args.method == "enumerate":
        max_deg = args.max_deg if args.max_deg is not None else 4
        dims = hilbert_enumeration_oracle(graph, max_deg, args.budget)
        payload = {"method": "enumerate", "dimensions": dims}
        _emit(args, payload, " ".join(str(x) for x in dims))
        return EXIT_OK
    if args.method == "formula":
        series = _closed_forms(graph).hilbert
    else:  # betti: the closed-form table of a family graph, else in(I_G)'s by the Lyubeznik oracle
        table = chain.betti("formula" if graph.family is not None else "oracle")
        series = hilbert_from_betti(table, len(graph.edges))
    h = list(series.numerator)
    payload = {
        "method": args.method,
        "numerator": h,
        "denominator_power": series.denom_power,
        "h_vector": h,
        "unimodal": series.unimodal,
    }
    human = f"{series}\nh-vector: {h}  unimodal: {series.unimodal}"
    if args.max_deg is not None:
        expansion = series.expand(args.max_deg)
        payload["expansion"] = expansion
        human += f"\nexpansion: {' '.join(str(x) for x in expansion)}"
    _emit(args, payload, human)
    return EXIT_OK


def cmd_bounds(args) -> int:
    try:
        comps = [(r, d) for r, d in ast.literal_eval(f"[{args.components}]")]
        if not all(type(x) is int for comp in comps for x in comp):
            raise ValueError("entries must be int literals")
    except (ValueError, SyntaxError, TypeError) as exc:
        raise DomainError(
            f'cannot parse --components {args.components!r}: expected int pairs "(r1,d1),(r2,d2),..."'
        ) from exc
    reg_lb, pdim_lb = lower_bounds_from_induced(comps)
    payload = {"components": [list(c) for c in comps], "reg_lower_bound": reg_lb,
               "pdim_lower_bound": pdim_lb}
    _emit(args, payload, f"reg >= {reg_lb}\npdim >= {pdim_lb}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify pipeline


class _Report:
    def __init__(self, graph_spec: str):
        self.graph_spec = graph_spec
        self.checks = []
        self.notes = []
        self.unfinished = set()  # checks that raised or were skipped

    def run(self, name, fn, needs=None):
        """Run one check; skip it with a note if the check named `needs` did not finish."""
        if needs in self.unfinished:
            self.notes.append(f"{name} skipped: no result from {needs}")
            self.unfinished.add(name)
            return
        t0 = time.perf_counter()
        try:
            expected, actual = fn()
            status = "pass" if expected == actual else "fail"
        except (DomainError, ConsistencyError, BudgetError) as exc:
            expected, actual = "no error", f"{type(exc).__name__}: {exc}"
            status = "budget" if isinstance(exc, BudgetError) else "fail"
            self.unfinished.add(name)
        elapsed = time.perf_counter() - t0
        self.checks.append(
            {"name": name, "status": status, "expected": str(expected),
             "actual": str(actual), "elapsed_s": elapsed}
        )

    @property
    def status(self) -> str:
        statuses = {c["status"] for c in self.checks}
        return next((s for s in ("fail", "budget") if s in statuses), "pass")

    def to_json(self) -> dict:
        # Timings are nondeterministic, so JSON mode omits them; the text
        # report carries them instead.
        return {
            "graph": self.graph_spec,
            "status": self.status,
            "notes": self.notes,
            "checks": [
                {k: c[k] for k in ("name", "status", "expected", "actual")}
                for c in self.checks
            ],
        }

    def to_text(self) -> str:
        lines = [f"verify {self.graph_spec}"]
        for c in self.checks:
            lines.append(f"  {c['status'].upper()} {c['name']} ({c['elapsed_s']:.3f}s)")
            if c["status"] != "pass":
                lines.append(f"       expected: {c['expected']}")
                lines.append(f"       actual:   {c['actual']}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"overall: {self.status}")
        return "\n".join(lines)


def verify_family(graph: SimpleGraph, budget: int) -> _Report:
    """Check each closed form of a family graph against code that does not use it.

    Each chain stage runs on first use inside the check named after it, so
    it is charged to that check; a check whose stage raised is skipped with
    a note, so a walk search that ran out of budget is not run again.  The
    closed-form walks are read once, by `primitive-walks` and
    `groebner-basis`; no chain stage reads them.  `groebner-basis` assigns
    the chain the basis that `reduced_basis` interreduces from the searched
    walks (a Graver basis, so a Groebner basis under every order) and names
    the closed-form binomials it lacks or repeats; in(I_G) and all after it
    read that basis.  `toric-generator-degrees` hands the searched walks to
    the generator oracle, which alone lists fibers.
    """
    fam = family_invariants(graph.family)
    report = _Report(fam.label)
    chain = Chain(graph, default_order(graph), budget)
    order = chain.order
    q = len(graph.edges)

    def walk_classes(walks):
        return sorted(canonical_edge_names(w.edge_names) for w in walks)

    def readable(monomials):
        return sorted(format_monomial(m, order.names) for m in monomials)

    closed_walks = family_primitive_walks(graph)
    report.run("primitive-walks", lambda: (walk_classes(closed_walks), walk_classes(chain.searched)))

    def check_basis():
        chain.basis = reduced_basis(map(walk_to_binomial, chain.searched), order)
        closed = Counter(format_binomial(order.normalize(walk_to_binomial(w)), order.names)
                         for w in closed_walks)
        computed = Counter(format_binomial(g, order.names) for g in chain.basis)
        return [], sorted(((closed - computed) + (computed - closed)).elements())

    report.run("groebner-basis", check_basis, needs="primitive-walks")
    report.run("initial-ideal", lambda: (readable(family_initial_generators(graph)),
                                         readable(chain.initial.min_gens)), needs="groebner-basis")

    def check_quotients():
        profile = chain.quotients
        return (True, list(fam.n_sequence)), (profile.linear, profile.n)

    report.run("linear-quotients", check_quotients, needs="initial-ideal")
    report.run("betti-linear-quotients", lambda: (fam.betti.entries, chain.betti("quotients").entries),
               needs="linear-quotients")

    if "initial-ideal" not in report.unfinished and len(chain.initial) > TAYLOR_MAX_GENERATORS:
        report.notes.append(
            f"betti-taylor-oracle skipped: {len(chain.initial)} generators exceed"
            f" the {TAYLOR_MAX_GENERATORS}-generator cap"
        )
    else:
        report.run("betti-taylor-oracle", lambda: (fam.betti.entries, chain.betti("oracle").entries),
                   needs="initial-ideal")

    def check_toric_generators():
        # Row 0 of the closed-form table counts I_G's minimal generators by degree.
        row0 = {j: b for (i, j), b in fam.betti.items() if i == 0}
        top = max(row0)
        expected = {j: row0.get(j, 0) for j in range(2, top + 1)}
        return expected, minimal_generators_oracle(graph, top, chain.searched, budget)

    report.run("toric-generator-degrees", check_toric_generators, needs="primitive-walks")

    series = hilbert_from_betti(fam.betti, q)

    def check_hilbert_formula():
        return (fam.hilbert.numerator, fam.hilbert.denom_power), (series.numerator, series.denom_power)

    report.run("hilbert-from-betti", check_hilbert_formula)
    report.run("hilbert-enumeration", lambda: (series.expand(4),
                                               hilbert_enumeration_oracle(graph, 4, budget)))

    def check_summary():
        reg, pdim = reg_pdim(fam.betti)
        dim = krull_dim(graph)
        expected = (fam.reg, fam.pdim, fam.dim, True)
        actual = (reg, pdim, dim, q - (pdim + 1) == dim)
        return expected, actual

    report.run("homological-summary", check_summary)

    return report


def cmd_verify(args) -> int:
    graph = _load_graph(args)
    if graph.family is None:
        raise DomainError("verify works on family graphs; pass --grd R D or --k2d D")
    report = verify_family(graph, args.budget)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.to_text())
    return {"pass": EXIT_OK, "fail": EXIT_VERIFY, "budget": EXIT_BUDGET}[report.status]


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first call and then reused."""
    parser = _Parser(prog="toricgraphs",
                     description="Toric ideals of graphs: Groebner bases, Betti numbers, "
                                 "Hilbert series, and cross-check oracles.")
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sub, order=False):
        _add_graph_args(sub)
        sub.add_argument("--json", action="store_true", help="machine-readable output")
        sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                         help="walk-search node budget (>= 0), which gb, initial and betti "
                              "spend on family graphs too; also caps each walk-image fiber "
                              "at BUDGET steps, the Hilbert oracle at BUDGET monomials per degree "
                              "and Buchberger (not run by verify) at max(1000, BUDGET // 50) S-pairs")
        if order:
            sub.add_argument("--order", help="comma-separated variable priority, highest first "
                                             "(default: the edges' declaration order)")

    s = subs.add_parser("gen", help="construct a graph and print it")
    _add_graph_args(s)
    s.add_argument("--json", action="store_true", help="emit the JSON graph format")
    s.set_defaults(fn=cmd_gen)

    s = subs.add_parser("walks", help="enumerate primitive walk classes")
    common(s)
    s.add_argument("--max-len", type=int,
                   help="even length cap (default: the proven family bound, 2r for G(r,d) "
                        "and 4 for K_{2,d}; 2|E| for other graphs)")
    s.set_defaults(fn=cmd_walks)

    s = subs.add_parser("gb", help="reduced Groebner basis of the toric ideal")
    common(s, order=True)
    s.set_defaults(fn=cmd_gb)

    s = subs.add_parser("initial", help="minimal generators of the initial ideal")
    common(s, order=True)
    s.set_defaults(fn=cmd_initial)

    s = subs.add_parser("betti", help="graded Betti numbers")
    common(s, order=True)
    s.add_argument("--method", choices=["formula", "quotients", "oracle"], default="formula")
    s.set_defaults(fn=cmd_betti)

    s = subs.add_parser("hilbert", help="Hilbert series / function")
    common(s, order=True)
    s.add_argument("--method", choices=["formula", "betti", "enumerate"], default="formula")
    s.add_argument("--max-deg", type=int, help="expansion / enumeration degree")
    s.set_defaults(fn=cmd_hilbert)

    s = subs.add_parser("bounds", help="reg/pdim lower bounds from induced family subgraphs")
    s.add_argument("--components", required=True, metavar='"(r1,d1),(r2,d2),..."')
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_bounds)

    s = subs.add_parser("verify", help="run the full cross-check pipeline on a family graph")
    common(s)
    s.set_defaults(fn=cmd_verify)

    return parser


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout; devnull takes the flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_DOMAIN
    sys.exit(code)


if __name__ == "__main__":
    main()
