"""The benchmark's workloads and the closed-loop pass that runs them.

Every instance is one `toricgraphs.cli.run(argv)` call, the path users
take.  A pass runs a workload's instances one after another in a single
thread, each call starting when the previous one returns (a closed loop
with one client).  Outputs are captured during the pass and checked after
it, outside the timed interval.

Why these workloads:
- family-oracles: `verify` on G(3,5), G(4,5) and K(2,6).  Each in(I) has 15
  generators, so the 2^15-subset Taylor oracle does most of the work.
- family-algebra: `verify` on K(2,20) and G(5,10).  Buchberger on a
  190-element basis, the quotient profile, the generator oracle and Hilbert
  enumeration dominate; the Taylor oracle is skipped (over 18 generators).
- general-graphs: `gb --graph FILE --json` on 40 seeded graphs.  Long walks
  (the 2|E| bound) on small graphs under declaration-order grevlex, where
  walk search and the primitive filter dominate; half are bipartite.
"""

from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

from checks import check_verify, make_gb_check
from graphgen import generate_graphs, write_graphs

EXIT_VERIFY = 2


@dataclass(frozen=True)
class Instance:
    name: str
    argv: tuple[str, ...]
    check: Callable[[str], str | None]  # None if the output is correct, else why not
    meta: dict = field(default_factory=dict)  # describes the input, for the run's log


@dataclass
class Outcome:
    instance: Instance
    seconds: float
    exit_code: int | None
    stdout: str
    error: str | None = None  # exception raised, or why the output check failed

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or self.error is not None

    @property
    def wrong(self) -> bool:
        """The program reported or produced a wrong answer, or crashed."""
        return self.exit_code == EXIT_VERIFY or self.error is not None


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    outcomes: list[Outcome]


def _verify_instances(seed: int, families: list[tuple[str, ...]]) -> list[Instance]:
    """`verify --json` on each family graph, in an order drawn from the seed."""
    instances = [Instance(" ".join(f), ("verify",) + f + ("--json",), check_verify) for f in families]
    random.Random(seed).shuffle(instances)
    return instances


def family_oracles(seed: int, workdir: str) -> list[Instance]:
    return _verify_instances(seed, [("--grd", "3", "5"), ("--grd", "4", "5"), ("--k2d", "6")])


def family_algebra(seed: int, workdir: str) -> list[Instance]:
    return _verify_instances(seed, [("--k2d", "20"), ("--grd", "5", "10")])


def general_graphs(seed: int, workdir: str) -> list[Instance]:
    graphs = generate_graphs(seed)
    instances = []
    for g, path in zip(graphs, write_graphs(graphs, workdir)):
        meta = {"vertices": len(g.vertices), "edges": len(g.edges), "bipartite": g.bipartite}
        instances.append(Instance(g.name, ("gb", "--graph", path, "--json"), make_gb_check(g.to_json()), meta))
    return instances


WORKLOADS = {
    "family-oracles": family_oracles,
    "family-algebra": family_algebra,
    "general-graphs": general_graphs,
}


def run_pass(instances: list[Instance], call: Callable[[Instance], int]) -> PassResult:
    """Run every instance once through `call`; failures are recorded, never raised."""
    outcomes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for inst in instances:
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code, error = call(inst), None
        except Exception as exc:  # an instance that crashes counts as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(inst, time.perf_counter() - start, code, out.getvalue(), error))
    return PassResult(time.perf_counter() - wall0, time.process_time() - cpu0, outcomes)


def check_outcomes(outcomes: list[Outcome], cache: dict) -> None:
    """Check each output that exited 0, once per distinct (instance, output)."""
    for o in outcomes:
        if o.exit_code != 0 or o.error is not None:
            continue
        key = (o.instance.name, o.stdout)
        if key not in cache:
            try:
                cache[key] = o.instance.check(o.stdout)
            except Exception as exc:  # a checker crash rejects the output
                cache[key] = f"checker raised {type(exc).__name__}: {exc}"
        if cache[key] is not None:
            o.error = f"output check failed: {cache[key]}"
