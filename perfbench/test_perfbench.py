"""Tests of the benchmark's own parts: graph generator, output checks,
failure accounting and the computed work counts."""

import json
import os
import shutil
import subprocess
import sys
from itertools import product

import pytest

from checks import check_basis, make_gb_check
from graphgen import BIPARTITE_CLASSES, NON_BIPARTITE_CLASSES, generate_graphs, write_graphs
from spans import PER_LAYER_METRICS, Tracer
from workloads import Instance, check_outcomes, check_verify, run_pass

K23 = json.dumps({
    "vertices": ["x1", "x2", "y1", "y2", "y3"],
    "edges": [{"name": f"{s}{i}", "ends": [x, f"y{i}"]}
              for s, x in (("a", "x1"), ("b", "x2")) for i in (1, 2, 3)],
})


def _cli_run(argv):
    from toricgraphs.cli import run
    return run(argv)


def _gb_output(tmp_path, graph_text):
    path = tmp_path / "g.json"
    path.write_text(graph_text)
    inst = Instance("g", ("gb", "--graph", str(path), "--json"), make_gb_check(graph_text))
    outcome = run_pass([inst], lambda i: _cli_run(list(i.argv))).outcomes[0]
    assert outcome.exit_code == 0
    return json.loads(outcome.stdout)["basis"]


def _connected(vertices, edges):
    seen, frontier = {vertices[0]}, [vertices[0]]
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == len(vertices)


def _has_proper_two_colouring(vertices, edges):
    return any(all(c[vertices.index(a)] != c[vertices.index(b)] for a, b in edges)
               for c in product((0, 1), repeat=len(vertices)))


def test_same_seed_gives_same_graphs():
    assert generate_graphs(7) == generate_graphs(7)
    assert generate_graphs(7) != generate_graphs(8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_graphs_connected_simple_and_flag_matches_two_colouring(seed):
    graphs = generate_graphs(seed)
    assert len(graphs) == 40
    for g in graphs:
        pairs = [frozenset(e) for e in g.edges]
        assert all(len(p) == 2 for p in pairs)
        assert len(set(pairs)) == len(pairs)
        assert _connected(g.vertices, g.edges)
        assert g.bipartite == _has_proper_two_colouring(g.vertices, g.edges)
    shapes = sorted((len(g.vertices), len(g.edges), g.bipartite) for g in graphs)
    assert shapes == [(6, 8, False)] * 20 + [(7, 9, True)] * 20


def test_class_tables_are_the_isomorphism_classes():
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    non_bipartite = [g for g in atlas if g.number_of_nodes() == 6 and g.number_of_edges() == 8
                     and nx.is_connected(g) and not nx.is_bipartite(g)]
    bipartite = [g for g in atlas if g.number_of_nodes() == 7 and g.number_of_edges() == 9
                 and nx.is_connected(g) and nx.is_bipartite(g)
                 and sorted(map(len, nx.bipartite.sets(g))) == [3, 4]]
    reps = {}
    for g in generate_graphs(0):
        reps.setdefault(g.bipartite, []).append(nx.Graph(list(g.edges)))
    for want, got, copies in ((non_bipartite, reps[False], 1), (bipartite, reps[True], 4)):
        assert len(got) == len(want) * copies
        for cls in want:
            assert sum(nx.is_isomorphic(cls, h) for h in got) == copies
    assert len(NON_BIPARTITE_CLASSES) == 20 and len(BIPARTITE_CLASSES) == 5


def test_written_graphs_parse(tmp_path):
    from toricgraphs.graphs import parse_graph
    graphs = generate_graphs(3)
    for g, path in zip(graphs, write_graphs(graphs, str(tmp_path))):
        with open(path, encoding="utf-8") as fh:
            parsed = parse_graph(fh.read())
        assert len(parsed.edges) == len(g.edges)


def test_checker_accepts_program_basis(tmp_path):
    basis = _gb_output(tmp_path, K23)
    assert len(basis) == 3
    assert make_gb_check(K23)(json.dumps({"basis": basis})) is None


def test_checker_rejects_dropped_element(tmp_path):
    basis = _gb_output(tmp_path, K23)
    reason = make_gb_check(K23)(json.dumps({"basis": basis[1:]}))
    assert reason is not None and "Hilbert function" in reason


def test_checker_rejects_binomial_outside_ideal(tmp_path):
    basis = _gb_output(tmp_path, K23)
    reason = make_gb_check(K23)(json.dumps({"basis": basis[1:] + ["a1*a2 - b1*b2"]}))
    assert reason is not None and "not in the toric ideal" in reason


def test_checker_rejects_unreduced_basis():
    doc = json.loads(K23)

    def oracle(d):
        raise AssertionError("not reached")

    reason = check_basis(doc, ["a2*b1 - a1*b2", "a2*a3*b1 - a1*a3*b2"], oracle)
    assert reason is not None and "not reduced" in reason


def test_checker_on_generated_graph(tmp_path):
    g = generate_graphs(5)[0]
    assert make_gb_check(g.to_json())(json.dumps({"basis": _gb_output(tmp_path, g.to_json())})) is None


def test_verify_check():
    assert check_verify(json.dumps({"status": "pass", "checks": []})) is None
    assert check_verify(json.dumps({"status": "fail"})) is not None
    assert check_verify("verify G(r=3,d=5)") is not None


def test_budget_exhaustion_counts_as_failure_and_run_continues(tmp_path):
    g = generate_graphs(1)[1]
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    check = make_gb_check(g.to_json())
    starved = Instance("starved", ("gb", "--graph", str(path), "--json", "--budget", "10"), check)
    normal = Instance("normal", ("verify", "--k2d", "3", "--json"), check_verify)
    result = run_pass([starved, normal], lambda i: _cli_run(list(i.argv)))
    check_outcomes(result.outcomes, {})
    bad, good = result.outcomes
    assert bad.exit_code == 3 and bad.failed and not bad.wrong
    assert bad.seconds > 0
    assert good.exit_code == 0 and not good.failed


def test_exception_and_failed_check_count_as_failures():
    def call(inst):
        if inst.name == "crash":
            raise RuntimeError("boom")
        return _cli_run(list(inst.argv))

    crash = Instance("crash", ("verify", "--k2d", "3", "--json"), check_verify)
    rejected = Instance("rejected", ("verify", "--k2d", "3", "--json"), lambda out: "rejected")
    result = run_pass([crash, rejected], call)
    check_outcomes(result.outcomes, {})
    assert all(o.failed and o.wrong for o in result.outcomes)
    assert "RuntimeError" in result.outcomes[0].error
    assert "rejected" in result.outcomes[1].error


def test_computed_counts_repeat_across_runs(tmp_path):
    g = generate_graphs(2)[0]
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    instances = [Instance("k", ("verify", "--grd", "3", "3", "--json"), check_verify),
                 Instance("g", ("gb", "--graph", str(path), "--json"), make_gb_check(g.to_json()))]
    from toricgraphs import cli

    def traced_run():
        tracer = Tracer()
        tracer.install()
        try:
            tracer.start_pass()
            result = run_pass(instances, tracer.instance_call(cli.run))
        finally:
            tracer.uninstall()
        assert not tracer.missing
        assert not any(o.failed for o in result.outcomes)
        return tracer.layer_metrics(0)

    first, second = traced_run(), traced_run()
    assert set(first) | {"trace.overhead_ratio"} == {name for name, _ in PER_LAYER_METRICS}
    for name in ("quotients.taylor_subsets", "invariants.enumerated_monomials",
                 "grobner.zero_reduction_ratio", "grobner.reduce_calls", "walks.minimal_walks"):
        assert first[name] == second[name] and first[name] > 0
    assert first["quotients.taylor_subsets"] == 2 ** 6  # in(I_G(3,3)) has C(3,2) + 3 generators
    assert cli.buchberger.__module__ == "toricgraphs.grobner"  # wrappers removed


def test_benchmark_json_lists_the_reported_metrics():
    from run import END_TO_END_UNITS
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER_METRICS)


def test_refuses_to_run_without_program_sources(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(here):
        if name.endswith(".py"):
            shutil.copy(os.path.join(here, name), bench / name)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "family-oracles",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_harrell_davis_quantiles():
    from run import harrell_davis
    assert harrell_davis([0.3] * 40, 0.5) == pytest.approx(0.3)
    values = [k / 39 for k in range(40)]  # evenly spread on [0, 1]
    assert harrell_davis(values, 0.50) == pytest.approx(0.50, abs=1e-3)
    assert harrell_davis(values, 0.75) == pytest.approx(0.75, abs=0.01)
    assert harrell_davis(list(reversed(values)), 0.75) == harrell_davis(values, 0.75)
    assert 0.1 < harrell_davis([0.1, 0.2], 0.75) < 0.2
