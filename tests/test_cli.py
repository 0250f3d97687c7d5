import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toricgraphs import (
    BudgetError,
    betti_formula_k2d,
    buchberger,
    build_grd,
    build_k2d,
    default_order,
    hilbert_from_betti,
    parse_graph,
    serialize_graph,
    walk_to_binomial,
)
from toricgraphs.grobner import format_binomial
from toricgraphs.walks import ClosedEvenWalk, canonical_edge_names, family_primitive_walks
from toricgraphs.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_json_round_trips(capsys):
    code, out, _ = invoke(capsys, "gen", "--grd", "3", "5", "--json")
    assert code == 0
    assert parse_graph(out) == build_grd(3, 5)


def test_gen_human_output(capsys):
    code, out, _ = invoke(capsys, "gen", "--k2d", "2")
    assert code == 0
    assert "4 vertices" in out and "4 edges" in out


def test_gen_domain_error_exit_code(capsys):
    code, _, err = invoke(capsys, "gen", "--grd", "2", "4")
    assert code == 1
    assert "r >= 3" in err


def test_usage_error_exit_code(capsys):
    code, _, err = invoke(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()
    code, _, err = invoke(capsys, "gen")
    assert code == 1


def test_consecutive_runs_share_no_state(capsys):
    code, out, _ = invoke(capsys, "betti", "--grd", "3", "3", "--method", "quotients", "--json")
    assert code == 0
    assert json.loads(out)["method"] == "quotients"
    code, out, _ = invoke(capsys, "betti", "--grd", "3", "3")
    assert code == 0
    assert out.startswith("graded Betti numbers of I_G\n")
    assert "{" not in out and "quotients" not in out
    code, _, err = invoke(capsys, "betti", "--grd", "3")
    assert code == 1
    assert "usage" in err.lower()


def test_walks_json(capsys):
    code, out, _ = invoke(capsys, "walks", "--k2d", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert doc["truncated"] is False
    assert sorted(len(w) for w in doc["walks"]) == [4, 4, 4]


def test_walks_truncation_flag(capsys):
    code, out, _ = invoke(capsys, "walks", "--k2d", "3", "--max-len", "4", "--json")
    assert code == 0
    assert json.loads(out)["truncated"] is True


def test_walks_truncation_measured_against_2e_on_grd(capsys):
    # G(3,3) has |E| = 2d + 2r - 2 = 10: the cap 4 is below 2|E| = 20.
    code, out, _ = invoke(capsys, "walks", "--grd", "3", "3", "--max-len", "4")
    assert code == 0
    assert "2|E| = 20" in out and "2r = 6" in out
    code, out, _ = invoke(capsys, "walks", "--grd", "3", "3", "--max-len", "4", "--json")
    assert json.loads(out)["truncated"] is True


def test_walks_full_cap_on_grd_finds_the_family_walks(capsys):
    code, out, _ = invoke(capsys, "walks", "--grd", "3", "3", "--max-len", "20", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["truncated"] is False
    assert doc["count"] == 6
    g = build_grd(3, 3)
    found = {canonical_edge_names(ClosedEvenWalk(g, w).edge_names) for w in doc["walks"]}
    assert found == {canonical_edge_names(w.edge_names) for w in family_primitive_walks(g)}


def test_walks_truncation_on_graph_file(capsys, tmp_path):
    hexagon = {
        "vertices": [f"v{i}" for i in range(6)],
        "edges": [{"name": f"c{i}", "ends": [f"v{i}", f"v{(i + 1) % 6}"]} for i in range(6)],
    }
    f = tmp_path / "c6.json"
    f.write_text(json.dumps(hexagon))
    code, out, _ = invoke(capsys, "walks", "--graph", str(f), "--max-len", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["truncated"], doc["count"]) == (True, 0)
    code, out, _ = invoke(capsys, "walks", "--graph", str(f), "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["truncated"], doc["count"]) == (False, 1)


def test_walks_budget_exhaustion_exit_code(capsys):
    code, _, err = invoke(capsys, "walks", "--grd", "3", "4", "--budget", "5")
    assert code == 3
    assert "budget" in err.lower()


def test_searches_run_past_the_recursion_limit(capsys, tmp_path):
    # Walks, and fiber supports, with more steps than Python's default
    # recursion limit of 1000: both searches keep their own stacks.
    code, out, _ = invoke(capsys, "walks", "--grd", "520", "2")
    assert code == 0
    assert out.splitlines()[0] == "3 primitive walk classes (length <= 1040)"
    n = 1000
    cycle = {"vertices": [f"v{i}" for i in range(n)],
             "edges": [{"name": f"c{i}", "ends": [f"v{i}", f"v{(i + 1) % n}"]} for i in range(n)]}
    f = tmp_path / "c1000.json"
    f.write_text(json.dumps(cycle))
    code, out, _ = invoke(capsys, "gb", "--graph", str(f), "--json")
    assert code == 0
    assert len(json.loads(out)["basis"]) == 1
    code, out, _ = invoke(capsys, "verify", "--grd", "520", "2", "--json")
    assert code == 3
    statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert statuses.pop("hilbert-enumeration") == "budget"
    assert set(statuses.values()) == {"pass"}


def test_hilbert_enumeration_budget_exhaustion_exit_code(capsys):
    # --budget caps the monomials per degree; G(3,2) has 8 edges, so degree 1 needs 8.
    code, out, err = invoke(capsys, "hilbert", "--grd", "3", "2", "--method", "enumerate",
                            "--budget", "0", "--json")
    assert (code, out) == (3, "")
    assert err == "budget exhausted: degree 1 needs 8 monomials, over the budget 0\n"
    code, out, _ = invoke(capsys, "hilbert", "--grd", "3", "2", "--method", "enumerate",
                          "--budget", "330", "--json")
    assert code == 0 and json.loads(out)["dimensions"] == [1, 8, 35, 110, 280]


@pytest.mark.parametrize("command", [
    ["walks"], ["gb"], ["initial"], ["betti", "--method", "quotients"],
    ["hilbert", "--method", "enumerate"], ["verify"],
])
def test_negative_budget_rejected(capsys, command):
    code, out, err = invoke(capsys, *command, "--grd", "3", "2", "--budget", "-5")
    assert (code, out) == (1, "")
    assert err == "error: --budget must be >= 0, got -5\n"


def test_gb_text_g32(capsys):
    code, out, _ = invoke(capsys, "gb", "--grd", "3", "2")
    assert code == 0
    assert out.splitlines() == [
        "a2*b1 - a1*b2",
        "a2*e2*e4 - e1*e3*b2",
        "a1*e2*e4 - e1*e3*b1",
    ]


def _k(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


PETERSEN = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


@pytest.mark.parametrize("pairs,size", [
    (_k(5), 11),
    ([(i, j) for i in range(3) for j in range(3, 7)], 18),
    (PETERSEN, 25),
    (_k(5)[1:], 7),
], ids=["K5", "K34", "Petersen", "K5-minus-edge"])
def test_gb_finishes_on_dense_graphs(capsys, tmp_path, pairs, size):
    doc = {"vertices": sorted({f"v{u}" for pair in pairs for u in pair}),
           "edges": [{"name": f"e{k}", "ends": [f"v{u}", f"v{v}"]} for k, (u, v) in enumerate(pairs)]}
    f = tmp_path / "g.json"
    f.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "gb", "--graph", str(f), "--json")
    assert code == 0
    ends = {e["name"]: e["ends"] for e in doc["edges"]}

    def image(side):
        counts = {}
        for factor in side.split("*"):
            name, _, power = factor.partition("^")
            for v in ends[name]:
                counts[v] = counts.get(v, 0) + (int(power) if power else 1)
        return counts

    basis = json.loads(out)["basis"]
    assert len(basis) == size
    for binomial in basis:
        lhs, rhs = binomial.split(" - ")
        assert image(lhs) == image(rhs)


@pytest.mark.parametrize("flags, graph",
                         [pytest.param(("--grd", "3", str(d)), build_grd(3, d), id=f"G(3,{d})") for d in (2, 3, 4)]
                         + [pytest.param(("--k2d", str(d)), build_k2d(d), id=f"K(2,{d})") for d in (3, 4, 5)])
def test_gb_on_family_graph_equals_buchberger_on_the_closed_forms(capsys, flags, graph):
    # gb searches for the walks; Buchberger on the closed-form walks is the reference.
    order = default_order(graph)
    reference = buchberger(map(walk_to_binomial, family_primitive_walks(graph)), order)
    code, out, _ = invoke(capsys, "gb", *flags, "--json")
    assert code == 0
    assert json.loads(out)["basis"] == [format_binomial(g, order.names) for g in reference]


def test_gb_on_family_graph_reports_an_exhausted_walk_search(capsys):
    code, out, err = invoke(capsys, "gb", "--grd", "3", "3", "--budget", "10")
    assert (code, out) == (3, "")
    assert err == "budget exhausted: walk search exceeded the node budget of 10\n"


def test_initial_json_g35(capsys):
    code, out, _ = invoke(capsys, "initial", "--grd", "3", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == [
        "a5*b4", "a5*b3", "a4*b3", "a5*b2", "a4*b2", "a3*b2",
        "a5*b1", "a4*b1", "a3*b1", "a2*b1",
        "a5*e2*e4", "a4*e2*e4", "a3*e2*e4", "a2*e2*e4", "a1*e2*e4",
    ]


def test_betti_oracle_json_g32(capsys):
    code, out, _ = invoke(capsys, "betti", "--grd", "3", "2", "--method", "oracle", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [
        {"beta": 1, "i": 0, "j": 2},
        {"beta": 2, "i": 0, "j": 3},
        {"beta": 2, "i": 1, "j": 4},
    ]


def test_betti_methods_agree(capsys):
    tables = []
    for method in ("formula", "quotients", "oracle"):
        code, out, _ = invoke(capsys, "betti", "--grd", "3", "3", "--method", method, "--json")
        assert code == 0
        tables.append(json.loads(out)["betti"])
    assert tables[0] == tables[1] == tables[2]


def test_betti_grid_output(capsys):
    code, out, _ = invoke(capsys, "betti", "--grd", "3", "2", "--method", "formula")
    assert code == 0
    assert "2:" in out and "3:" in out


@pytest.mark.parametrize("method,ideal", [("formula", "I_G"), ("quotients", "in(I_G)"),
                                          ("oracle", "in(I_G)")])
def test_betti_names_its_ideal_on_family_graph(capsys, method, ideal):
    code, out, _ = invoke(capsys, "betti", "--k2d", "3", "--method", method, "--json")
    assert code == 0
    assert json.loads(out)["ideal"] == ideal
    code, out, _ = invoke(capsys, "betti", "--k2d", "3", "--method", method)
    assert code == 0
    assert out.splitlines()[0] == f"graded Betti numbers of {ideal}"


def test_betti_initial_table_marked_upper_bound_on_graph_file(capsys, tmp_path):
    f = tmp_path / "g.json"
    f.write_text(serialize_graph(build_grd(3, 2)))
    code, out, _ = invoke(capsys, "betti", "--graph", str(f), "--method", "oracle")
    assert code == 0
    assert out.splitlines()[0] == (
        "graded Betti numbers of in(I_G) (an entrywise upper bound for those of I_G)")
    code, out, _ = invoke(capsys, "betti", "--graph", str(f), "--method", "oracle", "--json")
    assert code == 0
    assert json.loads(out)["ideal"] == "in(I_G)"


def test_betti_formula_needs_family(capsys, tmp_path):
    f = tmp_path / "g.json"
    f.write_text(serialize_graph(build_grd(3, 2)))
    code, _, err = invoke(capsys, "betti", "--graph", str(f), "--method", "formula")
    assert code == 1
    assert "family" in err


def test_betti_from_graph_file_oracle(capsys, tmp_path):
    f = tmp_path / "g.json"
    f.write_text(serialize_graph(build_grd(3, 2)))
    code, out, _ = invoke(capsys, "betti", "--graph", str(f), "--method", "oracle", "--json")
    assert code == 0
    assert json.loads(out)["betti"] == [
        {"beta": 1, "i": 0, "j": 2},
        {"beta": 2, "i": 0, "j": 3},
        {"beta": 2, "i": 1, "j": 4},
    ]


def test_hilbert_formula_with_expansion(capsys):
    code, out, _ = invoke(capsys, "hilbert", "--grd", "3", "2", "--max-deg", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["numerator"] == [1, 2, 2]
    assert doc["denominator_power"] == 6
    assert doc["expansion"] == [1, 8, 35]
    assert doc["h_vector"] == [1, 2, 2]
    assert doc["unimodal"] is True


def test_hilbert_enumerate(capsys):
    code, out, _ = invoke(capsys, "hilbert", "--grd", "3", "2", "--method", "enumerate",
                          "--max-deg", "2", "--json")
    assert code == 0
    assert json.loads(out)["dimensions"] == [1, 8, 35]


@pytest.mark.parametrize("max_deg", ["-1", "-2"])
@pytest.mark.parametrize("method", ["formula", "betti", "enumerate"])
def test_hilbert_rejects_negative_max_deg(capsys, method, max_deg):
    code, out, err = invoke(capsys, "hilbert", "--grd", "3", "2", "--method", method,
                            "--max-deg", max_deg, "--json")
    assert (code, out) == (1, "")
    assert f"--max-deg must be >= 0, got {max_deg}" in err


def test_hilbert_betti_method_matches_formula(capsys):
    _, out1, _ = invoke(capsys, "hilbert", "--grd", "4", "3", "--method", "formula", "--json")
    _, out2, _ = invoke(capsys, "hilbert", "--grd", "4", "3", "--method", "betti", "--json")
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["numerator"] == d2["numerator"]
    assert d1["denominator_power"] == d2["denominator_power"]


def test_hilbert_k2d_formula(capsys):
    for d in range(2, 7):
        code, out, _ = invoke(capsys, "hilbert", "--k2d", str(d), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["numerator"] == [1, d - 1]
        assert doc["denominator_power"] == d + 1
        from_betti = hilbert_from_betti(betti_formula_k2d(d), 2 * d)
        assert (tuple(doc["numerator"]), doc["denominator_power"]) == (
            from_betti.numerator, from_betti.denom_power)


def test_bounds(capsys):
    code, out, _ = invoke(capsys, "bounds", "--components", "(3,2),(4,3)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["reg_lower_bound"] == 6
    assert doc["pdim_lower_bound"] == 4


def test_bounds_parse_error(capsys):
    code, _, err = invoke(capsys, "bounds", "--components", "nonsense")
    assert code == 1
    assert "components" in err


@pytest.mark.parametrize("components", ["(3.7,2.9)", "('3','2')", "(1e400,2)"])
def test_bounds_rejects_non_int_entries(capsys, components):
    code, out, err = invoke(capsys, "bounds", "--components", components)
    assert (code, out) == (1, "")
    assert "int pairs" in err


def test_order_flag_changes_initial_ideal(capsys):
    _, out_default, _ = invoke(capsys, "initial", "--k2d", "2", "--json")
    _, out_flipped, _ = invoke(
        capsys, "initial", "--k2d", "2", "--order", "b1,b2,a1,a2", "--json"
    )
    assert json.loads(out_default)["generators"] == ["a2*b1"]
    assert json.loads(out_flipped)["generators"] == ["a1*b2"]


@pytest.mark.parametrize("family", [("--grd", "3", "2"), ("--grd", "4", "3"), ("--k2d", "4")])
def test_family_graph_read_back_from_file_gives_the_same_results(capsys, tmp_path, family):
    # The monomial order comes from the declared edges alone, not from how
    # the graph was built.
    _, text, _ = invoke(capsys, "gen", *family, "--json")
    f = tmp_path / "g.json"
    f.write_text(text)
    for argv in (["betti", "--method", "quotients", "--json"], ["gb", "--json"]):
        built = invoke(capsys, *argv, *family)
        read = invoke(capsys, *argv, "--graph", str(f))
        assert built[0] == 0
        assert read == built


def test_order_flag_rejects_bad_priority(capsys):
    code, _, err = invoke(capsys, "gb", "--k2d", "2", "--order", "a1,a1,b1,b2")
    assert code == 1
    assert "permutation" in err


def test_verify_passes_g35(capsys):
    code, out, _ = invoke(capsys, "verify", "--grd", "3", "5")
    assert code == 0
    assert "overall: pass" in out
    for name in ("primitive-walks", "groebner-basis", "initial-ideal",
                 "linear-quotients", "betti-linear-quotients", "betti-taylor-oracle",
                 "toric-generator-degrees", "hilbert-from-betti", "hilbert-enumeration",
                 "homological-summary"):
        assert name in out


VERIFY_CHECKS = [
    "primitive-walks", "groebner-basis", "initial-ideal", "linear-quotients",
    "betti-linear-quotients", "betti-taylor-oracle", "toric-generator-degrees",
    "hilbert-from-betti", "hilbert-enumeration", "homological-summary",
]


@pytest.mark.parametrize("graph", [["--k2d", "2"], ["--k2d", "3"], ["--grd", "3", "2"],
                                   ["--grd", "4", "2"]], ids=["K22", "K23", "G32", "G42"])
def test_verify_runs_every_check(capsys, graph):
    code, out, _ = invoke(capsys, "verify", *graph, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert [c["name"] for c in doc["checks"]] == VERIFY_CHECKS
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_reports_budget_and_runs_the_other_checks(capsys):
    code, out, _ = invoke(capsys, "verify", "--grd", "3", "3", "--budget", "10", "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "budget"
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses.pop("primitive-walks") == "budget"
    # The Groebner basis and the generator oracle read the exhausted walk
    # search, so both are skipped, and so are the checks that read the
    # basis.  --budget also caps the Hilbert oracle's monomials per degree
    # (G(3,3) needs 55 in degree 2), so it runs out too.
    skipped = ["groebner-basis", "initial-ideal", "linear-quotients", "betti-linear-quotients",
               "betti-taylor-oracle", "toric-generator-degrees"]
    assert sorted(statuses) == sorted(set(VERIFY_CHECKS[1:]) - set(skipped))
    assert statuses.pop("hilbert-enumeration") == "budget"
    assert set(statuses.values()) == {"pass"}
    assert doc["notes"] == [f"{name} skipped: no result from {need}" for name, need in zip(
        skipped, ["primitive-walks", "groebner-basis", "initial-ideal", "linear-quotients",
                  "initial-ideal", "primitive-walks"])]
    code, out, _ = invoke(capsys, "verify", "--grd", "3", "3", "--budget", "10")
    assert code == 3
    assert "BUDGET primitive-walks" in out and out.rstrip().endswith("overall: budget")


def test_verify_reports_a_failed_stage_and_skips_what_needs_it(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise BudgetError("interreduction exceeded a budget")

    monkeypatch.setattr("toricgraphs.cli.reduced_basis", exhausted)
    code, out, _ = invoke(capsys, "verify", "--grd", "3", "3", "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "budget"
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses["groebner-basis"] == "budget"
    assert statuses["toric-generator-degrees"] == "pass"
    assert statuses["hilbert-enumeration"] == "pass"
    skipped = ["initial-ideal", "linear-quotients", "betti-linear-quotients", "betti-taylor-oracle"]
    assert sorted(statuses) == sorted(set(VERIFY_CHECKS) - set(skipped))
    for name in skipped:
        assert any(note.startswith(f"{name} skipped") for note in doc["notes"])
    code, out, _ = invoke(capsys, "verify", "--grd", "3", "3")
    assert code == 3
    assert "BUDGET groebner-basis" in out and out.rstrip().endswith("overall: budget")


def test_verify_never_reads_an_uncertified_basis(capsys, monkeypatch):
    # verify runs no Buchberger, and compares the closed form with the basis
    # interreduced from the walk search as multisets: a dropped, an extra or
    # a repeated closed-form binomial fails groebner-basis and is named.
    # Only the comparison fails, so the later checks read the computed basis
    # and pass; primitive-walks reads the same closed form and fails too.
    import toricgraphs.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("verify ran Buchberger")

    monkeypatch.setattr(cli, "buchberger", never)
    graph = build_grd(3, 3)
    order = default_order(graph)
    walks = family_primitive_walks(graph)
    # Two 4-cycles through y1: a walk whose binomial lies in I_G but is not primitive.
    extra = ClosedEvenWalk(graph, ("a1", "a2", "b2", "b1", "a1", "a3", "b3", "b1"))
    for closed, walk in ((walks[1:], walks[0]), (walks + [extra], extra), (walks + walks[-1:], walks[-1])):
        monkeypatch.setattr(cli, "family_primitive_walks", lambda graph, _closed=closed: _closed)
        code, out, _ = invoke(capsys, "verify", "--grd", "3", "3", "--json")
        assert code == 2
        doc = json.loads(out)
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        (check,) = [c for c in doc["checks"] if c["name"] == "groebner-basis"]
        assert (check["status"], check["expected"]) == ("fail", "[]")
        assert check["actual"] == str([format_binomial(order.normalize(walk_to_binomial(walk)), order.names)])
        assert sorted(statuses) == sorted(VERIFY_CHECKS) and doc["notes"] == []
        assert {name for name, status in statuses.items() if status != "pass"} == {
            "primitive-walks", "groebner-basis"}


def test_verify_runs_the_checks_after_a_failed_comparison(capsys, monkeypatch):
    # Only a check that raised skips its dependents: a wrong closed form for
    # in(I_G) fails initial-ideal, and the quotient and Betti checks still
    # read the computed basis's initial ideal.
    import toricgraphs.cli as cli

    monkeypatch.setattr(cli, "family_initial_generators", lambda graph: [])
    code, out, _ = invoke(capsys, "verify", "--grd", "3", "3", "--json")
    assert code == 2
    doc = json.loads(out)
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert sorted(statuses) == sorted(VERIFY_CHECKS)
    assert statuses.pop("initial-ideal") == "fail"
    assert set(statuses.values()) == {"pass"}
    assert doc["notes"] == []


def test_verify_json_schema(capsys):
    code, out, _ = invoke(capsys, "verify", "--grd", "3", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert {"name", "status", "expected", "actual"} == set(doc["checks"][0])
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["initial-ideal"]["actual"] == "['a1*e2*e4', 'a2*b1', 'a2*e2*e4']"
    # The closed-form binomials that the computed basis lacks or adds: none.
    assert checks["groebner-basis"]["expected"] == checks["groebner-basis"]["actual"] == "[]"


def test_verify_k2d(capsys):
    code, out, _ = invoke(capsys, "verify", "--k2d", "4", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_taylor_entry_order_pinned(capsys):
    # The JSON prints the table's dict, so the oracle must insert its entries
    # in (subset size, exponent vector) order.
    code, out, _ = invoke(capsys, "verify", "--grd", "3", "3", "--json")
    assert code == 0
    (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "betti-taylor-oracle"]
    assert check["actual"] == "{(0, 2): 3, (0, 3): 3, (1, 3): 2, (1, 4): 6, (2, 5): 3}"


def test_verify_generator_degrees_print_in_degree_order(capsys):
    # Row 0 of G(4,4) skips degree 3, so the expected zero must sit between 2 and 4.
    code, out, _ = invoke(capsys, "verify", "--grd", "4", "4", "--json")
    assert code == 0
    (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "toric-generator-degrees"]
    assert check["expected"] == check["actual"] == "{2: 6, 3: 0, 4: 4}"


def test_verify_notes_the_taylor_cap(capsys):
    code, out, _ = invoke(capsys, "verify", "--k2d", "7", "--json")
    doc = json.loads(out)
    assert (code, doc["status"]) == (0, "pass")
    assert doc["notes"] == ["betti-taylor-oracle skipped: 21 generators exceed the 18-generator cap"]
    assert "betti-taylor-oracle" not in [c["name"] for c in doc["checks"]]


@pytest.mark.parametrize("argv", [
    ("verify", "--grd", "3", "3", "--json"),
    ("gb", "--grd", "3", "3"),
    ("betti", "--grd", "3", "3", "--method", "quotients"),
    ("hilbert", "--graph", "FILE", "--method", "betti"),
])
def test_each_stage_runs_at_most_once(capsys, monkeypatch, tmp_path, argv):
    import toricgraphs.cli as cli

    f = tmp_path / "g.json"
    f.write_text(serialize_graph(build_grd(3, 2)))
    calls = {}
    for name in ("enumerate_primitive_walks", "buchberger", "reduced_basis", "initial_ideal", "quotient_profile"):
        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    code, _, _ = invoke(capsys, *[str(f) if a == "FILE" else a for a in argv])
    assert code == 0
    # Every command, on a family graph too, starts from one walk search;
    # verify interreduces its binomials instead of running Buchberger.
    assert calls["enumerate_primitive_walks"] == 1
    assert calls.get("buchberger", 0) == (0 if argv[0] == "verify" else 1)
    assert calls.get("reduced_basis", 0) == (1 if argv[0] == "verify" else 0)
    assert calls.get("initial_ideal", 0) == (0 if argv[0] == "gb" else 1)
    assert all(n <= 1 for n in calls.values()), calls


def test_verify_searches_for_walks_once(capsys, monkeypatch):
    # One walk search serves primitive-walks, groebner-basis and
    # toric-generator-degrees, whose generator oracle alone lists fibers; a
    # search that runs out of budget is not run again, and no fibers are
    # listed without it.
    import toricgraphs.cli as cli
    import toricgraphs.walks as walks

    calls = []
    for module, name in ((walks, "minimal_closed_even_walks"), (cli, "minimal_generators_oracle")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert invoke(capsys, "verify", "--grd", "3", "3", "--json")[0] == 0
    assert calls == ["minimal_closed_even_walks", "minimal_generators_oracle"]
    calls.clear()
    assert invoke(capsys, "verify", "--grd", "3", "3", "--budget", "10", "--json")[0] == 3
    assert calls == ["minimal_closed_even_walks"]


def test_verify_rejects_graph_file(capsys, tmp_path):
    f = tmp_path / "g.json"
    f.write_text(serialize_graph(build_grd(3, 2)))
    code, _, err = invoke(capsys, "verify", "--graph", str(f))
    assert code == 1


def test_json_outputs_byte_identical(capsys):
    for argv in (
        ["betti", "--grd", "3", "2", "--method", "oracle", "--json"],
        ["verify", "--grd", "3", "2", "--json"],
        ["walks", "--grd", "3", "3", "--json"],
        ["hilbert", "--k2d", "4", "--method", "betti", "--json"],
    ):
        _, out1, _ = invoke(capsys, *argv)
        _, out2, _ = invoke(capsys, *argv)
        assert out1 == out2


def test_missing_graph_file(capsys):
    code, _, err = invoke(capsys, "gb", "--graph", "/nonexistent/g.json")
    assert code == 1
    assert "cannot read" in err


def test_undecodable_graph_file_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "latin1.json"
    f.write_bytes('{"vertices": ["\u00e9"], "edges": []}'.encode("latin-1"))
    code, out, err = invoke(capsys, "gb", "--graph", str(f))
    assert (code, out) == (1, "")
    assert err.startswith("parse error: graph file is not UTF-8")


def test_console_entry_point(capsys):
    # Reaches main() through `python -m toricgraphs.cli`: argv, stdout and exit code.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def main(*argv):
        return subprocess.run([sys.executable, "-m", "toricgraphs.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    done = main("verify", "--grd", "3", "2", "--json")
    assert done.returncode == 0
    assert done.stdout == invoke(capsys, "verify", "--grd", "3", "2", "--json")[1]
    assert main("verify", "--k2d", "1").returncode == 1
    assert main("walks", "--grd", "3", "4", "--budget", "5").returncode == 3


def test_closed_stdout_exits_quietly():
    # The reader goes away before the 78 KB of output, more than a pipe
    # holds, is written: exit 1 with nothing on stderr, not a traceback.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "toricgraphs.cli", "walks", "--k2d", "100"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")
