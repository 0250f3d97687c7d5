import json
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement
from math import comb
from random import Random

import pytest

from toricgraphs import (
    BettiTable,
    BudgetError,
    ConsistencyError,
    DomainError,
    HilbertSeries,
    betti_formula_grd,
    betti_formula_k2d,
    build_grd,
    build_k2d,
    hilbert_enumeration_oracle,
    hilbert_formula_grd,
    hilbert_from_betti,
    krull_dim,
    lower_bounds_from_induced,
    minimal_generators_oracle,
    parse_graph,
    reg_pdim,
)
import toricgraphs.cli as cli
from toricgraphs.errors import DEFAULT_BUDGET
from toricgraphs.graphs import SimpleGraph
from toricgraphs.grobner import (
    Binomial,
    Monomial,
    buchberger,
    default_order,
    format_binomial,
    format_monomial,
    reduced_basis,
)
from toricgraphs.invariants import _fiber, _packed_images, quotient_numerator_from_betti
from toricgraphs.walks import (
    ClosedEvenWalk,
    default_max_len,
    enumerate_primitive_walks,
    family_primitive_walks,
    minimal_closed_even_walks,
    walk_to_binomial,
)
from toricgraphs.linalg import sparse_rational_rank


def cycle_graph(n):
    doc = {
        "vertices": [f"u{i}" for i in range(n)],
        "edges": [{"name": f"f{i}", "ends": [f"u{i}", f"u{(i + 1) % n}"]} for i in range(n)],
    }
    return parse_graph(json.dumps(doc))


def path_graph(n):
    doc = {
        "vertices": [f"u{i}" for i in range(n)],
        "edges": [{"name": f"f{i}", "ends": [f"u{i}", f"u{i+1}"]} for i in range(n - 1)],
    }
    return parse_graph(json.dumps(doc))


def graph_from_pairs(pairs):
    vertices = sorted({str(v) for pair in pairs for v in pair})
    edges = [{"name": f"g{k}", "ends": [str(u), str(v)]} for k, (u, v) in enumerate(pairs)]
    return parse_graph(json.dumps({"vertices": vertices, "edges": edges}))


# ---------------------------------------------------------------------------
# closed-form Betti tables


def test_betti_formula_g35():
    table = betti_formula_grd(3, 5)
    assert [table.get(i, i + 2) for i in range(4)] == [10, 20, 15, 4]
    assert [table.get(i, i + 3) for i in range(5)] == [5, 20, 30, 20, 5]
    assert len(table.entries) == 9


def test_betti_formula_g42():
    table = betti_formula_grd(4, 2)
    assert table.entries == {(0, 2): 1, (0, 4): 2, (1, 5): 2}


@pytest.mark.parametrize("r,d", [(3, 2), (4, 4), (5, 6), (6, 3)])
def test_betti_formula_strands(r, d):
    assert {j - i for (i, j) in betti_formula_grd(r, d).entries} <= {2, r}


def test_betti_formula_domain_errors():
    with pytest.raises(DomainError):
        betti_formula_grd(2, 4)
    with pytest.raises(DomainError):
        betti_formula_grd(3, 1)
    with pytest.raises(DomainError):
        betti_formula_k2d(1)


def test_betti_k2d_values():
    assert betti_formula_k2d(2).entries == {(0, 2): 1}
    table = betti_formula_k2d(5)
    assert [table.get(i, i + 2) for i in range(4)] == [10, 20, 15, 4]


@pytest.mark.parametrize("r", [3, 4, 5, 6])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_k2d_strand_equals_family_linear_strand(r, d):
    def linear_strand(table):
        return {i: b for (i, j), b in table.entries.items() if j - i == 2}

    assert linear_strand(betti_formula_k2d(d)) == linear_strand(betti_formula_grd(r, d))


# ---------------------------------------------------------------------------
# Hilbert series


def test_hilbert_formula_values():
    hs = hilbert_formula_grd(3, 5)
    assert hs.numerator == (1, 5, 5)
    assert hs.denom_power == 9
    hs2 = hilbert_formula_grd(3, 2)
    assert hs2.numerator == (1, 2, 2)
    assert hs2.denom_power == 6


def test_hilbert_formula_domain_error():
    with pytest.raises(DomainError):
        hilbert_formula_grd(1, 5)


def test_quotient_numerator_g32():
    # 1 - (t^2 + 2t^3) + 2t^4, read off the shifted table
    assert quotient_numerator_from_betti(betti_formula_grd(3, 2)) == [1, 0, -1, -2, 2]


def test_hilbert_from_betti_g32():
    hs = hilbert_from_betti(betti_formula_grd(3, 2), 8)
    assert hs.numerator == (1, 2, 2)
    assert hs.denom_power == 6


@pytest.mark.parametrize("r", [3, 4, 5, 6])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_hilbert_from_betti_matches_formula(r, d):
    q = 2 * d + 2 * r - 2
    assert hilbert_from_betti(betti_formula_grd(r, d), q) == hilbert_formula_grd(r, d)


def test_hilbert_from_empty_table_is_free_ring():
    hs = hilbert_from_betti(BettiTable(), 5)
    assert hs.numerator == (1,)
    assert hs.denom_power == 5


def test_hilbert_from_betti_flags_inconsistent_table():
    # numerator (1 - t) cannot cancel against zero denominator factors
    bad = BettiTable({(0, 1): 1})
    with pytest.raises(ConsistencyError):
        hilbert_from_betti(bad, 0)


def test_hilbert_series_expand():
    hs = HilbertSeries((1, 2, 2), 6)
    assert hs.expand(2) == [1, 8, 35]
    flat = HilbertSeries((1, 1, 1), 0)
    assert flat.expand(4) == [1, 1, 1, 0, 0]


def test_hilbert_series_validation():
    with pytest.raises(DomainError):
        HilbertSeries((0, 0), 3)
    with pytest.raises(DomainError):
        HilbertSeries((1,), -1)


def test_lowest_terms_cancellation():
    # (1 - t^2) / (1-t)^3 = (1 + t) / (1-t)^2
    hs = HilbertSeries((1, 0, -1), 3).lowest_terms()
    assert hs.numerator == (1, 1)
    assert hs.denom_power == 2


# ---------------------------------------------------------------------------
# enumeration oracles


def test_enumeration_g32():
    g = build_grd(3, 2)
    assert hilbert_enumeration_oracle(g, 2) == [1, 8, 35]


@pytest.mark.parametrize("r,d", [(3, 2), (3, 4), (4, 3)])
def test_enumeration_matches_formula_expansion(r, d):
    g = build_grd(r, d)
    hs = hilbert_formula_grd(r, d)
    assert hilbert_enumeration_oracle(g, 4) == hs.expand(4)


def test_enumeration_low_degrees():
    for g in (build_k2d(3), build_grd(3, 2), cycle_graph(5)):
        dims = hilbert_enumeration_oracle(g, 1)
        assert dims[0] == 1
        assert dims[1] == len(g.edges)


def test_enumeration_budget():
    with pytest.raises(BudgetError):
        hilbert_enumeration_oracle(build_grd(3, 5), 6, budget=100)


@pytest.mark.parametrize("oracle", [hilbert_enumeration_oracle])
def test_enumeration_budget_checked_before_enumerating(monkeypatch, oracle):
    # G(3,3) has 10 edges: degrees 1 and 2 fit in the budget, degree 3 (220) does not.
    def refuse(*args):
        raise AssertionError("enumerated before checking the budget")

    # Every enumeration starts from the edges' vertex images.
    monkeypatch.setattr(SimpleGraph, "edge_vertex_exponents", refuse)
    with pytest.raises(BudgetError, match=r"^degree 3 needs 220 monomials, over the budget 100$"):
        oracle(build_grd(3, 3), 4, budget=100)


def hilbert_sumset_reference(graph, max_deg):
    """The plain sumset D_k = D_{k-1} + D_1 of packed vertex images, each
    degree built whole from every image of the degree below."""
    ones = set(_packed_images(graph, max_deg, DEFAULT_BUDGET))
    dims, level = [1], {0}
    for _ in range(max_deg):
        level = {x + y for x in level for y in ones}
        dims.append(len(level))
    return dims


def connected_atlas_graphs(max_edges):
    nx = pytest.importorskip("networkx")
    return [graph_from_pairs(list(g.edges)) for g in nx.graph_atlas_g()
            if 0 < g.number_of_edges() <= max_edges and nx.is_connected(g)]


def test_enumeration_matches_sumset_reference_on_atlas():
    # Degree |E| is the one perfbench/checks.py asks for on each gb --graph basis.
    graphs = connected_atlas_graphs(8)
    assert len(graphs) == 199
    for g in graphs:
        assert hilbert_enumeration_oracle(g, len(g.edges)) == hilbert_sumset_reference(g, len(g.edges)), g.edges


@pytest.mark.parametrize("graph,max_deg", [(build_grd(r, d), 5) for r in range(3, 7) for d in range(2, 7)]
                         + [(build_k2d(d), 5) for d in range(2, 13)]
                         + [(build_k2d(20), 4), (build_grd(5, 10), 4)],
                         ids=lambda x: repr(x.family) if isinstance(x, SimpleGraph) else str(x))
def test_enumeration_matches_sumset_reference_on_families(graph, max_deg):
    assert hilbert_enumeration_oracle(graph, max_deg) == hilbert_sumset_reference(graph, max_deg)


def shuffled(graph, rng):
    vertices, edges = list(graph.vertices), list(graph.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return SimpleGraph(vertices, edges)


def test_enumeration_ignores_declaration_order():
    # The buckets follow the edge order and the slices one vertex's field,
    # but the dimensions are invariants of the graph.
    rng = Random(2018)
    cases = [(g, len(g.edges)) for g in connected_atlas_graphs(8)] + [(build_grd(3, 4), 5), (build_k2d(6), 5)]
    for g, max_deg in cases:
        dims = hilbert_enumeration_oracle(g, max_deg)
        for _ in range(2):
            assert hilbert_enumeration_oracle(shuffled(g, rng), max_deg) == dims, g.edges


def test_enumeration_peak_is_at_most_half_the_reference():
    # The top degree is counted one slice at a time and never held whole.
    graph = build_k2d(20)
    peaks = {}
    for oracle in (hilbert_sumset_reference, hilbert_enumeration_oracle):
        tracemalloc.start()
        try:
            assert oracle(graph, 4) == [1, 40, 630, 6160, 44275]
            peaks[oracle] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert 2 * peaks[hilbert_enumeration_oracle] <= peaks[hilbert_sumset_reference], peaks


def test_minimal_generators_g35():
    graph = build_grd(3, 5)
    assert minimal_generators_oracle(graph, 3, enumerate_primitive_walks(graph)) == {2: 10, 3: 5}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_minimal_generators_k2d(d):
    graph = build_k2d(d)
    assert minimal_generators_oracle(graph, 3, enumerate_primitive_walks(graph)) == {2: d * (d - 1) // 2, 3: 0}


def test_minimal_generators_tree():
    graph = path_graph(5)
    assert minimal_generators_oracle(graph, 4, enumerate_primitive_walks(graph)) == {2: 0, 3: 0, 4: 0}


def test_minimal_generators_even_cycle():
    # a single 6-cycle: the toric ideal is principal, generated in degree 3
    graph = cycle_graph(6)
    walks = enumerate_primitive_walks(graph)
    assert minimal_generators_oracle(graph, 4, walks) == {2: 0, 3: 1, 4: 0}
    # at max_deg 3 the walk of length exactly 2 * max_deg must be found
    assert minimal_generators_oracle(graph, 3, walks) == {2: 0, 3: 1}
    # at max_deg 2 the degree-3 walk is present but not counted
    assert minimal_generators_oracle(graph, 2, walks) == {2: 0}


def rank_reference(graph, max_deg):
    """dim I_j - rank(R_1 * I_{j-1}) per degree j, with R_1 * I_{j-1} spanned by
    the explicit vectors x_e * (m - m') over pairs m, m' of equal vertex image."""
    q = len(graph.edges)
    images = [graph.edge_vertex_exponents(e) for e in range(q)]

    def fibers(deg):
        out = {}
        for combo in combinations_with_replacement(range(q), deg):
            image = tuple(map(sum, zip(*(images[e] for e in combo))))
            out.setdefault(image, []).append(combo)
        return out

    counts = {}
    prev = fibers(1)
    for deg in range(2, max_deg + 1):
        cur = fibers(deg)
        dim_ideal = sum(len(members) - 1 for members in cur.values())
        rows = [{tuple(sorted(first + (e,))): 1, tuple(sorted(other + (e,))): -1}
                for first, *rest in prev.values() for other in rest for e in range(q)]
        counts[deg] = dim_ideal - sparse_rational_rank(rows)
        prev = cur
    return counts


def test_minimal_generators_match_rank_reference_on_atlas():
    graphs = connected_atlas_graphs(7)
    assert len(graphs) == 108
    for g in graphs:
        max_deg = max(2, min(len(g.edges), 5))
        assert minimal_generators_oracle(g, max_deg, enumerate_primitive_walks(g)) == rank_reference(g, max_deg), g.edges


@pytest.mark.parametrize("max_deg", [4, 8])
def test_packed_images_hold_max_deg(max_deg):
    # The path d-a-e-c-b, with its vertices packed in the order a..e.  In
    # degree k = max_deg, a power of two, the images a^k d e^(k-1) and
    # c^k b e^(k-1) differ, but fields one bit too narrow (holding k - 1)
    # would carry a^k into b and c^k into d and pack both to the same int.
    path = graph_from_pairs([("d", "a"), ("a", "e"), ("e", "c"), ("c", "b")])
    assert path.vertices == ["a", "b", "c", "d", "e"]
    assert hilbert_enumeration_oracle(path, max_deg) == [comb(k + 3, 3) for k in range(max_deg + 1)]
    assert minimal_generators_oracle(path, max_deg, enumerate_primitive_walks(path)) == {j: 0 for j in range(2, max_deg + 1)}


def fibers_reference(graph, deg):
    """The brute-force fiber pass: vertex image -> the exponent tuples of the
    degree-deg edge monomials with that image, one entry per monomial."""
    q = len(graph.edges)
    images = [graph.edge_vertex_exponents(e) for e in range(q)]
    fibers = {}
    for combo in combinations_with_replacement(range(q), deg):
        image = tuple(map(sum, zip(*(images[e] for e in combo))))
        fibers.setdefault(image, []).append(tuple(map(combo.count, range(q))))
    return fibers


def oracles_reference(graph, max_deg):
    """(graded dimensions, generator counts) from fibers_reference: a fiber
    adds c - 1 generators, c its components under sharing an edge."""
    dims, counts = [1], {}
    for deg in range(1, max_deg + 1):
        fibers = fibers_reference(graph, deg)
        dims.append(len(fibers))
        count = 0
        for members in fibers.values():
            components = []
            for s in (sum(1 << e for e, x in enumerate(m) if x) for m in members):
                rest = []
                for c in components:
                    if c & s:
                        s |= c
                    else:
                        rest.append(c)
                components = rest + [s]
            count += len(components) - 1
        if deg >= 2:
            counts[deg] = count
    return dims, counts


def test_oracles_match_fiber_reference_on_atlas():
    graphs = connected_atlas_graphs(7)
    assert len(graphs) == 108
    for g in graphs:
        dims, counts = oracles_reference(g, 6)
        assert hilbert_enumeration_oracle(g, 6) == dims, g.edges
        assert minimal_generators_oracle(g, 6, enumerate_primitive_walks(g)) == counts, g.edges


@pytest.mark.parametrize("graph", [build_grd(3, d) for d in range(2, 6)] + [build_k2d(d) for d in range(3, 9)],
                         ids=lambda g: repr(g.family))
def test_oracles_match_fiber_reference_on_families(graph):
    dims, counts = oracles_reference(graph, 5)
    assert hilbert_enumeration_oracle(graph, 5) == dims
    assert minimal_generators_oracle(graph, 5, enumerate_primitive_walks(graph)) == counts


def assert_walk_fibers_match_reference(graph):
    """_fiber at the image of every closed even walk up to the graph's bound
    lists exactly the brute-force fiber, multiplicities included."""
    ends = [tuple(graph.vertex_index[x] for x in e.ends) for e in graph.edges]
    walks = minimal_closed_even_walks(graph, default_max_len(graph))
    references = {}
    for image in {tuple(map(w.vertices[1:].count, graph.vertices)) for w in walks}:
        deg = sum(image) // 2
        if deg not in references:
            references[deg] = fibers_reference(graph, deg)
        members = _fiber(ends, image, DEFAULT_BUDGET)
        assert sorted(m.exps for m in members) == sorted(references[deg][image]), (graph.edges, image)


def test_walk_fibers_match_fiber_reference_on_atlas():
    graphs = connected_atlas_graphs(7)
    assert len(graphs) == 108
    for g in graphs:
        assert_walk_fibers_match_reference(g)


@pytest.mark.parametrize("graph", [build_grd(3, d) for d in range(2, 6)] + [build_k2d(d) for d in range(3, 9)],
                         ids=lambda g: repr(g.family))
def test_walk_fibers_match_fiber_reference_on_families(graph):
    assert_walk_fibers_match_reference(graph)


def test_generator_oracle_g812():
    # G(8,12) has 38 edges, so degree 7 alone has C(44, 7) = 38,320,568 edge
    # monomials; only the 78 fibers at the vertex images of its walks are
    # enumerated.
    expected = {j: 0 for j in range(2, 9)} | {2: 66, 8: 12}
    graph = build_grd(8, 12)
    assert minimal_generators_oracle(graph, 8, enumerate_primitive_walks(graph)) == expected


def test_generator_oracle_budget_caps_walk_search_and_each_fiber():
    # The triangle to degree 3: the walk search takes 11 nodes to find the
    # doubled triangle, and the fiber at its vertex image u0^2 u1^2 u2^2,
    # whose one member is f0 f1 f2, takes 13 steps.
    graph = cycle_graph(3)
    with pytest.raises(BudgetError, match=r"^walk search exceeded the node budget of 10$"):
        minimal_closed_even_walks(graph, 6, node_budget=10)
    walks = minimal_closed_even_walks(graph, 6, node_budget=11)
    with pytest.raises(BudgetError, match=r"^a fiber of degree 3 exceeded the step budget of 12$"):
        minimal_generators_oracle(graph, 3, walks, budget=12)
    assert minimal_generators_oracle(graph, 3, walks, budget=13) == {2: 0, 3: 0}


def test_generator_oracle_lists_no_fiber_above_max_deg():
    # The doubled triangle has length 6 > 2 * max_deg: at a zero step
    # budget, listing its fiber would raise.
    graph = cycle_graph(3)
    walks = minimal_closed_even_walks(graph, 6, node_budget=11)
    assert [len(w.edge_names) for w in walks] == [6]
    assert minimal_generators_oracle(graph, 2, walks, budget=0) == {2: 0}


def test_minimal_generators_validation():
    with pytest.raises(DomainError):
        minimal_generators_oracle(build_k2d(2), 1, [])


# ---------------------------------------------------------------------------
# dimensions, regularity, bounds


def test_krull_dim_g32():
    assert krull_dim(build_grd(3, 2)) == 6


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_krull_dim_family(r, d):
    assert krull_dim(build_grd(r, d)) == d + 2 * r - 2


def test_krull_dim_single_edge():
    assert krull_dim(path_graph(2)) == 1


def test_krull_dim_odd_cycle_full_rank():
    # odd cycles have a full-rank exponent matrix
    assert krull_dim(cycle_graph(5)) == 5


def test_krull_dim_on_atlas_graphs():
    # a connected graph's edge subring has dimension |V| - 1 if it is bipartite, |V| otherwise
    nx = pytest.importorskip("networkx")
    atlas = [g for g in nx.graph_atlas_g() if 0 < g.number_of_edges() <= 8 and nx.is_connected(g)]
    assert len(atlas) == 199
    for g in atlas:
        expected = g.number_of_nodes() - nx.is_bipartite(g)
        assert krull_dim(graph_from_pairs(list(g.edges))) == expected, list(g.edges)


def test_reg_pdim_family_tables():
    for (r, d) in [(3, 2), (3, 5), (4, 3), (5, 5)]:
        reg, pdim = reg_pdim(betti_formula_grd(r, d))
        assert reg == r
        assert pdim == d - 1


def test_reg_pdim_k2d():
    for d in range(2, 7):
        reg, pdim = reg_pdim(betti_formula_k2d(d))
        assert reg == 2
        assert pdim == d - 2


def test_reg_pdim_single_entry_and_empty():
    assert reg_pdim(BettiTable({(0, 2): 1})) == reg_pdim(betti_formula_k2d(2))
    assert reg_pdim(BettiTable()) is None


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_auslander_buchsbaum_identity(r, d):
    q = 2 * d + 2 * r - 2
    _, pdim = reg_pdim(betti_formula_grd(r, d))
    assert q - (pdim + 1) == krull_dim(build_grd(r, d))


def test_lower_bounds():
    assert lower_bounds_from_induced([(3, 5)]) == (3, 4)
    assert lower_bounds_from_induced([(3, 2), (4, 3)]) == (6, 4)


def test_lower_bounds_validation():
    with pytest.raises(DomainError):
        lower_bounds_from_induced([])
    with pytest.raises(DomainError):
        lower_bounds_from_induced([(2, 5)])


# ---------------------------------------------------------------------------
# h-vectors


@pytest.mark.parametrize("r", [3, 4, 5, 6])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_family_hvector(r, d):
    series = hilbert_formula_grd(r, d)
    assert series.numerator == (1,) + (d,) * (r - 1)
    assert series.unimodal


def test_hvector_trivial():
    series = HilbertSeries((1,), 4)
    assert series.numerator == (1,)
    assert series.unimodal


def test_hvector_unimodality_scan():
    assert HilbertSeries((1, 3, 2), 1).unimodal
    assert HilbertSeries((1, 1, -1), 0).unimodal  # rise then fall
    assert not HilbertSeries((1, -1, 1), 0).unimodal  # valley
    assert not HilbertSeries((2, 1, 2), 0).unimodal


# ---------------------------------------------------------------------------
# verify's groebner-basis check: the closed form against the interreduced search


def closed_form_basis(graph):
    """The family's closed-form binomials, normalized and sorted, and the order."""
    order = default_order(graph)
    basis = sorted(map(order.normalize, map(walk_to_binomial, family_primitive_walks(graph))),
                   key=lambda g: (order.key(g.lhs), order.key(g.rhs)))
    return basis, order


def basis_differences(graph, basis, order):
    """The binomials, normalized and written out, in which `basis` and the
    basis that `reduced_basis` interreduces from the walk search differ as
    multisets: what verify's groebner-basis check reports for a closed form."""
    computed = Counter(format_binomial(g, order.names) for g in
                       reduced_basis(map(walk_to_binomial, enumerate_primitive_walks(graph)), order))
    claimed = Counter(format_binomial(order.normalize(g), order.names) for g in basis)
    return sorted(((claimed - computed) + (computed - claimed)).elements())


def groebner_basis_check(graph, closed_walks, monkeypatch):
    """verify's groebner-basis status and actual value with `closed_walks`
    as the family's closed-form walks."""
    monkeypatch.setattr(cli, "family_primitive_walks", lambda graph: list(closed_walks))
    (check,) = [c for c in cli.verify_family(graph, DEFAULT_BUDGET).checks if c["name"] == "groebner-basis"]
    return check["status"], check["actual"]


def image_text(graph, m):
    """The vertex image of an edge monomial, written as a vertex monomial."""
    image = [0] * len(graph.vertices)
    for e, x in enumerate(m.exps):
        for v in graph.edges[e].ends:
            image[graph.vertex_index[v]] += x
    return format_monomial(Monomial(image), graph.vertices)


@pytest.mark.parametrize("graph", [build_grd(3, d) for d in (3, 4, 5)] + [build_k2d(d) for d in (3, 4, 5, 6)],
                         ids=["G33", "G34", "G35", "K23", "K24", "K25", "K26"])
def test_certificate_fails_when_any_generator_is_dropped(graph, monkeypatch):
    order = default_order(graph)
    walks = family_primitive_walks(graph)
    assert groebner_basis_check(graph, walks, monkeypatch) == ("pass", "[]")
    for k, walk in enumerate(walks):
        rest = walks[:k] + walks[k + 1:]
        dropped = format_binomial(order.normalize(walk_to_binomial(walk)), order.names)
        assert groebner_basis_check(graph, rest, monkeypatch) == ("fail", str([dropped]))
        assert basis_differences(graph, map(walk_to_binomial, rest), order) == [dropped]


def test_certificate_names_an_element_outside_the_ideal():
    # The element replaces the one whose lead it keeps, so the check names both.
    graph = build_grd(3, 3)
    basis, order = closed_form_basis(graph)
    outside = order.normalize(Binomial(basis[0].lhs, basis[-1].rhs))
    assert image_text(graph, outside.lhs) != image_text(graph, outside.rhs)
    assert basis_differences(graph, [outside] + basis[1:], order) == sorted(
        format_binomial(g, order.names) for g in (outside, basis[0]))


def test_certificate_names_an_element_led_by_its_tail_or_repeated(monkeypatch):
    # The check normalizes each closed-form binomial, so a walk started one
    # edge later, whose binomial is led by its tail, still passes; a
    # repeated walk is named once, which a set comparison would miss.
    graph = build_grd(3, 3)
    order = default_order(graph)
    walks = family_primitive_walks(graph)
    names = walks[0].edge_names
    shifted = ClosedEvenWalk(graph, names[1:] + names[:1])
    assert walk_to_binomial(shifted) == -walk_to_binomial(walks[0])
    assert groebner_basis_check(graph, [shifted] + walks[1:], monkeypatch) == ("pass", "[]")
    first = format_binomial(order.normalize(walk_to_binomial(walks[0])), order.names)
    assert groebner_basis_check(graph, walks + walks[:1], monkeypatch) == ("fail", str([first]))
    basis, _ = closed_form_basis(graph)
    assert basis_differences(graph, [-basis[0]] + basis[1:], order) == []
    assert basis_differences(graph, basis + basis[:1], order) == [format_binomial(basis[0], order.names)]


def test_certificate_accepts_non_squarefree_leading_terms():
    # The two atlas graphs with at most 8 edges whose reduced basis under
    # declaration-order grevlex has a non-squarefree lead, one lead each.
    for pairs in ([(0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (4, 5)],
                  [(0, 1), (0, 4), (1, 4), (2, 3), (2, 5), (3, 5), (3, 6), (4, 6)]):
        graph = graph_from_pairs(pairs)
        order = default_order(graph)
        basis = buchberger([walk_to_binomial(w) for w in enumerate_primitive_walks(graph)], order)
        assert sum(max(g.lhs.exps) > 1 for g in basis) == 1, pairs
        assert basis_differences(graph, basis, order) == [], pairs
        for k in range(len(basis)):
            assert basis_differences(graph, basis[:k] + basis[k + 1:], order) == [
                format_binomial(basis[k], order.names)], (pairs, k)


def test_certificate_agrees_with_buchberger_on_atlas():
    # Every reduced basis is the interreduced walk search, non-squarefree
    # leads included, and the check names any one element dropped from it.
    nx = pytest.importorskip("networkx")
    graphs = [graph_from_pairs(list(g.edges)) for g in nx.graph_atlas_g()
              if 0 < g.number_of_edges() <= 8 and nx.is_connected(g)]
    non_squarefree = 0
    for g in graphs:
        order = default_order(g)
        basis = buchberger([walk_to_binomial(w) for w in enumerate_primitive_walks(g)], order)
        assert basis_differences(g, basis, order) == [], g.edges
        non_squarefree += any(max(f.lhs.exps) > 1 for f in basis)
        for k in range(len(basis)):
            assert basis_differences(g, basis[:k] + basis[k + 1:], order) == [
                format_binomial(basis[k], order.names)], (g.edges, k)
    assert (len(graphs), non_squarefree) == (199, 2)


# ---------------------------------------------------------------------------
# toric-vs-initial generator degrees on general graphs


def test_generator_count_bounded_by_initial_ideal():
    from toricgraphs import buchberger, default_order, enumerate_primitive_walks, initial_ideal, walk_to_binomial

    for graph in (cycle_graph(6), build_k2d(3)):
        order = default_order(graph)
        gb = buchberger(
            [walk_to_binomial(w) for w in enumerate_primitive_walks(graph)], order
        )
        ideal = initial_ideal(gb)
        by_degree = {}
        for m in ideal.min_gens:
            by_degree[m.degree] = by_degree.get(m.degree, 0) + 1
        top = max(by_degree, default=2)
        oracle = minimal_generators_oracle(graph, top, enumerate_primitive_walks(graph))
        for j, count in oracle.items():
            assert count <= by_degree.get(j, 0)
