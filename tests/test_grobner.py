import random

import pytest

from toricgraphs import (
    BudgetError,
    DomainError,
    Binomial,
    Edge,
    GrevlexOrder,
    Monomial,
    MonomialIdeal,
    build_grd,
    build_k2d,
    buchberger,
    default_order,
    enumerate_primitive_walks,
    initial_ideal,
    reduce,
    reduced_basis,
    SimpleGraph,
    s_binomial,
    walk_to_binomial,
)
from toricgraphs.grobner import format_binomial, format_monomial, minimalize_monomials
from toricgraphs.walks import default_max_len, family_primitive_walks, minimal_closed_even_walks


def mono(order, text):
    """Build a monomial from 'a1*b2' / 'e2^3' notation against an order's names."""
    exps = [0] * order.nvars
    if text != "1":
        for factor in text.split("*"):
            name, _, power = factor.partition("^")
            exps[order.names.index(name)] += int(power) if power else 1
    return Monomial(exps)


def bino(order, lhs, rhs):
    return Binomial(mono(order, lhs), mono(order, rhs))


def g35_order():
    return default_order(build_grd(3, 5))


# ---------------------------------------------------------------------------
# monomial arithmetic


def test_monomial_operations():
    u = Monomial((1, 0, 2))
    v = Monomial((0, 1, 1))
    assert (u * v).exps == (1, 1, 3)
    assert u.lcm(v).exps == (1, 1, 2)
    assert v.divides(u * v)
    assert not v.divides(u)
    assert u.degree == 3


def support_reference(exps):
    return sum(1 << i for i, e in enumerate(exps) if e)


def test_monomial_slot_fields():
    # 200 variables is longer than any precomputed bit table.
    rng = random.Random(11)
    vectors = [(), (0,), (0,) * 7, (0,) * 200]
    vectors += [tuple(1 if k == i else 0 for k in range(n)) for n in (1, 30, 64, 65, 200) for i in range(n)]
    vectors += [tuple(rng.choice((0, 0, 0, 1, 2, 7)) for _ in range(n))
                for n in (1, 3, 40, 63, 64, 65, 130, 200) for _ in range(40)]
    for exps in vectors:
        m = Monomial(exps)
        assert m.degree == sum(exps)
        assert m.support == support_reference(exps)
        assert (m.support == 0) == (not any(exps))
    for u, v in zip(vectors[-40:-20], vectors[-20:]):  # both of length 200
        u, v = Monomial(u), Monomial(v)
        for m in (u * v, u.lcm(v)):
            assert (m.degree, m.support) == (sum(m.exps), support_reference(m.exps))


def test_minimalize_monomials():
    u = Monomial((1, 1, 0))
    v = Monomial((1, 1, 1))
    w = Monomial((0, 0, 2))
    assert minimalize_monomials([v, u, w, u]) == [w, u]  # sorted by (degree, exps)


# ---------------------------------------------------------------------------
# the graded reverse lex comparator


def test_square_leading_terms():
    order = g35_order()
    # a_i b_j beats a_j b_i whenever i > j
    for i in range(1, 6):
        for j in range(1, i):
            u = mono(order, f"a{i}*b{j}")
            v = mono(order, f"a{j}*b{i}")
            assert order.compare(u, v) == 1
            assert order.compare(v, u) == -1


def test_path_leading_terms():
    order = g35_order()
    for i in range(1, 6):
        u = mono(order, f"a{i}*e2*e4")
        v = mono(order, f"b{i}*e1*e3")
        assert order.compare(u, v) == 1


def test_compare_reflexive_and_degree_first():
    order = g35_order()
    u = mono(order, "a1*b1")
    assert order.compare(u, u) == 0
    assert order.compare(mono(order, "a5"), mono(order, "b1*b2")) == -1


def test_priority_must_be_permutation():
    with pytest.raises(DomainError):
        GrevlexOrder(["x", "y"], priority=["x", "x"])
    with pytest.raises(DomainError):
        GrevlexOrder(["x", "y"], priority=["x", "z"])


def random_monomial(rng, nvars, max_exp=3):
    return Monomial(tuple(rng.randrange(max_exp + 1) for _ in range(nvars)))


def test_order_axioms_random():
    order = g35_order()
    rng = random.Random(20240311)
    n = order.nvars
    for _ in range(1000):
        u, v, w = (random_monomial(rng, n) for _ in range(3))
        cu, cv = order.compare(u, v), order.compare(v, u)
        assert cu == -cv
        assert (cu == 0) == (u.exps == v.exps)
        # multiplying by a common factor preserves strict comparisons
        assert order.compare(u * w, v * w) == cu
        # transitivity on a sorted triple
        a, b, c = sorted((u, v, w), key=order.key)
        assert order.compare(a, b) <= 0 and order.compare(b, c) <= 0
        assert order.compare(a, c) <= 0
        # the sort key agrees with the comparator
        assert (order.key(u) < order.key(v)) == (cu == -1)


def test_sparse_key_agrees_with_compare_under_random_priorities():
    # The key lists only the nonzero exponents; sparse monomials of equal
    # degree with different supports are where a prefix could mislead.
    rng = random.Random(20261020)
    names = [f"x{i}" for i in range(12)]
    for _ in range(20):
        order = GrevlexOrder(names, rng.sample(names, len(names)))
        for _ in range(500):
            u, v = (Monomial.from_variables(12, rng.choices(range(12), k=rng.randint(0, 4))) for _ in range(2))
            ku, kv = order.key(u), order.key(v)
            assert (ku > kv) - (ku < kv) == order.compare(u, v)


# ---------------------------------------------------------------------------
# S-binomials and reduction


def test_s_binomial_of_identical_pair_is_zero():
    order = g35_order()
    f = bino(order, "a2*b1", "a1*b2")
    assert s_binomial(f, f, order, f.lhs.lcm(f.lhs)) is None


def test_s_binomial_coprime_pair_reduces_to_zero():
    order = g35_order()
    f = bino(order, "a5*b4", "a4*b5")
    g = bino(order, "a3*b2", "a2*b3")
    assert not f.lhs.support & g.lhs.support
    s = s_binomial(f, g, order, f.lhs.lcm(g.lhs))
    assert s is None or reduce(s, [f, g], order) is None


def test_s_binomial_g32_pair_and_reduction():
    order = default_order(build_grd(3, 2))
    f = bino(order, "a2*b1", "a1*b2")
    g = bino(order, "a2*e2*e4", "b2*e1*e3")
    s = s_binomial(f, g, order, f.lhs.lcm(g.lhs))
    assert s == bino(order, "a1*b2*e2*e4", "b1*b2*e1*e3")
    basis = [f, g, bino(order, "a1*e2*e4", "b1*e1*e3")]
    assert reduce(s, basis, order) is None


def test_reduce_member_of_basis_is_zero():
    order = g35_order()
    f = bino(order, "a5*b4", "a4*b5")
    assert reduce(f, [f], order) is None


def test_reduce_leaves_irreducible_input_alone():
    order = g35_order()
    f = bino(order, "a5*b4", "a4*b5")
    g = bino(order, "a3*e2*e4", "b3*e1*e3")
    assert reduce(g, [f], order) == g


def test_reduce_concatenated_walk_binomial_to_zero():
    # Two closed even walks of the smallest family graph glued at x1 give a
    # binomial inside the ideal, so it must reduce to zero against the basis.
    graph = build_grd(3, 2)
    order = default_order(graph)
    basis = [walk_to_binomial(w) for w in family_primitive_walks(build_grd(3, 2))]
    from toricgraphs import ClosedEvenWalk

    glued = ClosedEvenWalk(graph, ("a2", "b2", "b1", "a1", "e1", "e2", "e3", "e4", "b1", "a1"))
    assert reduce(walk_to_binomial(glued), basis, order) is None


def test_reduce_normalizes_basis_elements_it_uses():
    # A basis listing some elements tail-first, plus a zero binomial whose
    # sides divide everything the variable a1 divides, reduces exactly like
    # its normalized form with the zero binomial dropped.
    graph = build_grd(3, 5)
    order = default_order(graph)
    gb = buchberger([walk_to_binomial(w) for w in family_primitive_walks(build_grd(3, 5))], order)
    zero = bino(order, "a1", "a1")
    mixed = [zero] + [-g if k % 3 == 0 else g for k, g in enumerate(gb)]
    mixed.insert(7, zero)
    rng = random.Random(11)
    targets = [bino(order, "a1*a2*b3", "a3*b1*b2")]
    for _ in range(200):
        lhs = Monomial.from_variables(order.nvars, rng.choices(range(order.nvars), k=3))
        rhs = Monomial.from_variables(order.nvars, rng.choices(range(order.nvars), k=3))
        targets.append(Binomial(lhs, rhs))
    targets += [s_binomial(f, g, order, f.lhs.lcm(g.lhs)) for f in gb for g in gb]
    for f in targets:
        if f is not None:
            assert reduce(f, mixed, order) == reduce(f, gb, order)


def test_reduce_divides_by_the_earliest_of_two_dividing_leads():
    # Both x and x*y divide the lead x*y of the target.  Dividing by x - u
    # leaves z^2 - u*y; dividing by x*y - v^2 leaves z^2 - v^2.
    order = GrevlexOrder(["x", "y", "z", "u", "v"])
    f, g = bino(order, "x", "u"), bino(order, "x*y", "v^2")
    target = bino(order, "x*y", "z^2")
    assert reduce(target, [f, g], order) == bino(order, "z^2", "u*y")
    assert reduce(target, [-f, g], order) == bino(order, "z^2", "u*y")
    assert reduce(target, [g, f], order) == bino(order, "z^2", "v^2")
    assert reduce(target, [-g, -f], order) == bino(order, "z^2", "v^2")


# ---------------------------------------------------------------------------
# Buchberger


def test_single_binomial_is_its_own_basis():
    order = g35_order()
    f = bino(order, "a4*b5", "a5*b4")  # stored tail-first on purpose
    out = buchberger([f], order)
    assert out == [bino(order, "a5*b4", "a4*b5")]


def test_k2d_generators_already_reduced():
    graph = build_k2d(4)
    order = default_order(graph)
    gens = []
    for i in range(1, 5):
        for j in range(i + 1, 5):
            gens.append(bino(order, f"a{i}*b{j}", f"a{j}*b{i}"))
    out = buchberger(gens, order)
    assert len(out) == 6
    assert {frozenset((g.lhs, g.rhs)) for g in out} == {
        frozenset((g.lhs, g.rhs)) for g in gens
    }


@pytest.mark.parametrize("r,d", [(3, 2), (3, 5), (4, 3), (5, 4)])
def test_family_walk_binomials_are_reduced_basis(r, d):
    graph = build_grd(r, d)
    order = default_order(graph)
    gens = [walk_to_binomial(w) for w in family_primitive_walks(build_grd(r, d))]
    out = buchberger(gens, order)
    assert len(out) == d * (d + 1) // 2
    expected = {frozenset((g.lhs, g.rhs)) for g in gens}
    assert {frozenset((g.lhs, g.rhs)) for g in out} == expected


def test_g35_basis_matches_published_fifteen():
    graph = build_grd(3, 5)
    order = default_order(graph)
    gens = [walk_to_binomial(w) for w in family_primitive_walks(build_grd(3, 5))]
    out = buchberger(gens, order)
    got = sorted(format_binomial(g, order.names) for g in out)
    expected = sorted([
        "a5*b4 - a4*b5", "a5*b3 - a3*b5", "a4*b3 - a3*b4",
        "a5*b2 - a2*b5", "a4*b2 - a2*b4", "a3*b2 - a2*b3",
        "a5*b1 - a1*b5", "a4*b1 - a1*b4", "a3*b1 - a1*b3", "a2*b1 - a1*b2",
        "a5*e2*e4 - e1*e3*b5", "a4*e2*e4 - e1*e3*b4", "a3*e2*e4 - e1*e3*b3",
        "a2*e2*e4 - e1*e3*b2", "a1*e2*e4 - e1*e3*b1",
    ])
    assert got == expected


def test_buchberger_output_independent_of_input_order():
    graph = build_grd(3, 4)
    order = default_order(graph)
    gens = [walk_to_binomial(w) for w in family_primitive_walks(build_grd(3, 4))]
    reference = buchberger(gens, order)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, order) == reference


def test_buchberger_rejects_inhomogeneous_input():
    order = g35_order()
    with pytest.raises(DomainError):
        buchberger([bino(order, "a1*a2", "b1")], order)


def test_buchberger_budget():
    graph = build_grd(3, 5)
    order = default_order(graph)
    gens = [walk_to_binomial(w) for w in family_primitive_walks(build_grd(3, 5))]
    with pytest.raises(BudgetError):
        buchberger(gens, order, max_pairs=3)


@pytest.mark.parametrize("graph", [build_k2d(4), build_grd(3, 3)], ids=["K24", "G33"])
def test_buchberger_budget_counts_coprime_pairs(graph):
    # Six generators that already form the reduced basis: all 15 pairs count
    # against max_pairs, including those with coprime leading terms.
    order = default_order(graph)
    gens = [walk_to_binomial(w) for w in family_primitive_walks(graph)]
    assert len(gens) == 6
    leads = [order.normalize(f).lhs for f in gens]
    assert any(not u.support & v.support for u in leads for v in leads)
    with pytest.raises(BudgetError):
        buchberger(gens, order, max_pairs=14)
    assert len(buchberger(gens, order, max_pairs=15)) == 6


def test_buchberger_completes_partial_generating_set():
    # Drop one square generator; the S-pair computation must recover an
    # equivalent reduced basis for the smaller ideal it generates.
    graph = build_k2d(3)
    order = default_order(graph)
    f = bino(order, "a2*b1", "a1*b2")
    g = bino(order, "a3*b2", "a2*b3")
    out = buchberger([f, g], order)
    for h in out:
        assert reduce(h, [x for x in out if x != h], order) is not None
    for s in (s_binomial(x, y, order, x.lhs.lcm(y.lhs)) for x in out for y in out):
        if s is not None:
            assert reduce(s, out, order) is None


def _scan_reduce(f, basis, order):
    """Division by the first basis element in list order whose lead divides,
    found by scanning the list: an oracle that shares no code with the
    lead index."""
    cur = order.normalize(f)
    while cur is not None:
        for side, other in ((cur.lhs, cur.rhs), (cur.rhs, cur.lhs)):
            g = next((g for g in map(order.normalize, basis)
                      if g is not None and g.lhs.divides(side)), None)
            if g is not None:
                hit = Monomial(s - a + b for s, a, b in zip(side.exps, g.lhs.exps, g.rhs.exps))
                cur = None if hit == other else order.normalize(Binomial(hit, other))
                break
        else:
            return cur
    return None


def test_buchberger_output_is_reduced_on_atlas_graphs():
    nx = pytest.importorskip("networkx")
    checked = 0
    for g in nx.graph_atlas_g():
        if not 0 < g.number_of_edges() <= 7 or not nx.is_connected(g):
            continue
        graph = SimpleGraph([f"v{v}" for v in g.nodes],
                            [Edge(f"x{k}", (f"v{u}", f"v{v}")) for k, (u, v) in enumerate(g.edges)])
        order = default_order(graph)
        out = buchberger([walk_to_binomial(w) for w in enumerate_primitive_walks(graph)], order)
        for h in out:
            assert order.normalize(h) == h
            assert _scan_reduce(h, [x for x in out if x is not h], order) == h
        for k, f in enumerate(out):
            for h in out[:k]:
                s = s_binomial(f, h, order, f.lhs.lcm(h.lhs))
                assert s is None or _scan_reduce(s, out, order) is None
        checked += len(out) > 1
    assert checked


# ---------------------------------------------------------------------------
# the reduced basis from one interreduction pass


def atlas_graphs(max_edges):
    nx = pytest.importorskip("networkx")
    return [SimpleGraph([f"v{v}" for v in g.nodes],
                        [Edge(f"x{k}", (f"v{u}", f"v{v}")) for k, (u, v) in enumerate(g.edges)])
            for g in nx.graph_atlas_g() if 0 < g.number_of_edges() <= max_edges and nx.is_connected(g)]


def formatted(basis, order):
    return [format_binomial(g, order.names) for g in basis]


def minimal_walk_binomials(graph):
    return [walk_to_binomial(w) for w in minimal_closed_even_walks(graph, default_max_len(graph))]


def test_reduced_basis_equals_buchberger_on_atlas_graphs():
    # The primitive binomials are the Graver basis, a Groebner basis under
    # every order; the minimal walks add non-primitive binomials, which must
    # reduce to zero.  Every element is a primitive binomial, since the
    # universal Groebner basis lies in the Graver basis.
    rng = random.Random(26)
    graphs = atlas_graphs(8)
    non_squarefree = 0
    for graph in graphs:
        primitive = [walk_to_binomial(w) for w in enumerate_primitive_walks(graph)]
        minimal = minimal_walk_binomials(graph)
        names = graph.edge_names
        for priority in (names, rng.sample(names, len(names)), rng.sample(names, len(names))):
            order = default_order(graph, priority)
            reference = buchberger(primitive, order)
            expected = formatted(reference, order)
            assert formatted(reduced_basis(primitive, order), order) == expected, (graph.edges, priority)
            assert formatted(reduced_basis(minimal, order), order) == expected, (graph.edges, priority)
            assert set(expected) <= set(formatted(map(order.normalize, primitive), order))
            non_squarefree += priority is names and any(max(g.lhs.exps) > 1 for g in reference)
    assert (len(graphs), non_squarefree) == (199, 2)


def test_reduced_basis_equals_the_closed_form_beyond_buchbergers_pair_cap():
    graph = build_k2d(40)
    order = default_order(graph)
    binomials = [walk_to_binomial(w) for w in enumerate_primitive_walks(graph)]
    with pytest.raises(BudgetError):
        buchberger(binomials, order)
    closed = [order.normalize(walk_to_binomial(w)) for w in family_primitive_walks(graph)]
    basis = reduced_basis(binomials, order)
    assert len(basis) == 780
    assert sorted(formatted(basis, order)) == sorted(formatted(closed, order))


def test_reduced_basis_output_independent_of_input_order():
    # Shuffled, with signs flipped and elements repeated.
    rng = random.Random(7)
    pairs = [(0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (4, 5)]  # a non-squarefree lead
    non_squarefree = SimpleGraph([f"v{v}" for v in range(6)],
                                 [Edge(f"x{k}", (f"v{u}", f"v{v}")) for k, (u, v) in enumerate(pairs)])
    for graph in (build_grd(3, 4), build_k2d(5), non_squarefree):
        order = default_order(graph)
        binomials = minimal_walk_binomials(graph)
        reference = reduced_basis(binomials, order)
        for _ in range(10):
            mixed = rng.sample(binomials, len(binomials)) + rng.choices(binomials, k=len(binomials))
            assert reduced_basis([-f if rng.random() < 0.5 else f for f in mixed], order) == reference


def test_reduced_basis_reduces_a_tail_divisible_by_another_lead():
    # K_4's three perfect matchings g0*g5, g1*g4, g2*g3 form one fiber; the
    # second input's tail is the first input's lead.
    order = GrevlexOrder([f"g{k}" for k in range(6)])
    basis = reduced_basis([bino(order, "g2*g3", "g1*g4"), bino(order, "g1*g4", "g0*g5")], order)
    assert formatted(basis, order) == ["g1*g4 - g0*g5", "g2*g3 - g0*g5"]


# ---------------------------------------------------------------------------
# initial ideals


def test_initial_ideal_g35_exact():
    graph = build_grd(3, 5)
    order = default_order(graph)
    gb = buchberger([walk_to_binomial(w) for w in family_primitive_walks(build_grd(3, 5))], order)
    ideal = initial_ideal(gb)
    got = [format_monomial(m, order.names) for m in ideal.min_gens]
    assert got == [
        "a5*b4", "a5*b3", "a4*b3", "a5*b2", "a4*b2", "a3*b2",
        "a5*b1", "a4*b1", "a3*b1", "a2*b1",
        "a5*e2*e4", "a4*e2*e4", "a3*e2*e4", "a2*e2*e4", "a1*e2*e4",
    ]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_initial_ideal_k2d(d):
    graph = build_k2d(d)
    order = default_order(graph)
    gens = [
        bino(order, f"a{i}*b{j}", f"a{j}*b{i}")
        for i in range(1, d + 1)
        for j in range(i + 1, d + 1)
    ]
    ideal = initial_ideal(buchberger(gens, order))
    got = {format_monomial(m, order.names) for m in ideal.min_gens}
    assert got == {f"a{i}*b{j}" for i in range(1, d + 1) for j in range(1, i)}
    assert len(ideal) == d * (d - 1) // 2


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_family_leading_terms_squarefree(r, d):
    graph = build_grd(r, d)
    order = default_order(graph)
    gb = buchberger([walk_to_binomial(w) for w in family_primitive_walks(build_grd(r, d))], order)
    for g in gb:
        assert max(g.lhs.exps) <= 1


def initial_of(graph, walks, priority=None):
    order = default_order(graph, priority)
    return order, initial_ideal(buchberger([walk_to_binomial(w) for w in walks], order))


@pytest.mark.parametrize("graph, priority", [
    (build_grd(3, 5), None),
    (build_k2d(6), None),
    (build_grd(3, 3), build_grd(3, 3).edge_names[::-1]),
], ids=["G35", "K26", "G33-reversed"])
def test_initial_ideal_stores_generators_ascending(graph, priority):
    # The quotient profile walks min_gens as stored, so they must ascend.
    order, initial = initial_of(graph, family_primitive_walks(graph), priority)
    assert list(initial.min_gens) == sorted(initial.min_gens, key=order.key)


def test_initial_ideal_stores_generators_ascending_on_atlas_graphs():
    nx = pytest.importorskip("networkx")
    checked = 0
    for g in nx.graph_atlas_g():
        if not 0 < g.number_of_edges() <= 7 or not nx.is_connected(g):
            continue
        graph = SimpleGraph([f"v{v}" for v in g.nodes],
                            [Edge(f"x{k}", (f"v{u}", f"v{v}")) for k, (u, v) in enumerate(g.edges)])
        order, initial = initial_of(graph, enumerate_primitive_walks(graph))
        assert list(initial.min_gens) == sorted(initial.min_gens, key=order.key)
        checked += len(initial) > 1
    assert checked


def assert_leads_are_the_minimal_generators(basis, order):
    # The reference minimalizes the leads again; a reduced basis needs no such pass.
    reference = MonomialIdeal.from_generators([g.lhs for g in basis], order)
    assert initial_ideal(basis).min_gens == reference.min_gens


def test_initial_ideal_reads_the_leads_of_buchbergers_basis_on_atlas_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(24)
    graphs = [SimpleGraph([f"v{v}" for v in g.nodes],
                          [Edge(f"x{k}", (f"v{u}", f"v{v}")) for k, (u, v) in enumerate(g.edges)])
              for g in nx.graph_atlas_g() if 0 < g.number_of_edges() <= 8 and nx.is_connected(g)]
    assert len(graphs) == 199
    for graph in graphs:
        binomials = [walk_to_binomial(w) for w in enumerate_primitive_walks(graph)]
        names = graph.edge_names
        for priority in (names, names[::-1], rng.sample(names, len(names)), rng.sample(names, len(names))):
            order = default_order(graph, priority)
            assert_leads_are_the_minimal_generators(buchberger(binomials, order), order)


@pytest.mark.parametrize("graph", [pytest.param(build_grd(r, d), id=f"G({r},{d})")
                                   for r in range(3, 7) for d in range(2, 7)]
                         + [pytest.param(build_k2d(d), id=f"K(2,{d})") for d in range(2, 11)])
def test_initial_ideal_reads_the_leads_of_a_certified_closed_form(graph):
    # The closed form is certified as verify certifies it: it is the basis
    # interreduced from the walk search.
    order = default_order(graph)
    closed = [order.normalize(walk_to_binomial(w)) for w in family_primitive_walks(graph)]
    computed = reduced_basis(map(walk_to_binomial, enumerate_primitive_walks(graph)), order)
    assert sorted(formatted(closed, order)) == sorted(formatted(computed, order))
    # initial_ideal keeps the basis's order, so the closed form is sorted as reduced_basis sorts.
    assert_leads_are_the_minimal_generators(sorted(closed, key=lambda g: order.key(g.lhs)), order)
    assert_leads_are_the_minimal_generators(computed, order)


def test_initial_ideal_keeps_the_ascending_leads_of_reduced_basis_on_atlas_graphs():
    # initial_ideal sorts nothing: reduced_basis must return its leads ascending.
    rng = random.Random(30)
    graphs = atlas_graphs(8)
    for graph in graphs:
        binomials = [walk_to_binomial(w) for w in enumerate_primitive_walks(graph)]
        names = graph.edge_names
        for priority in (names, rng.sample(names, len(names)), rng.sample(names, len(names))):
            order = default_order(graph, priority)
            basis = reduced_basis(binomials, order)
            leads = sorted((g.lhs for g in basis), key=order.key)
            assert initial_ideal(basis).min_gens == tuple(leads), (graph.edges, priority)
    assert len(graphs) == 199
