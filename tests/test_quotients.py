import random
from collections import Counter
from functools import cache
from itertools import chain, combinations_with_replacement, islice

import pytest

from toricgraphs import (
    BettiTable,
    BudgetError,
    DomainError,
    Edge,
    GrevlexOrder,
    Monomial,
    MonomialIdeal,
    betti_from_linear_quotients,
    betti_taylor_oracle,
    build_grd,
    build_k2d,
    buchberger,
    colon_with_monomial,
    default_order,
    enumerate_primitive_walks,
    hilbert_from_betti,
    initial_ideal,
    quotient_profile,
    reduced_basis,
    SimpleGraph,
    walk_to_binomial,
)
from toricgraphs import quotients as quotients_module
from toricgraphs.grobner import format_monomial, minimalize_monomials
from toricgraphs.invariants import quotient_numerator_from_betti
from toricgraphs.walks import family_primitive_walks
from toricgraphs.linalg import sparse_rational_rank
from toricgraphs.walks import family_primitive_walks


def mono(order, text):
    exps = [0] * order.nvars
    if text != "1":
        for factor in text.split("*"):
            name, _, power = factor.partition("^")
            exps[order.names.index(name)] += int(power) if power else 1
    return Monomial(exps)


def family_initial(r, d):
    graph = build_grd(r, d)
    order = default_order(graph)
    gb = buchberger([walk_to_binomial(w) for w in family_primitive_walks(build_grd(r, d))], order)
    return order, initial_ideal(gb)


def expected_n_sequence(d):
    seq = []
    for k in range(d - 1):
        seq.extend([k] * (k + 1))
    seq.extend([d - 1] * d)
    return seq


# ---------------------------------------------------------------------------
# colon ideals


def test_colon_of_empty_prior_is_zero_ideal():
    order = GrevlexOrder(["x", "y"])
    assert len(colon_with_monomial([], mono(order, "x*y"))) == 0


def test_colon_square_chain():
    # priors: everything below a5*b1 in the sorted order; expect the three
    # b-variables above b1.
    order, ideal = family_initial(3, 5)
    gens = ideal.min_gens
    m = mono(order, "a5*b1")
    p = gens.index(m)
    colon = colon_with_monomial(gens[:p], m)
    got = {format_monomial(g, order.names) for g in colon.min_gens}
    assert got == {"b4", "b3", "b2"}


def test_colon_path_generator_middle_case():
    order, ideal = family_initial(3, 5)
    gens = ideal.min_gens
    m = mono(order, "a3*e2*e4")
    p = gens.index(m)
    colon = colon_with_monomial(gens[:p], m)
    got = {format_monomial(g, order.names) for g in colon.min_gens}
    assert got == {"a5", "a4", "b2", "b1"}


def test_colon_with_dividing_prior_is_unit_ideal():
    order = GrevlexOrder(["x", "y"])
    colon = colon_with_monomial([mono(order, "x")], mono(order, "x*y"))
    assert [g.degree for g in colon.min_gens] == [0]


def test_colon_generators_multiply_back_into_prior():
    order, ideal = family_initial(4, 4)
    gens = ideal.min_gens
    for p, m in enumerate(gens):
        colon = colon_with_monomial(gens[:p], m)
        for g in colon.min_gens:
            product = g * m
            assert any(prior.divides(product) for prior in gens[:p])


# ---------------------------------------------------------------------------
# quotient profiles


def test_profile_g32():
    order, ideal = family_initial(3, 2)
    profile = quotient_profile(ideal)
    assert profile.linear
    assert profile.n == [0, 1, 1]


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_profile_closed_form(r, d):
    order, ideal = family_initial(r, d)
    profile = quotient_profile(ideal)
    assert profile.linear
    assert profile.n == expected_n_sequence(d)


def test_profile_disjoint_supports_not_linear():
    order = GrevlexOrder(["x", "y", "z", "w"])
    ideal = MonomialIdeal((mono(order, "x*y"), mono(order, "z*w")))
    profile = quotient_profile(ideal)
    assert not profile.linear
    assert profile.n == [0, 1]
    assert colon_with_monomial(ideal.min_gens[:1], ideal.min_gens[1]).min_gens == (mono(order, "x*y"),)


def reference_colons(ideal):
    """The minimal generators of every colon of the profile, by the full colon loop."""
    gens = ideal.min_gens
    return [colon_with_monomial(gens[:p], m).min_gens for p, m in enumerate(gens)]


def profile_reference(ideal):
    """(n, linear) from the full colon loop."""
    colons = reference_colons(ideal)
    return [len(c) for c in colons], all(g.degree == 1 for c in colons for g in c)


@pytest.fixture
def colon_calls(monkeypatch):
    """The monomials quotient_profile passes to colon_with_monomial, in call order."""
    calls = []

    def counted(prior, m):
        calls.append(m)
        return colon_with_monomial(prior, m)

    monkeypatch.setattr(quotients_module, "colon_with_monomial", counted)
    return calls


def family_initial_ideals():
    for d in range(3, 9):
        graph = build_k2d(d)
        order = default_order(graph)
        gb = buchberger([walk_to_binomial(w) for w in family_primitive_walks(graph)], order)
        yield initial_ideal(gb)
    for d in range(2, 6):
        yield family_initial(3, d)[1]


def test_profile_mask_test_matches_colon_loop_on_family_initial_ideals(colon_calls):
    for ideal in family_initial_ideals():
        profile = quotient_profile(ideal)
        assert (profile.n, profile.linear) == profile_reference(ideal)
        assert profile.linear and colon_calls == []  # every colon took the mask test


def assert_profile_matches_colon_loop(ideal, colon_calls):
    """The profile equals the full colon loop's, and only the colons not
    generated by variables reach colon_with_monomial; returns linear."""
    colon_calls.clear()
    n, linear = profile_reference(ideal)
    profile = quotient_profile(ideal)
    assert (profile.n, profile.linear) == (n, linear)
    assert colon_calls == [m for m, c in zip(ideal.min_gens, reference_colons(ideal))
                           if any(g.degree > 1 for g in c)]
    return linear


def test_profile_mask_test_matches_colon_loop_on_random_squarefree_ideals(colon_calls):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = {True: 0, False: 0}

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.integers(1, 2**7 - 1), min_size=1, max_size=14), st.randoms())
    def check(masks, rng):
        gens = minimalize_monomials(Monomial([(x >> i) & 1 for i in range(7)]) for x in masks)
        rng.shuffle(gens)
        for ideal in (MonomialIdeal(tuple(gens)), MonomialIdeal.from_generators(gens, GrevlexOrder("abcdefg"))):
            seen[assert_profile_matches_colon_loop(ideal, colon_calls)] += 1

    check()
    assert seen[True] > 50 and seen[False] > 50, seen


def test_profile_code_test_matches_colon_loop_on_random_ideals(colon_calls):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = Counter()

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.lists(st.integers(0, 3), min_size=5, max_size=5), min_size=1, max_size=14),
                      st.randoms())
    def check(vectors, rng):
        gens = minimalize_monomials(Monomial(v) for v in vectors if any(v))
        if not gens:
            return
        rng.shuffle(gens)
        squarefree = all(max(m.exps) <= 1 for m in gens)
        for ideal in (MonomialIdeal(tuple(gens)), MonomialIdeal.from_generators(gens, GrevlexOrder("abcde"))):
            seen[squarefree, assert_profile_matches_colon_loop(ideal, colon_calls)] += 1

    check()
    assert seen[False, True] > 50 and seen[False, False] > 50, seen


@pytest.mark.parametrize("gens", [
    ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2"],  # (x,y,z)^2: linear, not squarefree
    ["x^2", "x*y", "y^3"],
    ["x*y", "z^2", "x*z"],
    ["x^2*y", "x*y*z", "y^2*z", "z^3"],
])
def test_profile_non_squarefree_takes_the_colon_loop(colon_calls, gens):
    # Only the colons not generated by variables take the loop.
    order = GrevlexOrder(["x", "y", "z"])
    for ideal in (MonomialIdeal(tuple(mono(order, g) for g in gens)),
                  MonomialIdeal.from_generators([mono(order, g) for g in gens], order)):
        linear = assert_profile_matches_colon_loop(ideal, colon_calls)
        assert (colon_calls == []) == linear
        if len(gens) == 6:  # (x,y,z)^2 reaches no colon loop
            assert colon_calls == []


def test_profile_matches_colon_loop_on_atlas_initial_ideals(colon_calls):
    # in(I_G) of the connected atlas graphs with at most 9 edges and a
    # primitive walk, under three priorities each.
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    seen = Counter()
    for g in nx.graph_atlas_g():
        if not 0 < g.number_of_edges() <= 9 or not nx.is_connected(g):
            continue
        graph = SimpleGraph([f"v{v}" for v in g.nodes],
                            [Edge(f"x{k}", (f"v{u}", f"v{v}")) for k, (u, v) in enumerate(g.edges)])
        binomials = [walk_to_binomial(w) for w in enumerate_primitive_walks(graph)]
        if not binomials:
            continue
        names = graph.edge_names
        for priority in (names, rng.sample(names, len(names)), rng.sample(names, len(names))):
            ideal = initial_ideal(reduced_basis(binomials, default_order(graph, priority)))
            assert_profile_matches_colon_loop(ideal, colon_calls)
            seen[all(max(m.exps) <= 1 for m in ideal.min_gens)] += 1
    assert (seen[True] + seen[False], seen[False]) == (798, 26), seen


# ---------------------------------------------------------------------------
# Betti numbers from linear quotients


def test_betti_g32():
    order, ideal = family_initial(3, 2)
    table = betti_from_linear_quotients(quotient_profile(ideal))
    assert table.entries == {(0, 2): 1, (0, 3): 2, (1, 4): 2}


def test_betti_g35():
    order, ideal = family_initial(3, 5)
    table = betti_from_linear_quotients(quotient_profile(ideal))
    assert table.entries == {
        (0, 2): 10, (1, 3): 20, (2, 4): 15, (3, 5): 4,
        (0, 3): 5, (1, 4): 20, (2, 5): 30, (3, 6): 20, (4, 7): 5,
    }


def test_betti_single_generator():
    order = GrevlexOrder(["x", "y", "z"])
    ideal = MonomialIdeal((mono(order, "x*y*z"),))
    table = betti_from_linear_quotients(quotient_profile(ideal))
    assert table.entries == {(0, 3): 1}


def test_betti_rejects_nonlinear_profile():
    order = GrevlexOrder(["x", "y", "z", "w"])
    ideal = MonomialIdeal((mono(order, "x*y"), mono(order, "z*w")))
    with pytest.raises(DomainError):
        betti_from_linear_quotients(quotient_profile(ideal))


# ---------------------------------------------------------------------------
# Taylor oracle


def test_taylor_two_generators_one_syzygy():
    order = GrevlexOrder(["x", "y", "z"])
    ideal = MonomialIdeal((mono(order, "x*y"), mono(order, "y*z")))
    table = betti_taylor_oracle(ideal)
    assert table.entries == {(0, 2): 2, (1, 3): 1}


def test_taylor_principal_ideal():
    order = GrevlexOrder(["x", "y"])
    ideal = MonomialIdeal((mono(order, "x^2*y"),))
    assert betti_taylor_oracle(ideal).entries == {(0, 3): 1}


def test_taylor_zero_ideal():
    assert betti_taylor_oracle(MonomialIdeal(())).entries == {}


def test_taylor_matches_quotient_formula_g32():
    order, ideal = family_initial(3, 2)
    lq = betti_from_linear_quotients(quotient_profile(ideal))
    assert betti_taylor_oracle(ideal) == lq


def test_taylor_on_f5_linear_strand():
    # squares-only generators a_i b_j with j < i over 10 variables
    names = [f"a{i}" for i in range(1, 6)] + [f"b{i}" for i in range(1, 6)]
    order = GrevlexOrder(names)
    gens = tuple(
        mono(order, f"a{i}*b{j}") for i in range(1, 6) for j in range(1, i)
    )
    table = betti_taylor_oracle(MonomialIdeal(gens))
    assert table.entries == {(0, 2): 10, (1, 3): 20, (2, 4): 15, (3, 5): 4}


def taylor_reference(ideal):
    """The full Taylor complex: every one of the 2^M subsets, split per lcm."""
    gens = list(ideal.min_gens)
    M = len(gens)
    table = BettiTable()
    w = max((e for g in gens for e in g.exps), default=0)
    code_of = {}
    for b, g in enumerate(gens):
        code = 0
        for e in g.exps:
            code = (code << w) | ((1 << e) - 1)
        code_of[1 << b] = code
    lcms = [0] * (1 << M)
    groups = {}
    for mask in range(1, 1 << M):
        low = mask & -mask
        lcms[mask] = alpha = lcms[mask ^ low] | code_of[low]
        groups.setdefault((mask.bit_count(), alpha), []).append(mask)

    @cache
    def boundary_rank(k, alpha):
        sources, targets = groups.get((k, alpha)), groups.get((k - 1, alpha))
        if not sources or not targets:
            return 0
        col = {mask: c for c, mask in enumerate(targets)}
        rows = []
        for mask in sources:
            row, sign, sub = {}, 1, mask
            while sub:
                low = sub & -sub
                if lcms[mask ^ low] == alpha:
                    row[col[mask ^ low]] = sign
                sign, sub = -sign, sub ^ low
            rows.append(row)
        return sparse_rational_rank(rows)

    for (k, alpha), masks in sorted(groups.items()):
        beta = len(masks) - boundary_rank(k, alpha) - boundary_rank(k + 1, alpha)
        if beta:
            table.add(k - 1, alpha.bit_count(), beta)
    return table


def test_lyubeznik_oracle_matches_taylor_on_family_initial_ideals():
    k2d = islice(family_initial_ideals(), 4)  # K(2,3..6): at most 15 generators
    for ideal in chain(k2d, (family_initial(r, d)[1] for r in (3, 4) for d in range(2, 6))):
        # Same entries inserted in the same order: the JSON prints the dict.
        assert list(betti_taylor_oracle(ideal).entries.items()) == list(taylor_reference(ideal).entries.items())


def test_lyubeznik_oracle_matches_taylor_on_atlas_initial_ideals():
    # The connected atlas graphs with at most 11 edges: in(I_G) has at most 12 generators.
    nx = pytest.importorskip("networkx")
    sizes = []
    for g in nx.graph_atlas_g():
        if not 0 < g.number_of_edges() <= 11 or not nx.is_connected(g):
            continue
        graph = SimpleGraph([f"v{v}" for v in g.nodes],
                            [Edge(f"x{k}", (f"v{u}", f"v{v}")) for k, (u, v) in enumerate(g.edges)])
        order = default_order(graph)
        ideal = initial_ideal(buchberger(map(walk_to_binomial, enumerate_primitive_walks(graph)), order))
        assert list(betti_taylor_oracle(ideal).entries.items()) == list(taylor_reference(ideal).entries.items())
        sizes.append(len(ideal))
    assert len(sizes) == 621 and max(sizes) == 12


def test_lyubeznik_oracle_matches_taylor_on_random_ideals():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = {True: 0, False: 0}

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=10)), st.randoms())
    def check(vectors, rng):
        gens = minimalize_monomials(Monomial(v) for v in vectors if any(v))
        if not gens:
            return
        rng.shuffle(gens)
        ideal = MonomialIdeal(tuple(gens))
        assert list(betti_taylor_oracle(ideal).entries.items()) == list(taylor_reference(ideal).entries.items())
        seen[all(max(m.exps) <= 1 for m in gens)] += 1

    check()
    assert seen[True] > 30 and seen[False] > 30, seen


def test_lyubeznik_oracle_work_on_g35(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return sparse_rational_rank(rows)

    monkeypatch.setattr(quotients_module, "sparse_rational_rank", counted)
    betti_taylor_oracle(family_initial(3, 5)[1])
    # The full Taylor complex makes 1,018 calls with 31,515 rows here; a
    # one-row boundary of a Lyubeznik slice takes no call.
    assert (len(calls), sum(calls)) == (424, 2108)


def test_taylor_generator_cap():
    order = GrevlexOrder([f"x{i}" for i in range(19)])
    gens = tuple(Monomial(tuple(1 if j == i else 0 for j in range(19))) for i in range(19))
    with pytest.raises(BudgetError):
        betti_taylor_oracle(MonomialIdeal(gens))


def test_taylor_non_squarefree_input():
    # x^2, xy, y^3: resolution of a thickened point; frozen from the Taylor
    # homology of this classical example
    order = GrevlexOrder(["x", "y"])
    ideal = MonomialIdeal((mono(order, "x^2"), mono(order, "x*y"), mono(order, "y^3")))
    table = betti_taylor_oracle(ideal)
    assert table.get(0, 2) == 2 and table.get(0, 3) == 1
    assert table.get(1, 3) == 1 and table.get(1, 4) == 1
    assert sum(b for (i, j), b in table.entries.items() if i >= 2) == 0


def monomials_of_degree(nvars, deg):
    return [Monomial.from_variables(nvars, pos) for pos in combinations_with_replacement(range(nvars), deg)]


@pytest.mark.parametrize("nvars, power", [(3, 3), (2, 4)])
def test_taylor_matches_quotients_on_powers_of_the_maximal_ideal(nvars, power):
    # (x,y,z)^3 and (x,y)^4 have linear quotients and exponents up to the power.
    order = GrevlexOrder([f"x{i}" for i in range(nvars)])
    gens = monomials_of_degree(nvars, power)
    ideal = MonomialIdeal.from_generators(gens, order)
    profile = quotient_profile(ideal)
    assert profile.linear
    lq = betti_from_linear_quotients(profile)
    assert betti_taylor_oracle(ideal) == lq


def standard_monomial_counts(gens, nvars, max_deg):
    """Per degree, the monomials that no generator divides."""
    return [
        sum(not any(g.divides(m) for g in gens) for m in monomials_of_degree(nvars, deg))
        for deg in range(max_deg + 1)
    ]


@pytest.mark.parametrize("seed", range(12))
def test_taylor_hilbert_series_counts_standard_monomials(seed):
    # Random non-squarefree ideals with exponents up to 3: the Hilbert series
    # from Taylor's table must count the monomials outside the ideal.
    rng = random.Random(seed)
    nvars = rng.randint(2, 4)
    gens = [Monomial([3] + [0] * (nvars - 1))]
    while len(gens) < 12:
        m = Monomial([rng.randint(0, 3) for _ in range(nvars)])
        if 3 <= m.degree <= 5:  # rarely comparable, so most stay minimal
            gens.append(m)
    ideal = MonomialIdeal.from_generators(gens, GrevlexOrder([f"x{i}" for i in range(nvars)]))
    table = betti_taylor_oracle(ideal)
    top = 3 * nvars + 1  # past the degree of every lcm
    assert hilbert_from_betti(table, nvars).expand(top) == standard_monomial_counts(
        ideal.min_gens, nvars, top
    )


# ---------------------------------------------------------------------------
# sorting and cross-checks


def test_sort_ascending_g35_order():
    order, ideal = family_initial(3, 5)
    assert [format_monomial(m, order.names) for m in ideal.min_gens] == [
        "a5*b4", "a5*b3", "a4*b3", "a5*b2", "a4*b2", "a3*b2",
        "a5*b1", "a4*b1", "a3*b1", "a2*b1",
        "a5*e2*e4", "a4*e2*e4", "a3*e2*e4", "a2*e2*e4", "a1*e2*e4",
    ]


def test_sort_ascending_squares_grouped_by_b_factor():
    names = [f"a{i}" for i in range(1, 5)] + [f"b{i}" for i in range(1, 5)]
    order = GrevlexOrder(names)
    gens = [mono(order, f"a{i}*b{j}") for i in range(1, 5) for j in range(1, i)]
    ideal = MonomialIdeal.from_generators(gens, order)
    assert [format_monomial(m, order.names) for m in ideal.min_gens] == [
        "a4*b3", "a4*b2", "a3*b2", "a4*b1", "a3*b1", "a2*b1",
    ]


def test_sort_single_monomial():
    order = GrevlexOrder(["x"])
    m = mono(order, "x")
    assert MonomialIdeal.from_generators([m], order).min_gens == (m,)


@pytest.mark.parametrize("r,d", [(3, 3), (4, 2), (5, 3)])
def test_euler_characteristic_agreement(r, d):
    order, ideal = family_initial(r, d)
    lq = betti_from_linear_quotients(quotient_profile(ideal))
    oracle = betti_taylor_oracle(ideal)
    assert quotient_numerator_from_betti(lq) == quotient_numerator_from_betti(oracle)


def test_oracle_degree_zero_row_counts_generators():
    order, ideal = family_initial(4, 3)
    table = betti_taylor_oracle(ideal)
    by_degree = {}
    for m in ideal.min_gens:
        by_degree[m.degree] = by_degree.get(m.degree, 0) + 1
    assert {j: b for (i, j), b in table.entries.items() if i == 0} == by_degree


@pytest.mark.parametrize("r,d", [(3, 2), (3, 4), (4, 3), (5, 2)])
def test_family_strands_limited_to_two_degrees(r, d):
    order, ideal = family_initial(r, d)
    table = betti_from_linear_quotients(quotient_profile(ideal))
    assert {j - i for (i, j) in table.entries} <= {2, r}


# ---------------------------------------------------------------------------
# table plumbing


def test_betti_table_grid_layout():
    table = BettiTable({(0, 2): 1, (0, 3): 2, (1, 4): 2})
    grid = table.to_grid()
    lines = grid.splitlines()
    assert lines[0].split() == ["0", "1"]
    assert lines[1].split() == ["2:", "1", "."]
    assert lines[2].split() == ["3:", "2", "2"]


def test_betti_table_triples_sorted():
    table = BettiTable({(1, 3): 4, (0, 2): 3})
    assert table.to_triples() == [
        {"i": 0, "j": 2, "beta": 3},
        {"i": 1, "j": 3, "beta": 4},
    ]


def test_betti_table_rejects_negative():
    with pytest.raises(DomainError):
        BettiTable({(0, 2): -1})


def test_internal_ideals_equal_checked_ones():
    # colon_with_monomial skips the minimality re-check; its ideals must still
    # compare and hash like ones from the public constructor.
    order = GrevlexOrder(["x", "y", "z"])
    prior = [mono(order, "x^2*y"), mono(order, "y*z^2"), mono(order, "x*z")]
    colon = colon_with_monomial(prior, mono(order, "x*y"))
    checked = MonomialIdeal(colon.min_gens)
    assert colon == checked and hash(colon) == hash(checked)
    assert sorted(m.exps for m in colon.min_gens) == [(0, 0, 1), (1, 0, 0)]


def test_monomial_ideal_rejects_non_minimal():
    order = GrevlexOrder(["x", "y"])
    with pytest.raises(DomainError):
        MonomialIdeal((mono(order, "x"), mono(order, "x*y")))
