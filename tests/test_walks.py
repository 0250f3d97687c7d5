import json
from collections import defaultdict
from itertools import combinations, combinations_with_replacement

import pytest

from toricgraphs import (
    BudgetError,
    ClosedEvenWalk,
    DomainError,
    build_grd,
    build_k2d,
    enumerate_primitive_walks,
    is_primitive,
    minimal_closed_even_walks,
    parse_graph,
    walk_to_binomial,
)
from toricgraphs.walks import canonical_edge_names, default_max_len, family_primitive_walks


def decomposes_at_basepoint(walk: ClosedEvenWalk) -> bool:
    """True if some rotation splits into two consecutive closed even walks.

    Such walks are never primitive: an independent structural check on
    enumeration output.
    """
    seq = walk.edge_names
    n = len(seq)
    for k in range(n):
        rotated = ClosedEvenWalk(walk.graph, seq[k:] + seq[:k])
        base = rotated.vertices[0]
        for cut in range(2, n, 2):
            if rotated.vertices[cut] == base:
                return True
    return False


def path_graph(n):
    doc = {
        "vertices": [f"u{i}" for i in range(n)],
        "edges": [{"name": f"f{i}", "ends": [f"u{i}", f"u{i+1}"]} for i in range(n - 1)],
    }
    return parse_graph(json.dumps(doc))


def bowtie_graph():
    # two triangles sharing the vertex c
    doc = {
        "vertices": ["c", "A", "B", "D", "E"],
        "edges": [
            {"name": "p", "ends": ["c", "A"]},
            {"name": "q", "ends": ["A", "B"]},
            {"name": "s", "ends": ["B", "c"]},
            {"name": "u", "ends": ["c", "D"]},
            {"name": "v", "ends": ["D", "E"]},
            {"name": "w", "ends": ["E", "c"]},
        ],
    }
    return parse_graph(json.dumps(doc))


def graph_from_pairs(pairs):
    vertices = sorted({str(v) for pair in pairs for v in pair})
    edges = [{"name": f"g{k}", "ends": [str(u), str(v)]} for k, (u, v) in enumerate(pairs)]
    return parse_graph(json.dumps({"vertices": vertices, "edges": edges}))


def k33_graph():
    return graph_from_pairs([(f"x{i}", f"y{j}") for i in range(3) for j in range(3)])


def vertex_image(graph, monomial):
    acc = [0] * len(graph.vertices)
    for pos, exp in enumerate(monomial.exps):
        if exp:
            img = graph.edge_vertex_exponents(pos)
            for k in range(len(acc)):
                acc[k] += exp * img[k]
    return tuple(acc)


# ---------------------------------------------------------------------------
# walk construction and binomials


def test_walk_requires_connected_closed_sequence():
    g = build_k2d(3)
    with pytest.raises(DomainError):
        ClosedEvenWalk(g, ("a1", "a2"))  # a1, a2 only meet at x1; cannot close
    with pytest.raises(DomainError):
        ClosedEvenWalk(g, ("a1", "b1", "b2"))  # odd length
    with pytest.raises(DomainError):
        ClosedEvenWalk(g, ("a1", "b2", "b1", "a2"))  # b2 does not touch y1


def test_square_walk_binomial():
    g = build_k2d(4)
    w = ClosedEvenWalk(g, ("a2", "b2", "b3", "a3"))
    f = walk_to_binomial(w)
    names = g.edge_names
    lhs = {names[k]: e for k, e in enumerate(f.lhs.exps) if e}
    rhs = {names[k]: e for k, e in enumerate(f.rhs.exps) if e}
    assert lhs == {"a2": 1, "b3": 1}
    assert rhs == {"b2": 1, "a3": 1}


def test_long_walk_binomial():
    g = build_grd(3, 2)
    w = ClosedEvenWalk(g, ("a1", "e1", "e2", "e3", "e4", "b1"))
    f = walk_to_binomial(w)
    names = g.edge_names
    lhs = {names[k] for k, e in enumerate(f.lhs.exps) if e}
    rhs = {names[k] for k, e in enumerate(f.rhs.exps) if e}
    assert lhs == {"a1", "e2", "e4"}
    assert rhs == {"b1", "e1", "e3"}


def test_rotated_walk_binomial_equal_up_to_sign():
    g = build_k2d(3)
    w = ClosedEvenWalk(g, ("a1", "b1", "b2", "a2"))
    rotated = ClosedEvenWalk(g, ("b1", "b2", "a2", "a1"))
    f, fr = walk_to_binomial(w), walk_to_binomial(rotated)
    assert f.same_up_to_sign(fr)


def test_canonical_form_identifies_rotations_and_reversal():
    g = build_k2d(3)
    base = ClosedEvenWalk(g, ("a1", "b1", "b2", "a2"))
    rotated = ClosedEvenWalk(g, ("b2", "a2", "a1", "b1"))
    reversed_ = ClosedEvenWalk(g, ("a2", "b2", "b1", "a1"))
    assert canonical_edge_names(base.edge_names) == canonical_edge_names(rotated.edge_names) \
        == canonical_edge_names(reversed_.edge_names)


# ---------------------------------------------------------------------------
# minimality and primitivity


def test_backtrack_walk_not_minimal():
    # A walk along one edge and back closes from either end of the edge; the
    # trace starts at the first, and the binomial is zero.
    g = path_graph(2)
    w = ClosedEvenWalk(g, ("f0", "f0"))
    assert w.vertices == ("u0", "u1", "u0")
    assert walk_to_binomial(w).is_zero()


def test_square_walk_minimal():
    # A minimal walk closes from exactly one end of its first edge, so its
    # trace needs no start vertex.
    g = build_k2d(2)
    assert ClosedEvenWalk(g, ("a1", "b1", "b2", "a2")).vertices == ("x1", "y1", "x2", "y2", "x1")
    assert ClosedEvenWalk(g, ("b1", "b2", "a2", "a1")).vertices == ("y1", "x2", "y2", "x1", "y1")


def test_cyclic_repeat_not_minimal():
    # A repeated edge sits at one odd and one even position, so the
    # divisibility test alone rejects the walk: its binomial is zero, or a
    # shorter walk's binomial divides it side by side.
    g = build_k2d(2)
    candidates = [walk_to_binomial(w) for w in minimal_closed_even_walks(g, 8)]
    # consecutive b1, b1 in the middle
    w = ClosedEvenWalk(g, ("a1", "b1", "b1", "a1"))
    assert walk_to_binomial(w).is_zero()
    assert not is_primitive(walk_to_binomial(w), candidates)
    # repeat only across the wrap-around
    g3 = build_k2d(3)
    w2 = ClosedEvenWalk(g3, ("a1", "b1", "b2", "a2", "a3", "b3", "b1", "a1"))
    f2 = walk_to_binomial(w2)
    assert not f2.is_zero()
    candidates = [walk_to_binomial(w) for w in minimal_closed_even_walks(g3, 12)]
    assert not is_primitive(f2, candidates)


def test_4cycle_primitive_in_k23():
    g = build_k2d(3)
    candidates = [walk_to_binomial(w) for w in minimal_closed_even_walks(g, 12)]
    candidates = [f for f in candidates if not f.is_zero()]
    square = ClosedEvenWalk(g, ("a1", "b1", "b2", "a2"))
    assert is_primitive(walk_to_binomial(square), candidates)


def test_glued_walk_not_primitive():
    # A minimal walk that splits into two closed even walks at x1: the square
    # factor's binomial divides it, so the divisibility test must reject it.
    g = build_grd(3, 2)
    glued = ClosedEvenWalk(g, ("a2", "b2", "b1", "a1", "e1", "e2", "e3", "e4", "b1", "a1"))
    assert glued.vertices[0] == "x1"
    assert all(a != b for a, b in zip(glued.edge_names, glued.edge_names[1:] + glued.edge_names[:1]))
    assert decomposes_at_basepoint(glued)
    candidates = [walk_to_binomial(w) for w in minimal_closed_even_walks(g, 10)]
    candidates = [f for f in candidates if not f.is_zero()]
    assert not is_primitive(walk_to_binomial(glued), candidates)


def test_non_minimal_walk_not_primitive():
    g = path_graph(2)
    w = ClosedEvenWalk(g, ("f0", "f0"))
    assert not is_primitive(walk_to_binomial(w), [])


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("n", [3, 5])
def test_tree_has_no_primitive_walks(n):
    g = path_graph(n)
    assert enumerate_primitive_walks(g) == []


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_family_primitive_walk_count(r, d):
    g = build_grd(r, d)
    assert len(enumerate_primitive_walks(g, 2 * r)) == d * (d + 1) // 2


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_k2d_primitive_walk_count(d):
    g = build_k2d(d)
    assert len(enumerate_primitive_walks(g, 4)) == d * (d - 1) // 2


@pytest.mark.parametrize("r,d", [(3, 2), (3, 3), (4, 2), (4, 4)])
def test_enumeration_matches_closed_form(r, d):
    g = build_grd(r, d)
    found = {canonical_edge_names(w.edge_names) for w in enumerate_primitive_walks(g, 2 * r)}
    expected = {canonical_edge_names(w.edge_names) for w in family_primitive_walks(build_grd(r, d))}
    assert found == expected


def test_grd_walks_g32_explicit():
    walks = family_primitive_walks(build_grd(3, 2))
    assert [w.edge_names for w in walks] == [
        ("a1", "b1", "b2", "a2"),
        ("a1", "e1", "e2", "e3", "e4", "b1"),
        ("a2", "e1", "e2", "e3", "e4", "b2"),
    ]


def test_grd_walks_g35_count():
    assert len(family_primitive_walks(build_grd(3, 5))) == 15


def test_grd_walks_domain_errors():
    with pytest.raises(DomainError):
        family_primitive_walks(build_grd(2, 4))
    with pytest.raises(DomainError):
        family_primitive_walks(build_grd(3, 1))


@pytest.mark.parametrize("graph", [build_k2d(3), build_grd(3, 3), bowtie_graph()])
def test_enumeration_output_is_minimal_and_indecomposable(graph):
    for w in enumerate_primitive_walks(graph):
        names = w.edge_names
        assert all(a != b for a, b in zip(names, names[1:] + names[:1]))  # minimal, cyclically
        assert not decomposes_at_basepoint(w)


@pytest.mark.parametrize("graph", [build_k2d(3), build_grd(3, 3), bowtie_graph()])
def test_enumeration_binomials_in_kernel(graph):
    for w in enumerate_primitive_walks(graph):
        f = walk_to_binomial(w)
        assert vertex_image(graph, f.lhs) == vertex_image(graph, f.rhs)


def test_bowtie_double_triangle_walks():
    # Two odd cycles glued at a vertex: the walk around both is primitive even
    # though it revisits the shared vertex (at an odd position).  The two
    # traversal directions of the second triangle give inequivalent walk
    # classes carrying the same binomial.
    g = bowtie_graph()
    walks = enumerate_primitive_walks(g)
    assert len(walks) == 2
    assert all(len(w.edge_names) == 6 for w in walks)
    f1, f2 = (walk_to_binomial(w) for w in walks)
    assert f1.same_up_to_sign(f2)
    # the doubled single triangle has a zero binomial, so it is excluded
    doubled = ClosedEvenWalk(g, ("p", "q", "s", "p", "q", "s"))
    assert walk_to_binomial(doubled).is_zero()
    assert not is_primitive(walk_to_binomial(doubled), [f1, f2])


def test_enumeration_deterministic_order():
    g = build_grd(3, 3)
    walks = enumerate_primitive_walks(g, 6)
    assert walks == enumerate_primitive_walks(g, 6)
    lengths = [len(w.edge_names) for w in walks]
    assert lengths == sorted(lengths)
    for a, b in zip(walks, walks[1:]):
        if len(a.edge_names) == len(b.edge_names):
            assert canonical_edge_names(a.edge_names) < canonical_edge_names(b.edge_names)


def test_walk_search_budget():
    with pytest.raises(BudgetError):
        minimal_closed_even_walks(build_k2d(4), 8, node_budget=10)


def test_max_len_validation():
    with pytest.raises(DomainError):
        minimal_closed_even_walks(build_k2d(2), 3)


# ---------------------------------------------------------------------------
# the pruned search: revisits at even distance are cut


def test_k33_walks_are_the_even_cycles():
    g = k33_graph()
    walks = minimal_closed_even_walks(g, 2 * len(g.edges))
    assert sorted(len(w.edge_names) for w in walks) == [4] * 9 + [6] * 6
    candidates = [walk_to_binomial(w) for w in walks]
    for w in walks:
        assert len(set(w.vertices[:-1])) == len(w.edge_names)  # a cycle: no vertex repeats
        assert is_primitive(walk_to_binomial(w), candidates)


@pytest.mark.parametrize("graph", [bowtie_graph(), build_grd(3, 3), k33_graph()],
                         ids=["bowtie", "G33", "K33"])
def test_search_output_never_decomposes(graph):
    walks = minimal_closed_even_walks(graph, 2 * len(graph.edges))
    assert walks
    assert not any(decomposes_at_basepoint(w) for w in walks)


def test_primitive_filter_runs_only_when_the_search_yields_a_non_cycle(monkeypatch):
    # Even cycles are primitive in any graph, and on a bipartite graph the
    # search yields nothing else, so there the filter is skipped.
    import toricgraphs.walks as walks_module

    tested = []
    real = walks_module.is_primitive
    monkeypatch.setattr(walks_module, "is_primitive", lambda f, c: tested.append(f) or real(f, c))
    assert len(enumerate_primitive_walks(k33_graph())) == 15
    assert len(enumerate_primitive_walks(build_grd(3, 3))) == 6
    assert len(enumerate_primitive_walks(build_k2d(5))) == 10
    assert tested == []
    assert len(enumerate_primitive_walks(bowtie_graph())) == 2
    assert tested


def brute_force_primitive_binomials(graph):
    """Primitive binomials of I_G without walks, each as a frozenset {lhs, rhs}.

    Candidates are the pairs of edge monomials of degree <= |E| with equal
    vertex images and disjoint supports; every primitive binomial has degree
    <= |E|.  A pair is kept when no other pair divides it side by side in
    either orientation.  Divisibility is transitive and equal images force
    equal degrees, so testing the kept pairs of lower degree is enough.
    """
    q = len(graph.edges)
    images = [graph.edge_vertex_exponents(i) for i in range(q)]

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    kept = []
    for deg in range(1, q + 1):
        by_image = defaultdict(list)
        for combo in combinations_with_replacement(range(q), deg):
            mono = [0] * q
            for e in combo:
                mono[e] += 1
            image = tuple(map(sum, zip(*(images[e] for e in combo))))
            by_image[image].append(tuple(mono))
        new = []
        for monos in by_image.values():
            for u, v in combinations(monos, 2):
                if any(a and b for a, b in zip(u, v)):
                    continue
                if not any(divides(a, u) and divides(b, v) or divides(a, v) and divides(b, u)
                           for a, b in kept):
                    new.append((u, v))
        kept += new
    return {frozenset(pair) for pair in kept}


def atlas_graphs(max_edges):
    nx = pytest.importorskip("networkx")
    return [graph_from_pairs(list(g.edges)) for g in nx.graph_atlas_g()
            if 0 < g.number_of_edges() <= max_edges and nx.is_connected(g)]


def test_primitive_walks_match_brute_force_on_atlas():
    graphs = atlas_graphs(7)
    assert len(graphs) == 108
    for g in graphs:
        found = {frozenset((f.lhs.exps, f.rhs.exps))
                 for f in map(walk_to_binomial, enumerate_primitive_walks(g))}
        assert found == brute_force_primitive_binomials(g), g.edges


def test_indexed_primitive_filter_equals_the_full_filter():
    # The search passes each walk only the candidates inside its sides; the
    # reference passes every walk every nonzero candidate.
    k5 = graph_from_pairs([(i, j) for i in range(5) for j in range(i + 1, 5)])
    petersen = graph_from_pairs([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    graphs = atlas_graphs(8) + [k5, petersen, bowtie_graph()]
    assert len(graphs) == 202
    for g in graphs:
        walks = minimal_closed_even_walks(g, default_max_len(g))
        candidates = [f for f in map(walk_to_binomial, walks) if not f.is_zero()]
        expected = [w for w in walks if is_primitive(walk_to_binomial(w), candidates)]
        assert enumerate_primitive_walks(g) == expected, g.edges


def test_non_minimal_walks_fail_the_divisibility_test_on_atlas():
    # Insert a step there and back on an edge into each primitive walk at each
    # vertex: the result is a closed even walk that is not minimal, and the
    # divisibility test alone must reject it.
    graphs = atlas_graphs(6)
    made = 0
    for g in graphs:
        adj = g.adjacency()
        candidates = [walk_to_binomial(w) for w in minimal_closed_even_walks(g, default_max_len(g))]
        for w in enumerate_primitive_walks(g):
            names = w.edge_names
            for i in range(len(names)):
                for pos, _ in adj[w.vertices[i]]:
                    e = g.edge_names[pos]
                    longer = ClosedEvenWalk(g, names[:i] + (e, e) + names[i:])
                    assert not is_primitive(walk_to_binomial(longer), candidates), (g.edges, longer)
                    made += 1
    assert (len(graphs), made) == (52, 208)


def test_primitive_filter_builds_each_binomial_once(monkeypatch):
    # K_6 is not bipartite, so every minimal walk reaches the filter; the
    # filter tests the binomial it built, not the walk.
    import toricgraphs.walks as walks_module

    k6 = graph_from_pairs([(i, j) for i in range(6) for j in range(i + 1, 6)])
    minimal = len(minimal_closed_even_walks(k6, default_max_len(k6)))
    built = []
    real = walks_module.walk_to_binomial
    monkeypatch.setattr(walks_module, "walk_to_binomial", lambda w: built.append(w) or real(w))
    enumerate_primitive_walks(k6)
    assert len(built) == minimal == 8384
