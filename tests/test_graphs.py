import json

import pytest

from toricgraphs import DomainError, ParseError, build_grd, build_k2d, parse_graph, serialize_graph
from toricgraphs.graphs import Edge, SimpleGraph


def two_coloring(graph):
    """BFS 2-coloring; returns None if an odd cycle exists."""
    color = {}
    for root in graph.vertices:
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for _, w in graph.adjacency()[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def component_count(graph):
    seen = set()
    comps = 0
    adj = graph.adjacency()
    for root in graph.vertices:
        if root in seen:
            continue
        comps += 1
        stack = [root]
        seen.add(root)
        while stack:
            v = stack.pop()
            for _, w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return comps


def test_grd_35_counts_and_labels():
    g = build_grd(3, 5)
    assert len(g.vertices) == 10
    assert len(g.edges) == 14
    assert g.edge_names == [
        "a1", "a2", "a3", "a4", "a5",
        "e1", "e2", "e3", "e4",
        "b1", "b2", "b3", "b4", "b5",
    ]
    assert g.edges[g.edge_index["e1"]].ends == ("x1", "z1")
    assert g.edges[g.edge_index["e4"]].ends == ("z3", "x2")
    assert g.edges[g.edge_index["a3"]].ends == ("x1", "y3")
    assert g.edges[g.edge_index["b3"]].ends == ("x2", "y3")


def test_grd_32_counts():
    g = build_grd(3, 2)
    assert set(g.vertices) == {"x1", "x2", "y1", "y2", "z1", "z2", "z3"}
    assert len(g.vertices) == 7
    assert len(g.edges) == 8


def test_grd_rejects_small_parameters():
    with pytest.raises(DomainError, match="r >= 3"):
        build_grd(2, 4)
    with pytest.raises(DomainError, match="d >= 2"):
        build_grd(3, 1)


def test_k2d_counts():
    g = build_k2d(5)
    assert len(g.vertices) == 7
    assert len(g.edges) == 10
    g2 = build_k2d(2)  # the 4-cycle x1 y1 x2 y2
    assert len(g2.vertices) == 4
    assert len(g2.edges) == 4
    assert all(sum(v in e.ends for e in g2.edges) == 2 for v in g2.vertices)


def test_k2d_rejects_small_parameters():
    with pytest.raises(DomainError, match="d >= 2"):
        build_k2d(1)


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_family_vertex_edge_counts_and_degrees(r, d):
    g = build_grd(r, d)
    assert len(g.vertices) == d + 2 * r - 1
    assert len(g.edges) == 2 * d + 2 * r - 2
    degree = {v: sum(v in e.ends for e in g.edges) for v in g.vertices}
    for i in range(1, d + 1):
        assert degree[f"y{i}"] == 2
    for i in range(1, 2 * r - 2):
        assert degree[f"z{i}"] == 2
    assert degree["x1"] == d + 1
    assert degree["x2"] == d + 1


@pytest.mark.parametrize("r,d", [(3, 2), (3, 5), (4, 3), (5, 6)])
def test_family_connected_and_bipartite(r, d):
    g = build_grd(r, d)
    assert component_count(g) == 1
    assert two_coloring(g) is not None


def test_parse_minimal_graph():
    g = parse_graph('{"vertices":["u","v"],"edges":[{"name":"f","ends":["u","v"]}]}')
    assert g.vertices == ["u", "v"]
    assert g.edges == [Edge("f", ("u", "v"))]


def test_parse_rejects_loop():
    with pytest.raises(ParseError, match="loop"):
        parse_graph('{"vertices":["u"],"edges":[{"name":"f","ends":["u","u"]}]}')


def test_parse_rejects_parallel_edges():
    text = json.dumps({
        "vertices": ["u", "v"],
        "edges": [{"name": "f", "ends": ["u", "v"]}, {"name": "g", "ends": ["v", "u"]}],
    })
    with pytest.raises(ParseError, match="twice"):
        parse_graph(text)


def test_parse_rejects_bad_json_with_position():
    with pytest.raises(ParseError, match="line 1"):
        parse_graph('{"vertices": [,]}')


def test_parse_rejects_json_nested_too_deeply():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_graph("[" * 100_000 + "]" * 100_000)


def test_parse_rejects_missing_fields_and_bad_shapes():
    with pytest.raises(ParseError, match="vertices"):
        parse_graph('{"edges": []}')
    with pytest.raises(ParseError, match=r"edges\[0\]\.ends"):
        parse_graph('{"vertices":["u","v"],"edges":[{"name":"f","ends":["u"]}]}')
    with pytest.raises(ParseError, match=r"edges\[0\]\.name"):
        parse_graph('{"vertices":["u","v"],"edges":[{"ends":["u","v"]}]}')


def test_parse_rejects_undeclared_vertex():
    with pytest.raises(ParseError, match="undeclared"):
        parse_graph('{"vertices":["u"],"edges":[{"name":"f","ends":["u","w"]}]}')


@pytest.mark.parametrize("graph", [
    build_grd(3, 5),
    build_grd(4, 2),
    build_k2d(4),
    parse_graph('{"vertices":["c","a","b"],"edges":[{"name":"q","ends":["a","b"]},{"name":"p","ends":["c","a"]}]}'),
])
def test_serialize_round_trip(graph):
    again = parse_graph(serialize_graph(graph))
    assert again == graph
    assert again.vertices == graph.vertices  # declared order survives
    assert [e.name for e in again.edges] == [e.name for e in graph.edges]


def test_duplicate_vertex_rejected():
    with pytest.raises(DomainError, match="duplicate vertex"):
        SimpleGraph(["u", "u"], [])


def test_duplicate_edge_name_rejected():
    with pytest.raises(DomainError, match="duplicate edge name"):
        SimpleGraph(["u", "v", "w"],
                    [Edge("f", ("u", "v")), Edge("f", ("v", "w"))])
