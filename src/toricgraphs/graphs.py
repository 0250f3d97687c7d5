"""Finite simple graphs with named vertices and edges.

Vertex and edge *order* is part of the data model: every graph's default
monomial order is grevlex with the declared edge sequence as priority, so
graphs are lists, not sets.  The two built-in families are

  K_{2,d}:  vertices x1, x2, y1..yd; edges a_i = {x1, y_i}, b_i = {x2, y_i};
  G(r,d):   K_{2,d} plus a path of length 2r-2 joining x1 and x2 through
            fresh vertices z1..z_{2r-3}, edge labels e1..e_{2r-2}, declared
            a's, e's, b's, so that default order is the paper's a > e > b.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DomainError, ParseError


@dataclass(frozen=True)
class Edge:
    name: str
    ends: tuple[str, str]

    def other(self, vertex: str) -> str:
        u, v = self.ends
        if vertex == u:
            return v
        if vertex == v:
            return u
        raise DomainError(f"vertex {vertex!r} is not an endpoint of edge {self.name!r}")


@dataclass(frozen=True)
class FamilyTag:
    r: int | None  # None for K_{2,d}
    d: int


class SimpleGraph:
    """Ordered vertex/edge lists; loop-free, at most one edge per vertex pair."""

    def __init__(self, vertices, edges, family: FamilyTag | None = None):
        self.vertices = list(vertices)
        self.edges = list(edges)
        self.family = family
        if len(set(self.vertices)) != len(self.vertices):
            raise DomainError("duplicate vertex name")
        vset = set(self.vertices)
        seen_names = set()
        seen_pairs = set()
        for e in self.edges:
            u, v = e.ends
            if u == v:
                raise DomainError(f"edge {e.name!r} is a loop at {u!r}")
            if u not in vset or v not in vset:
                raise DomainError(f"edge {e.name!r} references undeclared vertex")
            if e.name in seen_names:
                raise DomainError(f"duplicate edge name {e.name!r}")
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise DomainError(f"edges {u!r}-{v!r} declared twice (not a simple graph)")
            seen_names.add(e.name)
            seen_pairs.add(pair)
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.edge_index = {e.name: i for i, e in enumerate(self.edges)}

    @property
    def edge_names(self) -> list[str]:
        return [e.name for e in self.edges]

    def adjacency(self):
        """Per-vertex list of (edge position, neighbour vertex), in edge order."""
        adj = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            u, v = e.ends
            adj[u].append((i, v))
            adj[v].append((i, u))
        return adj

    def edge_vertex_exponents(self, edge_pos: int) -> tuple[int, ...]:
        """Exponent vector of the edge's image x_j*x_k in the vertex variables."""
        exps = [0] * len(self.vertices)
        u, v = self.edges[edge_pos].ends
        exps[self.vertex_index[u]] += 1
        exps[self.vertex_index[v]] += 1
        return tuple(exps)

    def __eq__(self, other):
        # The family tag is constructor provenance, not graph data.
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __repr__(self):
        tag = "" if self.family is None else f", family={self.family}"
        return f"SimpleGraph({len(self.vertices)} vertices, {len(self.edges)} edges{tag})"


def build_grd(r: int, d: int) -> SimpleGraph:
    """The bipartite family member G(r,d): K_{2,d} plus an even path x1..x2.

    Edge order is canonical: a1..ad, e1..e_{2r-2}, b1..bd, so declaration-order
    grevlex is the paper's a > e > b.
    """
    if r < 3:
        raise DomainError(f"build_grd requires r >= 3, got r={r}")
    if d < 2:
        raise DomainError(f"build_grd requires d >= 2, got d={d}")
    vertices = ["x1", "x2"]
    vertices += [f"y{i}" for i in range(1, d + 1)]
    vertices += [f"z{i}" for i in range(1, 2 * r - 2)]
    edges = [Edge(f"a{i}", ("x1", f"y{i}")) for i in range(1, d + 1)]
    edges.append(Edge("e1", ("x1", "z1")))
    for i in range(2, 2 * r - 2):
        edges.append(Edge(f"e{i}", (f"z{i - 1}", f"z{i}")))
    edges.append(Edge(f"e{2 * r - 2}", (f"z{2 * r - 3}", "x2")))
    edges += [Edge(f"b{i}", ("x2", f"y{i}")) for i in range(1, d + 1)]
    return SimpleGraph(vertices, edges, family=FamilyTag(r, d))


def build_k2d(d: int) -> SimpleGraph:
    """The complete bipartite graph K_{2,d} with edges a_i = {x1,y_i}, b_i = {x2,y_i}."""
    if d < 2:
        raise DomainError(f"build_k2d requires d >= 2, got d={d}")
    vertices = ["x1", "x2"] + [f"y{i}" for i in range(1, d + 1)]
    edges = [Edge(f"a{i}", ("x1", f"y{i}")) for i in range(1, d + 1)]
    edges += [Edge(f"b{i}", ("x2", f"y{i}")) for i in range(1, d + 1)]
    return SimpleGraph(vertices, edges, family=FamilyTag(None, d))


def parse_graph(text: str) -> SimpleGraph:
    """Parse the JSON graph format.

    Format: {"vertices": ["u", ...], "edges": [{"name": "f", "ends": ["u", "v"]}, ...]}.
    Array order is significant and preserved.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    for key in ("vertices", "edges"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError('"vertices" must be an array of strings')
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be an array')
    edges = []
    for k, item in enumerate(raw_edges):
        where = f"edges[{k}]"
        if not isinstance(item, dict):
            raise ParseError(f"{where} must be an object")
        name = item.get("name")
        ends = item.get("ends")
        if not isinstance(name, str):
            raise ParseError(f"{where}.name must be a string")
        if (not isinstance(ends, list) or len(ends) != 2
                or not all(isinstance(v, str) for v in ends)):
            raise ParseError(f"{where}.ends must be an array of two vertex names")
        edges.append(Edge(name, (ends[0], ends[1])))
    try:
        return SimpleGraph(vertices, edges)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def serialize_graph(graph: SimpleGraph) -> str:
    doc = {
        "vertices": list(graph.vertices),
        "edges": [{"name": e.name, "ends": [e.ends[0], e.ends[1]]} for e in graph.edges],
    }
    return json.dumps(doc, indent=2, sort_keys=False)
