"""Seeded random connected simple graphs for the general-graphs workload.

The 40 graphs are a stratified sample.  Twenty are non-bipartite with 6
vertices and 8 edges: one from each of the 20 isomorphism classes of such
connected graphs.  Twenty are bipartite with parts of 3 and 4 vertices and 9
edges: each of the 5 connected isomorphism classes four times.  The seed
draws every graph's vertex labelling, edge declaration order and edge
orientation; the declaration order fixes the grevlex order `gb --graph`
uses.  Fixing the class mix means the seed changes a pass's work only
through labels and orders, not through which classes are drawn: the number
of minimal closed even walks, which drives walk-search cost, is the same
for every seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# Connected non-bipartite graphs on vertices 0..5 with 8 edges, one per
# isomorphism class; each string lists the edges as digit pairs.
NON_BIPARTITE_CLASSES = (
    "0102030405121323", "0102030412132335", "0102121314232425", "0104121314152334",
    "0104121314233445", "0102041213152325", "0104051213142334", "0102030413152325",
    "0212142325343545", "0102030512132345", "0102041315232535", "0405131423243445",
    "0102040512232534", "0105122324253445", "0102051213143445", "0103040512232534",
    "0405121314232445", "0104121523343545", "0105121523243445", "0104051215232534",
)

# Connected bipartite graphs with parts {0,1,2} and {0,1,2,3} and 9 edges, one
# per isomorphism class; each pair is (part-one vertex, part-two vertex).
BIPARTITE_CLASSES = (
    "001001112102120313", "002001021121122223", "000203102011122122",
    "000102201121132223", "000203101113212223",
)
BIPARTITE_COPIES = 4


@dataclass(frozen=True)
class GeneratedGraph:
    name: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    bipartite: bool

    def to_json(self) -> str:
        """The program's JSON graph format, edges named e1..em in declaration order."""
        doc = {
            "vertices": list(self.vertices),
            "edges": [{"name": f"e{k}", "ends": list(ends)} for k, ends in enumerate(self.edges, 1)],
        }
        return json.dumps(doc, indent=2)


def is_bipartite(vertices, edges) -> bool:
    """True if BFS 2-colours the connected graph without a conflict."""
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = {vertices[0]: 0}
    queue = [vertices[0]]
    for u in queue:
        for w in adj[u]:
            if w not in colour:
                colour[w] = 1 - colour[u]
                queue.append(w)
            elif colour[w] == colour[u]:
                return False
    return True


def _pairs(code: str) -> list[tuple[int, int]]:
    return [(int(code[k]), int(code[k + 1])) for k in range(0, len(code), 2)]


def _relabel(rng: random.Random, name: str, vertices, class_edges) -> GeneratedGraph:
    """A random labelling, edge order and orientation of one class representative."""
    shuffled = list(vertices)
    rng.shuffle(shuffled)
    label = dict(zip(vertices, shuffled))
    edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
             for u, v in class_edges]
    rng.shuffle(edges)
    return GeneratedGraph(name, tuple(vertices), tuple(edges), is_bipartite(vertices, edges))


def generate_graphs(seed: int) -> list[GeneratedGraph]:
    """The 40 workload graphs, alternating non-bipartite and bipartite; same seed, same graphs."""
    rng = random.Random(seed)
    general = tuple(f"v{i}" for i in range(1, 7))
    left = tuple(f"u{i}" for i in range(1, 4))
    right = tuple(f"w{i}" for i in range(1, 5))
    non_bipartite = [[(general[a], general[b]) for a, b in _pairs(code)]
                     for code in NON_BIPARTITE_CLASSES]
    bipartite = [[(left[a], right[b]) for a, b in _pairs(code)]
                 for code in BIPARTITE_CLASSES for _ in range(BIPARTITE_COPIES)]
    rng.shuffle(non_bipartite)
    rng.shuffle(bipartite)
    graphs = []
    for k, (nb, bp) in enumerate(zip(non_bipartite, bipartite)):
        graphs.append(_relabel(rng, f"g{2 * k:02d}", general, nb))
        graphs.append(_relabel(rng, f"g{2 * k + 1:02d}", left + right, bp))
    return graphs


def write_graphs(graphs, directory: str) -> list[str]:
    """Write each graph as `<name>.json` under `directory`; return the paths."""
    paths = []
    for g in graphs:
        path = os.path.join(directory, f"{g.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(g.to_json())
        paths.append(path)
    return paths
