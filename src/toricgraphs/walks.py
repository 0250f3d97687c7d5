"""Closed even walks, primitivity testing, and walk enumeration.

A closed even walk W of length 2s yields the pure-difference binomial whose
lhs multiplies the edges at odd positions 1, 3, ..., 2s-1 and whose rhs
multiplies the even positions.  The binomials of primitive walks form a
Groebner basis of the graph's toric ideal under every monomial order, which
is what the rest of the package cross-checks.  The search yields minimal
walks only (no edge twice in a row), and the primitive filter tests the
binomial that it builds once per walk.

Walks are considered up to circular permutation and reversal; the canonical
representative of a class is the lexicographically least rotation/reflection
of its edge-name sequence.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import not_, or_

from .errors import DEFAULT_BUDGET, BudgetError, DomainError
from .graphs import SimpleGraph
from .grobner import Binomial, Monomial, _positions


def canonical_edge_names(edge_names: tuple[str, ...]) -> tuple[str, ...]:
    """The lexicographically least rotation or reflection of a closed walk."""
    n = len(edge_names)
    return min(seq[k:] + seq[:k] for seq in (edge_names, edge_names[::-1]) for k in range(n))


class ClosedEvenWalk:
    """A closed walk of even length, stored with its traversal vertex sequence
    from the end of the first edge where it closes.  Only one end does unless
    every edge is that edge; both then give the same image and binomial."""

    def __init__(self, graph: SimpleGraph, edge_names):
        self.graph = graph
        self.edge_names = tuple(edge_names)
        if len(self.edge_names) == 0 or len(self.edge_names) % 2 != 0:
            raise DomainError("a closed even walk needs a positive even number of edges")
        edges = [graph.edges[graph.edge_index[n]] for n in self.edge_names]
        for v0 in edges[0].ends:
            seq = [v0]
            for e in edges:
                if seq[-1] not in e.ends:
                    error = f"edge {e.name!r} does not continue the walk at {seq[-1]!r}"
                    break
                seq.append(e.other(seq[-1]))
            else:
                if seq[-1] == seq[0]:
                    self.vertices = tuple(seq)
                    return
                error = "walk does not return to its starting vertex"
        raise DomainError(error)

    def __eq__(self, other):
        return isinstance(other, ClosedEvenWalk) and self.edge_names == other.edge_names

    def __hash__(self):
        return hash(self.edge_names)

    def __repr__(self):
        return f"ClosedEvenWalk({', '.join(self.edge_names)})"


def walk_to_binomial(walk: ClosedEvenWalk) -> Binomial:
    """The walk's binomial: odd-position edge product minus even-position product."""
    graph = walk.graph
    nvars = len(graph.edges)
    odd = [graph.edge_index[n] for n in walk.edge_names[0::2]]
    even = [graph.edge_index[n] for n in walk.edge_names[1::2]]
    return Binomial(
        Monomial.from_variables(nvars, odd),
        Monomial.from_variables(nvars, even),
    )


def is_primitive(f: Binomial, candidates) -> bool:
    """Whether the walk binomial f is nonzero and no other binomial in
    `candidates` divides it side by side.

    `candidates` must contain the binomial of every primitive walk of the
    graph up to the walk's length (a non-primitive binomial has a primitive
    side-by-side divisor of no greater degree); others may be present.  A
    non-minimal walk needs no test of its own: cutting out a step there and
    back on an edge e leaves a closed even walk whose binomial is f with e
    divided out of each side, so f is zero or has such a divisor.
    """
    if f.is_zero():
        return False
    for g in candidates:
        if g.is_zero() or g.same_up_to_sign(f):
            continue
        if g.lhs.divides(f.lhs) and g.rhs.divides(f.rhs):
            return False
        if g.lhs.divides(f.rhs) and g.rhs.divides(f.lhs):
            return False
    return True


def minimal_closed_even_walks(
    graph: SimpleGraph, max_len: int, node_budget: int = DEFAULT_BUDGET
) -> list[ClosedEvenWalk]:
    """Minimal closed even walks of length <= max_len, one per class, that
    revisit no vertex at even distance.

    Such a revisit splits a walk into two closed even walks, so the walk is
    not primitive; the result still holds every primitive walk up to
    max_len, which is all is_primitive needs.  On a bipartite graph it is
    exactly the even cycles.  The depth-first search, one frame per step on
    an explicit stack, never steps back along the edge it came in on, cuts a
    branch at such a revisit, and adds the walk's canonical form to a set on
    a step back to the start at even length.  The first edge carries the
    minimum edge position used anywhere in the walk, which rules out most
    rotated duplicates cheaply; the set removes the rest.  One
    ClosedEvenWalk is built per class at the end, in (length, canonical
    form) order.
    """
    if max_len < 4 or max_len % 2 != 0:
        raise DomainError("max_len must be an even integer >= 4")
    adj = graph.adjacency()
    found: set[tuple[str, ...]] = set()
    nodes = 0
    edge_names = graph.edge_names
    parity = dict.fromkeys(graph.vertices, 0)  # bit 1: on the path at an even step, 2: odd

    for first_pos, edge in enumerate(graph.edges):
        for start, cur in (edge.ends, edge.ends[::-1]):
            parity[start], parity[cur] = 1, 2
            seq, frames = [first_pos], [(cur, iter(adj[cur]))]  # (vertex after seq[i], its steps)
            while frames:
                for pos, nxt in frames[-1][1]:
                    if pos < first_pos or pos == seq[-1]:
                        continue
                    nodes += 1
                    if nodes > node_budget:
                        raise BudgetError(f"walk search exceeded the node budget of {node_budget}")
                    n = len(seq) + 1
                    bit = 1 << (n % 2)
                    if not parity[nxt] & bit:
                        if n < max_len:
                            parity[nxt] |= bit
                            seq.append(pos)
                            frames.append((nxt, iter(adj[nxt])))
                            break
                    elif nxt == start and n % 2 == 0:
                        found.add(canonical_edge_names(tuple(edge_names[p] for p in seq + [pos])))
                else:
                    parity[frames.pop()[0]] ^= 1 << (len(seq) % 2)
                    seq.pop()
            parity[start] = 0

    return [ClosedEvenWalk(graph, names) for names in sorted(found, key=lambda c: (len(c), c))]


def enumerate_primitive_walks(
    graph: SimpleGraph, max_len: int | None = None, node_budget: int = DEFAULT_BUDGET
) -> list[ClosedEvenWalk]:
    """One canonical representative per primitive walk class of length <= max_len.

    max_len defaults to the family length bound when the graph carries a
    family tag, and to 2*|E| otherwise (each edge appears at most twice in a
    primitive walk).  Output order: by length, then lexicographically by
    canonical edge-name sequence.
    """
    if max_len is None:
        max_len = default_max_len(graph)
    walks = minimal_closed_even_walks(graph, max_len, node_budget)
    # Even cycles are primitive in any graph, and on a bipartite one the search finds nothing else.
    if all(len(set(w.vertices)) == len(w.edge_names) for w in walks):
        return walks
    binomials = [walk_to_binomial(w) for w in walks]
    candidates = [f for f in binomials if not f.is_zero()]
    # holders[v]: the candidates whose lhs uses variable v; holders[|E| + v]: those whose rhs does.
    holders = [0] * (2 * len(graph.edges))
    for p, g in enumerate(candidates):
        for v in compress(range(len(holders)), g.lhs.exps + g.rhs.exps):
            holders[v] |= 1 << p
    live = (1 << len(candidates)) - 1

    def inside(a: Monomial, b: Monomial) -> int:
        """The candidates whose lhs uses only variables of a, and whose rhs only those of b."""
        return live & ~reduce(or_, compress(holders, map(not_, a.exps + b.exps)), 0)

    # Only a candidate inside the walk's sides, in either orientation, can divide them.
    return [w for w, f in zip(walks, binomials) if is_primitive(
        f, [candidates[p] for p in _positions(inside(f.lhs, f.rhs) | inside(f.rhs, f.lhs))])]


def family_primitive_walks(graph: SimpleGraph) -> list[ClosedEvenWalk]:
    """Closed-form primitive walks of a tagged family graph.

    The square walks (a_i, b_i, b_j, a_j) for i < j; for the path family also
    the long walks (a_i, e1, ..., e_{2r-2}, b_i) for each i, in that order.
    """
    fam = graph.family
    if fam is None:
        raise DomainError("closed-form walks exist only for family graphs")
    d = fam.d
    walks = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            walks.append(ClosedEvenWalk(graph, (f"a{i}", f"b{i}", f"b{j}", f"a{j}")))
    if fam.r is not None:
        path = tuple(f"e{k}" for k in range(1, 2 * fam.r - 1))
        for i in range(1, d + 1):
            walks.append(ClosedEvenWalk(graph, (f"a{i}",) + path + (f"b{i}",)))
    return walks


def family_initial_generators(graph: SimpleGraph) -> list[Monomial]:
    """Closed-form minimal generators of in(I_G) for a tagged family graph.

    The quadrics a_i*b_j for j < i; for the path family also
    a_i*e2*e4*...*e_{2r-2} for each i, in that order.
    """
    fam = graph.family
    if fam is None:
        raise DomainError("closed-form generators exist only for family graphs")
    idx = graph.edge_index
    nvars = len(graph.edges)
    gens = [Monomial.from_variables(nvars, [idx[f"a{i}"], idx[f"b{j}"]])
            for i in range(1, fam.d + 1) for j in range(1, i)]
    if fam.r is not None:
        evens = [idx[f"e{k}"] for k in range(2, 2 * fam.r - 1, 2)]
        gens += [Monomial.from_variables(nvars, [idx[f"a{i}"]] + evens)
                 for i in range(1, fam.d + 1)]
    return gens


def default_max_len(graph: SimpleGraph) -> int:
    """Primitive-walk length cap: the proven family bounds, or 2|E| in general."""
    if graph.family is not None:
        return 4 if graph.family.r is None else 2 * graph.family.r
    return max(4, 2 * len(graph.edges))
