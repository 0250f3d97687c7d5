"""Closed-form homological invariants of the graph families and the
enumeration/linear-algebra oracles that cross-check them.

All polynomial arithmetic is over exact integers; (1-t) factors are removed
by synthetic division which asserts a zero remainder.  The Hilbert oracle
packs each vertex image into one int and counts sumsets of images, adding
each edge only to images built from lower edges, one slice of one vertex's
exponent at a time.  The generator oracle reads the walk search: at
primitive walks' vertex images lie all minimal generators of the toric
ideal, so it lists the fiber of the edge map, as exact edge monomials, at
each such image.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import DEFAULT_BUDGET, BudgetError, ConsistencyError, DomainError
from .graphs import FamilyTag, SimpleGraph
from .grobner import Monomial
from .linalg import rational_rank
from .quotients import BettiTable


@dataclass(frozen=True)
class HilbertSeries:
    """Q(t) / (1-t)^denom_power with integer numerator coefficients.

    In lowest terms the numerator is the h-vector.
    """

    numerator: tuple[int, ...]
    denom_power: int

    def __post_init__(self):
        if self.denom_power < 0:
            raise DomainError("denominator power must be non-negative")
        trimmed = _trim(self.numerator)
        if not trimmed:
            raise DomainError("numerator must be nonzero")
        object.__setattr__(self, "numerator", tuple(trimmed))

    def lowest_terms(self) -> HilbertSeries:
        num = list(self.numerator)
        power = self.denom_power
        while power > 0 and sum(num) == 0:
            num = _divide_by_one_minus_t(num)
            power -= 1
        if sum(num) == 0:
            raise ConsistencyError(
                "numerator retains (1-t) factors beyond the denominator power"
            )
        return HilbertSeries(tuple(num), power)

    def expand(self, max_deg: int) -> list[int]:
        """Series coefficients dim_0, ..., dim_{max_deg}."""
        D = self.denom_power
        out = []
        for n in range(max_deg + 1):
            if D == 0:
                out.append(self.numerator[n] if n < len(self.numerator) else 0)
            else:
                total = 0
                for k, c in enumerate(self.numerator):
                    if k <= n:
                        total += c * comb(n - k + D - 1, D - 1)
                out.append(total)
        return out

    def __str__(self):
        parts = []
        for k, c in enumerate(self.numerator):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                coeff = "" if mag == 1 else f"{mag}*"
                body = f"{coeff}t" if k == 1 else f"{coeff}t^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return f"({' '.join(parts)}) / (1-t)^{self.denom_power}"

    @property
    def unimodal(self) -> bool:
        """Whether the numerator rises to a peak, then falls."""
        h = self.numerator
        k = 0
        while k + 1 < len(h) and h[k + 1] >= h[k]:
            k += 1
        while k + 1 < len(h) and h[k + 1] <= h[k]:
            k += 1
        return k == len(h) - 1


def _trim(coeffs) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _divide_by_one_minus_t(coeffs: list[int]) -> list[int]:
    """Exact synthetic division by (1-t); the remainder is the value at t=1."""
    acc = 0
    prefix = []
    for c in coeffs:
        acc += c
        prefix.append(acc)
    if prefix[-1] != 0:
        raise ConsistencyError("nonzero remainder while cancelling a (1-t) factor")
    return _trim(prefix[:-1])


def betti_formula_grd(r: int, d: int) -> BettiTable:
    """Closed-form graded Betti numbers shared by the family's toric ideal and
    its initial ideal: a degree-2 strand and a degree-r strand."""
    if r < 3 or d < 2:
        raise DomainError(f"family requires r >= 3 and d >= 2, got r={r}, d={d}")
    table = betti_formula_k2d(d)
    for i in range(d):
        table.add(i, i + r, d * comb(d - 1, i))
    return table


def betti_formula_k2d(d: int) -> BettiTable:
    """Closed-form Betti numbers of the toric ideal of K_{2,d}: one linear strand."""
    if d < 2:
        raise DomainError(f"complete bipartite family requires d >= 2, got d={d}")
    table = BettiTable()
    for i in range(d - 1):
        table.add(i, i + 2, (i + 1) * comb(d, i + 2))
    return table


def hilbert_formula_grd(r: int, d: int) -> HilbertSeries:
    """(1 + d*t + ... + d*t^{r-1}) / (1-t)^{d+2r-2}, already in lowest terms."""
    if r < 3 or d < 2:
        raise DomainError(f"family requires r >= 3 and d >= 2, got r={r}, d={d}")
    return HilbertSeries((1,) + (d,) * (r - 1), d + 2 * r - 2)


@dataclass(frozen=True)
class FamilyInvariants:
    """The paper's closed forms for one family member, stored as data.

    The Hilbert series is in lowest terms, so its numerator is the h-vector;
    n_sequence is the colon-ideal sizes of in(I_G) in ascending grevlex order;
    bound_name names the proven primitive-walk length bound.
    """

    label: str
    betti: BettiTable
    hilbert: HilbertSeries
    n_sequence: tuple[int, ...]
    reg: int
    pdim: int
    dim: int
    bound_name: str


def family_invariants(family: FamilyTag) -> FamilyInvariants:
    """Closed forms of G(r,d), or of K_{2,d} when family.r is None."""
    r, d = family.r, family.d
    quadric_n = tuple(k for k in range(d - 1) for _ in range(k + 1))
    if r is None:
        return FamilyInvariants(
            label=f"K(2,{d})", betti=betti_formula_k2d(d),
            hilbert=HilbertSeries((1, d - 1), d + 1), n_sequence=quadric_n,
            reg=2, pdim=d - 2, dim=d + 1, bound_name="K_{2,d} bound",
        )
    return FamilyInvariants(
        label=f"G(r={r},d={d})", betti=betti_formula_grd(r, d),
        hilbert=hilbert_formula_grd(r, d), n_sequence=quadric_n + (d - 1,) * d,
        reg=r, pdim=d - 1, dim=d + 2 * r - 2, bound_name="G(r,d) bound 2r =",
    )


def quotient_numerator_from_betti(betti: BettiTable) -> list[int]:
    """Alternating-sum numerator of the quotient ring's Hilbert series, over
    (1-t)^(number of variables), from the ideal's Betti table.

    The quotient's table is the ideal's shifted one homological step with a
    single extra unit in position (0,0), so the ideal's rows enter with sign
    (-1)^(i+1).
    """
    top = max((j for (_, j) in betti.entries), default=0)
    coeffs = [0] * (top + 1)
    coeffs[0] = 1
    for (i, j), b in betti.entries.items():
        coeffs[j] += (-b if i % 2 == 0 else b)
    return _trim(coeffs)


def hilbert_from_betti(betti: BettiTable, num_vars: int) -> HilbertSeries:
    """Hilbert series of the quotient ring from the ideal's Betti table, in
    lowest terms."""
    coeffs = quotient_numerator_from_betti(betti)
    if not coeffs:
        raise ConsistencyError("Betti table yields an identically zero numerator")
    return HilbertSeries(tuple(coeffs), num_vars).lowest_terms()


def _packed_images(graph: SimpleGraph, max_deg: int, budget: int) -> list[int]:
    """Each edge's vertex image as one int, after refusing, before enumerating
    anything, if some degree <= max_deg has more than `budget` monomials.  A
    field per vertex holds max_deg, the largest exponent a vertex reaches in
    a loop-free graph, so packed images add as vectors and equal images have
    equal ints up to that degree."""
    q = len(graph.edges)
    for deg in range(1, max_deg + 1):
        if comb(q + deg - 1, deg) > budget:
            raise BudgetError(f"degree {deg} needs {comb(q + deg - 1, deg)} monomials, "
                              f"over the budget {budget}")
    width = max_deg.bit_length()
    return [sum(x << (v * width) for v, x in enumerate(graph.edge_vertex_exponents(e)))
            for e in range(q)]


def hilbert_enumeration_oracle(
    graph: SimpleGraph, max_deg: int, budget: int = DEFAULT_BUDGET
) -> list[int]:
    """Graded dimensions of the edge subring, counted by brute force.

    Degree k of the quotient by the toric ideal is spanned by the distinct
    vertex images of degree-k edge monomials under e -> (product of its
    endpoints), so counting distinct images gives the dimension exactly.
    The images of degree k are the sumset D_k = D_{k-1} + D_1, built with
    the largest edge last: a degree-k monomial whose largest edge is e has
    the image of a degree-(k-1) monomial in edges <= e plus e's image.  So
    each image of D_{k-1} is kept in the bucket of the first edge whose scan
    produced it, and edge e adds its image only to the buckets <= e.  Each
    degree is built one value of one vertex's field at a time (the vertex
    with the most edges): images that differ there are distinct, so the
    slices' counts add up and the largest set held is one slice's.  The top
    degree, the largest, is only counted, never kept.
    """
    ones = _packed_images(graph, max_deg, budget)
    width = max_deg.bit_length()
    hits = [sum(y >> (v * width) & 1 for y in ones) for v in range(len(graph.vertices))]
    shift = width * max(range(len(hits)), key=hits.__getitem__, default=0)
    # lower[e][c]: last degree's images first produced at edge e whose field
    # reads c; only the top degree reaches max_deg, so lower[e][-1] is empty
    lower = [[[0] if e == c == 0 else [] for c in range(max_deg + 1)] for e in range(len(ones))]
    dims = [1]
    for k in range(1, max_deg + 1):
        upper = [[[] for _ in range(max_deg + 1)] for _ in ones]
        dims.append(0)
        for c in range(k + 1):
            # slice c: edges at the vertex add 1 to its field, the others 0
            at, off, seen = [], [], set()
            for y, by_value, out in zip(ones, lower, upper):
                at += by_value[c - 1]
                off += by_value[c]
                sums = map(y.__add__, at if y >> shift & 1 else off)
                if k < max_deg:
                    sums = out[c] = [s for s in sums if s not in seen]
                seen.update(sums)
            dims[-1] += len(seen)
        lower = upper
    return dims


def _fiber(ends, image, budget: int) -> list[Monomial]:
    """The edge monomials with vertex image `image`; `image` must be the
    nonzero image of some edge monomial, so that each vertex it uses has an
    edge inside its support.  Backtracking picks the exponent of each such
    edge in turn, from one iterator per edge on an explicit stack (a support
    can have more edges than Python's recursion limit), and a vertex must be
    used up by its last edge.  More than `budget` steps raise BudgetError."""
    need = list(image)
    edges = [(e, u, v) for e, (u, v) in enumerate(ends) if need[u] and need[v]]
    last = {x: i for i, (_, u, v) in enumerate(edges) for x in (u, v)}
    exps = [0] * len(ends)
    members: list[Monomial] = []
    steps = 0
    _, u, v = edges[0]
    stack = [iter(range(min(need[u], need[v]) + 1))]
    while stack:
        i = len(stack) - 1
        e, u, v = edges[i]
        need[u] += exps[e]  # take back the exponent last tried at this edge
        need[v] += exps[e]
        k = exps[e] = next(stack[-1], -1)
        if k < 0:
            exps[e] = 0
            stack.pop()
            continue
        steps += 1
        if steps > budget:
            raise BudgetError(f"a fiber of degree {sum(image) // 2} exceeded the step budget of {budget}")
        need[u] -= k
        need[v] -= k
        if last[u] == i and need[u] or last[v] == i and need[v]:
            continue
        if i + 1 == len(edges):
            members.append(Monomial(exps))
        else:
            _, u, v = edges[i + 1]
            stack.append(iter(range(min(need[u], need[v]) + 1)))
    return members


def minimal_generators_oracle(graph: SimpleGraph, max_deg: int, walks,
                              budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Minimal generator counts of the toric ideal per degree, 2..max_deg,
    from `walks` of graph, which must include every primitive walk of length
    <= 2*max_deg; longer walks are skipped.  The fiber at each distinct
    vertex image of the walks is listed in ascending image order, each
    capped at `budget` backtracking steps.

    A fiber is the set of edge monomials with one vertex image b.  The ideal
    has c - 1 minimal generators in degree b, c being the fiber's components
    when members that share a variable are joined: if x_e divides u and u',
    then u - u' = x_e (u/x_e - u'/x_e) comes from lower degrees.  Every
    minimal binomial generator is primitive, since the universal Markov
    basis lies in the Graver basis (Charalambous-Katsabekis-Thoma, Proc. AMS
    2007), so every b that carries one is the image of a primitive walk
    (Villarreal, Comm. Algebra 1995; Ohsugi-Hibi, J. Algebra 1999).
    """
    if max_deg < 2:
        raise DomainError("max_deg must be at least 2")
    ends = [tuple(graph.vertex_index[x] for x in e.ends) for e in graph.edges]
    images = sorted({tuple(map(w.vertices[1:].count, graph.vertices))
                     for w in walks if len(w.edge_names) <= 2 * max_deg})
    out = dict.fromkeys(range(2, max_deg + 1), 0)
    for image in images:
        components: list[int] = []  # disjoint unions of the members' supports
        for m in _fiber(ends, image, budget):
            s = m.support
            rest = []
            for c in components:
                if c & s:
                    s |= c
                else:
                    rest.append(c)
            rest.append(s)
            components = rest
        out[sum(image) // 2] += len(components) - 1
    return out


def krull_dim(graph: SimpleGraph) -> int:
    """Krull dimension of the edge subring: the rational rank of the
    exponent matrix of the edge map, one row per edge."""
    return rational_rank(graph.edge_vertex_exponents(e) for e in range(len(graph.edges)))


def reg_pdim(betti: BettiTable) -> tuple[int, int] | None:
    """(reg, pdim) read off a complete Betti table.

    Returns None for the empty table (the zero ideal has neither defined).
    """
    if betti.is_empty():
        return None
    return max(j - i for (i, j) in betti.entries), max(i for (i, _) in betti.entries)


def lower_bounds_from_induced(components) -> tuple[int, int]:
    """Regularity / projective-dimension lower bounds for a toric ideal whose
    graph contains disjoint induced family members with the given parameters."""
    comps = list(components)
    if not comps:
        raise DomainError("at least one induced component is required")
    for r, d in comps:
        if r < 3 or d < 2:
            raise DomainError(f"components need r >= 3 and d >= 2, got (r={r}, d={d})")
    s = len(comps)
    reg_lb = sum(r for r, _ in comps) - s + 1
    pdim_lb = sum(d for _, d in comps) - 1
    return (reg_lb, pdim_lb)
