"""Exact monomial arithmetic, graded reverse lex orders, and a Buchberger
engine specialized to pure-difference binomials.

Everything here is coefficient-free by construction: toric input keeps
S-polynomials and remainders in pure-difference form (one +1 term, one -1
term), so a binomial is just an ordered pair of monomials and "zero" is
represented by None.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress
from operator import add, le, sub

from .errors import BudgetError, DomainError
from .graphs import SimpleGraph

# 1 << i at index i; Monomial extends it to the longest exponent vector seen.
_BITS = [1 << i for i in range(64)]


class Monomial:
    """Immutable dense exponent vector over a fixed variable universe.

    `degree` (the exponent sum) and `support` (the bitmask of the variables
    with a nonzero exponent) are computed once, at construction, and held in
    slots beside the exponents.
    """

    __slots__ = ("exps", "degree", "support")

    def __init__(self, exps):
        self.exps = exps = tuple(exps)
        self.degree = sum(exps)
        if len(exps) > len(_BITS):
            _BITS.extend(1 << i for i in range(len(_BITS), len(exps)))
        self.support = sum(compress(_BITS, exps))

    @classmethod
    def from_variables(cls, nvars: int, positions) -> Monomial:
        """Product of the variables at the given positions (with multiplicity)."""
        exps = [0] * nvars
        for p in positions:
            exps[p] += 1
        return cls(exps)

    def __mul__(self, other: Monomial) -> Monomial:
        return Monomial(map(add, self.exps, other.exps))

    def divides(self, other: Monomial) -> bool:
        return not self.support & ~other.support and all(map(le, self.exps, other.exps))

    def __truediv__(self, other: Monomial) -> Monomial:
        exps = tuple(map(sub, self.exps, other.exps))
        if min(exps, default=0) < 0:
            raise DomainError("inexact monomial division")
        return Monomial(exps)

    def lcm(self, other: Monomial) -> Monomial:
        return Monomial(map(max, self.exps, other.exps))

    def gcd_is_one(self, other: Monomial) -> bool:
        return not self.support & other.support

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Monomial{self.exps}"


def format_monomial(m: Monomial, names) -> str:
    parts = []
    for name, e in zip(names, m.exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class Binomial:
    """Pure-difference binomial lhs - rhs (implicit coefficients +1, -1)."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Monomial, rhs: Monomial):
        self.lhs = lhs
        self.rhs = rhs

    @property
    def degree(self) -> int:
        return self.lhs.degree

    def is_zero(self) -> bool:
        return self.lhs == self.rhs

    def is_homogeneous(self) -> bool:
        return self.lhs.degree == self.rhs.degree

    def __neg__(self) -> Binomial:
        return Binomial(self.rhs, self.lhs)

    def same_up_to_sign(self, other: Binomial) -> bool:
        return (self.lhs == other.lhs and self.rhs == other.rhs) or (
            self.lhs == other.rhs and self.rhs == other.lhs
        )

    def __eq__(self, other):
        return isinstance(other, Binomial) and self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self):
        return hash((self.lhs, self.rhs))

    def __repr__(self):
        return f"Binomial({self.lhs!r} - {self.rhs!r})"


def format_binomial(f: Binomial, names) -> str:
    return f"{format_monomial(f.lhs, names)} - {format_monomial(f.rhs, names)}"


class GrevlexOrder:
    """Graded reverse lex with an explicit variable priority.

    Degrees compare first.  Ties are broken by scanning exponents from the
    LOWEST-priority variable upward; at the first position where they differ,
    the monomial with the LARGER exponent is the SMALLER monomial.

    `names` fixes the storage positions of the variables (exponent slots);
    `priority` lists the same names from highest to lowest priority and
    defaults to `names`.
    """

    def __init__(self, names, priority=None):
        self.names = list(names)
        priority = self.names if priority is None else list(priority)
        if sorted(priority) != sorted(self.names):
            raise DomainError("order priority must be a permutation of the variable names")
        pos = {n: i for i, n in enumerate(self.names)}
        self._scan = tuple(pos[n] for n in reversed(priority))

    @property
    def nvars(self) -> int:
        return len(self.names)

    def compare(self, u: Monomial, v: Monomial) -> int:
        """-1 if u < v, 0 if equal, 1 if u > v."""
        du, dv = u.degree, v.degree
        if du != dv:
            return -1 if du < dv else 1
        ue, ve = u.exps, v.exps
        for i in self._scan:
            a, b = ue[i], ve[i]
            if a != b:
                return 1 if a < b else -1
        return 0

    def key(self, m: Monomial):
        """Sort key; ascending key order is ascending monomial order."""
        return (m.degree, tuple(-m.exps[i] for i in self._scan))

    def normalize(self, f: Binomial) -> Binomial | None:
        """Leading monomial first; None for the zero binomial."""
        c = self.compare(f.lhs, f.rhs)
        if c == 0:
            return None
        return f if c > 0 else -f


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal held by its unique minimal generating set.

    The generators keep the order they are given in; the public constructor
    rejects a set that is not minimal.
    """

    min_gens: tuple[Monomial, ...]

    def __post_init__(self):
        gens = self.min_gens
        for i, g in enumerate(gens):
            for j, h in enumerate(gens):
                if i != j and g.divides(h):
                    raise DomainError("generating set is not minimal")

    @classmethod
    def from_generators(cls, gens, order: GrevlexOrder) -> MonomialIdeal:
        """The ideal of gens, its minimal generators stored ascending under the order."""
        return cls._from_minimal(sorted(minimalize_monomials(gens), key=order.key))

    @classmethod
    def _from_minimal(cls, gens) -> MonomialIdeal:
        """Wrap a generating set already known to be minimal, skipping the O(n^2) check."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "min_gens", tuple(gens))
        return ideal

    def __len__(self):
        return len(self.min_gens)


def minimalize_monomials(gens) -> list[Monomial]:
    """Drop duplicates and any generator divisible by another."""
    kept: list[Monomial] = []
    for g in sorted(set(gens), key=lambda m: (m.degree, m.exps)):
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    return kept


def s_binomial(f: Binomial, g: Binomial, order: GrevlexOrder) -> Binomial | None:
    """S-polynomial of two pure-difference binomials; None if it is zero."""
    f = order.normalize(f)
    g = order.normalize(g)
    if f is None or g is None:
        return None
    big = f.lhs.lcm(g.lhs)
    a = (big / f.lhs) * f.rhs
    b = (big / g.lhs) * g.rhs
    if a == b:
        return None
    # S(f,g) = (big/lt f)*f - (big/lt g)*g = b - a
    return order.normalize(Binomial(b, a))


def reduce(f: Binomial, basis, order: GrevlexOrder) -> Binomial | None:
    """Full division remainder of f modulo the basis; None if f reduces to zero.

    Deterministic: each step divides by the first basis element (in list
    order) whose leading term divides the monomial under reduction.  Both
    monomials of the remainder are irreducible.  A basis element is
    normalized only when one of its sides divides that monomial; zero
    binomials never divide.
    """

    def divisor(m):
        outside = ~m.support
        for g in basis:
            if g.lhs.support & outside and g.rhs.support & outside:
                continue
            if g.lhs.divides(m) or g.rhs.divides(m):
                g = order.normalize(g)
                if g is not None and g.lhs.divides(m):
                    return g
        return None

    cur = order.normalize(f)
    if cur is None:
        return None
    while True:
        g = divisor(cur.lhs)
        if g is not None:
            hit = (cur.lhs / g.lhs) * g.rhs
            if hit == cur.rhs:
                return None
            cur = order.normalize(Binomial(hit, cur.rhs))
            continue
        g = divisor(cur.rhs)
        if g is None:
            return cur
        hit = (cur.rhs / g.lhs) * g.rhs
        if hit == cur.lhs:
            return None
        cur = order.normalize(Binomial(cur.lhs, hit))


def buchberger(generators, order: GrevlexOrder, max_pairs: int = 200_000) -> list[Binomial]:
    """Reduced Groebner basis of the binomial ideal under the given order.

    Normal selection strategy (minimal lcm degree first) with the coprimality
    and chain criteria.  A pair with coprime leading terms is treated as
    soon as it is formed: it never enters the queue, but it still counts
    against max_pairs.  Raises BudgetError if more than max_pairs S-pairs are
    formed coprime or processed.  Output is interreduced, sign-normalized
    (leading monomial in lhs), and sorted ascending by (degree, leading term,
    trailing term).
    """
    basis: list[Binomial] = []
    for f in generators:
        if not f.is_homogeneous():
            raise DomainError("buchberger requires homogeneous binomial input")
        basis.append(order.normalize(f))
    # Two normalized binomials equal up to sign are equal: keep the first of each.
    basis = [g for g in dict.fromkeys(basis) if g is not None]

    leads = [g.lhs.support for g in basis]  # lead supports, parallel to basis
    queue: list[tuple] = []
    treated: set[tuple[int, int]] = set()
    processed = 0

    def add_pairs(j):
        nonlocal processed
        lj = basis[j].lhs
        for i in range(j):
            li = basis[i].lhs
            if li.gcd_is_one(lj):
                treated.add((i, j))
                processed += 1
            else:
                big = li.lcm(lj)
                heapq.heappush(queue, (big.degree, order.key(big), i, j, big))
        if processed > max_pairs:
            raise BudgetError(f"buchberger exceeded the pair budget of {max_pairs}")

    for j in range(len(basis)):
        add_pairs(j)
    while queue:
        _, _, i, j, big = heapq.heappop(queue)
        processed += 1
        if processed > max_pairs:
            raise BudgetError(f"buchberger exceeded the pair budget of {max_pairs}")
        # Chain criterion: skip if some k has lt_k | lcm and both flanking
        # pairs were already treated.
        skip = False
        outside = ~big.support
        for k, lead in enumerate(leads):
            if lead & outside or k == i or k == j:
                continue
            if basis[k].lhs.divides(big):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in treated and pjk in treated:
                    skip = True
                    break
        treated.add((i, j))
        if skip:
            continue
        s = s_binomial(basis[i], basis[j], order)
        if s is None:
            continue
        r = reduce(s, basis, order)
        if r is None:
            continue
        basis.append(r)
        leads.append(r.lhs.support)
        add_pairs(len(basis) - 1)

    # Minimalize: keep only elements whose leading term no other kept leading
    # term divides, scanning in ascending leading-term order.
    basis.sort(key=lambda g: (order.key(g.lhs), order.key(g.rhs)))
    minimal: list[Binomial] = []
    for g in basis:
        if not any(h.lhs.divides(g.lhs) for h in minimal):
            minimal.append(g)
    # Tail-reduce each element against the others.
    reduced: list[Binomial] = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = reduce(g, others, order) if others else g
        if r is not None:
            reduced.append(r)
    reduced.sort(key=lambda g: (g.degree, order.key(g.lhs), order.key(g.rhs)))
    return reduced


def initial_ideal(gb, order: GrevlexOrder) -> MonomialIdeal:
    """The ideal of leading terms of a Groebner basis, its minimal generators
    stored ascending under the order."""
    leads = []
    for g in gb:
        n = order.normalize(g)
        if n is not None:
            leads.append(n.lhs)
    return MonomialIdeal.from_generators(leads, order)


def default_order(graph: SimpleGraph, priority=None) -> GrevlexOrder:
    """Grevlex on the edge variables, for every graph alike.

    The priority is the edges' declaration order unless one is supplied;
    a graph read from a file gets the same order as the one built in.
    """
    return GrevlexOrder(graph.edge_names, priority)
