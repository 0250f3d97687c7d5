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
from functools import reduce as _fold
from itertools import chain, compress
from operator import add, le, neg, not_, or_, sub

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

    def lcm(self, other: Monomial) -> Monomial:
        return Monomial(map(max, self.exps, other.exps))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Monomial{self.exps}"


def format_monomial(m: Monomial, names) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in compress(zip(names, m.exps), m.exps)) or "1"


class Binomial:
    """Pure-difference binomial lhs - rhs (implicit coefficients +1, -1)."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Monomial, rhs: Monomial):
        self.lhs = lhs
        self.rhs = rhs

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
        self._rank = tuple(sorted(range(len(self._scan)), key=self._scan.__getitem__))

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
        """Sort key, ascending with the order: the degree, then the (scan rank,
        -exponent) pairs of the support by rank, flattened into one int tuple;
        at equal degree no key is a strict prefix of another."""
        pairs = sorted(zip(compress(self._rank, m.exps), map(neg, filter(None, m.exps))))
        return (m.degree, tuple(chain.from_iterable(pairs)))

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


def _swap(m: Monomial, old: Monomial, new: Monomial) -> Monomial:
    """m / old * new in one step; old must divide m."""
    return Monomial(map(add, map(sub, m.exps, old.exps), new.exps))


def _positions(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Leads:
    """Lead index: a basis's normalized, nonzero binomials in list order.
    Bit k stands for `basis[k]`, so the lowest set bit is the first in list
    order; `holders[v]` masks the positions whose leading term uses variable
    v."""

    __slots__ = ("basis", "holders")

    def __init__(self, basis, order: GrevlexOrder):
        self.basis: list[Binomial] = []
        self.holders = [0] * order.nvars
        for g in map(order.normalize, basis):
            if g is not None:
                self.append(g)

    def append(self, g: Binomial) -> None:
        bit = 1 << len(self.basis)
        self.basis.append(g)
        for v in compress(range(len(self.holders)), g.lhs.exps):
            self.holders[v] |= bit

    def inside(self, m: Monomial) -> int:
        """The positions whose leading term uses only variables of m."""
        return ~_fold(or_, compress(self.holders, map(not_, m.exps)), 0) & ((1 << len(self.basis)) - 1)

    def divisor(self, m: Monomial) -> Binomial | None:
        """The first element in list order whose leading term divides m."""
        return next((g for g in map(self.basis.__getitem__, _positions(self.inside(m)))
                     if g.lhs.divides(m)), None)


def s_binomial(f: Binomial, g: Binomial, order: GrevlexOrder, big: Monomial) -> Binomial | None:
    """S-polynomial of two normalized pure-difference binomials whose leads have lcm `big`; None if zero."""
    a = _swap(big, f.lhs, f.rhs)
    b = _swap(big, g.lhs, g.rhs)
    if a == b:
        return None
    # S(f,g) = (big/lt f)*f - (big/lt g)*g = b - a
    return order.normalize(Binomial(b, a))


def reduce(f: Binomial, basis, order: GrevlexOrder) -> Binomial | None:
    """Full division remainder of f modulo the basis; None if f reduces to zero.

    Deterministic: each step divides by the first basis element (in list
    order) whose leading term divides the monomial under reduction.  Both
    monomials of the remainder are irreducible.  The basis may list
    elements tail-first and may hold zero binomials: each call normalizes
    it once into a lead index, which drops the zero binomials and finds
    the first divisor in list order as the lowest set bit of a bitmask.
    """
    divisor = (basis if isinstance(basis, _Leads) else _Leads(basis, order)).divisor
    cur = order.normalize(f)
    if cur is None:
        return None
    while True:
        g = divisor(cur.lhs)
        if g is not None:
            hit = _swap(cur.lhs, g.lhs, g.rhs)
            if hit == cur.rhs:
                return None
            cur = order.normalize(Binomial(hit, cur.rhs))
            continue
        g = divisor(cur.rhs)
        if g is None:
            return cur
        hit = _swap(cur.rhs, g.lhs, g.rhs)
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

    The basis sits in a lead index: a new element's coprime pairs are the
    earlier positions outside its variables' holders, and the chain
    criterion and each reduction step visit only the positions whose
    leading term lies inside the monomial at hand.  `reduced_basis`
    interreduces the final basis.
    """
    basis: list[Binomial] = []
    for f in generators:
        if not f.is_homogeneous():
            raise DomainError("buchberger requires homogeneous binomial input")
        basis.append(order.normalize(f))
    # Two normalized binomials equal up to sign are equal: keep the first of each.
    index = _Leads([g for g in dict.fromkeys(basis) if g is not None], order)
    basis = index.basis
    queue: list[tuple] = []
    below: list[int] = []  # below[j]: the positions i < j whose pair (i, j) is treated
    processed = 0

    def treated(i, k):
        return below[max(i, k)] >> min(i, k) & 1

    def add_pairs(j):
        nonlocal processed
        lj = basis[j].lhs
        earlier = (1 << j) - 1
        shared = _fold(or_, compress(index.holders, lj.exps), 0) & earlier
        below.append(earlier & ~shared)
        processed += j - shared.bit_count()
        if processed > max_pairs:
            raise BudgetError(f"buchberger exceeded the pair budget of {max_pairs}")
        for i in _positions(shared):
            big = basis[i].lhs.lcm(lj)
            heapq.heappush(queue, (big.degree, order.key(big), i, j, big))

    for j in range(len(basis)):
        add_pairs(j)
    while queue:
        _, _, i, j, big = heapq.heappop(queue)
        processed += 1
        if processed > max_pairs:
            raise BudgetError(f"buchberger exceeded the pair budget of {max_pairs}")
        # Chain criterion: skip if some k has lt_k | lcm and both flanking
        # pairs were already treated.
        skip = any(
            basis[k].lhs.divides(big) and treated(i, k) and treated(j, k)
            for k in _positions(index.inside(big) & ~(1 << i | 1 << j))
        )
        below[j] |= 1 << i
        if skip:
            continue
        s = s_binomial(basis[i], basis[j], order, big)
        if s is None:
            continue
        r = reduce(s, index, order)
        if r is None:
            continue
        index.append(r)
        add_pairs(len(basis) - 1)

    return reduced_basis(basis, order)


def reduced_basis(gb, order: GrevlexOrder) -> list[Binomial]:
    """The reduced Groebner basis of the ideal of the Groebner basis `gb`,
    sorted as `buchberger` sorts it, from one interreduction pass.

    The normalized input is sorted by (leading term, trailing term), and
    each element is reduced modulo the nonzero remainders kept so far.
    Each lead met lies in the kept leads' ideal, so one that a kept lead
    divides, a repeated element's included, reduces to zero: its
    remainder's lead would be smaller and in in(gb), so divisible by an
    earlier lead, so by a kept lead.  A kept element keeps its lead, and
    only a smaller lead can divide its tail, so the output is reduced.
    """
    index = _Leads((), order)
    normalized = (g for g in map(order.normalize, gb) if g is not None)
    for g in sorted(normalized, key=lambda g: (order.key(g.lhs), order.key(g.rhs))):
        r = reduce(g, index, order)
        if r is not None:
            index.append(r)
    return index.basis


def initial_ideal(gb) -> MonomialIdeal:
    """The ideal of leading terms of a Groebner basis, its minimal generators
    stored in the basis's order.

    Precondition: `gb` is a reduced Groebner basis, each lead first and in
    ascending order, as `reduced_basis` (and `buchberger`, which ends with
    it) returns it: it sorts by lead, and each element it keeps keeps its
    lead.  So the leads are the minimal generators, already sorted.
    """
    return MonomialIdeal._from_minimal(g.lhs for g in gb)


def default_order(graph: SimpleGraph, priority=None) -> GrevlexOrder:
    """Grevlex on the edge variables, for every graph alike.

    The priority is the edges' declaration order unless one is supplied;
    a graph read from a file gets the same order as the one built in.
    """
    return GrevlexOrder(graph.edge_names, priority)
