"""Colon ideals of a monomial ideal's generators in their stored order,
linear-quotient detection, the Betti-number formula for linear quotients,
and an independent oracle for graded Betti numbers of monomial ideals: the
homology of Lyubeznik's subcomplex of the Taylor complex.

The profile walks `MonomialIdeal.min_gens` as stored: `initial_ideal` and
`MonomialIdeal.from_generators` store them ascending under their monomial
order, which is the order the paper's linear quotients use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from math import comb
from operator import or_

from .errors import BudgetError, DomainError
from .grobner import Monomial, MonomialIdeal, minimalize_monomials
from .linalg import sparse_rational_rank

# Generator cap of the Taylor oracle: a complete intersection admits all 2^M subsets.
TAYLOR_MAX_GENERATORS = 18


@dataclass
class QuotientProfile:
    """Sizes of the successive colon ideals of a generating set in stored order.

    gens is the ideal's min_gens; n[p] is the number of minimal generators
    of (m_1,...,m_p) : (m_{p+1}) (0-indexed; n[0] = 0 for the empty colon).
    linear is True when every colon ideal is generated by single variables.
    """

    gens: tuple[Monomial, ...]
    n: list[int]
    linear: bool


class BettiTable:
    """Sparse (homological index i, internal degree j) -> Betti number map."""

    def __init__(self, entries=None):
        self.entries: dict[tuple[int, int], int] = {}
        if entries:
            for (i, j), b in dict(entries).items():
                if b < 0 or i < 0 or j < 0:
                    raise DomainError("Betti table entries must have non-negative indices and values")
                if b:
                    self.entries[(i, j)] = int(b)

    def add(self, i: int, j: int, value: int):
        if value:
            self.entries[(i, j)] = self.entries.get((i, j), 0) + value
            if self.entries[(i, j)] == 0:
                del self.entries[(i, j)]

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def is_empty(self) -> bool:
        return not self.entries

    def items(self):
        return sorted(self.entries.items())

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __repr__(self):
        return f"BettiTable({self.entries!r})"

    def to_triples(self):
        return [{"i": i, "j": j, "beta": b} for (i, j), b in self.items()]

    def to_grid(self) -> str:
        """Betti diagram: columns are homological index i, rows are j - i."""
        if not self.entries:
            return "(zero ideal: empty Betti table)"
        max_i = max(i for i, _ in self.entries)
        rows = sorted({j - i for (i, j) in self.entries})
        cells = [[""] * (max_i + 2) for _ in range(len(rows) + 1)]
        cells[0][0] = ""
        for col in range(max_i + 1):
            cells[0][col + 1] = str(col)
        for rpos, k in enumerate(rows):
            cells[rpos + 1][0] = f"{k}:"
            for col in range(max_i + 1):
                b = self.get(col, col + k)
                cells[rpos + 1][col + 1] = str(b) if b else "."
        widths = [max(len(cells[r][c]) for r in range(len(cells))) for c in range(max_i + 2)]
        lines = []
        for row in cells:
            lines.append(" ".join(s.rjust(w) for s, w in zip(row, widths)).rstrip())
        return "\n".join(lines)


def colon_with_monomial(prior, m: Monomial) -> MonomialIdeal:
    """Minimal generating set of (prior) : (m), via lcm(p, m)/m = max(p - m, 0) over the priors."""
    gens = [Monomial([a - b if a > b else 0 for a, b in zip(p.exps, m.exps)]) for p in prior]
    return MonomialIdeal._from_minimal(minimalize_monomials(gens))


def _thermometer_codes(gens) -> list[int]:
    """Each multidegree as an int: exponent e is the field (1 << e) - 1 of w
    bits, w the largest exponent, with variable 0 in the highest field.

    An OR of codes codes the lcm, a code inside another codes a divisor, the
    bit count is the degree, and ints compare as exponent vectors do
    lexicographically.  c = code(m_j) & ~code(m_k) codes m_j / gcd(m_j, m_k),
    each field v shifted up m_k[v] bits for every j alike: the c keep the
    quotients' degrees and divisibility, and a single-bit c of v is bit m_k[v].
    """
    w = max((max(g.exps, default=0) for g in gens), default=0)
    shifts = [w * v for v in reversed(range(len(gens[0].exps)))] if gens else []
    return [sum(((1 << e) - 1) << s for e, s in zip(filter(None, g.exps), compress(shifts, g.exps)))
            for g in gens]


def quotient_profile(ideal: MonomialIdeal) -> QuotientProfile:
    """Compute every successive colon ideal of ideal.min_gens, in stored
    order, and test for linear quotients.

    (m_1,...,m_{k-1}) : (m_k) is generated by the quotients coded by the
    c_j = code(m_j) & ~code(m_k) of `_thermometer_codes`, none empty as the
    generators are minimal.  With S_k the union of the single-bit c_j, the
    colon is generated by variables exactly when every c_j meets S_k, and
    then n_k = |S_k|.  Every other colon is computed by colon_with_monomial.
    """
    gens = ideal.min_gens
    codes = _thermometer_codes(gens)
    n: list[int] = []
    linear = True
    for p, m in enumerate(gens):
        cs = [c & ~codes[p] for c in codes[:p]]
        singles = reduce(or_, (c for c in cs if not c & (c - 1)), 0)
        if all(c & singles for c in cs):
            n.append(singles.bit_count())
            continue
        colon = colon_with_monomial(gens[:p], m).min_gens
        n.append(len(colon))
        linear = linear and all(g.degree == 1 for g in colon)
    return QuotientProfile(gens=gens, n=n, linear=linear)


def betti_from_linear_quotients(profile: QuotientProfile) -> BettiTable:
    """Graded Betti numbers of an ideal with linear quotients.

    beta_{i,i+j} = sum over generators of degree j of C(n_p, i).
    """
    if not profile.linear:
        raise DomainError("generators do not have linear quotients; formula inapplicable")
    table = BettiTable()
    for m, np in zip(profile.gens, profile.n):
        j = m.degree
        for i in range(np + 1):
            table.add(i, i + j, comb(np, i))
    return table


def betti_taylor_oracle(ideal: MonomialIdeal) -> BettiTable:
    """Graded Betti numbers by homology of the Lyubeznik subcomplex of the
    Taylor complex; independent of any quotient structure.

    The Taylor complex on generators m_1..m_M has one free module generator
    per subset S, in multidegree lcm(S).  Lyubeznik's resolution (J. Pure
    Appl. Algebra 51, 1988; Peeva, Graded Syzygies, 2011) keeps the subsets
    {i_1 < ... < i_k} where no m_q with q < i_t divides lcm(m_{i_t}..m_{i_k}),
    for every t; they are grown from the largest index down, so a failed
    tail prunes its branch, and they are closed under taking subsets.  It
    is a multigraded resolution, so tensoring it with the residue field
    keeps exactly the differential terms that preserve the lcm label: the
    complex splits per multidegree and beta_{i, alpha} is the homology
    dimension of the size-(i+1) layer of the alpha slice, by exact ranks.

    One pass sorts the faces into one slice per lcm, by size.  Each slice
    builds each face's boundary row once and each size's rank once; a
    one-row boundary has rank 1 exactly when its row has an entry.

    Multidegrees are held as `_thermometer_codes`, so the table entries are
    inserted in (size, exponent vector) order.
    """
    gens = list(ideal.min_gens)
    M = len(gens)
    if M > TAYLOR_MAX_GENERATORS:
        raise BudgetError(
            f"Taylor oracle limited to {TAYLOR_MAX_GENERATORS} generators, got {M}"
        )
    codes = _thermometer_codes(gens)

    # One record per lcm code: its admissible faces, grouped by size.
    slices: dict[int, dict[int, list[int]]] = {}
    stack = [(1 << b, code, b) for b, code in enumerate(codes)]
    while stack:
        mask, alpha, first = stack.pop()
        slices.setdefault(alpha, {}).setdefault(mask.bit_count(), []).append(mask)
        for i in range(first):
            lcm = alpha | codes[i]
            for c in codes[:i]:
                if not c & ~lcm:
                    break
            else:
                stack.append((mask | 1 << i, lcm, i))

    entries = []
    for alpha, layers in slices.items():
        # rank[k]: rank of the boundary from the size-k faces to the size-(k-1) ones.
        rank = dict.fromkeys(layers, 0)
        for k, sources in layers.items():
            targets = layers.get(k - 1)
            if not targets:
                continue
            # A face's facets are admissible; those in this slice are the targets.
            col = {mask: c for c, mask in enumerate(targets)}
            rows = []
            for mask in sources:
                row, sign, sub = {}, 1, mask
                while sub:
                    low = sub & -sub
                    c = col.get(mask ^ low)
                    if c is not None:
                        row[c] = sign
                    sign = -sign
                    sub ^= low
                rows.append(row)
            rank[k] = any(rows) if len(rows) == 1 else sparse_rational_rank(rows)
        for k, faces in layers.items():
            beta = len(faces) - rank[k] - rank.get(k + 1, 0)
            if beta:
                entries.append((k, alpha, beta))
    table = BettiTable()
    for k, alpha, beta in sorted(entries):
        table.add(k - 1, alpha.bit_count(), beta)
    return table
