"""Exact rank computation over the rationals: one pivot-indexed elimination
on sparse rows, with a front door for dense rows."""

from fractions import Fraction


def rational_rank(rows) -> int:
    """Rank of a dense matrix given as an iterable of rows of ints/Fractions."""
    return sparse_rational_rank(dict(enumerate(row)) for row in rows)


def sparse_rational_rank(rows) -> int:
    """Rank of a sparse matrix given as dicts {column: nonzero value}.

    One pass over the rows.  Each row is reduced against the pivot rows kept
    so far, which are indexed by their largest column and scaled so that
    entry is 1; subtracting one clears the row's largest column and adds
    only smaller ones.  A row that does not reduce to zero becomes a new
    pivot row, and the rank is the number of pivot rows.  Arithmetic is
    exact: ints while every pivot is +-1 (as on boundary matrices),
    Fractions otherwise.  The input rows are not mutated.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            c = max(row)
            pivot = pivots.get(c)
            if pivot is None:
                v = row[c]
                if v == -1:
                    row = {k: -x for k, x in row.items()}
                elif v != 1:
                    row = {k: Fraction(x, v) for k, x in row.items()}
                pivots[c] = row
                break
            f = row[c]
            for k, x in pivot.items():
                new = row.get(k, 0) - f * x
                if new:
                    row[k] = new
                else:
                    del row[k]
    return len(pivots)
