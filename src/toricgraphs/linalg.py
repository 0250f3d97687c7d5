"""Exact rank computation over the rationals."""

from fractions import Fraction


def rational_rank(rows) -> int:
    """Rank of a dense matrix given as a list of rows of ints/Fractions.

    Plain Gaussian elimination with exact Fraction arithmetic; for small
    matrices (incidence matrices and the like).
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    ncols = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


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
