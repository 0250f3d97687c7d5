import copy
import random
from fractions import Fraction

import pytest

from toricgraphs.linalg import rational_rank, sparse_rational_rank


def dense_rank(rows) -> int:
    """Dense Gaussian elimination with exact Fraction arithmetic, kept apart
    from the package's kernel as an independent reference."""
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


def to_sparse(dense, keep_zeros=False):
    """Rows as {column: value} dicts; keep_zeros also stores explicit zero entries."""
    return [{c: v for c, v in enumerate(row) if v or keep_zeros} for row in dense]


def low_rank_matrix(rng, nrows, ncols, rank, entry):
    """A product of an nrows x rank and a rank x ncols factor: rank at most `rank`."""
    left = [[entry(rng) for _ in range(rank)] for _ in range(nrows)]
    right = [[entry(rng) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(row[k] * right[k][j] for k in range(rank)) for j in range(ncols)] for row in left]


def small_int(rng):
    return rng.choice([0, 0, 0, 1, -1, 2, -3, 5])


def small_fraction(rng):
    return rng.choice([0, 0, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), 3, -1])


def with_zero_and_duplicate_rows(rng, dense):
    ncols = len(dense[0]) if dense else 0
    out = list(dense)
    for _ in range(2):
        out.insert(rng.randrange(len(out) + 1), [0] * ncols)
    for _ in range(2):
        if dense:
            out.insert(rng.randrange(len(out) + 1), list(rng.choice(dense)))
    return out


@pytest.mark.parametrize("entry", [small_int, small_fraction])
@pytest.mark.parametrize("shape", [(3, 9), (9, 3), (6, 6), (1, 7), (7, 1), (12, 10)])
def test_sparse_rank_matches_dense_rank(entry, shape):
    rng = random.Random(f"{entry.__name__} {shape}")
    nrows, ncols = shape
    for trial in range(25):
        rank = rng.randint(0, min(nrows, ncols))
        dense = low_rank_matrix(rng, nrows, ncols, rank, entry)
        if trial % 2:
            dense = with_zero_and_duplicate_rows(rng, dense)
        rows = to_sparse(dense, keep_zeros=trial % 3 == 0)
        before = copy.deepcopy(rows)
        expected = dense_rank(dense)
        assert sparse_rational_rank(rows) == expected
        assert rational_rank(dense) == expected
        assert rows == before


def test_sparse_rank_empty_shapes():
    assert sparse_rational_rank([]) == rational_rank([]) == dense_rank([]) == 0
    assert sparse_rational_rank([{}, {}, {}]) == rational_rank([[], [], []]) == dense_rank([[], [], []]) == 0
    assert sparse_rational_rank([{0: 0, 4: 0}]) == 0

