"""Small exact linear algebra helpers over the integers.

Every matrix the package reduces has integer entries.  Rank, determinant,
inverse, linear solves and one-dimensional nullspaces all run the same
fraction-free Gauss-Jordan reduction, ``_reduce`` (Bareiss, Math. Comp. 22,
1968; Cohen, A Course in Computational Algebraic Number Theory, 2.2), in
which every entry stays an integer minor of the input.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def _reduce(m, ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan reduce the integer rows of m in place on
    their first ncols columns.

    Returns ``(pivots, d, sign)``.  Row r of the result has the last pivot
    ``d`` in column ``pivots[r]`` and 0 in every other pivot column; rows
    past the last pivot are zero in the first ncols columns.  Later columns
    (an augmented part) are carried along, so row r states
    ``d * x[pivots[r]] + (free columns) = (augmented part)``.  ``d`` is the
    leading minor on the pivot rows and columns, 1 when there is no pivot,
    and ``sign`` is the parity of the row swaps.  Stops once every row has
    a pivot.  Each division by the previous pivot is exact by Sylvester's
    identity; one that is not raises ``RuntimeError``.
    """
    pivots: list[int] = []
    nrows = len(m)
    d, sign = 1, 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        row = m[rank]
        p = row[col]
        for r in range(nrows):
            if r == rank:
                continue
            f = m[r][col]
            vals = [p * a - f * b for a, b in zip(m[r], row)]
            if d != 1:
                if any(v % d for v in vals):
                    raise RuntimeError(f"fraction-free elimination: division by the "
                                       f"pivot {d} is not exact in row {vals}")
                vals = [v // d for v in vals]
            m[r] = vals
        d = p
        pivots.append(col)
    return pivots, d, sign


def mat_rank(rows) -> int:
    m = [list(row) for row in rows]
    return len(_reduce(m, len(m[0]) if m else 0)[0])


def det(rows) -> int:
    m = [list(row) for row in rows]
    pivots, d, sign = _reduce(m, len(m))
    return sign * d if len(pivots) == len(m) else 0


def mat_inverse(rows) -> tuple[list[list[int]], int]:
    """The inverse of a nonsingular integer matrix as ``(rows, d)`` with
    ``d = |det|``, the last pivot: the inverse is rows / d."""
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, d, _ = _reduce(m, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    s = 1 if d > 0 else -1
    return [[s * v for v in row[n:]] for row in m], s * d


def solve_exact(rows, rhs):
    """Solve A x = b for the unique solution, as Fractions.

    Returns None when the system is inconsistent; raises if the solution
    is not unique (column rank deficiency).
    """
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots, d, _ = _reduce(m, ncols)
    if any(m[r][ncols] for r in range(len(pivots), len(m))):
        return None
    if len(pivots) < ncols:
        raise ValueError("linear system is underdetermined")
    return [Fraction(m[r][ncols], d) for r in range(ncols)]


def nullspace_vector(rows):
    """The primitive integer vector spanning a one-dimensional nullspace,
    with its free coordinate positive, or None."""
    ncols = len(rows[0])
    m = [list(row) for row in rows]
    pivots, d, _ = _reduce(m, ncols)
    if len(pivots) != ncols - 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    vec = [0] * ncols
    vec[free] = d
    for r, col in enumerate(pivots):
        vec[col] = -m[r][free]
    g = math.gcd(*vec) if d > 0 else -math.gcd(*vec)
    return tuple([v // g for v in vec])


def lattice_index(generators) -> int:
    """Index of the sublattice spanned by independent integer vectors
    inside the saturation of their span: the gcd of all maximal minors."""
    gens = [list(v) for v in generators]
    if not gens:
        return 1
    k = len(gens)
    g = 0
    for cols in combinations(range(len(gens[0])), k):
        g = math.gcd(g, det([[row[c] for c in cols] for row in gens]))
    if g == 0:
        raise ValueError("generators are linearly dependent")
    return g
