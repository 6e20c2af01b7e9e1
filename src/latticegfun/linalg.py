"""Small exact linear algebra helpers over the rationals.

Rank, inverse, linear solves and one-dimensional nullspaces all run the
same Gauss-Jordan reduction, ``_reduce``; ``det`` uses forward elimination
so that it can track the sign of row swaps.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def _reduce(m, ncols: int) -> list[int]:
    """Gauss-Jordan reduce the rows of m in place on its first ncols columns.

    Row r of the result has a 1 in column ``pivots[r]`` and 0 in every other
    pivot column; rows past the last pivot are zero in the first ncols
    columns.  Later columns (an augmented part) are carried along.  Stops
    once every row has a pivot.  Returns the pivot columns.
    """
    pivots: list[int] = []
    nrows = len(m)
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        row = m[rank] = [v * inv for v in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], row)]
        pivots.append(col)
    return pivots


def mat_rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    return len(_reduce(m, len(m[0]) if m else 0))


def affine_rank(points) -> int:
    """Dimension of the affine hull of the given points (-1 if empty)."""
    points = list(points)
    if not points:
        return -1
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    if not diffs:
        return 0
    return mat_rank(diffs)


def det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        result *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return sign * result


def mat_inverse(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    if len(_reduce(m, n)) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]


def solve_exact(rows, rhs):
    """Solve A x = b for the unique solution.

    Returns None when the system is inconsistent; raises if the solution
    is not unique (column rank deficiency).
    """
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots = _reduce(m, ncols)
    if any(m[r][ncols] for r in range(len(pivots), len(m))):
        return None
    if len(pivots) < ncols:
        raise ValueError("linear system is underdetermined")
    out = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        out[col] = m[r][ncols]
    return out


def nullspace_vector(rows):
    """A spanning vector of a one-dimensional nullspace, or None."""
    ncols = len(rows[0])
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = _reduce(m, ncols)
    if len(pivots) != ncols - 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    vec = [Fraction(0)] * ncols
    vec[free] = Fraction(1)
    for r, col in enumerate(pivots):
        vec[col] = -m[r][free]
    return vec


def primitive_integer(vec) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    vec = [Fraction(v) for v in vec]
    denom = math.lcm(*(v.denominator for v in vec)) if vec else 1
    ints = [int(v * denom) for v in vec]
    g = math.gcd(*ints) if any(ints) else 1
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(v // g for v in ints)


def lattice_index(generators) -> int:
    """Index of the sublattice spanned by independent integer vectors
    inside the saturation of their span: the gcd of all maximal minors."""
    gens = [list(v) for v in generators]
    if not gens:
        return 1
    k = len(gens)
    g = 0
    for cols in combinations(range(len(gens[0])), k):
        minor = det([[row[c] for c in cols] for row in gens])
        if minor.denominator != 1:
            raise RuntimeError("maximal minor of integer vectors is not integral")
        g = math.gcd(g, abs(int(minor)))
    if g == 0:
        raise ValueError("generators are linearly dependent")
    return g
