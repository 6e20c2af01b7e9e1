"""Reference linear algebra for the tests, sharing no code with
``latticegfun.linalg``: a textbook row reduction over Fractions and the
Leibniz determinant."""
import math
from fractions import Fraction
from itertools import combinations, permutations


def rref(rows, ncols):
    """Reduced row echelon form over Q on the first ncols columns, as
    (rows, pivot columns); later columns are carried along."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def rank(rows):
    rows = [list(row) for row in rows]
    return len(rref(rows, len(rows[0]) if rows else 0)[1])


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def solve(rows, rhs):
    """The unique solution of A x = b as Fractions, None when the system is
    inconsistent; ValueError when the solution is not unique."""
    ncols = len(rows[0])
    m, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    if len(pivots) < ncols:
        raise ValueError("underdetermined")
    return [m[r][ncols] for r in range(ncols)]


def inverse(rows):
    n = len(rows)
    m, _ = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)], n)
    return [row[n:] for row in m]


def nullspace(rows):
    """The primitive integer vector spanning a one-dimensional nullspace,
    its free coordinate positive, or None."""
    ncols = len(rows[0])
    m, pivots = rref(rows, ncols)
    if len(pivots) != ncols - 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    vec = [Fraction(0)] * ncols
    vec[free] = Fraction(1)
    for r, col in enumerate(pivots):
        vec[col] = -m[r][free]
    scale = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * scale) for v in vec]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def maximal_minor_gcd(rows):
    """gcd of the k x k minors of a k x n matrix."""
    k, n = len(rows), len(rows[0])
    return math.gcd(*(leibniz_det([[row[c] for c in cols] for row in rows])
                      for cols in combinations(range(n), k)))
