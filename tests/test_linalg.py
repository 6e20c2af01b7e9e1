"""The fraction-free integer kernel against a Fraction reduction and the
Leibniz determinant, on small integer matrices of every rank."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegfun.linalg import (det, lattice_index, mat_inverse, mat_rank, nullspace_vector,
                                solve_exact)

import linalg_reference as ref

ENTRY = st.integers(-9, 9)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """An integer matrix of up to 5 x 5; below its drawn rank, each row is
    an integer combination of the independent-looking rows before it."""
    nrows = nrows if nrows is not None else draw(st.integers(1, 5))
    ncols = ncols if ncols is not None else draw(st.integers(1, 5))
    free = draw(st.integers(0, nrows))
    rows = [draw(st.lists(ENTRY, min_size=ncols, max_size=ncols)) for _ in range(free)]
    for _ in range(nrows - free):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=free, max_size=free))
        rows.append([sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(ncols)])
    order = draw(st.permutations(range(nrows)))
    return [rows[i] for i in order]


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    return draw(matrices(n, n))


@settings(deadline=None)
@given(matrices())
def test_rank_matches_reference(m):
    assert mat_rank(m) == ref.rank(m)


@settings(deadline=None)
@given(square_matrices())
def test_det_matches_leibniz(m):
    value = det(m)
    assert type(value) is int
    assert value == ref.leibniz_det(m)


@settings(deadline=None)
@given(square_matrices())
def test_inverse_matches_reference(m):
    if ref.leibniz_det(m) == 0:
        with pytest.raises(ValueError, match="singular"):
            mat_inverse(m)
        return
    rows, d = mat_inverse(m)
    assert type(d) is int and d == abs(ref.leibniz_det(m)) > 0
    assert all(type(v) is int for row in rows for v in row)
    assert [[Fraction(v, d) for v in row] for row in rows] == ref.inverse(m)


@settings(deadline=None)
@given(matrices(), st.data())
def test_solve_matches_reference(m, data):
    ncols = len(m[0])
    if data.draw(st.booleans()):
        x = data.draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in m]
    else:
        rhs = data.draw(st.lists(ENTRY, min_size=len(m), max_size=len(m)))
    try:
        expected = ref.solve(m, rhs)
    except ValueError:
        with pytest.raises(ValueError, match="underdetermined"):
            solve_exact(m, rhs)
        return
    got = solve_exact(m, rhs)
    assert got == expected
    if got is not None:
        assert all(type(v) is Fraction for v in got)


@settings(deadline=None)
@given(matrices())
def test_nullspace_vector_matches_reference(m):
    expected = ref.nullspace(m)
    got = nullspace_vector(m)
    assert got == expected
    if got is not None:
        assert all(type(v) is int for v in got)
        assert math.gcd(*got) == 1
        assert all(sum(a * b for a, b in zip(row, got)) == 0 for row in m)
        free = [c for c in range(len(m[0])) if c not in ref.rref(m, len(m[0]))[1]]
        assert got[free[0]] > 0


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.integers(1, n).flatmap(lambda k: matrices(k, n))))
def test_lattice_index_is_gcd_of_maximal_minors(gens):
    g = ref.maximal_minor_gcd(gens)
    if g == 0:
        with pytest.raises(ValueError, match="dependent"):
            lattice_index(gens)
    else:
        assert lattice_index(gens) == g


def test_empty_and_degenerate_shapes():
    assert lattice_index([]) == 1
    assert det([]) == 1
    assert mat_rank([]) == 0
    assert nullspace_vector([[0]]) == (1,)
    assert nullspace_vector([[0, 0]]) is None
    assert nullspace_vector([[2, -4]]) == (2, 1)
    assert mat_inverse([[-2]]) == ([[-1]], 2)
