"""Acceptance suite: every criterion runs exactly (zero tolerance) within
its stated time budget and prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from latticegfun import (GradedPoset, MultiPoly, WeightPoly, apply_todd, bernoulli,
                         build_gfun, build_polytope, check_ehrhart_macdonald,
                         check_master_duality, check_reciprocity, cube_face_poset,
                         cyclo_root_of_unity, dual_g, fg_polynomials, gamma_set,
                         gessel_cube_g, h_polynomial, normal_fan, symbolic_integral,
                         todd_coeffs, verify_todd_formula)

from formula_helpers import cleared_dual_factor, inv_scalar

F = Fraction
q = MultiPoly.variable("q")
y = MultiPoly.variable("y")
t = MultiPoly.variable("t")
x = MultiPoly.variable("x")


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    verdict = "PASS" if elapsed < limit_seconds else "FAIL"
    print(f"{verdict} criterion {number}: {description} "
          f"({elapsed:.2f}s, limit {limit_seconds:g}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded its time budget"


def qpoly(pairs):
    """Polynomial in q from (power, coefficient) pairs."""
    total = MultiPoly.zero()
    for power, coeff in pairs:
        total = total + coeff * q ** power
    return total


# ----------------------------------------------------------------------
# criterion 1: square pyramid, constant weight
# ----------------------------------------------------------------------

def test_criterion_1_pyramid_constant_weight(pyramid):
    with criterion(1, "square pyramid G(q, y) with weight 1 matches the "
                      "reference coefficients exactly", 5):
        G = build_gfun(pyramid)
        expected = (
            qpoly([(3, F(4, 3)), (2, F(-4)), (1, F(11, 3)), (0, F(-1))]) * y ** 3
            + qpoly([(3, F(4)), (2, F(-4)), (1, F(-1)), (0, F(2))]) * y ** 2
            + qpoly([(3, F(4)), (2, F(4)), (1, F(-1)), (0, F(-2))]) * y
            + qpoly([(3, F(4, 3)), (2, F(4)), (1, F(11, 3)), (0, F(1))]))
        assert G.poly == expected


# ----------------------------------------------------------------------
# criterion 2: square pyramid, weight c*x3 at c = 1
# ----------------------------------------------------------------------

def test_criterion_2_pyramid_vertical_weight(pyramid):
    with criterion(2, "square pyramid with weight x3 matches the quartic "
                      "reference display", 10):
        G = build_gfun(pyramid, WeightPoly.monomial(3, (0, 0, 1)))
        expected = (
            qpoly([(4, F(1)), (3, F(-10, 3)), (2, F(7, 2)), (1, F(-7, 6))]) * y ** 4
            + qpoly([(4, F(4)), (3, F(-20, 3)), (2, F(4)), (1, F(-1, 3))]) * y ** 3
            + qpoly([(4, F(6)), (2, F(1))]) * y ** 2
            + qpoly([(4, F(4)), (3, F(20, 3)), (2, F(4)), (1, F(1, 3))]) * y
            + qpoly([(4, F(1)), (3, F(10, 3)), (2, F(7, 2)), (1, F(7, 6))]))
        assert G.poly == expected
        assert G.poly.degree_in("y") == 4


# ----------------------------------------------------------------------
# criterion 3: square pyramid, weight a*x1^2 + b*x2^2 + c*x3^2
# ----------------------------------------------------------------------

_QUAD_X_ROWS = {
    5: [(5, F(4, 15)), (4, F(-4, 3)), (3, F(7, 3)), (2, F(-5, 3)), (1, F(2, 5))],
    4: [(5, F(4, 3)), (4, F(-4)), (3, F(5)), (2, F(-3)), (1, F(2, 3))],
    3: [(5, F(8, 3)), (4, F(-8, 3)), (3, F(10, 3)), (2, F(-4, 3))],
    2: [(5, F(8, 3)), (4, F(8, 3)), (3, F(10, 3)), (2, F(4, 3))],
    1: [(5, F(4, 3)), (4, F(4)), (3, F(5)), (2, F(3)), (1, F(2, 3))],
    0: [(5, F(4, 15)), (4, F(4, 3)), (3, F(7, 3)), (2, F(5, 3)), (1, F(2, 5))],
}

_QUAD_Z_ROWS = {
    5: [(5, F(4, 5)), (4, F(-3)), (3, F(11, 3)), (2, F(-3, 2)), (1, F(1, 30))],
    4: [(5, F(4)), (4, F(-9)), (3, F(9)), (2, F(-5, 2)), (1, F(-1, 2))],
    3: [(5, F(8)), (4, F(-6)), (3, F(26, 3)), (2, F(-1)), (1, F(-5, 3))],
    2: [(5, F(8)), (4, F(6)), (3, F(26, 3)), (2, F(1)), (1, F(-5, 3))],
    1: [(5, F(4)), (4, F(9)), (3, F(9)), (2, F(5, 2)), (1, F(-1, 2))],
    0: [(5, F(4, 5)), (4, F(3)), (3, F(11, 3)), (2, F(3, 2)), (1, F(1, 30))],
}


def _quad_display(rows):
    total = MultiPoly.zero()
    for p, pairs in rows.items():
        total = total + qpoly(pairs) * y ** p
    return total


def test_criterion_3_pyramid_quadratic_weight(pyramid):
    with criterion(3, "square pyramid with the three quadratic basis weights "
                      "matches the long reference display", 30):
        # x1^2 and x2^2 give the same display by the symmetry of the pyramid
        for exps in ((2, 0, 0), (0, 2, 0)):
            G = build_gfun(pyramid, WeightPoly.monomial(3, exps))
            assert G.poly == _quad_display(_QUAD_X_ROWS), exps
        Gz = build_gfun(pyramid, WeightPoly.monomial(3, (0, 0, 2)))
        assert Gz.poly == _quad_display(_QUAD_Z_ROWS)


# ----------------------------------------------------------------------
# criterion 4: triangle pipeline, constant weight
# ----------------------------------------------------------------------

def test_criterion_4_triangle_constant_weight(right_triangle):
    with criterion(4, "triangle: parallelepiped points, deformed volume, and "
                      "the Todd-operator value all match", 5):
        fan = normal_fan(right_triangle)
        gam = gamma_set(fan)
        assert set(gam.points) == {(0, 0), (0, -1)}
        idx = {h.normal: i for i, h in enumerate(right_triangle.halfspaces)}
        vals = dict(zip(gam.points, gam.a_values))
        assert all(v == 1 for v in vals[(0, 0)])
        assert vals[(0, -1)][idx[(0, 1)]] == 1
        assert vals[(0, -1)][idx[(1, 0)]] == -1
        assert vals[(0, -1)][idx[(-1, -2)]] == -1

        h1 = MultiPoly.variable(f"h{idx[(0, 1)] + 1}")
        h2 = MultiPoly.variable(f"h{idx[(1, 0)] + 1}")
        h3 = MultiPoly.variable(f"h{idx[(-1, -2)] + 1}")
        si = symbolic_integral(right_triangle, WeightPoly.one(2))
        assert si.poly == (2 * h1 + h2 + h3 + 2 * t) ** 2 / 4

        assert apply_todd(right_triangle) == \
            (q ** 2 - 2 * q + 1) * y ** 2 + (2 * q ** 2 - 1) * y + q ** 2 + 2 * q + 1


# ----------------------------------------------------------------------
# criterion 5: triangle with linear weight a*x1 + b*x2
# ----------------------------------------------------------------------

def test_criterion_5_triangle_linear_weight(right_triangle):
    with criterion(5, "triangle with linear weights: deformed integral and "
                      "Todd-operator value match the reference displays", 10):
        idx = {h.normal: i for i, h in enumerate(right_triangle.halfspaces)}
        h1 = MultiPoly.variable(f"h{idx[(0, 1)] + 1}")
        h2 = MultiPoly.variable(f"h{idx[(1, 0)] + 1}")
        h3 = MultiPoly.variable(f"h{idx[(-1, -2)] + 1}")
        for a, b in ((1, 0), (0, 1)):
            phi = WeightPoly(MultiPoly(("x1", "x2"), {(1, 0): F(a), (0, 1): F(b)}), 2)
            si = symbolic_integral(right_triangle, phi)
            expected_integral = (2 * h1 + h2 + h3 + 2 * t) ** 2 * (
                2 * a * (2 * h1 - 2 * h2 + h3 + 2 * t)
                + b * (-4 * h1 + h2 + h3 + 2 * t)) / 24
            assert si.poly == expected_integral, (a, b)

            inner = (
                y ** 2 * qpoly([(3, F(2 * a, 3) + F(b, 3)),
                                (2, F(-3 * a, 2) + F(-b, 2)),
                                (1, F(5 * a, 6) + F(b, 6))])
                + y * qpoly([(3, F(4 * a, 3) + F(2 * b, 3)),
                             (1, F(-a, 3) + F(-2 * b, 3))])
                + qpoly([(3, F(2 * a, 3) + F(b, 3)),
                         (2, F(3 * a, 2) + F(b, 2)),
                         (1, F(5 * a, 6) + F(b, 6))]))
            assert apply_todd(right_triangle, phi) == (y + 1) * inner, (a, b)


# ----------------------------------------------------------------------
# criterion 6: Todd coefficient table
# ----------------------------------------------------------------------

def _eulerian(n, a):
    polys = {0: lambda a: 1, 1: lambda a: 1, 2: lambda a: 1 + a,
             3: lambda a: 1 + 4 * a + a * a, 4: lambda a: 1 + 11 * a + 11 * a * a + a ** 3}
    return polys[n](a)


def test_criterion_6_todd_coefficient_table():
    with criterion(6, "Todd coefficients: sample table rows at roots of unity "
                      "of orders 2,3,4, Bernoulli values, Eulerian normalization", 5):
        for order in (2, 3, 4):
            a = cyclo_root_of_unity(1, order)
            a = a.as_rational() or a
            tc = todd_coeffs(a, 5)
            # k >= 2 rows follow the closed pattern
            #   -a A_(k-1)(a) (y+1)^k / ((k-1)! (a-1)^k);
            # at k = 1 that pattern differs from the defining power series by
            # the constant 1, and only the series value is consistent with
            # the operator identity checked in criteria 4, 5 and 9, so the
            # k = 1 row is asserted from the series: -(1 + a y)/(a - 1).
            assert tc.coeffs[1] == -(MultiPoly.const(1) + a * y) * inv_scalar(a - 1)
            for k in range(2, 6):
                row = (-1) * a * _eulerian(k - 1, a) * \
                    inv_scalar((a - 1) ** k) * F(1, math.factorial(k - 1))
                assert tc.coeffs[k] == row * (y + 1) ** k, (order, k)
        tc1 = todd_coeffs(F(1), 8)
        for k in range(9):
            assert tc1.coeffs[k].evaluate({"y": 0}) == bernoulli(k) / math.factorial(k)
        for order in (2, 3, 4):
            a = cyclo_root_of_unity(1, order)
            a = a.as_rational() or a
            tc = todd_coeffs(a, 4)
            for k, expected in ((2, 1 + 0 * a), (3, 1 + a), (4, 1 + 4 * a + a * a)):
                lead = tc.coeffs[k].coefficient("y", k).constant_value()
                got = -math.factorial(k - 1) * (a - 1) ** k * lead * inv_scalar(a)
                assert got == expected, (order, k)


# ----------------------------------------------------------------------
# criterion 7: cube g-polynomials and the octahedron
# ----------------------------------------------------------------------

def test_criterion_7_cube_g_and_octahedron(octahedron):
    with criterion(7, "cube-poset recursion equals the closed-form g for "
                      "n <= 5; octahedron vertex dual g is 1 + x", 10):
        for n in range(6):
            _, g = fg_polynomials(cube_face_poset(n))
            assert g == gessel_cube_g(n), n
        lat = octahedron.face_lattice
        for i in lat.faces_of_dim(0):
            assert dual_g(octahedron, lat.faces[i]) == 1 + x


# ----------------------------------------------------------------------
# criterion 8: property suite over the random corpus
# ----------------------------------------------------------------------

def _g_identity_holds(P):
    lat = P.face_lattice
    n = P.ambient_dim
    _, gP = fg_polynomials(GradedPoset.from_face_lattice(lat))
    left = MultiPoly.zero()
    for k, c in gP.coefficients_in("x").items():
        left = left + c.constant_value() * x ** (n + 1 - k)
    right = MultiPoly.zero()
    for i, face in enumerate(lat.faces):
        if face.dim < 0:
            gF = MultiPoly.const(1)
        else:
            members = [j for j in range(len(lat.faces)) if lat.leq(j, i)]
            ranks = [lat.faces[j].rank for j in members]
            below = [{k2 for k2, jj in enumerate(members)
                      if jj != j and lat.leq(jj, j)} for j in members]
            _, gF = fg_polynomials(GradedPoset(ranks, below))
        right = right + gF * (x - 1) ** (n - face.dim)
    return left == right


def test_criterion_8_corpus_property_suite(corpus2d, corpus3d):
    with criterion(8, "25-member random corpus with four weights: functional "
                      "equation, master duality, g identity, form agreement, "
                      "counting reciprocity", 600):
        corpus = [*corpus2d, *corpus3d]
        assert len(corpus) >= 25
        for P in corpus:
            n = P.ambient_dim
            weights = [WeightPoly.one(n),
                       WeightPoly.monomial(n, (1,) + (0,) * (n - 1)),
                       WeightPoly.monomial(n, (1, 1) + (0,) * (n - 2)),
                       WeightPoly.monomial(n, (2,) + (0,) * (n - 1))]
            for phi in weights:
                # build_gfun itself asserts the closed-face and interior
                # assemblies agree
                G = build_gfun(P, phi)
                assert check_reciprocity(G), (P.vertices, phi.poly)
            assert check_master_duality(GradedPoset.from_face_lattice(P.face_lattice))
            assert _g_identity_holds(P)
            assert check_ehrhart_macdonald(P)


# ----------------------------------------------------------------------
# criterion 9: operator identity end to end
# ----------------------------------------------------------------------

def test_criterion_9_todd_end_to_end(corpus2d, corpus3d, simplex2, unit_square,
                                     unit_cube, right_triangle):
    with criterion(9, "Todd operator equals the face-sum assembly on every "
                      "simple corpus member and the named shapes, weights of "
                      "degree <= 2, non-unimodular cases included", 600):
        named = [simplex2, unit_square, unit_cube, right_triangle]
        members = [P for P in [*corpus2d, *corpus3d] if P.simple] + named
        saw_nonunimodular = False
        for P in members:
            fan = normal_fan(P)
            if any(c.index > 1 for c in fan.cones):
                saw_nonunimodular = True
            n = P.ambient_dim
            weights = [WeightPoly.one(n),
                       WeightPoly.monomial(n, (1,) + (0,) * (n - 1)),
                       WeightPoly.monomial(n, (2,) + (0,) * (n - 1))]
            for phi in weights:
                assert verify_todd_formula(P, phi), (P.vertices, phi.poly)
        # the triangle is non-unimodular by construction
        assert any(c.index > 1 for c in normal_fan(right_triangle).cones)
        assert saw_nonunimodular


# ----------------------------------------------------------------------
# criterion 10: the q = 0 specialization
# ----------------------------------------------------------------------

def test_criterion_10_h_vector_specialization(corpus2d, corpus3d):
    with criterion(10, "for every simple corpus member the y^k coefficient of "
                       "G(0, y) is (-1)^k h_(n-k) and the h-vector is "
                       "palindromic", 60):
        simple = [P for P in [*corpus2d, *corpus3d] if P.simple]
        assert simple
        for P in simple:
            n = P.ambient_dim
            G = build_gfun(P)
            at0 = G.poly.substitute({"q": 0})
            layers = {k: c.constant_value() for k, c in at0.coefficients_in("y").items()}
            hcoeffs = {k: c.constant_value()
                       for k, c in h_polynomial(P).coefficients_in("t").items()}
            for k in range(n + 1):
                assert layers.get(k, F(0)) == (-1) ** k * hcoeffs.get(n - k, F(0)), (P, k)
            assert all(hcoeffs.get(k, F(0)) == hcoeffs.get(n - k, F(0))
                       for k in range(n + 1))
