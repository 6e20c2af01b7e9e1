"""Weighted counting polynomials of dilated faces and reciprocity."""
from fractions import Fraction

import pytest

from latticegfun import (MultiPoly, WeightPoly, check_ehrhart_macdonald,
                         check_weighted_reciprocity, ehrhart_polynomial,
                         iter_lattice_points, volume, weighted_sum_poly, wsum)

F = Fraction
q = MultiPoly.variable("q")


def test_unit_square_constant_weight(unit_square):
    wsp = ehrhart_polynomial(unit_square)
    assert wsp.closed == (q + 1) ** 2
    assert wsp.open == (q - 1) ** 2


def test_segment_linear_weight(segment):
    # oracle: direct summation of m over 0..q for a few dilates
    def brute(qq):
        return sum(m for m in range(qq + 1))

    phi = WeightPoly.monomial(1, (1,))
    wsp = weighted_sum_poly(segment, segment.top_face(), phi)[segment.top_face()]
    assert wsp.closed == q * (q + 1) / 2
    for qq in (1, 2, 3, 4):
        assert wsp.closed.evaluate({"q": qq}) == brute(qq)
    assert wsp.open == q * (q - 1) / 2


def test_pyramid_ehrhart(pyramid):
    wsp = ehrhart_polynomial(pyramid)
    assert wsp.closed == F(4, 3) * q ** 3 + 4 * q ** 2 + F(11, 3) * q + 1
    assert wsp.closed.evaluate({"q": 1}) == 10
    assert wsp.closed.evaluate({"q": 2}) == 35


def test_constant_terms(pyramid, unit_square):
    for P in (pyramid, unit_square):
        phi0 = WeightPoly.one(P.ambient_dim)
        wsp = weighted_sum_poly(P, P.top_face(), phi0)[P.top_face()]
        assert wsp.closed.evaluate({"q": 0}) == 1
        phi1 = WeightPoly.monomial(P.ambient_dim, (1,) + (0,) * (P.ambient_dim - 1))
        wsp1 = weighted_sum_poly(P, P.top_face(), phi1)[P.top_face()]
        assert wsp1.closed.evaluate({"q": 0}) == 0


def test_ehrhart_macdonald(unit_square, pyramid, right_triangle, corpus2d, corpus3d):
    for P in [unit_square, pyramid, right_triangle, *corpus2d, *corpus3d[:6]]:
        assert check_ehrhart_macdonald(P)


def test_weighted_reciprocity_segment(segment):
    assert check_weighted_reciprocity(segment, WeightPoly.monomial(1, (1,)))


def test_weighted_reciprocity_pyramid_x3(pyramid):
    phi = WeightPoly.monomial(3, (0, 0, 1))
    wsp = weighted_sum_poly(pyramid, pyramid.top_face(), phi)[pyramid.top_face()]
    # brute-force sums of x3 over the dilates, q = 1..5
    for qq in range(1, 6):
        direct = sum(p[2] for p in iter_lattice_points(pyramid, pyramid.top_face(), qq))
        assert wsp.closed.evaluate({"q": qq}) == direct
    assert check_weighted_reciprocity(pyramid, phi)


def test_interpolation_matches_direct_counts(corpus2d):
    monos = [(0, 0), (1, 0), (2, 0), (1, 1)]
    for P in corpus2d[:5]:
        for exps in monos:
            phi = WeightPoly.monomial(2, exps)
            wsp = weighted_sum_poly(P, P.top_face(), phi)[P.top_face()]
            for qq in range(1, 6):
                direct = sum(phi.poly.evaluate({"x1": p[0], "x2": p[1]})
                             for p in iter_lattice_points(P, P.top_face(), qq))
                assert wsp.closed.evaluate({"q": qq}) == direct


def test_shared_scan_matches_per_face_sums(corpus2d, corpus3d):
    # oracle: a separate closed and open scan of each face and dilate
    for P in [*corpus2d, *corpus3d]:
        n = P.ambient_dim
        names = tuple(f"x{i + 1}" for i in range(n))
        lat = P.face_lattice
        facet = lat.faces[lat.faces_of_dim(n - 1)[0]]
        for exps in [(0,) * n, (1,) + (0,) * (n - 1), (1, 1) + (0,) * (n - 2),
                     (2,) + (0,) * (n - 1)]:
            phi = WeightPoly.monomial(n, exps)
            sums = weighted_sum_poly(P, P.top_face(), phi)
            assert list(sums) == [lat.faces[i] for i in lat.nonempty()]
            for G, wsp in sums.items():
                for qq in range(1, G.dim + phi.degree + 2):
                    for poly, interior in ((wsp.closed, False), (wsp.open, True)):
                        direct = sum(phi.poly.evaluate(dict(zip(names, p)))
                                     for p in iter_lattice_points(P, G, qq, interior))
                        assert poly.evaluate({"q": qq}) == direct, (P.vertices, G, exps, qq)
            below = weighted_sum_poly(P, facet, phi)
            assert set(below) == {G for G in sums if G.vertex_indices <= facet.vertex_indices}
            for G, wsp in below.items():
                assert (wsp.closed, wsp.open) == (sums[G].closed, sums[G].open)


def test_closed_is_sum_of_opens(pyramid, corpus2d):
    for P in [pyramid, *corpus2d[:4]]:
        phi = WeightPoly.one(P.ambient_dim)
        lat = P.face_lattice
        total = MultiPoly.zero()
        for i in lat.nonempty():
            total = total + weighted_sum_poly(P, lat.faces[i], phi)[lat.faces[i]].open
        assert total == weighted_sum_poly(P, P.top_face(), phi)[P.top_face()].closed


def test_one_interpolation_per_face(monkeypatch, pyramid, corpus3d):
    calls = []
    real = wsum.interpolate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wsum, "interpolate", counted)
    for P in (pyramid, corpus3d[0]):
        for phi in (WeightPoly.one(3), WeightPoly.monomial(3, (1, 0, 0))):
            calls.clear()
            weighted_sum_poly(P, P.top_face(), phi)
            assert len(calls) == len(P.face_lattice.nonempty())


def test_degree_check_catches_a_missing_point(monkeypatch, pyramid):
    top = pyramid.top_face()
    last_q = top.dim + 1
    real = wsum.iter_lattice_points

    def drop_one(P, F, dilate, *args):
        points = list(real(P, F, dilate, *args))
        return points[1:] if dilate == last_q else points

    monkeypatch.setattr(wsum, "iter_lattice_points", drop_one)
    with pytest.raises(RuntimeError, match="degree assumption violated"):
        weighted_sum_poly(pyramid, top, WeightPoly.one(3))


def test_leading_coefficient_is_volume(pyramid, unit_cube, right_triangle, corpus2d):
    for P in [pyramid, unit_cube, right_triangle, *corpus2d[:6]]:
        wsp = ehrhart_polynomial(P)
        lead = wsp.closed.coefficient("q", P.ambient_dim).constant_value()
        assert lead == volume(P)


def test_vertex_face_sums(pyramid):
    lat = pyramid.face_lattice
    vi = pyramid.vertices.index((1, 1, 1))
    vface = lat.faces[lat.index_of({vi})]
    phi = WeightPoly.monomial(3, (0, 0, 2))
    wsp = weighted_sum_poly(pyramid, vface, phi)[vface]
    assert wsp.closed == q ** 2  # phi(q * (1,1,1)) = q^2
    assert wsp.open == wsp.closed


def test_homogeneity_enforced():
    with pytest.raises(ValueError, match="homogeneous"):
        WeightPoly(MultiPoly(("x1",), {(1,): F(1), (0,): F(1)}), 1)
