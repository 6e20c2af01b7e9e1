"""Weighted counting polynomials of dilated faces and reciprocity."""
import hashlib
import json
import re
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticegfun import (MultiPoly, WeightPoly, build_gfun, build_polytope,
                         check_ehrhart_macdonald, check_weighted_reciprocity,
                         ehrhart_polynomial, iter_lattice_points, volume,
                         weighted_sum_poly, wsum)

from wsum_reference import reference_weighted_sums

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


def test_one_scan_per_dilate_and_one_interpolation_per_face(monkeypatch, pyramid, corpus3d):
    # the benchmark's tracer times both sites by rebinding wsum's globals:
    # F is scanned once per dilate q = 1 .. dim F + deg phi + 1, and each
    # nonempty face of F is interpolated once
    scans, fits = [], []
    real_scan, real_fit = wsum.iter_lattice_points, wsum.interpolate
    monkeypatch.setattr(wsum, "iter_lattice_points",
                        lambda P, F, q, *args: scans.append((F, q)) or real_scan(P, F, q, *args))
    monkeypatch.setattr(wsum, "interpolate", lambda *args: fits.append(args) or real_fit(*args))
    for P in (pyramid, corpus3d[0]):
        lat = P.face_lattice
        for j in (lat.top_index, lat.faces_of_dim(2)[0]):
            F = lat.faces[j]
            for phi in (WeightPoly.one(3), WeightPoly.monomial(3, (2, 0, 0))):
                scans.clear()
                fits.clear()
                weighted_sum_poly(P, F, phi)
                assert scans == [(F, q) for q in range(1, F.dim + phi.degree + 2)]
                assert len(fits) == len(lat.below[j] - {lat.empty_index} | {j})


def drop_one_point_at(monkeypatch, last_q):
    """Make the face-sum scan lose the first point of the dilate last_q."""
    real = wsum.iter_lattice_points

    def drop_one(P, F, dilate, *args):
        points = list(real(P, F, dilate, *args))
        return points[1:] if dilate == last_q else points

    monkeypatch.setattr(wsum, "iter_lattice_points", drop_one)


def drop_an_inner_point_at(monkeypatch, last_q):
    """Make the face-sum scan lose the middle point of the longest line of
    the dilate last_q, which leaves a gap in that line."""
    real = wsum.iter_lattice_points

    def drop_one(P, F, dilate, *args):
        points = list(real(P, F, dilate, *args))
        if dilate == last_q:
            longest = max((list(line) for _, line in groupby(points, lambda p: p[:-1])), key=len)
            assert len(longest) >= 3
            points.remove(longest[len(longest) // 2])
        return points

    monkeypatch.setattr(wsum, "iter_lattice_points", drop_one)


def test_a_gap_in_a_line_is_an_invariant_failure(monkeypatch, pyramid):
    # the longest line of the dilate q = 2 runs over z = 0..2 at (0, 0)
    drop_an_inner_point_at(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"^lattice scan of the dilate q = 2 has a gap "
                                           r"on the line \(0, 0\)$"):
        weighted_sum_poly(pyramid, pyramid.top_face(), WeightPoly.one(3))


def test_degree_check_catches_a_missing_point(monkeypatch, pyramid):
    top = pyramid.top_face()
    dropped = next(iter(iter_lattice_points(pyramid, top, top.dim + 1)))
    drop_one_point_at(monkeypatch, top.dim + 1)
    with pytest.raises(RuntimeError, match="degree assumption violated") as info:
        weighted_sum_poly(pyramid, top, WeightPoly.one(3))
    # the dropped first point (-4, -4, 4) is the vertex (-1, -1, 1) dilated,
    # whose open count is 1 at every q and is read 0 at q = 4
    m = re.fullmatch(r"degree assumption violated on the face \[(\d+)\] at q = 4: "
                     r"interpolated 1, scanned 0", str(info.value))
    assert m, str(info.value)
    assert tuple(4 * x for x in pyramid.vertices[int(m.group(1))]) == dropped


def test_degree_check_names_a_later_node_under_a_weight_of_positive_degree(monkeypatch, pyramid):
    # under x1 the vertex (-1, -1, 1) has open sum -q, checked at q = 2..5;
    # with the first point of the dilate q = 5, 5 * (-1, -1, 1), dropped the
    # first three checks pass and the fourth extrapolates -5 against 0
    top = pyramid.top_face()
    phi = WeightPoly.monomial(3, (1, 0, 0))
    drop_one_point_at(monkeypatch, top.dim + phi.degree + 1)
    with pytest.raises(RuntimeError) as info:
        weighted_sum_poly(pyramid, top, phi)
    assert str(info.value) == ("degree assumption violated on the face [0] at q = 5: "
                               "interpolated -5, scanned 0")


def test_degree_check_catches_a_missing_point_under_a_rational_weight(monkeypatch, pyramid):
    # phi = x1/3 + 2 x3/5 is 1/15 at the dropped vertex (-1, -1, 1), so only
    # the check on values scaled by phi's denominator 15 can see it
    phi = WeightPoly.from_json({"vars": 3, "terms": [{"coeff": "1/3", "exps": [1, 0, 0]},
                                                     {"coeff": "2/5", "exps": [0, 0, 1]}]})
    top = pyramid.top_face()
    drop_one_point_at(monkeypatch, top.dim + phi.degree + 1)
    with pytest.raises(RuntimeError, match="degree assumption violated"):
        weighted_sum_poly(pyramid, top, phi)


@st.composite
def face_sum_cases(draw):
    """Vertices of a polytope in dimension 1-4, a weight with rational
    coefficients (or the zero weight) as JSON, and a pick of a lower face.
    The polytope is full-dimensional: a base point plus the rows of a
    triangular matrix with diagonal entries +-1 or +-2, and up to three
    further points, so facet normals ending in 0, +-1 and +-2 or more all
    occur.  One case in four is instead stretched along x_n (dimension 2
    or 3): a simplex of legs 2 in the first n - 1 coordinates, lifted to
    a floor and a roof of slope +-1/2 in x_n, 9 to 11 apart at the base
    point, so every line runs 8 or more points and ends on facets with
    u_n = +-2 wherever the floor or roof is a lattice point."""
    if draw(st.sampled_from([False, False, False, True])):
        n = draw(st.sampled_from([2, 3]))
        base = draw(st.tuples(*[st.integers(-3, 3)] * n))
        height = draw(st.integers(9, 11))
        floor = draw(st.lists(st.sampled_from([-1, 1]), min_size=n - 1, max_size=n - 1))
        roof = draw(st.lists(st.sampled_from([-1, 1]), min_size=n - 1, max_size=n - 1))
        steps = [(0,) * n, (0,) * (n - 1) + (height,)]
        for k in range(n - 1):
            leg = tuple(2 * (i == k) for i in range(n - 1))
            steps += [leg + (floor[k],), leg + (height + roof[k],)]
        pts = [tuple(b + s for b, s in zip(base, step)) for step in steps]
    else:
        n = draw(st.sampled_from([2, 3, 4, 1]))
        reach = {1: 6, 2: 3, 3: 2, 4: 1}[n]
        point = st.tuples(*[st.integers(-reach, reach)] * n)
        base = draw(point)
        pts = [base]
        for k in range(n):
            below = draw(st.lists(st.integers(-min(reach, 2), min(reach, 2)),
                                  min_size=k, max_size=k))
            step = below + [draw(st.sampled_from([-2, -1, 1, 2]))] + [0] * (n - k - 1)
            pts.append(tuple(b + s for b, s in zip(base, step)))
        pts += draw(st.lists(point, max_size=3 if n < 4 else 1))
    terms = []
    if draw(st.sampled_from([True] * 5 + [False])):  # else the zero weight
        degree = draw(st.integers(0, 2 if n < 3 else 1))
        for k in range(draw(st.integers(1, 3))):
            slots = draw(st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree))
            num, den = draw(st.integers(-5, 5)), draw(st.integers(1, 6))
            if not k:  # an odd numerator over an even denominator does not reduce
                num, den = 2 * num + 1, 2 * den
            terms.append({"coeff": f"{num}/{den}", "exps": [slots.count(i) for i in range(n)]})
    return pts, {"vars": n, "terms": terms}, draw(st.integers(0, 99))


@settings(max_examples=100, deadline=None)
@given(face_sum_cases())
@example(([(0, 0), (5, 0), (0, 2)],  # facet normals (1, 0), (0, 1), (-2, -5)
          {"vars": 2, "terms": [{"coeff": "3/2", "exps": [1, 0]},
                                {"coeff": "-1/3", "exps": [0, 1]}]}, 1))
@example(([(0, 0, 0), (3, 0, 0), (0, 2, 0), (0, 0, 2)],  # (1, 0, 0), ..., (-2, -3, -3)
          {"vars": 3, "terms": [{"coeff": "5/4", "exps": [0, 1, 1]}]}, 7))
@example(([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 2)],
          {"vars": 4, "terms": []}, 3))  # (0, 0, 0, 1), (2, 0, 0, -1), ...
# the apex (0, 0) of q*triangle is a one-point line tight on a facet with
# u_n > 0 and one with u_n < 0 at once; a weight nonzero there counts it once
@example(([(0, 0), (2, -1), (2, 1)], {"vars": 2, "terms": [{"coeff": "1", "exps": [0, 0]}]}, 0))
@example(([(0, 0, 0), (2, 0, -1), (2, 0, 1), (2, 2, 0)],
          {"vars": 3, "terms": [{"coeff": "1", "exps": [0, 0, 0]}]}, 0))
def test_per_line_classification_matches_the_reference(case):
    # the reference tests every point against every facet and sums Fractions
    pts, phi_json, pick = case
    P = build_polytope(pts)
    phi = WeightPoly.from_json(phi_json)
    lat = P.face_lattice
    lower = [lat.faces[i] for i in lat.nonempty() if lat.faces[i].dim < P.ambient_dim]
    for F in (P.top_face(), lower[pick % len(lower)]):
        expected = reference_weighted_sums(P, F, phi)
        got = weighted_sum_poly(P, F, phi)
        assert list(got) == list(expected)
        for G, wsp in got.items():
            closed, opened = expected[G]
            assert (wsp.closed.to_json(), wsp.open.to_json()) == \
                (closed.to_json(), opened.to_json()), (pts, phi_json, F, G)


# sha256 of build_gfun(P, phi).poly.to_json() taken while every point was
# still tested against every facet; the lines of these dilates run to
# hundreds of points, where the benchmark's average about four
LARGE_GFUN_DIGESTS = [
    ([(0, 0), (100, 0), (0, 120)], [("2/3", [1, 0]), ("-1/2", [0, 1])],
     "df2c5cf488ca4273f53cdb71046054307fb5fe66de7c482ad0fa21f1778586b3"),
    ([(0, 0, 0), (10, 0, 0), (0, 12, 0), (0, 0, 15)], [("2/3", [1, 0, 0]), ("-1/4", [0, 0, 1])],
     "0c611dd3b2dcc29d21f7270e155b9ae71c7dc3ee961c4500123cb577214a7176"),
]


@pytest.mark.parametrize("vertices, terms, digest", LARGE_GFUN_DIGESTS,
                         ids=["triangle", "simplex"])
def test_large_simplex_gfun_digest(vertices, terms, digest):
    phi = WeightPoly.from_json({"vars": len(vertices[0]),
                                "terms": [{"coeff": c, "exps": e} for c, e in terms]})
    poly = build_gfun(build_polytope(vertices), phi).poly
    assert hashlib.sha256(json.dumps(poly.to_json()).encode()).hexdigest() == digest


@pytest.mark.parametrize("phi", [WeightPoly.one(3), WeightPoly.monomial(3, (1, 0, 0)),
                                 WeightPoly.from_json({"vars": 3, "terms": []})])
def test_weighted_sum_vars(pyramid, phi):
    # one polynomial per sum: constant over no variables at degree 0, else in q
    for G, wsp in weighted_sum_poly(pyramid, pyramid.top_face(), phi).items():
        expected = () if G.dim + phi.degree == 0 else ("q",)
        assert wsp.closed.vars == expected
        assert wsp.open.vars == expected


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


@pytest.mark.parametrize("phi", [WeightPoly.monomial(3, (1, 0, 0)), WeightPoly.monomial(1, (1,))])
def test_weight_dimension_must_match_polytope(right_triangle, phi):
    # a weight with more or fewer variables than the polytope's dimension is
    # rejected by every face-sum entry point, before any scan
    P = right_triangle
    for run in (lambda: weighted_sum_poly(P, P.top_face(), phi),
                lambda: check_weighted_reciprocity(P, phi), lambda: build_gfun(P, phi)):
        with pytest.raises(ValueError, match="dimension does not match polytope"):
            run()


# weights over a subset of x1..xn, or with their variables out of order,
# with their full-width exponent tables
PARTIAL_WEIGHTS = [
    (WeightPoly(MultiPoly(("x3", "x1"), {(2, 1): F(3), (0, 3): F(-1, 2)}), 3),
     {(1, 0, 2): F(3), (3, 0, 0): F(-1, 2)}),
    (WeightPoly(MultiPoly(("x2",), {(2,): F(5, 3)}), 2), {(0, 2): F(5, 3)}),
    (WeightPoly(MultiPoly(("x2", "x1"), {(1, 0): F(1), (0, 1): F(2)}), 2),
     {(1, 0): F(2), (0, 1): F(1)}),
]


@pytest.mark.parametrize("phi, terms", PARTIAL_WEIGHTS)
def test_weight_terms_are_full_width(phi, terms):
    assert phi.terms == terms
    data = phi.to_json()
    assert data["terms"] == [{"coeff": str(terms[e]), "exps": list(e)} for e in sorted(terms)]
    again = WeightPoly.from_json(data)
    assert again.terms == terms and again.to_json() == data


@pytest.mark.parametrize("phi", [phi for phi, _ in PARTIAL_WEIGHTS])
def test_partial_weight_face_sums_match_brute_force(phi):
    n = phi.nvars
    P = build_polytope([(0,) * n] + [tuple(2 * (i == k) + (k == 0) for k in range(n))
                                     for i in range(n)])
    top = P.top_face()
    wsp = weighted_sum_poly(P, top, phi)[top]
    names = [f"x{i + 1}" for i in range(n)]
    for qq in range(1, 5):
        points = list(iter_lattice_points(P, top, qq))
        interior = [x for x in points if all(h.value(x) + (qq - 1) * h.offset for h in P.halfspaces)]
        for poly, pts in ((wsp.closed, points), (wsp.open, interior)):
            brute = sum(phi.poly.evaluate({v: x for v, x in zip(names, point)
                                           if v in phi.poly.vars}) for point in pts)
            assert poly.evaluate({"q": qq}) == brute, (qq, phi.poly)


TRIANGLE = build_polytope([(0, 0), (1, 0), (0, 1)])
EMPTY_FACE = TRIANGLE.face_lattice.faces[TRIANGLE.face_lattice.empty_index]


@pytest.mark.parametrize("call, message", [
    (lambda: weighted_sum_poly(TRIANGLE, EMPTY_FACE, WeightPoly.one(2)),
     "weighted sums need a nonempty face"),
    (lambda: WeightPoly(MultiPoly.variable("y"), 1), "unexpected weight variable 'y'"),
    (lambda: WeightPoly.from_json({"vars": 2}), "a weight needs the keys 'vars' and 'terms'"),
], ids=["empty-face", "variable-y", "no-terms-key"])
def test_rejections(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
