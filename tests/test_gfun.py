"""Assembly of G(q, y), its functional equation, and derived profiles."""
import json
import re
from fractions import Fraction

import pytest

from latticegfun import (GFunction, GradedPoset, MultiPoly, WeightPoly, build_gfun,
                         check_reciprocity, cli, cross_polytope, dual_g,
                         ehrhart_polynomial, gessel_cube_g, gfun, h_polynomial,
                         iter_lattice_points, reciprocity_image, y_coefficient_profile)

from formula_helpers import cleared_dual_factor

F = Fraction
q = MultiPoly.variable("q")
y = MultiPoly.variable("y")


def test_pyramid_constant_weight(pyramid):
    G = build_gfun(pyramid)
    expected = ((F(4, 3) * q ** 3 - 4 * q ** 2 + F(11, 3) * q - 1) * y ** 3
                + (4 * q ** 3 - 4 * q ** 2 - q + 2) * y ** 2
                + (4 * q ** 3 + 4 * q ** 2 - q - 2) * y
                + (F(4, 3) * q ** 3 + 4 * q ** 2 + F(11, 3) * q + 1))
    assert G.poly == expected
    assert check_reciprocity(G)


def test_reciprocity_image(pyramid, segment):
    G = build_gfun(pyramid)
    assert reciprocity_image(G) == G.poly
    # n + d = 1: q y -> (-1)^(1+1) q y^0
    G1 = GFunction(q * y, 1, 0, segment, WeightPoly.one(1))
    assert reciprocity_image(G1) == q
    # a y-power above n + d has no polynomial image
    high = GFunction(G.poly + y ** (G.n + G.d + 1), G.n, G.d, G.polytope, G.phi)
    assert not check_reciprocity(high)


def test_triangle_constant_weight(right_triangle):
    G = build_gfun(right_triangle)
    assert G.poly == (q ** 2 - 2 * q + 1) * y ** 2 + (2 * q ** 2 - 1) * y + q ** 2 + 2 * q + 1
    assert check_reciprocity(G)


def test_pyramid_vertical_weight(pyramid):
    G = build_gfun(pyramid, WeightPoly.monomial(3, (0, 0, 1)))
    expected = ((q ** 4 - F(10, 3) * q ** 3 + F(7, 2) * q ** 2 - F(7, 6) * q) * y ** 4
                + (4 * q ** 4 - F(20, 3) * q ** 3 + 4 * q ** 2 - F(1, 3) * q) * y ** 3
                + (6 * q ** 4 + q ** 2) * y ** 2
                + (4 * q ** 4 + F(20, 3) * q ** 3 + 4 * q ** 2 + F(1, 3) * q) * y
                + (q ** 4 + F(10, 3) * q ** 3 + F(7, 2) * q ** 2 + F(7, 6) * q))
    assert G.poly == expected
    assert G.poly.degree_in("y") == 4
    assert check_reciprocity(G)


def test_pyramid_quadratic_weight_reciprocity(pyramid):
    # the three basis monomials of a*x1^2 + b*x2^2 + c*x3^2
    for exps in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
        G = build_gfun(pyramid, WeightPoly.monomial(3, exps))
        assert check_reciprocity(G)
    Gx = build_gfun(pyramid, WeightPoly.monomial(3, (2, 0, 0)))
    assert Gx.poly.coefficient("y", 5).coefficient("q", 5).constant_value() == F(4, 15)


def test_forms_agree_by_construction(pyramid, right_triangle, octahedron):
    # the build cross-checks closed-face vs interior form; reaching here
    # without RuntimeError is the assertion, plus a sanity value
    for P in (pyramid, right_triangle, octahedron):
        G = build_gfun(P)
        count_q1 = G.poly.substitute({"y": 0, "q": 1}).constant_value()
        assert count_q1 == len(list(iter_lattice_points(P, P.top_face(), 1)))


def test_constant_and_leading_terms_are_ehrhart(pyramid):
    G = build_gfun(pyramid)
    wsp = ehrhart_polynomial(pyramid)
    layers = G.poly.coefficients_in("y")
    assert layers[0] == wsp.closed
    assert layers[3] == wsp.open


def test_y_profile_square(unit_square):
    prof = y_coefficient_profile(build_gfun(unit_square))
    assert prof[0] == (q + 1) ** 2
    assert prof[1] == 2 * q ** 2 - 2
    assert prof[2] == (q - 1) ** 2


def test_y_profile_segment(segment):
    prof = y_coefficient_profile(build_gfun(segment))
    assert prof[0] == q + 1
    assert prof[1] == q - 1


def test_y_profile_pyramid(pyramid):
    prof = y_coefficient_profile(build_gfun(pyramid))
    leads = [p.coefficient("q", 3).constant_value() for p in prof]
    assert leads == [F(4, 3), 4, 4, F(4, 3)]


@pytest.mark.parametrize("terms", [
    [{"coeff": "2", "exps": [0, 0]}],
    [{"coeff": "-1/3", "exps": [0, 0]}],
    [{"coeff": "3/2", "exps": [0, 0]}, {"coeff": "-3/2", "exps": [0, 0]}],
])
def test_y_profile_scales_with_constant_weight(unit_square, terms):
    phi = WeightPoly.from_json({"vars": 2, "terms": terms})
    prof = y_coefficient_profile(build_gfun(unit_square, phi))
    c = phi.at_origin()
    assert prof == [c * (q + 1) ** 2, c * (2 * q ** 2 - 2), c * (q - 1) ** 2]


def test_y_profile_rejects_nonconstant_weight(pyramid):
    G = build_gfun(pyramid, WeightPoly.monomial(3, (0, 0, 1)))
    with pytest.raises(ValueError):
        y_coefficient_profile(G)


def dehn_sommerville_specialization(P):
    G = build_gfun(P)
    n = P.ambient_dim
    at0 = G.poly.substitute({"q": 0})
    hcoeffs = {k: c.constant_value()
               for k, c in h_polynomial(P).coefficients_in("t").items()}
    layers = {k: c.constant_value() for k, c in at0.coefficients_in("y").items()}
    return all(layers.get(k, F(0)) == (-1) ** k * hcoeffs.get(n - k, F(0))
               for k in range(n + 1))


def test_dehn_sommerville_specialization(unit_square, unit_cube, right_triangle,
                                         simplex3, segment):
    for P in (unit_square, unit_cube, right_triangle, simplex3, segment):
        assert dehn_sommerville_specialization(P)


def face_identity_holds(P):
    """For every face F: (y+1)^dim * g_dual(-y) equals the cleared sum of
    (y+1)^dim(E) (-y)^codim(E) g_dual_E(-1/y) over faces E above F."""
    lat = P.face_lattice
    n = P.ambient_dim
    for i in lat.nonempty():
        face = lat.faces[i]
        left = (y + 1) ** face.dim * dual_g(P, face).substitute({"x": -y})
        right = MultiPoly.zero()
        for j in lat.nonempty():
            if lat.leq(i, j):
                other = lat.faces[j]
                right = right + (y + 1) ** other.dim * \
                    cleared_dual_factor(dual_g(P, other), n - other.dim)
        if left != right:
            return False
    return True


def test_face_identity(pyramid, unit_cube, octahedron, corpus2d):
    for P in [pyramid, unit_cube, octahedron, *corpus2d[:5]]:
        assert face_identity_holds(P)


def test_cross_polytope_gfun():
    # every dual face of the cross-polytope is a face of the cube, so each
    # dual-face g is the cube's closed form in its dimension
    for n in (2, 3, 4):
        G = build_gfun(cross_polytope(n))
        assert check_reciprocity(G)
        lat = G.polytope.face_lattice
        for i in lat.nonempty():
            face = lat.faces[i]
            expected = MultiPoly.const(1) if face.dim == n else gessel_cube_g(n - 1 - face.dim)
            assert dual_g(G.polytope, face) == expected, (n, face.dim)


def test_dimension_mismatch_rejected(pyramid):
    with pytest.raises(ValueError):
        build_gfun(pyramid, WeightPoly.one(2))


def test_one_pass_dual_g_builds_no_poset(monkeypatch):
    def no_poset(*args):
        raise AssertionError("a per-face poset was built")

    P = cross_polytope(4)
    monkeypatch.setattr(GradedPoset, "__init__", no_poset)
    G = build_gfun(P, WeightPoly.monomial(4, (1, 0, 0, 0)))
    assert check_reciprocity(G)


def test_build_gfun_makes_no_polynomial_products(monkeypatch):
    # the face-sum route runs on coefficient lists; generic MultiPoly
    # multiplication must not creep back into it
    P = cross_polytope(4)
    phi = WeightPoly.monomial(4, (1, 0, 0, 0))
    calls = []
    for name in ("__mul__", "__rmul__"):
        real = getattr(MultiPoly, name)
        monkeypatch.setattr(MultiPoly, name,
                            lambda self, other, real=real: calls.append(1) or real(self, other))
    build_gfun(P, phi)
    assert calls == []


@pytest.mark.parametrize("phi", [WeightPoly.one(3), WeightPoly.monomial(3, (1, 0, 0)),
                                 WeightPoly.from_json({"vars": 3, "terms": []})])
def test_gfun_vars_are_q_and_y(pyramid, phi):
    assert build_gfun(pyramid, phi).poly.vars == ("q", "y")


def perturb_one_open(monkeypatch):
    real = gfun.weighted_sum_poly

    def perturbed(P, F, phi):
        sums = real(P, F, phi)
        face = next(iter(sums))
        sums[face] = sums[face]._replace(open=sums[face].open + q)
        return sums

    monkeypatch.setattr(gfun, "weighted_sum_poly", perturbed)


def test_assembly_check_catches_a_perturbed_open_sum(monkeypatch, pyramid):
    expected = build_gfun(pyramid).poly
    perturb_one_open(monkeypatch)
    with pytest.raises(RuntimeError, match="closed-face and interior assemblies disagree") as info:
        build_gfun(pyramid)
    # the perturbation adds q to one open sum, so the first entry off is in
    # the row of q^1; with weight 1 there is no (y+1)^d factor, and the
    # untouched closed side reads G's own coefficient there
    m = re.fullmatch(r"closed-face and interior assemblies disagree at \[1\]\[(\d)\] "
                     r"\(q\^1 y\^\1 before the factor \(y\+1\)\^0\): "
                     r"closed (\S+), interior (\S+)", str(info.value))
    assert m, str(info.value)
    j, closed, interior = int(m.group(1)), F(m.group(2)), F(m.group(3))
    assert closed == expected.terms.get((1, j), 0) != interior


def test_degree_bound_check_catches_a_long_g_list(monkeypatch, pyramid):
    x = MultiPoly.variable("x")
    with pytest.raises(RuntimeError, match="dual-face polynomial exceeds its degree bound"):
        cleared_dual_factor(1 + x ** 3, 2)
    monkeypatch.setattr(gfun, "dual_g", lambda P, F: 1 + x ** (P.ambient_dim - F.dim + 1))
    with pytest.raises(RuntimeError, match="dual-face polynomial exceeds its degree bound"):
        build_gfun(pyramid)


def test_build_gfun_reads_a_fresh_dual_g_per_face(monkeypatch, pyramid, corpus3d):
    # dual_g usually hands out shared polynomials; one that builds a new copy
    # per face, each freed after use, must still give every face its own g
    cases = [(pyramid, None), (cross_polytope(4), WeightPoly.monomial(4, (1, 0, 0, 0))),
             (next(P for P in corpus3d if not P.simple), None)]
    expected = [build_gfun(P, phi).poly for P, phi in cases]
    real = gfun.dual_g
    monkeypatch.setattr(gfun, "dual_g", lambda P, face: MultiPoly(real(P, face).vars,
                                                                   dict(real(P, face).terms)))
    assert [build_gfun(P, phi).poly for P, phi in cases] == expected


def test_profile_check_catches_a_wrong_volume(monkeypatch, right_triangle):
    G = build_gfun(right_triangle)
    monkeypatch.setattr(gfun, "volume", lambda P: F(7))
    with pytest.raises(RuntimeError,
                       match="^leading coefficient does not match the volume profile$"):
        y_coefficient_profile(G)


def test_cli_gfun_exits_2_on_a_perturbed_open_sum(monkeypatch, capsys, tmp_path, pyramid):
    path = tmp_path / "pyramid.json"
    path.write_text(json.dumps(pyramid.to_json()))
    perturb_one_open(monkeypatch)
    assert cli.main(["--format", "json", "gfun", "--polytope", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"].startswith("closed-face and interior assemblies disagree")
