"""Normal fans, parallelepiped points, Todd coefficients, symbolic
integration, and the end-to-end operator identity."""
import hashlib
import json
import math
import re
from fractions import Fraction
from itertools import product

import pytest

from latticegfun import (CycloNumber, GammaSet, MultiPoly, WeightPoly, apply_todd,
                         bernoulli, build_gfun, build_polytope, cli, random_corpus,
                         cyclo_root_of_unity, gamma_set, h_variable_names, normal_fan,
                         polytope, symbolic_integral, todd, todd_coeffs, verify_todd_formula)
from latticegfun.cyclotomic import cyclo_from_powers, euler_phi
from latticegfun.linalg import det

from formula_helpers import inv_scalar
from integral_reference import deformed_vertex, dual_basis_at_vertex, triangulation_integral
from linalg_reference import inverse, rank, solve

F = Fraction
y = MultiPoly.variable("y")
t = MultiPoly.variable("t")
q = MultiPoly.variable("q")


def cone_at_vertex(P, fan, vertex):
    lat = P.face_lattice
    vi = P.vertices.index(vertex)
    return next(c for c in fan.cones
                if lat.faces[c.face_index].vertex_indices == frozenset({vi}))


def h_of(P):
    return {h.normal: MultiPoly.variable(f"h{i + 1}") for i, h in enumerate(P.halfspaces)}


# --- normal fan -------------------------------------------------------


def test_triangle_fan(right_triangle):
    fan = normal_fan(right_triangle)
    assert len(fan.maximal_cones()) == 3
    c = cone_at_vertex(right_triangle, fan, (2, 0))
    assert set(c.generators) == {(0, 1), (-1, -2)}
    assert c.index == 1
    c2 = cone_at_vertex(right_triangle, fan, (0, 1))
    assert set(c2.generators) == {(1, 0), (-1, -2)}
    assert c2.index == 2


def test_square_fan_unimodular(unit_square):
    fan = normal_fan(unit_square)
    assert all(c.index == 1 for c in fan.maximal_cones())


def test_simplex_fan(simplex2):
    fan = normal_fan(simplex2)
    rays = {c.generators[0] for c in fan.cones if len(c.generators) == 1}
    assert rays == {(1, 0), (0, 1), (-1, -1)}


def test_fan_requires_simple(pyramid):
    with pytest.raises(ValueError, match="simple"):
        normal_fan(pyramid)


def test_ray_facet_bijection(unit_cube):
    fan = normal_fan(unit_cube)
    rays = {c.generators[0] for c in fan.cones if len(c.generators) == 1}
    assert rays == {h.normal for h in unit_cube.halfspaces}


@pytest.mark.parametrize("seeds", [(11, 7), (103, 105)])
def test_fan_cones_have_independent_generators(seeds):
    # normal_fan takes no rank: on a simple full-dimensional polytope every
    # face's normals are some vertex's, which span R^n
    shapes = random_corpus(seeds[0], 15, 2, 3) + random_corpus(seeds[1], 10, 3, 2)
    for P in (P for P in shapes if P.simple):
        for cone in normal_fan(P).cones:
            assert not cone.generators or rank(cone.generators) == len(cone.generators), \
                (P.vertices, cone.facet_indices)


# --- parallelepiped points -------------------------------------------


def test_triangle_gamma(right_triangle):
    gam = gamma_set(normal_fan(right_triangle))
    assert set(gam.points) == {(0, 0), (0, -1)}
    idx = {h.normal: i for i, h in enumerate(right_triangle.halfspaces)}
    vals = dict(zip(gam.points, gam.a_values))
    assert all(v == 1 for v in vals[(0, 0)])
    assert vals[(0, -1)][idx[(0, 1)]] == 1
    assert vals[(0, -1)][idx[(1, 0)]] == -1
    assert vals[(0, -1)][idx[(-1, -2)]] == -1


def test_square_gamma_trivial(unit_square):
    gam = gamma_set(normal_fan(unit_square))
    assert gam.points == ((0, 0),)
    assert all(v == 1 for v in gam.a_values[0])


def box_scan(cone, n):
    """Points g of Q(cone) with their rho, by solving for every point of
    the bounding box of the closed parallelepiped."""
    gens = cone.generators
    rows = [[g[k] for g in gens] for k in range(n)]
    ranges = [range(sum(min(0, g[k]) for g in gens), sum(max(0, g[k]) for g in gens) + 1)
              for k in range(n)]
    out = []
    for pt in product(*ranges):
        rho = solve(rows, pt) if gens else []
        if rho is not None and all(0 <= r < 1 for r in rho):
            out.append((pt, rho))
    return out


def test_parallelepiped_count_equals_index(corpus2d, simplex3):
    # the number of lattice points of Q(cone) must equal the cone index,
    # for maximal and lower-dimensional cones alike
    for P in [simplex3, *[Q for Q in corpus2d if Q.simple][:5]]:
        fan = normal_fan(P)
        for cone in fan.cones:
            assert len(box_scan(cone, P.ambient_dim)) == cone.index


def test_gamma_set_matches_box_scan(right_triangle, simplex3, corpus2d, corpus3d):
    # oracle: the union over every cone of the fan, the zero cone and the
    # lower cones included, of the box-scanned parallelepiped points
    shapes = [right_triangle, build_polytope([(0, 0), (6, 0), (0, 5)]), simplex3,
              build_polytope([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1)]),
              next(P for P in corpus2d if P.simple), next(P for P in corpus3d if P.simple)]
    for P in shapes:
        fan = normal_fan(P)
        expected = {}
        exponents = {}
        for cone in fan.cones:
            for pt, rho in box_scan(cone, P.ambient_dim):
                values = [F(1)] * len(P.halfspaces)
                placed = [0] * len(P.halfspaces)
                for fi, r in zip(cone.facet_indices, rho):
                    root = cyclo_root_of_unity(r.numerator, r.denominator)
                    values[fi] = root if root.as_rational() is None else root.as_rational()
                    placed[fi] = r
                assert expected.setdefault(pt, values) == values
                exponents.setdefault(pt, placed)
        gam = gamma_set(fan)
        points = sorted(expected)
        assert gam.points == tuple(points)
        assert gam.exponents == tuple(tuple(exponents[pt]) for pt in points)
        assert gam.a_values == tuple(tuple(expected[pt]) for pt in points)
        assert [[type(v) for v in vals] for vals in gam.a_values] == \
            [[type(v) for v in expected[pt]] for pt in points]


def simplex_with_legs(*legs):
    n = len(legs)
    return build_polytope([(0,) * n] + [tuple(a if j == i else 0 for j in range(n))
                                        for i, a in enumerate(legs)])


def scan_parallelepiped(cone, n):
    """The points of Q(cone) with their rho, scanned by ``scan_box`` under
    0 <= rho_i < 1, rho = U^-T x read off the reference inverse."""
    inv = inverse(cone.generators)  # rho_i = sum_k inv[k][i] x_k
    den = math.lcm(*[x.denominator for row in inv for x in row])
    cols = [[int(row[i] * den) for row in inv] for i in range(n)]
    constraints = [c for w in cols for c in ((w, 0), ([-x for x in w], den - 1))]
    rows = [[g[k] for g in cone.generators] for k in range(n)]
    lo = [sum(min(0, x) for x in row) for row in rows]
    hi = [sum(max(0, x) for x in row) for row in rows]
    return [(pt, solve(rows, pt)) for pt in polytope.scan_box(lo, hi, constraints)]


def test_gamma_set_matches_the_scan_on_a_4_simplex():
    # vertex-cone indices 1, 30, 42, 70 and 105
    P = simplex_with_legs(2, 3, 5, 7)
    fan = normal_fan(P)
    expected = {}
    for cone in fan.maximal_cones():
        for pt, rho in scan_parallelepiped(cone, 4):
            placed = [F(0)] * len(P.halfspaces)
            for fi, r in zip(cone.facet_indices, rho):
                placed[fi] = r
            assert expected.setdefault(pt, placed) == placed
    gam = gamma_set(fan)
    assert gam.points == tuple(sorted(expected))
    assert gam.exponents == tuple(tuple(expected[pt]) for pt in gam.points)


GROUP_SHAPES = [[(0, 0), (60, 0), (0, 37)], [(0, 0, 0), (5, 0, 0), (0, 7, 0), (0, 0, 3)],
                [(0, 0, 0, 0), (3, 0, 0, 0), (0, 4, 0, 0), (0, 0, 5, 0), (0, 0, 0, 7)]]


def test_gamma_set_scans_no_box(monkeypatch):
    # the points come from each vertex cone's residue group, with one
    # solve_exact cross-check per point of each vertex cone
    def refuse(*args):
        raise AssertionError("gamma_set scanned a box")

    monkeypatch.setattr(polytope, "scan_box", refuse)
    assert not hasattr(todd, "scan_box")
    solved = []
    original = todd.solve_exact

    def counted(rows, rhs):
        solved.append(tuple(rhs))
        return original(rows, rhs)

    monkeypatch.setattr(todd, "solve_exact", counted)
    for vertices in GROUP_SHAPES:
        fan = normal_fan(build_polytope(vertices))
        solved.clear()
        gam = gamma_set(fan)
        assert len(solved) == sum(c.index for c in fan.maximal_cones())
        assert set(solved) == set(gam.points)


def test_gamma_set_cross_checks_each_point(monkeypatch):
    # a solve that puts a point outside [0, 1)^n, or gives the shared origin
    # other exponents in a second cone, raises
    P = build_polytope(GROUP_SHAPES[0])
    original = todd.solve_exact

    def shifted(rows, rhs):
        return [r + 1 for r in original(rows, rhs)]

    monkeypatch.setattr(todd, "solve_exact", shifted)
    with pytest.raises(RuntimeError, match=r"produced point .* is outside the parallelepiped "
                                           r"of the cone on facets"):
        gamma_set(normal_fan(P))
    seen_rows = []

    def disagreeing(rows, rhs):
        rho = original(rows, rhs)
        if any(rhs):
            return rho
        seen_rows.append(rows)
        return rho if len(seen_rows) == 1 else [F(1, 2)] + rho[1:]

    monkeypatch.setattr(todd, "solve_exact", disagreeing)
    with pytest.raises(RuntimeError, match="support function disagrees between cones"):
        gamma_set(normal_fan(P))


def test_apply_todd_inverts_each_vertex_frame_once(monkeypatch):
    # gamma_set and symbolic_integral share one inverse per vertex of the
    # polytope
    P = build_polytope(GROUP_SHAPES[1])
    inverted = []
    original = todd.mat_inverse

    def counted(rows):
        inverted.append(tuple(map(tuple, rows)))
        return original(rows)

    monkeypatch.setattr(todd, "mat_inverse", counted)
    expected = build_gfun(P).poly
    assert apply_todd(P) == expected
    assert len(inverted) == len(P.vertices) == len(set(inverted))


def test_gamma_set_builds_no_root_of_unity(monkeypatch):
    # the exponents are the stored form; roots are made only on demand
    shapes = [build_polytope([(0, 0), (60, 0), (0, 37)]),
              build_polytope([(0, 0, 0), (5, 0, 0), (0, 7, 0), (0, 0, 3)])]
    expected = [gamma_set(normal_fan(P)) for P in shapes]

    def refuse(num, den):
        raise AssertionError(f"gamma_set built the root exp(2 pi i {num}/{den})")

    monkeypatch.setattr(todd, "cyclo_root_of_unity", refuse)
    for P, want in zip(shapes, expected):
        gam = gamma_set(normal_fan(P))
        assert (gam.points, gam.exponents) == (want.points, want.exponents)


def test_gamma_nontrivial_iff_singular(corpus2d):
    for P in corpus2d:
        if not P.simple:
            continue
        fan = normal_fan(P)
        gam = gamma_set(fan)
        unimodular = all(c.index == 1 for c in fan.cones)
        assert (len(gam.points) == 1) == unimodular


# --- Todd coefficients ------------------------------------------------


def test_todd_coeffs_bernoulli_branch():
    tc = todd_coeffs(F(1), 8)
    assert tc.coeffs[0] == 1
    assert tc.coeffs[1] == (1 - y) / 2
    assert tc.coeffs[2] == (y + 1) ** 2 / 12
    for k in range(9):
        assert tc.coeffs[k].evaluate({"y": 0}) == bernoulli(k) / math.factorial(k)


def eulerian(n, a):
    table = {0: lambda a: 1, 1: lambda a: 1, 2: lambda a: 1 + a,
             3: lambda a: 1 + 4 * a + a * a}
    return table[n](a)


def reference_row(a, k):
    """-a * A_(k-1)(a) * (y+1)^k / ((k-1)! (a-1)^k), the sample-coefficient
    pattern, valid for k >= 2."""
    scalar = (-1) * a * eulerian(k - 1, a) * inv_scalar((a - 1) ** k) * F(1, math.factorial(k - 1))
    return scalar * (y + 1) ** k


@pytest.mark.parametrize("order", [2, 3, 4])
def test_todd_coeffs_sample_rows(order):
    a = cyclo_root_of_unity(1, order)
    a = a.as_rational() or a
    tc = todd_coeffs(a, 5)
    assert tc.coeffs[0].is_zero()
    # k = 1: the series gives -(1 + a y)/(a - 1); the k >= 2 rows follow
    # the Eulerian pattern
    assert tc.coeffs[1] == -(MultiPoly.const(1) + a * y) * inv_scalar(a - 1)
    for k in range(2, 5):
        assert tc.coeffs[k] == reference_row(a, k)


def test_todd_coeffs_order5_row():
    # k = 5 row with the degree-3 Eulerian polynomial 1 + 11a + 11a^2 + a^3
    a = cyclo_root_of_unity(1, 3)
    scalar = (-1) * a * (1 + 11 * a + 11 * a * a + a ** 3) * \
        inv_scalar((a - 1) ** 5) * F(1, math.factorial(4))
    assert todd_coeffs(a, 5).coeffs[5] == scalar * (y + 1) ** 5


def test_todd_coeffs_eulerian_normalization():
    for order in (2, 3, 4):
        a = cyclo_root_of_unity(1, order)
        a = a.as_rational() or a
        tc = todd_coeffs(a, 4)
        for k, expected in ((2, 1 + 0 * a), (3, 1 + a), (4, 1 + 4 * a + a * a)):
            ck = tc.coeffs[k]
            lead = ck.coefficient("y", k).constant_value()  # c = lead*(y+1)^k
            got = -math.factorial(k - 1) * (a - 1) ** k * lead * inv_scalar(a)
            assert got == expected, (order, k)


def test_todd_coeffs_minus_one_row3_vanishes():
    tc = todd_coeffs(F(-1), 4)
    assert tc.coeffs[3].is_zero()
    assert tc.coeffs[2] == (y + 1) ** 2 / 4


def quotient_todd_coeffs(a, order):
    """Oracle for a != 1: the full numerator d*(1 + a*y*exp(-d(y+1))) times
    the inverted series of the denominator 1 - a*exp(-d(y+1))."""
    yp1 = y + 1
    dens = [None]
    for j in range(1, order + 1):
        scalar = F((-1) ** (j + 1), math.factorial(j)) * a
        dens.append(scalar * yp1 ** j)
    inv0 = MultiPoly.const(inv_scalar(1 - a))
    inverse = [inv0]
    for k in range(1, order + 1):
        acc = MultiPoly.zero()
        for j in range(1, k + 1):
            acc = acc + dens[j] * inverse[k - j]
        inverse.append(-(acc * inv0))
    nums = [MultiPoly.zero(), MultiPoly.const(1) + a * y]
    for k in range(2, order + 1):
        scalar = F((-1) ** (k - 1), math.factorial(k - 1)) * a
        nums.append(scalar * y * yp1 ** (k - 1))
    coeffs = []
    for k in range(order + 1):
        acc = MultiPoly.zero()
        for j in range(1, k + 1):
            acc = acc + nums[j] * inverse[k - j]
        coeffs.append(acc)
    return coeffs


def test_todd_variants_agree():
    # the closed form the library uses against the quotient expansion, for
    # all 45 roots of orders 2 to 12; a = 1 is covered by the Bernoulli-row
    # tests
    roots = [cyclo_root_of_unity(k, m) for m in range(2, 13) for k in range(m)
             if math.gcd(k, m) == 1]
    assert len(roots) == 45
    for a in roots:
        a = a.as_rational() or a
        split = todd_coeffs(a, 6)
        quotient = quotient_todd_coeffs(a, 6)
        for k in range(7):
            assert split.coeffs[k] == quotient[k], (a, k)


def refuse_inverse(self):
    raise AssertionError("extended Euclid called")


def test_one_over_one_minus_a_needs_no_euclid(monkeypatch):
    # s_1(a) = 1/(1 - a) takes the closed form for every root, whether or
    # not it is stored as one power z^e, with or without its exponent, or
    # from the exponent alone; the exponent must give the root, a value that
    # is no root of unity is refused, and so is neither root nor exponent
    roots = [(F(num, den), cyclo_root_of_unity(num, den)) for num, den in
             ((1, 3), (2, 5), (5, 21), (7, 30), (1, 43), (500, 997), (29, 30), (996, 997))]
    roots.append((F(1, 2), F(-1)))
    expected = [inv_scalar(1 - a) for _, a in roots]
    todd._todd_scalar.cache_clear()  # rows cached by earlier tests would skip the computation
    monkeypatch.setattr(CycloNumber, "inverse", refuse_inverse)
    for (r, a), inv in zip(roots, expected):
        assert todd_coeffs(a, 4).scalars[1] == inv, r
        assert todd_coeffs(a, 4, exponent=r).scalars[1] == inv, r
        assert todd_coeffs(None, 4, exponent=r).scalars[1] == inv, r
        with pytest.raises(ValueError, match="is not the root of unity of exponent"):
            todd_coeffs(a, 4, exponent=r + F(1, 3))
    for a in (2 * cyclo_root_of_unity(1, 5), F(3), F(0)):
        with pytest.raises(ValueError, match="a must be a nonzero root of unity"):
            todd_coeffs(a, 4)
    with pytest.raises(ValueError, match="todd_coeffs needs a or its exponent"):
        todd_coeffs(None, 4)


def test_todd_coeffs_given_the_exponent_multiply_nothing_in_the_field(monkeypatch):
    # every s_k is one reduction of integer power sums times a Fraction: no
    # product of two field elements and no inverse
    roots = [(F(num, den), cyclo_root_of_unity(num, den)) for num, den in
             ((7, 30), (29, 30), (1, 37), (20, 37), (500, 997), (996, 997))]
    original = CycloNumber.__mul__

    def scalar_only(self, other):
        if isinstance(other, CycloNumber):
            raise AssertionError("product in the field")
        return original(self, other)

    todd._todd_scalar.cache_clear()  # rows cached by earlier tests would skip the computation
    monkeypatch.setattr(CycloNumber, "__mul__", scalar_only)
    monkeypatch.setattr(CycloNumber, "__rmul__", scalar_only)
    monkeypatch.setattr(CycloNumber, "inverse", refuse_inverse)
    rows = [todd_coeffs(a, 6, exponent=r).scalars for r, a in roots]
    monkeypatch.undo()
    for (r, a), scalars in zip(roots, rows):
        assert len(scalars) == 7 and scalars[0] == 0 and (1 - a) * scalars[1] == 1, r


def test_todd_coeffs_rejects_zero():
    with pytest.raises(ValueError):
        todd_coeffs(F(0), 3)


CACHE_ROOTS = [F(0), F(1, 2), F(2, 3), F(7, 30), F(29, 30), F(1, 37), F(20, 37), F(500, 997)]


def fresh_scalars(r, order):
    """The scalars of todd_coeffs computed without its cache: the integer
    power sums reduced once per k and scaled."""
    m, inv = r.denominator, pow(r.numerator, -1, r.denominator)
    out = []
    for k in range(order + 1):
        sums, scale = todd._todd_sums(m, k)
        s = cyclo_from_powers(m, [sums[p * inv % m] for p in range(m)]) * scale
        out.append(s.as_rational() if s.is_rational() else s)
    return out


@pytest.mark.parametrize("m, k", [(1, 0), (2, 1), (3, 4), (30, 2), (37, 5), (997, 4)])
def test_todd_sums_rows_are_the_bernoulli_sums(m, k):
    # N_j / D = m^k B_k(j/m) = sum_i C(k, i) B_i m^i j^(k - i), B_1 = -1/2, summed directly
    sums, scale = todd._todd_sums(m, k)
    terms = [math.comb(k, i) * (F(-1, 2) if i == 1 else bernoulli(i)) * m ** i for i in range(k + 1)]
    den = math.lcm(*(t.denominator for t in terms))
    assert sums == tuple(sum(t * den * j ** (k - i) for i, t in enumerate(terms)) for j in range(m))
    assert all(type(s) is int for s in sums)
    assert scale == F((-1) ** k, m * math.factorial(k) * den)


def test_todd_tables_are_bounded():
    # both process-wide tables of the coefficients are bounded; a row of
    # _todd_sums holds m integers, read only when _todd_scalar misses
    assert todd._todd_sums.cache_info().maxsize is not None
    assert todd._todd_scalar.cache_info().maxsize is not None


def test_todd_scalar_cache_matches_a_fresh_computation():
    # roots of orders 1, 2, 3, 30, 37 and 997, two roots each of orders 30
    # and 37, at every order 0..8: a row served from the cache, keyed by
    # (m, e, k), is the one computed afresh for that root
    todd._todd_scalar.cache_clear()
    for order in range(9):
        for r in CACHE_ROOTS:
            assert todd_coeffs(None, order, exponent=r).scalars == fresh_scalars(r, order), (r, order)
    assert todd._todd_scalar.cache_info().hits > 0


def test_todd_coeffs_reuses_the_lower_rows():
    todd._todd_scalar.cache_clear()
    todd_coeffs(None, 4, exponent=F(7, 30))
    assert todd._todd_scalar.cache_info()[:2] == (0, 5)  # (hits, misses)
    todd_coeffs(None, 6, exponent=F(7, 30))
    assert todd._todd_scalar.cache_info()[:2] == (5, 7)
    todd_coeffs(None, 6, exponent=F(23, 30))  # a conjugate root has rows of its own
    assert todd._todd_scalar.cache_info()[:2] == (5, 14)


def test_todd_coeffs_returns_a_fresh_scalars_list():
    r = F(2, 3)
    tc = todd_coeffs(None, 3, exponent=r)
    tc.scalars[1] = F(99)
    tc.scalars.append(F(1))
    again = todd_coeffs(None, 3, exponent=r)
    assert again.scalars == fresh_scalars(r, 3) and again.scalars is not tc.scalars


@pytest.mark.parametrize("shape", ["simplex3", "unit_cube", "legs_4_5_3"])
def test_vertex_keys_match_the_inline_table(shape, request):
    # the cached key table of each vertex is the list the integral used to
    # build inline from the vertex's facets
    P = simplex_with_legs(4, 5, 3) if shape == "legs_4_5_3" else request.getfixturevalue(shape)
    nfacets = len(P.halfspaces)
    for power in (P.ambient_dim, P.ambient_dim + 2):
        table = todd._multinomials(power, P.ambient_dim + 1)
        for i in range(len(P.vertices)):
            facets, _, _ = todd._vertex_frame(P, i)
            slot = {f: j + 1 for j, f in enumerate(facets)}
            inline = [tuple([e[slot[f]] if f in slot else 0 for f in range(nfacets)]) + e[:1]
                      for e, _ in table]
            assert list(todd._vertex_keys(power, facets, nfacets)) == inline, (shape, i)


def test_a_large_vertex_key_table_is_built_per_call_not_kept():
    # power 8 over 6 of 12 facets: C(14, 6) = 3,003 keys, past the 256 a kept
    # table may hold, so the table is built and the cache does not grow
    power, facets, nfacets = 8, (0, 2, 3, 7, 9, 11), 12
    before = todd._kept_key_table.cache_info().currsize
    table = todd._vertex_keys(power, facets, nfacets)
    assert todd._kept_key_table.cache_info().currsize == before
    slot = {f: j + 1 for j, f in enumerate(facets)}
    inline = [tuple([e[slot[f]] if f in slot else 0 for f in range(nfacets)]) + e[:1]
              for e, _ in todd._multinomials(power, len(facets) + 1)]
    assert len(inline) == 3003 and list(table) == inline
    # a small table is the kept one
    assert todd._vertex_keys(2, facets[:2], nfacets) is todd._vertex_keys(2, facets[:2], nfacets)


# --- deformed vertices and symbolic integration -----------------------


def test_deformed_vertex_triangle(right_triangle):
    h = h_of(right_triangle)
    dv = deformed_vertex(right_triangle, right_triangle.vertices.index((0, 0)))
    assert dv[0] == -h[(1, 0)]
    assert dv[1] == -h[(0, 1)]


def test_deformed_vertex_square_undeformed(unit_square):
    vi = unit_square.vertices.index((1, 1))
    dv = deformed_vertex(unit_square, vi)
    zero_h = {n: 0 for n in h_variable_names(unit_square)}
    values = [comp.substitute(zero_h).substitute({"t": 1}).constant_value() for comp in dv]
    assert values == [1, 1]


def test_dual_basis_kronecker(right_triangle, unit_cube):
    for P in (right_triangle, unit_cube):
        for vi in range(len(P.vertices)):
            basis = dual_basis_at_vertex(P, vi)
            for fj, m in basis.items():
                for fk in basis:
                    dot = sum(a * b for a, b in zip(m, P.halfspaces[fk].normal))
                    assert dot == (1 if fj == fk else 0)


def test_deformed_vertex_requires_simple(pyramid):
    apex = pyramid.vertices.index((0, 0, 0))
    with pytest.raises(ValueError, match="not simple at vertex"):
        todd._vertex_frame(pyramid, apex)


def test_deformed_vertex_membership(right_triangle, unit_cube):
    # each deformed vertex satisfies its own facet equations exactly, as
    # identities in t and all h, and stays weakly inside the others at h = 0
    for P in (right_triangle, unit_cube):
        lat = P.face_lattice
        zero_h = {n: 0 for n in h_variable_names(P)}
        for vi in range(len(P.vertices)):
            dv = deformed_vertex(P, vi)
            on = lat.faces[lat.index_of({vi})].containing_facets
            for fi, hs in enumerate(P.halfspaces):
                expr = MultiPoly.zero()
                for c, comp in zip(hs.normal, dv):
                    expr = expr + c * comp
                expr = expr + hs.offset * t + MultiPoly.variable(f"h{fi + 1}")
                if fi in on:
                    assert expr.is_zero()
                else:
                    at0 = expr.substitute(zero_h)
                    coeff = at0.coefficient("t", 1).constant_value()
                    assert coeff > 0 and at0 == coeff * t


def test_triangle_volume_integral(right_triangle):
    h = h_of(right_triangle)
    h1, h2, h3 = h[(0, 1)], h[(1, 0)], h[(-1, -2)]
    si = symbolic_integral(right_triangle, WeightPoly.one(2))
    assert si.poly == (2 * h1 + h2 + h3 + 2 * t) ** 2 / 4
    assert si.poly.is_homogeneous()


@pytest.mark.parametrize("ab", [(1, 0), (0, 1), (2, 3)])
def test_triangle_linear_integral(right_triangle, ab):
    a, b = ab
    h = h_of(right_triangle)
    h1, h2, h3 = h[(0, 1)], h[(1, 0)], h[(-1, -2)]
    phi = WeightPoly(MultiPoly(("x1", "x2"), {(1, 0): F(a), (0, 1): F(b)}), 2)
    si = symbolic_integral(right_triangle, phi)
    expected = (2 * h1 + h2 + h3 + 2 * t) ** 2 * \
        (2 * a * (2 * h1 - 2 * h2 + h3 + 2 * t) + b * (-4 * h1 + h2 + h3 + 2 * t)) / 24
    assert si.poly == expected


def test_square_integral_at_h0(unit_square):
    si = symbolic_integral(unit_square, WeightPoly.one(2))
    assert si.poly.substitute({n: 0 for n in h_variable_names(unit_square)}) == t ** 2


def test_integral_matches_box_volume():
    box = build_polytope([(a, b) for a in (0, 3) for b in (0, 2)])
    si = symbolic_integral(box, WeightPoly.one(2))
    at = si.poly.substitute({n: 0 for n in h_variable_names(box)})
    assert at == 6 * t ** 2


def test_triangulation_invariance(right_triangle, unit_cube):
    # the vertex formula equals the triangulation oracle whichever vertex
    # the pulling triangulation cones from
    for P in (right_triangle, unit_cube):
        n = P.ambient_dim
        for phi in (WeightPoly.one(n), WeightPoly.monomial(n, (1,) * n)):
            si = symbolic_integral(P, phi).poly
            for anchor in ("min", "max"):
                assert si == triangulation_integral(P, phi, anchor), (P.vertices, anchor)


def oracle_weights(n, degree):
    """1, x1^k for k <= degree, and two mixed weights."""
    out = [WeightPoly.monomial(n, (k,) + (0,) * (n - 1)) for k in range(degree + 1)]
    names = tuple(f"x{i + 1}" for i in range(n))
    out.append(WeightPoly(MultiPoly(names, {(1, 0) + (0,) * (n - 2): F(3),
                                            (0, 1) + (0,) * (n - 2): F(-2)}), n))
    out.append(WeightPoly(MultiPoly(names, {(1, 1) + (0,) * (n - 2): F(1),
                                            (0, 2) + (0,) * (n - 2): F(5, 7)}), n))
    return out


@pytest.mark.parametrize("seeds", [(11, 7), (103, 105)])
def test_vertex_formula_matches_oracle_on_corpora(seeds):
    # the corpus sizes of tests/conftest.py, at its seeds and at two others
    shapes = random_corpus(seeds[0], 15, 2, 3) + random_corpus(seeds[1], 10, 3, 2)
    for P in (P for P in shapes if P.simple):
        for phi in oracle_weights(P.ambient_dim, 3):
            assert symbolic_integral(P, phi).poly == triangulation_integral(P, phi), \
                (P.vertices, phi.poly)


@pytest.mark.parametrize("vertices", [
    [(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 0), (2, 0), (0, 1)],
    [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)],
    [(0, 0), (30, 0), (0, 17)], [(0, 0, 0), (4, 0, 0), (0, 5, 0), (0, 0, 3)],
    [(0, 0), (60, 0), (0, 37)], [(0, 0), (1000, 0), (0, 997)],
    [(0, 0, 0), (5, 0, 0), (0, 7, 0), (0, 0, 3)]])
def test_vertex_formula_matches_oracle_on_named_shapes(vertices):
    P = build_polytope(vertices)
    for phi in oracle_weights(P.ambient_dim, 3):
        assert symbolic_integral(P, phi).poly == triangulation_integral(P, phi), phi.poly


@pytest.mark.parametrize("vertices, weights", [
    (list(product((0, 1), repeat=4)), [(0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0)]),
    ([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
     [(0, 0, 0, 0), (4, 0, 0, 0), (1, 1, 1, 1), (2, 1, 1, 0)]),
    ([(a, b, c) for a in (0, 2) for b in (0, 3) for c in (0, 1)],
     [(4, 0, 0), (1, 1, 1), (2, 0, 2), (1, 3, 0)])])
def test_vertex_formula_matches_oracle_up_to_degree_4(vertices, weights):
    P = build_polytope(vertices)
    for exps in weights:
        phi = WeightPoly.monomial(P.ambient_dim, exps)
        assert symbolic_integral(P, phi).poly == triangulation_integral(P, phi), exps
    names = tuple(f"x{i + 1}" for i in range(P.ambient_dim))
    mixed = {exps: F(k + 1, 3) for k, exps in enumerate(weights) if sum(exps) == 4}
    phi = WeightPoly(MultiPoly(names, mixed), P.ambient_dim)
    assert symbolic_integral(P, phi).poly == triangulation_integral(P, phi)


def test_shift_search_skips_a_non_regular_form(monkeypatch):
    # the edge from (0, 0) to (2, -1) is orthogonal to the first shift
    # (1, 2), so the search goes on to (1, 3)
    P = build_polytope([(0, 0), (2, -1), (0, 1)])
    v = P.vertices.index((0, 0))
    assert any(sum(a * b for a, b in zip((1, 2), m)) == 0
               for m in dual_basis_at_vertex(P, v).values())
    shifts = []
    original = todd._vertex_terms

    def recorded(forms, cones, shift, degree):
        shifts.append(list(shift))
        return original(forms, cones, shift, degree)

    monkeypatch.setattr(todd, "_vertex_terms", recorded)
    for phi in (WeightPoly.one(2), WeightPoly.monomial(2, (1, 0))):
        shifts.clear()
        assert symbolic_integral(P, phi).poly == triangulation_integral(P, phi)
        assert shifts == [[1, 2], [1, 3]]
    assert verify_todd_formula(P)


def test_integral_degree(simplex3):
    phi = WeightPoly.monomial(3, (2, 0, 0))
    si = symbolic_integral(simplex3, phi)
    assert si.poly.is_homogeneous()
    assert si.poly.degree() == 3 + 2


# --- the operator formula ---------------------------------------------


def test_apply_todd_triangle(right_triangle):
    result = apply_todd(right_triangle)
    assert result == (q ** 2 - 2 * q + 1) * y ** 2 + (2 * q ** 2 - 1) * y + q ** 2 + 2 * q + 1


@pytest.mark.parametrize("ab", [(1, 0), (0, 1)])
def test_apply_todd_triangle_linear(right_triangle, ab):
    a, b = ab
    phi = WeightPoly(MultiPoly(("x1", "x2"), {(1, 0): F(a), (0, 1): F(b)}), 2)
    got = apply_todd(right_triangle, phi)
    inner = (y ** 2 * (F(2, 3) * a * q ** 3 - F(3, 2) * a * q ** 2 + F(5, 6) * a * q
                       + F(1, 3) * b * q ** 3 - F(1, 2) * b * q ** 2 + F(1, 6) * b * q)
             + y * (F(4, 3) * a * q ** 3 - F(1, 3) * a * q
                    + F(2, 3) * b * q ** 3 - F(2, 3) * b * q)
             + F(2, 3) * a * q ** 3 + F(3, 2) * a * q ** 2 + F(5, 6) * a * q
             + F(1, 3) * b * q ** 3 + F(1, 2) * b * q ** 2 + F(1, 6) * b * q)
    assert got == (y + 1) * inner


def test_apply_todd_square_against_face_sums(unit_square):
    assert apply_todd(unit_square) == build_gfun(unit_square).poly


def test_verify_named_shapes(simplex2, unit_square, unit_cube, right_triangle):
    weights = {
        2: [WeightPoly.one(2), WeightPoly.monomial(2, (1, 0)), WeightPoly.monomial(2, (2, 0))],
        3: [WeightPoly.one(3), WeightPoly.monomial(3, (1, 0, 0)), WeightPoly.monomial(3, (2, 0, 0))],
    }
    for P in (simplex2, unit_square, unit_cube, right_triangle):
        for phi in weights[P.ambient_dim]:
            assert verify_todd_formula(P, phi), (P, phi.poly)


def test_verify_mixed_weight(right_triangle):
    phi = WeightPoly(MultiPoly(("x1", "x2"), {(1, 0): F(1), (0, 1): F(1)}), 2)
    assert verify_todd_formula(right_triangle, phi)
    phi2 = WeightPoly(MultiPoly(("x1", "x2"), {(1, 1): F(1)}), 2)
    assert verify_todd_formula(right_triangle, phi2)


def test_verify_weights_over_some_variables_in_any_order(unit_cube, right_triangle):
    # the integral and the operator read phi's exponents by position
    phi3 = WeightPoly(MultiPoly(("x3", "x1"), {(2, 1): F(3), (0, 3): F(-1, 2)}), 3)
    box = build_polytope([(a, b, c) for a in (0, 2) for b in (0, 1) for c in (0, 1)])
    for P in (unit_cube, box):
        assert verify_todd_formula(P, phi3)
    phi2 = WeightPoly(MultiPoly(("x2",), {(2,): F(5, 3)}), 2)
    assert verify_todd_formula(right_triangle, phi2)


def test_apply_todd_requires_simple(pyramid):
    with pytest.raises(ValueError, match="simple"):
        apply_todd(pyramid)


def test_verify_high_index_cones():
    # cone indices 7, 7, 21: the cancellation runs through roots of unity
    # of order up to 21
    sharp = build_polytope([(0, 0), (5, 2), (2, 5)])
    fan = normal_fan(sharp)
    assert sorted(c.index for c in fan.maximal_cones()) == [7, 7, 21]
    assert verify_todd_formula(sharp)
    assert verify_todd_formula(sharp, WeightPoly.monomial(2, (1, 0)))


def test_verify_translated_and_negative_shapes():
    tri = build_polytope([(-3, -2), (-1, -2), (-3, -1)])
    assert verify_todd_formula(tri)
    simp = build_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, -3)])
    fan = normal_fan(simp)
    assert all(c.index == 9 for c in fan.maximal_cones())
    assert verify_todd_formula(simp)
    assert verify_todd_formula(simp, WeightPoly.monomial(3, (0, 0, 1)))


def test_uncancelled_cyclotomic_part_is_an_invariant_violation(tmp_path, capsys, monkeypatch):
    # the index-3 cone of this triangle gives zeta_3 values; without one of
    # the two points that carry them the Todd sum is not rational
    vertices = [[0, 0], [3, 0], [0, 1]]
    full = todd.gamma_set

    def dropped(fan):
        gam = full(fan)
        i = next(i for i, vals in enumerate(gam.a_values)
                 if any(isinstance(v, CycloNumber) for v in vals))
        return GammaSet(gam.points[:i] + gam.points[i + 1:],
                        gam.exponents[:i] + gam.exponents[i + 1:])

    assert verify_todd_formula(build_polytope(vertices))
    monkeypatch.setattr(todd, "gamma_set", dropped)
    with pytest.raises(RuntimeError, match="failed to cancel"):
        apply_todd(build_polytope(vertices))
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"vertices": vertices}))
    assert cli.main(["--format", "json", "todd", "--polytope", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "invariant-violation"
    assert "failed to cancel" in payload["error"]


# a fixed unimodular matrix and integer translation per dimension
UNIMODULAR = {2: (((2, 1), (1, 1)), (3, -2)),
              3: (((1, 1, 0), (0, 1, 1), (1, 1, 1)), (-1, 2, 1))}


def test_unimodular_image_keeps_gfun_and_todd(corpus2d, corpus3d):
    # G for weight 1 counts lattice points of faces, which an affine
    # automorphism of Z^n preserves; the Todd route must agree on the image
    shapes = [P for P in (*corpus2d, *corpus3d) if P.simple]
    shapes.append(build_polytope([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1)]))
    for M, b in UNIMODULAR.values():
        assert abs(det([list(row) for row in M])) == 1
    for P in shapes:
        M, b = UNIMODULAR[P.ambient_dim]
        image = build_polytope([tuple(sum(m * x for m, x in zip(row, v)) + c
                                      for row, c in zip(M, b)) for v in P.vertices])
        assert build_gfun(image).poly == build_gfun(P).poly, P.vertices
        assert verify_todd_formula(image), P.vertices


# --- Galois orbits of the parallelepiped points -------------------------


def root_order(value):
    if isinstance(value, CycloNumber):
        return value.order
    return 1 if value == 1 else 2


def test_gamma_set_splits_into_complete_galois_orbits(corpus2d, corpus3d):
    # sigma_k maps each value a to a^k; for k coprime to the lcm m of a
    # point's orders the conjugate tuple must be another point's values,
    # with phi(m) distinct conjugates in all
    shapes = [P for P in (*corpus2d, *corpus3d) if P.simple]
    shapes += [build_polytope([(0, 0), (30, 0), (0, 17)]),
               build_polytope([(0, 0, 0), (4, 0, 0), (0, 5, 0), (0, 0, 3)])]
    for P in shapes:
        gam = gamma_set(normal_fan(P))
        values = set(gam.a_values)
        assert len(values) == len(gam.points)
        for vals in gam.a_values:
            m = math.lcm(*(root_order(a) for a in vals))
            conjugates = {tuple(a ** k for a in vals)
                          for k in range(1, m + 1) if math.gcd(k, m) == 1}
            assert len(conjugates) == euler_phi(m)
            assert conjugates <= values, P.vertices
        orbits = todd._galois_orbits(gam)
        roots = dict(zip(gam.exponents, gam.a_values))
        assert all(m == math.lcm(*(root_order(a) for a in roots[rho])) for rho, m in orbits)
        assert sum(euler_phi(m) for _, m in orbits) == len(gam.points)


def test_incomplete_orbit_names_point_order_and_member():
    # the (3,1) triangle's zeta_3 points (0, -2) and (0, -1) form one orbit
    gam = gamma_set(normal_fan(build_polytope([(0, 0), (3, 0), (0, 1)])))
    assert gam.points == ((0, -2), (0, -1), (0, 0))
    with pytest.raises(RuntimeError, match=r"failed to cancel.*point \(0, -1\) \(order 3\).*"
                                           r"\(2/3, 0, 2/3\)"):
        todd._galois_orbits(GammaSet(gam.points[1:], gam.exponents[1:]))
    with pytest.raises(RuntimeError, match="failed to cancel.*orbits hold 3 points, the gamma set 4"):
        todd._galois_orbits(GammaSet(gam.points + gam.points[:1],
                                     gam.exponents + gam.exponents[:1]))


def test_apply_todd_reaches_todd_coeffs_through_the_module_global(monkeypatch):
    # the benchmark's tracer times the todd_coeffs layer by rebinding this
    # global; apply_todd must keep resolving it there
    P = build_polytope([(0, 0), (5, 2), (2, 5)])
    expected = apply_todd(P)
    exponents = []
    original = todd.todd_coeffs

    def counted(a, order, **kwargs):
        exponents.append(kwargs["exponent"])
        return original(a, order, **kwargs)

    monkeypatch.setattr(todd, "todd_coeffs", counted)
    assert apply_todd(P) == expected
    assert exponents and any(r.denominator > 2 for r in exponents)


@pytest.mark.parametrize("vertices", [[(0, 0), (60, 0), (0, 37)],
                                      [(0, 0, 0), (5, 0, 0), (0, 7, 0), (0, 0, 3)]])
def test_verify_high_index_cases(vertices):
    # vertex-cone indices 37 and 60, and 15, 21 and 35: thirteen and seven
    # Galois orbits, in fields of degree up to 36
    assert verify_todd_formula(build_polytope(vertices))


def test_apply_todd_large_prime_index_triangle():
    # vertex-cone indices 1, 997 and 1000: 1,996 parallelepiped points in 17
    # Galois orbits, one of them in the field of order 997 and degree 996.
    # The y^0 part is Pick's Ehrhart polynomial: area 498500, 1998 boundary
    # points
    G = apply_todd(build_polytope([(0, 0), (1000, 0), (0, 997)]))
    ehrhart = {exps: c for exps, c in G.terms.items() if exps[G.vars.index("y")] == 0}
    assert MultiPoly(G.vars, ehrhart) == 498500 * q ** 2 + 999 * q + 1


def test_verify_large_prime_index_triangle():
    # the same triangle against the face sums, whose scan takes about a second
    assert verify_todd_formula(build_polytope([(0, 0), (1000, 0), (0, 997)]))


def test_apply_todd_prime_index_9973_triangle(monkeypatch):
    # an orbit of order 9973, so products of two cyclotomic scalars are
    # Kronecker products in the group ring; the y^0 part is Pick's Ehrhart
    # polynomial: area 49865000, 19974 boundary points
    orders = []
    original = todd.gmul

    def recorded(a, b, m):
        orders.append(m)
        return original(a, b, m)

    monkeypatch.setattr(todd, "gmul", recorded)
    G = apply_todd(build_polytope([(0, 0), (10000, 0), (0, 9973)]))
    assert 9973 in orders
    ehrhart = {exps: c for exps, c in G.terms.items() if exps[G.vars.index("y")] == 0}
    assert MultiPoly(G.vars, ehrhart) == 49865000 * q ** 2 + 9987 * q + 1


@pytest.mark.parametrize("legs, weight", [((3, 4, 5, 7), (2, 0, 0, 0)),
                                          ((1, 1, 1, 1, 1), (2, 0, 0, 0, 0)),
                                          ((2, 3, 5, 7), (0, 0, 0, 0))])
def test_verify_4_and_5_dimensional_simplices(legs, weight):
    # vertex-cone indices up to 140 in dimension 4; the unit 5-simplex is
    # unimodular but runs the operator in six facet variables
    assert verify_todd_formula(simplex_with_legs(*legs), WeightPoly.monomial(len(legs), weight))


def test_verify_index_1849_simplex():
    # every vertex cone has index 1849 = 43^2: 7,141 parallelepiped points in
    # 171 Galois orbits, all but one in the field of order 43
    P = build_polytope([(0, 1, 3), (1, 0, -1), (2, -2, 2), (3, 3, -1)])
    assert all(c.index == 1849 for c in normal_fan(P).maximal_cones())
    assert verify_todd_formula(P)


HIGH_INDEX = [[(0, 0), (60, 0), (0, 37)], [(0, 0, 0), (5, 0, 0), (0, 7, 0), (0, 0, 3)]]


def test_apply_todd_calls_no_extended_euclid(monkeypatch):
    # apply_todd passes each root's exponent to todd_coeffs, so every root,
    # whether or not it is stored as one power, takes the closed form
    shapes = [build_polytope(v) for v in HIGH_INDEX]
    expected = [apply_todd(P) for P in shapes]
    todd._todd_scalar.cache_clear()  # the rows are computed again under the patch

    monkeypatch.setattr(CycloNumber, "inverse", refuse_inverse)
    assert [apply_todd(P) for P in shapes] == expected


def test_apply_todd_builds_no_root(monkeypatch):
    # todd_coeffs reads each root from its exponent, so apply_todd never
    # builds the root itself
    shapes = [build_polytope(v) for v in HIGH_INDEX]
    expected = [apply_todd(P) for P in shapes]
    todd._todd_scalar.cache_clear()  # the rows are computed again under the patch

    def refuse_root(num, den):
        raise AssertionError(f"root exp(2 pi i {num}/{den}) built")

    monkeypatch.setattr(todd, "cyclo_root_of_unity", refuse_root)
    assert [apply_todd(P) for P in shapes] == expected


def test_apply_todd_rejects_a_wrong_dimension_weight_before_the_scan(monkeypatch):
    def refuse(fan):
        raise AssertionError("gamma_set called")

    monkeypatch.setattr(todd, "gamma_set", refuse)
    triangle = build_polytope([(0, 0), (3, 0), (0, 1)])
    with pytest.raises(ValueError, match="weight polynomial dimension does not match polytope"):
        apply_todd(triangle, WeightPoly.monomial(3, (1, 0, 0)))


def test_apply_todd_convolves_no_fraction(monkeypatch, corpus3d):
    # the operator runs on integer tables: each entry is an int or the integer
    # coefficients of a group-ring element, and one Fraction per output
    # coefficient is built at the end
    cases = [(build_polytope(HIGH_INDEX[1]), WeightPoly.monomial(3, (2, 0, 0)))]
    cases += [(P, WeightPoly.one(3)) for P in corpus3d if P.simple]
    expected = [apply_todd(P, phi) for P, phi in cases]
    original, calls = todd.gmul, []

    def integral_only(a, b, m):
        assert all(type(c) is int for c in (*a, *b)), (a, b)
        calls.append(m)
        return original(a, b, m)

    monkeypatch.setattr(todd, "gmul", integral_only)
    assert [apply_todd(P, phi) for P, phi in cases] == expected
    assert calls


# sha256 of the JSON list of apply_todd(P, phi).to_json() for each shape and
# the weights 1, x1 and x1^2, taken before the operator moved onto integer
# tables
TODD_SHAPES = [[(0, 0), (30, 0), (0, 17)], [(0, 0), (60, 0), (0, 37)],
               [(0, 0, 0), (4, 0, 0), (0, 5, 0), (0, 0, 3)], HIGH_INDEX[1]]
TODD_DIGEST = "cc31d008b8cd328d2be532e69e03d9d849fe198c8842c496783a60303718be71"


def test_apply_todd_json_digest():
    out = []
    for vertices in TODD_SHAPES:
        P = build_polytope(vertices)
        n = P.ambient_dim
        for phi in (WeightPoly.one(n), WeightPoly.monomial(n, (1,) + (0,) * (n - 1)),
                    WeightPoly.monomial(n, (2,) + (0,) * (n - 1))):
            out.append(apply_todd(P, phi).to_json())
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == TODD_DIGEST


PYRAMID = build_polytope([(0, 0, 0), (1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
TRIANGLE = build_polytope([(0, 0), (2, 0), (0, 1)])


@pytest.mark.parametrize("call, message", [
    (lambda: todd_coeffs(F(1), -1), "truncation order must be nonnegative"),
    (lambda: todd_coeffs("x", 3), "a must be a rational or cyclotomic number"),
    (lambda: symbolic_integral(PYRAMID, WeightPoly.one(3)),
     "normal fan machinery requires a simple polytope"),
    (lambda: symbolic_integral(TRIANGLE, WeightPoly.one(3)),
     "weight polynomial dimension does not match polytope"),
], ids=["negative-order", "non-number", "non-simple", "weight-width"])
def test_rejections(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
