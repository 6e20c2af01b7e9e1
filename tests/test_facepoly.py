"""f/g/h polynomials, dual faces, master duality, and the g identity."""
import itertools
import re
from fractions import Fraction

import pytest

from latticegfun import (GradedPoset, MultiPoly, build_polytope, check_master_duality,
                         cross_polytope, cube_face_poset, dual_g, fg_polynomials,
                         gessel_cube_g, h_polynomial, random_corpus)

F = Fraction
x = MultiPoly.variable("x")
t = MultiPoly.variable("t")


def poset_of(P):
    return GradedPoset.from_face_lattice(P.face_lattice)


def reversed_interval(lat, low):
    """The interval [low, P] of the face lattice with order reversed, read
    from ``FaceLattice.leq``: ranks are codimensions, P is the bottom and
    face ``low`` the top."""
    members = [j for j in range(len(lat)) if lat.leq(low, j)]
    n = lat.faces[lat.top_index].dim
    return GradedPoset([n - lat.faces[j].dim for j in members],
                       [{k for k, i in enumerate(members) if i != j and lat.leq(j, i)}
                        for j in members])


def mgon_poset(m):
    """Abstract face poset of an m-gon: a cycle of m vertices and m edges."""
    ranks = [0] + [1] * m + [2] * m + [3]
    below = [set() for _ in range(2 * m + 2)]
    for v in range(1, m + 1):
        below[v] = {0}
    for e in range(m):
        below[m + 1 + e] = {0, 1 + e, 1 + (e + 1) % m}
    below[2 * m + 1] = set(range(2 * m + 1))
    return GradedPoset(ranks, below)


def test_h_polynomial_simplices(simplex2, simplex3, segment):
    assert h_polynomial(segment) == t + 1
    assert h_polynomial(simplex2) == t ** 2 + t + 1
    assert h_polynomial(simplex3) == t ** 3 + t ** 2 + t + 1


def test_h_polynomial_cube_and_square(unit_cube, unit_square):
    # oracle: resum the f-vector with an independent Horner loop
    def resum(fvec):
        total = MultiPoly.zero()
        for k, fk in enumerate(fvec):
            total = total + fk * (t - 1) ** k
        return total

    assert h_polynomial(unit_cube) == resum((8, 12, 6, 1)) == t ** 3 + 3 * t ** 2 + 3 * t + 1
    assert h_polynomial(unit_square) == resum((4, 4, 1)) == t ** 2 + 2 * t + 1


def test_fg_simplices(simplex2, simplex3, segment):
    for P in (segment, simplex2, simplex3):
        f, g = fg_polynomials(poset_of(P))
        assert g == 1
        n = P.ambient_dim
        assert f.degree_in("x") == n


def test_fg_square(unit_square):
    f, g = fg_polynomials(poset_of(unit_square))
    assert g == 1 + x
    assert f == x ** 2 + 2 * x + 1


def test_fg_mgons():
    for m in range(3, 9):
        _, g = fg_polynomials(mgon_poset(m))
        assert g == 1 + (m - 3) * x


def test_g_degree_bound(pyramid, unit_cube, octahedron, corpus2d, corpus3d):
    for P in [pyramid, unit_cube, octahedron, *corpus2d, *corpus3d]:
        _, g = fg_polynomials(poset_of(P))
        assert g.degree_in("x") <= P.ambient_dim // 2


@pytest.mark.parametrize("ranks, below, reason", [
    ([0, 0], [set(), set()], "no unique rank-0 bottom"),
    ([0, 1, 1], [set(), {0}, {0}], "no unique top"),
    ([0, 1, 1], [set(), {0}, {0, 1}], "order violates rank"),
    ([0, 2], [set(), {0}], "cover skips a rank"),
    # below[2] = {1} leaves out the bottom under 1: the order is not
    # transitively closed, and the top's bottom lies under none of its covers
    ([0, 1, 2, 3], [set(), {0}, {1}, {0, 1, 2}], "cover skips a rank"),
    # the top has two covers of rank 2 and the atom 3 under neither
    ([0, 1, 1, 1, 2, 2, 3], [set(), {0}, {0}, {0}, {0, 1}, {0, 2}, {0, 1, 2, 3, 4, 5}],
     "cover skips a rank"),
], ids=["two-bottoms", "two-maximal", "order-violates-rank", "cover-skips-a-rank",
        "not-transitively-closed", "cover-beside-two-covers"])
def test_non_ranked_poset_rejected(ranks, below, reason):
    with pytest.raises(ValueError, match=f"not ranked: {reason}"):
        GradedPoset(ranks, below)


def test_dual_g_facet_and_top(pyramid):
    lat = pyramid.face_lattice
    for i in lat.faces_of_dim(2):
        assert dual_g(pyramid, lat.faces[i]) == 1
    assert dual_g(pyramid, lat.faces[lat.top_index]) == 1


def test_dual_g_pyramid_apex(pyramid):
    lat = pyramid.face_lattice
    apex = lat.faces[lat.index_of({pyramid.vertices.index((0, 0, 0))})]
    assert dual_g(pyramid, apex) == 1 + x
    # the four base vertices are simple; their dual g is trivial
    for i in lat.faces_of_dim(0):
        if lat.faces[i] is not apex:
            assert dual_g(pyramid, lat.faces[i]) == 1


def test_dual_g_cube_vertex(unit_cube):
    lat = unit_cube.face_lattice
    v = lat.faces[lat.faces_of_dim(0)[0]]
    assert dual_g(unit_cube, v) == 1


def test_dual_g_trivial_for_simple(unit_cube, simplex3, corpus2d):
    # the Boolean shortcut shares two immutable constants: one for F = P,
    # one over x for every other face
    results = []  # all held, so no id is reused
    for P in [unit_cube, simplex3, *[Q for Q in corpus2d if Q.simple]]:
        lat = P.face_lattice
        for i in lat.nonempty():
            results.append(dual_g(P, lat.faces[i]))
            assert results[-1] == 1
    assert len({id(g) for g in results}) == 2


def test_dual_g_matches_reversed_interval(pyramid, corpus2d, corpus3d):
    # oracle: the poset of each reversed interval on its own, which neither
    # the Boolean-interval shortcut nor the one-pass table of dual_g builds
    held_out = random_corpus(105, count=10, dim=3, max_coord=2)
    assert sum(not P.simple for P in [*corpus3d, *held_out]) >= 5
    for P in [*corpus2d, *corpus3d, *held_out, pyramid, cross_polytope(3), cross_polytope(4)]:
        lat = P.face_lattice
        for i in lat.nonempty():
            _, expected = fg_polynomials(reversed_interval(lat, i))
            assert dual_g(P, lat.faces[i]).to_json() == expected.to_json()


def test_gessel_closed_form():
    assert gessel_cube_g(0) == 1
    assert gessel_cube_g(1) == 1
    assert gessel_cube_g(2) == 1 + x
    assert gessel_cube_g(3) == 1 + 4 * x


def test_gessel_matches_recursion():
    for n in range(8):
        _, g = fg_polynomials(cube_face_poset(n))
        assert g == gessel_cube_g(n), n


@pytest.mark.parametrize("n", range(1, 5))
def test_cube_face_poset_is_the_cube_face_lattice(n):
    P = build_polytope(list(itertools.product((0, 1), repeat=n)))
    lattice, Q = P.face_lattice, cube_face_poset(n)
    # element 0 of Q is the empty face, then the words in product order;
    # each word goes to the face holding the cube vertices it matches
    words = itertools.product("01*", repeat=n)
    image = [lattice.empty_index] + [
        lattice.index_of(i for i, v in enumerate(P.vertices)
                         if all(c == "*" or int(c) == x for c, x in zip(w, v)))
        for w in words]
    assert sorted(image) == list(range(len(lattice.faces)))
    R = poset_of(P)
    assert [R.ranks[k] for k in image] == list(Q.ranks)
    assert [{image[i] for i in b} for b in Q.below] == [R.below[k] for k in image]


def test_gessel_matches_geometry(unit_cube, unit_square):
    _, g3 = fg_polynomials(poset_of(unit_cube))
    assert g3 == gessel_cube_g(3)
    _, g2 = fg_polynomials(poset_of(unit_square))
    assert g2 == gessel_cube_g(2)


def test_master_duality(pyramid, unit_cube, octahedron, corpus2d, corpus3d):
    for P in [pyramid, unit_cube, octahedron, *corpus2d, *corpus3d]:
        assert check_master_duality(poset_of(P))


def subposet_g(lat, i):
    """g of the interval [empty, face i], built independently."""
    members = [j for j in range(len(lat.faces)) if lat.leq(j, i)]
    ranks = [lat.faces[j].rank for j in members]
    below = [{k for k, jj in enumerate(members) if jj != j and lat.leq(jj, j)}
             for j in members]
    _, g = fg_polynomials(GradedPoset(ranks, below))
    return g


def g_identity_holds(P):
    """x^(n+1) g(1/x) must equal the sum of g_F (x-1)^(n-dim F) over all
    faces including the empty one and P itself."""
    lat = P.face_lattice
    n = P.ambient_dim
    _, gP = fg_polynomials(GradedPoset.from_face_lattice(lat))
    left = MultiPoly.zero()
    for k, c in gP.coefficients_in("x").items():
        left = left + c.constant_value() * x ** (n + 1 - k)
    right = MultiPoly.zero()
    for i, face in enumerate(lat.faces):
        gF = MultiPoly.const(1) if face.dim < 0 else subposet_g(lat, i)
        right = right + gF * (x - 1) ** (n - face.dim)
    return left == right


def test_g_reversal_identity(pyramid, unit_cube, octahedron, corpus2d, corpus3d):
    for P in [pyramid, unit_cube, octahedron, *corpus2d, *corpus3d]:
        assert g_identity_holds(P)


def test_dehn_sommerville_h_symmetry(unit_cube, corpus2d, corpus3d):
    for P in [unit_cube, *corpus2d, *corpus3d]:
        if not P.simple:
            continue
        n = P.ambient_dim
        coeffs = {k: c.constant_value()
                  for k, c in h_polynomial(P).coefficients_in("t").items()}
        assert all(coeffs.get(k, F(0)) == coeffs.get(n - k, F(0)) for k in range(n + 1))
        assert all(coeffs.get(k, F(0)) >= 0 for k in range(n + 1))


def test_fg_polynomials_vars_at_low_rank():
    point = GradedPoset([0], [set()])
    edge = GradedPoset([0, 1], [set(), {0}])
    assert [p.to_json() for p in fg_polynomials(point)] == [
        {"vars": [], "terms": [{"coeff": "1", "exps": []}]}] * 2
    f, g = fg_polynomials(edge)
    assert f.to_json() == {"vars": [], "terms": [{"coeff": "1", "exps": []}]}
    assert g.to_json() == {"vars": ["x"], "terms": [{"coeff": "1", "exps": [0]}]}


def dense_json(var, coeffs):
    """The JSON of a polynomial in at most one variable, lowest power first."""
    return {"vars": [var] if var else [],
            "terms": [{"coeff": str(c), "exps": [k] if var else []} for k, c in enumerate(coeffs)]}


# to_json pins the variable tuple too, which == ignores: the cube g is a
# constant over no variables below dimension 2, and h is always in t
@pytest.mark.parametrize("n, var, coeffs", [
    (0, None, [1]), (1, None, [1]), (2, "x", [1, 1]), (3, "x", [1, 4]),
    (4, "x", [1, 11, 2]), (5, "x", [1, 26, 15]), (6, "x", [1, 57, 69, 5]),
])
def test_gessel_cube_g_json(n, var, coeffs):
    assert gessel_cube_g(n).to_json() == dense_json(var, coeffs)


def test_h_polynomial_json(segment, unit_square, pyramid):
    cube4 = build_polytope(list(itertools.product((0, 1), repeat=4)))
    for P, coeffs in [(segment, [1, 1]), (unit_square, [1, 2, 1]), (pyramid, [1, 1, 2, 1]),
                      (cube4, [1, 4, 6, 4, 1])]:
        assert h_polynomial(P).to_json() == dense_json("t", coeffs)


@pytest.mark.parametrize("call, message", [
    (lambda: gessel_cube_g(-1), "dimension must be nonnegative"),
], ids=["gessel-negative-dimension"])
def test_rejections(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
