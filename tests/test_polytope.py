"""Polytope construction, face lattice, and lattice point enumeration."""
import math
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegfun import (build_polytope, cross_polytope, iter_lattice_points,
                         pulling_triangulation, volume)
from latticegfun.polytope import scan_box

from hull_reference import reference_hull
from linalg_reference import leibniz_det, rank, solve

F = Fraction


def brute_points_in(predicate, box, q):
    """Independent oracle: scan a box and keep points passing a hand-written
    membership predicate for the q-th dilate."""
    lo, hi = box
    out = []

    def rec(prefix):
        if len(prefix) == len(lo):
            if predicate(prefix, q):
                out.append(tuple(prefix))
            return
        k = len(prefix)
        for x in range(lo[k] * q, hi[k] * q + 1):
            rec(prefix + [x])

    rec([])
    return out


def test_pyramid_hrep(pyramid):
    normals = {(h.normal, h.offset) for h in pyramid.halfspaces}
    assert normals == {((-1, 0, 1), 0), ((1, 0, 1), 0), ((0, -1, 1), 0),
                       ((0, 1, 1), 0), ((0, 0, -1), 1)}
    # every vertex satisfies all halfspaces, with equality on >= n of them
    for v in pyramid.vertices:
        values = [h.value(v) for h in pyramid.halfspaces]
        assert all(s >= 0 for s in values)
        assert sum(1 for s in values if s == 0) >= 3


def test_triangle_hrep(right_triangle):
    assert {(h.normal, h.offset) for h in right_triangle.halfspaces} == \
        {((0, 1), 0), ((1, 0), 0), ((-1, -2), 2)}


def test_segment_hrep(segment):
    assert {(h.normal, h.offset) for h in segment.halfspaces} == {((1,), 0), ((-1,), 1)}


def test_facets_of_cube4_and_cross4():
    units = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    negs = [tuple(-a for a in u) for u in units]
    cube = build_polytope(list(product((0, 1), repeat=4)))
    assert {(h.normal, h.offset) for h in cube.halfspaces} == \
        {(u, 0) for u in units} | {(u, 1) for u in negs}
    assert len(cube.vertices) == 16
    cross = cross_polytope(4)
    assert {(h.normal, h.offset) for h in cross.halfspaces} == \
        {(u, 1) for u in product((-1, 1), repeat=4)}
    assert set(cross.vertices) == set(units + negs)


def assert_facets_match_supporting_hyperplanes(P):
    # oracle: the vertex sets cut out by hyperplanes through n vertices that
    # leave every vertex on one side, sided by determinant signs
    n = P.ambient_dim
    V = P.vertices
    expected = set()
    for S in combinations(V, n):
        rows = [[a - b for a, b in zip(s, S[0])] for s in S[1:]]
        if rank(rows) != n - 1:
            continue
        sides = [leibniz_det(rows + [[a - b for a, b in zip(v, S[0])]]) for v in V]
        if all(d >= 0 for d in sides) or all(d <= 0 for d in sides):
            expected.add(frozenset(v for v, d in zip(V, sides) if d == 0))
    found = [frozenset(v for v in V if h.value(v) == 0) for h in P.halfspaces]
    assert len(found) == len(set(found)) == len(expected)
    assert set(found) == expected
    for h in P.halfspaces:
        assert all(h.value(v) >= 0 for v in V)
        assert math.gcd(*h.normal) == 1


def test_facets_match_supporting_hyperplanes(corpus2d, corpus3d):
    box = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    for P in [*corpus2d, *corpus3d, build_polytope(box)]:
        assert_facets_match_supporting_hyperplanes(P)


def lattice_shell(low, high):
    """The points x of Z^3 with low <= |x|^2 <= high."""
    r = math.isqrt(high)
    return [x for x in product(range(-r, r + 1), repeat=3) if low <= sum(a * a for a in x) <= high]


def test_hull_of_the_122_point_shell():
    # a subset scan would test C(122, 3) = 295,240 triples
    pts = lattice_shell(6, 12)
    assert len(pts) == 122
    P = build_polytope(pts)
    assert (len(P.vertices), len(P.halfspaces)) == (32, 18)
    assert_facets_match_supporting_hyperplanes(P)


def test_hull_of_the_218_point_shell():
    # a subset scan would test C(218, 3) = 1,703,016 triples
    pts = lattice_shell(12, 20)
    assert len(pts) == 218
    P = build_polytope(pts)
    assert P.face_lattice.f_vector() == (48, 96, 50, 1)
    assert all(h.value(p) >= 0 for h in P.halfspaces for p in pts)


@st.composite
def hull_inputs(draw):
    """A point list in dimension 1-4 with duplicates, interior points,
    points inside facets and collinear or coplanar runs, at times flat or
    holding one malformed entry; and a permutation of it."""
    n = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(-2, 2)] * n)
    pts = draw(st.lists(point, min_size=n + 1, max_size=n + 3))
    # even midpoints fall inside an edge, a facet or the interior
    pairs = draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=3))
    pts += [tuple((a + b) // 2 for a, b in zip(p, r)) for p, r in pairs
            if all((a + b) % 2 == 0 for a, b in zip(p, r))]
    start, step = draw(point), draw(point)
    pts += [tuple(a + k * d for a, d in zip(start, step)) for k in range(draw(st.integers(0, 3)))]
    coplanar = draw(st.integers(0, len(pts)))  # the first ones on x_n = x_1
    pts = [p[:-1] + (p[0],) for p in pts[:coplanar]] + pts[coplanar:]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    bad = draw(st.sampled_from([None] * 16 + [(), (1,) * (n + 1), (True,) * n, (0.5,) * n]))
    if bad is not None:
        pts.append(bad)
    pts = draw(st.permutations(pts))
    return pts, draw(st.permutations(pts))


@settings(max_examples=200, deadline=None)
@given(hull_inputs())
def test_hull_matches_the_subset_scan(case):
    pts, shuffled = case
    try:
        expected = reference_hull(pts)
    except ValueError as exc:
        for points in (pts, shuffled):
            with pytest.raises(ValueError) as err:
                build_polytope(points)
            assert str(err.value) == str(exc)
        return
    P = build_polytope(pts)
    assert (repr(P.vertices), repr(P.halfspaces)) == tuple(map(repr, expected))
    Q = build_polytope(shuffled)
    assert (repr(Q.vertices), repr(Q.halfspaces)) == (repr(P.vertices), repr(P.halfspaces))


def test_incidences_are_the_vertices_on_each_facet(pyramid, corpus2d, corpus3d):
    # oracle: each facet evaluated at each vertex; the input lists non-extreme
    # and repeated points out of order, so the hull's masks must be re-indexed
    messy = build_polytope([(2, 2), (1, 1), (0, 3), (0, 0), (3, 0), (2, 2), (1, 0), (3, 3)])
    for P in [pyramid, messy, *corpus2d, *corpus3d]:
        assert P.incidences == tuple(
            sum(1 << i for i, v in enumerate(P.vertices) if h.value(v) == 0)
            for h in P.halfspaces)


def test_non_extreme_points_removed():
    P = build_polytope([(0, 0), (2, 0), (0, 2), (1, 0), (1, 1), (2, 0)])
    assert set(P.vertices) == {(0, 0), (2, 0), (0, 2)}


def test_build_errors():
    # collinear in 2-D, one point, coplanar in 3-D, in the hyperplane
    # x1 + x2 + x3 = x4 in 4-D: fewer than n + 1 independent points
    for points in ([(0, 0), (1, 1), (2, 2)], [(3,)],
                   [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 3, 0)],
                   [(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 3),
                    (2, 1, 0, 3)]):
        with pytest.raises(ValueError, match="^polytope not full-dimensional$"):
            build_polytope(points)
    with pytest.raises(ValueError, match="lattice points"):
        build_polytope([(0.5, 0), (1, 0), (0, 1)])


def test_face_lattice_counts(pyramid, unit_cube, simplex2):
    assert pyramid.face_lattice.f_vector() == (5, 8, 5, 1)
    assert unit_cube.face_lattice.f_vector() == (8, 12, 6, 1)
    assert simplex2.face_lattice.f_vector() == (3, 3, 1)


def test_empty_face_and_ranks(pyramid):
    lat = pyramid.face_lattice
    empty = lat.faces[lat.empty_index]
    assert empty.dim == -1 and empty.rank == 0 and not empty.vertex_indices
    top = lat.faces[lat.top_index]
    assert top.dim == 3 and top.rank == 4


def test_recorded_order_is_vertex_set_inclusion(pyramid, corpus2d, corpus3d):
    # oracle: leq, strict inclusion of vertex sets, tested pair by pair
    cube4 = build_polytope(list(product((0, 1), repeat=4)))
    crosses = [cross_polytope(n) for n in (3, 4, 5)]
    for P in [*corpus2d, *corpus3d, pyramid, cube4, *crosses, build_polytope([[0], [3]])]:
        lat = P.face_lattice
        faces = range(len(lat))
        for j in faces:
            assert lat.below[j] == {i for i in faces if i != j and lat.leq(i, j)}
            assert lat.above[j] == {k for k in faces if j in lat.below[k]}
            assert set(lat.covers[j]) == {i for i in lat.below[j]
                                          if lat.faces[i].dim == lat.faces[j].dim - 1}
            assert list(lat.covers[j]) == sorted(lat.covers[j])


def test_simplicity(pyramid, unit_cube, simplex3, octahedron):
    assert not pyramid.simple
    assert unit_cube.simple
    assert simplex3.simple
    assert not octahedron.simple
    # the apex is the one vertex of the pyramid on four facets
    lat = pyramid.face_lattice
    apex = lat.faces[lat.index_of({pyramid.vertices.index((0, 0, 0))})]
    assert len(apex.containing_facets) == 4


def test_simple_face_facet_counts(unit_cube):
    n = unit_cube.ambient_dim
    lat = unit_cube.face_lattice
    for k in range(n + 1):
        for i in lat.faces_of_dim(k):
            assert len(lat.faces[i].containing_facets) == n - k


def test_euler_relation(pyramid, unit_cube, octahedron, right_triangle, corpus2d, corpus3d):
    for P in [pyramid, unit_cube, octahedron, right_triangle, *corpus2d, *corpus3d]:
        lat = P.face_lattice
        assert sum((-1) ** lat.faces[i].dim for i in lat.nonempty()) == 1


def test_hrep_vrep_round_trip(pyramid, unit_cube, octahedron, corpus2d):
    # independent oracle: intersect all n-subsets of facet hyperplanes and
    # keep feasible solutions; must recover exactly the vertex set
    for P in [pyramid, unit_cube, octahedron, *corpus2d[:5]]:
        n = P.ambient_dim
        recovered = set()
        for subset in combinations(P.halfspaces, n):
            rows = [list(h.normal) for h in subset]
            if rank(rows) < n:
                continue
            sol = solve(rows, [-h.offset for h in subset])
            if sol is None:
                continue
            if all(h.value(sol) >= 0 for h in P.halfspaces):
                assert all(x.denominator == 1 for x in sol)
                recovered.add(tuple(int(x) for x in sol))
        assert recovered == set(P.vertices)


@st.composite
def boxes_and_constraints(draw):
    # the empty box holds () when its constraints hold; n = 4 puts three
    # levels on the scanner's stack above the last coordinate
    n = draw(st.integers(0, 4))
    lo = draw(st.lists(st.integers(-4, 2), min_size=n, max_size=n))
    hi = [a + draw(st.integers(0, 5)) for a in lo]
    constraint = st.tuples(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           st.integers(-6, 6))
    return lo, hi, draw(st.lists(constraint, max_size=5))


@settings(max_examples=300, deadline=None)
@given(boxes_and_constraints())
def test_scan_box_matches_filtered_product(case):
    lo, hi, constraints = case
    box = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    expected = [x for x in box
                if all(sum(a * b for a, b in zip(u, x)) + c >= 0 for u, c in constraints)]
    assert list(scan_box(lo, hi, constraints)) == expected


def test_scan_box_zero_normal_with_negative_offset_is_empty():
    # a constraint that bounds no coordinate fails everywhere or nowhere
    assert list(scan_box([0, 0], [2, 2], [((0, 0), -1)])) == []
    assert list(scan_box([0, 0], [2, 2], [((0, 0), -1), ((1, 1), 0)])) == []
    assert len(list(scan_box([0, 0], [2, 2], [((0, 0), 0)]))) == 9


def test_face_scans_match_the_filtered_box(corpus2d, corpus3d, unit_cube):
    """Every nonempty face's dilates, closed and open, against its bounding
    box filtered by the facet inequalities, in the same order.  The unit
    cube's facet x1 = 0 projects to a point on x1 and to a segment on
    (x1, x2), so its scan has no shadow past coordinate 1."""
    cube4 = build_polytope(list(product((0, 1), repeat=4)))
    for P in [*corpus2d, *corpus3d, unit_cube, cube4, cross_polytope(4)]:
        lat = P.face_lattice
        for face in map(lat.faces.__getitem__, lat.nonempty()):
            columns = list(zip(*(P.vertices[j] for j in face.vertex_indices)))
            for q, interior in product((1, 2, 3), (False, True)):
                box = product(*(range(q * min(c), q * max(c) + 1) for c in columns))
                expected = [x for x in box if all(
                    h.value(x) + (q - 1) * h.offset == 0 if i in face.containing_facets
                    else h.value(x) + (q - 1) * h.offset >= interior
                    for i, h in enumerate(P.halfspaces))]
                assert list(iter_lattice_points(P, face, q, interior)) == expected
    lat = unit_cube.face_lattice
    (x1_zero,) = [f for f in map(lat.faces.__getitem__, lat.faces_of_dim(2))
                  if all(unit_cube.vertices[j][0] == 0 for j in f.vertex_indices)]
    assert list(iter_lattice_points(unit_cube, x1_zero, 2)) == \
        [(0, y, z) for y in range(3) for z in range(3)]


def test_unit_square_counts(unit_square):
    top = unit_square.top_face()
    assert len(list(iter_lattice_points(unit_square, top, 2))) == 9
    assert len(list(iter_lattice_points(unit_square, top, 2, interior=True))) == 1


def test_pyramid_counts_vs_oracle(pyramid):
    # hand-written membership: |x| <= z, |y| <= z, z <= q
    pred = lambda p, q: abs(p[0]) <= p[2] and abs(p[1]) <= p[2] and p[2] <= q
    top = pyramid.top_face()
    for q in (1, 2, 3):
        expected = brute_points_in(pred, ([-1, -1, 0], [1, 1, 1]), q)
        assert sorted(iter_lattice_points(pyramid, top, q)) == sorted(expected)
    assert len(list(iter_lattice_points(pyramid, top, 1))) == 10


def test_face_dilate_counts(unit_square):
    lat = unit_square.face_lattice
    edge = lat.faces[lat.faces_of_dim(1)[0]]
    assert len(list(iter_lattice_points(unit_square, edge, 3))) == 4
    assert len(list(iter_lattice_points(unit_square, edge, 3, interior=True))) == 2
    vertex = lat.faces[lat.faces_of_dim(0)[0]]
    assert list(iter_lattice_points(unit_square, vertex, 5)) == \
        list(iter_lattice_points(unit_square, vertex, 5, interior=True))


def test_closed_equals_sum_of_open_over_subfaces(right_triangle, corpus2d):
    for P in [right_triangle, *corpus2d[:4]]:
        lat = P.face_lattice
        top = P.top_face()
        for q in (1, 2, 3):
            closed = len(list(iter_lattice_points(P, top, q)))
            opened = sum(len(list(iter_lattice_points(P, lat.faces[i], q, interior=True)))
                         for i in lat.nonempty())
            assert closed == opened


def test_dilation_must_be_positive(unit_square):
    # a bool is rejected as _check_exponents rejects it, not read as 1 or 0
    for q in (0, True, False):
        with pytest.raises(ValueError, match="dilation must be positive"):
            iter_lattice_points(unit_square, unit_square.top_face(), q)


def test_triangulation_and_volume(pyramid, unit_cube, right_triangle, octahedron):
    assert volume(pyramid) == F(4, 3)
    assert volume(unit_cube) == 1
    assert volume(right_triangle) == 1
    assert volume(octahedron) == F(4, 3)
    for P in (pyramid, unit_cube, octahedron):
        n = P.ambient_dim
        for simplex in pulling_triangulation(P):
            assert len(simplex) == n + 1


def test_json_round_trip(pyramid):
    clone = build_polytope(pyramid.to_json()["vertices"])
    assert clone.vertices == pyramid.vertices
    assert clone.halfspaces == pyramid.halfspaces


SIMPLEX2 = build_polytope([(0, 0), (1, 0), (0, 1)])
EMPTY_FACE = SIMPLEX2.face_lattice.faces[SIMPLEX2.face_lattice.empty_index]


@pytest.mark.parametrize("call, message", [
    (lambda: build_polytope([]), "polytope not full-dimensional"),
    (lambda: iter_lattice_points(SIMPLEX2, EMPTY_FACE, 1), "the empty face has no dilates"),
    (lambda: pulling_triangulation(SIMPLEX2, "foo"), "anchor must be 'min' or 'max', not 'foo'"),
], ids=["no-points", "empty-face-dilate", "unknown-anchor"])
def test_rejections(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
