"""Polytope construction, face lattice, and lattice point enumeration."""
import math
from fractions import Fraction
from itertools import combinations, product

import pytest

from latticegfun import (build_polytope, cross_polytope, euler_characteristic,
                         iter_lattice_points, pulling_triangulation, volume)

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


def test_facets_match_supporting_hyperplanes(corpus2d, corpus3d):
    # oracle: the vertex sets cut out by hyperplanes through n vertices that
    # leave every vertex on one side, sided by determinant signs
    box = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    for P in [*corpus2d, *corpus3d, build_polytope(box)]:
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


def test_non_extreme_points_removed():
    P = build_polytope([(0, 0), (2, 0), (0, 2), (1, 0), (1, 1), (2, 0)])
    assert set(P.vertices) == {(0, 0), (2, 0), (0, 2)}


def test_build_errors():
    with pytest.raises(ValueError, match="not full-dimensional"):
        build_polytope([(0, 0), (1, 1), (2, 2)])
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
        assert euler_characteristic(P) == 1


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
    with pytest.raises(ValueError, match="dilation must be positive"):
        list(iter_lattice_points(unit_square, unit_square.top_face(), 0))


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
