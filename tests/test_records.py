"""The result records are immutable named tuples: positional fields in a
fixed order, no attribute assignment, and value equality."""
from fractions import Fraction

import pytest

from latticegfun import (Cone, Face, GammaSet, GFunction, HalfSpace, NormalFan, SymbolicIntegral,
                         ToddCoeffs, WeightedSumPoly, WeightPoly, build_gfun, gamma_set,
                         normal_fan, symbolic_integral, todd_coeffs, weighted_sum_poly)
from latticegfun.linalg import lattice_index

FIELDS = {
    HalfSpace: ("normal", "offset"),
    Face: ("vertex_indices", "dim", "containing_facets"),
    Cone: ("generators", "facet_indices", "face_index"),
    NormalFan: ("polytope", "cones"),
    GammaSet: ("points", "exponents"),
    ToddCoeffs: ("scalars",),
    SymbolicIntegral: ("poly",),
    WeightedSumPoly: ("face", "closed", "open"),
    GFunction: ("poly", "n", "d", "polytope", "phi"),
}


@pytest.fixture(scope="module")
def records(right_triangle):
    P = right_triangle
    fan = normal_fan(P)
    phi = WeightPoly.one(2)
    top = P.face_lattice.faces[P.face_lattice.top_index]
    return [P.halfspaces[0], top, fan.cones[0], fan, gamma_set(fan), todd_coeffs(Fraction(-1), 3),
            symbolic_integral(P, phi), weighted_sum_poly(P, top, phi)[top], build_gfun(P, phi)]


def test_records_construct_positionally_in_field_order(records):
    assert [type(r) for r in records] == list(FIELDS)
    for record in records:
        cls = type(record)
        assert cls._fields == FIELDS[cls]
        values = [getattr(record, name) for name in cls._fields]
        rebuilt = cls(*values)
        assert [getattr(rebuilt, name) for name in cls._fields] == values
        assert tuple(rebuilt) == tuple(values)


def test_records_refuse_attribute_assignment(records):
    for record in records:
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        if type(record) is not ToddCoeffs:  # keeps a __dict__ for its cached coeffs
            with pytest.raises(AttributeError):
                record.extra = None


def test_face_and_halfspace_compare_and_hash_by_value():
    a = Face(frozenset({0, 1}), 1, frozenset({2}))
    b = Face(frozenset({1, 0}), 1, frozenset({2}))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Face(frozenset({0, 1}), 1, frozenset({3}))
    h = HalfSpace((1, 0), 2)
    assert h == HalfSpace((1, 0), 2) and hash(h) == hash(HalfSpace((1, 0), 2))
    assert h.value((3, 5)) == 5


def test_facet_and_face_order_unchanged(pyramid):
    assert pyramid.halfspaces == (
        HalfSpace((-1, 0, 1), 0), HalfSpace((0, -1, 1), 0), HalfSpace((0, 0, -1), 1),
        HalfSpace((0, 1, 1), 0), HalfSpace((1, 0, 1), 0))
    assert [(sorted(f.vertex_indices), f.dim, sorted(f.containing_facets))
            for f in pyramid.face_lattice.faces] == [
        ([], -1, []), ([0], 0, [2, 3, 4]), ([1], 0, [1, 2, 4]), ([2], 0, [0, 1, 3, 4]),
        ([3], 0, [0, 2, 3]), ([4], 0, [0, 1, 2]), ([0, 1], 1, [2, 4]), ([0, 2], 1, [3, 4]),
        ([0, 3], 1, [2, 3]), ([1, 2], 1, [1, 4]), ([1, 4], 1, [1, 2]), ([2, 3], 1, [0, 3]),
        ([2, 4], 1, [0, 1]), ([3, 4], 1, [0, 2]), ([0, 1, 2], 2, [4]), ([0, 1, 3, 4], 2, [2]),
        ([0, 2, 3], 2, [3]), ([1, 2, 4], 2, [1]), ([2, 3, 4], 2, [0]),
        ([0, 1, 2, 3, 4], 3, [])]


def test_cone_index_is_the_lattice_index(right_triangle):
    # the property shadows tuple.index
    for cone in normal_fan(right_triangle).cones:
        assert cone.index == lattice_index(cone.generators)
    assert Cone(((1, 0), (1, 2)), (0, 1), 0).index == 2


def test_todd_coeffs_caches_its_coeffs():
    tc = todd_coeffs(Fraction(-1), 3)
    first = tc.coeffs
    assert tc.coeffs is first
    assert len(first) == len(tc.scalars) == 4
    assert first[0] == tc.scalars[0]
