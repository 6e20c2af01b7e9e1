"""Weighted lattice-point sums over dilated faces, as exact polynomials.

For a homogeneous weight polynomial phi and a face G, the closed sum adds
phi over the lattice points of q*G and the open sum over its relative
interior.  Both are polynomials in q of degree dim G + deg phi.

One scan of each dilate q*F serves F and every face of F.  A polytope is
the disjoint union of the relative interiors of its nonempty faces, and a
point in the relative interior of q*G is tight on exactly the facets that
contain G, so the set of tight facets names the face a point belongs to.
Each scanned point is put in that face's bucket, where the integer sums of
phi's monomials accumulate; phi's rational coefficients are applied only
when a bucket is read.  The open sums of G are its own bucket.  F is
scanned at q = 1..dim F + deg phi + 1; each face G is interpolated once,
at its first dim G + deg phi + 1 nodes, and its dense coefficient list is
checked at every further node by Horner's rule.  The closed list of G is
the sum of the open lists of the faces of G, which at q = 0 gives phi(0)
by Euler's relation: sum (-1)^dim H = 1 over the nonempty faces H of G,
and phi(0) = 0 when deg phi > 0.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from operator import mul

from .algebra import (MultiPoly, interpolate, poly_from_list, poly_to_list, scalar_from_str,
                      scalar_to_str)
from .polytope import Face, Polytope, iter_lattice_points


class WeightPoly:
    """A homogeneous polynomial weight on the ambient space.

    Variables are x1..xn and exponents are nonnegative integers.  The
    constant weight 1 has degree 0.  ``terms`` maps each full-width
    exponent vector (one entry per x_i, in order) to its coefficient.
    """

    def __init__(self, poly: MultiPoly, nvars: int):
        self.poly = poly
        self.nvars = nvars
        for exps in poly.terms:
            _check_exponents(exps)
        if not poly.is_homogeneous():
            raise ValueError("weight polynomial must be homogeneous")
        names = [f"x{i + 1}" for i in range(nvars)]
        for v in poly.vars:
            if v not in names:
                raise ValueError(f"unexpected weight variable {v!r}")
        slot = {v: i for i, v in enumerate(poly.vars)}
        self.terms = {tuple(exps[slot[x]] if x in slot else 0 for x in names): coeff
                      for exps, coeff in poly.terms.items()}
        self.degree = max(poly.degree(), 0)

    @classmethod
    def one(cls, nvars: int) -> WeightPoly:
        return cls(MultiPoly.const(1), nvars)

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> WeightPoly:
        names = tuple(f"x{i + 1}" for i in range(nvars))
        return cls(MultiPoly.monomial(names, tuple(exps), coeff), nvars)

    def at_origin(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def to_json(self) -> dict:
        terms = [{"coeff": scalar_to_str(self.terms[exps]), "exps": list(exps)}
                 for exps in sorted(self.terms)]
        return {"vars": self.nvars, "terms": terms}

    @classmethod
    def from_json(cls, obj: dict, expected_vars: int | None = None) -> WeightPoly:
        """Parse ``{"vars": n, "terms": [...]}``.  A well-formed ``vars``
        other than ``expected_vars`` is rejected before any variable is
        built, so its size costs nothing."""
        if not isinstance(obj, dict) or "vars" not in obj or "terms" not in obj:
            raise ValueError("a weight needs the keys 'vars' and 'terms'")
        nvars = obj["vars"]
        if not isinstance(nvars, int) or isinstance(nvars, bool) or nvars < 1:
            raise ValueError("weight 'vars' must be a positive integer")
        if expected_vars is not None and nvars != expected_vars:
            raise ValueError("weight polynomial dimension does not match polytope")
        if not isinstance(obj["terms"], list):
            raise ValueError("weight 'terms' must be a list")
        names = tuple(f"x{i + 1}" for i in range(nvars))
        terms: dict[tuple[int, ...], Fraction] = {}
        for item in obj["terms"]:
            if not isinstance(item, dict) or not isinstance(item.get("exps"), list) \
                    or not isinstance(item.get("coeff"), str):
                raise ValueError("each weight term needs an 'exps' list and a 'coeff' string")
            exps = _check_exponents(tuple(item["exps"]))
            if len(exps) != nvars:
                raise ValueError("weight exponent width does not match vars")
            coeff = scalar_from_str(item["coeff"])
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return cls(MultiPoly(names, terms), nvars)

    def __repr__(self):
        return f"WeightPoly({self.poly})"


def _check_exponents(exps: tuple) -> tuple:
    for e in exps:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"weight exponents must be nonnegative integers, got {e!r}")
    return exps


class WeightedSumPoly(namedtuple("WeightedSumPoly", "face closed open")):
    """Closed and relative-interior weighted sums of one face, in q."""

    __slots__ = ()


def weighted_sum_poly(P: Polytope, F: Face, phi: WeightPoly) -> dict[Face, WeightedSumPoly]:
    """Closed and open weighted sums of the dilates of F and of every
    nonempty face of F, keyed by face in face-lattice order.

    The open sum of a face G is interpolated at q = 0..(dim G + deg phi),
    where the q = 0 value is fixed by reciprocity, which keeps it a bona
    fide polynomial; every further scanned node validates the degree bound.
    The closed sum of G is the sum of the open sums of its faces, whose
    value at q = 0 is phi(0) by Euler's relation.
    """
    if F.dim < 0:
        raise ValueError("weighted sums need a nonempty face")
    if phi.nvars != P.ambient_dim:
        raise ValueError("weight polynomial dimension does not match polytope")
    faces = [G for G in P.face_lattice.faces
             if G.dim >= 0 and G.vertex_indices <= F.vertex_indices]
    key_of = {G: tuple(sorted(G.containing_facets)) for G in faces}
    subfaces = {G: [H for H in faces if H.vertex_indices <= G.vertex_indices] for G in faces}
    monomials = [[(k, e) for k, e in enumerate(exps) if e] for exps in phi.terms]
    coeffs = list(phi.terms.values())

    last_q = F.dim + phi.degree + 1
    values = {G: [] for G in faces}
    for q in range(1, last_q + 1):
        facets = [(i, h.normal, -q * h.offset) for i, h in enumerate(P.halfspaces)]
        buckets: dict[tuple[int, ...], list[int]] = {}
        for point in iter_lattice_points(P, F, q):
            key = tuple([i for i, u, c in facets if sum(map(mul, u, point)) == c])
            sums = buckets.get(key)
            if sums is None:
                sums = buckets[key] = [0] * len(monomials)
            for j, mono in enumerate(monomials):
                sums[j] += math.prod(point[k] ** e for k, e in mono)
        for G in faces:
            values[G].append(sum(map(mul, coeffs, buckets.get(key_of[G], ()))))

    origin = phi.at_origin()
    opens, lists = {}, {}
    for G in faces:
        deg = G.dim + phi.degree
        nodes = [(0, (-1) ** deg * origin)] + list(enumerate(values[G][:deg], start=1))
        opens[G] = interpolate(nodes, deg)
        lists[G] = poly_to_list(opens[G])
        for q in range(deg + 1, last_q + 1):
            if reduce(lambda v, c: v * q + c, reversed(lists[G]), 0) != values[G][q - 1]:
                raise RuntimeError("degree assumption violated")
    return {G: WeightedSumPoly(G, poly_from_list("q" if G.dim + phi.degree else None, [
        sum(c) for c in zip_longest(*(lists[H] for H in subfaces[G]), fillvalue=0)]), opens[G])
        for G in faces}


def ehrhart_polynomial(P: Polytope) -> WeightedSumPoly:
    """Closed and interior lattice-point counting polynomials of P."""
    top = P.top_face()
    return weighted_sum_poly(P, top, WeightPoly.one(P.ambient_dim))[top]


def check_ehrhart_macdonald(P: Polytope) -> bool:
    """E(-q) == (-1)^n E_interior(q), as exact polynomials."""
    return check_weighted_reciprocity(P, WeightPoly.one(P.ambient_dim))


def check_weighted_reciprocity(P: Polytope, phi: WeightPoly) -> bool:
    """Closed sum at -q equals the signed open sum at q."""
    top = P.top_face()
    wsp = weighted_sum_poly(P, top, phi)[top]
    sign = (-1) ** (phi.degree + P.ambient_dim)
    negated = {exps: (-1) ** sum(exps) * c for exps, c in wsp.closed.terms.items()}
    return MultiPoly(wsp.closed.vars, negated) == sign * wsp.open
