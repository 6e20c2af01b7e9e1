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
at its first dim G + deg phi + 1 nodes, and checked at every further node.
The closed polynomial of G is the sum of the open polynomials of the faces
of G.  At q = 0 it gives phi(0) by Euler's relation: the nonempty faces H
of G have sum (-1)^dim H = 1, and phi(0) = 0 when deg phi > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import MultiPoly, interpolate, scalar_from_str, scalar_to_str
from .polytope import Face, Polytope, iter_lattice_points


class WeightPoly:
    """A homogeneous polynomial weight on the ambient space.

    Variables are x1..xn and exponents are nonnegative integers.  The
    constant weight 1 has degree 0.
    """

    def __init__(self, poly: MultiPoly, nvars: int):
        self.poly = poly
        self.nvars = nvars
        for exps in poly.terms:
            _check_exponents(exps)
        if not poly.is_homogeneous():
            raise ValueError("weight polynomial must be homogeneous")
        names = {f"x{i + 1}" for i in range(nvars)}
        for v in poly.vars:
            if v not in names:
                raise ValueError(f"unexpected weight variable {v!r}")
        self.degree = max(poly.degree(), 0)

    @classmethod
    def one(cls, nvars: int) -> WeightPoly:
        return cls(MultiPoly.const(1), nvars)

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> WeightPoly:
        names = tuple(f"x{i + 1}" for i in range(nvars))
        return cls(MultiPoly.monomial(names, tuple(exps), coeff), nvars)

    def at_origin(self) -> Fraction:
        return self.poly.evaluate({v: 0 for v in self.poly.vars})

    def to_json(self) -> dict:
        names = tuple(f"x{i + 1}" for i in range(self.nvars))
        mapped = self.poly._mapped(names)
        terms = [{"coeff": scalar_to_str(mapped[exps]), "exps": list(exps)}
                 for exps in sorted(mapped)]
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


@dataclass
class WeightedSumPoly:
    """Closed and relative-interior weighted sums of one face, in q."""

    face: Face
    closed: MultiPoly
    open: MultiPoly


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
    faces = [G for G in P.face_lattice.faces
             if G.dim >= 0 and G.vertex_indices <= F.vertex_indices]
    key_of = {G: tuple(sorted(G.containing_facets)) for G in faces}
    subfaces = {G: [H for H in faces if H.vertex_indices <= G.vertex_indices] for G in faces}
    coords = [int(v[1:]) - 1 for v in phi.poly.vars]
    monomials = [[(k, e) for k, e in zip(coords, exps) if e] for exps in phi.poly.terms]
    coeffs = list(phi.poly.terms.values())
    zeros = [0] * len(monomials)

    last_q = F.dim + phi.degree + 1
    values = {G: [] for G in faces}
    for q in range(1, last_q + 1):
        facets = [(h.normal, q * h.offset) for h in P.halfspaces]
        buckets: dict[tuple[int, ...], list[int]] = {}
        for point in iter_lattice_points(P, F, q):
            key = tuple(i for i, (u, c) in enumerate(facets)
                        if sum(a * x for a, x in zip(u, point)) + c == 0)
            sums = buckets.get(key)
            if sums is None:
                sums = buckets[key] = [0] * len(monomials)
            for j, mono in enumerate(monomials):
                sums[j] += math.prod(point[k] ** e for k, e in mono)
        for G in faces:
            values[G].append(_apply(coeffs, buckets.get(key_of[G], zeros)))

    origin = phi.at_origin()
    opens = {}
    for G in faces:
        deg = G.dim + phi.degree
        nodes = [(0, (-1) ** deg * origin)] + list(enumerate(values[G][:deg], start=1))
        poly = interpolate(nodes, deg)
        for q in range(deg + 1, last_q + 1):
            if poly.evaluate({"q": q}) != values[G][q - 1]:
                raise RuntimeError("degree assumption violated")
        opens[G] = poly
    return {G: WeightedSumPoly(G, sum(opens[H] for H in subfaces[G]), opens[G]) for G in faces}


def _apply(coeffs, moments) -> Fraction:
    """phi's value from the integer sums of its monomials."""
    return sum((c * m for c, m in zip(coeffs, moments)), Fraction(0))


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
    return _negated(wsp.closed) == sign * wsp.open


def _negated(poly: MultiPoly) -> MultiPoly:
    """Substitute q -> -q."""
    q = MultiPoly.variable("q")
    return poly.substitute({"q": -q})
