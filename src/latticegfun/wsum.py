"""Weighted lattice-point sums over dilated faces, as exact polynomials.

For a homogeneous weight polynomial phi and a face G, the closed sum adds
phi over the lattice points of q*G and the open sum over its relative
interior.  Both are polynomials in q of degree dim G + deg phi.

One scan of each dilate q*F serves F and every face of F.  A polytope is
the disjoint union of the relative interiors of its nonempty faces, and a
point in the relative interior of q*G is tight on exactly the facets that
contain G, so the set of tight facets names the face a point belongs to.
The scan comes in lexicographic order and is read a line at a time: the
points sharing a prefix form a run prefix x [first, last].  On it a facet
whose normal ends in a = 0 is tight on all of the run or none of it, any
other at most at one end, since its value is >= 0 on the run and linear in
x_n.  The facets are split so once per dilate; a bucket is keyed by the
bitmask of its tight facets and accumulates integer sums.  Each monomial
of phi is summed over the run's inner points in one step into the flat
tight facets' bucket, and each tight end into its own.  A run with
a gap is a broken invariant and raises RuntimeError.  The open sums of G
are its own bucket.  F is scanned at q = 1..dim F + deg phi + 1; each face
G is interpolated once, at its first dim G + deg phi + 1 nodes, and its
dense coefficient list is checked at every further node by Horner's rule.
The closed list of G is the sum of the open lists of the faces of G, which
at q = 0 gives phi(0) by Euler's relation: sum (-1)^dim H = 1 over the
nonempty faces H of G, and phi(0) = 0 when deg phi > 0.  phi is scaled to
integer coefficients, and the node values, the Horner checks and the
closed sums run on integer lists over one denominator: Fractions appear
only out of interpolation and in the returned polynomials.
"""
from __future__ import annotations

import math
from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import reduce
from itertools import chain, groupby, repeat, zip_longest
from operator import itemgetter, mul

from .algebra import (MultiPoly, interpolate, poly_from_list, poly_to_list, terms_from_json,
                      terms_to_json)
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
        for e in chain.from_iterable(poly.terms):
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"weight exponents must be nonnegative integers, got {e!r}")
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
        return {"vars": self.nvars, "terms": terms_to_json(self.terms)}

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
        names = tuple(f"x{i + 1}" for i in range(nvars))
        return cls(MultiPoly(names, terms_from_json(obj["terms"], nvars)), nvars)

    def __repr__(self):
        return f"WeightPoly({self.poly})"


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
    value at q = 0 is phi(0) by Euler's relation.  A run of the scan with
    a gap raises ``RuntimeError`` naming the dilate and the run's prefix.
    """
    if F.dim < 0:
        raise ValueError("weighted sums need a nonempty face")
    if phi.nvars != P.ambient_dim:
        raise ValueError("weight polynomial dimension does not match polytope")
    faces = [G for G in P.face_lattice.faces
             if G.dim >= 0 and G.vertex_indices <= F.vertex_indices]
    key_of = {G: sum(1 << i for i in G.containing_facets) for G in faces}
    subfaces = {G: [H for H in faces if H.vertex_indices <= G.vertex_indices] for G in faces}
    prefix_exps = [exps[:-1] for exps in phi.terms]  # each monomial as x'^α' x_n^e
    last_exps = [exps[-1] for exps in phi.terms]
    den = math.lcm(*(c.denominator for c in phi.terms.values()))
    coeffs = [c.numerator * (den // c.denominator) for c in phi.terms.values()]

    last_q = F.dim + phi.degree + 1
    values = {G: [] for G in faces}  # den times each face's open sum, per q
    for q in range(1, last_q + 1):
        # on a run outer x {y} x [first, last], facet i with normal (u, s, a)
        # reads a * x_n = r - s * y, r = -q c - <u, outer> found once per outer;
        # its bit 1 << i marks it in the masks that key the buckets
        facets = [(1 << i, u[:-2], u[-2] if len(u) > 1 else 0, u[-1], -q * c)
                  for i, (u, c) in enumerate(P.halfspaces)]
        flats, ends, outer = [f for f in facets if not f[3]], [f for f in facets if f[3]], None
        buckets: dict[int, list[int]] = defaultdict(lambda: [0] * len(last_exps))
        for prefix, line in groupby(iter_lattice_points(P, F, q), itemgetter(slice(0, -1))):
            line = list(line)
            first, last = line[0][-1], line[-1][-1]
            if last - first + 1 != len(line):  # the scan ascends, so this is a gap
                raise RuntimeError(f"lattice scan of the dilate q = {q} has a gap "
                                   f"on the line {prefix}")
            if prefix[:-1] != outer:
                outer = prefix[:-1]
                flat_at = [(bit, c - sum(map(mul, u, outer)), s) for bit, u, s, _, c in flats]
                end_at = [(bit, c - sum(map(mul, u, outer)), s, a) for bit, u, s, a, c in ends]
            y = prefix[-1] if prefix else 0
            flat = at_first = at_last = 0
            for bit, r, s in flat_at:
                if r == s * y:
                    flat |= bit
            for bit, r, s, a in end_at:
                r -= s * y
                if r == a * first:
                    at_first |= bit
                elif r == a * last:
                    at_last |= bit
            heads = [math.prod(map(pow, prefix, exps)) for exps in prefix_exps]
            inner = range(first + (at_first > 0), last + (at_last == 0))  # the run off tight ends
            sums = buckets[flat]
            for j, e in enumerate(last_exps):
                sums[j] += heads[j] * (sum(map(pow, inner, repeat(e))) if e else len(inner))
            for x, tight in (first, at_first), (last, at_last):
                if tight:
                    own = buckets[flat | tight]
                    for j, e in enumerate(last_exps):
                        own[j] += heads[j] * x ** e
        for G in faces:
            values[G].append(sum(map(mul, coeffs, buckets.get(key_of[G], ()))))

    # each open list interpolated from den-scaled integer values, then held
    # as integers over one common denominator common * den
    origin = phi.at_origin()
    origin = origin.numerator * (den // origin.denominator)
    lists = {}
    for G in faces:
        deg = G.dim + phi.degree
        nodes = [(0, (-1) ** deg * origin)] + list(enumerate(values[G][:deg], start=1))
        lists[G] = poly_to_list(interpolate(nodes, deg))
    common = math.lcm(*(c.denominator for cs in lists.values() for c in cs))
    for G, cs in lists.items():
        lists[G] = cs = [c.numerator * (common // c.denominator) for c in cs]
        for q in range(G.dim + phi.degree + 1, last_q + 1):
            if reduce(lambda v, c: v * q + c, reversed(cs), 0) != values[G][q - 1] * common:
                raise RuntimeError("degree assumption violated")

    def poly(G, cs):
        return poly_from_list("q" if G.dim + phi.degree else None,
                              [Fraction(c, common * den) for c in cs])
    return {G: WeightedSumPoly(G, poly(G, map(sum, zip_longest(
        *map(lists.get, subfaces[G]), fillvalue=0))), poly(G, lists[G])) for G in faces}


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
