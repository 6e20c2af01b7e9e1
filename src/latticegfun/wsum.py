"""Weighted lattice-point sums over dilated faces, as exact polynomials.

For a homogeneous weight polynomial phi and a face G, the closed sum adds
phi over the lattice points of q*G and the open sum over its relative
interior.  Both are polynomials in q of degree dim G + deg phi.

One scan of each dilate q*F serves F and every face of F.  A polytope is
the disjoint union of the relative interiors of its nonempty faces, and a
point in the relative interior of q*G is tight on exactly the facets that
contain G, so the set of tight facets names the face a point belongs to.
The scan comes in lexicographic order and is read a line at a time: the
points sharing a prefix (outer, y) form a run of x_n over [first, last].
A facet whose normal ends in a = 0 (flat) is tight on all of the run or
none of it; its value is >= 0 on the run and linear in x_n, so one with
a > 0 (lower) can be tight only at first and one with a < 0 (upper) only
at last.  The facets are split so once per dilate, and once per outer the
flat ones give a mask tight for every y and a table y -> mask, the others
their end tests, and each monomial its outer head.  A bucket, keyed by the
bitmask of its tight facets, accumulates integer sums: each monomial over
the run's inner points in one step into the flat facets' bucket, each
tight end into its own, a one-point run's two ends folded into one.  A run
with a gap is a broken invariant and raises RuntimeError.  The open sums
of G are its own bucket.  F is scanned at q = 1..dim F + deg phi + 1, and
phi is scaled to integer coefficients, so the node values of each face G,
with q = 0 fixed by reciprocity, are integers over one denominator.  With
deg = dim G + deg phi, they lie on one polynomial of degree <= deg exactly
while their (deg + 1)-th differences vanish (Beck and Robins, ch. 2), the
check at every node past the first deg + 1; the open sum is interpolated
at those.  The closed sum is interpolate's integer fit, ``fit_integers``,
of the values summed over the faces of G (the lattice's ``below``), phi(0)
at q = 0 by Euler's relation: sum (-1)^dim H = 1 over the nonempty
faces H of G, and phi(0) = 0 when deg phi > 0.  Fractions appear only in
the returned polynomials and in interpolate's nodes when den > 1.
"""
from __future__ import annotations

import math
from collections import defaultdict, namedtuple
from fractions import Fraction
from itertools import groupby, repeat
from operator import itemgetter, mul

from .algebra import MultiPoly, WeightPoly, fit_integers, interpolate, pascal_row
from .polytope import Face, Polytope, iter_lattice_points


class WeightedSumPoly(namedtuple("WeightedSumPoly", "face closed open")):
    """Closed and relative-interior weighted sums of one face, in q."""

    __slots__ = ()


def weighted_sum_poly(P: Polytope, F: Face, phi: WeightPoly) -> dict[Face, WeightedSumPoly]:
    """Closed and open weighted sums of the dilates of F and of every
    nonempty face of F, keyed by face in face-lattice order.

    The open sum of a face G is interpolated at q = 0..(dim G + deg phi),
    q = 0 fixed by reciprocity, and every further scanned node checks the
    degree bound, raising ``RuntimeError`` on a miss; a run of the scan
    with a gap raises it too, naming the dilate and the run's prefix.
    """
    if F.dim < 0:
        raise ValueError("weighted sums need a nonempty face")
    if phi.nvars != P.ambient_dim:
        raise ValueError("weight polynomial dimension does not match polytope")
    lat = P.face_lattice
    top, empty = lat.index_of(F.vertex_indices), lat.empty_index
    members = [j for j in sorted(lat.below[top] | {top}) if j != empty]  # F's faces, F last
    key_of = {j: sum(1 << i for i in lat.faces[j].containing_facets) for j in members}
    # each monomial as outer^α'' y^e_y x_n^e, the scanned point being (outer, y, x_n)
    outer_exps = [exps[:-2] for exps in phi.terms]
    y_exps = [exps[-2] if len(exps) > 1 else 0 for exps in phi.terms]
    last_exps = [exps[-1] for exps in phi.terms]
    den = math.lcm(*(c.denominator for c in phi.terms.values()))
    coeffs = [c.numerator * (den // c.denominator) for c in phi.terms.values()]
    origin = int(phi.at_origin() * den)

    last_q = F.dim + phi.degree + 1
    # den times each face's open sum at q = 0..last_q, q = 0 fixed by reciprocity
    values = {j: [(-1) ** (lat.faces[j].dim + phi.degree) * origin] for j in members}
    for q in range(1, last_q + 1):
        # on a run (outer, y) x [first, last] facet i, normal (u, s, a), bit 1 << i,
        # reads a * x_n = r - s * y, r = -q c - <u, outer> found once per outer
        flats, lowers, uppers = by_sign = [], [], []
        for i, (u, c) in enumerate(P.halfspaces):  # by_sign[-1] is uppers
            by_sign[(u[-1] > 0) - (u[-1] < 0)].append(
                (1 << i, u[:-2], u[-2] if len(u) > 1 else 0, u[-1], -q * c))
        buckets, outer = defaultdict(lambda: [0] * len(last_exps)), None  # mask -> sums
        for prefix, line in groupby(iter_lattice_points(P, F, q), itemgetter(slice(0, -1))):
            line = list(line)
            first, last = line[0][-1], line[-1][-1]
            if last - first + 1 != len(line):  # the scan ascends, so this is a gap
                raise RuntimeError(f"lattice scan of the dilate q = {q} has a gap "
                                   f"on the line {prefix}")
            if prefix[:-1] != outer:
                outer = prefix[:-1]
                always, flat_at = 0, {}  # flat facets tight for every y, and per y
                for bit, u, s, _, c in flats:
                    r = c - sum(map(mul, u, outer))
                    always |= 0 if s or r else bit
                    if s and not r % s:
                        flat_at[r // s] = flat_at.get(r // s, 0) | bit
                lower_at = [(bit, c - sum(map(mul, u, outer)), s, a) for bit, u, s, a, c in lowers]
                upper_at = [(bit, c - sum(map(mul, u, outer)), s, a) for bit, u, s, a, c in uppers]
                outer_heads = [math.prod(map(pow, outer, exps)) for exps in outer_exps]
            y = prefix[-1] if prefix else 0
            at_first = at_last = 0
            for bit, r, s, a in lower_at:
                if r - s * y == a * first:
                    at_first |= bit
            for bit, r, s, a in upper_at:
                if r - s * y == a * last:
                    at_last |= bit
            if first == last:  # one point: both ends are the same point
                at_first, at_last = at_first | at_last, 0
            flat = always | flat_at.get(y, 0)
            inner = range(first + (at_first > 0), last + (at_last == 0))  # the run off tight ends
            sums = buckets[flat]
            low = buckets[flat | at_first] if at_first else None
            high = buckets[flat | at_last] if at_last else None
            for j, e in enumerate(last_exps):
                head = outer_heads[j] * y ** y_exps[j]
                sums[j] += head * (sum(map(pow, inner, repeat(e))) if e else len(inner))
                if low:
                    low[j] += head * first ** e
                if high:
                    high[j] += head * last ** e
        for j in members:
            values[j].append(sum(map(mul, coeffs, buckets.get(key_of[j], ()))))

    out = {}
    for j in members:
        G, vs = lat.faces[j], values[j]
        deg = G.dim + phi.degree
        # the (deg + 1)-th difference ending at q, a dot product with the row of (x - 1)^(deg + 1),
        # is the scanned value at q minus the polynomial's through the nodes before, if those fit
        for q in range(deg + 1, last_q + 1):
            diff = sum(map(mul, pascal_row(deg + 1, -1), vs[q - deg - 1:]))
            if diff:
                raise RuntimeError(f"degree assumption violated on the face "
                                   f"{sorted(G.vertex_indices)} at q = {q}: interpolated "
                                   f"{Fraction(vs[q] - diff, den)}, scanned "
                                   f"{Fraction(vs[q], den)}")
        nodes = vs[:deg + 1]  # the closed sum: the same fit on the summed values of G's faces
        closed = list(map(sum, zip(nodes, *(values[i] for i in lat.below[j] if i != empty))))
        open_ = interpolate([(q, Fraction(v, den)) for q, v in enumerate(nodes)] if den > 1
                            else list(enumerate(nodes)), deg)
        out[G] = WeightedSumPoly(G, fit_integers(tuple(range(deg + 1)), closed, 1, den), open_)
    return out


def ehrhart_polynomial(P: Polytope) -> WeightedSumPoly:
    """Closed and interior lattice-point counting polynomials of P."""
    top = P.top_face()
    return weighted_sum_poly(P, top, WeightPoly.one(P.ambient_dim))[top]


def check_ehrhart_macdonald(P: Polytope) -> bool:
    """E(-q) == (-1)^n E_interior(q), as exact polynomials."""
    return check_weighted_reciprocity(P, WeightPoly.one(P.ambient_dim))


def check_weighted_reciprocity(P: Polytope, phi: WeightPoly) -> bool:
    """Closed sum at -q, times (-1)^(deg phi + n), equals the open sum at q."""
    top = P.top_face()
    wsp = weighted_sum_poly(P, top, phi)[top]
    parity = phi.degree + P.ambient_dim
    flipped = {e: -c if (sum(e) + parity) % 2 else c for e, c in wsp.closed.terms.items()}
    return MultiPoly(wsp.closed.vars, flipped) == wsp.open
