"""Reference face sums for the tests: the bucketing that tests every scanned
point against every facet, with every sum a Fraction."""
import math
from fractions import Fraction
from functools import reduce
from itertools import zip_longest

from latticegfun.algebra import interpolate, poly_from_list, poly_to_list
from latticegfun.polytope import iter_lattice_points


def reference_weighted_sums(P, F, phi):
    """{G: (closed, open)} for F and every nonempty face G of F, as
    ``weighted_sum_poly`` returns them.

    Each point of q*F goes to the bucket of the facets it is tight on,
    found by evaluating every facet at it, and adds phi's value there as a
    Fraction.  Each open sum is interpolated from reciprocity at q = 0 and
    the first dim G + deg phi dilates and checked at the rest; each closed
    sum adds the open sums of the faces of G.
    """
    faces = [G for G in P.face_lattice.faces
             if G.dim >= 0 and G.vertex_indices <= F.vertex_indices]
    last_q = F.dim + phi.degree + 1
    values = {G: [] for G in faces}
    for q in range(1, last_q + 1):
        buckets = {}
        for point in iter_lattice_points(P, F, q):
            key = frozenset(i for i, h in enumerate(P.halfspaces)
                            if sum(a * x for a, x in zip(h.normal, point)) + q * h.offset == 0)
            weight = sum((c * math.prod(x ** e for x, e in zip(point, exps))
                          for exps, c in phi.terms.items()), Fraction(0))
            buckets[key] = buckets.get(key, Fraction(0)) + weight
        for G in faces:
            values[G].append(buckets.get(frozenset(G.containing_facets), Fraction(0)))

    opens, lists = {}, {}
    for G in faces:
        deg = G.dim + phi.degree
        nodes = [(0, (-1) ** deg * phi.at_origin())] + list(enumerate(values[G][:deg], start=1))
        opens[G] = interpolate(nodes, deg)
        lists[G] = poly_to_list(opens[G])
        for q in range(deg + 1, last_q + 1):
            if reduce(lambda v, c: v * q + c, reversed(lists[G]), 0) != values[G][q - 1]:
                raise RuntimeError("degree assumption violated")
    out = {}
    for G in faces:
        below = [lists[H] for H in faces if H.vertex_indices <= G.vertex_indices]
        closed = [sum(c, Fraction(0)) for c in zip_longest(*below, fillvalue=0)]
        out[G] = (poly_from_list("q" if G.dim + phi.degree else None, closed), opens[G])
    return out
