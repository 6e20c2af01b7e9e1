"""Reference convex hull for the tests, sharing no code with
``latticegfun.linalg``: the exhaustive scan over every n-subset of the input
points, on the Fraction row reduction of ``linalg_reference``."""
from itertools import combinations

from latticegfun.polytope import HalfSpace

from linalg_reference import nullspace, rank


def reference_hull(points):
    """(vertices, halfspaces) of the lattice polytope spanned by the points,
    both sorted as ``build_polytope`` sorts them, raising its ValueErrors.

    Every hyperplane spanned by an affinely independent n-subset that leaves
    all points on one closed side is a facet; its normal is the subset's
    primitive nullspace vector, turned inward.  A vertex is a point on n
    facets with independent normals.
    """
    if not isinstance(points, (list, tuple)):
        raise ValueError("vertices must be a list of coordinate lists")
    pts = []
    for p in points:
        if not isinstance(p, (list, tuple)) or not p:
            raise ValueError("each vertex must be a nonempty list of coordinates")
        if any(not isinstance(x, int) or isinstance(x, bool) for x in p):
            raise ValueError("vertices must be lattice points")
        if tuple(p) not in pts:
            pts.append(tuple(p))
    if not pts:
        raise ValueError("polytope not full-dimensional")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("vertices must share one ambient dimension")
    if rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) != n:
        raise ValueError("polytope not full-dimensional")

    halfspaces = set()
    for subset in combinations(pts, n):
        base = subset[0]
        # the base's own zero row keeps the matrix nonempty when n = 1
        u = nullspace([[a - b for a, b in zip(p, base)] for p in subset])
        if u is None:
            continue
        c = sum(a * b for a, b in zip(base, u))
        sides = [sum(a * b for a, b in zip(p, u)) - c for p in pts]
        if all(s >= 0 for s in sides):
            halfspaces.add(HalfSpace(u, -c))
        elif all(s <= 0 for s in sides):
            halfspaces.add(HalfSpace(tuple(-a for a in u), c))
    facets = sorted(halfspaces, key=lambda h: (h.normal, h.offset))
    vertices = sorted(p for p in pts
                      if rank([h.normal for h in facets if h.value(p) == 0]) == n)
    return tuple(vertices), tuple(facets)
