"""Lattice polytopes: V- and H-representations, face lattice, enumeration.

Polytopes are always full-dimensional with vertices in Z^n; the lattice is
fixed as Z^n.  Facet enumeration works by an exhaustive supporting
hyperplane scan over n-point subsets, which is exact and entirely adequate
at the scale this package targets (dimension at most ~4, a few dozen
vertices).
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .linalg import affine_rank, det, mat_rank, nullspace_vector


class HalfSpace(namedtuple("HalfSpace", "normal offset")):
    """Inward halfspace <x, normal> + offset >= 0 with primitive normal."""

    __slots__ = ()

    def value(self, point):
        return sum(a * b for a, b in zip(point, self.normal)) + self.offset


class Face(namedtuple("Face", "vertex_indices dim containing_facets")):
    """A face of a polytope, identified by its vertex set.

    The empty face has ``dim == -1`` and an empty vertex set; the polytope
    itself appears as the top face.  ``containing_facets`` indexes into the
    polytope's halfspace list.
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.dim + 1


class FaceLattice:
    """All faces of a polytope as a ranked poset ordered by inclusion."""

    def __init__(self, faces: list[Face]):
        self.faces = tuple(faces)
        self._by_vertices = {f.vertex_indices: i for i, f in enumerate(self.faces)}
        self.empty_index = self._by_vertices[frozenset()]
        self.top_index = max(range(len(self.faces)), key=lambda i: self.faces[i].dim)

    def __len__(self):
        return len(self.faces)

    def index_of(self, vertex_indices) -> int:
        return self._by_vertices[frozenset(vertex_indices)]

    def leq(self, i: int, j: int) -> bool:
        return self.faces[i].vertex_indices <= self.faces[j].vertex_indices

    def faces_of_dim(self, dim: int) -> list[int]:
        return [i for i, f in enumerate(self.faces) if f.dim == dim]

    def nonempty(self) -> list[int]:
        return [i for i, f in enumerate(self.faces) if f.dim >= 0]

    def interval(self, low: int, high: int) -> list[int]:
        return [i for i in range(len(self.faces)) if self.leq(low, i) and self.leq(i, high)]

    def f_vector(self) -> tuple[int, ...]:
        """Face counts (f_0, ..., f_n) including the polytope itself."""
        n = self.faces[self.top_index].dim
        counts = [0] * (n + 1)
        for f in self.faces:
            if f.dim >= 0:
                counts[f.dim] += 1
        return tuple(counts)

    def maximal_proper_subfaces(self, i: int) -> list[int]:
        f = self.faces[i]
        return [j for j in self.faces_of_dim(f.dim - 1)
                if self.faces[j].vertex_indices < f.vertex_indices]


class Polytope:
    """Full-dimensional lattice polytope with derived H-representation."""

    def __init__(self, vertices, halfspaces):
        self.vertices: tuple[tuple[int, ...], ...] = tuple(tuple(v) for v in vertices)
        self.halfspaces: tuple[HalfSpace, ...] = tuple(halfspaces)
        self.ambient_dim = len(self.vertices[0])

    @cached_property
    def face_lattice(self) -> FaceLattice:
        return face_lattice(self)

    @cached_property
    def simple(self) -> bool:
        return is_simple(self)

    def top_face(self) -> Face:
        lat = self.face_lattice
        return lat.faces[lat.top_index]

    def to_json(self) -> dict:
        return {"vertices": [list(v) for v in self.vertices]}

    def __repr__(self):
        return f"Polytope(dim={self.ambient_dim}, vertices={len(self.vertices)}, facets={len(self.halfspaces)})"


def build_polytope(points) -> Polytope:
    """Build a lattice polytope from integer points.

    Duplicates and non-extreme points are dropped.  The H-representation is
    found by scanning every hyperplane spanned by an affinely independent
    n-subset of the input and keeping those with all points on one closed
    side.  Its normal is the primitive integer nullspace vector of the
    subset's difference rows (None when they have rank below n - 1), turned
    inward.
    """
    if not isinstance(points, (list, tuple)):
        raise ValueError("vertices must be a list of coordinate lists")
    pts = []
    for p in points:
        if not isinstance(p, (list, tuple)) or not p:
            raise ValueError("each vertex must be a nonempty list of coordinates")
        tp = tuple(p)
        for x in tp:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError("vertices must be lattice points")
        if tp not in pts:
            pts.append(tp)
    if not pts:
        raise ValueError("polytope not full-dimensional")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("vertices must share one ambient dimension")
    if affine_rank(pts) != n:
        raise ValueError("polytope not full-dimensional")

    halfspaces: set[HalfSpace] = set()
    # input points on each facet found so far, as bitmasks; an n-subset
    # inside one of them can only span that facet again
    facet_masks: list[int] = []
    for subset in combinations(range(len(pts)), n):
        mask = sum(1 << i for i in subset)
        if any(mask & fm == mask for fm in facet_masks):
            continue
        base = pts[subset[0]]
        # the base's own zero row keeps the matrix nonempty when n = 1
        diffs = [[pts[i][k] - base[k] for k in range(n)] for i in subset]
        u = nullspace_vector(diffs)
        if u is None:
            continue
        c = sum(a * b for a, b in zip(base, u))
        sides = [sum(a * b for a, b in zip(p, u)) - c for p in pts]
        if all(s >= 0 for s in sides):
            halfspaces.add(HalfSpace(u, -c))
        elif all(s <= 0 for s in sides):
            neg = tuple(-x for x in u)
            halfspaces.add(HalfSpace(neg, c))
        else:
            continue
        facet_masks.append(sum(1 << i for i, s in enumerate(sides) if s == 0))

    facets = sorted(halfspaces, key=lambda h: (h.normal, h.offset))
    vertices = []
    for p in pts:
        active = [h.normal for h in facets if h.value(p) == 0]
        if len(active) >= n and mat_rank(active) == n:
            vertices.append(p)
    vertices.sort()
    return Polytope(vertices, facets)


def face_lattice(P: Polytope) -> FaceLattice:
    """Faces as intersections of facet vertex sets, closed under meet."""
    facet_sets = [frozenset(i for i, v in enumerate(P.vertices) if h.value(v) == 0)
                  for h in P.halfspaces]
    top = frozenset(range(len(P.vertices)))
    found = {top}
    queue = [top]
    while queue:
        current = queue.pop()
        for fs in facet_sets:
            meet = current & fs
            if meet not in found:
                found.add(meet)
                queue.append(meet)
    found.add(frozenset())

    faces = []
    for vset in found:
        if vset:
            dim = affine_rank([P.vertices[i] for i in vset])
        else:
            dim = -1
        containing = frozenset(i for i, fs in enumerate(facet_sets) if vset <= fs and vset)
        faces.append(Face(vset, dim, containing))
    faces.sort(key=lambda f: (f.dim, sorted(f.vertex_indices)))
    return FaceLattice(faces)


def is_simple(P: Polytope) -> bool:
    """True when every vertex lies on exactly n facets."""
    n = P.ambient_dim
    lat = P.face_lattice
    return all(len(lat.faces[i].containing_facets) == n for i in lat.faces_of_dim(0))


def scan_box(lo, hi, constraints):
    """Yield the integer points of the box lo <= x <= hi, in lexicographic
    order, that meet every constraint ``(normal, offset)``, an integer pair
    meaning <normal, x> + offset >= 0.  Each coordinate is solved as an
    interval: the constraints bound it given the coordinates before it and
    the most the box lets the ones after it add, so no value is tried that
    has no extension.  Face dilates and cone parallelepipeds are both
    enumerated here.
    """
    n = len(lo)
    columns = [[u[d] for u, _ in constraints] for d in range(n)]
    # reach[d][ci]: the largest value coordinates d..n-1 can add to normal ci
    reach = [[0] * len(constraints) for _ in range(n + 1)]
    for d in range(n - 1, -1, -1):
        reach[d] = [r + max(a * lo[d], a * hi[d]) for r, a in zip(reach[d + 1], columns[d])]
    point = [0] * n

    def scan(d, partial):
        if d == n:
            yield tuple(point)
            return
        column = columns[d]
        first, last = lo[d], hi[d]
        for a, p, r in zip(column, partial, reach[d + 1]):
            need = -(p + r)  # a * x must reach this
            if a > 0:
                first = max(first, -(-need // a))
            elif a < 0:
                last = min(last, need // a)
            elif need > 0:
                return
        for x in range(first, last + 1):
            point[d] = x
            yield from scan(d + 1, [p + a * x for p, a in zip(partial, column)])

    return scan(0, [c for _, c in constraints])


def iter_lattice_points(P: Polytope, face: Face, q: int, interior: bool = False):
    """Iterate over the lattice points of the dilate q*face.

    A facet containing the face gives <u, x> + q*c >= 0 and its negation;
    every other facet gives <u, x> + q*c >= 0 closed, or <u, x> + q*c - 1
    >= 0 for the relative interior.  The points come from ``scan_box``
    over the bounding box of q*face; bad arguments raise ``ValueError`` at
    the call, before any point is produced.
    """
    if not isinstance(q, int) or q <= 0:
        raise ValueError("dilation must be positive")
    if face.dim < 0:
        raise ValueError("the empty face has no dilates")
    verts = [P.vertices[i] for i in face.vertex_indices]
    lo = [q * min(v[k] for v in verts) for k in range(P.ambient_dim)]
    hi = [q * max(v[k] for v in verts) for k in range(P.ambient_dim)]
    constraints = []
    for idx, h in enumerate(P.halfspaces):
        qc = q * h.offset
        if idx in face.containing_facets:
            constraints += [(h.normal, qc), (tuple(-a for a in h.normal), -qc)]
        else:
            constraints.append((h.normal, qc - 1 if interior else qc))
    return scan_box(lo, hi, constraints)


def pulling_triangulation(P: Polytope, anchor: str = "min"):
    """Triangulate combinatorially by pulling at one vertex per face.

    Each face is coned from its lowest-indexed vertex (or highest, with
    ``anchor="max"``) over the triangulations of its facets missing that
    vertex.  The result is a list of vertex-index tuples of length n+1.
    Only the face lattice is consulted, so the same triangulation is valid
    for any small deformation of the facets.
    """
    lat = P.face_lattice
    pick = min if anchor == "min" else max
    memo: dict[int, list[tuple[int, ...]]] = {}

    def simplices_of(face_index: int):
        if face_index in memo:
            return memo[face_index]
        face = lat.faces[face_index]
        if len(face.vertex_indices) == face.dim + 1:
            memo[face_index] = [tuple(sorted(face.vertex_indices))]
            return memo[face_index]
        v0 = pick(face.vertex_indices)
        out = []
        for sub in lat.maximal_proper_subfaces(face_index):
            if v0 not in lat.faces[sub].vertex_indices:
                for s in simplices_of(sub):
                    out.append((v0,) + s)
        memo[face_index] = out
        return out

    return simplices_of(lat.top_index)


def volume(P: Polytope) -> Fraction:
    """Lebesgue volume (fundamental domain of Z^n has volume 1)."""
    n = P.ambient_dim
    total = Fraction(0)
    for simplex in pulling_triangulation(P):
        base = P.vertices[simplex[0]]
        rows = [[P.vertices[i][k] - base[k] for k in range(n)] for i in simplex[1:]]
        total += abs(det(rows))
    return total / math.factorial(n)


def euler_characteristic(P: Polytope) -> int:
    """Alternating face count over nonempty faces; equals 1 for polytopes."""
    return sum((-1) ** P.face_lattice.faces[i].dim for i in P.face_lattice.nonempty())
