"""Lattice polytopes: V- and H-representations, face lattice, enumeration.

Polytopes are always full-dimensional with vertices in Z^n; the lattice is
fixed as Z^n.  The facets come from an incremental double-description hull
over the integers, whose cost follows the facets it meets rather than the
number of n-point subsets of the input.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import chain, repeat
from operator import and_, itemgetter, mul
from weakref import WeakKeyDictionary

from .linalg import det, mat_rank, nullspace_vector


class HalfSpace(namedtuple("HalfSpace", "normal offset")):
    """Inward halfspace <x, normal> + offset >= 0 with primitive normal."""

    __slots__ = ()

    def value(self, point):
        return sum(map(mul, point, self.normal)) + self.offset


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
    """All faces of a polytope as a ranked poset ordered by inclusion.

    The faces come in rank order, empty face first and polytope last.
    ``covers[j]`` holds the facets of face j, in face order; ``below[j]``
    (each face strictly inside face j) and ``above[j]`` (each face strictly
    containing it) are closed from the covers in rank order on first use.
    """

    def __init__(self, faces: list[Face], covers: list[tuple[int, ...]]):
        self.faces = tuple(faces)
        self.covers = tuple(covers)
        self._by_vertices = {f.vertex_indices: i for i, f in enumerate(self.faces)}
        self.empty_index, self.top_index = 0, len(self.faces) - 1

    @cached_property
    def below(self) -> tuple[frozenset[int], ...]:
        below = []  # the faces come in rank order, so each cover is closed first
        for covers in self.covers:
            below.append(frozenset(covers).union(*map(below.__getitem__, covers)))
        return tuple(below)

    @cached_property
    def above(self) -> tuple[frozenset[int], ...]:
        up = [[] for _ in self.faces]  # up[i]: the faces that face i is a facet of
        for j, covers in enumerate(self.covers):
            for i in covers:
                up[i].append(j)
        above = [frozenset()] * len(up)
        for i in reversed(range(len(up))):
            above[i] = frozenset(up[i]).union(*map(above.__getitem__, up[i]))
        return tuple(above)

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

    def f_vector(self) -> tuple[int, ...]:
        """Face counts (f_0, ..., f_n) including the polytope itself."""
        dims = [f.dim for f in self.faces]
        return tuple(dims.count(d) for d in range(dims[self.top_index] + 1))


class Polytope:
    """Full-dimensional lattice polytope with derived H-representation."""

    def __init__(self, vertices, halfspaces, incidences):
        self.vertices: tuple[tuple[int, ...], ...] = tuple(tuple(v) for v in vertices)
        self.halfspaces: tuple[HalfSpace, ...] = tuple(halfspaces)
        self.incidences: tuple[int, ...] = tuple(incidences)  # per facet, its vertices' bits
        self.ambient_dim = len(self.vertices[0])

    @cached_property
    def face_lattice(self) -> FaceLattice:
        return face_lattice(self)

    @cached_property
    def simple(self) -> bool:
        """True when every vertex lies on exactly n facets."""
        lat = self.face_lattice
        return all(len(lat.faces[i].containing_facets) == self.ambient_dim
                   for i in lat.faces_of_dim(0))

    def top_face(self) -> Face:
        lat = self.face_lattice
        return lat.faces[lat.top_index]

    def to_json(self) -> dict:
        return {"vertices": [list(v) for v in self.vertices]}

    def __repr__(self):
        return f"Polytope(dim={self.ambient_dim}, vertices={len(self.vertices)}, facets={len(self.halfspaces)})"


def build_polytope(points) -> Polytope:
    """Build a lattice polytope from integer points.

    Duplicates and non-extreme points are dropped.  The facets come from
    ``_hull``, which rejects lower-dimensional input, sorted by (normal,
    offset), so they do not depend on the order of the input.  A vertex is
    an input point that is the only one on all the facets through it, read
    from each facet's mask of the points on it; the vertices are sorted,
    and the masks, re-indexed to them, are kept as the ``incidences``.
    A point outside a facet breaks the hull and raises ``RuntimeError``.
    """
    if not isinstance(points, (list, tuple)):
        raise ValueError("vertices must be a list of coordinate lists")
    for p in points:
        if not isinstance(p, (list, tuple)) or not p:
            raise ValueError("each vertex must be a nonempty list of coordinates")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in p):
            raise ValueError("vertices must be lattice points")
    pts = list(dict.fromkeys(map(tuple, points)))
    if not pts:
        raise ValueError("polytope not full-dimensional")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("vertices must share one ambient dimension")

    facets = sorted(_hull(pts, n))
    masks = [0] * len(facets)  # masks[j]: the points on facet j
    for i, p in enumerate(pts):
        values = [h.value(p) for h in facets]
        if min(values) < 0:
            h = facets[values.index(min(values))]
            raise RuntimeError(f"hull invariant violated: point {p} is outside facet {h}")
        masks = [m | (v == 0) << i for m, v in zip(masks, values)]
    # the facets through a vertex meet in it alone; -1 has every bit
    order = sorted((p, i) for i, p in enumerate(pts)
                   if reduce(and_, [m for m in masks if m >> i & 1], -1) == 1 << i)
    incidences = [sum(1 << j for j, (_, i) in enumerate(order) if m >> i & 1) for m in masks]
    return Polytope([p for p, _ in order], facets, incidences)


def _hull(pts, n) -> list[HalfSpace]:
    """The facets of the hull of distinct lattice points in Z^n, by double
    description over the integers (README, "How the hull is built"): from
    a simplex of the first affinely independent points, each further point
    beyond some facets replaces them by the facets through it and the
    ridges between adjacent facets it is beyond and strictly beneath.
    Fewer than n + 1 independent points raise ``ValueError``.
    """
    rows, simplex = [], [0]
    for i in range(1, len(pts)):
        row = [a - b for a, b in zip(pts[i], pts[0])]
        if len(simplex) <= n and mat_rank(rows + [row]) > len(rows):
            rows.append(row)
            simplex.append(i)
    if len(simplex) <= n:
        raise ValueError("polytope not full-dimensional")
    facets = []  # (halfspace, mask of the points on it)
    for out in simplex:
        on = [i for i in simplex if i != out]
        base = pts[on[0]]
        # the base's own zero row keeps the matrix nonempty when n = 1
        u = nullspace_vector([[a - b for a, b in zip(pts[i], base)] for i in on])
        h = HalfSpace(u, -sum(a * b for a, b in zip(u, base)))
        if h.value(pts[out]) < 0:
            h = HalfSpace(tuple(-a for a in h.normal), -h.offset)
        facets.append((h, sum(1 << i for i in on)))
    for i, p in enumerate(pts):
        if i in simplex:
            continue
        bit = 1 << i
        values = [h.value(p) for h, _ in facets]
        beneath = [(h, m, v) for (h, m), v in zip(facets, values) if v > 0]
        beyond = [(h, m, v) for (h, m), v in zip(facets, values) if v < 0]
        kept = [(h, m | bit if v == 0 else m) for (h, m), v in zip(facets, values) if v >= 0]
        for f, fm, fv in beneath:
            for g, gm, gv in beyond:
                ridge = fm & gm  # a ridge lies in two facets, a smaller face in three or more
                if ridge.bit_count() < n - 1 or sum(m & ridge == ridge for _, m in facets) > 2:
                    continue
                # zero at p and on the ridge, positive on every point before p
                u = [fv * a - gv * b for a, b in zip(g.normal, f.normal)]
                d = math.gcd(*u)  # the offset stays integral: p is a lattice point
                kept.append((HalfSpace(tuple(a // d for a in u),
                                       (fv * g.offset - gv * f.offset) // d), ridge | bit))
        facets = kept
    return [h for h, _ in facets]


def face_lattice(P: Polytope) -> FaceLattice:
    """Faces as intersections of facet vertex sets, closed under meet on
    vertex bitmasks, ordered by (dim, sorted vertices); each face's covers,
    its facets, are recorded as face indices for ``below`` and ``above``."""
    found = {(1 << len(P.vertices)) - 1}
    for m in P.incidences:
        found |= {f & m for f in found}
    # a face's facets are its largest meets with the facets of P that miss
    # it, one dimension down, so met first; on: the facets of P through it
    dims, facets, on = {0: -1}, {0: []}, {0: frozenset()}  # the empty face
    for vset in sorted(found - {0}, key=int.bit_count):
        row = [vset & m for m in P.incidences]
        meets = set(row)
        meets.discard(vset)
        dim = dims[vset] = 1 + max(map(dims.__getitem__, meets))
        facets[vset] = [c for c in meets if dims[c] == dim - 1]
        on[vset] = frozenset([k for k, meet in enumerate(row) if meet == vset])
    order = sorted((dims[v], [i for i in range(len(P.vertices)) if v >> i & 1], v)
                   for v in found)  # by dim, then sorted vertices
    index = {v: j for j, (_, _, v) in enumerate(order)}
    return FaceLattice([Face(frozenset(verts), dim, on[v]) for dim, verts, v in order],
                       [tuple(sorted(map(index.__getitem__, facets[v]))) for _, _, v in order])


def scan_box(lo, hi, constraints, shadows=()):
    """Yield the integer points of the box lo <= x <= hi, in lexicographic
    order, that meet every constraint ``(normal, offset)``, an integer pair
    meaning <normal, x> + offset >= 0.  Each coordinate is solved as an
    interval given the ones before it, from one list per level built once
    per call: for d < len(shadows) < n, ``shadows[d]`` alone, constraints on
    coordinates 0..d whose real solutions are the projection of those of
    the box and the constraints; after that, the constraints with nonzero
    coefficient there, given the most the box lets later coordinates add.
    So each level leaves every constraint room, and one left out of a level
    for its coefficient 0 can fail only at level 0, where it is checked
    before the scan; an integer point of a rational shadow may still have
    no extension.  One loop over a stack of levels walks coordinates 0..n-3,
    each value x of n - 2 solves the last at once, and its interval goes out
    whole, as ``zip(*map(repeat, prefix), repeat(x), range(first, last + 1))``;
    the lines are chained, so no bytecode runs per point.  n = 1 is scanned
    with a coordinate 0 before it; an empty box (n = 0) holds the point ()
    if every offset is >= 0.  Face dilates are enumerated here; cone
    parallelepipeds are not (see ``todd.gamma_set``).
    """
    n, ns = len(lo), len(shadows)
    if not n:
        return iter([()] if all(c >= 0 for _, c in constraints) else [])
    if n == 1:  # a leading coordinate fixed at 0 is coordinate n - 2 for the last
        lifted = scan_box([0, *lo], [0, *hi], [((0, *u), c) for u, c in constraints])
        return map(itemgetter(slice(1, None)), lifted)
    # rows: each level's (normal, offset + reach), the later levels first, so
    # a level's partial sums are a prefix of them that its own rows end;
    # reach[ci]: the most the coordinates after the level can add to normal ci
    rows, columns, reach = [], [None] * n, [0] * len(constraints)
    below, above = [[] for _ in range(n)], [[] for _ in range(n)]  # (row, |a|)
    for d in range(n - 1, -1, -1):
        columns[d] = [u[d] for u, _ in rows]  # coordinate d in the later rows
        level = shadows[d] if d < ns else [(u, c + r) for (u, c), r in zip(constraints, reach)]
        for u, c in level:
            if u[d]:
                (below if u[d] > 0 else above)[d].append((len(rows), abs(u[d])))
                rows.append((u, c))
            elif c < 0 and not d:
                return iter(())
        if d > ns:
            reach = [r + u[d] * (hi[d] if u[d] > 0 else lo[d])
                     for r, (u, _) in zip(reach, constraints)]

    def lines():
        # levels[d]: (values left for coordinate d, partial sums before it),
        # d < n - 2; prefix[d]: the value drawn for coordinate d
        prefix, levels, partial = [], [], [c for _, c in rows]
        while True:
            d = len(levels)
            first, last = lo[d], hi[d]
            for i, a in below[d]:  # a * x + partial[i] >= 0
                x = -(partial[i] // a)
                if x > first:
                    first = x
            for i, a in above[d]:  # -a * x + partial[i] >= 0
                x = partial[i] // a
                if x < last:
                    last = x
            if d < n - 2:
                levels.append((iter(range(first, last + 1)), partial))
            else:  # each value x of coordinate n - 2 bounds the last one at once
                lows = [(partial[i], columns[d][i], a) for i, a in below[n - 1]]
                highs = [(partial[i], columns[d][i], a) for i, a in above[n - 1]]
                for x in range(first, last + 1):
                    start, stop = lo[-1], hi[-1]
                    for p, b, a in lows:  # a * y + p + b * x >= 0
                        y = -((p + b * x) // a)
                        if y > start:
                            start = y
                    for p, b, a in highs:  # -a * y + p + b * x >= 0
                        y = (p + b * x) // a
                        if y < stop:
                            stop = y
                    if start <= stop:
                        yield zip(*map(repeat, prefix), repeat(x), range(start, stop + 1))
            while levels:
                x = next(levels[-1][0], None)
                if x is not None:
                    break
                levels.pop()
            else:
                return
            del prefix[len(levels) - 1:]
            prefix.append(x)
            partial = [p + a * x for p, a in zip(levels[-1][1], columns[len(levels) - 1])]

    return chain.from_iterable(lines())


def iter_lattice_points(P: Polytope, face: Face, q: int, interior: bool = False):
    """Iterate over the lattice points of the dilate q*face.

    A facet containing the face gives <u, x> + q*c >= 0 and its negation;
    every other facet gives <u, x> + q*c >= 0 closed, or <u, x> + q*c - 1
    >= 0 for the relative interior.  The points come from ``scan_box`` over
    the bounding box of q*face, with the face's shadows times q when closed;
    bad arguments raise ``ValueError`` at the call, before any point.
    """
    if not isinstance(q, int) or isinstance(q, bool) or q <= 0:
        raise ValueError("dilation must be positive")
    if face.dim < 0:
        raise ValueError("the empty face has no dilates")
    box, shadows = _face_frame(P, face)
    lo, hi = [q * a for a, _ in box], [q * b for _, b in box]
    constraints = []
    for idx, h in enumerate(P.halfspaces):
        qc = q * h.offset
        if idx in face.containing_facets:
            constraints += [(h.normal, qc), (tuple(-a for a in h.normal), -qc)]
        else:
            constraints.append((h.normal, qc - 1 if interior else qc))
    shadows = () if interior else [[(u, q * c) for u, c in level] for level in shadows]
    return scan_box(lo, hi, constraints, shadows)


def _face_frame(P: Polytope, face: Face):
    """A face's bounding box, as (min, max) per coordinate, and the facets of
    its shadows, its projections onto coordinates 0..d for d < n - 1, up to
    the first that is not full-dimensional (no later one is); the one on
    coordinate 0 is the box's own interval.  Kept per face while P lives."""
    frames = _frames.setdefault(P, {})
    if face.vertex_indices not in frames:
        verts = [P.vertices[i] for i in sorted(face.vertex_indices)]
        shadows = [[]] if P.ambient_dim > 1 else []
        for d in range(2, P.ambient_dim):
            try:
                shadows.append(_hull(list(dict.fromkeys(v[:d] for v in verts)), d))
            except ValueError:
                break
        frames[face.vertex_indices] = [(min(c), max(c)) for c in zip(*verts)], shadows
    return frames[face.vertex_indices]


_frames: WeakKeyDictionary = WeakKeyDictionary()


def pulling_triangulation(P: Polytope, anchor: str = "min"):
    """Triangulate combinatorially by pulling at one vertex per face.

    Each face is coned from its lowest-indexed vertex (or highest, with
    ``anchor="max"``) over the triangulations of its facets missing that
    vertex.  The result is a list of vertex-index tuples of length n+1.
    Only the face lattice is consulted, so the same triangulation is valid
    for any small deformation of the facets.  Any other ``anchor`` raises
    ``ValueError``.
    """
    if anchor not in ("min", "max"):
        raise ValueError(f"anchor must be 'min' or 'max', not {anchor!r}")
    lat = P.face_lattice
    pick = min if anchor == "min" else max

    @cache
    def simplices_of(face_index: int) -> list[tuple[int, ...]]:
        face = lat.faces[face_index]
        if len(face.vertex_indices) == face.dim + 1:
            return [tuple(sorted(face.vertex_indices))]
        v0 = pick(face.vertex_indices)
        return [(v0,) + s for sub in lat.covers[face_index]
                if v0 not in lat.faces[sub].vertex_indices for s in simplices_of(sub)]

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
