"""Face-count polynomials of polytopes and ranked posets.

Implements the h-polynomial transform of the f-vector, the recursive
f/g-polynomial pair of a ranked (Eulerian) poset on integer lists, dual
face g-polynomials, and the palindromy ("master duality") check.  One
function, ``_fg_lists``, runs the f/g recursion for every poset here.

The g-polynomial of the dual face is computed purely combinatorially from
the reversed interval [F, P] of the face poset, for every F in one run of
that recursion over the reversed face lattice.  It never constructs the
polar polytope geometrically: g depends only on the poset, and polar duals
of lattice polytopes need not be lattice polytopes.
"""
from __future__ import annotations

import math
from fractions import Fraction
from weakref import WeakKeyDictionary

from .algebra import MultiPoly, convolve, pascal_row, poly_from_list
from .polytope import Face, FaceLattice, Polytope


class GradedPoset:
    """A finite ranked poset with a unique bottom element of rank 0.

    ``below[i]`` is the set of elements strictly below i.  Construction
    validates gradedness: covering steps must raise the rank by exactly 1.
    """

    def __init__(self, ranks, below):
        self.ranks = tuple(ranks)
        self.below = tuple(frozenset(b) for b in below)
        self._validate()

    def _validate(self):
        bottoms = [i for i, b in enumerate(self.below) if not b]
        if len(bottoms) != 1 or self.ranks[bottoms[0]] != 0:
            raise ValueError("poset is not ranked: no unique rank-0 bottom")
        tops = [i for i in range(len(self.ranks))
                if all(j in self.below[i] for j in range(len(self.ranks)) if j != i)]
        if len(tops) != 1:
            raise ValueError("poset is not ranked: no unique top")
        self.bottom = bottoms[0]
        self.top = tops[0]
        for j, bel in enumerate(self.below):
            for i in bel:
                if self.ranks[i] >= self.ranks[j]:
                    raise ValueError("poset is not ranked: order violates rank")
                covered = not any(i in self.below[z] for z in bel)
                if covered and self.ranks[j] != self.ranks[i] + 1:
                    raise ValueError("poset is not ranked: cover skips a rank")

    def __len__(self):
        return len(self.ranks)

    @classmethod
    def from_face_lattice(cls, lattice: FaceLattice) -> GradedPoset:
        """The full face poset including the empty face (rank 0)."""
        return cls([f.rank for f in lattice.faces],
                   _proper_subsets([f.vertex_indices for f in lattice.faces]))

    @classmethod
    def reversed_interval(cls, lattice: FaceLattice, low: int) -> GradedPoset:
        """The interval [low, top] of the face lattice with order reversed.

        Ranks become codimensions, the polytope sits at the bottom, and the
        chosen face is the top element.
        """
        top = lattice.faces[lattice.top_index]
        faces = [lattice.faces[i] for i in lattice.interval(low, lattice.top_index)]
        # the vertices a face misses shrink as the face grows
        return cls([top.dim - f.dim for f in faces],
                   _proper_subsets([top.vertex_indices - f.vertex_indices for f in faces]))


def _proper_subsets(sets) -> list[set[int]]:
    """Strict inclusion as ``below`` sets: entry j holds the index of every
    proper subset of ``sets[j]``."""
    return [{i for i, small in enumerate(sets) if small < big} for big in sets]


def _fg_lists(ranks, below) -> tuple[list[list[int]], list[int]]:
    """Integer g-list of every element of a ranked poset, and the f-list of
    the last element in rank order (the top of a ``GradedPoset``).

    An element of rank n + 1 has f = sum of g(b)·(x-1)^(n - rank b) over
    the elements b below it, and its g keeps the first floor(n/2)+1
    coefficient differences of f; the bottom has f = g = [1].
    """
    g: list = [None] * len(ranks)
    for e in sorted(range(len(ranks)), key=ranks.__getitem__):
        n = ranks[e] - 1
        f = [0] * (n + 1) or [1]  # the bottom (n = -1) has nothing below
        for b in below[e]:
            for k, c in enumerate(convolve(g[b], pascal_row(n - ranks[b], -1))):
                f[k] += c
        g[e] = f[:1] + [f[k] - f[k - 1] for k in range(1, n // 2 + 1)]
    return g, f


def fg_polynomials(Q: GradedPoset) -> tuple[MultiPoly, MultiPoly]:
    """The f- and g-polynomials of the top of a ranked poset, from
    ``_fg_lists``: in x for f above rank 1 and for g above rank 0, else
    constants over no variables."""
    g, f = _fg_lists(Q.ranks, Q.below)
    rank = Q.ranks[Q.top]
    return (poly_from_list("x" if rank > 1 else None, f),
            poly_from_list("x" if rank else None, g[Q.top]))


def _resum(coeffs) -> list:
    """Coefficient list of the sum of coeffs[k]·(x-1)^k."""
    out = [0] * len(coeffs)
    for k, a in enumerate(coeffs):
        for j, c in enumerate(pascal_row(k, -1)):
            out[j] += a * c
    return out


def h_polynomial(P: Polytope) -> MultiPoly:
    """h(P, t): the f-vector resummed in powers of (t - 1)."""
    return poly_from_list("t", _resum(P.face_lattice.f_vector()))


def dual_g(P: Polytope, F: Face) -> MultiPoly:
    """g-polynomial of the dual face: the reversed interval [F, P].

    Returns 1 at once when F lies on exactly codim F facets: the interval
    is then Boolean and the dual face a simplex.  That covers F = P and
    every face of a simple polytope.  Any other face reads a table that
    ``_fg_lists`` fills in one run over the whole reversed lattice (rank
    n - dim), in which the lower interval of F is the reversed [F, P].
    """
    if len(F.containing_facets) == P.ambient_dim - F.dim:
        # same variable tuple as fg_polynomials gives for these intervals
        return MultiPoly.const(1) if F.dim == P.ambient_dim else MultiPoly(("x",), {(0,): 1})
    lattice = P.face_lattice
    if lattice not in _dual_g_tables:
        faces, top = lattice.faces, lattice.faces[lattice.top_index].vertex_indices
        g, _ = _fg_lists([P.ambient_dim - f.dim for f in faces],
                         _proper_subsets([top - f.vertex_indices for f in faces]))
        _dual_g_tables[lattice] = [poly_from_list("x", gi) for gi in g]
    return _dual_g_tables[lattice][lattice.index_of(F.vertex_indices)]


_dual_g_tables: WeakKeyDictionary = WeakKeyDictionary()


def check_master_duality(Q: GradedPoset) -> bool:
    """True when the f-polynomial of the top is palindromic."""
    _, f = _fg_lists(Q.ranks, Q.below)
    return f == f[::-1]


def gessel_cube_g(n: int) -> MultiPoly:
    """Closed form of the g-polynomial of the n-dimensional cube; a
    constant over no variables below dimension 2."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return poly_from_list("x" if n > 1 else None, _resum(
        [Fraction(math.comb(n, k) * math.comb(2 * n - 2 * k, n), n - k + 1)
         for k in range(n // 2 + 1)]))


def cube_face_poset(n: int) -> GradedPoset:
    """The face poset of the n-cube built combinatorially.

    Faces are words over {0, 1, *}; containment fixes the free positions.
    It needs no hull, so checking ``fg_polynomials`` on it against
    ``gessel_cube_g`` tests the recursion apart from the geometry.
    """
    words = [()]
    for _ in range(n):
        words = [w + (c,) for w in words for c in ("0", "1", "*")]
    elements = [None] + words  # index 0 is the empty face

    def contains(big, small) -> bool:
        return all(b == "*" or b == s for b, s in zip(big, small))

    ranks = [0] + [w.count("*") + 1 for w in words]
    below: list[set[int]] = [set() for _ in elements]
    for j in range(1, len(elements)):
        below[j].add(0)
        for i in range(1, len(elements)):
            if i != j and contains(elements[j], elements[i]):
                below[j].add(i)
    return GradedPoset(ranks, below)
