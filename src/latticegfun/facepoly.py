"""Face-count polynomials of polytopes and ranked posets.

Implements the h-polynomial transform of the f-vector, the recursive
f/g-polynomial pair of a ranked (Eulerian) poset on integer lists, dual
face g-polynomials, and the palindromy ("master duality") check.  One
function, ``_fg_lists``, runs the f/g recursion for every poset here, and
every face order it is given is the face lattice's ``below`` or ``above``.

The g-polynomial of the dual face is computed purely combinatorially from
the reversed interval [F, P] of the face poset, for every F in one run of
that recursion over the reversed face lattice.  It never constructs the
polar polytope geometrically: g depends only on the poset, and polar duals
of lattice polytopes need not be lattice polytopes.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from weakref import WeakKeyDictionary

from .algebra import MultiPoly, convolve, pascal_row, poly_from_list, resum
from .polytope import Face, FaceLattice, Polytope


class GradedPoset:
    """A finite ranked poset with a unique bottom element of rank 0.

    ``below[i]`` is the set of elements strictly below i: the whole strict
    order, transitively closed.  Construction checks for one bottom of rank
    0 and one top, ranks rising along the order, and each j covered one
    rank down: nothing in ``below[j]`` lies outside its covers (the elements
    of rank(j) - 1 below it) and their ``below`` sets.  That costs one set
    difference per element, with no test per pair.
    """

    def __init__(self, ranks, below):
        self.ranks = tuple(ranks)
        self.below = tuple(frozenset(b) for b in below)
        self._validate()

    def _validate(self):
        bottoms = [i for i, b in enumerate(self.below) if not b]
        if len(bottoms) != 1 or self.ranks[bottoms[0]] != 0:
            raise ValueError("poset is not ranked: no unique rank-0 bottom")
        tops = [i for i, b in enumerate(self.below) if len(b) == len(self.below) - 1]
        if len(tops) != 1:
            raise ValueError("poset is not ranked: no unique top")
        self.top = tops[0]
        for j, bel in enumerate(self.below):
            rank = self.ranks[j]
            if any(self.ranks[i] >= rank for i in bel):
                raise ValueError("poset is not ranked: order violates rank")
            covers = [i for i in bel if self.ranks[i] == rank - 1]
            if bel.difference(covers, *(self.below[i] for i in covers)):
                raise ValueError("poset is not ranked: cover skips a rank")

    @classmethod
    def from_face_lattice(cls, lattice: FaceLattice) -> GradedPoset:
        """The full face poset including the empty face (rank 0)."""
        return cls([f.rank for f in lattice.faces], lattice.below)

    @cached_property
    def _fg(self) -> tuple[list[list[int]], list[int]]:
        """``_fg_lists`` of this poset, run once for ``fg_polynomials`` and
        ``check_master_duality`` both."""
        return _fg_lists(self.ranks, self.below)


def _fg_lists(ranks, below) -> tuple[list[list[int]], list[int]]:
    """Integer g-list of every element of a ranked poset, and the f-list of
    the last element in rank order (the top of a ``GradedPoset``).

    An element of rank n + 1 has f = sum of g(b)·(x-1)^(n - rank b) over
    the elements b below it, added per rank before the product, and its g
    keeps f's first floor(n/2)+1 differences; the bottom has f = g = [1].
    """
    g: list = [None] * len(ranks)
    for e in sorted(range(len(ranks)), key=ranks.__getitem__):
        n = ranks[e] - 1
        f = [0] * (n + 1) or [1]  # the bottom (n = -1) has nothing below
        per_rank = defaultdict(list)  # the g-lists below e, by rank; one rank's share a length
        for b in below[e]:
            per_rank[ranks[b]].append(g[b])
        for r, lists in per_rank.items():
            for k, c in enumerate(convolve(list(map(sum, zip(*lists))), pascal_row(n - r, -1))):
                f[k] += c
        g[e] = f[:1] + [f[k] - f[k - 1] for k in range(1, n // 2 + 1)]
    return g, f


def fg_polynomials(Q: GradedPoset) -> tuple[MultiPoly, MultiPoly]:
    """The f- and g-polynomials of the top of a ranked poset, from
    ``_fg_lists``: in x for f above rank 1 and for g above rank 0, else
    constants over no variables."""
    g, f = Q._fg
    rank = Q.ranks[Q.top]
    return (poly_from_list("x" if rank > 1 else None, f),
            poly_from_list("x" if rank else None, g[Q.top]))


def h_polynomial(P: Polytope) -> MultiPoly:
    """h(P, t): the f-vector resummed in powers of (t - 1)."""
    return poly_from_list("t", resum(P.face_lattice.f_vector(), -1))


def dual_g(P: Polytope, F: Face) -> MultiPoly:
    """g-polynomial of the dual face: the reversed interval [F, P].

    Returns 1 at once when F lies on exactly codim F facets: the interval
    is then Boolean and the dual face a simplex.  That covers F = P and
    every face of a simple polytope.  Any other face reads a table that
    ``_fg_lists`` fills in one run over the whole reversed lattice (rank
    n - dim, order ``above``), in which the lower interval of F is the
    reversed [F, P].
    """
    if len(F.containing_facets) == P.ambient_dim - F.dim:
        return _BOOLEAN_TOP if F.dim == P.ambient_dim else _BOOLEAN
    lattice = P.face_lattice
    if lattice not in _dual_g_tables:
        g, _ = _fg_lists([P.ambient_dim - f.dim for f in lattice.faces], lattice.above)
        _dual_g_tables[lattice] = [poly_from_list("x", gi) for gi in g]
    return _dual_g_tables[lattice][lattice.index_of(F.vertex_indices)]


_dual_g_tables: WeakKeyDictionary = WeakKeyDictionary()
# g of a Boolean [F, P], shared, in fg_polynomials' variables: F = P, then F < P
_BOOLEAN_TOP, _BOOLEAN = MultiPoly.const(1), MultiPoly(("x",), {(0,): 1})


def check_master_duality(Q: GradedPoset) -> bool:
    """True when the f-polynomial of the top is palindromic."""
    _, f = Q._fg
    return f == f[::-1]


def gessel_cube_g(n: int) -> MultiPoly:
    """Closed form of the g-polynomial of the n-dimensional cube; a
    constant over no variables below dimension 2."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return poly_from_list("x" if n > 1 else None, resum(
        [Fraction(math.comb(n, k) * math.comb(2 * n - 2 * k, n), n - k + 1)
         for k in range(n // 2 + 1)], -1))


def cube_face_poset(n: int) -> GradedPoset:
    """The face poset of the n-cube built combinatorially.

    Faces are words over {0, 1, *}; the faces of a word fix some of its
    free positions.  It needs no hull, so checking ``fg_polynomials`` on it
    against ``gessel_cube_g`` tests the recursion apart from the geometry.
    """
    words = list(itertools.product("01*", repeat=n))
    index = {w: i for i, w in enumerate(words, 1)}  # index 0 is the empty face
    below: list[set[int]] = [set()]
    for w in words:
        faces = itertools.product(*["01*" if c == "*" else c for c in w])
        below.append({0, *(index[v] for v in faces if v != w)})
    return GradedPoset([0] + [w.count("*") + 1 for w in words], below)
