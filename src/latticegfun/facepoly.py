"""Face-count polynomials of polytopes and ranked posets.

Implements the h-polynomial transform of the f-vector, the recursive
f/g-polynomial pair of a ranked (Eulerian) poset on integer lists, dual
face g-polynomials, and the palindromy ("master duality") check.

The g-polynomial of the dual face is computed purely combinatorially from
the reversed interval [F, P] of the face poset, for every F in one pass
over the reversed face lattice.  It never constructs the polar polytope
geometrically: g depends only on the poset, and polar duals of lattice
polytopes need not be lattice polytopes.
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
        ranks = [f.rank for f in lattice.faces]
        below = []
        for j in range(len(lattice.faces)):
            below.append({i for i in range(len(lattice.faces))
                          if i != j and lattice.leq(i, j)})
        return cls(ranks, below)

    @classmethod
    def reversed_interval(cls, lattice: FaceLattice, low: int) -> GradedPoset:
        """The interval [low, top] of the face lattice with order reversed.

        Ranks become codimensions, the polytope sits at the bottom, and the
        chosen face is the top element.
        """
        members = lattice.interval(low, lattice.top_index)
        n = lattice.faces[lattice.top_index].dim
        ranks = [n - lattice.faces[i].dim for i in members]
        below = []
        for j, fj in enumerate(members):
            below.append({i for i, fi in enumerate(members)
                          if fi != fj and lattice.leq(fj, fi)})
        return cls(ranks, below)


def fg_polynomials(Q: GradedPoset) -> tuple[MultiPoly, MultiPoly]:
    """The recursive f- and g-polynomials of a ranked poset.

    For an element of rank r+1, f is the sum of g of every strictly
    smaller element times (x-1)^(r - rank), and g keeps the first
    floor(r/2)+1 coefficient differences of f.
    """
    g: dict[int, list[int]] = {}
    for e in sorted(range(len(Q)), key=lambda i: Q.ranks[i]):  # the top comes last
        f, g[e] = _fg_step(Q.ranks[e] - 1, [(g[b], Q.ranks[b]) for b in Q.below[e]])
    rank = Q.ranks[Q.top]
    return (poly_from_list("x" if rank > 1 else None, f),
            poly_from_list("x" if rank else None, g[Q.top]))


def _fg_step(n: int, lower) -> tuple[list[int], list[int]]:
    """Integer f- and g-lists of an element of rank n + 1 from the pairs
    (g-list, rank) of the elements below it; ([1], [1]) at rank 0."""
    if n < 0:
        return [1], [1]
    f = [0] * (n + 1)
    for g, rank in lower:
        for k, c in enumerate(convolve(g, pascal_row(n - rank, -1))):
            f[k] += c
    return f, f[:1] + [f[k] - f[k - 1] for k in range(1, n // 2 + 1)]


def h_polynomial(P: Polytope) -> MultiPoly:
    """h(P, t): the f-vector resummed in powers of (t - 1)."""
    t = MultiPoly.variable("t")
    fvec = P.face_lattice.f_vector()
    total = MultiPoly.zero()
    for k, fk in enumerate(fvec):
        total = total + fk * (t - 1) ** k
    return total


def dual_g(P: Polytope, F: Face) -> MultiPoly:
    """g-polynomial of the dual face: the reversed interval [F, P].

    Returns 1 at once when F lies on exactly codim F facets: the interval
    is then Boolean and the dual face a simplex.  That covers F = P and
    every face of a simple polytope.  Any other face reads a table filled
    by one top-down pass over the whole reversed lattice, in which the
    lower interval of F is the reversed [F, P].
    """
    if len(F.containing_facets) == P.ambient_dim - F.dim:
        # same variable tuple as fg_polynomials gives for these intervals
        return MultiPoly.const(1) if F.dim == P.ambient_dim else MultiPoly(("x",), {(0,): 1})
    lattice = P.face_lattice
    if lattice not in _dual_g_tables:
        faces, n, g = lattice.faces, P.ambient_dim, {}
        for i in sorted(range(len(faces)), key=lambda k: -faces[k].dim):
            g[i] = _fg_step(n - faces[i].dim - 1, [
                (g[j], n - faces[j].dim) for j in g
                if faces[i].vertex_indices < faces[j].vertex_indices])[1]
        _dual_g_tables[lattice] = {i: poly_from_list("x", g[i]) for i in g}
    return _dual_g_tables[lattice][lattice.index_of(F.vertex_indices)]


_dual_g_tables: WeakKeyDictionary = WeakKeyDictionary()


def check_master_duality(Q: GradedPoset) -> bool:
    """True when the f-polynomial is palindromic."""
    f, _ = fg_polynomials(Q)
    n = Q.ranks[Q.top] - 1
    coeffs = {k: c.constant_value() for k, c in f.coefficients_in("x").items()}
    return all(coeffs.get(k, Fraction(0)) == coeffs.get(n - k, Fraction(0))
               for k in range(n + 1))


def gessel_cube_g(n: int) -> MultiPoly:
    """Closed form of the g-polynomial of the n-dimensional cube."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    x = MultiPoly.variable("x")
    total = MultiPoly.zero()
    for k in range(n // 2 + 1):
        coeff = Fraction(math.comb(n, k) * math.comb(2 * n - 2 * k, n), n - k + 1)
        total = total + coeff * (x - 1) ** k
    return total


def cube_face_poset(n: int) -> GradedPoset:
    """The face poset of the n-cube built combinatorially.

    Faces are words over {0, 1, *}; containment fixes the free positions.
    Keeps the poset constructible for dimensions where a geometric scan
    would be too slow.
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
