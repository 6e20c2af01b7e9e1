"""The two-variable generating function of weighted face sums.

G(q, y) packages the weighted sums of all nonempty faces with signs and
powers of y, each face carrying the g-polynomial of its dual face.  Two
equivalent assemblies exist: the closed-face form, where the dual-face
factor is evaluated at -1/y and the formal 1/y is cleared through the
(-y)^codim prefactor, and the interior form built from relative-interior
sums with the factor at -y.  Every build computes both, each in a dense
[q-power][y-power] table, and insists they agree.  The y-lists depend on
a face only through its dimension and dual g-list, so the faces of one
such class add their q-lists first and the class multiplies once.
``verify_todd_formula`` checks G against the Todd operator route's.
"""
from __future__ import annotations

import math
from collections import defaultdict, namedtuple
from fractions import Fraction

from .algebra import MultiPoly, WeightPoly, convolve, pascal_row, poly_to_list
from .facepoly import dual_g
from .polytope import Polytope, build_polytope, volume
from .todd import apply_todd
from .wsum import weighted_sum_poly


class GFunction(namedtuple("GFunction", "poly n d polytope phi")):
    """An assembled generating function with its provenance."""

    __slots__ = ()


def _cleared(g: list, codim: int) -> list:
    """The y-list of (-y)^codim * g(-1/y): the coefficient of x^j goes to
    (-1)^(codim + j) y^(codim - j).  The degree bound deg g <= codim/2
    keeps every exponent nonnegative."""
    if len(g) > codim + 1:
        raise RuntimeError("dual-face polynomial exceeds its degree bound")
    return [(-1) ** (codim + j) * c for j, c in enumerate(g + [0] * (codim + 1 - len(g)))][::-1]


def build_gfun(P: Polytope, phi: WeightPoly | None = None) -> GFunction:
    """Assemble G(q, y) for a polytope and homogeneous weight.

    Both the closed-face and interior forms are computed, each into a
    [q-power][y-power] table of integers over one denominator; a
    disagreement would indicate an internal error and raises.
    """
    if phi is None:
        phi = WeightPoly.one(P.ambient_dim)
    n, d = P.ambient_dim, phi.degree

    # dual_g hands out shared polynomials; each is read once, and held so its id stays its own
    g_of = {}  # id(dual g) -> (dual g, its int tuple)
    classes = defaultdict(lambda: ({}, {}))  # (dim, g) -> closed, open {(exps, den): numerators}
    for face, wsp in weighted_sum_poly(P, P.top_face(), phi).items():
        poly = dual_g(P, face)
        if id(poly) not in g_of:
            g_of[id(poly)] = poly, tuple(int(c) for c in poly_to_list(poly))
        for acc, q_poly in zip(classes[face.dim, g_of[id(poly)][1]], (wsp.closed, wsp.open)):
            for exps, c in q_poly.terms.items():
                key = exps, c.denominator
                acc[key] = acc.get(key, 0) + c.numerator
    den = math.lcm(*(key[1] for accs in classes.values() for acc in accs for key in acc))
    closed_table, open_table = ([[0] * (n + 1) for _ in range(n + d + 1)] for _ in range(2))
    for (dim, g), (closed_acc, open_acc) in classes.items():
        for table, y_list, acc in (
                (closed_table, _cleared(list(g), n - dim), closed_acc),
                (open_table, [(-1) ** j * c for j, c in enumerate(g)], open_acc)):
            y_list = convolve(pascal_row(dim), y_list)
            for (exps, c_den), c in acc.items():
                row, c = table[sum(exps)], c * (den // c_den)
                for j, b in enumerate(y_list):
                    row[j] += c * b

    # both tables still lack the common factor (y+1)^d, by which multiplying
    # is injective, so comparing them first is the same check
    if closed_table != open_table:
        i, j, c, e = next((i, j, c, e) for i, rows in enumerate(zip(closed_table, open_table))
                          for j, (c, e) in enumerate(zip(*rows)) if c != e)
        raise RuntimeError(f"closed-face and interior assemblies disagree at [{i}][{j}] (q^{i} "
                           f"y^{j} before the factor (y+1)^{d}): closed {Fraction(c, den)}, "
                           f"interior {Fraction(e, den)}")
    terms = {(i, j): Fraction(c, den) for i, row in enumerate(closed_table)
             for j, c in enumerate(convolve(row, pascal_row(d))) if c}
    return GFunction(MultiPoly(("q", "y"), terms), n, d, P, phi)


def reciprocity_image(G: GFunction) -> MultiPoly:
    """(-y)^(n+d) G(-q, 1/y), expanded term by term.

    A y-power above n+d leaves a negative exponent in the image, which
    then cannot equal G.
    """
    total_deg = G.n + G.d
    poly = G.poly
    qi = poly.vars.index("q") if "q" in poly.vars else None
    yi = poly.vars.index("y") if "y" in poly.vars else None
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in poly.terms.items():
        i = exps[qi] if qi is not None else 0
        key = list(exps)
        if yi is not None:
            key[yi] = total_deg - exps[yi]
        out[tuple(key)] = -coeff if (i + total_deg) % 2 else coeff
    return MultiPoly(poly.vars, out)


def check_reciprocity(G: GFunction) -> bool:
    """G(q, y) == (-y)^(n+d) G(-q, 1/y) as exact polynomials."""
    return reciprocity_image(G) == G.poly


def verify_todd_formula(P: Polytope, phi: WeightPoly | None = None) -> bool:
    """Check the operator route against the face-sum assembly of G(q, y)."""
    return apply_todd(P, phi) == build_gfun(P, phi).poly


def y_coefficient_profile(G: GFunction) -> list[MultiPoly]:
    """Coefficient polynomials L_0..L_n of powers of y, for a constant weight.

    Checks that the leading q-coefficient of L_p is binom(n, p) times the
    weight's constant value times the Lebesgue volume, with the volume
    computed independently from a triangulation.
    """
    if G.d != 0:
        raise ValueError("the y-profile is defined for the constant weight")
    vol = volume(G.polytope)
    n = G.n
    layers = G.poly.coefficients_in("y")
    out = []
    for p in range(n + 1):
        layer = layers.get(p, MultiPoly.zero())
        lead = layer.coefficient("q", n).constant_value()
        if lead != math.comb(n, p) * G.phi.at_origin() * vol:
            raise RuntimeError("leading coefficient does not match the volume profile")
        out.append(layer)
    return out


def cross_polytope(n: int) -> Polytope:
    """Convex hull of the standard basis vectors and their negatives."""
    verts = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        verts.append(tuple(e))
        verts.append(tuple(-x for x in e))
    return build_polytope(verts)
