"""Reference integral of a weight over the deformed dilate, sharing no
arithmetic with ``todd.symbolic_integral``: the pulling triangulation of P
with symbolically deformed vertices, a Leibniz determinant over
``MultiPoly`` per simplex, and the Dirichlet moments of the standard
simplex after the barycentric substitution.  The triangulation only reads
the face lattice, so it stays valid for every small deformation; each
simplex's orientation is read at t = 1, h = 0."""
import math
from fractions import Fraction

from latticegfun import MultiPoly, deformed_vertex
from latticegfun.polytope import pulling_triangulation

from linalg_reference import leibniz_det


def triangulation_integral(P, phi, anchor="min"):
    n = P.ambient_dim
    deformed = [deformed_vertex(P, i) for i in range(len(P.vertices))]
    tau = [f"tau{j + 1}" for j in range(n)]
    total = MultiPoly.zero()
    for simplex in pulling_triangulation(P, anchor=anchor):
        base = P.vertices[simplex[0]]
        sign = leibniz_det([[P.vertices[i][k] - base[k] for k in range(n)]
                            for i in simplex[1:]])
        if not sign:
            raise AssertionError("degenerate simplex in pulling triangulation")
        w0 = deformed[simplex[0]]
        edges = [[deformed[i][k] - w0[k] for k in range(n)] for i in simplex[1:]]
        substitution = {}
        for k in range(n):
            expr = w0[k]
            for j in range(n):
                expr = expr + MultiPoly.variable(tau[j]) * edges[j][k]
            substitution[f"x{k + 1}"] = expr
        integrand = phi.poly.substitute(substitution)

        moments = {}
        rest_vars = tuple(v for v in integrand.vars if v not in tau)
        for exps, coeff in integrand.terms.items():
            named = dict(zip(integrand.vars, exps))
            beta = [named.get(name, 0) for name in tau]
            rest = tuple(named[v] for v in rest_vars)
            weight = Fraction(math.prod(math.factorial(b) for b in beta),
                              math.factorial(n + sum(beta)))
            moments[rest] = moments.get(rest, Fraction(0)) + coeff * weight
        volume = leibniz_det(edges)
        total = total + (volume if sign > 0 else -volume) * MultiPoly(rest_vars, moments)
    return total
