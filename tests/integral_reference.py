"""Reference integral of a weight over the deformed dilate, sharing no
arithmetic with ``todd.symbolic_integral``: the pulling triangulation of P
with symbolically deformed vertices, a Leibniz determinant over
``MultiPoly`` per simplex, and the Dirichlet moments of the standard
simplex after the barycentric substitution.  The triangulation only reads
the face lattice, so it stays valid for every small deformation; each
simplex's orientation is read at t = 1, h = 0.  The deformed vertices are
built here as polynomials, from the face lattice's facets through each
vertex and a textbook inverse of their normals, not from the package's
vertex frames."""
import math
from fractions import Fraction

from latticegfun import MultiPoly
from latticegfun.polytope import pulling_triangulation

from linalg_reference import inverse, leibniz_det


def dual_basis_at_vertex(P, vertex_index):
    """The vectors m_v^F dual to the normals of the facets through v, keyed
    by facet index: the columns of the inverse of the matrix whose rows are
    those normals."""
    lattice = P.face_lattice
    facets = sorted(lattice.faces[lattice.index_of({vertex_index})].containing_facets)
    if len(facets) != P.ambient_dim:
        raise ValueError("not simple at vertex")
    inv = inverse([P.halfspaces[j].normal for j in facets])
    return {fj: tuple(row[j] for row in inv) for j, fj in enumerate(facets)}


def deformed_vertex(P, vertex_index):
    """The vertex v(t, h) = t v - sum_F h_F m_v^F of the deformed dilate, as
    polynomials in t and the h_F."""
    t = MultiPoly.variable("t")
    dual = dual_basis_at_vertex(P, vertex_index)
    return tuple(sum((MultiPoly.variable(f"h{fj + 1}") * -m[k] for fj, m in dual.items()), t * x)
                 for k, x in enumerate(P.vertices[vertex_index]))


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
