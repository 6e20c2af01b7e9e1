"""Euler-Maclaurin summation for simple lattice polytopes via Todd operators.

The pipeline: build the normal fan of a simple polytope, collect the
lattice points of the half-open parallelepipeds of its vertex cones with
their root-of-unity data, expand the y-deformed Todd operator coefficients
exactly, integrate the weight symbolically over the facet-deformed dilate,
and apply the operator.  The parallelepiped points fall into Galois orbits,
and the operator sums each orbit as the rational trace of one
representative's term, computed in the cyclotomic field of that point's
own order; that every orbit is complete is checked.

The deformed dilate depends on q and y only through t = q(y+1), so the
symbolic integral lives in the variables (t, h_1..h_m) and t is replaced
by q(y+1) once, after the operator is applied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .algebra import MultiPoly, bernoulli
from .cyclotomic import CycloNumber, cyclo_root_of_unity, euler_phi, root_exponent, trace
from .gfun import build_gfun
from .linalg import lattice_index, mat_inverse, mat_rank, solve_exact
from .polytope import Polytope, pulling_triangulation, scan_box
from .wsum import WeightPoly


@dataclass(frozen=True)
class Cone:
    """Normal cone of a face: spanned by the normals of its facets."""

    generators: tuple[tuple[int, ...], ...]
    facet_indices: tuple[int, ...]
    face_index: int

    @property
    def index(self) -> int:
        """Lattice index of the generator span; 1 means unimodular."""
        if not self.generators:
            return 1
        return lattice_index(self.generators)


@dataclass
class NormalFan:
    polytope: Polytope
    cones: tuple[Cone, ...]

    def maximal_cones(self):
        n = self.polytope.ambient_dim
        return [c for c in self.cones if len(c.generators) == n]


@dataclass
class GammaSet:
    """Lattice points of the half-open cone parallelepipeds, with the
    root-of-unity value of every facet's support function at each point."""

    points: tuple[tuple[int, ...], ...]
    a_values: tuple[tuple[object, ...], ...]  # Fraction | CycloNumber per facet


def normal_fan(P: Polytope) -> NormalFan:
    """One cone per nonempty face, spanned by its facets' normals."""
    if not P.simple:
        raise ValueError("normal fan machinery requires a simple polytope")
    lattice = P.face_lattice
    cones = []
    for i in lattice.nonempty():
        face = lattice.faces[i]
        facets = tuple(sorted(face.containing_facets))
        gens = tuple(P.halfspaces[j].normal for j in facets)
        if gens and mat_rank(gens) != len(gens):
            raise ValueError("normal cone generators are dependent; polytope is not simple")
        cones.append(Cone(gens, facets, i))
    return NormalFan(P, tuple(cones))


def _simplify_root(num: int, den: int):
    """exp(2*pi*i*num/den) as a Fraction when real, else a CycloNumber."""
    root = cyclo_root_of_unity(num, den)
    rational = root.as_rational()
    return rational if rational is not None else root


def gamma_set(fan: NormalFan) -> GammaSet:
    """Union over the vertex cones of the lattice points of Q(cone), the
    half-open parallelepiped {sum rho_i u_i : 0 <= rho_i < 1} of the
    generators u_i.

    Every cone of a simple polytope's normal fan is a face of each vertex
    cone containing it, and its Q is theirs cut by rho = 0 off its own
    generators, so the vertex cones hold every point.  Each is scanned by
    ``scan_box`` under 0 <= w_i . x < d, where rho_i = w_i . x / d and
    w_i / d is row i of the inverse generator matrix, w_i an integer row
    and d its positive denominator; ``solve_exact`` recomputes rho for each
    kept point as a cross-check.  A facet's support function gives the
    root of unity exp(2*pi*i*rho) on its own generator and 1 elsewhere;
    points shared by several cones must agree.
    """
    P = fan.polytope
    n = P.ambient_dim
    found: dict[tuple[int, ...], tuple] = {}

    for cone in fan.maximal_cones():
        gens = cone.generators
        rows = [[g[k] for g in gens] for k in range(n)]  # columns are generators
        inverse, d = mat_inverse(rows)
        constraints = []
        for w in inverse:
            constraints += [(tuple(w), 0, "ge"), (tuple(-x for x in w), d, "gt")]
        lo = [sum(min(0, g[k]) for g in gens) for k in range(n)]
        hi = [sum(max(0, g[k]) for g in gens) for k in range(n)]
        for point in scan_box(lo, hi, constraints):
            rho = solve_exact(rows, point)
            if rho is None or any(r < 0 or r >= 1 for r in rho):
                raise RuntimeError(f"scanned point {point} is outside the parallelepiped "
                                   f"of the cone on facets {cone.facet_indices}")
            values = [Fraction(1)] * len(P.halfspaces)
            for fi, r in zip(cone.facet_indices, rho):
                values[fi] = _simplify_root(r.numerator, r.denominator)
            _record(found, point, tuple(values))

    points = sorted(found)
    return GammaSet(tuple(points), tuple(found[p] for p in points))


def _record(found: dict, point: tuple[int, ...], values: tuple) -> None:
    if point in found:
        if found[point] != values:
            raise RuntimeError("support function disagrees between cones")
    else:
        found[point] = values


@dataclass
class ToddCoeffs:
    """Power-series coefficients of the y-deformed Todd operator in one
    derivative, for a fixed root of unity a: the k-th is s_k * (y+1)^k,
    except that y is subtracted at k = 1."""

    scalars: list  # index k -> s_k, rational or in the field of a

    @cached_property
    def coeffs(self) -> list[MultiPoly]:
        """The coefficients as polynomials in y, index k -> k-th."""
        y = MultiPoly.variable("y")
        out, power = [], MultiPoly.const(1)
        for s in self.scalars:
            out.append(s * power)
            power = power * (y + 1)
        if len(out) > 1:
            out[1] = out[1] - y
        return out


def _inv_scalar(v):
    if isinstance(v, CycloNumber):
        return v.inverse()
    return 1 / Fraction(v)


def todd_coeffs(a, order: int) -> ToddCoeffs:
    """Expand the operator d*(1 + a*y*exp(-d(y+1))) / (1 - a*exp(-d(y+1)))
    as a power series in the derivative symbol d, through the given order.

    In the split form (y+1)d / (1 - a exp(-d(y+1))) - y*d every coefficient
    is a scalar s_k times (y+1)^k, except that y is subtracted at k = 1.
    For a = 1, s_k = B_k/k! (the B_1 = +1/2 flavor).  For a != 1 the
    denominator is invertible at d = 0, and s_k is the (k-1)-th coefficient
    of the inverse of 1 - a*exp(-u) in u = d(y+1), inverted over the field
    containing a.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if not (isinstance(a, CycloNumber) or isinstance(a, (int, Fraction))):
        raise ValueError("a must be a rational or cyclotomic number")
    if a == 0:
        raise ValueError("a must be a nonzero root of unity")

    if a == 1:
        scalars = [bernoulli(k) / math.factorial(k) for k in range(order + 1)]
    else:
        # 1 - a*exp(-u) = (1 - a) + sum_{j>=1} (-1)^(j+1) a/j! u^j
        dens = {j: Fraction((-1) ** (j + 1), math.factorial(j)) * a for j in range(1, order + 1)}
        inv0 = _inv_scalar(1 - a)
        inverse = [inv0]
        for k in range(1, order + 1):
            inverse.append(-sum((dens[j] * inverse[k - j] for j in range(1, k + 1)),
                                Fraction(0)) * inv0)
        scalars = ([0] + inverse)[: order + 1]
    return ToddCoeffs(scalars)


def h_variable_names(P: Polytope) -> list[str]:
    """Deformation variable names, one per facet of P in facet order."""
    return [f"h{i + 1}" for i in range(len(P.halfspaces))]


def dual_basis_at_vertex(P: Polytope, vertex_index: int):
    """The rational vectors m_v^F dual to the facet normals through v,
    keyed by facet index."""
    n = P.ambient_dim
    lattice = P.face_lattice
    vface = lattice.faces[lattice.index_of({vertex_index})]
    facets = sorted(vface.containing_facets)
    if len(facets) != n:
        raise ValueError("not simple at vertex")
    U = [list(P.halfspaces[j].normal) for j in facets]
    Uinv, d = mat_inverse(U)
    return {fj: tuple(Fraction(Uinv[k][j], d) for k in range(n)) for j, fj in enumerate(facets)}


def deformed_vertex(P: Polytope, vertex_index: int):
    """Symbolic vertex of the deformed dilate, as polynomials in (t, h).

    The vertex of the t-dilate moves by -h_F along the basis dual to the
    facet normals through the vertex.
    """
    t = MultiPoly.variable("t")
    dual = dual_basis_at_vertex(P, vertex_index)
    out = []
    for k, x in enumerate(P.vertices[vertex_index]):
        comp = t * x
        for fj, m in dual.items():
            comp = comp - MultiPoly.variable(f"h{fj + 1}") * m[k]
        out.append(comp)
    return tuple(out)


@dataclass
class SymbolicIntegral:
    """Integral of the weight over the facet-deformed t-dilate, as a
    polynomial in (t, h_1..h_m), valid in the chamber of P near h = 0."""

    poly: MultiPoly


def _symbolic_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = MultiPoly.zero()
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = rows[0][j] * _symbolic_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def symbolic_integral(P: Polytope, phi: WeightPoly, anchor: str = "min") -> SymbolicIntegral:
    """Integrate phi exactly over the deformed dilate of a simple polytope.

    Uses the pulling triangulation (combinatorial, hence simultaneously
    valid for all small h) with symbolically deformed vertices.  On each
    simplex the barycentric substitution reduces the integral to the
    Dirichlet moments of the standard simplex; orientation signs are read
    off at t = 1, h = 0.
    """
    if not P.simple:
        raise ValueError("normal fan machinery requires a simple polytope")
    if phi.nvars != P.ambient_dim:
        raise ValueError("weight polynomial dimension does not match polytope")
    n = P.ambient_dim
    deformed = {i: deformed_vertex(P, i) for i in range(len(P.vertices))}
    tau = [f"tau{j + 1}" for j in range(n)]
    base_at = {"t": Fraction(1)}
    for name in h_variable_names(P):
        base_at[name] = Fraction(0)

    total = MultiPoly.zero()
    for simplex in pulling_triangulation(P, anchor=anchor):
        w0 = deformed[simplex[0]]
        edges = [[deformed[i][k] - w0[k] for k in range(n)] for i in simplex[1:]]
        det_poly = _symbolic_det(edges)
        det_at_base = det_poly.evaluate(base_at)
        if not det_at_base:
            raise RuntimeError("degenerate simplex in pulling triangulation")
        sign = 1 if det_at_base > 0 else -1

        substitution = {}
        for k in range(n):
            expr = w0[k]
            for j in range(n):
                expr = expr + MultiPoly.variable(tau[j]) * edges[j][k]
            substitution[f"x{k + 1}"] = expr
        integrand = phi.poly.substitute(substitution)

        moments: dict[tuple, object] = {}
        variables = integrand.vars
        tau_pos = [variables.index(name) if name in variables else None for name in tau]
        for exps, coeff in integrand.terms.items():
            beta = [exps[p] if p is not None else 0 for p in tau_pos]
            rest = tuple(e for i, e in enumerate(exps) if i not in
                         {p for p in tau_pos if p is not None})
            weight = Fraction(math.prod(math.factorial(b) for b in beta),
                              math.factorial(n + sum(beta)))
            moments[rest] = moments.get(rest, Fraction(0)) + coeff * weight
        rest_vars = tuple(v for v in variables if v not in tau)
        inner = MultiPoly(rest_vars, moments)
        total = total + sign * det_poly * inner

    return SymbolicIntegral(total)


def _galois_orbits(gam: GammaSet) -> list[tuple[tuple, int]]:
    """Split the gamma set into Galois orbits, as (values, m) pairs of a
    representative and the order m of its field.

    With the exponents r_F of a point's values and m the lcm of their
    denominators, the orbit is {k*r mod 1 : gcd(k, m) = 1}, of phi(m)
    distinct members.  The gamma set must hold every member of each orbit
    it meets, and nothing besides these orbits.
    """
    exponents = [tuple(root_exponent(a) for a in values) for values in gam.a_values]
    present = set(exponents)
    placed: set[tuple] = set()
    orbits = []
    for i, r in enumerate(exponents):
        if r in placed:
            continue
        m = math.lcm(*(x.denominator for x in r))
        members = [tuple(k * x % 1 for x in r) for k in range(1, m + 1) if math.gcd(k, m) == 1]
        missing = next((member for member in members if member not in present), None)
        if missing is not None:
            raise RuntimeError(
                f"cyclotomic parts failed to cancel in the Todd sum: the Galois orbit of "
                f"point {gam.points[i]} (order {m}) lacks the member with facet exponents "
                f"({', '.join(map(str, missing))})")
        placed.update(members)
        orbits.append((gam.a_values[i], m))
    covered = sum(euler_phi(m) for _, m in orbits)
    if covered != len(gam.points):
        raise RuntimeError(f"cyclotomic parts failed to cancel in the Todd sum: the Galois "
                           f"orbits hold {covered} points, the gamma set {len(gam.points)}")
    return orbits


def apply_todd(P: Polytope, phi: WeightPoly | None = None) -> MultiPoly:
    """Apply the Todd operator summed over the parallelepiped points to the
    symbolic integral, set h = 0, and replace t by q(y+1).

    On a monomial h^alpha, prod_F Todd(a_F, d/dh_F) followed by h = 0 keeps
    only the d^alpha term, which gives alpha!.  So each term
    c * t^e * h^alpha of the integral becomes c * t^e * W_alpha(y) with
    W_alpha = alpha! * sum over points of prod_F coeffs(a_F)[alpha_F].  The
    integral is homogeneous of degree n + deg phi, so no alpha_F exceeds
    the coefficient tables, and each alpha occurs in one term only.

    The sum over points runs over Galois orbits.  The Galois automorphism
    z -> z^k of the field of order m maps a point's values to those of
    another point of its orbit, and the Todd scalars s_k(a) are rational
    functions of a, so an orbit contributes the trace down to Q of its
    representative's product.  That product is
    (y+1)^(sum of alpha_F != 1) times prod_{alpha_F != 1} s_{alpha_F}(a_F)
    * prod_{alpha_F = 1} (s_1 + (s_1 - 1) y), and only its second factor,
    a polynomial in y of degree #{F : alpha_F = 1}, is traced.
    """
    if phi is None:
        phi = WeightPoly.one(P.ambient_dim)
    orbits = _galois_orbits(gamma_set(normal_fan(P)))
    integral = symbolic_integral(P, phi).poly
    if integral.is_zero():  # a zero weight: nothing needs a coefficient table
        return MultiPoly(("q", "y"))
    order = integral.degree()
    h_names = h_variable_names(P)
    scalars: dict[object, list] = {}
    for values, _ in orbits:
        for a in values:
            if a not in scalars:
                scalars[a] = todd_coeffs(a, order).scalars

    out: dict[tuple[int, int], Fraction] = {}
    for exps, coeff in integral.terms.items():
        named = dict(zip(integral.vars, exps))
        power = named.pop("t", 0)
        alpha = [named.get(name, 0) for name in h_names]
        traced = [Fraction(0)] * (alpha.count(1) + 1)
        for values, m in orbits:
            poly = [Fraction(1)]
            for a, k in zip(values, alpha):
                s = scalars[a][k]
                if k == 1:  # times s + (s - 1) y
                    lower = [c * s for c in poly] + [Fraction(0)]
                    upper = [Fraction(0)] + [c * (s - 1) for c in poly]
                    poly = [u + v for u, v in zip(lower, upper)]
                elif s:
                    poly = [c * s for c in poly]
                else:
                    break
            else:
                for j, c in enumerate(poly):
                    traced[j] += trace(c, m)
        # t^e = q^e (y+1)^e joins the (y+1) power of the alpha_F != 1 factors
        shift = power + sum(k for k in alpha if k != 1)
        scale = coeff * math.prod(math.factorial(k) for k in alpha)
        for j, w in enumerate(traced):
            if w:
                for i in range(shift + 1):
                    key = (power, i + j)
                    out[key] = out.get(key, Fraction(0)) + scale * w * math.comb(shift, i)
    return MultiPoly(("q", "y"), out)


def verify_todd_formula(P: Polytope, phi: WeightPoly | None = None) -> bool:
    """Check the operator route against the face-sum assembly of G(q, y)."""
    if phi is None:
        phi = WeightPoly.one(P.ambient_dim)
    return apply_todd(P, phi) == build_gfun(P, phi).poly
