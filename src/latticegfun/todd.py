"""Euler-Maclaurin summation for simple lattice polytopes via Todd operators.

The pipeline: build the normal fan of a simple polytope, collect the
lattice points of the half-open parallelepipeds of its vertex cones with
their root-of-unity data, expand the y-deformed Todd operator coefficients
exactly, integrate the weight symbolically over the facet-deformed dilate,
and apply the operator.  The cyclotomic contributions of the individual
lattice points cancel in the final sum, which is checked.

The deformed dilate depends on q and y only through t = q(y+1), so the
symbolic integral lives in the variables (t, h_1..h_m) and t is replaced
by q(y+1) once, after all differentiation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import MultiPoly, bernoulli
from .cyclotomic import CycloNumber, cyclo_root_of_unity
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
    ``scan_box`` under 0 <= rho_i < 1, rho_i being an integer-scaled row of
    the inverse generator matrix; ``solve_exact`` recomputes rho for each
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
        constraints = []
        for inv_row in mat_inverse(rows):
            scale = math.lcm(*(r.denominator for r in inv_row))
            w = tuple(int(r * scale) for r in inv_row)
            constraints += [(w, 0, "ge"), (tuple(-x for x in w), scale, "gt")]
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
    derivative, for a fixed root of unity a."""

    a: object
    coeffs: list[MultiPoly]  # index k -> polynomial in y


def _inv_scalar(v):
    if isinstance(v, CycloNumber):
        return v.inverse()
    return 1 / Fraction(v)


def todd_coeffs(a, order: int) -> ToddCoeffs:
    """Expand the operator d*(1 + a*y*exp(-d(y+1))) / (1 - a*exp(-d(y+1)))
    as a power series in the derivative symbol d, through the given order.

    For a = 1 the quotient reduces to the classical series (y+1)d /
    (1 - exp(-d(y+1))) with Bernoulli coefficients (B_1 = +1/2 flavor),
    minus y*d.  For a != 1 the denominator is invertible at d = 0: the
    truncated series of 1/(1 - a exp(-d(y+1))) is inverted over the field
    containing a and expanded in the split form
    (y+1)d/(1 - a exp(-d(y+1))) - y*d.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if not (isinstance(a, CycloNumber) or isinstance(a, (int, Fraction))):
        raise ValueError("a must be a rational or cyclotomic number")
    if a == 0:
        raise ValueError("a must be a nonzero root of unity")
    y = MultiPoly.variable("y")
    yp1 = y + 1

    if a == 1:
        coeffs = [MultiPoly.const(1)]
        if order >= 1:
            coeffs.append(bernoulli(1) * yp1 - y)
        for k in range(2, order + 1):
            coeffs.append((bernoulli(k) / math.factorial(k)) * yp1 ** k)
        return ToddCoeffs(a, coeffs[: order + 1])

    # denominator series of 1 - a*exp(-d(y+1))
    dens = [MultiPoly.const(1) - MultiPoly.const(a)]
    for j in range(1, order + 1):
        scalar = Fraction((-1) ** (j + 1), math.factorial(j)) * a
        dens.append(scalar * yp1 ** j)
    inv0 = MultiPoly.const(_inv_scalar(1 - a))
    inverse = [inv0]
    for k in range(1, order + 1):
        acc = MultiPoly.zero()
        for j in range(1, k + 1):
            acc = acc + dens[j] * inverse[k - j]
        inverse.append(-(acc * inv0))

    coeffs = [MultiPoly.zero()]
    for k in range(1, order + 1):
        coeffs.append(yp1 * inverse[k - 1])
    if order >= 1:
        coeffs[1] = coeffs[1] - y
    return ToddCoeffs(a, coeffs)


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
    Uinv = mat_inverse(U)
    return {fj: tuple(Uinv[k][j] for k in range(n)) for j, fj in enumerate(facets)}


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
    polytope: Polytope
    phi: WeightPoly


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

    return SymbolicIntegral(total, P, phi)


def apply_todd(P: Polytope, phi: WeightPoly | None = None) -> MultiPoly:
    """Apply the summed Todd operator to the symbolic integral.

    Differentiation is truncated at the total degree of the integrand in
    the h variables; higher derivatives annihilate it.  The result must be
    rational after the sum over all parallelepiped points; t is then
    replaced by q(y+1).
    """
    if phi is None:
        phi = WeightPoly.one(P.ambient_dim)
    fan = normal_fan(P)
    gam = gamma_set(fan)
    integral = symbolic_integral(P, phi)
    order = P.ambient_dim + phi.degree
    h_names = h_variable_names(P)

    coeff_cache: dict[object, ToddCoeffs] = {}

    def coeffs_for(a) -> ToddCoeffs:
        if a not in coeff_cache:
            coeff_cache[a] = todd_coeffs(a, order)
        return coeff_cache[a]

    total = MultiPoly.zero()
    for values in gam.a_values:
        work = integral.poly
        for fi, name in enumerate(h_names):
            if work.is_zero():
                break
            cs = coeffs_for(values[fi]).coeffs
            kmax = min(order, work.degree_in(name))
            new = MultiPoly.zero()
            derivative = work
            for k in range(kmax + 1):
                if k:
                    derivative = derivative.derivative(name)
                slice_k = derivative.substitute({name: 0})
                if not slice_k.is_zero() and not cs[k].is_zero():
                    new = new + cs[k] * slice_k
            work = new
        total = total + work

    rational_terms = {}
    for exps, coeff in total.terms.items():
        if isinstance(coeff, CycloNumber):
            value = coeff.as_rational()
            if value is None:
                raise RuntimeError("cyclotomic parts failed to cancel in the Todd sum")
            coeff = value
        rational_terms[exps] = coeff
    total = MultiPoly(total.vars, rational_terms)

    q = MultiPoly.variable("q")
    y = MultiPoly.variable("y")
    return total.substitute({"t": q * (y + 1)})


def verify_todd_formula(P: Polytope, phi: WeightPoly | None = None) -> bool:
    """Check the operator route against the face-sum assembly of G(q, y)."""
    if phi is None:
        phi = WeightPoly.one(P.ambient_dim)
    return apply_todd(P, phi) == build_gfun(P, phi).poly
