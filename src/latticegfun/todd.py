"""Euler-Maclaurin summation for simple lattice polytopes via Todd operators.

The pipeline: build the normal fan of a simple polytope, generate the
lattice points of the half-open parallelepipeds of its vertex cones, one
per element of the cone's group Z^n / U Z^n, with one exponent rho_F in
[0, 1) per facet, expand the y-deformed Todd operator coefficients
exactly, integrate the weight over the facet-deformed dilate by Brion's
vertex formula, and apply the operator.
The points fall into Galois orbits of their exponent tuples; each orbit
adds the rational trace of one representative's term, and that every
orbit is complete is checked.  Each root's coefficients come from one
closed form in Bernoulli polynomials at its exponent, summed in integers.
The operator runs on integer tables: the coefficients s_k over one
denominator per derivative order k, each non-rational one as integers in
the group ring Z[x]/(x^m - 1) of its orbit's order m, where products need
no reduction and are traced by Ramanujan sums, and an orbit skipped by
facet mask wherever some s_0(a_F) = 0 meets the term.  Four tables hold
no coordinate and are shared process-wide: s_k by (m, e, k) for its root
e/m (at most 1,024), the m integers it is summed from by (m, k) (16), each
vertex's key table of the integral by power, sorted facets and facet
count (256), and the multinomials by (power, width), unbounded: one entry
per pair met or reached by recursion.  All values are immutable, and
``todd_coeffs`` returns a fresh list.

The deformed dilate depends on q and y only through t = q(y+1), so the
integral lives in the variables (h_1..h_m, t) and t is replaced by q(y+1)
once, after the operator is applied.  The points and the integral read one
vertex frame per vertex, inverted once per polytope.  No face-sum module is
imported; the check that the routes agree, ``verify_todd_formula``, is gfun's.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count, product
from weakref import WeakKeyDictionary

from .algebra import MultiPoly, WeightPoly, bernoulli, resum
from .cyclotomic import (CycloNumber, cyclo_from_powers, cyclo_root_of_unity, euler_phi, gmul,
                         ramanujan_sums)
from .linalg import lattice_index, mat_inverse, solve_exact
from .polytope import Polytope


class Cone(namedtuple("Cone", "generators facet_indices face_index")):
    """Normal cone of a face: spanned by the normals of its facets."""

    __slots__ = ()

    @property
    def index(self) -> int:
        """Lattice index of the generator span; 1 means unimodular."""
        return lattice_index(self.generators)


class NormalFan(namedtuple("NormalFan", "polytope cones")):
    __slots__ = ()

    def maximal_cones(self):
        return [c for c in self.cones if len(c.generators) == self.polytope.ambient_dim]


class GammaSet(namedtuple("GammaSet", "points exponents")):
    """Lattice points of the half-open cone parallelepipeds, with every
    facet's exponent at each point: the support function of facet F takes
    the root of unity exp(2*pi*i*rho_F) there, and rho_F is 0 for a facet
    off the point's cone.  ``exponents`` holds rho_F in [0, 1) per facet."""

    __slots__ = ()

    @property
    def a_values(self) -> tuple[tuple[object, ...], ...]:
        """The roots exp(2*pi*i*rho_F), each a Fraction when real, else a
        CycloNumber."""
        return tuple(tuple(_simplify_root(r) for r in rho) for rho in self.exponents)


def normal_fan(P: Polytope) -> NormalFan:
    """One cone per nonempty face, spanned by its facets' normals, which
    are independent: on a simple full-dimensional P they are some of the n
    normals through a vertex, which span R^n."""
    if not P.simple:
        raise ValueError("normal fan machinery requires a simple polytope")
    lattice = P.face_lattice
    cones = []
    for i in lattice.nonempty():
        facets = tuple(sorted(lattice.faces[i].containing_facets))
        cones.append(Cone(tuple(P.halfspaces[j].normal for j in facets), facets, i))
    return NormalFan(P, tuple(cones))


def _simplify_root(r: Fraction):
    """exp(2*pi*i*r) as a Fraction when real, else a CycloNumber."""
    root = cyclo_root_of_unity(r.numerator, r.denominator)
    return root.as_rational() if root.is_rational() else root


def _residues(W, d: int) -> list[tuple[int, ...]]:
    """The subgroup of (Z/d)^n spanned by the rows of W mod d, closed one
    row at a time: with H the residues so far, H + k*row for k = 1, 2, ...
    are new cosets until k*row falls back into H.  Each residue is built
    once, and the zero residue comes first."""
    group = [tuple([0] * len(W))]
    for step in W:
        members, layer = set(group), group
        while True:
            layer = [tuple([(a + b) % d for a, b in zip(r, step)]) for r in layer]
            if layer[0] in members:
                break
            group += layer
    return group


def gamma_set(fan: NormalFan) -> GammaSet:
    """Union over the vertex cones of the lattice points of Q(cone), the
    half-open parallelepiped {sum rho_i u_i : 0 <= rho_i < 1} of the
    generators u_i, with each facet's exponent (README, "How the Todd route
    finds its parallelepiped points").

    Every cone of the fan is a face of the vertex cones containing it, so
    they hold every point.  With W / d the vertex frame's inverse, x -> W^T x
    mod d maps Z^n onto Z^n / U Z^n, U the generator matrix, and e_j to row
    j of W; so the residues the rows span, ``_residues``, are one per point,
    and residue r gives the point sum r_i u_i / d with rho = r / d.
    ``solve_exact`` recomputes rho as a cross-check.  A facet off the cone
    has exponent 0, cones sharing a point must agree, and no root of unity
    is built.
    """
    P = fan.polytope
    found: dict[tuple[int, ...], tuple] = {}
    zero = Fraction(0)  # the exponent of every facet off a point's cone

    for cone in fan.maximal_cones():
        rows = list(zip(*cone.generators))  # columns are generators
        (vertex,) = P.face_lattice.faces[cone.face_index].vertex_indices
        _, W, d = _vertex_frame(P, vertex)
        for residue in _residues(W, d):
            point = tuple([sum(map(operator.mul, residue, row)) // d for row in rows])
            rho = solve_exact(rows, point)
            if rho is None or not all(0 <= r.numerator < r.denominator for r in rho):
                raise RuntimeError(f"produced point {point} is outside the parallelepiped "
                                   f"of the cone on facets {cone.facet_indices}")
            placed = dict(zip(cone.facet_indices, rho))
            exponents = tuple([placed.get(f, zero) for f in range(len(P.halfspaces))])
            if found.setdefault(point, exponents) != exponents:
                raise RuntimeError("support function disagrees between cones")

    points = sorted(found)
    # tuples from lists: one grown from a generator is freed to another size's free list
    return GammaSet(tuple(points), tuple([found[p] for p in points]))


class ToddCoeffs(namedtuple("ToddCoeffs", "scalars")):
    """Power-series coefficients of the y-deformed Todd operator in one
    derivative, for a fixed root of unity a: the k-th is s_k * (y+1)^k,
    except that y is subtracted at k = 1.  ``scalars[k]`` is s_k, a Fraction
    when rational, else in the field of a.  No ``__slots__``: ``coeffs``
    caches in the instance ``__dict__``."""

    @cached_property
    def coeffs(self) -> list[MultiPoly]:
        """The coefficients as polynomials in y, index k -> k-th."""
        y = MultiPoly.variable("y")
        out = [s * (y + 1) ** k for k, s in enumerate(self.scalars)]
        if len(out) > 1:
            out[1] = out[1] - y
        return out


@lru_cache(maxsize=16)
def _todd_sums(m: int, k: int) -> tuple[tuple[int, ...], Fraction]:
    """Integers N_j (j < m) and a scale c with s_k(a) = c sum_j N_j a^j for
    each primitive m-th root a: N_j / D = m^k B_k(j/m) = sum_i C(k,i) B_i
    m^i j^(k-i) with B_1 = -1/2, and c = (-1)^k / (m k! D)."""
    row = [math.comb(k, i) * (Fraction(-1, 2) if i == 1 else bernoulli(i)) * m ** i
           for i in range(k + 1)]
    den = math.lcm(*(c.denominator for c in row))
    sums = [0] * m
    for c in row:  # Horner's rule in j, every j at once
        c = c.numerator * (den // c.denominator)
        sums = [s * j + c for j, s in enumerate(sums)]
    return tuple(sums), Fraction((-1) ** k, m * math.factorial(k) * den)


def todd_coeffs(a, order: int, *, exponent: Fraction | None = None) -> ToddCoeffs:
    """Expand the operator d*(1 + a*y*exp(-d(y+1))) / (1 - a*exp(-d(y+1)))
    as a power series in the derivative symbol d, through the given order.

    In the split form (y+1)d / (1 - a exp(-d(y+1))) - y*d every coefficient
    is a scalar s_k times (y+1)^k, except that y is subtracted at k = 1.
    For a = exp(2*pi*i*e/m), e/m in lowest terms (m = 1 for a = 1),
        s_k = (-1)^k m^(k-1)/k! sum_{j<m} B_k(j/m) a^j,
    B_k the Bernoulli polynomials: s_0 = [a = 1], s_k = B_k/k! (B_1 = +1/2)
    at a = 1, and s_1 = 1/(1 - a) otherwise.  m^k B_k(j/m), in integers,
    is the coefficient of z^(e*j mod m), z = exp(2*pi*i/m), so no product
    in the field is taken.  Given the exponent e/m, a may be None, and no
    root is built; given both, the exponent must give a.  Given a alone, a
    is multiplied by exp(2*pi*i/lcm(2, order of a)) until it reaches 1.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if a is None:
        if exponent is None:
            raise ValueError("todd_coeffs needs a or its exponent")
    elif not isinstance(a, (int, Fraction, CycloNumber)):
        raise ValueError("a must be a rational or cyclotomic number")
    elif exponent is None:  # a root in Q(zeta_N) is an m-th root, m = lcm(2, N)
        m = math.lcm(2, a.order if isinstance(a, CycloNumber) else 1)
        z, x, j = _simplify_root(Fraction(1, m)), a, 0
        while x != 1:  # x = a z^j, which is 1 at j = -e mod m
            if j == m:
                raise ValueError("a must be a nonzero root of unity")
            x, j = x * z, j + 1
        exponent = Fraction(-j % m, m)
    elif _simplify_root(exponent) != a:
        raise ValueError(f"a is not the root of unity of exponent {exponent}")

    m, e = exponent.denominator, exponent.numerator
    return ToddCoeffs([_todd_scalar(m, e, k) for k in range(order + 1)])


@lru_cache(maxsize=1024)
def _todd_scalar(m: int, e: int, k: int):
    """s_k(a) for a = exp(2*pi*i*e/m), e/m in lowest terms: a Fraction when
    rational, else a CycloNumber.  Shared by every caller: its keys are
    integers and its values immutable."""
    sums, scale = _todd_sums(m, k)
    inv = pow(e, -1, m)  # N_j goes to z^p for p = e*j mod m
    s = cyclo_from_powers(m, [sums[p * inv % m] for p in range(m)]) * scale
    return s.as_rational() if s.is_rational() else s


def h_variable_names(P: Polytope) -> list[str]:
    """Deformation variable names, one per facet of P in facet order."""
    return [f"h{i + 1}" for i in range(len(P.halfspaces))]


def _vertex_frame(P: Polytope, vertex_index: int):
    """The sorted facets through a vertex, and (W, d) with W / d the inverse
    of the matrix whose rows are their normals: column j of W / d is the
    vector m_v^F dual to the j-th facet's normal.  Each vertex's frame is
    inverted once per polytope for its two readers, ``gamma_set`` and
    ``symbolic_integral``, and kept while P lives."""
    frames = _frames.setdefault(P, {})
    if vertex_index not in frames:
        lattice = P.face_lattice
        facets = sorted(lattice.faces[lattice.index_of({vertex_index})].containing_facets)
        if len(facets) != P.ambient_dim:
            raise ValueError("not simple at vertex")
        W, d = mat_inverse([P.halfspaces[j].normal for j in facets])
        frames[vertex_index] = (tuple(facets), tuple(map(tuple, W)), d)
    return frames[vertex_index]


_frames: WeakKeyDictionary = WeakKeyDictionary()


class SymbolicIntegral(namedtuple("SymbolicIntegral", "poly")):
    """Integral of the weight over the facet-deformed t-dilate, as a
    polynomial over the variables (h_1..h_m, t) in that order, valid in the
    chamber of P near h = 0."""

    __slots__ = ()


@lru_cache(maxsize=None)
def _multinomials(power: int, width: int) -> tuple:
    """Each exponent vector e of the given width and sum, with power!/e!."""
    if width == 1:
        return (((power,), 1),)
    return tuple(((k, *rest), c * math.comb(power, k)) for k in range(power + 1)
                 for rest, c in _multinomials(power - k, width - 1))


@lru_cache(maxsize=256)
def _vertex_keys(power: int, facets: tuple[int, ...], nfacets: int) -> tuple:
    """The key over (h_1..h_m, t), m = nfacets, of each exponent vector of
    ``_multinomials(power, n + 1)``, whose entries are the exponents of t
    and of the h_F of the vertex's sorted facets.  No coordinate enters."""
    slot = {f: j + 1 for j, f in enumerate(facets)}
    return tuple(tuple([e[slot[f]] if f in slot else 0 for f in range(nfacets)]) + e[:1]
                 for e, _ in _multinomials(power, len(facets) + 1))


def _power_forms(phi: WeightPoly) -> dict:
    """w_b with phi = sum_b w_b <b + c, x>^d / d! for any shift c: for |a| = d,
    x^a = sum_{b <= a} (-1)^|a-b| prod_i C(a_i, b_i) <b + c, x>^d / d!."""
    weights: dict = {}
    for a, coeff in phi.terms.items():
        for b in product(*(range(k + 1) for k in a)):
            sign = (-1) ** (phi.degree - sum(b))
            weights[b] = weights.get(b, 0) + sign * coeff * math.prod(map(math.comb, a, b))
    return {b: w for b, w in weights.items() if w}


def _vertex_terms(forms, cones, shift, degree):
    """(weight, [A, B_F...], keys) per form b + shift and vertex, or None if
    some <b + shift, m_v^F> is 0."""
    terms = []
    for b, w in forms.items():
        form = [x + c for x, c in zip(b, shift)]
        for vertex, columns, d, keys in cones:
            B = [-sum(map(operator.mul, form, col)) for col in columns]
            if not all(B):
                return None
            A = d * sum(map(operator.mul, form, vertex))
            terms.append((w / (d ** (degree + 1) * math.prod(B)), [A, *B], keys))
    return terms


def symbolic_integral(P: Polytope, phi: WeightPoly) -> SymbolicIntegral:
    """Integrate phi exactly over the deformed dilate of a simple polytope by
    Brion's formula, as a sum over vertices: for a regular linear form l,
        int <l,x>^d = d!/(d+n)! sum_v <l, v(t,h)>^(d+n) / (|det U_v| prod_F -<l, m_v^F>),
    v(t,h) = t v - sum_F h_F m_v^F the deformed vertex (built symbolically
    only by the oracle, ``tests/integral_reference.py``).  phi's forms
    l = b + (1, k, k^2, ...) are taken at the first k >= 2 that makes each
    regular.  With U_v^-1 = W/d from the vertex frame, each term is a weight
    times (A t + sum_F B_F h_F)^(d+n) for the integers A = d<l,v> and
    B_F = -<l, W e_F>, summed in integers over one denominator.
    """
    if not P.simple:
        raise ValueError("normal fan machinery requires a simple polytope")
    if phi.nvars != P.ambient_dim:
        raise ValueError("weight polynomial dimension does not match polytope")
    n, power = P.ambient_dim, phi.degree + P.ambient_dim
    names = (*h_variable_names(P), "t")
    table = _multinomials(power, n + 1)  # exponents of t and the h_F of v's facets
    cones = []
    for i, vertex in enumerate(P.vertices):
        facets, W, d = _vertex_frame(P, i)
        cones.append((vertex, list(zip(*W)), d, _vertex_keys(power, facets, len(names) - 1)))
    forms = _power_forms(phi)
    for k in count(2):  # each <l, m_v^F> is a nonzero polynomial in k of degree < n
        terms = _vertex_terms(forms, cones, [k ** i for i in range(n)], phi.degree)
        if terms is not None:
            break

    L = math.lcm(*[w.denominator for w, _, _ in terms])
    acc: dict[tuple[int, ...], int] = {}
    for w, coeffs, keys in terms:
        scale = w.numerator * (L // w.denominator)
        powers = [[c ** e for e in range(power + 1)] for c in coeffs]
        for (e, mult), key in zip(table, keys):
            acc[key] = acc.get(key, 0) + scale * mult * math.prod(map(operator.getitem, powers, e))
    den = L * math.factorial(power)
    return SymbolicIntegral(MultiPoly(names, {key: Fraction(c, den) for key, c in acc.items()}))


def _galois_orbits(gam: GammaSet) -> list[tuple[tuple, int]]:
    """Split the gamma set into Galois orbits, as (r, m) pairs of a
    representative's exponents r_F and the order m of its field.

    With a point's exponents n_F / m over the lcm m of their denominators,
    the orbit is {k*n mod m : gcd(k, m) = 1}, of phi(m) distinct members.
    The gamma set must hold every member of each orbit it meets, and nothing
    besides these orbits.  No root is built here.
    """
    keys = [(m, tuple([x.numerator * (m // x.denominator) for x in r]))
            for r in gam.exponents for m in [math.lcm(*[x.denominator for x in r])]]
    unplaced = set(keys)
    orbits = []
    for i, (m, nums) in enumerate(keys):
        if (m, nums) not in unplaced:
            continue
        members = [(m, tuple([k * x % m for x in nums])) for k in range(m) if math.gcd(k, m) == 1]
        missing = next((member for _, member in members if (m, member) not in unplaced), None)
        if missing is not None:
            raise RuntimeError(
                f"cyclotomic parts failed to cancel in the Todd sum: the Galois orbit of "
                f"point {gam.points[i]} (order {m}) lacks the member with facet exponents "
                f"({', '.join(str(Fraction(x, m)) for x in missing)})")
        unplaced.difference_update(members)
        orbits.append((gam.exponents[i], m))
    covered = sum(euler_phi(m) for _, m in orbits)
    if covered != len(gam.points):
        raise RuntimeError(f"cyclotomic parts failed to cancel in the Todd sum: the Galois "
                           f"orbits hold {covered} points, the gamma set {len(gam.points)}")
    return orbits


def apply_todd(P: Polytope, phi: WeightPoly | None = None) -> MultiPoly:
    """Apply the Todd operator summed over the parallelepiped points to the
    integral, set h = 0, and replace t by q(y+1) (README, "How the Todd
    route applies its operator").

    On h^alpha, prod_F Todd(a_F, d/dh_F) followed by h = 0 keeps only the
    d^alpha term: c * t^e * h^alpha becomes c * t^e * alpha! * (sum over
    points of prod_F coeffs(a_F)[alpha_F]).  The integral is homogeneous of
    degree n + deg phi, so no alpha_F exceeds the tables.  The sum is built
    in q and u = y + 1, where t = q u and coeffs[k] is s_k u^k but
    (s_1 - 1) u + 1 at k = 1, and taken to powers of y once.  The points are
    summed by Galois orbits, each as the trace down to Q of a representative's
    product u^(sum of alpha_F != 1) * prod_{alpha_F != 1} s_{alpha_F}(a_F)
    * prod_{alpha_F = 1} ((s_1 - 1) u + 1), the second factor taken in integers
    in Z[x]/(x^m - 1), m the orbit's order, with s_k (s_1 - 1 at k = 1) scaled
    by D_k, the lcm of its denominators over every root met, and traced by
    Ramanujan sums.  s_0(a) = 0 for a != 1 skips each orbit with an a_F != 1
    off alpha's support.
    """
    if phi is None:
        phi = WeightPoly.one(P.ambient_dim)
    if phi.nvars != P.ambient_dim:
        raise ValueError("weight polynomial dimension does not match polytope")
    orbits = _galois_orbits(gamma_set(normal_fan(P)))
    integral = symbolic_integral(P, phi).poly
    if integral.is_zero():  # a zero weight: nothing needs a coefficient table
        return MultiPoly(("q", "y"))
    order = integral.degree()
    scalars = {r: [s - 1 if k == 1 else s
                   for k, s in enumerate(todd_coeffs(None, order, exponent=r).scalars)]
               for r in dict.fromkeys(r for rho, _ in orbits for r in rho)}
    dens = [math.lcm(*[s.den if isinstance(s, CycloNumber) else s.denominator for s in col])
            for col in zip(*scalars.values())]  # D_0 = 1
    scaled = {r: [s.numerator * (d // s.denominator) if isinstance(s, Fraction) else
                  [c * (d // s.den) for c in s.nums] + [0] * (r.denominator - len(s.nums))
                  for s, d in zip(row, dens)] for r, row in scalars.items()}  # D_k s_k
    tables = []  # (mask of the facets with a_F != 1, rows, m, c_m(e) for e < m, the ring's 1)
    for rho, m in orbits:  # x^j -> x^(j m/m0) takes Z[C_m0] into Z[C_m], and n to n * 1
        lift = [0] * (m - 1)
        rows = [[s if m < 3 else [s, *lift] if isinstance(s, int) else
                 [x for c in s for x in (c, *pad)] for s in scaled[r]]
                for r in rho for pad in [[0] * (m // r.denominator - 1)]]
        tables.append((sum(1 << f for f, r in enumerate(rho) if r), rows, m, ramanujan_sums(m),
                       1 if m < 3 else [1, *lift]))
    terms = [(alpha, power, coeff, coeff.denominator * math.prod(dens[k] for k in alpha))
             for (*alpha, power), coeff in integral.terms.items()]  # vars (h_1..h_m, t)
    common = math.lcm(*[den for *_, den in terms])
    d1 = dens[1]
    out = [[0] * (order + 1) for _ in range(order + 1)]  # [q][u] over common
    for alpha, power, coeff, den in terms:
        support = [(f, k) for f, k in enumerate(alpha) if k]
        mask = sum(1 << f for f, _ in support)
        traced = [0] * (alpha.count(1) + 1)
        for orbit_mask, rows, m, cm, one in tables:
            if orbit_mask & ~mask:  # some a_F != 1 meets s_0(a_F) = 0
                continue
            poly = [one]  # poly[j] is the coefficient of D_1^(i-j) u^j after i factors A u + D_1
            for f, k in support:
                s = rows[f][k]
                if m < 3:  # rational roots only: plain integers
                    if k == 1:
                        poly = [c + b * s for c, b in zip([*poly, 0], [0, *poly])]
                    elif s:
                        poly = [c * s for c in poly]
                    else:
                        break
                elif k == 1:
                    poly = [poly[0], *[list(map(operator.add, c, gmul(b, s, m)))
                                       for c, b in zip(poly[1:], poly)], gmul(poly[-1], s, m)]
                elif any(s):
                    poly = [gmul(c, s, m) for c in poly]
                else:
                    break
            else:
                for j, c in enumerate(poly):
                    traced[j] += c * cm[0] if m < 3 else sum(map(operator.mul, c, cm))
        # t^e = q^e u^e, and the alpha_F != 1 factors carry u^alpha_F
        shift = power + sum(k for k in alpha if k != 1)
        scale = coeff.numerator * math.prod(map(math.factorial, alpha)) * (common // den)
        for j, w in enumerate(traced):
            out[power][shift + j] += scale * w * d1 ** (len(traced) - 1 - j)
    out = [resum(row, 1) for row in out]  # u = y + 1
    return MultiPoly(("q", "y"), {(e, j): Fraction(c, common)
                                  for e, row in enumerate(out) for j, c in enumerate(row) if c})
