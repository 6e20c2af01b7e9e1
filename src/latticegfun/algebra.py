"""Exact rational scalars and sparse multivariate polynomials.

Every number in this package is either a :class:`fractions.Fraction` or a
cyclotomic field element (see :mod:`latticegfun.cyclotomic`); no floating
point enters any computation.  Polynomials are stored sparsely as a map
from exponent vectors to coefficients over an explicit variable tuple.
Both routes share this module's weight type and integer fit.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain
from operator import mul

from .linalg import mat_inverse

_VAR_RE = re.compile(r"^(.*?)(\d*)$")
_SCALAR_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
_EXACT = (int, Fraction)  # the exact scalar types, matched by identity first


def var_sort_key(name: str) -> tuple[str, int]:
    """Sort key giving the global variable order: alphabetic prefix, then
    numeric suffix (so ``h2`` sorts before ``h10``)."""
    m = _VAR_RE.match(name)
    prefix, digits = m.group(1), m.group(2)
    return (prefix, int(digits) if digits else -1)


def scalar_from_str(text: str) -> Fraction:
    """Parse a rational from the form ``scalar_to_str`` writes, ``"p/q"`` or
    ``"p"`` (``-?[0-9]+(/[0-9]+)?``); anything else raises ``ValueError``."""
    if not isinstance(text, str) or not _SCALAR_RE.fullmatch(text):
        raise ValueError(f"a coefficient must be a string 'p' or 'p/q', not {text!r:.40}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r:.40}")


def scalar_to_str(value: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return str(Fraction(value))


def _coerce(coeff):
    if isinstance(coeff, int):
        return Fraction(coeff)
    return coeff


class MultiPoly:
    """Sparse polynomial in named variables with exact coefficients.

    ``terms`` maps exponent tuples (one entry per variable in ``vars``) to
    nonzero coefficients.  Coefficients are rationals, or cyclotomic numbers
    when roots of unity flow through a computation.  The constructor
    normalises (``int`` to ``Fraction``, zero terms dropped), so operations
    hand it raw sums and products; the one path for terms already normalised
    is ``_trusted``, which only ``poly_from_list`` calls.  Immutable.
    """

    __slots__ = ("vars", "terms")

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> MultiPoly:
        """The polynomial over a variable tuple with normalised terms, as given."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "vars", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __init__(self, variables=(), terms=None):
        object.__setattr__(self, "vars", tuple(variables))
        clean = {}
        if terms:
            width = len(self.vars)
            for exps, coeff in terms.items():
                coeff = _coerce(coeff)
                if len(exps) != width:
                    raise ValueError("exponent vector width does not match variables")
                if coeff:
                    clean[tuple(exps)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, value) -> MultiPoly:
        return cls((), {(): value})

    @classmethod
    def variable(cls, name: str) -> MultiPoly:
        return cls((name,), {(1,): 1})

    @classmethod
    def zero(cls) -> MultiPoly:
        return cls()

    @classmethod
    def monomial(cls, variables, exps, coeff=1) -> MultiPoly:
        return cls(variables, {tuple(exps): coeff})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self):
        """The value of a constant polynomial (zero term included)."""
        if any(any(exps) for exps in self.terms):
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0 if self.terms else -1
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def _mapped(self, variables):
        """Re-express over a superset variable tuple."""
        if variables == self.vars:
            return self.terms
        positions = [variables.index(v) for v in self.vars]
        width = len(variables)
        out = {}
        for exps, coeff in self.terms.items():
            key = [0] * width
            for pos, e in zip(positions, exps):
                key[pos] = e
            out[tuple(key)] = coeff
        return out

    def _align(self, other: MultiPoly):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        merged = tuple(sorted(set(self.vars) | set(other.vars), key=var_sort_key))
        return merged, self._mapped(merged), other._mapped(merged)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other)
        variables, left, right = self._align(other)
        out = dict(left)
        for exps, coeff in right.items():
            out[exps] = out.get(exps, 0) + coeff
        return MultiPoly(variables, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return MultiPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        variables, left, right = self._align(other)
        out = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(variables, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, MultiPoly):
            other = other.constant_value()
        if not other:
            raise ZeroDivisionError("division of a polynomial by zero")
        return MultiPoly(self.vars, {e: c / other for e, c in self.terms.items()})

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = MultiPoly.const(1)
        base = self
        n = power
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction)) or hasattr(other, "order"):
                other = MultiPoly.const(other)
            else:
                return NotImplemented
        _, left, right = self._align(other)
        return left == right

    __hash__ = None

    # -- substitution and coefficients ---------------------------------

    def substitute(self, mapping: dict) -> MultiPoly:
        """Replace some variables by polynomials or scalars; others remain.
        A scalar is made a constant polynomial first, so its powers stay
        polynomial powers (a negative exponent raises ``ValueError``)."""
        polys = {var: value if isinstance(value, MultiPoly) else MultiPoly.const(value)
                 for var, value in mapping.items()}
        kept = tuple(v for v in self.vars if v not in polys)
        result = MultiPoly(kept)
        for exps, coeff in self.terms.items():
            term = MultiPoly.monomial(
                kept, [e for var, e in zip(self.vars, exps) if var not in polys], coeff)
            for var, e in zip(self.vars, exps):
                if var in polys and e:
                    term = term * polys[var] ** e
            result = result + term
        return result

    def evaluate(self, mapping: dict):
        """Evaluate at scalar values for every variable appearing."""
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            value = coeff
            for var, e in zip(self.vars, exps):
                if e:
                    if var not in mapping:
                        raise ValueError(f"no value supplied for variable {var!r}")
                    value = value * (_coerce(mapping[var]) ** e)
            total = total + value
        return total

    def coefficients_in(self, var: str) -> dict:
        """Split into coefficient polynomials of powers of ``var``."""
        if var not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: dict[int, dict] = {}
        for exps, coeff in self.terms.items():
            p = exps[i]
            key = exps[:i] + exps[i + 1:]
            buckets.setdefault(p, {})[key] = coeff
        return {p: MultiPoly(rest, t) for p, t in sorted(buckets.items())}

    def coefficient(self, var: str, power: int) -> MultiPoly:
        return self.coefficients_in(var).get(power, MultiPoly((), {}))

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {"vars": list(self.vars), "terms": terms_to_json(self.terms)}

    @classmethod
    def from_json(cls, obj: dict) -> MultiPoly:
        """Read ``{"vars": [name, ...], "terms": [...]}``; negative exponents are kept."""
        names = obj.get("vars") if isinstance(obj, dict) else None
        if not isinstance(names, list) or not all(isinstance(v, str) for v in names) \
                or len(set(names)) < len(names):
            raise ValueError("a polynomial needs a 'vars' list of distinct names")
        return cls(names, terms_from_json(obj.get("terms"), len(names)))

    def __repr__(self):
        return f"MultiPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            coeff = self.terms[exps]
            factors = []
            for var, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(var)
                elif e:
                    factors.append(f"{var}^{e}")
            body = "*".join(factors)
            cstr = str(coeff) if isinstance(coeff, Fraction) else f"({coeff})"
            if body:
                parts.append(body if cstr == "1" else f"{cstr}*{body}")
            else:
                parts.append(cstr)
        return " + ".join(parts)


def terms_to_json(terms: dict) -> list:
    """The JSON term list ``[{"coeff": "p/q", "exps": [...]}, ...]`` of an
    exponent-vector -> rational map, sorted by exponent vector."""
    if not all(isinstance(c, Fraction) for c in terms.values()):
        raise ValueError("only rational-coefficient polynomials serialize to JSON")
    return [{"coeff": scalar_to_str(terms[exps]), "exps": list(exps)} for exps in sorted(terms)]


def terms_from_json(items, width: int) -> dict:
    """The exponent-vector -> Fraction map of a term list as ``terms_to_json``
    writes it, repeated exponent vectors summed.  Anything but a list of
    objects, each with an ``exps`` list of ``width`` integers and a ``coeff``
    string read by ``scalar_from_str``, raises ``ValueError``."""
    if not isinstance(items, list):
        raise ValueError("'terms' must be a list")
    terms = {}
    for item in items:
        exps = item.get("exps") if isinstance(item, dict) else None
        if not isinstance(exps, list) or len(exps) != width \
                or any(isinstance(e, bool) or not isinstance(e, int) for e in exps):
            raise ValueError(f"exponents must be integers, {width} per term, not {exps!r:.40}")
        exps = tuple(exps)
        terms[exps] = terms.get(exps, 0) + scalar_from_str(item.get("coeff"))
    return terms


class WeightPoly:
    """A homogeneous polynomial weight on the ambient space.

    Variables are x1..xn and exponents are nonnegative integers.  The
    constant weight 1 has degree 0.  ``terms`` maps each full-width
    exponent vector (one entry per x_i, in order) to its coefficient.
    """

    def __init__(self, poly: MultiPoly, nvars: int):
        self.poly = poly
        self.nvars = nvars
        for e in chain.from_iterable(poly.terms):
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"weight exponents must be nonnegative integers, got {e!r}")
        if not poly.is_homogeneous():
            raise ValueError("weight polynomial must be homogeneous")
        names = [f"x{i + 1}" for i in range(nvars)]
        for v in poly.vars:
            if v not in names:
                raise ValueError(f"unexpected weight variable {v!r}")
        slot = {v: i for i, v in enumerate(poly.vars)}
        self.terms = {tuple(exps[slot[x]] if x in slot else 0 for x in names): coeff
                      for exps, coeff in poly.terms.items()}
        self.degree = max(poly.degree(), 0)

    @classmethod
    def one(cls, nvars: int) -> WeightPoly:
        return cls(MultiPoly.const(1), nvars)

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> WeightPoly:
        names = tuple(f"x{i + 1}" for i in range(nvars))
        return cls(MultiPoly.monomial(names, tuple(exps), coeff), nvars)

    def at_origin(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def to_json(self) -> dict:
        return {"vars": self.nvars, "terms": terms_to_json(self.terms)}

    @classmethod
    def from_json(cls, obj: dict, expected_vars: int | None = None) -> WeightPoly:
        """Parse ``{"vars": n, "terms": [...]}``.  A well-formed ``vars``
        other than ``expected_vars`` is rejected before any variable is
        built, so its size costs nothing."""
        if not isinstance(obj, dict) or "vars" not in obj or "terms" not in obj:
            raise ValueError("a weight needs the keys 'vars' and 'terms'")
        nvars = obj["vars"]
        if not isinstance(nvars, int) or isinstance(nvars, bool) or nvars < 1:
            raise ValueError("weight 'vars' must be a positive integer")
        if expected_vars is not None and nvars != expected_vars:
            raise ValueError("weight polynomial dimension does not match polytope")
        names = tuple(f"x{i + 1}" for i in range(nvars))
        return cls(MultiPoly(names, terms_from_json(obj["terms"], nvars)), nvars)

    def __repr__(self):
        return f"WeightPoly({self.poly})"


def interpolate(nodes, degree: int) -> MultiPoly:
    """Exact interpolation in ``q`` through ``degree + 1`` nodes.

    Returns the unique polynomial of degree at most ``degree`` through the
    given ``(abscissa, value)`` pairs, ints or Fractions read as given (any
    other type, ``bool`` included, raises ``TypeError`` in the one pass
    that splits the nodes).  The abscissas are scaled by ``xscale`` to
    integers and the values by their common denominator for ``fit_integers``.
    """
    if degree < 0:
        raise ValueError("interpolation degree must be nonnegative")
    xs, ys = [], []
    for x, y in nodes:  # one pass: each node is checked as it is split
        if not (type(x) in _EXACT and type(y) in _EXACT) and (
                isinstance(x, bool) or isinstance(y, bool) or not (
                isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)))):
            raise TypeError("interpolation nodes must be ints or Fractions")
        xs.append(x)
        ys.append(y)
    if len(xs) != degree + 1:
        raise ValueError("need exactly degree + 1 interpolation nodes")
    if len(set(xs)) != len(xs):
        raise ValueError("degenerate interpolation nodes")

    ints = all([type(x) is int for x in xs])
    xscale = 1 if ints else math.lcm(*[x.denominator for x in xs])
    yscale = math.lcm(*[y.denominator for y in ys])
    return fit_integers(
        tuple(xs) if ints else tuple([x.numerator * (xscale // x.denominator) for x in xs]),
        [y.numerator * (yscale // y.denominator) for y in ys] if yscale > 1 else ys,
        xscale, yscale)


def fit_integers(xs: tuple[int, ...], ys, xscale: int, yscale: int) -> MultiPoly:
    """The polynomial in ``q`` through (x / xscale, y / yscale), for distinct
    integers xs and integers ys, a constant over no variables at degree 0:
    each coefficient is an integer dot product with a cached inverse Vandermonde row."""
    rows, det = _inverse_vandermonde(xs)
    return poly_from_list("q" if len(xs) > 1 else None,
                          [Fraction(sum(map(mul, row, ys)) * xscale ** k, det * yscale)
                           for k, row in enumerate(rows)])


@lru_cache(maxsize=16)
def _inverse_vandermonde(xs: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``(rows, det)``, tuples, with rows / det the inverse of [x^k]: row k gives q^k."""
    rows, det = mat_inverse([[x ** k for k in range(len(xs))] for x in xs])
    return tuple(map(tuple, rows)), det


def poly_from_list(var: str | None, coeffs) -> MultiPoly:
    """The polynomial with dense coefficient list ``coeffs`` in ``var``, normalised
    here; a constant over no variables (the last coefficient) when ``var`` is None."""
    width = 0 if var is None else 1
    coeffs = coeffs if width else list(coeffs)[-1:]  # each would land on the key ()
    return MultiPoly._trusted((var,)[:width], {
        (k,)[:width]: Fraction(c) if isinstance(c, int) else c for k, c in enumerate(coeffs) if c})


def poly_to_list(poly: MultiPoly) -> list:
    """Dense coefficient list of a polynomial in at most one variable."""
    return [poly.terms.get((k,)[:len(poly.vars)], 0) for k in range(poly.degree() + 1)]


def convolve(a, b) -> list:
    """Product of two dense coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, e in enumerate(b, start=i):
            out[j] += c * e
    return out


@cache
def pascal_row(k: int, sign: int = 1) -> tuple[int, ...]:
    """Coefficients of (x + sign)^k, lowest power first."""
    return tuple(sign ** (k - j) * math.comb(k, j) for j in range(k + 1))


def resum(coeffs, sign: int) -> list:
    """Coefficient list of the sum of coeffs[k]·(x + sign)^k."""
    out = [0] * len(coeffs)
    for k, a in enumerate(coeffs):
        for j, c in enumerate(pascal_row(k, sign)):
            out[j] += a * c
    return out


# cache holds the B_1 = -1/2 family; only the k = 1 value differs between
# the two sign conventions
_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(k: int) -> Fraction:
    """The k-th Bernoulli number, with the B_1 = +1/2 sign convention."""
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if k == 1:
        return Fraction(1, 2)
    while len(_bernoulli_cache) <= k:
        m = len(_bernoulli_cache)
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * _bernoulli_cache[j]
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[k]
