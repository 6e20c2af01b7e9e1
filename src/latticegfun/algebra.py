"""Exact rational scalars and sparse multivariate polynomials.

Every number in this package is either a :class:`fractions.Fraction` or a
cyclotomic field element (see :mod:`latticegfun.cyclotomic`); no floating
point enters any computation.  Polynomials are stored sparsely as a map
from exponent vectors to coefficients over an explicit variable tuple.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

#: Arbitrary-precision rational scalar used throughout the package.
#: Always stored in lowest terms with positive denominator.
ExactScalar = Fraction

_VAR_RE = re.compile(r"^(.*?)(\d*)$")


def var_sort_key(name: str) -> tuple[str, int]:
    """Sort key giving the global variable order: alphabetic prefix, then
    numeric suffix (so ``h2`` sorts before ``h10``)."""
    m = _VAR_RE.match(name)
    prefix, digits = m.group(1), m.group(2)
    return (prefix, int(digits) if digits else -1)


def scalar_from_str(text: str) -> Fraction:
    """Parse a rational from its serialized form ``"p/q"`` or ``"p"``."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}")


def scalar_to_str(value: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _coerce(coeff):
    if isinstance(coeff, int):
        return Fraction(coeff)
    return coeff


class MultiPoly:
    """Sparse polynomial in named variables with exact coefficients.

    ``terms`` maps exponent tuples (one entry per variable in ``vars``) to
    nonzero coefficients.  Coefficients are rationals, or cyclotomic numbers
    when roots of unity flow through a computation.  Instances are immutable;
    all operations return new polynomials.
    """

    __slots__ = ("vars", "terms")

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
                    key = tuple(exps)
                    if key in clean:
                        coeff = clean[key] + coeff
                        if coeff:
                            clean[key] = coeff
                        else:
                            del clean[key]
                    else:
                        clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, value) -> MultiPoly:
        value = _coerce(value)
        if not value:
            return cls((), {})
        return cls((), {(): value})

    @classmethod
    def variable(cls, name: str) -> MultiPoly:
        return cls((name,), {(1,): Fraction(1)})

    @classmethod
    def zero(cls) -> MultiPoly:
        return cls((), {})

    @classmethod
    def monomial(cls, variables, exps, coeff=1) -> MultiPoly:
        return cls(tuple(variables), {tuple(exps): _coerce(coeff)})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self):
        """The value of a constant polynomial (zero term included)."""
        for exps, coeff in self.terms.items():
            if any(exps):
                raise ValueError("polynomial is not constant")
        for coeff in self.terms.values():
            return coeff
        return Fraction(0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0 if self.terms else -1
        if not self.terms:
            return -1
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

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
            total = out.get(exps, 0) + coeff
            if total:
                out[exps] = total
            else:
                out.pop(exps, None)
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
            other = _coerce(other)
            if not other:
                return MultiPoly(self.vars, {})
            return MultiPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        variables, left, right = self._align(other)
        out = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                total = out.get(key, 0) + c1 * c2
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        return MultiPoly(variables, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, MultiPoly):
            other = other.constant_value()
        other = _coerce(other)
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
        """Replace some variables by polynomials or scalars; others remain."""
        polys = {}
        for var, value in mapping.items():
            polys[var] = value if isinstance(value, MultiPoly) else MultiPoly.const(value)
        kept = tuple(v for v in self.vars if v not in polys)
        result = MultiPoly(kept, {})
        power_cache: dict[tuple[str, int], MultiPoly] = {}

        def cached_power(var, e):
            key = (var, e)
            if key not in power_cache:
                power_cache[key] = polys[var] ** e
            return power_cache[key]

        for exps, coeff in self.terms.items():
            kept_exps = []
            factor = None
            for var, e in zip(self.vars, exps):
                if var in polys:
                    if e:
                        p = cached_power(var, e)
                        factor = p if factor is None else factor * p
                else:
                    kept_exps.append(e)
            term = MultiPoly(kept, {tuple(kept_exps): coeff})
            result = result + (term if factor is None else term * factor)
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
        terms = []
        for exps in sorted(self.terms):
            coeff = self.terms[exps]
            if not isinstance(coeff, Fraction):
                raise ValueError("only rational-coefficient polynomials serialize to JSON")
            terms.append({"coeff": scalar_to_str(coeff), "exps": list(exps)})
        return {"vars": list(self.vars), "terms": terms}

    @classmethod
    def from_json(cls, obj: dict) -> MultiPoly:
        variables = tuple(obj["vars"])
        terms = {}
        for item in obj["terms"]:
            exps = tuple(int(e) for e in item["exps"])
            coeff = scalar_from_str(item["coeff"])
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return cls(variables, terms)

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
                elif e > 1:
                    factors.append(f"{var}^{e}")
            body = "*".join(factors)
            if isinstance(coeff, Fraction):
                cstr = scalar_to_str(coeff)
            else:
                cstr = f"({coeff})"
            if body:
                parts.append(body if cstr == "1" else f"{cstr}*{body}")
            else:
                parts.append(cstr)
        return " + ".join(parts)


def interpolate(nodes, degree: int) -> MultiPoly:
    """Exact interpolation in ``q`` through ``degree + 1`` nodes.

    Returns the unique polynomial of degree at most ``degree`` through the
    given ``(abscissa, value)`` pairs, via Newton divided differences over
    rationals.
    """
    if degree < 0:
        raise ValueError("interpolation degree must be nonnegative")
    nodes = [(Fraction(x), Fraction(y)) for x, y in nodes]
    if len(nodes) != degree + 1:
        raise ValueError("need exactly degree + 1 interpolation nodes")
    xs = [x for x, _ in nodes]
    if len(set(xs)) != len(xs):
        raise ValueError("degenerate interpolation nodes")

    coeffs = [y for _, y in nodes]
    for level in range(1, len(nodes)):
        for i in range(len(nodes) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])

    x = MultiPoly.variable("q")
    result = MultiPoly.const(coeffs[-1])
    for i in range(len(nodes) - 2, -1, -1):
        result = result * (x - xs[i]) + coeffs[i]
    return result


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
