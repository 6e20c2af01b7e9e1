"""Exact arithmetic in cyclotomic fields.

An element of the field obtained by adjoining a primitive N-th root of
unity is stored as a coordinate vector over the power basis
``1, z, ..., z^(phi(N)-1)``, reduced modulo the N-th cyclotomic polynomial.
Elements of different orders are merged by embedding both into the field of
order ``lcm`` before any mixed arithmetic.  The trace down to Q is read off
the power-basis coordinates through Ramanujan sums.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------------------
# dense univariate helpers over Fraction (ascending coefficient lists)
# ---------------------------------------------------------------------------


def _ptrim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _ptrim(out)


def _psub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _ptrim(out)


def _pdivmod(a, b):
    a = list(a)
    out = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        factor = a[i + len(b) - 1] * inv
        if factor:
            out[i] = factor
            for j, cb in enumerate(b):
                a[i + j] -= factor * cb
    return _ptrim(out), _ptrim(a[: len(b) - 1])


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending order."""
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    if n == 1:
        return (Fraction(-1), Fraction(1))
    # (x^n - 1) divided by the product of all lower cyclotomic factors
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _pdivmod(poly, list(cyclotomic_polynomial(d)))
            if rem:
                raise RuntimeError(f"cyclotomic factor of order {d} does not divide x^{n} - 1")
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Coordinates of z^e modulo the n-th cyclotomic polynomial, e < n."""
    mod = list(cyclotomic_polynomial(n))
    deg = len(mod) - 1
    rows = []
    current = [Fraction(1)]
    for _ in range(n):
        rows.append(tuple(current) + (Fraction(0),) * (deg - len(current)))
        current = [Fraction(0)] + current
        if len(current) > deg:
            _, current = _pdivmod(current, mod)
            current = list(current)
    return tuple(rows)


def _zeros(k):
    return [Fraction(0)] * k


class CycloNumber:
    """An element of the cyclotomic field of the given order.

    Arithmetic is exact.  Mixed operations with ints and Fractions promote
    the scalar into the field; mixed operations between different orders
    promote both sides into the field of order lcm.
    """

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords) -> None:
        if order < 1:
            raise ValueError("cyclotomic order must be positive")
        deg = euler_phi(order)
        coords = [Fraction(c) for c in coords]
        if len(coords) > deg:
            raise ValueError("coordinate vector too long for this order")
        coords += _zeros(deg - len(coords))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords", tuple(coords))

    def __setattr__(self, name, value):
        raise AttributeError("CycloNumber is immutable")

    @classmethod
    def from_rational(cls, value, order: int = 1) -> CycloNumber:
        coords = _zeros(euler_phi(order))
        coords[0] = Fraction(value)
        return cls(order, coords)

    # -- order management ----------------------------------------------

    def promote(self, order: int) -> CycloNumber:
        """Embed into the field of a multiple order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only promote into a multiple order")
        table = _power_table(order)
        step = order // self.order
        deg = euler_phi(order)
        out = _zeros(deg)
        for i, c in enumerate(self.coords):
            if c:
                row = table[(i * step) % order]
                for j, r in enumerate(row):
                    if r:
                        out[j] += c * r
        return CycloNumber(order, out)

    def _common(self, other: CycloNumber):
        order = self.order * other.order // math.gcd(self.order, other.order)
        return self.promote(order), other.promote(order), order

    @staticmethod
    def _lift(value):
        if isinstance(value, CycloNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloNumber.from_rational(value)
        return None

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        a, b, order = self._common(other)
        return CycloNumber(order, [x + y for x, y in zip(a.coords, b.coords)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.order, [-c for c in self.coords])

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloNumber(self.order, [c * other for c in self.coords])
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b, order = self._common(other)
        table = _power_table(order)
        deg = len(a.coords)
        conv = [Fraction(0)] * (2 * deg - 1) if deg else []
        for i, ca in enumerate(a.coords):
            if ca:
                for j, cb in enumerate(b.coords):
                    if cb:
                        conv[i + j] += ca * cb
        out = _zeros(deg)
        for e, c in enumerate(conv):
            if c:
                if e < deg:
                    out[e] += c
                else:
                    row = table[e % order]
                    for j, r in enumerate(row):
                        if r:
                            out[j] += c * r
        return CycloNumber(order, out)

    __rmul__ = __mul__

    def inverse(self) -> CycloNumber:
        """Multiplicative inverse via extended gcd against the modulus."""
        if not self:
            raise ZeroDivisionError("cyclotomic element is zero")
        mod = list(cyclotomic_polynomial(self.order))
        # extended Euclid in Q[x]: maintain s with s*self = r (mod modulus)
        r0, r1 = _ptrim(list(self.coords)), mod
        s0, s1 = [Fraction(1)], []
        while r1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        # r0 is a nonzero constant: the modulus is irreducible over Q
        if len(r0) != 1:
            raise RuntimeError("gcd with the cyclotomic modulus is not a unit")
        inv_gcd = 1 / r0[0]
        coords = [c * inv_gcd for c in s0]
        if len(coords) >= len(mod):
            _, coords = _pdivmod(coords, mod)
        return CycloNumber(self.order, coords)

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, power: int):
        if power < 0:
            return self.inverse() ** (-power)
        result = CycloNumber.from_rational(1, self.order)
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    # -- predicates ------------------------------------------------------

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        a, b, _ = self._common(other)
        return a.coords == b.coords

    def __hash__(self):
        r = self.as_rational()
        if r is not None:
            return hash(r)
        return hash((self.order, self.coords))

    def is_rational(self) -> bool:
        """True when all coordinates beyond the constant vanish."""
        return not any(self.coords[1:])

    def as_rational(self) -> Fraction | None:
        if self.is_rational():
            return self.coords[0]
        return None

    def rational_value(self) -> Fraction:
        r = self.as_rational()
        if r is None:
            raise ValueError("cyclotomic element is not rational")
        return r

    def to_complex(self) -> complex:
        """Floating-point shadow evaluation at exp(2*pi*i/order)."""
        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        for i, c in enumerate(self.coords):
            if c:
                total += float(c) * z**i
        return total

    def __repr__(self):
        r = self.as_rational()
        if r is not None:
            return f"CycloNumber({r})"
        body = " + ".join(f"{c}*z{self.order}^{i}" for i, c in enumerate(self.coords) if c)
        return f"CycloNumber[{self.order}]({body})"


def cyclo_root_of_unity(num: int, den: int) -> CycloNumber:
    """The exact root of unity exp(2*pi*i*num/den)."""
    if den == 0:
        raise ValueError("root of unity denominator must be nonzero")
    if den < 0:
        num, den = -num, -den
    num %= den
    g = math.gcd(num, den)
    num //= g
    order = den // g
    table = _power_table(order)
    return CycloNumber(order, table[num % order])


@lru_cache(maxsize=None)
def _power_index(n: int) -> dict[tuple[Fraction, ...], int]:
    """Exponent e of z^e keyed by its coordinates modulo the n-th
    cyclotomic polynomial."""
    return {row: e for e, row in enumerate(_power_table(n))}


def root_exponent(value) -> Fraction:
    """The r in [0, 1) with value = exp(2*pi*i*r), for a root of unity
    given as 1, -1 or a CycloNumber; the inverse of ``cyclo_root_of_unity``."""
    if not isinstance(value, CycloNumber):
        if value == 1:
            return Fraction(0)
        if value == -1:
            return Fraction(1, 2)
    else:
        e = _power_index(value.order).get(value.coords)
        if e is not None:
            return Fraction(e, value.order)
    raise ValueError(f"{value!r} is not a root of unity")


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


@lru_cache(maxsize=None)
def _ramanujan_sums(n: int) -> tuple[int, ...]:
    """c_n(e), the sum of the e-th powers of the primitive n-th roots of
    unity, for e < phi(n): mu(n/g) * phi(n)/phi(n/g) with g = gcd(e, n)."""
    out = []
    for e in range(euler_phi(n)):
        d = n // math.gcd(e, n)
        out.append(_mobius(d) * (euler_phi(n) // euler_phi(d)))
    return tuple(out)


def trace(x, order: int) -> Fraction:
    """The trace of x from the cyclotomic field of the given order down to Q.

    On the power basis the trace of z_d^e is the Ramanujan sum c_d(e).  An
    x stored at an order d dividing ``order`` lies in a subfield, and the
    trace over the full field is phi(order)/phi(d) times its own.
    """
    if not isinstance(x, CycloNumber):
        return euler_phi(order) * Fraction(x)
    if order % x.order:
        raise ValueError("the element's order must divide the field order")
    own = sum((c * s for c, s in zip(x.coords, _ramanujan_sums(x.order)) if c), Fraction(0))
    return own * (euler_phi(order) // euler_phi(x.order))
