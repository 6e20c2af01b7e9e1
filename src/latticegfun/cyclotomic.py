"""Exact arithmetic in cyclotomic fields.

An element of the field obtained by adjoining a primitive N-th root of
unity z is stored as integer numerators over one positive denominator, on
the power basis ``1, z, ..., z^(phi(N)-1)``, in lowest terms: the gcd of
the denominator and all numerators is 1.  That form is canonical, so
equality within one order is a tuple compare; the hash is the normalised
trace, which embedding into a larger field keeps.

The N-th cyclotomic polynomial is built over the integers from the Moebius
product of the ``1 - x^d``, ``d | N``, as power series truncated at degree
phi(N).  A polynomial in z is brought into the power basis by folding it
modulo ``x^N - 1`` and then dividing by the monic ``Phi_N`` from the top,
touching only ``Phi_N``'s nonzero terms; no table of the powers of z is
kept.  Elements of different orders are merged by embedding both into the
field of order ``lcm`` before any mixed arithmetic.  The trace down to Q
is read off the numerators through Ramanujan sums, and the inverse is the
product of the other Galois conjugates over the norm.  ``gmul`` multiplies
in Z[x]/(x^N - 1), which x -> z maps onto the integers of the field, and is
the one product kernel: a field product pads both numerator lists to N
entries, multiplies them by ``gmul`` and divides the result by ``Phi_N``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------------------
# arithmetic functions and the cyclotomic modulus
# ---------------------------------------------------------------------------


def _primes(n: int) -> list[int]:
    """The distinct prime factors of n, ascending."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for p in _primes(n):
        result -= result // p
    return result


def _mobius(n: int) -> int:
    primes = _primes(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending.

    For n > 1 it is the product over d | n of (1 - x^d)^mu(n/d); the signs
    of the factors x^d - 1 cancel because the mu(n/d) sum to zero.  Only
    squarefree n/d count, and each factor is applied as an integer power
    series truncated at degree phi(n), so k distinct primes cost
    2^k * phi(n) steps.
    """
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    if n == 1:
        return (-1, 1)
    deg = euler_phi(n)
    poly = [1] + [0] * deg
    divisors = [(1, 1)]  # squarefree e | n with mu(e)
    for p in _primes(n):
        divisors += [(e * p, -mu) for e, mu in divisors]
    for e, mu in divisors:
        d = n // e
        if mu > 0:  # times 1 - x^d
            for i in range(deg, d - 1, -1):
                poly[i] -= poly[i - d]
        else:  # times 1/(1 - x^d) = 1 + x^d + x^2d + ...
            for i in range(d, deg + 1):
                poly[i] += poly[i - d]
    return tuple(poly)


@lru_cache(maxsize=None)
def _modulus(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n) and the nonzero (j, c_j) of Phi_n below its leading term."""
    poly = cyclotomic_polynomial(n)
    return len(poly) - 1, tuple((j, c) for j, c in enumerate(poly[:-1]) if c)


def _reduce(r: list[int], n: int) -> list[int]:
    """The power-basis numerators of sum r[e] z^e, z a primitive n-th root
    of unity: r is folded modulo x^n - 1 and then divided by the monic
    Phi_n from the top.  r is consumed."""
    deg, terms = _modulus(n)
    if len(r) > n:
        for e in range(n, len(r)):
            if r[e]:
                r[e % n] += r[e]
        del r[n:]
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        if c:
            base = i - deg
            for j, p in terms:
                r[base + j] -= c * p
    del r[deg:]
    r += [0] * (deg - len(r))
    return r


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------


_set = object.__setattr__  # CycloNumber.__setattr__ refuses every write


def _fill(x: CycloNumber, order: int, nums, den: int) -> CycloNumber:
    """Set x to sum nums[i] z^i / den in lowest terms; den > 0 and
    len(nums) == phi(order)."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    _set(x, "order", order)
    _set(x, "nums", tuple(nums))
    _set(x, "den", den)
    return x


def _make(order: int, nums, den: int) -> CycloNumber:
    return _fill(object.__new__(CycloNumber), order, nums, den)


class CycloNumber:
    """An element of the cyclotomic field of the given order.

    ``nums`` are the integer numerators on the power basis and ``den`` is
    their common positive denominator, in lowest terms.  Arithmetic is
    exact.  Mixed operations with ints and Fractions promote the scalar
    into the field; mixed operations between different orders promote both
    sides into the field of order lcm.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coords) -> None:
        """The element with the given power-basis coordinates, each an int
        or a Fraction; missing trailing coordinates are zero."""
        if order < 1:
            raise ValueError("cyclotomic order must be positive")
        deg = euler_phi(order)
        coords = list(coords)
        if len(coords) > deg:
            raise ValueError("coordinate vector too long for this order")
        for c in coords:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"cyclotomic coordinates must be int or Fraction, "
                                f"not {type(c).__name__}")
        den = math.lcm(1, *(c.denominator for c in coords))
        nums = [c.numerator * (den // c.denominator) for c in coords]
        _fill(self, order, nums + [0] * (deg - len(nums)), den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNumber is immutable")

    @classmethod
    def from_rational(cls, value, order: int = 1) -> CycloNumber:
        return cls(order, [value])

    # -- order management ----------------------------------------------

    def promote(self, order: int) -> CycloNumber:
        """Embed into the field of a multiple order: z_own^i = z^(i*step)."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only promote into a multiple order")
        step = order // self.order
        spread = [0] * ((len(self.nums) - 1) * step + 1)
        spread[::step] = self.nums
        return _make(order, _reduce(spread, order), self.den)

    def _common(self, other: CycloNumber):
        order = math.lcm(self.order, other.order)
        return self.promote(order), other.promote(order), order

    def _lift(self, value):
        """value as a CycloNumber; an int or Fraction goes into self's field."""
        if isinstance(value, CycloNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return _make(self.order, [value.numerator] + [0] * (len(self.nums) - 1),
                         value.denominator)
        return None

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        a, b, order = self._common(other)
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return _make(order, [x * fa + y * fb for x, y in zip(a.nums, b.nums)], den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.order, [c * other.numerator for c in self.nums],
                         self.den * other.denominator)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b, order = self._common(other)
        pad = [0] * (order - len(a.nums))
        return _make(order, _reduce(gmul([*a.nums, *pad], [*b.nums, *pad], order), order),
                     a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> CycloNumber:
        """x^-1 = prod_{sigma != 1} sigma(x) / N(x) over the automorphisms
        sigma_k: z -> z^k, gcd(k, m) = 1, for the integral x = den * self;
        the norm N(x) is x times the product.  With R the product over a
        subgroup H minus 1 and e the order of a unit g modulo H, the cosets
        g^j H, 0 < j < e, add prod_j sigma_{g^j}(x R) in about 2 log e steps."""
        if not self:
            raise ZeroDivisionError("cyclotomic element is zero")
        m, x = self.order, _make(self.order, list(self.nums), 1)
        rest, group = CycloNumber.from_rational(1, m), {1}
        for g in range(2, m):
            if g in group or math.gcd(g, m) > 1:
                continue
            e, power = 1, g
            while power not in group:
                e, power = e + 1, power * g % m
            rest = rest * _conjugate(_orbit_product(x * rest, g, e - 1), g)
            group = {h * pow(g, j, m) % m for h in group for j in range(e)}
        return rest * (self.den / (x * rest).rational_value())

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
        return any(self.nums)

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        a, b, _ = self._common(other)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        """Equal elements of different orders hash alike: a rational one as
        its Fraction, any other as Tr(x)/phi(order), the trace normalised
        by the field degree, which promotion leaves unchanged."""
        r = self.as_rational()
        if r is not None:
            return hash(r)
        own, den = _trace_numerator(self), self.den * len(self.nums)
        g = math.gcd(own, den)
        return hash((own // g, den // g))

    def is_rational(self) -> bool:
        """True when all coordinates beyond the constant vanish."""
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction | None:
        if self.is_rational():
            return Fraction(self.nums[0], self.den)
        return None

    def rational_value(self) -> Fraction:
        r = self.as_rational()
        if r is None:
            raise ValueError("cyclotomic element is not rational")
        return r

    def __repr__(self):
        r = self.as_rational()
        if r is not None:
            return f"CycloNumber({r})"
        body = " + ".join(f"{Fraction(c, self.den)}*z{self.order}^{i}"
                          for i, c in enumerate(self.nums) if c)
        return f"CycloNumber[{self.order}]({body})"


def _conjugate(x: CycloNumber, k: int) -> CycloNumber:
    """sigma_k(x): z -> z^k for an integral x and a unit k mod x.order."""
    spread = [0] * x.order
    for i, c in enumerate(x.nums):
        spread[k * i % x.order] = c
    return cyclo_from_powers(x.order, spread)


def _orbit_product(y: CycloNumber, g: int, t: int) -> CycloNumber:
    """prod_{j < t} sigma_{g^j}(y) for an integral y, by doubling t."""
    if t == 0:
        return CycloNumber.from_rational(1, y.order)
    half = _orbit_product(y, g, t // 2)
    out = half * _conjugate(half, pow(g, t // 2, y.order))
    return out * _conjugate(y, pow(g, t - 1, y.order)) if t % 2 else out


def cyclo_root_of_unity(num: int, den: int) -> CycloNumber:
    """The exact root of unity exp(2*pi*i*num/den)."""
    if den == 0:
        raise ValueError("root of unity denominator must be nonzero")
    if den < 0:
        num, den = -num, -den
    num %= den
    g = math.gcd(num, den)
    return cyclo_from_powers(den // g, [0] * (num // g) + [1])


def cyclo_from_powers(order: int, coeffs) -> CycloNumber:
    """sum coeffs[e] z^e for integers coeffs[e] and z = exp(2*pi*i/order),
    with any exponents e >= 0."""
    return _make(order, _reduce(list(coeffs), order), 1)


@lru_cache(maxsize=None)
def ramanujan_sums(n: int) -> tuple[int, ...]:
    """c_n(e), the sum of the e-th powers of the primitive n-th roots of
    unity, for e < n: mu(n/g) * phi(n)/phi(n/g) with g = gcd(e, n)."""
    by_gcd = {g: _mobius(n // g) * (euler_phi(n) // euler_phi(n // g))
              for g in range(1, n + 1) if n % g == 0}
    return tuple([by_gcd[math.gcd(e, n)] for e in range(n)])


def gmul(a, b, m: int) -> list[int]:
    """a * b in the group ring Z[x]/(x^m - 1), each as m integers: a cyclic
    schoolbook over the nonzero entries when their count product is below
    16 m (the measured crossover), else one big-integer product by Kronecker
    substitution, w bytes a slot, 2^(8w-1) above each entry and coefficient."""
    right = [(j, y) for j, y in enumerate(b) if y]
    if (m - a.count(0)) * len(right) < 16 * m:
        out = [0] * (2 * m)
        for i, x in enumerate(a):
            if x:
                for j, y in right:
                    out[i + j] += x * y
        return [x + y for x, y in zip(out, out[m:])]
    w = (max(1, *map(abs, a)) * max(1, *map(abs, b)) * m).bit_length() // 8 + 1
    half, n, zero = 1 << (8 * w - 1), 2 * m - 1, bytes(w)
    pos_a, neg_a, pos_b, neg_b = (  # sum v_i 2^(8wi) over the positive, then negative, v_i
        int.from_bytes(b"".join([(s * c).to_bytes(w, "little") if s * c > 0 else zero
                                 for c in v]), "little") for v in (a, b) for s in (1, -1))
    offset = int.from_bytes(half.to_bytes(w, "little") * n, "little")  # keeps each slot >= 0
    raw = ((pos_a - neg_a) * (pos_b - neg_b) + offset).to_bytes(n * w, "little")
    out = [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, n * w, w)]
    return [x + y for x, y in zip(out, out[m:] + [0])]


def _trace_numerator(x: CycloNumber) -> int:
    """x.den times the trace of x over its own field."""
    return sum(c * s for c, s in zip(x.nums, ramanujan_sums(x.order)) if c)

