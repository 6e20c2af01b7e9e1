"""Reference cyclotomic polynomials for the tests, sharing no code with
``latticegfun.cyclotomic``: x^n - 1 divided by every lower Phi_d, d | n,
by long division over Fractions."""
from fractions import Fraction
from functools import lru_cache


def _divide_exactly(a, b):
    """a / b for ascending coefficient lists, raising if b does not divide a."""
    a = list(a)
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        factor = a[i + len(b) - 1] / b[-1]
        out[i] = factor
        for j, cb in enumerate(b):
            a[i + j] -= factor * cb
    if any(a):
        raise ArithmeticError("inexact division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_by_division(n: int) -> tuple[Fraction, ...]:
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly = _divide_exactly(poly, cyclotomic_by_division(d))
    return tuple(poly)
