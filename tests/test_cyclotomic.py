"""Cyclotomic field arithmetic against a floating-point shadow."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegfun import CycloNumber, cyclo_root_of_unity
from latticegfun.cyclotomic import cyclotomic_polynomial, euler_phi, root_exponent, trace

F = Fraction


def test_root_of_unity_basics():
    assert cyclo_root_of_unity(0, 1) == 1
    assert cyclo_root_of_unity(1, 2) == -1
    z = cyclo_root_of_unity(1, 3)
    assert z ** 3 == 1
    assert 1 + z + z ** 2 == 0
    assert cyclo_root_of_unity(5, 10) == cyclo_root_of_unity(1, 2)
    with pytest.raises(ValueError):
        cyclo_root_of_unity(1, 0)


def test_cyclotomic_polynomials():
    x = lambda *cs: tuple(F(c) for c in cs)
    assert cyclotomic_polynomial(1) == x(-1, 1)
    assert cyclotomic_polynomial(2) == x(1, 1)
    assert cyclotomic_polynomial(3) == x(1, 1, 1)
    assert cyclotomic_polynomial(4) == x(1, 0, 1)
    assert cyclotomic_polynomial(6) == x(1, -1, 1)
    assert cyclotomic_polynomial(12) == x(1, 0, -1, 0, 1)
    assert len(cyclotomic_polynomial(20)) == euler_phi(20) + 1


def test_mixed_order_arithmetic():
    z2 = cyclo_root_of_unity(1, 2)
    z3 = cyclo_root_of_unity(1, 3)
    assert z2 * z3 == cyclo_root_of_unity(5, 6)
    z6 = cyclo_root_of_unity(1, 6)
    assert z6 * z6 == z3
    assert (z6 ** 6) == 1


def test_rationality_detection():
    z4 = cyclo_root_of_unity(1, 4)
    assert not z4.is_rational()
    assert (z4 ** 2).is_rational()
    assert (z4 ** 2).rational_value() == -1
    assert (z4 + (-z4) + F(3, 7)).rational_value() == F(3, 7)
    with pytest.raises(ValueError):
        z4.rational_value()


def test_inverse_and_division():
    z5 = cyclo_root_of_unity(1, 5)
    a = 2 + 3 * z5 - z5 ** 3
    assert a * a.inverse() == 1
    assert (a / a) == 1
    with pytest.raises(ZeroDivisionError):
        (a - a).inverse()


small_roots = st.tuples(st.integers(min_value=0, max_value=11),
                        st.integers(min_value=1, max_value=12))
scaled_root = st.tuples(small_roots, st.fractions(min_value=-3, max_value=3, max_denominator=4))


@settings(max_examples=30, deadline=None)
@given(st.lists(scaled_root, min_size=5, max_size=5))
def test_products_match_float_shadow(factors):
    exact = CycloNumber.from_rational(1)
    shadow = complex(1)
    for (num, den), scale in factors:
        root = cyclo_root_of_unity(num, den)
        exact = exact * (scale * root + 1)
        shadow = shadow * (float(scale) * root.to_complex() + 1)
    assert abs(exact.to_complex() - shadow) < 1e-9


@settings(max_examples=30, deadline=None)
@given(small_roots, small_roots)
def test_sum_matches_float_shadow(r1, r2):
    a = cyclo_root_of_unity(*r1)
    b = cyclo_root_of_unity(*r2)
    assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-9
    assert abs((a * b).to_complex() - (a.to_complex() * b.to_complex())) < 1e-9


def test_root_exponent_inverts_root_of_unity():
    for den in range(1, 13):
        for num in range(den):
            root = cyclo_root_of_unity(num, den)
            assert root_exponent(root) == F(num, den)
            if root.as_rational() is not None:
                assert root_exponent(root.as_rational()) == F(num, den)
    for value in (F(2), F(1, 2), 1 + cyclo_root_of_unity(1, 5)):
        with pytest.raises(ValueError):
            root_exponent(value)


def conjugate(x, k):
    """sigma_k(x): z -> z^k applied to the power-basis coordinates of x."""
    return sum((c * cyclo_root_of_unity(k * e, x.order) for e, c in enumerate(x.coords)),
               CycloNumber.from_rational(0, x.order))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 12, 15])
def test_trace_is_the_sum_of_conjugates(order):
    # elements of the full field, of every subfield Q(zeta_d) stored at
    # order d, of a subfield stored at the full order, and rationals
    elements = [F(-7, 3)]
    for d in range(1, order + 1):
        if order % d == 0:
            elements.append(CycloNumber(d, [F((-1) ** e * (e + 2), e + 1)
                                            for e in range(euler_phi(d))]))
            elements.append(cyclo_root_of_unity(1, d).promote(order) * F(3, 4) + 1)
    for x in elements:
        field = x.promote(order) if isinstance(x, CycloNumber) else \
            CycloNumber.from_rational(x, order)
        units = [k for k in range(1, order + 1) if math.gcd(k, order) == 1]
        total = sum((conjugate(field, k) for k in units), CycloNumber.from_rational(0, order))
        assert total.as_rational() is not None
        assert trace(x, order) == total.as_rational(), (order, x)
    with pytest.raises(ValueError):
        trace(cyclo_root_of_unity(1, 5), 12)
