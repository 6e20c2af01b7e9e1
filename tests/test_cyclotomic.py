"""Cyclotomic field arithmetic against a floating-point shadow."""
import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclotomic_reference import cyclotomic_by_division
from latticegfun import CycloNumber, cyclo_root_of_unity
from latticegfun.cyclotomic import _trace_numerator, cyclotomic_polynomial, euler_phi

F = Fraction


def to_complex(x):
    """Floating-point shadow evaluation of x at exp(2*pi*i/order)."""
    z = cmath.exp(2j * cmath.pi / x.order)
    total = 0j
    for i, c in enumerate(x.nums):
        if c:
            total += float(F(c, x.den)) * z**i
    return total


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


def test_cyclotomic_polynomials_match_long_division():
    for n in range(1, 151):
        poly = cyclotomic_polynomial(n)
        assert all(type(c) is int for c in poly), n
        assert poly == cyclotomic_by_division(n), n
    assert -2 in cyclotomic_polynomial(105)


def test_order_27720_without_a_power_table():
    # 27720 = 2^3 3^2 5 7 11, of degree 5760: Phi_27720(x) = Phi_2310(x^12)
    big, small = cyclotomic_polynomial(27720), cyclotomic_polynomial(2310)
    assert big[::12] == small and not any(big[i] for i in range(len(big)) if i % 12)
    # exponents below and above the degree, all prime to the order
    for e in (1, 5767, 13859, 27719):
        root = cyclo_root_of_unity(e, 27720)
        assert root.order == 27720
        assert root * cyclo_root_of_unity(27720 - e, 27720) == 1
    assert cyclo_root_of_unity(1, 27720) * cyclo_root_of_unity(27719, 27720) == 1


def test_float_coordinates_are_rejected():
    with pytest.raises(TypeError):
        CycloNumber(3, [0.1, 0.5])
    with pytest.raises(TypeError):
        CycloNumber.from_rational(0.5, 4)
    with pytest.raises(TypeError):
        CycloNumber(4, [1, 1j])
    assert CycloNumber(3, [F(1, 2), 3]) == F(1, 2) + 3 * cyclo_root_of_unity(1, 3)


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
# denominators 5, 7, 8, 9 and 11: the product lives in order 27720
@example([((1, 5), F(1)), ((3, 7), F(-2, 3)), ((3, 8), F(1, 2)), ((2, 9), F(3, 4)),
          ((5, 11), F(-1))])
def test_products_match_float_shadow(factors):
    exact = CycloNumber.from_rational(1)
    shadow = complex(1)
    for (num, den), scale in factors:
        root = cyclo_root_of_unity(num, den)
        exact = exact * (scale * root + 1)
        shadow = shadow * (float(scale) * to_complex(root) + 1)
    assert abs(to_complex(exact) - shadow) < 1e-9


@settings(max_examples=30, deadline=None)
@given(small_roots, small_roots)
def test_sum_matches_float_shadow(r1, r2):
    a = cyclo_root_of_unity(*r1)
    b = cyclo_root_of_unity(*r2)
    assert abs(to_complex(a + b) - (to_complex(a) + to_complex(b))) < 1e-9
    assert abs(to_complex(a * b) - (to_complex(a) * to_complex(b))) < 1e-9


def test_equal_elements_of_different_orders_hash_alike():
    # equality promotes across orders, so the hash must not see the order
    elements = [cyclo_root_of_unity(num, den) for num, den in ((1, 3), (2, 3), (1, 4), (0, 1),
                                                               (1, 2), (3, 5))]
    elements.append(1 + F(3, 4) * cyclo_root_of_unity(1, 5))
    for x in elements:
        promoted = [x.promote(k * x.order) for k in (2, 3, 4)]
        assert all(y == x for y in promoted)
        assert len({x, *promoted}) == 1, x
    assert hash(cyclo_root_of_unity(1, 2)) == hash(F(-1)) == hash(-1)


def conjugate(x, k):
    """sigma_k(x): z -> z^k applied to the power-basis coordinates of x."""
    return sum((F(c, x.den) * cyclo_root_of_unity(k * e, x.order) for e, c in enumerate(x.nums)),
               CycloNumber.from_rational(0, x.order))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 12, 15])
def test_trace_is_the_sum_of_conjugates(order):
    # elements of the full field, of every subfield Q(zeta_d) and rationals,
    # each promoted to the full order, where the trace is read off the
    # numerators
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
        assert F(_trace_numerator(field), field.den) == total.as_rational(), (order, x)
