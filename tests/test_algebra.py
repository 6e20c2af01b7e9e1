"""Exact scalar, polynomial, interpolation, and Bernoulli tests."""
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegfun import (CycloNumber, MultiPoly, bernoulli, interpolate, scalar_from_str,
                         scalar_to_str)
from latticegfun import algebra
from latticegfun.algebra import poly_from_list, resum, terms_to_json

F = Fraction

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def poly_strategy(variables=("x", "y", "z"), max_exp=3, max_terms=4):
    term = st.tuples(
        st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * len(variables)),
        rationals)
    return st.lists(term, max_size=max_terms).map(
        lambda items: MultiPoly(variables, {e: c for e, c in reversed(items)}))


def test_scalar_strings():
    assert scalar_to_str(F(3, 4)) == "3/4"
    assert scalar_to_str(F(-8, 2)) == "-4"
    assert scalar_from_str("7/3") == F(7, 3)
    assert scalar_from_str("-5") == F(-5)


@pytest.mark.parametrize("text", [3, None, " 1/2", "1/2\n", "0.5", "1e5000", "+1", "\u0663"])
def test_scalar_from_str_reads_only_what_scalar_to_str_writes(text):
    # Fraction alone would read all but the first two, "1e5000" as 10**5000
    with pytest.raises(ValueError, match="a coefficient must be a string"):
        scalar_from_str(text)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(p, r, s):
    assert p + r == r + p
    assert p * r == r * p
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)
    assert (p + r) * s == p * s + r * s


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy(),
       st.tuples(rationals, rationals, rationals))
def test_evaluation_is_a_homomorphism(p, r, point):
    at = dict(zip(("x", "y", "z"), point))
    assert (p * r).evaluate(at) == p.evaluate(at) * r.evaluate(at)
    assert (p + r).evaluate(at) == p.evaluate(at) + r.evaluate(at)


def test_no_zero_coefficients_stored():
    p = MultiPoly(("x",), {(1,): F(2), (0,): F(0)})
    assert (0,) not in p.terms
    q = p - p
    assert q.is_zero() and not q.terms


def test_substitution_and_derivative():
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    p = (x + 2 * y) ** 3
    assert p.substitute({"x": y}) == 27 * y ** 3
    assert p.coefficient("x", 2) == 6 * y
    assert p.degree() == 3 and p.is_homogeneous()
    assert not (p + 1).is_homogeneous()


def test_json_round_trip():
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    p = F(7, 3) * x ** 2 * y - 4 * y + 1
    assert MultiPoly.from_json(p.to_json()) == p


@pytest.mark.parametrize("exponent", [2.5, True, "2", None])
def test_from_json_rejects_non_integer_exponents(exponent):
    with pytest.raises(ValueError, match="exponents must be integers"):
        MultiPoly.from_json({"vars": ["x", "y"], "terms": [{"coeff": "1", "exps": [exponent, 0]}]})


@pytest.mark.parametrize("doc", [
    {"vars": "xy", "terms": [{"coeff": "1", "exps": [1, 2]}]},
    {"vars": [1, 2], "terms": []},
    {"vars": ["x", "x"], "terms": [{"coeff": "1", "exps": [1, 2]}]},  # x*x^2 times x gave x^3
    {"vars": ["x"], "terms": [{"coeff": 3, "exps": [1]}]},
    {"vars": ["x"], "terms": [{"exps": [1]}]},
    {"vars": ["x"], "terms": [{"coeff": "1"}]},
    {"vars": ["x"], "terms": [[1]]},
    {"vars": ["x"], "terms": 5},
    {"vars": ["x"]},
    [["x"], []],
])
def test_from_json_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        MultiPoly.from_json(doc)


def test_from_json_keeps_negative_exponents():
    # to_json emits them for a reciprocity image
    laurent = MultiPoly(("x", "y"), {(-1, 2): F(3)})
    assert MultiPoly.from_json(laurent.to_json()).terms == {(-1, 2): F(3)}


def test_negative_exponents_are_printed():
    p = MultiPoly(("x", "y"), {(-1, 2): F(3), (0, -2): F(-1, 2)})
    assert str(p) == "3*x^-1*y^2 + -1/2*y^-2"
    assert repr(p) == "MultiPoly(3*x^-1*y^2 + -1/2*y^-2)"


def test_substituting_a_scalar_for_a_negative_power_raises():
    # the scalar becomes a constant polynomial, whose powers are nonnegative,
    # so no float such as 2 ** -1 ever enters a coefficient
    with pytest.raises(ValueError, match="nonnegative"):
        MultiPoly(("x",), {(-1,): F(1)}).substitute({"x": 2})


def test_interpolate_known_values():
    q = MultiPoly.variable("q")
    assert interpolate([(0, 1), (1, 4), (2, 9)], 2) == q ** 2 + 2 * q + 1
    c = F(9, 7)
    assert interpolate([(0, c)], 0) == MultiPoly.const(c)


def test_interpolate_unit_square_counts():
    # independent brute-force count of Z^2 inside q*[0,1]^2
    def count(q):
        return sum(1 for a in range(q + 1) for b in range(q + 1))

    q = MultiPoly.variable("q")
    nodes = [(qq, count(qq)) for qq in (0, 1, 2)]
    assert interpolate(nodes, 2) == (q + 1) ** 2


def test_interpolate_rational_unsorted_nodes():
    q = MultiPoly.variable("q")
    poly = F(3, 4) * q ** 3 - F(1, 6) * q + 5
    xs = [F(1, 2), -2, F(7, 3), 0]
    assert interpolate([(x, poly.evaluate({"q": x})) for x in xs], 3) == poly


def test_interpolate_degenerate_nodes():
    with pytest.raises(ValueError, match="degenerate interpolation nodes"):
        interpolate([(0, 1), (0, 2), (1, 3)], 2)
    with pytest.raises(ValueError):
        interpolate([(0, 1), (1, 2)], 2)


@pytest.mark.parametrize("nodes", [[(0, 0.5), (1, 1.0)], [(0.0, 1), (1, 2)],
                                   [(0, "1/2"), (1, 1)], [(0, True), (1, 1)],
                                   [(False, 1), (1, 2)], [("0", 1), (1, 2)]])
def test_interpolate_takes_only_ints_and_fractions(nodes):
    # a float, a string or a bool anywhere in a node is refused, so none can
    # reach a result
    with pytest.raises(TypeError, match="ints or Fractions"):
        interpolate(nodes, 1)


class Count(int):
    """An int subclass, as a caller's own integer type may be."""


def test_interpolate_takes_int_subclasses_as_ints():
    nodes = [(0, 1), (1, 4), (2, 9)]
    assert interpolate([(Count(x), Count(y)) for x, y in nodes], 2) == interpolate(nodes, 2)
    assert interpolate([(Count(x), y) for x, y in nodes], 2).terms == {(0,): 1, (1,): 2, (2,): 1}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["q", None]),
       st.lists(st.one_of(st.integers(-3, 3), rationals, st.just(0), st.just(F(0))), max_size=6))
def test_poly_from_list_normalises_as_the_constructor_does(var, coeffs):
    poly = poly_from_list(var, coeffs)
    width = 0 if var is None else 1
    built = MultiPoly((var,)[:width], {(k,)[:width]: c for k, c in enumerate(coeffs)})
    assert poly == built and poly.terms == built.terms and poly.vars == built.vars
    assert all(type(c) is Fraction for c in poly.terms.values())
    assert MultiPoly.from_json(poly.to_json()) == poly


def test_interpolate_reads_int_values_over_their_own_denominator():
    # den-scaled integer values give the scaled polynomial; Fraction nodes
    # give the same polynomial as the ints they equal
    q = MultiPoly.variable("q")
    assert interpolate([(0, 3), (1, 5), (2, 7)], 2) == 2 * q + 3
    assert interpolate([(F(0), F(3)), (F(2, 2), F(10, 2))], 1) == 2 * q + 3


def test_interpolate_keys_its_cache_by_ints(monkeypatch):
    # Fraction abscissas, Fraction(2, 2) among them, reach the inverse
    # Vandermonde cache scaled to a tuple of ints
    keys = []
    real = algebra._inverse_vandermonde
    monkeypatch.setattr(algebra, "_inverse_vandermonde", lambda xs: keys.append(xs) or real(xs))
    q = MultiPoly.variable("q")
    assert interpolate([(F(0), F(3)), (F(2, 2), F(10, 2))], 1) == 2 * q + 3
    assert interpolate([(F(1, 2), 1), (F(3, 2), 2)], 1) == q + F(1, 2)
    assert keys == [(0, 1), (1, 3)]
    assert all(type(x) is int for key in keys for x in key)


def test_interpolate_reads_an_iterator_once():
    nodes = [(0, 1), (1, 3)]
    expected = interpolate(nodes, 1)
    assert interpolate(iter(nodes), 1) == expected
    assert interpolate(((x, 2 * x + 1) for x in range(2)), 1).terms == expected.terms
    for bad in ([(True, 1)], [(0, 1.0)]):  # neither takes the path of exact int nodes
        with pytest.raises(TypeError, match="ints or Fractions"):
            interpolate(bad, 0)


def lagrange_coefficients(xs, ys) -> list:
    """Coefficients, lowest first, of the polynomial through the nodes, from
    the Lagrange basis in Fractions."""
    out = [F(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [F(1)]
        for xj in xs[:i] + xs[i + 1:]:  # times (q - xj) / (xi - xj)
            basis = [(a - xj * b) / (xi - xj) for a, b in zip([F(0)] + basis, basis + [F(0)])]
        out = [o + yi * b for o, b in zip(out, basis)]
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=1, max_size=6, unique=True).flatmap(
    lambda xs: st.tuples(st.just(xs), st.one_of(
        st.lists(st.integers(-20, 20), min_size=len(xs), max_size=len(xs)),
        st.just([0] * len(xs))))),
    st.integers(1, 4), st.integers(1, 6))
def test_fit_integers_stores_only_nonzero_fractions(case, xscale, yscale):
    xs, ys = case
    poly = algebra.fit_integers(tuple(xs), ys, xscale, yscale)
    expected = poly_from_list("q" if len(xs) > 1 else None, lagrange_coefficients(
        [F(x, xscale) for x in xs], [F(y, yscale) for y in ys]))
    assert poly.vars == expected.vars and poly.terms == expected.terms
    assert all(c and type(c) is Fraction for c in poly.terms.values())
    if len(xs) == 1:
        assert set(poly.terms) <= {()}


abscissas = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(st.lists(abscissas, min_size=1, max_size=5, unique=True).flatmap(
    lambda xs: st.tuples(st.just(xs), *[st.lists(rationals, min_size=len(xs),
                                                 max_size=len(xs))] * 2, st.booleans())))
def test_interpolate_cache_keeps_each_call_its_own(case):
    # two value vectors on one abscissa tuple share the cached inverse
    # Vandermonde; each result still evaluates back to its own values
    xs, first, second, swap = case
    deg = len(xs) - 1
    for ys in (second, first) if swap else (first, second):
        poly = interpolate(list(zip(xs, ys)), deg)
        assert [poly.evaluate({"q": x}) for x in xs] == ys
    with pytest.raises(ValueError, match="degenerate interpolation nodes"):
        interpolate(list(zip(xs + xs[:1], first + first[:1])), deg + 1)
    with pytest.raises(ValueError, match="need exactly degree"):
        interpolate(list(zip(xs, first)), deg + 1)
    with pytest.raises(TypeError, match="ints or Fractions"):
        interpolate([(float(xs[0]), first[0])] + list(zip(xs[1:], first[1:])), deg)


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=7))
def test_interpolate_inverts_evaluation(coeffs):
    poly = MultiPoly(("q",), {(i,): c for i, c in enumerate(coeffs)})
    deg = len(coeffs) - 1
    nodes = [(i, poly.evaluate({"q": i})) for i in range(deg + 1)]
    assert interpolate(nodes, deg) == poly


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, max_size=7), st.sampled_from([-1, 1]))
def test_resum_expands_powers_of_x_plus_sign(coeffs, sign):
    out = resum(coeffs, sign)
    assert len(out) == len(coeffs)
    for x in range(-2, 3):
        assert sum(c * x ** j for j, c in enumerate(out)) == \
            sum(c * (x + sign) ** k for k, c in enumerate(coeffs))


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(5) == 0
    assert bernoulli(6) == F(1, 42)
    assert bernoulli(8) == F(-1, 30)
    assert all(bernoulli(2 * k - 1) == 0 for k in range(2, 8))
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_division_by_scalar_only():
    x = MultiPoly.variable("x")
    assert (2 * x) / 2 == x
    with pytest.raises(ZeroDivisionError):
        (2 * x) / 0
    with pytest.raises(ValueError):
        (2 * x) / x


@pytest.mark.parametrize("call, message", [
    (lambda: MultiPoly(("x",), {(1, 2): 1}), "exponent vector width does not match variables"),
    (lambda: MultiPoly.variable("x").evaluate({}), "no value supplied for variable 'x'"),
    (lambda: terms_to_json({(1,): CycloNumber(3, [1, 2])}),
     "only rational-coefficient polynomials serialize to JSON"),
    (lambda: interpolate([], -1), "interpolation degree must be nonnegative"),
], ids=["exponent-width", "evaluate-unbound", "cyclotomic-json", "negative-degree"])
def test_rejections(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_degree_in_an_absent_variable():
    assert (MultiPoly.variable("x") + 1).degree_in("y") == 0
    assert MultiPoly().degree_in("y") == -1


def test_multipoly_is_immutable():
    with pytest.raises(AttributeError, match="^MultiPoly is immutable$"):
        MultiPoly.variable("x").terms = {}


def test_zero_polynomial_prints_as_0():
    assert str(MultiPoly()) == "0"
