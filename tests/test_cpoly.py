"""The Horner loop poly_eval_bounded (qesolve.analysis) and the test-only
polynomial type and algebra of _oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesolve.analysis import poly_eval_bounded
from qesolve.errors import NumericOverflowError

from _helpers import fresh_rng, rel_err
from _oracles import (
    ZERO,
    Poly,
    _horner_all,
    degree,
    is_zero,
    monomial,
    poly_add,
    poly_derivative,
    poly_mul,
    poly_sub,
)

unit_coeffs = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
polys = st.lists(unit_coeffs, max_size=13).map(Poly)


def assert_poly_close(p: Poly, q: Poly, tol: float) -> None:
    width = max(len(p.coeffs), len(q.coeffs))
    a = p.coeffs + (0.0j,) * (width - len(p.coeffs))
    b = q.coeffs + (0.0j,) * (width - len(q.coeffs))
    scale = max([1.0] + [max(abs(x), abs(y)) for x, y in zip(a, b)])
    for x, y in zip(a, b):
        assert abs(x - y) <= tol * scale


def test_mul_difference_of_squares():
    p = Poly([1.0, 1.0])
    q = Poly([1.0, -1.0])
    assert poly_mul(p, q) == Poly([1.0, 0.0, -1.0])


def test_mul_annihilator():
    p = Poly([2.0, 1j, -3.0])
    assert poly_mul(p, ZERO) == ZERO
    assert is_zero(poly_mul(ZERO, p))


def test_mul_conjugate_imaginary_pair():
    p = Poly([1.0, 1j])
    q = Poly([1.0, -1j])
    assert poly_mul(p, q) == Poly([1.0, 0.0, 1.0])


def test_mul_degree_adds():
    p = monomial(3, 2.0 - 1j)
    q = monomial(2, 0.5j)
    assert degree(poly_mul(p, q)) == 5


def test_derivative_square():
    assert poly_derivative(monomial(2)) == Poly([0.0, 2.0])


def test_derivative_constant():
    assert is_zero(poly_derivative(Poly([5.0 + 2.0j])))


def test_derivative_of_level_polynomial():
    # factor 1 + c1 z of the upper two-level state at mu=1: c1 = -(1+i)
    # from the 2x2 null space (row relation (-2a - 2*sqrt(2-mu^2)) v0 = 2 v1).
    c1 = -(1.0 + 1.0j)
    assert poly_derivative(Poly([1.0, c1])) == Poly([c1])


def test_eval_root():
    assert poly_eval_bounded((1.0, 0.0, -1.0), 1.0)[0] == 0.0


def test_eval_constant_term():
    assert poly_eval_bounded((1.0, 1.0 - 1j), 0.0)[0] == 1.0


def test_eval_direct_sum():
    assert poly_eval_bounded((1.0, 1.0 - 1j), 1.0)[0] == 2.0 - 1j


def test_zero_polynomial_degree_is_none():
    assert degree(ZERO) is None
    assert degree(Poly([0.0, 0.0])) is None
    assert is_zero(Poly([0.0, 0.0]))


def test_trailing_trim_is_exact_only():
    p = Poly([1.0, 1e-300])
    assert degree(p) == 1  # tiny but nonzero trailing coefficient survives
    q = Poly([1.0, 0.0])
    assert degree(q) == 0


def test_interior_zeros_survive():
    p = Poly([1.0, 0.0, 2.0])
    assert p.coeffs == (1.0 + 0j, 0.0j, 2.0 + 0j)


def test_non_finite_coefficient_rejected():
    with pytest.raises(NumericOverflowError):
        Poly([float("inf")])
    with pytest.raises(NumericOverflowError):
        Poly([complex(0.0, float("nan"))])


def test_mul_overflow_surfaces():
    big = Poly([1e308])
    with pytest.raises(NumericOverflowError):
        poly_mul(big, Poly([10.0]))


def test_eval_overflow_surfaces():
    with pytest.raises(NumericOverflowError):
        poly_eval_bounded((0.0, 1e300), 1e300)


@settings(max_examples=60, deadline=None)
@given(polys, unit_coeffs)
def test_bounded_eval_matches_and_bounds_horner(p, z):
    value, bound = poly_eval_bounded(p.coeffs, z)
    assert value == _horner_all(p.coeffs, z)[0]
    # exact Horner in rationals on the same double inputs
    re, im = Fraction(0), Fraction(0)
    zr, zi = Fraction(z.real), Fraction(z.imag)
    for c in reversed(p.coeffs):
        re, im = re * zr - im * zi + Fraction(c.real), re * zi + im * zr + Fraction(c.imag)
    error = abs(complex(float(Fraction(value.real) - re), float(Fraction(value.imag) - im)))
    assert error <= bound + 1e-300  # the slack absorbs underflow, outside the bound's model


def test_bounded_eval_of_unmeasurable_value_has_no_finite_bound():
    # a finite value whose modulus exceeds the largest double: the plain
    # Horner value, here the constant itself, with an infinite rounding
    # bound instead of an error
    value, bound = poly_eval_bounded((1.5e308 + 1.5e308j,), 0.5)
    assert value == 1.5e308 + 1.5e308j and bound == float("inf")


def test_bounded_eval_finishes_the_horner_sum_past_an_unmeasurable_partial_sum():
    # the top coefficient's modulus is beyond the largest double, so the
    # bound gives up there, but the coefficients below it still enter the
    # value: the plain Horner sum, finite, with an infinite bound
    top = 1.5e308 + 1.5e308j
    value, bound = poly_eval_bounded((0.5, top), 1.0)
    assert value == top * 1.0 + 0.5 and bound == float("inf")
    value, bound = poly_eval_bounded((1e300, top), 0.5)
    assert value == top * 0.5 + 1e300 != top * 0.5 and bound == float("inf")


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_mul_associative(p, q, r):
    assert_poly_close(poly_mul(poly_mul(p, q), r), poly_mul(p, poly_mul(q, r)), 1e-12)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_mul_distributes_over_add(p, q, r):
    assert_poly_close(poly_mul(p, poly_add(q, r)), poly_add(poly_mul(p, q), poly_mul(p, r)), 1e-12)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_leibniz_rule(p, q):
    lhs = poly_derivative(poly_mul(p, q))
    rhs = poly_add(poly_mul(poly_derivative(p), q), poly_mul(p, poly_derivative(q)))
    assert_poly_close(lhs, rhs, 1e-12)


_rng = fresh_rng()
_EVAL_POINTS = [complex(_rng.uniform(-1, 1), _rng.uniform(-1, 1)) for _ in range(20)]


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_eval_commutes_with_mul(p, q):
    product = poly_mul(p, q)
    for z in _EVAL_POINTS:
        value = poly_eval_bounded(product.coeffs, z)[0]
        expected = poly_eval_bounded(p.coeffs, z)[0] * poly_eval_bounded(q.coeffs, z)[0]
        assert rel_err(value, expected) <= 1e-11


def test_add_sub_round_trip():
    p = Poly([1.0, 2.0j, -1.0])
    q = Poly([0.5, -1.0])
    assert poly_sub(poly_add(p, q), q) == p


def test_equal_polynomials_hash_equal_signed_zeros_included():
    # the signs of zeros may not split one value
    a = Poly([-0.0, 1.0, complex(0.5, -0.0), 0.0])
    b = Poly([0.0, 1.0, 0.5, complex(-0.0, -0.0)])
    assert a == b and b == a and hash(a) == hash(b)
    assert b.coeffs == (0.0, 1.0, 0.5)
    assert a != Poly([0.0, 1.0]) and a != Poly([0.0, 1.0, 0.5, 1e-300])
    assert a != a.coeffs and len({a, b, Poly([0.0, 1.0, 0.5])}) == 1


def _flip_zero_signs(c: complex) -> complex:
    return complex(c.real if c.real else -c.real, c.imag if c.imag else -c.imag)


@given(st.lists(st.sampled_from([0.0, -0.0, 1.5, -0.0 - 1j, 2.0 + 0.0j]), max_size=5))
def test_hash_agrees_with_equality(items):
    p = Poly(items)
    q = Poly(_flip_zero_signs(complex(c)) for c in items)
    assert p == q and hash(p) == hash(q)


@given(st.lists(st.sampled_from([0.0, -0.0, complex(0.0, -0.0), 1.0, 0.5j]), max_size=6))
def test_degree_and_is_zero_follow_the_trimmed_coefficients(items):
    # trailing coefficients go only when both parts are exactly zero
    trimmed = [complex(c) for c in items]
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    p = Poly(items)
    assert p.coeffs == tuple(trimmed)
    assert degree(p) == (len(trimmed) - 1 if trimmed else None)
    assert is_zero(p) == (not trimmed) == (p == ZERO)
    assert degree(Poly([1e-300j])) == 0 and not is_zero(Poly([1e-300j]))


def test_bounded_evaluation_overflow_raises():
    # 1e300 * 1e300 is inf with no OverflowError from complex arithmetic: the value check catches it
    with pytest.raises(NumericOverflowError, match="overflowed at z=1e\\+300"):
        poly_eval_bounded((0, 1e300), 1e300)
