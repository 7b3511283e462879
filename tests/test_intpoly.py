"""Tests of the shared helpers of ``sitawim.intpoly`` against brute force:
the divisor enumerator, the fraction-free division loop and the product
modulo a monic factor against long division over Q, and the gcd against
sympy's."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sitawim.errors import SitawimError
from sitawim.intpoly import (
    _divisors,
    _mulmod,
    _pdivexact,
    _pdivides,
    _pdivrem,
    _poly_gcd,
    _ptrim,
)

_nonzero = st.integers(-5000, 5000).filter(bool)


@given(_nonzero, st.one_of(st.none(), st.integers(0, 300)))
def test_divisors_match_trial_division(v, bound):
    top = abs(v) if bound is None else min(abs(v), bound)
    assert _divisors(v, bound) == [d for d in range(1, top + 1) if v % d == 0]


def _plus(a, b):
    """The sum of two coefficient lists, trimmed."""
    out = [0] * max(len(a), len(b))
    for c in (a, b):
        for i, v in enumerate(c):
            out[i] += v
    return _ptrim(out)


def _times(a, b):
    """The product of two coefficient lists, trimmed."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return _ptrim(out)


def fraction_divmod(a, b):
    """Quotient and trimmed remainder of ``a`` by ``b`` over Q, by
    schoolbook long division on Fractions."""
    rem = [Fraction(v) for v in a]
    db = len(b) - 1
    quo = [Fraction(0)] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] / b[-1]
        quo[i - db] = c
        for j in range(db + 1):
            rem[i - db + j] -= c * b[j]
    return quo, _ptrim(rem[:db])


_coeff_lists = st.lists(st.integers(-20, 20), max_size=6)
_wide_lists = st.lists(st.integers(-(10**6), 10**6), max_size=6)
# divisor leads: negative, non-unit and unit ones
_leads = st.one_of(
    st.sampled_from([-12, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 12]),
    st.integers(-40, 40).filter(bool),
)


@settings(max_examples=300)
@given(st.one_of(_coeff_lists, _wide_lists), _coeff_lists, _leads)
@example([1, 2, 3, 4, 5], [1, -3], -2)
@example([0, 0, 0, 7], [5, 0, 6], 4)
def test_fraction_free_division_is_scaled_long_division(a, b, lead):
    b = b + [lead]
    quo, rem, scale = _pdivrem(a, b)
    assert scale > 0
    assert len(rem) < len(b)
    assert _plus(_times(quo, b), rem) == _ptrim([scale * v for v in a])
    fquo, frem = fraction_divmod(a, b)
    assert [Fraction(q, scale) for q in quo] == fquo
    assert [Fraction(v, scale) for v in rem] == frem
    integral = all(q.denominator == 1 for q in fquo)
    assert (scale == 1) == integral
    if integral and not frem:
        assert _pdivexact(a, b) == _ptrim([int(q) for q in fquo])
    else:
        with pytest.raises(SitawimError):
            _pdivexact(a, b)


@given(_coeff_lists, _coeff_lists, _leads)
def test_exact_division_recovers_a_planted_cofactor(h, b, lead):
    b = b + [lead]
    assert _pdivexact(_times(h, b), b) == _ptrim(list(h))


@given(_coeff_lists, _coeff_lists, st.lists(st.integers(-20, 20), max_size=5))
def test_product_modulo_a_monic_factor_is_the_long_division_remainder(a, b, f):
    f = f + [1]
    assert _mulmod(a, b, f) == fraction_divmod(_times(a, b), f)[1]


def test_exact_division_rejects_a_remainder_or_a_fraction():
    # x^2 - 1 = (x - 1)(x + 1) over Z; 2x + 2 divides x + 1 only over Q
    assert _pdivexact([-1, 0, 1], [-1, 1]) == [1, 1]
    assert _pdivides([-1, 1], [-1, 0, 1]) == [1, 1]
    assert _pdivides([2, 2], [1, 1]) is None
    assert _pdivides([-2, 1], [-1, 0, 1]) is None
    with pytest.raises(SitawimError):
        _pdivexact([-1, 0, 1], [-2, 1])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=6).filter(any),
    st.lists(st.integers(-30, 30), max_size=5),
    st.lists(st.integers(-5, 5), max_size=3),
)
def test_gcd_degree_matches_sympy(a, b, common):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    if any(common):  # a planted common factor makes a nontrivial gcd likely
        a, b = _times(a, common), _times(b, common)
    want = sympy.gcd(sympy.Poly(list(reversed(a)), x), sympy.Poly(list(reversed(b)), x))
    assert len(_poly_gcd(a, b)) - 1 == want.degree()


def _sympy_primitive_gcd(a, b):
    """sympy's gcd over Q of two coefficient lists, as an ascending integer
    list divided by its content with a positive leading coefficient."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    pa, pb = (sympy.Poly(list(reversed(c)) or [0], x) for c in (a, b))
    coeffs = _ptrim([int(c) for c in reversed(sympy.gcd(pa, pb).all_coeffs())])
    if not coeffs:
        return []
    g = math.gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
    return [c // g for c in coeffs]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-30, 30), max_size=6),
    st.lists(st.integers(-30, 30), max_size=6),
    st.lists(st.integers(-6, 6), max_size=4),
)
@example([], [], [])
@example([0, 0], [], [])
@example([], [-4, 0, 2], [])
@example([6, -4], [0, 0, 0], [3, -9])
@example([3, 7, 2], [-1, 1, 6], [])  # gcd 2x + 1, through a scaled remainder
def test_gcd_is_sympys_made_primitive(a, b, common):
    if any(common):  # a planted common factor, so the gcd is often nontrivial
        a, b = _times(a, common), _times(b, common)
    assert _poly_gcd(a, b) == _sympy_primitive_gcd(a, b)
    assert _poly_gcd(b, a) == _poly_gcd(a, b)
