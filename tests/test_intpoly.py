"""Tests of the shared helpers of ``sitawim.intpoly`` against brute force:
the divisor enumerator, rational roots through the monic transform, the
long-division loop over Q and Horner evaluation."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sitawim.errors import SitawimError
from sitawim.intpoly import (
    IntPoly,
    _divisors,
    _padd,
    _pdivexact,
    _pdivides,
    _pdivmod,
    _pmul,
    _ptrim,
    _rational_roots,
)

_nonzero = st.integers(-5000, 5000).filter(bool)


@given(_nonzero, st.one_of(st.none(), st.integers(0, 300)))
def test_divisors_match_trial_division(v, bound):
    top = abs(v) if bound is None else min(abs(v), bound)
    assert _divisors(v, bound) == [d for d in range(1, top + 1) if v % d == 0]


def _eval(c, x):
    return sum(v * x**i for i, v in enumerate(c))


@settings(max_examples=200)
@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=4),
    st.integers(1, 12),
)
def test_rational_roots_match_brute_force(tail, lead):
    c = tail + [lead]
    low = next(v for v in c if v)  # the constant term once x^k is divided out
    candidates = {Fraction(s * p, q) for p in _divisors(low) for q in _divisors(lead) for s in (1, -1)}
    if c[0] == 0:
        candidates.add(Fraction(0))
    want = sorted(r for r in candidates if _eval(c, r) == 0)
    assert [Fraction(n, d) for n, d in _rational_roots(c)] == want
    assert all(d > 0 and Fraction(n, d).denominator == d for n, d in _rational_roots(c))


def test_rational_roots_of_a_planted_product():
    # (2x - 3)(3x + 1)(x - 4) = 6x^3 - 31x^2 + 25x + 12
    assert _rational_roots([12, 25, -31, 6]) == [(-1, 3), (3, 2), (4, 1)]


_coeff_lists = st.lists(st.integers(-20, 20), max_size=6)


@given(_coeff_lists, _coeff_lists, st.integers(-20, 20).filter(bool))
def test_long_division_reconstructs_the_dividend(a, b, lead):
    b = b + [lead]
    quo, rem = _pdivmod(a, b)
    assert len(rem) < len(b)
    assert _padd(_pmul(quo, b), rem) == _ptrim(list(a))


def test_exact_division_rejects_a_remainder_or_a_fraction():
    # x^2 - 1 = (x - 1)(x + 1) over Z; 2x + 2 divides x + 1 only over Q
    assert _pdivexact([-1, 0, 1], [-1, 1]) == [1, 1]
    assert _pdivides([-1, 1], [-1, 0, 1]) == [1, 1]
    assert _pdivides([2, 2], [1, 1]) is None
    assert _pdivides([-2, 1], [-1, 0, 1]) is None
    with pytest.raises(SitawimError):
        _pdivexact([-1, 0, 1], [-2, 1])


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=6).filter(any),
    st.one_of(st.integers(-10, 10), st.fractions(max_denominator=12)),
)
def test_call_is_exact_horner_evaluation(coeffs, x):
    p = IntPoly(tuple(coeffs))
    assert p(x) == _eval(p.coeffs, x)
