"""Exact polynomial layer: arithmetic, orders, text format, Groebner bases,
span echelonization, and chained linear elimination."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sitawim.errors import InconsistentIdealError, ResourceCapExceeded
from sitawim.exactpoly import (
    MPoly,
    Ring,
    buchberger,
    format_poly,
    ideal_contains,
    linear_reduce,
    normal_form,
    qq,
    rational_span_basis,
)

import _groebner_oracles
from _groebner_oracles import is_groebner, s_polynomial

XYZ = Ring("x y z")


# ---------------------------------------------------------------------------
# arithmetic and structure
# ---------------------------------------------------------------------------


def test_basic_arithmetic():
    x, y, z = XYZ.gens()
    f = (x + y) * (x - y)
    assert f == x**2 - y**2
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert (f - f).is_zero
    assert (2 * x) / 2 == x
    assert x * 0 == XYZ.zero()


def test_substitute_and_evaluate():
    x, y, z = XYZ.gens()
    f = x**2 * y - z + 3
    assert f.subs({"x": y}) == y**3 - z + 3
    assert f.subs({"z": XYZ.const(1)}) == x**2 * y + 2
    assert f.evaluate({"x": 2, "y": qq("1/2"), "z": 5}) == qq(0)
    with pytest.raises(ValueError):
        f.evaluate({"x": 1})


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


def _larger(order, a: MPoly, b: MPoly) -> MPoly:
    ka = order.key(a.leading(order)[0])
    kb = order.key(b.leading(order)[0])
    return a if ka > kb else b


def test_lex_order():
    x, y, z = XYZ.gens()
    lex = XYZ.order("lex")
    assert _larger(lex, x, y**5) == x
    assert _larger(lex, x * z, x * y) == x * y
    # reversed priority: z largest
    rlex = XYZ.order("lex", priority=("z", "y", "x"))
    assert _larger(rlex, x, y**5) == y**5


def test_grevlex_order():
    x, y, z = XYZ.gens()
    grev = XYZ.order("grevlex")
    assert _larger(grev, x, y**5) == y**5  # degree first
    assert _larger(grev, x**2 * y * z, x * y**3) == x * y**3
    assert _larger(grev, x**2 * z, x * y**2) == x * y**2


def test_order_validation():
    with pytest.raises(ValueError):
        XYZ.order("lex", priority=("x", "y"))
    with pytest.raises(ValueError):
        XYZ.order("weighted")


# ---------------------------------------------------------------------------
# normalization and text format
# ---------------------------------------------------------------------------


def test_normalize():
    x, y, z = XYZ.gens()
    f = x * qq("1/2") - y * qq("1/3")
    assert f.normalize() == 3 * x - 2 * y
    assert (-x - y).normalize() == x + y
    assert (6 * x**2 - 4 * y).normalize() == 3 * x**2 - 2 * y
    assert XYZ.zero().normalize().is_zero


def test_format_examples():
    x, y, z = XYZ.gens()
    assert str(XYZ.zero()) == "0"
    assert str(-x + 1) == "-x + 1"
    assert str(x**2 * y * 3 - x * qq("1/2") + 7) == "3*x^2*y - 1/2*x + 7"
    assert str(XYZ.const(-5)) == "-5"


def test_parse_examples():
    x, y, z = XYZ.gens()
    assert XYZ.parse("3*x^2*y - 1/2*x + 7") == 3 * x**2 * y - x * qq("1/2") + 7
    assert XYZ.parse("-x") == -x
    assert XYZ.parse("x*x*x") == x**3
    assert XYZ.parse("0").is_zero
    assert XYZ.parse("2/4").constant_value() == qq("1/2")
    with pytest.raises(ValueError):
        XYZ.parse("x + w")
    with pytest.raises(ValueError):
        XYZ.parse("x +")


# ---------------------------------------------------------------------------
# normal form / S-polynomials / Groebner
# ---------------------------------------------------------------------------


def test_normal_form_frozen_example():
    x, y, z = XYZ.gens()
    lex = XYZ.order("lex")
    assert normal_form(x**2 + y, [x - y], lex) == y**2 + y


def test_s_polynomial_frozen_example():
    x, y, z = XYZ.gens()
    lex = XYZ.order("lex")
    assert s_polynomial(x**2 - y, x * y - 1, lex) == x - y**2


def test_buchberger_frozen_example():
    x, y, z = XYZ.gens()
    lex = XYZ.order("lex")
    gb = buchberger([x - y**2, x**2 - y], lex)
    assert gb == [y**4 - y, x - y**2]
    assert is_groebner(gb, lex)


def test_buchberger_uniqueness_and_membership():
    x, y, z = XYZ.gens()
    grev = XYZ.default_order
    gens = [x**2 + y * z, x * z - y, y**2 - z]
    gb1 = buchberger(gens, grev)
    gb2 = buchberger(list(reversed(gens)), grev)
    assert gb1 == gb2
    for g in gens:
        assert ideal_contains(g, gb1, grev)
    assert buchberger(gb1, grev) == gb1
    assert not ideal_contains(XYZ.one(), gb1, grev)


def test_is_groebner_rejects_a_non_basis():
    x, y, z = XYZ.gens()
    lex = XYZ.order("lex")
    gens = [x**2 - y, x * y - 1]
    assert not is_groebner(gens, lex)
    assert not all_pairs_is_groebner(gens, lex)


def test_is_groebner_skips_a_chain_pair_and_still_fails(monkeypatch):
    """(yz, xz) is settled through xy by the chain criterion; the pair
    (xy, x^2 - y^2) has non-coprime leading monomials and leaves y^3."""
    x, y, z = XYZ.gens()
    grev = XYZ.default_order
    basis = [x * y, y * z, x * z, x**2 - y**2]
    formed = []
    real = _groebner_oracles.s_polynomial

    def spy(f, g, order=None):
        formed.append((basis.index(f), basis.index(g)))
        return real(f, g, order)

    monkeypatch.setattr(_groebner_oracles, "s_polynomial", spy)
    assert not is_groebner(basis, grev)
    assert formed[-1] == (0, 3)
    assert (1, 2) not in formed
    assert not all_pairs_is_groebner(basis, grev)


def test_buchberger_unit_and_zero_ideal():
    x, y, z = XYZ.gens()
    assert buchberger([], XYZ.default_order) == []
    assert buchberger([x, x - 1]) == [XYZ.one()]


def test_caps_raise():
    x, y, z = XYZ.gens()
    with pytest.raises(ResourceCapExceeded):
        buchberger([x**9 - y, y**9 - z], XYZ.order("lex"), max_degree=8)
    with pytest.raises(ResourceCapExceeded):
        buchberger([(x + y + 1) ** 4], max_terms=10)


# ---------------------------------------------------------------------------
# rational span
# ---------------------------------------------------------------------------


def test_rational_span_basis():
    x, y, z = XYZ.gens()
    basis = rational_span_basis([x + y, x - y, 2 * x])
    assert basis == [x, y]
    assert rational_span_basis([]) == []
    # dependent rows collapse
    assert len(rational_span_basis([x + y, 2 * x + 2 * y])) == 1
    # polynomials, not just linear forms
    f, g = x**2 + y, x**2 - y
    assert rational_span_basis([f, g, f + g]) == [x**2, y]


# ---------------------------------------------------------------------------
# linear elimination
# ---------------------------------------------------------------------------

R5 = Ring("x1 x2 x3 k1 k2")


def test_linear_reduce_direction_low():
    x1, x2, x3, k1, k2 = R5.gens()
    red = linear_reduce([x1 - x2, x2 + x3 - 5, x3**2 + x1], degree_symbols=("k1", "k2"))
    assert red.chain[0] == ("x1", x2)
    assert red.polys == [x3**2 - x3 + 5]


def test_linear_reduce_degree_symbols_only_from_degree_generators():
    x1, x2, x3, k1, k2 = R5.gens()
    # k2 - x1 is mixed, so k2 must NOT be solved from it; k1 - k2 is pure
    red = linear_reduce([k1 - k2, x1**2 + k2 - x1], degree_symbols=("k1", "k2"))
    assert ("k2", k1) in red.chain
    assert set().union(*(p.variables() for p in red.polys)) == {"x1", "k1"}


def test_linear_reduce_keep():
    x1, x2, x3, k1, k2 = R5.gens()
    red = linear_reduce([x1 - x2, x1 * x2 - 4], keep={"x2"})
    assert red.chain == [("x1", x2)]
    assert red.polys == [x2**2 - 4]


def test_linear_reduce_inconsistent():
    x1, x2, x3, k1, k2 = R5.gens()
    with pytest.raises(InconsistentIdealError):
        linear_reduce([x1 - 1, x1 - 2])


def test_linear_reduce_strips_positive_content():
    x1, x2, x3, k1, k2 = R5.gens()
    red = linear_reduce([k1 * x1 - k1**2], degree_symbols=("k1", "k2"))
    # content k1 stripped, then x1 := k1 solved; nothing left
    assert red.chain == [("x1", k1)]
    assert red.polys == []


def test_linear_reduce_chain_applies():
    x1, x2, x3, k1, k2 = R5.gens()
    system = [x1 - x2 + 1, x2 - x3 + 1, x1 * x3 - 4]
    red = linear_reduce(system)
    survivors = set().union(*(p.variables() for p in red.polys))
    for f in system:
        final = red.apply_chain(f)
        assert final.variables() <= survivors
    # the reduced system generates what the chain leaves of the originals
    assert len(red.polys) == 1


def test_linear_reduce_without_nonzero_generators_is_empty():
    x1, x2, x3, k1, k2 = R5.gens()
    for polys in ([], [x1 - x1]):
        red = linear_reduce(polys)
        assert (red.ring.names, red.chain, red.polys) == ((), [], [])


def test_linear_reduce_nonconstant_coefficient_not_solved():
    x1, x2, x3, k1, k2 = R5.gens()
    # x1*x2 - 1 is linear in x2 but with nonconstant coefficient: untouchable
    red = linear_reduce([x1 * x2 - 1])
    assert red.chain == []
    assert red.polys == [x1 * x2 - 1]


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_coeffs = st.integers(min_value=-9, max_value=9)
_monos = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)


@st.composite
def polys(draw) -> MPoly:
    terms = draw(st.dictionaries(_monos, _coeffs, max_size=6))
    return XYZ.poly(terms)


@given(polys(), polys(), polys())
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert f + XYZ.zero() == f
    assert f * XYZ.one() == f
    assert f - f == XYZ.zero()


_points = st.tuples(*[st.integers(min_value=-4, max_value=4)] * 3)


@given(polys(), polys(), st.sampled_from(XYZ.names), _points)
def test_subs_commutes_with_evaluation(p, r, v, values):
    pt = dict(zip(XYZ.names, values))
    assert p.subs({v: r}).evaluate(pt) == p.evaluate({**pt, v: r.evaluate(pt)})


@given(polys(), polys())
def test_subs_of_an_absent_variable_changes_nothing(p, r):
    p = p.subs({"x": 0})
    assert p.subs({"x": r}) == p


@given(polys())
def test_format_parse_roundtrip(f):
    assert XYZ.parse(format_poly(f)) == f


@given(polys())
def test_normalize_idempotent(f):
    n = f.normalize()
    assert n.normalize() == n
    if not f.is_zero:
        # same ideal member up to positive rational scale
        c, prim = f.content_and_primitive()
        assert c > 0
        assert prim * c == f


def all_pairs_is_groebner(basis, order) -> bool:
    """Definition check: every S-polynomial reduces to zero."""
    polys = [g for g in basis if not g.is_zero]
    return all(
        normal_form(s_polynomial(polys[i], polys[j], order), polys, order).is_zero
        for i in range(len(polys))
        for j in range(i + 1, len(polys))
    )


_monomials = st.builds(lambda m, c: XYZ.poly({m: c}), _monos, _coeffs.filter(bool))


@settings(deadline=None)
@given(
    st.lists(st.one_of(polys(), _monomials), min_size=1, max_size=4),
    st.sampled_from(["lex", "grevlex"]),
)
def test_is_groebner_matches_all_pairs_check(gens, name):
    order = XYZ.order(name)
    assert is_groebner(gens, order) == all_pairs_is_groebner(gens, order)


@settings(max_examples=25, deadline=None)
@given(st.lists(polys(), min_size=1, max_size=3))
def test_buchberger_is_groebner_and_order_invariant(gens):
    gens = [g for g in gens if not g.is_zero]
    order = XYZ.default_order
    gb = buchberger(gens, order, max_degree=30, max_terms=20000)
    assert is_groebner(gb, order)
    assert buchberger(list(reversed(gens)), order, max_degree=30, max_terms=20000) == gb
    for g in gens:
        assert ideal_contains(g, gb, order)
