"""Exact verification and classification: characteristic polynomials,
integer factorization, Galois classes, axiom checks, multiplicities, and
cyclotomy verdicts, pinned against hand-checked values."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sitawim.errors import SitawimError
from sitawim.exactpoly import qq
from sitawim.intpoly import (
    GaloisClass,
    IntPoly,
    charpoly,
    factor_int_poly,
    format_factored,
    galois_class,
)
from sitawim.structcheck import (
    _orbit_solve,
    Instance,
    is_cyclotomic,
    multiplicities,
    verify_sita,
)

from _fixtures import A1_16_MATRICES, IDENTITY5, N35_MATRICES, N249_MATRICES

N35 = Instance(N35_MATRICES, "5S")
N249 = Instance(N249_MATRICES, "5S")
A1_16 = Instance(A1_16_MATRICES, "4A1")

AXIOM_NAMES = {
    "identity",
    "row-sums",
    "nonnegative",
    "row0-col0",
    "commuting",
    "pseudo-inverse",
    "star-conjugate",
    "degree-weighted-symmetry",
}


def poly(*coeffs):
    """Ascending-coefficient IntPoly shorthand."""
    return IntPoly(tuple(coeffs))


# ---------------------------------------------------------------------------
# IntPoly
# ---------------------------------------------------------------------------


class TestIntPoly:
    def test_normalizes_sign_and_trims(self):
        p = poly(8, -18, -20, 10, 3, -1, 0)
        assert p.coeffs == (-8, 18, 20, -10, -3, 1)
        assert p.degree == 5
        assert p.lead == 1

    def test_rejects_zero_polynomial(self):
        with pytest.raises(SitawimError):
            poly(0, 0)

    def test_rejects_degree_above_five(self):
        with pytest.raises(SitawimError):
            poly(1, 0, 0, 0, 0, 0, 1)

    def test_display_style(self):
        assert str(poly(-8, 18, 20, -10, -3, 1)) == "x^5-3x^4-10x^3+20x^2+18x-8"
        assert str(poly(-1, 2)) == "2x-1"
        assert str(poly(0, 1)) == "x"
        assert str(poly(1, 0, 1)) == "x^2+1"

    def test_evaluation_is_exact(self):
        p = poly(-744, 3546, 5709, -155, -61, 1)
        assert p(62) == 0
        assert p(qq("1/2")) == qq(-744) + qq(3546) / 2 + qq(5709) / 4 - qq(155) / 8 - qq(61) / 16 + qq(1) / 32

    def test_derivative_and_product(self):
        assert IntPoly((1, 2, 3)).derivative().coeffs == (2, 6)
        assert (poly(-1, 1) * poly(1, 1)).coeffs == (-1, 0, 1)

    def test_format_factored_groups_repeats(self):
        factored = [poly(-6, 1), poly(-6, 1), poly(1, 1), poly(1, 1), poly(1, 1)]
        assert format_factored(factored) == "(x-6)^2(x+1)^3"


# ---------------------------------------------------------------------------
# charpoly
# ---------------------------------------------------------------------------


class TestCharpoly:
    def test_identity(self):
        assert charpoly(IDENTITY5).coeffs == (-1, 5, -10, 10, -5, 1)

    def test_one_by_one(self):
        assert charpoly([[2]]).coeffs == (-2, 1)

    def test_order_35_basis(self):
        expected = [
            "(x-4)(x+1)(x^3-6x+2)",
            "(x-6)^2(x+1)^3",
            "(x-12)(x+3)(x^3-12x-2)",
            "(x-12)(x+3)(x^3-12x+12)",
        ]
        for m, text in zip(N35_MATRICES[1:], expected):
            assert format_factored(factor_int_poly(charpoly(m))) == text

    def test_order_35_b1_coefficients(self):
        assert charpoly(N35_MATRICES[1]).coeffs == (-8, 18, 20, -10, -3, 1)

    def test_order_249_b1(self):
        cp = charpoly(N249_MATRICES[1])
        assert cp.coeffs == (-744, 3546, 5709, -155, -61, 1)
        assert format_factored(factor_int_poly(cp)) == "(x-62)(x^4+x^3-93x^2-57x+12)"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cayley_hamilton(self, data):
        n = data.draw(st.integers(1, 5))
        mat = data.draw(
            st.lists(
                st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        p = charpoly(mat)
        acc = [[0] * n for _ in range(n)]
        power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for c in p.coeffs:
            for i in range(n):
                for j in range(n):
                    acc[i][j] += c * power[i][j]
            power = [
                [sum(power[i][l] * mat[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)
            ]
        assert all(v == 0 for row in acc for v in row)


# ---------------------------------------------------------------------------
# factor_int_poly
# ---------------------------------------------------------------------------


class TestFactorIntPoly:
    def test_difference_of_squares(self):
        assert factor_int_poly(poly(-1, 0, 1)) == [poly(-1, 1), poly(1, 1)]

    def test_strips_x_factors(self):
        assert factor_int_poly(poly(0, -1, 0, 1)) == [poly(-1, 1), poly(0, 1), poly(1, 1)]

    def test_non_monic_rational_root(self):
        assert factor_int_poly(poly(-1, 1, 2)) == [poly(-1, 2), poly(1, 1)]

    def test_repeated_quadratic(self):
        assert factor_int_poly(poly(1, 0, 2, 0, 1)) == [poly(1, 0, 1), poly(1, 0, 1)]

    def test_quartic_field_generator_is_irreducible(self):
        p = poly(12, -57, -93, 1, 1)
        assert factor_int_poly(p) == [p]

    def test_cyclotomic_octic_piece_is_irreducible(self):
        # reducible modulo every prime, so only the divisor search settles it
        p = poly(1, 0, 0, 0, 1)
        assert factor_int_poly(p) == [p]

    def test_quintic_with_large_values(self):
        # generator polynomial of the order-249 table at weight 2: the sample
        # values carry eight-digit divisors, which the search must tolerate
        p = poly(309896460, 65260608, 3179819, -17445, -915, 1)
        fs = factor_int_poly(p)
        assert [f.degree for f in fs] == [1, 4]
        assert fs[0] == poly(-930, 1)

    def test_quadratic_by_quadratic_split(self):
        # (x^2+x+1)(x^2-x+2) has no rational roots
        p = poly(1, 1, 1) * poly(2, -1, 1)
        assert factor_int_poly(p) == [poly(1, 1, 1), poly(2, -1, 1)]

    def test_rejects_imprimitive_input(self):
        with pytest.raises(SitawimError):
            factor_int_poly(poly(2, 4))

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(-20, 20), min_size=1, max_size=5),
        st.integers(1, 20),
    )
    def test_product_of_factors_reexpands(self, body, lead):
        from math import gcd
        from functools import reduce

        coeffs = body + [lead]
        g = reduce(gcd, (abs(v) for v in coeffs))
        p = IntPoly(tuple(v // g for v in coeffs))
        product = reduce(lambda a, b: a * b, factor_int_poly(p))
        assert product == p


# ---------------------------------------------------------------------------
# galois_class
# ---------------------------------------------------------------------------


class TestGaloisClass:
    @pytest.mark.parametrize(
        "coeffs,tag",
        [
            ((-3, 1), "C1"),
            ((1, 0, 1), "C2"),
            ((1, -3, 0, 1), "C3"),  # disc 81 = 9^2
            ((-2, -6, 0, 1), "S3"),  # disc 756, not a square
            ((1, 2, 0, 2), "S3"),  # non-monic, disc -116
            ((1, 1, 1, 1, 1), "C4"),
            ((1, 0, 0, 0, 1), "V4"),
            ((-2, 0, 0, 0, 1), "D4"),  # disc -2048: negative, so not square
            ((12, 8, 0, 0, 1), "A4"),  # disc 331776 = 576^2
            ((12, -57, -93, 1, 1), "S4"),
            ((-1, -1, 0, 0, 1), "S4"),
            ((1, 1, 0, 0, 3), "S4"),  # non-monic quartic
        ],
    )
    def test_classification(self, coeffs, tag):
        cls = galois_class(poly(*coeffs))
        assert str(cls) == tag
        assert cls.abelian == (tag in {"C1", "C2", "C3", "C4", "V4"})

    def test_degree_five_unsupported(self):
        with pytest.raises(SitawimError):
            galois_class(poly(-2, 0, 0, 0, 0, 1))

    def test_tag_vocabulary_is_closed(self):
        with pytest.raises(SitawimError):
            GaloisClass("Q8")


# ---------------------------------------------------------------------------
# factorization and Galois classes against sympy
# ---------------------------------------------------------------------------

# a factor of degree 1..3 with small coefficients and a positive leading one
_small_factors = st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        st.lists(st.integers(-6, 6), min_size=d, max_size=d), st.integers(1, 4)
    ).map(lambda t: t[0] + [t[1]])
)


def _ascending(sympy_poly) -> tuple:
    return tuple(int(c) for c in reversed(sympy_poly.all_coeffs()))


class TestAgainstSympy:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(_small_factors, min_size=1, max_size=3).filter(
            lambda fs: sum(len(f) - 1 for f in fs) <= 5
        )
    )
    def test_factorization_matches_factor_list(self, pieces):
        sympy = pytest.importorskip("sympy")
        from functools import reduce
        from math import gcd

        coeffs = reduce(lambda a, b: (poly(*a) * poly(*b)).coeffs, pieces)
        g = reduce(gcd, coeffs)
        p = IntPoly(tuple(c // g for c in coeffs))
        x = sympy.Symbol("x")
        _, theirs = sympy.factor_list(sympy.Poly(list(reversed(p.coeffs)), x))
        want = sorted(
            (IntPoly(_ascending(f)) for f, e in theirs for _ in range(e)),
            key=lambda f: (f.degree, f.coeffs),
        )
        assert factor_int_poly(p) == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(3, 4).flatmap(
            lambda d: st.tuples(
                st.lists(st.integers(-9, 9), min_size=d, max_size=d), st.integers(1, 3)
            )
        )
    )
    def test_galois_class_matches_galois_group(self, drawn):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.numberfields.galoisgroups import galois_group

        p = IntPoly(tuple(drawn[0]) + (drawn[1],))
        x = sympy.Symbol("x")
        sp = sympy.Poly(list(reversed(p.coeffs)), x)
        assume(sp.is_irreducible)
        name = galois_group(sp, by_name=True)[0].name
        assert str(galois_class(p)) == {"A3": "C3", "V": "V4"}.get(name, name)


# ---------------------------------------------------------------------------
# verify_sita
# ---------------------------------------------------------------------------


class TestVerify:
    @pytest.mark.parametrize("inst", [N35, N249, A1_16], ids=["n35", "n249", "n16-4a1"])
    def test_realized_tables_pass(self, inst):
        report = verify_sita(inst)
        assert report.passed
        assert {c.name for c in report.checks} == AXIOM_NAMES
        assert all(c.witness is None for c in report.checks)

    def test_rank_one_passes(self):
        assert verify_sita(Instance([[[1]]])).passed

    def test_corrupted_entry_breaks_row_sums(self):
        bad = [list(map(list, m)) for m in N35_MATRICES]
        bad[1][1][1] = 1
        report = verify_sita(Instance(bad, "5S"))
        assert not report.passed
        names = {c.name: c.witness for c in report.failing()}
        assert names["row-sums"][:2] == (1, 1)

    def test_negative_entry_is_reported(self):
        bad = [list(map(list, m)) for m in N35_MATRICES]
        bad[1][1] = [1, -1, 1, 0, 3]  # row sum still 4
        failing = {c.name for c in verify_sita(Instance(bad, "5S")).failing()}
        assert "nonnegative" in failing
        assert "row-sums" not in failing

    def test_commutation_failure_is_reported(self):
        bad = [list(map(list, m)) for m in N35_MATRICES]
        bad[1][1] = [1, 0, 0, 3, 0]  # swap two interior entries of a row
        failing = {c.name for c in verify_sita(Instance(bad, "5S")).failing()}
        assert "commuting" in failing

    def test_wrong_identity_is_reported(self):
        failing = {c.name for c in verify_sita(Instance([[[2]]])).failing()}
        assert failing == {"identity", "row-sums", "row0-col0", "pseudo-inverse"}

    def test_star_conjugate_failure_is_reported(self):
        bad = [list(map(list, m)) for m in A1_16_MATRICES]
        bad[2][1] = [0, 3, 1, 1]  # row sum still 5, but b3[1][1] stays 2
        failing = {c.name for c in verify_sita(Instance(bad, "4A1")).failing()}
        assert "star-conjugate" in failing

    def test_star_pairing_matters(self):
        # the same matrices read as fully symmetric put the degree block of
        # b2 in the wrong column
        failing = {c.name for c in verify_sita(Instance(A1_16_MATRICES, "4S")).failing()}
        assert "row0-col0" in failing

    def test_type_rank_mismatch(self):
        with pytest.raises(SitawimError):
            Instance(N35_MATRICES, "4A1")

    def test_unknown_type_name(self):
        with pytest.raises(SitawimError):
            Instance(N35_MATRICES, "sideways")

    def test_fractional_entries_rejected(self):
        # int() would truncate these to the order-2 group table
        with pytest.raises(SitawimError):
            Instance((((1, 0), (0, 1)), ((0, Fraction(3, 2)), (1, 0.4))))
        with pytest.raises(SitawimError):
            Instance((((1, 0), (0, 1)), ((0, 1), (1, 0.4))))
        integral = Instance((((1, 0), (0, 1)), ((0, Fraction(2, 2)), (1.0, 0))))
        assert integral.matrices == (((1, 0), (0, 1)), ((0, 1), (1, 0)))
        assert all(type(v) is int for m in integral.matrices for row in m for v in row)


# ---------------------------------------------------------------------------
# multiplicities
# ---------------------------------------------------------------------------


class TestMultiplicities:
    def test_order_35(self):
        result = multiplicities(N35)
        assert result.values == (1, 4, 10, 10, 10)
        assert result.integral

    def test_order_35_orbits(self):
        _, factors, perron, mu = _orbit_solve(N35)
        assert perron == 160
        assert [(str(f), m) for f, m in zip(factors, mu)] == [
            ("x+25", 4),
            ("x^3+6x^2-306x-1354", 10),
        ]

    def test_order_249_is_homogeneous(self):
        result = multiplicities(N249)
        assert result.values == (1, 62, 62, 62, 62)
        assert result.integral

    def test_order_16_rank_4(self):
        result = multiplicities(A1_16)
        assert result.values == (1, 5, 5, 5)
        assert result.integral

    def test_rank_one(self):
        assert multiplicities(Instance([[[1]]])).values == (1,)

    def test_cyclic_group_of_order_three(self):
        shift = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        back = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        inst = Instance([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], shift, back], "R3A")
        assert verify_sita(inst).passed
        result = multiplicities(inst)
        assert result.values == (1, 1, 1)
        assert result.integral

    @pytest.mark.parametrize("inst", [N35, N249, A1_16], ids=["n35", "n249", "n16-4a1"])
    def test_values_sum_to_order(self, inst):
        assert sum(multiplicities(inst).values) == inst.order

    @pytest.mark.parametrize("perm", [(0, 2, 3, 4, 1), (0, 2, 1, 3, 4)])
    def test_invariant_under_basis_permutation(self, perm):
        mats = N35.matrices
        relabeled = [
            [
                [mats[j][i][k] for k in sorted(range(5), key=perm.__getitem__)]
                for i in sorted(range(5), key=perm.__getitem__)
            ]
            for j in sorted(range(5), key=perm.__getitem__)
        ]
        inst = Instance(relabeled, "5S")
        assert verify_sita(inst).passed
        assert multiplicities(inst).values == (1, 4, 10, 10, 10)

    def test_wrong_degrees_are_rejected(self):
        inst = Instance(N35_MATRICES, "5S", degrees=(1, 4, 6, 12, 11))
        with pytest.raises(SitawimError):
            multiplicities(inst)


# ---------------------------------------------------------------------------
# is_cyclotomic
# ---------------------------------------------------------------------------


class TestCyclotomic:
    def test_order_35_fails_on_three_cubics(self):
        report = is_cyclotomic(N35)
        assert not report.cyclotomic
        assert not bool(report)
        cubics = [(j, str(f)) for j, f, g in report.factors if str(g) == "S3"]
        assert cubics == [
            (1, "x^3-6x+2"),
            (3, "x^3-12x-2"),
            (4, "x^3-12x+12"),
        ]

    def test_order_249_fails_on_four_quartics(self):
        report = is_cyclotomic(N249)
        assert not report.cyclotomic
        tags = [str(g) for _, f, g in report.factors if f.degree == 4]
        assert tags == ["S4", "S4", "S4", "S4"]

    def test_one_asymmetric_pair_table_is_cyclotomic(self):
        report = is_cyclotomic(A1_16)
        assert report.cyclotomic
        assert bool(report)
        assert all(g.abelian for _, _, g in report.factors)

    def test_rank_two_is_cyclotomic(self):
        inst = Instance([[[1, 0], [0, 1]], [[0, 4], [1, 3]]], "R2")
        assert verify_sita(inst).passed
        assert is_cyclotomic(inst).cyclotomic

    def test_rank_above_five_unsupported(self):
        zeros = [[[0] * 6 for _ in range(6)] for _ in range(6)]
        with pytest.raises(SitawimError):
            is_cyclotomic(Instance(zeros))
