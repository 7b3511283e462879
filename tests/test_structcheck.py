"""Exact verification and classification: characteristic polynomials,
integer factorization, Galois classes, axiom checks, multiplicities, and
cyclotomy verdicts, pinned against hand-checked values."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sitawim import structcheck
from sitawim.errors import SitawimError
from sitawim.intpoly import (
    GaloisClass,
    IntPoly,
    charpoly,
    factor_int_poly,
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

    def test_derivative(self):
        assert IntPoly((1, 2, 3)).derivative().coeffs == (2, 6)


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
            [(-4, 1), (1, 1), (2, -6, 0, 1)],
            [(-6, 1), (-6, 1), (1, 1), (1, 1), (1, 1)],
            [(-12, 1), (3, 1), (-2, -12, 0, 1)],
            [(-12, 1), (3, 1), (12, -12, 0, 1)],
        ]
        for m, want in zip(N35_MATRICES[1:], expected):
            assert [f.coeffs for f in factor_int_poly(charpoly(m))] == want

    def test_order_35_b1_coefficients(self):
        assert charpoly(N35_MATRICES[1]).coeffs == (-8, 18, 20, -10, -3, 1)

    def test_order_249_b1(self):
        cp = charpoly(N249_MATRICES[1])
        assert cp.coeffs == (-744, 3546, 5709, -155, -61, 1)
        assert [f.coeffs for f in factor_int_poly(cp)] == [(-62, 1), (12, -57, -93, 1, 1)]

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


    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-(10**6), 10**6), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_matches_sympy_charpoly(self, mat):
        sympy = pytest.importorskip("sympy")
        want = sympy.Matrix(mat).charpoly(sympy.Symbol("x"))
        assert charpoly(mat).coeffs == tuple(int(c) for c in reversed(want.all_coeffs()))

    def test_bench_matrices_match_sympy_charpoly(self):
        """Every b_j of the benchmark reference entries, and every generator
        sum_j t^(j-1) b_j for t = 1..5."""
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        reference = json.loads((Path(__file__).parents[1] / "bench" / "reference.json").read_text())
        mats = set()
        for workload in ("rank4-pseudocyclic", "rank5-pseudocyclic", "table35"):
            for search in reference[workload]["searches"].values():
                for entry in search["entries"]:
                    bs = entry["matrices"]
                    r = len(bs)
                    mats.update(tuple(map(tuple, b)) for b in bs)
                    for t in range(1, 6):
                        mats.add(tuple(
                            tuple(sum(t ** (j - 1) * bs[j][a][b] for j in range(1, r)) for b in range(r))
                            for a in range(r)
                        ))
        assert len(mats) > 300
        for m in mats:
            want = sympy.Matrix(m).charpoly(x).all_coeffs()
            assert charpoly(m).coeffs == tuple(int(c) for c in reversed(want))


# ---------------------------------------------------------------------------
# factor_int_poly
# ---------------------------------------------------------------------------


class TestFactorIntPoly:
    def test_difference_of_squares(self):
        assert factor_int_poly(poly(-1, 0, 1)) == [poly(-1, 1), poly(1, 1)]

    def test_strips_x_factors(self):
        assert factor_int_poly(poly(0, -1, 0, 1)) == [poly(-1, 1), poly(0, 1), poly(1, 1)]

    def test_non_monic_rational_root(self):
        # (2x - 1)(x + 1): only monic input is factored
        with pytest.raises(SitawimError):
            factor_int_poly(poly(-1, 1, 2))

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
        p = poly(2, 1, 2, 0, 1)
        assert factor_int_poly(p) == [poly(1, 1, 1), poly(2, -1, 1)]

    def test_rejects_imprimitive_input(self):
        with pytest.raises(SitawimError):
            factor_int_poly(poly(2, 4))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=5))
    def test_product_of_factors_reexpands(self, body):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        p = IntPoly(tuple(body) + (1,))
        product = sympy.prod(sympy.Poly(list(reversed(f.coeffs)), x) for f in factor_int_poly(p))
        assert product == sympy.Poly(list(reversed(p.coeffs)), x)


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
            ((1, 2, 0, 1), "S3"),  # disc -59
            ((1, 1, 1, 1, 1), "C4"),
            ((1, 0, 0, 0, 1), "V4"),
            ((-2, 0, 0, 0, 1), "D4"),  # disc -2048: negative, so not square
            ((12, 8, 0, 0, 1), "A4"),  # disc 331776 = 576^2
            ((12, -57, -93, 1, 1), "S4"),
            ((-1, -1, 0, 0, 1), "S4"),
            ((2, 2, 0, 0, 1), "S4"),  # Eisenstein at 2, disc 1616
        ],
    )
    def test_classification(self, coeffs, tag):
        cls = galois_class(poly(*coeffs))
        assert str(cls) == tag
        assert cls.abelian == (tag in {"C1", "C2", "C3", "C4", "V4"})

    def test_rejects_non_monic_input(self):
        with pytest.raises(SitawimError):
            galois_class(poly(1, 2, 0, 2))

    def test_degree_five_unsupported(self):
        with pytest.raises(SitawimError):
            galois_class(poly(-2, 0, 0, 0, 0, 1))

    def test_tag_vocabulary_is_closed(self):
        with pytest.raises(SitawimError):
            GaloisClass("Q8")


# ---------------------------------------------------------------------------
# factorization and Galois classes against sympy
# ---------------------------------------------------------------------------

# a monic factor of degree 1..3 with small coefficients
_small_factors = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.integers(-6, 6), min_size=d, max_size=d).map(lambda c: c + [1])
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
        x = sympy.Symbol("x")
        product = sympy.prod(sympy.Poly(list(reversed(f)), x) for f in pieces)
        p = IntPoly(_ascending(product))
        _, theirs = sympy.factor_list(product)
        want = sorted(
            (IntPoly(_ascending(f)) for f, e in theirs for _ in range(e)),
            key=lambda f: (f.degree, f.coeffs),
        )
        assert factor_int_poly(p) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 4).flatmap(lambda d: st.lists(st.integers(-9, 9), min_size=d, max_size=d)))
    def test_galois_class_matches_galois_group(self, drawn):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.numberfields.galoisgroups import galois_group

        p = IntPoly(tuple(drawn) + (1,))
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
        _, factors, perron, D, rows, mu = _orbit_solve(N35)
        assert perron == 160
        assert [(f.coeffs, m) for f, m in zip(factors, mu)] == [
            ((25, 1), 4),
            ((-1354, -306, 6, 1), 10),
        ]
        # the cubic orbit's exact row over Q[x]/(f), times D: W_0 = D
        # because b_0 = 1, and b_2 takes the rational value -1
        assert D == 6881562535458
        assert rows[1] == [
            [6881562535458],
            [13904648207892, -689925292758, -70761568488],
            [-6881562535458],
            [-27773915631540, -513021371538, 123832744854],
            [13869267423648, 1202946664296, -53071176366],
        ]

    @pytest.mark.parametrize("call", range(15))
    def test_perturbed_exact_row_is_refused(self, monkeypatch, call):
        # N35 has three factors and five rows each: shifting one
        # coefficient of any one of the 15 remainders breaks the row check
        # modulo f
        real = structcheck._pdivrem
        seen = []

        def shifted(a, b):
            quo, rem, scale = real(a, b)
            if len(seen) == call:
                rem = [rem[0] + 1] + rem[1:] if rem else [1]
            seen.append(b)
            return quo, rem, scale

        monkeypatch.setattr(structcheck, "_pdivrem", shifted)
        with pytest.raises(SitawimError, match="exact row"):
            _orbit_solve(N35)

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


# ---------------------------------------------------------------------------
# is_cyclotomic
# ---------------------------------------------------------------------------


class TestCyclotomic:
    def test_order_35_fails_on_three_cubics(self):
        report = is_cyclotomic(N35)
        assert not report.cyclotomic
        assert not bool(report)
        cubics = [(j, f.coeffs) for j, f, g in report.factors if str(g) == "S3"]
        assert cubics == [
            (1, (2, -6, 0, 1)),
            (3, (-2, -12, 0, 1)),
            (4, (12, -12, 0, 1)),
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
