"""Exact verification and classification: characteristic polynomials,
integer factorization, Galois classes, axiom checks, multiplicities, and
cyclotomy verdicts, pinned against hand-checked values."""

import json
import pickle
from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sitawim import structcheck
from sitawim.errors import SitawimError
from sitawim.feasibility import run_battery
from sitawim.intpoly import (
    GaloisClass,
    IntPoly,
    charpoly,
    factor_int_poly,
    galois_class,
)
from sitawim.solver import GridAxis, SearchConfig, SimplexSpec, canonical_form, run_search
from sitawim.spectra import eigenmatrix_P, eigenmatrix_Q, krein
from sitawim.structcheck import (
    _orbit_solve,
    Instance,
    is_cyclotomic,
    multiplicities,
    verify_sita,
)

from _fixtures import (
    A1_16_MATRICES,
    A2_13_MATRICES,
    IDENTITY5,
    N35_MATRICES,
    N249_MATRICES,
    S49_MATRICES,
)

N35 = Instance(N35_MATRICES, "5S")
N249 = Instance(N249_MATRICES, "5S")
A1_16 = Instance(A1_16_MATRICES, "4A1")
S49 = Instance(S49_MATRICES, "4S")
A2_13 = Instance(A2_13_MATRICES, "5A2")
R2 = Instance([[[1, 0], [0, 1]], [[0, 4], [1, 3]]], "R2")

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
        assert [(f.coeffs, d, m) for f, d, m in zip(factors, D, mu)] == [
            ((-160, 1), 1, 1),
            ((25, 1), 1, 4),
            ((-1354, -306, 6, 1), 389, 10),
        ]
        # each orbit's exact row over Q[x]/(f), times its own least D: the
        # degree row first; the cubic's W_0 = D because b_0 = 1, and b_2
        # takes the rational value -1
        assert rows[0] == [[1], [4], [6], [12], [12]]
        assert rows[2] == [
            [389],
            [786, -39, -4],
            [-389],
            [-1570, -29, 7],
            [784, 68, -3],
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
        assert len(seen) > call

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
# the fraction-free Krylov inverse
# ---------------------------------------------------------------------------


def reference_inverse(A):
    """The exact inverse over Q by Gauss-Jordan elimination on Fractions;
    SitawimError when A is singular."""
    n = len(A)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(A)
    ]
    for col in range(n):
        pr = next((i for i in range(col, n) if aug[i][col]), None)
        if pr is None:
            raise SitawimError("the Krylov matrix of e_0 is singular: e_0 is not cyclic")
        aug[col], aug[pr] = aug[pr], aug[col]
        prow = aug[col] = [v / aug[col][col] for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], prow)]
    return [row[n:] for row in aug]


def leibniz_det(A) -> int:
    """The determinant as a signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(A))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * prod(A[i][p] for i, p in enumerate(perm))
    return total


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


class TestFractionFreeInverse:
    @settings(max_examples=200, deadline=None)
    @given(square_matrices, st.booleans())
    def test_matches_the_rational_inverse(self, A, dependent):
        if dependent:
            # the last row becomes the sum of the others (zero at n = 1)
            A[-1] = [sum(col) for col in zip(*A[:-1])] or [0]
        det = leibniz_det(A)
        if det == 0:
            for inverse in (reference_inverse, structcheck._adjugate):
                with pytest.raises(SitawimError, match="Krylov matrix"):
                    inverse(A)
            return
        d, X = structcheck._adjugate(A)
        assert d == abs(det)
        assert all(type(v) is int for row in X for v in row)
        assert [[Fraction(v, d) for v in row] for row in X] == reference_inverse(A)


# ---------------------------------------------------------------------------
# is_cyclotomic
# ---------------------------------------------------------------------------


def reference_is_cyclotomic(inst: Instance):
    """The per-basis verdict: ``(verdict, factors)`` over every irreducible
    factor of every basis matrix's characteristic polynomial, as ``(j, f,
    class)`` triples."""
    factors = [
        (j, f, galois_class(f))
        for j in range(1, inst.rank)
        for f in factor_int_poly(charpoly(inst.matrices[j]))
    ]
    return all(cls.abelian for _, _, cls in factors), factors


@pytest.fixture(scope="module")
def a2_catalog():
    """The 5A2 pseudocyclic sweep with m <= 8: orders 5, 13 and 29."""
    cfg = SearchConfig(
        itype="5A2",
        assumption="pseudocyclic",
        grid=(GridAxis("m", 1, 8),),
        simplex=SimplexSpec(("x14",), anchor="m"),
    )
    return run_search(cfg)


class TestCyclotomic:
    def test_order_35_fails_on_three_cubics(self):
        # b_1, b_3 and b_4 each have an S3 cubic factor; the generator
        # reads them as one Galois orbit of characters, an S3 cubic
        report = is_cyclotomic(N35)
        assert not report.cyclotomic
        assert not bool(report)
        assert [(f.coeffs, str(g)) for f, g in report.factors] == [
            ((-160, 1), "C1"),
            ((25, 1), "C1"),
            ((-1354, -306, 6, 1), "S3"),
        ]
        _, per_basis = reference_is_cyclotomic(N35)
        cubics = [(j, f.coeffs) for j, f, g in per_basis if str(g) == "S3"]
        assert cubics == [
            (1, (2, -6, 0, 1)),
            (3, (-2, -12, 0, 1)),
            (4, (12, -12, 0, 1)),
        ]

    def test_order_249_fails_on_four_quartics(self):
        # the four S4 quartics of b_1..b_4 are one S4 quartic orbit
        report = is_cyclotomic(N249)
        assert not report.cyclotomic
        assert [str(g) for f, g in report.factors if f.degree == 4] == ["S4"]
        _, per_basis = reference_is_cyclotomic(N249)
        assert [str(g) for _, f, g in per_basis if f.degree == 4] == ["S4"] * 4

    def test_one_asymmetric_pair_table_is_cyclotomic(self):
        report = is_cyclotomic(A1_16)
        assert report.cyclotomic
        assert bool(report)
        assert [str(g) for _, g in report.factors] == ["C1", "C1", "C2"]

    def test_two_asymmetric_pair_table_has_a_D4_quartic(self):
        report = is_cyclotomic(A2_13)
        assert not report.cyclotomic
        quartic, cls = report.factors[-1]
        assert (quartic.coeffs, str(cls)) == ((13528, 486, -105, -3, 1), "D4")
        sympy = pytest.importorskip("sympy")
        from sympy.polys.numberfields.galoisgroups import galois_group

        x = sympy.Symbol("x")
        group = galois_group(sympy.Poly(list(reversed(quartic.coeffs)), x), by_name=True)[0]
        assert group.name == "D4"

    def test_rank_two_is_cyclotomic(self):
        assert verify_sita(R2).passed
        assert is_cyclotomic(R2).cyclotomic

    def test_rank_above_five_unsupported(self):
        zeros = [[[0] * 6 for _ in range(6)] for _ in range(6)]
        with pytest.raises(SitawimError):
            is_cyclotomic(Instance(zeros))

    @pytest.mark.parametrize(
        "inst",
        [N35, N249, A1_16, S49, A2_13, R2],
        ids=["n35", "n249", "a1_16", "s49", "a2_13", "r2"],
    )
    def test_matches_the_per_basis_verdict(self, inst):
        assert is_cyclotomic(inst).cyclotomic == reference_is_cyclotomic(inst)[0]

    def test_matches_the_per_basis_verdict_on_a_sweep(self, a2_catalog):
        assert [inst.order for inst in a2_catalog] == [5, 13, 29]
        for inst in a2_catalog:
            assert is_cyclotomic(inst).cyclotomic == reference_is_cyclotomic(inst)[0]


# ---------------------------------------------------------------------------
# the orbit solve kept on the instance
# ---------------------------------------------------------------------------


@pytest.fixture
def solves(monkeypatch):
    """Records every orbit solve, by instance."""
    calls = []
    real = structcheck._orbit_solve

    def spy(inst):
        calls.append(inst)
        return real(inst)

    monkeypatch.setattr(structcheck, "_orbit_solve", spy)
    return calls


class TestStoredSolve:
    def test_one_solve_serves_every_stage(self, solves):
        inst = Instance(N35_MATRICES, "5S")
        for _ in range(2):
            multiplicities(inst)
            is_cyclotomic(inst)
            sd = krein(eigenmatrix_Q(eigenmatrix_P(inst), inst), inst)
            run_battery(inst, sd)
            run_battery(inst)
        # the battery's closed-subset check solves its sub-tables, which
        # are instances of their own
        assert [s for s in solves if s is inst] == [inst]

    def test_stored_solve_keeps_equality_hash_and_pickling(self):
        inst = Instance(N35_MATRICES, "5S")
        values = multiplicities(inst).values
        copy = Instance(N35_MATRICES, "5S")
        assert inst == copy and hash(inst) == hash(copy) and repr(inst) == repr(copy)
        back = pickle.loads(pickle.dumps(inst))
        assert back == inst and hash(back) == hash(inst) and repr(back) == repr(inst)
        assert multiplicities(back).values == multiplicities(copy).values == values

    def test_canonical_form_gets_its_own_solve(self, solves):
        inst = Instance(N35_MATRICES, "5S")
        multiplicities(inst)
        canon = canonical_form(inst)
        assert canon is not inst
        multiplicities(canon)
        is_cyclotomic(canon)
        assert [s for s in solves if s is canon] == [canon]

    def test_refusal_is_raised_again_not_kept(self, solves):
        # a non-table whose Krylov matrix of e_0 is singular
        inst = Instance([[[1, 0], [0, 1]], [[1, 0], [0, 2]]])
        for _ in range(2):
            with pytest.raises(SitawimError, match="Krylov matrix"):
                multiplicities(inst)
        assert solves == [inst, inst]
