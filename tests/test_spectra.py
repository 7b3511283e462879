"""Numeric spectra: eigenmatrices, dual intersection matrices and the
orthogonality/duality invariants, pinned against the published
six-significant-digit displays for the orders 35 and 249; the exact
rationals in those displays are read back by continued fractions."""

import json
from dataclasses import replace
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from sitawim.errors import SitawimError, SpectralError
from sitawim import spectra, structcheck
from sitawim.solver import GridAxis, SearchConfig, SimplexSpec, run_search
from sitawim.spectra import GRID_BITS, SpectralData, eigenmatrix_P, eigenmatrix_Q, krein
from sitawim.intpoly import IntPoly, _poly_gcd
from sitawim.feasibility import run_battery
from sitawim.structcheck import Instance, is_cyclotomic, multiplicities, verify_sita

from _fixtures import (
    A1_16_MATRICES,
    A2_13_MATRICES,
    N249_MATRICES,
    N35_MATRICES,
    S49_MATRICES,
    grid_mp,
    mp_view,
)

N35 = Instance(N35_MATRICES, "5S")
N249 = Instance(N249_MATRICES, "5S")
A1_16 = Instance(A1_16_MATRICES, "4A1")
S49 = Instance(S49_MATRICES, "4S")
A2_13 = Instance(A2_13_MATRICES, "5A2")


def complete_graph(n: int) -> Instance:
    k = n - 1
    return Instance([[[1, 0], [0, 1]], [[0, k], [1, k - 1]]])


def full(inst: Instance) -> SpectralData:
    return krein(eigenmatrix_Q(eigenmatrix_P(inst), inst), inst)


def err(computed, reference) -> float:
    worst = 0.0
    for crow, rrow in zip(computed, reference):
        for c, r in zip(crow, rrow):
            worst = max(worst, abs(complex(mp.re(c), mp.im(c)) - complex(r)))
    return worst


def as_rational(value, max_denominator: int = 10**4, tol=None):
    """The unique rational with denominator <= max_denominator within tol of
    ``value`` (continued-fraction reconstruction), or None.

    The paper's displays mix exact rationals like 5/3 and 20/9 into
    otherwise numeric matrices; this reads them back from the 256-bit
    values.
    """
    if mp.im(value) != 0:
        return None
    with mp.workprec(max(mp.prec, 512)):
        x = mp.re(value)
        if tol is None:
            tol = mp.ldexp(1, -80)
        h0, h1 = 1, 0
        k0, k1 = 0, 1
        rest = x
        for _ in range(64):
            a = mp.floor(rest)
            h0, h1 = int(a) * h0 + h1, h0
            k0, k1 = int(a) * k0 + k1, k0
            if k0 > max_denominator:
                return None
            if abs(x - mp.mpf(h0) / k0) <= tol:
                return Fraction(h0, k0)
            frac = rest - a
            if frac == 0:
                return None
            rest = 1 / frac
    return None


# published six-digit displays -------------------------------------------------

P_35 = [
    [1, 4, 6, 12, 12],
    [1, -1, 6, -3, -3],
    [1, -2.60168, -1, -0.167055, 2.768734],
    [1, 0.339877, -1, 3.54461, -3.88448],
    [1, 2.26180, -1, -3.37755, 1.11575],
]
Q_35 = [
    [1, 4, 10, 10, 10],
    [1, -1, -6.50420, 0.849692, 5.65451],
    [1, 4, Fraction(-5, 3), Fraction(-5, 3), Fraction(-5, 3)],
    [1, -1, -0.139212, 2.95384, -2.81463],
    [1, -1, 2.30728, -3.23707, 0.929791],
]
F23, F53, F209, F256 = (
    Fraction(2, 3),
    Fraction(5, 3),
    Fraction(20, 9),
    Fraction(25, 6),
)
L_35 = [
    [  # L*_1
        [0, 4, 0, 0, 0],
        [1, 3, 0, 0, 0],
        [0, 0, F23, F53, F53],
        [0, 0, F53, F23, F53],
        [0, 0, F53, F53, F23],
    ],
    [  # L*_2
        [0, 0, 10, 0, 0],
        [0, 0, F53, F256, F256],
        [1, F23, 0.0541562, 2.59972, 5.67949],
        [0, F53, 2.59972, 3.51139, F209],
        [0, F53, 5.67946, F209, 0.431651],
    ],
    [  # L*_3
        [0, 0, 0, 10, 0],
        [0, 0, F256, F53, F256],
        [0, F53, 2.59972, 3.51139, F209],
        [1, F23, 3.51139, 2.50545, 2.31644],
        [0, F53, F209, 2.31169, 3.79463],  # 2.31169 is a misprint, see test
    ],
    [  # L*_4
        [0, 0, 0, 0, 10],
        [0, 0, F256, F256, F53],
        [0, F53, 5.67946, F209, 0.431651],
        [0, F53, F209, 2.31649, 3.79463],
        [1, F23, 0.431651, 3.79463, 4.10706],
    ],
]

# the order-249 display lists its orbit rows in the opposite direction from
# the canonical (ascending) order, so canonical row l is display row 5 - l
P_249_DISPLAY = [
    [1, 62, 62, 62, 62],
    [1, 9.45706, -4.83450, -8.21429, 2.59173],
    [1, 0.165779, -7.32957, 10.6401, -4.47634],
    [1, -0.777430, 10.45989, -2.18457, -8.49789],
    [1, -9.84541, 0.704180, -1.24127, 9.38250],
]
L1_249_DISPLAY = [
    [0, 62, 0, 0, 0],
    [1, 16.2247, 17.5718, 15.3191, 11.8843],
    [0, 17.5718, 10.8695, 18.0841, 15.4745],
    [0, 15.3191, 18.3339, 16.6017, 15.7793],
    [0, 11.8843, 15.4745, 14.6661, 19.9751],
]


def display_to_canonical(i: int) -> int:
    return 0 if i == 0 else 5 - i


class TestCompleteGraph:
    def test_exact_spectrum(self):
        sd = mp_view(full(complete_graph(7)))
        assert err(sd.P, [[1, 6], [1, -1]]) == 0
        assert err(sd.Q, [[1, 6], [1, -1]]) == 0
        assert err(sd.krein[0], [[1, 0], [0, 1]]) == 0
        assert err(sd.krein[1], [[0, 6], [1, 5]]) == 0

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=2, max_value=60))
    def test_all_orders(self, n):
        sd = mp_view(eigenmatrix_P(complete_graph(n)))
        assert err(sd.P, [[1, n - 1], [1, -1]]) == 0


class TestOrder35:
    sd = mp_view(full(N35))

    def test_orbit_partition(self):
        assert self.sd.orbits == ((0,), (1,), (2, 3, 4))
        assert [p.degree for p in self.sd.orbit_polys] == [1, 1, 3]

    def test_P_matches_display(self):
        assert err(self.sd.P, P_35) < 1e-4
        assert abs(self.sd.P[2][1] - mp.mpf("-2.60168")) < 1e-4

    def test_Q_matches_display(self):
        assert err(self.sd.Q, Q_35) < 1e-4
        assert abs(self.sd.Q[1][2] - mp.mpf("-6.50420")) < 1e-4

    def test_exact_rationals_recognized(self):
        L = self.sd.krein
        assert as_rational(L[1][2][2]) == F23
        assert as_rational(L[1][2][3]) == F53
        assert as_rational(L[2][3][4]) == F209
        assert as_rational(L[2][1][3]) == F256
        assert as_rational(self.sd.Q[2][2]) == Fraction(-5, 3)

    def test_dual_matrices_match_display(self):
        for i in range(1, 5):
            for k in range(5):
                for j in range(5):
                    if (i, k, j) == (3, 4, 3):
                        continue  # misprinted slot, checked separately
                    assert abs(self.sd.krein[i][k][j] - L_35[i - 1][k][j]) < 1e-4, (
                        f"L*_{i}[{k}][{j}]"
                    )

    def test_misprinted_slot(self):
        # the display's (L*_3)[4][3] = 2.31169 disagrees with its own
        # symmetric partners 2.31644/2.31649; the computed value sits on the
        # partners, so the lone display figure is a typo
        slot = self.sd.krein[3][4][3]
        assert abs(slot - mp.mpf("2.31169")) > 1e-3
        assert abs(slot - self.sd.krein[3][3][4]) < 1e-20
        assert abs(slot - mp.mpf("2.31649")) < 1e-4

    def test_row_multiplicities_follow_orbits(self):
        res = multiplicities(N35)
        assert res.values == (1, 4, 10, 10, 10)
        # row 1 is the integer character with multiplicity 4, rows 2-4 the
        # cubic orbit with multiplicity 10: Q row 0 exposes the pairing
        assert [int(v) for v in self.sd.Q[0]] == [1, 4, 10, 10, 10]


class TestOrder249:
    sd = mp_view(full(N249))

    def test_orbit_partition(self):
        assert self.sd.orbits == ((0,), (1, 2, 3, 4))
        assert [p.degree for p in self.sd.orbit_polys] == [1, 4]

    def test_P_matches_display_up_to_row_order(self):
        canonical = [
            [self.sd.P[display_to_canonical(i)][j] for j in range(5)]
            for i in range(5)
        ]
        assert err(canonical, P_249_DISPLAY) < 1e-4

    def test_self_duality(self):
        for i in range(1, 5):
            for j in range(1, 5):
                assert abs(self.sd.Q[i][j] - self.sd.P[j][i]) < 1e-6

    def test_first_dual_matrix_matches_display(self):
        # the display permutation applies to all three kappa indices; row 3
        # of the display is a misprint (see test below) and is exempted
        s = display_to_canonical
        for k in range(5):
            for j in range(5):
                if k == 3 and j >= 2:
                    continue
                got = self.sd.krein[s(1)][s(k)][s(j)]
                assert abs(got - L1_249_DISPLAY[k][j]) < 1e-3, f"[{k}][{j}]"

    def test_misprinted_display_row(self):
        # the published L*_1 row 3 sums to 66.034 (every row must sum to the
        # multiplicity 62) and contradicts the symmetry of its own matrix;
        # the computed row restores both
        assert abs(sum(L1_249_DISPLAY[3]) - 62) > 1
        s = display_to_canonical
        row = [self.sd.krein[s(1)][s(3)][s(j)] for j in range(5)]
        with mp.workprec(GRID_BITS):
            assert abs(sum(row) - 62) < 1e-20
        assert abs(row[2] - L1_249_DISPLAY[2][3]) < 1e-3
        assert abs(row[4] - L1_249_DISPLAY[4][3]) < 1e-3
        for j, truth in enumerate([0, 15.3191, 18.0841, 13.9307, 14.6661]):
            assert abs(row[j] - truth) < 1e-3


class TestAsymmetricPair:
    sd = mp_view(full(A1_16))

    def test_conjugate_orbit(self):
        assert self.sd.orbits == ((0,), (1,), (2, 3))
        row2, row3 = self.sd.P[2], self.sd.P[3]
        for a, b in zip(row2, row3):
            assert abs(a - mp.conj(b)) < 1e-20

    def test_integer_character_row(self):
        assert err([self.sd.P[1]], [[1, -3, 1, 1]]) < 1e-20

    def test_krein_values_are_small_integers(self):
        for i in range(4):
            for k in range(4):
                for j in range(4):
                    q = as_rational(self.sd.krein[i][k][j])
                    assert q is not None and q.denominator == 1
                    assert 0 <= q <= 5

    def test_dual_row_sums(self):
        for i in range(4):
            for k in range(4):
                total = sum(self.sd.krein[i][k][j] for j in range(4))
                assert abs(total - int(self.sd.Q[0][i])) < 1e-20


FIXTURES = {
    "k7": complete_graph(7),
    "n35": N35,
    "n249": N249,
    "a1_16": A1_16,
}


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def spectrum(request):
    inst = FIXTURES[request.param]
    return inst, mp_view(full(inst))


class TestInvariants:
    def test_degree_row_and_unit_column(self, spectrum):
        inst, sd = spectrum
        assert tuple(int(v) for v in sd.P[0]) == inst.degrees
        for l in range(sd.rank):
            assert sd.P[l][0] == 1
            assert sd.Q[l][0] == 1

    def test_PQ_is_nI(self, spectrum):
        inst, sd = spectrum
        n, r = inst.order, sd.rank
        with mp.workprec(GRID_BITS):
            for a in range(r):
                for b in range(r):
                    acc = sum(sd.P[a][l] * sd.Q[l][b] for l in range(r))
                    assert abs(acc - (n if a == b else 0)) < 1e-20 * n

    def test_row_orthogonality(self, spectrum):
        inst, sd = spectrum
        n, r = inst.order, sd.rank
        m = [sd.Q[0][i] for i in range(r)]
        with mp.workprec(GRID_BITS):
            for i in range(r):
                for j in range(r):
                    acc = sum(
                        sd.P[i][l] * mp.conj(sd.P[j][l]) / inst.degrees[l]
                        for l in range(r)
                    )
                    target = n / m[i] if i == j else 0
                    assert abs(acc - target) < 1e-20 * n

    def test_degree_row_column_orthogonality(self, spectrum):
        inst, sd = spectrum
        m = [sd.Q[0][i] for i in range(sd.rank)]
        with mp.workprec(GRID_BITS):
            for j in range(1, sd.rank):
                acc = sum(m[l] * sd.P[l][j] for l in range(sd.rank))
                assert abs(acc) < 1e-20 * inst.order

    def test_krein_row_pair_symmetry(self, spectrum):
        _, sd = spectrum
        r = sd.rank
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    assert abs(sd.krein[i][k][j] - sd.krein[j][k][i]) < 1e-20

    def test_dual_identity(self, spectrum):
        _, sd = spectrum
        assert err(sd.krein[0], [[1 if a == b else 0 for b in range(sd.rank)] for a in range(sd.rank)]) < 1e-20

    def test_triangle_bridge(self, spectrum):
        # (1/n) sum_l m_l P[l][j]^3 equals the exact b_0-coefficient of b_j^3
        inst, sd = spectrum
        n, r = inst.order, sd.rank
        m = [sd.Q[0][l] for l in range(r)]
        with mp.workprec(GRID_BITS):
            for j in range(r):
                M = [list(row) for row in inst.matrices[j]]
                M2 = [[sum(M[a][t] * M[t][b] for t in range(r)) for b in range(r)] for a in range(r)]
                cube00 = sum(M2[0][t] * M[t][0] for t in range(r))
                acc = sum(m[l] * sd.P[l][j] ** 3 for l in range(r)) / n
                assert abs(acc - cube00) < 1e-20 * n


class TestRationalDetection:
    def test_recognizes_high_precision_rationals(self):
        with mp.workprec(256):
            assert as_rational(mp.mpf(2) / 3) == Fraction(2, 3)
            assert as_rational(mp.mpf(-5) / 3) == Fraction(-5, 3)
            assert as_rational(mp.mpf(20) / 9) == Fraction(20, 9)
            assert as_rational(mp.mpf(7)) == Fraction(7)
            assert as_rational(mp.mpf(0)) == Fraction(0)

    def test_rejects_floats_that_are_not_rational(self):
        with mp.workprec(256):
            assert as_rational(mp.sqrt(2)) is None
            assert as_rational(mp.mpf("2.31649")) is None

    def test_rejects_large_denominators(self):
        with mp.workprec(256):
            assert as_rational(mp.mpf(1) / 10007) is None
            assert as_rational(mp.mpf(1) / 10007, max_denominator=10**5) == Fraction(
                1, 10007
            )

    def test_rejects_complex(self):
        assert as_rational(mp.mpc(1, 1)) is None

    def test_tolerance_is_configurable(self):
        with mp.workprec(256):
            near = mp.mpf(2) / 3 + mp.ldexp(1, -60)
            assert as_rational(near) is None
            assert as_rational(near, tol=mp.ldexp(1, -50)) == Fraction(2, 3)


class TestFailureModes:
    def test_corrupted_P_fails_duality_check(self):
        sd = eigenmatrix_P(N35)
        rows = [list(r) for r in sd.P]
        re, im = rows[2][1]
        rows[2][1] = (re + round(Fraction("1e-3") * (1 << GRID_BITS)), im)
        bad = replace(sd, P=tuple(tuple(r) for r in rows))
        with pytest.raises(SpectralError):
            eigenmatrix_Q(bad, N35)

    def test_residual_check_is_as_tight_as_eps(self, monkeypatch):
        # eps = 2^-100 * 35 is about 2^-94.9: roots moved by 2^-110 still
        # give rows within it, roots moved by 2^-90 do not
        real = spectra._factor_roots
        for bits, refused in ((110, False), (90, True)):
            shift = 1 << GRID_BITS - bits
            monkeypatch.setattr(spectra, "_factor_roots", lambda f: [(x + shift, y) for x, y in real(f)])
            if refused:
                with pytest.raises(SpectralError, match="residual"):
                    eigenmatrix_P(N35)
            else:
                assert eigenmatrix_P(N35).rank == 5

    def test_non_cyclic_e0_is_refused(self):
        # e_0 is an eigenvector of b_1, so its Krylov matrix is singular
        inst = Instance([[[1, 0], [0, 1]], [[1, 0], [0, 2]]])
        assert not verify_sita(inst).passed
        for stage in (multiplicities, eigenmatrix_P):
            with pytest.raises(SitawimError, match="Krylov matrix"):
                stage(inst)

    def test_nonpositive_degree_is_refused(self):
        # b_1 has an empty row 0: its degree 0 leaves m = n / sum_i
        # chi(b_i) chi(b_i*) / k_i undefined
        b1 = [[0, 0, 0], [1, 1, 2], [0, 0, 2]]
        b2 = [[0, 0, 1], [0, 0, 0], [1, 0, 2]]
        inst = Instance([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], b1, b2])
        for stage in (multiplicities, eigenmatrix_P):
            with pytest.raises(SitawimError, match="not all positive"):
                stage(inst)

    def test_krein_requires_Q(self):
        with pytest.raises(SitawimError, match="eigenmatrix_Q"):
            krein(eigenmatrix_P(N35), N35)


class TestPrecisionPlumbing:
    def test_eps_recorded(self):
        sd = eigenmatrix_P(N249)
        assert mp_view(sd).eps == mp.ldexp(1, -100) * 249


@pytest.fixture
def sweeps(monkeypatch):
    """Records every orbit solve (by instance) and refuses any call of
    ``multiplicities``.  An instance keeps its solve, so the tests below
    build fresh instances and check that the spy saw their one solve."""
    calls = []
    real = structcheck._orbit_solve

    def spy(inst):
        calls.append(inst)
        return real(inst)

    def refuse(*args, **kwargs):
        raise AssertionError("multiplicities recomputed")

    monkeypatch.setattr(structcheck, "_orbit_solve", spy)
    monkeypatch.setattr(structcheck, "multiplicities", refuse)
    return calls


def fresh(inst: Instance) -> Instance:
    """An equal instance without a stored orbit solve."""
    return Instance(inst.matrices, inst.itype)


class TestKreinMultiplicities:
    def test_krein_reads_multiplicities_from_Q(self, sweeps):
        for inst in map(fresh, (N35, N249, A1_16)):
            sd = eigenmatrix_Q(eigenmatrix_P(inst), inst)
            expected = mp_view(krein(sd, inst)).krein
            assert sweeps == [inst]
            sweeps.clear()
            assert mp_view(krein(sd, inst)).krein == expected
            assert sweeps == []

    def test_eigenmatrix_P_sweeps_once(self, sweeps):
        for inst in map(fresh, (N35, N249, A1_16, A2_13)):
            sweeps.clear()
            eigenmatrix_P(inst)
            eigenmatrix_P(inst)
            assert sweeps == [inst]

    def test_eigenmatrix_Q_reads_multiplicities_from_P(self, sweeps):
        for inst in map(fresh, (N35, N249, A1_16)):
            sd = eigenmatrix_P(inst)
            assert sweeps == [inst]
            sweeps.clear()
            eigenmatrix_Q(sd, inst)
            assert sweeps == []

    def test_P_carries_the_exact_multiplicities(self):
        # one Fraction per row, constant on each Galois orbit, and the
        # same multiset as the values ``multiplicities`` lists
        for inst in (N35, N249, A1_16, S49):
            sd = eigenmatrix_P(inst)
            m = sd.multiplicities
            assert len(m) == sd.rank and all(type(v) is Fraction for v in m)
            assert all(len({m[l] for l in orbit}) == 1 for orbit in sd.orbits)
            values = multiplicities(inst).values
            assert m[0] == values[0] == 1
            assert sorted(m[1:]) == list(values[1:])


def numeric_multiplicity(sd: SpectralData, inst: Instance, l: int):
    """m_l = n / sum_i |P[l][i]|^2 / k_i (Bannai & Ito, *Algebraic
    Combinatorics I*, 1984), from the numeric row alone."""
    with mp.workprec(GRID_BITS):
        norm = sum(abs(v) ** 2 / k for v, k in zip(mp_view(sd).P[l], inst.degrees))
        return inst.order / norm


class TestMultiplicitiesAgainstRowNorms:
    def _assert_rows_match(self, inst):
        sd = eigenmatrix_P(inst)
        assert sd.multiplicities is not None
        for l, exact in enumerate(sd.multiplicities):
            numeric = numeric_multiplicity(sd, inst, l)
            with mp.workprec(GRID_BITS):
                exact_mp = mp.mpf(exact.numerator) / exact.denominator
                assert abs(numeric - exact_mp) <= mp_view(sd).eps, (l, exact)

    @pytest.mark.parametrize("name", ["n35", "n249", "a1_16", "s49"])
    def test_fixtures(self, name):
        self._assert_rows_match({"n35": N35, "n249": N249, "a1_16": A1_16, "s49": S49}[name])

    def test_rank4_sweeps(self, rank4_catalog):
        for inst in rank4_catalog:
            self._assert_rows_match(inst)

    def test_irrational_multiplicities_leave_the_field_empty(self):
        # the identity still gives the standard multiplicities: irrational,
        # and different inside the one Galois orbit
        sd = eigenmatrix_P(A2_13)
        assert sd.multiplicities is None
        numeric = [round(float(numeric_multiplicity(sd, A2_13, l)), 4) for l in range(5)]
        assert numeric == [1.0, 1.5448, 1.5448, 4.4552, 4.4552]


class TestCharacterRows:
    def test_tied_rows_follow_exact_order(self):
        # the three integer rows tie on b_1 = 2 (two of them) and differ
        # only past it; rounding noise must not decide their order
        sd = mp_view(eigenmatrix_P(S49))
        assert sd.orbits == ((0,), (1,), (2,), (3,))
        exact = [(1, 16, 16, 16), (1, -5, 2, 2), (1, 2, -5, 2), (1, 2, 2, -5)]
        assert err(sd.P, exact) < 1e-12
        assert [p.coeffs for p in sd.orbit_polys] == [(-112, 1), (-7, 1), (0, 1), (14, 1)]

    def test_conjugate_rows_ascend_by_imaginary_part(self):
        # conjugate rows share their real parts exactly
        sd = mp_view(eigenmatrix_P(A2_13))
        assert sd.orbits == ((0,), (1, 2, 3, 4))
        with mp.workprec(spectra.PRECISION):
            for a, b in ((1, 2), (3, 4)):
                assert abs(sd.P[a][1] - mp.conj(sd.P[b][1])) < 1e-60
                assert mp.im(sd.P[a][1]) < 0 < mp.im(sd.P[b][1])
        assert mp.re(sd.P[1][1]) < mp.re(sd.P[3][1])

    def test_irrational_multiplicities_keep_P_and_refuse_Q(self):
        sd = eigenmatrix_P(A2_13)
        assert sd.multiplicities is None
        refusal = "some orbit's multiplicity is not a positive rational: not a standard table"
        with pytest.raises(SitawimError, match=refusal):
            eigenmatrix_Q(sd, A2_13)

    def test_nonreal_quartic_columns_are_numpy_eigenvalues(self):
        np = pytest.importorskip("numpy")
        sd = mp_view(eigenmatrix_P(A2_13))
        assert [f.degree for f in sd.orbit_polys] == [1, 4]
        assert all(abs(mp.im(sd.P[l][1])) > 0.5 for l in range(1, 5))
        for i, b in enumerate(A2_13_MATRICES):
            want = np.linalg.eigvals(np.array(b, dtype=float))
            got = [complex(sd.P[l][i]) for l in range(5)]
            for z in want:
                assert min(abs(z - g) for g in got) < 1e-9
            for g in got:
                assert min(abs(z - g) for z in want) < 1e-9

    def test_unconverged_roots_are_refused(self, monkeypatch):
        # the double-precision stage never settles
        real = spectra._settle

        def stuck(sweep, z, small):
            return False if isinstance(z[0], complex) else real(sweep, z, small)

        monkeypatch.setattr(spectra, "_settle", stuck)
        with pytest.raises(SpectralError, match="did not converge"):
            eigenmatrix_P(A1_16)

    def test_coincident_roots_are_refused(self, monkeypatch):
        # a repeated root would give one character row twice, and both
        # copies pass the root check: the double-precision stage hands on
        # one seed for every root, and the grid stage refines the copies
        # to one root
        real = spectra._settle

        def collapsed(sweep, z, small):
            settled = real(sweep, z, small)
            if isinstance(z[0], complex):
                z[:] = [z[0]] * len(z)
            return settled

        monkeypatch.setattr(spectra, "_settle", collapsed)
        with pytest.raises(SpectralError, match="disks .* overlap"):
            eigenmatrix_P(A1_16)

    def test_inexact_root_fails_the_residual_check(self, monkeypatch):
        real = spectra._factor_roots
        shift = 1 << GRID_BITS - 60
        monkeypatch.setattr(spectra, "_factor_roots", lambda f: [(x + shift, y) for x, y in real(f)])
        with pytest.raises(SpectralError, match="residual"):
            eigenmatrix_P(N35)


@st.composite
def nonreal_polys(draw) -> IntPoly:
    """Squarefree integer polynomials of degree 2-4 with coefficients up to
    10^6 in absolute value and at least one nonreal root."""
    degree = draw(st.integers(min_value=2, max_value=4))
    coeffs = draw(st.lists(st.integers(-(10**6), 10**6), min_size=degree, max_size=degree))
    coeffs.append(draw(st.integers(-(10**6), 10**6).filter(bool)))
    poly = IntPoly(tuple(coeffs))
    derivative = [i * c for i, c in enumerate(poly.coeffs)][1:]
    assume(len(_poly_gcd(poly.coeffs, derivative)) == 1)
    assume(len(reference_real_roots(poly, 64)) < poly.degree)
    return poly


def assert_roots_match(roots, want, tol):
    """Each root within ``tol * max(1, |root|)`` of a distinct one of
    ``want``, at the caller's working precision."""
    assert len(roots) == len(want)
    want = list(want)
    for z in roots:
        nearest = min(want, key=lambda w: abs(z - w))
        assert abs(z - nearest) <= tol * max(1, abs(nearest))
        want.remove(nearest)


def product(factors) -> IntPoly:
    """The product of ascending integer coefficient lists."""
    acc = [1]
    for f in factors:
        out = [0] * (len(acc) + len(f) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(f):
                out[i + j] += a * b
        acc = out
    return IntPoly(tuple(acc))


@st.composite
def root_cases(draw):
    """``(kind, poly, exact)``: a squarefree integer polynomial of degree
    2-5 and the function giving its roots at the working precision (None
    for a ``"random"`` one).  Besides random polynomials, two kinds whose
    roots are all real: a ``"clustered"`` pair (x^2 - a)(x^2 - a - 1) for
    a large a, whose roots +-sqrt(a) and +-sqrt(a + 1) lie about
    1 / (2 sqrt a) apart, and ``"real"`` products of distinct factors
    x - a and x^2 - b, b not a square."""
    kind = draw(st.sampled_from(["random", "clustered", "real"]))
    if kind == "clustered":
        a = draw(st.integers(2, 10**80))
        poly = IntPoly((a * (a + 1), 0, -(2 * a + 1), 0, 1))
        return kind, poly, lambda: [s * mp.sqrt(v) for v in (a, a + 1) for s in (1, -1)]
    if kind == "real":
        linear = draw(st.lists(st.integers(-50, 50), max_size=3, unique=True))
        squares = st.integers(2, 50).filter(lambda b: isqrt(b) ** 2 != b)
        quadratic = draw(st.lists(squares, max_size=2, unique=True))
        assume(2 <= len(linear) + 2 * len(quadratic) <= 5)
        poly = product([[-a, 1] for a in linear] + [[-b, 0, 1] for b in quadratic])
        roots = lambda: [mp.mpf(a) for a in linear] + [s * mp.sqrt(b) for b in quadratic for s in (1, -1)]
        return kind, poly, roots
    degree = draw(st.integers(min_value=2, max_value=5))
    coeffs = draw(st.lists(st.integers(-1000, 1000), min_size=degree, max_size=degree))
    poly = IntPoly(tuple(coeffs) + (draw(st.integers(-1000, 1000).filter(bool)),))
    derivative = [i * c for i, c in enumerate(poly.coeffs)][1:]
    assume(len(_poly_gcd(poly.coeffs, derivative)) == 1)
    return kind, poly, None


class TestFactorRoots:
    @settings(max_examples=60, deadline=None)
    @given(nonreal_polys())
    def test_match_polyroots(self, poly):
        roots = [grid_mp(z) for z in spectra._factor_roots(poly)]
        with mp.workprec(2 * GRID_BITS):
            want = list(mp.polyroots(list(reversed(poly.coeffs)), maxsteps=500, extraprec=100))
            assert len(roots) == len(want)
            for z in roots:
                nearest = min(want, key=lambda w: abs(z - w))
                assert abs(z - nearest) <= mp.ldexp(1, -250)
                want.remove(nearest)

    @settings(max_examples=60, deadline=None)
    @given(root_cases())
    def test_match_polyroots_at_320_bits(self, case):
        # real roots are projected onto the real axis, as for a symmetric
        # table, and every root then lies in exactly one inclusion disk
        kind, poly, exact = case
        roots = spectra._factor_roots(poly)
        if kind != "random":
            roots = [(x, 0) for x, _ in roots]
        values = [spectra._at(poly.coeffs, spectra._powers(z, poly.degree)) for z in roots]
        radii = spectra._inclusion_radii(poly, roots, [a * a + b * b for a, b in values])
        coeffs = list(reversed(poly.coeffs))
        with mp.workprec(320):
            want = exact() if exact else mp.polyroots(coeffs, maxsteps=500, extraprec=320)
            assert_roots_match([grid_mp(z) for z in roots], want, mp.ldexp(1, -250))
        if kind == "real":
            got = sorted(Fraction(x, 1 << GRID_BITS) for x, _ in roots)
            ref = reference_real_roots(poly, 256)
            assert max(abs(a - b) for a, b in zip(got, ref)) <= Fraction(1, 2**250)
        with mp.workprec(2 * GRID_BITS):
            want = exact() if exact else mp.polyroots(coeffs, maxsteps=500, extraprec=2 * GRID_BITS)
            disks = [(grid_mp(z), grid_mp(r)) for z, r in zip(roots, radii)]
            for w in want:
                assert sum(abs(w - z) <= r for z, r in disks) == 1

    def test_unsettled_grid_stage_is_refused(self, monkeypatch):
        # every grid sweep kicks the roots away again
        real = spectra._grid_sweep

        def kicked(f, z):
            deltas = real(f, z)
            z[:] = [(x + (1 << GRID_BITS - 10), y) for x, y in z]
            return deltas

        monkeypatch.setattr(spectra, "_grid_sweep", kicked)
        with pytest.raises(SpectralError, match="did not converge"):
            spectra._factor_roots(IntPoly((1, 1, 1)))

    def test_huge_coefficients_are_scaled(self):
        # x^2 - 2^1100 x + 2^2300 has roots of size 2^1150, past any double
        poly = IntPoly((1 << 2300, -(1 << 1100), 1))
        roots = [grid_mp(z) for z in spectra._factor_roots(poly)]
        assert len(roots) == 2
        with mp.workprec(600):
            for z in roots:
                assert abs(z * z - z * 2**1100 + 2**2300) <= abs(z) ** 2 * mp.ldexp(1, -280)


# reference eigenmatrix: the adjugate kernel and mp.eig that eigenmatrix_P
# replaced, with rows put in the same canonical order -------------------------


def value_at(poly: IntPoly, x):
    """Horner evaluation of ``poly`` at ``x``, exact wherever the arithmetic
    of ``x`` is."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def _ref_null_vector(mat, size):
    """A kernel vector of a numerically rank-deficient square matrix, via
    the adjugate: its largest column."""
    cols = []
    for j in range(size):
        col = []
        for i in range(size):
            minor = mp.matrix(size - 1, size - 1)
            for a in range(size - 1):
                aa = a if a < i else a + 1
                for b in range(size - 1):
                    bb = b if b < j else b + 1
                    minor[a, b] = mat[aa, bb]
            cofactor = mp.det(minor) if size > 1 else mp.mpf(1)
            col.append(-cofactor if (i + j) % 2 else cofactor)
        cols.append(col)
    vecs = [[cols[j][i] for j in range(size)] for i in range(size)]
    return max(vecs, key=lambda vec: max(abs(v) for v in vec))


def _ref_row_from_vector(mats, vec, eps):
    """Character values (b_i v)[t] / v[t] of a right eigenvector at its
    largest component t, each checked by the full residual."""
    r = len(mats)
    t = max(range(r), key=lambda i: abs(vec[i]))
    row = []
    for i in range(r):
        image = [sum(mp.mpf(mats[i][a][b]) * vec[b] for b in range(r)) for a in range(r)]
        mu = image[t] / vec[t]
        assert max(abs(image[a] - mu * vec[a]) for a in range(r)) <= eps * abs(vec[t])
        row.append(mu)
    return (mp.mpf(1),) + tuple(row[1:])


def reference_eigenmatrix_P(inst: Instance, precision: int = 256):
    """(P, orbits, orbit_polys) from a right eigenvector per root: the
    adjugate of combo - theta*I at each Sturm root of a symmetric table,
    ``mp.eig`` of the generator otherwise, each eigenvalue matched to the
    factor it is a root of."""
    r = inst.rank
    mats = inst.matrices
    with mp.workprec(precision + 32):
        eps = mp.ldexp(1, -100) * max(1, inst.order)
        combo, factors, perron, _, _, _ = structcheck._orbit_solve(inst)
        trivial = IntPoly((-perron, 1))
        assert factors[0] == trivial
        per_factor = {f: [] for f in factors[1:]}
        if all(mats[j][0][j] for j in range(r)):
            for f in per_factor:
                for root in reference_real_roots(f, precision):
                    theta = mp.mpf(root.numerator) / root.denominator
                    A = mp.matrix([[combo[a][b] - (theta if a == b else 0) for b in range(r)] for a in range(r)])
                    per_factor[f].append(_ref_row_from_vector(mats, _ref_null_vector(A, r), eps))
        else:
            eigvals, right = mp.eig(mp.matrix(combo), left=False, right=True)
            for idx, lam in enumerate(eigvals):
                host = min(factors, key=lambda f: abs(value_at(f, lam)))
                assert abs(value_at(host, lam)) <= eps * max(1, abs(lam)) ** host.degree
                if host != trivial:
                    vec = [right[a, idx] for a in range(r)]
                    per_factor[host].append(_ref_row_from_vector(mats, vec, eps))

        def key(row):
            bits = precision // 2
            return [
                (int(mp.nint(mp.ldexp(mp.re(v), bits))), int(mp.nint(mp.ldexp(mp.im(v), bits))))
                for v in row[1:]
            ]

        blocks = sorted(
            ((sorted(rows, key=key), f) for f, rows in per_factor.items()),
            key=lambda block: (len(block[0]), key(block[0][0])),
        )
        P = [tuple(mp.mpf(d) for d in inst.degrees)]
        orbits, polys = [(0,)], [trivial]
        for rows, f in blocks:
            assert len(rows) == f.degree
            orbits.append(tuple(range(len(P), len(P) + len(rows))))
            polys.append(f)
            P.extend(rows)
        return P, tuple(orbits), tuple(polys)


@pytest.fixture(scope="module")
def rank4_catalog():
    """Every entry of the 4S and 4A1 pseudocyclic sweeps with k1 <= 40."""
    s4 = SearchConfig(
        itype="4S",
        assumption="pseudocyclic",
        grid=(GridAxis("m", 1, 40),),
        simplex=SimplexSpec(("x8",), anchor="m"),
    )
    a1 = SearchConfig(itype="4A1", assumption="pseudocyclic", grid=(GridAxis("k1", 1, 40),))
    return run_search(s4) + run_search(a1)


class TestAgainstAdjugateReference:
    def _assert_same(self, inst):
        sd = mp_view(eigenmatrix_P(inst))
        P, orbits, polys = reference_eigenmatrix_P(inst)
        assert sd.orbit_polys == polys
        assert sd.orbits == orbits
        tol = mp.ldexp(1, -200)
        for got, want in zip(sd.P, P):
            assert max(abs(a - b) for a, b in zip(got, want)) < tol

    @pytest.mark.parametrize("name", ["n35", "n249", "a1_16", "s49", "a2_13"])
    def test_fixtures(self, name):
        self._assert_same({"n35": N35, "n249": N249, "a1_16": A1_16, "s49": S49, "a2_13": A2_13}[name])

    def test_rank4_sweeps(self, rank4_catalog):
        itypes = {inst.itype.name for inst in rank4_catalog}
        assert itypes == {"4S", "4A1"} and len(rank4_catalog) > 20
        for inst in rank4_catalog:
            self._assert_same(inst)


# reference Krein tensor: the triple loop with every product formed per k ---


def reference_krein(sd: SpectralData, inst: Instance, bits: int):
    """kappa_ijk = m_i m_j / n * sum_l P[i][l] P[j][l] conj(P[k][l]) / k_l^2
    in mpf at ``bits`` bits, laid out as ``krein`` lays it out, with the
    imaginary part dropped."""
    r, n = sd.rank, inst.order
    P = mp_view(sd).P
    with mp.workprec(bits):
        m = [mp.mpf(q.numerator) / q.denominator for q in sd.multiplicities]
        deg2 = [mp.mpf(k) ** 2 for k in inst.degrees]
        kappa = [[[None] * r for _ in range(r)] for _ in range(r)]
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    acc = sum(
                        P[i][l] * P[j][l] * mp.conj(P[k][l]) / deg2[l]
                        for l in range(r)
                    )
                    kappa[i][j][k] = mp.re(m[i] * m[j] / n * acc)
    return tuple(
        tuple(tuple(kappa[i][j][k] for j in range(r)) for k in range(r)) for i in range(r)
    )


class TestKreinAgainstTripleLoop:
    """The fixed-point tensor against the triple loop at twice the working
    precision.  Integers cannot replay mpf's rounding of each operation, so
    the two agree within 2^-256 * max(1, |kappa|), not bit for bit."""

    @staticmethod
    def _assert_close(inst):
        sd = eigenmatrix_Q(eigenmatrix_P(inst), inst)
        got = mp_view(krein(sd, inst)).krein
        want = reference_krein(sd, inst, 2 * GRID_BITS)
        with mp.workprec(2 * GRID_BITS):
            for a, b in zip(
                (v for mat in got for row in mat for v in row),
                (v for mat in want for row in mat for v in row),
            ):
                assert abs(a - b) <= mp.ldexp(1, -256) * max(1, abs(b))

    @pytest.mark.parametrize("name", ["n35", "n249", "a1_16", "s49"])
    def test_fixtures(self, name):
        inst = {"n35": N35, "n249": N249, "a1_16": A1_16, "s49": S49}[name]
        self._assert_close(inst)
        if name == "a1_16":  # conjugate-paired rows: P has nonreal entries
            assert any(mp.im(v) != 0 for row in mp_view(eigenmatrix_P(inst)).P for v in row)

    def test_rank4_sweeps(self, rank4_catalog):
        for inst in rank4_catalog:
            self._assert_close(inst)


# reference root isolation: Sturm bisection on Fraction endpoints -------------


def _ref_sign_at(coeffs, point):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * point + c
    return (acc > 0) - (acc < 0)


def _ref_sturm_chain(coeffs):
    p0 = [Fraction(c) for c in coeffs]
    p1 = [Fraction((i + 1) * c) for i, c in enumerate(coeffs[1:])]
    chain = [p0, p1]
    while len(chain[-1]) > 1 or (len(chain[-1]) == 1 and chain[-1][0] != 0):
        a, b = chain[-2], chain[-1]
        rem = list(a)
        while len(rem) >= len(b) and any(v != 0 for v in rem):
            if rem[-1] == 0:
                rem.pop()
                continue
            q = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            for i, bi in enumerate(b):
                rem[shift + i] -= q * bi
            while rem and rem[-1] == 0:
                rem.pop()
        if not rem or all(v == 0 for v in rem):
            break
        chain.append([-v for v in rem])
    return chain


def _ref_sign_changes(chain, point):
    signs = [s for s in (_ref_sign_at(poly, point) for poly in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def reference_real_roots(poly: IntPoly, precision: int) -> list:
    """Sturm isolation and bisection with Fraction endpoints throughout."""
    coeffs = list(poly.coeffs)
    if len(coeffs) == 2:
        return [Fraction(-coeffs[0], coeffs[1])]
    chain = _ref_sturm_chain(coeffs)
    bound = 1 + Fraction(max(abs(c) for c in coeffs[:-1]), abs(coeffs[-1]))
    intervals = []
    pending = [(-bound - 1, bound + 1)]
    while pending:
        lo, hi = pending.pop()
        count = _ref_sign_changes(chain, lo) - _ref_sign_changes(chain, hi)
        if count == 0:
            continue
        if count == 1:
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if _ref_sign_at(coeffs, mid) == 0:
            width = Fraction(1, 4 * mid.denominator * (1 + abs(mid.numerator)))
            while _ref_sign_changes(chain, mid - width) - _ref_sign_changes(chain, mid + width) != 1:
                width /= 2
            intervals.append((mid - width, mid + width))
            pending.append((lo, mid - width))
            pending.append((mid + width, hi))
            continue
        pending.append((lo, mid))
        pending.append((mid, hi))
    roots = []
    limit = Fraction(1, 2 ** (precision + 16))
    for lo, hi in intervals:
        slo = _ref_sign_at(coeffs, lo)
        while hi - lo > limit:
            mid = (lo + hi) / 2
            smid = _ref_sign_at(coeffs, mid)
            if smid == 0:
                lo = hi = mid
                break
            if smid == slo:
                lo = mid
            else:
                hi = mid
        roots.append((lo + hi) / 2)
    return sorted(roots)


# pins: every output of the fixtures and the tier-1 catalogs as the mpf
# implementation gave them, P and kappa rounded to 2^-250 -----------------

PINS = json.loads((Path(__file__).parent / "spectra_pins.json").read_text())
PIN_BITS = 250


def cyclic_group_table(n: int) -> Instance:
    """Regular representation of Z/n as a table: b_j b_k = b_{j+k mod n}."""
    return Instance(
        [[[int(i == (j + k) % n) for k in range(n)] for i in range(n)] for j in range(n)]
    )


PIN_FIXTURES = {
    "N35": N35,
    "N249": N249,
    "A1_16": A1_16,
    "S49": S49,
    "A2_13": A2_13,
    "R2": Instance([[[1, 0], [0, 1]], [[0, 4], [1, 3]]], "R2"),
    **{f"K{n}": complete_graph(n) for n in (4, 7, 12)},
    **{f"Z{n}": cyclic_group_table(n) for n in (2, 3, 4, 5, 6)},
}


def unpin(value: str):
    """A pinned hex int as the exact mpf it stands for, on 2^-250."""
    return mp.ldexp(int(value, 16), -PIN_BITS)


def outcome(stage, *args, errors=False):
    """``stage(*args)``, or the refusal it raises as the pins spell it."""
    try:
        return stage(*args)
    except SitawimError as exc:
        return f"error: {type(exc).__name__}: {exc}" if errors else f"error: {exc}"


def assert_matches_pin(inst: Instance, pin: dict):
    """The exact outputs equal the pin's; P is within 2^-250 and every
    kappa within 2^-250 max(1, |kappa|) of the pinned value."""
    assert inst.order == pin["order"]
    mult = outcome(multiplicities, inst)
    mult = mult if isinstance(mult, str) else [str(v) for v in mult.values]
    assert mult == pin["multiplicities"]
    cyclo = outcome(is_cyclotomic, inst)
    assert (cyclo if isinstance(cyclo, str) else cyclo.cyclotomic) == pin["cyclotomic"]
    sd = outcome(eigenmatrix_P, inst, errors=True)
    if isinstance(sd, str):
        assert sd == pin["P"]
        return
    if all(b[0][j] for j, b in enumerate(inst.matrices)):  # symmetric
        assert all(im == 0 for row in sd.P for _, im in row)
    assert [list(o) for o in sd.orbits] == pin["orbits"]
    assert [list(f.coeffs) for f in sd.orbit_polys] == pin["orbit_polys"]
    m = sd.multiplicities
    assert (None if m is None else [str(v) for v in m]) == pin["row_multiplicities"]
    tol = mp.ldexp(1, -PIN_BITS)
    with mp.workprec(2 * GRID_BITS):
        pinned = [mp.mpc(*map(unpin, v)) for row in pin["P"] for v in row]
        got = [v for row in mp_view(sd).P for v in row]
        assert len(got) == len(pinned)
        assert all(abs(a - b) <= tol for a, b in zip(got, pinned))
    sd = outcome(lambda: krein(eigenmatrix_Q(sd, inst), inst), errors=True)
    if isinstance(sd, str):
        assert sd == pin["Q"]
        return
    with mp.workprec(2 * GRID_BITS):
        pinned = [unpin(h) for mat in pin["krein"] for row in mat for h in row]
        got = [v for mat in mp_view(sd).krein for row in mat for v in row]
        assert len(got) == len(pinned)
        assert all(abs(a - b) <= tol * max(1, abs(a)) for a, b in zip(got, pinned))
    assert run_battery(inst, sd).as_dict() == pin["battery"]


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


class TestPins:
    @pytest.mark.parametrize("name", sorted(PIN_FIXTURES))
    def test_fixtures(self, name):
        assert_matches_pin(PIN_FIXTURES[name], PINS["fixtures"][name])

    def test_tier1_catalogs(self, rank4_catalog, a2_catalog):
        pins = PINS["catalogs"]
        pinned = pins["4S-m40"] + pins["4A1-k40"] + pins["5A2-m8"]
        entries = rank4_catalog + a2_catalog
        assert len(entries) == len(pinned)
        for inst, pin in zip(entries, pinned):
            assert_matches_pin(inst, pin)
