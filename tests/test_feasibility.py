"""Feasibility battery: exact conditions and Krein-side conditions."""

import importlib
import itertools
import json
from pathlib import Path

import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st
from mpmath import mp

from sitawim.errors import SitawimError
from sitawim.feasibility import (
    CONDITIONS,
    KREIN_ZERO_EPS,
    ConditionResult,
    FeasibilityReport,
    absolute_bound,
    closed_subsets_quotients,
    gegenbauer,
    handshake,
    krein_nonneg,
    quotient_data,
    run_battery,
    sub_instance,
    triangle_count,
)
from sitawim.feasibility import (
    _closed_subsets,
    _gegenbauer_levels,
    _plain,
    _structural_star,
)
from sitawim.spectra import GRID_BITS, SpectralData, eigenmatrix_P, eigenmatrix_Q, krein
from sitawim.intpoly import IntPoly
from sitawim.structcheck import Instance, verify_sita

from _fixtures import A1_16_MATRICES, N35_MATRICES, N249_MATRICES, S49_MATRICES, mp_view


def complete_graph(n):
    return Instance([[[1, 0], [0, 1]], [[0, n - 1], [1, n - 2]]])


def cyclic_group_table(n):
    """Regular representation of Z/n as a table: b_j b_k = b_{j+k mod n}."""
    return Instance(
        [
            [[int(i == (j + k) % n) for k in range(n)] for i in range(n)]
            for j in range(n)
        ]
    )


def full(inst):
    return krein(eigenmatrix_Q(eigenmatrix_P(inst), inst), inst)


# A realizable-shaped rank-3 table with an odd handshake product:
# (b_1)_{1,2} = 1 and k_2 = 5.
HANDSHAKE_FAIL = Instance(
    [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 3, 0], [3, 1, 1], [0, 1, 3]],
        [[0, 0, 5], [0, 1, 3], [1, 3, 3]],
    ]
)

# Rank-3 table with t_1 = 5 * 1 / 6 (not an integer); {0,1} is kept
# non-closed and every handshake product even so the battery reaches the
# triangle condition.
TRIANGLE_FAIL = Instance(
    [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 1, 0], [0, 1, 1]],
        [[0, 0, 3], [0, 0, 1], [1, 2, 1]],
    ]
)

# {0,1} is closed with a Z/2 sub-table, but the quotient block {2} has
# degree sum 3 over a subset of order 2.
QUOTIENT_DEGREE_FAIL = Instance(
    [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[0, 0, 3], [0, 0, 3], [1, 1, 1]],
    ]
)

# {0,1} is closed but its sub-table breaks the degree bookkeeping
# (b_1 * b_1 = b_0 + b_1 with k_1 = 1).
SUBTABLE_FAIL = Instance(
    [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 1, 0], [0, 0, 1]],
        [[0, 0, 3], [0, 0, 3], [1, 1, 2]],
    ]
)


@pytest.fixture(scope="module")
def n35():
    return Instance(N35_MATRICES)


@pytest.fixture(scope="module")
def n249():
    return Instance(N249_MATRICES)


@pytest.fixture(scope="module")
def a1_16():
    return Instance(A1_16_MATRICES)


@pytest.fixture(scope="module")
def s49():
    return Instance(S49_MATRICES, "4S")


@pytest.fixture(scope="module")
def sd35(n35):
    return full(n35)


@pytest.fixture(scope="module")
def sd249(n249):
    return full(n249)


@pytest.fixture(scope="module")
def rep35(n35, sd35):
    return run_battery(n35, sd35)


@pytest.fixture(scope="module")
def rep249(n249, sd249):
    return run_battery(n249, sd249)


def on_grid(value) -> int:
    """A float, int or Fraction rounded to the spectral grid."""
    return round(Fraction(value) * (1 << GRID_BITS))


def fabricated_sd(krein_tensor, Q0, eps=None):
    """Hand-built rank-len(Q0) spectral data for condition unit tests: the
    multiplicities Q0, the Krein tensor and eps (default 2^-30) given as
    numbers and put on the grid."""
    r = len(Q0)
    P = tuple(tuple((on_grid(1), 0) for _ in range(r)) for _ in range(r))
    Q = (tuple((on_grid(v), 0) for v in Q0),) + tuple(
        tuple((0, 0) for _ in range(r)) for _ in range(r - 1)
    )
    kr = tuple(
        tuple(tuple(on_grid(v) for v in row) for row in plane)
        for plane in krein_tensor
    )
    return SpectralData(
        eps=on_grid(Fraction(1, 2**30) if eps is None else eps),
        P=P,
        orbits=tuple((i,) for i in range(r)),
        orbit_polys=tuple(IntPoly((-1, 1)) for _ in range(r)),
        multiplicities=tuple(map(Fraction, Q0)),
        Q=Q,
        krein=kr,
    )


class TestReportShape:
    def test_duplicate_condition_rejected(self):
        c = ConditionResult("handshake", "pass")
        with pytest.raises(SitawimError):
            FeasibilityReport(conditions=(c, c))

    def test_fail_without_witness_rejected(self):
        c = ConditionResult("handshake", "fail")
        with pytest.raises(SitawimError):
            FeasibilityReport(conditions=(c,))

    def test_lookup(self, rep35):
        assert rep35["handshake"].verdict == "pass"
        assert rep35["triangle-count"].verdict == "pass"
        with pytest.raises(KeyError):
            rep35["no-such-condition"]

    def test_every_condition_present_once(self, rep35):
        assert tuple(c.name for c in rep35.conditions) == CONDITIONS

    def test_json_serializable(self, rep35):
        text = json.dumps(rep35.as_dict())
        assert "handshake" in text


class TestHandshake:
    def test_rank2_vacuous(self):
        assert handshake(complete_graph(9)).verdict == "vacuous"

    def test_order35_passes_all_pairs(self, n35):
        res = handshake(n35)
        assert res.verdict == "pass"
        assert res.detail == {"pairs": 12}

    def test_order249_passes(self, n249):
        assert handshake(n249).verdict == "pass"

    def test_odd_product_fails_with_witness(self):
        res = handshake(HANDSHAKE_FAIL)
        assert res.verdict == "fail"
        assert res.witness == {"i": 1, "j": 2, "entry": 1, "degree": 5}

    def test_asymmetric_pairs_exempt(self, a1_16):
        # realizable table whose only symmetric nontrivial element is b_1:
        # no eligible pair, even though (b_2)_{2,3} * k_3 = 5 is odd
        assert a1_16.matrices[2][2][3] * a1_16.degrees[3] == 5
        assert handshake(a1_16).verdict == "vacuous"

    def test_group_table_vacuous(self):
        assert handshake(cyclic_group_table(3)).verdict == "vacuous"


class TestTriangleCount:
    def test_complete_graph_exact(self):
        res = triangle_count(complete_graph(7))
        assert res.verdict == "pass"
        assert res.detail == {1: 35}

    @given(st.integers(min_value=3, max_value=60))
    def test_complete_graph_formula(self, n):
        res = triangle_count(complete_graph(n))
        assert res.verdict == "pass"
        assert res.detail == {1: n * (n - 1) * (n - 2) // 6}

    def test_order35_counts(self, n35):
        res = triangle_count(n35)
        assert res.verdict == "pass"
        assert res.detail == {1: 0, 2: 175, 3: 280, 4: 210}

    def test_order249_counts(self, n249):
        res = triangle_count(n249)
        assert res.verdict == "pass"
        assert res.detail == {1: 38595, 2: 46314, 3: 46314, 4: 41168}

    def test_fractional_count_fails(self):
        res = triangle_count(TRIANGLE_FAIL)
        assert res.verdict == "fail"
        assert res.witness == {"j": 1, "count": "5/6"}

    def test_asymmetric_elements_exempt(self, a1_16):
        res = triangle_count(a1_16)
        assert res.verdict == "pass"
        assert res.detail == {1: 0}

    def test_group_table_vacuous(self):
        # Z/3 is realizable yet n * (b_1^3)_{0,0} / 6 = 1/2: the condition
        # must not constrain directed elements
        res = triangle_count(cyclic_group_table(3))
        assert res.verdict == "vacuous"
        assert res.detail == {}


class TestClosedSubsets:
    def test_order35_lattice_and_quotient(self, n35):
        res = closed_subsets_quotients(n35)
        assert res.verdict == "pass"
        assert res.detail["lattice"] == ((0,), (0, 2), (0, 1, 2, 3, 4))
        (q,) = res.detail["quotients"]
        assert q["subset"] == (0, 2)
        assert q["blocks"] == ((0, 2), (1, 3, 4))
        assert q["rank"] == 2
        assert q["degrees"] == (1, 4)

    def test_order249_primitive(self, n249):
        res = closed_subsets_quotients(n249)
        assert res.verdict == "vacuous"
        assert res.detail["lattice"] == ((0,), (0, 1, 2, 3, 4))

    def test_asymmetric_primitive(self, a1_16):
        assert closed_subsets_quotients(a1_16).verdict == "vacuous"

    def test_group_table_subgroup_lattice(self):
        res = closed_subsets_quotients(cyclic_group_table(6))
        assert res.verdict == "pass"
        assert res.detail["lattice"] == (
            (0,),
            (0, 3),
            (0, 2, 4),
            (0, 1, 2, 3, 4, 5),
        )

    def test_lattice_closed_under_intersection(self, n35):
        for inst in (n35, cyclic_group_table(6), cyclic_group_table(12)):
            lattice = _closed_subsets(inst)
            as_sets = [set(S) for S in lattice]
            for A in as_sets:
                for B in as_sets:
                    assert tuple(sorted(A & B)) in lattice

    def test_subtable_axiom_failure(self):
        res = closed_subsets_quotients(SUBTABLE_FAIL)
        assert res.verdict == "fail"
        assert res.witness["kind"] == "subtable-axioms"
        assert res.witness["subset"] == (0, 1)

    def test_quotient_degree_failure(self):
        res = closed_subsets_quotients(QUOTIENT_DEGREE_FAIL)
        assert res.verdict == "fail"
        assert res.witness["kind"] == "quotient-degree"
        assert res.witness["subset"] == (0, 1)
        assert res.witness["degree"] == "3/2"

    def test_sub_instance_of_order35_is_complete_graph(self, n35):
        sub = sub_instance(n35, (0, 2))
        assert sub.matrices == complete_graph(7).matrices
        assert verify_sita(sub).passed

    def test_sub_instance_rejects_non_closed(self, n35):
        with pytest.raises(SitawimError):
            sub_instance(n35, (0, 1))
        with pytest.raises(SitawimError):
            sub_instance(n35, (2, 3))

    def test_sub_instance_induced_star(self):
        z6 = cyclic_group_table(6)
        sub = sub_instance(z6, (0, 2, 4))
        assert sub.star == (0, 2, 1)
        assert verify_sita(sub).passed

    def test_quotient_of_order35_is_complete_graph_on_5(self, n35):
        blocks, degrees, constants = quotient_data(n35, (0, 2))
        assert blocks == ((0, 2), (1, 3, 4))
        assert degrees == (Fraction(1), Fraction(4))
        # \hat{b}_1^2 = 4 \hat{b}_0 + 3 \hat{b}_1: the order-5 complete graph
        assert constants[1][0][1] == 4
        assert constants[1][1][1] == 3

    def test_quotient_of_group_by_subgroup(self):
        z6 = cyclic_group_table(6)
        blocks, degrees, constants = quotient_data(z6, (0, 2, 4))
        assert blocks == ((0, 2, 4), (1, 3, 5))
        assert degrees == (Fraction(1), Fraction(1))
        assert constants[1][0][1] == 1 and constants[1][1][1] == 0


class TestAbsoluteBound:
    def test_reference_instances_pass(self, sd35, sd249):
        assert absolute_bound(sd35).verdict == "pass"
        assert absolute_bound(sd249).verdict == "pass"

    def test_order35_support_trimming(self, sd35):
        # kappa_{1,1,k} vanishes for k >= 2, so the (1,1) support has
        # multiplicity sum 1 + 4 = 5 <= 10; without the zeros the sum 35
        # would breach the bound
        with mp.workprec(GRID_BITS):
            support = [
                k for k in range(5) if abs(mp_view(sd35).krein[1][k][1]) > mp.mpf(10) ** -20
            ]
        assert support == [0, 1]

    def test_overfull_support_fails(self):
        sd = fabricated_sd(
            [
                [[1, 0], [0, 1]],
                [[0, 1], [1, 1]],
            ],
            Q0=(1, 1),
        )
        res = absolute_bound(sd)
        assert res.verdict == "fail"
        w = res.witness
        assert (w["i"], w["j"]) == (1, 1)
        assert w["total"] == 2.0 and w["bound"] == 1.0

    def test_near_zero_band_warns(self):
        sd = fabricated_sd(
            [
                [[1, 0], [0, 1]],
                [[0, 1e-18], [1, 1]],
            ],
            Q0=(1, 2),
        )
        res = absolute_bound(sd)
        assert res.verdict == "warning"
        assert (1, 1, 0) in res.witness["near-zero"]

    def test_total_equal_to_the_bound_passes(self):
        # multiplicities in thirds: the (0, 3) support {1, 2} totals
        # 1/3 + 4/3 = 5/3 = m_0 m_3 exactly, a sum that 288-bit floats round
        # above the product; one more support entry breaks the bound
        m = (1, Fraction(1, 3), Fraction(4, 3), Fraction(5, 3))
        support = {(0, 0): [0], (0, 2): [2], (0, 3): [1, 2], (3, 3): [0, 1]}

        def tensor():
            kappa = [[[0] * 4 for _ in range(4)] for _ in range(4)]
            for (i, j), ks in support.items():
                for k in ks:
                    kappa[i][k][j] = 1  # (L*_i)[k][j] = kappa_ijk
            return kappa

        assert absolute_bound(fabricated_sd(tensor(), m)).verdict == "pass"
        support[0, 3].append(0)
        res = absolute_bound(fabricated_sd(tensor(), m))
        assert res.verdict == "fail"
        assert res.witness == {"i": 0, "j": 3, "support": (0, 1, 2), "total": 8 / 3, "bound": 5 / 3}

    def test_requires_krein(self, n35):
        sd = eigenmatrix_P(n35)
        with pytest.raises(SitawimError):
            absolute_bound(sd)


class TestKreinNonneg:
    def test_reference_instances_pass(self, sd35, sd249):
        assert krein_nonneg(sd35).verdict == "pass"
        assert krein_nonneg(sd249).verdict == "pass"

    def test_negative_entry_fails_with_worst_witness(self):
        sd = fabricated_sd(
            [
                [[1, 0], [0, 1]],
                [[-0.1, 1], [-0.2, 1]],
            ],
            Q0=(1, 2),
        )
        res = krein_nonneg(sd)
        assert res.verdict == "fail"
        w = res.witness
        # krein[1][1][0] = -0.2 is the most negative: i=1, k=1, j=0
        assert (w["i"], w["j"], w["k"]) == (1, 0, 1)
        assert abs(w["value"] + 0.2) < 1e-12

    def test_eps_tolerates_dust(self):
        sd = fabricated_sd(
            [
                [[1, 0], [0, 1]],
                [[-1e-40, 1], [0, 1]],
            ],
            Q0=(1, 2),
        )
        assert krein_nonneg(sd).verdict == "pass"
        # the same dust fails against a record whose eps is below it
        tight = fabricated_sd(
            [
                [[1, 0], [0, 1]],
                [[-1e-40, 1], [0, 1]],
            ],
            Q0=(1, 2),
            eps=Fraction("1e-45"),
        )
        assert krein_nonneg(tight).verdict == "fail"


class TestGegenbauer:
    def test_order35_dual_rank2_subset_needs_no_detection(self, sd35):
        # {0, 1} is closed in the dual (kappa_{1,1,k} = 0 for k = 2, 3, 4),
        # the rank-2 dual-subset case; column 0 decides it like any other
        # index, with nothing detected
        eps = mp.mpf(KREIN_ZERO_EPS)
        assert all(abs(mp_view(sd35).krein[1][k][1]) <= eps for k in (2, 3, 4))
        res = gegenbauer(sd35, 1)
        assert res.verdict == "pass"
        assert res.detail == {"i": 1, "bound": 20}

    def test_order35_full_matrix_for_other_indices(self, sd35):
        # at i = 2, 3, 4 {0, i} is not closed in the dual, so the rank-2
        # dual-subset argument does not apply; column 0 still decides as
        # the full matrix does
        eps = mp.mpf(KREIN_ZERO_EPS)
        for i in (2, 3, 4):
            assert any(abs(mp_view(sd35).krein[i][k][i]) > eps for k in range(1, 5) if k != i)
            res = gegenbauer(sd35, i)
            assert res.verdict == "pass"
            assert res.detail == {"i": i, "bound": 20}
            assert reference_gegenbauer(sd35, i, False).verdict == "pass"

    def test_order35_shortcut_not_load_bearing(self, sd35):
        # only column 0 is carried; the full columns of the same 20 levels
        # hold that column unchanged and pass as well
        for i in range(1, 5):
            x, mfix, bits, cols = fixed_point_inputs(sd35, i, False)
            floor = -sd35.eps
            short = _gegenbauer_levels(x, mfix, bits)
            whole = reference_fixed_gegenbauer(x, mfix, bits, cols, 20)
            for G0, G in zip(short, whole):
                assert G0 == G[0]
                assert min(min(col) for col in G) >= floor

    def test_order249_passes(self, sd249):
        for i in range(1, 5):
            res = gegenbauer(sd249, i)
            assert res.verdict == "pass"
            assert res.detail["bound"] == 124

    def test_nonreal_row_vacuous(self, a1_16):
        sd = full(a1_16)
        assert gegenbauer(sd, 1).verdict == "pass"
        assert gegenbauer(sd, 2).verdict == "vacuous"
        assert gegenbauer(sd, 3).verdict == "vacuous"
        assert gegenbauer(sd, 2).detail["reason"] == "nonreal character row"

    def test_level_one_is_krein_nonnegativity(self, sd35, sd249):
        for sd in (sd35, sd249):
            assert krein_nonneg(sd).verdict == "pass"
            for i in range(1, sd.rank):
                # G_1 = m x = L*_i, every column
                x, mfix, bits, cols = fixed_point_inputs(sd, i, False)
                (G1,) = reference_fixed_gegenbauer(x, mfix, bits, cols, 1)
                assert min(min(col) for col in G1) >= -sd.eps

    def test_level_one_fails_with_krein_nonnegativity(self):
        sd = fabricated_sd(
            [
                [[1, 0], [0, 1]],
                [[-0.1, 1], [1, 1]],
            ],
            Q0=(1, 2),
        )
        assert krein_nonneg(sd).verdict == "fail"
        res = gegenbauer(sd, 1)
        assert res.verdict == "fail"
        assert res.witness["l"] == 1

    def test_index_validation(self, sd35):
        with pytest.raises(SitawimError):
            gegenbauer(sd35, 0)
        with pytest.raises(SitawimError):
            gegenbauer(sd35, 5)

    def test_requires_krein(self, n35):
        with pytest.raises(SitawimError):
            gegenbauer(eigenmatrix_P(n35), 1)


# reference Gegenbauer recurrence: r x r matrix steps on mpf values ---------


def reference_levels(sd, i):
    """G_1, G_2, ... of x = L*_i / m_i as full mpf matrices, at the
    working precision of the caller, for ``sd`` in its mpmath view."""
    r = sd.rank
    m = sd.Q[0][i]
    x = [[sd.krein[i][a][b] / m for b in range(r)] for a in range(r)]
    prev2 = [[mp.mpf(1 if a == b else 0) for b in range(r)] for a in range(r)]
    prev1 = [[m * x[a][b] for b in range(r)] for a in range(r)]
    yield prev1
    for l in itertools.count(2):
        xg = [
            [sum(x[a][t] * prev1[t][b] for t in range(r)) for b in range(r)]
            for a in range(r)
        ]
        G = [
            [
                ((2 * l + m - 4) * xg[a][b] - (l + m - 4) * prev2[a][b]) / l
                for b in range(r)
            ]
            for a in range(r)
        ]
        yield G
        prev2, prev1 = prev1, G


def reference_gegenbauer(sd, i, first_column_only=None):
    """The criterion evaluated on full mpf matrices at the grid's
    precision, read on column 0 as ``gegenbauer`` reads it (None) or on
    every column (False)."""
    sd = mp_view(sd)
    r = sd.rank
    eps = sd.eps
    with mp.workprec(GRID_BITS):
        if max(abs(mp.im(v)) for v in sd.P[i]) > eps:
            return ConditionResult(
                "gegenbauer", "vacuous", detail={"i": i, "reason": "nonreal character row"}
            )
        bound = int(2 * max(sd.Q[0][k] for k in range(1, r)))
        detail = {"i": i, "bound": bound}
        cols = tuple(range(r)) if first_column_only is False else (0,)
        for l, G in zip(range(1, bound + 1), reference_levels(sd, i)):
            low = min(G[a][b] for a in range(r) for b in cols)
            if low < -eps:
                return ConditionResult(
                    "gegenbauer",
                    "fail",
                    witness={"i": i, "l": l, "entry": float(low)},
                    detail=detail,
                )
    return ConditionResult("gegenbauer", "pass", detail=detail)


# G_1 has a negative entry; with m = 4, G_2 = (K^2 - 2I)/2 is the first
# level below zero
GEGENBAUER_FAILS = {
    "level-one": ([[[1, 0], [0, 1]], [[-0.1, 1], [1, 1]]], (1, 2)),
    "level-two": ([[[1, 0], [0, 1]], [[0, 1], [1, 0.2]]], (1, 4)),
}


class TestGegenbauerReference:
    def check(self, sd, i, first_column_only):
        """``gegenbauer`` against the reference: the verdict and the failing
        level of the full matrix always, and with None the detail and the
        witness entry of column 0 as well."""
        got = gegenbauer(sd, i)
        whole = reference_gegenbauer(sd, i, False)
        assert got.verdict == whole.verdict
        if whole.witness is not None:
            assert got.witness["l"] == whole.witness["l"]
        if first_column_only is None:
            want = reference_gegenbauer(sd, i)
            assert got.detail == want.detail
            if want.witness is not None:
                entry = pytest.approx(want.witness["entry"], rel=1e-12, abs=1e-12)
                assert got.witness["entry"] == entry
        return got

    @pytest.mark.parametrize("name", ["sd35", "sd249", "a1_16"])
    @pytest.mark.parametrize("first_column_only", [None, False])
    def test_matches_mpf_recurrence(self, request, name, first_column_only):
        sd = request.getfixturevalue(name)
        if name == "a1_16":
            sd = full(sd)
        for i in range(1, sd.rank):
            self.check(sd, i, first_column_only)

    @pytest.mark.parametrize("name", sorted(GEGENBAUER_FAILS))
    @pytest.mark.parametrize("first_column_only", [None, False])
    def test_matches_mpf_recurrence_on_failures(self, name, first_column_only):
        tensor, Q0 = GEGENBAUER_FAILS[name]
        sd = fabricated_sd(tensor, Q0)
        res = self.check(sd, 1, first_column_only)
        assert res.verdict == "fail"
        assert res.witness["l"] == (1 if name == "level-one" else 2)

    @pytest.mark.parametrize(
        "inst",
        [complete_graph(n) for n in (4, 7, 12)]
        + [cyclic_group_table(n) for n in (3, 4, 5)]
        + [Instance(S49_MATRICES, "4S")],
        ids=["K4", "K7", "K12", "Z3", "Z4", "Z5", "s49"],
    )
    def test_column_zero_decides_like_full_matrix(self, inst):
        sd = full(inst)
        for i in range(1, sd.rank):
            self.check(sd, i, None)


class TestGegenbauerIdentity:
    """G_l(X) = sum_k G_l(X)[k][0] * L*_k for X = L*_i / m_i: every column
    of every level is the combination of Krein columns that column 0
    weights."""

    @pytest.mark.parametrize("name", ["sd35", "sd249", "a1_16", "s49"])
    def test_columns_are_krein_combinations(self, request, name):
        sd = request.getfixturevalue(name)
        sd = mp_view(full(sd) if isinstance(sd, Instance) else sd)
        r = sd.rank
        real = [i for i in range(1, r) if all(mp.im(v) == 0 for v in sd.P[i])]
        assert real == ([1] if name == "a1_16" else list(range(1, r)))
        bound = int(2 * max(sd.Q[0][1:]))
        tol = mp.mpf(2) ** -200
        with mp.workprec(GRID_BITS):
            for i in real:
                for G in itertools.islice(reference_levels(sd, i), bound):
                    scale = max(abs(v) for row in G for v in row)
                    for a in range(r):
                        for b in range(r):
                            combo = sum(G[k][0] * sd.krein[k][a][b] for k in range(r))
                            assert abs(G[a][b] - combo) <= tol * scale


# reference fixed-point recurrence: the step with two F-bit coefficients -----


def fixed_point_inputs(sd, i, first_column_only):
    """x = L*_i / m and m on the 2^-F grid as ``gegenbauer`` forms them,
    from the Krein integers and the exact multiplicity, F, and the columns
    to carry: column 0 as ``gegenbauer`` does (None) or every column
    (False)."""
    num, den = sd.multiplicities[i].numerator, sd.multiplicities[i].denominator
    x = [[(2 * v * den + num) // (2 * num) for v in row] for row in sd.krein[i]]
    mfix = ((2 * num << GRID_BITS) + den) // (2 * den)
    return x, mfix, GRID_BITS, tuple(range(sd.rank)) if first_column_only is False else (0,)


def reference_fixed_gegenbauer(x, mfix, bits, cols, bound):
    """The integer columns ``cols`` of G_1 .. G_bound, each step rounding
    (c1*xg - c2*g) / (l*2^F) to nearest with c1 = ((2l-4) << F) + m and
    c2 = ((l-4) << F) + m."""
    r = len(x)
    half = 1 << (bits - 1)
    prev2 = [[int(a == b) << bits for a in range(r)] for b in cols]
    prev1 = [[(mfix * x[a][b] + half) >> bits for a in range(r)] for b in cols]
    levels = [prev1]
    for l in range(2, bound + 1):
        c1 = ((2 * l - 4) << bits) + mfix
        c2 = ((l - 4) << bits) + mfix
        div = l << bits
        G = []
        for g1, g2 in zip(prev1, prev2):
            col = []
            for a in range(r):
                xg = (sum(x[a][t] * g1[t] for t in range(r)) + half) >> bits
                col.append((2 * (c1 * xg - c2 * g2[a]) + div) // (2 * div))
            G.append(col)
        levels.append(G)
        prev2, prev1 = prev1, G
    return levels[:bound]


class TestGegenbauerFixedPoint:
    def check(self, sd, first_column_only):
        """Column 0 of every level equals the reference's integers; with
        False the reference carries every column, and column 0 is below the
        floor at the same levels as the whole matrix."""
        view = mp_view(sd)
        for i in range(1, sd.rank):
            if max(abs(mp.im(v)) for v in view.P[i]) > view.eps:
                continue  # nonreal rows never reach the recurrence
            x, mfix, bits, cols = fixed_point_inputs(sd, i, first_column_only)
            bound = max(int(2 * max(view.Q[0][1:])), 12)
            got = list(itertools.islice(_gegenbauer_levels(x, mfix, bits), bound))
            want = reference_fixed_gegenbauer(x, mfix, bits, cols, bound)
            assert got == [G[0] for G in want]
            floor = -sd.eps
            assert [min(G0) < floor for G0 in got] == [
                min(min(col) for col in G) < floor for G in want
            ]

    @pytest.mark.parametrize("name", ["sd35", "sd249", "a1_16"])
    @pytest.mark.parametrize("first_column_only", [None, False])
    def test_same_integers_at_every_level(self, request, name, first_column_only):
        sd = request.getfixturevalue(name)
        self.check(full(sd) if name == "a1_16" else sd, first_column_only)

    @pytest.mark.parametrize("name", sorted(GEGENBAUER_FAILS))
    @pytest.mark.parametrize("first_column_only", [None, False])
    def test_same_integers_and_witness_on_failures(self, name, first_column_only):
        tensor, Q0 = GEGENBAUER_FAILS[name]
        sd = fabricated_sd(tensor, Q0)
        self.check(sd, first_column_only)
        res = gegenbauer(sd, 1)
        x, mfix, bits, _ = fixed_point_inputs(sd, 1, None)
        levels = reference_fixed_gegenbauer(x, mfix, bits, (0,), res.witness["l"])
        low = min(levels[-1][0])
        assert res.witness["entry"] == float(mp.ldexp(low, -bits))
        assert all(min(G[0]) >= -sd.eps for G in levels[:-1])


class TestBattery:
    def test_order35_all_pass(self, rep35):
        assert rep35.passed
        assert [c.verdict for c in rep35.conditions] == ["pass"] * 6

    def test_order249_passes_with_vacuous_subsets(self, rep249):
        assert rep249.passed
        verdicts = {c.name: c.verdict for c in rep249.conditions}
        assert verdicts["closed-subsets"] == "vacuous"
        assert all(
            v == "pass" for n, v in verdicts.items() if n != "closed-subsets"
        )

    def test_realizable_asymmetric_table_passes(self, a1_16):
        rep = run_battery(a1_16)
        assert rep.passed
        verdicts = {c.name: c.verdict for c in rep.conditions}
        assert verdicts["handshake"] == "vacuous"
        assert verdicts["triangle-count"] == "pass"
        assert verdicts["gegenbauer"] == "pass"

    def test_group_tables_pass(self):
        # realizable by construction; ranks 3..5 stay inside the battery's
        # factorization scope and exercise the complex-character path
        for n in (3, 4, 5):
            assert run_battery(cyclic_group_table(n)).passed

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=4, max_value=40))
    def test_complete_graphs_pass(self, n):
        assert run_battery(complete_graph(n)).passed

    def test_stop_on_fail_skips_later_conditions(self):
        rep = run_battery(TRIANGLE_FAIL)
        assert not rep.passed
        assert [c.verdict for c in rep.conditions] == [
            "pass",
            "vacuous",
            "fail",
            "skipped",
            "skipped",
            "skipped",
        ]
        assert rep.failing()[0].name == "triangle-count"

    def test_failing_report_serializes(self):
        rep = run_battery(TRIANGLE_FAIL)
        text = json.dumps(rep.as_dict())
        assert "5/6" in text

    def test_precomputed_spectral_data_matches(self, n35, sd35, rep35):
        fresh = run_battery(n35)
        assert [c.verdict for c in fresh.conditions] == [
            c.verdict for c in rep35.conditions
        ]

    def test_partial_spectral_data_refused(self, n35):
        # run_battery takes no spectra or the record krein() returns
        sd = eigenmatrix_P(n35)
        for partial in (sd, eigenmatrix_Q(sd, n35)):
            with pytest.raises(SitawimError, match="krein"):
                run_battery(n35, partial)

    def test_krein_failure_outside_column_zero_skips_gegenbauer(self):
        # kappa_{1,1,0} = (L*_1)[0][1] = -0.1 lies outside column 0, which
        # alone Gegenbauer reads: the battery must stop at Krein
        # nonnegativity, the precondition of the column-0 argument
        tensor = [[[1, 0], [0, 1]], [[0, -0.1], [1, 1]]]
        sd = fabricated_sd(tensor, (1, 2))
        rep = run_battery(cyclic_group_table(2), sd)
        assert rep["absolute-bound"].verdict == "pass"
        assert rep["krein-nonnegativity"].verdict == "fail"
        assert rep["krein-nonnegativity"].witness["j"] == 1
        assert rep["gegenbauer"].verdict == "skipped"
        # without the precondition column 0 fails later than the matrix
        assert reference_gegenbauer(sd, 1, False).witness["l"] == 1
        assert gegenbauer(sd, 1).witness["l"] == 2

    def test_traced_battery_reaches_every_krein_layer(self, n35, monkeypatch):
        # bench/tracing.py wraps these layers by module global name and
        # counts gegenbauer's detail["bound"] on a pass and witness["l"] on
        # a fail; a rename there fails here, not only in the traced
        # benchmark run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        tracing = importlib.import_module("tracing")
        tracer = tracing.Tracer()
        tensor, Q0 = GEGENBAUER_FAILS["level-two"]
        with tracing.instrumented(tracer) as calls:
            assert calls.run_battery(n35).passed
            failing = calls.run_battery(cyclic_group_table(2), fabricated_sd(tensor, Q0))
        assert failing["gegenbauer"].witness["l"] == 2
        names = {span[0] for span in tracer.spans}
        for layer in ("absolute_bound", "krein_nonneg", "gegenbauer"):
            assert f"feasibility.{layer}" in names
        # N35: four passing indices of bound 20; then the failure at level 2
        steps = tracing.layer_metrics(tracer, {})["feasibility.gegenbauer_steps"]
        assert steps == 4 * 20 + 2


class TestStructuralStar:
    def test_symmetric(self, n35):
        assert _structural_star(n35.matrices) == (0, 1, 2, 3, 4)

    def test_conjugate_pair(self, a1_16):
        assert _structural_star(a1_16.matrices) == (0, 1, 3, 2)

    def test_group_table(self):
        assert _structural_star(cyclic_group_table(6).matrices) == (
            0,
            5,
            4,
            3,
            2,
            1,
        )


# pins: hand-built records against the mpf implementation's verdicts,
# witnesses and details (tests/spectra_pins.json) --------------------------

PINS = json.loads((Path(__file__).parent / "spectra_pins.json").read_text())["fabricated"]

PINNED_RECORDS = {
    "gegenbauer-level-one": GEGENBAUER_FAILS["level-one"],
    "gegenbauer-level-two": GEGENBAUER_FAILS["level-two"],
    "krein-outside-column-zero": ([[[1, 0], [0, 1]], [[0, -0.1], [1, 1]]], (1, 2)),
    "overfull-support": ([[[1, 0], [0, 1]], [[0, 1], [1, 1]]], (1, 1)),
    "near-zero-band": ([[[1, 0], [0, 1]], [[0, 1e-18], [1, 1]]], (1, 2)),
    "negative-entry": ([[[1, 0], [0, 1]], [[-0.1, 1], [-0.2, 1]]], (1, 2)),
}


@pytest.mark.parametrize("name", sorted(PINNED_RECORDS))
def test_fabricated_records_match_the_pins(name):
    sd = fabricated_sd(*PINNED_RECORDS[name])
    pin = PINS[name]
    assert run_battery(cyclic_group_table(2), sd).as_dict() == pin["battery"]
    for key, res in (
        ("absolute_bound", absolute_bound(sd)),
        ("krein_nonneg", krein_nonneg(sd)),
        ("gegenbauer", gegenbauer(sd, 1)),
    ):
        plain = {"verdict": res.verdict, "witness": _plain(res.witness), "detail": _plain(res.detail)}
        assert plain == pin[key]
