"""Grid-search and zero-dimensional-solving tests.

The binding fixtures: the rank-4 antisymmetric family's hit list under the
pseudocyclic assumption (closed form from the discriminant condition
16*x5 + 9 = s^2), and the recovery of the order-249 table from the narrow
rank-5 window at m = 62.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from _fixtures import A1_16_MATRICES, N35_MATRICES, N249_MATRICES
from sitawim.errors import PositiveDimensionalError, SitawimError
from sitawim.exactpoly import Ring, format_poly
from sitawim.solver import (
    GridAxis,
    SearchConfig,
    SimplexSpec,
    Solution,
    WindowSpec,
    _prepare,
    canonical_form,
    run_search,
    specialize_and_solve,
)
from sitawim.structcheck import Instance
from sitawim.varietygen import RationalCharTable

N35 = Instance(N35_MATRICES, itype="5S")
N249 = Instance(N249_MATRICES, itype="5S")
A1_16 = Instance(A1_16_MATRICES, itype="4A1")


def _relabel(mats, perm):
    r = len(mats)
    inv = [0] * r
    for j, pj in enumerate(perm):
        inv[pj] = j
    return tuple(
        tuple(tuple(mats[inv[j]][inv[i]][inv[k]] for k in range(r)) for i in range(r))
        for j in range(r)
    )


class TestGridGeometry:
    def test_axis_values(self):
        assert GridAxis("m", 2, 10, step=2).values() == [2, 4, 6, 8, 10]
        assert GridAxis("m", 5, 4).values() == []

    def test_axis_congruence(self):
        axis = GridAxis("m", 1, 10, congruence=(3, 2))
        assert axis.values() == [2, 5, 8]

    def test_axis_congruence_normalized(self):
        assert GridAxis("m", 0, 6, congruence=(3, -1)).values() == [2, 5]

    def test_axis_rejects_bad_step_and_modulus(self):
        with pytest.raises(SitawimError):
            GridAxis("m", 0, 5, step=0)
        with pytest.raises(SitawimError):
            GridAxis("m", 0, 5, congruence=(0, 0))

    def test_window_values(self):
        # ten percent around 62/4 = 15.5 spans [13.95, 17.05]
        assert WindowSpec(("x1",), anchor="m").values(62) == [14, 15, 16, 17]

    def test_window_clamps_at_zero(self):
        assert WindowSpec(("x1",), percent=200).values(4) == [0, 1, 2, 3]

    def test_window_validation(self):
        with pytest.raises(SitawimError):
            WindowSpec(())
        with pytest.raises(SitawimError):
            WindowSpec(("x1",), percent=-1)

    def test_simplex_points(self):
        pts = list(SimplexSpec(("a", "b")).points(3))
        assert len(pts) == 10
        assert all(sum(p) <= 3 and min(p) >= 0 for p in pts)
        assert pts == sorted(pts)

    def test_simplex_empty_below_zero(self):
        assert list(SimplexSpec(("a",)).points(-1)) == []


class TestSearchConfig:
    def test_rejects_unknown_type(self):
        with pytest.raises(SitawimError):
            SearchConfig(itype="6X")

    def test_rejects_duplicate_names(self):
        with pytest.raises(SitawimError):
            SearchConfig(
                itype="5S",
                grid=(GridAxis("m", 0, 1), GridAxis("m", 0, 1)),
            )
        with pytest.raises(SitawimError):
            SearchConfig(
                itype="5S",
                grid=(GridAxis("x1", 0, 1),),
                window=WindowSpec(("x1",), anchor="x1"),
            )

    def test_anchor_must_be_an_axis(self):
        with pytest.raises(SitawimError):
            SearchConfig(itype="5S", window=WindowSpec(("x1",), anchor="m"))

    def test_rejects_bad_workers(self):
        with pytest.raises(SitawimError):
            SearchConfig(itype="5S", workers=0)

    def test_enumerated_names_order(self):
        cfg = SearchConfig(
            itype="5S",
            grid=(GridAxis("m", 62, 62),),
            window=WindowSpec(("x1", "x2"), anchor="m"),
            simplex=SimplexSpec(("x3",), anchor="m"),
        )
        assert cfg.enumerated_names() == ["m", "x1", "x2", "x3"]


class TestSolution:
    def test_mapping_round_trip(self):
        sol = Solution({"b": 2, "a": 1})
        assert sol.as_dict() == {"a": 1, "b": 2}
        assert sol["b"] == 2
        with pytest.raises(KeyError):
            sol["c"]

    def test_suitability(self):
        assert Solution({"x1": 0, "m": 1}).is_suitable(("m",))
        assert not Solution({"x1": -1, "m": 5}).is_suitable(("m",))
        assert not Solution({"x1": 3, "m": 0}).is_suitable(("m",))
        # without degree symbols only nonnegativity is required
        assert Solution({"x1": 0}).is_suitable()


class TestSpecializeAndSolve:
    def test_single_linear(self):
        ring = Ring("x")
        sols = specialize_and_solve([ring.var("x") - 2], {})
        assert [s.as_dict() for s in sols] == [{"x": 2}]

    def test_final_quadratic_at_5(self):
        ring = Ring("x5 k1")
        x5, k1 = ring.var("x5"), ring.var("k1")
        f = 36 * x5**2 - 24 * x5 * k1 + 4 * k1**2 + 32 * x5 - 11 * k1 + 7
        sols = specialize_and_solve([f], {"k1": 5})
        assert [s.as_dict() for s in sols] == [{"k1": 5, "x5": 1}]

    def test_final_quadratic_at_21(self):
        ring = Ring("x5 k1")
        x5, k1 = ring.var("x5"), ring.var("k1")
        f = 36 * x5**2 - 24 * x5 * k1 + 4 * k1**2 + 32 * x5 - 11 * k1 + 7
        sols = specialize_and_solve([f], {"k1": 21})
        assert [s.as_dict() for s in sols] == [{"k1": 21, "x5": 7}]

    def test_trivial_ideal_gives_empty_list(self):
        ring = Ring("x")
        x = ring.var("x")
        assert specialize_and_solve([x, x - 1], {}) == []

    def test_contradicted_partial_gives_empty_list(self):
        ring = Ring("x")
        assert specialize_and_solve([ring.var("x") - 2], {"x": 3}) == []

    def test_fully_substituted_system(self):
        ring = Ring("x")
        sols = specialize_and_solve([ring.var("x") - 2], {"x": 2})
        assert [s.as_dict() for s in sols] == [{"x": 2}]

    def test_no_polynomials(self):
        sols = specialize_and_solve([], {"m": 7})
        assert [s.as_dict() for s in sols] == [{"m": 7}]

    def test_positive_dimensional_raises(self):
        ring = Ring("x y")
        f = ring.var("x") * ring.var("y") - 1
        with pytest.raises(PositiveDimensionalError):
            specialize_and_solve([f], {})

    def test_skips_rational_roots(self):
        ring = Ring("x")
        x = ring.var("x")
        sols = specialize_and_solve([(2 * x - 1) * (x - 3)], {})
        assert [s.as_dict() for s in sols] == [{"x": 3}]

    def test_two_variable_triangular_system(self):
        ring = Ring("x y")
        x, y = ring.var("x"), ring.var("y")
        sols = specialize_and_solve([x**2 - 4, y - x - 1], {})
        assert [s.as_dict() for s in sols] == [{"x": -2, "y": -1}, {"x": 2, "y": 3}]

    @settings(deadline=None, max_examples=60)
    @given(
        roots=st.lists(st.integers(-30, 30), min_size=1, max_size=3, unique=True),
        shift=st.booleans(),
    )
    def test_recovers_planted_integer_roots(self, roots, shift):
        ring = Ring("x")
        x = ring.var("x")
        f = x**0
        for r in roots:
            f = f * (x - r)
        if shift:
            f = f * (x**2 + 1)  # irreducible tail must not add roots
        sols = specialize_and_solve([f], {})
        assert [s["x"] for s in sols] == sorted(roots)


class TestCanonicalForm:
    def test_idempotent(self):
        canon = canonical_form(N35)
        assert canonical_form(canon).matrices == canon.matrices

    def test_permuted_copy_has_same_form(self):
        twin = Instance(_relabel(N35_MATRICES, (0, 1, 2, 4, 3)), itype="5S")
        assert canonical_form(twin).matrices == canonical_form(N35).matrices

    def test_respects_star_pairing(self):
        # the conjugate pair may swap; the symmetric element may not move
        twin = Instance(_relabel(A1_16_MATRICES, (0, 1, 3, 2)), itype="4A1")
        assert canonical_form(twin).matrices == canonical_form(A1_16).matrices

    def test_multiplicities_travel_with_the_relabeling(self):
        inst = N35.with_multiplicities((1, 4, 10, 10, 10))
        canon = canonical_form(inst)
        assert sorted(canon.multiplicities) == [1, 4, 10, 10, 10]
        assert canon.multiplicities[0] == 1

    @settings(deadline=None, max_examples=20)
    @given(tail=st.permutations(list(range(1, 5))))
    def test_constant_on_equivalence_classes(self, tail):
        twin = Instance(_relabel(N249_MATRICES, (0, *tail)), itype="5S")
        assert canonical_form(twin).matrices == canonical_form(N249).matrices


class TestRunSearch:
    def test_rank4_antisymmetric_hit_list(self):
        cfg = SearchConfig(
            itype="4A1",
            assumption="pseudocyclic",
            grid=(GridAxis("k1", 1, 40),),
        )
        out = run_search(cfg)
        assert [inst.order for inst in out] == [4, 16, 64, 100]
        assert all(inst.degrees == (1,) + (inst.degrees[1],) * 3 for inst in out)
        assert [inst.degrees[1] for inst in out] == [1, 5, 21, 33]

    def test_determinism(self):
        cfg = SearchConfig(
            itype="4A1",
            assumption="pseudocyclic",
            grid=(GridAxis("k1", 1, 21),),
        )
        assert run_search(cfg) == run_search(cfg)

    def test_parallel_matches_serial(self, caplog):
        base = dict(
            itype="4A1",
            assumption="pseudocyclic",
            grid=(GridAxis("k1", 1, 21),),
        )
        catalogs, logs = [], []
        for workers in (1, 2):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="sitawim.solver"):
                catalogs.append(run_search(SearchConfig(**base, workers=workers)))
            logs.append([m for m in caplog.messages if m.startswith("point=")])
        assert catalogs[1] == catalogs[0]
        assert len(logs[0]) == 21
        assert logs[1] == logs[0]

    def test_congruence_filter_restricts_the_sweep(self, caplog):
        cfg = SearchConfig(
            itype="4A1",
            assumption="pseudocyclic",
            grid=(GridAxis("k1", 1, 10, congruence=(2, 1)),),
        )
        with caplog.at_level(logging.INFO, logger="sitawim.solver"):
            out = run_search(cfg)
        assert [inst.degrees[1] for inst in out] == [1, 5]
        swept = [m.split()[0] for m in caplog.messages if m.startswith("point=")]
        assert swept == [f"point=k1={v}" for v in (1, 3, 5, 7, 9)]

    def test_log_line_format(self, caplog):
        cfg = SearchConfig(
            itype="4A1",
            assumption="pseudocyclic",
            grid=(GridAxis("k1", 2, 3),),
        )
        with caplog.at_level(logging.INFO, logger="sitawim.solver"):
            run_search(cfg)
        assert caplog.messages == [
            "point=k1=2 status=empty",
            "point=k1=3 status=empty",
        ]

    def test_no_axes_is_an_empty_search(self):
        assert run_search(SearchConfig(itype="4A1", assumption="pseudocyclic")) == []

    def test_empty_range_is_an_empty_search(self):
        cfg = SearchConfig(
            itype="4A1",
            assumption="pseudocyclic",
            grid=(GridAxis("k1", 5, 4),),
        )
        assert run_search(cfg) == []

    def test_underdetermined_point_reports_posdim(self, caplog):
        cfg = SearchConfig(
            itype="5S",
            assumption="pseudocyclic",
            grid=(GridAxis("m", 62, 62),),
        )
        with caplog.at_level(logging.WARNING, logger="sitawim.solver"):
            out = run_search(cfg)
        assert out == []
        assert "point=m=62 status=posdim" in caplog.messages

    def test_resource_cap_reports_cap(self, caplog):
        cfg = SearchConfig(
            itype="4A1",
            assumption="pseudocyclic",
            grid=(GridAxis("k1", 5, 5),),
            max_degree=1,
        )
        with caplog.at_level(logging.WARNING, logger="sitawim.solver"):
            out = run_search(cfg)
        assert out == []
        assert "point=k1=5 status=cap" in caplog.messages

    def test_narrow_window_recovers_order_249(self):
        cfg = SearchConfig(
            itype="5S",
            assumption="pseudocyclic",
            grid=(GridAxis("m", 62, 62),),
            window=WindowSpec(("x1", "x2", "x3"), anchor="m"),
        )
        out = run_search(cfg)
        assert len(out) == 1
        found = out[0]
        assert found.order == 249
        assert found.degrees == (1, 62, 62, 62, 62)
        assert found.matrices == canonical_form(N249).matrices


# The n = 35 rationalized table that drives the order-35 search.
N35_TABLE = RationalCharTable(35, 4, 10, (4, 6, 12, 12), (-1, 6, -3, -3), (0, -3, 0, 0))

PREPARE_PINS = json.loads((Path(__file__).parent / "prepare_pins.json").read_text())

PREPARE_CONFIGS = {
    "5S-pseudocyclic": SearchConfig(
        itype="5S",
        assumption="pseudocyclic",
        grid=(GridAxis("m", 62, 62),),
        window=WindowSpec(("x1", "x2", "x3"), anchor="m"),
    ),
    "5S-n35-table": SearchConfig(
        itype="5S",
        assumption=N35_TABLE,
        grid=(GridAxis("x22", 5, 7), GridAxis("x23", 2, 4), GridAxis("x24", 4, 6)),
    ),
}


@pytest.mark.parametrize("label", sorted(PREPARE_CONFIGS))
def test_prepared_system_matches_pinned_text(label):
    """The reduced system and the elimination chain, as printed, are pinned
    to the output of the rewrite-everything linear elimination."""
    prep = _prepare(PREPARE_CONFIGS[label])
    assert [format_poly(p) for p in prep.polys] == PREPARE_PINS[label]["polys"]
    assert [[name, format_poly(r)] for name, r in prep.chain] == PREPARE_PINS[label]["chain"]
