"""The benchmark's own checks accept right outputs and reject corrupted ones.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
from checks import N35_MATRICES, N249_MATRICES

# rank 4, one asymmetric pair (b2* = b3), order 16, degrees (1, 5, 5, 5)
A1_16 = [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, 5, 0, 0], [1, 0, 2, 2], [0, 2, 2, 1], [0, 2, 1, 2]],
    [[0, 0, 0, 5], [0, 2, 1, 2], [1, 2, 1, 1], [0, 1, 3, 1]],
    [[0, 0, 5, 0], [0, 2, 2, 1], [0, 1, 1, 3], [1, 2, 1, 1]],
]
N35_TABLE = (35, 4, 10, (4, 6, 12, 12), (-1, 6, -3, -3), (0, -3, 0, 0))
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def relabel(mats, p):
    """The table with basis element j renamed p[j]."""
    r = len(mats)
    out = [[[0] * r for _ in range(r)] for _ in range(r)]
    for j in range(r):
        for i in range(r):
            for k in range(r):
                out[p[j]][p[i]][p[k]] = mats[j][i][k]
    return out


def corrupt(mats, j, i, k, delta):
    bad = copy.deepcopy(mats)
    bad[j][i][k] += delta
    return bad


@pytest.mark.parametrize("mats", [N35_MATRICES, N249_MATRICES, A1_16])
def test_axioms_accept_realized_tables(mats):
    assert checks.check_axioms(mats) == []


@pytest.mark.parametrize(
    "bad",
    [
        corrupt(N35_MATRICES, 1, 1, 4, -1),  # a row no longer sums to the degree
        corrupt(corrupt(N35_MATRICES, 3, 2, 4, 1), 3, 2, 3, -1),  # row sums kept
        corrupt(N35_MATRICES, 0, 1, 1, 1),  # b_0 is not the identity
        corrupt(A1_16, 2, 2, 1, -1),  # breaks the involution and the closure
        relabel(N249_MATRICES, (0, 2, 1, 3, 4))[:4],  # wrong shape
    ],
)
def test_axioms_reject_corrupted_tables(bad):
    assert checks.check_axioms(bad) != []


def test_multiplicities():
    assert checks.check_multiplicities(N35_MATRICES, [1, 4, 10, 10, 10]) == []
    assert checks.check_multiplicities(A1_16, [1, 5, 5, 5]) == []
    assert checks.check_multiplicities(N249_MATRICES, [1, 62, 62, 62, 62]) == []
    assert checks.check_multiplicities(N35_MATRICES, [1, 4, 10, 10, 9]) != []
    assert checks.check_multiplicities(N35_MATRICES, [1, 6, 8, 10, 10]) != []
    assert checks.check_multiplicities(A1_16, [1, 3, 6, 6]) != []


def test_cyclotomy():
    assert checks.check_cyclotomic(N35_MATRICES, False) == []
    assert checks.check_cyclotomic(N249_MATRICES, False) == []
    assert checks.check_cyclotomic(A1_16, True) == []
    assert checks.check_cyclotomic(N35_MATRICES, True) != []
    assert checks.check_cyclotomic(A1_16, False) != []


def test_relabeling_found_and_refused():
    p = (0, 3, 1, 4, 2)
    moved = relabel(N249_MATRICES, p)
    found = checks.relabeling(N249_MATRICES, moved)
    assert found is not None and relabel(N249_MATRICES, found) == moved
    assert checks.relabeling(corrupt(moved, 1, 1, 1, 1), N249_MATRICES) is None
    assert checks.relabeling(N35_MATRICES, N249_MATRICES) is None


def test_rational_table():
    assert checks.check_table(*N35_TABLE) == []
    n, m1, m2, delta, a, t = N35_TABLE
    for bad in [
        (n + 1, m1, m2, delta, a, t),
        (n, m1 + 3, m2 - 1, delta, a, t),
        (n, m1, m2, (4, 6, 11, 13), a, t),
        (n, m1, m2, delta, (-1, 6, -2, -4), t),
        (n, m1, m2, delta, (-5, 6, -3, 1), t),
        (n, m1, m2, delta, a, (0, -3, 1, -1)),
    ]:
        assert checks.check_table(*bad) != [], bad


def reference_round(workload):
    """A round whose outputs are exactly the stored reference."""
    ref = REFERENCE[workload]
    return SimpleNamespace(
        statuses=[{label: dict(s["statuses"]) for label, s in ref["searches"].items()}],
        passes=[
            [(label, copy.deepcopy(e)) for label, s in ref["searches"].items() for e in s["entries"]]
        ],
        tables=[SimpleNamespace(n=n, m1=m1, m2=m2, delta=d, a=a, t=t) for n, m1, m2, d, a, t in ref.get("tables", [])],
        errors=[],
    )


def test_round_checker_counts_and_rejects():
    check = checks.RoundChecker("rank5-pseudocyclic", REFERENCE)
    rnd = reference_round("rank5-pseudocyclic")
    attempted, failed, wrong, _ = check(rnd)
    assert (attempted, failed, wrong) == (64 + 1 + 230 + 7, 0, [])

    capped = reference_round("rank5-pseudocyclic")
    capped.statuses[0]["5A2"]["empty"] -= 2
    capped.statuses[0]["5A2"]["cap"] = 2
    assert check(capped)[1:3] == (2, [])

    twice = reference_round("rank5-pseudocyclic")
    twice.statuses.append(copy.deepcopy(twice.statuses[0]))
    del twice.statuses[0]["5A2"]  # raised in the first of two search passes
    assert check(twice)[:3] == (2 * (64 + 230) + 1 + 7, 230, [])

    raised = reference_round("rank5-pseudocyclic")
    del raised.statuses[0]["5S"]
    raised.passes = [[(label, e) for label, e in raised.passes[0] if label != "5S"]]
    assert check(raised)[1:3] == (65, [])

    disagree = reference_round("rank5-pseudocyclic")
    disagree.passes[0][0][1]["multiplicities"] = [1, 31, 62, 62, 93]
    assert check(disagree)[1] == 1

    mislabeled = reference_round("rank5-pseudocyclic")
    mislabeled.passes[0][0][1]["cyclotomic"] = True  # sympy disagrees: a failure
    mislabeled.passes[0][1][1]["battery"]["gegenbauer"] = "fail"  # differs from the reference
    _, failed, wrong, _ = check(mislabeled)
    assert failed == 1 and wrong


def test_paper_properties():
    entries = {label: s["entries"] for label, s in REFERENCE["rank4-pseudocyclic"]["searches"].items()}
    assert checks.paper_properties(entries) == []
    short = copy.deepcopy(entries)
    short["4A1"].pop(2)
    assert checks.paper_properties(short) != []
    noncyclotomic = copy.deepcopy(entries)
    noncyclotomic["4S"][5]["cyclotomic"] = False
    assert checks.paper_properties(noncyclotomic) != []
    table = {"5S-table": [{"order": 35, "cyclotomic": False, "matrices": relabel(N35_MATRICES, (0, 2, 1, 4, 3))}]}
    assert checks.paper_properties(table) == []
    table["5S-table"][0]["matrices"] = N249_MATRICES
    assert checks.paper_properties(table) != []


def test_table35_tables_are_checked():
    check = checks.RoundChecker("table35", REFERENCE)
    assert check(reference_round("table35"))[2] == []
    rnd = reference_round("table35")
    rnd.tables[3].t = (0, 0, 0, -3)
    assert check(rnd)[2] != []
