"""Output checks made apart from the package.

None of these calls into ``sitawim``: the axioms are re-checked in plain
integers, multiplicities come from a numpy eigendecomposition, the
cyclotomy verdict from sympy's ``factor_list`` and ``galois_group``, the
order-35 and order-249 tables are matched to hand-checked matrices by a
permutation search of our own, and rational character tables are
re-validated from their orthogonality relations.  Each check returns a
list of problems, empty when the output is right.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import sympy
from sympy.polys.numberfields.galoisgroups import galois_group

_I5 = [[1 if i == j else 0 for j in range(5)] for i in range(5)]

# Hand-checked regular matrices, (M_j)[i][k] = coefficient of b_i in b_j b_k.
N35_MATRICES = [
    _I5,
    [[0, 4, 0, 0, 0], [1, 0, 0, 0, 3], [0, 0, 0, 2, 2], [0, 0, 1, 2, 1], [0, 1, 1, 1, 1]],
    [[0, 0, 6, 0, 0], [0, 0, 0, 3, 3], [1, 0, 5, 0, 0], [0, 1, 0, 2, 3], [0, 1, 0, 3, 2]],
    [[0, 0, 0, 12, 0], [0, 0, 3, 6, 3], [0, 2, 0, 4, 6], [1, 2, 2, 4, 3], [0, 1, 3, 3, 5]],
    [[0, 0, 0, 0, 12], [0, 3, 3, 3, 3], [0, 2, 0, 6, 4], [0, 1, 3, 3, 5], [1, 1, 2, 5, 3]],
]
N249_MATRICES = [
    _I5,
    [[0, 62, 0, 0, 0], [1, 15, 14, 12, 20], [0, 14, 16, 17, 15], [0, 12, 17, 18, 15], [0, 20, 15, 15, 12]],
    [[0, 0, 62, 0, 0], [0, 14, 16, 17, 15], [1, 16, 18, 16, 11], [0, 17, 16, 11, 18], [0, 15, 11, 18, 18]],
    [[0, 0, 0, 62, 0], [0, 12, 17, 18, 15], [0, 17, 16, 11, 18], [1, 18, 11, 18, 14], [0, 15, 18, 14, 15]],
    [[0, 0, 0, 0, 62], [0, 20, 15, 15, 12], [0, 15, 11, 18, 18], [0, 15, 18, 14, 15], [1, 12, 18, 15, 16]],
]


def _star(mats) -> list[int]:
    """b_j* is the one b_k with a nonzero b_0 coefficient in b_j b_k."""
    r = len(mats)
    star = []
    for j in range(r):
        hits = [k for k in range(r) if mats[j][0][k]]
        if len(hits) != 1:
            return []
        star.append(hits[0])
    return star


def check_axioms(mats) -> list[str]:
    """The standard table-algebra axioms, in plain integers."""
    r = len(mats)
    if any(len(m) != r or any(len(row) != r for row in m) for m in mats):
        return ["not r square matrices of size r"]
    bad = []
    if any(not isinstance(v, int) or v < 0 for m in mats for row in m for v in row):
        bad.append("an entry is not a nonnegative integer")
    if mats[0] != [[int(i == k) for k in range(r)] for i in range(r)]:
        bad.append("b_0 is not the identity")
    if any(mats[j][i][0] != int(i == j) for j in range(r) for i in range(r)):
        bad.append("b_j b_0 != b_j")
    star = _star(mats)
    if not star or any(star[star[j]] != j for j in range(r)) or star[0] != 0:
        return bad + ["no involution"]
    deg = [mats[j][0][star[j]] for j in range(r)]
    if any(d <= 0 for d in deg):
        bad.append("a degree is not positive")
    lam = lambda j, k, i: mats[j][i][k]  # coefficient of b_i in b_j b_k
    rng = range(r)
    if any(lam(j, k, i) != lam(k, j, i) for j in rng for k in rng for i in rng):
        bad.append("not commutative")
    if any(lam(star[j], star[k], star[i]) != lam(j, k, i) for j in rng for k in rng for i in rng):
        bad.append("the involution is not an anti-automorphism")
    if any(sum(lam(j, k, i) * deg[i] for i in rng) != deg[j] * deg[k] for j in rng for k in rng):
        bad.append("the degree map is not a homomorphism")
    if any(
        lam(j, k, i) * deg[i] != lam(i, star[k], j) * deg[j] for j in rng for k in rng for i in rng
    ):
        bad.append("lambda(j,k,i) d_i != lambda(i,k*,j) d_j")
    for j in rng:
        for k in rng:
            prod = [[sum(mats[j][a][c] * mats[k][c][b] for c in rng) for b in rng] for a in rng]
            combo = [[sum(lam(j, k, i) * mats[i][a][b] for i in rng) for b in rng] for a in rng]
            if prod != combo:
                bad.append(f"M_{j} M_{k} is not the product in the basis")
                return bad
    return bad


def numpy_multiplicities(mats) -> list[int]:
    """Multiplicities m = n / sum_j |chi(b_j)|^2 / d_j over the common
    eigenvectors of the regular matrices, from a numpy eigendecomposition
    of a fixed generic combination."""
    A = [np.array(m, dtype=float) for m in mats]
    r = len(A)
    star = _star(mats)
    deg = [mats[j][0][star[j]] for j in range(r)]
    n = sum(deg)
    weights = [1.0] + [np.sqrt(p) for p in (2, 3, 5, 7, 11, 13)[: r - 1]]
    generic = sum(w * a for w, a in zip(weights, A))
    _, vecs = np.linalg.eig(generic)
    mults = []
    for col in range(r):
        v = vecs[:, col]
        chi = [np.vdot(v, a @ v) / np.vdot(v, v) for a in A]
        mults.append(n / sum(abs(c) ** 2 / d for c, d in zip(chi, deg)))
    rounded = [round(m) for m in mults]
    if any(abs(m - q) > 1e-6 * n for m, q in zip(mults, rounded)):
        return sorted(mults)
    return sorted(rounded)


def check_multiplicities(mats, claimed) -> list[str]:
    got = numpy_multiplicities(mats)
    if sorted(Fraction(c) for c in claimed) != got:
        return [f"multiplicities {claimed} but numpy gives {got}"]
    return []


def sympy_cyclotomic(mats) -> bool:
    """Every eigenvalue of every b_j is cyclotomic iff every irreducible
    factor of every characteristic polynomial has an abelian Galois group."""
    x = sympy.Symbol("x")
    for m in mats[1:]:
        _, factors = sympy.factor_list(sympy.Matrix(m).charpoly(x).as_expr(), x)
        for f, _ in factors:
            poly = sympy.Poly(f, x)
            if poly.degree() >= 2 and not galois_group(poly)[0].is_abelian:
                return False
    return True


def check_cyclotomic(mats, claimed: bool) -> list[str]:
    got = sympy_cyclotomic(mats)
    if got != claimed:
        return [f"cyclotomic={claimed} but sympy says {got}"]
    return []


def relabeling(mats, target) -> tuple[int, ...] | None:
    """A permutation p fixing 0 with target[p j][p i][p k] == mats[j][i][k]
    for all j, i, k, or None."""
    r = len(mats)
    if len(target) != r:
        return None
    for tail in itertools.permutations(range(1, r)):
        p = (0,) + tail
        if all(
            target[p[j]][p[i]][p[k]] == mats[j][i][k]
            for j in range(r)
            for i in range(r)
            for k in range(r)
        ):
            return p
    return None


def check_table(n, m1, m2, delta, a, t) -> list[str]:
    """Orthogonality and integrality of a rationalized character table with
    rows (1; delta), (m1; a) and the fused row (3 m2; t)."""
    bad = []
    if len(delta) != 4 or len(a) != 4 or len(t) != 4:
        return ["not four columns"]
    if m1 < 1 or m2 < 1 or any(d < 1 for d in delta):
        bad.append("a multiplicity or a degree is not positive")
    if 1 + sum(delta) != n:
        bad.append("degrees do not sum to n")
    if 1 + m1 + 3 * m2 != n:
        bad.append("multiplicities do not sum to n")
    if any(abs(aj) > d or abs(tj) > 3 * d for aj, tj, d in zip(a, t, delta)):
        bad.append("a character value exceeds its degree")
    # columns (degree-1 character and its mates) against the trivial column
    if any(d + m1 * aj + m2 * tj != 0 for d, aj, tj in zip(delta, a, t)):
        bad.append("column orthogonality fails")
    # rows, with the b_0 column (1, 1, 3) included: <x, y> = sum x_j y_j / d_j
    inner = lambda x0, x, y0, y: x0 * y0 + sum(Fraction(u * v, d) for u, v, d in zip(x, y, delta))
    if inner(1, delta, 1, a) != 0 or inner(1, delta, 3, t) != 0:
        bad.append("a row is not orthogonal to the degree row")
    if inner(1, a, 3, t) != 0:
        bad.append("the two nontrivial rows are not orthogonal")
    if inner(1, a, 1, a) * m1 != n:
        bad.append("the rational row's norm is not n/m1")
    if inner(3, t, 3, t) * m2 != 3 * n:
        bad.append("the fused row's norm is not 3n/m2")
    return bad


# ---------------------------------------------------------------------------
# checking a round against the paper and the stored reference


def _one_fixture(found: list, order: int, target) -> list[str]:
    done = [e for e in found if e is not None]
    if len(found) != 1 or [e["order"] for e in done] not in ([], [order]):
        return [f"expected one entry of order {order}, got {[e and e['order'] for e in found]}"]
    bad = []
    for e in done:
        if e["cyclotomic"]:
            bad.append(f"the order-{order} entry is cyclotomic")
        if relabeling(e["matrices"], target) is None:
            bad.append(f"the order-{order} entry is no relabeling of the hand-checked table")
    return bad


def paper_properties(entries: dict[str, list]) -> list[str]:
    """The paper's results, on the searches that completed: every rank-4
    and every 5A2 entry is cyclotomic, the order-249 and order-35 entries
    are not, and the 4A1 prefix k1 <= 40 gives orders 4, 16, 64, 100."""
    bad = []
    for label in ("4S", "4A1", "5A2"):
        if any(e is not None and not e["cyclotomic"] for e in entries.get(label, ())):
            bad.append(f"a {label} entry is not cyclotomic")
    if "4A1" in entries:
        prefix = [e["order"] for e in entries["4A1"] if e is not None and e["degrees"][1] <= 40]
        if None not in entries["4A1"] and prefix != [4, 16, 64, 100]:
            bad.append(f"the 4A1 prefix k1 <= 40 gives orders {prefix}")
    if "5S" in entries:
        bad += _one_fixture(entries["5S"], 249, N249_MATRICES)
    if "5S-table" in entries:
        bad += _one_fixture(entries["5S-table"], 35, N35_MATRICES)
    return bad


def independent(entry: dict) -> list[str]:
    """Every check made apart from the package, on one certified entry."""
    mats = entry["matrices"]
    return (
        check_axioms(mats)
        + check_multiplicities(mats, entry["multiplicities"])
        + check_cyclotomic(mats, entry["cyclotomic"])
    )


def table_row(tb) -> list:
    return [tb.n, tb.m1, tb.m2, list(tb.delta), list(tb.a), list(tb.t)]


class RoundChecker:
    """Counts the operations of a round and the failed ones, and lists what
    is wrong in the outputs of the rest.

    An operation is one grid point settled or one catalog entry certified,
    in each search or certification pass.  A point fails if it ends ``cap``
    or its search raised; an entry fails if it raised, if its search raised
    in the last search pass, or if an independent check disagrees with it.  Outputs that
    differ from the stored reference or break a paper property are wrong.
    The independent checks run once per distinct output.
    """

    def __init__(self, workload: str, reference: dict) -> None:
        self.ref = reference[workload]
        self._verdicts: dict[str, list[str]] = {}

    def _independent(self, entry: dict) -> list[str]:
        key = repr(entry)
        if key not in self._verdicts:
            self._verdicts[key] = independent(entry)
        return self._verdicts[key]

    def __call__(self, rnd) -> tuple[int, int, list[str], list[str]]:
        attempted = failed = 0
        wrong: list[str] = []
        failures: list[str] = list(rnd.errors)
        passes = len(rnd.passes)
        completed: list[dict[str, list]] = [{} for _ in rnd.passes]
        for label, want in self.ref["searches"].items():
            n_points = sum(want["statuses"].values())
            for statuses in rnd.statuses:
                attempted += n_points
                got = statuses.get(label)
                if got is None:
                    failed += n_points
                    continue
                failed += max(0, n_points - sum(v for s, v in got.items() if s != "cap"))
                if not got.get("cap") and dict(got) != want["statuses"]:
                    wrong.append(f"{label}: point statuses {dict(got)}, expected {want['statuses']}")
            attempted += len(want["entries"]) * passes
            if label not in rnd.statuses[-1]:  # the certified catalog lacks this search
                failed += len(want["entries"]) * passes
                continue
            for entries, done in zip(rnd.passes, completed):
                found = [e for lab, e in entries if lab == label]
                done[label] = found
                if len(found) != len(want["entries"]):
                    wrong.append(f"{label}: {len(found)} entries, expected {len(want['entries'])}")
                for idx, (entry, expected) in enumerate(zip(found, want["entries"])):
                    disagree = entry is None or self._independent(entry)
                    if disagree:
                        failed += 1
                        found[idx] = None  # the paper's properties speak of the rest
                        if entry is not None:
                            failures.append(f"{label} entry of order {entry['order']}: {disagree}")
                    elif entry != expected:
                        wrong.append(f"{label} entry of order {entry['order']} differs from the reference")
        for done in completed:
            wrong += [p for p in paper_properties(done) if p not in wrong]
        if "tables" in self.ref and "5S-table" in rnd.statuses[-1]:
            rows = [table_row(tb) for tb in rnd.tables]
            if rows != self.ref["tables"]:
                wrong.append(f"{len(rows)} rational tables differ from the {len(self.ref['tables'])} stored")
            key = repr(rows)
            if key not in self._verdicts:
                self._verdicts[key] = [f"{row}: {p}" for row in rows for p in check_table(*row)]
            wrong += self._verdicts[key]
        return attempted, failed, wrong, failures
