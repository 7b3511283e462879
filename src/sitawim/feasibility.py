"""Feasibility battery for verified instances.

Six conditions, in increasing cost order: the handshake parity condition,
realizability of closed subsets and quotients, the triangle-count
integrality condition, the absolute bound, nonnegativity of the Krein
parameters, and the matrix Gegenbauer criterion.  The first three are
exact integer computations; the last three compare integers too, the Krein
tensor's values on the grid of :mod:`sitawim.spectra` and the exact
multiplicities.  ``run_battery`` produces a :class:`FeasibilityReport`
with one verdict per condition and a witness for every failure.

A verdict depends on the table alone: no condition takes a precision, a
tolerance or a bound.  The Krein-side conditions read the spectral record
on its grid and against its ``eps``, classify Krein zeros at
:data:`KREIN_ZERO_EPS`, put on that grid exactly (with the
:data:`NEAR_ZERO_BAND` warning), and run the Gegenbauer recurrence up to
2 * max multiplicity.

The Gegenbauer criterion carries column 0 of G_l(X), X = L*_i / m_i, only,
by G_l(X) = sum_k G_l(X)[k][0] * L*_k (Bannai & Ito, *Algebraic
Combinatorics I*, 1984).  Proof: L*_k is the matrix of Y -> n E_k o Y (o
the Hadamard product), so G_l(X) is Y -> F o Y, F = sum_j G_l(Q_ji/m_i) A_j,
and column 0 holds the E-coordinates c_k of F o E_0 = F / n.  The battery
stops at a Krein-nonnegativity failure, so every L*_k >= 0 there, and
column 0 decides the verdict and the failing level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import SitawimError
from .intpoly import GRID_BITS, _div, _matmul
from .spectra import SpectralData, eigenmatrix_P, eigenmatrix_Q, krein
from .structcheck import Instance, multiplicities, verify_sita
from .varietygen import InvolutionType

__all__ = [
    "ConditionResult",
    "FeasibilityReport",
    "absolute_bound",
    "closed_subsets_quotients",
    "gegenbauer",
    "handshake",
    "krein_nonneg",
    "run_battery",
    "triangle_count",
]

#: conditions in battery order (the cheap exact ones first)
CONDITIONS = (
    "handshake",
    "closed-subsets",
    "triangle-count",
    "absolute-bound",
    "krein-nonnegativity",
    "gegenbauer",
)

#: zero-detection tolerance for Krein-support classification
KREIN_ZERO_EPS = "1e-20"
#: multiplier defining the ambiguous near-zero band that downgrades a
#: verdict to "warning"
NEAR_ZERO_BAND = 10**6
# both ends of the band on the grid, rounded down: an int exceeds x
# exactly when it exceeds floor(x)
_ZERO, _BAND_TOP = (int(Fraction(KREIN_ZERO_EPS) * (s << GRID_BITS)) for s in (1, NEAR_ZERO_BAND))


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of one feasibility condition.

    ``verdict`` is one of ``pass``, ``fail``, ``skipped``, ``vacuous``, or
    ``warning``; failures always carry a ``witness``.
    """

    name: str
    verdict: str
    witness: Optional[object] = None
    detail: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.verdict in ("pass", "vacuous")


@dataclass(frozen=True)
class FeasibilityReport:
    """Battery outcome: every condition exactly once."""

    conditions: tuple[ConditionResult, ...]

    def __post_init__(self):
        names = [c.name for c in self.conditions]
        if len(names) != len(set(names)):
            raise SitawimError("duplicate condition in feasibility report")
        for c in self.conditions:
            if c.verdict == "fail" and c.witness is None:
                raise SitawimError(f"failing condition {c.name} lacks a witness")

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.conditions)

    def __getitem__(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def failing(self) -> tuple[ConditionResult, ...]:
        return tuple(c for c in self.conditions if c.verdict == "fail")

    def as_dict(self) -> dict:
        return {
            "conditions": [
                {
                    "name": c.name,
                    "verdict": c.verdict,
                    "witness": _plain(c.witness),
                    "detail": _plain(c.detail),
                }
                for c in self.conditions
            ],
        }


def _plain(value):
    """Recursively convert witnesses/details to JSON-friendly types."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_plain(v) for v in value]
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


# ---------------------------------------------------------------------------
# exact integer conditions


def _structural_star(matrices) -> tuple[int, ...]:
    """The involution read off the matrices themselves: i* is the unique j
    whose product with b_i meets the identity.  Independent of (and a
    cross-check on) any declared involution type."""
    r = len(matrices)
    star = []
    for i in range(r):
        hits = [j for j in range(r) if matrices[i][0][j]]
        if len(hits) != 1:
            raise SitawimError(f"element {i} has no unique pseudo-inverse")
        star.append(hits[0])
    if sorted(star) != list(range(r)) or any(star[star[i]] != i for i in range(r)):
        raise SitawimError("pseudo-inverse map is not an involution")
    return tuple(star)


def _induced_itype(name: str, star: Sequence[int]) -> InvolutionType:
    rank = len(star)
    return InvolutionType(name, rank, tuple(star), tuple(range(1, rank)))


def handshake(inst: Instance) -> ConditionResult:
    """Parity condition: (b_i)_{i,j} * k_j must be even for distinct
    nontrivial i, j.  Exact integers; precision-independent.

    The underlying even-degree-sum argument needs undirected graphs, so
    only self-paired (star-fixed) basis elements are constrained; tables
    with no two distinct such elements report ``vacuous``.  (The 16-point
    table with three conjugacy-paired elements of degree 5 is realizable
    yet has (b_2)_{2,3} * k_3 odd — quantifying over asymmetric elements
    would reject it wrongly.)
    """
    r = inst.rank
    star = _structural_star(inst.matrices)
    sym = [i for i in range(1, r) if star[i] == i]
    pairs = [(i, j) for i in sym for j in sym if i != j]
    if not pairs:
        return ConditionResult("handshake", "vacuous", detail={"pairs": 0})
    for i, j in pairs:
        if (inst.matrices[i][i][j] * inst.degrees[j]) % 2:
            return ConditionResult(
                "handshake",
                "fail",
                witness={
                    "i": i,
                    "j": j,
                    "entry": inst.matrices[i][i][j],
                    "degree": inst.degrees[j],
                },
            )
    return ConditionResult("handshake", "pass", detail={"pairs": len(pairs)})


def triangle_count(inst: Instance) -> ConditionResult:
    """Integrality condition: t_j = n * (b_j^3)_{0,0} / 6 must be a
    nonnegative integer for every nontrivial self-paired j.  Exact
    integer cubes.

    Only undirected graphs have 6 ordered closed walks per triangle, so
    asymmetric elements are exempt (the order-3 cyclic group table is
    realizable with n * (b_1^3)_{0,0} / 6 = 1/2); a table with none
    reports ``vacuous``.
    """
    r, n = inst.rank, inst.order
    star = _structural_star(inst.matrices)
    counts = {}
    witness = None
    for j in range(1, r):
        if star[j] != j:
            continue
        M = inst.matrices[j]
        c = _matmul(_matmul(M, M), M)[0][0]
        t = Fraction(n * c, 6)
        counts[j] = int(t) if t.denominator == 1 else t
        if witness is None and (t.denominator != 1 or t < 0):
            witness = {"j": j, "count": _plain(t)}
    if witness is not None:
        return ConditionResult(
            "triangle-count", "fail", witness=witness, detail=counts
        )
    verdict = "pass" if counts else "vacuous"
    return ConditionResult("triangle-count", verdict, detail=counts)


def _closed_subsets(inst: Instance) -> list[tuple[int, ...]]:
    """All star-closed, product-closed subsets containing the identity,
    sorted by size then lexicographically."""
    r = inst.rank
    star = _structural_star(inst.matrices)
    mats = inst.matrices
    found = []
    rest = list(range(1, r))
    for mask in range(1 << len(rest)):
        S = {0} | {rest[t] for t in range(len(rest)) if mask >> t & 1}
        if any(star[i] not in S for i in S):
            continue
        outside = [a for a in range(r) if a not in S]
        if any(mats[i][a][j] for i in S for j in S for a in outside):
            continue
        found.append(tuple(sorted(S)))
    return sorted(found, key=lambda S: (len(S), S))


def sub_instance(inst: Instance, subset: Sequence[int]) -> Instance:
    """The sub-table on a closed subset, re-indexed to 0..len-1."""
    T = tuple(sorted(subset))
    if T[0] != 0:
        raise SitawimError("a closed subset must contain the identity")
    pos = {b: i for i, b in enumerate(T)}
    mats = [
        [[inst.matrices[i][a][j] for j in T] for a in T]
        for i in T
    ]
    # closure guarantee: no products escape the subset
    outside = [a for a in range(inst.rank) if a not in pos]
    if any(inst.matrices[i][a][j] for i in T for j in T for a in outside):
        raise SitawimError("subset is not product-closed")
    star = _structural_star(inst.matrices)
    if any(star[i] not in pos for i in T):
        raise SitawimError("subset is not star-closed")
    induced = _induced_itype("sub", [pos[star[i]] for i in T])
    return Instance(mats, induced)


def quotient_data(inst: Instance, subset: Sequence[int]):
    """Coset blocks, quotient degrees, and quotient structure constants for
    a closed subset.

    Returns ``(blocks, degrees, constants)``: blocks partition the basis
    indices with the subset itself first; degrees are exact Fractions
    (block degree sum over the subset's order); ``constants[B][D][C]`` is
    the exact Fraction coefficient of block D in the product of blocks
    B and C of the quotient basis.
    """
    T = tuple(sorted(subset))
    r = inst.rank
    mats = inst.matrices
    n_T = sum(inst.degrees[t] for t in T)
    # support of (sum_{t in T} b_t) * b_i * (sum_{t' in T} b_t')
    blocks_of = {}
    for i in range(r):
        u = [sum(mats[t][a][i] for t in T) for a in range(r)]
        w = [
            sum(u[a] * sum(mats[a][c][t2] for t2 in T) for a in range(r))
            for c in range(r)
        ]
        blocks_of[i] = frozenset(c for c in range(r) if w[c])
    # merge overlapping supports into the coset partition
    blocks: list[set] = []
    for i in range(r):
        merged = set(blocks_of[i]) | {i}
        keep = []
        for B in blocks:
            if B & merged:
                merged |= B
            else:
                keep.append(B)
        keep.append(merged)
        blocks = keep
    blocks = tuple(
        sorted((tuple(sorted(B)) for B in blocks), key=lambda B: (0 not in B, B))
    )
    if blocks[0] != T:
        raise SitawimError("coset block of the identity is not the subset itself")
    degrees = tuple(
        Fraction(sum(inst.degrees[i] for i in B), n_T) for B in blocks
    )
    # B^+ C^+ (B^+ = sum_{i in B} b_i) must give every b_a, a in D, one
    # common coefficient: n_T * constants[B][D][C]
    constants = []
    for B in blocks:
        products = [
            [sum(mats[i][a][j] for i in B for j in C) for a in range(r)] for C in blocks
        ]
        plane = []
        for D in blocks:
            row = []
            for v in products:
                vals = {v[a] for a in D}
                if len(vals) != 1:
                    raise SitawimError("coset block sums do not close; not a closed subset")
                row.append(Fraction(vals.pop(), n_T))
            plane.append(tuple(row))
        constants.append(tuple(plane))
    return blocks, degrees, tuple(constants)


def closed_subsets_quotients(inst: Instance) -> ConditionResult:
    """Realizability of closed subsets and quotients: each nontrivial
    closed subset must have an integral sub-table (integer standard
    multiplicities) and a quotient with integral degrees and structure
    constants."""
    r = inst.rank
    lattice = _closed_subsets(inst)

    def fail(kind: str, subset: tuple, **found) -> ConditionResult:
        return ConditionResult(
            "closed-subsets",
            "fail",
            witness={"kind": kind, "subset": subset, **found},
            detail={"lattice": tuple(lattice)},
        )

    quotients = []
    nontrivial = [S for S in lattice if 1 < len(S) < r]
    for T in nontrivial:
        sub = sub_instance(inst, T)
        report = verify_sita(sub)
        if not report.passed:
            return fail("subtable-axioms", T, axiom=report.failing()[0].name)
        mres = multiplicities(sub)
        if not mres.integral:
            return fail("subtable-multiplicity", T, values=tuple(map(str, mres.values)))
        blocks, degrees, constants = quotient_data(inst, T)
        for B, dgr in zip(blocks, degrees):
            if dgr.denominator != 1:
                return fail("quotient-degree", T, block=B, degree=str(dgr))
        flat = [c for plane in constants for row in plane for c in row]
        bad = next((c for c in flat if c.denominator != 1), None)
        if bad is not None:
            return fail("quotient-structure", T, value=str(bad))
        quotients.append(
            {
                "subset": T,
                "blocks": tuple(blocks),
                "rank": len(blocks),
                "degrees": tuple(int(dg) for dg in degrees),
            }
        )
    verdict = "pass" if nontrivial else "vacuous"
    return ConditionResult(
        "closed-subsets",
        verdict,
        detail={"lattice": tuple(lattice), "quotients": tuple(quotients)},
    )


# ---------------------------------------------------------------------------
# Krein-tensor conditions


def _need_krein(sd: SpectralData):
    if sd.krein is None:
        raise SitawimError("condition requires the Krein tensor; run krein() first")


def absolute_bound(sd: SpectralData) -> ConditionResult:
    """For every i <= j, the multiplicities of the Krein support of
    (i, j) must fit under m_i*m_j (distinct) or m_i(m_i+1)/2 (equal).

    The support is the entries of magnitude above eps =
    :data:`KREIN_ZERO_EPS`.  Entries in the ambiguous band (eps, 10^6*eps]
    downgrade the verdict to ``warning`` because the support
    classification — and with it the verdict — could flip under a
    different tolerance.  The multiplicities are the exact ones of
    ``sd.multiplicities``, on their common denominator M, so a total equal
    to its bound passes.
    """
    _need_krein(sd)
    r = sd.rank
    M = math.lcm(*(q.denominator for q in sd.multiplicities))
    w = [q.numerator * (M // q.denominator) for q in sd.multiplicities]
    band = []
    for i in range(r):
        for j in range(i, r):
            support = [k for k in range(r) if abs(sd.krein[i][k][j]) > _ZERO]  # kappa_ijk
            band += [(i, j, k) for k in support if abs(sd.krein[i][k][j]) <= _BAND_TOP]
            # the total times M against the bound times 2 M^2
            total = sum(w[k] for k in support)
            bound = 2 * w[i] * w[j] if i != j else w[i] * (w[i] + M)
            if 2 * M * total > bound:
                sums = {"total": total / M, "bound": bound / (2 * M * M)}
                witness = {"i": i, "j": j, "support": tuple(support), **sums}
                return ConditionResult("absolute-bound", "fail", witness=witness)
    if band:
        return ConditionResult("absolute-bound", "warning", witness={"near-zero": tuple(band)})
    return ConditionResult("absolute-bound", "pass")


def krein_nonneg(sd: SpectralData) -> ConditionResult:
    """Every dual intersection number must be >= -``sd.eps``."""
    _need_krein(sd)
    r = sd.rank
    worst = None
    for i in range(r):
        for k in range(r):
            for j in range(r):
                v = sd.krein[i][k][j]
                if v < -sd.eps and (worst is None or v < worst[3]):
                    worst = (i, j, k, v)
    if worst is not None:
        i, j, k, v = worst
        witness = {"i": i, "j": j, "k": k, "value": v / (1 << GRID_BITS)}
        return ConditionResult("krein-nonnegativity", "fail", witness=witness)
    return ConditionResult("krein-nonnegativity", "pass")


def _gegenbauer_levels(x: list, mfix: int, bits: int):
    """Column 0 of G_1, G_2, ... in fixed point with ``bits`` fractional
    bits, for x and m given on that grid (see :func:`gegenbauer`), each
    level a list of ints."""
    r = len(x)
    half = 1 << (bits - 1)
    prev2 = [int(a == 0) << bits for a in range(r)]
    prev1 = [(mfix * xa[0] + half) >> bits for xa in x]
    yield prev1
    for l in itertools.count(2):
        a1, a2 = 2 * l - 4, l - 4
        lhalf = l << (bits - 1)
        G = []
        for xa, v in zip(x, prev2):
            xg = (sum(map(mul, xa, prev1)) + half) >> bits
            G.append((a1 * xg - a2 * v + ((mfix * (xg - v) + lhalf) >> bits)) // l)
        yield G
        prev2, prev1 = prev1, G


def gegenbauer(sd: SpectralData, i: int) -> ConditionResult:
    """Matrix Gegenbauer criterion for one dual index.

    Evaluates G_l(X), X = (1/m_i) L*_i, through the three-term recurrence
    G_0 = 1, G_1(x) = m*x, l*G_l(x) = (2l+m-4)*x*G_{l-1}(x) -
    (l+m-4)*G_{l-2}(x) and requires every entry to be >= -eps, with
    eps = ``sd.eps``, for l = 1..bound, where the bound is 2*max
    multiplicity.  Only column 0 is computed, by the identity
    G_l(X) = sum_k G_l(X)[k][0] * L*_k (Bannai & Ito, 1984).  Proof: in the
    basis E_0..E_{r-1}, L*_k is the matrix of Y -> n E_k o Y, so G_l(X) is
    Y -> F o Y with F = sum_j G_l(Q_ji / m_i) A_j; column 0 holds the
    coordinates c_k of F o E_0 = F / n, so F o Y = sum_k c_k n E_k o Y.
    With every L*_k >= 0, which :func:`krein_nonneg` checks before this in
    the battery, column 0 is >= 0 exactly when the whole matrix is, so it
    decides the verdict and the failing level.

    The recurrence runs on ints on the grid 2^-F, F = :data:`GRID_BITS` of
    :mod:`sitawim.spectra`, with x = L*_i / m and m rounded once to it
    from the Krein integers and the exact multiplicity.  Each step shifts
    the product x*G_{l-1} back to F bits and divides by l, both rounded to
    nearest, so the fail test compares exact integers.  With xg =
    x*G_{l-1}, g = G_{l-2}, M = m on the grid and c_s = (s << F) + M, the
    rounded step floor((c_{2l-4}*xg - c_{l-4}*g + l*2^(F-1)) / (l*2^F)) is
    ((2l-4)*xg - (l-4)*g + ((M*(xg - g) + l*2^(F-1)) >> F)) // l, by
    floor(floor(y/2^F)/l) = floor(y/(l*2^F)) for l >= 1.  Column 0 of G_l
    needs only column 0 of G_{l-1} and G_{l-2}.

    The criterion comes from an embedding into a real unit sphere, which
    exists only when the character row is real; a nonreal row reports
    ``vacuous``.  (The 16-point table with three degree-5 elements is
    realizable yet would "fail" at its conjugate-paired rows.)
    """
    _need_krein(sd)
    r = sd.rank
    if not 1 <= i < r:
        raise SitawimError(f"dual index {i} out of range for rank {r}")
    if max(abs(v) for _, v in sd.P[i]) > sd.eps:
        reason = {"i": i, "reason": "nonreal character row"}
        return ConditionResult("gegenbauer", "vacuous", detail=reason)
    m = sd.multiplicities[i]
    if m < 1:
        raise SitawimError("gegenbauer requires multiplicity >= 1")
    bound = int(2 * max(sd.multiplicities[1:]))
    detail = {"i": i, "bound": bound}
    x = [[_div(v * m.denominator, m.numerator) for v in row] for row in sd.krein[i]]
    levels = _gegenbauer_levels(x, _div(m.numerator << GRID_BITS, m.denominator), GRID_BITS)
    for l, G in zip(range(1, bound + 1), levels):
        low = min(G)
        if low < -sd.eps:
            witness = {"i": i, "l": l, "entry": low / (1 << GRID_BITS)}
            return ConditionResult("gegenbauer", "fail", witness=witness, detail=detail)
    return ConditionResult("gegenbauer", "pass", detail=detail)


def _gegenbauer_all(sd: SpectralData) -> ConditionResult:
    details = []
    ran = False
    for i in range(1, sd.rank):
        res = gegenbauer(sd, i)
        details.append(res.detail)
        ran = ran or res.verdict == "pass"
        if res.verdict == "fail":
            return ConditionResult(
                "gegenbauer", "fail", witness=res.witness, detail=tuple(details)
            )
    verdict = "pass" if ran else "vacuous"
    return ConditionResult("gegenbauer", verdict, detail=tuple(details))


# ---------------------------------------------------------------------------
# the battery


def run_battery(inst: Instance, sd: Optional[SpectralData] = None) -> FeasibilityReport:
    """All six conditions against one instance, cheap exact checks first.

    ``sd`` is None, when the battery computes the spectra itself, or the
    record :func:`sitawim.spectra.krein` returned for ``inst``.  The
    verdicts depend on the table alone; see the module docstring for the
    one configuration the Krein-side conditions run under.  As a screening
    pipeline discards an instance at its first failure, the conditions
    after the first failing one report ``skipped``.
    """
    results = [handshake(inst), closed_subsets_quotients(inst), triangle_count(inst)]
    if not any(c.verdict == "fail" for c in results):
        if sd is None:
            sd = krein(eigenmatrix_Q(eigenmatrix_P(inst), inst), inst)
        for check in (absolute_bound, krein_nonneg, _gegenbauer_all):
            results.append(check(sd))
            if results[-1].verdict == "fail":
                break
    results += [ConditionResult(name, "skipped") for name in CONDITIONS[len(results) :]]
    return FeasibilityReport(tuple(results))
