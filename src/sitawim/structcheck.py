"""Exact verification and classification of realized tables.

A realized table is a family of nonnegative-integer regular matrices
``b_0..b_{r-1}`` (``b_0`` the identity) whose entries are the structure
constants of a commutative based algebra.  This module checks the defining
axioms exactly, solves for the standard-module multiplicities as exact
rationals, and decides whether every eigenvalue is cyclotomic.  The
univariate work underneath (characteristic polynomials, factorization over
the integers, Galois classes of the factors) lives in
:mod:`sitawim.intpoly`; its names are imported from there, not from here.
So is the one integer matrix product, :func:`sitawim.intpoly._matmul`,
which the commutation check and the power sums use here.

One orbit solve (:func:`_orbit_solve`) finds a squarefree generator, the
factors of its characteristic polynomial and one exact multiplicity per
factor; :func:`multiplicities` lists them by character, and
:func:`sitawim.spectra.eigenmatrix_P` stores them by character row.

Everything here is integer or rational arithmetic end to end: the whole
point of the multiplicity and cyclotomy verdicts is that no rounding step
gets to decide them.

Conventions shared with :mod:`sitawim.varietygen`: ``(M_j)[i][k]`` is the
coefficient of ``b_i`` in ``b_j b_k``, row sums of ``M_j`` equal the degree
``k_j``, row 0 carries ``k_j`` in column ``j*``, and column 0 is the
indicator of row ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import SitawimError
from .intpoly import IntPoly, _matmul, _poly_gcd_degree, charpoly, factor_int_poly, galois_class
from .varietygen import INVOLUTION_TYPES, InvolutionType

__all__ = [
    "AxiomCheck",
    "AxiomReport",
    "CyclotomicReport",
    "Instance",
    "MultiplicityResult",
    "is_cyclotomic",
    "multiplicities",
    "verify_sita",
]


# ---------------------------------------------------------------------------
# instances and axiom checking
# ---------------------------------------------------------------------------


def _as_int(v: object) -> int:
    """A structure constant as an int; SitawimError unless it is integral."""
    i = int(v)
    if i != v:
        raise SitawimError(f"structure constant {v!r} is not an integer")
    return i


@dataclass(frozen=True)
class Instance:
    """A concrete realized table: integer regular matrices plus metadata.

    ``itype`` names the involution type (a key of
    :data:`sitawim.varietygen.INVOLUTION_TYPES`), or None for a symmetric
    table of any rank (identity star).  ``degrees`` are the row-0 sums of
    the matrices.  The exact multiplicities are not stored here:
    :func:`multiplicities` computes them, and
    :attr:`sitawim.spectra.SpectralData.multiplicities` carries them by
    character row.
    """

    matrices: tuple[tuple[tuple[int, ...], ...], ...]
    itype: Optional[InvolutionType] = None
    degrees: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        mats = tuple(tuple(tuple(map(_as_int, row)) for row in m) for m in self.matrices)
        if not mats:
            raise SitawimError("an instance needs at least the identity matrix")
        r = len(mats)
        if any(len(m) != r or any(len(row) != r for row in m) for m in mats):
            raise SitawimError(f"expected {r} square matrices of size {r}")
        object.__setattr__(self, "matrices", mats)
        if isinstance(self.itype, str):
            if self.itype not in INVOLUTION_TYPES:
                raise SitawimError(f"unknown involution type {self.itype!r}")
            object.__setattr__(self, "itype", INVOLUTION_TYPES[self.itype])
        if self.itype is not None and self.itype.rank != r:
            raise SitawimError(
                f"type {self.itype.name} has rank {self.itype.rank}, got {r} matrices"
            )
        object.__setattr__(
            self, "degrees", tuple(sum(m[0]) if j else 1 for j, m in enumerate(mats))
        )

    @property
    def rank(self) -> int:
        return len(self.matrices)

    @property
    def order(self) -> int:
        return sum(self.degrees)

    @property
    def star(self) -> tuple[int, ...]:
        if self.itype is None:
            return tuple(range(self.rank))
        return self.itype.star


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]


def verify_sita(inst: Instance) -> AxiomReport:
    """Check every defining axiom of a realized table, exactly.

    Each named check carries a witness triple on failure.  Pairwise
    commutation together with the column-0 convention already forces the
    full regular-representation closure (any commuting family with
    ``M_l e_0 = e_l`` satisfies ``M_j M_k = sum_l (M_j)[l][k] M_l``), so no
    separate closure axiom is listed.
    """
    r = inst.rank
    mats = inst.matrices
    deg = inst.degrees
    star = inst.star
    checks: list[AxiomCheck] = []

    def add(name: str, witness: Optional[tuple]) -> None:
        checks.append(AxiomCheck(name, witness is None, witness))

    w = None
    for i in range(r):
        for k in range(r):
            if mats[0][i][k] != (1 if i == k else 0):
                w = w or (0, i, k)
    add("identity", w)

    w = None
    for j in range(r):
        for i in range(r):
            if sum(mats[j][i]) != deg[j]:
                w = w or (j, i, sum(mats[j][i]))
    add("row-sums", w)

    w = None
    for j in range(r):
        for i in range(r):
            for k in range(r):
                if mats[j][i][k] < 0:
                    w = w or (j, i, k)
    add("nonnegative", w)

    w = None
    for j in range(r):
        for k in range(r):
            want = deg[j] if k == star[j] else 0
            if mats[j][0][k] != want:
                w = w or (j, 0, k)
        for i in range(r):
            want = 1 if i == j else 0
            if mats[j][i][0] != want:
                w = w or (j, i, 0)
    add("row0-col0", w)

    w = None
    prods = {}
    for j in range(r):
        for k in range(j + 1, r):
            jk = _matmul(mats[j], mats[k])
            kj = _matmul(mats[k], mats[j])
            prods[(j, k)] = jk
            if jk != kj:
                w = w or (j, k)
    add("commuting", w)

    w = None
    for j in range(r):
        for k in range(r):
            jk = prods.get((j, k)) or prods.get((k, j))
            if jk is None:
                jk = _matmul(mats[j], mats[k])
            want = deg[j] if k == star[j] else 0
            if jk[0][0] != want or (k == star[j] and deg[j] <= 0):
                w = w or (j, k)
    add("pseudo-inverse", w)

    # the involution is an algebra automorphism here (products commute), so
    # conjugate matrices are index-relabelings of each other:
    # (M_{j*})[i][k] = (M_j)[i*][k*]
    w = None
    for j in range(r):
        for i in range(r):
            for k in range(r):
                if mats[star[j]][i][k] != mats[j][star[i]][star[k]]:
                    w = w or (j, i, k)
    add("star-conjugate", w)

    # degree-weighted symmetry: lam(j,k,i*) d_i = lam(k,i,j*) d_j = lam(i,j,k*) d_k
    w = None
    for i in range(r):
        for j in range(r):
            for k in range(r):
                v1 = mats[j][star[i]][k] * deg[i]
                v2 = mats[k][star[j]][i] * deg[j]
                v3 = mats[i][star[k]][j] * deg[k]
                if not (v1 == v2 == v3):
                    w = w or (i, j, k)
    add("degree-weighted-symmetry", w)

    return AxiomReport(tuple(checks))


# ---------------------------------------------------------------------------
# exact standard-module multiplicities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicityResult:
    """Exact multiplicities, one per character: the trivial character's 1
    first, the rest ascending.  ``values`` are ints when ``integral``, else
    ``Fraction``s."""

    values: tuple
    integral: bool


NOT_STANDARD = "power-sum system is inconsistent: not a standard table"


def _power_sums(f: IntPoly, smax: int) -> list[int]:
    """Newton power sums p_0..p_smax of the roots of a monic factor:
    p_s = -s*a_s - sum_{i<s} a_i p_{s-i} with a_i the descending
    coefficients (a_i = 0 past the degree)."""
    d = f.degree
    a = list(reversed(f.coeffs))  # descending, a[0] = 1
    ps = [d]
    for s in range(1, smax + 1):
        acc = -s * a[s] if s <= d else 0
        for i in range(1, min(s - 1, d) + 1):
            acc -= a[i] * ps[s - i]
        ps.append(acc)
    return ps


def _solve_exact(rows: list[list[int]], rhs: list[int]) -> Optional[list[Fraction]]:
    """Solve an overdetermined full-column-rank rational system exactly,
    checking every equation; None when the system is inconsistent."""
    m, n = len(rows), len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pr = next((i for i in range(col, m) if aug[i][col] != 0), None)
        if pr is None:
            raise SitawimError("power-sum system is rank deficient")
        aug[col], aug[pr] = aug[pr], aug[col]
        prow = aug[col]
        for i in range(m):
            if i == col or aug[i][col] == 0:
                continue
            f = aug[i][col] / prow[col]
            for j in range(col, n + 1):
                aug[i][j] -= f * prow[j]
    if any(aug[i][n] != 0 for i in range(n, m)):
        return None
    return [aug[i][n] / aug[i][i] for i in range(n)]


def _orbit_solve(
    inst: Instance,
) -> Optional[tuple[list[list[int]], list[IntPoly], int, Optional[list[Fraction]]]]:
    """The orbit solve behind :func:`multiplicities` and
    :func:`sitawim.spectra.eigenmatrix_P`: ``(M, factors, perron, mu)``.

    ``M = sum_j t^(j-1) b_j`` for the first t = 1, 2, ... whose
    characteristic polynomial is squarefree; ``factors`` its nontrivial
    irreducible factors, one per Galois orbit of characters; ``perron =
    sum_j t^(j-1) k_j`` the degree eigenvalue; ``mu`` the exact multiplicity
    of each factor's orbit, or None when the power-sum system of
    :func:`multiplicities` has no standard solution (inconsistent, some
    value <= 0, or a trivial value other than 1).  None when the trivial
    factor ``x - perron`` is missing.
    """
    r = inst.rank
    mats = inst.matrices
    for t in range(1, 5 * r * r):
        M = [
            [sum(t ** (j - 1) * mats[j][a][b] for j in range(1, r)) for b in range(r)]
            for a in range(r)
        ]
        cp = charpoly(M)
        if _poly_gcd_degree(cp.coeffs, cp.derivative().coeffs) == 0:
            break
    else:
        raise SitawimError("no squarefree generator found")
    perron = sum(t ** (j - 1) * inst.degrees[j] for j in range(1, r))
    factors = factor_int_poly(cp)
    trivial = IntPoly((-perron, 1))
    if trivial not in factors:
        return None
    # sum over orbits of mu * p_s(orbit) = n * (M^s)[0][0], s = 0..r-1
    sums = [_power_sums(f, r - 1) for f in factors]
    rows, rhs = [], []
    power = [[1 if i == k else 0 for k in range(r)] for i in range(r)]
    for s in range(r):
        rows.append([ps[s] for ps in sums])
        rhs.append(inst.order * power[0][0])
        power = _matmul(power, M)
    mu = _solve_exact(rows, rhs)
    at = factors.index(trivial)
    del factors[at]
    if mu is None or min(mu) <= 0 or mu[at] != 1:
        return M, factors, perron, None
    del mu[at]
    return M, factors, perron, mu


def multiplicities(inst: Instance) -> MultiplicityResult:
    """Exact standard-module multiplicities via power sums.

    The standard trace of any element is ``n`` times its ``b_0``
    coefficient, which for a power ``M^s`` of an integer combination of the
    regular matrices is the integer ``(M^s)[0][0]``.  Writing that trace as
    a multiplicity-weighted sum of character values and grouping characters
    into Galois orbits (one orbit per irreducible factor of the generator's
    characteristic polynomial) gives a small linear system

        sum_t mu_t * p_s(g_t) = n * (M^s)[0][0],   s = 0..r-1,

    whose coefficients are Newton power sums -- all exact integers.  The
    s = 0 equation is precisely ``sum_i m_i = n``.  A generator whose
    characteristic polynomial is squarefree separates the orbits; sweeping
    ``M = sum_j t^(j-1) b_j`` over t = 1, 2, ... finds one.
    """
    if inst.rank == 1:
        return MultiplicityResult((1,), True)
    solved = _orbit_solve(inst)
    if solved is None or solved[3] is None:
        raise SitawimError(NOT_STANDARD)
    _, factors, _, mu = solved
    # one value per character; the trivial character's 1 is listed first
    values = (Fraction(1),) + tuple(
        sorted(v for f, v in zip(factors, mu) for _ in range(f.degree))
    )
    integral = all(v.denominator == 1 for v in values)
    if integral:
        values = tuple(int(v) for v in values)
    return MultiplicityResult(values, integral)


# ---------------------------------------------------------------------------
# cyclotomy verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclotomicReport:
    cyclotomic: bool
    factors: tuple  # (basis index, IntPoly, GaloisClass) triples

    def __bool__(self) -> bool:
        return self.cyclotomic


def is_cyclotomic(inst: Instance) -> CyclotomicReport:
    """Whether every eigenvalue of every basis matrix is cyclotomic.

    Eigenvalues generate abelian extensions exactly when the Galois group
    of each irreducible characteristic-polynomial factor is abelian, so the
    verdict reduces to the per-factor class tags.  The integer degree is an
    eigenvalue of every basis matrix (the all-ones vector), so no factor of
    degree 5 survives factorization and every factor is classifiable.
    """
    if inst.rank > 5:
        raise SitawimError("cyclotomy verdicts cover rank <= 5 only")
    rows = []
    verdict = True
    for j in range(1, inst.rank):
        for f in factor_int_poly(charpoly(inst.matrices[j])):
            cls = galois_class(f)
            rows.append((j, f, cls))
            verdict = verdict and cls.abelian
    return CyclotomicReport(verdict, tuple(rows))
