"""Exact verification and classification of realized tables.

A realized table is a family of nonnegative-integer regular matrices
``b_0..b_{r-1}`` (``b_0`` the identity) whose entries are the structure
constants of a commutative based algebra.  This module checks the defining
axioms exactly, solves for the standard-module multiplicities as exact
rationals, and decides whether every eigenvalue is cyclotomic.  The
univariate work underneath (characteristic polynomials, certified roots,
factorization over the integers, Galois classes of the factors) lives in
:mod:`sitawim.intpoly`; its names are imported from there, not from here.
So is the one integer matrix product, :func:`sitawim.intpoly._matmul`,
which the commutation check uses here.

One orbit solve (:func:`_orbit_solve`) per instance finds a squarefree
generator ``g``, computes the roots of its characteristic polynomial once
and reads its irreducible factors, their roots and their Galois classes
off them, writes each ``b_i`` as a polynomial in ``g`` through the
fraction-free adjugate of a Krylov matrix, and reduces it modulo each
factor f: the exact character row of f's Galois orbit over Q[x]/(f),
which gives the orbit's exact multiplicity.  The instance keeps the solve
after its first use, and three stages read it: :func:`multiplicities`
lists the multiplicities by character, :func:`is_cyclotomic` reads the
factors' classes, one per Galois orbit, and
:func:`sitawim.spectra.eigenmatrix_P` evaluates the rows at the roots.

Every decision here is an exact check, with roots proven by disks: the
whole point of the multiplicity and cyclotomy verdicts is that no
rounding step gets to decide them.

Conventions shared with :mod:`sitawim.varietygen`: ``(M_j)[i][k]`` is the
coefficient of ``b_i`` in ``b_j b_k``, row sums of ``M_j`` equal the degree
``k_j``, row 0 carries ``k_j`` in column ``j*``, and column 0 is the
indicator of row ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Optional

from .errors import SitawimError
from .intpoly import IntPoly, _as_int, _factor_squarefree, _galois_class, _matmul, _mulmod
from .intpoly import _pdivrem, _poly_gcd, _ptrim, charpoly
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


@dataclass(frozen=True)
class Instance:
    """A concrete realized table: integer regular matrices plus metadata.

    ``itype`` names the involution type (a key of
    :data:`sitawim.varietygen.INVOLUTION_TYPES`), or None for a symmetric
    table of any rank (identity star).  ``degrees`` are the row-0 sums of
    the matrices.  The orbit solve behind the exact multiplicities, the
    cyclotomy verdict and the character rows is kept on the instance after
    its first use, outside the fields.
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

    @cached_property
    def _solved(self) -> tuple:
        """:func:`_orbit_solve` of this instance, run on first use and kept
        outside the fields (``==``, ``hash`` and ``repr`` ignore it); a
        SitawimError is raised again on every use, never kept."""
        return _orbit_solve(self)

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
    for j in range(r):
        for k in range(j + 1, r):
            if _matmul(mats[j], mats[k]) != _matmul(mats[k], mats[j]):
                w = w or (j, k)
    add("commuting", w)

    # (b_j b_k)[0][0]: row 0 of M_j against column 0 of M_k
    w = None
    for j in range(r):
        for k in range(r):
            want = deg[j] if k == star[j] else 0
            value = sum(mats[j][0][l] * mats[k][l][0] for l in range(r))
            if value != want or (k == star[j] and deg[j] <= 0):
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


NOT_STANDARD = "some orbit's multiplicity is not a positive rational: not a standard table"


def _adjugate(A: list[list[int]]) -> tuple[int, list[list[int]]]:
    """``(d, X)`` with ``d = |det A|`` and ``X = d A^-1 = sign(det A) adj A``
    for the square integer Krylov matrix, by fraction-free Gauss-Jordan
    elimination (Bareiss, *Math. Comp.* 22, 1968): every step divides
    exactly by the previous pivot, so every entry stays an int, and the last
    pivot is the determinant up to the sign of the row swaps.
    SitawimError when A is singular."""
    n = len(A)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    prev = 1
    for col in range(n):
        pr = next((i for i in range(col, n) if aug[i][col]), None)
        if pr is None:
            raise SitawimError("the Krylov matrix of e_0 is singular: e_0 is not cyclic")
        aug[col], aug[pr] = aug[pr], aug[col]
        prow, p = aug[col], aug[col][col]
        for i in range(n):
            if i != col:
                f = aug[i][col]
                aug[i] = [(p * a - f * b) // prev for a, b in zip(aug[i], prow)]
        prev = p
    sign = 1 if prev > 0 else -1
    return sign * prev, [[sign * v for v in row[n:]] for row in aug]


def _orbit_solve(inst: Instance) -> tuple:
    """``(M, factors, perron, D, rows, mu, roots, classes)``: the record
    that :func:`multiplicities`, :func:`is_cyclotomic` and
    :func:`sitawim.spectra.eigenmatrix_P` read from ``Instance._solved``.

    ``M = sum_j t^(j-1) b_j`` for the first t = 1, 2, ... whose
    characteristic polynomial is squarefree; ``factors`` its irreducible
    factors, one per Galois orbit of characters, the trivial factor ``x -
    perron`` first, with ``perron = sum_j t^(j-1) k_j`` the degree
    eigenvalue.  Every character row has ``w_0 = 1``, so ``e_0`` is cyclic
    for ``M`` (SitawimError otherwise), and the adjugate of its Krylov
    matrix ``[e_0, M e_0, ..., M^(r-1) e_0]`` writes ``b_i = p_i(M)``.
    ``rows[o][i] = W_i = D[o] p_i mod f`` for ``f = factors[o]``, with
    ``D[o]`` the least positive integer that makes the orbit's row
    integral, so a root theta of f has the character row ``W(theta) /
    D[o]``; each row is checked as ``D[o] (W b_i) = W_i W`` modulo f.
    ``roots[o]`` and ``classes[o]`` are f's roots on the grid and its
    Galois class (None above degree 4), read off one root solve of the
    characteristic polynomial (:func:`sitawim.intpoly._factor_squarefree`).

    ``mu`` holds each orbit's multiplicity m = n / sum_i chi(b_i)
    chi(b_i*) / k_i (Bannai & Ito, *Algebraic Combinatorics I*, 1984), that
    is ``n D^2 L / N`` with ``L = lcm(k)`` and ``N = sum_i (L / k_i) W_i
    W_i* mod f``, rational exactly when N is a constant; None unless every
    value is a positive rational and the trivial one is 1.  ``D``, ``rows``
    and ``mu`` are all None when the trivial factor is missing.
    """
    r = inst.rank
    mats = inst.matrices
    deg = inst.degrees
    for t in range(1, 5 * r * r):
        M = [
            [sum(t ** (j - 1) * mats[j][a][b] for j in range(1, r)) for b in range(r)]
            for a in range(r)
        ]
        cp = charpoly(M)
        if len(_poly_gcd(cp.coeffs, cp.derivative().coeffs)) == 1:
            break
    else:
        raise SitawimError("no squarefree generator found")
    krylov = [[1] + [0] * (r - 1)]
    for _ in range(1, r):
        krylov.append([sum(map(mul, row, krylov[-1])) for row in M])
    det, adj = _adjugate([list(col) for col in zip(*krylov)])
    polys = list(zip(*adj))  # column i of the adjugate is det * p_i
    perron = sum(t ** (j - 1) * deg[j] for j in range(1, r))
    trivial = IntPoly((-perron, 1))
    # b_j b_j meets the identity iff b_j* = b_j; then every character
    # value is real, and so is every root of cp
    real = all(mats[j][0][j] for j in range(r))
    pieces = sorted(_factor_squarefree(cp, real), key=lambda piece: piece[0] != trivial)
    factors = [f for f, _ in pieces]
    roots = [[z for z, _ in disks] for _, disks in pieces]
    classes = [_galois_class(f, disks) if f.degree <= 4 else None for f, disks in pieces]
    if trivial not in factors:
        return M, factors, perron, None, None, None, roots, classes
    if min(deg) <= 0:
        raise SitawimError(f"degrees {deg} are not all positive")
    # i* from row 0 of b_i, which carries k_i in column i*, so that the
    # declared involution type cannot misroute the pairing
    star = [m[0].index(max(m[0])) for m in mats]
    L = lcm(*deg)
    Ds, rows, mu = [], [], []
    for f in factors:
        W = [_pdivrem(p, f.coeffs)[1] for p in polys]
        g = gcd(det, *(v for w in W for v in w))
        D, W = det // g, [[v // g for v in w] for w in W]
        for i, b in enumerate(mats):
            for c in range(r):
                image = [0] * f.degree
                for w, row in zip(W, b):
                    for s, v in enumerate(w):
                        image[s] += D * v * row[c]
                if _ptrim(image) != _mulmod(W[i], W[c], f.coeffs):
                    raise SitawimError(f"exact row of {f.coeffs} fails w b_{i} = w_{i} w")
        N = [0] * f.degree
        for i in range(r):
            for s, v in enumerate(_mulmod(W[i], W[star[i]], f.coeffs)):
                N[s] += L // deg[i] * v
        N = _ptrim(N)
        Ds.append(D)
        rows.append(W)
        mu.append(Fraction(inst.order * D * D * L, N[0]) if len(N) == 1 and N[0] > 0 else None)
    if None in mu or mu[0] != 1:
        mu = None
    return M, factors, perron, Ds, rows, mu, roots, classes


def multiplicities(inst: Instance) -> MultiplicityResult:
    """Exact standard-module multiplicities, one per character.

    The orbit solve (:func:`_orbit_solve`), kept on the instance, gives
    every Galois orbit of characters its exact row over Q[x]/(f), one
    irreducible factor f of the squarefree generator's characteristic
    polynomial per orbit, and from that row the orbit's multiplicity m = n /
    sum_i chi(b_i) chi(b_i*) / k_i, an exact rational or no rational at
    all.  SitawimError (:data:`NOT_STANDARD`) unless every value is a
    positive rational and the trivial one is 1.
    """
    _, factors, _, _, _, mu, _, _ = inst._solved
    if mu is None:
        raise SitawimError(NOT_STANDARD)
    # one value per character; the trivial character's 1 is listed first
    values = (mu[0],) + tuple(
        sorted(v for f, v in zip(factors[1:], mu[1:]) for _ in range(f.degree))
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
    factors: tuple  # (orbit polynomial, GaloisClass) pairs, one per Galois orbit

    def __bool__(self) -> bool:
        return self.cyclotomic


def is_cyclotomic(inst: Instance) -> CyclotomicReport:
    """Whether every eigenvalue of every basis matrix is cyclotomic.

    The eigenvalues of ``b_i`` are its character values, and the orbit
    solve reads them all off one generator M: ``b_i = p_i(M)`` with
    rational p_i, so ``chi(b_i) = p_i(theta_chi)`` for the eigenvalue
    ``theta_chi`` of M at chi, and ``theta_chi = sum_j t^(j-1) chi(b_j)``
    in turn.  The theta_chi are distinct, so the splitting field of the
    characteristic polynomial of M is the field of all character values.
    That field is abelian exactly when the Galois group of each irreducible
    factor is, so the verdict reads one class per Galois orbit, from the
    generator's factors.  The trivial factor ``x - perron`` is one of them
    for every table, so no factor of degree 5 is left at rank <= 5.
    """
    if inst.rank > 5:
        raise SitawimError("cyclotomy verdicts cover rank <= 5 only")
    _, factors, *_, classes = inst._solved
    if None in classes:
        raise SitawimError("Galois classification supports degree <= 4, got 5")
    orbits = tuple(zip(factors, classes))
    return CyclotomicReport(all(cls.abelian for _, cls in orbits), orbits)
