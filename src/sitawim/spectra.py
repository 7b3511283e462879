"""Eigenmatrices and dual intersection numbers on one fixed-point grid.

The first eigenmatrix P, the second eigenmatrix Q and the Krein (dual
intersection) parameters are held as integers on one grid 2^-F,
F = 256 + 32 (:data:`GRID_BITS`): a real x is the int round(x 2^F), a
complex value the pair (re, im) of such ints, and the zero tolerance
eps = 2^-100 * max(1, n) lies on the grid exactly.  No function takes a
precision or a tolerance.

The exact layer anchors the numerics: :func:`eigenmatrix_P` reads the one
orbit solve that :mod:`sitawim.structcheck` keeps on the instance.  It
gives each Galois orbit of characters (one irreducible factor f of the
characteristic polynomial of the squarefree generator) its exact row W/D
over Q[x]/(f), its exact multiplicity, kept per row in
:attr:`SpectralData.multiplicities`, and the roots theta of f: Gaussian
integers on the grid, each in its own inclusion disk
(:func:`sitawim.intpoly._factor_roots`), real when the star is the
identity.

Rows are exact on those integers: for theta = T 2^-F and d = deg f, the
Gaussian integers T^t 2^(F (d-t)) give f(theta), f'(theta) and every
W_i(theta), times 2^(F d), as exact integer combinations.  A root is
refused unless the Newton step |f(theta)/f'(theta)| is within eps.  Each
entry W_i(theta)/D is rounded once to the grid, so it is within
delta * max |W_i'| / D + 2^-F of its character value, delta the radius of
theta's disk (the max over that disk).

Q and the Krein tensor are exact sums of products of those integers,
rounded once per value.  With |P[i][l]| <= k_l and every entry of P within
e of its character value, each kappa_ijk = (m_i m_j / n) sum_l P[i][l]
P[j][l] conj(P[k][l]) / k_l^2 is within 2^-F + 3 r n e of its exact value
(r the rank, n the order), below 2^-256 for e = 2^-F while 3 r n < 2^31.

Row order is canonical: the degree row first, then Galois orbits by
(size, leading row), rows inside an orbit ascending by their value tuple
rounded to 2^-128, so that rounding noise in entries that are exactly
equal cannot decide the order.  Each stage takes the record the one
before it returns: :func:`eigenmatrix_P`, :func:`eigenmatrix_Q`,
:func:`krein`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import Optional

from .errors import SitawimError, SpectralError
from .intpoly import GRID_BITS, PRECISION, IntPoly, _at, _div, _powers
from .structcheck import NOT_STANDARD, Instance

__all__ = [
    "SpectralData",
    "eigenmatrix_P",
    "eigenmatrix_Q",
    "krein",
]


@dataclass(frozen=True)
class SpectralData:
    """Accumulated numeric spectrum of one instance.

    ``P[l][i]`` is the value of the l-th character row on ``b_i``;
    ``orbits`` partitions the row indices by Galois orbit (the degree row
    is the singleton ``(0,)``).  ``multiplicities`` holds the exact
    multiplicity of every row, as a ``Fraction`` and in row order, or None
    when some orbit's multiplicity is not a positive rational.  ``Q`` and
    ``krein`` start as ``None`` and are filled by :func:`eigenmatrix_Q` /
    :func:`krein`.  Every value is an int on the grid 2^-:data:`GRID_BITS`:
    the entries of P and Q are (re, im) pairs, the Krein values and
    ``eps``, the zero tolerance every root and residual was checked
    against, single ints.
    """

    eps: int
    P: tuple[tuple[tuple[int, int], ...], ...]
    orbits: tuple[tuple[int, ...], ...]
    orbit_polys: tuple[IntPoly, ...]
    multiplicities: Optional[tuple[Fraction, ...]]
    Q: Optional[tuple[tuple[tuple[int, int], ...], ...]] = None
    krein: Optional[tuple[tuple[tuple[int, ...], ...], ...]] = None

    @property
    def rank(self) -> int:
        return len(self.P)


# ---------------------------------------------------------------------------
# character rows


def _character_rows(f: IntPoly, D: int, W: list, roots: list, eps: int) -> list:
    """The rows W_i(theta) / D on the grid, one per root theta of f, each
    refused unless |f(theta) / f'(theta)| <= eps; every value is exact
    (:func:`_powers`) before the one rounding of each entry.  The roots'
    inclusion disks were proven disjoint once, on the whole generator."""
    den = D << GRID_BITS * (f.degree - 1)
    slope = f.derivative().coeffs
    rows = []
    for theta in roots:
        powers = _powers(theta, f.degree)
        (vr, vi), (sr, si) = _at(f.coeffs, powers), _at(slope, powers)
        # |f / f'| <= eps 2^-F
        value, slope_at = vr * vr + vi * vi, sr * sr + si * si
        if value << 2 * GRID_BITS > eps * eps * slope_at:
            step = math.sqrt(value / slope_at) if slope_at else math.inf
            raise SpectralError(f"root residual {step:.5g} of {f.coeffs} exceeds tolerance")
        rows.append(tuple((_div(a, den), _div(b, den)) for a, b in (_at(w, powers) for w in W)))
    return rows


def _row_key(row) -> list:
    """The value tuple of a row past its b_0 entry, rounded to 2^-128."""
    shift = GRID_BITS - PRECISION // 2
    half = 1 << shift - 1
    return [((a + half) >> shift, (b + half) >> shift) for a, b in row[1:]]


# ---------------------------------------------------------------------------
# public operations


def eigenmatrix_P(inst: Instance) -> SpectralData:
    """The first eigenmatrix: one row per irreducible character.

    Row 0 is the exact degree row.  Remaining rows are grouped into Galois
    orbits, one per nontrivial irreducible factor f of the squarefree
    generator's characteristic polynomial.  The orbit solve gives each
    orbit one exact row over Q[x]/(f) and its exact multiplicity, which is
    stored once per row; each row of the orbit is that exact row evaluated
    at one root of f that the orbit solve proved, made real when every
    element is self-paired.  A root is refused unless one Newton step
    moves it by at most eps.
    """
    eps = max(1, inst.order) << GRID_BITS - 100
    _, factors, perron, Ds, exact_rows, mu, roots, _ = inst._solved
    if exact_rows is None:
        raise SitawimError("generator has no rational degree eigenvalue")
    blocks: list[tuple[list, IntPoly, Optional[Fraction]]] = []
    mu = mu or [None] * len(factors)
    # the trivial orbit, listed first, is the exact degree row below
    for f, D, W, m, z in list(zip(factors, Ds, exact_rows, mu, roots))[1:]:
        rows = _character_rows(f, D, W, z, eps)
        rows.sort(key=_row_key)
        blocks.append((rows, f, m))
    blocks.sort(key=lambda block: (len(block[0]), _row_key(block[0][0])))
    P = [tuple((k << GRID_BITS, 0) for k in inst.degrees)]
    orbits = [(0,)]
    orbit_polys = [IntPoly((-perron, 1))]
    row_mu = [Fraction(1)]
    for rows, f, m in blocks:
        orbits.append(tuple(range(len(P), len(P) + len(rows))))
        orbit_polys.append(f)
        P.extend(rows)
        row_mu.extend([m] * len(rows))
    return SpectralData(
        eps=eps,
        P=tuple(P),
        orbits=tuple(orbits),
        orbit_polys=tuple(orbit_polys),
        multiplicities=None if None in row_mu else tuple(row_mu),
    )


def eigenmatrix_Q(sd: SpectralData, inst: Instance) -> SpectralData:
    """The second eigenmatrix: Q[j][i] = m_i * conj(P[i][j]) / k_j, with the
    exact multiplicities and degrees, each entry rounded once to the grid;
    checks P.Q = n.I within eps * n.

    (P.Q)[a][b] = m_b * sum_l P[a][l] conj(P[b][l]) / k_l, so the check
    runs on the grid integers of P with integer weights K / k_l,
    K = lcm(k_l): each sum is an exact integer, and the comparison with n
    on the scale of m_b / K is exact too."""
    r, n, bits, m = sd.rank, inst.order, GRID_BITS, sd.multiplicities
    if m is None:
        raise SitawimError(NOT_STANDARD)
    re, im = [[a for a, _ in row] for row in sd.P], [[b for _, b in row] for row in sd.P]
    Q = tuple(
        tuple(
            (_div(q.numerator * a, q.denominator * k), _div(-q.numerator * b, q.denominator * k))
            for q, (a, b) in zip(m, (row[j] for row in sd.P))
        )
        for j, k in enumerate(inst.degrees)
    )
    K = math.lcm(*inst.degrees)
    weights = [K // k for k in inst.degrees]
    # |m_b S / (K 2^2F) - n [a = b]| <= eps n, times den(m_b) K 2^2F
    limit = sd.eps * n * K << bits
    for b, mb in enumerate(m):
        wr, wi = list(map(mul, weights, re[b])), list(map(mul, weights, im[b]))
        for a in range(r):
            # S = sum_l w_l P[a][l] conj(P[b][l]), with 2F fractional bits
            sr = sum(map(mul, re[a], wr)) + sum(map(mul, im[a], wi))
            si = sum(map(mul, im[a], wr)) - sum(map(mul, re[a], wi))
            sr = mb.numerator * sr - (n * mb.denominator * K << 2 * bits if a == b else 0)
            si = mb.numerator * si
            if sr * sr + si * si > (limit * mb.denominator) ** 2:
                miss = math.isqrt(sr * sr + si * si) / (mb.denominator * K << 2 * bits)
                raise SpectralError(f"P.Q misses n.I at ({a},{b}) by {miss:.5g}")
    return replace(sd, Q=Q)


def krein(sd: SpectralData, inst: Instance) -> SpectralData:
    """Dual intersection matrices: (L*_i)[k][j] = kappa_ijk with
    kappa_ijk = (m_i m_j / n) sum_l P[i][l] P[j][l] conj(P[k][l]) / k_l**2,
    kept in ``SpectralData.krein`` as ints on the grid in that layout.

    With the int weights L / k_l**2, L = lcm(k_l**2), each sum over l is an
    exact integer with 3F fractional bits, and the scale m_i m_j / (n L) is
    applied once per unordered pair {i, j} (kappa_ijk = kappa_jik) as one
    product and one division rounded to F bits.  Verifies vanishing
    imaginary parts, L*_0 = identity and row sums equal to the
    multiplicities, each within tolerance.  ``sd`` must carry the Q that
    :func:`eigenmatrix_Q` set.
    """
    r, n, bits, eps, m = sd.rank, inst.order, GRID_BITS, sd.eps, sd.multiplicities
    if sd.Q is None:
        raise SitawimError("krein requires Q; run eigenmatrix_Q() first")
    re, im = [[a for a, _ in row] for row in sd.P], [[b for _, b in row] for row in sd.P]
    real = not any(map(any, im))
    L = math.lcm(*(k * k for k in inst.degrees))
    weights = [L // (k * k) for k in inst.degrees]
    # conj(P[k][l]) L / k_l^2
    cr = [list(map(mul, weights, row)) for row in re]
    ci = [[-w * v for w, v in zip(weights, row)] for row in im]
    kappa = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            pr = [a * c - b * e for a, b, c, e in zip(re[i], im[i], re[j], im[j])]
            pi = [] if real else [a * e + b * c for a, b, c, e in zip(re[i], im[i], re[j], im[j])]
            scale = m[i] * m[j]
            num, den = scale.numerator, scale.denominator * n * L << 2 * bits
            for k in range(r):
                total = sum(map(mul, pr, cr[k]))
                if not real:
                    total -= sum(map(mul, pi, ci[k]))
                    imag = _div(num * (sum(map(mul, pr, ci[k])) + sum(map(mul, pi, cr[k]))), den)
                    if abs(imag) > eps:
                        raise SpectralError(
                            f"kappa[{i}][{j}][{k}] has imaginary part {imag / (1 << bits):.5g}"
                        )
                kappa[i][j][k] = kappa[j][i][k] = _div(num * total, den)
    one = 1 << bits
    for j in range(r):
        for k in range(r):
            if abs(kappa[0][j][k] - (one if j == k else 0)) > eps:
                raise SpectralError("L*_0 is not the identity")
    for i in range(r):
        for k in range(r):
            # |sum_j kappa_ijk - m_i| <= eps * max(1, n), times den(m_i)
            total = sum(kappa[i][j][k] for j in range(r))
            q = m[i].denominator
            if abs(total * q - (m[i].numerator << bits)) > eps * max(1, n) * q:
                raise SpectralError(
                    f"row {k} of a dual intersection matrix sums to "
                    f"{total / one:.8g}, expected multiplicity {float(m[i]):.8g}"
                )
    mats = tuple(tuple(tuple(kappa[i][j][k] for j in range(r)) for k in range(r)) for i in range(r))
    return replace(sd, krein=mats)
