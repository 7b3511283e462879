"""High-precision eigenstructure: eigenmatrices and dual intersection numbers.

Everything downstream of the exact layer that genuinely needs numbers — the
first eigenmatrix P, the second eigenmatrix Q, and the Krein/dual
intersection matrices — lives here, computed with arbitrary-precision
binary floats (mpmath) in one configuration: 256 bits, plus 32 guard bits
of working precision, and the zero tolerance eps = 2^-100 * max(1, n),
which :class:`SpectralData` records.  No function takes a precision or a
tolerance.

The exact layer anchors the numerics: :func:`eigenmatrix_P` reads the one
orbit solve that :mod:`sitawim.structcheck` keeps on the instance, so an
instance whose multiplicities or cyclotomy verdict are known is not solved
again.  The solve gives each Galois orbit of characters (one irreducible
factor f of the characteristic polynomial of the squarefree generator) its
exact row over Q[x]/(f), checked against every basis matrix modulo f, and
its exact multiplicity, stored next to each row in
:attr:`SpectralData.multiplicities`.  Numbers enter only at the roots:
every row of an orbit is the exact row evaluated at one root theta of f,
an exact Sturm root (:func:`sitawim.intpoly._real_roots`) when the star is
the identity, an ``mp.polyroots`` root when there is an asymmetric pair,
and a root is refused unless one Newton step |f(theta)/f'(theta)| is
within eps.  Both root paths stay: Sturm isolation proves the count and
the separation of the real roots and gives the intervals that exact
enclosures of real entries need, and ``mp.polyroots`` finds the non-real
roots of an asymmetric pair.

Row order is canonical: the degree row first, then Galois orbits by
(size, leading row), rows inside an orbit ascending by their value tuple,
compared on a grid of 2^-128 so that rounding noise in entries that are
exactly equal cannot decide the order.

Each stage takes its input in one state: :func:`eigenmatrix_Q` the record
:func:`eigenmatrix_P` returns, and :func:`krein` the record
:func:`eigenmatrix_Q` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Optional

from mpmath import mp

from .errors import SitawimError, SpectralError
from .intpoly import IntPoly, _real_roots
from .structcheck import NOT_STANDARD, Instance

__all__ = [
    "SpectralData",
    "eigenmatrix_P",
    "eigenmatrix_Q",
    "krein",
]

PRECISION = 256
_GUARD_BITS = 32


@dataclass(frozen=True)
class SpectralData:
    """Accumulated numeric spectrum of one instance.

    ``P[l][i]`` is the value of the l-th character row on ``b_i``;
    ``orbits`` partitions the row indices by Galois orbit (the degree row
    is the singleton ``(0,)``).  ``multiplicities`` holds the exact
    multiplicity of every row, as a ``Fraction`` and in row order, or None
    when some orbit's multiplicity is not a positive rational.  ``Q`` and
    ``krein`` start as ``None`` and are filled by :func:`eigenmatrix_Q` /
    :func:`krein`.
    ``precision`` is the number of bits (:data:`PRECISION`) and ``eps`` the
    zero tolerance every root and residual was checked against.
    """

    precision: int
    eps: object
    P: tuple[tuple[object, ...], ...]
    orbits: tuple[tuple[int, ...], ...]
    orbit_polys: tuple[IntPoly, ...]
    multiplicities: Optional[tuple[Fraction, ...]]
    Q: Optional[tuple[tuple[object, ...], ...]] = None
    krein: Optional[tuple[tuple[tuple[object, ...], ...], ...]] = None

    @property
    def rank(self) -> int:
        return len(self.P)


# ---------------------------------------------------------------------------
# character rows


def _mpf_of(q: Fraction):
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def _factor_roots(f: IntPoly, eps) -> list:
    """All roots of an irreducible factor by ``mp.polyroots``, refused
    unless they converged and are pairwise farther apart than eps."""
    try:
        roots = mp.polyroots(list(reversed(f.coeffs)))
    except mp.NoConvergence as exc:
        raise SpectralError(f"roots of {f.coeffs} did not converge") from exc
    if any(abs(a - b) <= eps for a, b in combinations(roots, 2)):
        raise SpectralError(f"two roots of {f.coeffs} lie within tolerance")
    return roots


def _row_key(row, bits: int) -> list:
    """The value tuple of a row past its b_0 entry, rounded to 2^-bits."""
    return [
        (int(mp.nint(mp.ldexp(mp.re(v), bits))), int(mp.nint(mp.ldexp(mp.im(v), bits))))
        for v in row[1:]
    ]


# ---------------------------------------------------------------------------
# public operations


def eigenmatrix_P(inst: Instance) -> SpectralData:
    """The first eigenmatrix: one row per irreducible character.

    Row 0 is the exact degree row.  Remaining rows are grouped into Galois
    orbits, one per nontrivial irreducible factor f of the squarefree
    generator's characteristic polynomial.  The orbit solve gives each
    orbit one exact row over Q[x]/(f) and its exact multiplicity, which is
    stored once per row; each row of the orbit is that exact row evaluated
    at one root of f (exact Sturm roots when every element is self-paired,
    ``mp.polyroots`` otherwise), and a root is refused unless one Newton
    step moves it by at most eps.
    """
    r = inst.rank
    mats = inst.matrices
    with mp.workprec(PRECISION + _GUARD_BITS):
        eps = mp.ldexp(1, -100) * max(1, inst.order)
        _, factors, perron, Ds, exact_rows, mu = inst._solved
        if exact_rows is None:
            raise SitawimError("generator has no rational degree eigenvalue")
        # structural symmetry: b_j*b_j meets the identity iff b_j* = b_j,
        # so the declared involution type cannot misroute the dispatch
        symmetric = all(mats[j][0][j] for j in range(r))
        bits = PRECISION // 2
        blocks: list[tuple[list, IntPoly, Optional[Fraction]]] = []
        mu = mu or [None] * len(factors)
        # the trivial orbit, listed first, is the exact degree row below
        for f, D, W, m in list(zip(factors, Ds, exact_rows, mu))[1:]:
            if symmetric:
                roots = [_mpf_of(q) for q in _real_roots(f, PRECISION)]
            else:
                roots = _factor_roots(f, eps)
            if len(roots) != f.degree:
                raise SpectralError(
                    f"found {len(roots)} roots for a degree-{f.degree} factor"
                )
            for theta in roots:
                value, slope = mp.polyval(f.coeffs[::-1], theta, derivative=True)
                step = abs(value / slope)
                if step > eps:
                    raise SpectralError(
                        f"root residual {mp.nstr(step, 5)} of {f.coeffs} exceeds tolerance"
                    )
            rows = [tuple(mp.polyval(w[::-1], theta) / D for w in W) for theta in roots]
            rows.sort(key=lambda row: _row_key(row, bits))
            blocks.append((rows, f, m))
        blocks.sort(key=lambda block: (len(block[0]), _row_key(block[0][0], bits)))
        P = [tuple(mp.mpf(d) for d in inst.degrees)]
        orbits = [(0,)]
        orbit_polys = [IntPoly((-perron, 1))]
        row_mu = [Fraction(1)]
        for rows, f, m in blocks:
            orbits.append(tuple(range(len(P), len(P) + len(rows))))
            orbit_polys.append(f)
            P.extend(rows)
            row_mu.extend([m] * len(rows))
        return SpectralData(
            precision=PRECISION,
            eps=eps,
            P=tuple(P),
            orbits=tuple(orbits),
            orbit_polys=tuple(orbit_polys),
            multiplicities=None if None in row_mu else tuple(row_mu),
        )


def eigenmatrix_Q(sd: SpectralData, inst: Instance) -> SpectralData:
    """The second eigenmatrix: Q[j][i] = m_i * conj(P[i][j]) / k_j, with the
    exact multiplicities and degrees; checks P.Q = n.I within tolerance."""
    r = sd.rank
    n = inst.order
    with mp.workprec(sd.precision + _GUARD_BITS):
        if sd.multiplicities is None:
            raise SitawimError(NOT_STANDARD)
        m = [_mpf_of(q) for q in sd.multiplicities]
        Q = tuple(
            tuple(m[i] * mp.conj(sd.P[i][j]) / inst.degrees[j] for i in range(r))
            for j in range(r)
        )
        for a in range(r):
            for b in range(r):
                acc = sum(sd.P[a][l] * Q[l][b] for l in range(r))
                target = n if a == b else 0
                if abs(acc - target) > sd.eps * n:
                    raise SpectralError(
                        f"P.Q misses n.I at ({a},{b}) by {mp.nstr(abs(acc - target), 5)}"
                    )
    return replace(sd, Q=Q)


def krein(sd: SpectralData, inst: Instance) -> SpectralData:
    """Dual intersection matrices: (L*_i)[k][j] = kappa_ijk with
    kappa_ijk = (m_i m_j / n) sum_l P[i][l] P[j][l] conj(P[k][l]) / k_l**2.

    Each unordered pair {i, j} is computed once, as kappa_ijk = kappa_jik.
    Verifies L*_0 = identity, row sums equal to the multiplicities, and
    vanishing imaginary parts, all within tolerance.  ``sd`` must carry the
    Q that :func:`eigenmatrix_Q` set.
    """
    r = sd.rank
    n = inst.order
    if sd.Q is None:
        raise SitawimError("krein requires Q; run eigenmatrix_Q() first")
    with mp.workprec(sd.precision + _GUARD_BITS):
        # Q[0][i] = m_i * conj(P[i][0]) / k_0 with P[i][0] = k_0 = 1
        m = sd.Q[0]
        deg2 = [mp.mpf(k) ** 2 for k in inst.degrees]
        conj = [[mp.conj(v) for v in row] for row in sd.P]
        kappa = [[[None] * r for _ in range(r)] for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                pij = [sd.P[i][l] * sd.P[j][l] for l in range(r)]
                scale = m[i] * m[j] / n
                for k in range(r):
                    acc = sum(pij[l] * conj[k][l] / deg2[l] for l in range(r))
                    value = scale * acc
                    if abs(mp.im(value)) > sd.eps:
                        raise SpectralError(
                            f"kappa[{i}][{j}][{k}] has imaginary part "
                            f"{mp.nstr(mp.im(value), 5)}"
                        )
                    kappa[i][j][k] = kappa[j][i][k] = mp.re(value)
        for j in range(r):
            for k in range(r):
                target = 1 if j == k else 0
                if abs(kappa[0][j][k] - target) > sd.eps:
                    raise SpectralError("L*_0 is not the identity")
        mats = []
        for i in range(r):
            rows = tuple(tuple(kappa[i][j][k] for j in range(r)) for k in range(r))
            for k in range(r):
                total = sum(rows[k])
                if abs(total - m[i]) > sd.eps * max(1, n):
                    raise SpectralError(
                        f"row {k} of a dual intersection matrix sums to "
                        f"{mp.nstr(total, 8)}, expected multiplicity {mp.nstr(m[i], 8)}"
                    )
            mats.append(rows)
    return replace(sd, krein=tuple(mats))
