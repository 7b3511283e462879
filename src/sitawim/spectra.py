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
and a root is refused unless one Newton step |f(theta)/f'(theta)| is
within eps.  There are two root paths, one per kind of table:

- when the star is the identity every root is real, and
  :func:`sitawim.intpoly._real_roots` gives it exactly, as a rational
  within 2^-(256+16) of it, by Sturm isolation and safeguarded Newton
  steps on a dyadic grid; Sturm proves the count and the separation of
  the roots and gives the intervals that exact enclosures of real entries
  need;
- when there is an asymmetric pair, :func:`_factor_roots` finds all roots
  of f at once by Aberth's simultaneous iteration, seeded in Python
  complex doubles and continued in ``mp.mpc`` up to the working precision,
  and refuses roots that did not settle or lie within eps of each other.

Past P, the checks and the Krein tensor run on fixed-point integers: P is
rounded once to the grid 2^-F, F = 256 + 32 (:func:`_fixed_rows`), and
every sum of products of its entries is then exact.  The Krein parameters
kappa_ijk = (m_i m_j / n) sum_l P[i][l] P[j][l] conj(P[k][l]) / k_l^2 are
one rounding of such a sum: with |P[i][l]| <= k_l, each kappa is within
(1 + 3 r n) * 2^-F of the same sum over P itself (r the rank, n the
order), which is below 2^-256 while 3 r n < 2^31.

Row order is canonical: the degree row first, then Galois orbits by
(size, leading row), rows inside an orbit ascending by their value tuple,
compared on a grid of 2^-128 so that rounding noise in entries that are
exactly equal cannot decide the order.

Each stage takes its input in one state: :func:`eigenmatrix_Q` the record
:func:`eigenmatrix_P` returns, and :func:`krein` the record
:func:`eigenmatrix_Q` returns.
"""

from __future__ import annotations

import cmath
import math
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
# the most Aberth sweeps one stage of _factor_roots may take
_SWEEPS = 60


def _to_fixed(value, bits: int) -> int:
    """round(value * 2**bits) as an int, exact from the mpf mantissa and
    exponent (ties away from zero)."""
    sign, man, exp, _ = mp.mpf(value)._mpf_
    shift = exp + bits
    if shift >= 0:
        n = int(man) << shift
    else:
        n = (int(man) + (1 << (-shift - 1))) >> -shift
    return -n if sign else n


def _fixed_rows(P, bits: int) -> list:
    """Every entry of P as the pair of ints (round(Re * 2^bits),
    round(Im * 2^bits))."""
    return [[(_to_fixed(mp.re(v), bits), _to_fixed(mp.im(v), bits)) for v in row] for row in P]


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


def _aberth_sweep(coeffs: list, z: list) -> list:
    """One Jacobi sweep of Aberth's simultaneous iteration: the correction
    p(z_k) / (p'(z_k) - p(z_k) * sum_(j != k) 1 / (z_k - z_j)) of every
    approximation z_k, for coefficients listed from the highest degree
    down.  A pair of equal approximations contributes no term, so the two
    move as Newton iterates."""
    d = len(z)
    pair = [[0] * d for _ in range(d)]
    for k in range(d):
        for j in range(k + 1, d):
            diff = z[k] - z[j]
            if diff:
                pair[k][j] = 1 / diff
                pair[j][k] = -pair[k][j]
    deltas = []
    for zk, terms in zip(z, pair):
        value = slope = 0
        for c in coeffs:
            slope = slope * zk + value
            value = value * zk + c
        deltas.append(value / (slope - value * sum(terms)) if value else value)
    return deltas


def _settle(coeffs: list, z: list, small) -> bool:
    """Aberth sweeps on ``z`` in place until ``small(correction, root)``
    accepts every corrected root of one sweep; False when :data:`_SWEEPS`
    sweeps do not get there."""
    for _ in range(_SWEEPS):
        deltas = _aberth_sweep(coeffs, z)
        z[:] = [v - dv for v, dv in zip(z, deltas)]
        if all(small(dv, v) for dv, v in zip(deltas, z)):
            return True
    return False


def _initial_guesses(a: list) -> list:
    """Starting points for the roots of sum_i a_i x^i (a ascending, in
    doubles): for each edge (i, j) of the upper convex hull of the points
    (i, log2|a_i|), j - i points on the circle of radius
    |a_i / a_j|^(1/(j-i)), which is where that many roots lie when the
    coefficients' sizes are far apart (Bini, *Numer. Algorithms* 13, 1996);
    a zero root, when a_0 = 0, starts at 0."""
    d = len(a) - 1
    hull: list = []
    for i, v in enumerate(a):
        if not v:
            continue
        point = (i, math.log2(abs(v)))
        while len(hull) > 1 and (hull[-1][0] - hull[-2][0]) * (point[1] - hull[-2][1]) >= (
            hull[-1][1] - hull[-2][1]
        ) * (point[0] - hull[-2][0]):
            hull.pop()
        hull.append(point)
    z = [0j] * hull[0][0]
    for (i, li), (j, lj) in zip(hull, hull[1:]):
        radius = 2 ** ((li - lj) / (j - i))
        for k in range(j - i):
            z.append(radius * cmath.exp(1j * (2 * math.pi * (k / (j - i) + i / d) + 0.4)))
    return z


def _factor_roots(f: IntPoly, eps) -> list:
    """All roots of an integer polynomial by Aberth's simultaneous
    iteration, refused unless it settled and the roots are pairwise farther
    apart than eps.

    The roots are seeded in Python complex doubles, on x = 2^s y with s the
    least shift that puts every root in |y| <= 2 (so every coefficient's
    double and every evaluation stay in range), until every correction is
    at most 2^-20 of its root.  The same iteration then continues in
    ``mp.mpc`` at 106, 212 and finally PRECISION + _GUARD_BITS bits, each
    level until every correction is at most 2^-(bits/3) of its root: a
    cubically convergent step of that size leaves a relative error near
    2^-bits.  A root's size counts as at least 2^-(B+1), with B the largest
    coefficient's bit length, a lower bound on every nonzero root, so that
    a zero root settles too.  Updating every root at once keeps two
    clustered roots apart, where independent Newton steps could merge
    them."""
    c = list(f.coeffs)
    d = len(c) - 1
    lead = c[-1]
    # |c_i / lead| < 2^(s (d - i)) for every i, so |x| <= 2^(s+1) (Fujiwara)
    top = lead.bit_length() - 1
    s = max(0, *(-((top - abs(v).bit_length()) // (d - i)) for i, v in enumerate(c[:-1])))
    low = -1 - max(abs(v).bit_length() for v in c)
    scaled = [v / (lead << s * (d - i)) for i, v in enumerate(c)]
    y = _initial_guesses(scaled)
    floor = math.ldexp(1.0, low - s)
    try:
        settled = _settle(scaled[::-1], y, lambda dv, v: abs(dv) <= max(abs(v), floor) * 2.0**-20)
        bits = 53
        z = [mp.mpc(mp.ldexp(v.real, s), mp.ldexp(v.imag, s)) for v in y]
        while settled and bits < PRECISION + _GUARD_BITS:
            bits = min(2 * bits, PRECISION + _GUARD_BITS)
            with mp.workprec(bits):
                settled = _settle(
                    [mp.mpf(v) for v in c[::-1]],
                    z,
                    lambda dv, v: mp.mag(dv) <= max(mp.mag(v), low) - bits // 3,
                )
    except (ZeroDivisionError, OverflowError):
        settled = False
    if not settled:
        raise SpectralError(f"roots of {f.coeffs} did not converge")
    with mp.workprec(PRECISION + _GUARD_BITS):
        if any(abs(a - b) <= eps for a, b in combinations(z, 2)):
            raise SpectralError(f"two roots of {f.coeffs} lie within tolerance")
    return z


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
    :func:`_factor_roots` otherwise), and a root is refused unless one
    Newton step moves it by at most eps.
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
    exact multiplicities and degrees; checks P.Q = n.I within eps * n.

    (P.Q)[a][b] = m_b * sum_l P[a][l] conj(P[b][l]) / k_l, so the check
    runs on the fixed-point P of :func:`_fixed_rows` with integer weights
    K / k_l, K = lcm(k_l): each sum is an exact integer, and the comparison
    with n on the scale of m_b / K is exact too."""
    r = sd.rank
    n = inst.order
    bits = sd.precision + _GUARD_BITS
    with mp.workprec(bits):
        if sd.multiplicities is None:
            raise SitawimError(NOT_STANDARD)
        m = [_mpf_of(q) for q in sd.multiplicities]
        Q = tuple(
            tuple(m[i] * mp.conj(sd.P[i][j]) / inst.degrees[j] for i in range(r))
            for j in range(r)
        )
        P = _fixed_rows(sd.P, bits)
        K = math.lcm(*inst.degrees)
        weights = [K // k for k in inst.degrees]
        # |m_b S / (K 2^2F) - n [a = b]| <= eps n, times den(m_b) K 2^2F
        limit = _to_fixed(sd.eps, bits) * n * K << bits
        for b, mb in enumerate(sd.multiplicities):
            conj_b = [(w * u, w * v) for w, (u, v) in zip(weights, P[b])]
            for a in range(r):
                # sum_l w_l P[a][l] conj(P[b][l]), with 2F fractional bits
                re = sum(x * u + y * v for (x, y), (u, v) in zip(P[a], conj_b))
                im = sum(y * u - x * v for (x, y), (u, v) in zip(P[a], conj_b))
                re = mb.numerator * re - (n * mb.denominator * K << 2 * bits if a == b else 0)
                im = mb.numerator * im
                if re * re + im * im > (limit * mb.denominator) ** 2:
                    miss = mp.sqrt(re * re + im * im) / (mb.denominator * K << 2 * bits)
                    raise SpectralError(f"P.Q misses n.I at ({a},{b}) by {mp.nstr(miss, 5)}")
    return replace(sd, Q=Q)


def krein(sd: SpectralData, inst: Instance) -> SpectralData:
    """Dual intersection matrices: (L*_i)[k][j] = kappa_ijk with
    kappa_ijk = (m_i m_j / n) sum_l P[i][l] P[j][l] conj(P[k][l]) / k_l**2.

    Computed on fixed-point integers with F = precision + 32 fractional
    bits: P is rounded to that grid once (:func:`_fixed_rows`), the weights
    L / k_l**2 with L = lcm(k_l**2) are exact ints, so each sum over l is an
    exact integer with 3F fractional bits, and the rational scale
    m_i m_j / (n L) is applied once per unordered pair {i, j}
    (kappa_ijk = kappa_jik) as one integer product and one division rounded
    to F bits.  Verifies vanishing imaginary parts, L*_0 = identity and row
    sums equal to the multiplicities on those integers, each within
    tolerance.  ``SpectralData.krein`` holds the values as mpf, in the
    layout above.  ``sd`` must carry the Q that :func:`eigenmatrix_Q` set.
    """
    r = sd.rank
    n = inst.order
    if sd.Q is None:
        raise SitawimError("krein requires Q; run eigenmatrix_Q() first")
    bits = sd.precision + _GUARD_BITS
    with mp.workprec(bits):
        P = _fixed_rows(sd.P, bits)
        eps = _to_fixed(sd.eps, bits)
        L = math.lcm(*(k * k for k in inst.degrees))
        weights = [L // (k * k) for k in inst.degrees]
        conj = [[(w * c, -w * e) for w, (c, e) in zip(weights, row)] for row in P]
        m = sd.multiplicities
        kappa = [[[0] * r for _ in range(r)] for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                pij = [(a * c - b * e, a * e + b * c) for (a, b), (c, e) in zip(P[i], P[j])]
                scale = m[i] * m[j]
                num, den = scale.numerator, scale.denominator * n * L << 2 * bits
                for k in range(r):
                    re = sum(a * c - b * e for (a, b), (c, e) in zip(pij, conj[k]))
                    im = sum(a * e + b * c for (a, b), (c, e) in zip(pij, conj[k]))
                    im = (2 * num * im + den) // (2 * den)
                    if abs(im) > eps:
                        raise SpectralError(
                            f"kappa[{i}][{j}][{k}] has imaginary part "
                            f"{mp.nstr(mp.ldexp(im, -bits), 5)}"
                        )
                    kappa[i][j][k] = kappa[j][i][k] = (2 * num * re + den) // (2 * den)
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
                        f"{mp.nstr(mp.ldexp(total, -bits), 8)}, expected multiplicity "
                        f"{mp.nstr(_mpf_of(m[i]), 8)}"
                    )
        mats = tuple(
            tuple(tuple(mp.mpf((kappa[i][j][k], -bits)) for j in range(r)) for k in range(r))
            for i in range(r)
        )
    return replace(sd, krein=mats)
