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
over Q[x]/(f) and its exact multiplicity, kept per row in
:attr:`SpectralData.multiplicities`.  Numbers enter only at the roots
theta of f: :func:`_factor_roots` finds all of them at once by Aberth's
simultaneous iteration, seeded in complex doubles and continued on
Gaussian integers on the grid.  When the star is the identity every
character value is real, and each root's imaginary part is set to 0.

Rows are exact on those integers: for theta = T 2^-F and d = deg f, the
Gaussian integers T^t 2^(F (d-t)) give f(theta), f'(theta) and every
W_i(theta), times 2^(F d), as exact integer combinations.  A root is
refused unless the Newton step |f(theta)/f'(theta)| is within eps, and
the roots of f unless B. T. Smith's inclusion disks about them
(:func:`_inclusion_radii`) are pairwise disjoint, which proves that each
disk holds one root of f, a real one when its centre is real.  Each entry
W_i(theta)/D is rounded once to the grid, so it is within
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

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import combinations
from operator import mul
from typing import Optional

from .errors import SitawimError, SpectralError
from .intpoly import IntPoly
from .structcheck import NOT_STANDARD, Instance

__all__ = [
    "SpectralData",
    "eigenmatrix_P",
    "eigenmatrix_Q",
    "krein",
]

PRECISION = 256
_GUARD_BITS = 32
#: F, the fractional bits of the one grid every spectral value lies on
GRID_BITS = PRECISION + _GUARD_BITS
# the most Aberth sweeps one stage of _factor_roots may take: one per bit
# of the grid, as a stage converges linearly (about a bit a sweep) about
# a cluster of roots until the cluster splits
_SWEEPS = GRID_BITS


def _div(a: int, b: int) -> int:
    """a / b rounded to the nearest int (halves up), for b > 0."""
    return (2 * a + b) // (2 * b)


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
# roots


def _aberth_sweep(coeffs: list, z: list) -> list:
    """One Jacobi sweep of Aberth's simultaneous iteration on ``z`` in
    place, returning the correction
    p(z_k) / (p'(z_k) - p(z_k) * sum_(j != k) 1 / (z_k - z_j)) of every
    approximation z_k, for coefficients listed from the highest degree
    down.  A pair of equal approximations contributes no term, so the two
    move as Newton iterates."""
    deltas = []
    for zk in z:
        value = slope = 0
        for c in coeffs:
            slope = slope * zk + value
            value = value * zk + c
        terms = sum(1 / (zk - zj) for zj in z if zj != zk)
        deltas.append(value / (slope - value * terms) if value else value)
    z[:] = [v - dv for v, dv in zip(z, deltas)]
    return deltas


def _powers(theta: tuple, d: int) -> tuple[list, list]:
    """The real and the imaginary parts of T^t 2^(F (d - t)), t = 0..d,
    for theta = T 2^-F: a polynomial of degree at most d at theta, times
    2^(F d), is an exact integer combination of them (:func:`_at`)."""
    x, y = theta
    re, im = [1 << GRID_BITS * d], [0]
    for _ in range(d):
        a, b = re[-1], im[-1]
        re.append((a * x - b * y) >> GRID_BITS)
        im.append((a * y + b * x) >> GRID_BITS)
    return re, im


def _at(coeffs, powers: tuple) -> tuple[int, int]:
    """The polynomial with ascending ``coeffs`` at theta, times 2^(F d),
    from the :func:`_powers` of theta."""
    return sum(map(mul, coeffs, powers[0])), sum(map(mul, coeffs, powers[1]))


def _grid_sweep(f: IntPoly, z: list) -> list:
    """The sweep of :func:`_aberth_sweep` on Gaussian integers (x, y) =
    (x + i y) 2^-F, for the polynomial f, as N / (1 - N * sum_(j != k)
    1 / (z_k - z_j)) with the Newton step N = f(z_k) / f'(z_k): f and f'
    exact at z_k, so that each reciprocal and quotient, rounded to the
    grid, costs about 2^-F however large or clustered the roots are."""
    F = GRID_BITS
    slope = f.derivative().coeffs
    deltas = []
    for x, y in z:
        powers = _powers((x, y), f.degree)
        (pr, pi), (sr, si) = _at(f.coeffs, powers), _at(slope, powers)
        if pr or pi:
            norm = sr * sr + si * si
            nr, ni = _div((pr * sr + pi * si) << F, norm), _div((pi * sr - pr * si) << F, norm)
            # sum_(j != k) 1 / (z_k - z_j), skipping equal approximations
            pairs = [(x - a, y - b) for a, b in z if (a, b) != (x, y)]
            tr = sum(_div(u << 2 * F, u * u + v * v) for u, v in pairs)
            ti = sum(_div(-v << 2 * F, u * u + v * v) for u, v in pairs)
            qr, qi = (1 << F) - ((nr * tr - ni * ti) >> F), -((nr * ti + ni * tr) >> F)
            norm = qr * qr + qi * qi
            pr, pi = _div((nr * qr + ni * qi) << F, norm), _div((ni * qr - nr * qi) << F, norm)
        deltas.append((pr, pi))
    z[:] = [(x - dx, y - dy) for (x, y), (dx, dy) in zip(z, deltas)]
    return deltas


def _settle(sweep, z: list, small) -> bool:
    """Sweeps ``sweep(z)`` until ``small(correction, root)`` accepts every
    corrected root of one sweep; False when :data:`_SWEEPS` sweeps do not
    get there."""
    for _ in range(_SWEEPS):
        if all(small(dv, v) for dv, v in zip(sweep(z), z)):
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


def _factor_roots(f: IntPoly) -> list:
    """All d roots of an integer polynomial of degree d, as Gaussian
    integers (x, y) on the grid, by Aberth's simultaneous iteration,
    refused unless it settled.  The inclusion disks of
    :func:`_inclusion_radii` prove them.

    The roots are seeded in complex doubles, on x = 2^s y with s the least
    shift that puts every root in |y| <= 2 (so every double stays in
    range), until every correction is at most 2^-20 of its root or of
    2^-(B+1), B the largest coefficient's bit length (a lower bound on
    every nonzero root).  The iteration then continues on the grid until
    every correction is at most one grid step, which p and p' exact at the
    grid points make reachable; a stop at 2^-(F/3) of the root, enough for
    well-separated roots, would leave clustered ones far off the grid.
    Updating every root at once keeps two clustered roots apart, where
    independent Newton steps could merge them."""
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
        settled = _settle(
            partial(_aberth_sweep, scaled[::-1]),
            y,
            lambda dv, v: abs(dv) <= max(abs(v), floor) * 2.0**-20,
        )
        if settled:
            ratios = [map(float.as_integer_ratio, (v.real, v.imag)) for v in y]
            z = [tuple(_div(a << s + GRID_BITS, b) for a, b in pair) for pair in ratios]
            settled = _settle(partial(_grid_sweep, f), z, lambda dv, v: max(map(abs, dv)) <= 1)
    except (ZeroDivisionError, OverflowError):
        settled = False
    if not settled:
        raise SpectralError(f"roots of {f.coeffs} did not converge")
    return z


def _inclusion_radii(f: IntPoly, roots: list, values: list) -> list:
    """Smith's inclusion disks about the approximations theta_i of the d
    roots of f (B. T. Smith, *J. ACM* 17, 1970), as grid radii, for
    ``values`` the squared norms |f(theta_i)|^2 2^(2 F d): each radius is
    more than d |f(theta_i)| / (|a_d| prod_(j != i) |theta_i - theta_j|).
    Refused unless the disks are pairwise disjoint, two equal theta
    included.  Disjoint disks hold one root of f each, so f has d distinct
    roots, one per disk; a disk centred on the real axis holds a real
    root, as a nonreal one would bring its conjugate into the same disk."""
    d, lead = f.degree, f.coeffs[-1]
    # |theta_i - theta_j|^2 2^(2F)
    dist = [[(x - u) ** 2 + (y - v) ** 2 for u, v in roots] for x, y in roots]
    radii = []
    for i, value in enumerate(values):
        gap = math.prod(dist[i][:i] + dist[i][i + 1 :])
        # the radius squared is d^2 value / (a_d^2 gap) 2^(-2F); infinite
        # when theta_i equals another theta
        radii.append(math.isqrt(d * d * value // (lead * lead * gap)) + 1 if gap else math.inf)
    if any(dist[i][j] <= (radii[i] + radii[j]) ** 2 for i, j in combinations(range(d), 2)):
        raise SpectralError(f"inclusion disks of the roots of {f.coeffs} overlap")
    return radii


# ---------------------------------------------------------------------------
# character rows


def _character_rows(f: IntPoly, D: int, W: list, roots: list, eps: int) -> list:
    """The rows W_i(theta) / D on the grid, one per root theta of f, each
    refused unless |f(theta) / f'(theta)| <= eps, and all refused unless
    the roots' inclusion disks (:func:`_inclusion_radii`) are pairwise
    disjoint; every value is exact (:func:`_powers`) before the one
    rounding of each entry."""
    den = D << GRID_BITS * (f.degree - 1)
    slope = f.derivative().coeffs
    rows, values = [], []
    for theta in roots:
        powers = _powers(theta, f.degree)
        (vr, vi), (sr, si) = _at(f.coeffs, powers), _at(slope, powers)
        # |f / f'| <= eps 2^-F
        value, slope_at = vr * vr + vi * vi, sr * sr + si * si
        if value << 2 * GRID_BITS > eps * eps * slope_at:
            step = math.sqrt(value / slope_at) if slope_at else math.inf
            raise SpectralError(f"root residual {step:.5g} of {f.coeffs} exceeds tolerance")
        values.append(value)
        rows.append(tuple((_div(a, den), _div(b, den)) for a, b in (_at(w, powers) for w in W)))
    _inclusion_radii(f, roots, values)
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
    at one root of f from :func:`_factor_roots`, made real when every
    element is self-paired.  A root is refused unless one Newton step
    moves it by at most eps, and the roots of f unless their inclusion
    disks are pairwise disjoint.
    """
    r = inst.rank
    mats = inst.matrices
    eps = max(1, inst.order) << GRID_BITS - 100
    _, factors, perron, Ds, exact_rows, mu = inst._solved
    if exact_rows is None:
        raise SitawimError("generator has no rational degree eigenvalue")
    # structural symmetry: b_j*b_j meets the identity iff b_j* = b_j,
    # so the declared involution type cannot make a root real
    symmetric = all(mats[j][0][j] for j in range(r))
    blocks: list[tuple[list, IntPoly, Optional[Fraction]]] = []
    mu = mu or [None] * len(factors)
    # the trivial orbit, listed first, is the exact degree row below
    for f, D, W, m in list(zip(factors, Ds, exact_rows, mu))[1:]:
        roots = _factor_roots(f)
        if symmetric:
            # every character value is real: the residual check and the
            # disks, on real centres, certify the projected roots
            roots = [(x, 0) for x, _ in roots]
        rows = _character_rows(f, D, W, roots, eps)
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
