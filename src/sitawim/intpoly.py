"""Dense univariate polynomials over the integers.

Every univariate step of the pipeline lives here: characteristic
polynomials of integer matrices (Faddeev-LeVerrier on one integer matrix
product, :func:`_matmul`, which :mod:`sitawim.structcheck` and
:mod:`sitawim.feasibility` share), the certified complex roots of a
squarefree polynomial, factorization over Z up to degree 5 and Galois
classes up to degree 4 read off those roots, and integer roots of
eliminants.  Coefficient lists are ascending; the degrees that show up are
tiny (matrices are at most 5x5).

Roots are Gaussian integers on one grid 2^-F, F = :data:`GRID_BITS`:
:func:`_factor_roots` runs Aberth's simultaneous iteration, and B. T.
Smith's inclusion disks about its results (:func:`_inclusion_radii`,
*J. ACM* 17, 1970) are refused unless pairwise disjoint, which proves that
each holds exactly one root.  An integer root, the sum and the product of
the two roots of a monic quadratic factor, and each root z1 z2 + z3 z4 of
a quartic's resolvent cubic round to the integers they are under an error
bound taken from the radii (refused once it reaches 1/2), and an exact
division checks every rounded candidate, so no running time grows with the
value of a coefficient.  Factorization and Galois classes take squarefree
monic input only: the one polynomial a stage hands them is the
characteristic polynomial of a squarefree generator
(:func:`sitawim.structcheck._orbit_solve`), so rational roots are integer
roots and a quadratic factor is monic.

One fraction-free long-division loop on integers (:func:`_pdivrem`)
serves exact division, the gcd (:func:`_poly_gcd`) and the product modulo
a monic factor (:func:`_mulmod`).  The solver's eliminants have integer
roots found by :func:`_integer_roots`: closed forms up to degree 2, above
it a divisor test (:func:`_divisors`) bounded by the Cauchy bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import gcd, isqrt
from operator import mul
from typing import Optional, Sequence

from .errors import SitawimError, SpectralError

__all__ = [
    "GaloisClass",
    "IntPoly",
    "charpoly",
]

PRECISION = 256
_GUARD_BITS = 32
#: F, the fractional bits of the one grid every root and spectral value lies on
GRID_BITS = PRECISION + _GUARD_BITS
# the most Aberth sweeps one stage of _factor_roots may take: one per bit
# of the grid, as a stage converges linearly (about a bit a sweep) about
# a cluster of roots until the cluster splits
_SWEEPS = GRID_BITS


def _div(a: int, b: int) -> int:
    """a / b rounded to the nearest int (halves up), for b > 0."""
    return (2 * a + b) // (2 * b)


# ---------------------------------------------------------------------------
# coefficient-list arithmetic
# ---------------------------------------------------------------------------


def _ptrim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pdivrem(a: Sequence[int], b: Sequence[int]) -> tuple[list, list, int]:
    """Fraction-free long division of ``a`` by ``b`` (integer lists, ``b``
    with a nonzero leading coefficient): ``(quo, rem, scale)`` with
    ``scale > 0``, ``scale*a == quo*b + rem`` and ``deg rem < deg b``.

    Before a step whose quotient coefficient ``v / lead`` is not an integer
    the work is multiplied by ``|lead| // gcd(v, lead)``, so ``quo/scale``
    and ``rem/scale`` are the quotient and remainder over Q, and ``scale``
    is 1 exactly when that quotient is integral."""
    if not b:
        raise SitawimError("division by the zero polynomial")
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quo = [0] * max(len(rem) - db, 0)
    scale = 1
    for i in range(len(rem) - 1, db - 1, -1):
        v = rem[i]
        if not v:
            continue
        if v % lead:
            f = abs(lead) // gcd(v, lead)
            rem = [f * c for c in rem]
            quo = [f * c for c in quo]
            scale *= f
            v *= f
        c = v // lead
        quo[i - db] = c
        for j in range(db + 1):
            rem[i - db + j] -= c * b[j]
    return quo, _ptrim(rem[:db]), scale


def _mulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int]) -> list:
    """The remainder of ``a*b`` modulo a monic ``f``, on integer lists: the
    product of Z[x]/(f)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += u * v
    return _pdivrem(prod, f)[1]


def _pdivides(g: Sequence[int], p: Sequence[int]) -> Optional[list]:
    """Integer quotient ``p // g`` if ``g`` divides ``p`` over Z, else None."""
    quo, rem, scale = _pdivrem(p, g)
    return None if rem or scale != 1 else _ptrim(quo)


def _content(c: Sequence[int]) -> int:
    g = 0
    for v in c:
        g = gcd(g, v)
    return g


def _primitive(c: list) -> list:
    """A trimmed integer list over its content, with a positive leading
    coefficient; ``[]`` stays ``[]``."""
    g = _content(c)
    if c and c[-1] < 0:
        g = -g
    return [v // g for v in c]


def _poly_gcd(a: Sequence[int], b: Sequence[int]) -> list:
    """The gcd over Q of two integer polynomials, primitive with a positive
    leading coefficient; ``[]`` when both are zero.  Euclid on the
    fraction-free remainders, each made primitive: a nonzero rational
    multiple of the remainder over Q, with small coefficients."""
    a, b = _primitive(_ptrim(list(a))), _primitive(_ptrim(list(b)))
    while b:
        a, b = b, _primitive(_pdivrem(a, b)[1])
    return a


def _is_square(v: int) -> bool:
    return v >= 0 and isqrt(v) ** 2 == v


def _as_int(v: object, what: str = "structure constant") -> int:
    """``v`` as an int; SitawimError naming ``what`` unless it is integral."""
    i = int(v)
    if i != v:
        raise SitawimError(f"{what} {v!r} is not an integer")
    return i


@dataclass(frozen=True)
class IntPoly:
    """A nonzero integer polynomial of degree at most 5.

    ``coeffs`` is ascending; the leading coefficient is normalized to be
    positive (characteristic polynomials come out monic).  A coefficient
    that is not integral is refused.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = _ptrim([_as_int(v, "coefficient") for v in self.coeffs])
        if not c:
            raise SitawimError("the zero polynomial has no factorization data")
        if len(c) - 1 > 5:
            raise SitawimError(f"degree {len(c) - 1} exceeds the supported bound 5")
        if c[-1] < 0:
            c = [-v for v in c]
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self) -> "IntPoly":
        if self.degree == 0:
            raise SitawimError("derivative of a constant is zero")
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))


# ---------------------------------------------------------------------------
# characteristic polynomials (Faddeev-LeVerrier)
# ---------------------------------------------------------------------------


def _matmul(A, B):
    """Product of two square integer matrices."""
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def charpoly(matrix: Sequence[Sequence[int]]) -> IntPoly:
    """Exact monic characteristic polynomial ``det(xI - M)``.

    Faddeev-LeVerrier: with ``N_1 = M``, the coefficient of ``x^(n-k)`` is
    ``c_k = -tr(N_k) / k`` and ``N_(k+1) = M (N_k + c_k I)``.  The
    coefficients are integers, so every division by ``k`` is exact and the
    whole computation is n - 1 integer matrix products.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise SitawimError("characteristic polynomial needs a square matrix")
    M = [[int(v) for v in row] for row in matrix]
    desc = [1]
    N = M
    for k in range(1, n + 1):
        c = -sum(N[i][i] for i in range(n)) // k
        desc.append(c)
        if k < n:
            shifted = [[v + c if i == j else v for j, v in enumerate(row)] for i, row in enumerate(N)]
            N = _matmul(M, shifted)
    return IntPoly(tuple(reversed(desc)))


# ---------------------------------------------------------------------------
# integer roots
# ---------------------------------------------------------------------------


def _divisors(v: int, bound: int) -> list[int]:
    """The positive divisors of ``v`` that are at most ``bound``: trial
    division up to ``min(bound, isqrt(|v|))``, each divisor found paired
    with its cofactor when that is within the bound."""
    v = abs(v)
    small = [d for d in range(1, min(bound, isqrt(v)) + 1) if v % d == 0]
    return small + [v // d for d in reversed(small) if d * d != v and v // d <= bound]


def _integer_roots(coeffs: Sequence[int]) -> list[int]:
    """All distinct integer roots, ascending, of a nonzero integer
    polynomial (ascending coefficients).

    After stripping the root 0, degrees 1 and 2 are solved in closed form:
    exact division, and for a quadratic the exact square root of the
    discriminant, so the cost is polynomial in the bit size.  Above degree
    2 a root ``r`` divides the constant term and has ``|r|`` at most the
    Cauchy bound, so only the divisors within that bound are tried; each
    candidate is screened by ``(r - 1) | f(1)`` and ``(r + 1) | f(-1)``
    before the exact evaluation.
    """
    c = _ptrim(list(coeffs))
    if not c:
        raise SitawimError("zero polynomial has no finite root set")
    roots = []
    if c[0] == 0:
        roots.append(0)
        while c[0] == 0:
            c.pop(0)
    if len(c) == 2:
        if c[0] % c[1] == 0:
            roots.append(-c[0] // c[1])
    elif len(c) == 3:
        # x = (-c1 +- s) / (2 c2) with s^2 the discriminant; a double root once
        disc = c[1] ** 2 - 4 * c[0] * c[2]
        if _is_square(disc):
            s = isqrt(disc)
            for num in {s - c[1], -s - c[1]}:
                if num % (2 * c[2]) == 0:
                    roots.append(num // (2 * c[2]))
    elif len(c) > 3:
        bound = 1 + max(abs(v) for v in c[:-1]) // abs(c[-1])
        f1 = sum(c)
        fm1 = sum(v if i % 2 == 0 else -v for i, v in enumerate(c))
        for d in _divisors(c[0], bound):
            for r in (d, -d):
                if r != 1 and f1 % (r - 1):
                    continue
                if r != -1 and fm1 % (r + 1):
                    continue
                acc = 0
                for v in reversed(c):
                    acc = acc * r + v
                if acc == 0:
                    roots.append(r)
    return sorted(roots)


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


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


def _inclusion_radii(f: IntPoly, roots: list) -> list:
    """Smith's inclusion disks about the approximations theta_i of the d
    roots of f (B. T. Smith, *J. ACM* 17, 1970), as grid radii: each
    radius is more than d |f(theta_i)| / (|a_d| prod_(j != i) |theta_i -
    theta_j|), with f(theta_i) exact (:func:`_at`).  Refused unless the
    disks are pairwise disjoint, two equal theta included.  Disjoint disks
    hold one root of f each, so f has d distinct roots, one per disk; a
    disk centred on the real axis holds a real root, as a nonreal one would
    bring its conjugate into the same disk."""
    d, lead = f.degree, f.coeffs[-1]
    # |theta_i - theta_j|^2 2^(2F)
    dist = [[(x - u) ** 2 + (y - v) ** 2 for u, v in roots] for x, y in roots]
    radii = []
    for i, theta in enumerate(roots):
        # |f(theta_i)|^2 2^(2 F d)
        vr, vi = _at(f.coeffs, _powers(theta, d))
        gap = math.prod(dist[i][:i] + dist[i][i + 1 :])
        # the radius squared is d^2 |f|^2 / (a_d^2 gap) 2^(-2F); infinite
        # when theta_i equals another theta
        radii.append(math.isqrt(d * d * (vr * vr + vi * vi) // (lead * lead * gap)) + 1 if gap else math.inf)
    if any(dist[i][j] <= (radii[i] + radii[j]) ** 2 for i, j in combinations(range(d), 2)):
        raise SpectralError(f"inclusion disks of the roots of {f.coeffs} overlap")
    return radii


# ---------------------------------------------------------------------------
# factorization over the integers, degree <= 5, read off the roots
# ---------------------------------------------------------------------------


def _integer_near(value: tuple, bound: int, bits: int) -> Optional[int]:
    """The integer k within ``bound`` 2^-bits of the complex ``value`` (re,
    im) 2^-bits, or None: for a value within that bound of a number, the
    number itself when it is an integer.  Refused unless bound <
    2^(bits - 1), so that at most one integer is that near."""
    if bound >= 1 << bits - 1:
        raise SpectralError("inclusion disks too wide to round to an integer")
    x, y = value
    k = _div(x, 1 << bits)
    return k if (x - (k << bits)) ** 2 + y * y <= bound * bound else None


def _product(a: tuple, b: tuple) -> tuple[tuple[int, int], int]:
    """For two disks ``(centre, radius)`` on the grid: the product of the
    centres on the grid 2^-2F, and a bound |z| s + |w| r + r s on its
    distance from the product of any two points of the disks."""
    ((x, y), r), ((u, v), s) = a, b
    bound = (isqrt(x * x + y * y) + 1) * s + (isqrt(u * u + v * v) + 1) * r + r * s
    return (x * u - y * v, x * v + y * u), bound


def _factor_squarefree(f: IntPoly, real: bool = False) -> list[tuple]:
    """The irreducible factors of a squarefree monic f of degree at most 5,
    sorted by degree then coefficients, each as ``(factor, disks)``: the
    inclusion disks ``(centre, radius)`` about its roots, the centres put
    on the real axis when ``real`` (every root of f is real).

    A disk holds an integer root k exactly when k lies in it and x - k
    divides f; that root is then kept exact.  With four or more roots left,
    every pair of disks whose centres have a sum and a product near
    integers S and P gives a candidate x^2 - S x + P for exact division.
    What is left has no factor of degree 1 or 2, so it is irreducible."""
    F = GRID_BITS
    roots = _factor_roots(f)
    if real:
        roots = [(x, 0) for x, _ in roots]
    disks = list(zip(roots, _inclusion_radii(f, roots)))
    rest, out = list(f.coeffs), []
    for disk in list(disks):
        k = _integer_near(*disk, F)
        if k is not None and (quo := _pdivides([-k, 1], rest)) is not None:
            rest = quo
            disks.remove(disk)
            out.append((IntPoly((-k, 1)), [((k << F, 0), 0)]))
    near: dict = {}
    for a, b in combinations(disks, 2) if len(disks) >= 4 else ():
        total = _integer_near(tuple(map(sum, zip(a[0], b[0]))), a[1] + b[1], F)
        prod = _integer_near(*_product(a, b), 2 * F)
        if total is not None and prod is not None:
            near.setdefault((prod, -total, 1), []).append([a, b])
    for q, pairs in near.items():
        if (quo := _pdivides(q, rest)) is not None:
            if len(pairs) > 1:
                raise SpectralError(f"two root pairs of {f.coeffs} are near the factor {q}")
            rest = quo
            disks = [disk for disk in disks if disk not in pairs[0]]
            out.append((IntPoly(q), pairs[0]))
            break
    if disks:
        out.append((IntPoly(tuple(rest)), disks))
    return sorted(out, key=lambda piece: (piece[0].degree, piece[0].coeffs))


# ---------------------------------------------------------------------------
# Galois classification of irreducible factors, degree <= 4
# ---------------------------------------------------------------------------

_ABELIAN_TAGS = frozenset({"C1", "C2", "C3", "C4", "V4"})
_ALL_TAGS = _ABELIAN_TAGS | {"S3", "D4", "A4", "S4"}


@dataclass(frozen=True)
class GaloisClass:
    """Isomorphism class of the Galois group of an irreducible factor."""

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in _ALL_TAGS:
            raise SitawimError(f"unknown Galois class tag {self.tag!r}")

    @property
    def abelian(self) -> bool:
        return self.tag in _ABELIAN_TAGS

    def __str__(self) -> str:
        return self.tag


def _cubic_disc(b, c, d):
    """Discriminant of ``x^3 + bx^2 + cx + d``."""
    return 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2


def _galois_class(p: IntPoly, disks: list) -> GaloisClass:
    """Galois group of an irreducible monic polynomial of degree at most 4,
    with ``disks`` the inclusion disks ``(centre, radius)`` of its roots
    z1..z4 (read at degree 4 only).

    Degree 3 splits on whether the discriminant is a square.  Degree 4 uses
    the resolvent cubic ``y^3 - by^2 + (ac-4d)y - (a^2 d - 4bd + c^2)``,
    whose discriminant equals the quartic's and whose roots z1 z2 + z3 z4,
    z1 z3 + z2 z4 and z1 z4 + z2 z3 each round to the integer they are, if
    they are one.  No integer resolvent root means S4 (A4 when the
    discriminant is a square), three mean V4, and exactly one leaves C4 vs
    D4, settled by the Kappe-Warren criterion (both associated quadratics
    ``z^2 - Bz + d`` and ``z^2 - az + (b - B)`` must split over
    Q(sqrt(disc)) for C4 -- an integer-square test, since every value it
    sees is an integer).
    """
    deg = p.degree
    if deg in (1, 2):
        return GaloisClass(f"C{deg}")
    if deg == 3:
        d0, c0, b0 = p.coeffs[:3]
        return GaloisClass("C3" if _is_square(_cubic_disc(b0, c0, d0)) else "S3")
    if deg != 4:
        raise SitawimError(f"Galois classification supports degree <= 4, got {deg}")
    d, c, b, a = p.coeffs[:4]
    resolvent = [-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b, 1]
    disc = _cubic_disc(resolvent[2], resolvent[1], resolvent[0])
    roots = set()
    for i, j, k, l in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
        (u, e), (v, g) = _product(disks[i], disks[j]), _product(disks[k], disks[l])
        beta = _integer_near((u[0] + v[0], u[1] + v[1]), e + g, 2 * GRID_BITS)
        if beta is not None and _pdivides([-beta, 1], resolvent) is not None:
            roots.add(beta)
    if len(roots) == 0:
        return GaloisClass("A4" if _is_square(disc) else "S4")
    if len(roots) >= 3:
        return GaloisClass("V4")
    beta = roots.pop()
    t1 = beta * beta - 4 * d
    t2 = a * a - 4 * (b - beta)
    def splits(t) -> bool:
        return _is_square(t) or _is_square(t * disc)
    return GaloisClass("C4" if splits(t1) and splits(t2) else "D4")
