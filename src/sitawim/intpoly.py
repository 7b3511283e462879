"""Dense univariate polynomials over the integers.

Every exact univariate step of the pipeline lives here: characteristic
polynomials of integer matrices, factorization over Z up to degree 5,
Galois classes of the irreducible factors up to degree 4, and integer roots
of eliminants.

Coefficient lists are ascending.  The degrees that show up are tiny
(matrices are at most 5x5), so clarity beats asymptotics throughout, with
one exception: the constant terms of eliminants can be huge, so the
integer-root finder solves degrees 1 and 2 in closed form (exact division,
an exact square root of the discriminant) and bounds its divisor test
above degree 2 by the Cauchy bound.

Characteristic polynomials come from Faddeev-LeVerrier on one integer
matrix product (:func:`_matmul`, which :mod:`sitawim.structcheck` and
:mod:`sitawim.feasibility` share).  Factorization and Galois classes take
monic input only: every polynomial a stage hands them is a characteristic
polynomial or a monic factor of one, so rational roots are integer roots
and a quadratic factor is monic.  One fraction-free long-division loop on
integers (:func:`_pdivrem`) serves exact division, the gcd
(:func:`_poly_gcd`: the squarefree test, and the eliminant of a
one-unknown system in :mod:`sitawim.solver`) and the product modulo a
monic factor (:func:`_mulmod`) that checks the exact character rows of
:mod:`sitawim.structcheck`; one divisor enumerator
(:func:`_divisors`) serves the root finder and the quadratic-factor search.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from operator import mul
from typing import Optional, Sequence

from .errors import SitawimError

__all__ = [
    "GaloisClass",
    "IntPoly",
    "charpoly",
    "factor_int_poly",
    "galois_class",
]


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


def _pdivexact(a: Sequence[int], b: Sequence[int]) -> list:
    """Quotient of ``a`` by ``b`` when the division is exact over Z.

    Raises :class:`SitawimError` if it is not (that would be a logic error
    in a fraction-free elimination, or a non-factor in a trial division).
    """
    quo, rem, scale = _pdivrem(a, b)
    if rem or scale != 1:
        raise SitawimError("inexact polynomial division")
    return _ptrim(quo)


def _pdivides(g: Sequence[int], p: Sequence[int]) -> Optional[list]:
    """Integer quotient ``p // g`` if ``g`` divides ``p`` over Z, else None."""
    try:
        return _pdivexact(p, g)
    except SitawimError:
        return None


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


@dataclass(frozen=True)
class IntPoly:
    """A nonzero integer polynomial of degree at most 5.

    ``coeffs`` is ascending; the leading coefficient is normalized to be
    positive (characteristic polynomials come out monic).
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = _ptrim([int(v) for v in self.coeffs])
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

    @property
    def lead(self) -> int:
        return self.coeffs[-1]

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


def _divisors(v: int, bound: Optional[int] = None) -> list[int]:
    """The positive divisors of ``v`` that are at most ``bound`` (all of
    them when ``bound`` is None): trial division up to
    ``min(bound, isqrt(|v|))``, each divisor found paired with its
    cofactor when that is within the bound."""
    v = abs(v)
    if bound is None:
        bound = v
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
# factorization over the integers, degree <= 5
# ---------------------------------------------------------------------------


def _modp_trim(c: Sequence[int], p: int) -> list[int]:
    out = [v % p for v in c]
    while out and out[-1] == 0:
        out.pop()
    return out


def _modp_rem(a: list[int], f: list[int], p: int) -> list[int]:
    """Remainder of ``a`` modulo a monic ``f``, coefficients mod ``p``."""
    a = a[:]
    df = len(f) - 1
    while len(a) - 1 >= df:
        q = a[-1]
        off = len(a) - 1 - df
        for i in range(df + 1):
            a[off + i] = (a[off + i] - q * f[i]) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _modp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _modp_trim(a, p), _modp_trim(b, p)
    while b:
        inv = pow(b[-1], -1, p)
        a, b = b, _modp_rem(a, [(v * inv) % p for v in b], p)
    return a


def _modp_mulrem(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                prod[i + j] = (prod[i + j] + u * v) % p
    return _modp_rem(prod, f, p)


def _irreducible_mod_p(c: list[int], p: int) -> Optional[bool]:
    """True if the monic ``c`` is irreducible modulo ``p`` (hence over the
    integers); None when the prime cannot certify (the reduction is not
    squarefree); False when reducible mod ``p``, which by itself proves
    nothing about the integers."""
    f = [v % p for v in c]
    d = len(f) - 1
    deriv = [(i * f[i]) % p for i in range(1, d + 1)]
    if len(_modp_gcd(f, deriv, p)) != 1:
        return None
    # distinct-degree sieve: f is irreducible iff gcd(x^(p^i) - x, f) is
    # trivial for every i up to d // 2
    xp = [0, 1]
    for _ in range(d // 2):
        power = xp
        acc = [1]
        e = p
        while e:
            if e & 1:
                acc = _modp_mulrem(acc, power, f, p)
            power = _modp_mulrem(power, power, f, p)
            e >>= 1
        xp = acc
        diff = _modp_trim([v - (1 if i == 1 else 0) for i, v in enumerate(xp + [0, 0])], p)
        if not diff or len(_modp_gcd(f, diff, p)) != 1:
            return False
    return True


_SCREEN_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _quadratic_factor(c: list[int]) -> Optional[list[int]]:
    """Lexicographically-least monic quadratic factor ``x^2 + a1 x + a0``
    of the monic ``c`` (which has no integer roots), or None.

    Candidates are enumerated by interpolation: a factor g must satisfy
    g(1) | c(1) and g(-1) | c(-1), and those two values determine g.
    Survivors are pruned by a Mignotte-style height bound on the middle
    coefficient, g(0) | c(0) and g(2) | c(2) before the exact trial
    division."""
    height = 4 * (1 + isqrt(sum(v * v for v in c)))
    f0 = c[0]
    f1 = sum(c)
    fm1 = sum(v if i % 2 == 0 else -v for i, v in enumerate(c))
    f2 = sum(v * 2**i for i, v in enumerate(c))
    # no integer roots, so none of these sample values vanish
    hits = []
    for d1 in (s * d for d in _divisors(f1) for s in (1, -1)):
        for dm in (s * d for d in _divisors(fm1) for s in (1, -1)):
            if (d1 - dm) % 2:
                continue
            a1 = (d1 - dm) // 2
            if abs(a1) > height:
                continue
            a0 = (d1 + dm) // 2 - 1
            if a0 == 0 or f0 % a0:
                continue
            g2 = 4 + 2 * a1 + a0
            if g2 == 0 or f2 % g2:
                continue
            if _pdivides([a0, a1, 1], c) is not None:
                hits.append((a1, a0))
    if not hits:
        return None
    a1, a0 = min(hits)
    return [a0, a1, 1]


def factor_int_poly(p: IntPoly) -> list[IntPoly]:
    """Complete irreducible factorization of a monic polynomial over the
    integers.

    Integer roots are stripped first; what remains of degree 4 or 5 can
    only split off a quadratic, which a bounded coefficient search finds.
    The result is sorted (by degree, then coefficients) and repeats factors
    according to multiplicity.
    """
    if p.lead != 1:
        raise SitawimError("factorization expects a monic polynomial")
    c = list(p.coeffs)
    factors: list[IntPoly] = []
    while len(c) > 1 and c[0] == 0:
        factors.append(IntPoly((0, 1)))
        c = c[1:]
    for r in _integer_roots(c):
        while len(c) > 2 and (quo := _pdivides([-r, 1], c)) is not None:
            factors.append(IntPoly((-r, 1)))
            c = quo
    while len(c) - 1 >= 4:
        # cheap certificate first: irreducible mod p implies irreducible here
        if any(_irreducible_mod_p(c, q) for q in _SCREEN_PRIMES):
            break
        g = _quadratic_factor(c)
        if g is None:
            break
        factors.append(IntPoly(tuple(g)))
        c = _pdivexact(c, g)
    if len(c) > 1:
        factors.append(IntPoly(tuple(c)))
    return sorted(factors, key=lambda f: (f.degree, f.coeffs))


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


def galois_class(p: IntPoly) -> GaloisClass:
    """Galois group of an irreducible monic polynomial of degree at most 4.

    Degree 3 splits on whether the discriminant is a square.  Degree 4 uses
    the resolvent cubic ``y^3 - by^2 + (ac-4d)y - (a^2 d - 4bd + c^2)``,
    whose discriminant equals the quartic's: no integer resolvent root
    means S4 (A4 when the discriminant is a square), three mean V4, and
    exactly one leaves C4 vs D4, settled by the Kappe-Warren criterion
    (both associated quadratics ``z^2 - Bz + d`` and ``z^2 - az + (b - B)``
    must split over Q(sqrt(disc)) for C4 -- an integer-square test, since
    every value it sees is an integer).
    """
    if p.lead != 1:
        raise SitawimError("Galois classification expects a monic polynomial")
    deg = p.degree
    if deg == 1:
        return GaloisClass("C1")
    if deg == 2:
        return GaloisClass("C2")
    if deg == 3:
        d0, c0, b0 = p.coeffs[:3]
        return GaloisClass("C3" if _is_square(_cubic_disc(b0, c0, d0)) else "S3")
    if deg != 4:
        raise SitawimError(f"Galois classification supports degree <= 4, got {deg}")
    d, c, b, a = p.coeffs[:4]
    resolvent = [-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b, 1]
    disc = _cubic_disc(resolvent[2], resolvent[1], resolvent[0])
    roots = _integer_roots(resolvent)
    if len(roots) == 0:
        return GaloisClass("A4" if _is_square(disc) else "S4")
    if len(roots) >= 3:
        return GaloisClass("V4")
    beta = roots[0]
    t1 = beta * beta - 4 * d
    t2 = a * a - 4 * (b - beta)
    def splits(t) -> bool:
        return _is_square(t) or _is_square(t * disc)
    return GaloisClass("C4" if splits(t1) and splits(t2) else "D4")
