"""High-precision eigenstructure: eigenmatrices and dual intersection numbers.

Everything downstream of the exact layer that genuinely needs numbers — the
first eigenmatrix P, the second eigenmatrix Q, and the Krein/dual
intersection matrices — lives here, computed with arbitrary-precision
binary floats (mpmath), 256 bits by default.

The exact layer anchors the numerics: for an instance whose star is the
identity all character values are totally real, so each row of P is pinned
to a root of an irreducible factor of a generator's characteristic
polynomial (the squarefree generator that the exact multiplicities use
too), and the root is isolated exactly by Sturm sequences and bisection on
integers (:func:`sitawim.intpoly._real_roots`), so each row starts from an
exact rational approximation.
Instances with an asymmetric pair get the classical fallback: numerically
diagonalize an integer linear combination of the basis matrices and read
every b_i off the shared eigenvectors.  In both paths each claimed row is
validated against every matrix by an explicit residual bound.

Row order is canonical: the degree row first, then Galois orbits by
(size, leading row), rows inside an orbit ascending by their value tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath import mp

from .errors import SitawimError, SpectralError
from .intpoly import IntPoly, _real_roots
from .structcheck import Instance, _squarefree_generator, multiplicities

__all__ = [
    "SpectralData",
    "eigenmatrix_P",
    "row_multiplicities",
    "eigenmatrix_Q",
    "krein",
    "as_rational",
    "render_matrix",
]

DEFAULT_PRECISION = 256
_GUARD_BITS = 32


@dataclass(frozen=True)
class SpectralData:
    """Accumulated numeric spectrum of one instance.

    ``P[l][i]`` is the value of the l-th character row on ``b_i``;
    ``orbits`` partitions the row indices by Galois orbit (the degree row
    is the singleton ``(0,)``).  ``Q`` and ``krein`` start as ``None`` and
    are filled by :func:`eigenmatrix_Q` / :func:`krein`.  ``eps`` is the
    working zero tolerance every residual was checked against.
    """

    precision: int
    eps: object
    P: tuple[tuple[object, ...], ...]
    orbits: tuple[tuple[int, ...], ...]
    orbit_polys: tuple[IntPoly, ...]
    Q: Optional[tuple[tuple[object, ...], ...]] = None
    krein: Optional[tuple[tuple[tuple[object, ...], ...], ...]] = None

    @property
    def rank(self) -> int:
        return len(self.P)


# ---------------------------------------------------------------------------
# eigenvector extraction


def _mpf_of(q: Fraction):
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def _null_vector(mat, size):
    """A kernel vector of a numerically rank-deficient square matrix, via
    the adjugate: its largest column.  Small sizes only."""
    cols = []
    for j in range(size):
        col = []
        for i in range(size):
            minor = mp.matrix(size - 1, size - 1)
            for a in range(size - 1):
                aa = a if a < i else a + 1
                for b in range(size - 1):
                    bb = b if b < j else b + 1
                    minor[a, b] = mat[aa, bb]
            cofactor = mp.det(minor) if size > 1 else mp.mpf(1)
            if (i + j) % 2:
                cofactor = -cofactor
            col.append(cofactor)
        cols.append(col)
    # adj(A) = C^T, so its columns are indexed by the cofactor row
    best, best_norm = None, mp.mpf(-1)
    for i in range(size):
        vec = [cols[j][i] for j in range(size)]
        norm = max(abs(v) for v in vec)
        if norm > best_norm:
            best, best_norm = vec, norm
    return best


def _row_from_vector(mats, vec, eps):
    """Character values (b_i v)[t] / v[t] at the largest component t, each
    validated by the full residual ||b_i v - mu v|| <= eps * ||v||."""
    r = len(mats)
    t = max(range(len(vec)), key=lambda i: abs(vec[i]))
    scale = abs(vec[t])
    row = []
    for i in range(r):
        image = [sum(mp.mpf(mats[i][a][b]) * vec[b] for b in range(r)) for a in range(r)]
        mu = image[t] / vec[t]
        residual = max(abs(image[a] - mu * vec[a]) for a in range(r))
        if residual > eps * scale:
            raise SpectralError(
                f"eigenvector residual {mp.nstr(residual, 5)} exceeds tolerance"
            )
        row.append(mu)
    return row


def _row_sort_key(row):
    return [(mp.re(v), mp.im(v)) for v in row[1:]]


# ---------------------------------------------------------------------------
# public operations


def eigenmatrix_P(
    inst: Instance, precision: int = DEFAULT_PRECISION, eps=None
) -> SpectralData:
    """The first eigenmatrix: one row per irreducible character.

    Row 0 is the exact degree row.  Remaining rows are grouped into Galois
    orbits (one orbit per irreducible factor of a generator's
    characteristic polynomial) and each row is validated entrywise against
    every basis matrix by a residual bound.
    """
    r = inst.rank
    mats = inst.matrices
    with mp.workprec(precision + _GUARD_BITS):
        if eps is None:
            eps = mp.ldexp(1, -100) * max(1, inst.order)
        combo, factors, perron = _squarefree_generator(inst)
        trivial = [f for f in factors if f.degree == 1 and f(perron) == 0]
        if not trivial:
            raise SitawimError("generator has no rational degree eigenvalue")
        # structural symmetry: b_j*b_j meets the identity iff b_j* = b_j,
        # so the declared involution type cannot misroute the dispatch
        symmetric = all(mats[j][0][j] for j in range(r))
        blocks: list[tuple[list, IntPoly]] = []
        if symmetric:
            for f in factors:
                if f == trivial[0]:
                    continue
                rows = []
                for root in _real_roots(f, precision):
                    theta = _mpf_of(root)
                    A = mp.matrix(r, r)
                    for a in range(r):
                        for b in range(r):
                            A[a, b] = mp.mpf(combo[a][b]) - (theta if a == b else 0)
                    vec = _null_vector(A, r)
                    rows.append(_row_from_vector(mats, vec, eps))
                if len(rows) != f.degree:
                    raise SpectralError(
                        f"found {len(rows)} real roots for a degree-{f.degree} factor"
                    )
                blocks.append((rows, f))
        else:
            M = mp.matrix(r, r)
            for a in range(r):
                for b in range(r):
                    M[a, b] = mp.mpf(combo[a][b])
            eigvals, right = mp.eig(M, left=False, right=True)
            per_factor: dict[IntPoly, list] = {f: [] for f in factors}
            for idx, lam in enumerate(eigvals):
                vec = [right[a, idx] for a in range(r)]
                hosts = sorted(factors, key=lambda f: abs(f(lam)))
                host = hosts[0]
                if abs(host(lam)) > eps * max(1, abs(lam)) ** host.degree:
                    raise SpectralError("eigenvalue matches no exact factor")
                if host == trivial[0]:
                    continue
                per_factor[host].append(_row_from_vector(mats, vec, eps))
            for f in factors:
                if f == trivial[0]:
                    continue
                if len(per_factor[f]) != f.degree:
                    raise SpectralError(
                        f"factor of degree {f.degree} received {len(per_factor[f])} rows"
                    )
                blocks.append((per_factor[f], f))
        for rows, _ in blocks:
            rows.sort(key=_row_sort_key)
        blocks.sort(key=lambda block: (len(block[0]), _row_sort_key(block[0][0])))
        P = [tuple(mp.mpf(d) for d in inst.degrees)]
        orbits = [(0,)]
        orbit_polys = [trivial[0]]
        for rows, f in blocks:
            start = len(P)
            for row in rows:
                fixed = (mp.mpf(1),) + tuple(row[1:])
                P.append(fixed)
            orbits.append(tuple(range(start, len(P))))
            orbit_polys.append(f)
        return SpectralData(
            precision=precision,
            eps=eps,
            P=tuple(P),
            orbits=tuple(orbits),
            orbit_polys=tuple(orbit_polys),
        )


def row_multiplicities(sd: SpectralData, inst: Instance) -> list:
    """Exact multiplicity (as a Fraction) of each P row, matched through
    the Galois-orbit factor rather than by value order."""
    res = multiplicities(inst)
    by_factor = dict(res.orbits)
    out = [None] * sd.rank
    for orbit, poly in zip(sd.orbits, sd.orbit_polys):
        mu = by_factor.get(poly)
        if mu is None:
            raise SpectralError(f"no multiplicity recorded for factor {poly}")
        q = Fraction(int(mu.numerator), int(mu.denominator))
        for l in orbit:
            out[l] = q
    return out


def eigenmatrix_Q(sd: SpectralData, inst: Instance) -> SpectralData:
    """The second eigenmatrix: Q[j][i] = m_i * conj(P[i][j]) / k_j, with the
    exact multiplicities and degrees; checks P.Q = n.I within tolerance."""
    r = sd.rank
    n = inst.order
    with mp.workprec(sd.precision + _GUARD_BITS):
        m = [_mpf_of(q) for q in row_multiplicities(sd, inst)]
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

    Verifies L*_0 = identity, the i<->j symmetry, row sums equal to the
    multiplicities, and vanishing imaginary parts, all within tolerance.
    """
    r = sd.rank
    n = inst.order
    if sd.Q is None:
        sd = eigenmatrix_Q(sd, inst)
    with mp.workprec(sd.precision + _GUARD_BITS):
        # Q[0][i] = m_i * conj(P[i][0]) / k_0 with P[i][0] = k_0 = 1
        m = sd.Q[0]
        deg2 = [mp.mpf(k) ** 2 for k in inst.degrees]
        kappa = [[[None] * r for _ in range(r)] for _ in range(r)]
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    acc = sum(
                        sd.P[i][l] * sd.P[j][l] * mp.conj(sd.P[k][l]) / deg2[l]
                        for l in range(r)
                    )
                    value = m[i] * m[j] / n * acc
                    if abs(mp.im(value)) > sd.eps:
                        raise SpectralError(
                            f"kappa[{i}][{j}][{k}] has imaginary part "
                            f"{mp.nstr(mp.im(value), 5)}"
                        )
                    kappa[i][j][k] = mp.re(value)
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    if abs(kappa[i][j][k] - kappa[j][i][k]) > sd.eps:
                        raise SpectralError("kappa is not symmetric in its row pair")
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


# ---------------------------------------------------------------------------
# rational recognition and rendering


def as_rational(value, max_denominator: int = 10**4, tol=None) -> Optional[Fraction]:
    """The unique rational with denominator <= max_denominator within tol of
    ``value`` (continued-fraction reconstruction), or None.

    Mirrors the paper's displays, which mix exact rationals like 5/3 and
    20/9 into otherwise numeric matrices.
    """
    if mp.im(value) != 0:
        return None
    with mp.workprec(max(mp.prec, 512)):
        x = mp.re(value)
        if tol is None:
            tol = mp.ldexp(1, -80)
        h0, h1 = 1, 0
        k0, k1 = 0, 1
        rest = x
        for _ in range(64):
            a = mp.floor(rest)
            h0, h1 = int(a) * h0 + h1, h0
            k0, k1 = int(a) * k0 + k1, k0
            if k0 > max_denominator:
                return None
            if abs(x - mp.mpf(h0) / k0) <= tol:
                return Fraction(h0, k0)
            frac = rest - a
            if frac == 0:
                return None
            rest = 1 / frac
    return None


def render_matrix(M, sig: int = 6, max_denominator: int = 10**4) -> str:
    """Rows of a numeric matrix with ``sig`` significant digits, rational
    entries shown exactly — the paper's mixed display style."""
    out = []
    for row in M:
        cells = []
        for v in row:
            q = as_rational(v, max_denominator=max_denominator)
            if q is not None:
                cells.append(str(q.numerator) if q.denominator == 1 else f"{q}")
            else:
                cells.append(mp.nstr(v, sig))
        out.append("[" + ", ".join(cells) + "]")
    return "\n".join(out)
