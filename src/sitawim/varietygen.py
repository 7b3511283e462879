"""Symbolic regular-matrix templates for low-rank commutative table algebras.

A *template* is the most general shape the regular matrices of a standard
integral table algebra of a given rank and involution type can take, with
one polynomial variable per independent structure constant.  Writing
``lam(j, k, i)`` for the coefficient of ``b_i`` in ``b_j * b_k``, entry
``[i][k]`` of the matrix of ``b_j`` is ``lam(j, k, i)``.  Three facts pin
the shape down and are baked into construction:

* row 0 of the matrix of ``b_j`` is the degree ``d_j`` in column ``j*``
  and zero elsewhere; column 0 is the indicator of row ``j``;
* every row of the matrix of ``b_j`` sums to ``d_j``, which lets one full
  column per matrix be expressed in terms of the others and eliminated;
* structure constants are shared across positions: commutativity gives
  ``lam(j, k, i) = lam(k, j, i)``, and applying the involution to a
  product gives ``lam(j, k, i) = lam(j*, k*, i*)``.

The involution identity is used here only when it moves the pair
``(j, k)`` — i.e. to tie an asymmetric element's matrix to its partner's.
For a pair it fixes pointwise (both ``j* = j`` and ``k* = k``) the
instance ``lam(j, k, i) = lam(j, k, i*)`` is deliberately *not* folded
into the allocation; those identities re-emerge among the emitted
structure polynomials and get consumed during reduction.  Folding them in
would renumber the asymmetric rank-5 templates, and every downstream
reduction chain is phrased in the numbering produced here.

Variables are numbered ``x1, x2, ...`` in column-major discovery order:
matrices ``b_1, b_2, ...`` in basis order, within a matrix the surviving
columns left to right, within a column rows top to bottom.

The module also hosts :class:`RationalCharTable` — the rationalized
character-multiplicity data that replaces the pseudocyclic degree
assumption when hunting rank-5 symmetric algebras with a 3-dimensional
rational eigenvalue block — together with its exhaustive enumerator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from typing import Iterable, Sequence, Union

from .errors import SitawimError
from .exactpoly import MPoly, Ring
from .exactpoly.core import mul_terms_into, poly_sort_key, table_value, term_table

__all__ = [
    "INVOLUTION_TYPES",
    "InvolutionType",
    "RationalCharTable",
    "Template",
    "build_template",
    "emit_structure_polys",
    "enumerate_rational_tables",
    "homogeneity_constraints",
    "trace_constraints",
]


# ---------------------------------------------------------------------------
# involution types


@dataclass(frozen=True)
class InvolutionType:
    """Rank plus the action of the involution on basis indices.

    ``star[i]`` is the index of ``b_i*``.  ``elim[j - 1]`` is the column
    eliminated from the matrix of ``b_j`` via the row-sum identity; it is
    chosen so the eliminated column is ``c(j*)*``-compatible across a
    conjugate pair, which keeps the two matrices of a pair mirror images.
    """

    name: str
    rank: int
    star: tuple[int, ...]
    elim: tuple[int, ...]


_TYPE_LIST = [
    InvolutionType("R2", 2, (0, 1), (1,)),
    InvolutionType("R3S", 3, (0, 1, 2), (1, 2)),
    InvolutionType("R3A", 3, (0, 2, 1), (1, 2)),
    InvolutionType("4S", 4, (0, 1, 2, 3), (1, 2, 3)),
    InvolutionType("4A1", 4, (0, 1, 3, 2), (1, 2, 3)),
    InvolutionType("5S", 5, (0, 1, 2, 3, 4), (1, 2, 3, 4)),
    InvolutionType("5A1", 5, (0, 1, 2, 4, 3), (1, 2, 4, 3)),
    InvolutionType("5A2", 5, (0, 2, 1, 4, 3), (2, 1, 4, 3)),
]

INVOLUTION_TYPES: dict[str, InvolutionType] = {t.name: t for t in _TYPE_LIST}


def _resolve_itype(itype: Union[str, InvolutionType]) -> InvolutionType:
    if isinstance(itype, InvolutionType):
        return itype
    it = INVOLUTION_TYPES.get(str(itype))
    if it is None:
        known = ", ".join(sorted(INVOLUTION_TYPES))
        raise SitawimError(f"unknown involution type {itype!r} (known: {known})")
    return it


# ---------------------------------------------------------------------------
# rationalized character tables (rank 5, symmetric, 3-dimensional block)


@dataclass(frozen=True)
class RationalCharTable:
    """Multiplicity/degree data for a rank-5 symmetric algebra whose three
    irrational characters fuse into one rational row.

    The rationalized table has three rows: the degree character (weight
    1), one rational character of multiplicity ``m1``, and the fused row
    of weight 3 whose three constituents share multiplicity ``m2``.
    ``a[j]`` and ``t[j]`` are the values of those two rows on ``b_j``.
    """

    n: int
    m1: int
    m2: int
    delta: tuple[int, int, int, int]
    a: tuple[int, int, int, int]
    t: tuple[int, int, int, int]

    def validate(self) -> None:
        """Check every orthogonality/integrality condition; raise on failure."""
        n, m1, m2 = self.n, self.m1, self.m2
        delta, a, t = self.delta, self.a, self.t
        if len(delta) != 4 or len(a) != 4 or len(t) != 4:
            raise SitawimError("rational character table needs 4 columns")
        if m1 < 1 or m2 < 1:
            raise SitawimError("multiplicities must be positive")
        for j in range(4):
            if delta[j] < 1:
                raise SitawimError(f"degree delta[{j}] must be positive")
            if abs(a[j]) > delta[j]:
                raise SitawimError(f"|a[{j}]| exceeds the degree bound {delta[j]}")
            if abs(t[j]) > 3 * delta[j]:
                raise SitawimError(f"|t[{j}]| exceeds the degree bound {3 * delta[j]}")
        if sum(delta) != n - 1:
            raise SitawimError("degrees must sum to n - 1")
        if m1 + 3 * m2 != n - 1:
            raise SitawimError("multiplicities must satisfy m1 + 3*m2 = n - 1")
        if sum(a) != -1:
            raise SitawimError("row orthogonality needs sum(a) = -1")
        if sum(t) != -3:
            raise SitawimError("row orthogonality needs sum(t) = -3")
        if sum(Fraction(a[j] * a[j], delta[j]) for j in range(4)) != Fraction(n, m1) - 1:
            raise SitawimError("row norm of the rational character is off")
        if sum(Fraction(a[j] * t[j], delta[j]) for j in range(4)) != -3:
            raise SitawimError("the two nontrivial rows are not orthogonal")
        for j in range(4):
            if delta[j] + m1 * a[j] + m2 * t[j] != 0:
                raise SitawimError(f"column orthogonality fails at column {j}")

    def canonical(self) -> "RationalCharTable":
        """Columns sorted by ``(delta, a, t)``."""
        cols = sorted(zip(self.delta, self.a, self.t))
        d, a, t = zip(*cols)
        return RationalCharTable(self.n, self.m1, self.m2, d, a, t)


def enumerate_rational_tables(n: int) -> list[RationalCharTable]:
    """All valid rationalized tables of order ``n``, canonically sorted.

    Exhaustive within the stated bounds: ``m2`` ranges over
    ``1..(n-2)//3`` with ``m1 = n - 1 - 3*m2``, degrees over ascending
    compositions of ``n - 1``, and the rational-row values over the
    square-norm budget; the fused-row values are then forced linearly and
    checked for integrality and bounds.

    The arithmetic is integer-only.  The norm condition
    ``sum(a_j^2 / delta_j) = (n - m1) / m1`` is scaled by
    ``L = m1 * lcm(delta)`` into ``sum(w_j * a_j^2) = (n - m1) * lcm(delta)``
    with integer weights ``w_j = L / delta_j``, so the budgets left after
    ``a1`` and ``a2`` are plain ints and the bounds on ``a1 .. a3`` are
    integer square roots of exact floors.  Once ``a1`` and ``a2`` are fixed,
    ``a4 = c - a3`` with ``c = -1 - a1 - a2`` turns the remaining budget
    into a quadratic in ``a3``; its integer roots (a perfect-square
    discriminant and an exact division) are the only candidates.
    """
    if n < 5:
        raise SitawimError("rank-5 algebras need order at least 5")
    found: set[tuple] = set()
    out: list[RationalCharTable] = []
    for m2 in range(1, (n - 2) // 3 + 1):
        m1 = n - 1 - 3 * m2
        for d1 in range(1, (n - 1) // 4 + 1):
            for d2 in range(d1, (n - 1 - d1) // 3 + 1):
                for d3 in range(d2, (n - 1 - d1 - d2) // 2 + 1):
                    d4 = n - 1 - d1 - d2 - d3
                    delta = (d1, d2, d3, d4)
                    scale = m1 * lcm(*delta)
                    w1, w2, w3, w4 = (scale // d for d in delta)
                    w34 = w3 + w4
                    budget = (n - m1) * (scale // m1)  # sum(w_j * a_j^2)
                    b1 = min(d1, isqrt((n - m1) * d1 // m1))
                    for a1 in range(-b1, b1 + 1):
                        s1 = budget - w1 * a1 * a1
                        b2 = min(d2, isqrt(s1 * d2 // scale))
                        for a2 in range(-b2, b2 + 1):
                            s2 = s1 - w2 * a2 * a2
                            b3 = min(d3, isqrt(s2 * d3 // scale))
                            c = -1 - a1 - a2
                            # w3*a3^2 + w4*(c - a3)^2 = s2, i.e.
                            # w34*a3^2 - 2*c*w4*a3 + (w4*c^2 - s2) = 0
                            disc = w34 * s2 - w3 * w4 * c * c  # discriminant / 4
                            if disc < 0:
                                continue
                            root = isqrt(disc)
                            if root * root != disc:
                                continue
                            # numerators of the roots, a double root taken once
                            nums = (c * w4 - root, c * w4 + root) if root else (c * w4,)
                            for num in nums:
                                a3, rem = divmod(num, w34)
                                if rem or abs(a3) > b3:
                                    continue
                                a4 = c - a3
                                if abs(a4) > d4:
                                    continue
                                a = (a1, a2, a3, a4)
                                t = _forced_t(delta, a, m1, m2)
                                if t is None:
                                    continue
                                table = RationalCharTable(
                                    n, m1, m2, delta, a, t
                                ).canonical()
                                key = (m1, m2, table.delta, table.a, table.t)
                                if key in found:
                                    continue
                                table.validate()
                                found.add(key)
                                out.append(table)
    out.sort(key=lambda tb: (tb.m1, tb.m2, tb.delta, tb.a, tb.t))
    return out


def _forced_t(
    delta: tuple[int, ...], a: tuple[int, ...], m1: int, m2: int
) -> tuple[int, ...] | None:
    """Solve column orthogonality for the fused row; None if non-integral
    or out of bounds.  Row conditions still need checking by the caller's
    ``validate`` (sum and cross-orthogonality hold automatically, but the
    call is cheap and guards the algebra here)."""
    t = []
    for dj, aj in zip(delta, a):
        num = -(dj + m1 * aj)
        if num % m2:
            return None
        tj = num // m2
        if abs(tj) > 3 * dj:
            return None
        t.append(tj)
    return tuple(t)


# ---------------------------------------------------------------------------
# templates


@dataclass(frozen=True, eq=False)
class Template:
    """Symbolic regular matrices plus the bookkeeping around them.

    ``matrices[j][i][k]`` is the polynomial entry ``lam(j, k, i)``;
    ``matrices[0]`` is the identity.  ``degrees[j]`` is the (symbolic or
    constant) degree of ``b_j``.
    """

    itype: InvolutionType
    assumption: str
    table: RationalCharTable | None
    ring: Ring
    degrees: tuple[MPoly, ...]
    matrices: tuple[tuple[tuple[MPoly, ...], ...], ...]
    nvars: int
    degree_symbols: tuple[str, ...]

    def trace(self, j: int) -> MPoly:
        rows = self.matrices[j]
        acc = self.ring.zero()
        for i in range(self.itype.rank):
            acc = acc + rows[i][i]
        return acc

    def instantiate_at(self, values: Sequence[int]) -> list[list[list[int]]]:
        """Integer regular matrices at the values of the ring variables,
        listed in ring order; every entry is read off its term table."""
        mats = []
        for rows in self._entry_tables:
            mat = []
            for row in rows:
                vals = []
                for table, den in row:
                    num = table_value(table, values)
                    v, rem = divmod(num, den)
                    if rem:
                        raise SitawimError(
                            f"non-integer structure constant {Fraction(num, den)} at this point"
                        )
                    vals.append(v)
                mat.append(vals)
            mats.append(mat)
        return mats

    @cached_property
    def _entry_tables(self) -> tuple:
        """:func:`~sitawim.exactpoly.core.term_table` of every entry, in
        the shape of ``matrices``; built on first use."""
        return tuple(
            tuple(tuple(term_table(entry.terms) for entry in row) for row in rows)
            for rows in self.matrices
        )


def _orbit(
    j: int, k: int, i: int, star: Sequence[int]
) -> list[tuple[int, int, int]]:
    """Positions forced equal to ``(j, k, i)``: closure under swapping the
    pair (commutativity) and under the involution where it moves the pair."""
    seen = {(j, k, i)}
    queue = [(j, k, i)]
    while queue:
        a, b, c = queue.pop()
        nxt = [(b, a, c)]
        sa, sb = star[a], star[b]
        if (sa, sb) != (a, b):
            nxt.append((sa, sb, star[c]))
        for trip in nxt:
            if trip not in seen:
                seen.add(trip)
                queue.append(trip)
    return sorted(seen)


def build_template(
    itype: Union[str, InvolutionType],
    assumption: Union[str, RationalCharTable] = "none",
) -> Template:
    """Construct the template for ``itype`` under a degree regime.

    ``assumption`` is ``"none"`` (independent degree symbols, one per
    conjugate pair), ``"pseudocyclic"`` (all nontrivial degrees equal the
    common multiplicity), or a :class:`RationalCharTable` (integer degrees
    from the table; 5S only).
    """
    it = _resolve_itype(itype)

    table: RationalCharTable | None = None
    if isinstance(assumption, RationalCharTable):
        if it.name != "5S":
            raise SitawimError(
                "rationalized character tables drive the symmetric rank-5 "
                f"type only, not {it.name}"
            )
        assumption.validate()
        table = assumption
        tag = "table"
    elif assumption in ("none", "pseudocyclic"):
        tag = assumption
    else:
        raise SitawimError(f"unknown assumption {assumption!r}")

    r, star, elim = it.rank, it.star, it.elim

    # First pass: allocate one variable per sharing orbit, in column-major
    # discovery order.
    var_of: dict[tuple[int, int, int], int] = {}
    nvars = 0
    for j in range(1, r):
        c = elim[j - 1]
        for k in range(1, r):
            if k == c:
                continue
            for i in range(1, r):
                if (j, k, i) in var_of:
                    continue
                nvars += 1
                for trip in _orbit(j, k, i, star):
                    var_of[trip] = nvars

    xnames = tuple(f"x{v}" for v in range(1, nvars + 1))
    if tag == "table":
        deg_names: tuple[str, ...] = ()
    elif it.name == "R2":
        deg_names = ("n",)
    elif tag == "pseudocyclic" and it.name != "4A1":
        deg_names = ("m",)
    else:
        seen_names: list[str] = []
        for j in range(1, r):
            nm = f"k{min(j, star[j])}"
            if nm not in seen_names:
                seen_names.append(nm)
        deg_names = tuple(seen_names)
    ring = Ring(xnames + deg_names)

    one = ring.one()
    if tag == "table":
        assert table is not None
        degrees = (one,) + tuple(ring.const(d) for d in table.delta)
    elif it.name == "R2":
        degrees = (one, ring.var("n") - 1)
    elif tag == "pseudocyclic" and it.name != "4A1":
        m = ring.var("m")
        degrees = (one,) + (m,) * (r - 1)
    else:
        degrees = (one,) + tuple(ring.var(f"k{min(j, star[j])}") for j in range(1, r))

    zero = ring.zero()
    mats: list[tuple[tuple[MPoly, ...], ...]] = []
    ident = tuple(
        tuple(one if i == k else zero for k in range(r)) for i in range(r)
    )
    mats.append(ident)
    for j in range(1, r):
        c = elim[j - 1]
        dj = degrees[j]
        rows = [[zero] * r for _ in range(r)]
        rows[0][star[j]] = dj
        for i in range(1, r):
            rows[i][0] = one if i == j else zero
            for k in range(1, r):
                if k == c:
                    continue
                rows[i][k] = ring.var(f"x{var_of[(j, k, i)]}")
        # row-sum identity fills the eliminated column
        for i in range(1, r):
            acc = dj
            for k in range(r):
                if k != c:
                    acc = acc - rows[i][k]
            rows[i][c] = acc
        mats.append(tuple(tuple(row) for row in rows))

    return Template(
        itype=it,
        assumption=tag,
        table=table,
        ring=ring,
        degrees=degrees,
        matrices=tuple(mats),
        nvars=nvars,
        degree_symbols=deg_names,
    )


def _tidy(polys: Iterable[MPoly]) -> list[MPoly]:
    """Normalize, drop zeros, dedupe, sort canonically."""
    seen: set[MPoly] = set()
    out = []
    for p in polys:
        if p.is_zero:
            continue
        q = p.normalize()
        if q not in seen:
            seen.add(q)
            out.append(q)
    out.sort(key=poly_sort_key)
    return out


def _add_product(out: dict, A, B, a: int, b: int, scale: int = 1) -> dict:
    """``out += scale * (A B)[a][b]`` on term dictionaries, zeros kept."""
    for l in range(len(A)):
        if A[a][l] and B[l][b]:
            mul_terms_into(out, A[a][l], B[l][b], scale)
    return out


def emit_structure_polys(template: Template) -> list[MPoly]:
    """Polynomial conditions for the symbolic matrices to realize an
    associative commutative multiplication.

    For each basis pair ``i <= j`` the matrix identity
    ``M_i M_j = sum_l lam(i, j, l) M_l`` is imposed entrywise (with
    ``lam(i, j, l)`` read off as ``matrices[i][l][j]``), plus the
    commutator ``M_i M_j - M_j M_i`` for ``i < j`` on the regular-action
    columns ``k >= 1``.  Column 0 of the commutator only restates
    commutativity of the element product ``b_i b_j = b_j b_i``, which
    the shared-variable allocation already encodes; its cells are zero
    except where the row-sum elimination chose different representations
    for a shared constant, and those residues vanish on the variety cut
    out by the rest.  Results are normalized (integer content 1,
    positive leading coefficient), deduplicated, and canonically sorted.
    The products are formed on the entries' terms as stored, which are
    ints for every template :func:`build_template` makes.
    """
    r = template.itype.rank
    ring = template.ring
    # Ms[j][a][b]: the terms of matrices[j][a][b]
    Ms = [[[e.terms for e in row] for row in mat] for mat in template.matrices]
    raw: list[MPoly] = []
    for i, j in itertools.combinations_with_replacement(range(1, r), 2):
        prod = [[_add_product({}, Ms[i], Ms[j], a, b) for b in range(r)] for a in range(r)]
        for a in range(r):
            for b in range(r):
                # (M_i M_j - sum_l lam(i, j, l) M_l)[a][b]
                acc = dict(prod[a][b])
                for l in range(r):
                    if Ms[i][l][j] and Ms[l][a][b]:
                        mul_terms_into(acc, Ms[i][l][j], Ms[l][a][b], -1)
                raw.append(MPoly(ring, {m: c for m, c in acc.items() if c}))
        if i != j:
            for a in range(r):
                for b in range(1, r):
                    acc = _add_product(dict(prod[a][b]), Ms[j], Ms[i], a, b, -1)
                    raw.append(MPoly(ring, {m: c for m, c in acc.items() if c}))
    return _tidy(raw)


def trace_constraints(template: Template) -> list[MPoly]:
    """Linear conditions equating each symbolic trace with the trace the
    template's degree regime dictates.

    Under ``"pseudocyclic"`` the regular trace of every nontrivial
    element is ``d_j - 1``.  Under a :class:`RationalCharTable` the trace
    of ``b_j`` is ``delta_j + a_j + t_j``.  Identically satisfied
    conditions drop out, so the trivial cases come back empty.  A template
    built under ``"none"`` dictates no trace.  (The homogeneity conditions
    equating distinct degree symbols are a separate assumption: see
    :func:`homogeneity_constraints`.)
    """
    r = template.itype.rank
    ring = template.ring
    table = template.table
    out: list[MPoly] = []
    if table is not None:
        for j in range(1, r):
            want = table.delta[j - 1] + table.a[j - 1] + table.t[j - 1]
            out.append(template.trace(j) - ring.const(want))
    elif template.assumption == "pseudocyclic":
        for j in range(1, r):
            out.append(template.trace(j) - (template.degrees[j] - 1))
    else:
        raise SitawimError("a template built under no degree regime dictates no trace")
    return _tidy(out)


def homogeneity_constraints(template: Template) -> list[MPoly]:
    """Linear conditions equating all degree symbols — the *homogeneous*
    half of the pseudocyclic-and-homogeneous assumption, for templates
    whose conjugate-pair structure keeps several symbols alive."""
    ring = template.ring
    out = [
        ring.var(s) - ring.var(t)
        for s, t in itertools.combinations(template.degree_symbols, 2)
    ]
    return _tidy(out)
