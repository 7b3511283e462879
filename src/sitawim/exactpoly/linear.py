"""Exact linear preprocessing of polynomial systems.

Two tools that do the cheap part of an elimination before any Groebner
machinery runs:

- :func:`rational_span_basis` — deterministic reduced row echelon form
  of the Q-span of a finite set of polynomials (each polynomial viewed
  as a coefficient vector over the union of its monomials).

- :func:`linear_reduce` — repeatedly solve generators that are linear
  in some variable *with a constant rational coefficient* and
  substitute the solution everywhere, recording the substitution
  chain.  This is the "solve the easy equations by hand" step of a
  structure-constant analysis, mechanized.  Degree symbols (say ``m``
  or ``k2``) are only ever solved from generators involving degree
  symbols alone, so accidental mixing of the two variable classes
  cannot happen; variables in ``keep`` are never eliminated.

Content in a strictly positive variable is stripped (each generator is
divided by any degree symbol dividing all its terms), so the returned
system generates the original ideal saturated at the positive symbols
— exactly the ideal whose zero set matches on the locus where degrees
are nonzero, which is the only locus that matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..errors import InconsistentIdealError
from .core import MPoly, MonomialOrder, Q0, Q1, Ring, format_poly


def rational_span_basis(
    polys: Iterable[MPoly], order: MonomialOrder | None = None
) -> list[MPoly]:
    """Echelonized basis of the Q-vector space spanned by ``polys``.

    Columns are the union of occurring monomials sorted descending under
    ``order``; rows are fully reduced (RREF), then renormalized to integer
    content-1 form.  Output rows are sorted by pivot, so the result is a
    canonical generating set for the span; its length is the span's dimension.
    """
    polys = [p for p in polys if not p.is_zero]
    if not polys:
        return []
    ring = polys[0].ring
    order = order or ring.default_order
    monos = sorted({m for p in polys for m in p.terms}, key=order.key, reverse=True)
    col = {m: i for i, m in enumerate(monos)}
    rows = []
    for p in polys:
        row = [Q0] * len(monos)
        for m, c in p.terms.items():
            row[col[m]] = c
        rows.append(row)

    ncols = len(monos)
    pivots: list[int] = []
    rank = 0
    for j in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][j]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = Q1 / rows[rank][j]
        rows[rank] = [c * inv for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                factor = rows[i][j]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(j)
        rank += 1

    out = []
    for i in range(rank):
        terms = {monos[j]: c for j, c in enumerate(rows[i]) if c}
        out.append(MPoly(ring, terms).normalize(order))
    return out


@dataclass
class LinearReduction:
    """Result of :func:`linear_reduce`.

    ``chain`` lists (variable, replacement) pairs in the order applied;
    replacements are written in the variables current at the time of the
    solve, exactly as one would write the elimination out by hand, so
    re-applying the chain start to finish removes every eliminated variable.
    """

    ring: Ring
    chain: list[tuple[str, MPoly]]
    polys: list[MPoly]
    eliminated: tuple[str, ...]

    def apply_chain(self, poly: MPoly) -> MPoly:
        """Substitute the chain, in order, into ``poly``."""
        for name, replacement in self.chain:
            poly = poly.subs({name: replacement})
        return poly

    def survivors(self) -> set[str]:
        used: set[str] = set()
        for p in self.polys:
            used |= p.variables()
        return used


def _strip_positive_content(poly: MPoly, positive_idx: Sequence[int]) -> MPoly:
    """Divide out any strictly positive variable dividing every term."""
    terms = poly.terms
    if not terms:
        return poly
    changed = True
    while changed:
        changed = False
        for i in positive_idx:
            shift = min(m[i] for m in terms)
            if shift:
                terms = {
                    m[:i] + (m[i] - shift,) + m[i + 1 :]: c for m, c in terms.items()
                }
                changed = True
    return MPoly(poly.ring, dict(terms)) if terms is not poly.terms else poly


def _poly_sort_key(poly: MPoly) -> tuple:
    return (poly.total_degree(), poly.num_terms(), format_poly(poly))


def _solvable_indices(poly: MPoly) -> list[int]:
    """Indices of the variables ``v`` with ``poly = c*v + B`` for a nonzero
    rational ``c`` and ``B`` free of ``v``: the variables whose only
    occurrence is a bare linear term."""
    lone: list[int] = []
    blocked: set[int] = set()
    for mono in poly.terms:
        hit = [i for i, e in enumerate(mono) if e]
        if len(hit) == 1 and mono[hit[0]] == 1:
            lone.append(hit[0])
        else:
            blocked.update(hit)
    return [i for i in lone if i not in blocked]


def linear_reduce(
    polys: Iterable[MPoly],
    *,
    degree_symbols: Sequence[str] = (),
    positive: Sequence[str] | None = None,
    keep: Iterable[str] = (),
    direction: str = "high",
    mode: str = "full",
) -> LinearReduction:
    """Iteratively eliminate variables solvable by a single linear generator.

    A generator ``f`` solves variable ``v`` when ``f`` has degree exactly 1
    in ``v`` and the coefficient of ``v`` is a nonzero rational constant;
    then ``v := -B/A`` (for ``f = A*v + B``) is substituted into everything.

    Structure-constant variables are eliminated before degree symbols; among
    eligible variables, ``direction='high'`` prefers the latest-listed ring
    variable and ``'low'`` the earliest (degree symbols always eliminate
    latest-listed first).  Ties between generators solving the same variable
    go to the generator with fewest terms, then to canonical text order;
    the text is formatted only for generators still tied after the term
    count.

    Each step rewrites, strips and re-normalizes only the generators that
    contain the eliminated variable; the others are already in that form.
    Every generator then passes through the same first-occurrence dedup, so
    the surviving list is what rewriting every generator would produce.

    ``mode='alias'`` restricts the eliminations to pure renamings: only a
    two-term generator ``a*v + b*w`` (two distinct variables, no constant
    term) may fire, replacing one variable by a rational multiple of the
    other.  Multi-term linear relations survive as generators, which is the
    conservative reduction used when downstream certificates need those
    relations kept visible in the ideal.

    Raises :class:`InconsistentIdealError` when a nonzero constant appears:
    the system has no solutions at all.
    """
    if direction not in ("high", "low"):
        raise ValueError("direction must be 'high' or 'low'")
    if mode not in ("full", "alias"):
        raise ValueError("mode must be 'full' or 'alias'")
    work = [p for p in polys if not p.is_zero]
    if not work:
        return LinearReduction(Ring(()), [], [], ())
    ring = work[0].ring
    keep, degree_set = set(keep), set(degree_symbols)
    keep_idx = {i for name, i in ring.index.items() if name in keep}
    degree_idx = {i for name, i in ring.index.items() if name in degree_set}
    positive = tuple(degree_symbols) if positive is None else tuple(positive)
    positive_idx = [ring.index[name] for name in positive]

    def tidy(p: MPoly) -> MPoly:
        p = _strip_positive_content(p, positive_idx).normalize()
        if p.is_constant and not p.is_zero:
            raise InconsistentIdealError(
                f"reduction produced the nonzero constant {p.constant_value()}"
            )
        return p

    def dedup(batch: Iterable[MPoly]) -> list[MPoly]:
        seen: set[MPoly] = set()
        out = []
        for p in batch:
            if not p.is_zero and p not in seen:
                seen.add(p)
                out.append(p)
        return out

    def candidates(f: MPoly) -> list[tuple[tuple, int]]:
        """(rank without the text tie-break, variable index) per variable
        that ``f`` may solve."""
        if mode == "alias" and not (
            f.num_terms() == 2 and f.total_degree() == 1 and len(f.variables()) == 2
        ):
            return []
        out = []
        only_degree = f.variables() <= degree_set
        for idx in _solvable_indices(f):
            if idx in keep_idx:
                continue
            is_degree = idx in degree_idx
            if is_degree and not only_degree:
                continue
            pos = -idx if (is_degree or direction == "high") else idx
            # structure constants first
            out.append(((1 if is_degree else 0, pos, f.num_terms()), idx))
        return out

    work = dedup(tidy(p) for p in work)
    chain: list[tuple[str, MPoly]] = []
    eliminated: list[str] = []
    cache: dict[MPoly, list[tuple[tuple, int]]] = {}

    while True:
        cache = {f: cache[f] if f in cache else candidates(f) for f in work}
        ranked = [(rank, idx, f) for f, cands in cache.items() for rank, idx in cands]
        if not ranked:
            break
        best = min(rank for rank, _, _ in ranked)
        tied = [(idx, f) for rank, idx, f in ranked if rank == best]
        idx, f = min(tied, key=lambda c: format_poly(c[1])) if len(tied) > 1 else tied[0]
        name = ring.names[idx]
        a, b = f.split_linear(name)
        replacement = b * (-Q1 / a.constant_value())
        chain.append((name, replacement))
        eliminated.append(name)
        work = dedup(
            tidy(p.subs({name: replacement})) if any(m[idx] for m in p.terms) else p
            for p in work
        )

    work.sort(key=_poly_sort_key)
    return LinearReduction(ring, chain, work, tuple(eliminated))
