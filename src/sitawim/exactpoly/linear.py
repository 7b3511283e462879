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
from operator import add
from typing import Iterable, Mapping, Sequence

from ..errors import InconsistentIdealError
from .core import (
    MPoly,
    MonomialOrder,
    Ring,
    _ratio,
    cleared_terms,
    format_poly,
    from_int_terms,
    mul_terms_into,
    poly_sort_key,
    primitive_terms,
)


def rational_span_basis(
    polys: Iterable[MPoly], order: MonomialOrder | None = None
) -> list[MPoly]:
    """Echelonized basis of the Q-vector space spanned by ``polys``.

    Columns are the union of occurring monomials sorted descending under
    ``order``; rows are fully reduced (RREF), then renormalized to integer
    content-1 form.  Output rows are sorted by pivot, so the result is a
    canonical generating set for the span; its length is the span's dimension.

    The elimination is fraction-free Gauss-Jordan over Z (Bareiss 1968):
    with pivot ``p`` and previous pivot ``q``, every other row becomes
    ``(p*row - b*pivot_row) / q``, where ``b`` is its entry in the pivot
    column, and the division is exact.  Each final row is a nonzero
    multiple of the RREF row with the same pivot, so making it primitive
    gives the normalized RREF row.
    """
    polys = [p for p in polys if not p.is_zero]
    if not polys:
        return []
    ring = polys[0].ring
    order = order or ring.default_order
    monos = sorted({m for p in polys for m in p.terms}, key=order.key, reverse=True)
    col = {m: i for i, m in enumerate(monos)}
    rows = [{col[m]: c for m, c in cleared_terms(p.terms)[0].items()} for p in polys]

    rank, prev = 0, 1
    for j in range(len(monos)):
        pivot_row = next((i for i in range(rank, len(rows)) if j in rows[i]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        top = rows[rank]
        piv = top[j]
        for i, row in enumerate(rows):
            if i == rank:
                continue
            b = row.get(j)
            if b:
                new = {c: piv * v for c, v in row.items()}
                for c, v in top.items():
                    new[c] = new.get(c, 0) - b * v
                rows[i] = {c: v // prev for c, v in new.items() if v}
            elif piv != prev:
                rows[i] = {c: piv * v // prev for c, v in row.items()}
        prev = piv
        rank += 1

    return [
        from_int_terms(ring, primitive_terms({monos[c]: v for c, v in row.items()}, order))
        for row in rows[:rank]
    ]


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


def _strip_positive_content(terms: dict, positive_idx: Sequence[int]) -> dict:
    """Divide out any strictly positive variable dividing every term."""
    if not terms:
        return terms
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
    return terms


def _substitute(terms: dict, idx: int, a: int, powers: list[dict]) -> dict:
    """``a^d * p(v = -B/a)`` for the integer polynomial ``p`` of degree ``d``
    in the variable ``v`` at index ``idx``, where ``powers[e]`` holds
    ``(-B)^e`` and is extended as needed; zero terms are dropped."""
    d = max(m[idx] for m in terms)
    while len(powers) <= d:
        powers.append({m: c for m, c in mul_terms_into({}, powers[-1], powers[1]).items() if c})
    apow = [a**k for k in range(d + 1)]
    out: dict = {}
    get = out.get
    for mono, c in terms.items():
        e = mono[idx]
        if not e:
            out[mono] = get(mono, 0) + c * apow[d]
            continue
        rest = mono[:idx] + (0,) + mono[idx + 1 :]
        c *= apow[d - e]
        for fm, fc in powers[e].items():
            m = tuple(map(add, rest, fm))
            out[m] = get(m, 0) + c * fc
    return {m: c for m, c in out.items() if c}


def _solvable_indices(poly: MPoly) -> list[int]:
    """Indices of the variables ``v`` with ``poly = c*v + B`` for a nonzero
    rational ``c`` and ``B`` free of ``v``: the variables whose only
    occurrence is a bare linear term."""
    lone = [m.index(1) for m in poly.terms if sum(m) == 1]
    if not lone:
        return []
    others = zip(*(m for m in poly.terms if sum(m) != 1))
    blocked = {i for i, col in enumerate(others) if any(col)}
    return [i for i in lone if i not in blocked]


def linear_reduce(
    polys: Iterable[MPoly],
    *,
    degree_symbols: Sequence[str] = (),
    keep: Iterable[str] = (),
) -> LinearReduction:
    """Iteratively eliminate variables solvable by a single linear generator.

    A generator ``f`` solves variable ``v`` when ``f`` has degree exactly 1
    in ``v`` and the coefficient of ``v`` is a nonzero rational constant;
    then ``v := -B/A`` (for ``f = A*v + B``) is substituted into everything.
    The generators are kept as primitive integer polynomials, so ``A`` is an
    integer and the substitution runs fraction-free: a generator ``p`` of
    degree ``d`` in ``v`` becomes ``A^d * p(v = -B/A)``, whose normalized
    form is that of ``p(v = -B/A)``.

    Structure-constant variables are eliminated before degree symbols; among
    eligible structure constants the earliest-listed ring variable goes
    first, and among degree symbols the latest-listed.  Ties between
    generators solving the same variable go to the generator with fewest
    terms, then to canonical text order; the text is formatted only for
    generators still tied after the term count.  The degree symbols are
    the strictly positive variables whose content is stripped.

    Each step rewrites, strips and re-normalizes only the generators that
    contain the eliminated variable; the others are already in that form.
    Every generator then passes through the same first-occurrence dedup, so
    the surviving list is what rewriting every generator would produce.

    Raises :class:`InconsistentIdealError` when a nonzero constant appears:
    the system has no solutions at all.
    """
    work = [p for p in polys if not p.is_zero]
    if not work:
        return LinearReduction(Ring(()), [], [], ())
    ring = work[0].ring
    keep, degree_set = set(keep), set(degree_symbols)
    keep_idx = {i for name, i in ring.index.items() if name in keep}
    degree_idx = {i for name, i in ring.index.items() if name in degree_set}
    positive_idx = [ring.index[name] for name in degree_symbols]

    order = ring.default_order

    def tidy(terms: dict) -> MPoly:
        """Stripped and normalized, with integer coefficients."""
        terms = _strip_positive_content(terms, positive_idx)
        if not terms:
            return MPoly(ring, terms)
        p = MPoly(ring, primitive_terms(terms, order))
        if p.is_constant:
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
        out = []
        only_degree = f.variables() <= degree_set
        for idx in _solvable_indices(f):
            if idx in keep_idx:
                continue
            is_degree = idx in degree_idx
            if is_degree and not only_degree:
                continue
            pos = -idx if is_degree else idx
            # structure constants first
            out.append(((1 if is_degree else 0, pos, f.num_terms()), idx))
        return out

    work = dedup(tidy(cleared_terms(p.terms)[0]) for p in work)
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
        unit = tuple(int(i == idx) for i in range(ring.nvars))
        a = f.terms[unit]
        neg_b = {m: -c for m, c in f.terms.items() if m != unit}
        chain.append((name, MPoly(ring, {m: _ratio(c, a) for m, c in neg_b.items()})))
        eliminated.append(name)
        powers = [{ring._zero_mono: 1}, neg_b]
        work = dedup(
            tidy(_substitute(p.terms, idx, a, powers)) if any(m[idx] for m in p.terms) else p
            for p in work
        )

    work.sort(key=poly_sort_key)
    polys = [from_int_terms(ring, p.terms) for p in work]
    return LinearReduction(ring, chain, polys, tuple(eliminated))
