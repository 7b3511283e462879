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

:func:`linear_reduce` works on packed monomials: on entry each exponent
tuple becomes one int of fixed-width byte fields (``int.from_bytes`` on a
``struct`` layout), with the top bit of every field kept as a guard bit.
A monomial product is then one int addition, the exponent of a variable a
shift and a mask, and a generator's variable set the OR of its monomials.
Every product is checked against the guard bits, so an exponent too large
for its field raises :class:`~sitawim.errors.ResourceCapExceeded` instead
of carrying into its neighbour.  Inside the loop each generator is signed
at its largest packed monomial; the grevlex sign of the public
:meth:`MPoly.normalize` is restored only where it shows, in the text that
breaks ties and in the returned polynomials.  The chain and the returned
system are those of the same elimination on exponent tuples.

Both functions clear denominators once on entry and return the integer
coefficients they compute.  A chain replacement ``-B/A`` holds a
``Fraction`` only where ``A`` does not divide a coefficient of ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import filterfalse
from math import gcd
from operator import or_
from struct import Struct
from struct import error as StructError
from typing import Iterable, Sequence

from ..errors import InconsistentIdealError, ResourceCapExceeded
from .core import (
    MPoly,
    MonomialOrder,
    Ring,
    cleared_terms,
    exact_div,
    format_poly,
    poly_sort_key,
    primitive_terms,
)

#: bytes per exponent field of a packed monomial in :func:`linear_reduce`;
#: the top bit of each field is a guard bit
_FIELD_BYTES = 1
_FIELD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


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
        MPoly(ring, primitive_terms({monos[c]: v for c, v in row.items()}, order))
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

    def apply_chain(self, poly: MPoly) -> MPoly:
        """Substitute the chain, in order, into ``poly``."""
        for name, replacement in self.chain:
            poly = poly.subs({name: replacement})
        return poly


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

    Inside the loop a monomial is one int: the exponent of the ``i``-th ring
    variable is the field of ``_FIELD_BYTES`` bytes at byte ``i *
    _FIELD_BYTES``, so a product of monomials is an addition, and the top
    bit of every field is a guard bit.  An exponent that reaches the guard
    bit raises :class:`ResourceCapExceeded` before it can carry into the
    next field.  A working generator is signed so that the coefficient of
    its largest packed int is positive: a different representative of the
    same class ``{c*p}`` than the grevlex one, so the dedup and the chain
    are unchanged.  The grevlex-normalized form is built only to format
    tied candidates and for the returned polynomials.

    Raises :class:`InconsistentIdealError` when a nonzero constant appears:
    the system has no solutions at all.
    """
    work = [p for p in polys if not p.is_zero]
    if not work:
        return LinearReduction(Ring(()), [], [])
    ring = work[0].ring
    order = ring.default_order
    index = ring.index
    width = 8 * _FIELD_BYTES
    layout = Struct(f"<{ring.nvars}{_FIELD_CODES[_FIELD_BYTES]}")
    field = (1 << width) - 1
    cap = (1 << (width - 1)) - 1
    base = [1 << (width * i) for i in range(ring.nvars)]
    var_of = {b: i for i, b in enumerate(base)}
    ones = sum(base)
    guard = ones << (width - 1)
    below_guard = guard - ones
    keep_bits = sum(base[index[name]] for name in set(keep))
    degree_bits = sum(base[index[name]] for name in set(degree_symbols))
    positive_masks = [field << (width * index[name]) for name in degree_symbols]

    def pack(mono: tuple) -> int:
        try:
            return int.from_bytes(layout.pack(*mono), "little")
        except StructError:
            raise ResourceCapExceeded("exponent", max(mono), cap) from None

    def unpack(mono: int) -> tuple:
        return layout.unpack(mono.to_bytes(layout.size, "little"))

    def check(terms: dict) -> None:
        """Raise when an exponent of the packed ``terms`` reached a guard bit."""
        if reduce(or_, terms, 0) & guard:
            worst = max(max(unpack(m)) for m in terms)
            raise ResourceCapExceeded("exponent", worst, cap)

    def variables(monos: Iterable[int]) -> int:
        """One bit at each field base whose variable occurs in ``monos``."""
        return ((reduce(or_, monos, 0) + below_guard) & guard) >> (width - 1)

    def tidy(terms: dict):
        """``(key, terms)``, stripped, primitive and signed, or None for 0."""
        for mask in positive_masks:
            shift = min(map(mask.__and__, terms), default=0)
            if shift:
                terms = {m - shift: c for m, c in terms.items()}
        if not terms:
            return None
        g = gcd(*terms.values())
        if terms[max(terms)] < 0:
            g = -g
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
        if len(terms) == 1 and 0 in terms:
            raise InconsistentIdealError(f"reduction produced the nonzero constant {terms[0]}")
        return frozenset(terms.items()), terms

    def dedup(batch: Iterable) -> dict:
        out: dict = {}
        for item in batch:
            if item is not None:
                out.setdefault(*item)
        return out

    def candidates(terms: dict) -> list[tuple[tuple, int]]:
        """(rank without the text tie-break, variable index) per variable
        the generator may solve: its bare linear terms whose variable occurs
        nowhere else."""
        lone = [m for m in terms if m in var_of]
        if not lone:
            return []
        blocked = variables(filterfalse(var_of.__contains__, terms)) | keep_bits
        out = []
        for bit in lone:
            if bit & blocked:
                continue
            is_degree = bit & degree_bits
            if is_degree and variables(terms) & ~degree_bits:
                continue
            idx = var_of[bit]
            # structure constants first
            out.append(((1 if is_degree else 0, -idx if is_degree else idx, len(terms)), idx))
        return out

    def grevlex(terms: dict) -> MPoly:
        """The generator on exponent tuples, with the grevlex sign and
        integer coefficients (the cheaper ones to format)."""
        return MPoly(ring, primitive_terms({unpack(m): c for m, c in terms.items()}, order))

    def substitute(terms: dict, shift: int, a: int, powers: list[dict]) -> dict:
        """``a^d * p(v = -B/a)`` for the generator ``p`` of degree ``d`` in
        the variable ``v`` whose field starts at bit ``shift``, where
        ``powers[e]`` holds ``(-B)^e`` and is extended as needed; zero terms
        are dropped."""
        mask = field << shift
        d = max(map(mask.__and__, terms)) >> shift
        while len(powers) <= d:
            nxt: dict = {}
            get = nxt.get
            for ma, ca in powers[-1].items():
                for mb, cb in powers[1].items():
                    m = ma + mb
                    nxt[m] = get(m, 0) + ca * cb
            nxt = {m: c for m, c in nxt.items() if c}
            check(nxt)
            powers.append(nxt)
        apow = [a**k for k in range(d + 1)]
        out: dict = {}
        get = out.get
        for mono, c in terms.items():
            bits = mono & mask
            if not bits:
                out[mono] = get(mono, 0) + c * apow[d]
                continue
            e = bits >> shift
            rest = mono - bits
            c *= apow[d - e]
            for fm, fc in powers[e].items():
                m = rest + fm
                out[m] = get(m, 0) + c * fc
        out = {m: c for m, c in out.items() if c}
        check(out)
        return out

    packed = [{pack(m): c for m, c in cleared_terms(p.terms)[0].items()} for p in work]
    for terms in packed:
        check(terms)
    gens = dedup(tidy(terms) for terms in packed)
    chain: list[tuple[str, MPoly]] = []
    cache: dict = {}

    while True:
        cache = {k: cache[k] if k in cache else candidates(t) for k, t in gens.items()}
        ranked = [(rank, idx, k) for k, cands in cache.items() for rank, idx in cands]
        if not ranked:
            break
        best = min(rank for rank, _, _ in ranked)
        tied = [(idx, k) for rank, idx, k in ranked if rank == best]
        if len(tied) > 1:
            idx, k = min(tied, key=lambda c: format_poly(grevlex(gens[c[1]])))
        else:
            idx, k = tied[0]
        f = gens[k]
        name = ring.names[idx]
        bit = base[idx]
        a = f[bit]
        neg_b = {m: -c for m, c in f.items() if m != bit}
        chain.append((name, MPoly(ring, {unpack(m): exact_div(c, a) for m, c in neg_b.items()})))
        powers = [{0: 1}, neg_b]
        shift = width * idx
        mask = field << shift
        gens = dedup(
            tidy(substitute(t, shift, a, powers)) if any(map(mask.__and__, t)) else (k, t)
            for k, t in gens.items()
        )

    polys = sorted((grevlex(t) for t in gens.values()), key=poly_sort_key)
    return LinearReduction(ring, chain, polys)
