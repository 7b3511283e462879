"""Groebner bases over Q by Buchberger's algorithm.

The pair queue uses the sugar-degree selection strategy and is pruned
with the Gebauer-Moeller criteria (the two "new pair" criteria plus
chain elimination of old pairs, and Buchberger's coprime-leading-term
product criterion).  The final basis is fully interreduced, so for a
fixed monomial order the output is *the* reduced Groebner basis,
independent of generator order — tests rely on that uniqueness.

Reduction, S-polynomials and interreduction run fraction-free on integer
term dictionaries (:func:`_reduce` is the one division loop).  Inputs
are cleared of denominators once, every element a basis admits is
normalized, and bases keep the integer coefficients computed, so the
results are those of the same steps over Q.

Degree and term-count caps guard every reduction; blowing a cap raises
:class:`~sitawim.errors.ResourceCapExceeded` rather than thrashing.
The defaults (total degree 60, one million terms) are far above
anything a sane run needs.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, le, sub
from typing import Iterable, Sequence

from ..errors import ResourceCapExceeded
from .core import (
    MPoly,
    Monomial,
    MonomialOrder,
    cleared_terms,
    exact_div,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_total,
    mul_terms_into,
    primitive_terms,
)

DEFAULT_MAX_DEGREE = 60
DEFAULT_MAX_TERMS = 10**6


def _check_caps(degree: int, nterms: int, max_degree: int | None, max_terms: int | None) -> None:
    if max_degree is not None and degree > max_degree:
        raise ResourceCapExceeded("intermediate total degree", degree, max_degree)
    if max_terms is not None and nterms > max_terms:
        raise ResourceCapExceeded("intermediate term count", nterms, max_terms)


def _reducer(terms: dict, order: MonomialOrder) -> tuple:
    """``(lm, lc, tail)`` of a nonzero integer polynomial, negated if need
    be so that ``lc > 0``; ``tail`` holds the other terms."""
    lm = order.leading(terms)
    sign = -1 if terms[lm] < 0 else 1
    tail = {m: sign * c for m, c in terms.items() if m != lm}
    return lm, sign * terms[lm], tail


def _reduce(
    terms: dict,
    reducers: Sequence[tuple],
    order: MonomialOrder,
    max_degree: int | None,
    max_terms: int | None,
) -> tuple[dict, int]:
    """Fraction-free multivariate division of integer terms by integer
    reducers ``(lm, lc, tail)`` with ``lc > 0``.

    Returns ``(remainder, scale)`` with ``scale > 0``: the remainder of the
    division over Q is ``remainder / scale``.  The steps are those of the
    division over Q: the largest term of the work polynomial is taken off a
    heap keyed by ``order.desc_key`` and reduced by the first reducer whose
    leading monomial divides it, and otherwise moved to the remainder.
    Before a step whose quotient ``coeff / lc`` is not an integer, the work
    polynomial is multiplied by ``lc / gcd(coeff, lc)``; a remainder term
    records the scale at which it left, and is brought to the final scale
    at the end.
    """
    desc = order.desc_key
    work = dict(terms)
    heap = [(desc(m), m) for m in work]
    heapify(heap)
    moved: list[tuple[Monomial, int, int]] = []
    scale = 1
    while work:
        mono = heappop(heap)[1]
        coeff = work.pop(mono, None)
        if coeff is None:  # cancelled after it was queued
            continue
        _check_caps(sum(mono), len(work) + len(moved), max_degree, max_terms)
        for lm, lc, tail in reducers:
            if not all(map(le, lm, mono)):
                continue
            quot = tuple(map(sub, mono, lm))
            g = gcd(coeff, lc)
            mult, coeff = lc // g, coeff // g
            if mult != 1:
                scale *= mult
                for m in work:
                    work[m] *= mult
            for gm, gc in tail.items():
                mm = tuple(map(add, gm, quot))
                v = work.get(mm)
                if v is None:
                    work[mm] = -coeff * gc
                    heappush(heap, (desc(mm), mm))
                else:
                    v -= coeff * gc
                    if v:
                        work[mm] = v
                    else:
                        del work[mm]
            break
        else:
            moved.append((mono, coeff, scale))
    return {m: c * (scale // at) for m, c, at in moved}, scale


def normal_form(
    f: MPoly,
    basis: Sequence[MPoly],
    order: MonomialOrder | None = None,
    *,
    max_degree: int | None = None,
    max_terms: int | None = None,
) -> MPoly:
    """Remainder of ``f`` on full multivariate division by ``basis``.

    Every term of the result is divisible by no leading term of the basis.
    Reducers are tried in the order given, so the remainder is deterministic
    (and basis-order independent exactly when the basis is a Groebner basis).
    The division runs fraction-free on the integer multiples of ``f`` and of
    the basis elements (see :func:`_reduce`); the scale is divided back out
    at the end, leaving an int wherever the division is exact.
    """
    order = order or f.ring.default_order
    reducers = [_reducer(cleared_terms(g.terms)[0], order) for g in basis if not g.is_zero]
    work, den = cleared_terms(f.terms)
    rem, scale = _reduce(work, reducers, order, max_degree, max_terms)
    scale *= den
    return MPoly(f.ring, {m: exact_div(c, scale) for m, c in rem.items()})


def _s_terms(f: tuple, g: tuple) -> dict:
    """The S-polynomial of two reducers times ``lcm(lc_f, lc_g)``; it does
    not change when either polynomial is scaled by a nonzero rational."""
    (fm, fc, ftail), (gm, gc, gtail) = f, g
    top = mono_lcm(fm, gm)
    d = gcd(fc, gc)
    out: dict = {}
    mul_terms_into(out, {mono_div(top, fm): gc // d}, ftail)
    mul_terms_into(out, {mono_div(top, gm): -(fc // d)}, gtail)
    return {m: c for m, c in out.items() if c}


class _PairQueue:
    """Critical pairs with Gebauer-Moeller pruning and sugar selection."""

    def __init__(self, order: MonomialOrder) -> None:
        self.order = order
        self.pairs: list[tuple] = []  # (sugar, lcm_deg, lcm_key, i, j, lcm)

    def update(self, basis: list, sugars: list[int], lts: list[tuple]) -> None:
        """Register the newest basis element (already appended) and prune."""
        t = len(basis) - 1
        lt_new = lts[t]
        lcms = {i: mono_lcm(lts[i], lt_new) for i in range(t)}

        # Gebauer-Moeller M: drop (i,t) when another new pair's lcm properly divides
        survivors = []
        for i in range(t):
            li = lcms[i]
            dominated = any(
                j != i and lcms[j] != li and mono_divides(lcms[j], li) for j in lcms
            )
            if not dominated:
                survivors.append(i)

        # Gebauer-Moeller F + Buchberger product criterion: one pair per lcm
        # class, and any class containing a coprime-leading-term pair dies.
        by_lcm: dict[tuple, list[int]] = {}
        for i in survivors:
            by_lcm.setdefault(lcms[i], []).append(i)
        fresh = []
        for lcm, members in by_lcm.items():
            if any(mono_mul(lts[i], lt_new) == lcm for i in members):
                continue
            fresh.append((min(members), lcm))

        # Gebauer-Moeller B: chain-prune old pairs through the new element
        kept = []
        for pair in self.pairs:
            _, _, _, i, j, lcm = pair
            if (
                mono_divides(lt_new, lcm)
                and mono_lcm(lts[i], lt_new) != lcm
                and mono_lcm(lts[j], lt_new) != lcm
            ):
                continue
            kept.append(pair)
        self.pairs = kept

        key = self.order.key
        for i, lcm in fresh:
            sugar = max(
                sugars[i] + mono_total(lcm) - mono_total(lts[i]),
                sugars[t] + mono_total(lcm) - mono_total(lt_new),
            )
            self.pairs.append((sugar, mono_total(lcm), key(lcm), i, t, lcm))

    def pop(self) -> tuple:
        best = min(self.pairs)
        self.pairs.remove(best)
        return best

    def __bool__(self) -> bool:
        return bool(self.pairs)


def buchberger(
    generators: Iterable[MPoly],
    order: MonomialOrder | None = None,
    *,
    max_degree: int | None = DEFAULT_MAX_DEGREE,
    max_terms: int | None = DEFAULT_MAX_TERMS,
) -> list[MPoly]:
    """The reduced Groebner basis of the ideal generated by ``generators``.

    Returns normalized polynomials sorted ascending by leading monomial.
    The zero ideal yields ``[]``; a unit ideal yields ``[1]``.
    """
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return []
    ring = gens[0].ring
    order = order or ring.default_order

    # the basis is kept as integer reducers (lm, lc, tail); every element is
    # the normalized polynomial the rational algorithm would admit
    basis: list[tuple] = []
    sugars: list[int] = []
    lts: list[tuple] = []
    queue = _PairQueue(order)

    def admit(terms: dict, sugar: int) -> None:
        h = _reducer(primitive_terms(terms, order), order)
        _check_caps(max(map(sum, terms)), len(terms), max_degree, max_terms)
        basis.append(h)
        sugars.append(sugar)
        lts.append(h[0])
        queue.update(basis, sugars, lts)

    for g in gens:
        rem, _ = _reduce(cleared_terms(g.terms)[0], basis, order, max_degree, max_terms)
        if rem:
            admit(rem, max(map(sum, rem)))

    while queue:
        sugar, _, _, i, j, _ = queue.pop()
        rem, _ = _reduce(_s_terms(basis[i], basis[j]), basis, order, max_degree, max_terms)
        if rem:
            admit(rem, max(sugar, max(map(sum, rem))))

    return [MPoly(ring, terms) for terms in _interreduce(basis, order)]


def _interreduce(basis: Sequence[tuple], order: MonomialOrder) -> list[dict]:
    """The reduced basis from integer reducers, as normalized integer
    terms sorted ascending by leading monomial."""
    key = order.key
    minimal: list[tuple] = []
    for g in sorted(basis, key=lambda g: key(g[0])):
        if not any(mono_divides(h[0], g[0]) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, (lm, lc, tail) in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        rem, _ = _reduce({lm: lc, **tail}, others, order, None, None)
        if rem:
            reduced.append(primitive_terms(rem, order))
    reduced.sort(key=lambda t: key(order.leading(t)))
    return reduced


def ideal_contains(f: MPoly, groebner: Sequence[MPoly], order: MonomialOrder | None = None) -> bool:
    """Membership test against an already-computed Groebner basis."""
    return normal_form(f, groebner, order).is_zero
