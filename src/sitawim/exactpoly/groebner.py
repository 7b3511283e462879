"""Groebner bases over Q by Buchberger's algorithm.

The pair queue uses the sugar-degree selection strategy and is pruned
with the Gebauer-Moeller criteria (the two "new pair" criteria plus
chain elimination of old pairs, and Buchberger's coprime-leading-term
product criterion).  The final basis is fully interreduced, so for a
fixed monomial order the output is *the* reduced Groebner basis,
independent of generator order — tests rely on that uniqueness.

Degree and term-count caps guard every reduction; blowing a cap raises
:class:`~sitawim.errors.ResourceCapExceeded` rather than thrashing.
The defaults (total degree 60, one million terms) are far above
anything a sane run needs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import ResourceCapExceeded
from .core import (
    MPoly,
    MonomialOrder,
    Q0,
    Q1,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_total,
)

DEFAULT_MAX_DEGREE = 60
DEFAULT_MAX_TERMS = 10**6


def _check_caps(degree: int, nterms: int, max_degree: int | None, max_terms: int | None) -> None:
    if max_degree is not None and degree > max_degree:
        raise ResourceCapExceeded("intermediate total degree", degree, max_degree)
    if max_terms is not None and nterms > max_terms:
        raise ResourceCapExceeded("intermediate term count", nterms, max_terms)


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
    """
    order = order or f.ring.default_order
    key = order.key
    reducers = [(g.leading(order), g.terms) for g in basis if not g.is_zero]
    work = dict(f.terms)
    remainder: dict = {}
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        _check_caps(mono_total(mono), len(work) + len(remainder), max_degree, max_terms)
        for (lt_mono, lt_coeff), terms in reducers:
            quot = mono_div(mono, lt_mono)
            if quot is None:
                continue
            scale = coeff / lt_coeff
            for gm, gc in terms.items():
                if gm == lt_mono:
                    continue
                mm = mono_mul(gm, quot)
                v = work.get(mm, Q0) - scale * gc
                if v:
                    work[mm] = v
                elif mm in work:
                    del work[mm]
            break
        else:
            remainder[mono] = coeff
    return MPoly(f.ring, remainder)


def s_polynomial(f: MPoly, g: MPoly, order: MonomialOrder | None = None) -> MPoly:
    """The S-polynomial: both leading terms scaled to their lcm and cancelled."""
    order = order or f.ring.default_order
    (fm, fc) = f.leading(order)
    (gm, gc) = g.leading(order)
    lcm = mono_lcm(fm, gm)
    return f.mul_term(mono_div(lcm, fm), Q1 / fc) - g.mul_term(mono_div(lcm, gm), Q1 / gc)


class _PairQueue:
    """Critical pairs with Gebauer-Moeller pruning and sugar selection."""

    def __init__(self, order: MonomialOrder) -> None:
        self.order = order
        self.pairs: list[tuple] = []  # (sugar, lcm_deg, lcm_key, i, j, lcm)

    def update(self, basis: list[MPoly], sugars: list[int], lts: list[tuple]) -> None:
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

    basis: list[MPoly] = []
    sugars: list[int] = []
    lts: list[tuple] = []
    queue = _PairQueue(order)

    def admit(h: MPoly, sugar: int) -> None:
        h = h.normalize(order)
        _check_caps(h.total_degree(), h.num_terms(), max_degree, max_terms)
        basis.append(h)
        sugars.append(sugar)
        lts.append(h.leading(order)[0])
        queue.update(basis, sugars, lts)

    for g in gens:
        h = normal_form(g, basis, order, max_degree=max_degree, max_terms=max_terms)
        if not h.is_zero:
            admit(h, h.total_degree())

    while queue:
        sugar, _, _, i, j, _ = queue.pop()
        h = normal_form(
            s_polynomial(basis[i], basis[j], order),
            basis,
            order,
            max_degree=max_degree,
            max_terms=max_terms,
        )
        if not h.is_zero:
            admit(h, max(sugar, h.total_degree()))

    return interreduce(basis, order)


def interreduce(basis: Sequence[MPoly], order: MonomialOrder | None = None) -> list[MPoly]:
    """Minimalize and tail-reduce a Groebner basis; result is the reduced basis."""
    polys = [g for g in basis if not g.is_zero]
    if not polys:
        return []
    order = order or polys[0].ring.default_order
    key = order.key
    polys.sort(key=lambda g: key(g.leading(order)[0]))
    minimal: list[MPoly] = []
    for g in polys:
        lt = g.leading(order)[0]
        if not any(mono_divides(h.leading(order)[0], lt) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        h = normal_form(g, others, order)
        if not h.is_zero:
            reduced.append(h.normalize(order))
    reduced.sort(key=lambda g: key(g.leading(order)[0]))
    return reduced


def is_groebner(basis: Sequence[MPoly], order: MonomialOrder | None = None) -> bool:
    """Whether every S-polynomial has a standard representation (test helper).

    Pairs are settled in ascending order of their lcm.  A pair is skipped
    when its leading monomials are coprime (Buchberger's product criterion)
    or when some third element's leading monomial divides its lcm and both
    pairs through that element are already settled (the chain criterion);
    every other S-polynomial must reduce to zero.
    """
    polys = [g for g in basis if not g.is_zero]
    if len(polys) < 2:
        return True
    order = order or polys[0].ring.default_order
    key = order.key
    lts = [g.leading(order)[0] for g in polys]
    pairs = []
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            lcm = mono_lcm(lts[i], lts[j])
            pairs.append((mono_total(lcm), key(lcm), i, j, lcm))
    pairs.sort(key=lambda p: p[:4])
    settled: set[tuple[int, int]] = set()
    for _, _, i, j, lcm in pairs:
        settled.add((i, j))
        if mono_mul(lts[i], lts[j]) == lcm:
            continue
        if any(
            k != i
            and k != j
            and (min(i, k), max(i, k)) in settled
            and (min(j, k), max(j, k)) in settled
            and mono_divides(lts[k], lcm)
            for k in range(len(polys))
        ):
            continue
        if not normal_form(s_polynomial(polys[i], polys[j], order), polys, order).is_zero:
            return False
    return True


def ideal_contains(f: MPoly, groebner: Sequence[MPoly], order: MonomialOrder | None = None) -> bool:
    """Membership test against an already-computed Groebner basis."""
    return normal_form(f, groebner, order).is_zero


def ideals_equal(
    gens_a: Iterable[MPoly],
    gens_b: Iterable[MPoly],
    order: MonomialOrder | None = None,
    **caps,
) -> bool:
    """Whether two generating sets span the same ideal (reduced bases compared)."""
    return buchberger(gens_a, order, **caps) == buchberger(gens_b, order, **caps)
