"""Groebner-basis oracles for the tests: the S-polynomial of two rational
polynomials and a criterion-pruned Groebner-basis check.

Neither is a pipeline stage; they check ``buchberger`` and the integer
kernels it runs on.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from sitawim.exactpoly import MPoly, MonomialOrder, normal_form
from sitawim.exactpoly.core import cleared_terms, mono_divides, mono_lcm, mono_mul, mono_total
from sitawim.exactpoly.groebner import _reducer, _s_terms


def s_polynomial(f: MPoly, g: MPoly, order: MonomialOrder | None = None) -> MPoly:
    """The S-polynomial: both leading terms scaled to their lcm and cancelled."""
    order = order or f.ring.default_order
    fr = _reducer(cleared_terms(f.terms)[0], order)
    gr = _reducer(cleared_terms(g.terms)[0], order)
    scale = lcm(fr[1], gr[1])
    return MPoly(f.ring, {m: Fraction(c, scale) for m, c in _s_terms(fr, gr).items()})


def is_groebner(basis: Sequence[MPoly], order: MonomialOrder | None = None) -> bool:
    """Whether every S-polynomial has a standard representation.

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
            top = mono_lcm(lts[i], lts[j])
            pairs.append((mono_total(top), key(top), i, j, top))
    pairs.sort(key=lambda p: p[:4])
    settled: set[tuple[int, int]] = set()
    for _, _, i, j, top in pairs:
        settled.add((i, j))
        if mono_mul(lts[i], lts[j]) == top:
            continue
        if any(
            k != i
            and k != j
            and (min(i, k), max(i, k)) in settled
            and (min(j, k), max(j, k)) in settled
            and mono_divides(lts[k], top)
            for k in range(len(polys))
        ):
            continue
        if not normal_form(s_polynomial(polys[i], polys[j], order), polys, order).is_zero:
            return False
    return True
