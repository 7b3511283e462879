"""Integer-point search over structure-constant varieties.

The surviving polynomial systems produced by :mod:`sitawim.varietygen` and
:mod:`sitawim.exactpoly.linear` still carry a handful of free variables:
degree symbols and whichever structure constants the elimination chain could
not resolve.  This module walks explicit integer grids over a chosen subset
of those variables, solves the (now zero-dimensional) remainder exactly at
each grid point, and turns every suitable solution into a verified
:class:`~sitawim.structcheck.Instance`.

Only integer points matter — realized tables have integer structure
constants — so the solving step never touches floating point: a
lexicographic Groebner basis triangularizes the specialized system, the
integer roots of the univariate eliminant come from
:func:`sitawim.intpoly._integer_roots` (closed form up to degree 2, above
that a divisor test on the constant term bounded by the Cauchy bound), and
back-substitution proceeds one variable at a time.  Once a point is put
in, the system is moved into a ring of only its unknowns (a few of the
template's dozens of variables), so every monomial the basis computation
touches is short; lex there is the restriction of the template-ring lex
order with the unknowns last, and the reduced basis, hence every
solution, is the same.  Those small rings are cached by their variable
names.

A system left with one unknown u needs no basis: the reduced lex basis of
an ideal of Q[u] is the gcd of its generators (Cox, Little & O'Shea,
*Ideals, Varieties, and Algorithms*, §1.5), here
:func:`sitawim.intpoly._poly_gcd` on integer coefficient lists.  Every
point of the rank-4 pseudocyclic sweeps (m and x8 given for 4S, k1 for
4A1) is such a system, and every back-substitution ends in one.  Its caps are read off the inputs in the
order given: the first whose degree exceeds ``max_degree``, or else whose
term count exceeds ``max_terms``, raises the
:class:`~sitawim.errors.ResourceCapExceeded` ``buchberger`` would.  While
``max_terms`` exceeds ``max_degree`` (the defaults are 60 and a million)
``buchberger`` raises exactly then; under a smaller term cap it also
counts the terms of intermediate remainders, so the two can differ.

Per-point diagnostics stream to the ``sitawim.solver`` logger with the
stable line format ``point=<assignment> status=<sol|empty|posdim|cap>``;
positive-dimensional and capped points are additionally raised to WARNING
so they stand out as candidates for widening the enumerated set.
"""

from __future__ import annotations

import itertools
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor
from operator import itemgetter
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    InconsistentIdealError,
    PositiveDimensionalError,
    ResourceCapExceeded,
    SitawimError,
)
from .exactpoly import MonomialOrder, MPoly, Ring
from .exactpoly.core import cleared_terms
from .exactpoly.groebner import DEFAULT_MAX_DEGREE, DEFAULT_MAX_TERMS, _check_caps, buchberger
from .exactpoly.linear import linear_reduce, rational_span_basis
from .intpoly import _integer_roots, _poly_gcd
from .structcheck import Instance, _as_int, verify_sita
from .varietygen import (
    INVOLUTION_TYPES,
    RationalCharTable,
    Template,
    build_template,
    emit_structure_polys,
    homogeneity_constraints,
    trace_constraints,
)

__all__ = [
    "GridAxis",
    "WindowSpec",
    "SimplexSpec",
    "SearchConfig",
    "Solution",
    "specialize_and_solve",
    "run_search",
    "canonical_form",
]

log = logging.getLogger(__name__)

Assumption = Union[str, RationalCharTable]


# ---------------------------------------------------------------------------
# grid geometry


@dataclass(frozen=True)
class GridAxis:
    """One enumerated variable: every integer from ``start`` to ``stop``
    inclusive (none when ``stop < start``)."""

    name: str
    start: int
    stop: int

    def values(self) -> list[int]:
        return list(range(self.start, self.stop + 1))


@dataclass(frozen=True)
class WindowSpec:
    """Variables confined to a relative window around ``anchor/divisor``.

    Each named variable independently takes every integer within
    ``percent`` percent of ``anchor/divisor``, clamped at zero.  The anchor
    must be one of the grid axes, so the window tightens as the outer sweep
    proceeds.
    """

    names: tuple[str, ...]
    anchor: str = "m"
    percent: int = 10
    divisor: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise SitawimError("window needs at least one variable")
        if self.percent < 0 or self.divisor < 1:
            raise SitawimError("window needs percent >= 0 and divisor >= 1")

    def values(self, anchor_value: int) -> list[int]:
        center = Fraction(anchor_value, self.divisor)
        slack = center * self.percent / 100
        lo = max(0, ceil(center - slack))
        hi = floor(center + slack)
        return list(range(lo, hi + 1))


@dataclass(frozen=True)
class SimplexSpec:
    """Variables ranging over all nonnegative integer tuples whose sum is at
    most the current value of the anchor axis — the shape of a full
    first-row sweep."""

    names: tuple[str, ...]
    anchor: str = "m"

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise SitawimError("simplex needs at least one variable")

    def points(self, anchor_value: int) -> Iterator[tuple[int, ...]]:
        bound = max(anchor_value, -1)

        def rec(prefix: tuple[int, ...], remaining: int, budget: int):
            if remaining == 0:
                yield prefix
                return
            for v in range(budget + 1):
                yield from rec(prefix + (v,), remaining - 1, budget - v)

        if bound >= 0:
            yield from rec((), len(self.names), bound)


@dataclass(frozen=True)
class SearchConfig:
    """Everything :func:`run_search` needs: the algebra family, the
    symmetry assumption, which variables are enumerated and how, resource
    caps for the per-point Groebner runs, and the parallel width.

    Template variables split into the enumerated set (grid, window, and
    simplex names) and the solved set (everything else); the two always
    partition the template's variables.
    """

    itype: str
    assumption: Assumption = "none"
    grid: tuple[GridAxis, ...] = ()
    window: Optional[WindowSpec] = None
    simplex: Optional[SimplexSpec] = None
    workers: int = 1
    max_degree: int = DEFAULT_MAX_DEGREE
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(self.grid))
        if self.itype not in INVOLUTION_TYPES:
            known = ", ".join(sorted(INVOLUTION_TYPES))
            raise SitawimError(f"unknown involution type {self.itype!r} (known: {known})")
        if self.workers < 1:
            raise SitawimError("workers must be >= 1")
        names = self.enumerated_names()
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise SitawimError(f"variables enumerated twice: {sorted(dupes)}")
        axis_names = [a.name for a in self.grid]
        for spec in (self.window, self.simplex):
            if spec is not None and spec.anchor not in axis_names:
                raise SitawimError(
                    f"anchor {spec.anchor!r} is not a grid axis (axes: {axis_names})"
                )

    def enumerated_names(self) -> list[str]:
        names = [a.name for a in self.grid]
        if self.window is not None:
            names.extend(self.window.names)
        if self.simplex is not None:
            names.extend(self.simplex.names)
        return names


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True, order=True)
class Solution:
    """A full integer assignment extending the grid point it came from;
    a value that is not integral raises :class:`SitawimError`."""

    assignment: tuple[tuple[str, int], ...]

    def __init__(self, assignment: Mapping[str, int]) -> None:
        object.__setattr__(self, "assignment", tuple(sorted(_integral(assignment).items())))

    def as_dict(self) -> dict[str, int]:
        return dict(self.assignment)

    def __getitem__(self, name: str) -> int:
        for k, v in self.assignment:
            if k == name:
                return v
        raise KeyError(name)

    def is_suitable(self, degree_symbols: Sequence[str] = ()) -> bool:
        """Nonnegative structure constants and positive degrees."""
        degs = set(degree_symbols)
        return all(v >= 1 if k in degs else v >= 0 for k, v in self.assignment)


def _integral(assignment: Mapping[str, object]) -> dict[str, int]:
    """The assignment with int values; SitawimError naming a variable whose
    value is not integral."""
    return {str(k): _as_int(v, f"{k} =") for k, v in assignment.items()}


# ---------------------------------------------------------------------------
# zero-dimensional solving


@lru_cache(maxsize=256)
def _lex_order(names: tuple[str, ...]) -> MonomialOrder:
    """Lex on a ring of exactly ``names``, the first-listed variable largest."""
    return Ring(names).order("lex")


def _project(polys: list[MPoly], names: list[str]) -> tuple[list[MPoly], MonomialOrder]:
    """``polys``, which use only the variables ``names`` (listed in ring
    order), rewritten in the cached ring of just those variables, with its
    lex order."""
    order = _lex_order(tuple(names))
    index = polys[0].ring.index
    idx = [index[n] for n in names]
    pick = itemgetter(*idx) if len(idx) > 1 else lambda m, i=idx[0]: (m[i],)
    small = order.ring
    return [MPoly(small, {pick(m): c for m, c in p.terms.items()}) for p in polys], order


def _solve_triangular(
    polys: Sequence[MPoly],
    values: Mapping[str, int],
    max_degree: int,
    max_terms: int,
) -> list[dict]:
    """Integer points of ``V(polys)`` with ``values`` put in, as assignments
    of the variables left over.

    With one unknown u left, the eliminant is the gcd of the polynomials
    as integer lists in u (denominators cleared), the lex basis up to a
    scalar, and no basis is computed; each input in turn has its degree
    checked against ``max_degree``, then its term count against
    ``max_terms``.  More unknowns are solved in a ring of their own: lex
    there is the order the wider ring's lex with the other variables first
    induces on them, so the reduced basis is the same; back-substitution
    puts in the smallest unknown, so it ends in the one-unknown case."""
    sub = []
    unknown_set = set()
    for p in polys:
        q = p.subs(values) if values else p
        if q.is_zero:
            continue
        used = q.variables()
        if not used:
            return []  # a nonzero constant: the specialized ideal is trivial
        sub.append(q)
        unknown_set |= used
    if not sub:
        return [{}]
    ring = sub[0].ring
    if len(unknown_set) == 1:
        (u,) = unknown_set
        eliminant = []
        for q in sub:
            _check_caps(q.total_degree(), q.num_terms(), max_degree, max_terms)
            coeffs = MPoly(ring, cleared_terms(q.terms)[0]).as_univariate(u)
            eliminant = _poly_gcd(eliminant, coeffs)
        return [{u: root} for root in _integer_roots(eliminant)]
    unknowns = [n for n in ring.names if n in unknown_set]
    sub, order = _project(sub, unknowns)
    gb = buchberger(sub, order, max_degree=max_degree, max_terms=max_terms)
    if any(not g.variables() for g in gb):
        return []
    pure = set()
    for g in gb:
        mono, _ = g.leading(order)
        lead = [name for name, e in zip(unknowns, mono) if e]
        if len(lead) == 1:
            pure.add(lead[0])
    free = [u for u in unknowns if u not in pure]
    if free:
        raise PositiveDimensionalError(
            f"specialized system leaves {free} free (no pure-power leading term)"
        )
    smallest = unknowns[-1]
    eliminant = min(
        (g for g in gb if g.variables() <= {smallest}),
        key=lambda g: g.total_degree(),
    )
    out = []
    for root in _integer_roots(eliminant.as_univariate(smallest)):
        for rest in _solve_triangular(gb, {smallest: root}, max_degree, max_terms):
            out.append({smallest: root, **rest})
    return out


def specialize_and_solve(
    polys: Sequence[MPoly],
    partial: Mapping[str, int],
    *,
    max_degree: int = DEFAULT_MAX_DEGREE,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> list[Solution]:
    """All integer points of ``V(polys)`` extending ``partial``.

    Substitutes the partial assignment and moves what is left into a ring
    of only its unknowns (cached by their names), where a lexicographic
    Groebner basis triangularizes it; integer roots are read off the
    univariate eliminant and back-substituted one variable at a time, each
    step again in a ring of the unknowns that remain.  A step with one
    unknown left takes the integer gcd of its polynomials as the eliminant
    and computes no basis; it checks each polynomial, in order, for degree
    above ``max_degree`` and then for more than ``max_terms`` terms.
    Returns the empty list when the specialized ideal is trivial.  Raises
    :class:`PositiveDimensionalError` when the remainder has a free
    variable, :class:`ResourceCapExceeded` when a basis computation or a
    one-unknown input blows its budget, and :class:`SitawimError` naming a
    partial value that is not integral (ints and integral Fractions are)
    or not a variable of the ring.  Every returned solution is re-checked
    exactly against every input polynomial.
    """
    start = _integral(partial)
    if not polys:
        return [Solution(start)]
    index = polys[0].ring.index
    outside = [k for k in start if k not in index]
    if outside:
        raise SitawimError(f"not variables of the ring: {outside}")
    raw = _solve_triangular(list(polys), start, max_degree, max_terms)
    solutions = sorted(Solution({**start, **pt}) for pt in raw)
    for sol in solutions:
        point = sol.as_dict()
        for p in polys:
            if p.evaluate(point) != 0:
                raise SitawimError(
                    f"solver bug: {point} does not kill a generator"
                )
    return solutions


# ---------------------------------------------------------------------------
# permutation-equivalence canonical form


def canonical_form(inst: Instance) -> Instance:
    """The lexicographically least relabeling of an instance.

    Considers every basis permutation that fixes ``b_0`` and commutes with
    the star involution, rewrites the regular matrices under each, and
    keeps the minimum concatenated-matrix tuple.  Idempotent, and constant
    on permutation-equivalence classes.
    """
    r = inst.rank
    star = inst.star
    mats = inst.matrices
    best = None
    for tail in itertools.permutations(range(1, r)):
        p = (0,) + tail
        if any(p[star[j]] != star[p[j]] for j in range(r)):
            continue
        inv = [0] * r
        for j, pj in enumerate(p):
            inv[pj] = j
        relabeled = tuple(
            tuple(tuple(mats[inv[j]][inv[i]][inv[k]] for k in range(r)) for i in range(r))
            for j in range(r)
        )
        if best is None or relabeled < best:
            best = relabeled
    return Instance(best, itype=inst.itype)


# ---------------------------------------------------------------------------
# grid search


@dataclass
class _Prepared:
    template: Template
    polys: list[MPoly]
    chain: list[tuple[str, MPoly]]
    enumerated: list[str]


def _prepare(cfg: SearchConfig) -> _Prepared:
    template = build_template(cfg.itype, cfg.assumption)
    gens = emit_structure_polys(template)
    if cfg.assumption != "none":
        gens = gens + trace_constraints(template)
    if cfg.assumption == "pseudocyclic":
        gens = gens + homogeneity_constraints(template)
    enumerated = cfg.enumerated_names()
    known = set(template.ring.names)
    missing = [n for n in enumerated if n not in known]
    if missing:
        raise SitawimError(f"not template variables: {missing}")
    red = linear_reduce(gens, degree_symbols=template.degree_symbols, keep=tuple(enumerated))
    polys = rational_span_basis(red.polys)
    return _Prepared(template, polys, list(red.chain), enumerated)


def _iter_points(cfg: SearchConfig) -> Iterator[dict[str, int]]:
    axes = cfg.grid
    if not axes:
        return
    window, simplex = cfg.window, cfg.simplex
    names = (window.names if window else ()) + (simplex.names if simplex else ())
    for combo in itertools.product(*[a.values() for a in axes]):
        outer = dict(zip([a.name for a in axes], combo))
        picks = [()]
        if window is not None:
            vals = window.values(outer[window.anchor])
            picks = itertools.product(vals, repeat=len(window.names))
        rows = [()] if simplex is None else simplex.points(outer[simplex.anchor])
        for pick, row in itertools.product(picks, rows):
            yield {**outer, **dict(zip(names, pick + row))}


def _solve_point(
    prep: _Prepared, cfg: SearchConfig, point: dict[str, int]
) -> tuple[str, list[Instance]]:
    """One grid point: solve, back-fill the chain, keep suitable verified
    instances.  Returns (status, instances)."""
    template = prep.template
    ring = template.ring
    try:
        sols = specialize_and_solve(
            prep.polys, point, max_degree=cfg.max_degree, max_terms=cfg.max_terms
        )
    except PositiveDimensionalError:
        return "posdim", []
    except ResourceCapExceeded:
        return "cap", []
    found = []
    for sol in sols:
        full = sol.as_dict()
        integral = True
        for name, expr in reversed(prep.chain):
            value = expr.evaluate(full)
            if value.denominator != 1:
                integral = False
                break
            full[name] = int(value)
        if not integral:
            continue
        missing = [n for n in ring.names if n not in full]
        if missing:
            return "posdim", []
        complete = Solution(full)
        if not complete.is_suitable(template.degree_symbols):
            continue
        inst = Instance(template.instantiate(full), itype=template.itype)
        report = verify_sita(inst)
        if not report.passed:
            log.warning(
                "point=%s rejected: axiom %s failed",
                _fmt_point(point),
                report.failing()[0].name,
            )
            continue
        found.append(inst)
    return ("sol" if found else "empty"), found


def _fmt_point(point: Mapping[str, int]) -> str:
    return ",".join(f"{k}={v}" for k, v in point.items())


def _stripe_worker(
    prep: _Prepared, cfg: SearchConfig, stripe: int, width: int
) -> list[tuple[int, str, str, list[Instance]]]:
    """Process-pool entry: sweep every ``width``-th grid point starting at
    ``stripe``.  Striping spreads the expensive high-anchor points evenly;
    the returned indices let the parent restore the global point order.
    ``prep`` is the parent's prepared system, shipped pickled, so no worker
    repeats the template and linear-elimination work."""
    out = []
    for idx, point in itertools.islice(enumerate(_iter_points(cfg)), stripe, None, width):
        status, found = _solve_point(prep, cfg, point)
        out.append((idx, _fmt_point(point), status, found))
    return out


def run_search(cfg: SearchConfig) -> list[Instance]:
    """Exhaustive sweep of the configured grid.

    Every grid point is specialized and solved; every suitable integer
    solution becomes an instance, which must pass the full axiom check.
    The result is deduplicated up to permutation equivalence (via
    :func:`canonical_form`) and sorted by (order, degrees, matrices), so
    repeated runs — serial or parallel — produce identical catalogs.
    Per-point failures are logged and never abort the sweep.
    """
    try:
        prep = _prepare(cfg)
    except InconsistentIdealError as exc:
        log.warning("assumptions are contradictory, nothing to search: %s", exc)
        return []
    width = sum(1 for _ in itertools.islice(_iter_points(cfg), cfg.workers))
    if width <= 1:
        indexed = _stripe_worker(prep, cfg, 0, 1)
    else:
        with ProcessPoolExecutor(max_workers=width) as pool:
            futures = [
                pool.submit(_stripe_worker, prep, cfg, w, width) for w in range(width)
            ]
            indexed = [row for fut in futures for row in fut.result()]
        indexed.sort(key=lambda row: row[0])
    catalog: list[Instance] = []
    seen = set()
    for _, text, status, found in indexed:
        level = logging.WARNING if status in ("posdim", "cap") else logging.INFO
        log.log(level, "point=%s status=%s", text, status)
        for inst in found:
            canon = canonical_form(inst)
            if canon.matrices in seen:
                continue
            seen.add(canon.matrices)
            catalog.append(canon)
    catalog.sort(key=lambda i: (i.order, i.degrees, i.matrices))
    return catalog
