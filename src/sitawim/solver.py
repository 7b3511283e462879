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
univariate eliminant is searched for integer roots by a divisor test, and
back-substitution proceeds one variable at a time.

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
from math import ceil, floor, isqrt
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    InconsistentIdealError,
    PositiveDimensionalError,
    ResourceCapExceeded,
    SitawimError,
)
from .exactpoly import MPoly, Ring
from .exactpoly.groebner import DEFAULT_MAX_DEGREE, DEFAULT_MAX_TERMS, buchberger
from .exactpoly.linear import linear_reduce, rational_span_basis
from .structcheck import Instance, verify_sita
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
    """One enumerated variable: an inclusive integer range with an optional
    stride and congruence filter (``congruence=(2, 0)`` keeps even values)."""

    name: str
    start: int
    stop: int
    step: int = 1
    congruence: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.step < 1:
            raise SitawimError(f"axis {self.name}: step must be >= 1")
        if self.congruence is not None:
            modulus, residue = self.congruence
            if modulus < 1:
                raise SitawimError(f"axis {self.name}: modulus must be >= 1")
            object.__setattr__(self, "congruence", (modulus, residue % modulus))

    def values(self) -> list[int]:
        vals = range(self.start, self.stop + 1, self.step)
        if self.congruence is None:
            return list(vals)
        modulus, residue = self.congruence
        return [v for v in vals if v % modulus == residue]


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
    """A full integer assignment extending the grid point it came from."""

    assignment: tuple[tuple[str, int], ...]

    def __init__(self, assignment: Mapping[str, int]) -> None:
        object.__setattr__(
            self, "assignment", tuple(sorted((str(k), int(v)) for k, v in assignment.items()))
        )

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


# ---------------------------------------------------------------------------
# zero-dimensional solving


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return []
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _integer_roots(coeffs: Sequence) -> list[int]:
    """All integer roots of a univariate polynomial with rational
    coefficients (ascending order), via the divisor test on the constant
    term with a Cauchy sign-bound prune."""
    den = 1
    for v in coeffs:
        d = int(v.denominator)
        den = den * d // _gcd(den, d)
    c = [int(v.numerator) * (den // int(v.denominator)) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        raise SitawimError("zero polynomial has no finite root set")
    roots = []
    if c[0] == 0:
        roots.append(0)
        while c and c[0] == 0:
            c.pop(0)
    if len(c) <= 1:
        return sorted(roots)
    lead = abs(c[-1])
    bound = 1 + max(abs(v) for v in c[:-1]) // lead
    f1 = sum(c)
    fm1 = sum(v if i % 2 == 0 else -v for i, v in enumerate(c))
    for d in _divisors(c[0]):
        if d > bound:
            break
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


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _leading_vars(poly: MPoly, order) -> list[int]:
    mono, _ = poly.leading(order)
    return [i for i, e in enumerate(mono) if e]


def _solve_triangular(
    polys: Sequence[MPoly],
    partial: dict,
    ring: Ring,
    max_degree: int,
    max_terms: int,
) -> list[dict]:
    sub = []
    for p in polys:
        q = p.subs(partial) if partial else p
        if q.is_zero:
            continue
        if not q.variables():
            return []  # a nonzero constant: the specialized ideal is trivial
        sub.append(q)
    unknown_set = set().union(*[q.variables() for q in sub]) if sub else set()
    unknowns = sorted(unknown_set, key=ring.index.__getitem__)
    if not unknowns:
        return [dict(partial)]
    others = [n for n in ring.names if n not in unknown_set]
    order = ring.order("lex", priority=others + unknowns)
    gb = buchberger(sub, order, max_degree=max_degree, max_terms=max_terms)
    if any(not g.variables() for g in gb):
        return []
    pure = set()
    for g in gb:
        lead = _leading_vars(g, order)
        if len(lead) == 1:
            pure.add(ring.names[lead[0]])
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
        out.extend(
            _solve_triangular(gb, {**partial, smallest: root}, ring, max_degree, max_terms)
        )
    return out


def specialize_and_solve(
    polys: Sequence[MPoly],
    partial: Mapping[str, int],
    *,
    max_degree: int = DEFAULT_MAX_DEGREE,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> list[Solution]:
    """All integer points of ``V(polys)`` extending ``partial``.

    Substitutes the partial assignment, triangularizes what is left with a
    lexicographic Groebner basis, reads integer roots off the univariate
    eliminant, and back-substitutes one variable at a time.  Returns the
    empty list when the specialized ideal is trivial.  Raises
    :class:`PositiveDimensionalError` when the remainder has a free
    variable and :class:`ResourceCapExceeded` when a basis computation
    blows its budget.  Every returned solution is re-checked exactly
    against every input polynomial.
    """
    start = {str(k): int(v) for k, v in partial.items()}
    if not polys:
        return [Solution(start)]
    ring = polys[0].ring
    raw = _solve_triangular(list(polys), start, ring, max_degree, max_terms)
    solutions = sorted(Solution(pt) for pt in raw)
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
    best_perm = None
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
            best_perm = inv
    mult = inst.multiplicities
    if mult is not None:
        mult = tuple(mult[best_perm[j]] for j in range(r))
    return Instance(best, itype=inst.itype, multiplicities=mult)


# ---------------------------------------------------------------------------
# grid search


@dataclass
class _Prepared:
    template: Template
    polys: list[MPoly]
    chain: list[tuple[str, MPoly]]
    enumerated: list[str]


def _prepare(cfg: SearchConfig) -> _Prepared:
    it = INVOLUTION_TYPES[cfg.itype]
    template = build_template(it.rank, cfg.itype, cfg.assumption)
    gens = emit_structure_polys(template)
    if cfg.assumption != "none":
        gens = gens + trace_constraints(template, cfg.assumption)
    if cfg.assumption == "pseudocyclic":
        gens = gens + homogeneity_constraints(template)
    enumerated = cfg.enumerated_names()
    known = set(template.ring.names)
    missing = [n for n in enumerated if n not in known]
    if missing:
        raise SitawimError(f"not template variables: {missing}")
    red = linear_reduce(
        gens,
        degree_symbols=template.degree_symbols,
        positive=template.degree_symbols,
        direction="low",
        keep=tuple(enumerated),
    )
    polys = rational_span_basis(red.polys)
    return _Prepared(template, polys, list(red.chain), enumerated)


def _iter_points(cfg: SearchConfig) -> Iterator[dict[str, int]]:
    axes = cfg.grid
    if not axes:
        return
    for combo in itertools.product(*[a.values() for a in axes]):
        outer = dict(zip([a.name for a in axes], combo))
        inner: list[list[tuple[str, int]]] = [[]]
        if cfg.window is not None:
            window_vals = cfg.window.values(outer[cfg.window.anchor])
            inner = [
                base + list(zip(cfg.window.names, pick))
                for base in inner
                for pick in itertools.product(window_vals, repeat=len(cfg.window.names))
            ]
        if cfg.simplex is not None:
            bound = outer[cfg.simplex.anchor]
            inner = [
                base + list(zip(cfg.simplex.names, pick))
                for base in inner
                for pick in cfg.simplex.points(bound)
            ]
        for extra in inner:
            yield {**outer, **dict(extra)}


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
    for idx, point in enumerate(_iter_points(cfg)):
        if idx % width != stripe:
            continue
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
    entries: list[tuple[str, str, list[Instance]]] = []
    try:
        prep = _prepare(cfg)
    except InconsistentIdealError as exc:
        log.warning("assumptions are contradictory, nothing to search: %s", exc)
        return []
    width = sum(1 for _ in itertools.islice(_iter_points(cfg), cfg.workers))
    if width <= 1:
        for point in _iter_points(cfg):
            status, found = _solve_point(prep, cfg, point)
            entries.append((_fmt_point(point), status, found))
    else:
        with ProcessPoolExecutor(max_workers=width) as pool:
            futures = [
                pool.submit(_stripe_worker, prep, cfg, w, width) for w in range(width)
            ]
            indexed = [row for fut in futures for row in fut.result()]
        indexed.sort(key=lambda row: row[0])
        entries = [(text, status, found) for _, text, status, found in indexed]
    catalog: list[Instance] = []
    seen = set()
    for text, status, found in entries:
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
