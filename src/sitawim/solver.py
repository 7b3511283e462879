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
back-substitution proceeds one variable at a time.

A search compiles its reduced system once, when it is prepared, into
integer tables that every grid point and every solution read:

- the *specialization table*: each polynomial, its denominators cleared,
  has its terms grouped by their monomial in the unknowns (the variables
  neither enumerated nor eliminated by the chain, in ring order), and each
  group's coefficient is an integer polynomial in the enumerated
  variables.  Evaluating those coefficients at a grid point's ints gives
  the specialized system as integer terms over the unknowns it still
  uses; no polynomial is substituted into in the template ring;
- the *chain table*: each eliminated variable's expression as integer
  terms over one vector of values in ring order, and its denominator;
- the *entry table* of the template (:meth:`Template.instantiate_at
  <sitawim.varietygen.Template.instantiate_at>`), one per matrix entry.

A term table (:func:`~sitawim.exactpoly.core.term_table`) is a
polynomial's cleared integer terms, each monomial written as the list of
variable positions it multiplies.  The tables move no check from exact
to approximate: every solution is re-checked exactly against every
specialized polynomial, a chain value counts only when its numerator is
divisible by its denominator, and every instance goes through
:func:`~sitawim.structcheck.verify_sita`.

A system left with several unknowns is built directly in a ring of only
those (a few of the template's dozens of variables), so every monomial
the basis computation touches is short; lex there is the restriction of
the template-ring lex order with the unknowns last, and the reduced
basis, hence every solution, is the same.  Those small rings are cached
by their variable names.  Back-substitution compiles the basis for its
smallest unknown and puts in each integer root.

A system left with one unknown u needs no basis: the reduced lex basis of
an ideal of Q[u] is the gcd of its generators (Cox, Little & O'Shea,
*Ideals, Varieties, and Algorithms*, §1.5), here
:func:`sitawim.intpoly._poly_gcd` on the integer coefficient lists the
specialization gives.  Every point of the rank-4 pseudocyclic sweeps (m
and x8 given for 4S, k1 for 4A1) is such a system, and every
back-substitution ends in one.  Its caps are read off the inputs in the
order given: the first whose degree exceeds ``max_degree``, or else whose
term count exceeds ``max_terms``, raises the
:class:`~sitawim.errors.ResourceCapExceeded` ``buchberger`` would.  While
``max_terms`` exceeds ``max_degree`` (the defaults are 60 and a million)
``buchberger`` raises exactly then; under a smaller term cap it also
counts the terms of intermediate remainders, so the two can differ.

A pooled search ships the prepared system, tables included, to its
workers pickled; ``concurrent.futures`` is imported only then, so a
serial search never loads :mod:`multiprocessing`.

Per-point diagnostics stream to the ``sitawim.solver`` logger with the
stable line format ``point=<assignment> status=<sol|empty|posdim|cap>``;
positive-dimensional and capped points are additionally raised to WARNING
so they stand out as candidates for widening the enumerated set.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, prod
from operator import itemgetter
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    InconsistentIdealError,
    PositiveDimensionalError,
    ResourceCapExceeded,
    SitawimError,
)
from .exactpoly import MonomialOrder, MPoly, Ring
from .exactpoly.core import cleared_terms, table_value, term_table
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


@dataclass(frozen=True)
class _System:
    """Polynomials compiled once for putting in values of ``given``.

    ``unknowns`` are the other variables the polynomials use, in ring
    order.  Each polynomial, times its common denominator, is a tuple of
    groups ``(mono, bits, table)``: ``mono`` the exponents of the unknowns,
    ``bits`` the bit mask of the unknowns in it, and ``table`` the
    :func:`~sitawim.exactpoly.core.term_table` of its integer coefficient,
    a polynomial in the given variables listed in ``given`` order."""

    given: tuple[str, ...]
    unknowns: tuple[str, ...]
    polys: tuple[tuple[tuple[tuple[int, ...], int, tuple], ...], ...]


def _compile(ring: Ring, polys: Sequence[MPoly], given: Sequence[str]) -> _System:
    """``polys``, in ``ring``, compiled for values of ``given``;
    SitawimError naming a given name that is not a variable of the ring."""
    index = ring.index
    outside = [n for n in given if n not in index]
    if outside:
        raise SitawimError(f"not variables of the ring: {outside}")
    used = set().union(*(p.variables() for p in polys))
    unknowns = tuple(n for n in ring.names if n in used and n not in given)
    gpick = [index[n] for n in given]
    upick = [index[n] for n in unknowns]
    compiled = []
    for p in polys:
        groups: dict = {}
        for m, c in cleared_terms(p.terms)[0].items():
            mono = tuple(m[i] for i in upick)
            groups.setdefault(mono, {})[tuple(m[i] for i in gpick)] = c
        compiled.append(
            tuple(
                (mono, sum(1 << k for k, e in enumerate(mono) if e), term_table(coeff)[0])
                for mono, coeff in groups.items()
            )
        )
    return _System(tuple(given), unknowns, tuple(compiled))


def _specialize(system: _System, values: Sequence[int]) -> Optional[list[tuple[dict, int]]]:
    """The compiled polynomials with ``values`` (listed as ``system.given``)
    put in, as ``(terms, bits)``: integer terms over the unknowns and the
    bit mask of the unknowns they use.  Polynomials that vanish are left
    out; None when one becomes a nonzero constant, the specialized ideal
    then being trivial."""
    out = []
    for groups in system.polys:
        terms = {}
        bits = 0
        for mono, mono_bits, table in groups:
            c = table_value(table, values)
            if c:
                terms[mono] = c
                bits |= mono_bits
        if not terms:
            continue
        if not bits:
            return None
        out.append((terms, bits))
    return out


def _solve_triangular(
    unknowns: Sequence[str],
    specialized: list[tuple[dict, int]],
    max_degree: int,
    max_terms: int,
) -> list[dict]:
    """Integer points of the specialized system (:func:`_specialize`), as
    assignments of the unknowns it uses.

    With one unknown u used, the eliminant is the gcd of the polynomials
    as integer lists in u, the lex basis up to a scalar, and no basis is
    computed; each polynomial in turn has its degree checked against
    ``max_degree``, then its term count against ``max_terms``.  More
    unknowns are solved in a ring of their own: lex there is the order the
    wider ring's lex with the other variables first induces on them, so
    the reduced basis is the same; back-substitution compiles the basis
    for the smallest unknown and puts in each of its roots, so it ends in
    the one-unknown case."""
    used = 0
    for _, bits in specialized:
        used |= bits
    if not used:
        return [{}]
    if not used & (used - 1):
        k = used.bit_length() - 1
        eliminant = []
        for terms, _ in specialized:
            degree = max(m[k] for m in terms)
            _check_caps(degree, len(terms), max_degree, max_terms)
            coeffs = [0] * (degree + 1)
            for m, c in terms.items():
                coeffs[m[k]] = c
            eliminant = _poly_gcd(eliminant, coeffs)
        return [{unknowns[k]: root} for root in _integer_roots(eliminant)]
    picks = [k for k in range(len(unknowns)) if used >> k & 1]
    names = tuple(unknowns[k] for k in picks)
    order = _lex_order(names)
    pick = itemgetter(*picks)
    sub = [MPoly(order.ring, {pick(m): c for m, c in terms.items()}) for terms, _ in specialized]
    gb = buchberger(sub, order, max_degree=max_degree, max_terms=max_terms)
    if any(not g.variables() for g in gb):
        return []
    pure = set()
    for g in gb:
        mono, _ = g.leading(order)
        lead = [name for name, e in zip(names, mono) if e]
        if len(lead) == 1:
            pure.add(lead[0])
    free = [u for u in names if u not in pure]
    if free:
        raise PositiveDimensionalError(
            f"specialized system leaves {free} free (no pure-power leading term)"
        )
    smallest = names[-1]
    eliminant = min(
        (g for g in gb if g.variables() <= {smallest}),
        key=lambda g: g.total_degree(),
    )
    back = _compile(order.ring, gb, (smallest,))
    out = []
    for root in _integer_roots(eliminant.as_univariate(smallest)):
        rest_system = _specialize(back, (root,))
        if rest_system is None:
            continue
        for rest in _solve_triangular(back.unknowns, rest_system, max_degree, max_terms):
            out.append({smallest: root, **rest})
    return out


def specialize_and_solve(
    polys: Union[Sequence[MPoly], _System],
    partial: Mapping[str, int],
    *,
    max_degree: int = DEFAULT_MAX_DEGREE,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> list[Solution]:
    """All integer points of ``V(polys)`` extending ``partial``.

    The polynomials are first compiled for the variables ``partial`` gives
    (a search compiles its prepared system once and passes that in): each
    one's denominators are cleared, and its terms are grouped by their
    monomial in the unknowns, each group's coefficient an integer
    polynomial in the given variables.  Putting in the point evaluates
    those coefficients, which gives the specialized system as integer
    terms over the unknowns it still uses, with no substitution in the
    full ring.  A system left with one unknown takes the integer gcd of
    its polynomials as the eliminant and computes no basis; it checks each
    polynomial, in order, for degree above ``max_degree`` and then for
    more than ``max_terms`` terms.  More unknowns are moved into a ring of
    only those (cached by their names), where a lexicographic Groebner
    basis triangularizes the system; integer roots are read off the
    univariate eliminant and back-substituted one variable at a time, the
    basis compiled in turn for its smallest unknown.

    Returns the empty list when the specialized ideal is trivial.  Raises
    :class:`PositiveDimensionalError` when the remainder has a free
    variable, :class:`ResourceCapExceeded` when a basis computation or a
    one-unknown input blows its budget, and :class:`SitawimError` naming a
    partial value that is not integral (ints and integral Fractions are)
    or not a variable of the ring.  Every returned solution is re-checked
    exactly: each specialized polynomial, hence each input polynomial
    times its denominator, must vanish at it.
    """
    start = _integral(partial)
    if isinstance(polys, _System):
        system = polys
        if start.keys() != set(system.given):
            raise SitawimError(
                f"the system is compiled for {list(system.given)}, not {list(start)}"
            )
    elif not polys:
        return [Solution(start)]
    else:
        system = _compile(polys[0].ring, polys, tuple(start))
    specialized = _specialize(system, [start[n] for n in system.given])
    if specialized is None:
        return []
    raw = _solve_triangular(system.unknowns, specialized, max_degree, max_terms)
    solutions = sorted(Solution({**start, **pt}) for pt in raw)
    for sol in solutions:
        point = sol.as_dict()
        values = [point.get(n, 0) for n in system.unknowns]
        for terms, _ in specialized:
            if sum(c * prod(map(pow, values, m)) for m, c in terms.items()):
                raise SitawimError(f"solver bug: {point} does not kill a generator")
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
    """The reduced system of one search, and its tables: ``system``
    compiled for the enumerated variables, and ``backfill``, the chain in
    the order it is filled, as ``(ring index, term table, denominator)``."""

    template: Template
    polys: list[MPoly]
    chain: list[tuple[str, MPoly]]
    system: _System
    backfill: tuple[tuple[int, tuple, int], ...]


def _prepare(cfg: SearchConfig) -> _Prepared:
    template = build_template(cfg.itype, cfg.assumption)
    gens = emit_structure_polys(template)
    if cfg.assumption != "none":
        gens = gens + trace_constraints(template)
    if cfg.assumption == "pseudocyclic":
        gens = gens + homogeneity_constraints(template)
    enumerated = cfg.enumerated_names()
    ring = template.ring
    missing = [n for n in enumerated if n not in ring.index]
    if missing:
        raise SitawimError(f"not template variables: {missing}")
    red = linear_reduce(gens, degree_symbols=template.degree_symbols, keep=tuple(enumerated))
    polys = rational_span_basis(red.polys)
    system = _compile(ring, polys, enumerated)
    return _Prepared(template, polys, list(red.chain), system, _compile_chain(ring, red.chain))


def _compile_chain(ring: Ring, chain: Sequence[tuple[str, MPoly]]) -> tuple:
    """The elimination chain in the order it is filled (last eliminated
    first), as ``(ring index, term table, denominator)`` per variable."""
    return tuple((ring.index[name], *term_table(expr.terms)) for name, expr in reversed(chain))


def _back_fill(backfill: Sequence[tuple], values: list) -> bool:
    """Put the chain's values into ``values`` (listed in ring order) in
    place, each computed from those before it; False, leaving the rest
    unfilled, at the first that is not an integer."""
    for target, table, den in backfill:
        value, rem = divmod(table_value(table, values), den)
        if rem:
            return False
        values[target] = value
    return True


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
    instances.  Returns (status, instances).  Each solution is one vector
    of values in ring order, which the chain's and the entries' term
    tables read."""
    template = prep.template
    ring = template.ring
    try:
        sols = specialize_and_solve(
            prep.system, point, max_degree=cfg.max_degree, max_terms=cfg.max_terms
        )
    except PositiveDimensionalError:
        return "posdim", []
    except ResourceCapExceeded:
        return "cap", []
    found = []
    for sol in sols:
        values = [None] * ring.nvars
        for name, value in sol.assignment:
            values[ring.index[name]] = value
        if not _back_fill(prep.backfill, values):
            continue
        if None in values:
            return "posdim", []
        if not Solution(dict(zip(ring.names, values))).is_suitable(template.degree_symbols):
            continue
        inst = Instance(template.instantiate_at(values), itype=template.itype)
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
        # imported here, so that a serial search never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

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
