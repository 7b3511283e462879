"""The integer kernels of the exact core against the rational code they
replace.

The ``reference_*`` functions below are the earlier implementations, on
rational coefficients throughout (``max`` over a tuple key, rational
division at every step, a dense rational Gauss-Jordan, substitution by
rational polynomial arithmetic).  The fast code must return exactly what
they return.
"""

from __future__ import annotations

import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sitawim.errors import InconsistentIdealError, ResourceCapExceeded
from sitawim.exactpoly import (
    MPoly,
    Q0,
    Q1,
    Ring,
    buchberger,
    linear_reduce,
    normal_form,
    qq,
    rational_span_basis,
)
from sitawim.exactpoly import linear
from sitawim.exactpoly.core import (
    cleared_terms,
    format_poly,
    mul_terms_into,
    poly_sort_key,
    primitive_terms,
)
from sitawim.exactpoly.linear import LinearReduction
from sitawim.exactpoly.groebner import _PairQueue, _check_caps, _interreduce, _reducer
from sitawim.solver import GridAxis, SearchConfig, SimplexSpec, WindowSpec, _prepare, run_search
from sitawim.varietygen import (
    RationalCharTable,
    build_template,
    emit_structure_polys,
    homogeneity_constraints,
    trace_constraints,
)

from _groebner_oracles import s_polynomial

XYZ = Ring("x y z")


# ---------------------------------------------------------------------------
# references: the rational implementations
# ---------------------------------------------------------------------------


def reference_key(order, mono):
    perm = tuple(order.ring.index[name] for name in order.priority)
    if order.kind == "lex":
        return tuple(mono[i] for i in perm)
    return (sum(mono), tuple(-mono[i] for i in reversed(perm)))


def _leading(p, order):
    mono = max(p.terms, key=lambda m: reference_key(order, m))
    return mono, p.terms[mono]


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_div(a, b):
    if any(y > x for x, y in zip(a, b)):
        return None
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def reference_normalize(p, order=None):
    if p.is_zero:
        return p
    order = order or p.ring.default_order
    den = 1
    for c in p.terms.values():
        den = math.lcm(den, int(c.denominator))
    num = 0
    for c in p.terms.values():
        num = math.gcd(num, abs(int(c.numerator * (den // c.denominator))))
    inv = Q1 / (qq(num) / den)
    if _leading(p, order)[1] < 0:
        inv = -inv
    return MPoly(p.ring, {m: c * inv for m, c in p.terms.items()})


def reference_normal_form(f, basis, order, max_degree=None, max_terms=None):
    reducers = [(_leading(g, order), g.terms) for g in basis if not g.is_zero]
    work = dict(f.terms)
    remainder = {}
    while work:
        mono = max(work, key=lambda m: reference_key(order, m))
        coeff = work.pop(mono)
        _check_caps(sum(mono), len(work) + len(remainder), max_degree, max_terms)
        for (lt_mono, lt_coeff), terms in reducers:
            quot = _mono_div(mono, lt_mono)
            if quot is None:
                continue
            scale = qq(coeff) / lt_coeff
            for gm, gc in terms.items():
                if gm == lt_mono:
                    continue
                mm = _mono_mul(gm, quot)
                v = work.get(mm, Q0) - scale * gc
                if v:
                    work[mm] = v
                elif mm in work:
                    del work[mm]
            break
        else:
            remainder[mono] = coeff
    return MPoly(f.ring, remainder)


def reference_s_polynomial(f, g, order):
    (fm, fc), (gm, gc) = _leading(f, order), _leading(g, order)
    lcm = _mono_lcm(fm, gm)
    return f.mul_term(_mono_div(lcm, fm), Q1 / fc) - g.mul_term(_mono_div(lcm, gm), Q1 / gc)


def reference_interreduce(basis, order):
    key = lambda g: reference_key(order, _leading(g, order)[0])
    polys = sorted((g for g in basis if not g.is_zero), key=key)
    minimal = []
    for g in polys:
        lt = _leading(g, order)[0]
        if not any(_mono_div(lt, _leading(h, order)[0]) is not None for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        h = reference_normal_form(g, minimal[:idx] + minimal[idx + 1 :], order)
        if not h.is_zero:
            reduced.append(reference_normalize(h, order))
    return sorted(reduced, key=key)


def reference_buchberger(gens, order, max_degree=60, max_terms=10**6):
    gens = [g for g in gens if not g.is_zero]
    basis, sugars, lts = [], [], []
    queue = _PairQueue(order)

    def admit(h, sugar):
        h = reference_normalize(h, order)
        _check_caps(h.total_degree(), h.num_terms(), max_degree, max_terms)
        basis.append(h)
        sugars.append(sugar)
        lts.append(_leading(h, order)[0])
        queue.update(basis, sugars, lts)

    for g in gens:
        h = reference_normal_form(g, basis, order, max_degree, max_terms)
        if not h.is_zero:
            admit(h, h.total_degree())
    while queue:
        sugar, _, _, i, j, _ = queue.pop()
        s = reference_s_polynomial(basis[i], basis[j], order)
        h = reference_normal_form(s, basis, order, max_degree, max_terms)
        if not h.is_zero:
            admit(h, max(sugar, h.total_degree()))
    return reference_interreduce(basis, order)


def reference_span_basis(polys, order=None):
    polys = [p for p in polys if not p.is_zero]
    if not polys:
        return []
    ring = polys[0].ring
    order = order or ring.default_order
    monos = sorted({m for p in polys for m in p.terms}, key=lambda m: reference_key(order, m))[::-1]
    rows = [[p.terms.get(m, Q0) for m in monos] for p in polys]
    rank = 0
    for j in range(len(monos)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Q1 / rows[rank][j]
        rows[rank] = [c * inv for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                factor = rows[i][j]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return [
        reference_normalize(MPoly(ring, {m: c for m, c in zip(monos, row) if c}), order)
        for row in rows[:rank]
    ]


def reference_subs(p, name, replacement):
    """``p`` with ``replacement`` put in for ``name``, by rational
    polynomial arithmetic term by term."""
    ring = p.ring
    i = ring.index[name]
    total = ring.zero()
    for mono, c in p.terms.items():
        rest = MPoly(ring, {mono[:i] + (0,) + mono[i + 1 :]: c})
        total = total + rest * replacement ** mono[i]
    return total


def reference_linear_reduce(polys, *, degree_symbols=(), keep=()):
    ring = polys[0].ring
    positive_idx = [ring.index[n] for n in degree_symbols]
    degree_set, keep = set(degree_symbols), set(keep)

    def tidy(p):
        terms = p.terms
        changed = True
        while changed and terms:
            changed = False
            for i in positive_idx:
                shift = min(m[i] for m in terms)
                if shift:
                    terms = {m[:i] + (m[i] - shift,) + m[i + 1 :]: c for m, c in terms.items()}
                    changed = True
        p = reference_normalize(MPoly(ring, dict(terms)))
        if p.is_constant and not p.is_zero:
            raise InconsistentIdealError("nonzero constant")
        return p

    def dedup(batch):
        out = []
        for p in batch:
            if not p.is_zero and p not in out:
                out.append(p)
        return out

    def candidates(f):
        lone, blocked = [], set()
        for mono in f.terms:
            hit = [i for i, e in enumerate(mono) if e]
            if len(hit) == 1 and mono[hit[0]] == 1:
                lone.append(hit[0])
            else:
                blocked.update(hit)
        out = []
        only_degree = f.variables() <= degree_set
        for idx in lone:
            name = ring.names[idx]
            if idx in blocked or name in keep:
                continue
            is_degree = name in degree_set
            if is_degree and not only_degree:
                continue
            pos = -idx if is_degree else idx
            out.append(((1 if is_degree else 0, pos, f.num_terms()), idx))
        return out

    work = dedup(tidy(p) for p in polys if not p.is_zero)
    chain = []
    while True:
        ranked = [(rank, idx, f) for f in work for rank, idx in candidates(f)]
        if not ranked:
            break
        best = min(rank for rank, _, _ in ranked)
        idx, f = min(((i, f) for r, i, f in ranked if r == best), key=lambda c: str(c[1]))
        name = ring.names[idx]
        # f = a*name + b, with name of degree 1 in f
        a = MPoly(ring, {m[:idx] + (0,) + m[idx + 1 :]: c for m, c in f.terms.items() if m[idx]})
        b = MPoly(ring, {m: c for m, c in f.terms.items() if not m[idx]})
        assert a * ring.var(name) + b == f
        replacement = b * (-Q1 / a.constant_value())
        chain.append((name, replacement))
        work = dedup(tidy(reference_subs(p, name, replacement)) for p in work)
    work.sort(key=lambda p: (p.total_degree(), p.num_terms(), str(p)))
    return chain, work


def _tuple_strip_positive_content(terms, positive_idx):
    """Divide out any strictly positive variable dividing every term."""
    if not terms:
        return terms
    changed = True
    while changed:
        changed = False
        for i in positive_idx:
            shift = min(m[i] for m in terms)
            if shift:
                terms = {m[:i] + (m[i] - shift,) + m[i + 1 :]: c for m, c in terms.items()}
                changed = True
    return terms


def _tuple_substitute(terms, idx, a, powers):
    """``a^d * p(v = -B/a)`` on exponent tuples, ``powers[e] = (-B)^e``."""
    d = max(m[idx] for m in terms)
    while len(powers) <= d:
        powers.append({m: c for m, c in mul_terms_into({}, powers[-1], powers[1]).items() if c})
    apow = [a**k for k in range(d + 1)]
    out = {}
    for mono, c in terms.items():
        e = mono[idx]
        if not e:
            out[mono] = out.get(mono, 0) + c * apow[d]
            continue
        rest = mono[:idx] + (0,) + mono[idx + 1 :]
        c *= apow[d - e]
        for fm, fc in powers[e].items():
            m = tuple(map(operator.add, rest, fm))
            out[m] = out.get(m, 0) + c * fc
    return {m: c for m, c in out.items() if c}


def _tuple_solvable_indices(poly):
    lone = [m.index(1) for m in poly.terms if sum(m) == 1]
    if not lone:
        return []
    others = zip(*(m for m in poly.terms if sum(m) != 1))
    blocked = {i for i, col in enumerate(others) if any(col)}
    return [i for i in lone if i not in blocked]


def reference_tuple_linear_reduce(polys, *, degree_symbols=(), keep=()):
    """The fraction-free elimination on exponent tuples, every generator
    kept with its grevlex sign: what :func:`linear_reduce` computed before
    it packed its monomials."""
    work = [p for p in polys if not p.is_zero]
    if not work:
        return LinearReduction(Ring(()), [], [], ())
    ring = work[0].ring
    keep, degree_set = set(keep), set(degree_symbols)
    keep_idx = {i for name, i in ring.index.items() if name in keep}
    degree_idx = {i for name, i in ring.index.items() if name in degree_set}
    positive_idx = [ring.index[name] for name in degree_symbols]
    order = ring.default_order

    def tidy(terms):
        terms = _tuple_strip_positive_content(terms, positive_idx)
        if not terms:
            return MPoly(ring, terms)
        p = MPoly(ring, primitive_terms(terms, order))
        if p.is_constant:
            raise InconsistentIdealError(
                f"reduction produced the nonzero constant {p.constant_value()}"
            )
        return p

    def dedup(batch):
        seen, out = set(), []
        for p in batch:
            if not p.is_zero and p not in seen:
                seen.add(p)
                out.append(p)
        return out

    def candidates(f):
        out = []
        only_degree = f.variables() <= degree_set
        for idx in _tuple_solvable_indices(f):
            if idx in keep_idx:
                continue
            is_degree = idx in degree_idx
            if is_degree and not only_degree:
                continue
            pos = -idx if is_degree else idx
            out.append(((1 if is_degree else 0, pos, f.num_terms()), idx))
        return out

    work = dedup(tidy(cleared_terms(p.terms)[0]) for p in work)
    chain = []
    while True:
        ranked = [(rank, idx, f) for f in work for rank, idx in candidates(f)]
        if not ranked:
            break
        best = min(rank for rank, _, _ in ranked)
        tied = [(idx, f) for rank, idx, f in ranked if rank == best]
        idx, f = min(tied, key=lambda c: format_poly(c[1])) if len(tied) > 1 else tied[0]
        name = ring.names[idx]
        unit = tuple(int(i == idx) for i in range(ring.nvars))
        a = f.terms[unit]
        neg_b = {m: -c for m, c in f.terms.items() if m != unit}
        chain.append((name, MPoly(ring, {m: Fraction(c, a) for m, c in neg_b.items()})))
        powers = [{ring._zero_mono: 1}, neg_b]
        work = dedup(
            tidy(_tuple_substitute(p.terms, idx, a, powers)) if any(m[idx] for m in p.terms) else p
            for p in work
        )
    work.sort(key=poly_sort_key)
    return LinearReduction(ring, chain, work)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_rationals = st.builds(
    lambda n, d: qq(f"{n}/{d}"), st.integers(-9, 9), st.integers(1, 4)
)


def _polys(ring, max_exp=2, max_size=4):
    monos = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    return st.dictionaries(monos, _rationals, max_size=max_size).map(ring.poly)


def _orders(ring):
    """lex and grevlex orders of ``ring`` under permuted priorities."""
    return st.tuples(st.sampled_from(["lex", "grevlex"]), st.permutations(ring.names)).map(
        lambda t: ring.order(t[0], priority=t[1])
    )


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

RINGS = [Ring(()), Ring("a"), Ring("a b"), XYZ]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"{r.nvars}vars")
@settings(deadline=None)
@given(data=st.data())
def test_order_keys_match_the_tuple_keys(ring, data):
    order = data.draw(_orders(ring))
    monos = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * ring.nvars), min_size=1))
    for m in monos:
        assert order.key(m) == reference_key(order, m)
    ranked = sorted(monos, key=order.key, reverse=True)
    assert sorted(monos, key=order.desc_key) == ranked
    terms = dict.fromkeys(monos)
    assert order.leading(terms) == max(terms, key=order.key)


def test_single_variable_keys_are_tuples():
    ring = Ring("a")
    for kind in ("lex", "grevlex"):
        assert ring.order(kind).key((3,)) == reference_key(ring.order(kind), (3,))
    assert Ring(()).order("grevlex").key(()) == (0, ())


# ---------------------------------------------------------------------------
# reduction and bases
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    _polys(XYZ, max_exp=3, max_size=6),
    st.lists(_polys(XYZ), min_size=1, max_size=3),
    _orders(XYZ),
    st.one_of(st.none(), st.integers(1, 30)),
)
def test_normal_form_matches_the_rational_division(f, basis, order, max_terms):
    try:
        want = reference_normal_form(f, basis, order, max_terms=max_terms)
    except ResourceCapExceeded:
        with pytest.raises(ResourceCapExceeded):
            normal_form(f, basis, order, max_terms=max_terms)
        return
    assert normal_form(f, basis, order, max_terms=max_terms) == want


def test_normal_form_with_a_non_unit_leading_coefficient():
    x, y, z = XYZ.gens()
    lex = XYZ.order("lex")
    f = x**2 * y + z
    basis = [3 * x * y - 2 * z, 2 * x * z + y**2]
    got = normal_form(f, basis, lex)
    assert got == reference_normal_form(f, basis, lex)
    assert got == -qq("1/3") * y**2 + z


@given(_polys(XYZ), _polys(XYZ), _orders(XYZ))
def test_s_polynomial_matches_the_rational_one(f, g, order):
    assume(not f.is_zero and not g.is_zero)
    assert s_polynomial(f, g, order) == reference_s_polynomial(f, g, order)


def reference_evaluate(p, point):
    ring = p.ring
    total = Q0
    for mono, c in p.terms.items():
        for name, e in zip(ring.names, mono):
            c = c * qq(point[name]) ** e
        total = total + c
    return total


@given(
    _polys(XYZ, max_exp=3, max_size=6),
    st.sampled_from(XYZ.names),
    st.tuples(*[st.integers(-5, 5)] * 3),
    st.booleans(),
)
def test_integer_points_match_rational_arithmetic(p, name, values, integral):
    if integral:  # integral coefficients, each a Fraction
        p = p * math.lcm(*[int(c.denominator) for c in p.terms.values()], 1)
    point = dict(zip(XYZ.names, values))
    assert p.evaluate(point) == reference_evaluate(p, point)
    assert p.subs({name: point[name]}) == reference_subs(p, name, XYZ.const(point[name]))


@settings(max_examples=40, deadline=None)
@given(st.lists(_polys(XYZ), min_size=1, max_size=3), _orders(XYZ))
def test_buchberger_matches_the_rational_algorithm(gens, order):
    caps = dict(max_degree=20, max_terms=5000)
    try:
        want = reference_buchberger(gens, order, **caps)
    except ResourceCapExceeded:
        with pytest.raises(ResourceCapExceeded):
            buchberger(gens, order, **caps)
        return
    assert buchberger(gens, order, **caps) == want


@settings(max_examples=60, deadline=None)
@given(st.lists(_polys(XYZ), min_size=1, max_size=4), _orders(XYZ))
def test_interreduce_matches_the_rational_one(polys, order):
    # the final step of buchberger, here on inputs that are not yet bases
    reducers = [_reducer(cleared_terms(g.terms)[0], order) for g in polys if not g.is_zero]
    got = [MPoly(XYZ, t) for t in _interreduce(reducers, order)]
    assert got == reference_interreduce(polys, order)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_polys(XYZ, max_exp=2, max_size=5), min_size=1, max_size=5),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), _rationals), max_size=3),
    _orders(XYZ),
)
def test_span_basis_matches_the_rational_rref(polys, combos, order):
    # dependent rows: rational combinations of two of the drawn rows
    for i, j, c in combos:
        polys.append(polys[i % len(polys)] * c + polys[j % len(polys)])
    assert rational_span_basis(polys, order) == reference_span_basis(polys, order)


R5 = Ring("x1 x2 x3 x4 k")
_monos5 = st.tuples(*[st.integers(0, 1)] * 4, st.integers(0, 2)).filter(lambda m: sum(m) <= 2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.dictionaries(_monos5, _rationals, min_size=1, max_size=4).map(R5.poly),
        min_size=1,
        max_size=5,
    ),
    st.sets(st.sampled_from(["x1", "x2", "x3", "x4"]), max_size=2),
)
def test_linear_reduce_matches_rational_substitution(polys, keep):
    polys = [p for p in polys if not p.is_zero]
    assume(polys)
    kwargs = dict(degree_symbols=("k",), keep=keep)
    try:
        chain, want = reference_linear_reduce(polys, **kwargs)
    except InconsistentIdealError:
        with pytest.raises(InconsistentIdealError):
            linear_reduce(polys, **kwargs)
        return
    red = linear_reduce(polys, **kwargs)
    assert red.chain == chain
    assert red.polys == want


def test_linear_reduce_substitutes_a_non_unit_solve():
    x1, x2, x3, x4, k = R5.gens()
    polys = [3 * x1 - 2 * x2 + 1, x1**2 + x2 * x3 - k, 2 * x3 * k - 5 * x1 * k]
    chain, want = reference_linear_reduce(polys, degree_symbols=("k",))
    red = linear_reduce(polys, degree_symbols=("k",))
    assert (red.chain, red.polys) == (chain, want)
    # x1 := 2/5*x3 from the stripped 5*x1 - 2*x3, then x2 from 10*x2 - 6*x3 - 5
    assert red.chain == [("x1", qq("2/5") * x3), ("x2", qq("3/5") * x3 + qq("1/2"))]


# The benchmark's five sweeps and five unassumed types: the systems the
# packed elimination must reduce exactly as the tuple one does.
N35_TABLE = RationalCharTable(35, 4, 10, (4, 6, 12, 12), (-1, 6, -3, -3), (0, -3, 0, 0))
TEMPLATE_SYSTEMS = {
    "4S-pseudocyclic": SearchConfig(
        itype="4S",
        assumption="pseudocyclic",
        grid=(GridAxis("m", 1, 40),),
        simplex=SimplexSpec(("x8",), anchor="m"),
    ),
    "4A1-pseudocyclic": SearchConfig(
        itype="4A1", assumption="pseudocyclic", grid=(GridAxis("k1", 1, 400),)
    ),
    "5S-pseudocyclic": SearchConfig(
        itype="5S",
        assumption="pseudocyclic",
        grid=(GridAxis("m", 62, 62),),
        window=WindowSpec(("x1", "x2", "x3"), anchor="m"),
    ),
    "5A2-pseudocyclic": SearchConfig(
        itype="5A2",
        assumption="pseudocyclic",
        grid=(GridAxis("m", 1, 20),),
        simplex=SimplexSpec(("x14",), anchor="m"),
    ),
    "5S-n35-table": SearchConfig(
        itype="5S",
        assumption=N35_TABLE,
        grid=(GridAxis("x22", 5, 7), GridAxis("x23", 2, 4), GridAxis("x24", 4, 6)),
    ),
    **{f"{t}-none": SearchConfig(itype=t) for t in ("4S", "4A1", "5S", "5A1", "5A2")},
}


@pytest.mark.parametrize("label", sorted(TEMPLATE_SYSTEMS))
def test_packed_linear_reduce_matches_the_tuple_one_on_template_systems(label):
    cfg = TEMPLATE_SYSTEMS[label]
    template = build_template(cfg.itype, cfg.assumption)
    gens = emit_structure_polys(template)
    if cfg.assumption != "none":
        gens = gens + trace_constraints(template)
    if cfg.assumption == "pseudocyclic":
        gens = gens + homogeneity_constraints(template)
    kwargs = dict(degree_symbols=template.degree_symbols, keep=tuple(cfg.enumerated_names()))
    red = linear_reduce(gens, **kwargs)
    want = reference_tuple_linear_reduce(gens, **kwargs)
    assert red.chain == want.chain
    assert red.polys == want.polys


# generators with a bare linear term of a chosen variable and a fixed number
# of terms, so several often tie for the same variable until the text order
_linear5 = st.builds(
    lambda name, a, tail: a * R5.var(name) + tail,
    st.sampled_from(R5.names),
    st.integers(-3, 3).filter(bool),
    st.dictionaries(_monos5, st.integers(-4, 4).filter(bool), min_size=2, max_size=2).map(
        R5.poly
    ),
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.one_of(
            _linear5, st.dictionaries(_monos5, _rationals, min_size=1, max_size=4).map(R5.poly)
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([(), ("k",), ("x4", "k")]),
    st.sets(st.sampled_from(["x1", "x2", "x3", "x4", "k"]), max_size=2),
)
def test_packed_linear_reduce_matches_the_tuple_one(polys, degree_symbols, keep):
    polys = [p for p in polys if not p.is_zero]
    assume(polys)
    kwargs = dict(degree_symbols=degree_symbols, keep=keep)
    try:
        want = reference_tuple_linear_reduce(polys, **kwargs)
    except InconsistentIdealError:
        with pytest.raises(InconsistentIdealError):
            linear_reduce(polys, **kwargs)
        return
    red = linear_reduce(polys, **kwargs)
    assert (red.chain, red.polys) == (want.chain, want.polys)


def test_tied_candidates_are_ranked_by_their_grevlex_text():
    # Both generators solve x1 with three terms.  The second one's largest
    # packed monomial is k, whose coefficient is negative, so inside the loop
    # it is kept as -x3^2 - x1 + k; that text would sort before x2^2 + x1 + x3.
    # Ranked by the grevlex forms, x3^2 + x1 - k comes second.
    x1, x2, x3, x4, k = R5.gens()
    polys = [x1 + x3**2 - k, x1 + x2**2 + x3]
    red = linear_reduce(polys)
    want = reference_tuple_linear_reduce(polys)
    assert (red.chain, red.polys) == (want.chain, want.polys)
    assert red.chain[0] == ("x1", -(x2**2) - x3)


def test_packed_exponents_raise_before_they_carry(monkeypatch):
    x1, x2, x3, x4, k = R5.gens()
    # x1 := x2^127 turns x1*x2 - x3 into x2^128 - x3: the guard bit of a byte
    polys = [x1 - x2**127, x1 * x2 - x3]
    with pytest.raises(ResourceCapExceeded):
        linear_reduce(polys)
    for too_big in (200, 300):  # a guard bit, and no room in a byte at all
        with pytest.raises(ResourceCapExceeded):
            linear_reduce([x1 - x2**too_big])
    # with two-byte fields the same system fits, and the guard bit is 2^15
    monkeypatch.setattr(linear, "_FIELD_BYTES", 2)
    red = linear_reduce(polys)
    want = reference_tuple_linear_reduce(polys)
    assert (red.chain, red.polys) == (want.chain, want.polys)
    assert red.chain == [("x1", x2**127), ("x3", x2**128)]
    with pytest.raises(ResourceCapExceeded):
        linear_reduce([x1 - x2 ** (2**14), x1 * x2 ** (2**14) - x3])


# ---------------------------------------------------------------------------
# pickling for the pool workers
# ---------------------------------------------------------------------------


def test_pickled_orders_keep_their_keys():
    ring = Ring("a b c")
    monos = [(2, 0, 1), (0, 3, 0), (1, 1, 1), (0, 0, 4)]
    for order in (
        ring.default_order,
        ring.order("lex", priority=("c", "a", "b")),
        ring.order("grevlex", priority=("b", "c", "a")),
    ):
        back = pickle.loads(pickle.dumps(order))
        assert (back.kind, back.priority) == (order.kind, order.priority)
        assert [back.key(m) for m in monos] == [order.key(m) for m in monos]
        assert [back.desc_key(m) for m in monos] == [order.desc_key(m) for m in monos]


def test_pickled_prepared_system_keeps_its_ring_and_orders():
    cfg = SearchConfig(itype="5S", assumption="pseudocyclic", grid=(GridAxis("m", 62, 62),))
    prep = _prepare(cfg)
    back = pickle.loads(pickle.dumps(prep))
    ring = back.template.ring
    assert ring.names == prep.template.ring.names
    assert all(p.ring is ring for p in back.polys)
    assert all(r.ring is ring for _, r in back.chain)
    assert back.polys == [MPoly(ring, p.terms) for p in prep.polys]
    monos = {m for p in prep.polys for m in p.terms}
    for m in monos:
        assert ring.default_order.key(m) == prep.template.ring.default_order.key(m)


def test_two_worker_search_matches_serial():
    base = dict(
        itype="5A2",
        assumption="pseudocyclic",
        grid=(GridAxis("m", 1, 8),),
        simplex=SimplexSpec(("x14",), anchor="m"),
    )
    serial = run_search(SearchConfig(**base))
    assert serial
    assert run_search(SearchConfig(**base, workers=2)) == serial


# ---------------------------------------------------------------------------
# an independent oracle
# ---------------------------------------------------------------------------


def _from_sympy(expr, symbols, order):
    sympy = pytest.importorskip("sympy")
    terms = {m: qq(f"{c.p}/{c.q}") for m, c in sympy.Poly(expr, *symbols).terms()}
    return XYZ.poly(terms).normalize(order)


@settings(max_examples=30, deadline=None)
@given(st.lists(_polys(XYZ), min_size=1, max_size=3), st.sampled_from(["lex", "grevlex"]))
def test_buchberger_matches_sympy(gens, kind):
    sympy = pytest.importorskip("sympy")
    gens = [g for g in gens if not g.is_zero]
    assume(gens)
    order = XYZ.order(kind)
    try:
        ours = buchberger(gens, order, max_degree=20, max_terms=5000)
    except ResourceCapExceeded:
        assume(False)
    symbols = sympy.symbols("x y z")
    exprs = [sympy.sympify(str(g).replace("^", "**")) for g in gens]
    theirs = sympy.groebner(exprs, *symbols, order=kind)
    theirs = sorted(
        (_from_sympy(g, symbols, order) for g in theirs.exprs),
        key=lambda p: order.key(p.leading(order)[0]),
    )
    assert ours == theirs


# ---------------------------------------------------------------------------
# one coefficient representation: ints, Fractions only where not integral
# ---------------------------------------------------------------------------


def _as_fractions(p):
    """``p`` with every coefficient a ``Fraction``, the integral ones too."""
    return MPoly(p.ring, {m: Fraction(c) for m, c in p.terms.items()})


def _all_int(polys):
    return all(type(c) is int for p in polys for c in p.terms.values())


def _int_polys(ring, max_exp=2, max_size=4):
    monos = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    coeffs = st.integers(-9, 9).filter(bool)
    return st.dictionaries(monos, coeffs, max_size=max_size).map(ring.poly)


def test_int_and_fraction_coefficients_are_one_polynomial():
    m = (1, 0, 2)
    p, q = MPoly(XYZ, {m: 1}), MPoly(XYZ, {m: Fraction(1)})
    assert p == q and hash(p) == hash(q) and str(p) == str(q)
    x = XYZ.var("x")
    assert _all_int([XYZ.one(), x, XYZ.const(3), XYZ.const(Fraction(6, 2)), XYZ.poly({m: 2})])
    assert XYZ.const(Fraction(1, 2)).constant_value() == Fraction(1, 2)
    assert (x / 2).terms == {(1, 0, 0): Fraction(1, 2)}


@settings(max_examples=25, deadline=None)
@given(st.lists(_int_polys(XYZ), min_size=1, max_size=3), _orders(XYZ))
def test_groebner_kernels_take_integral_fractions_and_return_ints(polys, order):
    fracs = [_as_fractions(p) for p in polys]
    caps = dict(max_degree=20, max_terms=5000)
    try:
        basis = buchberger(polys, order, **caps)
    except ResourceCapExceeded:
        assume(False)
    assert buchberger(fracs, order, **caps) == basis and _all_int(basis)
    span = rational_span_basis(polys, order)
    assert rational_span_basis(fracs, order) == span and _all_int(span)
    rem = normal_form(polys[0], polys[1:], order)
    assert normal_form(fracs[0], fracs[1:], order) == rem
    assert all(type(c) is int or c.denominator != 1 for c in rem.terms.values())
    assert _all_int([normal_form(polys[0], basis, order)])


@given(_int_polys(XYZ, max_exp=3, max_size=6), st.tuples(*[st.integers(-5, 5)] * 3))
def test_subs_and_evaluate_take_integral_fractions_and_return_ints(p, values):
    point = dict(zip(XYZ.names, values))
    frac_point = {name: Fraction(v) for name, v in point.items()}
    sub = p.subs({"x": point["x"], "z": point["z"]})
    value = p.evaluate(point)
    assert _all_int([sub]) and type(value) is int
    for q, pt in ((_as_fractions(p), point), (p, frac_point), (_as_fractions(p), frac_point)):
        assert q.subs({"x": pt["x"], "z": pt["z"]}) == sub
        assert q.evaluate(pt) == value


@pytest.mark.parametrize("label", ["4S-pseudocyclic", "5S-n35-table"])
def test_linear_reduce_takes_integral_fractions_and_returns_ints(label):
    cfg = TEMPLATE_SYSTEMS[label]
    template = build_template(cfg.itype, cfg.assumption)
    gens = emit_structure_polys(template) + trace_constraints(template)
    assert _all_int(gens)
    kwargs = dict(degree_symbols=template.degree_symbols, keep=tuple(cfg.enumerated_names()))
    red = linear_reduce(gens, **kwargs)
    frac = linear_reduce([_as_fractions(g) for g in gens], **kwargs)
    assert frac.chain == red.chain and frac.polys == red.polys
    assert _all_int(red.polys)
    for _, replacement in red.chain:
        assert all(type(c) is int or c.denominator != 1 for c in replacement.terms.values())
