"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are sparse dictionaries mapping exponent tuples to nonzero
rational coefficients.  A coefficient is a plain ``int`` when it is
integral and a ``fractions.Fraction`` only when it is not (or when the
caller passed one in).  Python compares and hashes the two as one numeric
type, so equality, hashing and the text form do not depend on which of
them a term holds, and the arithmetic stays on ints wherever it can.

A :class:`Ring` fixes an ordered tuple of variable names.  Monomial
orders (lex and graded reverse lex, the two kinds the pipeline uses) are
first-class objects created by :meth:`Ring.order`; the variable listed
first in an order's priority is the largest.

The canonical representative of a nonzero polynomial (``normalize``)
has integer coefficients, content 1, and positive leading coefficient
under the active order.  The plain-text format is ``c*x1^e1*...*xn^en``
terms joined by ``+``/``-``; :meth:`Ring.parse` and ``str()`` round-trip
bit-exactly.

The hot loops stay on ints wherever they can:

- monomial products, quotients and divisibility are C-level ``map`` calls,
  and every :class:`MonomialOrder` builds its sort keys and its
  leading-monomial function once, from ``operator.itemgetter`` over its
  priority permutation;
- :func:`cleared_terms` is the one place where ``Fraction`` coefficients
  are cleared to ints; ``normalize``, ``content_and_primitive``,
  ``emit_structure_polys``, ``linear_reduce``, ``rational_span_basis``,
  ``normal_form`` and ``buchberger`` start from it, run fraction-free
  (:func:`mul_terms_into`, :func:`primitive_terms`), and store the ints
  they compute;
- ``subs`` with constant values runs one loop, :func:`_subs_values`,
  which works on int and ``Fraction`` coefficients and values alike;
- a polynomial that is evaluated many times is compiled once, by
  :func:`term_table`, into its cleared integer terms with each monomial
  written as the list of variable positions it multiplies, and
  :func:`table_value` evaluates that table on a vector of values;
  ``evaluate``, ``Template.instantiate`` and the solver's per-point and
  per-solution work all go through it.

Monomials stay exponent tuples everywhere a polynomial is stored or
returned, and in ``buchberger``, ``normal_form``, ``subs`` and
``rational_span_basis``.  Only ``linear_reduce`` packs them, into one int
each, for the length of its loop (see :mod:`sitawim.exactpoly.linear`);
the solver keeps tuples short instead, by solving each grid point in a
ring of its unknowns.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import partial
from operator import add, itemgetter, le, neg, sub
from typing import Mapping, Sequence

# --------------------------------------------------------------------------
# coefficient field
# --------------------------------------------------------------------------

#: kept for callers that record the rational backend: coefficients are
#: always ints and ``fractions.Fraction``
HAVE_GMPY2 = False

#: exact rational zero/one
Q0 = Fraction(0)
Q1 = Fraction(1)

_RAT_TYPES = (Fraction, int)


def qq(value: object) -> Fraction:
    """Coerce ``value`` (int, Fraction, or ``p/q`` string) to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _coeff(value: object) -> int | Fraction:
    """``value`` as a stored coefficient: an int when it is integral."""
    if type(value) is int:
        return value
    c = qq(value)
    return c.numerator if c.denominator == 1 else c


def qq_str(value: int | Fraction) -> str:
    """``p`` or ``p/q`` — the exact text form of a rational."""
    value = qq(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# --------------------------------------------------------------------------
# monomials: plain exponent tuples
# --------------------------------------------------------------------------

Monomial = tuple  # tuple[int, ...]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff monomial ``a`` divides ``b`` coordinatewise."""
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """``a / b`` as a monomial, or None when ``b`` does not divide ``a``."""
    if all(map(le, b, a)):
        return tuple(map(sub, a, b))
    return None


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_total(a: Monomial) -> int:
    return sum(a)


# --------------------------------------------------------------------------
# monomial orders
# --------------------------------------------------------------------------


def _picker(idx: tuple[int, ...]):
    """``m -> tuple(m[i] for i in idx)`` at C level.  The identity (which
    covers zero and one variables) is ``tuple`` itself, because a
    one-index ``itemgetter`` returns a scalar and a zero-index one fails."""
    if idx == tuple(range(len(idx))):
        return tuple
    return itemgetter(*idx)


class MonomialOrder:
    """A term order on a fixed ring, exposed as a sort key on exponent tuples.

    ``key(m)`` returns a tuple that compares consistently with the order:
    ``key(a) > key(b)`` iff monomial ``a`` is larger.  ``desc_key(m)``
    compares the other way round (``desc_key(a) < desc_key(b)`` iff ``a``
    is larger), so a min-heap on it pops the largest monomial first.
    ``leading(monos)`` is the largest monomial of a nonempty iterable:
    ``max`` on ``key`` under lex, ``min`` on ``desc_key`` under grevlex,
    whichever key is the cheaper one to build.  All three are built once,
    in ``__init__``.  Supported kinds:

    - ``lex``: pure lexicographic in priority sequence.
    - ``grevlex``: graded reverse lexicographic (default everywhere).
    """

    __slots__ = ("ring", "kind", "priority", "_perm", "key", "desc_key", "leading")

    def __init__(self, ring: "Ring", kind: str, priority: Sequence[str] | None = None) -> None:
        if kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown monomial order kind {kind!r}")
        names = tuple(priority) if priority is not None else ring.names
        if sorted(names) != sorted(ring.names):
            raise ValueError("priority must be a permutation of the ring variables")
        self.ring = ring
        self.kind = kind
        self.priority = names
        # position i of the permuted exponent vector = ring index of the
        # i-th largest variable
        self._perm = tuple(ring.index[name] for name in names)
        if kind == "lex":
            pick = _picker(self._perm)
            self.key = pick
            self.desc_key = lambda m: tuple(map(neg, pick(m)))
            self.leading = partial(max, key=pick)
            return
        rpick = _picker(self._perm[::-1])
        self.key = lambda m: (sum(m), tuple(map(neg, rpick(m))))
        self.desc_key = lambda m: (-sum(m), rpick(m))
        self.leading = partial(min, key=self.desc_key)

    def __reduce__(self):
        # the key functions are closures; pickle the constructor arguments
        return (MonomialOrder, (self.ring, self.kind, self.priority))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MonomialOrder({self.kind}, {'>'.join(self.priority)})"


# --------------------------------------------------------------------------
# rings and polynomials
# --------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class Ring:
    """A polynomial ring Q[v1, ..., vn] with a fixed variable listing."""

    __slots__ = ("names", "index", "nvars", "_default_order", "_zero_mono")

    def __init__(self, names: str | Sequence[str]) -> None:
        if isinstance(names, str):
            names = names.replace(",", " ").split()
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)
        self._zero_mono = (0,) * len(names)
        self._default_order = MonomialOrder(self, "grevlex")

    def __reduce__(self):
        return (Ring, (self.names,))

    # -- constructors ------------------------------------------------------

    def order(self, kind: str = "grevlex", priority: Sequence[str] | None = None) -> MonomialOrder:
        return MonomialOrder(self, kind, priority)

    @property
    def default_order(self) -> MonomialOrder:
        return self._default_order

    def zero(self) -> "MPoly":
        return MPoly(self, {})

    def one(self) -> "MPoly":
        return MPoly(self, {self._zero_mono: 1})

    def const(self, value: object) -> "MPoly":
        c = _coeff(value)
        return MPoly(self, {self._zero_mono: c} if c else {})

    def var(self, name: str) -> "MPoly":
        i = self.index[name]
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return MPoly(self, {mono: 1})

    def gens(self) -> tuple["MPoly", ...]:
        return tuple(self.var(name) for name in self.names)

    def poly(self, terms: Mapping[Monomial, object]) -> "MPoly":
        out = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != self.nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent tuple {mono}")
            c = _coeff(coeff)
            if c:
                out[mono] = out.get(mono, 0) + c
                if not out[mono]:
                    del out[mono]
        return MPoly(self, out)

    # -- text format ---------------------------------------------------------

    def parse(self, text: str) -> "MPoly":
        """Parse the plain-text polynomial format (inverse of ``str``)."""
        return _parse_poly(self, text)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ring({', '.join(self.names)})"


class MPoly:
    """An immutable sparse polynomial over Q attached to a :class:`Ring`.

    Do not mutate ``terms`` after construction; every operation returns a
    fresh instance.  Zero coefficients are never stored.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: dict) -> None:
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.ring._zero_mono in self.terms)

    def constant_value(self) -> int | Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.terms.get(self.ring._zero_mono, 0)

    # -- structure -----------------------------------------------------------

    def total_degree(self) -> int:
        """Maximum total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree(self, name: str) -> int:
        """Maximum exponent of one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self.ring.index[name]
        return max(m[i] for m in self.terms)

    def variables(self) -> set[str]:
        return {name for name, col in zip(self.ring.names, zip(*self.terms)) if any(col)}

    def num_terms(self) -> int:
        return len(self.terms)

    def leading(self, order: MonomialOrder | None = None) -> tuple[Monomial, int | Fraction]:
        """The (monomial, coefficient) pair largest under ``order``."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        order = order or self.ring.default_order
        mono = order.leading(self.terms)
        return mono, self.terms[mono]

    def sorted_terms(
        self, order: MonomialOrder | None = None
    ) -> list[tuple[Monomial, int | Fraction]]:
        order = order or self.ring.default_order
        return sorted(self.terms.items(), key=lambda kv: order.key(kv[0]), reverse=True)

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other: object) -> "MPoly | None":
        if isinstance(other, MPoly):
            if other.ring is not self.ring:
                raise ValueError("polynomials belong to different rings")
            return other
        if isinstance(other, _RAT_TYPES):
            return self.ring.const(other)
        return None

    def __add__(self, other: object) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        big, small = (self.terms, other.terms)
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for mono, c in small.items():
            v = out.get(mono, 0) + c
            if v:
                out[mono] = v
            elif mono in out:
                del out[mono]
        return MPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: object) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            v = out.get(mono, 0) - c
            if v:
                out[mono] = v
            elif mono in out:
                del out[mono]
        return MPoly(self.ring, out)

    def __rsub__(self, other: object) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: object) -> "MPoly":
        if isinstance(other, _RAT_TYPES):
            c = _coeff(other)
            if not c:
                return self.ring.zero()
            return MPoly(self.ring, {m: v * c for m, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                mono = mono_mul(ma, mb)
                v = out.get(mono, 0) + ca * cb
                if v:
                    out[mono] = v
                elif mono in out:
                    del out[mono]
        return MPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __truediv__(self, other: object) -> "MPoly":
        if isinstance(other, _RAT_TYPES):
            c = qq(other)
            if not c:
                raise ZeroDivisionError("division of polynomial by zero")
            return self * (Q1 / c)
        return NotImplemented

    def mul_term(self, mono: Monomial, coeff: object) -> "MPoly":
        """Multiply by a single term ``coeff * x^mono`` (exact, no checks on sign)."""
        c = _coeff(coeff)
        if not c:
            return self.ring.zero()
        return MPoly(self.ring, {mono_mul(m, mono): v * c for m, v in self.terms.items()})

    # -- substitution / evaluation ---------------------------------------------

    def subs(self, mapping: Mapping[str, object]) -> "MPoly":
        """Substitute polynomials or rationals for variables (by name).

        Returns ``self`` when no substituted variable occurs.  Constant
        values are put in by the loop ``evaluate`` runs.  Otherwise the
        expansion of each term is merged into one accumulating dictionary, so
        the cost is linear in the number of terms produced; each power of a
        replacement is computed once.
        """
        ring = self.ring
        repl: dict[int, MPoly] = {}
        for name, value in mapping.items():
            i = ring.index[name]
            if isinstance(value, MPoly):
                if value.ring is not ring:
                    raise ValueError("replacement polynomial from a different ring")
                repl[i] = value
            else:
                repl[i] = ring.const(value)
        if not any(mono[i] for mono in self.terms for i in repl):
            return self
        if all(r.is_constant for r in repl.values()):
            values = {i: r.constant_value() for i, r in repl.items()}
            return MPoly(ring, _subs_values(self.terms, values))
        indices = sorted(repl)
        out: dict = {}
        pow_cache: dict[tuple[int, int], MPoly] = {}
        for mono, coeff in self.terms.items():
            factor = None
            rest = list(mono)
            for i in indices:
                e = mono[i]
                if e:
                    rest[i] = 0
                    power = pow_cache.get((i, e))
                    if power is None:
                        power = pow_cache[(i, e)] = repl[i] ** e
                    factor = power if factor is None else factor * power
            if factor is None:
                piece = {mono: coeff}
            else:
                rest = tuple(rest)
                piece = {mono_mul(fm, rest): coeff * fc for fm, fc in factor.terms.items()}
            if len(out) < len(piece):
                out, piece = piece, out
            for m, c in piece.items():
                v = out.get(m, 0) + c
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return MPoly(ring, out)

    def evaluate(self, point: Mapping[str, object]) -> int | Fraction:
        """Exact value at a full rational point (every used variable must be given)."""
        ring = self.ring
        values = [None] * ring.nvars
        for name, value in point.items():
            values[ring.index[name]] = _coeff(value)
        for i, col in enumerate(zip(*self.terms)):
            if values[i] is None and any(col):
                raise ValueError(f"no value supplied for {ring.names[i]}")
        table, den = term_table(self.terms)
        return _coeff(Fraction(table_value(table, values), den))

    # -- linear structure ---------------------------------------------------------

    def as_univariate(self, name: str) -> list:
        """Ascending coefficient list in one variable; other variables must be absent."""
        i = self.ring.index[name]
        coeffs = [0] * (max((m[i] for m in self.terms), default=0) + 1)
        for mono, coeff in self.terms.items():
            if any(e and j != i for j, e in enumerate(mono)):
                raise ValueError(f"{self} involves variables besides {name}")
            coeffs[mono[i]] = coeff
        return coeffs

    # -- normalization ---------------------------------------------------------

    def content_and_primitive(self) -> tuple[Fraction, "MPoly"]:
        """Positive rational c and primitive integer-coefficient p with self = c*p."""
        if not self.terms:
            return Q1, self
        ints, den = cleared_terms(self.terms)
        g = math.gcd(*ints.values())
        return Fraction(g, den), MPoly(self.ring, {m: c // g for m, c in ints.items()})

    def normalize(self, order: MonomialOrder | None = None) -> "MPoly":
        """Canonical representative: integer coefficients, content 1, positive
        leading coefficient under ``order`` (ring default when omitted)."""
        if not self.terms:
            return self
        order = order or self.ring.default_order
        return MPoly(self.ring, primitive_terms(cleared_terms(self.terms)[0], order))

    # -- comparisons / hashing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MPoly):
            return self.ring is other.ring and self.terms == other.terms
        if isinstance(other, _RAT_TYPES):
            return self.is_constant and self.constant_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- text --------------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MPoly {format_poly(self)}>"


# --------------------------------------------------------------------------
# integer term kernels
# --------------------------------------------------------------------------


def cleared_terms(terms: Mapping[Monomial, int | Fraction]) -> tuple[dict, int]:
    """``(ints, d)``: the terms times their positive common denominator
    ``d``, as ``{mono: int}``.  The one place where ``Fraction``
    coefficients become ints."""
    den = 1
    for c in terms.values():
        if type(c) is not int:
            den = math.lcm(den, c.denominator)
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def term_table(terms: Mapping[Monomial, int | Fraction]) -> tuple[tuple, int]:
    """``(table, d)``: the terms times their common denominator ``d`` (as
    :func:`cleared_terms` gives them), each as a pair ``(c, positions)``
    whose ``positions`` list every variable of the monomial once per
    power, so ``x0^2*x2`` is ``(0, 0, 2)``."""
    ints, den = cleared_terms(terms)
    table = tuple(
        (c, tuple(i for i, e in enumerate(m) for _ in range(e))) for m, c in ints.items()
    )
    return table, den


def table_value(table: Sequence[tuple], values: Sequence) -> int | Fraction:
    """The value of a :func:`term_table` table (the polynomial times its
    ``d``) with ``values[i]`` put in for the variable at position ``i``;
    an int when the values are ints."""
    total = 0
    for c, positions in table:
        for i in positions:
            c *= values[i]
        total += c
    return total


def exact_div(num: int, den: int) -> int | Fraction:
    """``num / den`` as a stored coefficient: an int when ``den`` divides ``num``."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def mul_terms_into(out: dict, a: Mapping, b: Mapping, scale: int = 1) -> dict:
    """``out += scale * a * b`` on term dictionaries, in place.  Terms that
    cancel are left in ``out`` with coefficient 0 for the caller to drop."""
    get = out.get
    for ma, ca in a.items():
        ca *= scale
        for mb, cb in b.items():
            mono = tuple(map(add, ma, mb))
            out[mono] = get(mono, 0) + ca * cb
    return out


def _subs_values(terms: Mapping[Monomial, object], values: Mapping[int, object]) -> dict:
    """The terms with ``values[i]`` put in for the variables at the indices
    ``i``; coefficients and values are ints or Fractions, and zero terms
    are dropped."""
    out: dict = {}
    for mono, c in terms.items():
        rest = list(mono)
        for i, v in values.items():
            e = mono[i]
            if e:
                c *= v**e
                rest[i] = 0
        rest = tuple(rest)
        out[rest] = out.get(rest, 0) + c
    return {m: c for m, c in out.items() if c}


def primitive_terms(terms: Mapping[Monomial, int], order: MonomialOrder) -> dict:
    """The nonzero integer terms divided by their content, signed so that
    the leading coefficient under ``order`` is positive."""
    g = math.gcd(*terms.values())
    if terms[order.leading(terms)] < 0:
        g = -g
    if g == 1:
        return dict(terms)
    return {m: c // g for m, c in terms.items()}


# --------------------------------------------------------------------------
# plain-text format
# --------------------------------------------------------------------------


def format_poly(poly: MPoly, order: MonomialOrder | None = None) -> str:
    """Render ``c*x1^e1*...*xn^en`` terms joined by ``+``/``-``.

    Terms appear in descending ``order`` (ring default when omitted);
    unit coefficients and unit exponents are suppressed.  ``parse`` of the
    result reproduces the polynomial bit-exactly.
    """
    if poly.is_zero:
        return "0"
    names = poly.ring.names
    parts: list[str] = []
    for i, (mono, coeff) in enumerate(poly.sorted_terms(order)):
        mag = -coeff if coeff < 0 else coeff
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e
        ]
        if mag != 1 or not factors:
            factors.insert(0, qq_str(mag))
        body = "*".join(factors)
        if i == 0:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def poly_sort_key(poly: MPoly) -> tuple:
    """The canonical sort key of generator lists: total degree, number of
    terms, then the text."""
    return (poly.total_degree(), poly.num_terms(), format_poly(poly))


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad character at position {pos} in {text!r}")
            break
        pos = m.end()
        for kind in ("int", "name", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val))
                break
    return tokens


def _parse_poly(ring: Ring, text: str) -> MPoly:
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    pos = 0

    def peek() -> tuple[str, str] | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(kind: str, value: str | None = None) -> str:
        nonlocal pos
        tok = peek()
        if tok is None or tok[0] != kind or (value is not None and tok[1] != value):
            raise ValueError(f"parse error near token {pos} in {text!r}")
        pos += 1
        return tok[1]

    def parse_term() -> tuple[Monomial, int | Fraction]:
        coeff = 1
        exps = [0] * ring.nvars
        while True:
            tok = peek()
            if tok is None:
                raise ValueError(f"dangling term in {text!r}")
            if tok[0] == "int":
                take("int")
                num = int(tok[1])
                nxt = peek()
                if nxt == ("op", "/"):
                    take("op", "/")
                    den = int(take("int"))
                    coeff = coeff * Fraction(num, den)
                else:
                    coeff = coeff * num
            elif tok[0] == "name":
                take("name")
                if tok[1] not in ring.index:
                    raise ValueError(f"unknown variable {tok[1]!r}")
                e = 1
                if peek() == ("op", "^"):
                    take("op", "^")
                    e = int(take("int"))
                exps[ring.index[tok[1]]] += e
            else:
                raise ValueError(f"parse error near token {pos} in {text!r}")
            if peek() == ("op", "*"):
                take("op", "*")
                continue
            break
        return tuple(exps), coeff

    terms: dict = {}

    def accumulate(mono: Monomial, coeff: int | Fraction) -> None:
        v = terms.get(mono, 0) + coeff
        if v:
            terms[mono] = v
        elif mono in terms:
            del terms[mono]

    sign = 1
    if peek() == ("op", "-"):
        take("op", "-")
        sign = -1
    elif peek() == ("op", "+"):
        take("op", "+")
    mono, coeff = parse_term()
    accumulate(mono, sign * coeff)
    while peek() is not None:
        op = take("op")
        if op not in "+-":
            raise ValueError(f"expected + or - near token {pos} in {text!r}")
        mono, coeff = parse_term()
        accumulate(mono, coeff if op == "+" else -coeff)
    return MPoly(ring, terms)
