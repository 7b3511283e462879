"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are sparse dictionaries mapping exponent tuples to nonzero
rational coefficients.  All arithmetic is exact: coefficients are
``gmpy2.mpq`` when gmpy2 is importable and ``fractions.Fraction``
otherwise; the two are interchangeable for everything done here.

A :class:`Ring` fixes an ordered tuple of variable names.  Monomial
orders (lex, graded reverse lex, weighted-degree with grevlex
tie-break) are first-class objects created by :meth:`Ring.order`; the
variable listed first in an order's priority is the largest.

The canonical representative of a nonzero polynomial (``normalize``)
has integer coefficients, content 1, and positive leading coefficient
under the active order.  The plain-text format is ``c*x1^e1*...*xn^en``
terms joined by ``+``/``-``; :meth:`Ring.parse` and ``str()`` round-trip
bit-exactly.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, Mapping, Sequence, Union

# --------------------------------------------------------------------------
# coefficient field
# --------------------------------------------------------------------------

try:  # pragma: no cover - exercised implicitly by the whole suite
    from gmpy2 import mpq as _ratio

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover
    from fractions import Fraction as _ratio

    HAVE_GMPY2 = False

#: exact rational zero/one, reused everywhere
Q0 = _ratio(0)
Q1 = _ratio(1)

_RAT_TYPES = (type(Q0), int)

Rational = Union[type(Q0), int]


def qq(value: object) -> "_ratio":
    """Coerce ``value`` (int, rational, or ``p/q`` string) to an exact rational."""
    if isinstance(value, type(Q0)):
        return value
    if isinstance(value, int):
        return _ratio(value)
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return _ratio(int(num), int(den)) if den else _ratio(int(num))
    # fractions.Fraction when running on gmpy2, and vice versa
    num = getattr(value, "numerator", None)
    den = getattr(value, "denominator", None)
    if num is not None and den is not None:
        return _ratio(num, den)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def qq_str(value: "_ratio") -> str:
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
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff monomial ``a`` divides ``b`` coordinatewise."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """``a / b`` as a monomial, or None when ``b`` does not divide ``a``."""
    out = []
    for x, y in zip(a, b):
        if y > x:
            return None
        out.append(x - y)
    return tuple(out)


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_total(a: Monomial) -> int:
    return sum(a)


# --------------------------------------------------------------------------
# monomial orders
# --------------------------------------------------------------------------


class MonomialOrder:
    """A term order on a fixed ring, exposed as a sort key on exponent tuples.

    ``key(m)`` returns a tuple that compares consistently with the order:
    ``key(a) > key(b)`` iff monomial ``a`` is larger.  Supported kinds:

    - ``lex``: pure lexicographic in priority sequence.
    - ``grevlex``: graded reverse lexicographic (default everywhere).
    - ``weighted``: integer weight vector degree first, grevlex tie-break.
    """

    __slots__ = ("ring", "kind", "priority", "weights", "_perm", "_wvec")

    def __init__(
        self,
        ring: "Ring",
        kind: str,
        priority: Sequence[str] | None = None,
        weights: Mapping[str, int] | None = None,
    ) -> None:
        if kind not in ("lex", "grevlex", "weighted"):
            raise ValueError(f"unknown monomial order kind {kind!r}")
        if kind == "weighted":
            if not weights:
                raise ValueError("weighted order requires a weight mapping")
            unknown = set(weights) - set(ring.names)
            if unknown:
                raise ValueError(f"weights name unknown variables {sorted(unknown)}")
        elif weights:
            raise ValueError("weights only apply to the 'weighted' kind")
        names = tuple(priority) if priority is not None else ring.names
        if sorted(names) != sorted(ring.names):
            raise ValueError("priority must be a permutation of the ring variables")
        self.ring = ring
        self.kind = kind
        self.priority = names
        self.weights = dict(weights) if weights else None
        # position i of the permuted exponent vector = ring index of the
        # i-th largest variable
        self._perm = tuple(ring.index[name] for name in names)
        self._wvec = None
        if weights:
            self._wvec = tuple(weights.get(name, 0) for name in ring.names)

    def key(self, mono: Monomial):
        perm = self._perm
        if self.kind == "lex":
            return tuple(mono[i] for i in perm)
        grev = (sum(mono), tuple(-mono[i] for i in reversed(perm)))
        if self.kind == "grevlex":
            return grev
        wdeg = sum(w * e for w, e in zip(self._wvec, mono))
        return (wdeg,) + grev

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

    # -- constructors ------------------------------------------------------

    def order(
        self,
        kind: str = "grevlex",
        priority: Sequence[str] | None = None,
        weights: Mapping[str, int] | None = None,
    ) -> MonomialOrder:
        return MonomialOrder(self, kind, priority, weights)

    @property
    def default_order(self) -> MonomialOrder:
        return self._default_order

    def zero(self) -> "MPoly":
        return MPoly(self, {})

    def one(self) -> "MPoly":
        return MPoly(self, {self._zero_mono: Q1})

    def const(self, value: object) -> "MPoly":
        c = qq(value)
        return MPoly(self, {self._zero_mono: c} if c else {})

    def var(self, name: str) -> "MPoly":
        i = self.index[name]
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return MPoly(self, {mono: Q1})

    def gens(self) -> tuple["MPoly", ...]:
        return tuple(self.var(name) for name in self.names)

    def poly(self, terms: Mapping[Monomial, object]) -> "MPoly":
        out = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != self.nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent tuple {mono}")
            c = qq(coeff)
            if c:
                out[mono] = out.get(mono, Q0) + c
                if not out[mono]:
                    del out[mono]
        return MPoly(self, out)

    def with_variables(self, extra: Sequence[str]) -> "Ring":
        """A new ring with ``extra`` appended after the existing variables."""
        return Ring(self.names + tuple(extra))

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

    def constant_value(self) -> "_ratio":
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.terms.get(self.ring._zero_mono, Q0)

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
        used = [False] * self.ring.nvars
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    used[i] = True
        return {self.ring.names[i] for i, flag in enumerate(used) if flag}

    def num_terms(self) -> int:
        return len(self.terms)

    def leading(self, order: MonomialOrder | None = None) -> tuple[Monomial, "_ratio"]:
        """The (monomial, coefficient) pair largest under ``order``."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        order = order or self.ring.default_order
        mono = max(self.terms, key=order.key)
        return mono, self.terms[mono]

    def sorted_terms(self, order: MonomialOrder | None = None) -> list[tuple[Monomial, "_ratio"]]:
        order = order or self.ring.default_order
        return sorted(self.terms.items(), key=lambda kv: order.key(kv[0]), reverse=True)

    def coefficient(self, mono: Monomial) -> "_ratio":
        return self.terms.get(tuple(mono), Q0)

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
            v = out.get(mono, Q0) + c
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
            v = out.get(mono, Q0) - c
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
            c = qq(other)
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
                v = out.get(mono, Q0) + ca * cb
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
        c = qq(coeff)
        if not c:
            return self.ring.zero()
        return MPoly(self.ring, {mono_mul(m, mono): v * c for m, v in self.terms.items()})

    # -- substitution / evaluation ---------------------------------------------

    def subs(self, mapping: Mapping[str, object]) -> "MPoly":
        """Substitute polynomials or rationals for variables (by name).

        Returns ``self`` when no substituted variable occurs.  Otherwise the
        expansion of each term is merged into one accumulating dictionary, so
        the cost is linear in the number of terms produced; each power of a
        replacement is computed once.  The merge keeps the term order of a
        sum of the pieces: when a piece has more terms than the total so far,
        the piece's order leads.
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
                v = out.get(m, Q0) + c
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return MPoly(ring, out)

    def evaluate(self, point: Mapping[str, object]) -> "_ratio":
        """Exact value at a full rational point (every used variable must be given)."""
        ring = self.ring
        vals: list = [None] * ring.nvars
        for name, value in point.items():
            vals[ring.index[name]] = qq(value)
        acc = Q0
        for mono, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(mono):
                if e:
                    if vals[i] is None:
                        raise ValueError(f"no value supplied for {ring.names[i]}")
                    term = term * vals[i] ** e
            acc = acc + term
        return acc

    def map_to(self, ring: Ring) -> "MPoly":
        """Re-express in another ring containing (by name) all used variables."""
        if ring is self.ring:
            return self
        lookup = []
        for i, name in enumerate(self.ring.names):
            lookup.append(ring.index.get(name, -1))
        out: dict = {}
        for mono, coeff in self.terms.items():
            new = [0] * ring.nvars
            for i, e in enumerate(mono):
                if e:
                    j = lookup[i]
                    if j < 0:
                        raise ValueError(
                            f"variable {self.ring.names[i]} does not exist in target ring"
                        )
                    new[j] = e
            key = tuple(new)
            v = out.get(key, Q0) + coeff
            if v:
                out[key] = v
            elif key in out:
                del out[key]
        return MPoly(ring, out)

    # -- linear structure ---------------------------------------------------------

    def split_linear(self, name: str) -> tuple["MPoly", "MPoly"]:
        """Write ``self = A*v + B`` for a variable of degree <= 1; return (A, B)."""
        i = self.ring.index[name]
        a: dict = {}
        b: dict = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e == 0:
                b[mono] = coeff
            elif e == 1:
                reduced = mono[:i] + (0,) + mono[i + 1 :]
                a[reduced] = a.get(reduced, Q0) + coeff
            else:
                raise ValueError(f"degree in {name} exceeds 1")
        return MPoly(self.ring, {m: c for m, c in a.items() if c}), MPoly(self.ring, b)

    def as_univariate(self, name: str) -> list:
        """Ascending coefficient list in one variable; other variables must be absent."""
        i = self.ring.index[name]
        coeffs = [Q0] * (max((m[i] for m in self.terms), default=0) + 1)
        for mono, coeff in self.terms.items():
            if any(e and j != i for j, e in enumerate(mono)):
                raise ValueError(f"{self} involves variables besides {name}")
            coeffs[mono[i]] = coeff
        return coeffs

    # -- normalization ---------------------------------------------------------

    def content_and_primitive(self) -> tuple["_ratio", "MPoly"]:
        """Positive rational c and primitive integer-coefficient p with self = c*p."""
        if not self.terms:
            return Q1, self
        den_lcm = 1
        for c in self.terms.values():
            den_lcm = math.lcm(den_lcm, int(c.denominator))
        num_gcd = 0
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, abs(int(c.numerator * (den_lcm // c.denominator))))
        content = qq(num_gcd) / den_lcm
        inv = Q1 / content
        return content, MPoly(self.ring, {m: c * inv for m, c in self.terms.items()})

    def normalize(self, order: MonomialOrder | None = None) -> "MPoly":
        """Canonical representative: integer coefficients, content 1, positive
        leading coefficient under ``order`` (ring default when omitted)."""
        if not self.terms:
            return self
        _, prim = self.content_and_primitive()
        order = order or self.ring.default_order
        if prim.leading(order)[1] < 0:
            prim = -prim
        return prim

    # -- comparisons / hashing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MPoly):
            return self.ring is other.ring and self.terms == other.terms
        if isinstance(other, _RAT_TYPES):
            return self.is_constant and self.constant_value() == qq(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset((m, c) for m, c in self.terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- text --------------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MPoly {format_poly(self)}>"


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

    def parse_term() -> tuple[Monomial, "_ratio"]:
        coeff = Q1
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
                    coeff = coeff * _ratio(num, den)
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

    def accumulate(mono: Monomial, coeff: "_ratio") -> None:
        v = terms.get(mono, Q0) + coeff
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
