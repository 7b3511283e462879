"""Exact multivariate polynomial layer: rings, orders, Groebner bases,
rational-span echelonization, and chained linear elimination."""

from .core import (
    HAVE_GMPY2,
    MPoly,
    Monomial,
    MonomialOrder,
    Q0,
    Q1,
    Ring,
    format_poly,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_total,
    qq,
    qq_str,
)
from .groebner import (
    DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_TERMS,
    buchberger,
    ideal_contains,
    normal_form,
)
from .linear import LinearReduction, linear_reduce, rational_span_basis

__all__ = [
    "HAVE_GMPY2",
    "MPoly",
    "Monomial",
    "MonomialOrder",
    "Q0",
    "Q1",
    "Ring",
    "format_poly",
    "mono_div",
    "mono_divides",
    "mono_lcm",
    "mono_mul",
    "mono_total",
    "qq",
    "qq_str",
    "DEFAULT_MAX_DEGREE",
    "DEFAULT_MAX_TERMS",
    "buchberger",
    "ideal_contains",
    "normal_form",
    "LinearReduction",
    "linear_reduce",
    "rational_span_basis",
]
