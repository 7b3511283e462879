"""Spans around the package's public functions, for the traced run.

A span is (name, start, end, parent).  Spans are recorded by wrapping
public functions from the outside: the stage entry points at the
benchmark's call sites (:class:`pipeline.Calls`), and the layers the search
and the battery reach through module globals where those modules look them
up (``sitawim.solver`` and ``sitawim.feasibility``).  Nothing in the
package changes.  Spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import fields

from sitawim import feasibility, solver
from sitawim.errors import ResourceCapExceeded

from pipeline import Calls

# Calls field -> span name
CALL_SITES = {
    "run_search": "solver.run_search",
    "enumerate_rational_tables": "varietygen.enumerate_tables",
    "multiplicities": "structcheck.multiplicities",
    "is_cyclotomic": "structcheck.is_cyclotomic",
    "eigenmatrix_P": "spectra.eigenmatrix_P",
    "eigenmatrix_Q": "spectra.eigenmatrix_Q",
    "krein": "spectra.krein",
    "run_battery": "feasibility.run_battery",
}

# module global -> span name, per module that looks the name up
MODULE_LAYERS = {
    solver: {
        "build_template": "varietygen.build_template",
        "emit_structure_polys": "varietygen.emit",
        "trace_constraints": "varietygen.emit",
        "homogeneity_constraints": "varietygen.emit",
        "linear_reduce": "linear.linear_reduce",
        "rational_span_basis": "linear.span_basis",
        "specialize_and_solve": "solver.specialize_and_solve",
        "buchberger": "groebner.lex",  # the solver only asks for lex bases
        "verify_sita": "structcheck.verify_sita",
        "canonical_form": "solver.canonical_form",
    },
    feasibility: {
        "handshake": "feasibility.exact_conditions",
        "closed_subsets_quotients": "feasibility.exact_conditions",
        "triangle_count": "feasibility.exact_conditions",
        "absolute_bound": "feasibility.absolute_bound",
        "krein_nonneg": "feasibility.krein_nonneg",
        "gegenbauer": "feasibility.gegenbauer",
    },
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.maxes: dict = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if note is not None:
                # bookkeeping has a span of its own, so it is not billed to
                # the caller's self time
                with self.span("trace.bookkeeping"):
                    note(self, result, args, kwargs)
            return result

        return traced

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "self": own}
            for (name, start, end, parent), own in zip(self.spans, self.self_times())
        ]


def _coeff_bits(polys) -> int:
    bits = 0
    for p in polys:
        for c in p.terms.values():
            bits = max(bits, int(c.numerator).bit_length(), int(c.denominator).bit_length())
    return bits


def _note_lex(original):
    """After each lex basis: count it, and compute the grevlex basis of the
    same specialized system in a span of its own (the predictor for a
    grevlex-first solver)."""

    def note(tr: Tracer, basis, args, kwargs) -> None:
        tr.counts["groebner.lex_calls"] += 1
        tr.maxes["groebner.basis_len_max"] = max(tr.maxes["groebner.basis_len_max"], len(basis))
        tr.maxes["groebner.coeff_bits_max"] = max(
            tr.maxes["groebner.coeff_bits_max"], _coeff_bits(basis)
        )
        gens, order = args[0], args[1]
        probe = order.ring.order("grevlex", priority=order.priority)
        with tr.span("groebner.grevlex_probe"):
            try:
                original(gens, probe, **kwargs)
            except ResourceCapExceeded:
                pass  # the probe's time up to the cap is what it reports

    return note


def _count(key, size=len):
    def note(tr: Tracer, result, args, kwargs) -> None:
        tr.counts[key] += size(result)

    return note


def _gegenbauer_steps(result) -> int:
    if result.verdict == "pass":
        return result.detail["bound"]
    if result.verdict == "fail":
        return result.witness["l"]
    return 0


def _notes(module, attr, original):
    return {
        (solver, "emit_structure_polys"): _count("varietygen.generators"),
        (solver, "trace_constraints"): _count("varietygen.generators"),
        (solver, "homogeneity_constraints"): _count("varietygen.generators"),
        (solver, "linear_reduce"): _count("linear.chain_len", lambda red: len(red.chain)),
        (solver, "rational_span_basis"): _count("linear.polys_out"),
        (solver, "buchberger"): _note_lex(original),
        (feasibility, "gegenbauer"): _count("feasibility.gegenbauer_steps", _gegenbauer_steps),
        (None, "enumerate_rational_tables"): _count("varietygen.tables"),
    }.get((module, attr))


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every traced layer for the duration of the block and yield the
    wrapped :class:`Calls`."""
    saved = []
    try:
        for module, table in MODULE_LAYERS.items():
            for attr, span_name in table.items():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(span_name, original, _notes(module, attr, original)))
        base = Calls()
        yield Calls(
            **{
                f.name: tracer.wrap(
                    CALL_SITES[f.name],
                    getattr(base, f.name),
                    _notes(None, f.name, getattr(base, f.name)),
                )
                for f in fields(Calls)
            }
        )
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, statuses: dict) -> dict[str, float]:
    """The per-layer figures of one traced round."""
    total: Counter = Counter()
    own: Counter = Counter()
    longest: Counter = Counter()
    for (name, start, end, _), self_s in zip(tracer.spans, tracer.self_times()):
        total[name] += end - start
        own[name] += self_s
        longest[name] = max(longest[name], end - start)
    points = Counter()
    for counts in statuses.values():
        points.update(counts)
    return {
        "varietygen.build_template_s": total["varietygen.build_template"],
        "varietygen.emit_s": total["varietygen.emit"],
        "varietygen.generators": tracer.counts["varietygen.generators"],
        "varietygen.enumerate_tables_s": total["varietygen.enumerate_tables"],
        "varietygen.tables": tracer.counts["varietygen.tables"],
        "linear.linear_reduce_s": total["linear.linear_reduce"],
        "linear.span_basis_s": total["linear.span_basis"],
        "linear.chain_len": tracer.counts["linear.chain_len"],
        "linear.polys_out": tracer.counts["linear.polys_out"],
        "groebner.lex_s": total["groebner.lex"],
        "groebner.lex_calls": tracer.counts["groebner.lex_calls"],
        "groebner.basis_len_max": tracer.maxes["groebner.basis_len_max"],
        "groebner.coeff_bits_max": tracer.maxes["groebner.coeff_bits_max"],
        "groebner.grevlex_probe_s": total["groebner.grevlex_probe"],
        "solver.run_search_s": total["solver.run_search"],
        "solver.run_search_self_s": own["solver.run_search"],
        "solver.solve_self_s": own["solver.specialize_and_solve"],
        "solver.points": sum(points.values()),
        "solver.points_sol": points["sol"],
        "solver.points_empty": points["empty"],
        "solver.points_posdim": points["posdim"],
        "solver.points_cap": points["cap"],
        "solver.slowest_point_s": longest["solver.specialize_and_solve"],
        "solver.canonical_form_s": total["solver.canonical_form"],
        "structcheck.verify_sita_s": total["structcheck.verify_sita"],
        "structcheck.multiplicities_s": total["structcheck.multiplicities"],
        "structcheck.is_cyclotomic_s": total["structcheck.is_cyclotomic"],
        "spectra.eigenmatrix_P_s": total["spectra.eigenmatrix_P"],
        "spectra.eigenmatrix_Q_s": total["spectra.eigenmatrix_Q"],
        "spectra.krein_s": total["spectra.krein"],
        "feasibility.exact_conditions_s": total["feasibility.exact_conditions"],
        "feasibility.absolute_bound_s": total["feasibility.absolute_bound"],
        "feasibility.krein_nonneg_s": total["feasibility.krein_nonneg"],
        "feasibility.gegenbauer_s": total["feasibility.gegenbauer"],
        "feasibility.gegenbauer_steps": tracer.counts["feasibility.gegenbauer_steps"],
        "trace.unattributed_s": own["stage.catalog"] + own["stage.certify"] + own["trace.bookkeeping"],
        "trace.spans": len(tracer.spans),
    }
