"""The benchmark's workloads and one round of each, run through the public API.

A round is the whole pipeline: search passes (``run_search`` for every
configured sweep, after ``enumerate_rational_tables`` on ``table35``), then
certification passes (``multiplicities``, ``is_cyclotomic``,
``eigenmatrix_P``, ``eigenmatrix_Q``, ``krein`` and ``run_battery`` for
every catalog entry).  Every call into the package goes through a
:class:`Calls` table, so the traced run can substitute wrapped functions
without touching the package.
"""

from __future__ import annotations

import logging
import random
import resource
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

from sitawim import feasibility, spectra, structcheck, varietygen
from sitawim.solver import GridAxis, SearchConfig, SimplexSpec, WindowSpec, run_search
from sitawim.varietygen import RationalCharTable

# The n=35 rationalized table that drives the order-35 search, given by value.
N35_TABLE = RationalCharTable(35, 4, 10, (4, 6, 12, 12), (-1, 6, -3, -3), (0, -3, 0, 0))


@dataclass(frozen=True)
class Workload:
    name: str
    searches: tuple[tuple[str, SearchConfig], ...] = ()
    table_n: int = 0  # > 0: enumerate the tables of this order and drive `table_search`
    table_search: tuple[str, tuple[GridAxis, ...]] = ("", ())
    # A stage that takes about a second lasts no longer than the host's bursts
    # of speed; running it several times per round, each pass timed on its
    # own, steadies its median.
    search_passes: int = 1
    certify_passes: int = 1


def build_workloads() -> dict[str, Workload]:
    """The three workloads, with every input given by value."""
    rank4 = Workload(
        "rank4-pseudocyclic",
        searches=(
            (
                "4S",
                SearchConfig(
                    itype="4S",
                    assumption="pseudocyclic",
                    grid=(GridAxis("m", 1, 40),),
                    simplex=SimplexSpec(("x8",), anchor="m"),
                ),
            ),
            (
                "4A1",
                SearchConfig(
                    itype="4A1",
                    assumption="pseudocyclic",
                    grid=(GridAxis("k1", 1, 400),),
                ),
            ),
        ),
        search_passes=3,
    )
    rank5 = Workload(
        "rank5-pseudocyclic",
        searches=(
            (
                "5S",
                SearchConfig(
                    itype="5S",
                    assumption="pseudocyclic",
                    grid=(GridAxis("m", 62, 62),),
                    window=WindowSpec(("x1", "x2", "x3"), anchor="m"),
                    workers=2,
                ),
            ),
            (
                "5A2",
                SearchConfig(
                    itype="5A2",
                    assumption="pseudocyclic",
                    grid=(GridAxis("m", 1, 20),),
                    simplex=SimplexSpec(("x14",), anchor="m"),
                    workers=2,
                ),
            ),
        ),
        certify_passes=3,
    )
    table35 = Workload(
        "table35",
        table_n=35,
        table_search=(
            "5S-table",
            (GridAxis("x22", 5, 7), GridAxis("x23", 2, 4), GridAxis("x24", 4, 6)),
        ),
        certify_passes=20,
    )
    return {w.name: w for w in (rank4, rank5, table35)}


@dataclass
class Calls:
    """The package functions a round calls; the traced run wraps them."""

    run_search: Callable = run_search
    enumerate_rational_tables: Callable = varietygen.enumerate_rational_tables
    multiplicities: Callable = structcheck.multiplicities
    is_cyclotomic: Callable = structcheck.is_cyclotomic
    eigenmatrix_P: Callable = spectra.eigenmatrix_P
    eigenmatrix_Q: Callable = spectra.eigenmatrix_Q
    krein: Callable = spectra.krein
    run_battery: Callable = feasibility.run_battery


class _StatusCounter(logging.Handler):
    """Counts the pinned ``point=<assignment> status=<s>`` solver lines."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if msg.startswith("point=") and " status=" in msg:
            self.counts[msg.rsplit(" status=", 1)[1]] += 1


@dataclass
class RoundResult:
    # wall and CPU seconds of each search pass and each certification pass
    search_s: list = field(default_factory=list)
    search_cpu_s: list = field(default_factory=list)
    certify_s: list = field(default_factory=list)
    certify_cpu_s: list = field(default_factory=list)
    # per search pass: search label -> Counter of point statuses
    statuses: list = field(default_factory=list)
    # per certification pass: (search label, summary dict or None if it raised)
    passes: list = field(default_factory=list)
    tables: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _plain_mult(values) -> list:
    return [int(v) if Fraction(v).denominator == 1 else str(v) for v in values]


def summarize(inst, mult, cyclo, report) -> dict:
    """The JSON-able outputs of one certified entry."""
    return {
        "order": inst.order,
        "degrees": list(inst.degrees),
        "matrices": [[list(row) for row in m] for m in inst.matrices],
        "multiplicities": _plain_mult(mult.values),
        "cyclotomic": bool(cyclo.cyclotomic),
        "battery": {c.name: c.verdict for c in report.conditions},
    }


def _certify(calls: Calls, inst):
    mult = calls.multiplicities(inst)
    cyclo = calls.is_cyclotomic(inst)
    sd = calls.eigenmatrix_P(inst)
    sd = calls.eigenmatrix_Q(sd, inst)
    sd = calls.krein(sd, inst)
    report = calls.run_battery(inst, sd)
    return mult, cyclo, report


def _search(workload: Workload, calls: Calls, rng, serial: bool, counter, out) -> dict:
    """One search pass: every sweep of the workload, in an order the ``rng``
    shuffles.  Returns the catalogs and records the point statuses."""
    searches = list(workload.searches)
    if workload.table_n:
        try:
            out.tables = calls.enumerate_rational_tables(workload.table_n)
        except Exception as exc:  # counted through the search it drives
            out.tables = []
            out.errors.append(f"enumerate_rational_tables: {exc!r}")
        label, axes = workload.table_search
        chosen = [tb for tb in out.tables if tb == N35_TABLE]
        cfg = SearchConfig(itype="5S", assumption=chosen[0], grid=axes) if chosen else None
        searches.append((label, cfg))
    labels = [label for label, _ in searches]
    rng.shuffle(searches)
    catalogs, statuses = {}, {}
    for label, cfg in searches:
        counter.counts = Counter()
        if cfg is None:
            out.errors.append(f"{label}: the driving table was not enumerated")
            continue
        try:
            catalogs[label] = calls.run_search(replace(cfg, workers=1) if serial else cfg)
        except Exception as exc:  # a failed search is counted, not fatal
            out.errors.append(f"{label}: {exc!r}")
            continue
        statuses[label] = counter.counts
    out.statuses.append({label: statuses[label] for label in labels if label in statuses})
    return {label: catalogs[label] for label in labels if label in catalogs}


def _certify_pass(calls: Calls, found: list, rng, out) -> None:
    entries = [(label, None) for label, _ in found]
    order = list(range(len(found)))
    rng.shuffle(order)
    for idx in order:
        label, inst = found[idx]
        try:
            result = _certify(calls, inst)
        except Exception as exc:  # a failed entry is counted, not fatal
            out.errors.append(f"{label} entry of order {inst.order}: {exc!r}")
            continue
        entries[idx] = (label, summarize(inst, *result))
    out.passes.append(entries)


def run_round(
    workload: Workload,
    calls: Calls,
    rng: random.Random,
    *,
    serial: bool = False,
    repeat: bool = True,
    stage: Callable = lambda name: nullcontext(),
) -> RoundResult:
    """One round of the pipeline: the workload's search passes, then its
    certification passes over the catalog of the last search pass, each
    pass timed on its own (one of each unless ``repeat``).

    The seeded ``rng`` shuffles the order of the searches and of the
    certifications; results come back in the workload's own order, so they
    do not depend on the seed.  ``serial`` forces one worker.
    ``stage(name)`` gives a context manager around each pass (a span in
    the traced run).  A search or an entry that raises is left out with its
    error, and the round goes on.
    """
    out = RoundResult()
    counter = _StatusCounter()
    solver_log = logging.getLogger("sitawim.solver")
    saved = (solver_log.level, solver_log.propagate)
    solver_log.setLevel(logging.INFO)
    solver_log.propagate = False
    solver_log.addHandler(counter)
    try:
        for _ in range(workload.search_passes if repeat else 1):
            t0, c0 = time.perf_counter(), cpu_seconds()
            with stage("stage.catalog"):
                catalogs = _search(workload, calls, rng, serial, counter, out)
            out.search_s.append(time.perf_counter() - t0)
            out.search_cpu_s.append(cpu_seconds() - c0)
        found = [(label, inst) for label, catalog in catalogs.items() for inst in catalog]
        for _ in range(workload.certify_passes if repeat else 1):
            t0, c0 = time.perf_counter(), cpu_seconds()
            with stage("stage.certify"):
                _certify_pass(calls, found, rng, out)
            out.certify_s.append(time.perf_counter() - t0)
            out.certify_cpu_s.append(cpu_seconds() - c0)
    finally:
        solver_log.removeHandler(counter)
        solver_log.setLevel(saved[0])
        solver_log.propagate = saved[1]
    return out
