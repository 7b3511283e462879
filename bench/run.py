"""Benchmark of the sitawim pipeline: search, then certify every entry.

    python3 bench/run.py --workload rank4-pseudocyclic --seed 1 --seconds 40 --trace 0

Runs whole rounds of the workload until the next round would end past
``--seconds``, checks every round's outputs, and prints one JSON object as
the last line of standard output: ``correct``, the operations
``attempted`` and ``failed``, and the metrics.  With ``--trace 0`` these
are the end-to-end metrics (medians over the rounds); with ``--trace 1``
the run alternates an untraced and a traced serial round and reports the
per-layer metrics of the traced ones.  Raw per-round figures, and the spans
of the last traced round, go to ``bench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a diagnostic of host speed,
    printed with each run and never used as a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def setup_seconds(workload: str) -> list[float]:
    """Import sitawim and build the workload's inputs in fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        out.append(float(done.stdout.split()[-1]))
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest of its
    waited-for children (the search's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "sitawim" / "__init__.py").is_file():
        print(f"no sitawim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pipeline
    from sitawim.exactpoly import HAVE_GMPY2

    workloads = pipeline.build_workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}: {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    rng = random.Random(args.seed)
    probe_before = host_probe()
    print(f"host probe: {probe_before:.4f} s for a fixed pure-Python loop", flush=True)

    if args.trace:
        import tracing

    rounds, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        if args.trace:
            plain = pipeline.run_round(workload, pipeline.Calls(), rng, serial=True, repeat=False)
            tracer = tracing.Tracer()
            with tracing.instrumented(tracer) as calls:
                rnd = pipeline.run_round(
                    workload, calls, rng, serial=True, repeat=False, stage=tracer.span
                )
            rounds.append(plain)
            traced.append(rnd)
            tracers.append(tracer)
        else:
            rounds.append(pipeline.run_round(workload, pipeline.Calls(), rng))
        now = time.perf_counter()
        if now - start + (now - before) > args.seconds:
            break

    med = statistics.median
    if args.trace:
        per_round = [tracing.layer_metrics(t, r.statuses[0]) for t, r in zip(tracers, traced)]
        values = {k: med([m[k] for m in per_round]) for k in per_round[0]}
        wall = lambda rs: med([r.search_s[0] + r.certify_s[0] for r in rs])
        values["trace.wall_s"] = wall(traced)
        values["trace.overhead_s"] = wall(traced) - wall(rounds)
        units = {k: ("s" if k.endswith("_s") else "count") for k in values}
        setup = []
    else:
        rss = peak_rss_mb()
        setup = setup_seconds(workload.name)
        # Each stage's passes are pooled over the run, so that no one short
        # stretch of the host's speed sets the median.
        pooled = lambda key: med([t for r in rounds for t in getattr(r, key)])
        values = {
            "wall_s": pooled("search_s") + pooled("certify_s"),
            "setup_s": med(setup),
            "catalog_s": pooled("search_s"),
            "certify_s": pooled("certify_s"),
            "cpu_s": pooled("search_cpu_s") + pooled("certify_cpu_s"),
            "peak_rss_mb": rss,
        }
        units = {k: ("MB" if k == "peak_rss_mb" else "s") for k in values}
    # The checks import numpy and sympy, so they run after the peak memory
    # of the rounds has been read.
    import checks

    check = checks.RoundChecker(workload.name, json.loads((BENCH / "reference.json").read_text()))
    attempted = failed = 0
    wrong: list[str] = []
    failures: list[str] = []
    for rnd in rounds + traced:
        a, f, w, fl = check(rnd)
        attempted += a
        failed += f
        wrong.extend(x for x in w if x not in wrong)
        failures.extend(x for x in fl if x not in failures)
    probe_after = host_probe()
    print(f"host probe: {probe_after:.4f} s for a fixed pure-Python loop", flush=True)

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    raw = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "host_probe_s": [probe_before, probe_after],
        "python": platform.python_version(),
        "have_gmpy2": HAVE_GMPY2,
        "nproc": os.cpu_count(),
        "setup_s": setup,
        "rounds": [
            {k: getattr(r, k) for k in ("search_s", "search_cpu_s", "certify_s", "certify_cpu_s")}
            | {"statuses": [{lab: dict(c) for lab, c in st.items()} for st in r.statuses]}
            for r in rounds
        ],
        "traced_rounds": [{"search_s": r.search_s, "certify_s": r.certify_s} for r in traced],
        "wrong": wrong,
        "failures": failures,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(raw, indent=1))
    if tracers:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(tracers[-1].dump()))
    for line in wrong + failures:
        print(line, file=sys.stderr)

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
