"""Regenerate reference.json: the outputs that only the package produces
(every workload's point statuses and certified entries, and the rational
tables of order 35), after checking them apart from the package.

    python3 bench/make_reference.py
"""

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import pipeline  # noqa: E402


def main() -> int:
    reference = {"regenerate": "python3 bench/make_reference.py"}
    problems = []
    for name, workload in pipeline.build_workloads().items():
        rnd = pipeline.run_round(workload, pipeline.Calls(), random.Random(0), serial=True, repeat=False)
        reference[name] = {
            "searches": {
                label: {
                    "statuses": dict(sorted(counts.items())),
                    "entries": [e for lab, e in rnd.passes[0] if lab == label],
                }
                for label, counts in rnd.statuses[-1].items()
            }
        }
        if rnd.tables:
            reference[name]["tables"] = [checks.table_row(tb) for tb in rnd.tables]
        _, failed, wrong, failures = checks.RoundChecker(name, reference)(rnd)
        problems += rnd.errors + wrong + failures + ([f"{name}: {failed} failed"] if failed else [])
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
