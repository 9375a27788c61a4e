"""Record the golden outputs of the checked workloads at seed 0.

    python3 bench/record_golden.py

Runs every unit of ``err-grid``, ``transition`` and ``identify-full`` once
at seed 0 with the benchmark's pinned BLAS threads and writes
``bench/golden_seed0.json``.  Re-record only when a change is meant to
alter these outputs, and say so in the change.  ``partial-info`` has no
golden file: its ops are checked against fixed error bounds on any seed.
"""

import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads; puts src/ on sys.path

SEED = 0
CHECKED = ("err-grid", "transition", "identify-full")


def main() -> int:
    from workloads import WORKLOADS

    work = run.BENCH / ".work" / "record-golden"
    shutil.rmtree(work, ignore_errors=True)
    records = {}
    try:
        for name in CHECKED:
            workload = WORKLOADS[name]
            records[name] = {}
            for unit in workload.units(SEED, work):
                rec = unit.collect(unit.run())
                failed, why = workload.check(unit, rec, None)
                if failed:
                    raise SystemExit(f"{name} {unit.key} fails its invariants: {why}")
                records[name][unit.key] = rec
    finally:
        shutil.rmtree(work, ignore_errors=True)
    obj = {"seed": SEED, "environment": run.environment(), "workloads": records}
    run.GOLDEN.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
