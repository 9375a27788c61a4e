"""Run one workload of the qnetid benchmark and print its metrics.

    python3 bench/run.py --workload err-grid --seed 0 --seconds 25 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace
0``, its per-layer metrics with ``--trace 1``.  Earlier lines give the
environment, every metric by name and unit, and any failed ops.

One process runs the workload's units over and over until ``--seconds``
have passed (at least one full pass) and checks every output.  Every
time is calibrated against the reference job of ``reference.py``.
Every metric but ``setup_s`` is computed from the lower quartile of the
times of each unit, so slow runs of a unit do not move it.  ``setup_s``
is the median over ``SETUP_RUNS`` fresh interpreters of ``import
qnetid`` plus one warm-up call of the workload's entry point on a tiny
input.  The traced run measures half
its time untraced and half traced; the difference is the tracing
overhead.  See README.md for the metrics and workloads.
"""

import os
import sys

#: BLAS threads, pinned here and never taken from the environment: at
#: d = 27..28 the sweep's eps_median differs at ~1e-4 relative between 1
#: and 2 OpenBLAS threads, and the golden records were taken with 1.  One
#: thread, because on a shared 2-core host a second BLAS thread makes
#: every SVD wait for whichever core another tenant holds.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden_seed0.json"
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 60
MAX_FAILURES_SHOWN = 60
sys.path.insert(0, str(SRC))


def setup_child(workload: str, work: Path) -> float:
    """Seconds for ``import qnetid`` plus one warm-up call (fresh process)."""
    t0 = time.perf_counter()
    import qnetid  # noqa: F401

    t_import = time.perf_counter() - t0
    from workloads import WORKLOADS

    t1 = time.perf_counter()
    WORKLOADS[workload].warmup(work)
    return t_import + time.perf_counter() - t1


def measure_setup(workload: str, work: Path) -> tuple[list[float], list[float]]:
    """Raw and calibrated set-up seconds of ``SETUP_RUNS`` fresh interpreters."""
    from reference import REF_MS, reference_ms

    raw, calibrated = [], []
    for _ in range(SETUP_RUNS):
        ref_before = reference_ms()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-child", "--workload", workload,
             "--work", str(work)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
        seconds = float(proc.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        calibrated.append(seconds * REF_MS / min(ref_before, reference_ms()))
    return raw, calibrated


class Phase:
    """Per-unit run times and check results of one measuring phase."""

    def __init__(self):
        self.raw: dict[str, list[float]] = {}    # wall seconds
        self.times: dict[str, list[float]] = {}  # calibrated seconds
        self.attempted = 0
        self.failed = 0


def run_phase(workload, units, seconds, golden, first, failures) -> Phase:
    """Run the units over and over for ``seconds`` (at least one pass).

    The first pass runs the units in their order, every later pass in a
    fixed shuffled order, so that a disturbance of the host that recurs
    about once a pass does not always land on the same units.  The
    reference job runs between every two units; each unit's time is
    calibrated by the lower of the reference times just before and after
    it, so one reference run slowed by a passing disturbance is ignored.
    """
    from reference import REF_MS, reference_ms

    phase = Phase()
    t_end = time.perf_counter() + seconds
    passes = 0
    order = list(units)
    ref_before = reference_ms()
    while True:
        if passes:
            random.Random(passes).shuffle(order)
        for unit in order:
            if passes and time.perf_counter() >= t_end:
                return phase
            t0 = time.perf_counter()
            try:
                out = unit.run()
            except Exception as exc:  # an op that raises is a failed op
                dt = time.perf_counter() - t0
                bad, why = unit.ops, f"raised {exc!r}"
            else:
                dt = time.perf_counter() - t0
                rec = unit.collect(out)
                bad, why = workload.check(unit, rec, golden.get(unit.key))
                if not bad and first.setdefault(unit.key, rec) != rec:
                    bad, why = unit.ops, f"differs from its first run: {rec} vs {first[unit.key]}"
            ref_after = reference_ms()
            phase.raw.setdefault(unit.key, []).append(dt)
            phase.times.setdefault(unit.key, []).append(dt * REF_MS / min(ref_before, ref_after))
            ref_before = ref_after
            phase.attempted += unit.ops
            phase.failed += bad
            if bad:
                failures.setdefault(unit.key, why)
        passes += 1


def per_op_ms(units, times) -> list[float]:
    """Each op's typical latency: its unit's typical time over the unit's ops.

    A unit's typical time is the lower quartile of its times: a
    disturbance of the host only ever slows a run down, and the quartile
    stays near the undisturbed time while a quarter of the runs lie below
    it.
    """
    import numpy as np

    return [float(np.percentile(times[u.key], 25)) * 1e3 / u.ops
            for u in units for _ in range(u.ops)]


def end_to_end(units, phase, times, setup) -> dict[str, float]:
    import numpy as np

    typical = per_op_ms(units, times)
    p50, p90 = np.percentile(typical, [50, 90])
    passed = 1.0 - phase.failed / phase.attempted
    return {
        "ops_per_s": passed * 1e3 * len(typical) / sum(typical),
        "op_ms_p50": float(p50),
        "op_ms_p90": float(p90),
        "setup_s": statistics.median(setup),
    }


def per_layer(names, tracer, units, untraced, traced) -> dict[str, float]:
    ops = traced.attempted
    extra = {
        "trace.op_ms": sum(map(sum, traced.raw.values())) * 1e3 / ops,
        "trace.self_sum_ms": tracer.self_sum_ns() / 1e6 / ops,
        "trace.overhead_ms": statistics.mean(per_op_ms(units, traced.times))
        - statistics.mean(per_op_ms(units, untraced.times)),
    }
    return {n: extra[n] if n in extra else tracer.metric(n, ops) for n in names}


def git_sha():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def load_golden(workload: str, seed: int) -> dict:
    """Golden records of the workload if ``seed`` is the recorded seed."""
    if not GOLDEN.is_file():
        return {}
    obj = json.loads(GOLDEN.read_text())
    return obj["workloads"].get(workload, {}) if obj["seed"] == seed else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qnetid" / "__init__.py").is_file():
        print(f"error: no qnetid sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        print(setup_child(args.workload, Path(args.work)))
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload.warmup_inputs(work)
        if not args.trace:
            setup_raw, setup = measure_setup(args.workload, work)
        workload.warmup(work)
        units = workload.units(args.seed, work)
        golden = load_golden(args.workload, args.seed)
        first, failures = {}, {}
        if args.trace:
            from spans import Tracer

            untraced = run_phase(workload, units, args.seconds / 2, golden, first, failures)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, units, args.seconds / 2, golden, first, failures)
            finally:
                tracer.uninstall()
            names = [m["name"] for m in metric_specs]
            values = per_layer(names, tracer, units, untraced, traced)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
        else:
            phase = run_phase(workload, units, args.seconds, golden, first, failures)
            values = end_to_end(units, phase, phase.times, setup)
            wall_clock = end_to_end(units, phase, phase.raw, setup_raw)
            attempted, failed = phase.attempted, phase.failed
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: golden records "
          f"{'checked' if golden else 'not recorded for this seed; invariants checked'}")
    for key, why in list(failures.items())[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {key}: {why}")
    print(f"attempted {attempted} failed {failed} failed_frac {failed / attempted:.6g}")
    if not args.trace:
        print("not calibrated: " + " ".join(f"{k} {v:.6g}" for k, v in wall_clock.items()))
    metrics = {}
    for m in metric_specs:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<44} {value:14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
