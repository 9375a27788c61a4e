"""The benchmark's workloads: units of work, warm-up calls and output checks.

A workload is a fixed list of *units*; one unit is one call into qnetid
(a ``run_sweep`` over one (d, tau) row, or one CLI call) that performs
``ops`` ops.  Every call goes through a module attribute
(``qnetid.sweep.run_sweep``, ``qnetid.cli.main``) so that the tracer's
wrappers, when installed, see it.

Checks: a unit's record must match its golden record when the seed is
the recorded one, must satisfy the workload's invariants on any seed,
and must equal the record of the unit's first run in the same process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import qnetid.cli
import qnetid.sweep

import inputs

EPS_RTOL = 1e-9
HAM_ERR_BOUND = {"exact": 1e-8, "estimate": 1e-2}
SWEEP_FIELDS = ("d", "tau", "n_tilde", "solvability_mean", "eps_median", "eps_q1", "eps_q3")


@dataclass
class Unit:
    key: str
    ops: int
    run: Callable[[], object]                   # timed
    collect: Callable[[object], dict] = field(default=lambda out: out)  # untimed


def _close(a, b, rtol=EPS_RTOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rtol * abs(b)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class SweepWorkload:
    """``run_sweep`` over a grid, one unit per (tau, d) with every divisor."""

    def __init__(self, name, grid, subsamples, trials):
        self.name = name
        self.grid = grid                  # ((tau, d_values), ...)
        self.subsamples = subsamples
        self.trials = trials

    @staticmethod
    def _config(seed, tau, d, subsamples, trials):
        """Real-coupling class (the SweepConfig default), p_link 0.5, dt 0.01."""
        return qnetid.sweep.SweepConfig(seed=seed, d_min=d, d_max=d, taus=(tau,),
                                        subsamples=subsamples, trials=trials)

    @staticmethod
    def _sweep(cfg):
        result = qnetid.sweep.run_sweep(cfg, kind="error")
        return [{f: getattr(r, f) for f in SWEEP_FIELDS} for r in result.records]

    def units(self, seed, work: Path) -> list[Unit]:
        out = []
        for tau, d_values in self.grid:
            for d in d_values:
                key = f"tau={tau:g},d={d}"
                cfg = self._config(seed, tau, d, self.subsamples, self.trials)
                out.append(Unit(key, len(self.subsamples) * self.trials,
                                partial(self._sweep, cfg)))
        return out

    def warmup_inputs(self, work: Path) -> None:
        pass

    def warmup(self, work: Path) -> None:
        self._sweep(self._config(0, 1.0, 3, (20, 1), 2))

    def check(self, unit: Unit, records, golden) -> tuple[int, str | None]:
        """Failed ops and a reason; a differing cell fails all its trials."""
        if golden is not None and len(golden) != len(records):
            return unit.ops, f"{len(records)} cells, golden has {len(golden)}"
        failed, reason = 0, None
        for i, rec in enumerate(records):
            why = self._cell_problem(rec)
            if why is None and golden is not None:
                ref = golden[i]
                if rec["solvability_mean"] != ref["solvability_mean"] or not all(
                    _close(rec[f], ref[f]) for f in ("eps_median", "eps_q1", "eps_q3")
                ):
                    why = f"cell n_tilde={rec['n_tilde']} differs from golden {ref}: {rec}"
            if why is not None:
                failed += self.trials
                reason = reason or why
        return failed, reason

    def _cell_problem(self, rec) -> str | None:
        mean = rec["solvability_mean"]
        solvable = mean * self.trials
        if not (0.0 <= mean <= 1.0 and abs(solvable - round(solvable)) < 1e-9):
            return f"solvability_mean {mean} is not a mean of 0/1 labels"
        eps = [rec[f] for f in ("eps_q1", "eps_median", "eps_q3")]
        if mean == 0.0:
            return None if eps == [None] * 3 else f"eps {eps} without a solvable trial"
        if not all(_finite(e) and e >= 0.0 for e in eps) or not eps[0] <= eps[1] <= eps[2]:
            return f"eps quartiles {eps} are not finite and ordered"
        return None


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def _cli(argv):
    """One in-process CLI call; returns (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = qnetid.cli.main(argv)
    return rc, err.getvalue()


def _failure(out) -> dict:
    rc, err = out
    lines = err.strip().splitlines()
    return {"rc": rc, "error": lines[-1] if lines else ""}


class IdentifyWorkload:
    """``qnetid identify --general-coupling`` on mixed-state trajectory CSVs."""

    name = "identify-full"

    def _unit(self, key, traj, truth, report):
        argv = ["identify", "--trajectory", str(traj), "--truth", str(truth),
                "--general-coupling", "--out", str(report)]
        return Unit(key, 1, partial(_cli, argv), partial(self._collect, report))

    @staticmethod
    def _collect(report: Path, out) -> dict:
        if out[0] != 0:
            return _failure(out)
        obj = json.loads(report.read_text())
        return {"rc": 0, "solvability": obj["solvability"],
                "label_rank": obj["parameters"]["label_rank"],
                "epsilon": obj["epsilon"], "outcome": obj["outcome"]}

    def units(self, seed, work: Path) -> list[Unit]:
        pairs = inputs.make_identify_inputs(seed, work / "inputs")
        return [self._unit(traj.stem, traj, truth, work / "report.json") for traj, truth in pairs]

    def warmup_inputs(self, work: Path) -> None:
        inputs.make_identify_inputs(0, work / "warmup", files=1, d=3)

    def warmup(self, work: Path) -> None:
        w = work / "warmup"
        self._unit("warmup", w / "traj_00.csv", w / "truth_00.json", w / "report.json").run()

    def check(self, unit: Unit, rec, golden) -> tuple[int, str | None]:
        if rec["rc"] != 0:
            return 1, f"exit {rec['rc']}: {rec['error']}"
        if rec["solvability"] not in (0, 1) or not _finite(rec["epsilon"]):
            return 1, f"labels/epsilon out of range: {rec}"
        if golden is not None and not (
            rec["solvability"] == golden["solvability"]
            and rec["label_rank"] == golden["label_rank"]
            and _close(rec["epsilon"], golden["epsilon"])
        ):
            return 1, f"differs from golden {golden}: {rec}"
        return 0, None


class PartialWorkload:
    """``qnetid partial-identify`` on random Hamiltonians, one op per call."""

    def __init__(self, name, cases):
        self.name = name
        self.cases = cases

    @staticmethod
    def _unit(key, mode, path, summary):
        argv = ["partial-identify", "--hamiltonian", str(path), "--out", str(summary)]
        if mode == "estimate":
            argv.append("--estimate")
        return Unit(key, 1, partial(_cli, argv),
                    partial(PartialWorkload._collect, mode, summary))

    @staticmethod
    def _collect(mode, summary: Path, out) -> dict:
        if out[0] != 0:
            return dict(_failure(out), mode=mode)
        obj = json.loads(summary.read_text())
        return {"rc": 0, "mode": mode, "ham_err": obj["hamiltonian_relative_error"]}

    def units(self, seed, work: Path) -> list[Unit]:
        items = inputs.make_partial_inputs(seed, work / "inputs", self.cases)
        return [self._unit(path.stem, mode, path, work / "summary.json")
                for mode, _d, path in items]

    def warmup_inputs(self, work: Path) -> None:
        inputs.make_partial_inputs(0, work / "warmup", (("exact", 2),), per_case=1)

    def warmup(self, work: Path) -> None:
        w = work / "warmup"
        self._unit("warmup", "exact", w / "h_exact_2_00.json", w / "summary.json").run()

    def check(self, unit: Unit, rec, golden) -> tuple[int, str | None]:
        if rec["rc"] != 0:
            return 1, f"exit {rec['rc']}: {rec['error']}"
        bound = HAM_ERR_BOUND[rec["mode"]]
        if not (_finite(rec["ham_err"]) and rec["ham_err"] <= bound):
            return 1, f"hamiltonian error {rec['ham_err']} above {bound:g}"
        return 0, None


WORKLOADS = {
    w.name: w
    for w in (
        # trials per cell are set so that every unit repeats about 7 times
        # in a 25 s run: the unit medians then hold against host noise
        SweepWorkload("err-grid", ((1.0, range(2, 9)), (2.0, range(2, 13))), (20, 10, 5, 1), 10),
        SweepWorkload("transition", ((3.0, range(28, 31)),), (5,), 5),
        IdentifyWorkload(),
        PartialWorkload("partial-info", inputs.PARTIAL_CASES),
        # not in BENCHMARK.json: the partial-info cases that fail at the
        # recorded commit, run to list the failures and their causes
        PartialWorkload("partial-census", inputs.PARTIAL_CENSUS_CASES),
    )
}
