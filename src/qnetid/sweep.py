"""Benchmark sweeps over random quantum-walk networks.

For every cell (d, tau, n~) the harness draws ``trials`` independent
Erdos-Renyi graphs with a uniformly chosen single-node excitation, runs
the full-information identification pipeline, and aggregates the mean
solvability label and the quartiles of the relative reconstruction
error over solvable trials.  Per-trial seeds are derived from the master
seed and (d, tau, trial), so any cell (and any single trial) is
reproducible in isolation and cells can run in any order without
changing a single record.

The seeds ignore n~, so the cells of one (d, tau) row share their
networks: each network is drawn and simulated once per row and its one
trajectory is identified at every subsample divisor.  The result keeps
every trial's label and error next to the cell records they aggregate
to.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .identify import build_P_trapezoid, build_Q, solve_commutator
from .linalg import spectral_norm
from .netmodel import basis_density, derive_seed, erdos_renyi, is_connected
from .dynamics import sample_times, sample_trajectory

CSV_HEADER = "d,tau,n_tilde,trials,solvability_mean,eps_median,eps_q1,eps_q3,wall_ms,seed"

#: resampling cap when conditioning on connected graphs
MAX_CONNECTED_DRAWS = 100_000


class ConfigError(ValueError):
    """Invalid sweep configuration; message lists every violation."""


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters.  ``validate`` reports all violations at once."""

    seed: int = 0
    d_min: int = 2
    d_max: int = 12
    p_link: float = 0.5
    taus: tuple[float, ...] = (3.0,)
    dt: float = 0.01
    subsamples: tuple[int, ...] = (20, 10, 5, 1)
    trials: int = 100
    hbar: float = 1.0
    rtol: float = 1e-9
    label_rtol: float | None = None
    connected_only: bool = True
    real_coupling: bool = True

    def n_samples(self, tau: float) -> int:
        return int(round(tau / self.dt))

    @property
    def d_values(self) -> list[int]:
        return list(range(self.d_min, self.d_max + 1))

    def validate(self) -> list[str]:
        errors = []
        if self.d_min < 2:
            errors.append(f"d_min must be >= 2, got {self.d_min}")
        if self.d_max < self.d_min:
            errors.append(f"d_max {self.d_max} is below d_min {self.d_min}")
        if not 0.0 <= self.p_link <= 1.0:
            errors.append(f"p_link must be in [0, 1], got {self.p_link}")
        if self.connected_only and self.p_link == 0.0:
            errors.append("connected_only is impossible with p_link = 0")
        if not self.taus:
            errors.append("at least one tau is required")
        if self.dt <= 0:
            errors.append(f"dt must be positive, got {self.dt}")
        for tau in self.taus:
            if tau <= 0:
                errors.append(f"tau must be positive, got {tau}")
                continue
            if self.dt > 0:
                try:
                    n = len(sample_times(tau, self.dt)) - 1
                except ValueError:
                    errors.append(f"dt {self.dt} does not divide tau {tau}")
                    continue
                for sub in self.subsamples:
                    if sub >= 1 and n % sub != 0:
                        errors.append(f"subsample {sub} does not divide n_s = {n} (tau = {tau})")
        if not self.subsamples:
            errors.append("at least one subsample divisor is required")
        if any(s < 1 for s in self.subsamples):
            errors.append("subsample divisors must be positive")
        if self.trials < 1:
            errors.append(f"trials must be >= 1, got {self.trials}")
        if self.hbar <= 0:
            errors.append(f"hbar must be positive, got {self.hbar}")
        if self.rtol <= 0:
            errors.append(f"rtol must be positive, got {self.rtol}")
        if self.label_rtol is not None and self.label_rtol <= 0:
            errors.append(f"label_rtol must be positive when given, got {self.label_rtol}")
        return errors

    def validated(self) -> "SweepConfig":
        errors = self.validate()
        if errors:
            raise ConfigError("invalid sweep configuration:\n  " + "\n  ".join(errors))
        return self

    def to_json(self) -> dict:
        obj = asdict(self)
        obj["taus"] = list(self.taus)
        obj["subsamples"] = list(self.subsamples)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SweepConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(obj)
        if "taus" in kwargs:
            kwargs["taus"] = tuple(float(t) for t in kwargs["taus"])
        if "subsamples" in kwargs:
            kwargs["subsamples"] = tuple(int(s) for s in kwargs["subsamples"])
        return cls(**kwargs)

    def override(self, **kwargs) -> "SweepConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        if "taus" in kwargs:
            kwargs["taus"] = tuple(kwargs["taus"])
        if "subsamples" in kwargs:
            kwargs["subsamples"] = tuple(kwargs["subsamples"])
        return replace(self, **kwargs)


@dataclass(frozen=True)
class CellRecord:
    d: int
    tau: float
    n_tilde: int
    trials: int
    solvability_mean: float
    eps_median: float | None
    eps_q1: float | None
    eps_q3: float | None
    wall_ms: int
    seed: int


@dataclass(frozen=True)
class TrialRecord:
    """One trial of one cell: its trial seed, label and error (None
    unless solvable with a nonzero ground truth)."""

    d: int
    tau: float
    n_tilde: int
    trial: int
    seed: int
    solvability: int
    epsilon: float | None


@dataclass
class SweepResult:
    """Cell records in CSV row order, and the trials of each cell in
    the same order, trial by trial."""

    kind: str
    config: SweepConfig
    records: list[CellRecord] = field(default_factory=list)
    trials: list[TrialRecord] = field(default_factory=list)

    def critical_sizes(self) -> dict[str, dict]:
        """Per-(tau, n~) estimates of where solvability breaks down.

        ``last_full_d`` is the largest d with mean solvability exactly 1;
        ``first_zero_d`` the smallest d where it hits 0 (None if never).
        Both are reported because the transition itself is the only
        well-defined object.
        """
        out: dict[str, dict] = {}
        curves: dict[tuple[float, int], list[CellRecord]] = {}
        for rec in self.records:
            curves.setdefault((rec.tau, rec.n_tilde), []).append(rec)
        for (tau, n_tilde), recs in sorted(curves.items()):
            recs = sorted(recs, key=lambda r: r.d)
            full = [r.d for r in recs if r.solvability_mean == 1.0]
            zero = [r.d for r in recs if r.solvability_mean == 0.0]
            out[f"tau={tau:g},n_tilde={n_tilde}"] = {
                "last_full_d": max(full) if full else None,
                "first_zero_d": min(zero) if zero else None,
            }
        return out


def benchmark_network(d: int, trial_seed: int, cfg: SweepConfig) -> tuple[np.ndarray, np.ndarray]:
    """The seeded network of one benchmark trial.

    Draws an Erdos-Renyi graph (resampled until connected when
    ``cfg.connected_only``) and a uniformly chosen excited node from
    ``trial_seed``; returns (adjacency, initial basis-state density).
    """
    rng = np.random.default_rng(trial_seed)
    adjacency = erdos_renyi(d, cfg.p_link, rng)
    if cfg.connected_only:
        draws = 1
        while not is_connected(adjacency):
            draws += 1
            if draws > MAX_CONNECTED_DRAWS:
                raise RuntimeError(
                    f"no connected graph after {MAX_CONNECTED_DRAWS} draws "
                    f"(d={d}, p_link={cfg.p_link})"
                )
            adjacency = erdos_renyi(d, cfg.p_link, rng)
    node = int(rng.integers(1, d + 1))
    return adjacency, basis_density(d, node)


def run_benchmark_trial(
    d: int,
    tau: float,
    subsamples: Sequence[int],
    trial_seed: int,
    cfg: SweepConfig,
) -> list[tuple[int, float | None]]:
    """One seeded network draw and simulation, identified at every divisor.

    The network is drawn and simulated once, and Q (from the trajectory's
    endpoints) and the ground truth's norm are computed once; the
    trajectory is then identified at each divisor of ``subsamples``, as
    ``identify_topology`` would.  Returns one (solvability label,
    relative error or None) per divisor, in the given order.  The error
    is reported only for solvable trials with a nonzero ground truth.
    """
    adjacency, rho0 = benchmark_network(d, trial_seed, cfg)
    traj = sample_trajectory(adjacency.astype(complex), rho0, tau, cfg.dt, cfg.hbar)
    q = build_Q(traj.states[0], traj.states[-1], hbar=cfg.hbar)
    scale = spectral_norm(adjacency)
    out = []
    for subsample in subsamples:
        report = solve_commutator(
            build_P_trapezoid(traj, subsample=subsample),
            q,
            rtol=cfg.rtol,
            real_coupling=cfg.real_coupling,
            label_rtol=cfg.label_rtol,
        )
        label = report.solvability
        eps = None
        if label == 1 and scale > 0.0:
            eps = spectral_norm(report.m_hat - adjacency) / scale
        out.append((label, eps))
    return out


def _quartiles(values: list[float]) -> tuple[float | None, float | None, float | None]:
    if not values:
        return None, None, None
    q1, med, q3 = np.percentile(np.asarray(values), [25.0, 50.0, 75.0])
    return float(med), float(q1), float(q3)


def _run_row(cfg: SweepConfig, d: int, tau: float) -> tuple[list[CellRecord], list[TrialRecord]]:
    """The records and trials of every subsample divisor at (d, tau),
    divisors descending.

    The trial seeds are independent of n~, so each trial's network is
    drawn and simulated once and identified at every divisor.
    """
    subsamples = sorted(cfg.subsamples, reverse=True)
    seeds = [derive_seed(cfg.seed, d, tau, trial) for trial in range(cfg.trials)]
    outcomes = [run_benchmark_trial(d, tau, subsamples, seed, cfg) for seed in seeds]
    records, trials = [], []
    for i, subsample in enumerate(subsamples):
        n_tilde = cfg.n_samples(tau) // subsample
        cell = [
            TrialRecord(d, tau, n_tilde, trial, seed, *outcome[i])
            for trial, (seed, outcome) in enumerate(zip(seeds, outcomes))
        ]
        med, q1, q3 = _quartiles([t.epsilon for t in cell if t.epsilon is not None])
        records.append(
            CellRecord(
                d=d,
                tau=tau,
                n_tilde=n_tilde,
                trials=cfg.trials,
                solvability_mean=float(np.mean([t.solvability for t in cell])),
                eps_median=med,
                eps_q1=q1,
                eps_q3=q3,
                wall_ms=0,
                seed=cfg.seed,
            )
        )
        trials.extend(cell)
    return records, trials


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _record_row(rec: CellRecord) -> str:
    return ",".join(
        _fmt(v)
        for v in (
            rec.d,
            rec.tau,
            rec.n_tilde,
            rec.trials,
            rec.solvability_mean,
            rec.eps_median,
            rec.eps_q1,
            rec.eps_q3,
            rec.wall_ms,
            rec.seed,
        )
    )


def run_sweep(cfg: SweepConfig, kind: str = "solvability", out_csv=None) -> SweepResult:
    """Run every (d, tau, subsample) cell; optionally stream rows to CSV.

    Solvability and error sweeps compute the same records: ``kind``
    ('solvability' or 'error') only names the sweep in the result and in
    the CSV's one-line JSON preamble, which also records the config.  The
    CSV is flushed after each (d, tau) row of cells, so a failing later
    row leaves a valid partial CSV behind.  Its ``wall_ms`` column is
    always 0, which keeps the file byte-reproducible.
    """
    cfg = cfg.validated()
    result = SweepResult(kind=kind, config=cfg)
    fh = None
    if out_csv is not None:
        fh = open(out_csv, "w", newline="")
        preamble = json.dumps({"kind": kind, "config": cfg.to_json()}, sort_keys=True)
        fh.write(f"# {preamble}\n")
        fh.write(CSV_HEADER + "\n")
        fh.flush()
    try:
        for d in cfg.d_values:
            for tau in cfg.taus:
                records, trials = _run_row(cfg, d, tau)
                result.records.extend(records)
                result.trials.extend(trials)
                if fh is not None:
                    fh.writelines(_record_row(rec) + "\n" for rec in records)
                    fh.flush()
    finally:
        if fh is not None:
            fh.close()
    return result


def read_sweep_csv(path) -> list[dict]:
    """Parse a sweep CSV back into row dictionaries (floats or None)."""
    path = Path(path)
    rows = []
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                if header != CSV_HEADER.split(","):
                    raise ValueError(f"unexpected sweep CSV header: {line!r}")
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValueError(f"malformed sweep CSV row: {line!r}")
            row: dict = {}
            for key, val in zip(header, parts):
                if val == "":
                    row[key] = None
                elif key in ("d", "n_tilde", "trials", "wall_ms", "seed"):
                    row[key] = int(val)
                else:
                    row[key] = float(val)
            rows.append(row)
    if header is None:
        raise ValueError(f"{path} contains no CSV header")
    return rows
