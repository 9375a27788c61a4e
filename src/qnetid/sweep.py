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
networks: each network is drawn once per row and its Hamiltonian
decomposed once.  No trajectory is sampled: the trapezoid integral P at
every subsample divisor and the endpoint state behind Q come in closed
form from that one eigendecomposition (``dynamics.trapezoid_grams``),
equal to what sampling the trajectory and summing it would give.  The
result keeps every trial's label and error next to the cell records
they aggregate to.  The CSV's columns are ``CellRecord``'s fields, read
back as their types, and its JSON preamble holds ``asdict`` of the config.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from .identify import build_Q, solve_commutator
from .linalg import spectral_norm
from .netmodel import basis_density, connected_erdos_renyi, derive_seed
from .dynamics import sample_times, trapezoid_grams


class ConfigError(ValueError):
    """Invalid sweep configuration; message lists every violation."""


def _fits(value, default) -> bool:
    """Whether a parsed JSON value has the type of a field's default: an
    integer is also a float, a boolean is neither, and a tuple field takes
    a list or tuple of its elements' type."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    return isinstance(value, int) or isinstance(value, type(default))


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
    real_coupling: bool = True

    def __post_init__(self):
        # the element values are kept: derive_seed hashes repr(tau)
        object.__setattr__(self, "taus", tuple(self.taus))
        object.__setattr__(self, "subsamples", tuple(self.subsamples))

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
        if not 0.0 < self.p_link <= 1.0:
            errors.append(f"p_link must be in (0, 1], got {self.p_link}: "
                          "sweeps draw connected graphs, and none is connected at 0")
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
        return errors

    def validated(self) -> "SweepConfig":
        errors = self.validate()
        if errors:
            raise ConfigError("invalid sweep configuration:\n  " + "\n  ".join(errors))
        return self

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SweepConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"a sweep config is a JSON object, got {type(obj).__name__} "
                              f"{json.dumps(obj)[:60]}")
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        wrong = [f"{key} = {json.dumps(value)} (default {json.dumps(getattr(cls, key))})"
                 for key, value in obj.items() if not _fits(value, getattr(cls, key))]
        if wrong:
            raise ConfigError(f"config values of the wrong type: {'; '.join(wrong)}")
        if "taus" in obj:
            obj = {**obj, "taus": [float(t) for t in obj["taus"]]}
        return cls(**obj)

    def override(self, **kwargs) -> "SweepConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


@dataclass(frozen=True)
class CellRecord:
    """One cell of a sweep; its fields, in order, are the CSV columns."""

    d: int
    tau: float
    n_tilde: int
    trials: int
    solvability_mean: float
    eps_median: float | None
    eps_q1: float | None
    eps_q3: float | None
    seed: int


CSV_HEADER = ",".join(f.name for f in fields(CellRecord))


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

    Draws an Erdos-Renyi graph, resampled until connected, and a
    uniformly chosen excited node from ``trial_seed``; returns
    (adjacency, initial basis-state density).
    """
    rng = np.random.default_rng(trial_seed)
    adjacency = connected_erdos_renyi(d, cfg.p_link, rng)
    node = int(rng.integers(1, d + 1))
    return adjacency, basis_density(d, node)


def run_benchmark_trial(
    d: int,
    tau: float,
    subsamples: Sequence[int],
    trial_seed: int,
    cfg: SweepConfig,
) -> list[tuple[int, float | None]]:
    """One seeded network draw, identified at every divisor.

    The network is drawn and its Hamiltonian decomposed once
    (``trapezoid_grams``): that gives the state at tau, hence Q, and the
    trapezoid P of every divisor of ``subsamples`` in closed form, the
    values that sampling the trajectory on the ``cfg.dt`` grid and
    applying ``build_P_trapezoid`` would give, without the samples.  The
    ground truth's norm is also computed once.  Each P is solved as
    ``identify_topology`` would.  Returns one (solvability label,
    relative error or None) per divisor, in the given order.  The error
    is reported only for solvable trials with a nonzero ground truth.
    """
    adjacency, rho0 = benchmark_network(d, trial_seed, cfg)
    rho_tau, grams = trapezoid_grams(
        adjacency.astype(complex), rho0, tau, cfg.dt, subsamples, cfg.hbar
    )
    q = build_Q(rho0, rho_tau, hbar=cfg.hbar)
    scale = spectral_norm(adjacency)
    out = []
    for p in grams:
        report = solve_commutator(p, q, rtol=cfg.rtol, real_coupling=cfg.real_coupling)
        label = report.solvability
        eps = None
        if label == 1 and scale > 0.0:
            eps = spectral_norm(report.m_hat - adjacency) / scale
        out.append((label, eps))
    return out


def _quartiles(values: list[float]) -> tuple[float | None, float | None, float | None]:
    """(median, q1, q3), the order of CellRecord's eps fields; None if empty."""
    if not values:
        return None, None, None
    q1, med, q3 = np.percentile(np.asarray(values), [25.0, 50.0, 75.0])
    return float(med), float(q1), float(q3)


def _run_row(cfg: SweepConfig, d: int, tau: float) -> tuple[list[CellRecord], list[TrialRecord]]:
    """The records and trials of every subsample divisor at (d, tau),
    divisors descending.

    The trial seeds are independent of n~, so each trial's network is
    drawn and decomposed once and identified at every divisor.
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
        mean = float(np.mean([t.solvability for t in cell]))
        eps = _quartiles([t.epsilon for t in cell if t.epsilon is not None])
        records.append(CellRecord(d, tau, n_tilde, cfg.trials, mean, *eps, cfg.seed))
        trials.extend(cell)
    return records, trials


def _record_row(rec: CellRecord) -> str:
    """``str`` of each field (a float's ``repr``), empty for None."""
    return ",".join("" if v is None else str(v) for v in astuple(rec))


def run_sweep(cfg: SweepConfig, kind: str = "solvability", out_csv=None) -> SweepResult:
    """Run every (d, tau, subsample) cell; optionally stream rows to CSV.

    Solvability and error sweeps compute the same records: ``kind``
    ('solvability' or 'error') only names the sweep in the result and in
    the CSV's one-line JSON preamble, which also records the config.  The
    CSV is flushed after each (d, tau) row of cells, so a failing later
    row leaves a valid partial CSV behind.
    """
    cfg = cfg.validated()
    result = SweepResult(kind=kind, config=cfg)
    with (nullcontext() if out_csv is None else open(out_csv, "w", newline="")) as fh:
        if fh is not None:
            preamble = json.dumps({"kind": kind, "config": cfg.to_json()}, sort_keys=True)
            fh.write(f"# {preamble}\n{CSV_HEADER}\n")
            fh.flush()
        for d in cfg.d_values:
            for tau in cfg.taus:
                records, trials = _run_row(cfg, d, tau)
                result.records.extend(records)
                result.trials.extend(trials)
                if fh is not None:
                    fh.writelines(_record_row(rec) + "\n" for rec in records)
                    fh.flush()
    return result


def read_sweep_csv(path) -> list[dict]:
    """Parse a sweep CSV back into row dictionaries: ``CellRecord``'s
    ``int`` fields as int, the others as float, an empty field as None.
    Every error names the file and the line."""
    types = {f.name: int if f.type == "int" else float for f in fields(CellRecord)}
    rows, header = [], False
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if not header:
                    if line != CSV_HEADER:
                        raise ValueError(f"unexpected sweep CSV header: {line!r}")
                    header = True
                    continue
                parts = line.split(",")
                if len(parts) != len(types):
                    raise ValueError(f"malformed sweep CSV row: {line!r}")
                rows.append({key: None if val == "" else kind(val)
                             for (key, kind), val in zip(types.items(), parts)})
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
    if not header:
        raise ValueError(f"{path} contains no CSV header")
    return rows
