"""Benchmark sweeps over random quantum-walk networks.

For every cell (d, tau, n~) the harness draws ``trials`` independent
Erdos-Renyi graphs with a uniformly chosen single-node excitation,
identifies each, and aggregates the mean solvability label and the
quartiles of the relative error over solvable trials.  Trial seeds
derive from the master seed and (d, tau, trial), so any cell or trial is
reproducible in isolation, in any order.  They ignore n~: the cells of a
(d, tau) row share their networks, each decomposed once, with P at every
divisor and the state behind Q in closed form (``trapezoid_grams``),
equal to what sampling the trajectory and summing it would give.

A row runs as blocks of trials, each one stacked computation: one
batched eigh, one stacked realified system, one gelsd call per system
but those a values-only SVD labels 0 first (``run_benchmark_trials``),
one stacked norm.  One memory rule sizes the blocks: those in flight
hold at most ``SOLVE_BYTES`` of realified systems (trials x divisors) over
all workers, and each at least one trial.  A sweep holds numpy's OpenBLAS
at one thread and then restores it; from d = 6 on its blocks run on one
pool of forked processes kept until exit, one per core (more than 2 cores
are untested), or serially under another BLAS or in a process running
other threads.  The outputs are the bytes of solving each system on its
own.  The result keeps every trial's label and error next to its cell
record; the CSV's columns are ``CellRecord``'s fields, its JSON preamble
``asdict`` of the config.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from functools import partial

import numpy as np

from .identify import _label_rtol, build_Q, relative_error, solve_stack
from .linalg import (ConfigError, check_positive, is_finite, is_integer, naming, numerical_rank,
                     one_blas_thread, shown_number)
from .netmodel import basis_density, connected_erdos_renyi, derive_seed
from .dynamics import check_subsample, grid_intervals, trapezoid_grams

#: bytes of realified systems (8 d^2 n each, n parameters) a row holds in flight over
#: its workers: the 3 MB of 40 real-class systems at d = 12 (at d = 30 one fits)
SOLVE_BYTES = 3 * 2**20
#: rows from this size on run on the trial pool (``_trial_workers``)
PROCESS_D = 6
_pools = {}  # os.getpid() -> the trial pool that process forked: a child never uses its parent's
_exit_hook = None  # _end_pool once registered with atexit, by the process's first pool


def _fits(value, default) -> bool:
    """The one type rule of a config field: the value has the type of the
    field's default, where an integer is also a float, a boolean is
    neither, and a tuple field takes a list or tuple of its elements' type."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    return isinstance(value, int) or isinstance(value, type(default))


def _kind(default) -> str:
    """What ``_fits`` takes for a field with this default, in words."""
    if isinstance(default, tuple):
        return "a list of " + ("integers" if isinstance(default[0], int) else "numbers")
    return {bool: "true or false", int: "an integer", float: "a number"}[type(default)]


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters, the one declaration of a sweep: ``qnetid sweep``
    has a flag per field, typed by its default, and ``validate`` reports
    all violations at once."""

    seed: int = 0
    d_min: int = 2
    d_max: int = 12
    p_link: float = 0.5
    taus: tuple[float, ...] = (3.0,)
    dt: float = 0.01
    subsamples: tuple[int, ...] = (20, 10, 5, 1)
    trials: int = 100
    real_coupling: bool = True

    def __post_init__(self):
        # the one normalisation of every route (library, JSON, flags), as derive_seed
        # hashes repr(tau): numpy scalars and arrays become Python numbers, lists
        # tuples, and a finite integer in a float field or in taus a float; any
        # other value stays for validate to name
        def plain(value, default):
            value = value.tolist() if isinstance(value, (np.generic, np.ndarray)) else value
            as_float = isinstance(default, float) and is_integer(value) and is_finite(value)
            return float(value) if as_float else value

        for f in fields(self):
            value = plain(getattr(self, f.name), f.default)
            if isinstance(value, (list, tuple)):
                element = f.default[0] if isinstance(f.default, tuple) else None
                value = tuple(plain(v, element) for v in value)
            object.__setattr__(self, f.name, value)

    @property
    def d_values(self) -> list[int]:
        return list(range(self.d_min, self.d_max + 1))

    def validate(self) -> list[str]:
        """Every violation, once.  A field whose value does not fit its
        default's type (``_fits``) is named, and the checks that read it are
        skipped; the library's checks judge tau, dt and divisors."""
        ok = {f.name: _fits(getattr(self, f.name), f.default) for f in fields(self)}
        errors = [f"{f.name} must be {_kind(f.default)}, got {getattr(self, f.name)!r}"
                  for f in fields(self) if not ok[f.name]]

        def note(check, *args):
            try:
                return check(*args)
            except ConfigError as exc:
                errors.append(str(exc))

        for key, low in (("d_min", 2), ("trials", 1)):
            if ok[key] and getattr(self, key) < low:
                errors.append(f"{key} must be >= {low}, got {getattr(self, key)}")
        if ok["d_min"] and ok["d_max"] and self.d_max < self.d_min:
            errors.append(f"d_max {self.d_max} is below d_min {self.d_min}")
        if ok["d_min"] and ok["d_max"] and self.d_max - self.d_min >= sys.maxsize:
            errors.append("d_max must be below d_min + sys.maxsize, the longest range of d")
        if ok["p_link"] and not 0.0 < self.p_link <= 1.0:
            errors.append(f"p_link must be in (0, 1], got {shown_number(self.p_link)}: "
                          "sweeps draw connected graphs, and none is connected at 0")
        # without a grid, n_s = 0 leaves only each divisor's sign to check
        for n_s in ((note(grid_intervals, tau, self.dt) for tau in self.taus)
                    if ok["taus"] and ok["dt"] else [None]):
            for sub in self.subsamples if ok["subsamples"] else ():
                note(check_subsample, n_s or 0, sub)
        # 1 and 1.0 are one tau: both would label their cells (d, 1, n~)
        for key, name in (("taus", "tau"), ("subsamples", "subsample divisor")):
            values = getattr(self, key) if ok[key] else ()
            if ok[key] and not values:
                errors.append(f"at least one {name} is required")
            errors.extend(f"{name} {value!r} is listed more than once"
                          for value in dict.fromkeys(v for v in values if values.count(v) > 1))
        if ok["dt"]:
            note(check_positive, "dt", self.dt)
        return list(dict.fromkeys(errors))

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
        curves: dict[tuple[float, int], list[CellRecord]] = {}
        for rec in self.records:
            curves.setdefault((rec.tau, rec.n_tilde), []).append(rec)
        return {f"tau={tau:g},n_tilde={n_tilde}": {
            "last_full_d": max((r.d for r in recs if r.solvability_mean == 1.0), default=None),
            "first_zero_d": min((r.d for r in recs if r.solvability_mean == 0.0), default=None),
        } for (tau, n_tilde), recs in sorted(curves.items())}


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


def run_benchmark_trials(d: int, tau: float, subsamples: Sequence[int], trial_seeds: Sequence[int],
                         cfg: SweepConfig) -> list[list[tuple[int, float | None]]]:
    """Seeded network draws, each identified at every divisor, as one
    stacked computation.

    One batch decomposition (``trapezoid_grams``) gives each state at tau,
    hence Q, and the trapezoid P of every divisor, as sampling on the
    ``cfg.dt`` grid and ``build_P_trapezoid`` would.  ``solve_stack``
    labels each of the trials x divisors systems as ``identify_topology``
    would, a values-only SVD first where the trial's finest P has rank
    r < d/2 at the label cut (one batched eigvalsh); one ``relative_error``
    call scores them (a connected network is no zero truth).  Returns per
    trial seed one (solvability label, relative error if solvable, else
    None) per divisor, in the given orders.
    """
    adjacency, rho0 = map(np.stack, zip(*(benchmark_network(d, seed, cfg) for seed in trial_seeds)))
    rho_tau, p = trapezoid_grams(adjacency.astype(complex), rho0, tau, cfg.dt, subsamples)
    q = build_Q(rho0, rho_tau)[:, None]
    finest = p[:, subsamples.index(min(subsamples))]
    r = numerical_rank(np.linalg.eigvalsh(finest)[:, ::-1], _label_rtol(d))
    m_hat, sigma, _, label_rank = solve_stack(p, q, cfg.real_coupling, (d > 2 * r)[:, None])
    errors = relative_error(m_hat, adjacency[:, None])
    return [[(int(ok), e if ok else None) for ok, e in zip(oks, row)]
            for oks, row in zip((label_rank == sigma.shape[-1]).tolist(), errors.tolist())]


def _quartiles(values: list[float]) -> tuple[float | None, float | None, float | None]:
    """(median, q1, q3), the order of CellRecord's eps fields; None if empty.

    numpy's default percentile (Hyndman & Fan type 7) in plain Python, with
    its floating-point operations, so the same bits (a list holding both
    -0.0 and 0.0 may give a zero of the other sign): the virtual index
    (n - 1) q, and its lerp a + (b - a) g, or b - (b - a)(1 - g) from
    g = 1/2.  A cell's ten values take a few us, where ``np.percentile``
    took about 70 us and its first call imported ``numpy.ma``."""
    if not values:
        return None, None, None
    ordered = sorted(values)
    last = len(ordered) - 1
    if not last:  # numpy's lerp at g = 1 returns b whole, where a + 0 would make -0.0 0.0
        return ordered[0], ordered[0], ordered[0]

    def quantile(q: float) -> float:
        index = last * q
        low = int(index)
        a, b = ordered[low], ordered[low + 1]
        g = index - low
        return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)

    return quantile(0.5), quantile(0.25), quantile(0.75)


def _trial_workers(d: int, trials: int, cores: int) -> int:
    """Worker processes for a row at size ``d``, one per core and trial:
    below ``PROCESS_D`` handing blocks over costs about what a second core
    gains.  On 2 cores at 1 BLAS thread the benchmark's err-grid ran faster
    with processes from d = 6 than from d = 8 (README, row execution)."""
    return 1 if d < PROCESS_D else max(1, min(trials, cores))


def _end_pool():
    """Shut down and drop this process's trial pool, if it has one."""
    if os.getpid() in _pools:
        _pools.pop(os.getpid()).shutdown()


def _run_row(cfg: SweepConfig, d: int, tau: float,
             held: bool) -> tuple[list[CellRecord], list[TrialRecord]]:
    """The records and trials of every subsample divisor at (d, tau),
    divisors descending.

    The trial seeds are independent of n~, so each trial's network is
    drawn and decomposed once and identified at every divisor.  The blocks,
    each of at most ``SOLVE_BYTES`` of realified systems over all workers
    (one trial at least) and ceil(trials / workers) trials, so that every
    worker gets one, run on ``_trial_workers`` processes if the sweep
    ``held`` one BLAS thread, and are collected in seed order: the first
    failure in seed order is raised, and the pending blocks are cancelled.
    """
    subsamples = sorted(cfg.subsamples, reverse=True)
    n_s = grid_intervals(tau, cfg.dt)
    seeds = [derive_seed(cfg.seed, d, tau, trial) for trial in range(cfg.trials)]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = _trial_workers(d, cfg.trials, cores or 1) if held else 1
    system = 8 * d * d * d * (d - 1) // (2 if cfg.real_coupling else 1)  # bytes: d^2 x n
    size = min(max(1, SOLVE_BYTES // (system * len(subsamples) * workers)),
               -(-cfg.trials // workers))
    blocks = [seeds[start:start + size] for start in range(0, len(seeds), size)]
    run_block = partial(run_benchmark_trials, d, tau, subsamples, cfg=cfg)
    pooled = min(workers, len(blocks)) > 1
    if pooled and os.getpid() not in _pools and threading.active_count() == 1:
        # forked inside the hold, at one BLAS thread, by one thread (forking a threaded process
        # is deprecated from Python 3.12); one exit hook shuts down whichever pool is current
        from concurrent.futures import ProcessPoolExecutor  # neither import on `import qnetid`
        from multiprocessing import get_context
        global _exit_hook
        _pools[os.getpid()] = ProcessPoolExecutor(cores, mp_context=get_context("fork"))
        _exit_hook = _exit_hook or atexit.register(_end_pool)
    pool = _pools.get(os.getpid()) if pooled else None
    try:
        outcomes = list(map(run_block, blocks) if pool is None else pool.map(run_block, blocks))
    except RuntimeError as exc:  # a broken pool is dropped: the next pooled row forks another
        from concurrent.futures import BrokenExecutor
        if isinstance(exc, BrokenExecutor):
            _end_pool()
        raise
    outcomes = [outcome for block in outcomes for outcome in block]
    records, trials = [], []
    for i, subsample in enumerate(subsamples):
        n_tilde = n_s // subsample
        cell = [
            TrialRecord(d, tau, n_tilde, trial, seed, *outcome[i])
            for trial, (seed, outcome) in enumerate(zip(seeds, outcomes))
        ]
        mean = sum(t.solvability for t in cell) / len(cell)
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
    with (nullcontext() if out_csv is None else open(out_csv, "w", newline="")) as fh, \
            one_blas_thread() as held:
        if fh is not None:
            preamble = json.dumps({"kind": kind, "config": cfg.to_json()}, sort_keys=True)
            fh.write(f"# {preamble}\n{CSV_HEADER}\n")
            fh.flush()
        for d in cfg.d_values:
            for tau in cfg.taus:
                records, trials = _run_row(cfg, d, tau, held)
                result.records.extend(records)
                result.trials.extend(trials)
                if fh is not None:
                    fh.writelines(_record_row(rec) + "\n" for rec in records)
                    fh.flush()
    return result


def read_sweep_csv(path) -> list[dict]:
    """Parse a sweep CSV back into row dictionaries: ``CellRecord``'s
    ``int`` fields as int, the others as float, an empty field as None,
    each finite.  Every error names the file, and the line where there is one."""
    types = {f.name: int if f.type == "int" else float for f in fields(CellRecord)}
    rows, header = [], False
    with naming(path), open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            with naming(f"line {lineno}"):
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
                if not all(is_finite(v) for v in rows[-1].values() if v is not None):
                    raise ValueError(f"non-finite value in sweep CSV row: {line!r}")
    if not header:
        raise ValueError(f"{path} contains no CSV header")
    return rows
