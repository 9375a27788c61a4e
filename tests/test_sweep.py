import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnetid.identify
import qnetid.linalg
import qnetid.sweep
from qnetid.dynamics import sample_times, trapezoid_grams
from qnetid.identify import build_Q, solve_commutator
from qnetid.linalg import spectral_norm
from qnetid.netmodel import derive_seed
from qnetid.partialinfo import (output_stacks, physical_initial_batch, reconstruct_hamiltonian,
                                sampled_propagator)
from qnetid.sweep import (
    CSV_HEADER,
    SOLVE_BYTES,
    CellRecord,
    ConfigError,
    SweepConfig,
    benchmark_network,
    read_sweep_csv,
    run_benchmark_trials,
    run_sweep,
)

from conftest import WorkerLog, random_hermitian, under_each_blas_setting

TINY = SweepConfig(seed=11, d_min=2, d_max=3, taus=(1.0,), subsamples=(1,), trials=4)


def no_trials(log, d, tau, subsamples, seeds, cfg):
    """A stand-in for ``run_benchmark_trials`` that logs its block and
    identifies nothing; module level, so that a worker unpickles it."""
    log.append((d, tau, len(seeds)))
    return [[(0, None)] * len(subsamples) for _ in seeds]


def one_system_route(cfg, d, tau, seed):
    """(label, eps) per divisor, divisors descending, of one draw solved
    system by system: one ``solve_commutator`` per divisor, scored by
    ``spectral_norm`` of one matrix at a time."""
    adjacency, rho0 = benchmark_network(d, seed, cfg)
    subsamples = sorted(cfg.subsamples, reverse=True)
    rho_tau, grams = trapezoid_grams(adjacency.astype(complex), rho0, tau, cfg.dt, subsamples)
    q = build_Q(rho0, rho_tau)
    out = []
    for p in grams:
        report = solve_commutator(p, q, real_coupling=cfg.real_coupling)
        eps = None
        if report.solvability == 1:
            eps = spectral_norm(report.m_hat - adjacency) / spectral_norm(adjacency)
        out.append((report.solvability, eps))
    return out


class TestConfigValidation:
    def test_default_config_valid(self):
        assert SweepConfig().validate() == []

    def test_all_errors_listed(self):
        cfg = SweepConfig(
            d_min=1,
            d_max=0,
            p_link=1.5,
            taus=(0.0, 1.0),
            dt=0.3,
            subsamples=(0,),
            trials=0,
        )
        errors = cfg.validate()
        joined = "\n".join(errors)
        for token in ("d_min", "d_max", "p_link", "tau must be positive",
                      "tau/dt = 1.0/0.3 is not a positive integer",
                      "subsample must be a positive integer", "trials"):
            assert token in joined
        assert len(errors) == 7

    @pytest.mark.parametrize("key, message", [
        ("taus", "at least one tau is required"),
        ("subsamples", "at least one subsample divisor is required"),
    ])
    def test_empty_taus_and_subsamples_listed(self, key, message):
        assert SweepConfig(**{key: ()}).validate() == [message]

    def test_zero_subsample_listed_not_raised(self):
        # on a dividing grid, a zero divisor is reported, not divided by
        errors = SweepConfig(taus=(1.0,), subsamples=(0, 5)).validate()
        assert errors == ["subsample must be a positive integer, got 0"]

    @pytest.mark.parametrize("subsample", [2.5, 5.0, True])
    def test_non_integer_subsample_listed(self, subsample):
        # 2.5 passed and wrote a cell with n_tilde = 40.0 that no trajectory
        # grid can be subsampled at; the type rule names the field once
        cfg = SweepConfig(subsamples=(subsample,), d_min=2, d_max=2, trials=2)
        assert cfg.validate() == [f"subsamples must be a list of integers, got {(subsample,)!r}"]
        with pytest.raises(ConfigError, match="subsamples must be a list of integers"):
            run_sweep(cfg)

    @pytest.mark.parametrize("name, value", [
        ("d_min", 2.0), ("d_max", 3.5), ("trials", 2.5), ("trials", True),
    ])
    def test_non_integer_size_or_trials_listed(self, name, value):
        # trials = 2.5 ended in a TypeError from range
        cfg = SweepConfig(**{name: value})
        assert f"{name} must be an integer, got {value!r}" in cfg.validate()
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            run_sweep(cfg)

    @pytest.mark.parametrize("name, value, kind", [
        ("dt", "0.01", "a number"), ("taus", 3.0, "a list of numbers"),
        ("p_link", "0.5", "a number"), ("dt", None, "a number"),
        ("real_coupling", "no", "true or false"), ("seed", 1.5, "an integer"),
        ("subsamples", [5, "1"], "a list of integers"), ("p_link", [0.5], "a number"),
    ])
    def test_mistyped_field_named_once(self, name, value, kind):
        # the first four raised a bare TypeError in validate; "no" and 1.5
        # validated clean and ran, the seed truncated to 1 by derive_seed
        cfg = SweepConfig(**{name: value})
        got = tuple(value) if isinstance(value, list) else value
        assert cfg.validate() == [f"{name} must be {kind}, got {got!r}"]
        with pytest.raises(ConfigError, match=f"{name} must be {kind}"):
            run_sweep(cfg)

    def test_mistyped_field_skips_its_range_checks(self):
        # every other violation is still listed; none is derived from the
        # mistyped values (dt = "0.1" is no grid to check the divisors on)
        cfg = SweepConfig(d_min="3", d_max=1, dt="0.1", taus=(1.0, 1.0), subsamples=(0,),
                          trials=0, p_link=-1.0)
        assert cfg.validate() == [
            "d_min must be an integer, got '3'", "dt must be a number, got '0.1'",
            "trials must be >= 1, got 0",
            "p_link must be in (0, 1], got -1.0: sweeps draw connected graphs, and none is "
            "connected at 0",
            "subsample must be a positive integer, got 0", "tau 1.0 is listed more than once",
        ]

    def test_numpy_integers_accepted(self):
        cfg = SweepConfig(d_min=np.int32(2), d_max=np.int64(3), trials=np.int16(2),
                          subsamples=(np.int64(5), np.uint8(1)))
        assert cfg.validate() == []

    def test_repeated_taus_and_divisors_listed(self):
        # each repeated value once, 1 and 1.0 as one tau (both are 1.0 once
        # normalised); the same cell was computed once per repeat
        cfg = SweepConfig(taus=(1, 2.0, 1.0, 2.0, 3.0), subsamples=(5, 1, 5))
        assert cfg.validate() == ["tau 1.0 is listed more than once",
                                  "tau 2.0 is listed more than once",
                                  "subsample divisor 5 is listed more than once"]

    def test_non_finite_values_listed_once(self):
        errors = SweepConfig(p_link=np.nan, dt=np.inf, taus=(np.inf, 1.0)).validate()
        assert errors == ["p_link must be in (0, 1], got nan: sweeps draw connected graphs, "
                          "and none is connected at 0",
                          "tau must be positive and finite, got inf",
                          "dt must be positive and finite, got inf"]
        errors = SweepConfig(dt=-1.0, taus=(1.0, 2.0)).validate()
        assert errors == ["dt must be positive and finite, got -1.0"]

    def test_size_range_beyond_maxsize_listed(self):
        # the longest range of d that can be listed has sys.maxsize sizes;
        # one more size raised an OverflowError after the CSV preamble was written
        longest = SweepConfig(d_max=2 + sys.maxsize - 1)
        assert longest.validate() == []
        assert len(range(longest.d_min, longest.d_max + 1)) == sys.maxsize
        too_long = SweepConfig(d_max=2 + sys.maxsize)
        assert too_long.validate() == ["d_max must be below d_min + sys.maxsize, "
                                       "the longest range of d"]
        with pytest.raises(OverflowError):
            len(range(too_long.d_min, too_long.d_max + 1))

    def test_validated_raises(self):
        with pytest.raises(ConfigError, match="p_link"):
            SweepConfig(p_link=2.0).validated()

    def test_connected_with_p_zero(self):
        # sweeps draw connected graphs, and no draw at p = 0 is connected
        errors = SweepConfig(p_link=0.0).validate()
        assert len(errors) == 1 and "p_link must be in (0, 1]" in errors[0]
        assert SweepConfig(p_link=1.0).validate() == []

    def test_json_roundtrip(self):
        cfg = SweepConfig(seed=3, taus=(1.0, 2.0), subsamples=(5, 1), dt=0.05,
                          real_coupling=False)
        back = SweepConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            SweepConfig.from_json({"bogus": 1})

    def test_float_fields_become_floats(self):
        cfg = SweepConfig.from_json({"p_link": 1, "taus": [1, 2.5], "subsamples": [5, 1]})
        assert cfg == SweepConfig(p_link=1.0, taus=(1.0, 2.5), subsamples=(5, 1))
        assert type(cfg.p_link) is float and type(cfg.subsamples[0]) is int
        assert json.dumps(cfg.to_json()["p_link"]) == "1.0"

    @pytest.mark.parametrize("obj", [{"dt": 10**400}, {"taus": [1.0, 10**400]}])
    def test_float_overflow_names_the_key(self, obj):
        # a JSON integer beyond the float range ended in an OverflowError; it
        # stays an integer, and validate names its field on every route
        [key] = obj
        name = key.rstrip("s")
        message = f"{name} must be positive and finite, got an integer beyond the float range"
        for cfg in (SweepConfig.from_json(obj), SweepConfig(**obj)):
            assert cfg.validate() == [message]
            with pytest.raises(ConfigError, match=f"\n  {message}$"):
                cfg.validated()

    @pytest.mark.parametrize("p_link", [10**400, -10**400])
    def test_p_link_beyond_the_float_range_not_printed(self, p_link):
        # its 401 digits made a 489-character message
        assert SweepConfig(p_link=p_link).validate() == [
            "p_link must be in (0, 1], got an integer beyond the float range: "
            "sweeps draw connected graphs, and none is connected at 0"]

    def test_override_skips_none(self):
        cfg = TINY.override(trials=None, seed=99)
        assert cfg.trials == TINY.trials
        assert cfg.seed == 99


class TestTrial:
    def test_deterministic(self):
        a = run_benchmark_trials(3, 1.0, (5, 1), [12345, 7], TINY)
        b = run_benchmark_trials(3, 1.0, (5, 1), [12345, 7], TINY)
        assert a == b

    def test_solvable_has_epsilon(self):
        [outcome] = run_benchmark_trials(3, 1.0, (5, 1), [7], TINY)
        for label, eps in outcome:
            if label == 1:
                assert eps is not None and eps >= 0.0
            else:
                assert eps is None

    def test_one_result_per_divisor_in_order(self):
        # one decomposition serves every divisor: the results are those of
        # single-divisor trials on the same seed, in the given order
        [both] = run_benchmark_trials(4, 1.0, (1, 20), [3], TINY)
        assert both == [run_benchmark_trials(4, 1.0, (sub,), [3], TINY)[0][0] for sub in (1, 20)]

    def test_stacked_trials_are_the_single_trials(self):
        seeds = [3, 5, 8, 13, 21]
        assert run_benchmark_trials(5, 1.0, (20, 1), seeds, TINY) == [
            run_benchmark_trials(5, 1.0, (20, 1), [seed], TINY)[0] for seed in seeds
        ]


class TestStackedRow:
    """The stacked row against the one-system route, draw by draw, on
    seeds not used while the stacked row was written."""

    @pytest.mark.parametrize("cfg", [
        # real class, 13 trials at 4 divisors: at d = 12 blocks of 10 and 3
        # trials on one thread, of 5, 5 and 3 on two
        SweepConfig(seed=61, d_min=2, d_max=12, taus=(2.0,), subsamples=(20, 10, 5, 1),
                    trials=13),
        # full class, 23 trials at 2 divisors: at d = 10 blocks of 21 and 2
        # trials on one thread, of 10, 10 and 3 on two
        SweepConfig(seed=62, d_min=2, d_max=10, taus=(1.0,), subsamples=(10, 1), trials=23,
                    real_coupling=False),
        # criterion 1's class, where about a fifth of the draws is unsolvable;
        # 50 trials under a budget of 40 systems at d = 5: blocks of 40 and 10
        # trials at d = 5, of 18, 18 and 14 at d = 6
        SweepConfig(seed=63, d_min=5, d_max=6, taus=(3.0,), subsamples=(1,), trials=50),
    ], ids=["real", "full", "criterion1"])
    def test_labels_and_eps_equal_one_system_route(self, cfg, monkeypatch):
        if cfg.subsamples == (1,):
            monkeypatch.setattr(qnetid.sweep, "SOLVE_BYTES", 40 * 8 * 5 * 5 * 10)
        trials = run_sweep(cfg).trials
        width = len(cfg.subsamples) * cfg.trials
        for row in range(len(trials) // width):
            cells = trials[row * width:(row + 1) * width]
            d, tau = cells[0].d, cells[0].tau
            for trial in range(cfg.trials):
                stacked = [(t.solvability, t.epsilon) for t in cells[trial::cfg.trials]]
                seed = derive_seed(cfg.seed, d, tau, trial)
                assert stacked == one_system_route(cfg, d, tau, seed), (d, trial)
        if cfg.subsamples == (1,):
            assert {t.solvability for t in trials} == {0, 1}

    def test_no_stack_exceeds_the_block(self, monkeypatch, fresh_pool, tmp_path):
        # d = 12 rows at 4 divisors: a real-class system is 76 032 bytes, so
        # blocks of 10 trials (40 systems, 2.9 MiB) in one process and of 5
        # on two workers; a full-class system is twice that, so blocks of 5
        # and of 2.  No stacked argument or result holds more matrices (or
        # realified systems) than a block, and the realified systems in
        # flight over all workers hold at most SOLVE_BYTES.  The counters are
        # shared memory, made before the test's pool forks its workers
        sizes_seen = WorkerLog(tmp_path)
        flight = multiprocessing.get_context("fork").Array("q", 2)  # bytes now, most at once
        held = [0]  # of this process's block: a worker runs one at a time
        realify, score = qnetid.identify._realified_system, qnetid.sweep.relative_error

        def realified(p, real_coupling):
            out = realify(p, real_coupling)
            held[0] += out.nbytes
            with flight.get_lock():
                flight[0] += out.nbytes
                flight[1] = max(flight[:])
            return out

        def scored(*args):  # the block's last stacked call
            out = score(*args)
            with flight.get_lock():
                flight[0] -= held[0]
            held[0] = 0
            return out

        def recording(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                arrays = args + (out if isinstance(out, tuple) else (out,))
                sizes_seen.append(max((int(np.prod(x.shape[:-2])) for x in arrays
                                       if isinstance(x, np.ndarray) and x.ndim > 2), default=0))
                return out
            return wrapper

        monkeypatch.setattr(qnetid.identify, "_realified_system", realified)
        monkeypatch.setattr(qnetid.sweep, "relative_error", scored)
        for module, name in ((qnetid.sweep, "trapezoid_grams"), (qnetid.sweep, "build_Q"),
                             (qnetid.sweep, "solve_stack"), (qnetid.sweep, "relative_error"),
                             (qnetid.identify, "_realified_system")):
            monkeypatch.setattr(module, name, recording(getattr(module, name)))
        for real_coupling, trials, sizes in ((True, 100, {1: 10, 2: 5}),
                                             (False, 12, {1: 5, 2: 2})):
            system = 144 * 66 * 8 * (1 if real_coupling else 2)
            for workers in (1, 2):
                monkeypatch.setattr(qnetid.sweep, "_trial_workers", lambda *args, n=workers: n)
                sizes_seen.clear()
                flight[1] = 0
                run_sweep(SweepConfig(seed=64, d_min=12, d_max=12, taus=(2.0,), trials=trials,
                                      real_coupling=real_coupling))
                pids, seen = zip(*sizes_seen.read())
                assert max(seen) == 4 * sizes[workers]
                assert (os.getpid() in pids) == (workers == 1)
                assert flight[0] == 0 and flight[1] <= SOLVE_BYTES
                if workers == 1:
                    assert flight[1] == 4 * sizes[1] * system
        assert SOLVE_BYTES == 3 * 2**20

    def test_peak_memory_bounded_by_the_block(self, monkeypatch, fresh_pool):
        # a d = 12 row of many trials peaks where one block does: 10 trials
        # in the calling process or 5 in each of two workers, in the real
        # class at 4 divisors and in the full class at 2.  A worker traces
        # its blocks from their first stacked call to their last, and keeps
        # the highest peak in shared memory made before the pool forks
        parent, peak = os.getpid(), multiprocessing.get_context("fork").Value("q", 0)
        grams, score = qnetid.sweep.trapezoid_grams, qnetid.sweep.relative_error

        def traced_grams(*args):
            if os.getpid() != parent:
                tracemalloc.start()
            return grams(*args)

        def traced_score(*args):
            out = score(*args)
            if os.getpid() != parent:
                with peak.get_lock():
                    peak.value = max(peak.value, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            return out

        monkeypatch.setattr(qnetid.sweep, "trapezoid_grams", traced_grams)
        monkeypatch.setattr(qnetid.sweep, "relative_error", traced_score)
        for real_coupling, subsamples, trials in ((True, (20, 10, 5, 1), (10, 100)),
                                                  (False, (5, 1), (10, 40))):
            for workers in (1, 2):
                monkeypatch.setattr(qnetid.sweep, "_trial_workers", lambda *args, n=workers: n)
                peaks = {}
                for n in trials:
                    cfg = SweepConfig(seed=65, d_min=12, d_max=12, taus=(2.0,),
                                      subsamples=subsamples, trials=n,
                                      real_coupling=real_coupling)
                    peak.value = 0
                    if workers == 2:  # the workers must not fork while the caller traces
                        run_sweep(cfg)
                        peaks[n] = peak.value
                        continue
                    tracemalloc.start()
                    try:
                        run_sweep(cfg)
                        peaks[n] = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                assert 0 < peaks[trials[1]] <= 1.2 * peaks[trials[0]], (real_coupling, workers)


class TestSweep:
    def test_records_and_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        res = run_sweep(TINY, out_csv=out)
        assert len(res.records) == 2  # two d values, one tau, one subsample
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == CSV_HEADER
        assert len(lines) == 2 + len(res.records)
        rows = read_sweep_csv(out)
        assert rows[0]["d"] == 2
        assert rows[0]["trials"] == 4
        assert 0.0 <= rows[0]["solvability_mean"] <= 1.0

    def test_numpy_scalars_same_as_python_numbers(self, tmp_path):
        # derive_seed hashes repr(tau), and repr(np.float64(1.0)) is 'np.float64(1.0)':
        # numpy-valued taus drew other networks under the same JSON preamble, and
        # an int64 in trials failed to serialize after opening the CSV
        numpy_cfg = SweepConfig(
            seed=np.int64(11), d_min=np.int64(2), d_max=np.int64(3), p_link=np.float64(0.5),
            taus=(np.float64(1.0), np.int64(2)), dt=np.float64(0.01),
            subsamples=np.array([5, 1]), trials=np.int64(3), real_coupling=np.bool_(True),
        )
        python_cfg = SweepConfig(seed=11, d_min=2, d_max=3, p_link=0.5, taus=(1.0, 2),
                                 subsamples=(5, 1), trials=3)
        assert repr(numpy_cfg) == repr(python_cfg)  # no numpy scalar is left
        assert [type(t) for t in numpy_cfg.taus] == [float, float]  # an int tau is a float
        a, b = tmp_path / "numpy.csv", tmp_path / "python.csv"
        numpy_res, python_res = run_sweep(numpy_cfg, out_csv=a), run_sweep(python_cfg, out_csv=b)
        assert numpy_res.trials == python_res.trials
        assert numpy_res.records == python_res.records
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("cfg", [
        SweepConfig(seed=0, d_min=4, d_max=5, taus=(3,), subsamples=(1,), trials=5),
        SweepConfig(seed=np.int64(0), d_min=np.int64(4), d_max=np.int64(5),
                    taus=np.array([3.0]), dt=np.float64(0.01), subsamples=np.array([1]),
                    trials=np.int64(5), p_link=np.int64(1)),
    ], ids=["int-tau", "numpy"])
    def test_preamble_reproduces_the_csv(self, tmp_path, cfg):
        # the config in a CSV's preamble, read back by from_json, reruns to the
        # same bytes; an int tau was hashed as '3' by the library and as '3.0'
        # after the JSON route, and drew other networks (mean solvability 0.6
        # against 0.8 at d = 5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(cfg, out_csv=a)
        preamble = json.loads(a.read_text().splitlines()[0].removeprefix("# "))
        run_sweep(SweepConfig.from_json(preamble["config"]), out_csv=b)
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(TINY, out_csv=a)
        run_sweep(TINY, out_csv=b)
        assert a.read_bytes() == b.read_bytes()

    def test_error_sweep_same_schema(self, tmp_path):
        out = tmp_path / "e.csv"
        res = run_sweep(TINY, kind="error", out_csv=out)
        rows = read_sweep_csv(out)
        assert len(rows) == len(res.records)
        assert res.kind == "error"
        # the kind only changes the preamble: records and rows are the solvability sweep's
        solv = tmp_path / "s.csv"
        assert run_sweep(TINY, out_csv=solv).records == res.records
        assert json.loads(out.read_text().splitlines()[0][2:])["kind"] == "error"
        assert out.read_text().splitlines()[1:] == solv.read_text().splitlines()[1:]

    def test_header_has_no_wall_time(self, tmp_path):
        # the columns are the record's fields, none of them a time, so
        # the file is a function of the seed alone
        out = tmp_path / "s.csv"
        res = run_sweep(TINY, out_csv=out)
        assert CSV_HEADER == (
            "d,tau,n_tilde,trials,solvability_mean,eps_median,eps_q1,eps_q3,seed"
        )
        assert CSV_HEADER.split(",") == [f.name for f in fields(CellRecord)]
        rows = read_sweep_csv(out)
        assert [list(r) for r in rows] == [CSV_HEADER.split(",")] * len(res.records)
        assert [r["seed"] for r in rows] == [TINY.seed] * len(res.records)

    def test_csv_text_of_records(self, tmp_path, monkeypatch):
        # floats are written with repr, None as an empty field and an int
        # tau as an int; reading back gives each column its field's type
        rows = {
            2: [CellRecord(2, 1, 100, 4, 0.1 + 0.2, None, None, None, 11)],
            3: [CellRecord(3, 1.0, 100, 4, 1.0, 1e-05, 2.5e-07, 0.30000000000000004, 11),
                CellRecord(3, 1.0, 20, 4, 0.0, None, None, None, 11)],
        }
        monkeypatch.setattr(qnetid.sweep, "_run_row", lambda cfg, d, tau, threaded: (rows[d], []))
        out = tmp_path / "s.csv"
        res = run_sweep(TINY, out_csv=out)
        assert out.read_text() == (
            '# {"config": {"d_max": 3, "d_min": 2, "dt": 0.01, "p_link": 0.5, '
            '"real_coupling": true, "seed": 11, "subsamples": [1], '
            '"taus": [1.0], "trials": 4}, "kind": "solvability"}\n'
            "d,tau,n_tilde,trials,solvability_mean,eps_median,eps_q1,eps_q3,seed\n"
            "2,1,100,4,0.30000000000000004,,,,11\n"
            "3,1.0,100,4,1.0,1e-05,2.5e-07,0.30000000000000004,11\n"
            "3,1.0,20,4,0.0,,,,11\n"
        )
        back = read_sweep_csv(out)
        assert back == [asdict(rec) for rec in res.records]
        kinds = {"d": int, "tau": float, "n_tilde": int, "trials": int,
                 "solvability_mean": float, "seed": int}
        for row in back:
            assert {k: type(v) for k, v in row.items() if k in kinds} == kinds
            assert {type(row[k]) for k in ("eps_median", "eps_q1", "eps_q3")} <= {
                float, type(None)}
        assert [row["eps_q3"] for row in back] == [None, 0.30000000000000004, None]

    def test_failing_row_leaves_partial_csv(self, tmp_path, monkeypatch):
        # the rows written before a failure stay behind, flushed and whole
        cfg = TINY.override(subsamples=(2, 1))
        full = tmp_path / "full.csv"
        run_sweep(cfg, out_csv=full)
        run_row, calls = qnetid.sweep._run_row, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("second row fails")
            return run_row(*args)

        monkeypatch.setattr(qnetid.sweep, "_run_row", failing)
        out = tmp_path / "partial.csv"
        with pytest.raises(RuntimeError, match="second row fails"):
            run_sweep(cfg, out_csv=out)
        # preamble, header and the two records of the first (d, tau) row
        assert out.read_text().splitlines() == full.read_text().splitlines()[:4]
        assert [(r["d"], r["n_tilde"]) for r in read_sweep_csv(out)] == [(2, 50), (2, 100)]

    def test_cells_independent_of_grid(self):
        # the same (d, tau, n~) cell yields identical records no matter
        # which other cells the sweep contains
        wide = run_sweep(TINY.override(d_min=2, d_max=3))
        narrow = run_sweep(TINY.override(d_min=3, d_max=3))
        wide_d3 = [r for r in wide.records if r.d == 3]
        assert wide_d3 == narrow.records

    @pytest.mark.parametrize("subsamples", [(1,), (20, 10, 5, 1)])
    def test_one_simulation_per_network(self, monkeypatch, fresh_pool, tmp_path, subsamples):
        # each network's Hamiltonian is decomposed once, whether stacked
        # with others (d < 16) or on its own (d >= 16), and serves every
        # divisor: the Hamiltonians decomposed are the networks drawn, in
        # whatever order and process the workers decompose them
        for d in (2, 16):
            self.check_one_simulation_per_network(monkeypatch, tmp_path / str(d), subsamples, d)

    @staticmethod
    def check_one_simulation_per_network(monkeypatch, log, subsamples, d):
        hamiltonians, drawn = WorkerLog(log / "decomposed"), WorkerLog(log / "drawn")

        def counting(h, *args, **kwargs):
            for one in h.reshape(-1, *h.shape[-2:]):
                hamiltonians.append(one)
            assert tuple(args[3]) == tuple(sorted(subsamples, reverse=True))
            return trapezoid_grams(h, *args, **kwargs)

        def drawing(d, seed, cfg):
            drawn.append(benchmark_network(d, seed, cfg)[0])
            return benchmark_network(d, seed, cfg)

        monkeypatch.setattr(qnetid.sweep, "trapezoid_grams", counting)
        monkeypatch.setattr(qnetid.sweep, "benchmark_network", drawing)
        cfg = TINY.override(d_min=d, d_max=d + 1, taus=(1.0, 2.0), subsamples=subsamples,
                            trials=3)
        res = run_sweep(cfg)
        hamiltonians, drawn = [[h for _, h in log.read()] for log in (hamiltonians, drawn)]
        assert len(res.records) == len(cfg.d_values) * len(cfg.taus) * len(subsamples)
        assert len(hamiltonians) == len(drawn) == cfg.trials * len(cfg.d_values) * len(cfg.taus)
        assert (sorted(np.asarray(h, dtype=complex).tobytes() for h in hamiltonians)
                == sorted(np.asarray(a, dtype=complex).tobytes() for a in drawn))

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(SweepConfig(trials=0))

    def test_critical_sizes(self):
        res = run_sweep(SweepConfig(seed=1, d_min=2, d_max=4, taus=(3.0,),
                                    subsamples=(1,), trials=6))
        marks = res.critical_sizes()
        assert "tau=3,n_tilde=300" in marks
        entry = marks["tau=3,n_tilde=300"]
        assert set(entry) == {"last_full_d", "first_zero_d"}

    def test_solvability_insensitive_to_subsampling(self):
        # mean solvability barely moves between the full grid and a 20x
        # coarser quadrature
        for d in (4, 8, 12):
            cfg = SweepConfig(seed=5, d_min=d, d_max=d, taus=(3.0,),
                              subsamples=(20, 1), trials=100)
            res = run_sweep(cfg)
            by_sub = {rec.n_tilde: rec.solvability_mean for rec in res.records}
            n_s = len(sample_times(3.0, cfg.dt)) - 1
            assert abs(by_sub[n_s] - by_sub[n_s // 20]) <= 0.05


class TestQuartiles:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=100)
           | st.lists(st.sampled_from([0.0, 1e-3, 0.5, -2.0, 1e300, -1e300]), min_size=1,
                      max_size=100)
           | st.floats(allow_nan=False, allow_infinity=False).map(lambda v: [v]))
    def test_equals_numpy_percentile_bit_for_bit(self, values):
        # np.percentile is the reference: equal float.hex, overflowing lerps
        # included.  Where -0.0 and 0.0 are both present, which zero stands at
        # an order statistic is up to numpy's partition, so a zero result may
        # differ in its sign alone; relative errors are never -0.0
        with np.errstate(over="ignore", invalid="ignore"):
            expected = [float(v) for v in np.percentile(values, [50.0, 25.0, 75.0])]
        got = qnetid.sweep._quartiles(list(values))
        signed_zeros = {str(v) for v in values if v == 0} == {"0.0", "-0.0"}
        if signed_zeros:
            assert got == tuple(expected)
        else:
            assert [v.hex() for v in got] == [v.hex() for v in expected]

    def test_empty(self):
        assert qnetid.sweep._quartiles([]) == (None, None, None)


class TestTrials:
    @pytest.mark.parametrize("subsamples", [(1,), (20, 10, 5, 1)])
    def test_one_trial_per_divisor_in_record_order(self, subsamples):
        # each cell's trials follow its record, carry the sweep's trial
        # seeds and reproduce the record's mean label and eps quartiles
        cfg = TINY.override(subsamples=subsamples)
        res = run_sweep(cfg)
        assert len(res.trials) == len(res.records) * cfg.trials
        for i, rec in enumerate(res.records):
            cell = res.trials[i * cfg.trials:(i + 1) * cfg.trials]
            assert {(t.d, t.tau, t.n_tilde) for t in cell} == {(rec.d, rec.tau, rec.n_tilde)}
            assert [t.trial for t in cell] == list(range(cfg.trials))
            assert [t.seed for t in cell] == [
                derive_seed(cfg.seed, rec.d, rec.tau, trial) for trial in range(cfg.trials)
            ]
            assert float(np.mean([t.solvability for t in cell])) == rec.solvability_mean
            assert all((t.epsilon is not None) == (t.solvability == 1) for t in cell)
            eps = [t.epsilon for t in cell if t.solvability == 1]
            q1, med, q3 = np.percentile(eps, [25.0, 50.0, 75.0])
            assert (float(med), float(q1), float(q3)) == (rec.eps_median, rec.eps_q1, rec.eps_q3)

    def test_trials_reproducible(self):
        cfg = TINY.override(subsamples=(20, 10, 5, 1))
        assert run_sweep(cfg).trials == run_sweep(cfg).trials


class TestTrialThreads:
    """The trial pool's worker processes; the class and its tests keep the
    names they had when rows ran on trial threads."""

    @pytest.mark.parametrize("d, trials, cores, workers", [
        (5, 5, 2, 1),
        (8, 5, 2, 2),
        (12, 5, 2, 2),
        (15, 5, 2, 2),
        (16, 5, 1, 1),
        (16, 1, 2, 1),
        (30, 3, 8, 3),
    ], ids=["d5", "d8", "d12", "d15", "one-core", "one-trial", "one-per-trial"])
    def test_rule(self, d, trials, cores, workers):
        # workers only at d >= 6, one per core, and never more workers
        # than trials
        assert qnetid.sweep._trial_workers(d, trials, cores) == workers

    def test_environment_picks_no_bits(self):
        # a sweep holds numpy's OpenBLAS at one thread itself: with
        # OPENBLAS_NUM_THREADS unset, at 1 and at 2, the d = 26..27 draws
        # (whose rtol-truncated solves move with any change of rounding)
        # get the same labels and eps bits
        code = ("import qnetid; cfg = qnetid.SweepConfig(d_min=26, d_max=27, subsamples=(5,), "
                "trials=5); print([(t.solvability, None if t.epsilon is None else "
                "t.epsilon.hex()) for t in qnetid.run_sweep(cfg).trials])")
        unset, one, two = under_each_blas_setting(code)
        assert one == unset == two

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_blas_threads_restored(self, monkeypatch, fails):
        # the solves of a sweep, of solve_commutator and of
        # reconstruct_hamiltonian run at one BLAS thread, and the count the
        # caller set is back when each returns or raises
        calls = qnetid.linalg._openblas_threads()
        if calls is None:
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        get, put = calls
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 3, norm=1.0)
        p, m = random_hermitian(rng, 3), random_hermitian(rng, 3)
        u, period = sampled_propagator(h)
        lambda0 = physical_initial_batch(3)[0]
        ys = output_stacks(u, lambda0)
        entries = {
            "run_sweep": lambda: run_sweep(TINY),
            "solve_commutator": lambda: solve_commutator(p, m @ p - p @ m),
            "reconstruct_hamiltonian": lambda: reconstruct_hamiltonian(ys, lambda0, period),
        }
        lstsq, seen = np.linalg.lstsq, []

        def recording(*args, **kwargs):
            seen.append(get())
            if fails:
                raise RuntimeError("solve failed")
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", recording)
        before = get()
        put(2)
        try:
            for name, entry in entries.items():
                seen.clear()
                if fails:
                    with pytest.raises(RuntimeError, match="solve failed"):
                        entry()
                else:
                    entry()
                assert get() == 2, name
                assert seen and set(seen) == {1}, name
        finally:
            put(before)

    def test_rows_serial_under_another_blas(self, monkeypatch):
        # without numpy's OpenBLAS symbols the hold does nothing and says
        # so, and a row that would run on the pool runs on the calling thread
        cfg = SweepConfig(seed=0, d_min=12, d_max=12, taus=(3.0,), subsamples=(5,), trials=10)
        threaded = run_sweep(cfg)
        run_block, idents = qnetid.sweep.run_benchmark_trials, set()

        def recording(*args, **kwargs):
            idents.add(threading.get_ident())
            return run_block(*args, **kwargs)

        monkeypatch.setattr(qnetid.sweep, "run_benchmark_trials", recording)
        monkeypatch.setattr(qnetid.linalg, "_openblas_threads", lambda: None)
        with qnetid.linalg.one_blas_thread() as held:
            assert held is False
        serial = run_sweep(cfg)
        assert idents == {threading.main_thread().ident}
        assert serial.trials == threaded.trials

    def test_threaded_rows_match_serial(self, tmp_path, monkeypatch, fresh_pool):
        # records, trials and CSV bytes do not depend on the worker count;
        # the rows are cut into blocks of at most SOLVE_BYTES // (2 divisors
        # x workers x 8 d^2 n bytes) and at most ceil(12 / workers) of their
        # 12 trials, so that larger rows run more, smaller blocks, in the
        # calling process alone or in the workers alone
        cfg = SweepConfig(seed=0, d_min=12, d_max=16, taus=(3.0,), subsamples=(5, 1),
                          trials=12)
        blocks, grams = WorkerLog(tmp_path / "blocks"), qnetid.sweep.trapezoid_grams

        def logging_grams(h, *args):  # one call per block
            blocks.append((h.shape[-1], len(h)))
            return grams(h, *args)

        monkeypatch.setattr(qnetid.sweep, "trapezoid_grams", logging_grams)
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(qnetid.sweep, "_trial_workers", lambda *args, n=workers: n)
            blocks.clear()
            out = tmp_path / f"{workers}.csv"
            runs[workers] = run_sweep(cfg, out_csv=out), out.read_bytes()
            sizes = {1: {12: [12], 13: [12], 14: [11, 1], 15: [8, 4], 16: [6, 6]},
                     2: {12: [6, 6], 13: [6, 6], 14: [5, 5, 2], 15: [4, 4, 4],
                         16: [3, 3, 3, 3]}}[workers]
            assert sorted(shape for _, shape in blocks.read()) == sorted(
                (d, n) for d, row in sizes.items() for n in row)
            assert {pid == os.getpid() for pid, _ in blocks.read()} == {workers == 1}
        (serial, serial_csv), (pooled, pooled_csv) = runs[1], runs[2]
        assert pooled.records == serial.records
        assert pooled.trials == serial.trials
        assert pooled_csv == serial_csv

    def test_small_row_split_over_the_threads(self, monkeypatch, fresh_pool, tmp_path):
        # a row that fits in one block (10 trials at one divisor, d = 12)
        # ran in the calling process alone; it is cut into one 5-trial block
        # per worker, with the records of a serial run
        cfg = SweepConfig(seed=0, d_min=12, d_max=12, taus=(3.0,), subsamples=(5,), trials=10)
        blocks, grams = WorkerLog(tmp_path), qnetid.sweep.trapezoid_grams
        monkeypatch.setattr(qnetid.sweep, "trapezoid_grams",
                            lambda h, *args: blocks.append(len(h)) or grams(h, *args))
        results = {}
        for workers in (1, 2):
            monkeypatch.setattr(qnetid.sweep, "_trial_workers", lambda *args, n=workers: n)
            blocks.clear()
            results[workers] = run_sweep(cfg)
            assert sorted(n for _, n in blocks.read()) == {1: [10], 2: [5, 5]}[workers]
            assert {pid == os.getpid() for pid, _ in blocks.read()} == {workers == 1}
        assert results[2].records == results[1].records
        assert results[2].trials == results[1].trials

    @pytest.mark.parametrize("cores", [1, 2])
    def test_bench_rows_keep_their_blocks(self, monkeypatch, fresh_pool, tmp_path, cores):
        # the err-grid rows (10 trials at 4 divisors: tau = 1 at d = 2..8,
        # tau = 2 at d = 2..12) and the transition rows (5 trials at one
        # divisor, d = 28..30) of the benchmark are cut as the count rule
        # before the byte budget cut them: 40 systems below d = 16 over all
        # workers, one trial per block from d = 16 on.  On 2 cores the
        # err-grid rows run two 5-trial blocks from PROCESS_D = 6 on
        blocks = WorkerLog(tmp_path)
        monkeypatch.setattr(qnetid.sweep, "run_benchmark_trials", partial(no_trials, blocks))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        for tau, d_max, subsamples, trials, d_min in ((1.0, 8, (20, 10, 5, 1), 10, 2),
                                                      (2.0, 12, (20, 10, 5, 1), 10, 2),
                                                      (3.0, 30, (5,), 5, 28)):
            run_sweep(SweepConfig(d_min=d_min, d_max=d_max, taus=(tau,), subsamples=subsamples,
                                  trials=trials))

        def err_grid(d):
            return [10] if cores == 1 or d < 6 else [5, 5]

        assert sorted(block for _, block in blocks.read()) == sorted(
            [(d, 1.0, n) for d in range(2, 9) for n in err_grid(d)]
            + [(d, 2.0, n) for d in range(2, 13) for n in err_grid(d)]
            + [(d, 3.0, 1) for d in range(28, 31) for _ in range(5)])

    @pytest.mark.parametrize("d, workers, drawn", [pytest.param(12, 1, 41, id="stacked"),
                                                   pytest.param(26, 1, 2, id="1"),
                                                   pytest.param(16, 2, None, id="2")])
    def test_first_failure_in_seed_order_raised(self, monkeypatch, fresh_pool, tmp_path, d,
                                                workers, drawn):
        # the draws of trials 1 and 3 are no densities: trial 1's error is
        # raised, as in a serial run, whether the two share a stacked block
        # (d = 12: blocks of 41 trials at one divisor) or not (d = 26: one
        # 1.8 MB system a block); on two workers the blocks not yet started
        # are cancelled, and the pool's workers are all the children left;
        # in the calling process no thread outlives the sweep
        cfg = SweepConfig(seed=0, d_min=d, d_max=d, subsamples=(5,), trials=48)
        seeds = [derive_seed(cfg.seed, d, 3.0, trial) for trial in range(cfg.trials)]
        calls = WorkerLog(tmp_path)

        def draw(d, seed, cfg):
            calls.append(seed)
            adjacency, rho0 = benchmark_network(d, seed, cfg)
            time.sleep(0.01)
            return adjacency, rho0 * {seeds[1]: 2.0, seeds[3]: 3.0}.get(seed, 1.0)

        monkeypatch.setattr(qnetid.sweep, "benchmark_network", draw)
        monkeypatch.setattr(qnetid.sweep, "_trial_workers", lambda *args: workers)
        running = set(threading.enumerate())
        with pytest.raises(ValueError, match=r"^rho0 has trace 2\.0, expected 1$"):
            run_sweep(cfg)
        calls = [seed for _, seed in calls.read()]
        if workers == 1:
            assert calls == seeds[:drawn]  # up to the end of trial 1's block
            assert set(threading.enumerate()) <= running
        else:
            assert len(calls) < cfg.trials
            assert 0 < len(multiprocessing.active_children()) <= len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_workers_end_with_the_interpreter(self, fails):
        # a process that ran pooled rows exits cleanly, whether its sweep
        # returned or raised, and leaves none of its workers running
        code = (
            "import multiprocessing, qnetid, qnetid.sweep as sweep\n"
            f"fails = {fails}\n"
            "draw = sweep.benchmark_network\n"
            "def bad(d, seed, cfg):\n"
            "    a, rho0 = draw(d, seed, cfg)\n"
            "    return a, 2 * rho0\n"
            "if fails:\n"
            "    sweep.benchmark_network = bad\n"
            "cfg = qnetid.SweepConfig(d_min=8, d_max=9, subsamples=(5,), trials=4)\n"
            "try:\n"
            "    qnetid.run_sweep(cfg)\n"
            "except ValueError:\n"
            "    assert fails\n"
            "else:\n"
            "    assert not fails\n"
            "print(*(p.pid for p in multiprocessing.active_children()))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(qnetid.sweep.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        pids = [int(pid) for pid in proc.stdout.split()]
        assert pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_killed_worker_fails_only_its_row(self, monkeypatch, fresh_pool):
        # a worker of the test's own pool killed mid-row fails that row; the
        # next sweep runs, with the trials of a serial run
        cfg = SweepConfig(seed=0, d_min=10, d_max=10, subsamples=(5,), trials=8)
        parent, victim = os.getpid(), derive_seed(cfg.seed, 10, 3.0, 5)

        def killing(d, seed, cfg):
            if seed == victim and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return benchmark_network(d, seed, cfg)

        monkeypatch.setattr(qnetid.sweep, "benchmark_network", killing)
        with pytest.raises(BrokenProcessPool):
            run_sweep(cfg)
        monkeypatch.setattr(qnetid.sweep, "benchmark_network", benchmark_network)
        pooled = run_sweep(cfg)
        monkeypatch.setattr(qnetid.sweep, "_trial_workers", lambda *args: 1)
        assert pooled.trials == run_sweep(cfg).trials

    def test_threaded_caller_makes_no_pool(self):
        # a process that runs another thread forks no pool: its pooled
        # rows run serially, start no process and no thread, and give the
        # records and trials of a serial run
        code = ("import json, multiprocessing, threading, qnetid, qnetid.sweep\n"
                "cfg = qnetid.SweepConfig(d_min=10, d_max=11, subsamples=(5, 1), trials=6)\n"
                "stop = threading.Event()\n"
                "threading.Thread(target=stop.wait).start()\n"
                "res = qnetid.run_sweep(cfg)\n"
                "seen = [len(multiprocessing.active_children()), threading.active_count()]\n"
                "stop.set()\n"
                "qnetid.sweep._trial_workers = lambda *args: 1\n"
                "serial = qnetid.run_sweep(cfg)\n"
                "same = [res.records == serial.records, res.trials == serial.trials]\n"
                "print(json.dumps(seen + same))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(qnetid.sweep.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == [0, 2, True, True]

    def test_workers_hold_one_blas_thread(self, monkeypatch, fresh_pool, tmp_path):
        # the workers are forked inside the sweep's hold: each solves at one
        # BLAS thread, also in a later sweep, while the caller's count is 2
        calls = qnetid.linalg._openblas_threads()
        if calls is None:
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        get, put = calls
        counts, solve = WorkerLog(tmp_path), qnetid.sweep.solve_stack
        monkeypatch.setattr(qnetid.sweep, "solve_stack",
                            lambda *args: counts.append(get()) or solve(*args))
        cfg = SweepConfig(seed=0, d_min=8, d_max=8, subsamples=(5,), trials=4)
        before = get()
        put(2)
        try:
            run_sweep(cfg)
            run_sweep(cfg)
            assert get() == 2
        finally:
            put(before)
        pids, seen = zip(*counts.read())
        assert set(seen) == {1} and len(seen) == 4 and os.getpid() not in pids

    def test_cores_without_sched_getaffinity(self, monkeypatch):
        # platforms without affinity masks fall back to the CPU count
        seen = []
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(qnetid.sweep, "_trial_workers",
                            lambda d, trials, cores: seen.append(cores) or 1)
        run_sweep(TINY)
        assert seen == [3] * len(TINY.d_values)

    def test_import_and_small_sweep_leave_concurrent_futures_unloaded(self, small_sweep_modules):
        # the pool's modules are imported by pooled rows only, so that they
        # do not add to the import and first-sweep time of every run
        assert "concurrent.futures" not in small_sweep_modules
        assert "multiprocessing" not in small_sweep_modules

    def test_import_and_small_sweep_leave_numpy_ma_unloaded(self, small_sweep_modules):
        # np.percentile's np.unique imported numpy.ma, about 20 ms of a
        # process's first sweep; the quartiles are plain Python
        assert "numpy.ma" not in small_sweep_modules


@pytest.fixture(scope="module")
def small_sweep_modules() -> set[str]:
    """The modules loaded by ``import qnetid`` and one tiny sweep, in a
    fresh interpreter."""
    code = ("import sys, qnetid; "
            "qnetid.run_sweep(qnetid.SweepConfig(d_min=3, d_max=3, trials=2)); "
            "print(' '.join(sys.modules))")
    src = Path(qnetid.sweep.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestReadSweepCsv:
    def test_rejects_bad_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_sweep_csv(bad)

    def test_rejects_short_row(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\n1,2\n")
        with pytest.raises(ValueError, match="malformed"):
            read_sweep_csv(bad)

    @pytest.mark.parametrize("row, message", [
        ("2,3.0,300,4,abc,,,,0", "line 3: could not convert string to float: 'abc'"),
        ("2.5,3.0,300,4,1.0,,,,0", "line 3: invalid literal for int() with base 10: '2.5'"),
        # sweeps write no such value; plot drew nan as cy="nan", or an error
        # plot died with an OverflowError
        *((row, f"line 3: non-finite value in sweep CSV row: {row!r}") for row in (
            "2,3.0,300,4,nan,,,,0", "2,3.0,300,4,1.0,inf,,,0", "2,3.0,300,4,1.0,0.1,-inf,0.2,0",
            "2,3.0,300,1" + "0" * 400 + ",1.0,,,,0")),
    ], ids=["float-column", "int-column", "nan", "inf", "minus-inf", "integer-beyond-float"])
    def test_bad_value_names_file_and_line(self, tmp_path, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# preamble\n{CSV_HEADER}\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}: {message}")):
            read_sweep_csv(bad)

    def test_empty_file_rejected(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        with pytest.raises(ValueError, match="no CSV header"):
            read_sweep_csv(bad)
