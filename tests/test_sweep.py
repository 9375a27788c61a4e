import json
from dataclasses import fields

import numpy as np
import pytest

import qnetid.sweep
from qnetid.dynamics import trapezoid_grams
from qnetid.netmodel import derive_seed
from qnetid.sweep import (
    CSV_HEADER,
    CellRecord,
    ConfigError,
    SweepConfig,
    read_sweep_csv,
    run_benchmark_trial,
    run_sweep,
)

TINY = SweepConfig(seed=11, d_min=2, d_max=3, taus=(1.0,), subsamples=(1,), trials=4)


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
            hbar=0.0,
            rtol=0.0,
        )
        errors = cfg.validate()
        joined = "\n".join(errors)
        for token in ("d_min", "d_max", "p_link", "tau must be positive",
                      "does not divide", "subsample divisors", "trials",
                      "hbar", "rtol"):
            assert token in joined
        assert len(errors) >= 9

    def test_zero_subsample_listed_not_raised(self):
        # on a dividing grid, a zero divisor is reported, not divided by
        errors = SweepConfig(taus=(1.0,), subsamples=(0, 5)).validate()
        assert errors == ["subsample divisors must be positive"]

    def test_validated_raises(self):
        with pytest.raises(ConfigError, match="p_link"):
            SweepConfig(p_link=2.0).validated()

    def test_connected_with_p_zero(self):
        # sweeps draw connected graphs, and no draw at p = 0 is connected
        errors = SweepConfig(p_link=0.0).validate()
        assert len(errors) == 1 and "p_link must be in (0, 1]" in errors[0]
        assert SweepConfig(p_link=1.0).validate() == []

    def test_json_roundtrip(self):
        cfg = SweepConfig(seed=3, taus=(1.0, 2.0), subsamples=(5, 1), rtol=1e-8,
                          real_coupling=False)
        back = SweepConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            SweepConfig.from_json({"bogus": 1})

    def test_override_skips_none(self):
        cfg = TINY.override(trials=None, seed=99)
        assert cfg.trials == TINY.trials
        assert cfg.seed == 99


class TestTrial:
    def test_deterministic(self):
        a = run_benchmark_trial(3, 1.0, (5, 1), 12345, TINY)
        b = run_benchmark_trial(3, 1.0, (5, 1), 12345, TINY)
        assert a == b

    def test_solvable_has_epsilon(self):
        for label, eps in run_benchmark_trial(3, 1.0, (5, 1), 7, TINY):
            if label == 1:
                assert eps is not None and eps >= 0.0
            else:
                assert eps is None

    def test_one_result_per_divisor_in_order(self):
        # one decomposition serves every divisor: the results are those of
        # single-divisor trials on the same seed, in the given order
        both = run_benchmark_trial(4, 1.0, (1, 20), 3, TINY)
        assert both == [run_benchmark_trial(4, 1.0, (sub,), 3, TINY)[0] for sub in (1, 20)]


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

    def test_cells_independent_of_grid(self):
        # the same (d, tau, n~) cell yields identical records no matter
        # which other cells the sweep contains
        wide = run_sweep(TINY.override(d_min=2, d_max=3))
        narrow = run_sweep(TINY.override(d_min=3, d_max=3))
        wide_d3 = [r for r in wide.records if r.d == 3]
        assert wide_d3 == narrow.records

    @pytest.mark.parametrize("subsamples", [(1,), (20, 10, 5, 1)])
    def test_one_simulation_per_network(self, monkeypatch, subsamples):
        # one closed-form call per network serves every divisor
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return trapezoid_grams(*args, **kwargs)

        monkeypatch.setattr(qnetid.sweep, "trapezoid_grams", counting)
        cfg = TINY.override(taus=(1.0, 2.0), subsamples=subsamples, trials=3)
        res = run_sweep(cfg)
        assert len(res.records) == len(cfg.d_values) * len(cfg.taus) * len(subsamples)
        assert len(calls) == cfg.trials * len(cfg.d_values) * len(cfg.taus)
        assert all(tuple(args[4]) == tuple(sorted(subsamples, reverse=True)) for args in calls)

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
            n_s = cfg.n_samples(3.0)
            assert abs(by_sub[n_s] - by_sub[n_s // 20]) <= 0.05


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

    def test_empty_file_rejected(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        with pytest.raises(ValueError, match="no CSV header"):
            read_sweep_csv(bad)
