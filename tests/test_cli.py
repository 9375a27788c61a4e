import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import qnetid.dynamics
from qnetid import cli
from qnetid.cli import main
from qnetid.dynamics import (
    Trajectory,
    read_trajectory_csv,
    sample_trajectory,
    write_trajectory_csv,
)
from qnetid.linalg import (DEFAULT_RTOL, hermitize, load_matrix, matrix_to_json, save_json,
                           save_matrix, spectral_norm)
from qnetid.partialinfo import (
    output_stacks,
    physical_initial_batch,
    read_output_batch,
    reconstruct_hamiltonian,
    sampled_propagator,
)
from qnetid.sweep import CSV_HEADER, SweepConfig, SweepResult

from conftest import random_hermitian

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def probe(serial, verb, flags, named):
    """A rejected invocation, its id fixed by its serial number, so that
    adding or deleting a case renames no other."""
    return pytest.param(verb, flags, named, id=f"{verb}-flags{serial}-{named}")


class TestSimulateIdentify:
    def test_roundtrip_with_files(self, tmp_path, capsys):
        h_path = tmp_path / "h.json"
        save_matrix(h_path, SX)
        traj = tmp_path / "traj.csv"
        assert run("simulate", "--hamiltonian", h_path, "--excite-node", 1,
                   "--tau", 1.0, "--dt", 0.01, "--out", traj) == 0
        report = tmp_path / "report.json"
        assert run("identify", "--trajectory", traj, "--truth", h_path,
                   "--out", report) == 0
        obj = json.loads(report.read_text())
        assert obj["solvability"] == 1
        assert obj["epsilon"] <= 1e-3
        m_hat = obj["m_hat"]
        assert m_hat["rows"] == 2

    def test_er_generation_deterministic(self, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for t in (t1, t2):
            assert run("simulate", "--er-d", 4, "--er-p", 0.5, "--seed", 3,
                       "--connected-only", "--tau", 1.0, "--dt", 0.1,
                       "--out", t, "--save-hamiltonian", tmp_path / "h.json") == 0
        assert t1.read_bytes() == t2.read_bytes()
        h = load_matrix(tmp_path / "h.json")
        assert np.array_equal(h, h.T)

    def test_identify_general_class(self, tmp_path):
        h_path = tmp_path / "h.json"
        save_matrix(h_path, SX)
        traj = tmp_path / "t.csv"
        run("simulate", "--hamiltonian", h_path, "--tau", 1.0, "--dt", 0.01, "--out", traj)
        report = tmp_path / "r.json"
        assert run("identify", "--trajectory", traj, "--general-coupling",
                   "--truth", h_path, "--out", report) == 0
        obj = json.loads(report.read_text())
        assert obj["required_rank"] == 2  # d(d-1) parameters at d=2

    def test_malformed_trajectory_exits_3(self, tmp_path, capsys):
        # past the header and the data rows, the content errors named no
        # file, and the trace was printed as a complex number
        bad = tmp_path / "bad.csv"
        pure, doubled, skewed = "1,0,0,0,0,0,0,0", "2,0,0,0,0,0,0,0", "1,0,0.5,0,0,0,0,0"
        for rows, message in [
            (None, "malformed CSV header"),
            ([(0, pure), (0.2, pure), (0.1, pure)], "trajectory times are not strictly increasing"),
            ([(0, pure), (0.1, pure), (0.3, pure)], "trajectory times are not uniform"),
            ([(0, pure), (0.1, doubled)], "a state has trace 2.0, expected 1"),
            ([(0, pure), (0.1, skewed)], "matrix is not Hermitian: relative asymmetry"),
            ([(0, pure)], "a trajectory needs at least two samples"),
        ]:
            bad.write_text("x,y\n1,2\n" if rows is None else "\n".join(
                ["t,re_1_1,im_1_1,re_2_1,im_2_1,re_1_2,im_1_2,re_2_2,im_2_2"]
                + [f"{t},{state}" for t, state in rows]) + "\n")
            capsys.readouterr()
            assert run("identify", "--trajectory", bad) == 3
            assert capsys.readouterr().err.startswith(f"numerical failure: {bad}: {message}")

    def test_non_uniform_trajectory_exits_3(self, tmp_path):
        h_path = tmp_path / "h.json"
        save_matrix(h_path, SX)
        traj = tmp_path / "t.csv"
        run("simulate", "--hamiltonian", h_path, "--tau", 1.0, "--dt", 0.1, "--out", traj)
        lines = traj.read_text().splitlines()
        del lines[2]  # drop the sample at t = 0.1
        traj.write_text("\n".join(lines) + "\n")
        assert run("identify", "--trajectory", traj) == 3

    def test_non_density_trajectory_exits_3(self, tmp_path):
        h_path = tmp_path / "h.json"
        save_matrix(h_path, SX)
        traj = tmp_path / "t.csv"
        run("simulate", "--hamiltonian", h_path, "--tau", 1.0, "--dt", 0.1, "--out", traj)
        back = read_trajectory_csv(traj)
        write_trajectory_csv(Trajectory(times=back.times, states=2.0 * back.states), traj)
        assert run("identify", "--trajectory", traj) == 3

    def test_non_finite_trajectory_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        h_path = tmp_path / "h.json"
        save_matrix(h_path, random_hermitian(rng, 3))
        traj = tmp_path / "t.csv"
        run("simulate", "--hamiltonian", h_path, "--tau", 1.0, "--dt", 0.1, "--out", traj)
        back = read_trajectory_csv(traj)
        back.states[4, 0, 1] = back.states[4, 1, 0] = np.nan
        write_trajectory_csv(back, traj)
        capsys.readouterr()
        assert run("identify", "--trajectory", traj) == 3
        err = capsys.readouterr().err
        assert "data row 5 (t = 0.4" in err and "NaN or infinite" in err

    def test_connected_only_with_p_zero_exits_2(self, tmp_path, capsys):
        # no draw at p = 0 is connected; the redraw loop must not start
        assert run("simulate", "--er-d", 3, "--er-p", 0, "--connected-only",
                   "--tau", 1.0, "--dt", 0.1, "--out", tmp_path / "t.csv") == 2
        assert "no graph is connected at p_link = 0" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_non_density_rho0_exits_3(self, tmp_path, capsys):
        h_path, rho_path = tmp_path / "h.json", tmp_path / "rho.json"
        save_matrix(h_path, SX)
        save_matrix(rho_path, np.diag([2.0, 0.0]))
        assert run("simulate", "--hamiltonian", h_path, "--rho0", rho_path, "--tau", 1.0,
                   "--dt", 0.1, "--out", tmp_path / "t.csv") == 3
        assert capsys.readouterr().err.startswith("numerical failure: rho0 has trace 2.0")
        assert not (tmp_path / "t.csv").exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert run("identify", "--trajectory", tmp_path / "absent.csv") == 2


class TestSweepPlot:
    def test_sweep_and_plot(self, tmp_path):
        out_dir = tmp_path / "out"
        assert run("sweep", "solvability", "--seed", 9, "--d-min", 2, "--d-max", 3,
                   "--tau", 1.0, "--subsample", 1, "--trials", 3,
                   "--out-dir", out_dir) == 0
        csv = out_dir / "solvability.csv"
        assert csv.exists()
        assert run("plot", "--csv", csv, "--kind", "solvability",
                   "--out", out_dir / "p.svg") == 0
        assert (out_dir / "p.svg").exists()

    def test_config_file_plus_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d_min": 2, "d_max": 2, "taus": [1.0],
                                   "subsamples": [1], "trials": 2}))
        out_dir = tmp_path / "o"
        assert run("sweep", "error", "--config", cfg, "--seed", 4,
                   "--out-dir", out_dir) == 0
        text = (out_dir / "error.csv").read_text()
        assert '"seed": 4' in text.splitlines()[0]

    def test_every_override_reaches_the_preamble(self, tmp_path):
        out_dir = tmp_path / "o"
        assert run("sweep", "error", "--seed", 7, "--d-min", 3, "--d-max", 3,
                   "--p-link", 0.75, "--tau", 0.5, "--tau", 0.25, "--dt", 0.05,
                   "--subsample", 5, "--subsample", 1, "--trials", 2,
                   "--general-coupling", "--out-dir", out_dir) == 0
        preamble = (out_dir / "error.csv").read_text().splitlines()[0]
        assert json.loads(preamble[2:])["config"] == {
            "seed": 7, "d_min": 3, "d_max": 3, "p_link": 0.75, "taus": [0.5, 0.25],
            "dt": 0.05, "subsamples": [5, 1], "trials": 2, "real_coupling": False,
        }

    def test_removed_config_keys_exit_2(self, tmp_path):
        for key, value in (("jobs", 2), ("timing", True), ("label_rtol", 1e-12),
                           ("connected_only", False), ("rtol", 1e-9)):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({"d_max": 2, "trials": 1, key: value}))
            assert run("sweep", "solvability", "--config", cfg, "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize("content", ['{"tauz": [1]}', "[1]", '{"hbar": 1.0}'],
                             ids=["unknown-key", "not-an-object", "removed-key"])
    def test_config_errors_name_the_file(self, tmp_path, capsys, content):
        # from_json's two rejections named no file; hbar is a removed key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        capsys.readouterr()
        assert run("sweep", "solvability", "--config", cfg, "--out-dir", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {cfg}: ")

    def test_removed_flags_exit_2(self, tmp_path):
        sweep = ("sweep", "solvability", "--out-dir", tmp_path)
        for argv in (sweep + ("--label-rtol", 1e-12), sweep + ("--extended",),
                     sweep + ("--allow-disconnected",), sweep + ("--hbar", 1.0),
                     ("identify", "--trajectory", tmp_path / "t.csv", "--label-rtol", 1e-12),
                     ("identify", "--trajectory", tmp_path / "t.csv", "--hbar", 1.0),
                     ("identify", "--trajectory", tmp_path / "t.csv", "--seed", 3),
                     ("simulate", "--er-d", 4, "--tau", 1, "--dt", 0.1, "--out",
                      tmp_path / "t.csv", "--hbar", 1.0),
                     ("partial-identify", "--hamiltonian", tmp_path / "h.json", "--hbar", 1.0),
                     sweep + ("--rtol", 1e-9),
                     ("identify", "--trajectory", tmp_path / "t.csv", "--rtol", 1e-9),
                     ("observability", "--hamiltonian", tmp_path / "h.json", "--rtol", 1e-9),
                     ("partial-identify", "--hamiltonian", tmp_path / "h.json", "--rtol", 1e-9)):
            with pytest.raises(SystemExit) as exc:
                run(*argv)
            assert exc.value.code == 2

    def test_wrongly_typed_config_values_exit_2(self, tmp_path, capsys):
        # SweepConfig.validate's type rule names the field; before it, a string
        # dt or a null float field raised a bare TypeError in validate
        for key, value in (("d_min", "x"), ("taus", 3), ("trials", True),
                           ("subsamples", [5.5]), ("real_coupling", "no"), ("dt", "0.01"),
                           ("taus", 3.0), ("p_link", "0.5"), ("dt", None), ("seed", 1.5)):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({"d_max": 2, "trials": 1, key: value}))
            capsys.readouterr()
            out_dir = tmp_path / "out"
            assert run("sweep", "solvability", "--config", cfg, "--out-dir", out_dir) == 2
            err = capsys.readouterr().err
            assert f"\n  {key} must be " in err and "Traceback" not in err
            assert not out_dir.exists()

    def test_config_not_an_object_exits_2(self, tmp_path, capsys):
        for value, type_name in ((3, "int"), ([{"a": 1}], "list")):
            cfg = tmp_path / f"{type_name}.json"
            cfg.write_text(json.dumps(value))
            capsys.readouterr()
            assert run("sweep", "error", "--config", cfg, "--out-dir", tmp_path) == 2
            assert f"got {type_name}" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path):
        assert run("sweep", "solvability", "--d-min", 5, "--d-max", 2,
                   "--out-dir", tmp_path) == 2

    def test_repeated_taus_and_divisors_exit_2(self, tmp_path, capsys):
        # each repeated value is named, 1 and 1.0 as one tau; the same cell
        # was written once per repeat
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subsamples": [5, 5], "taus": [1, 1.0], "d_min": 2,
                                   "d_max": 2, "trials": 2}))
        out_dir = tmp_path / "out"
        assert run("sweep", "error", "--config", cfg, "--out-dir", out_dir) == 2
        err = capsys.readouterr().err
        assert "tau 1.0 is listed more than once" in err
        assert "subsample divisor 5 is listed more than once" in err
        assert not out_dir.exists()

    def test_non_uniform_grid_exits_2_with_the_other_violations(self, tmp_path, capsys,
                                                                monkeypatch):
        # --tau 200000 --subsample 1 --trials 0 exited 3 on the grid (2e7 samples,
        # steps 2e-9 relative apart) and never named trials; a 0 grid tolerance
        # fails a 10-sample grid the same way
        monkeypatch.setattr(qnetid.dynamics, "GRID_RTOL", 0.0)
        out_dir = tmp_path / "out"
        assert run("sweep", "solvability", "--tau", 1.0, "--dt", 0.1, "--subsample", 1,
                   "--trials", 0, "--out-dir", out_dir) == 2
        err = capsys.readouterr().err
        assert "\n  tau/dt = 1.0/0.1: trajectory times are not uniform" in err
        assert "\n  trials must be >= 1, got 0" in err
        assert not out_dir.exists()

    def test_bad_subsample_exits_2(self, tmp_path):
        assert run("sweep", "solvability", "--tau", 1.0, "--subsample", 7,
                   "--out-dir", tmp_path) == 2
        assert run("sweep", "solvability", "--tau", 1.0, "--subsample", 0,
                   "--out-dir", tmp_path) == 2

    def test_empty_taus_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"taus": []}))
        out_dir = tmp_path / "out"
        assert run("sweep", "error", "--config", cfg, "--out-dir", out_dir) == 2
        assert "\n  at least one tau is required" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind", ["solvability", "error"])
    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_value_exits_3(self, tmp_path, capsys, kind, value):
        # a solvability plot wrote cy="nan" and exited 0; an error plot died
        # with an uncaught OverflowError
        csv, svg = tmp_path / "s.csv", tmp_path / "s.svg"
        column = 4 if kind == "solvability" else 5
        fields = "2,3.0,300,4,1.0,0.01,0.01,0.01,0".split(",")
        bad = ["3"] + fields[1:column] + [value] + fields[column + 1:]
        csv.write_text(f"{CSV_HEADER}\n{','.join(fields)}\n{','.join(bad)}\n")
        assert run("plot", "--csv", csv, "--kind", kind, "--out", svg) == 3
        assert capsys.readouterr().err.startswith(f"numerical failure: {csv}: line 3: ")
        assert not svg.exists()


class TestObservability:
    def test_from_hamiltonian(self, tmp_path, capsys):
        h_path = tmp_path / "h.json"
        save_matrix(h_path, np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert run("observability", "--hamiltonian", h_path) == 0
        out = capsys.readouterr().out
        assert "observable: yes" in out

    def test_full_rank_at_d6(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h_path = tmp_path / "h.json"
        save_matrix(h_path, 0.5 * (g + g.conj().T))
        assert run("observability", "--hamiltonian", h_path) == 0
        assert "rank: 36 of 36" in capsys.readouterr().out

    def test_unobservable_zero_diagonal(self, tmp_path, capsys):
        h_path = tmp_path / "h.json"
        save_matrix(h_path, SX)
        assert run("observability", "--hamiltonian", h_path) == 0
        out = capsys.readouterr().out
        assert "observable: no" in out
        assert "rank: 3 of 4" in out

    def test_answer_depends_on_the_hamiltonian_alone(self):
        # the sampling period is a function of H and an identify estimate has
        # a zero diagonal, so neither is an input of the verb
        parser = cli._build_parser()
        args = parser.parse_args(["observability", "--hamiltonian", "h.json"])
        assert sorted(vars(args)) == ["command", "hamiltonian"]
        with pytest.raises(SystemExit):
            parser.parse_args(["observability"])


class TestPartialIdentify:
    def test_exact_mode(self, tmp_path, capsys):
        h_path = tmp_path / "h.json"
        save_matrix(h_path, np.array([[1.0, 1.0], [1.0, -1.0]]))
        summary = tmp_path / "s.json"
        assert run("partial-identify", "--hamiltonian", h_path, "--out", summary) == 0
        obj = json.loads(summary.read_text())
        assert obj["observable"] is True
        assert obj["hamiltonian_relative_error"] <= 1e-9
        assert "generator_relative_error" not in obj

    def test_estimate_mode_with_outputs(self, tmp_path):
        h_path = tmp_path / "h.json"
        save_matrix(h_path, np.array([[1.0, 1.0], [1.0, -1.0]]))
        batch = tmp_path / "batch"
        summary = tmp_path / "s.json"
        code = run("partial-identify", "--hamiltonian", h_path, "--estimate",
                   "--save-outputs", batch, "--out", summary)
        assert code == 0
        obj = json.loads(summary.read_text())
        assert "preparable" in obj["mode"]
        assert obj["hamiltonian_relative_error"] <= 1e-8
        manifest = json.loads((batch / "manifest.json").read_text())
        assert len(manifest["outputs"]) == 4  # d^2 initializations
        assert (batch / manifest["outputs"]["1"]).exists()

    def test_saved_outputs_reproduce_estimate(self, tmp_path):
        # the saved batch holds the samples the estimate was computed from:
        # identified from the files alone, it gives the same Hamiltonian
        rng = np.random.default_rng(21)
        for d in (2, 3, 3, 4, 4, 5):
            while True:
                h = random_hermitian(rng, d, norm=1.0)
                if np.max(np.abs(np.diag(h).real)) >= 0.1:
                    break
            h_path = tmp_path / f"h{d}.json"
            save_matrix(h_path, h)
            batch = tmp_path / f"batch{d}"
            assert run("partial-identify", "--hamiltonian", h_path, "--estimate",
                       "--save-outputs", batch) == 0

            h = hermitize(load_matrix(h_path))
            u, period = sampled_propagator(h)
            lambda0, _ = physical_initial_batch(d)
            ys = output_stacks(u, lambda0)
            h_estimate = reconstruct_hamiltonian(ys, lambda0, period)

            lambda0_saved, runs = read_output_batch(batch / "manifest.json")
            times = runs[0][1]
            assert len(times) == d * d + 1
            ys_saved = np.stack([pops for _, _, pops in runs], axis=2)
            h_saved = reconstruct_hamiltonian(ys_saved, lambda0_saved, times[1] - times[0])
            assert spectral_norm(h_saved - h_estimate) <= 1e-12 * spectral_norm(h_estimate)

    def test_estimate_outputs_computed_once(self, tmp_path, monkeypatch):
        # one simulation per call: the saved batch reuses the stack the
        # estimate was computed from, and in exact mode the basis-element
        # stack applied to the preparable states
        calls = []

        def counting(*args):
            calls.append(args)
            return output_stacks(*args)

        monkeypatch.setattr("qnetid.cli.output_stacks", counting)
        h_path = tmp_path / "h.json"
        save_matrix(h_path, np.array([[1.0, 1.0], [1.0, -1.0]]))
        for mode in ((), ("--estimate",)):
            for save in ((), ("--save-outputs", tmp_path / f"batch{len(mode)}")):
                calls.clear()
                assert run("partial-identify", "--hamiltonian", h_path, *mode, *save) == 0
                assert len(calls) == 1, (mode, save)

    def test_one_decomposition_per_hamiltonian(self, tmp_path, monkeypatch):
        # one eigh of H gives the period and the propagator; the five SVDs
        # are Lambda0's rank, the realigned estimate, its factor's
        # non-unitarity and the two norms of the relative error
        calls = []
        for name in ("eigh", "svd"):
            call = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, call=call, name=name, **kw:
                                calls.append(name) or call(*a, **kw))
        h_path = tmp_path / "h.json"
        save_matrix(h_path, random_hermitian(np.random.default_rng(8), 3, norm=1.0))
        for flags in ((), ("--estimate",), ("--save-outputs", tmp_path / "batch")):
            calls.clear()
            assert run("partial-identify", "--hamiltonian", h_path, *flags) == 0
            assert (calls.count("eigh"), calls.count("svd")) == (1, 5), flags

    def test_saved_outputs_same_in_both_modes(self, tmp_path):
        # the batch holds the preparable runs whichever initializations identify
        h_path = tmp_path / "h.json"
        save_matrix(h_path, random_hermitian(np.random.default_rng(4), 3, norm=1.0))
        batches = [tmp_path / "exact", tmp_path / "estimate"]
        assert run("partial-identify", "--hamiltonian", h_path, "--save-outputs",
                   batches[0]) == 0
        assert run("partial-identify", "--hamiltonian", h_path, "--estimate",
                   "--save-outputs", batches[1]) == 0
        names = sorted(p.name for p in batches[0].iterdir())
        assert len(names) == 10  # d^2 CSVs and the manifest
        assert names == sorted(p.name for p in batches[1].iterdir())
        for name in names:
            assert (batches[0] / name).read_bytes() == (batches[1] / name).read_bytes(), name

    def test_unobservable_exits_3(self, tmp_path, capsys):
        h_path = tmp_path / "h.json"
        save_matrix(h_path, SX)
        assert run("partial-identify", "--hamiltonian", h_path) == 3
        assert "not observable" in capsys.readouterr().err


class TestFlagAndInputChecks:
    @staticmethod
    def argv(verb, tmp_path):
        h_path = tmp_path / "h.json"
        save_matrix(h_path, np.array([[1.0, 1.0], [1.0, -1.0]]))
        traj = tmp_path / "in.csv"  # n_s = 10
        write_trajectory_csv(sample_trajectory(SX, np.diag([1.0, 0.0]), 1.0, 0.1), traj)
        return {
            "simulate": ("simulate", "--hamiltonian", h_path, "--tau", 1.0, "--dt", 0.1,
                         "--out", tmp_path / "t.csv"),
            "simulate-er": ("simulate", "--er-d", 3, "--tau", 1.0, "--dt", 0.1,
                            "--out", tmp_path / "t.csv"),
            "identify": ("identify", "--trajectory", traj, "--out", tmp_path / "r.json"),
            "observability": ("observability", "--hamiltonian", h_path),
            "partial-identify": ("partial-identify", "--hamiltonian", h_path,
                                 "--out", tmp_path / "s.json", "--save-outputs", tmp_path / "b"),
            "sweep": ("sweep", "solvability", "--d-max", 2, "--trials", 1,
                      "--out-dir", tmp_path / "out"),
            "decompose": ("decompose", "--out-dir", tmp_path / "dec"),
            "plot": ("plot", "--kind", "error", "--out", tmp_path / "p.svg"),
        }[verb]

    @staticmethod
    def write_probe_inputs(tmp_path):
        """Input files named by the probes of ``test_invalid_parameter_exits_2``."""
        save_matrix(tmp_path / "h3.json", np.eye(3))
        save_matrix(tmp_path / "rho3.json", np.diag([1.0, 0.0, 0.0]))
        (tmp_path / "config.json").write_text('{"rtol": 1e-09}')  # a config of the removed key
        (tmp_path / "tau_overflow.json").write_text('{"taus": [1' + "0" * 400 + "]}")
        write_trajectory_csv(sample_trajectory(np.zeros((1, 1)), np.eye(1), 1.0, 0.1),
                             tmp_path / "one_node.csv")

    def run_rejected(self, tmp_path, capsys, verb, *flags) -> str:
        """Run a verb whose flags the library rejects: exit 2, no traceback,
        no file written; returns stderr."""
        argv = self.argv(verb, tmp_path)
        inputs = set(tmp_path.iterdir())
        capsys.readouterr()
        assert run(*argv, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "Traceback" not in err
        assert set(tmp_path.iterdir()) == inputs
        return err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag, verb", [
        ("--rtol", "identify"), ("--rtol", "observability"), ("--rtol", "partial-identify"),
        ("--rtol", "sweep"),
    ])
    def test_nonpositive_flag_exits_2(self, tmp_path, capsys, flag, verb, value):
        # rtol = 0 gave full rank, and the library's check refused it; the flag
        # is gone, so every value of it, these included, is an unknown argument
        argv = self.argv(verb, tmp_path)
        inputs = set(tmp_path.iterdir())
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(*argv, f"{flag}={value}")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}={value}" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("verb, flags, named", [
        probe(0, "sweep", ("--dt", "nan"), "dt must be positive and finite, got nan"),
        probe(1, "sweep", ("--p-link", "nan"), "p_link must be in (0, 1], got nan"),
        probe(2, "sweep", ("--dt", "inf"), "dt must be positive and finite, got inf"),
        probe(3, "sweep", ("--tau", "inf"), "tau must be positive and finite, got inf"),
        probe(4, "sweep", ("--tau", "1e300", "--dt", "1e-300"), "tau/dt = 1e+300/1e-300 is not"),
        probe(5, "simulate", ("--tau", "inf"), "tau must be positive and finite, got inf"),
        probe(6, "simulate", ("--tau", "1", "--dt", "0.3"), "tau/dt = 1.0/0.3 is not"),
        probe(7, "simulate", ("--dt", "inf"), "dt must be positive and finite, got inf"),
        probe(8, "simulate-er", ("--er-p", "2"), "p_link must be in [0, 1], got 2.0"),
        probe(9, "simulate-er", ("--er-p", "nan"), "p_link must be in [0, 1], got nan"),
        probe(10, "simulate-er", ("--er-d", "1"), "d must be at least 2, got 1"),
        probe(11, "simulate", ("--excite-node", "9"), "node index 9 out of range 1..2"),
        probe(12, "identify", ("--subsample", "0"), "subsample must be a positive integer, got 0"),
        probe(13, "identify", ("--truth", "config.json"), "config.json: malformed matrix object"),
        probe(14, "identify", ("--subsample", "3"), "subsample 3 does not divide n_s = 10"),
        # a one-node trajectory was a numerical failure (exit 3) that named no file
        probe(15, "identify", ("--trajectory", "one_node.csv"),
                  "one_node.csv: d must be at least 2, got 1"),
        probe(16, "partial-identify", ("--hamiltonian", "config.json"),
                  "config.json: malformed matrix object"),
        probe(17, "sweep", ("--config", "config.json"),
                  "config.json: unknown config keys: ['rtol']"),
        probe(18, "sweep", ("--config", "tau_overflow.json"),
                  "tau must be positive and finite, got an integer beyond the float range"),
        probe(19, "decompose", ("--dim", "4", "--k", "9", "--j", "1"),
                  "indices (9, 1) out of range 1..4"),
        probe(20, "decompose", ("--dim", "0", "--k", "1", "--j", "1"),
                  "indices (1, 1) out of range 1..0"),
        probe(21, "identify", ("--truth", "h3.json"),
                  "h3.json: expected d = 2 nodes, got a (3, 3) matrix"),
        probe(22, "identify", ("--h0", "h3.json"),
                  "h3.json: expected d = 2 nodes, got a (3, 3) matrix"),
        probe(23, "sweep", ("--d-max", "1" + "0" * 400), "d_max must be below d_min + sys.maxsize"),
        probe(24, "simulate", ("--rho0", "rho3.json"),
                  "rho3.json: expected d = 2 nodes, got a (3, 3)"),
    ])
    def test_invalid_parameter_exits_2(self, tmp_path, capsys, monkeypatch, verb, flags, named):
        # each of these crashed with a traceback (exit 1), passed with a wrong
        # answer (exit 0) or was reported as a numerical failure (exit 3);
        # the probes' input files are named relative to tmp_path
        self.write_probe_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert named in self.run_rejected(tmp_path, capsys, verb, *flags)

    @pytest.mark.parametrize("verb, flags, named", [
        ("sweep", ("--out-dir", "a_file"), "File exists: 'a_file'"),
        ("simulate", ("--out", "a_dir"), "Is a directory: 'a_dir'"),
        ("simulate", ("--hamiltonian", "a_dir"), "Is a directory: 'a_dir'"),
        ("identify", ("--trajectory", "a_dir"), "Is a directory: 'a_dir'"),
        ("plot", ("--csv", "a_dir"), "Is a directory: 'a_dir'"),
        ("simulate-er", ("--seed", "-1"), "seed must be a non-negative integer, got -1"),
    ])
    def test_path_error_exits_2(self, tmp_path, capsys, monkeypatch, verb, flags, named):
        # a path of the wrong kind ended in a traceback (FileExistsError,
        # IsADirectoryError), a negative seed in a numerical failure (exit 3);
        # the seed is judged by netmodel, which names it
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "a_file").write_text("x\n")
        monkeypatch.chdir(tmp_path)
        assert named in self.run_rejected(tmp_path, capsys, verb, *flags)
        assert not any((tmp_path / "a_dir").iterdir())
        assert (tmp_path / "a_file").read_text() == "x\n"

    @pytest.mark.parametrize("verb", ["simulate", "observability", "partial-identify"])
    def test_one_node_hamiltonian_exits_2(self, tmp_path, capsys, verb):
        # a 1 x 1 H has a zero generator: its relative error divided round-off by 1e-300
        argv = self.argv(verb, tmp_path)
        save_matrix(tmp_path / "h.json", np.array([[1.0]]))
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {tmp_path / 'h.json'}: ")
        assert "d must be at least 2, got 1" in err
        assert not (tmp_path / "t.csv").exists()


class TestNonUtf8Inputs:
    """A byte 0xff in a reader's file: the message starts with that file's path."""

    def test_trajectory_csv(self, tmp_path, capsys):
        traj = tmp_path / "t.csv"
        assert run("simulate", "--er-d", 2, "--tau", 1.0, "--dt", 0.1, "--out", traj) == 0
        with traj.open("ab") as fh:
            fh.write(b"\xff\n")
        capsys.readouterr()
        assert run("identify", "--trajectory", traj) == 3
        assert capsys.readouterr().err.startswith(f"numerical failure: {traj}: 'utf-8' codec")

    def test_sweep_csv(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        csv.write_bytes(f"{CSV_HEADER}\n".encode() + b"2,1.0,10,4,\xff,,,,0\n")
        assert run("plot", "--csv", csv, "--kind", "solvability",
                   "--out", tmp_path / "s.svg") == 3
        assert capsys.readouterr().err.startswith(f"numerical failure: {csv}: 'utf-8' codec")

    def test_output_batch_run_csv(self, tmp_path):
        h_path, batch = tmp_path / "h.json", tmp_path / "batch"
        save_matrix(h_path, np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert run("partial-identify", "--hamiltonian", h_path, "--save-outputs", batch) == 0
        with (batch / "output_002.csv").open("ab") as fh:
            fh.write(b"\xff\n")
        with pytest.raises(ValueError) as info:
            read_output_batch(batch / "manifest.json")
        assert str(info.value).startswith(f"{batch / 'output_002.csv'}: 'utf-8' codec")


class TestParser:
    def test_calls_share_no_state(self, monkeypatch):
        # the parser is built once per process; each call still parses afresh
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "sweep", lambda args: seen.append(args.taus) or 0)
        assert run("sweep", "error", "--tau", 1, "--tau", 2, "--out-dir", "o") == 0
        assert run("sweep", "error", "--out-dir", "o") == 0
        assert seen == [[1.0, 2.0], None]
        assert cli._build_parser() is cli._build_parser()

    def test_sweep_flags_equal_config_json(self, tmp_path, monkeypatch):
        # each SweepConfig field has a flag; setting them all gives, field by
        # field and type by type, the config that from_json and the library
        # make of the same values, so the three routes cannot drift apart as
        # fields are added (an int tau drew other networks than its float)
        values = {"seed": 7, "d_min": 3, "d_max": 4, "p_link": 1, "taus": [1, 0.5],
                  "dt": 0.05, "subsamples": [5, 1], "trials": 2, "real_coupling": False}
        assert list(values) == [f.name for f in fields(SweepConfig)]
        assert all(values[f.name] != f.default for f in fields(SweepConfig))
        sweep = cli._build_parser()._subparsers._group_actions[0].choices["sweep"]
        argv = ["sweep", "error", "--out-dir", tmp_path / "out"]
        for action in sweep._actions:
            if action.dest not in values:
                continue
            flag, value = action.option_strings[0], values[action.dest]
            if action.nargs == 0:  # --general-coupling, which clears real_coupling
                argv.append(flag)
            else:
                for v in value if isinstance(value, list) else [value]:
                    argv.extend([flag, v])
        seen = []
        monkeypatch.setattr(cli, "run_sweep", lambda cfg, kind, out_csv: seen.append(cfg)
                            or SweepResult(kind, cfg))
        assert run(*argv) == 0
        [cfg] = seen
        reference = SweepConfig.from_json(json.loads(json.dumps(values)))
        for route in (cfg, SweepConfig(**values)):
            assert route == reference
            for name in values:
                got, want = getattr(route, name), getattr(reference, name)
                assert got == want and type(got) is type(want), name
                if isinstance(want, tuple):
                    assert list(map(type, got)) == list(map(type, want)), name
        assert reference.taus == (1.0, 0.5) and type(reference.p_link) is float

    def test_readme_commands_parse(self):
        # every qnetid line of README's bash blocks, continuations joined and
        # trailing comments cut, is a command line the parser accepts
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        script = "\n".join(re.findall(r"```bash\n(.*?)```", readme, re.S)).replace("\\\n", " ")
        parser = cli._build_parser()
        commands = 0
        for line in script.splitlines():
            head = re.match(r"(\w+=\S* +)*qnetid ", line)  # after any environment settings
            if head:
                commands += 1
                try:
                    parser.parse_args(shlex.split(line[head.end():], comments=True))
                except SystemExit:
                    pytest.fail(f"README command does not parse: {line}")
        assert commands >= 10

    def test_rtol_defaults_are_the_library_default(self):
        # the rank cut is the library's one constant, and no verb or sweep
        # config can set another: moving it moves every certificate
        assert DEFAULT_RTOL == 1e-9
        subparsers = cli._build_parser()._subparsers._group_actions[0].choices
        for verb, parser in subparsers.items():
            assert "rtol" not in {action.dest for action in parser._actions}, verb
        assert "rtol" not in {f.name for f in fields(SweepConfig)}


class TestDecompose:
    def test_prints_and_writes(self, tmp_path, capsys):
        out_dir = tmp_path / "dec"
        assert run("decompose", "--dim", 3, "--k", 1, "--j", 2,
                   "--out-dir", out_dir) == 0
        assert "4 preparable state" in capsys.readouterr().out
        text = (out_dir / "coefficients.json").read_text()
        coeffs = json.loads(text)
        assert text == json.dumps(coeffs, indent=2, sort_keys=True) + "\n"
        assert len(coeffs["terms"]) == 4
        acc = np.zeros((3, 3), dtype=complex)
        for term in coeffs["terms"]:
            acc += complex(term["re"], term["im"]) * load_matrix(out_dir / term["file"])
        target = np.zeros((3, 3), dtype=complex)
        target[0, 1] = 1.0
        assert np.max(np.abs(acc - target)) <= 1e-14

    def test_bad_index_exits_2(self, tmp_path, capsys):
        # an index check is a parameter check; it was reported as a numerical failure
        assert run("decompose", "--dim", 3, "--k", 0, "--j", 2, "--out-dir", tmp_path / "d") == 2
        assert capsys.readouterr().err.startswith("configuration error: indices (0, 2)")
        assert not (tmp_path / "d").exists()


class TestJsonInputs:
    @staticmethod
    def argv_reading(flag, tmp_path):
        """A command line that reads a JSON file given after ``flag``."""
        good, traj = tmp_path / "h.json", tmp_path / "t.csv"
        save_matrix(good, SX)
        assert run("simulate", "--hamiltonian", good, "--tau", 1.0, "--dt", 0.1,
                   "--out", traj) == 0
        return {
            "--config": ("sweep", "solvability", "--out-dir", tmp_path),
            "--hamiltonian": ("observability",),
            "--truth": ("identify", "--trajectory", traj),
            "--h0": ("identify", "--trajectory", traj),
            "--rho0": ("simulate", "--hamiltonian", good, "--tau", 1.0, "--dt", 0.1,
                       "--out", traj),
        }[flag] + (flag,)

    @pytest.mark.parametrize("flag", ["--config", "--hamiltonian", "--truth", "--h0",
                                      "--rho0"])
    def test_unparsable_json_names_the_file(self, tmp_path, capsys, flag):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d_max": 2,')
        argv = self.argv_reading(flag, tmp_path)
        capsys.readouterr()
        assert run(*argv, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {bad}: Expecting property name")

    @pytest.mark.parametrize("flag", ["--config", "--truth", "--rho0"])
    def test_integer_beyond_digit_limit_names_the_file(self, tmp_path, capsys, flag):
        # json raises a plain ValueError for it, which exited 3 as a numerical failure
        bad = tmp_path / "bad.json"
        bad.write_text('{"dt": 1' + "0" * 5000 + "}")
        argv = self.argv_reading(flag, tmp_path)
        capsys.readouterr()
        assert run(*argv, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {bad}: Exceeds the limit")

    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    @pytest.mark.parametrize("verb, flag", [
        ("simulate", "--hamiltonian"), ("simulate", "--rho0"), ("identify", "--h0"),
        ("identify", "--truth"), ("observability", "--hamiltonian"),
        ("partial-identify", "--hamiltonian"),
    ])
    def test_non_finite_matrix_entry_names_the_file(self, tmp_path, capsys, verb, flag, entry):
        # Python's json parses NaN and Infinity: simulate wrote a trajectory of
        # NaN rows and exited 0, the solvers exited 3 with "SVD did not converge"
        good, traj = tmp_path / "h.json", tmp_path / "t.csv"
        save_matrix(good, SX)
        write_trajectory_csv(sample_trajectory(SX, np.diag([1.0, 0.0]), 1.0, 0.1), traj)
        matrix = matrix_to_json(np.diag([1.0, 0.0]) if flag == "--rho0" else SX)
        matrix["re"][0][0] = float(entry)
        bad = tmp_path / "bad.json"
        save_json(bad, matrix)
        assert entry in bad.read_text()
        argv = {
            "simulate": ("--tau", 1.0, "--dt", 0.1, "--out", tmp_path / "out.csv")
            + (("--hamiltonian", good) if flag == "--rho0" else ()),
            "identify": ("--trajectory", traj, "--out", tmp_path / "r.json"),
            "observability": (),
            "partial-identify": ("--out", tmp_path / "s.json", "--save-outputs", tmp_path / "b"),
        }[verb]
        inputs = set(tmp_path.iterdir())
        capsys.readouterr()
        assert run(verb, *argv, flag, bad) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {bad}: matrix entries must be "
                                       "finite")
        assert captured.out == ""
        assert set(tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("flag", ["--hamiltonian", "--truth", "--h0", "--rho0"])
    def test_malformed_matrix_names_the_file(self, tmp_path, capsys, flag):
        # JSON that parses but holds no matrix object is a configuration error
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": 2}))
        argv = self.argv_reading(flag, tmp_path)
        capsys.readouterr()
        assert run(*argv, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {bad}: malformed matrix object")

    @pytest.mark.parametrize("flag", ["--hamiltonian", "--truth", "--h0", "--rho0"])
    def test_non_hermitian_matrix_names_the_file(self, tmp_path, capsys, flag):
        # hermitize's message named no file, though identify reads two or three
        bad = tmp_path / "bad.json"
        save_matrix(bad, np.array([[0.0, 1.0], [0.0, 0.0]]))
        argv = self.argv_reading(flag, tmp_path)
        capsys.readouterr()
        assert run(*argv, bad) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {bad}: matrix is not Hermitian: relative "
                              "asymmetry 1.414e+00")

    @pytest.mark.parametrize("rows, cols", [(2.9, True), ("2", 1)], ids=["float-bool", "string"])
    @pytest.mark.parametrize("flag", ["--hamiltonian", "--truth", "--h0", "--rho0"])
    def test_non_integer_matrix_size_names_the_file(self, tmp_path, capsys, flag, rows, cols):
        # the sizes went through int(), so these loaded with a 2 x 1 payload
        bad = tmp_path / "bad.json"
        matrix = {"rows": rows, "cols": cols, "re": [[1.0], [2.0]], "im": [[0.0], [0.0]]}
        bad.write_text(json.dumps(matrix))
        argv = self.argv_reading(flag, tmp_path)
        capsys.readouterr()
        assert run(*argv, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {bad}: malformed matrix object: rows and "
                              f"cols must be integers, got {rows!r} and {cols!r}")
