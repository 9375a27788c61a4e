import json

import numpy as np
import pytest

from qnetid.cli import main
from qnetid.dynamics import Trajectory, propagator, read_trajectory_csv, write_trajectory_csv
from qnetid.linalg import hermitize, load_matrix, save_matrix, spectral_norm
from qnetid.partialinfo import (
    extract_hamiltonian,
    output_stacks,
    physical_initial_batch,
    read_output_batch,
    reconstruct_liouvillian,
    sampling_period,
)

from conftest import random_hermitian

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def run(*argv) -> int:
    return main([str(a) for a in argv])


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

    def test_malformed_trajectory_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        assert run("identify", "--trajectory", bad) == 3

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
        assert "--er-p 0" in capsys.readouterr().err
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
                   "--subsample", 5, "--subsample", 1, "--trials", 2, "--hbar", 0.5,
                   "--rtol", 1e-8, "--general-coupling", "--out-dir", out_dir) == 0
        preamble = (out_dir / "error.csv").read_text().splitlines()[0]
        assert json.loads(preamble[2:])["config"] == {
            "seed": 7, "d_min": 3, "d_max": 3, "p_link": 0.75, "taus": [0.5, 0.25],
            "dt": 0.05, "subsamples": [5, 1], "trials": 2, "hbar": 0.5, "rtol": 1e-8,
            "real_coupling": False,
        }

    def test_removed_config_keys_exit_2(self, tmp_path):
        for key, value in (("jobs", 2), ("timing", True), ("label_rtol", 1e-12),
                           ("connected_only", False)):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({"d_max": 2, "trials": 1, key: value}))
            assert run("sweep", "solvability", "--config", cfg, "--out-dir", tmp_path) == 2

    def test_removed_flags_exit_2(self, tmp_path):
        sweep = ("sweep", "solvability", "--out-dir", tmp_path)
        for argv in (sweep + ("--label-rtol", 1e-12), sweep + ("--extended",),
                     sweep + ("--allow-disconnected",),
                     ("identify", "--trajectory", tmp_path / "t.csv", "--label-rtol", 1e-12)):
            with pytest.raises(SystemExit) as exc:
                run(*argv)
            assert exc.value.code == 2

    def test_wrongly_typed_config_values_exit_2(self, tmp_path, capsys):
        for key, value in (("d_min", "x"), ("taus", 3), ("trials", True),
                           ("subsamples", [5.5]), ("real_coupling", "no")):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({"d_max": 2, "trials": 1, key: value}))
            capsys.readouterr()
            assert run("sweep", "solvability", "--config", cfg, "--out-dir", tmp_path) == 2
            assert f"{key} = {json.dumps(value)}" in capsys.readouterr().err

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

    def test_bad_subsample_exits_2(self, tmp_path):
        assert run("sweep", "solvability", "--tau", 1.0, "--subsample", 7,
                   "--out-dir", tmp_path) == 2
        assert run("sweep", "solvability", "--tau", 1.0, "--subsample", 0,
                   "--out-dir", tmp_path) == 2


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

    def test_report_without_m_hat_exits_2(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"outcome": "unique"}))
        assert run("observability", "--report", report) == 2
        assert "'m_hat'" in capsys.readouterr().err

    def test_posterior_check_from_report(self, tmp_path, capsys):
        h_path = tmp_path / "h.json"
        save_matrix(h_path, SX)
        traj = tmp_path / "t.csv"
        run("simulate", "--hamiltonian", h_path, "--tau", 1.0, "--dt", 0.01, "--out", traj)
        report = tmp_path / "r.json"
        run("identify", "--trajectory", traj, "--out", report)
        assert run("observability", "--report", report) == 0
        assert "reconstructed estimate" in capsys.readouterr().out


class TestPartialIdentify:
    def test_exact_mode(self, tmp_path, capsys):
        h_path = tmp_path / "h.json"
        save_matrix(h_path, np.array([[1.0, 1.0], [1.0, -1.0]]))
        summary = tmp_path / "s.json"
        assert run("partial-identify", "--hamiltonian", h_path, "--out", summary) == 0
        obj = json.loads(summary.read_text())
        assert obj["observable"] is True
        assert obj["generator_relative_error"] <= 1e-9

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
            period = sampling_period(h)
            lambda0, _ = physical_initial_batch(d)
            ys = output_stacks(propagator(h, period), lambda0, d * d)
            h_estimate = extract_hamiltonian(reconstruct_liouvillian(ys, lambda0, period))

            lambda0_saved, runs = read_output_batch(batch / "manifest.json")
            times = runs[0][1]
            assert len(times) == d * d + 1
            ys_saved = np.stack([pops for _, _, pops in runs], axis=2)
            h_saved = extract_hamiltonian(
                reconstruct_liouvillian(ys_saved, lambda0_saved, times[1] - times[0])
            )
            assert spectral_norm(h_saved - h_estimate) <= 1e-12 * spectral_norm(h_estimate)

    def test_estimate_outputs_computed_once(self, tmp_path, monkeypatch):
        # the saved batch reuses the stack the estimate was computed from
        calls = []

        def counting(*args):
            calls.append(args)
            return output_stacks(*args)

        monkeypatch.setattr("qnetid.cli.output_stacks", counting)
        h_path = tmp_path / "h.json"
        save_matrix(h_path, np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert run("partial-identify", "--hamiltonian", h_path, "--estimate",
                   "--save-outputs", tmp_path / "batch") == 0
        assert len(calls) == 1

    def test_unobservable_exits_3(self, tmp_path, capsys):
        h_path = tmp_path / "h.json"
        save_matrix(h_path, SX)
        assert run("partial-identify", "--hamiltonian", h_path) == 3
        assert "not observable" in capsys.readouterr().err


class TestDecompose:
    def test_prints_and_writes(self, tmp_path, capsys):
        out_dir = tmp_path / "dec"
        assert run("decompose", "--dim", 3, "--k", 1, "--j", 2,
                   "--out-dir", out_dir) == 0
        assert "4 preparable state" in capsys.readouterr().out
        coeffs = json.loads((out_dir / "coefficients.json").read_text())
        assert len(coeffs["terms"]) == 4
        acc = np.zeros((3, 3), dtype=complex)
        for term in coeffs["terms"]:
            acc += complex(term["re"], term["im"]) * load_matrix(out_dir / term["file"])
        target = np.zeros((3, 3), dtype=complex)
        target[0, 1] = 1.0
        assert np.max(np.abs(acc - target)) <= 1e-14

    def test_bad_index_exits_3(self, tmp_path):
        assert run("decompose", "--dim", 3, "--k", 0, "--j", 2) == 3


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
            "--report": ("observability",),
            "--hamiltonian": ("observability",),
            "--truth": ("identify", "--trajectory", traj),
            "--h0": ("identify", "--trajectory", traj),
            "--rho0": ("simulate", "--hamiltonian", good, "--tau", 1.0, "--dt", 0.1,
                       "--out", traj),
        }[flag] + (flag,)

    @pytest.mark.parametrize("flag", ["--config", "--report", "--hamiltonian", "--truth",
                                      "--h0", "--rho0"])
    def test_unparsable_json_names_the_file(self, tmp_path, capsys, flag):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d_max": 2,')
        argv = self.argv_reading(flag, tmp_path)
        capsys.readouterr()
        assert run(*argv, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {bad}: Expecting property name")

    @pytest.mark.parametrize("flag", ["--report", "--hamiltonian", "--truth", "--h0",
                                      "--rho0"])
    def test_malformed_matrix_names_the_file(self, tmp_path, capsys, flag):
        # JSON that parses but holds no matrix object is a configuration error
        bad = tmp_path / "bad.json"
        matrix = {"rows": 2}
        bad.write_text(json.dumps({"m_hat": matrix} if flag == "--report" else matrix))
        argv = self.argv_reading(flag, tmp_path)
        capsys.readouterr()
        assert run(*argv, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {bad}: malformed matrix object")
