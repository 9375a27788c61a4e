import re

import numpy as np
import pytest
import scipy.linalg

from qnetid.dynamics import (
    Trajectory,
    check_density,
    exact_gram,
    liouvillian,
    propagate,
    read_trajectory_csv,
    sample_times,
    sample_trajectory,
    trapezoid_grams,
    unitary_conjugate,
    write_trajectory_csv,
)
from qnetid.identify import build_P_trapezoid, identify_topology
from qnetid.linalg import spectral_norm, vec
from qnetid.sweep import SweepConfig, benchmark_network

from conftest import random_density, random_hermitian

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
E1 = np.diag([1.0, 0.0]).astype(complex)


def write_csv_rows(path, traj, picks, times):
    """Write the CSV of ``traj``, then rewrite its rows as text: row k holds
    times[k] and the states of sample picks[k]."""
    write_trajectory_csv(traj, path)
    header, *rows = path.read_text().splitlines()
    body = [f"{t:.17g}," + rows[k].split(",", 1)[1] for k, t in zip(picks, times)]
    path.write_text("\n".join([header, *body]) + "\n")


class TestCheckDensity:
    def test_accepts_valid(self):
        rng = np.random.default_rng(0)
        rho = check_density(random_density(rng, 4))
        assert np.array_equal(rho, rho.conj().T)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density(2.0 * E1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            check_density(np.diag([1.5, -0.5]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            check_density(np.array([[1.0, 1.0], [0.0, 0.0]]))


class TestLiouvillian:
    def test_hand_computed_diagonal(self):
        out = liouvillian(np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(out, np.diag([0.0, 2.0j, -2.0j, 0.0]), atol=1e-14)

    def test_zero_hamiltonian(self):
        assert np.array_equal(liouvillian(np.zeros((3, 3))), np.zeros((9, 9)))

    def test_annihilates_own_hamiltonian(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, 4)
        out = liouvillian(h) @ vec(h)
        assert np.max(np.abs(out)) <= 1e-12 * spectral_norm(h)

    def test_skew_hermitian(self):
        rng = np.random.default_rng(2)
        lv = liouvillian(random_hermitian(rng, 3), hbar=0.7)
        assert spectral_norm(lv + lv.conj().T) <= 1e-12 * spectral_norm(lv)

    def test_hbar_scaling(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 3)
        assert np.allclose(liouvillian(h, hbar=2.0), 0.5 * liouvillian(h), atol=1e-14)

    def test_rejects_bad_hbar(self):
        with pytest.raises(ValueError):
            liouvillian(SX, hbar=0.0)


class TestPropagate:
    def test_time_zero_identity(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 3)
        assert np.allclose(propagate(random_hermitian(rng, 3), rho, 0.0), rho, atol=1e-13)

    def test_two_level_flip(self):
        # U(pi/2) under sigma_x maps |1><1| to |2><2|
        out = propagate(SX, E1, np.pi / 2)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_stationary_state(self):
        h = np.diag([1.0, -1.0]).astype(complex)
        for t in (0.3, 1.7, 9.1):
            assert np.allclose(propagate(h, E1, t), E1, atol=1e-13)

    def test_preserves_invariants(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        rho = random_density(rng, 4)
        out = propagate(h, rho, 2.1)
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert np.array_equal(out, out.conj().T)
        w_in = np.linalg.eigvalsh(rho)
        w_out = np.linalg.eigvalsh(out)
        assert np.allclose(w_in, w_out, atol=1e-10)

    def test_matches_vectorized_exponential(self):
        # independent oracle: expm of the vectorized generator
        rng = np.random.default_rng(6)
        for d in (2, 3, 4):
            h = random_hermitian(rng, d)
            rho = random_density(rng, d)
            t = float(rng.uniform(0.2, 2.0))
            direct = vec(propagate(h, rho, t))
            via_l = scipy.linalg.expm(liouvillian(h) * t) @ vec(rho)
            assert np.linalg.norm(direct - via_l) <= 1e-9 * np.linalg.norm(via_l)

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            propagate(SX, np.diag([2.0, -1.0]), 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            propagate(SX, E1, -1.0)


class TestUnitaryConjugate:
    def test_linear_extension(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = 0.8
        lhs = unitary_conjugate(h, 2.0 * x + 3.0 * y, t)
        rhs = 2.0 * unitary_conjugate(h, x, t) + 3.0 * unitary_conjugate(h, y, t)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_negative_time_inverts(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 3)
        x = rng.normal(size=(3, 3))
        back = unitary_conjugate(h, unitary_conjugate(h, x, 0.9), -0.9)
        assert np.allclose(back, x, atol=1e-12)


class TestSampleTrajectory:
    def test_grid_and_first_sample(self):
        traj = sample_trajectory(SX, E1, 1.0, 0.01)
        assert traj.n_samples == 100
        assert len(traj.times) == 101
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 1.0
        assert np.array_equal(traj.states[0], E1)
        assert traj.dt == pytest.approx(0.01)

    def test_constant_for_zero_hamiltonian(self):
        traj = sample_trajectory(np.zeros((2, 2)), E1, 0.5, 0.1)
        assert np.allclose(traj.states, traj.states[0], atol=1e-15)

    def test_unit_traces(self):
        rng = np.random.default_rng(9)
        traj = sample_trajectory(random_hermitian(rng, 3), random_density(rng, 3), 2.0, 0.05)
        traces = np.einsum("kii->k", traj.states).real
        assert np.max(np.abs(traces - 1.0)) <= 1e-10

    def test_rejects_non_integer_grid(self):
        with pytest.raises(ValueError, match="integer"):
            sample_trajectory(SX, E1, 1.0, 0.3)

    @pytest.mark.parametrize(
        "tau, dt",
        [
            (1.0, 0.01 * (1 + 5e-11)),   # last step 5e-9 off dt
            (1.0, 0.01 * (1 + 5e-12)),   # last step 5e-10 off dt
            (3.0, 0.01),
            (2.0, 0.01),
            (1.0, 0.3),
            (0.3, 0.1),
            (0.04, 0.1),
        ],
    )
    def test_grid_rule_agrees_with_config_validation(self, tau, dt):
        # one rule decides both: a (tau, dt) pair the sweep config accepts
        # samples to a valid Trajectory, and one it rejects cannot be sampled
        errors = SweepConfig(taus=(tau,), dt=dt, subsamples=(1,)).validate()
        try:
            traj = sample_trajectory(SX, E1, tau, dt)
        except ValueError as exc:
            assert "integer" in str(exc)
            assert errors == [f"dt {dt} does not divide tau {tau}"]
        else:
            assert errors == []
            assert traj.n_samples == SweepConfig(dt=dt).n_samples(tau)
            assert traj.times[-1] == tau

    def test_grid_of_existing_configs_unchanged(self):
        for tau in (1.0, 2.0, 3.0):
            n = int(round(tau / 0.01))
            expected = np.arange(n + 1) * 0.01
            expected[-1] = tau
            assert np.array_equal(sample_times(tau, 0.01), expected)

    def test_last_sample_propagated_to_n_dt(self):
        # times[-1] is tau, but the last state is propagated to n*dt like
        # every other sample (230 * 0.01 != 2.3 in floating point), which
        # keeps sampled trajectories, and the sweep records, unchanged
        rng = np.random.default_rng(14)
        h, rho0 = random_hermitian(rng, 4), random_density(rng, 4)
        rho0 = 0.5 * (rho0 + rho0.conj().T)
        short = sample_trajectory(h, rho0, 2.3, 0.01)
        longer = sample_trajectory(h, rho0, 3.0, 0.01)
        assert short.times[-1] == 2.3 != longer.times[230]
        assert np.array_equal(short.states, longer.states[:231])

    @pytest.mark.parametrize("n_s", [1, 15, 16, 17, 33])
    def test_block_edges_match_propagate(self, n_s):
        # sample counts around the propagation block size; a mixed state
        # has coherences in every entry
        rng = np.random.default_rng(40 + n_s)
        h = random_hermitian(rng, 4)
        rho0 = random_density(rng, 4)
        rho0 = 0.5 * (rho0 + rho0.conj().T)
        tau = 0.05 * n_s
        traj = sample_trajectory(h, rho0, tau, 0.05)
        assert traj.n_samples == n_s
        assert traj.times[-1] == tau
        assert np.array_equal(traj.states[0], rho0)
        for t, st in zip(traj.times, traj.states):
            assert np.max(np.abs(st - propagate(h, rho0, t))) <= 1e-14


class TestExactGram:
    def test_zero_hamiltonian(self):
        p = exact_gram(np.zeros((2, 2)), E1, 2.5)
        assert np.allclose(p, 2.5 * E1, atol=1e-14)

    def test_stationary_state(self):
        p = exact_gram(np.diag([1.0, -1.0]).astype(complex), E1, 1.8)
        assert np.allclose(p, 1.8 * E1, atol=1e-13)

    def test_matches_fine_trapezoid(self):
        from qnetid.identify import build_P_trapezoid

        p = exact_gram(SX, E1, 1.0)
        traj = sample_trajectory(SX, E1, 1.0, 1e-4)
        assert spectral_norm(build_P_trapezoid(traj) - p) <= 1e-7

    def test_second_order_convergence(self):
        from qnetid.identify import build_P_trapezoid

        rng = np.random.default_rng(10)
        for _ in range(5):
            d = int(rng.integers(2, 6))
            h = random_hermitian(rng, d, norm=1.5)
            rho = random_density(rng, d)
            pex = exact_gram(h, rho, 1.0)
            e1 = spectral_norm(build_P_trapezoid(sample_trajectory(h, rho, 1.0, 0.05)) - pex)
            e2 = spectral_norm(build_P_trapezoid(sample_trajectory(h, rho, 1.0, 0.025)) - pex)
            assert 3.5 <= e1 / e2 <= 4.5

    def test_degenerate_frequency_continuity(self):
        # nearly equal eigenvalues must agree with the exactly degenerate limit
        rho = np.full((2, 2), 0.5, dtype=complex)
        p_exact = exact_gram(np.diag([1.0, 1.0]).astype(complex), rho, 1.0)
        p_near = exact_gram(np.diag([1.0, 1.0 + 1e-9]).astype(complex), rho, 1.0)
        assert spectral_norm(p_exact - p_near) <= 1e-6

    def test_hermitian_psd(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 4)
        p = exact_gram(h, random_density(rng, 4), 2.0)
        assert np.array_equal(p, p.conj().T)
        assert np.linalg.eigvalsh(p)[0] >= -1e-10


def closed_form_case(kind, d, rng):
    """(H, rho0) of one closed-form case: a generic H; a diagonal H whose
    eigenvalues are 5 pi times 0, 1 or 2, so its frequencies repeat,
    include zero and, on the panels of width 0.2, fall on the alias
    2 pi/0.2 of zero and on the Nyquist frequency pi/0.2; or a complete
    graph, whose eigenvalue -1 has multiplicity d - 1."""
    if kind == "generic":
        h = random_hermitian(rng, d, norm=3.0)
    elif kind == "diagonal":
        h = np.diag(5 * np.pi * (np.arange(d) % 3)).astype(complex)
    else:
        h = (np.ones((d, d)) - np.eye(d)).astype(complex)
    return h, random_density(rng, d)


class TestTrapezoidGrams:
    #: (tau, dt, subsamples): the sweep's grid, and a coarse one on which
    #: one panel spans up to 2 time units, so |omega| h exceeds pi
    GRIDS = ((3.0, 0.01, (20, 10, 5, 1)), (2.0, 0.25, (8, 4, 2, 1)))

    @pytest.mark.parametrize("d", [2, 5, 12, 30])
    @pytest.mark.parametrize("kind", ["generic", "diagonal", "complete"])
    def test_equals_sampled_trapezoid(self, d, kind):
        rng = np.random.default_rng(d)
        h, rho0 = closed_form_case(kind, d, rng)
        w = np.linalg.eigvalsh(h)
        for tau, dt, subsamples in self.GRIDS:
            traj = sample_trajectory(h, rho0, tau, dt)
            rho_end, grams = trapezoid_grams(h, rho0, tau, dt, subsamples)
            end = traj.states[-1]
            assert spectral_norm(rho_end - end) <= 1e-13 * spectral_norm(end)
            assert len(grams) == len(subsamples)
            for sub, p in zip(subsamples, grams):
                ref = build_P_trapezoid(traj, subsample=sub)
                assert spectral_norm(p - ref) <= 1e-13 * spectral_norm(ref), (tau, sub)
                assert np.array_equal(p, p.conj().T)
        # the coarse grid aliases: some frequency exceeds pi per panel
        assert (w[-1] - w[0]) * 2.0 > np.pi

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("r", [1e-6, 1e-8, 1e-9, 1e-10])
    def test_near_zero_and_near_alias(self, m, r):
        # the frequency pi (m + r) lies within pi r of zero (m = 0) or of its
        # alias 2 pi/h = pi on panels of width h = 2 (m = 1): a weight that
        # cancels there used to lose up to 4e-8 relative
        h = np.diag([0.0, np.pi * (m + r)]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        subsamples = (2, 1)
        traj = sample_trajectory(h, plus, 20.0, 1.0)
        _, grams = trapezoid_grams(h, plus, 20.0, 1.0, subsamples)
        for sub, p in zip(subsamples, grams):
            ref = build_P_trapezoid(traj, subsample=sub)
            assert spectral_norm(p - ref) <= 1e-13 * spectral_norm(ref), sub

    def test_rejects_what_sampling_rejects(self):
        with pytest.raises(ValueError, match="not a positive integer"):
            trapezoid_grams(SX, E1, 1.0, 0.3, (1,))
        with pytest.raises(ValueError, match="does not divide"):
            trapezoid_grams(SX, E1, 1.0, 0.01, (20, 7))
        with pytest.raises(ValueError, match="positive integer"):
            trapezoid_grams(SX, E1, 1.0, 0.01, (0,))
        with pytest.raises(ValueError, match="does not match"):
            trapezoid_grams(SX, np.eye(3) / 3, 1.0, 0.01, (1,))


class TestTrajectory:
    def test_rejects_bad_grid_in_memory(self):
        # the trapezoid P assumes a uniform grid, so a Trajectory cannot hold another
        traj = sample_trajectory(SX, E1, 1.0, 0.1)
        keep = [0, 2, 4, 5, 6, 7, 8, 9, 10]
        with pytest.raises(ValueError, match="not uniform"):
            Trajectory(times=traj.times[keep], states=traj.states[keep])
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(times=traj.times[::-1], states=traj.states)
        with pytest.raises(ValueError, match="at least two"):
            Trajectory(times=traj.times[:1], states=traj.states[:1])


class TestTrajectoryCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        traj = sample_trajectory(random_hermitian(rng, 3), random_density(rng, 3), 0.4, 0.1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.states, traj.states)

    def test_header_layout(self, tmp_path):
        traj = sample_trajectory(SX, E1, 0.2, 0.1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,re_1_1,im_1_1,re_2_1,im_2_1,re_1_2,im_1_2,re_2_2,im_2_2"

    def test_rejects_malformed(self, tmp_path):
        # the last four fail in np.loadtxt; the message names the file and
        # the data row, not numpy's arguments
        header = "t,re_1_1,im_1_1\n"
        bad = tmp_path / "bad.csv"
        cases = (
            ("x,y\n1,2\n", "header"),
            (header, "at least two samples"),
            (header + "0,1\n0.5,1\n", "row length mismatch"),
            (header + "0,1,0\n\n0.5,1\n",
             f"{bad}: data row 2 is '0.5,1', not 3 comma-separated numbers"),
            (header + "0,1,0\n   \n0.5,1,0\n",
             f"{bad}: data row 2 is '   ', not 3 comma-separated numbers"),
            (header + "0,1,0\n0.5,one,0\n",
             f"{bad}: data row 2 is '0.5,one,0', not 3 comma-separated numbers"),
            (header + "# comment\n0,1,0\n0.5,1,0\n", f"{bad}: data row 1 is '# comment'"),
        )
        for text, message in cases:
            bad.write_text(text)
            with pytest.raises(ValueError, match=re.escape(message)) as exc:
                read_trajectory_csv(bad)
            assert "usecols" not in str(exc.value)

    def test_accepts_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_bytes(b"t,re_1_1,im_1_1\r\n\r\n0,1,0\r\n\n0.5,1,0\r\n\n")
        back = read_trajectory_csv(path)
        assert np.array_equal(back.times, [0.0, 0.5])
        assert np.array_equal(back.states, np.ones((2, 1, 1)))

    def test_on_disk_text(self, tmp_path):
        # a shifted start time, signed zeros, a subnormal and 1e-05, which
        # 17 significant digits write with its rounding error
        states = np.array([[[1.0, complex(1e-5, 5e-324)], [complex(1e-5, -5e-324), 0.0]],
                           [[0.5, complex(-0.0, 0.5)], [complex(-0.0, -0.5), 0.5]]])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(Trajectory(times=np.array([0.25, 1.25]), states=states), path)
        assert path.read_bytes() == (
            b"t,re_1_1,im_1_1,re_2_1,im_2_1,re_1_2,im_1_2,re_2_2,im_2_2\n"
            b"0.25,1,0,1.0000000000000001e-05,-4.9406564584124654e-324,"
            b"1.0000000000000001e-05,4.9406564584124654e-324,0,0\n"
            b"1.25,0.5,0,-0,-0.5,-0,0.5,0.5,0\n"
        )

    def test_shifted_times_keep_window(self, tmp_path):
        traj = sample_trajectory(SX, E1, 0.4, 0.1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(Trajectory(times=traj.times + 1.0, states=traj.states), path)
        back = read_trajectory_csv(path)
        assert back.times[0] == 1.0
        assert back.tau == pytest.approx(0.4, rel=1e-12)
        assert back.dt == pytest.approx(0.1, rel=1e-12)

    def test_rejects_non_uniform_times(self, tmp_path):
        traj = sample_trajectory(SX, E1, 1.0, 0.1)
        keep = [0, 2, 4, 5, 6, 7, 8, 9, 10]  # alternate samples dropped early on
        path = tmp_path / "traj.csv"
        write_csv_rows(path, traj, keep, traj.times[keep])
        with pytest.raises(ValueError, match="not uniform"):
            read_trajectory_csv(path)

    def test_rejects_non_increasing_times(self, tmp_path):
        traj = sample_trajectory(SX, E1, 0.4, 0.1)
        path = tmp_path / "traj.csv"
        write_csv_rows(path, traj, range(len(traj.times)), traj.times[::-1])
        with pytest.raises(ValueError, match="strictly increasing"):
            read_trajectory_csv(path)

    def test_rejects_states_off_trace_one(self, tmp_path):
        # a trace-2 copy of a seed-0 draw used to identify with the same eps
        adjacency, rho0 = benchmark_network(6, 0, SweepConfig())
        traj = sample_trajectory(adjacency.astype(complex), rho0, 2.0, 0.01)
        good, doubled = tmp_path / "good.csv", tmp_path / "doubled.csv"
        write_trajectory_csv(traj, good)
        write_trajectory_csv(Trajectory(times=traj.times, states=2.0 * traj.states), doubled)
        rep = identify_topology(read_trajectory_csv(good), truth=adjacency, real_coupling=True)
        assert rep.epsilon == pytest.approx(3.1e-5, rel=0.05)
        with pytest.raises(ValueError, match="has trace"):
            read_trajectory_csv(doubled)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, tmp_path, bad):
        # NaN compares false in the trace and Hermitian checks, and inf - inf
        # is NaN, so both used to read back without error
        rng = np.random.default_rng(12)
        traj = sample_trajectory(random_hermitian(rng, 3), random_density(rng, 3), 0.4, 0.1)
        states = traj.states.copy()
        states[2, 0, 1] = states[2, 1, 0] = bad
        path = tmp_path / "traj.csv"
        write_trajectory_csv(Trajectory(times=traj.times, states=states), path)
        with pytest.raises(ValueError, match=r"data row 3 \(t = 0.2\) has a NaN or infinite"):
            read_trajectory_csv(path)

    def test_rejects_non_hermitian_states(self, tmp_path):
        traj = sample_trajectory(SX, E1, 0.4, 0.1)
        states = traj.states.copy()
        states[3, 0, 1] += 1e-6  # trace kept, asymmetry 1e-6 relative
        path = tmp_path / "traj.csv"
        write_trajectory_csv(Trajectory(times=traj.times, states=states), path)
        with pytest.raises(ValueError, match="not Hermitian"):
            read_trajectory_csv(path)
        states[3, 0, 1] -= 1e-6 - 1e-12  # round-off-sized asymmetry passes
        write_trajectory_csv(Trajectory(times=traj.times, states=states), path)
        assert np.array_equal(read_trajectory_csv(path).states, states)
