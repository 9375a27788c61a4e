import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import qnetid.dynamics
from qnetid.dynamics import (
    Trajectory,
    check_density,
    check_subsample,
    exact_gram,
    grid_intervals,
    read_trajectory_csv,
    sample_times,
    sample_trajectory,
    trapezoid_grams,
    write_trajectory_csv,
)
from qnetid.identify import build_P_trapezoid, identify_topology
from qnetid.linalg import ConfigError, hermitize, spectral_norm, vec
from qnetid.partialinfo import sampled_propagator
from qnetid.sweep import SweepConfig, benchmark_network

from conftest import expm_propagate, liouvillian, random_density, random_hermitian

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

    def test_stack_checked_matrix_by_matrix(self):
        # a stack is checked as its matrices are, and the first offending
        # one is reported
        rng = np.random.default_rng(1)
        stack = np.stack([random_density(rng, 3) for _ in range(4)])
        assert np.array_equal(check_density(stack), np.stack([check_density(r) for r in stack]))
        stack[1] *= 2.0
        stack[3] *= 3.0
        with pytest.raises(ValueError, match=r"^rho has trace 2\.0, expected 1$"):
            check_density(stack)


class TestLiouvillian:
    """The reference generator of conftest.py, the oracle of the
    exponential checks below and of criterion 7."""

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
        lv = liouvillian(random_hermitian(rng, 3))
        assert spectral_norm(lv + lv.conj().T) <= 1e-12 * spectral_norm(lv)


def endpoint(h, rho0, t):
    """rho0 propagated to time t: the last sample of a one-step trajectory."""
    return sample_trajectory(h, rho0, t, t).states[-1]


class TestPropagate:
    """The propagation of a state, read at the end of ``sample_trajectory``."""

    def test_time_zero_identity(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 3)
        traj = sample_trajectory(random_hermitian(rng, 3), rho, 0.5, 0.5)
        assert np.allclose(traj.states[0], rho, atol=1e-13)

    def test_two_level_flip(self):
        # U(pi/2) under sigma_x maps |1><1| to |2><2|
        out = endpoint(SX, E1, np.pi / 2)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_stationary_state(self):
        h = np.diag([1.0, -1.0]).astype(complex)
        for t in (0.3, 1.7, 9.1):
            assert np.allclose(endpoint(h, E1, t), E1, atol=1e-13)

    def test_preserves_invariants(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        rho = random_density(rng, 4)
        out = endpoint(h, rho, 2.1)
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
            direct = vec(endpoint(h, rho, t))
            via_l = scipy.linalg.expm(liouvillian(h) * t) @ vec(rho)
            assert np.linalg.norm(direct - via_l) <= 1e-9 * np.linalg.norm(via_l)

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError, match="rho0 is not positive semidefinite"):
            endpoint(SX, np.diag([2.0, -1.0]), 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigError, match="tau must be positive and finite"):
            endpoint(SX, E1, -1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ConfigError, match="tau must be positive and finite"):
            endpoint(SX, E1, t)


class TestPropagator:
    def test_matches_matrix_exponential(self):
        # U from its one builder, ``sampled_propagator``, against expm of
        # -iH Delta, and the vectorized propagator conj(U) kron U against
        # expm of the generator, with and without an energy offset
        rng = np.random.default_rng(9)
        for d, offset in itertools.product(range(2, 8), (0.0, float(rng.normal()), 100.0)):
            h = random_hermitian(rng, d) + offset * np.eye(d)
            u, period = sampled_propagator(h)
            assert u.shape == (d, d)
            assert np.max(np.abs(u - scipy.linalg.expm(-1j * h * period))) <= 1e-12
            e_lt = scipy.linalg.expm(liouvillian(h) * period)
            assert np.linalg.norm(np.kron(u.conj(), u) - e_lt) <= 1e-11


class TestSampleTrajectory:
    def test_grid_and_first_sample(self):
        traj = sample_trajectory(SX, E1, 1.0, 0.01)
        assert traj.n_samples == 100
        assert len(traj.times) == 101
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 1.0
        assert np.array_equal(traj.states[0], E1)
        assert np.allclose(np.diff(traj.times), 0.01, rtol=1e-12, atol=0)

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
        except ConfigError as exc:
            assert "integer" in str(exc)
            assert errors == [str(exc)]
        else:
            assert errors == []
            assert traj.n_samples == len(sample_times(tau, dt)) - 1
            assert traj.times[-1] == tau

    @pytest.mark.parametrize("tau, dt, message", [
        (np.inf, 0.1, "tau must be positive and finite, got inf"),
        (1.0, np.nan, "dt must be positive and finite, got nan"),
        (1e300, 1e-300, "tau/dt = 1e+300/1e-300 is not a positive integer"),  # overflows
    ])
    def test_rejects_non_finite_grid(self, tau, dt, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            sample_times(tau, dt)

    def test_non_uniform_grid_is_a_config_error(self, monkeypatch):
        # an accepted (tau, dt) whose grid round-off exceeds GRID_RTOL (tau =
        # 200000, dt = 0.01 does, with 2e7 samples) was a ValueError, so the
        # sweep config skipped it and the CLI called it a numerical failure;
        # a 0 tolerance makes a 10-sample grid fail the same way
        monkeypatch.setattr(qnetid.dynamics, "GRID_RTOL", 0.0)
        assert 10 * 0.1 == 1.0 and len(set(np.diff(np.arange(11) * 0.1))) > 1
        with pytest.raises(ConfigError, match=r"^tau/dt = 1\.0/0\.1: trajectory times are not "
                                              r"uniform to 0 relative"):
            sample_times(1.0, 0.1)
        errors = SweepConfig(taus=(1.0,), dt=0.1, subsamples=(1,), trials=0).validate()
        assert [e.split(":")[0] for e in errors] == ["trials must be >= 1, got 0",
                                                     "tau/dt = 1.0/0.1"]

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
        # sample counts around the propagation block size, against an
        # expm reference; a mixed state has coherences in every entry
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
            assert np.max(np.abs(st - expm_propagate(h, rho0, t))) <= 1e-14


def whole_grid_rule(tau, dt, block=None):
    """The grid rule on the whole grid and all its steps at once.  Returns
    the grid, or the message of its ConfigError.  With ``block``, a grid
    that fails names the extreme steps up to the first block of ``block``
    steps at whose end the steps so far fail; otherwise those of the whole
    grid."""
    rtol, pair = qnetid.dynamics.GRID_RTOL, f"tau/dt = {float(tau)!r}/{float(dt)!r}"
    ratio = float(tau) / float(dt)
    n = round(ratio) if np.isfinite(ratio) else 0
    if n < 1 or abs(tau - n * dt) > rtol * dt:
        return f"{pair} is not a positive integer"
    times = np.arange(n + 1) * dt
    times[-1] = tau
    steps = np.diff(times)
    step = (times[-1] - times[0]) / len(steps)
    size = block or n
    for end in range(size, n + size, size):
        seen = steps[:end]
        if not np.all(seen > 0):
            return f"{pair}: trajectory times are not strictly increasing"
        if np.max(np.abs(seen - step)) > rtol * step:
            return (f"{pair}: trajectory times are not uniform to {rtol:g} relative "
                    f"(steps {seen.min():.17g} to {seen.max():.17g})")
    return times


class TestGridIntervals:
    @pytest.mark.parametrize("block", [3, 64, 2**16])
    def test_same_grid_and_verdict_as_the_whole_grid(self, monkeypatch, block):
        # on both sides of each grid's own uniformity boundary (its largest
        # relative step deviation r as the tolerance, and just below it) and
        # of the rule's tolerance on tau - n*dt, and with taus off n*dt within
        # that tolerance, whose last step decides some verdicts; whatever the
        # block, with the extremes up to the first block that fails
        monkeypatch.setattr(qnetid.dynamics, "GRID_BLOCK", block)
        kinds = set()
        for dt in (0.01, 0.1, 0.3, 1 / 3, 0.7, 2.5):
            for n in (1, 2, 3, 64, 65, 200, 1001):
                grid = np.arange(n + 1) * dt
                steps = np.diff(grid)
                r = float(np.max(np.abs(steps - grid[-1] / n)) / (grid[-1] / n))
                off = [(n * dt + f * rtol * dt, rtol)
                       for rtol in (1e-15, 1e-14) for f in (-0.99, -0.5, 0.5, 0.99)]
                for tau, rtol in [(n * dt, r), (n * dt, r * (1 - 1e-6)), (n * dt, 1e-9),
                                  (n * dt + 2e-9 * dt, 1e-9), (n * dt - 5e-10 * dt, 1e-9)] + off:
                    monkeypatch.setattr(qnetid.dynamics, "GRID_RTOL", rtol)
                    expected = whole_grid_rule(tau, dt, block)
                    try:
                        got = sample_times(tau, dt)
                    except ConfigError as exc:
                        assert str(exc) == expected, (tau, dt, rtol)
                        kinds.add("uniform" if "uniform" in expected else "integer")
                    else:
                        assert got.tobytes() == expected.tobytes(), (tau, dt, rtol)
                        assert grid_intervals(tau, dt) == n
                        kinds.add("accepted")
        assert kinds == {"accepted", "integer", "uniform"}

    def test_exact_grids_same_verdict_as_the_whole_grid(self, monkeypatch):
        # dt = m 2^e, m odd, n m < 2^53: every k*dt is exact, so only dt and
        # the last step are checked, with the verdict and message of the
        # whole grid; taus on both sides of the rule's tolerance on
        # tau - n*dt.  Such a grid's last step deviates from tau/n by less
        # than tau - n*dt, so it is never rejected as not uniform
        rng = np.random.default_rng(29)
        kinds = set()
        for rtol in (1e-9, 1e-15):
            monkeypatch.setattr(qnetid.dynamics, "GRID_RTOL", rtol)
            for _ in range(1500):
                m = float(rng.choice([1, 3, 5, 7, 11, 1001, 2**20 + 1]))
                dt = m * 2.0 ** int(rng.integers(-20, 8))
                n = int(rng.integers(1, 400))
                f = float(rng.choice([0.0, 1.0, -1.0, 0.999, 1.001, rng.uniform(-2, 2)]))
                tau = n * dt + f * rtol * dt if rng.random() < 0.5 else n * dt * (1 + f * rtol)
                tau = [tau, np.nextafter(tau, 0.0), np.nextafter(tau, np.inf)][rng.integers(3)]
                expected = whole_grid_rule(tau, dt)
                if isinstance(expected, str):
                    with pytest.raises(ConfigError) as exc:
                        grid_intervals(tau, dt)
                    assert str(exc.value) == expected, (tau, dt, rtol)
                    kinds.add("uniform" if "uniform" in expected else "integer")
                else:
                    assert grid_intervals(tau, dt) == n
                    assert sample_times(tau, dt).tobytes() == expected.tobytes()
                    kinds.add("accepted")
        assert kinds == {"accepted", "integer"}

    def test_long_exact_grid_accepted_without_its_steps(self):
        # the 1e12 steps of tau = 1e12 at dt = 1 took about an hour step by step
        start = time.perf_counter()
        assert grid_intervals(1e12, 1.0) == 10**12
        assert SweepConfig(taus=(1e12,), dt=1.0).validate() == []
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("tau, dt", [(1e12, 0.1), (1.0, 1e-9)])
    def test_failing_long_grid_stops_at_its_first_failing_block(self, tau, dt):
        # the grid was scanned to its end before it was rejected: about
        # 2.9 s per 1e9 steps, hours for the 1e13 steps of tau = 1e12
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=r"trajectory times are not uniform"):
            grid_intervals(tau, dt)
        assert time.perf_counter() - start < 1.0

    def test_validation_holds_a_block_of_the_grid(self):
        # the 2e7-sample grid of tau = 200000 at dt = 0.01 is rejected with
        # the extreme steps of the whole grid, as the whole-grid check gave,
        # in a few MB: that check peaked at 610 MiB under tracemalloc
        tracemalloc.start()
        try:
            errors = SweepConfig(taus=(200000.0,), subsamples=(1,), trials=0).validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert errors == ["trials must be >= 1, got 0",
                          "tau/dt = 200000.0/0.01: trajectory times are not uniform to 1e-09 "
                          "relative (steps 0.0099999999802093953 to 0.010000000009313226)"]
        assert peak < 16 * 2**20


class TestExactGram:
    @pytest.mark.parametrize("tau", [0.0, np.nan, np.inf])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ConfigError, match="tau must be positive"):
            exact_gram(SX, E1, tau)

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

    @pytest.mark.parametrize("subsample", [2.5, 5.0, True, "5"])
    def test_non_integer_divisor_rejected(self, subsample):
        # 2.5 passed, and slicing the samples then raised a TypeError
        with pytest.raises(ConfigError, match=f"^subsample must be a positive integer, got "
                                              f"{re.escape(repr(subsample))}$"):
            check_subsample(100, subsample)
        check_subsample(100, np.int64(5))

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

    def test_rejects_states_not_matching_times(self):
        # 101 times of a 201-sample run were accepted: identification then
        # integrated all 201 states while tau read 1.0, another window
        traj = sample_trajectory(SX, E1, 2.0, 0.01)
        with pytest.raises(ValueError, match=r"states of shape \(201, 2, 2\) .* 101 times"):
            Trajectory(times=traj.times[:101], states=traj.states)
        for states in (traj.states[:, 0], traj.states[:, :1], traj.states[None]):
            with pytest.raises(ValueError, match="not one d x d matrix per time"):
                Trajectory(times=traj.times, states=states)
        assert Trajectory(times=traj.times[:101], states=traj.states[:101]).tau == 1.0


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
        # the last five fail in np.loadtxt; the message names the file and
        # the data row, not numpy's arguments; Python's float would take 1_0
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
            (header + "0,1,0\n0.5,1,0\n1,1_0,0\n",
             f"{bad}: data row 3 is '1,1_0,0', not 3 comma-separated numbers"),
        )
        for text, message in cases:
            bad.write_text(text)
            with pytest.raises(ValueError, match=re.escape(message)) as exc:
                read_trajectory_csv(bad)
            assert "usecols" not in str(exc.value)

    def test_rejects_row_major_file_under_its_own_names(self, tmp_path):
        # a d = 4 file written row-major under correct row-major names was read
        # column-major, and identify returned -M with solvability 1 and no warning
        adjacency, rho0 = benchmark_network(4, 0, SweepConfig())
        traj = sample_trajectory(adjacency.astype(complex), rho0, 1.0, 0.01)
        path = tmp_path / "row_major.csv"
        names = ["t"] + [f"{part}_{i}_{j}" for i in range(1, 5) for j in range(1, 5)
                         for part in ("re", "im")]
        rows = np.column_stack([traj.times, traj.states.reshape(len(traj.times), -1).view(float)])
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=",".join(names), comments="")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed CSV header: field 4 is 're_1_2', not 're_2_1'")):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("header, detail", [
        ("t,a,b", "field 2 is 'a', not 're_1_1'"),
        ("time,re_1_1,im_1_1", "field 1 is 'time', not 't'"),
        ("t,im_1_1,re_1_1", "field 2 is 'im_1_1', not 're_1_1'"),
        ("t", "1 fields, not 3"),
        ("t,re_1_1,im_1_1,re_2_1", "4 fields, not 3"),
    ])
    def test_rejects_header_of_other_names(self, tmp_path, header, detail):
        # only the column count was checked, so any names passed
        path = tmp_path / "traj.csv"
        path.write_text(f"{header}\n0,1,0\n0.5,1,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed CSV header: {detail}")):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("d", [1, 2, 4, 7])
    def test_roundtrip_exact_at_every_size(self, tmp_path, d):
        rng = np.random.default_rng(30 + d)
        traj = sample_trajectory(random_hermitian(rng, d), random_density(rng, d), 0.3, 0.1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.states, traj.states)

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
        assert np.allclose(np.diff(back.times), 0.1, rtol=1e-12, atol=0)

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
        states[3, 0, 1] -= 1e-6 - 1e-12  # round-off-sized asymmetry passes, symmetrized
        write_trajectory_csv(Trajectory(times=traj.times, states=states), path)
        assert np.array_equal(read_trajectory_csv(path).states, hermitize(states))
        write_trajectory_csv(traj, path)  # exactly Hermitian states read back bit for bit
        assert read_trajectory_csv(path).states.tobytes() == traj.states.tobytes()
