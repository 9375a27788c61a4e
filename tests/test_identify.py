import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qnetid.dynamics import (
    Trajectory,
    exact_gram,
    sample_trajectory,
    trapezoid_grams,
)
from qnetid.identify import (
    _halve,
    _label_rtol,
    _realified_system,
    _to_matrix,
    build_P_trapezoid,
    build_Q,
    commutant_dimension,
    commutator,
    identify_topology,
    relative_error,
    solve_commutator,
    solve_stack,
)
from qnetid.linalg import ABS_FLOOR, DEFAULT_RTOL, EPS, numerical_rank, spectral_norm, vec
from qnetid.netmodel import basis_density, derive_seed, erdos_renyi, is_connected
from qnetid.sweep import SweepConfig, benchmark_network

from conftest import expm_propagate, random_admissible, random_density, random_hermitian
from record_golden_sweeps import CONFIGS

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
E1 = np.diag([1.0, 0.0]).astype(complex)


def kron_reference_system(p, real_coupling):
    """Realified system built the long way: (P^T kron I - I kron P) times a
    dense basis of vec(E_ij + E_ji) (and vec(i E_ij - i E_ji)) columns."""
    d = p.shape[0]
    cols = []
    for i in range(d):
        for j in range(i + 1, d):
            ex = np.zeros((d, d), dtype=complex)
            ex[i, j] = ex[j, i] = 1.0
            cols.append(vec(ex))
            if not real_coupling:
                ey = np.zeros((d, d), dtype=complex)
                ey[i, j] = 1j
                ey[j, i] = -1j
                cols.append(vec(ey))
    eye = np.eye(d)
    ps = (np.kron(p.T, eye) - np.kron(eye, p)) @ np.array(cols).T
    # an exactly zero sum of the product may be -0, as the BLAS kernel has it;
    # the closed form's are +0 (0 + x), so the reference's are made so
    return np.vstack([ps.real, ps.imag]) + 0.0


def halve_reference(stack, d):
    """The rows of a 2d^2-row [Re vec; Im vec] stack that the halved system
    keeps, picked one by one: sqrt(2) * Re of entry (i, j) for i < j
    row-major, then sqrt(2) * Im of the same entries, then Im of (i, i)."""
    re, im = stack.reshape((2, d, d) + stack.shape[1:])  # [c, r] holds entry (r, c)
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    return np.array([np.sqrt(2) * re[j, i] for i, j in upper]
                    + [np.sqrt(2) * im[j, i] for i, j in upper]
                    + [im[i, i] for i in range(d)])


class TestBuildPTrapezoid:
    def test_constant_trajectory_exact(self):
        traj = sample_trajectory(np.zeros((2, 2)), E1, 2.0, 0.1)
        for sub in (1, 2, 4, 10, 20):
            assert np.array_equal(build_P_trapezoid(traj, sub), 2.0 * E1)

    def test_single_panel_formula(self):
        traj = sample_trajectory(SX, E1, 1.0, 0.25)
        p = build_P_trapezoid(traj, subsample=4)
        expected = 0.5 * (traj.states[0] + traj.states[-1])
        assert np.allclose(p, expected, atol=1e-15)

    def test_matches_oracle(self):
        traj = sample_trajectory(SX, E1, 1.0, 0.01)
        p = build_P_trapezoid(traj)
        assert spectral_norm(p - exact_gram(SX, E1, 1.0)) <= 1e-4

    def test_rejects_non_divisor(self):
        traj = sample_trajectory(SX, E1, 1.0, 0.01)
        with pytest.raises(ValueError, match="divide"):
            build_P_trapezoid(traj, subsample=7)


class TestBuildQ:
    def test_zero_for_fixed_point(self):
        q = build_Q(E1, E1)
        assert np.array_equal(q, np.zeros((2, 2)))

    def test_two_level_flip(self):
        rho_tau = expm_propagate(SX, E1, np.pi / 2)
        q = build_Q(E1, rho_tau)
        assert np.allclose(q, 1j * np.diag([-1.0, 1.0]), atol=1e-12)

    def test_zero_h0_is_noop(self):
        rng = np.random.default_rng(1)
        rho0 = random_density(rng, 3)
        rho1 = random_density(rng, 3)
        base = build_Q(rho0, rho1)
        with_h0 = build_Q(rho0, rho1, known_h0=np.zeros((3, 3)), p=np.eye(3))
        assert np.allclose(base, with_h0, atol=1e-14)

    def test_known_h0_subtracts_commutator(self):
        rng = np.random.default_rng(2)
        h0 = random_hermitian(rng, 3)
        rho0 = random_density(rng, 3)
        rho1 = random_density(rng, 3)
        p = exact_gram(h0, rho0, 1.0)
        q = build_Q(rho0, rho1, known_h0=h0, p=p)
        assert np.allclose(q, 1j * (rho1 - rho0) - commutator(h0, p), atol=1e-12)

    def test_requires_p_with_h0(self):
        with pytest.raises(ValueError, match="P is required"):
            build_Q(E1, E1, known_h0=SX)

    def test_skew_hermitian_output(self):
        rng = np.random.default_rng(3)
        q = build_Q(random_density(rng, 4), random_density(rng, 4))
        assert np.array_equal(q, -q.conj().T)

    def test_rejects_non_skew(self):
        # rho_tau - rho_0 is not Hermitian, so i*(rho_tau - rho_0) is not skew
        rho_tau = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="not skew-Hermitian"):
            build_Q(E1, rho_tau)

    def test_rejects_non_finite_states(self):
        # NaN > tol is False, so a NaN state passed the skew check and gave a NaN Q
        rho_tau = np.array([[np.nan, 0.0], [0.0, 0.5]], dtype=complex)
        for args in ((E1, rho_tau), (np.stack([E1, rho_tau]), np.stack([E1, E1]))):
            with pytest.raises(ValueError, match="not skew-Hermitian.*not finite"):
                build_Q(*args)

    @pytest.mark.parametrize("d", [2, 3, 7, 12, 20, 30])
    def test_bits_of_the_explicit_skew_part(self, d):
        # Q = -i hermitize(i q) is the skew part (q - q^H)/2 bit for bit, signed
        # zeros included, as are its halved coordinates: on seed-0 sweep draws
        # (10 trials, 4 divisors), with and without a known H0
        def skew_part(rho0, rho_tau, known_h0=None, p=None):
            q = 1j * (rho_tau - rho0)
            if known_h0 is not None:
                q = q - commutator(known_h0, p)
            return 0.5 * (q - q.conj().swapaxes(-1, -2))

        cfg, tau = SweepConfig(), 3.0
        nets = [benchmark_network(d, derive_seed(0, d, tau, trial), cfg) for trial in range(10)]
        adjacency, rho0 = map(np.stack, zip(*nets))
        rho_tau, p = trapezoid_grams(adjacency.astype(complex), rho0, tau, cfg.dt, (20, 10, 5, 1))
        h0 = np.diag(np.linspace(-1.0, 1.0, d)).astype(complex)
        rho0, rho_tau = rho0[:, None], rho_tau[:, None]
        for q, ref in ((build_Q(rho0, rho_tau), skew_part(rho0, rho_tau)),
                       (build_Q(rho0, rho_tau, known_h0=h0, p=p),
                        skew_part(rho0, rho_tau, h0, p))):
            assert np.array_equal(bits(q), bits(ref))
            assert np.array_equal(bits(_halve(q)), bits(_halve(ref)))


class TestAdmissibleEmbedding:
    """The parametrization: ``_to_matrix`` writes the matrix of the
    parameters, and the realified system has one column per parameter,
    in the same order."""

    def test_two_parameters_d2(self):
        assert np.array_equal(_to_matrix(np.array([1.0, 0.0]), 2, False), SX)
        assert np.array_equal(
            _to_matrix(np.array([0.0, 1.0]), 2, False), np.array([[0, 1j], [-1j, 0]])
        )

    def test_admissible_by_construction(self):
        rng = np.random.default_rng(4)
        for real_coupling in (False, True):
            for d in (2, 3, 5, 8):
                theta = rng.normal(size=d * (d - 1) // (2 if real_coupling else 1))
                m = _to_matrix(theta, d, real_coupling)
                assert np.array_equal(np.diag(m), np.zeros(d))
                assert np.array_equal(m, m.conj().T)
                assert np.isrealobj(m) == real_coupling

    def test_real_coupling_class(self):
        m = _to_matrix(np.array([1.0, 2.0, 3.0]), 3, True)
        assert np.array_equal(m, [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        assert np.isrealobj(m)

    def test_parameter_count(self):
        rng = np.random.default_rng(5)
        for d in (2, 4, 7):
            p = random_hermitian(rng, d)
            for real_coupling, count in ((False, d * (d - 1)), (True, d * (d - 1) // 2)):
                assert _realified_system(p, real_coupling).shape == (d * d, count)
                rep = solve_commutator(p, np.zeros((d, d)), real_coupling=real_coupling)
                assert rep.required_rank == count

    @pytest.mark.parametrize("real_coupling", [False, True])
    def test_columns_follow_parameters(self, real_coupling):
        # column k of the system is the halved [X_k, P] of the matrix X_k
        # that _to_matrix writes for the k-th unit vector
        rng = np.random.default_rng(6)
        for d in (2, 3, 5):
            p = random_hermitian(rng, d)
            a = _realified_system(p, real_coupling)
            for k, e_k in enumerate(np.eye(a.shape[1])):
                x_k = _to_matrix(e_k, d, real_coupling)
                assert np.array_equal(a[:, k], _halve(commutator(x_k, p)))


def _sweep_draw(d, trial, tau=3.0):
    """Adjacency, trapezoid P (n~ = n_s/5) and Q of one seed-0 sweep draw."""
    cfg = SweepConfig()
    adjacency, rho0 = benchmark_network(d, derive_seed(0, d, tau, trial), cfg)
    traj = sample_trajectory(adjacency.astype(complex), rho0, tau, cfg.dt)
    return adjacency, build_P_trapezoid(traj, 5), build_Q(traj.states[0], traj.states[-1])


def _sweep_grams(d, trials=10, tau=2.0):
    """The trapezoid P of seed-0 sweep draws, stacked (trial, divisor) as a
    sweep row stacks them, at the divisors (20, 10, 5, 1)."""
    cfg = SweepConfig()
    nets = [benchmark_network(d, derive_seed(0, d, tau, trial), cfg) for trial in range(trials)]
    adjacency, rho0 = map(np.stack, zip(*nets))
    return trapezoid_grams(adjacency.astype(complex), rho0, tau, cfg.dt, (20, 10, 5, 1))[1]


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestRealifiedSystem:
    @pytest.mark.parametrize("real_coupling", [False, True])
    @pytest.mark.parametrize("kind", ["hermitian", "diagonal", "sweep"])
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 13, 16, 30])
    def test_equals_kron_reference(self, d, kind, real_coupling):
        # the closed-form rows are the Kronecker product's halved rows, bit
        # for bit (signed zeros too), and the right-hand side is halved
        # alike; below d = 16 also in a (10, 4) stack, trials x divisors as
        # a sweep row stacks them
        rng = np.random.default_rng(100 + d)
        if kind == "hermitian":
            p = random_hermitian(rng, d)
            stack = np.array([[random_hermitian(rng, d) for _ in range(4)] for _ in range(10)])
        elif kind == "diagonal":
            p = np.diag(rng.normal(size=d)).astype(complex)
            stack = np.zeros((10, 4, d, d), dtype=complex)
            stack[..., range(d), range(d)] = rng.normal(size=(10, 4, d))
        else:
            _, p, _ = _sweep_draw(d, 0, tau=2.0)
            stack = _sweep_grams(d)
        a, ref = _realified_system(p, real_coupling), kron_reference_system(p, real_coupling)
        assert np.array_equal(bits(a), bits(halve_reference(ref, d)))
        if d < 16:
            a = _realified_system(stack, real_coupling)
            assert a.shape == (10, 4, d * d, (1 if real_coupling else 2) * d * (d - 1) // 2)
            for k in np.ndindex(10, 4):
                ref = halve_reference(kron_reference_system(stack[k], real_coupling), d)
                assert np.array_equal(bits(a[k]), bits(ref)), k
        q = commutator(random_admissible(rng, d, real=real_coupling), p)
        b = np.concatenate([vec(q).real, vec(q).imag])
        assert np.array_equal(bits(_halve(q)), bits(halve_reference(b, d)))

    @pytest.mark.parametrize("real_coupling", [False, True])
    @pytest.mark.parametrize("d", [10, 20])
    def test_halving_keeps_normal_equations(self, d, real_coupling):
        # [M, P] and Q are skew-Hermitian, so the halving is an orthogonal
        # compression: A^T A, A^T b and the singular values of the unhalved
        # system survive it up to rounding
        for trial in range(2):
            _, p, q = _sweep_draw(d, trial)
            a = _realified_system(p, real_coupling)
            b = _halve(q)
            a_full = kron_reference_system(p, real_coupling)
            b_full = np.concatenate([vec(q).real, vec(q).imag])
            assert a.shape == (d * d, a_full.shape[1]) and b.shape == (d * d,)
            for got, want in ((a.T @ a, a_full.T @ a_full), (a.T @ b, a_full.T @ b_full)):
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            s = np.linalg.svd(a, compute_uv=False)
            s_full = np.linalg.svd(a_full, compute_uv=False)
            assert np.max(np.abs(s - s_full)) <= 1e-14 * s_full[0]


class TestSolveCommutator:
    @pytest.mark.parametrize("rtol", [0.0, -1e-9])
    def test_rejects_nonpositive_rtol(self, rtol):
        # numerical_rank refused these; the cut is now DEFAULT_RTOL alone, so
        # any rtol, these included, is refused as an argument
        p = exact_gram(SX, E1, 1.0)
        with pytest.raises(TypeError, match="rtol"):
            solve_commutator(p, build_Q(E1, expm_propagate(SX, E1, 1.0)), rtol=rtol)

    def test_identity_p_non_unique(self):
        rep = solve_commutator(np.eye(3), np.zeros((3, 3)))
        assert rep.outcome == "non_unique"
        assert rep.solvability == 0

    def test_exact_roundtrip(self):
        p = exact_gram(SX, E1, 1.0)
        q = build_Q(E1, expm_propagate(SX, E1, 1.0))
        rep = solve_commutator(p, q)
        assert rep.outcome == "unique"
        assert rep.rank == rep.required_rank == 2
        assert relative_error(rep.m_hat, SX) <= 1e-8
        assert rep.commutes_with_p is False
        assert rep.residual <= 1e-10

    def test_maximally_mixed_non_unique(self):
        # rho0 = I/2 is a fixed point, so P is proportional to the identity
        rho0 = 0.5 * np.eye(2, dtype=complex)
        p = exact_gram(SX, rho0, 3.0)
        q = build_Q(rho0, expm_propagate(SX, rho0, 3.0))
        rep = solve_commutator(p, q)
        assert rep.outcome == "non_unique"

    def test_zero_q_full_rank_unique_zero(self):
        # stationary basis state with nondegenerate P: no interaction detected
        p = np.diag([2.0, 1.0]).astype(complex)
        rep = solve_commutator(p, np.zeros((2, 2)))
        assert rep.outcome == "unique"
        assert np.array_equal(rep.m_hat, np.zeros((2, 2)))
        assert rep.commutes_with_p is None

    def test_inconsistent_data(self):
        # full-rank P with a Q no admissible M can reach
        p = np.diag([3.0, 1.0]).astype(complex)
        q = 1j * np.diag([1.0, -1.0])
        rep = solve_commutator(p, q)
        assert rep.outcome == "inconsistent"
        assert rep.rank == rep.required_rank

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            solve_commutator(np.eye(3), np.zeros((2, 2)))

    def test_rejects_one_node(self):
        p = np.ones((1, 1), dtype=complex)
        with pytest.raises(ValueError, match="d must be at least 2"):
            solve_commutator(p, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="d must be at least 2"):
            commutant_dimension(p)

    def test_records_configured_label_rtol(self):
        p = exact_gram(SX, E1, 1.0)
        q = build_Q(E1, expm_propagate(SX, E1, 1.0))
        system = _realified_system(p, False)
        # the label cut is max(m, n) * eps of the unhalved 2d^2-row
        # system, twice the halved system's d^2 rows
        assert system.shape == (4, 2)
        assert solve_commutator(p, q).label_rtol == 2 * 4 * EPS

    def test_sigma_diagnostics(self):
        rep = solve_commutator(np.diag([1.0, 0.0]).astype(complex), np.zeros((2, 2)))
        assert rep.sigma_min_retained > 0
        assert rep.sigma_max_discarded <= rep.sigma_min_retained

    def test_report_json_fields(self, tmp_path):
        # the whole layout: the report's fields, five of them under
        # "parameters" next to the caller's entries, and m_hat as a matrix object
        rep = solve_commutator(np.diag([2.0, 1.0]).astype(complex), np.zeros((2, 2)))
        rep.parameters["subsample"] = 5
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        expected = {
            "outcome": "unique",
            "rank": 2,
            "required_rank": 2,
            "residual": 0.0,
            "solvability": 1,
            "epsilon": None,
            "sigma_min_retained": float(np.sqrt(2.0)),
            "sigma_max_discarded": 0.0,
            "parameters": {
                "subsample": 5,
                "label_rank": 2,
                "real_coupling": False,
                "rtol": 1e-9,
                "label_rtol": 8 * EPS,
                "commutes_with_p": None,
            },
            "m_hat": {"rows": 2, "cols": 2, "re": zeros, "im": zeros},
        }
        assert rep.to_json() == expected
        path = tmp_path / "report.json"
        rep.save(path)
        assert json.loads(path.read_text()) == expected

    def test_brute_force_equivalence(self):
        # the least-squares solution matches dense normal equations when well conditioned
        rng = np.random.default_rng(5)
        for d in (2, 3):
            m_true = random_admissible(rng, d)
            p = random_density(rng, d) + 0.5 * np.eye(d)
            q = commutator(m_true, p)
            rep = solve_commutator(p, q)
            assert rep.outcome == "unique"
            a = kron_reference_system(p, real_coupling=False)
            b = np.concatenate([vec(q).real, vec(q).imag])
            theta_ne = np.linalg.solve(a.T @ a, a.T @ b)
            # each parameter appears twice in the matrix: the norm is sqrt(2) times theta's
            m_ne = _to_matrix(theta_ne, d, False)
            assert np.linalg.norm(rep.m_hat - m_ne) / np.sqrt(2) <= 1e-8


def _svd_reference_solve(a, b, rtol):
    """Truncated minimum-norm least squares written out with both SVD
    factors, theta = V diag(1/s_i if s_i > rtol*s_0 else 0) U^T b;
    returns theta and the singular values."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    inv = np.zeros_like(s)
    rank = numerical_rank(s, rtol)
    inv[:rank] = 1.0 / s[:rank]
    return vt.T @ (inv * (u.T @ b)), s


class TestLeastSquaresSolve:
    """solve_commutator's gelsd solve against the SVD with both factors."""

    @pytest.mark.parametrize("real_coupling", [False, True])
    @pytest.mark.parametrize("d", [10, 20])
    def test_matches_svd_reference(self, d, real_coupling, lstsq_calls):
        _, p, q = _sweep_draw(d, 0)
        a, b = _realified_system(p, real_coupling), _halve(q)
        rep = solve_commutator(p, q, real_coupling=real_coupling)
        theta_ref, s_ref = _svd_reference_solve(a, b, rep.rtol)
        m_ref = _to_matrix(theta_ref, d, real_coupling)
        # both solves are backward stable, so they differ by rounding times
        # the retained conditioning: 1e-10 relative in the real class.  In
        # the full class, real-valued data leave the imaginary parts barely
        # determined (kappa 1e7..1e9), and the first-order least-squares
        # bound eps * kappa * (1 + kappa * eta) applies instead
        kappa = s_ref[0] / s_ref[rep.rank - 1]
        eta = np.linalg.norm(a @ theta_ref - b) / (s_ref[0] * np.linalg.norm(theta_ref))
        tol = 1e-10 if real_coupling else 10 * EPS * kappa * (1 + kappa * eta)
        # (both norms are sqrt(2) times those of the parameters)
        assert np.linalg.norm(rep.m_hat - m_ref) <= tol * np.linalg.norm(m_ref)
        [call] = lstsq_calls
        assert call["rcond"] == rep.rtol
        assert np.max(np.abs(call["s"] - s_ref)) <= 1e-14 * s_ref[0]
        assert rep.rank == numerical_rank(s_ref, rep.rtol)
        assert rep.label_rank == numerical_rank(s_ref, rep.label_rtol)

    def test_truncation_decides_rank_deficient_theta(self):
        # a full-class draw whose P has a 2-dimensional admissible commutant,
        # nudged so that those two singular values sit near 1e-12 * s_0:
        # above lstsq's default cut, below rtol.  Q is consistent, so keeping
        # them would rebuild the adjacency; the truncated solve must give the
        # minimum-norm estimate instead
        adjacency, p, _ = _sweep_draw(6, 0)
        assert commutant_dimension(p) == 2
        h = random_hermitian(np.random.default_rng(1), 6)
        p = p + 1e-11 * spectral_norm(p) / spectral_norm(h) * h
        q = commutator(adjacency.astype(complex), p)
        a, b = _realified_system(p, False), _halve(q)
        rep = solve_commutator(p, q)
        assert rep.outcome == "non_unique" and rep.rank == rep.required_rank - 2
        theta_ref, _ = _svd_reference_solve(a, b, rep.rtol)
        m_ref = _to_matrix(theta_ref, 6, False)
        assert np.linalg.norm(rep.m_hat - m_ref) <= 1e-10 * np.linalg.norm(m_ref)
        untruncated = np.linalg.lstsq(a, b)[0]
        assert np.linalg.norm(untruncated - theta_ref) > 0.1 * np.linalg.norm(theta_ref)

    def test_p_below_floor_gives_zero(self):
        # s_0 < ABS_FLOOR: the system counts as zero although gelsd alone
        # would keep and invert its singular values
        _, p, q = _sweep_draw(5, 0)
        p = 1e-15 * p
        a = _realified_system(p, False)
        assert np.linalg.svd(a, compute_uv=False)[0] < ABS_FLOOR
        assert np.linalg.lstsq(a, _halve(q), rcond=DEFAULT_RTOL)[2] > 0
        rep = solve_commutator(p, q)
        assert rep.rank == rep.label_rank == 0
        assert rep.outcome == "non_unique"
        assert not np.any(rep.m_hat)

    def test_values_first_solves_full_rank_systems_alone(self, lstsq_calls):
        # a full-rank and a rank-deficient full-class draw, stacked: labelled
        # from a values-only SVD first, the full-rank one is solved by gelsd
        # to the same bits, the deficient one is not solved and keeps the
        # values-only singular values, its label rank and a zero estimate
        _, p, q = map(np.stack, zip(*(_sweep_draw(6, trial) for trial in (3, 0))))
        plain = solve_stack(p, q)
        lstsq_calls.clear()
        first = solve_stack(p, q, values_first=True)
        assert len(lstsq_calls) == 1
        assert plain[3].tolist() == first[3].tolist() == [30, 28]
        assert all(np.array_equal(x[0], y[0]) for x, y in zip(plain, first))
        assert not np.any(first[0][1])
        s = np.linalg.svd(_realified_system(p[1], False), compute_uv=False)
        assert np.array_equal(first[1][1], s)

    def test_lstsq_rank_is_the_rank_rule_on_criterion1(self, criterion1_sweep):
        # every draw of the seed-0 criterion-1 sweep is solved by gelsd but
        # those a values-only SVD labels 0 first (the sweep's prediction);
        # gelsd's own rank is numerical_rank of the singular values it returns
        cfg = CONFIGS["criterion1"]
        _, calls = criterion1_sweep
        gelsd = [c for c in calls if "rank" in c]
        labelled_0 = [c for c in calls if "rank" not in c and c["s"].size > numerical_rank(
            c["s"], _label_rtol(math.isqrt(c["rows"])))]
        assert len(gelsd) + len(labelled_0) == (cfg.d_max - cfg.d_min + 1) * cfg.trials
        mismatched = [c for c in gelsd if c["rank"] != numerical_rank(c["s"], c["rcond"])]
        assert not mismatched


class TestCommutantDimension:
    def test_identity(self):
        assert commutant_dimension(np.eye(3)) == 6

    def test_rank_one_projector_d2(self):
        assert commutant_dimension(np.diag([1.0, 0.0])) == 0

    def test_distinct_diagonal(self):
        assert commutant_dimension(np.diag([1.0, 2.0, 3.0])) == 0

    def test_repeated_diagonal(self):
        # the degenerate 2x2 block leaves one complex off-diagonal free
        assert commutant_dimension(np.diag([1.0, 1.0, 2.0])) == 2

    def test_basis_projector_large(self):
        p = np.zeros((4, 4))
        p[0, 0] = 3.0
        assert commutant_dimension(p) == 6  # (d-1)(d-2) on the untouched block

    def test_rejects_nonpositive_rtol(self):
        # the cut is DEFAULT_RTOL alone: an rtol is refused as an argument
        with pytest.raises(TypeError, match="rtol"):
            commutant_dimension(np.diag([1.0, 2.0]), rtol=0.0)

    def test_real_coupling_class(self):
        assert commutant_dimension(np.eye(3), real_coupling=True) == 3
        assert commutant_dimension(np.diag([1.0, 2.0, 3.0]), real_coupling=True) == 0


class TestRelativeError:
    def test_exact(self):
        assert relative_error(SX, SX) == 0.0

    def test_zero_estimate(self):
        assert relative_error(np.zeros((2, 2)), SX) == 1.0

    def test_homogeneity(self):
        assert relative_error(2.0 * SX, SX) == pytest.approx(1.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError, match="zero ground truth"):
            relative_error(SX, np.zeros((2, 2)))

    def test_stack_gives_each_estimate_its_error(self):
        # leading axes broadcast, bit for bit the error of each pair alone
        rng = np.random.default_rng(7)
        truth = rng.normal(size=(3, 1, 4, 4))
        m_hat = truth + 1e-3 * rng.normal(size=(3, 2, 4, 4))
        errors = relative_error(m_hat, truth)
        assert errors.shape == (3, 2)
        assert errors.tolist() == [[relative_error(m, t[0]) for m in row]
                                   for row, t in zip(m_hat, truth)]

    def test_shape_mismatch_rejected(self):
        # a (1, 3) truth used to broadcast against the 3 x 3 estimate
        with pytest.raises(ValueError, match=r"differ in shape: \(3, 3\) vs \(1, 3\)"):
            relative_error(np.eye(3), np.ones((1, 3)))


class TestIdentifyTopology:
    def test_sigma_x_instance(self):
        traj = sample_trajectory(SX, E1, 1.0, 0.01)
        rep = identify_topology(traj, truth=SX)
        assert rep.solvability == 1
        assert rep.epsilon <= 1e-3

    def test_shifted_time_grid(self):
        # the quadrature window is times[-1] - times[0], so a trajectory
        # whose clock starts at t = 1 identifies like the one starting at 0
        rng = np.random.default_rng(5)
        m_true = random_admissible(rng, 6, real=True)
        traj = sample_trajectory(m_true, random_density(rng, 6), 2.0, 0.01)
        shifted = Trajectory(times=traj.times + 1.0, states=traj.states)
        rep = identify_topology(traj, truth=m_true)
        rep_shifted = identify_topology(shifted, truth=m_true)
        assert rep.solvability == rep_shifted.solvability == 1
        assert rep_shifted.epsilon == pytest.approx(rep.epsilon, rel=1e-9)

    def test_no_interaction_instance(self):
        traj = sample_trajectory(np.zeros((2, 2)), E1, 1.0, 0.01)
        rep = identify_topology(traj, truth=np.zeros((2, 2)))
        assert rep.outcome == "unique"
        assert np.array_equal(rep.m_hat, np.zeros((2, 2)))
        assert rep.epsilon is None  # undefined against a zero truth

    def test_other_hbar_by_conversion(self):
        # README's conversion: with hbar = c, simulate H/c; the estimate is
        # then M/c, an angular frequency, so c times it is the coupling
        rng = np.random.default_rng(5)
        c = 2.5
        m_true = random_admissible(rng, 6, real=True)
        traj = sample_trajectory(m_true / c, random_density(rng, 6), 2.0, 0.01)
        rep = identify_topology(traj, real_coupling=True)
        assert rep.solvability == 1
        assert relative_error(c * rep.m_hat, m_true) <= 1e-3

    def test_integration_identity(self):
        # ground truth satisfies the commutator equation built from exact data
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            h = random_hermitian(rng, d)
            rho0 = random_density(rng, d)
            tau = float(rng.uniform(0.5, 3.0))
            p = exact_gram(h, rho0, tau)
            q = build_Q(rho0, expm_propagate(h, rho0, tau))
            assert spectral_norm(commutator(h, p) - q) <= 1e-9 * spectral_norm(q)

    def test_uniqueness_equivalence(self):
        # non_unique outcome if and only if the commutant is nontrivial
        rng = np.random.default_rng(7)
        cases = [np.eye(3), np.diag([1.0, 1.0, 2.0]), np.diag([4.0, 2.0, 1.0])]
        for _ in range(30):
            d = int(rng.integers(2, 6))
            cases.append(random_density(rng, d))
        for p in cases:
            d = p.shape[0]
            m_true = random_admissible(rng, d)
            q = commutator(m_true, np.asarray(p, dtype=complex))
            rep = solve_commutator(np.asarray(p, dtype=complex), q)
            dim = commutant_dimension(p)
            assert (rep.outcome == "non_unique") == (dim > 0)

    def test_monotone_subsampling(self):
        # the full grid never loses to a 20x coarser quadrature (median)
        fine, coarse = [], []
        count = 0
        seed = 0
        while count < 50:
            rng = np.random.default_rng(1000 + seed)
            seed += 1
            a = erdos_renyi(5, 0.5, rng)
            if not is_connected(a):
                continue
            node = int(rng.integers(1, 6))
            traj = sample_trajectory(a.astype(complex), basis_density(5, node), 3.0, 0.01)
            rep_fine = identify_topology(traj, subsample=1, truth=a, real_coupling=True)
            rep_coarse = identify_topology(traj, subsample=20, truth=a, real_coupling=True)
            if rep_fine.solvability == 1 and rep_coarse.solvability == 1:
                fine.append(rep_fine.epsilon)
                coarse.append(rep_coarse.epsilon)
                count += 1
        assert np.median(fine) <= np.median(coarse) + 1e-12

    def test_known_h0_recovers_interaction(self):
        rng = np.random.default_rng(8)
        h0 = np.diag([0.4, -0.1, 0.7]).astype(complex)
        h_int = random_admissible(rng, 3)
        rho0 = random_density(rng, 3)
        h = h0 + h_int
        tau = 1.5
        p = exact_gram(h, rho0, tau)
        q = build_Q(rho0, expm_propagate(h, rho0, tau), known_h0=h0, p=p)
        rep = solve_commutator(p, q)
        if rep.outcome == "unique":
            assert relative_error(rep.m_hat, h_int) <= 1e-7


class TestRankTestAgreement:
    """The realified full-rank condition agrees with the stacked
    constraint-row formulation on real-valued instances."""

    @staticmethod
    def _stacked_rank(p: np.ndarray) -> int:
        d = p.shape[0]
        eye = np.eye(d)
        ptilde = np.kron(p.T, eye) - np.kron(eye, p)
        f1 = np.zeros((d, d * d))
        for k in range(d):
            f1[k, k * d + k] = 1.0
        rows = []
        for l in range(d):
            for i in range(l + 1, d):
                r = np.zeros(d * d)
                r[l * d + i] = 1.0
                r[i * d + l] = -1.0
                rows.append(r)
        stack = np.vstack([ptilde, f1, np.asarray(rows)])
        s = np.linalg.svd(stack, compute_uv=False)
        return int(np.sum(s > 1e-9 * s[0]))

    def test_verdicts_agree_on_real_p(self):
        rng = np.random.default_rng(9)
        cases = [np.eye(3), np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 1.0, 2.0])]
        for _ in range(20):
            d = int(rng.integers(2, 5))
            x = rng.normal(size=(d, d))
            cases.append(x @ x.T)
        for p in cases:
            d = p.shape[0]
            full_stacked = self._stacked_rank(p) == d * d
            full_real = commutant_dimension(p, real_coupling=True) == 0
            assert full_stacked == full_real


LABELS = ("outcome", "rank", "label_rank", "solvability")


def assume_labels_decided(rep, p, real_coupling):
    """Skip draws where rounding could decide a label or blur m_hat.

    No singular value of the realified system lies within a factor 1e3
    of the label cut, and the retained spectrum is conditioned well
    enough for m_hat to carry 1e-10 relative.  Returns the condition
    number of the retained spectrum.
    """
    s = np.linalg.svd(_realified_system(p, real_coupling), compute_uv=False)
    assume(not rep.label_rtol / 1e3 < s[-1] / s[0] < rep.label_rtol * 1e3)
    assume(rep.sigma_min_retained >= 1e-5 * s[0])
    assume(rep.sigma_max_discarded <= rep.label_rtol / 1e3 * s[0])
    return s[0] / rep.sigma_min_retained


class TestPermutationEquivariance:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        data=st.data(),
        d=st.integers(3, 8),
        seed=st.integers(0, 2**32 - 1),
        real_coupling=st.booleans(),
    )
    def test_relabelled_nodes(self, data, d, seed, real_coupling):
        # relabelling the nodes of a connected network permutes the rows and
        # columns of the realified system (up to signs): the labels are the
        # same and m_hat permutes with the nodes
        perm = np.array(data.draw(st.permutations(range(d))))
        adjacency, rho0 = benchmark_network(d, seed, SweepConfig())
        reports = []
        for adj, rho in ((adjacency, rho0), (adjacency[np.ix_(perm, perm)], rho0[np.ix_(perm, perm)])):
            traj = sample_trajectory(adj.astype(complex), rho, 1.0, 0.01)
            p = build_P_trapezoid(traj)
            q = build_Q(traj.states[0], traj.states[-1])
            reports.append(solve_commutator(p, q, real_coupling=real_coupling))
        rep, rep_perm = reports
        assume_labels_decided(rep, p, real_coupling)
        assert [getattr(rep, k) for k in LABELS] == [getattr(rep_perm, k) for k in LABELS]
        expected = rep.m_hat[np.ix_(perm, perm)]
        assert np.linalg.norm(rep_perm.m_hat - expected) <= 1e-10 * np.linalg.norm(expected)


class TestTimeReversal:
    # at fixed data P is unchanged and Q = i*(rho_tau - rho_0) is odd under
    # rho_t -> rho_(tau - t), so m_hat follows Q while the system matrix,
    # hence every label, stays the same; m_hat moves only by rounding, at
    # most 5.4 EPS times the retained condition number over 815 random draws
    @staticmethod
    def _draw(d, seed, real_coupling):
        adjacency, rho0 = benchmark_network(d, seed, SweepConfig())
        traj = sample_trajectory(adjacency.astype(complex), rho0, 1.0, 0.01)
        rep = identify_topology(traj, real_coupling=real_coupling)
        cond = assume_labels_decided(rep, build_P_trapezoid(traj), real_coupling)
        return traj, rep, cond

    @staticmethod
    def _assert_follows(rep, other, factor, cond):
        assert [getattr(rep, k) for k in LABELS] == [getattr(other, k) for k in LABELS]
        expected = factor * rep.m_hat
        assert np.linalg.norm(other.m_hat - expected) <= 16 * cond * EPS * np.linalg.norm(expected)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        d=st.sampled_from([3, 5, 8]),
        seed=st.integers(0, 2**32 - 1),
        real_coupling=st.booleans(),
    )
    def test_time_reversal(self, d, seed, real_coupling):
        traj, rep, cond = self._draw(d, seed, real_coupling)
        other = identify_topology(Trajectory(traj.times, traj.states[::-1]),
                                  real_coupling=real_coupling)
        self._assert_follows(rep, other, -1.0, cond)
