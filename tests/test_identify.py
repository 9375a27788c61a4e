import numpy as np
import pytest

from qnetid.dynamics import Trajectory, exact_gram, propagate, sample_trajectory
from qnetid.identify import (
    _realified_rhs,
    _realified_system,
    admissible_embedding,
    build_P_trapezoid,
    build_Q,
    commutant_dimension,
    commutator,
    identify_topology,
    relative_error,
    solve_commutator,
)
from qnetid.linalg import EPS, spectral_norm, vec
from qnetid.netmodel import basis_density, derive_seed, erdos_renyi, is_connected
from qnetid.sweep import SweepConfig, benchmark_network

from conftest import random_admissible, random_density, random_hermitian

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
    return np.vstack([ps.real, ps.imag])


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
        rho_tau = propagate(SX, E1, np.pi / 2)
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
        q = build_Q(random_density(rng, 4), random_density(rng, 4), hbar=0.5)
        assert np.array_equal(q, -q.conj().T)

    def test_rejects_non_skew(self):
        # rho_tau - rho_0 is not Hermitian, so i*hbar*(rho_tau - rho_0) is not skew
        rho_tau = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="not skew-Hermitian"):
            build_Q(E1, rho_tau)


class TestAdmissibleEmbedding:
    def test_two_parameters_d2(self):
        emb = admissible_embedding(2)
        assert emb.n_params == 2
        assert np.array_equal(emb.to_matrix(np.array([1.0, 0.0])), SX)
        assert np.array_equal(
            emb.to_matrix(np.array([0.0, 1.0])), np.array([[0, 1j], [-1j, 0]])
        )

    def test_admissible_by_construction(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 5):
            emb = admissible_embedding(d)
            theta = rng.normal(size=emb.n_params)
            m = emb.to_matrix(theta)
            assert np.array_equal(np.diag(m), np.zeros(d))
            assert np.array_equal(m, m.conj().T)
            assert np.allclose(emb.from_matrix(m), theta)

    def test_real_coupling_class(self):
        emb = admissible_embedding(3, real_coupling=True)
        assert emb.n_params == 3
        m = emb.to_matrix(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(m, m.T)
        assert np.isrealobj(m)

    def test_parameter_count(self):
        for d in (2, 4, 7):
            assert admissible_embedding(d).n_params == d * (d - 1)
            assert admissible_embedding(d, real_coupling=True).n_params == d * (d - 1) // 2

    @pytest.mark.parametrize("real_coupling", [False, True])
    def test_roundtrip_exact(self, real_coupling):
        rng = np.random.default_rng(6)
        for d in (2, 3, 5, 8):
            emb = admissible_embedding(d, real_coupling=real_coupling)
            theta = rng.normal(size=emb.n_params)
            m = emb.to_matrix(theta)
            assert np.array_equal(emb.from_matrix(m), theta)
            assert np.array_equal(np.diag(m), np.zeros(d))
            assert np.array_equal(m, m.conj().T)
            assert np.isrealobj(m) == real_coupling
            admissible = random_admissible(rng, d, real=real_coupling)
            assert np.array_equal(emb.to_matrix(emb.from_matrix(admissible)), admissible)


def _sweep_p(d):
    # the trapezoid P of one seeded sweep draw (tau = 2, n~ = n_s/5)
    cfg = SweepConfig()
    adjacency, rho0 = benchmark_network(d, derive_seed(0, d, 2.0, 0), cfg)
    return build_P_trapezoid(sample_trajectory(adjacency.astype(complex), rho0, 2.0, cfg.dt), 5)


class TestRealifiedSystem:
    @pytest.mark.parametrize("real_coupling", [False, True])
    @pytest.mark.parametrize("kind", ["hermitian", "diagonal", "sweep"])
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 13])
    def test_equals_kron_reference(self, d, kind, real_coupling):
        # the closed-form rows are the Kronecker product's halved rows,
        # value for value, and the right-hand side is halved alike
        rng = np.random.default_rng(100 + d)
        if kind == "hermitian":
            p = random_hermitian(rng, d)
        elif kind == "diagonal":
            p = np.diag(rng.normal(size=d)).astype(complex)
        else:
            p = _sweep_p(d)
        emb = admissible_embedding(d, real_coupling=real_coupling)
        a = _realified_system(p, emb)
        assert a.shape == (d * d, emb.n_params)
        assert np.array_equal(a, halve_reference(kron_reference_system(p, real_coupling), d))
        q = commutator(random_admissible(rng, d, real=real_coupling), p)
        b = np.concatenate([vec(q).real, vec(q).imag])
        assert np.array_equal(_realified_rhs(q), halve_reference(b, d))

    @pytest.mark.parametrize("real_coupling", [False, True])
    @pytest.mark.parametrize("d", [10, 20])
    def test_halving_keeps_normal_equations(self, d, real_coupling):
        # [M, P] and Q are skew-Hermitian, so the halving is an orthogonal
        # compression: A^T A, A^T b and the singular values of the unhalved
        # system survive it up to rounding
        cfg = SweepConfig()
        for trial in range(2):
            adjacency, rho0 = benchmark_network(d, derive_seed(0, d, 3.0, trial), cfg)
            traj = sample_trajectory(adjacency.astype(complex), rho0, 3.0, cfg.dt)
            p = build_P_trapezoid(traj, 5)
            q = build_Q(traj.states[0], traj.states[-1])
            a = _realified_system(p, admissible_embedding(d, real_coupling=real_coupling))
            b = _realified_rhs(q)
            a_full = kron_reference_system(p, real_coupling)
            b_full = np.concatenate([vec(q).real, vec(q).imag])
            assert a.shape == (d * d, a_full.shape[1]) and b.shape == (d * d,)
            for got, want in ((a.T @ a, a_full.T @ a_full), (a.T @ b, a_full.T @ b_full)):
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            s = np.linalg.svd(a, compute_uv=False)
            s_full = np.linalg.svd(a_full, compute_uv=False)
            assert np.max(np.abs(s - s_full)) <= 1e-14 * s_full[0]


class TestSolveCommutator:
    def test_identity_p_non_unique(self):
        rep = solve_commutator(np.eye(3), np.zeros((3, 3)))
        assert rep.outcome == "non_unique"
        assert rep.solvability == 0

    def test_exact_roundtrip(self):
        p = exact_gram(SX, E1, 1.0)
        q = build_Q(E1, propagate(SX, E1, 1.0))
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
        q = build_Q(rho0, propagate(SX, rho0, 3.0))
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

    def test_records_configured_label_rtol(self):
        p = exact_gram(SX, E1, 1.0)
        q = build_Q(E1, propagate(SX, E1, 1.0))
        system = _realified_system(p, admissible_embedding(2))
        sigma_max = np.linalg.svd(system, compute_uv=False)[0]
        # a label rtol that does not survive the round trip through the cut
        drifting = [r for r in (1e-12 * (1 + k / 17) for k in range(40))
                    if (r * sigma_max) / sigma_max != r]
        assert drifting
        assert solve_commutator(p, q, label_rtol=drifting[0]).label_rtol == drifting[0]
        # the default cut is max(m, n) * eps of the unhalved 2d^2-row
        # system, twice the halved system's d^2 rows
        assert system.shape == (4, 2)
        assert solve_commutator(p, q).label_rtol == 2 * 4 * EPS

    def test_sigma_diagnostics(self):
        rep = solve_commutator(np.diag([1.0, 0.0]).astype(complex), np.zeros((2, 2)))
        assert rep.sigma_min_retained > 0
        assert rep.sigma_max_discarded <= rep.sigma_min_retained

    def test_report_json_fields(self, tmp_path):
        rep = solve_commutator(np.diag([2.0, 1.0]).astype(complex), np.zeros((2, 2)))
        rep.seed = 17
        path = tmp_path / "report.json"
        rep.save(path)
        import json

        obj = json.loads(path.read_text())
        for key in (
            "outcome",
            "rank",
            "required_rank",
            "residual",
            "solvability",
            "epsilon",
            "sigma_min_retained",
            "sigma_max_discarded",
            "seed",
            "parameters",
            "m_hat",
        ):
            assert key in obj
        assert obj["seed"] == 17
        assert obj["m_hat"]["rows"] == 2

    def test_brute_force_equivalence(self):
        # SVD solution matches dense normal equations when well conditioned
        rng = np.random.default_rng(5)
        for d in (2, 3):
            emb = admissible_embedding(d)
            m_true = random_admissible(rng, d)
            p = random_density(rng, d) + 0.5 * np.eye(d)
            q = commutator(m_true, p)
            rep = solve_commutator(p, q)
            assert rep.outcome == "unique"
            a = kron_reference_system(p, real_coupling=False)
            b = np.concatenate([vec(q).real, vec(q).imag])
            theta_ne = np.linalg.solve(a.T @ a, a.T @ b)
            theta_svd = emb.from_matrix(rep.m_hat)
            assert np.linalg.norm(theta_svd - theta_ne) <= 1e-8


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

    def test_integration_identity(self):
        # ground truth satisfies the commutator equation built from exact data
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            h = random_hermitian(rng, d)
            rho0 = random_density(rng, d)
            tau = float(rng.uniform(0.5, 3.0))
            p = exact_gram(h, rho0, tau)
            q = build_Q(rho0, propagate(h, rho0, tau))
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
        q = build_Q(rho0, propagate(h, rho0, tau), known_h0=h0, p=p)
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
