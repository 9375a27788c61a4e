import json

import numpy as np
import pytest
import scipy.linalg

from qnetid.dynamics import sample_trajectory
from qnetid.identify import identify_topology
from qnetid.linalg import DEFAULT_RTOL, ConfigError, numerical_rank, spectral_norm, vec
from qnetid.netmodel import basis_density, erdos_renyi
from qnetid.partialinfo import (
    UnobservableError,
    observability_rank,
    output_stacks,
    physical_decomposition,
    physical_initial_batch,
    read_output_batch,
    reconstruct_hamiltonian,
    sampled_propagator,
    write_output_batch,
)

from conftest import expm_propagate, random_admissible, random_hermitian

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
H_OBS = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)


def hermitian_with_diagonal(rng, d, norm=1.0):
    while True:
        h = random_hermitian(rng, d, norm=norm)
        if np.max(np.abs(np.diag(h).real)) >= 0.1:
            return h


def traceless(h):
    return h - np.trace(h) / h.shape[0] * np.eye(h.shape[0])


def identified_estimates():
    """``identify_topology`` estimates from seeded trajectories of random
    admissible networks, d = 2..6, two per coupling class."""
    rng = np.random.default_rng(23)
    for d in range(2, 7):
        for real in (True, False, True, False):
            truth = random_admissible(rng, d, real=real)
            traj = sample_trajectory(truth, basis_density(d, 1), 1.0, 0.05)
            yield identify_topology(traj, real_coupling=real).m_hat


def dense_markov_parameters(u, order, channel=None):
    """Oracle for the Markov parameters: C A^k for k = 0..order with the
    vectorized propagator A = conj(U) kron U formed densely, followed by
    the dense d^2 x d^2 ``channel`` when one is given, and the diagonal
    selector C written out entry by entry."""
    d = u.shape[0]
    a = np.kron(u.conj(), u)
    if channel is not None:
        a = channel @ a
    c = np.zeros((d, d * d), dtype=complex)
    for i in range(d):
        c[i, i * d + i] = 1.0  # vec position of entry (i, i), column stacking
    g = [c]
    for _ in range(order):
        g.append(g[-1] @ a)
    return np.array(g)


def populations(h, rho0, tau, dt):
    """Times and populations diag(rho_t) of one run, from the sampled
    density-operator trajectory."""
    traj = sample_trajectory(h, rho0, tau, dt)
    return traj.times, np.einsum("kii->ki", traj.states).real


def identify(h, lambda0):
    """Hamiltonian reconstructed from the populations of the batch ``lambda0``."""
    u, period = sampled_propagator(h)
    return reconstruct_hamiltonian(output_stacks(u, lambda0), lambda0, period)


class TestDiagonalSelector:
    def test_selects_diagonal(self):
        # the order-zero Markov parameter is the selector C exactly: U^0 = I
        rng = np.random.default_rng(0)
        for d in (2, 3, 5):
            u, _ = sampled_propagator(random_hermitian(rng, d))
            c = output_stacks(u, np.eye(d * d, dtype=complex))[0]
            rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert np.array_equal(c @ vec(rho), np.diag(rho))


class TestSamplingPeriod:
    def test_unit_phase(self):
        rng = np.random.default_rng(20)
        for d in (2, 4, 6):
            h = random_hermitian(rng, d)
            h -= np.trace(h) / d * np.eye(d)
            assert spectral_norm(h) * sampled_propagator(h)[1] == pytest.approx(1.0)

    def test_one_eigendecomposition(self, monkeypatch):
        # the period and U come from one eigh of H, and the period is
        # 1/||H - tr(H)/d I||_2 (TestPropagator checks U against expm)
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        rng = np.random.default_rng(24)
        for d in (2, 3, 5, 7):
            h = hermitian_with_diagonal(rng, d) + float(rng.normal()) * np.eye(d)
            calls.clear()
            period = sampled_propagator(h)[1]
            assert len(calls) == 1
            assert period == pytest.approx(1 / spectral_norm(traceless(h)), rel=2e-15)

    def test_energy_offset_invariant(self):
        # an offset c*I changes neither the dynamics nor the period, so
        # the sampled pair stays observable at any offset
        rng = np.random.default_rng(22)
        h = hermitian_with_diagonal(rng, 5)
        for c in (10.0, 100.0, -1e3):
            shifted = h + c * np.eye(5)
            assert sampled_propagator(shifted)[1] == pytest.approx(sampled_propagator(h)[1],
                                                                   rel=1e-12)
            assert observability_rank(shifted) == (25, True)

    def test_zero_hamiltonian_floored(self):
        assert np.isfinite(sampled_propagator(np.zeros((3, 3)))[1])
        assert np.array_equal(sampled_propagator(np.zeros((2, 2)))[0], np.eye(2))


class TestObservabilityRank:
    def test_zero_generator(self):
        rank, obs = observability_rank(np.zeros((2, 2)))
        assert rank == 2
        assert not obs

    def test_observable_pair(self):
        rank, obs = observability_rank(H_OBS)
        assert rank == 4
        assert obs

    def test_zero_diagonal_unobservable(self):
        rank, obs = observability_rank(SX)
        assert rank == 3
        assert not obs

    def test_structural_unobservability(self):
        # A vec(H) = vec(H) and C vec(H) = 0 for every zero-diagonal H != 0;
        # identify_topology's estimates are such H, so checking one tells nothing
        rng = np.random.default_rng(2)
        zero_diagonal = [random_admissible(rng, int(rng.integers(2, 5))) for _ in range(25)]
        for h in zero_diagonal + list(identified_estimates()):
            d = h.shape[0]
            assert not np.diag(h).any()
            u, _ = sampled_propagator(h)
            stack = output_stacks(u, np.eye(d * d, dtype=complex))[:-1].reshape(-1, d * d)
            residual = np.max(np.abs(stack @ vec(h)))
            assert residual <= 1e-12 * spectral_norm(stack) * max(spectral_norm(h), 1.0)
            rank, _ = observability_rank(h)
            assert rank <= d * d - 1

    def test_rejects_nonpositive_rtol(self):
        # rtol = 0 would report every nonzero singular value: full rank; the
        # cut is DEFAULT_RTOL alone, so an rtol is refused as an argument
        u, period = sampled_propagator(SX)
        lam0 = np.eye(4, dtype=complex)
        with pytest.raises(TypeError, match="rtol"):
            observability_rank(SX, rtol=0.0)
        with pytest.raises(TypeError, match="rtol"):
            reconstruct_hamiltonian(output_stacks(u, lam0), lam0, period, rtol=0.0)

    def test_full_rank_at_d6(self):
        # the powers of the unitary propagator keep unit scale, so the
        # stack has no rank artifact of the kind the powers of L have
        rng = np.random.default_rng(21)
        h = hermitian_with_diagonal(rng, 6)
        assert observability_rank(h) == (36, True)


def spin_x(j2):
    """J_x of spin j = j2/2, d = j2 + 1: an equally spaced spectrum."""
    m = j2 / 2 - np.arange(j2)  # J_+ |m - 1> = sqrt(j(j+1) - m(m-1)) |m>
    off = 0.5 * np.sqrt(j2 / 2 * (j2 / 2 + 1) - m * (m - 1))
    return (np.diag(off, 1) + np.diag(off, -1)).astype(complex)


def observability_family(rng, per_kind):
    """(h, expected observable or None) over d = 2..7: random Hermitian,
    zero-diagonal Erdos-Renyi graphs (never observable), the same with a
    random diagonal potential, a path with a linear potential, and spin-2
    J_x (rank 15 of 25: its equally spaced gaps coincide)."""
    for d in range(2, 8):
        for _ in range(per_kind):
            yield random_hermitian(rng, d), True
            adj = erdos_renyi(d, 0.5, rng).astype(complex)
            yield adj, False
            yield adj + np.diag(rng.uniform(-1.0, 1.0, d)), None
        path = np.diag(np.ones(d - 1), 1)
        yield path + path.T + np.diag(np.arange(d) / d), None
    yield spin_x(4), False


class TestObservabilityFamily:
    def test_rank_matches_dense_oracle(self):
        # the rank summed over H's runs of equal gaps equals the rank of
        # the stack of the dense C A^k on every member of the family
        rng = np.random.default_rng(2017)
        cases = 0
        for h, expected in observability_family(rng, 40):
            d = h.shape[0]
            u, _ = sampled_propagator(h)
            oracle = dense_markov_parameters(u, d * d - 1).reshape(-1, d * d)
            oracle_rank = numerical_rank(np.linalg.svd(oracle, compute_uv=False), DEFAULT_RTOL)
            rank, observable = observability_rank(h)
            assert rank == oracle_rank, (d, h)
            if expected is not None:
                assert observable == expected, (d, h)
            cases += 1
        assert cases == 727
        assert observability_rank(spin_x(4)) == (15, False)

    @pytest.mark.parametrize("delta, rank", [
        (1e-2, 23), (1e-4, 23), (1e-6, 23), (1e-7, 23), (1e-8, 23),
        (1e-10, 15), (1e-11, 15), (1e-12, 15), (0.0, 15),
    ])
    def test_split_gaps_near_the_cut(self, delta, rank):
        # spin-2 J_x with its eigenvalues moved by delta*r: its equal gaps
        # split apart.  Both rules read the split at delta >= 1e-8 and the
        # coincidence at delta <= 1e-10; at 1e-9 they straddle the cut
        # (stack 19, gap runs 15), so that delta is asserted by neither
        w0, v = np.linalg.eigh(spin_x(4))
        r = np.random.default_rng(9).normal(size=5)
        h = (v * (w0 + delta * r)) @ v.conj().T
        u, _ = sampled_propagator(h)
        oracle = dense_markov_parameters(u, 24).reshape(-1, 25)
        assert numerical_rank(np.linalg.svd(oracle, compute_uv=False), DEFAULT_RTOL) == rank
        assert observability_rank(h) == (rank, False)

    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10, 1e-11, 1e-12])
    @pytest.mark.parametrize("h, full, cut", [
        (lambda e: [[0, e], [e, 1]], 4, 2),
        (lambda e: [[0, 1, 0], [1, 0.3, e], [0, e, 1.7]], 9, 5),
    ], ids=["pair", "chain3"])
    def test_weak_coupling_matches_dense_oracle(self, h, full, cut, eps):
        # a coupling eps gives gap runs of their own whose images have norm
        # about eps: they count at 1e-9 of the largest singular value of all
        # runs, as in the stack, not at 1e-9 of their own.  Both rules read
        # full rank at eps >= 1e-8 and lose the weak modes at eps <= 1e-10;
        # between, they straddle the cut (chain3 at 1e-9: stack 6, runs 9)
        h = np.array(h(eps), dtype=float)
        d = h.shape[0]
        oracle = dense_markov_parameters(sampled_propagator(h)[0], d * d - 1).reshape(-1, d * d)
        rank = full if eps >= 1e-8 else cut
        assert numerical_rank(np.linalg.svd(oracle, compute_uv=False), DEFAULT_RTOL) == rank
        assert observability_rank(h) == (rank, rank == d * d)

    def test_no_svd_taller_than_d(self, monkeypatch):
        # the rank comes from d-row blocks of H's eigenvectors, one per run
        # of equal gaps, not from the d^3 x d^2 stack of the powers of U
        svd, shapes = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kwargs: shapes.append(a.shape) or svd(a, **kwargs))
        rng = np.random.default_rng(26)
        for d in range(2, 7):
            for h, expected in ((hermitian_with_diagonal(rng, d), (d * d, True)),
                                (np.zeros((d, d)), (d, False))):
                shapes.clear()
                assert observability_rank(h) == expected
                assert shapes and max(shape[-2] for shape in shapes) <= d, (d, shapes)


class TestOutputStacks:
    def test_order_zero(self):
        # d^2 + 1 samples, the order-zero one the selector applied to Lambda0
        ys = output_stacks(sampled_propagator(H_OBS)[0], np.eye(4, dtype=complex))
        assert ys.shape == (5, 2, 4)
        assert np.array_equal(ys[0], [[1, 0, 0, 0], [0, 0, 0, 1]])

    def test_zero_generator(self):
        ys = output_stacks(sampled_propagator(np.zeros((2, 2)))[0], np.eye(4, dtype=complex))
        assert np.array_equal(ys[1:], np.broadcast_to(ys[0], (4, 2, 4)))

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_matches_per_power_products(self, d):
        # the Markov parameters, output_stacks of the identity batch, match
        # C A^k of the dense A = conj(U) kron U; the batched product with
        # Lambda0 does the arithmetic of one product per power, so equals it
        # bit for bit
        rng = np.random.default_rng(50 + d)
        u, _ = sampled_propagator(random_hermitian(rng, d, norm=1.0))
        g = output_stacks(u, np.eye(d * d, dtype=complex))
        assert np.max(np.abs(g - dense_markov_parameters(u, d * d))) <= 1e-13
        for lam0 in (np.eye(d * d, dtype=complex), physical_initial_batch(d)[0]):
            for k, y in enumerate(output_stacks(u, lam0)):
                assert np.array_equal(y, g[k] @ lam0), k

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_unitary_conjugate(self, d):
        # column i of ys[k] is diag(U^k X_i U^-k), X_i = column i of Lambda0
        rng = np.random.default_rng(30 + d)
        h = random_hermitian(rng, d, norm=1.0)
        u, period = sampled_propagator(h)
        for lam0 in (np.eye(d * d, dtype=complex), physical_initial_batch(d)[0]):
            ys = output_stacks(u, lam0)
            for k in range(d * d + 1):
                u_k = scipy.linalg.expm(-1j * h * (k * period))
                ref = np.array([np.diag(u_k @ x.reshape((d, d), order="F") @ u_k.conj().T)
                                for x in lam0.T]).T
                assert np.max(np.abs(ys[k] - ref)) <= 1e-13


class TestReconstructLiouvillian:
    """``reconstruct_hamiltonian``, first half: the sampled Liouvillian
    propagator A from the outputs, with its input, rank and phase checks,
    judged by the Hamiltonian it yields."""

    def test_exact_roundtrip(self):
        assert spectral_norm(identify(H_OBS, np.eye(4, dtype=complex)) - H_OBS) <= 1e-9

    def test_zero_generator_fails_rank(self):
        with pytest.raises(UnobservableError, match="rank 2"):
            identify(np.zeros((2, 2)), np.eye(4, dtype=complex))

    def test_unobservable_instance(self):
        with pytest.raises(UnobservableError, match="rank 3"):
            identify(SX, np.eye(4, dtype=complex))

    def test_solve_is_one_gelsd_call(self, lstsq_calls):
        # O A = O' goes through LAPACK's gelsd, whose singular values are O's
        # and give the rank, in place of an SVD with both factors
        rng = np.random.default_rng(16)
        h = hermitian_with_diagonal(rng, 3)
        u, period = sampled_propagator(h)
        lam0 = physical_initial_batch(3)[0]
        ys = output_stacks(u, lam0)
        assert spectral_norm(reconstruct_hamiltonian(ys, lam0, period) - traceless(h)) <= 1e-9
        [call] = lstsq_calls
        s = np.linalg.svd((ys[:9] @ np.linalg.inv(lam0)).reshape(-1, 9), compute_uv=False)
        assert call["rcond"] == DEFAULT_RTOL and call["rank"] == 9
        assert np.max(np.abs(call["s"] - s)) <= 1e-14 * s[0]

    def test_incomplete_stacks_rejected(self):
        u, period = sampled_propagator(H_OBS)
        ys = output_stacks(u, np.eye(4, dtype=complex))[:3]
        with pytest.raises(ValueError, match="incomplete"):
            reconstruct_hamiltonian(ys, np.eye(4, dtype=complex), period)

    @pytest.mark.parametrize("cut, shape", [
        (np.s_[:, :1, :], r"\(1, 4\)"),
        (np.s_[:, :, :3], r"\(2, 3\)"),
    ], ids=["one-population", "three-runs"])
    def test_output_shape_mismatch_rejected(self, cut, shape):
        # one population per sample was reported as an unobservable pair,
        # three runs for four states as numpy's matmul mismatch
        u, period = sampled_propagator(H_OBS)
        lam0 = np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match=rf"{shape} do not match Lambda0 of shape "
                                             r"\(4, 4\): each must be \(d, d\^2\) = \(2, 4\)"):
            reconstruct_hamiltonian(output_stacks(u, lam0)[cut], lam0, period)

    def test_non_square_lambda0_rejected(self):
        u, period = sampled_propagator(H_OBS)
        # a 0 x 0 Lambda0 (d = 0) failed in numpy's reshape
        for lam in (np.eye(4, 3, dtype=complex), np.eye(3, dtype=complex), np.eye(0)):
            with pytest.raises(ValueError, match="Lambda0 must be square with d\\^2 rows"):
                reconstruct_hamiltonian(output_stacks(u, np.eye(4)), lam, period)

    def test_singular_lambda0_rejected(self):
        lam = np.eye(4, dtype=complex)
        lam[:, 3] = lam[:, 2]
        u, period = sampled_propagator(H_OBS)
        with pytest.raises(ValueError, match="singular"):
            reconstruct_hamiltonian(output_stacks(u, lam), lam, period)

    def test_physical_batch_roundtrip(self):
        lam0, states = physical_initial_batch(2)
        assert lam0.shape == (4, 4)
        assert spectral_norm(identify(H_OBS, lam0) - H_OBS) <= 1e-9

    def test_estimated_roundtrip(self):
        # measured-data path: populations of each preparable run, simulated
        # as a density-operator trajectory on the grid k * period
        rng = np.random.default_rng(14)
        d = 3
        h = hermitian_with_diagonal(rng, d)
        lam0, states = physical_initial_batch(d)
        period = sampled_propagator(h)[1]
        runs = [populations(h, rho, d * d * period, period)[1] for rho, _ in states]
        ys = np.stack(runs, axis=2)  # (d^2 + 1, d, d^2): ys[k][:, i] = run i at k * period
        assert spectral_norm(reconstruct_hamiltonian(ys, lam0, period) - traceless(h)) <= 1e-9

    def test_principal_branch_guard(self):
        # a period at which two eigenvalues of U are antipodal: no H with
        # eigenvalue spread below pi/period gives this U
        rng = np.random.default_rng(15)
        h = random_hermitian(rng, 3, norm=1.0)
        w = np.linalg.eigvalsh(h)
        period = np.pi / (w[-1] - w[0])
        lam0 = np.eye(9, dtype=complex)
        ys = output_stacks(scipy.linalg.expm(-1j * h * period), lam0)
        with pytest.raises(ValueError, match="spread over .* >= pi"):
            reconstruct_hamiltonian(ys, lam0, period)
        # just inside the branch the same H is recovered
        ys = output_stacks(scipy.linalg.expm(-1j * h * (0.99 * period)), lam0)
        assert spectral_norm(reconstruct_hamiltonian(ys, lam0, 0.99 * period)
                             - traceless(h)) <= 1e-9

    def test_nonpositive_period_rejected(self):
        u, _ = sampled_propagator(H_OBS)
        lam0 = np.eye(4, dtype=complex)
        for period in (0.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match="period must be positive"):
                reconstruct_hamiltonian(output_stacks(u, lam0), lam0, period)


class TestExtractHamiltonian:
    """``reconstruct_hamiltonian``, second half: the traceless H from the
    estimate of A, its gauge, and the closed-system check."""

    def test_roundtrip_traceless(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            h = traceless(random_hermitian(rng, d, norm=1.0))
            h_hat = identify(h, np.eye(d * d, dtype=complex))
            assert spectral_norm(h_hat - h) <= 1e-9
            assert abs(np.trace(h_hat)) <= 1e-14
            assert np.array_equal(h_hat, h_hat.conj().T)

    def test_gauge_invariance(self):
        # H + 3I has the outputs of H and gives its traceless part
        rng = np.random.default_rng(7)
        h = traceless(random_hermitian(rng, 3, norm=1.0))
        lam0 = np.eye(9, dtype=complex)
        u, period = sampled_propagator(h)
        ys = output_stacks(u, lam0)
        shifted = output_stacks(scipy.linalg.expm(-1j * (h + 3.0 * np.eye(3)) * period), lam0)
        assert np.allclose(shifted, ys, atol=1e-12)
        assert spectral_norm(reconstruct_hamiltonian(shifted, lam0, period) - h) <= 1e-9

    @staticmethod
    def channel_outputs(h, channel):
        """(ys, Lambda0, period): the outputs of the basis-element batch when
        the dense ``channel`` follows each step of the unitary evolution."""
        d = h.shape[0]
        u, period = sampled_propagator(h)
        return dense_markov_parameters(u, d * d, channel), np.eye(d * d, dtype=complex), period

    def test_rejects_non_generator(self):
        # the evolution of a d = 3 node network followed at each step by
        # dephasing rho -> (1 - p) rho + p diag(rho): sigma_2/sigma_1 of the
        # realigned propagator reads p/3
        rng = np.random.default_rng(9)
        h = hermitian_with_diagonal(rng, 3)
        for p in (1e-3, 1e-6):
            keep = np.full(9, 1.0 - p)
            keep[::4] = 1.0
            ys, lam0, period = self.channel_outputs(h, np.diag(keep))
            with pytest.raises(ValueError, match=r"not a closed-system evolution: the realigned "
                                                 r"propagator has sigma_2/sigma_1 3\.3\d\de-0"):
                reconstruct_hamiltonian(ys, lam0, period)
        ys, lam0, period = self.channel_outputs(h, np.eye(9))
        assert spectral_norm(reconstruct_hamiltonian(ys, lam0, period) - traceless(h)) <= 1e-9

    def test_rejects_non_skew(self):
        # a non-unitary step, whose generator is not skew-Hermitian: a
        # uniform loss of trace, and the no-jump evolution rho -> K rho K^H
        # with K = diag(1, e^-gamma, 1) after U.  Both realign to rank one;
        # the factor's non-unitarity rejects them
        rng = np.random.default_rng(10)
        h = hermitian_with_diagonal(rng, 3)
        k = np.diag([1.0, np.exp(-1e-6), 1.0])
        for channel in ((1.0 - 1e-6) * np.eye(9), np.kron(k, k)):
            ys, lam0, period = self.channel_outputs(h, channel)
            with pytest.raises(ValueError, match=r"not a closed-system evolution: .* "
                                                 r"non-unitarity [12]\.\d+e-06"):
                reconstruct_hamiltonian(ys, lam0, period)


class TestPhysicalDecomposition:
    def test_identity_reconstruction_exact(self):
        for d in (2, 3, 4):
            for k in range(1, d + 1):
                for j in range(1, d + 1):
                    target = np.zeros((d, d), dtype=complex)
                    target[k - 1, j - 1] = 1.0
                    acc = sum(c * rho for rho, c in physical_decomposition(d, k, j))
                    assert np.max(np.abs(acc - target)) <= 1e-14

    def test_diagonal_single_term(self):
        terms = physical_decomposition(3, 2, 2)
        assert len(terms) == 1
        assert terms[0][1] == 1.0

    def test_states_are_physical(self):
        from qnetid.dynamics import check_density

        for rho, _ in physical_decomposition(4, 1, 3):
            check_density(rho)

    def test_out_of_range(self):
        # parameter checks: ConfigError, a ValueError
        with pytest.raises(ConfigError, match=r"indices \(0, 2\) out of range 1..3"):
            physical_decomposition(3, 0, 2)
        with pytest.raises(ConfigError, match=r"indices \(1, 4\) out of range 1..3"):
            physical_decomposition(3, 1, 4)
        with pytest.raises(ConfigError, match=r"indices \(1, 1\) out of range 1..0"):
            physical_decomposition(0, 1, 1)

    def test_propagation_linearity(self):
        # evolving the terms and recombining equals evolving |k><j| directly
        rng = np.random.default_rng(10)
        for d in (2, 3, 4):
            h = random_hermitian(rng, d)
            t = float(rng.uniform(0.2, 2.0))
            for k, j in [(1, 2), (1, d), (d - 1, d)]:
                target = np.zeros((d, d), dtype=complex)
                target[k - 1, j - 1] = 1.0
                u = scipy.linalg.expm(-1j * h * t)
                direct = u @ target @ u.conj().T
                recombined = sum(
                    c * expm_propagate(h, rho, t) for rho, c in physical_decomposition(d, k, j)
                )
                assert np.max(np.abs(direct - recombined)) <= 1e-10


class TestRoundTripInvariant:
    def test_observable_instances_recover(self):
        rng = np.random.default_rng(11)
        seen_observable = 0
        for _ in range(30):
            d = int(rng.integers(2, 4))
            h = hermitian_with_diagonal(rng, d)
            u, period = sampled_propagator(h)
            rank, obs = observability_rank(h)
            ys = output_stacks(u, np.eye(d * d, dtype=complex))
            if obs:
                seen_observable += 1
                h_hat = reconstruct_hamiltonian(ys, np.eye(d * d, dtype=complex), period)
                assert spectral_norm(h_hat - traceless(h)) <= 1e-8
            else:
                with pytest.raises(UnobservableError):
                    reconstruct_hamiltonian(ys, np.eye(d * d, dtype=complex), period)
        assert seen_observable > 0


def edit_json(change):
    """A manifest edit that changes the parsed object."""
    return lambda text: json.dumps(change(json.loads(text)))


FILE_MAP = "'outputs' must be an object of file names keyed by run numbers, 'labels' an object"


class TestOutputBatchFiles:
    def test_write_read_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        h = random_hermitian(rng, 2, norm=1.0)
        lam0, states = physical_initial_batch(2)
        runs = []
        for rho, label in states:
            times, ys = populations(h, rho, 0.5, 0.05)
            runs.append((label, times, ys))
        manifest = write_output_batch(tmp_path / "batch", runs, lam0)
        lam_back, runs_back = read_output_batch(manifest)
        assert np.array_equal(lam_back, lam0)
        assert len(runs_back) == len(runs)
        for (lab_a, t_a, y_a), (lab_b, t_b, y_b) in zip(runs, runs_back):
            assert lab_a == lab_b
            assert np.array_equal(t_a, t_b)
            assert np.array_equal(y_a, y_b)

    def test_csv_header(self, tmp_path):
        rng = np.random.default_rng(13)
        h = random_hermitian(rng, 3, norm=1.0)
        times, ys = populations(h, np.diag([1.0, 0, 0]).astype(complex), 0.2, 0.1)
        write_output_batch(tmp_path / "b", [("node_1", times, ys)], np.eye(9, dtype=complex))
        header = (tmp_path / "b" / "output_001.csv").read_text().splitlines()[0]
        assert header == "t,y_1,y_2,y_3"

    def test_on_disk_text(self, tmp_path):
        # a signed zero, a subnormal and 1e-05, as in the trajectory CSV
        ys = np.array([[1.0, -0.0], [5e-324, 1e-5]])
        write_output_batch(tmp_path / "b", [("node_1", np.array([0.0, 0.5]), ys)],
                           np.eye(4, dtype=complex))
        assert (tmp_path / "b" / "output_001.csv").read_bytes() == (
            b"t,y_1,y_2\n"
            b"0,1,-0\n"
            b"0.5,4.9406564584124654e-324,1.0000000000000001e-05\n"
        )

    @pytest.mark.parametrize("edit, named", [
        (lambda text: text[:-3], "Expecting"),
        (lambda text: text.replace('"lambda0"', '"lambda"'), "KeyError('lambda0')"),
        (lambda text: text.replace('"outputs"', '"output"'), "KeyError('outputs')"),
        (lambda text: text.replace('"rows"', '"r"'), "malformed matrix object"),
        (lambda text: "[]", "TypeError("),
        (edit_json(lambda obj: dict(obj, labels=list(obj["labels"].values()))), FILE_MAP),
        (edit_json(lambda obj: dict(obj, outputs=list(obj["outputs"].values()))), FILE_MAP),
        (edit_json(lambda obj: dict(obj, outputs={"x": obj["outputs"]["1"]})), FILE_MAP),
        (edit_json(lambda obj: dict(obj, outputs={"1": 5, "2": None})), FILE_MAP),
    ], ids=["unparsable", "no-lambda0", "no-outputs", "bad-lambda0", "not-an-object",
            "labels-list", "outputs-list", "outputs-key", "outputs-not-names"])
    def test_bad_manifest_names_it(self, tmp_path, edit, named):
        # these raised a bare JSONDecodeError or KeyError: 'lambda0'; a labels
        # list raised AttributeError, an outputs list or key "x" a bare
        # ValueError: invalid literal for int(), and file names 5 and null a
        # TypeError from joining them to the manifest's directory
        manifest = write_output_batch(tmp_path / "b", [("node_1", np.array([0.0, 0.5]),
                                                        np.eye(2))], np.eye(4, dtype=complex))
        manifest.write_text(edit(manifest.read_text()))
        with pytest.raises(ConfigError) as info:
            read_output_batch(manifest)
        assert str(info.value).startswith(f"{manifest}: ")
        assert named in str(info.value)

    @staticmethod
    def batch(tmp_path, edit=None):
        """A d = 2 batch of the four preparable runs, sampled every 0.05;
        ``edit(k, times)`` may change the times of run k first."""
        h = random_hermitian(np.random.default_rng(12), 2, norm=1.0)
        lam0, states = physical_initial_batch(2)
        runs = []
        for k, (rho, label) in enumerate(states):
            times, ys = populations(h, rho, 0.5, 0.05)
            runs.append((label, edit(k, times.copy()) if edit else times, ys))
        return write_output_batch(tmp_path / "batch", runs, lam0), runs

    @pytest.mark.parametrize("run", [0, 2])
    def test_moved_sample_time_rejected(self, tmp_path, run):
        # one run's third time moved by 0.3 * Delta was read without complaint
        def move(k, times):
            times[2] += 0.3 * 0.05 * (k == run)
            return times

        manifest, _ = self.batch(tmp_path, move)
        with pytest.raises(ValueError) as info:
            read_output_batch(manifest)
        assert str(info.value).startswith(f"{manifest}: run ")
        assert ("not uniform" if run == 0 else "not sampled on the time grid") in str(info.value)

    def test_grid_not_starting_at_zero_rejected(self, tmp_path):
        manifest, _ = self.batch(tmp_path, lambda k, times: times + 0.05)
        with pytest.raises(ValueError, match=r"time grid starts at 0\.05, not 0"):
            read_output_batch(manifest)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + ",nan"] + lines[3:],
         "data row 2 (t = 0.05) has a NaN or infinite entry"),
        (lambda lines: [lines[0] + ",y_3"] + [line + ",0" for line in lines[1:]],
         "malformed CSV header: 4 fields, not 3"),
        (lambda lines: lines[:1] + [line + ",0" for line in lines[1:]],
         "CSV row length mismatch: 4 fields, not 3"),
        (lambda lines: lines[:3] + [lines[3] + ",0"] + lines[4:],
         "data row 3 is "),
        (lambda lines: ["t,p_1,p_2"] + lines[1:],
         "malformed CSV header: field 2 is 'p_1', not 'y_1'"),
        (lambda lines: ["t,y_2,y_1"] + lines[1:],
         "malformed CSV header: field 2 is 'y_2', not 'y_1'"),
    ], ids=["nan", "extra-column", "extra-column-unnamed", "ragged", "names", "order"])
    def test_run_read_as_strictly_as_a_trajectory(self, tmp_path, edit, message):
        # NaN populations, an extra population column and arbitrary header
        # names were accepted; a ragged row was reported in numpy's words
        manifest, _ = self.batch(tmp_path)
        run = manifest.parent / "output_002.csv"
        lines = run.read_text().splitlines()
        assert lines[0] == "t,y_1,y_2"
        run.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ValueError) as info:
            read_output_batch(manifest)
        assert str(info.value).startswith(f"{run}: {message}")
        assert "usecols" not in str(info.value)

    def test_run_count_not_a_square_rejected(self, tmp_path):
        # a batch of a d-node network has d^2 runs, one per column of Lambda0
        runs = self.batch(tmp_path)[1][:2]
        manifest = write_output_batch(tmp_path / "two", runs, np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match=r"Lambda0 must be square with d\^2 rows "
                                             r"\(columns = vectorized initial states\), "
                                             r"got shape \(2, 2\)"):
            read_output_batch(manifest)

    @pytest.mark.parametrize("keys", [
        pytest.param(["1", "2", "3"], id="3"),
        pytest.param(["1", "2", "3", "4", "5"], id="5"),
        # four runs, but run 7 was read as column 4 of Lambda0 and "01" as column 2
        pytest.param(["1", "2", "3", "7"], id="gap"),
        pytest.param(["1", "01", "3", "4"], id="leading-zero"),
    ])
    def test_run_count_mismatch_rejected(self, tmp_path, keys):
        # runs other than 1..d^2, one per column of Lambda0, were not checked
        _, runs = self.batch(tmp_path)
        lam0 = physical_initial_batch(2)[0]
        manifest = write_output_batch(tmp_path / "other", (runs + runs)[:len(keys)], lam0)
        data = json.loads(manifest.read_text())
        for key in ("outputs", "labels"):
            data[key] = dict(zip(keys, data[key].values()))
        manifest.write_text(json.dumps(data))
        with pytest.raises(ValueError) as info:
            read_output_batch(manifest)
        assert str(info.value) == (f"{manifest}: {len(keys)} runs, but Lambda0 has shape (4, 4); "
                                   f"a batch has runs 1..4, one per column, not {', '.join(keys)}")
