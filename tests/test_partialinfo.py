import numpy as np
import pytest

from qnetid.dynamics import (
    liouvillian,
    propagate,
    propagator,
    sample_trajectory,
    unitary_conjugate,
)
from qnetid.linalg import spectral_norm, vec
from qnetid.partialinfo import (
    UnobservableError,
    diagonal_selector,
    extract_hamiltonian,
    identity_initial_batch,
    observability_rank,
    output_stacks,
    physical_decomposition,
    physical_initial_batch,
    read_output_batch,
    reconstruct_liouvillian,
    sampling_period,
    write_output_batch,
)

from conftest import random_admissible, random_hermitian

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
H_OBS = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)


def hermitian_with_diagonal(rng, d, norm=1.0):
    while True:
        h = random_hermitian(rng, d, norm=norm)
        if np.max(np.abs(np.diag(h).real)) >= 0.1:
            return h


def sampled(h, hbar=1.0):
    """(propagator, period) at the sampling period of H."""
    period = sampling_period(h, hbar)
    return propagator(h, period, hbar), period


def populations(h, rho0, tau, dt):
    """Times and populations diag(rho_t) of one run, from the sampled
    density-operator trajectory."""
    traj = sample_trajectory(h, rho0, tau, dt)
    return traj.times, np.einsum("kii->ki", traj.states).real


def identify(h, lambda0, hbar=1.0):
    """Generator reconstructed from the populations of the batch ``lambda0``."""
    a, period = sampled(h, hbar)
    d = h.shape[0]
    return reconstruct_liouvillian(output_stacks(a, lambda0, d * d), lambda0, period)


class TestDiagonalSelector:
    def test_d2_positions(self):
        c = diagonal_selector(2)
        assert c.shape == (2, 4)
        assert c[0, 0] == 1.0 and c[1, 3] == 1.0
        assert c.sum() == 2.0

    def test_selects_diagonal(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 5):
            c = diagonal_selector(d)
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert np.array_equal(c @ vec(m), np.diag(m))

    def test_ones_on_identity(self):
        for d in (1, 2, 4):
            assert np.array_equal(diagonal_selector(d) @ vec(np.eye(d)), np.ones(d))

    def test_annihilates_admissible(self):
        rng = np.random.default_rng(1)
        h = random_admissible(rng, 4)
        assert np.array_equal(diagonal_selector(4) @ vec(h), np.zeros(4))


class TestSamplingPeriod:
    def test_unit_phase(self):
        rng = np.random.default_rng(20)
        for d in (2, 4, 6):
            h = random_hermitian(rng, d)
            h -= np.trace(h) / d * np.eye(d)
            hbar = 0.7
            assert spectral_norm(h) * sampling_period(h, hbar) / hbar == pytest.approx(1.0)

    def test_energy_offset_invariant(self):
        # an offset c*I changes neither the dynamics nor the period, so
        # the sampled pair stays observable at any offset
        rng = np.random.default_rng(22)
        h = hermitian_with_diagonal(rng, 5)
        for c in (10.0, 100.0, -1e3):
            shifted = h + c * np.eye(5)
            assert sampling_period(shifted) == pytest.approx(sampling_period(h), rel=1e-12)
            assert observability_rank(sampled(shifted)[0]) == (25, True)

    def test_zero_hamiltonian_floored(self):
        assert np.isfinite(sampling_period(np.zeros((3, 3))))
        assert np.array_equal(propagator(np.zeros((2, 2)), sampling_period(np.zeros((2, 2)))),
                              np.eye(4))


class TestObservabilityRank:
    def test_zero_generator(self):
        rank, obs = observability_rank(sampled(np.zeros((2, 2)))[0])
        assert rank == 2
        assert not obs

    def test_observable_pair(self):
        rank, obs = observability_rank(sampled(H_OBS)[0])
        assert rank == 4
        assert obs

    def test_zero_diagonal_unobservable(self):
        rank, obs = observability_rank(sampled(SX)[0])
        assert rank == 3
        assert not obs

    def test_structural_unobservability(self):
        # A vec(H) = vec(H) and C vec(H) = 0 for every zero-diagonal H != 0
        rng = np.random.default_rng(2)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            h = random_admissible(rng, d)
            a, _ = sampled(h)
            stack = output_stacks(a, identity_initial_batch(d), d * d - 1).reshape(-1, d * d)
            residual = np.max(np.abs(stack @ vec(h)))
            assert residual <= 1e-12 * spectral_norm(stack) * max(spectral_norm(h), 1.0)
            rank, _ = observability_rank(a)
            assert rank <= d * d - 1

    def test_full_rank_at_d6(self):
        # the powers of the unitary propagator keep unit scale, so the
        # stack has no rank artifact of the kind the powers of L have
        rng = np.random.default_rng(21)
        h = hermitian_with_diagonal(rng, 6)
        assert observability_rank(sampled(h)[0]) == (36, True)


class TestOutputStacks:
    def test_order_zero(self):
        ys = output_stacks(sampled(H_OBS)[0], identity_initial_batch(2), 0)
        assert ys.shape == (1, 2, 4)
        assert np.array_equal(ys[0], diagonal_selector(2))

    def test_zero_generator(self):
        ys = output_stacks(sampled(np.zeros((2, 2)))[0], identity_initial_batch(2), 3)
        assert np.array_equal(ys[1:], np.broadcast_to(ys[0], (3, 2, 4)))

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_matches_per_power_products(self, d):
        # the batched product of the Markov parameters with Lambda0 does
        # the arithmetic of one product per power, so equals it bit for bit
        rng = np.random.default_rng(50 + d)
        a, _ = sampled(random_hermitian(rng, d, norm=1.0))
        for lam0 in (identity_initial_batch(d), physical_initial_batch(d)[0]):
            g = diagonal_selector(d).astype(complex)
            for k, y in enumerate(output_stacks(a, lam0, d * d)):
                assert np.array_equal(y, g @ lam0), k
                g = g @ a

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_unitary_conjugate(self, d):
        # column i of ys[k] is diag(U^k X_i U^-k), X_i = column i of Lambda0
        rng = np.random.default_rng(30 + d)
        h = random_hermitian(rng, d, norm=1.0)
        a, period = sampled(h)
        for lam0 in (identity_initial_batch(d), physical_initial_batch(d)[0]):
            ys = output_stacks(a, lam0, d * d)
            for k in range(d * d + 1):
                ref = np.array([np.diag(unitary_conjugate(h, x.reshape((d, d), order="F"), k * period))
                                for x in lam0.T]).T
                assert np.max(np.abs(ys[k] - ref)) <= 1e-13


class TestReconstructLiouvillian:
    def test_exact_roundtrip(self):
        l_hat = identify(H_OBS, identity_initial_batch(2))
        assert spectral_norm(l_hat - liouvillian(H_OBS)) <= 1e-9

    def test_zero_generator_fails_rank(self):
        with pytest.raises(UnobservableError, match="rank 2"):
            identify(np.zeros((2, 2)), identity_initial_batch(2))

    def test_unobservable_instance(self):
        with pytest.raises(UnobservableError, match="rank 3"):
            identify(SX, identity_initial_batch(2))

    def test_incomplete_stacks_rejected(self):
        a, period = sampled(H_OBS)
        ys = output_stacks(a, identity_initial_batch(2), 2)
        with pytest.raises(ValueError, match="incomplete"):
            reconstruct_liouvillian(ys, identity_initial_batch(2), period)

    def test_singular_lambda0_rejected(self):
        lam = np.eye(4, dtype=complex)
        lam[:, 3] = lam[:, 2]
        a, period = sampled(H_OBS)
        with pytest.raises(ValueError, match="singular"):
            reconstruct_liouvillian(output_stacks(a, lam, 4), lam, period)

    def test_physical_batch_roundtrip(self):
        lam0, states = physical_initial_batch(2)
        assert lam0.shape == (4, 4)
        assert spectral_norm(identify(H_OBS, lam0) - liouvillian(H_OBS)) <= 1e-9

    def test_estimated_roundtrip(self):
        # measured-data path: populations of each preparable run, simulated
        # as a density-operator trajectory on the grid k * period
        rng = np.random.default_rng(14)
        d = 3
        h = hermitian_with_diagonal(rng, d)
        lam0, states = physical_initial_batch(d)
        period = sampling_period(h)
        runs = [populations(h, rho, d * d * period, period)[1] for rho, _ in states]
        ys = np.stack(runs, axis=2)  # (d^2 + 1, d, d^2): ys[k][:, i] = run i at k * period
        l_hat = reconstruct_liouvillian(ys, lam0, period)
        assert spectral_norm(l_hat - liouvillian(h)) <= 1e-9

    def test_principal_branch_guard(self):
        # a period at which two eigenvalues of A reach e^(+-i pi) = -1
        rng = np.random.default_rng(15)
        h = random_hermitian(rng, 3, norm=1.0)
        w = np.linalg.eigvalsh(h)
        period = np.pi / (w[-1] - w[0])
        lam0 = identity_initial_batch(3)
        ys = output_stacks(propagator(h, period), lam0, 9)
        with pytest.raises(ValueError, match="negative real axis"):
            reconstruct_liouvillian(ys, lam0, period)

    def test_nonpositive_period_rejected(self):
        a, _ = sampled(H_OBS)
        lam0 = identity_initial_batch(2)
        with pytest.raises(ValueError, match="period"):
            reconstruct_liouvillian(output_stacks(a, lam0, 4), lam0, 0.0)


class TestExtractHamiltonian:
    def test_roundtrip_traceless(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            h = random_hermitian(rng, d, norm=1.0)
            h -= np.trace(h) / d * np.eye(d)
            assert spectral_norm(extract_hamiltonian(liouvillian(h)) - h) <= 1e-9

    def test_gauge_invariance(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 3, norm=1.0)
        h -= np.trace(h) / 3 * np.eye(3)
        shifted = liouvillian(h + 3.0 * np.eye(3))
        assert np.allclose(shifted, liouvillian(h), atol=1e-12)
        assert spectral_norm(extract_hamiltonian(shifted) - h) <= 1e-9

    def test_hbar_consistency(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 2, norm=1.0)
        h -= np.trace(h) / 2 * np.eye(2)
        assert spectral_norm(extract_hamiltonian(liouvillian(h, 0.5), 0.5) - h) <= 1e-9

    def test_rejects_non_generator(self):
        # random skew-Hermitian matrix is not of commutator form
        rng = np.random.default_rng(9)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        skew = 0.5 * (g - g.conj().T)
        with pytest.raises(ValueError, match="not a closed-system generator"):
            extract_hamiltonian(skew)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError, match="skew"):
            extract_hamiltonian(np.eye(4))

    @staticmethod
    def lstsq_reference(l_hat, hbar):
        """Least squares over a Hermitian basis, its traceless Hermitian part."""
        d = int(round(np.sqrt(l_hat.shape[0])))
        basis = []
        for i in range(d):
            for j in range(i, d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = e[j, i] = 1.0
                basis.append(e)
                if i < j:
                    e = np.zeros((d, d), dtype=complex)
                    e[i, j], e[j, i] = 1j, -1j
                    basis.append(e)
        t = np.array([vec(liouvillian(e, hbar)) for e in basis]).T
        a = np.vstack([t.real, t.imag])
        b = np.concatenate([vec(l_hat).real, vec(l_hat).imag])
        theta, *_ = np.linalg.lstsq(a, b, rcond=None)
        h = sum(th * e for th, e in zip(theta, basis))
        h -= np.trace(h) / d * np.eye(d)
        return 0.5 * (h + h.conj().T)

    @pytest.mark.parametrize("noise", [0.0, 1e-4])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_lstsq_reference(self, d, noise):
        rng = np.random.default_rng(100 + d)
        hbar = 0.7
        l_hat = liouvillian(random_hermitian(rng, d, norm=1.0), hbar)
        g = rng.normal(size=l_hat.shape) + 1j * rng.normal(size=l_hat.shape)
        l_hat = l_hat + noise * spectral_norm(l_hat) * 0.5 * (g - g.conj().T) / spectral_norm(g)
        h_hat = extract_hamiltonian(l_hat, hbar, residual_rtol=1e-3)
        assert abs(np.trace(h_hat)) <= 1e-14
        assert np.array_equal(h_hat, h_hat.conj().T)
        assert spectral_norm(h_hat - self.lstsq_reference(l_hat, hbar)) <= 1e-12


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
        with pytest.raises(ValueError):
            physical_decomposition(3, 0, 2)
        with pytest.raises(ValueError):
            physical_decomposition(3, 1, 4)

    def test_propagation_linearity(self):
        # evolving the terms and recombining equals evolving |k><j| directly
        rng = np.random.default_rng(10)
        for d in (2, 3, 4):
            h = random_hermitian(rng, d)
            t = float(rng.uniform(0.2, 2.0))
            for k, j in [(1, 2), (1, d), (d - 1, d)]:
                target = np.zeros((d, d), dtype=complex)
                target[k - 1, j - 1] = 1.0
                direct = unitary_conjugate(h, target, t)
                recombined = sum(
                    c * propagate(h, rho, t) for rho, c in physical_decomposition(d, k, j)
                )
                assert np.max(np.abs(direct - recombined)) <= 1e-10


class TestRoundTripInvariant:
    def test_observable_instances_recover(self):
        rng = np.random.default_rng(11)
        seen_observable = 0
        for _ in range(30):
            d = int(rng.integers(2, 4))
            h = hermitian_with_diagonal(rng, d)
            lv = liouvillian(h)
            a, period = sampled(h)
            rank, obs = observability_rank(a)
            ys = output_stacks(a, identity_initial_batch(d), d * d)
            if obs:
                seen_observable += 1
                l_hat = reconstruct_liouvillian(ys, identity_initial_batch(d), period)
                assert spectral_norm(l_hat - lv) <= 1e-8
                h_traceless = h - np.trace(h) / d * np.eye(d)
                assert spectral_norm(extract_hamiltonian(l_hat) - h_traceless) <= 1e-8
            else:
                with pytest.raises(UnobservableError):
                    reconstruct_liouvillian(ys, identity_initial_batch(d), period)
        assert seen_observable > 0


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
