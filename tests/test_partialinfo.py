import numpy as np
import pytest

from qnetid.dynamics import liouvillian, propagate, unitary_conjugate
from qnetid.linalg import spectral_norm, vec
from qnetid.partialinfo import (
    UnobservableError,
    diagonal_selector,
    estimate_derivative_stacks,
    exact_derivative_stacks,
    extract_hamiltonian,
    identity_initial_batch,
    observability_rank,
    observability_stack,
    physical_decomposition,
    physical_initial_batch,
    read_output_batch,
    reconstruct_liouvillian,
    sample_output_stacks,
    simulate_diagonal_outputs,
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


class TestObservabilityRank:
    def test_zero_generator(self):
        rank, obs = observability_rank(diagonal_selector(2), np.zeros((4, 4)))
        assert rank == 2
        assert not obs

    def test_observable_pair(self):
        rank, obs = observability_rank(diagonal_selector(2), liouvillian(H_OBS))
        assert rank == 4
        assert obs

    def test_zero_diagonal_unobservable(self):
        rank, obs = observability_rank(diagonal_selector(2), liouvillian(SX))
        assert rank == 3
        assert not obs

    def test_structural_unobservability(self):
        # L vec(H) = 0 and C vec(H) = 0 for every zero-diagonal H != 0
        rng = np.random.default_rng(2)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            h = random_admissible(rng, d)
            stack = observability_stack(diagonal_selector(d), liouvillian(h))
            residual = np.max(np.abs(stack @ vec(h)))
            assert residual <= 1e-12 * spectral_norm(stack) * max(spectral_norm(h), 1.0)
            rank, _ = observability_rank(diagonal_selector(d), liouvillian(h))
            assert rank <= d * d - 1


class TestExactDerivativeStacks:
    def test_order_zero(self):
        lv = liouvillian(H_OBS)
        st = exact_derivative_stacks(lv, identity_initial_batch(2), 0)
        assert st.order == 0
        assert np.array_equal(st.ys[0], diagonal_selector(2))

    def test_zero_generator(self):
        st = exact_derivative_stacks(np.zeros((4, 4)), identity_initial_batch(2), 3)
        assert np.array_equal(st.ys[1:], np.zeros((3, 2, 4)))

    def test_matches_independent_stencil(self):
        # second derivative from a plain [1, -2, 1]/h^2 stencil on the outputs
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 2, norm=1.0)
        lv = liouvillian(h)
        lam0 = identity_initial_batch(2)
        st = exact_derivative_stacks(lv, lam0, 2)
        step = 1e-3
        outs = sample_output_stacks(h, lam0, 1, step)
        fd2 = (outs[2] - 2.0 * outs[1] + outs[0]) / step**2
        assert np.max(np.abs(fd2 - st.ys[2])) <= 1e-4


class TestEstimateDerivativeStacks:
    def test_constant_outputs(self):
        outs = np.ones((9, 2, 4))
        st = estimate_derivative_stacks(outs, 3, 0.1)
        assert np.allclose(st.ys[1:], 0.0, atol=1e-12)

    def test_matches_exact(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 2, norm=1.0)
        lam0 = identity_initial_batch(2)
        exact = exact_derivative_stacks(liouvillian(h), lam0, 2)
        outs = sample_output_stacks(h, lam0, 2, 1e-3)
        est = estimate_derivative_stacks(outs, 2, 1e-3)
        assert np.max(np.abs(est.ys - exact.ys[:3])) <= 1e-4

    def test_high_order_warns(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 2, norm=1.0)
        lam0 = identity_initial_batch(2)
        outs = sample_output_stacks(h, lam0, 4, 1e-2)
        with pytest.warns(UserWarning, match="amplif"):
            est = estimate_derivative_stacks(outs, 4, 1e-2)
        exact = exact_derivative_stacks(liouvillian(h), lam0, 4)
        rel = np.max(np.abs(est.ys[4] - exact.ys[4])) / max(np.max(np.abs(exact.ys[4])), 1.0)
        assert rel > 1e-14  # visibly above machine precision, as documented

    def test_insufficient_samples(self):
        outs = np.ones((5, 2, 4))
        with pytest.raises(ValueError, match="samples"):
            estimate_derivative_stacks(outs, 4, 0.01)

    def test_even_sample_count_rejected(self):
        with pytest.raises(ValueError, match="2N\\+1"):
            estimate_derivative_stacks(np.ones((4, 2, 4)), 1, 0.1)


class TestReconstructLiouvillian:
    def test_exact_roundtrip(self):
        lv = liouvillian(H_OBS)
        st = exact_derivative_stacks(lv, identity_initial_batch(2), 4)
        l_hat = reconstruct_liouvillian(st, identity_initial_batch(2))
        assert spectral_norm(l_hat - lv) <= 1e-9

    def test_zero_generator_fails_rank(self):
        st = exact_derivative_stacks(np.zeros((4, 4)), identity_initial_batch(2), 4)
        with pytest.raises(UnobservableError):
            reconstruct_liouvillian(st, identity_initial_batch(2))

    def test_unobservable_instance(self):
        st = exact_derivative_stacks(liouvillian(SX), identity_initial_batch(2), 4)
        with pytest.raises(UnobservableError, match="rank 3"):
            reconstruct_liouvillian(st, identity_initial_batch(2))

    def test_incomplete_stacks_rejected(self):
        st = exact_derivative_stacks(liouvillian(H_OBS), identity_initial_batch(2), 2)
        with pytest.raises(ValueError, match="incomplete"):
            reconstruct_liouvillian(st, identity_initial_batch(2))

    def test_singular_lambda0_rejected(self):
        lam = np.eye(4, dtype=complex)
        lam[:, 3] = lam[:, 2]
        st = exact_derivative_stacks(liouvillian(H_OBS), lam, 4)
        with pytest.raises(ValueError, match="singular"):
            reconstruct_liouvillian(st, lam)

    def test_physical_batch_roundtrip(self):
        lam0, states = physical_initial_batch(2)
        assert lam0.shape == (4, 4)
        lv = liouvillian(H_OBS)
        st = exact_derivative_stacks(lv, lam0, 4)
        l_hat = reconstruct_liouvillian(st, lam0)
        assert spectral_norm(l_hat - lv) <= 1e-9

    def test_estimated_roundtrip(self):
        # measured-data path: finite differences on physically preparable runs
        lam0, _ = physical_initial_batch(2)
        outs = sample_output_stacks(H_OBS, lam0, 4, 1e-3)
        with pytest.warns(UserWarning, match="amplif"):  # order 4 at step 1e-3
            st = estimate_derivative_stacks(outs, 4, 1e-3)
        l_hat = reconstruct_liouvillian(st, lam0)
        assert spectral_norm(l_hat - liouvillian(H_OBS)) <= 1e-3


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
            rank, obs = observability_rank(diagonal_selector(d), lv)
            st = exact_derivative_stacks(lv, identity_initial_batch(d), d * d)
            if obs:
                seen_observable += 1
                l_hat = reconstruct_liouvillian(st, identity_initial_batch(d))
                assert spectral_norm(l_hat - lv) <= 1e-8
                h_traceless = h - np.trace(h) / d * np.eye(d)
                assert spectral_norm(extract_hamiltonian(l_hat) - h_traceless) <= 1e-8
            else:
                with pytest.raises(UnobservableError):
                    reconstruct_liouvillian(st, identity_initial_batch(d))
        assert seen_observable > 0


class TestOutputBatchFiles:
    def test_write_read_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        h = random_hermitian(rng, 2, norm=1.0)
        lam0, states = physical_initial_batch(2)
        runs = []
        for rho, label in states:
            times, ys = simulate_diagonal_outputs(h, rho, 0.5, 0.05)
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
        times, ys = simulate_diagonal_outputs(h, np.diag([1.0, 0, 0]).astype(complex), 0.2, 0.1)
        write_output_batch(tmp_path / "b", [("node_1", times, ys)], np.eye(9, dtype=complex))
        header = (tmp_path / "b" / "output_001.csv").read_text().splitlines()[0]
        assert header == "t,y_1,y_2,y_3"
