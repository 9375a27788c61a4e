import numpy as np
import pytest

from qnetid import netmodel
from qnetid.linalg import ConfigError
from qnetid.netmodel import (
    basis_density,
    connected_erdos_renyi,
    derive_seed,
    erdos_renyi,
    is_connected,
)


class TestErdosRenyi:
    def test_p_zero(self):
        assert np.array_equal(erdos_renyi(5, 0.0, 0), np.zeros((5, 5)))

    def test_p_one(self):
        a = erdos_renyi(4, 1.0, 0)
        assert np.array_equal(a, np.ones((4, 4)) - np.eye(4))

    def test_admissible_output(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            a = erdos_renyi(6, 0.5, rng)
            assert np.array_equal(a, a.T)
            assert np.array_equal(np.diag(a), np.zeros(6))
            assert set(np.unique(a)).issubset({0.0, 1.0})

    def test_reproducible(self):
        a1 = erdos_renyi(10, 0.3, np.random.default_rng(99))
        a2 = erdos_renyi(10, 0.3, np.random.default_rng(99))
        assert np.array_equal(a1, a2)

    def test_seed_and_generator_agree(self):
        # a plain seed is np.random.default_rng(seed): same graph
        for seed in (0, 7, 2**63 + 5):
            assert np.array_equal(erdos_renyi(9, 0.4, seed),
                                  erdos_renyi(9, 0.4, np.random.default_rng(seed)))

    def test_edge_count_statistics(self):
        # d=30, p=0.5: 435 possible links, mean 217.5; the mean of 1000
        # draws lies within 3 standard errors
        rng = np.random.default_rng(7)
        counts = [erdos_renyi(30, 0.5, rng).sum() / 2 for _ in range(1000)]
        mean = np.mean(counts)
        stderr = np.sqrt(435 * 0.25 / 1000)
        assert abs(mean - 217.5) <= 3 * stderr

    def test_rejects_bad_args(self):
        for d, p in [(1, 0.5), (3, 1.5), (3, -0.1), (3, float("nan"))]:
            with pytest.raises(ConfigError, match="d must be|p_link must be"):
                erdos_renyi(d, p, 0)

    @pytest.mark.parametrize("draw", [erdos_renyi, connected_erdos_renyi])
    @pytest.mark.parametrize("seed", [-1, np.int64(-7), -2**70])
    def test_negative_seed_is_a_config_error(self, draw, seed):
        # numpy's own error named no seed: "expected non-negative integer"
        with pytest.raises(ConfigError, match=f"^seed must be a non-negative integer, "
                                              f"got {int(seed)}$"):
            draw(3, 0.5, seed)


class TestConnectivity:
    def test_connected_path(self):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert is_connected(a)

    def test_disconnected(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        assert not is_connected(a)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 12, 20, 30])
    def test_agrees_with_reachability_oracle(self, d):
        # node 0 reaches every node iff the first row of (I + A)^(d-1) as a
        # boolean matrix power has no zero; sparse draws give both verdicts,
        # and one graph per d has only its last node isolated
        rng = np.random.default_rng(d)
        graphs = [erdos_renyi(d, p, rng) for p in (0.05, 0.1, 0.2, 0.3, 0.5) for _ in range(6)]
        isolated = np.ones((d, d)) - np.eye(d)
        isolated[-1, :] = isolated[:, -1] = 0.0
        verdicts = set()
        for a in graphs + [isolated, 2.5 * (graphs[0] + isolated)]:
            step = (np.eye(d) + a) != 0
            reach = step
            for _ in range(d - 2):
                reach = (reach.astype(int) @ step.astype(int)) != 0
            expected = bool(reach[0].all())
            assert is_connected(a) is expected
            verdicts.add(expected)
        assert verdicts == {True, False}
        assert not is_connected(isolated)

    def test_connected_draw_redraws_from_the_same_stream(self):
        # the graph and the stream state of erdos_renyi redrawn by hand
        rng = np.random.default_rng(4)
        a = erdos_renyi(6, 0.3, rng)
        draws = 1
        while not is_connected(a):
            a = erdos_renyi(6, 0.3, rng)
            draws += 1
        assert draws > 1
        fresh = np.random.default_rng(4)
        assert np.array_equal(connected_erdos_renyi(6, 0.3, fresh), a)
        assert fresh.random() == rng.random()

    def test_connected_draw_is_capped(self, monkeypatch):
        monkeypatch.setattr(netmodel, "MAX_CONNECTED_DRAWS", 5)
        with pytest.raises(RuntimeError, match="no connected graph after 5 draws"):
            connected_erdos_renyi(4, 1e-300, 0)  # p = 0 is rejected before any draw

    def test_connected_draw_rejects_p_zero_up_front(self, monkeypatch):
        monkeypatch.setattr(netmodel, "erdos_renyi", None)  # no draw is made
        with pytest.raises(ConfigError, match="p_link = 0"):
            connected_erdos_renyi(4, 0.0, 0)


class TestBasisDensity:
    def test_first_node(self):
        assert np.array_equal(basis_density(2, 1), np.diag([1.0, 0.0]).astype(complex))

    def test_properties(self):
        rho = basis_density(4, 2)
        assert np.trace(rho) == 1.0
        assert np.linalg.eigvalsh(rho)[0] >= 0.0
        assert np.count_nonzero(rho) == 1

    def test_third_of_five(self):
        e3 = np.zeros(5)
        e3[2] = 1.0
        assert np.array_equal(basis_density(5, 3), np.outer(e3, e3).astype(complex))

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            basis_density(3, 0)
        with pytest.raises(ConfigError):
            basis_density(3, 4)


class TestSeeds:
    def test_derive_seed_deterministic(self):
        assert derive_seed(5, 3, 1.0, "x") == derive_seed(5, 3, 1.0, "x")
        assert derive_seed(5, 3, 1.0, "x") != derive_seed(5, 3, 1.0, "y")
        assert derive_seed(5, 3, 1.0, "x") != derive_seed(6, 3, 1.0, "x")

    def test_derive_seed_frozen_value(self):
        # locks the documented scheme: sha256 of the repr-joined label,
        # first 8 little-endian bytes XOR master
        assert derive_seed(0, 2, 3.0, 300, 0) == 4100497301888636492
