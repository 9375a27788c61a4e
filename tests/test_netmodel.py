import numpy as np
import pytest

from qnetid import netmodel
from qnetid.netmodel import (
    ManyBodySpec,
    SeededRng,
    assemble_hamiltonian,
    basis_density,
    connected_erdos_renyi,
    derive_seed,
    erdos_renyi,
    is_connected,
    load_manybody_spec,
    save_manybody_spec,
)
from qnetid.linalg import spectral_norm

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


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

    def test_edge_count_statistics(self):
        # d=30, p=0.5: 435 possible links, mean 217.5; the mean of 1000
        # draws lies within 3 standard errors
        rng = np.random.default_rng(7)
        counts = [erdos_renyi(30, 0.5, rng).sum() / 2 for _ in range(1000)]
        mean = np.mean(counts)
        stderr = np.sqrt(435 * 0.25 / 1000)
        assert abs(mean - 217.5) <= 3 * stderr

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            erdos_renyi(1, 0.5, 0)
        with pytest.raises(ValueError):
            erdos_renyi(3, 1.5, 0)


class TestConnectivity:
    def test_connected_path(self):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert is_connected(a)

    def test_disconnected(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        assert not is_connected(a)

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
        with pytest.raises(ValueError):
            basis_density(3, 0)
        with pytest.raises(ValueError):
            basis_density(3, 4)


class TestAssembleHamiltonian:
    def test_empty_couplings(self):
        spec = ManyBodySpec(node_terms=[(2.0, SZ)], couplings=[])
        h0, h_int = assemble_hamiltonian(spec)
        assert np.array_equal(h0, 2.0 * SZ)
        assert np.array_equal(h_int, np.zeros((2, 2)))

    def test_two_node_example(self):
        # A1 = sx kron I, A2 = I kron sx commute, so the symmetric pair
        # assembles to 2*alpha * (sx kron sx)
        a1 = np.kron(SX, np.eye(2))
        a2 = np.kron(np.eye(2), SX)
        alpha = 0.7
        spec = ManyBodySpec(
            node_terms=[],
            couplings=[(1, 2, alpha, a1, a2), (2, 1, alpha, a2, a1)],
        )
        _, h_int = assemble_hamiltonian(spec)
        assert np.allclose(h_int, 2 * alpha * np.kron(SX, SX), atol=1e-14)
        assert spectral_norm(h_int - h_int.conj().T) <= 1e-12 * spectral_norm(h_int)

    def test_commuting_terms_hermitian_alone(self):
        spec = ManyBodySpec(couplings=[(1, 2, 1.0, SZ, SZ), (2, 1, 1.0, SZ, SZ)])
        _, h_int = assemble_hamiltonian(spec)
        assert np.allclose(h_int, 2.0 * np.eye(2), atol=1e-14)

    def test_rejects_unmatched_pair(self):
        # sx*sz is anti-Hermitian, so a lone (1,2) entry must be rejected
        spec = ManyBodySpec(couplings=[(1, 2, 1.0, SX, SZ)])
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            assemble_hamiltonian(spec)

    def test_rejects_self_coupling(self):
        spec = ManyBodySpec(couplings=[(1, 1, 1.0, SX, SX)])
        with pytest.raises(ValueError, match="two-body"):
            assemble_hamiltonian(spec)


class TestSeeds:
    def test_derive_seed_deterministic(self):
        assert derive_seed(5, 3, 1.0, "x") == derive_seed(5, 3, 1.0, "x")
        assert derive_seed(5, 3, 1.0, "x") != derive_seed(5, 3, 1.0, "y")
        assert derive_seed(5, 3, 1.0, "x") != derive_seed(6, 3, 1.0, "x")

    def test_derive_seed_frozen_value(self):
        # locks the documented scheme: sha256 of the repr-joined label,
        # first 8 little-endian bytes XOR master
        assert derive_seed(0, 2, 3.0, 300, 0) == 4100497301888636492

    def test_seeded_rng_streams(self):
        root = SeededRng(42)
        a = root.child("trial", 1).generator().random(3)
        b = root.child("trial", 1).generator().random(3)
        c = root.child("trial", 2).generator().random(3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestManyBodyJson:
    def test_operator_file_references(self, tmp_path):
        # operators may be paths to matrix JSON files next to the spec
        import json

        from qnetid.linalg import save_matrix

        save_matrix(tmp_path / "sz.json", SZ)
        save_matrix(tmp_path / "sx.json", SX)
        obj = {
            "nodes": [{"omega": 2.0, "operator": "sz.json"}],
            "couplings": [
                {"k": 1, "j": 2, "alpha": {"re": 0.5, "im": 0.0},
                 "a_k": "sx.json", "a_j": "sx.json"},
                {"k": 2, "j": 1, "alpha": {"re": 0.5, "im": 0.0},
                 "a_k": "sx.json", "a_j": "sx.json"},
            ],
        }
        (tmp_path / "spec.json").write_text(json.dumps(obj))
        spec = load_manybody_spec(tmp_path / "spec.json")
        h0, h_int = assemble_hamiltonian(spec)
        assert np.array_equal(h0, 2.0 * SZ)
        assert np.allclose(h_int, np.eye(2), atol=1e-15)  # 2 * 0.5 * sx@sx

    def test_roundtrip(self, tmp_path):
        spec = ManyBodySpec(
            node_terms=[(1.5, SZ)],
            couplings=[(1, 2, 0.25 + 0.0j, SX, SX), (2, 1, 0.25 + 0.0j, SX, SX)],
        )
        path = tmp_path / "spec.json"
        save_manybody_spec(path, spec)
        back = load_manybody_spec(path)
        assert len(back.node_terms) == 1
        assert back.node_terms[0][0] == 1.5
        assert np.array_equal(back.node_terms[0][1], SZ)
        assert len(back.couplings) == 2
        k, j, alpha, ak, aj = back.couplings[0]
        assert (k, j, alpha) == (1, 2, 0.25 + 0.0j)
        assert np.array_equal(ak, SX)
        h0_a, hint_a = assemble_hamiltonian(spec)
        h0_b, hint_b = assemble_hamiltonian(back)
        assert np.array_equal(hint_a, hint_b)
