"""Benchmark network generation and many-body Hamiltonian assembly.

Erdos-Renyi quantum-walk graphs (each undirected link present
independently with probability p_link, unit weights), single-node basis
initial states, two-body interaction assembly H = H0 + H_int, and the
deterministic seed-derivation scheme used by experiment sweeps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import load_matrix, matrix_to_json

#: relative asymmetry (Frobenius norm) tolerated in a summed coupling pair
HERMITICITY_RTOL = 1e-12
#: resampling cap when conditioning on connected graphs
MAX_CONNECTED_DRAWS = 100_000


def derive_seed(master_seed: int, *parts) -> int:
    """Derive a 64-bit child seed from a master seed and a label tuple.

    The label is rendered as '|'-joined repr strings, hashed with
    SHA-256, and the first 8 little-endian digest bytes are XORed into
    the master seed.  Stable across platforms and runs, so any sweep
    cell or trial can be reproduced in isolation.
    """
    key = "|".join(repr(p) for p in parts).encode()
    digest = hashlib.sha256(key).digest()
    return (int(master_seed) ^ int.from_bytes(digest[:8], "little")) & (2**64 - 1)


@dataclass(frozen=True)
class SeededRng:
    """Reproducible RNG handle: same seed, same sample sequence."""

    seed: int

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def child(self, *parts) -> "SeededRng":
        return SeededRng(derive_seed(self.seed, *parts))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, SeededRng):
        return rng.generator()
    return np.random.default_rng(rng)


def erdos_renyi(d: int, p_link: float, rng) -> np.ndarray:
    """Sample an Erdos-Renyi adjacency matrix on d nodes.

    Each of the C(d, 2) undirected links is included independently with
    probability p_link; weights are 1, the diagonal is zero.  ``rng``
    may be a numpy Generator, a SeededRng, or a plain seed.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if not 0.0 <= p_link <= 1.0:
        raise ValueError("p_link must be in [0, 1]")
    gen = _as_generator(rng)
    iu = np.triu_indices(d, k=1)
    draws = gen.random(len(iu[0])) < p_link
    a = np.zeros((d, d))
    a[iu] = draws.astype(float)
    return a + a.T


def is_connected(adjacency: np.ndarray) -> bool:
    """Breadth-first reachability of every node from node 0."""
    a = np.asarray(adjacency)
    d = a.shape[0]
    seen = np.zeros(d, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in np.nonzero(a[u])[0]:
            if not seen[v]:
                seen[v] = True
                frontier.append(int(v))
    return bool(seen.all())


def connected_erdos_renyi(d: int, p_link: float, rng) -> np.ndarray:
    """Draw ``erdos_renyi`` graphs from ``rng`` until one is connected.

    Raises RuntimeError after MAX_CONNECTED_DRAWS disconnected draws.
    """
    gen = _as_generator(rng)
    for _ in range(MAX_CONNECTED_DRAWS):
        adjacency = erdos_renyi(d, p_link, gen)
        if is_connected(adjacency):
            return adjacency
    raise RuntimeError(f"no connected graph after {MAX_CONNECTED_DRAWS} draws "
                       f"(d={d}, p_link={p_link})")


def basis_density(d: int, k: int) -> np.ndarray:
    """Density operator e_k e_k^T with only node k excited (1-based k)."""
    if not 1 <= k <= d:
        raise ValueError(f"node index {k} out of range 1..{d}")
    rho = np.zeros((d, d), dtype=complex)
    rho[k - 1, k - 1] = 1.0
    return rho


@dataclass
class ManyBodySpec:
    """Node terms and two-body couplings of a composite network Hamiltonian.

    node_terms: list of (omega_k, H_k) with H_k a d x d Hermitian operator
    already lifted to the full network space.
    couplings: list of (k, j, alpha_kj, A_k, A_j); every (k, j) pair needs
    a partner entry such that the summed pair term is Hermitian.
    """

    node_terms: list = field(default_factory=list)
    couplings: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        if self.node_terms:
            return self.node_terms[0][1].shape[0]
        if self.couplings:
            return self.couplings[0][3].shape[0]
        raise ValueError("empty ManyBodySpec has no dimension")


def assemble_hamiltonian(spec: ManyBodySpec) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (H0, H_int) = (sum_k omega_k H_k, sum_kj alpha_kj A_k A_j).

    Coupling terms are Hermitian only in matched (k, j)/(j, k) pairs, so
    Hermiticity is checked pair by pair and any offending pair is named
    in the error.
    """
    d = spec.dim
    h0 = np.zeros((d, d), dtype=complex)
    for omega, hk in spec.node_terms:
        hk = np.asarray(hk, dtype=complex)
        if hk.shape != (d, d):
            raise ValueError(f"node operator shape {hk.shape} does not match dim {d}")
        h0 += omega * hk

    pair_sums: dict[frozenset, np.ndarray] = {}
    for k, j, alpha, ak, aj in spec.couplings:
        if k == j:
            raise ValueError(f"coupling ({k}, {j}) is not a two-body term")
        ak = np.asarray(ak, dtype=complex)
        aj = np.asarray(aj, dtype=complex)
        term = alpha * (ak @ aj)
        key = frozenset((k, j))
        pair_sums[key] = pair_sums.get(key, np.zeros((d, d), dtype=complex)) + term

    h_int = np.zeros((d, d), dtype=complex)
    for key in sorted(pair_sums, key=sorted):
        term = pair_sums[key]
        asym = np.linalg.norm(term - term.conj().T)
        scale = max(np.linalg.norm(term), 1e-300)
        if asym > HERMITICITY_RTOL * scale and asym > 1e-12:
            k, j = sorted(key)
            raise ValueError(
                f"coupling pair ({k}, {j}) sums to a non-Hermitian term "
                f"(relative asymmetry {asym / scale:.3e}); add the matching "
                f"({j}, {k}) entry"
            )
        h_int += term

    h0 = 0.5 * (h0 + h0.conj().T)
    h_int = 0.5 * (h_int + h_int.conj().T)
    return h0, h_int


def save_manybody_spec(path, spec: ManyBodySpec) -> None:
    """Serialize a ManyBodySpec with operators embedded in matrix JSON form."""
    obj = {
        "nodes": [
            {"omega": float(om), "operator": matrix_to_json(hk)}
            for om, hk in spec.node_terms
        ],
        "couplings": [
            {
                "k": int(k),
                "j": int(j),
                "alpha": {"re": float(np.real(al)), "im": float(np.imag(al))},
                "a_k": matrix_to_json(ak),
                "a_j": matrix_to_json(aj),
            }
            for k, j, al, ak, aj in spec.couplings
        ],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def load_manybody_spec(path) -> ManyBodySpec:
    """Load a ManyBodySpec; operator fields may be inline matrix objects
    or paths to matrix JSON files (resolved relative to the spec file)."""
    path = Path(path)
    with open(path) as fh:
        obj = json.load(fh)

    def _matrix(entry):
        from .linalg import matrix_from_json

        if isinstance(entry, str):
            return load_matrix(path.parent / entry)
        return matrix_from_json(entry)

    node_terms = [(float(n["omega"]), _matrix(n["operator"])) for n in obj.get("nodes", [])]
    couplings = []
    for c in obj.get("couplings", []):
        al = c["alpha"]
        alpha = complex(al["re"], al.get("im", 0.0)) if isinstance(al, dict) else complex(al)
        couplings.append((int(c["k"]), int(c["j"]), alpha, _matrix(c["a_k"]), _matrix(c["a_j"])))
    return ManyBodySpec(node_terms=node_terms, couplings=couplings)
