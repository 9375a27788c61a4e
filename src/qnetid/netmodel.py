"""Benchmark network generation.

Erdos-Renyi quantum-walk graphs (each undirected link present
independently with probability p_link, unit weights), single-node basis
initial states, and the deterministic seed-derivation scheme used by
experiment sweeps.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .linalg import ConfigError, check_network_size, is_integer, upper_pairs

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


def _generator(rng) -> np.random.Generator:
    """``np.random.default_rng(rng)``: a Generator is returned as it is, a
    seed seeds a new one.  A negative integer seed is a ConfigError."""
    if is_integer(rng) and rng < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {rng}")
    return np.random.default_rng(rng)


def erdos_renyi(d: int, p_link: float, rng) -> np.ndarray:
    """Sample an Erdos-Renyi adjacency matrix on d nodes.

    Each of the C(d, 2) undirected links is included independently with
    probability p_link; weights are 1, the diagonal is zero.  ``rng``
    may be a numpy Generator or a plain seed (``_generator``).
    """
    check_network_size(d)
    if not 0.0 <= p_link <= 1.0:
        raise ConfigError(f"p_link must be in [0, 1], got {p_link}")
    gen = _generator(rng)
    i, j, _ = upper_pairs(d)
    a = np.zeros((d, d))
    a[i, j] = gen.random(i.size) < p_link
    return a + a.T


def is_connected(adjacency: np.ndarray) -> bool:
    """Depth-first reachability of every node from node 0, on the rows of
    ``adjacency != 0`` as Python lists: at a sweep's sizes a numpy call per
    node costs several times the whole search."""
    rows = (np.asarray(adjacency) != 0).tolist()
    seen = [False] * len(rows)
    seen[0] = True
    stack = [0]
    while stack:
        for v, linked in enumerate(rows[stack.pop()]):
            if linked and not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def connected_erdos_renyi(d: int, p_link: float, rng) -> np.ndarray:
    """Draw ``erdos_renyi`` graphs from ``rng`` until one is connected.

    Raises ConfigError at p_link = 0, RuntimeError after MAX_CONNECTED_DRAWS.
    """
    if p_link == 0:
        raise ConfigError("no graph is connected at p_link = 0")
    gen = _generator(rng)
    for _ in range(MAX_CONNECTED_DRAWS):
        adjacency = erdos_renyi(d, p_link, gen)
        if is_connected(adjacency):
            return adjacency
    raise RuntimeError(f"no connected graph after {MAX_CONNECTED_DRAWS} draws "
                       f"(d={d}, p_link={p_link})")


def basis_density(d: int, k: int) -> np.ndarray:
    """Density operator e_k e_k^T with only node k excited (1-based k)."""
    if not 1 <= k <= d:
        raise ConfigError(f"node index {k} out of range 1..{d}")
    rho = np.zeros((d, d), dtype=complex)
    rho[k - 1, k - 1] = 1.0
    return rho
