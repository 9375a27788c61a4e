"""Seeded inputs for the CLI workloads, made with numpy alone.

Nothing here imports qnetid: a change to ``qnetid.dynamics`` or
``qnetid.netmodel`` cannot change what the ``identify-full`` and
``partial-info`` workloads are fed.  Files are written in the package's
documented formats:

* trajectory CSV: header ``t, re_1_1, im_1_1, re_2_1, ...`` with the
  entries in column-major (i, j) order, one row per sample, 17
  significant digits;
* matrix JSON: ``{"rows", "cols", "re", "im"}`` with row-major nested
  lists.

Equal seeds give byte-identical files.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

# identify-full: mixed-state trajectories of connected Erdos-Renyi networks
IDENT_D = 16
IDENT_TAU = 3.0
IDENT_DT = 0.02
IDENT_P_LINK = 0.5
IDENT_FILES = 20

# partial-info: unit-norm Hermitian H with max |diag| >= 0.1 (criterion 7)
PARTIAL_PER_CASE = 25
PARTIAL_MIN_DIAG = 0.1
#: (mode, d) cases the workload runs; every op passes at the recorded commit
PARTIAL_CASES = (("exact", 2), ("exact", 3), ("exact", 4))
#: cases left out because some of their ops fail at the recorded commit
#: (see README.md, "The partial-info census")
PARTIAL_CENSUS_CASES = (("exact", 5), ("exact", 6), ("estimate", 2), ("estimate", 3))


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Independent stream per (workload seed, input tag)."""
    return np.random.default_rng([int(seed), zlib.crc32(tag.encode())])


def connected_er(rng: np.random.Generator, d: int, p_link: float) -> np.ndarray:
    """Erdos-Renyi adjacency with unit weights, redrawn until connected."""
    iu = np.triu_indices(d, k=1)
    while True:
        a = np.zeros((d, d))
        a[iu] = (rng.random(len(iu[0])) < p_link).astype(float)
        a = a + a.T
        reach = np.linalg.matrix_power(np.eye(d) + a, d - 1)
        if np.all(reach[0] > 0):
            return a


def mixed_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank density operator G G† / tr(G G†) with Gaussian G."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def propagate_grid(h: np.ndarray, rho0: np.ndarray, tau: float, dt: float):
    """rho_t = U rho_0 U† on t_k = k*dt, k = 0..tau/dt, via one eigh of H."""
    n = int(round(tau / dt))
    w, v = np.linalg.eigh(h)
    rho_eig = v.conj().T @ rho0 @ v
    times = np.arange(n + 1) * dt
    times[-1] = tau
    phase = np.exp(-1j * np.outer(times, w))
    states = v @ (phase[:, :, None] * phase.conj()[:, None, :] * rho_eig) @ v.conj().T
    states = 0.5 * (states + states.conj().transpose(0, 2, 1))
    states[0] = rho0
    return times, states


def random_hamiltonian(rng: np.random.Generator, d: int) -> np.ndarray:
    """Unit spectral norm Hermitian H, redrawn until max |diag| >= 0.1."""
    while True:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = 0.5 * (g + g.conj().T)
        h = h / np.linalg.norm(h, 2)
        if np.max(np.abs(np.diag(h).real)) >= PARTIAL_MIN_DIAG:
            return h


def write_matrix_json(path: Path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=complex)
    obj = {"rows": m.shape[0], "cols": m.shape[1], "re": m.real.tolist(), "im": m.imag.tolist()}
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def write_trajectory_csv(path: Path, times: np.ndarray, states: np.ndarray) -> None:
    d = states.shape[1]
    cols = ["t"]
    for j in range(d):
        for i in range(d):
            cols += [f"re_{i + 1}_{j + 1}", f"im_{i + 1}_{j + 1}"]
    flat = states.transpose(0, 2, 1).reshape(len(times), -1)  # column-major entries
    inter = np.empty((len(times), 2 * d * d))
    inter[:, 0::2] = flat.real
    inter[:, 1::2] = flat.imag
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for t, row in zip(times.tolist(), inter.tolist()):
            fh.write(",".join(format(x, ".17g") for x in [t] + row) + "\n")


def make_identify_inputs(seed: int, out_dir: Path, files: int = IDENT_FILES,
                         d: int = IDENT_D) -> list[tuple[Path, Path]]:
    """Write ``files`` (trajectory CSV, truth JSON) pairs; return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = []
    for k in range(files):
        rng = rng_for(seed, f"identify-full/{k}")
        a = connected_er(rng, d, IDENT_P_LINK)
        times, states = propagate_grid(a.astype(complex), mixed_state(rng, d), IDENT_TAU, IDENT_DT)
        traj, truth = out_dir / f"traj_{k:02d}.csv", out_dir / f"truth_{k:02d}.json"
        write_trajectory_csv(traj, times, states)
        write_matrix_json(truth, a)
        pairs.append((traj, truth))
    return pairs


def make_partial_inputs(seed: int, out_dir: Path, cases=PARTIAL_CASES,
                        per_case: int = PARTIAL_PER_CASE) -> list[tuple[str, int, Path]]:
    """Write ``per_case`` Hamiltonian JSONs per (mode, d); return (mode, d, path)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    items = []
    for mode, d in cases:
        rng = rng_for(seed, f"partial-info/{mode}/{d}")
        for k in range(per_case):
            path = out_dir / f"h_{mode}_{d}_{k:02d}.json"
            write_matrix_json(path, random_hamiltonian(rng, d))
            items.append((mode, d, path))
    return items
