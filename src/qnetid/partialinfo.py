"""Identification from diagonal-only measurements.

When only the populations (diagonal of rho_t) are observable, the
network is re-initialized in d^2 linearly independent states, the
columns of Lambda0, and each run's populations are sampled at
t = k*Delta for k = 0..d^2.  These samples are y_k = C A^k Lambda0,
with output selector C and vectorized propagator A = e^(L Delta), so
the Markov parameters C A^k = y_k Lambda0^-1 determine A by one shifted
least-squares solve whenever the pair (C, A) is observable, i.e.
[C; CA; ...; CA^(d^2-1)] has full column rank (the eigensystem
realization idea of Ho & Kalman and of Juang & Pappa).  The generator
is the principal logarithm L = log(A)/Delta, and the network
Hamiltonian follows from L up to the identity gauge.

The sampling period is Delta = hbar/||H||_2, H traceless
(``sampling_period``).  Every phase (lambda_j - lambda_k)*Delta/hbar of A is then at most 2 in
modulus, below pi: the principal logarithm returns L, and distinct
frequencies of L stay distinct eigenvalues of A, so (C, A) is
observable exactly when (C, L) is.  A is unitary, so its stack carries
no scaling artifact of the kind the powers of L have.

Basis elements |k><j| with k != j are not valid states; they are mapped
onto four preparable states by an exact decomposition, and the linearity
of the dynamics recombines the measured runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .dynamics import liouvillian
from .linalg import (
    ABS_FLOOR,
    DEFAULT_RTOL,
    hermitize,
    matrix_from_json,
    matrix_to_json,
    numerical_rank,
    spectral_norm,
    vec,
)

#: relative residual above which an input is rejected as not generated by
#: any closed-system Hamiltonian
GENERATOR_RESIDUAL_RTOL = 1e-6
#: maximum tolerated relative non-skewness of a candidate generator
SKEW_INPUT_RTOL = 1e-6


class UnobservableError(RuntimeError):
    """The (C, A) pair is not observable; the generator is not unique."""


def diagonal_selector(d: int) -> np.ndarray:
    """Output matrix C with C @ vec(rho) = diag(rho).

    Row k has its single 1 at vec position (k-1)*d + k (1-based), the
    column-stacked index of the k-th diagonal entry.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    c = np.zeros((d, d * d))
    for k in range(d):
        c[k, k * d + k] = 1.0
    return c


def sampling_period(h: np.ndarray, hbar: float = 1.0) -> float:
    """The sampling period Delta = hbar/||H||_2 of the populations.

    H is taken in the traceless gauge: H and H + c*I generate the same
    dynamics, and an energy offset must not shrink the period (powers
    of A = e^(L Delta) close to the identity bring back the rank
    artifacts of the powers of L).  With it ||H|| Delta/hbar = 1 < pi/2,
    so the principal logarithm of the sampled propagator is the
    generator.  A zero traceless part has no time scale; its norm is
    floored at ABS_FLOOR.
    """
    h = hermitize(h)
    h = h - (np.trace(h) / h.shape[0]) * np.eye(h.shape[0])
    return hbar / max(spectral_norm(h), ABS_FLOOR)


# ---------------------------------------------------------------------------
# sampled outputs, generator reconstruction and Hamiltonian extraction
# ---------------------------------------------------------------------------

def _markov_parameters(a: np.ndarray, order: int) -> np.ndarray:
    """The Markov parameters G_k = C A^k for k = 0..order, shape (order + 1, d, n).

    The d x n selector rows are propagated, not the n = d^2 states: each
    power costs 2 d n^2, not n^3.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    n = a.shape[0]
    d = math.isqrt(n)
    if d * d != n:
        raise ValueError(f"propagator size {n} is not a perfect square")
    g = np.empty((order + 1, d, n), dtype=complex)
    g[0] = diagonal_selector(d)
    for k in range(order):
        g[k + 1] = g[k] @ a
    return g


def output_stacks(a: np.ndarray, lambda0: np.ndarray, order: int) -> np.ndarray:
    """Sampled outputs ys[k] = C A^k Lambda0 for k = 0..order.

    Column i of ys[k], shape (d, d^2), holds the populations at t = k*Delta
    of the run started in column i of Lambda0, when A = e^(L Delta).
    """
    return _markov_parameters(a, order) @ np.asarray(lambda0, dtype=complex)


def observability_rank(a: np.ndarray, rtol: float = DEFAULT_RTOL) -> tuple[int, bool]:
    """Numerical rank of the observability stack and the full-rank flag.

    ``a`` is the sampled propagator e^(L Delta) (``dynamics.propagator``
    at ``sampling_period``).  The stack [C; CA; ...; CA^(n-1)], C the
    diagonal selector, holds the Markov parameters themselves.
    """
    n = a.shape[0]
    stack = _markov_parameters(a, n - 1).reshape(-1, n)
    rank = numerical_rank(np.linalg.svd(stack, compute_uv=False), rtol)
    return rank, rank == n


def reconstruct_liouvillian(
    ys: np.ndarray, lambda0: np.ndarray, period: float, rtol: float = DEFAULT_RTOL
) -> np.ndarray:
    """Recover the generator L from outputs sampled every ``period``.

    ``ys`` holds ys[k] = C A^k Lambda0 for k = 0..d^2 (``output_stacks``).
    Inverts Lambda0 to obtain the Markov parameters G_k = C A^k, stacks
    O = [G_0; ...; G_(d^2-1)] and its shift O' = [G_1; ...; G_(d^2)],
    and solves O A = O' in least squares.  Requires rank(O) = d^2, i.e.
    an observable pair; otherwise raises UnobservableError.  Returns
    L = log(A)/period on the principal branch, by eigendecomposition;
    raises ValueError when an eigenvalue of A lies on the branch cut,
    the closed negative real axis (within ``rtol`` of it, relative).
    """
    lambda0 = np.asarray(lambda0, dtype=complex)
    n = lambda0.shape[0]
    if lambda0.shape != (n, n):
        raise ValueError("Lambda0 must be square (columns = vectorized initial states)")
    if period <= 0:
        raise ValueError("period must be positive")
    if len(ys) < n + 1:
        raise ValueError(f"{len(ys)} output samples are incomplete; need {n + 1}")
    if numerical_rank(np.linalg.svd(lambda0, compute_uv=False), rtol) < n:
        raise ValueError("initial-state matrix is numerically singular; "
                         "states are not linearly independent")
    moments = np.asarray(ys[: n + 1]) @ np.linalg.inv(lambda0)
    obs = moments[:n].reshape(-1, n)
    shifted = moments[1:].reshape(-1, n)
    u, s, vh = np.linalg.svd(obs, full_matrices=False)
    rank = numerical_rank(s, rtol)
    if rank < n:
        raise UnobservableError(
            f"observability rank {rank} < {n}: pair not observable, "
            "generator not unique"
        )
    a_hat = vh.conj().T @ ((u.conj().T @ shifted) / s[:, None])
    mu, v = np.linalg.eig(a_hat)
    if np.any((mu.real <= 0) & (np.abs(mu.imag) <= rtol * np.abs(mu))):
        raise ValueError(
            "an eigenvalue of the sampled propagator lies on the negative real "
            "axis: the period is too long for the principal logarithm"
        )
    return (v * np.log(mu)) @ np.linalg.inv(v) / period


def extract_hamiltonian(
    l_hat: np.ndarray, hbar: float = 1.0, residual_rtol: float = GENERATOR_RESIDUAL_RTOL
) -> np.ndarray:
    """Invert L = -(i/hbar)(I kron H - H^T kron I) for Hermitian H.

    In closed form, H = (i*hbar/2d)(Tr_1 L - (Tr_2 L)^T), where Tr_1 and
    Tr_2 trace out the outer (column) and inner (row) index of the
    column-stacked vec: X -> Tr_1 X - (Tr_2 X)^T is the adjoint of
    H -> I kron H - H^T kron I, and adjoint after map is 2d times the
    identity on traceless H, so the traceless Hermitian part of this H is
    the least-squares solution.  The map's kernel is the identity direction (H and H + c*I
    generate identical dynamics), so the traceless representative is
    returned.  Inputs whose residual exceeds residual_rtol * ||L|| are
    rejected as not being closed-system generators.  These tolerance
    checks measure in the Frobenius norm.
    """
    l_hat = np.asarray(l_hat, dtype=complex)
    n = l_hat.shape[0]
    d = math.isqrt(n)
    if l_hat.shape != (n, n) or d * d != n:
        raise ValueError(f"generator shape {l_hat.shape} is not (d^2, d^2)")
    scale = max(np.linalg.norm(l_hat), ABS_FLOOR)
    skew = np.linalg.norm(l_hat + l_hat.conj().T)
    if skew > max(SKEW_INPUT_RTOL, residual_rtol) * scale:
        raise ValueError("input generator is not skew-Hermitian")

    l4 = l_hat.reshape(d, d, d, d)  # l4[p, i, q, j] = L[p*d + i, q*d + j]
    h_hat = (1j * hbar / (2 * d)) * (np.einsum("kikj->ij", l4) - np.einsum("pkqk->qp", l4))
    h_hat -= (np.trace(h_hat) / d) * np.eye(d)
    h_hat = 0.5 * (h_hat + h_hat.conj().T)

    residual = np.linalg.norm(liouvillian(h_hat, hbar) - l_hat)
    if residual > residual_rtol * scale:
        raise ValueError(
            f"input is not a closed-system generator: residual {residual:.3e} "
            f"exceeds {residual_rtol:.0e} * ||L|| (Frobenius)"
        )
    return h_hat


# ---------------------------------------------------------------------------
# physical initial states
# ---------------------------------------------------------------------------

def physical_decomposition(d: int, k: int, j: int) -> list[tuple[np.ndarray, complex]]:
    """Decompose the basis element |k><j| over preparable states (1-based).

    For k = j the projector itself is physical.  Otherwise
    |k><j| = |+><+| + i |+y><+y| - (1+i)/2 (|k><k| + |j><j|) with
    |+> = (|k> + |j>)/sqrt(2) and |+y> = (|k> + i|j>)/sqrt(2); every
    term is a rank-one density operator and the identity is exact in
    floating point.
    """
    if not (1 <= k <= d and 1 <= j <= d):
        raise ValueError(f"indices ({k}, {j}) out of range 1..{d}")
    ek = np.zeros(d, dtype=complex)
    ek[k - 1] = 1.0
    if k == j:
        return [(np.outer(ek, ek.conj()), 1.0 + 0.0j)]
    ej = np.zeros(d, dtype=complex)
    ej[j - 1] = 1.0
    # 0.5 * outer of unnormalized sums: every entry is exactly representable,
    # so the decomposition identity holds to the last bit
    plus_proj = 0.5 * np.outer(ek + ej, (ek + ej).conj())
    plus_y_proj = 0.5 * np.outer(ek + 1j * ej, (ek + 1j * ej).conj())
    return [
        (plus_proj, 1.0 + 0.0j),
        (plus_y_proj, 1j),
        (np.outer(ek, ek.conj()), -(1.0 + 1j) / 2.0),
        (np.outer(ej, ej.conj()), -(1.0 + 1j) / 2.0),
    ]


def identity_initial_batch(d: int) -> np.ndarray:
    """Default Lambda0: the d^2 x d^2 identity, columns vec(|k><j|)."""
    return np.eye(d * d, dtype=complex)


def physical_initial_batch(d: int) -> tuple[np.ndarray, list[tuple[np.ndarray, str]]]:
    """A batch of d^2 linearly independent *preparable* states.

    Returns (Lambda0, states): the projectors |k><k| for every node, then
    the |+> and |+y> superposition projectors for every pair k < j -
    exactly the states the basis-element decomposition is built from.
    Columns of Lambda0 are the vectorized states, Lambda0 is invertible.
    """
    states: list[tuple[np.ndarray, str]] = []
    for k in range(1, d + 1):
        (rho, _), = physical_decomposition(d, k, k)
        states.append((rho, f"node_{k}"))
    for k in range(1, d + 1):
        for j in range(k + 1, d + 1):
            terms = physical_decomposition(d, k, j)
            states.append((terms[0][0], f"plus_{k}_{j}"))
            states.append((terms[1][0], f"plus_y_{k}_{j}"))
    lambda0 = np.array([vec(rho) for rho, _ in states]).T
    return lambda0, states


# ---------------------------------------------------------------------------
# measured-output batch files: one CSV per initialization + manifest
# ---------------------------------------------------------------------------

def write_output_batch(
    out_dir,
    runs: list[tuple[str, np.ndarray, np.ndarray]],
    lambda0: np.ndarray,
) -> Path:
    """Write one CSV per run plus a manifest mapping runs to files.

    Each run is (label, times, ys) with ys real of shape (n, d); the CSV
    columns are t, y_1, ..., y_d.  The manifest records the file map,
    the labels, and Lambda0 in matrix JSON form.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    labels = {}
    for idx, (label, times, ys) in enumerate(runs, start=1):
        ys = np.asarray(ys)
        name = f"output_{idx:03d}.csv"
        header = ",".join(["t"] + [f"y_{i + 1}" for i in range(ys.shape[1])])
        np.savetxt(out_dir / name, np.column_stack([times, ys]), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        files[str(idx)] = name
        labels[str(idx)] = label
    manifest = {
        "outputs": files,
        "labels": labels,
        "lambda0": matrix_to_json(lambda0),
    }
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def read_output_batch(manifest_path) -> tuple[np.ndarray, list[tuple[str, np.ndarray, np.ndarray]]]:
    """Load a batch written by :func:`write_output_batch`."""
    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    lambda0 = matrix_from_json(manifest["lambda0"])
    runs = []
    for idx in sorted(manifest["outputs"], key=int):
        name = manifest["outputs"][idx]
        label = manifest.get("labels", {}).get(idx, name)
        rows = np.loadtxt(manifest_path.parent / name, delimiter=",", skiprows=1, ndmin=2)
        runs.append((label, rows[:, 0], rows[:, 1:]))
    return lambda0, runs
