"""Identification from diagonal-only measurements.

When only the populations (diagonal of rho_t) are observable, the network is
re-initialized in d^2 linearly independent states, the columns of Lambda0,
and each run's populations are sampled at t = k*Delta for k = 0..d^2.  These
samples are y_k = C A^k Lambda0, with output selector C and vectorized
propagator A = conj(U) kron U, U = exp(-i H Delta); row i
of C A^k is vec(U^k[i,:]^T conj(U^k[i,:])), so the simulation never forms A.
The Markov parameters C A^k = y_k Lambda0^-1 determine A by one shifted
least-squares solve whenever the pair (C, A) is observable, i.e.
[C; CA; ...; CA^(d^2-1)] has full column rank (the eigensystem realization
idea of Ho & Kalman and of Juang & Pappa).  Reshuffling the indices of a
Kronecker product gives a rank-one matrix (Van Loan & Pitsianis 1993): the
dominant singular pair of the realigned estimate of A is U up to a phase,
and the rest measures the distance from a closed-system evolution.  The
network Hamiltonian follows from the eigenphases of U up to the identity
gauge.

The sampling period is Delta = 1/||H - tr(H)/d I||_2 (hbar = 1), set by
the traceless part of H; ``sampled_propagator`` returns it with U.  The
eigenphases -lambda_j*Delta of U then spread over at most 2, below pi, so
they fix the traceless H, and distinct gaps lambda_j - lambda_k of H stay
distinct eigenvalues of A: the sampled pair is observable exactly when
the continuous-time one is.  A is unitary, so its stack carries no
scaling artifact of the kind the powers of the generator have.

Basis elements |k><j| with k != j are not valid states; they are mapped
onto four preparable states by an exact decomposition, and the linearity
of the dynamics recombines the measured runs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from .dynamics import GRID_RTOL, _check_grid, _read_rows
from .linalg import (
    ABS_FLOOR,
    DEFAULT_RTOL,
    ConfigError,
    check_positive,
    hermitize,
    load_json,
    matrix_from_json,
    matrix_to_json,
    naming,
    numerical_rank,
    one_blas_thread,
    save_json,
    spectral_norm,
    vec,
)

#: cut on sigma_2/sigma_1 of the realigned estimate of A and on the
#: non-unitarity ||U^H U - I||_2 of its factor.  From the preparable states
#: the larger reads <= 1.8e-13 on the bench's partial-info inputs (d = 2..4,
#: seeds 0..2), 5.0e-14 at its census sizes d = 5, 6 and 2.9e-14 on criterion
#: 7; a d = 3 step dephased by p = 1e-6 reads 3.3e-7 and 6.7e-7.  The cut is
#: the geometric midpoint of 1.8e-13 and 3.3e-7 (2.4e-10), rounded down.
CLOSED_SYSTEM_RTOL = 1e-10


class UnobservableError(RuntimeError):
    """The (C, A) pair is not observable; the Hamiltonian is not unique."""


def sampled_propagator(h: np.ndarray) -> tuple[np.ndarray, float]:
    """(U, Delta): the propagator U = exp(-i H Delta) at the sampling period
    Delta = 1/||H - tr(H)/d I||_2 of the populations, from one eigendecomposition of H.

    The period is that of the traceless part: H and H + c*I generate the
    same dynamics, and an energy offset must not shrink the period (powers
    of A close to the identity bring back the rank artifacts of the
    powers of the generator).  With it the eigenphases of U spread over at
    most 2 < pi and determine H.  A zero traceless part has no time scale;
    its norm, the largest |lambda_j - mean lambda|, is floored at ABS_FLOOR.
    """
    w, v = np.linalg.eigh(hermitize(h))
    period = 1 / max(np.max(np.abs(w - w.mean())), ABS_FLOOR)
    return (v * np.exp(-1j * w * period)) @ v.conj().T, period


# ---------------------------------------------------------------------------
# sampled outputs and Hamiltonian reconstruction
# ---------------------------------------------------------------------------

def output_stacks(u: np.ndarray, lambda0: np.ndarray) -> np.ndarray:
    """Sampled outputs ys[k] = C A^k Lambda0 for k = 0..d^2 (``reconstruct_hamiltonian``'s input).

    Column i of ys[k], shape (d, d^2), holds the populations at t = k*Delta
    of the run started in column i of Lambda0, when (u, Delta) = ``sampled_propagator(h)``.
    Row i of C A^k reads entry (i, i) of U^k X U^-k, so (C A^k)[i, b*d + a] = U^k[i, a]
    conj(U^k[i, b]) under column stacking, one d x d product per power; U^0 = I gives C.
    """
    d = u.shape[0]
    powers = np.empty((d * d + 1, d, d), dtype=complex)
    powers[0] = np.eye(d)
    for k in range(d * d):
        powers[k + 1] = powers[k] @ u
    markov = (powers.conj()[:, :, :, None] * powers[:, :, None, :]).reshape(-1, d, d * d)
    return markov @ np.asarray(lambda0, dtype=complex)


def observability_rank(h: np.ndarray) -> tuple[int, bool]:
    """Numerical rank of the observability stack [C; CA; ...; CA^(d^2-1)] and the full-rank flag.

    A has eigenvectors vec(v_a v_b^H), which C maps to v_a o conj(v_b), with eigenvalues that
    are equal only for equal gaps lambda_a - lambda_b (module docstring).  So the rank is the
    sum over runs of equal gaps (sorted, apart by at most DEFAULT_RTOL * max(spectral width,
    ABS_FLOOR)) of the rank of their images (Popov-Belevitch-Hautus).  Every run's singular
    values are cut against the largest of all runs, as the stack's are against its sigma_1.
    """
    w, v = np.linalg.eigh(hermitize(h))
    gaps = (w[:, None] - w[None, :]).ravel()
    order = np.argsort(gaps)
    cuts = np.flatnonzero(np.diff(gaps[order]) > DEFAULT_RTOL * max(w[-1] - w[0], ABS_FLOOR))
    images = (v[:, :, None] * v.conj()[:, None, :]).reshape(-1, v.size)[:, order]
    runs = np.split(images, cuts + 1, axis=1)
    s = np.concatenate([np.linalg.svd(run, compute_uv=False) for run in runs])
    rank = numerical_rank(np.sort(s)[::-1], DEFAULT_RTOL)
    return rank, rank == v.size


def _nodes_of_batch(lambda0: np.ndarray) -> int:
    """The one Lambda0 shape rule: d^2 x d^2 for d >= 1 nodes; returns d, else ValueError."""
    d = math.isqrt(lambda0.shape[0])
    if d < 1 or lambda0.shape != (d * d, d * d):
        raise ValueError(f"Lambda0 must be square with d^2 rows (columns = vectorized "
                         f"initial states), got shape {lambda0.shape}")
    return d


@one_blas_thread()
def reconstruct_hamiltonian(ys: np.ndarray, lambda0: np.ndarray, period: float) -> np.ndarray:
    """Recover the traceless Hamiltonian from populations sampled every ``period``.

    ``ys`` holds ys[k] = C A^k Lambda0, each of shape (d, d^2), for
    k = 0..d^2 (``output_stacks``).  Inverts Lambda0 to obtain the Markov
    parameters G_k = C A^k, stacks O = [G_0; ...; G_(d^2-1)] and its shift
    O' = [G_1; ...; G_(d^2)], and solves O A = O' with LAPACK's gelsd, whose
    singular values give rank(O).  Requires rank(O) = d^2, i.e. an
    observable pair; otherwise raises UnobservableError.

    Under column stacking A[p*d + i, q*d + j] = conj(U)[p, q] U[i, j], so
    the realigned R[(p, q), (i, j)] = A[p*d + i, q*d + j] is the rank-one
    vec(conj U) vec(U)^T, with sigma_1 = d.  Its dominant right singular
    vector, scaled by sqrt(sigma_1), is U up to a phase.  When R's
    sigma_2/sigma_1, or the factor's distance ||U^H U - I||_2 from a
    unitary, exceeds CLOSED_SYSTEM_RTOL, the input is not a closed-system
    evolution (ValueError).

    The eigenvalues mu of U, rotated by the angle of their sum, have
    angles theta.  The result, the Hermitian part of
    -(1/period) V diag(theta - mean theta) V^-1 with V the eigenvectors
    of U, is the unique traceless H whose eigenvalue spread is below
    pi/period; ``sampled_propagator`` guarantees a spread of at most 2
    in these units.  When max theta - min theta >= pi(1 - DEFAULT_RTOL) no such H
    exists (ValueError).  Holds one BLAS thread throughout (``one_blas_thread``).
    """
    lambda0 = np.asarray(lambda0, dtype=complex)
    d = _nodes_of_batch(lambda0)
    n = d * d
    check_positive("period", period)
    if len(ys) < n + 1:
        raise ValueError(f"{len(ys)} output samples are incomplete; need {n + 1}")
    ys = np.asarray(ys[: n + 1])
    if ys.shape[1:] != (d, n):
        raise ValueError(f"output samples of shape {ys.shape[1:]} do not match Lambda0 of "
                         f"shape {lambda0.shape}: each must be (d, d^2) = {(d, n)}")
    if numerical_rank(np.linalg.svd(lambda0, compute_uv=False), DEFAULT_RTOL) < n:
        raise ValueError("initial-state matrix is numerically singular; "
                         "states are not linearly independent")
    moments = ys @ np.linalg.inv(lambda0)
    a_hat, _, _, s = np.linalg.lstsq(moments[:n].reshape(-1, n), moments[1:].reshape(-1, n),
                                     rcond=DEFAULT_RTOL)
    rank = numerical_rank(s, DEFAULT_RTOL)
    if rank < n:
        raise UnobservableError(f"observability rank {rank} < {n}: pair not observable, "
                                "Hamiltonian not unique")

    _, s, vh = np.linalg.svd(a_hat.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(n, n))
    u_hat = np.sqrt(s[0]) * vh[0].reshape(d, d)
    ratio = np.max(s[1:], initial=0.0) / s[0]
    non_unitarity = spectral_norm(u_hat.conj().T @ u_hat - np.eye(d))
    if not max(ratio, non_unitarity) <= CLOSED_SYSTEM_RTOL:
        raise ValueError(f"input is not a closed-system evolution: the realigned propagator "
                         f"has sigma_2/sigma_1 {ratio:.3e} and non-unitarity "
                         f"{non_unitarity:.3e}, cut {CLOSED_SYSTEM_RTOL:.0e}")

    mu, v = np.linalg.eig(u_hat)
    theta = np.angle(mu * np.exp(-1j * np.angle(mu.sum())))
    spread = np.ptp(theta)
    if not spread < np.pi * (1 - DEFAULT_RTOL):
        raise ValueError(f"the eigenphases of the sampled propagator spread over {spread:.6g}"
                         " >= pi: the period is too long to determine the Hamiltonian")
    h_hat = (-1 / period) * (v * (theta - theta.mean())) @ np.linalg.inv(v)
    return 0.5 * (h_hat + h_hat.conj().T)


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
        raise ConfigError(f"indices ({k}, {j}) out of range 1..{d}")
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


@lru_cache(maxsize=None)
def physical_initial_batch(d: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, str], ...]]:
    """A batch of d^2 linearly independent *preparable* states.

    Returns (Lambda0, states): the projectors |k><k| for every node, then
    the |+> and |+y> superposition projectors for every pair k < j -
    exactly the states the basis-element decomposition is built from.
    Columns of Lambda0 are the vectorized states, Lambda0 is invertible.
    Cached per d, so a process that sees a d again builds nothing: the
    arrays are read-only and ``states`` a tuple, as every caller shares them.
    """
    states = []
    for k in range(1, d + 1):
        (rho, _), = physical_decomposition(d, k, k)
        states.append((rho, f"node_{k}"))
    for k in range(1, d + 1):
        for j in range(k + 1, d + 1):
            terms = physical_decomposition(d, k, j)
            states.append((terms[0][0], f"plus_{k}_{j}"))
            states.append((terms[1][0], f"plus_y_{k}_{j}"))
    lambda0 = np.array([vec(rho) for rho, _ in states]).T
    for a in [lambda0] + [rho for rho, _ in states]:
        a.flags.writeable = False
    return lambda0, tuple(states)


# ---------------------------------------------------------------------------
# measured-output batch files: one CSV per initialization + manifest
# ---------------------------------------------------------------------------

def _output_columns(d: int) -> list[str]:
    """The header fields of an output CSV of a d-node network."""
    return ["t"] + [f"y_{i}" for i in range(1, d + 1)]


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
    files, labels = {}, {}
    for idx, (label, times, ys) in enumerate(runs, start=1):
        ys = np.asarray(ys)
        files[str(idx)], labels[str(idx)] = f"output_{idx:03d}.csv", label
        np.savetxt(out_dir / files[str(idx)], np.column_stack([times, ys]), fmt="%.17g",
                   delimiter=",", header=",".join(_output_columns(ys.shape[1])), comments="")
    save_json(out_dir / "manifest.json",
              {"outputs": files, "labels": labels, "lambda0": matrix_to_json(lambda0)})
    return out_dir / "manifest.json"


def read_output_batch(manifest_path) -> tuple[np.ndarray, list[tuple[str, np.ndarray, np.ndarray]]]:
    """Load a batch written by :func:`write_output_batch`; a manifest that
    does not parse, lacks a key, or whose ``outputs`` is not an object of file
    names keyed by run numbers or ``labels`` not an object, is a ConfigError
    that names it.  A batch of another experiment (a Lambda0 not d^2 x d^2, or
    not runs 1..d^2, one per column of it, on one time grid that starts at 0 and is uniform
    to ``GRID_RTOL``, ``dynamics._check_grid``) is a ValueError naming the manifest.
    Each run's CSV is read as strictly as a trajectory (``dynamics._read_rows``):
    its header is ``t,y_1,...,y_d`` with d^2 runs, and its entries are finite.
    """
    manifest_path = Path(manifest_path)
    manifest = load_json(manifest_path)
    with naming(manifest_path):
        try:
            lambda0, outputs = matrix_from_json(manifest["lambda0"]), manifest["outputs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"not a batch manifest: {exc!r}")
        labels = manifest.get("labels", {})
        if not (isinstance(outputs, dict) and isinstance(labels, dict)
                and all(k.isdecimal() and isinstance(v, str) for k, v in outputs.items())):
            raise ConfigError("not a batch manifest: 'outputs' must be an object of file names "
                              "keyed by run numbers, 'labels' an object")
        d = _nodes_of_batch(lambda0)
        if set(outputs) != {str(k) for k in range(1, d * d + 1)}:
            raise ValueError(f"{len(outputs)} runs, but Lambda0 has shape {lambda0.shape}; a batch "
                             f"has runs 1..{d * d}, one per column, not {', '.join(outputs)}")
    runs = []
    for idx in sorted(outputs, key=int):
        name = outputs[idx]
        label = labels.get(idx, name)
        rows = _read_rows(manifest_path.parent / name, lambda n: _output_columns(d))
        runs.append((label, rows[:, 0], rows[:, 1:]))
    first, grid, _ = runs[0]
    with naming(manifest_path):
        with naming(f"run {first!r}"):
            _check_grid(grid)
        slack = GRID_RTOL * (grid[-1] - grid[0]) / (len(grid) - 1)
        if abs(grid[0]) > slack:
            raise ValueError(f"the time grid starts at {float(grid[0])!r}, not 0")
        for label, times, _ in runs:
            if times.shape != grid.shape or not np.all(np.abs(times - grid) <= slack):
                raise ValueError(f"run {label!r} is not sampled on the time grid of run {first!r}")
    return lambda0, runs
