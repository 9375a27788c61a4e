"""Identification from diagonal-only measurements.

When only the populations (diagonal of rho_t) are observable, the
vectorized dynamics pair (C, L): output selector C and generator L -
is identifiable exactly when the observability matrix
[C; CL; ...; CL^(d^2-1)] has full column rank.  The constructive route
implemented here estimates output derivatives at t = 0 for a batch of
d^2 linearly independent initializations, converts them to the moment
matrices C L^k, and recovers L by one shifted least-squares solve; the
network Hamiltonian then follows from L up to the identity gauge.

Basis elements |k><j| with k != j are not valid states; they are mapped
onto four preparable states by an exact decomposition, and the linearity
of the dynamics recombines the measured runs.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import Trajectory, check_density, sample_trajectory, unitary_conjugate
from .linalg import (
    ABS_FLOOR,
    DEFAULT_RTOL,
    EPS,
    hermitize,
    matrix_from_json,
    matrix_to_json,
    numerical_rank,
    spectral_norm,
    unvec,
    vec,
)

#: relative residual above which an input is rejected as not generated by
#: any closed-system Hamiltonian
GENERATOR_RESIDUAL_RTOL = 1e-6
#: maximum tolerated relative non-skewness of a candidate generator
SKEW_INPUT_RTOL = 1e-6
#: finite-difference noise amplification eps/step^K above this emits a warning
FD_NOISE_WARN = 1e-9


class UnobservableError(RuntimeError):
    """The (C, L) pair is not observable; the generator is not unique."""


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


def observability_stack(c: np.ndarray, liouv: np.ndarray) -> np.ndarray:
    """Stack [C; CL; ...; CL^(n-1)] with n = d^2 block rows."""
    n = liouv.shape[0]
    if c.shape[1] != n:
        raise ValueError(f"selector width {c.shape[1]} does not match generator size {n}")
    blocks = [np.asarray(c, dtype=complex)]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ liouv)
    return np.vstack(blocks)


def observability_rank(
    c: np.ndarray, liouv: np.ndarray, rtol: float = DEFAULT_RTOL
) -> tuple[int, bool]:
    """Numerical rank of the observability stack and the full-rank flag."""
    stack = observability_stack(c, liouv)
    rank = numerical_rank(np.linalg.svd(stack, compute_uv=False), rtol)
    return rank, rank == liouv.shape[0]


# ---------------------------------------------------------------------------
# derivative stacks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeStacks:
    """Output derivatives at t = 0 for a batch of initializations.

    ys[k] = C L^k Lambda0, shape (d, d^2): the k-th time derivative of
    the stacked outputs at t = 0, exact or estimated.
    """

    order: int
    ys: np.ndarray  # (order + 1, d, d^2)


def exact_derivative_stacks(liouv: np.ndarray, lambda0: np.ndarray, order: int) -> DerivativeStacks:
    """Y_k = C L^k Lambda0 by repeated multiplication (exact-data oracle)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    n = liouv.shape[0]
    d = math.isqrt(n)
    if d * d != n:
        raise ValueError(f"generator size {n} is not a perfect square")
    c = diagonal_selector(d)
    ys = np.empty((order + 1, d, n), dtype=complex)
    z = np.asarray(lambda0, dtype=complex)
    for k in range(order + 1):
        ys[k] = c @ z
        if k < order:
            z = liouv @ z
    return DerivativeStacks(order=order, ys=ys)


def _fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights on unit-spaced offsets for one derivative.

    Fornberg's recursion evaluated at 0; multiply by step**-order for a
    physical grid of spacing ``step``.
    """
    x = np.asarray(offsets, dtype=float)
    n = len(x) - 1
    c = np.zeros((n + 1, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, n + 1):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def estimate_derivative_stacks(outputs: np.ndarray, order: int, step: float) -> DerivativeStacks:
    """Estimate Y_k from outputs sampled on a symmetric grid around t = 0.

    ``outputs`` has shape (2N+1, d, n_states): the stacked outputs
    C Lambda(t) at t = m*step for m = -N..N (closed dynamics are
    time-reversible, so negative-time samples are well defined and keep
    the stencils central).  Each derivative uses the minimal central
    stencil at spacings step and 2*step combined by one Richardson step,
    so the truncation error is O(step^4) while round-off grows like
    step**-k; high orders are genuinely ill-conditioned and trigger a
    warning.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if step <= 0:
        raise ValueError("step must be positive")
    outputs = np.asarray(outputs)
    if outputs.ndim != 3 or outputs.shape[0] % 2 == 0:
        raise ValueError("outputs must have shape (2N+1, d, n_states)")
    n_half = (outputs.shape[0] - 1) // 2
    need = 2 * ((order + 1) // 2)
    if n_half < need:
        raise ValueError(
            f"derivative order {order} needs samples out to +-{need}*step, "
            f"got +-{n_half}"
        )
    if order >= 1 and EPS / step**order > FD_NOISE_WARN:
        warnings.warn(
            f"finite differences of order {order} at step {step:g} amplify "
            f"round-off by ~{EPS / step**order:.1e}; treat the stacks as "
            "ill-conditioned",
            stacklevel=2,
        )
    ys = np.empty((order + 1,) + outputs.shape[1:], dtype=complex)
    ys[0] = outputs[n_half]
    for k in range(1, order + 1):
        half = (k + 1) // 2
        offs = np.arange(-half, half + 1)
        w = _fd_weights(offs, k)
        d_h = np.tensordot(w, outputs[n_half + offs], axes=(0, 0)) / step**k
        d_2h = np.tensordot(w, outputs[n_half + 2 * offs], axes=(0, 0)) / (2 * step) ** k
        ys[k] = (4.0 * d_h - d_2h) / 3.0
    return DerivativeStacks(order=order, ys=ys)


# ---------------------------------------------------------------------------
# generator reconstruction and Hamiltonian extraction
# ---------------------------------------------------------------------------

def reconstruct_liouvillian(
    stacks: DerivativeStacks, lambda0: np.ndarray, rtol: float = DEFAULT_RTOL
) -> np.ndarray:
    """Recover the generator L from derivative stacks of order d^2.

    Inverts Lambda0 to obtain the moments G_k = C L^k, stacks
    O = [G_0; ...; G_(d^2-1)] and its shift O' = [G_1; ...; G_(d^2)],
    and solves O L = O' in least squares.  Requires rank(O) = d^2, i.e.
    an observable pair; otherwise raises UnobservableError.
    """
    lambda0 = np.asarray(lambda0, dtype=complex)
    n = lambda0.shape[0]
    if lambda0.shape != (n, n):
        raise ValueError("Lambda0 must be square (columns = vectorized initial states)")
    if stacks.order < n:
        raise ValueError(f"stacks of order {stacks.order} are incomplete; need order {n}")
    if numerical_rank(np.linalg.svd(lambda0, compute_uv=False), rtol) < n:
        raise ValueError("initial-state matrix is numerically singular; "
                         "states are not linearly independent")
    inv0 = np.linalg.inv(lambda0)
    moments = np.asarray([ys @ inv0 for ys in stacks.ys[: n + 1]])
    obs = np.concatenate(moments[:n], axis=0)
    shifted = np.concatenate(moments[1 : n + 1], axis=0)
    rank = numerical_rank(np.linalg.svd(obs, compute_uv=False), rtol)
    if rank < n:
        raise UnobservableError(
            f"observability rank {rank} < {n}: pair not observable, "
            "generator not unique"
        )
    l_hat, *_ = np.linalg.lstsq(obs, shifted, rcond=None)
    return l_hat


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
    rejected as not being closed-system generators; loosen residual_rtol
    when L itself is a finite-difference estimate rather than exact.
    """
    l_hat = np.asarray(l_hat, dtype=complex)
    n = l_hat.shape[0]
    d = math.isqrt(n)
    if l_hat.shape != (n, n) or d * d != n:
        raise ValueError(f"generator shape {l_hat.shape} is not (d^2, d^2)")
    scale = spectral_norm(l_hat)
    skew = spectral_norm(l_hat + l_hat.conj().T)
    if skew > max(SKEW_INPUT_RTOL, residual_rtol) * max(scale, ABS_FLOOR):
        raise ValueError("input generator is not skew-Hermitian")

    l4 = l_hat.reshape(d, d, d, d)  # l4[p, i, q, j] = L[p*d + i, q*d + j]
    h_hat = (1j * hbar / (2 * d)) * (np.einsum("kikj->ij", l4) - np.einsum("pkqk->qp", l4))
    h_hat -= (np.trace(h_hat) / d) * np.eye(d)
    h_hat = 0.5 * (h_hat + h_hat.conj().T)

    from .dynamics import liouvillian  # deferred: dynamics imports linalg only

    residual = spectral_norm(liouvillian(h_hat, hbar) - l_hat)
    if residual > residual_rtol * max(scale, ABS_FLOOR):
        raise ValueError(
            f"input is not a closed-system generator: residual {residual:.3e} "
            f"exceeds {residual_rtol:.0e} * ||L||"
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


def sample_output_stacks(
    h: np.ndarray, lambda0: np.ndarray, n_half: int, step: float, hbar: float = 1.0
) -> np.ndarray:
    """Outputs C Lambda(t) on the symmetric grid t = m*step, m = -N..N.

    Every column of Lambda0 (a vectorized, not necessarily physical,
    matrix) is evolved by unitary conjugation; the result feeds
    :func:`estimate_derivative_stacks`.
    """
    h = hermitize(h)
    d = h.shape[0]
    if lambda0.shape[0] != d * d:
        raise ValueError("Lambda0 row count must be d^2")
    c = diagonal_selector(d)
    mats = [unvec(lambda0[:, i], d, d) for i in range(lambda0.shape[1])]
    out = np.empty((2 * n_half + 1, d, lambda0.shape[1]), dtype=complex)
    for m in range(-n_half, n_half + 1):
        cols = [vec(unitary_conjugate(h, x, m * step, hbar)) for x in mats]
        out[m + n_half] = c @ np.array(cols).T
    return out


# ---------------------------------------------------------------------------
# measured-output batch files: one CSV per initialization + manifest
# ---------------------------------------------------------------------------

def simulate_diagonal_outputs(
    h: np.ndarray, rho0: np.ndarray, tau: float, dt: float, hbar: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the populations y(t) = diag(rho_t) of one physical run."""
    rho0 = check_density(rho0)
    traj: Trajectory = sample_trajectory(h, rho0, tau, dt, hbar)
    ys = np.einsum("kii->ki", traj.states).real
    return traj.times, ys


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
        with open(out_dir / name, "w", newline="") as fh:
            fh.write("t," + ",".join(f"y_{i + 1}" for i in range(ys.shape[1])) + "\n")
            for t, row in zip(times, ys):
                fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
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
