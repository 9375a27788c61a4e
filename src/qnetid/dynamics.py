"""Closed-system network dynamics in the density-operator picture.

The state rho obeys d/dt rho = -(i/hbar) [H, rho] and is propagated
exactly through the eigendecomposition of the (time-independent)
Hermitian H: one decomposition per trajectory, unitary conjugation per
sample.  The module also builds the vectorized generator
L = -(i/hbar) (I kron H - H^T kron I) and its propagator e^(L t),
samples uniform-grid trajectories, and writes the time integral of rho
in closed form: exactly, as an oracle for quadrature-based estimates, and
as the composite trapezoid sum that a sampled trajectory would give.
Both weigh each eigenmode by a sinc, accurate to round-off at every
frequency, zero and its aliases included.  Trajectory CSVs are written
by ``np.savetxt`` and read by ``np.loadtxt``, one call each.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import ABS_FLOOR, HERMITIAN_RTOL, hermitize

#: tolerated negative eigenvalue on density operators (round-off slack)
PSD_TOL = 1e-10
#: tolerated trace deviation on density operators
TRACE_TOL = 1e-10
#: samples per batched matmul in ``sample_trajectory``; one batch over
#: all samples is slower at d = 30 because its temporaries leave the cache
SAMPLE_BLOCK = 16
#: relative spread of the sampling steps tolerated in a trajectory
GRID_RTOL = 1e-9


def check_density(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate Hermiticity, positive semidefiniteness and unit trace.

    Returns the symmetrized matrix; raises ValueError describing the
    violated property otherwise.
    """
    rho = hermitize(np.asarray(rho, dtype=complex))
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} has trace {tr!r}, expected 1")
    wmin = float(np.linalg.eigvalsh(rho)[0])
    if wmin < -PSD_TOL:
        raise ValueError(f"{name} is not positive semidefinite (min eig {wmin:.3e})")
    return rho


def _check_grid(times: np.ndarray) -> None:
    """Raise ValueError unless ``times`` is a uniform sampling grid.

    That is at least two times, strictly increasing, every step within
    ``GRID_RTOL`` relative of the mean step.
    """
    if len(times) < 2:
        raise ValueError("a trajectory needs at least two samples")
    steps = np.diff(times)
    if not np.all(steps > 0):
        raise ValueError("trajectory times are not strictly increasing")
    step = (times[-1] - times[0]) / len(steps)
    if np.max(np.abs(steps - step)) > GRID_RTOL * step:
        raise ValueError(
            f"trajectory times are not uniform to {GRID_RTOL:g} relative "
            f"(steps {steps.min():.17g} to {steps.max():.17g})"
        )


def sample_times(tau: float, dt: float) -> np.ndarray:
    """The sampling grid t_k = k*dt, k = 0..n, with t_n = tau exactly.

    This is the one rule for which (tau, dt) pairs are accepted: n is
    tau/dt rounded, and it must be positive with |tau - n*dt| at most
    ``GRID_RTOL * dt`` (the last step's deviation from dt).  The grid is
    then checked as ``Trajectory`` checks it, so every accepted pair
    yields a valid trajectory.  Raises ValueError otherwise.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(round(tau / dt))
    if n < 1 or abs(tau - n * dt) > GRID_RTOL * dt:
        raise ValueError(f"tau/dt = {tau / dt!r} is not a positive integer")
    times = np.arange(n + 1) * dt
    times[-1] = tau  # kill accumulated grid round-off at the endpoint
    _check_grid(times)
    return times


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled density-operator trajectory.

    times[k] = times[0] + k * dt (times[0] = 0 for simulated
    trajectories); states[k] is the d x d density operator at times[k].
    ``tau`` is the window length times[-1] - times[0].  The trapezoid
    integral assumes this grid, so construction raises ValueError unless
    there are at least two times, strictly increasing and uniform to
    ``GRID_RTOL`` relative; they need not start at 0.
    """

    times: np.ndarray   # (n_s + 1,)
    states: np.ndarray  # (n_s + 1, d, d)

    def __post_init__(self) -> None:
        _check_grid(self.times)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def tau(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def n_samples(self) -> int:
        """Number of sampling intervals n_s (so len(times) == n_s + 1)."""
        return len(self.times) - 1


def liouvillian(h: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """Vectorized generator L = -(i/hbar) (I kron H - H^T kron I).

    Under column stacking, L @ vec(rho) = vec(-(i/hbar) [H, rho]).
    L is skew-Hermitian by construction.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    h = hermitize(h)
    d = h.shape[0]
    eye = np.eye(d)
    return (-1j / hbar) * (np.kron(eye, h) - np.kron(h.T, eye))


def unitary_conjugate(h: np.ndarray, x: np.ndarray, t: float, hbar: float = 1.0) -> np.ndarray:
    """Evolve an arbitrary matrix X by U X U† with U = exp(-i H t / hbar).

    This is the linear extension of the state propagation to matrices
    that need not be valid density operators (used e.g. to evolve the
    terms of a basis-element decomposition); no state validation is done.
    """
    w, v = np.linalg.eigh(hermitize(h))
    phase = np.exp(-1j * w * (t / hbar))
    xt = v.conj().T @ np.asarray(x, dtype=complex) @ v
    return v @ (np.outer(phase, phase.conj()) * xt) @ v.conj().T


def propagator(h: np.ndarray, t: float, hbar: float = 1.0) -> np.ndarray:
    """Vectorized propagator e^(L t) = conj(U) kron U, U = exp(-i H t / hbar).

    Under column stacking, propagator(h, t) @ vec(X) = vec(U X U†), the
    matrix form of ``unitary_conjugate``; U comes from one
    eigendecomposition of H.
    """
    w, v = np.linalg.eigh(hermitize(h))
    u = (v * np.exp(-1j * w * (t / hbar))) @ v.conj().T
    return np.kron(u.conj(), u)


def propagate(h: np.ndarray, rho0: np.ndarray, t: float, hbar: float = 1.0) -> np.ndarray:
    """Propagate a density operator: rho_t = U rho_0 U†.

    Exact for time-independent H (no step-size error); preserves trace,
    Hermiticity and the spectrum of rho_0.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    rho0 = check_density(rho0, "rho0")
    rho_t = unitary_conjugate(h, rho0, t, hbar)
    return 0.5 * (rho_t + rho_t.conj().T)


def _eigenbasis(h: np.ndarray, rho0: np.ndarray):
    """The checked rho0, the eigenvalues w and eigenvectors V of H, and
    rho0 in that eigenbasis, V-dagger rho0 V; raises ValueError on an
    invalid rho0 or one whose shape does not match H."""
    rho0 = check_density(rho0, "rho0")
    h = hermitize(h)
    d = h.shape[0]
    if rho0.shape != (d, d):
        raise ValueError(f"rho0 shape {rho0.shape} does not match H dimension {d}")
    w, v = np.linalg.eigh(h)
    return rho0, w, v, v.conj().T @ rho0 @ v


def check_subsample(n_s: int, subsample: int) -> None:
    """Raise ValueError unless ``subsample`` is a positive divisor of the
    number of sampling intervals ``n_s``."""
    if subsample < 1:
        raise ValueError("subsample must be a positive integer")
    if n_s % subsample != 0:
        raise ValueError(f"subsample {subsample} does not divide n_s = {n_s}")


def sample_trajectory(
    h: np.ndarray, rho0: np.ndarray, tau: float, dt: float, hbar: float = 1.0
) -> Trajectory:
    """Sample rho_t on the uniform grid t_k = k*dt, k = 0..tau/dt.

    tau/dt must be an integer by the rule of ``sample_times``; a single
    eigendecomposition of H is reused for every sample.  The samples are
    propagated in blocks of ``SAMPLE_BLOCK`` as batched matmuls; every
    entry goes through the same floating-point operations as a per-sample
    propagation, so the states are bit-identical to it (the blocks only
    keep the batch temporaries in cache).
    """
    times = sample_times(tau, dt)
    rho0, w, v, rho_eig = _eigenbasis(h, rho0)
    vh = v.conj().T
    d = len(w)
    # every sample, the last too, is propagated to k*dt: it differs from
    # times[-1] = tau only within the grid tolerance
    k_dt = np.arange(len(times)) * dt
    phase = np.exp(-1j * w[None, :] * (k_dt[:, None] / hbar))
    states = np.empty((len(times), d, d), dtype=complex)
    states[0] = rho0  # the t = 0 propagator is the identity, exactly
    for start in range(1, len(times), SAMPLE_BLOCK):
        p = phase[start:start + SAMPLE_BLOCK]
        st = v @ ((p[:, :, None] * p.conj()[:, None, :]) * rho_eig) @ vh
        states[start:start + SAMPLE_BLOCK] = 0.5 * (st + st.conj().transpose(0, 2, 1))
    return Trajectory(times=times, states=states)


def _mode_factors(omega: np.ndarray, tau: float, step=None) -> np.ndarray:
    """Weight of each eigenmode exp(-i omega t) in the integral of rho_t.

    Without ``step`` this is the integral over [0, tau],
    (exp(-i omega tau) - 1)/(-i omega) = tau sinc(omega tau/2) exp(-i omega tau/2)
    with sinc(x) = sin(x)/x.  With a step h = tau/N (a scalar, or an array
    broadcasting against ``omega``), it is the composite trapezoid sum on
    the grid t_m = m*h, m = 0..N: a geometric series that, with
    x = omega h/2, sums to tau cos(x) sinc(N x)/sinc(x) exp(-i N x).  That
    sum is periodic in x with period pi, so x is first reduced to
    [-pi/2, pi/2], where sinc(x) >= 2/pi.  Neither form subtracts nearly
    equal numbers, so both stay accurate to round-off through omega = 0
    and, for the trapezoid, through every alias 2 pi m/h of zero.
    """
    if step is None:
        return tau * np.sinc(omega * tau / (2 * np.pi)) * np.exp(-0.5j * omega * tau)
    n = np.round(tau / step)
    x = 0.5 * step * omega
    x = x - np.pi * np.round(x / np.pi)
    return tau * np.cos(x) * np.sinc(n * x / np.pi) / np.sinc(x / np.pi) * np.exp(-1j * n * x)


def exact_gram(h: np.ndarray, rho0: np.ndarray, tau: float, hbar: float = 1.0) -> np.ndarray:
    """Closed form of the time integral of rho_t over [0, tau].

    In the eigenbasis of H the integrand factorizes mode by mode:
    entry (j, k) integrates to rho~_jk * (exp(-i w_jk tau) - 1)/(-i w_jk)
    with w_jk = (lambda_j - lambda_k)/hbar, and to rho~_jk * tau on the
    degenerate frequencies.  Serves as the quadrature-free oracle for
    trapezoid-based estimates.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    _, w, v, rho_eig = _eigenbasis(h, rho0)
    p = v @ (rho_eig * _mode_factors((w[:, None] - w[None, :]) / hbar, tau)) @ v.conj().T
    return 0.5 * (p + p.conj().T)


def trapezoid_grams(
    h: np.ndarray,
    rho0: np.ndarray,
    tau: float,
    dt: float,
    subsamples: Sequence[int],
    hbar: float = 1.0,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The endpoint state and the trapezoid integrals of a trajectory,
    without sampling it.

    Returns rho_t at t = n*dt, the last sample of ``sample_trajectory(h,
    rho0, tau, dt, hbar)``, and for each divisor s of ``subsamples`` the
    composite trapezoid integral that ``build_P_trapezoid`` takes of that
    trajectory at subsample s: the sum on n/s panels of step s*dt, as
    V (rho~ * T) V-dagger with the closed-form weights of ``_mode_factors``.
    One eigendecomposition of H serves every divisor; the cost is O(d^3)
    per divisor instead of O(n d^3).  Raises ValueError as
    ``sample_trajectory`` and ``build_P_trapezoid`` would.
    """
    n = len(sample_times(tau, dt)) - 1
    for subsample in subsamples:
        check_subsample(n, subsample)
    _, w, v, rho_eig = _eigenbasis(h, rho0)
    vh = v.conj().T
    phase = np.exp(-1j * w * (n * dt / hbar))
    rho_end = v @ (np.outer(phase, phase.conj()) * rho_eig) @ vh
    steps = np.array([tau / (n // s) for s in subsamples])[:, None, None]
    p = v @ (rho_eig * _mode_factors((w[:, None] - w[None, :]) / hbar, tau, steps)) @ vh
    p = 0.5 * (p + p.conj().transpose(0, 2, 1))
    return 0.5 * (rho_end + rho_end.conj().T), list(p)


# ---------------------------------------------------------------------------
# trajectory CSV: header t, re_1_1, im_1_1, re_2_1, im_2_1, ... in
# column-major (i, j) order; one row per sample; 17 significant digits
# ---------------------------------------------------------------------------

def write_trajectory_csv(traj: Trajectory, path) -> None:
    d = traj.dim
    header = ",".join(["t"] + [f"{part}_{i}_{j}" for j in range(1, d + 1)
                               for i in range(1, d + 1) for part in ("re", "im")])
    # entry (i, j) of state k is flat[k, j, i]; the float view of a row
    # interleaves the real and imaginary parts of its entries
    flat = np.ascontiguousarray(traj.states.transpose(0, 2, 1), dtype=complex)
    rows = np.column_stack([traj.times, flat.reshape(len(traj.times), -1).view(float)])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def _bad_data_row(lines, width: int) -> str:
    """The first non-blank line of ``lines`` that is not ``width`` numbers,
    numbered as ``np.loadtxt`` numbers the data rows."""
    for k, line in enumerate(filter(None, (ln.rstrip("\r\n") for ln in lines)), start=1):
        try:
            numbers = [float(f) for f in line.split(",")]
        except ValueError:
            numbers = []
        if len(numbers) != width:
            return f"data row {k} is {line!r}, not {width} comma-separated numbers"
    return "a data row is not a list of numbers"


def read_trajectory_csv(path) -> Trajectory:
    """Parse a trajectory CSV; raises ValueError on malformed input.

    The data rows are read by ``np.loadtxt``: blank lines are skipped,
    and a ragged row, a non-numeric field or a ``#`` line is an error
    that names the file and the first such row.
    Every entry must be finite.  The times are checked by ``Trajectory``:
    at least two, strictly increasing and uniform to ``GRID_RTOL``
    relative.  Every state must have trace 1 to ``TRACE_TOL`` and
    relative Hermitian asymmetry (in the Frobenius norm) at most
    ``HERMITIAN_RTOL``; all rows are checked at once, without an
    eigendecomposition per sample.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "t" or (len(header) - 1) % 2 != 0:
            raise ValueError("malformed trajectory CSV header")
        d = int(round(np.sqrt((len(header) - 1) / 2)))
        if 2 * d * d + 1 != len(header):
            raise ValueError("trajectory CSV header does not describe a square matrix")
        with warnings.catch_warnings():
            # numpy warns on a header without data rows; Trajectory then
            # rejects it for having fewer than two samples
            warnings.simplefilter("ignore", UserWarning)
            try:
                rows = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            except ValueError:
                fh.seek(0)
                fh.readline()
                raise ValueError(f"{path}: {_bad_data_row(fh, len(header))}") from None
    if rows.size and rows.shape[1] != len(header):
        raise ValueError(f"{path}: trajectory CSV row length mismatch")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"trajectory CSV data row {k + 1} (t = {float(rows[k, 0])!r}) "
                         "has a NaN or infinite entry")
    times = np.ascontiguousarray(rows[:, 0])
    flat = rows[:, 1::2] + 1j * rows[:, 2::2]
    states = np.ascontiguousarray(flat.reshape(-1, d, d).transpose(0, 2, 1))
    traj = Trajectory(times=times, states=states)
    traces = np.trace(traj.states, axis1=1, axis2=2)
    off_trace = np.abs(traces - 1.0) > TRACE_TOL
    if off_trace.any():
        k = int(np.argmax(off_trace))
        raise ValueError(f"state at t = {float(times[k])!r} has trace "
                         f"{complex(traces[k])}, expected 1")
    asym = np.linalg.norm(traj.states - traj.states.conj().transpose(0, 2, 1), axis=(1, 2))
    rel_asym = asym / np.maximum(np.linalg.norm(traj.states, axis=(1, 2)), ABS_FLOOR)
    if np.any(rel_asym > HERMITIAN_RTOL):
        k = int(np.argmax(rel_asym))
        raise ValueError(
            f"state at t = {float(times[k])!r} is not Hermitian: relative asymmetry "
            f"{rel_asym[k]:.3e} exceeds {HERMITIAN_RTOL:.1e}"
        )
    return traj
