"""Closed-system network dynamics in the density-operator picture.

The state rho obeys d/dt rho = -i [H, rho] (hbar = 1) and is propagated
exactly through the eigendecomposition of the (time-independent)
Hermitian H: one decomposition per trajectory, unitary conjugation per
sample.  The module also builds the d x d propagator U = e^(-iHt),
samples uniform-grid trajectories, and writes the time integral of rho
in closed form: exactly, as an oracle for quadrature-based estimates, and
as the composite trapezoid sum that a sampled trajectory would give.
Both weigh each eigenmode by a sinc, accurate to round-off at every
frequency, zero and its aliases included.  Trajectory CSVs are written
by ``np.savetxt`` and read by ``np.loadtxt``, one call each, under a
header checked field by field.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import ConfigError, check_positive, hermitize, is_finite, is_integer, naming

#: tolerated negative eigenvalue on density operators (round-off slack)
PSD_TOL = 1e-10
#: tolerated trace deviation on density operators
TRACE_TOL = 1e-10
#: samples per batched matmul in ``sample_trajectory``; one batch over
#: all samples is slower at d = 30 because its temporaries leave the cache
SAMPLE_BLOCK = 16
#: relative spread of the sampling steps tolerated in a trajectory
GRID_RTOL = 1e-9
#: times per block of ``grid_intervals``'s check of a grid it does not hold
GRID_BLOCK = 2**16


def _unit_trace(rho: np.ndarray, name: str) -> np.ndarray:
    """``hermitize(rho)``; ValueError names the first trace off 1 by over ``TRACE_TOL``."""
    rho = hermitize(rho)
    for tr in np.trace(rho, axis1=-2, axis2=-1).real.reshape(-1).tolist():
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"{name} has trace {tr!r}, expected 1")
    return rho


def check_density(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate Hermiticity, unit trace (``_unit_trace``) and positive
    semidefiniteness of the matrices on the last two axes; return them
    symmetrized, or raise ValueError naming the violated property of the
    first offending one."""
    rho = _unit_trace(rho, name)
    for wmin in np.linalg.eigvalsh(rho)[..., 0].reshape(-1).tolist():
        if wmin < -PSD_TOL:
            raise ValueError(f"{name} is not positive semidefinite (min eig {wmin:.3e})")
    return rho


def _check_steps(low, high, span, count: int) -> None:
    """Raise ValueError unless ``count`` steps from ``low`` to ``high``, in
    all ``span``, are those of a uniform sampling grid: strictly increasing
    times, every step within ``GRID_RTOL`` relative of the mean step.  The
    extremes decide: rounding is monotone, so no step deviates from the
    mean by more (as rounded) than the smallest or the largest does."""
    if not low > 0:
        raise ValueError("trajectory times are not strictly increasing")
    step = span / count
    if np.max(np.abs(np.array([low, high]) - step)) > GRID_RTOL * step:
        raise ValueError(
            f"trajectory times are not uniform to {GRID_RTOL:g} relative "
            f"(steps {low:.17g} to {high:.17g})"
        )


def _check_grid(times: np.ndarray) -> None:
    """Raise ValueError unless ``times``, at least two, are a uniform
    sampling grid (``_check_steps``)."""
    if len(times) < 2:
        raise ValueError("a trajectory needs at least two samples")
    steps = np.diff(times)
    _check_steps(steps.min(), steps.max(), times[-1] - times[0], len(steps))


def grid_intervals(tau: float, dt: float) -> int:
    """The number n of steps of the sampling grid t_k = k*dt, k = 0..n,
    with t_n = tau exactly (``sample_times``).

    This is the one rule for which (tau, dt) pairs are accepted: both are
    positive and finite, and n, tau/dt rounded, is positive with |tau - n*dt|
    at most ``GRID_RTOL * dt`` (the last step's deviation from dt).  The grid
    is then checked as ``Trajectory`` checks it, so every accepted pair
    yields a valid trajectory.  When dt = m 2^e, m odd, with n m < 2^53,
    every k*dt is exact, so every step is dt but the last, tau - (n-1)*dt,
    and those two are checked.  Otherwise the check takes the grid's times
    a block of ``GRID_BLOCK`` at a time, each computed as in the whole grid,
    so it holds O(``GRID_BLOCK``) memory and still reads the extreme steps
    of the whole grid.  Raises ConfigError otherwise.
    """
    check_positive("tau", tau)
    check_positive("dt", dt)
    tau, dt = float(tau), float(dt)
    ratio = tau / dt  # Python floats overflow to inf without a warning
    n = round(ratio) if np.isfinite(ratio) else 0
    if n < 1 or abs(tau - n * dt) > GRID_RTOL * dt:
        raise ConfigError(f"tau/dt = {tau!r}/{dt!r} is not a positive integer")
    numerator = dt.as_integer_ratio()[0]
    if n * (numerator // (numerator & -numerator)) < 2**53:
        last = tau - (n - 1) * dt
        low, high = (min(dt, last), max(dt, last)) if n > 1 else (last, last)
    else:
        low, high = np.inf, -np.inf
        for start in range(0, n, GRID_BLOCK):
            times = np.arange(start, min(start + GRID_BLOCK, n) + 1) * dt
            if start + GRID_BLOCK >= n:
                times[-1] = tau  # kill accumulated grid round-off at the endpoint
            steps = np.diff(times)
            low, high = min(low, steps.min()), max(high, steps.max())
    with naming(lambda: f"tau/dt = {tau!r}/{dt!r}", ConfigError):
        _check_steps(low, high, tau, n)  # t_0 = 0 * dt = 0
    return n


def sample_times(tau: float, dt: float) -> np.ndarray:
    """The sampling grid t_k = k*dt, k = 0..n, with t_n = tau exactly, of
    every (tau, dt) pair that ``grid_intervals`` accepts."""
    times = np.arange(grid_intervals(tau, dt) + 1) * dt
    times[-1] = tau
    return times


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled density-operator trajectory.

    times[k] = times[0] + k * dt (times[0] = 0 for simulated
    trajectories); states[k] is the d x d density operator at times[k].
    ``tau`` is the window length times[-1] - times[0].  The trapezoid
    integral assumes this grid, so construction raises ValueError unless
    there are at least two times, strictly increasing and uniform to
    ``GRID_RTOL`` relative (they need not start at 0), and one d x d state
    per time.
    """

    times: np.ndarray   # (n_s + 1,)
    states: np.ndarray  # (n_s + 1, d, d)

    def __post_init__(self) -> None:
        _check_grid(self.times)
        shape = np.shape(self.states)
        if len(shape) != 3 or shape[0] != len(self.times) or shape[1] != shape[2]:
            raise ValueError(f"states of shape {shape} are not one d x d matrix per "
                             f"time; there are {len(self.times)} times")

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


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """The d x d propagator U = exp(-i H t), from one eigendecomposition of H.

    The vectorized propagator, vec(rho) -> vec(U rho U-dagger), is
    conj(U) kron U under column stacking; it is never formed.  t must be
    finite (``is_finite``).
    """
    if not is_finite(t):
        raise ConfigError("t must be finite")
    w, v = np.linalg.eigh(hermitize(h))
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def propagate(h: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """Propagate a density operator: rho_t = U rho_0 U†.

    Exact for time-independent H (no step-size error); preserves trace,
    Hermiticity and the spectrum of rho_0.  t must be finite.
    """
    if not (is_finite(t) and t >= 0):
        raise ConfigError("t must be nonnegative and finite")
    rho0 = check_density(rho0, "rho0")
    u = propagator(h, t)
    return hermitize(u @ rho0 @ u.conj().T)


def _eigenbasis(h: np.ndarray, rho0: np.ndarray):
    """The checked rho0, the eigenvalues w and eigenvectors V of H, and
    rho0 in that eigenbasis, V-dagger rho0 V, per matrix of a stack; raises
    ValueError on an invalid rho0 or one whose shape is not H's."""
    rho0 = check_density(rho0, "rho0")
    h = hermitize(h)
    if rho0.shape != h.shape:
        raise ValueError(f"rho0 shape {rho0.shape} does not match H shape {h.shape}")
    w, v = np.linalg.eigh(h)
    return rho0, w, v, v.conj().swapaxes(-1, -2) @ rho0 @ v


def check_subsample(n_s: int, subsample: int) -> None:
    """Raise ConfigError unless ``subsample`` is a positive integer
    (``is_integer``) dividing the number of sampling intervals ``n_s``."""
    if not is_integer(subsample) or subsample < 1:
        raise ConfigError(f"subsample must be a positive integer, got {subsample!r}")
    if n_s % subsample != 0:
        raise ConfigError(f"subsample {subsample} does not divide n_s = {n_s}")


def sample_trajectory(h: np.ndarray, rho0: np.ndarray, tau: float, dt: float) -> Trajectory:
    """Sample rho_t on the uniform grid t_k = k*dt, k = 0..tau/dt.

    tau/dt must be an integer by the rule of ``grid_intervals``; a single
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
    phase = np.exp(-1j * w[None, :] * k_dt[:, None])
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


def exact_gram(h: np.ndarray, rho0: np.ndarray, tau: float) -> np.ndarray:
    """Closed form of the time integral of rho_t over [0, tau].

    In the eigenbasis of H the integrand factorizes mode by mode:
    entry (j, k) integrates to rho~_jk * (exp(-i w_jk tau) - 1)/(-i w_jk)
    with w_jk = lambda_j - lambda_k, and to rho~_jk * tau on the
    degenerate frequencies.  Serves as the quadrature-free oracle for
    trapezoid-based estimates.
    """
    check_positive("tau", tau)
    _, w, v, rho_eig = _eigenbasis(h, rho0)
    return hermitize(v @ (rho_eig * _mode_factors(w[:, None] - w[None, :], tau))
                     @ v.conj().T)


def trapezoid_grams(
    h: np.ndarray,
    rho0: np.ndarray,
    tau: float,
    dt: float,
    subsamples: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """The endpoint state and the trapezoid integrals of a trajectory,
    without sampling it.

    Returns rho_t at t = n*dt, the last sample of ``sample_trajectory(h,
    rho0, tau, dt)``, and for each divisor s of ``subsamples`` the
    composite trapezoid integral that ``build_P_trapezoid`` takes of that
    trajectory at subsample s: the sum on n/s panels of step s*dt, as
    V (rho~ * T) V-dagger with the weights of ``_mode_factors``, on the axis
    before the last two.  One eigendecomposition of H serves every divisor.
    Stacks of H and rho0 run as one batch, each matrix as in a call of its
    own.  Raises ValueError as ``sample_trajectory`` and
    ``build_P_trapezoid`` would.
    """
    n = grid_intervals(tau, dt)
    for subsample in subsamples:
        check_subsample(n, subsample)
    _, w, v, rho_eig = _eigenbasis(h, rho0)
    vh = v.conj().swapaxes(-1, -2)
    phase = np.exp(-1j * w * (n * dt))
    rho_end = v @ ((phase[..., :, None] * phase.conj()[..., None, :]) * rho_eig) @ vh
    steps = np.array([tau / (n // s) for s in subsamples])[:, None, None]
    omega = w[..., :, None] - w[..., None, :]
    v, vh, rho_eig, omega = (x[..., None, :, :] for x in (v, vh, rho_eig, omega))
    p = v @ (rho_eig * _mode_factors(omega, tau, steps)) @ vh
    return hermitize(rho_end), hermitize(p)


# ---------------------------------------------------------------------------
# trajectory CSV: header t, re_1_1, im_1_1, re_2_1, im_2_1, ... in
# column-major (i, j) order; one row per sample; 17 significant digits
# ---------------------------------------------------------------------------

def _columns(d: int) -> list[str]:
    """The header fields of a trajectory CSV of d x d states."""
    return ["t"] + [f"{part}_{i}_{j}" for j in range(1, d + 1)
                    for i in range(1, d + 1) for part in ("re", "im")]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    header = ",".join(_columns(traj.dim))
    # entry (i, j) of state k is flat[k, j, i]; the float view of a row
    # interleaves the real and imaginary parts of its entries
    flat = np.ascontiguousarray(traj.states.transpose(0, 2, 1), dtype=complex)
    rows = np.column_stack([traj.times, flat.reshape(len(traj.times), -1).view(float)])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def _bad_data_row(lines, width: int) -> str:
    """The first non-blank line of ``lines`` that is not ``width`` numbers,
    each line parsed and the data rows numbered as ``np.loadtxt`` does."""
    for k, line in enumerate(filter(None, (ln.rstrip("\r\n") for ln in lines)), start=1):
        try:
            numbers = np.loadtxt([line], delimiter=",", ndmin=1, comments=None)
        except ValueError:
            numbers = ()
        if len(numbers) != width:
            return f"data row {k} is {line!r}, not {width} comma-separated numbers"
    return "a data row is not a list of numbers"


def _read_rows(path, columns) -> np.ndarray:
    """The data rows of a CSV whose first column is t, one row per line.

    The header must be ``columns(n)`` for the number n of its fields,
    compared field by field.  The rows are read by one ``np.loadtxt``
    call: blank lines are skipped, and a ragged row, a non-numeric field
    or a ``#`` line is an error that names the first such row
    (``_bad_data_row``).  Every entry must be finite.  Every ValueError,
    a line that is not UTF-8 included, names the file (``naming``).
    """
    with naming(path), open(path) as fh:
        names = fh.readline().strip().split(",")
        header = columns(len(names))
        if names != header:
            k = next((k for k, pair in enumerate(zip(names, header)) if pair[0] != pair[1]), None)
            raise ValueError("malformed CSV header: " + (
                f"{len(names)} fields, not {len(header)}" if k is None
                else f"field {k + 1} is {names[k]!r}, not {header[k]!r}"))
        with warnings.catch_warnings():
            # numpy warns on a header without data rows; the callers then
            # reject it for having fewer than two samples
            warnings.simplefilter("ignore", UserWarning)
            try:
                rows = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            except ValueError:
                fh.seek(0)
                fh.readline()
                raise ValueError(_bad_data_row(fh, len(header)))
        if rows.size and rows.shape[1] != len(header):
            raise ValueError(f"CSV row length mismatch: {rows.shape[1]} fields, "
                             f"not {len(header)}")
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"data row {k + 1} (t = {float(rows[k, 0])!r}) "
                             "has a NaN or infinite entry")
        return rows.reshape(-1, len(header))


def read_trajectory_csv(path) -> Trajectory:
    """Parse a trajectory CSV; raises ValueError naming the file on malformed input.

    The header must be the writer's (``_columns``) for some d >= 1, and
    the rows are read by ``_read_rows``: finite numbers, as many as the
    header has fields.  The states are returned hermitized, each of trace
    1 (``_unit_trace``: no eigendecomposition per sample), on times that
    ``Trajectory`` checks: at least two, strictly increasing and uniform to
    ``GRID_RTOL`` relative.
    """
    rows = _read_rows(path, lambda n: _columns(max(1, math.isqrt((n - 1) // 2))))
    d = math.isqrt(rows.shape[1] // 2)
    flat = rows[:, 1::2] + 1j * rows[:, 2::2]
    states = np.ascontiguousarray(flat.reshape(-1, d, d).transpose(0, 2, 1))
    with naming(path):
        return Trajectory(times=np.ascontiguousarray(rows[:, 0]),
                          states=_unit_trace(states, "a state"))
