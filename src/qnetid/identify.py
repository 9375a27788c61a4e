"""Full-information coupling-matrix identification.

Given the time integral P of a measured trajectory and the endpoint
difference Q = i*(rho_tau - rho_0) (hbar = 1), the coupling matrix is the
admissible (Hermitian, zero-diagonal) solution M of the commutator
equation [M, P] = Q.  Restricting M to an explicit real parametrization
of the admissible set keeps the constraints exact and makes the
uniqueness question a plain column-rank question.  The system's columns
are written in closed form.  The column of x_ij is [E_ij + E_ji, P]:
row i of the commutator is P[j, :], row j is P[i, :], column j is
-P[:, i] and column i is -P[:, j].  The column of y_ij is
i * [E_ij - E_ji, P], the same four pieces with the row-j and column-i
signs flipped.  Since i != j, every entry is a sum of at most two
entries of P.  By vec(A X B) = (B^T kron A) vec(X), these are the
columns of (P^T kron I - I kron P) applied to the parametrization, entry
for entry; neither the d^2 x d^2 Kronecker matrix nor a dense basis of
the parametrization is ever formed.

Each column, like Q, is a skew-Hermitian matrix, and ``_halve`` maps
both sides to the same d^2 real coordinates instead of the 2d^2 real
rows [Re vec; Im vec].  With M and P Hermitian, [M, P] is
skew-Hermitian: its real part is antisymmetric and its imaginary part
symmetric.  The coordinates are

* sqrt(2) * Re of the entries (i, j), i < j row-major (as ``upper_pairs``),
* sqrt(2) * Im of the same entries,
* Im of the diagonal entries (i, i), i = 0..d-1.

A dropped row is either zero with a zero right-hand side (Re of a
diagonal entry) or the row of entry (j, i), which equals the kept row
of (i, j) times -1 (Re) or +1 (Im), right-hand side included.  Two equal
rows add to A^T A and A^T b exactly what one row scaled by sqrt(2)
adds, so both are unchanged: the halving is an orthogonal compression.
The singular values, the right singular vectors and the least-squares
theta are those of the 2d^2-row system in exact arithmetic, and differ
only by rounding.  The system is written in these coordinates directly:
a pattern cached per (d, class) lists the about 4d nonzero coordinates
of each column and the signed parts of P their row and column pieces read.
LAPACK's gelsd solves the halved system: it returns the singular values
and the truncated minimum-norm theta without forming U or V.

Two parameter classes are supported:

* the full admissible class, parameters (Re M_ij, Im M_ij) for i < j,
  d(d-1) real unknowns: the faithful class when nothing more is known
  about the coupling matrix;
* the real-coupling restriction, parameters M_ij in R for i < j,
  d(d-1)/2 unknowns: the right class for graph-adjacency benchmarks,
  where it both halves the work and stays uniquely solvable on symmetric
  graphs whose data degenerate the full class.

Each report carries two verdicts.  ``outcome`` is the conservative
uniqueness certificate: full column rank at the one relative tolerance
``DEFAULT_RTOL`` (1e-9) plus a small equation residual.  ``solvability`` is the
classical full-rank label of the stacked linear system at an
LAPACK-style machine tolerance, 2d^2 * eps relative to sigma_max: the
max(m, n) of the unhalved system, kept so that the halving moves no
label.  It is the quantity averaged by the benchmark sweeps, and it
deliberately ignores the residual so that coarsely integrated P still
counts as solvable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .dynamics import Trajectory, check_subsample
from .linalg import (
    ABS_FLOOR,
    DEFAULT_RTOL,
    EPS,
    check_network_size,
    hermitize,
    matrix_to_json,
    naming,
    numerical_rank,
    one_blas_thread,
    save_json,
    spectral_norm,
    upper_pairs,
)

#: relative residual above which a full-rank system is reported inconsistent
RESIDUAL_RTOL = 1e-6
_SQRT2 = float(np.sqrt(2.0))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# admissible parametrization
# ---------------------------------------------------------------------------

def _to_matrix(theta: np.ndarray, d: int, real_coupling: bool) -> np.ndarray:
    """The admissible matrix of the parameters theta (on the last axis).

    Parameters are ordered by upper-triangle pair (as ``upper_pairs``); in the
    full class each pair contributes (x_ij, y_ij) with M_ij = x_ij + i y_ij,
    in the real-coupling class just x_ij.  They are scattered into the
    upper triangle and their conjugates into the lower one, so the matrix
    is exactly Hermitian with exactly zero diagonal and no constraint rows
    are ever needed.
    """
    i, j, _ = upper_pairs(d)
    upper = theta if real_coupling else theta[..., 0::2] + 1j * theta[..., 1::2]
    m = np.zeros(theta.shape[:-1] + (d, d), dtype=upper.dtype)
    m[..., i, j], m[..., j, i] = upper, upper.conj()
    return m


def _halve(x: np.ndarray) -> np.ndarray:
    """The d^2 real coordinates (module docstring) of skew-Hermitian
    matrices on the last two axes of ``x``."""
    i, j, _ = upper_pairs(x.shape[-1])
    out = np.concatenate([x.real[..., i, j], x.imag[..., i, j],
                          np.diagonal(x, axis1=-2, axis2=-1).imag], axis=-1)
    out[..., : 2 * i.size] *= _SQRT2  # the off-diagonal coordinates stand for two rows each
    return out


@lru_cache(maxsize=None)
def _system_pattern(d: int, real_coupling: bool) -> tuple[np.ndarray, ...]:
    """(dst, first, second, scale), read-only: the halved systems, laid out
    [system, parameter, coordinate], are zero but at the flat entries dst,
    which hold scale * ((0 + v[first]) + v[second]), v being Re P, Im P,
    -Re P, -Im P (each flat) and a zero.  ``first`` is the row piece of the
    commutator entry (row i or j), ``second`` its column piece."""
    i, j, k = upper_pairs(d)
    n, dd, diag = k.size, d * d, np.arange(d)
    # the entry (r, c) of each coordinate, and whether it takes the imaginary part
    r, c = np.concatenate([i, i, diag])[:, None], np.concatenate([j, j, diag])[:, None]
    im = np.arange(dd)[:, None] >= n
    first, second = [], []
    for q in [0] if real_coupling else [0, 1]:  # the column of X = i^q E_ij + i^-q E_ji
        # row i of [X, P] is i^q P[j, :], row j i^-q P[i, :]; column j is
        # -i^q P[:, i] = i^(q+2) P[:, i], column i i^(2-q) P[:, j].  Re and Im
        # of i^e P are the blocks -e and 1 - e (mod 4) of v
        row_e, col_e = np.where(r == i, q, -q), np.where(c == j, q + 2, 2 - q)
        row_read = (im - row_e) % 4 * dd + (i + j - r) * d + c
        col_read = (im - col_e) % 4 * dd + r * d + i + j - c
        first.append(np.where((r == i) | (r == j), row_read, 4 * dd))
        second.append(np.where((c == i) | (c == j), col_read, 4 * dd))
    # parameters pair-major, x before y: [parameter, coordinate], flat
    first, second = (np.stack(s, axis=-1).reshape(dd, -1).T.ravel() for s in (first, second))
    dst = np.flatnonzero((first < 4 * dd) | (second < 4 * dd))
    pattern = dst, first[dst], second[dst], np.where(dst % dd < 2 * n, _SQRT2, 1.0)
    for array in pattern:
        array.flags.writeable = False  # shared by every caller through the cache
    return pattern


def _realified_system(p: np.ndarray, real_coupling: bool) -> np.ndarray:
    """Real coefficient matrix of theta -> [M(theta), P], halved, per P of a stack.

    Column k is ``_halve`` of [X_k, P], X_k the admissible matrix of
    parameter k, with the rounding of adding the pieces into zeros: each
    nonzero is (0 + row piece) + column piece, times sqrt(2) off the
    diagonal (0 + -0 is +0).  Each system is Fortran-ordered, as gelsd takes it.
    """
    d = p.shape[-1]
    check_network_size(d)
    dst, first, second, scale = _system_pattern(d, real_coupling)
    flat = np.asarray(p, dtype=complex).reshape(-1, d * d)
    v = np.concatenate([flat.real, flat.imag, -flat.real, -flat.imag, np.zeros((len(flat), 1))], 1)
    values = 0.0 + v[:, first]
    values += v[:, second]
    values *= scale
    out = np.zeros((len(flat), (1 if real_coupling else 2) * d * (d - 1) // 2 * d * d))
    out[:, dst] = values
    return out.reshape(p.shape[:-2] + (-1, d * d)).swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# data matrices from trajectories
# ---------------------------------------------------------------------------

def build_P_trapezoid(traj: Trajectory, subsample: int = 1) -> np.ndarray:
    """Composite trapezoid approximation of the trajectory time integral.

    ``subsample`` must divide the number of sampling intervals n_s; the
    quadrature then runs on the coarser uniform grid with
    n~ = n_s/subsample panels, endpoints always included.
    """
    n_s = traj.n_samples
    check_subsample(n_s, subsample)
    sub = traj.states[::subsample]
    h = traj.tau / (n_s // subsample)
    p = h * (sub.sum(axis=0) - 0.5 * sub[0] - 0.5 * sub[-1])
    return 0.5 * (p + p.conj().T)


def build_Q(
    rho0: np.ndarray,
    rho_tau: np.ndarray,
    known_h0: np.ndarray | None = None,
    p: np.ndarray | None = None,
) -> np.ndarray:
    """Endpoint data matrix Q = i*(rho_tau - rho_0), skew-Hermitian, per pair of a stack.

    With a known node Hamiltonian H0, its contribution [H0, P] is
    subtracted so that the remaining equation targets the interaction
    part only; P is then required.
    """
    q = 1j * np.subtract(rho_tau, rho0, dtype=complex)
    if known_h0 is not None:
        if p is None:
            raise ValueError("P is required when a known H0 is supplied")
        q = q - commutator(hermitize(known_h0), np.asarray(p, dtype=complex))
    # Q is skew-Hermitian exactly when iQ is Hermitian; +-i moves no bit
    with naming("Q is not skew-Hermitian; check the input states"):
        return -1j * hermitize(1j * q)


# ---------------------------------------------------------------------------
# solver and report
# ---------------------------------------------------------------------------

#: report fields written under "parameters", after the caller's entries
_PARAMETER_FIELDS = ("label_rank", "real_coupling", "rtol", "label_rtol", "commutes_with_p")


@dataclass
class IdentificationReport:
    """Outcome of one commutator-equation identification."""

    outcome: str                 # unique | non_unique | inconsistent
    m_hat: np.ndarray            # admissible estimate (least squares, always emitted)
    rank: int                    # numerical column rank at rtol
    required_rank: int           # parameter count of the admissible class
    solvability: int             # classical full-rank label at label tolerance
    label_rank: int              # column rank at the label tolerance
    residual: float              # ||[M, P] - Q||_2 / max(||Q||_2, eps)
    epsilon: float | None        # relative error vs ground truth, when known
    commutes_with_p: bool | None  # None when m_hat is (numerically) zero
    sigma_min_retained: float
    sigma_max_discarded: float
    real_coupling: bool
    rtol: float                  # DEFAULT_RTOL, stated in the report JSON
    label_rtol: float
    parameters: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["parameters"] = dict(self.parameters, **{k: out.pop(k) for k in _PARAMETER_FIELDS})
        out["m_hat"] = matrix_to_json(self.m_hat)
        return out

    def save(self, path) -> None:
        save_json(path, self.to_json())


def solve_stack(p: np.ndarray, q: np.ndarray,
                real_coupling: bool = False) -> tuple[np.ndarray, ...]:
    """Admissible least-squares solutions of [M, P] = Q for each P on the
    last two axes of ``p``, Q broadcasting against it: the core of
    ``solve_commutator`` and of the sweeps.  The systems are realified and
    halved as one stack; LAPACK's gelsd does not batch, so each is solved
    by its own call.  Returns over the leading axes of ``p`` the estimates,
    each system's singular values (one per parameter: full rank is rank
    ``s.shape[-1]``), its rank at ``DEFAULT_RTOL`` and at ``_label_rtol(d)``.
    """
    d = p.shape[-1]
    a = _realified_system(p, real_coupling)
    systems = a.reshape((-1,) + a.shape[-2:])  # a view: (systems, rows, parameters)
    rhs = np.broadcast_to(_halve(q), a.shape[:-1]).reshape(len(systems), -1)
    theta, s = np.empty((len(systems), a.shape[-1])), np.empty((len(systems), a.shape[-1]))
    for k in range(len(systems)):
        # gelsd cuts s_i <= rcond * s_0, the complement of numerical_rank's rule
        theta[k], _, _, s[k] = np.linalg.lstsq(systems[k], rhs[k], rcond=DEFAULT_RTOL)
    theta, s = theta.reshape(a.shape[:-2] + (-1,)), s.reshape(a.shape[:-2] + (-1,))
    rank = numerical_rank(s, DEFAULT_RTOL)
    theta[rank == 0] = 0.0  # gelsd would invert an s_0 below ABS_FLOOR
    return _to_matrix(theta, d, real_coupling), s, rank, numerical_rank(s, _label_rtol(d))


def _label_rtol(d: int) -> float:
    """max(m, n) * eps of the unhalved 2d^2-row system: halving moves no label."""
    return 2 * d * d * EPS


@one_blas_thread()
def solve_commutator(
    p: np.ndarray,
    q: np.ndarray,
    real_coupling: bool = False,
) -> IdentificationReport:
    """Solve [M, P] = Q for an admissible M and certify uniqueness.

    One system of ``solve_stack``: gelsd's truncated minimum-norm least squares
    at ``DEFAULT_RTOL``, held at one BLAS thread (``one_blas_thread``) whatever
    OPENBLAS_NUM_THREADS says.  ``outcome`` is 'unique' at full column rank
    with a relative residual of the full equation at most RESIDUAL_RTOL,
    'non_unique' when rank deficient (the minimum-norm estimate is still
    emitted, untrusted), and 'inconsistent' at full rank with a large residual.
    ``solvability`` is the rank-only label at 2d^2 * eps relative to sigma_max
    (module docstring).  A Q of zero with full rank yields the zero matrix and
    'unique': no interaction detected.  P is taken to be Hermitian and Q
    skew-Hermitian, as ``build_P_trapezoid`` and ``build_Q`` return them: the
    halved system keeps only the rows these symmetries make independent.
    """
    p, q = np.asarray(p, dtype=complex), np.asarray(q, dtype=complex)
    if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"P and Q must be square with equal shape, got {p.shape} vs {q.shape}")
    m_hat, s, rank, label_rank = solve_stack(p, q, real_coupling)

    m_comm_p = commutator(m_hat, p)
    residual = spectral_norm(m_comm_p - q) / max(spectral_norm(q), EPS)

    required = s.size  # the parameter count of the admissible class
    outcome = ("non_unique" if rank < required
               else "unique" if residual <= RESIDUAL_RTOL else "inconsistent")

    # a tolerance-only flag, so measured in the Frobenius norm
    m_scale = np.linalg.norm(m_hat)
    commutes = None if m_scale <= ABS_FLOOR else bool(
        np.linalg.norm(m_comm_p) <= 1e-10 * (m_scale * max(np.linalg.norm(p), ABS_FLOOR)))

    return IdentificationReport(
        outcome=outcome,
        m_hat=m_hat,
        rank=rank,
        required_rank=required,
        solvability=int(label_rank == required),
        label_rank=label_rank,
        residual=float(residual),
        epsilon=None,
        commutes_with_p=commutes,
        sigma_min_retained=float(s[rank - 1]) if rank > 0 else 0.0,
        sigma_max_discarded=float(s[rank]) if rank < s.size else 0.0,
        real_coupling=real_coupling,
        rtol=DEFAULT_RTOL,
        label_rtol=_label_rtol(p.shape[0]),
    )


def commutant_dimension(p: np.ndarray, real_coupling: bool = False) -> int:
    """Dimension of the admissible commutant of P.

    Counts the independent nonzero admissible matrices commuting with P
    (nullity of the homogeneous realified system at ``DEFAULT_RTOL``); zero
    means the identification problem has a unique solution.  P is
    taken to be Hermitian, as in ``solve_commutator``.
    """
    a = _realified_system(np.asarray(p, dtype=complex), real_coupling)
    return a.shape[1] - numerical_rank(np.linalg.svd(a, compute_uv=False), DEFAULT_RTOL)


def relative_error(m_hat: np.ndarray, truth: np.ndarray):
    """Relative reconstruction error ||m_hat - truth||_2 / ||truth||_2; over
    stacks an array, the leading axes broadcasting (the matrix axes do not)."""
    m_hat, truth = np.asarray(m_hat), np.asarray(truth)
    if m_hat.shape[-2:] != truth.shape[-2:]:
        raise ValueError(f"estimate and truth differ in shape: {m_hat.shape} vs {truth.shape}")
    scale = spectral_norm(truth)
    if np.any(scale <= 0.0):
        raise ValueError("relative error is undefined for a zero ground truth")
    return spectral_norm(m_hat - truth) / scale


def identify_topology(
    traj: Trajectory,
    subsample: int = 1,
    known_h0: np.ndarray | None = None,
    truth: np.ndarray | None = None,
    real_coupling: bool = False,
) -> IdentificationReport:
    """Full pipeline: trapezoid P, endpoint Q, solve, score.

    When a ground truth is supplied the report's epsilon is the relative
    spectral-norm error (left as None for a zero truth, where the ratio
    is undefined).
    """
    p = build_P_trapezoid(traj, subsample=subsample)
    q = build_Q(traj.states[0], traj.states[-1], known_h0=known_h0, p=p)
    report = solve_commutator(p, q, real_coupling=real_coupling)
    if truth is not None and np.any(truth):
        report.epsilon = relative_error(report.m_hat, truth)
    report.parameters.update(subsample=int(subsample))
    return report
