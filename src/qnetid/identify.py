"""Full-information coupling-matrix identification.

Given the time integral P of a measured trajectory and the endpoint
difference Q = i*hbar*(rho_tau - rho_0), the coupling matrix is the
admissible (Hermitian, zero-diagonal) solution M of the commutator
equation [M, P] = Q.  Restricting M to an explicit real parametrization
of the admissible set keeps the constraints exact and makes the
uniqueness question a plain column-rank question.  The system's columns
are written in closed form.  The column of x_ij is vec([E_ij + E_ji, P]):
row i of the commutator is P[j, :], row j is P[i, :], column j is
-P[:, i] and column i is -P[:, j].  The column of y_ij is
i * vec([E_ij - E_ji, P]), the same four pieces with the row-j and
column-i signs flipped.  Since i != j, every entry is a sum of at most
two entries of P.  By vec(A X B) = (B^T kron A) vec(X), these are the
columns of (P^T kron I - I kron P) applied to the parametrization, entry
for entry; neither the d^2 x d^2 Kronecker matrix nor a dense basis of
the parametrization is ever formed.

Only d^2 of the 2d^2 real rows [Re vec; Im vec] are kept.  With M and P
Hermitian, [M, P] is skew-Hermitian, and so is Q: Re[M, P] is
antisymmetric and Im[M, P] symmetric.  The halved system's rows are

* sqrt(2) * Re of the entries (i, j), i < j row-major (as ``_pairs``),
* sqrt(2) * Im of the same entries,
* Im of the diagonal entries (i, i), i = 0..d-1.

A dropped row is either zero with a zero right-hand side (Re of a
diagonal entry) or the row of entry (j, i), which equals the kept row
of (i, j) times -1 (Re) or +1 (Im), right-hand side included.  Two equal
rows add to A^T A and A^T b exactly what one row scaled by sqrt(2)
adds, so both are unchanged: the halving is an orthogonal compression.
The singular values, the right singular vectors and the least-squares
theta are those of the 2d^2-row system in exact arithmetic, and differ
only by rounding.  The right-hand side vec(Q) is halved by the same
rows and weights.

Two parameter classes are supported:

* the full admissible class, parameters (Re M_ij, Im M_ij) for i < j,
  d(d-1) real unknowns: the faithful class when nothing more is known
  about the coupling matrix;
* the real-coupling restriction, parameters M_ij in R for i < j,
  d(d-1)/2 unknowns: the right class for graph-adjacency benchmarks,
  where it both halves the work and stays uniquely solvable on symmetric
  graphs whose data degenerate the full class.

Each report carries two verdicts.  ``outcome`` is the conservative
uniqueness certificate: full column rank at the configured relative
tolerance plus a small equation residual.  ``solvability`` is the
classical full-rank label of the stacked linear system at an
LAPACK-style machine tolerance, 2d^2 * eps relative to sigma_max: the
max(m, n) of the unhalved system, kept so that the halving moves no
label.  It is the quantity averaged by the benchmark sweeps, and it
deliberately ignores the residual so that coarsely integrated P still
counts as solvable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dynamics import Trajectory
from .linalg import (
    ABS_FLOOR,
    DEFAULT_RTOL,
    EPS,
    hermitize,
    matrix_to_json,
    numerical_rank,
    spectral_norm,
    vec,
)

#: relative residual above which a full-rank system is reported inconsistent
RESIDUAL_RTOL = 1e-6
#: relative tolerance for the skew-Hermitian sanity check on Q (Frobenius norm)
SKEW_RTOL = 1e-10
_SQRT2 = float(np.sqrt(2.0))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# admissible parametrization
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle pairs (i, j), i < j row-major, and their index k."""
    i, j = np.triu_indices(d, 1)
    k = np.arange(i.size)
    for a in (i, j, k):
        a.flags.writeable = False  # shared by every caller through the cache
    return i, j, k


@dataclass(frozen=True)
class AdmissibleEmbedding:
    """Linear map from real parameters to an admissible matrix M.

    Parameters are ordered by upper-triangle pair (i < j, row-major); in
    the full class each pair contributes (x_ij, y_ij) with
    M_ij = x_ij + i y_ij and M_ji its conjugate, in the real-coupling
    class just x_ij.  ``to_matrix`` scatters them into the upper triangle
    and their conjugates into the lower one, so every matrix in the range
    is exactly Hermitian with exactly zero diagonal and no constraint rows
    are ever needed.  ``from_matrix`` reads them back from the upper
    triangle.
    """

    dim: int
    real_coupling: bool

    @property
    def n_params(self) -> int:
        n_pairs = self.dim * (self.dim - 1) // 2
        return n_pairs if self.real_coupling else 2 * n_pairs

    def to_matrix(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {theta.shape}")
        i, j, _ = _pairs(self.dim)
        if self.real_coupling:
            m = np.zeros((self.dim, self.dim))
            m[i, j] = m[j, i] = theta
        else:
            m = np.zeros((self.dim, self.dim), dtype=complex)
            m[i, j] = theta[0::2] + 1j * theta[1::2]
            m[j, i] = m[i, j].conj()
        return m

    def from_matrix(self, m: np.ndarray) -> np.ndarray:
        i, j, _ = _pairs(self.dim)
        upper = np.asarray(m, dtype=complex)[i, j]
        if self.real_coupling:
            return upper.real
        return np.column_stack([upper.real, upper.imag]).ravel()


def admissible_embedding(d: int, real_coupling: bool = False) -> AdmissibleEmbedding:
    """Build the admissible parametrization for dimension d (d >= 2)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return AdmissibleEmbedding(dim=d, real_coupling=real_coupling)


@lru_cache(maxsize=None)
def _halving(d: int) -> np.ndarray:
    """Indices into [Re vec; Im vec] of the halved system's rows (module docstring)."""
    i, j, _ = _pairs(d)
    upper = j * d + i  # vec index of entry (i, j)
    rows = np.concatenate([upper, d * d + upper, d * d + np.arange(d) * (d + 1)])
    rows.flags.writeable = False  # shared by every caller through the cache
    return rows


def _halve(stack: np.ndarray, d: int) -> np.ndarray:
    """The d^2 rows of a 2d^2-row [Re vec; Im vec] stack that the halved system keeps."""
    out = stack[_halving(d)]
    out[: d * (d - 1)] *= _SQRT2  # the off-diagonal rows stand for two rows each
    return out


def _realified_system(p: np.ndarray, embedding: AdmissibleEmbedding) -> np.ndarray:
    """Real coefficient matrix of theta -> vec([M(theta), P]), halved.

    Written in closed form (module docstring) into an array indexed
    [Re/Im, column c, row r, pair k, x/y], which is the row-stacked vec
    layout with each pair's (x_ij, y_ij) columns side by side, and
    reduced to its d^2 determining rows by ``_halve``.
    """
    d = embedding.dim
    i, j, k = _pairs(d)
    # (Re/Im source, sign of the row-j and column-i pieces) per column kind:
    # x_ij takes Re/Im of P; y_ij = i * vec([E_ij - E_ji, P]) has real part
    # -Im and imaginary part Re of the unscaled column
    parts = [(np.stack([p.real, p.imag]), 1.0)]
    if not embedding.real_coupling:
        parts.append((np.stack([-p.imag, p.real]), -1.0))
    a = np.zeros((2, d, d, k.size, len(parts)))
    for t, (src, sign) in enumerate(parts):
        col = a[..., t]
        col[:, :, i, k] += src[:, j, :].transpose(0, 2, 1)         # row i: P[j, :]
        col[:, :, j, k] += sign * src[:, i, :].transpose(0, 2, 1)  # row j: P[i, :]
        col[:, j, :, k] -= src[:, :, i].transpose(2, 0, 1)         # column j: -P[:, i]
        col[:, i, :, k] -= sign * src[:, :, j].transpose(2, 0, 1)  # column i: -P[:, j]
    return _halve(a.reshape(2 * d * d, -1), d)


def _realified_rhs(q: np.ndarray) -> np.ndarray:
    """Right-hand side vec(Q) stacked Re/Im, halved like the system."""
    return _halve(np.concatenate([vec(q).real, vec(q).imag]), q.shape[0])


# ---------------------------------------------------------------------------
# data matrices from trajectories
# ---------------------------------------------------------------------------

def build_P_trapezoid(traj: Trajectory, subsample: int = 1) -> np.ndarray:
    """Composite trapezoid approximation of the trajectory time integral.

    ``subsample`` must divide the number of sampling intervals n_s; the
    quadrature then runs on the coarser uniform grid with
    n~ = n_s/subsample panels, endpoints always included.
    """
    if subsample < 1:
        raise ValueError("subsample must be a positive integer")
    n_s = traj.n_samples
    if n_s % subsample != 0:
        raise ValueError(f"subsample {subsample} does not divide n_s = {n_s}")
    sub = traj.states[::subsample]
    h = traj.tau / (n_s // subsample)
    p = h * (sub.sum(axis=0) - 0.5 * sub[0] - 0.5 * sub[-1])
    return 0.5 * (p + p.conj().T)


def build_Q(
    rho0: np.ndarray,
    rho_tau: np.ndarray,
    hbar: float = 1.0,
    known_h0: np.ndarray | None = None,
    p: np.ndarray | None = None,
) -> np.ndarray:
    """Endpoint data matrix Q = i*hbar*(rho_tau - rho_0), skew-Hermitian.

    With a known node Hamiltonian H0, its contribution [H0, P] is
    subtracted so that the remaining equation targets the interaction
    part only; P is then required.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    rho_tau = np.asarray(rho_tau, dtype=complex)
    q = 1j * hbar * (rho_tau - rho0)
    if known_h0 is not None:
        if p is None:
            raise ValueError("P is required when a known H0 is supplied")
        q = q - commutator(hermitize(known_h0), np.asarray(p, dtype=complex))
    asym = np.linalg.norm(q + q.conj().T)
    if asym > SKEW_RTOL * max(np.linalg.norm(q), ABS_FLOOR):
        raise ValueError("Q is not skew-Hermitian; check the input states")
    return 0.5 * (q - q.conj().T)


# ---------------------------------------------------------------------------
# solver and report
# ---------------------------------------------------------------------------

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
    rtol: float
    label_rtol: float
    seed: int | None = None
    parameters: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "rank": self.rank,
            "required_rank": self.required_rank,
            "residual": self.residual,
            "solvability": self.solvability,
            "epsilon": self.epsilon,
            "sigma_min_retained": self.sigma_min_retained,
            "sigma_max_discarded": self.sigma_max_discarded,
            "seed": self.seed,
            "parameters": dict(
                self.parameters,
                label_rank=self.label_rank,
                real_coupling=self.real_coupling,
                rtol=self.rtol,
                label_rtol=self.label_rtol,
                commutes_with_p=self.commutes_with_p,
            ),
            "m_hat": matrix_to_json(self.m_hat),
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def solve_commutator(
    p: np.ndarray,
    q: np.ndarray,
    rtol: float = DEFAULT_RTOL,
    real_coupling: bool = False,
    label_rtol: float | None = None,
) -> IdentificationReport:
    """Solve [M, P] = Q for an admissible M and certify uniqueness.

    The equation is realified on the admissible parametrization and
    solved by truncated-SVD least squares.  ``outcome`` is 'unique' when
    the system has full column rank at ``rtol`` and the solution's
    relative equation residual is at most RESIDUAL_RTOL, 'non_unique'
    when rank deficient (the minimum-norm estimate is still emitted,
    untrusted), and 'inconsistent' when full rank but the residual is
    large.  ``solvability`` is the rank-only label at the machine
    tolerance (or ``label_rtol`` relative to sigma_max when given).
    A Q of zero with full rank yields the zero matrix and 'unique':
    no interaction detected.

    P is taken to be Hermitian and Q skew-Hermitian, as
    ``build_P_trapezoid`` and ``build_Q`` return them: the halved system
    (module docstring) keeps only the rows that these symmetries make
    independent.  The residual is still measured on the full equation.
    """
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"P and Q must be square with equal shape, got {p.shape} vs {q.shape}")
    d = p.shape[0]

    embedding = admissible_embedding(d, real_coupling=real_coupling)
    a = _realified_system(p, embedding)
    b = _realified_rhs(q)

    u, s, vt = np.linalg.svd(a, full_matrices=False)

    rank = numerical_rank(s, rtol)
    if label_rtol is None:
        # LAPACK-style machine tolerance max(m, n) * eps of the unhalved
        # 2d^2-row system, kept so that halving moves no label
        label_rtol = 2 * d * d * EPS
    label_rank = numerical_rank(s, label_rtol)

    inv = np.zeros_like(s)
    if rank > 0:
        inv[:rank] = 1.0 / s[:rank]
    theta = vt.T @ (inv * (u.T @ b))
    m_hat = embedding.to_matrix(theta)

    m_comm_p = commutator(m_hat, p)
    residual = spectral_norm(m_comm_p - q) / max(spectral_norm(q), EPS)

    required = embedding.n_params
    if rank < required:
        outcome = "non_unique"
    elif residual <= RESIDUAL_RTOL:
        outcome = "unique"
    else:
        outcome = "inconsistent"

    m_scale = spectral_norm(m_hat)
    if m_scale <= ABS_FLOOR:
        commutes = None
    else:
        comm_scale = m_scale * max(spectral_norm(p), ABS_FLOOR)
        commutes = bool(spectral_norm(m_comm_p) <= 1e-10 * comm_scale)

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
        rtol=float(rtol),
        label_rtol=float(label_rtol),
    )


def commutant_dimension(p: np.ndarray, rtol: float = DEFAULT_RTOL, real_coupling: bool = False) -> int:
    """Dimension of the admissible commutant of P.

    Counts the independent nonzero admissible matrices commuting with P
    (nullity of the homogeneous realified system at ``rtol``); zero
    means the identification problem has a unique solution.  P is
    taken to be Hermitian, as in ``solve_commutator``.
    """
    p = np.asarray(p, dtype=complex)
    embedding = admissible_embedding(p.shape[0], real_coupling=real_coupling)
    a = _realified_system(p, embedding)
    return embedding.n_params - numerical_rank(np.linalg.svd(a, compute_uv=False), rtol)


def relative_error(m_hat: np.ndarray, truth: np.ndarray) -> float:
    """Relative reconstruction error ||m_hat - truth||_2 / ||truth||_2."""
    scale = spectral_norm(truth)
    if scale <= 0.0:
        raise ValueError("relative error is undefined for a zero ground truth")
    return spectral_norm(np.asarray(m_hat) - np.asarray(truth)) / scale


def identify_topology(
    traj: Trajectory,
    subsample: int = 1,
    hbar: float = 1.0,
    known_h0: np.ndarray | None = None,
    truth: np.ndarray | None = None,
    rtol: float = DEFAULT_RTOL,
    real_coupling: bool = False,
    label_rtol: float | None = None,
) -> IdentificationReport:
    """Full pipeline: trapezoid P, endpoint Q, solve, score.

    When a ground truth is supplied the report's epsilon is the relative
    spectral-norm error (left as None for a zero truth, where the ratio
    is undefined).
    """
    p = build_P_trapezoid(traj, subsample=subsample)
    q = build_Q(traj.states[0], traj.states[-1], hbar=hbar, known_h0=known_h0, p=p)
    report = solve_commutator(p, q, rtol=rtol, real_coupling=real_coupling, label_rtol=label_rtol)
    if truth is not None and np.any(truth):
        report.epsilon = relative_error(report.m_hat, truth)
    report.parameters.update(subsample=int(subsample), hbar=float(hbar))
    return report
