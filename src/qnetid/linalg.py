"""Dense complex linear-algebra kernel.

Column-stacking vectorization, Hermitian eigendecomposition, SVD-based
numerical rank / pseudoinverse, spectral norm, and the JSON matrix file
format shared by the whole package.

The vectorization convention is column stacking throughout:
``vec(M)[(j-1)*d + i] = M[i, j]`` (1-based), i.e. the first column of M
comes first.  All Kronecker identities in this package assume it, in
particular ``vec(A X B) = (B^T kron A) vec(X)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)

#: relative singular-value threshold for numerical rank decisions
DEFAULT_RTOL = 1e-9
#: if the largest singular value is below this, the matrix counts as zero
ABS_FLOOR = 1e-12
#: largest tolerated relative asymmetry when symmetrizing a Hermitian input
HERMITIAN_RTOL = 1e-10


def vec(m: np.ndarray) -> np.ndarray:
    """Stack the columns of ``m`` into a single vector."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`; raises on length mismatch."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise ValueError(f"cannot reshape length-{v.size} vector to {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def hermitize(m: np.ndarray, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Return the Hermitian part (M + M†)/2, rejecting badly asymmetric input.

    File round-off must not break Hermiticity invariants, so inputs are
    symmetrized; anything with relative asymmetry above ``rtol`` is not
    round-off and is rejected.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    asym = np.linalg.norm(m - m.conj().T)
    scale = max(np.linalg.norm(m), ABS_FLOOR)
    if asym > rtol * scale:
        raise ValueError(
            f"matrix is not Hermitian: relative asymmetry {asym / scale:.3e} "
            f"exceeds {rtol:.1e}"
        )
    return 0.5 * (m + m.conj().T)


def is_hermitian(m: np.ndarray, rtol: float = HERMITIAN_RTOL) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    asym = np.linalg.norm(m - m.conj().T)
    return asym <= rtol * max(np.linalg.norm(m), ABS_FLOOR)


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition H = V diag(w) V† of a Hermitian matrix.

    Returns eigenvalues ascending and a unitary V.  Non-Hermitian input is
    rejected rather than silently projected.
    """
    h = hermitize(h)
    w, v = np.linalg.eigh(h)
    return w, v


@dataclass(frozen=True)
class SvdResult:
    """Singular values (descending), bases, and the numerical rank decision."""

    singular_values: np.ndarray
    left: np.ndarray   # U, columns are left singular vectors
    right: np.ndarray  # V†, rows are right singular vectors
    rank: int
    rtol: float


def svd_rank_pinv(a: np.ndarray, rtol: float = DEFAULT_RTOL) -> tuple[SvdResult, np.ndarray]:
    """SVD with relative-threshold numerical rank and truncated pseudoinverse.

    rank = #{sigma_i > rtol * sigma_max}, with rank 0 whenever
    sigma_max < ABS_FLOOR.  The pseudoinverse inverts only retained
    singular values, so rank-deficient systems get the minimum-norm
    least-squares inverse.
    """
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    a = np.asarray(a, dtype=complex)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] < ABS_FLOOR:
        rank = 0
    else:
        rank = int(np.sum(s > rtol * s[0]))
    inv = np.zeros_like(s)
    if rank > 0:
        inv[:rank] = 1.0 / s[:rank]
    pinv = (vh.conj().T * inv) @ u.conj().T
    return SvdResult(s, u, vh, rank, rtol), pinv


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value (L2 operator norm)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# matrix file format: {"rows": n, "cols": m, "re": [[...]], "im": [[...]]}
# row-major nested arrays; exact round trip for IEEE-754 doubles
# ---------------------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise ValueError(
            f"matrix payload shape {re.shape}/{im.shape} does not match "
            f"declared {rows}x{cols}"
        )
    return re + 1j * im


def save_matrix(path, m: np.ndarray) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(m), fh)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))
