"""Dense complex linear-algebra kernel.

Column-stacking vectorization, Hermitian symmetrization, the one
numerical-rank rule, spectral norm, and the one reader and writer of the
package's JSON files, the matrix format included; also ``ConfigError``,
raised by every check of a parameter (not of data), and
``check_positive``, the one positivity rule.

The vectorization convention is column stacking throughout:
``vec(M)[(j-1)*d + i] = M[i, j]`` (1-based), i.e. the first column of M
comes first.  All Kronecker identities in this package assume it, in
particular ``vec(A X B) = (B^T kron A) vec(X)``.
"""

from __future__ import annotations

import json
import math

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


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M†)/2, rejecting badly asymmetric input.

    File round-off must not break Hermiticity invariants, so inputs are
    symmetrized; anything with relative asymmetry above HERMITIAN_RTOL is
    not round-off and is rejected.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    asym = np.linalg.norm(m - m.conj().T)
    scale = max(np.linalg.norm(m), ABS_FLOOR)
    if asym > HERMITIAN_RTOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: relative asymmetry {asym / scale:.3e} "
            f"exceeds {HERMITIAN_RTOL:.1e}"
        )
    return 0.5 * (m + m.conj().T)


class ConfigError(ValueError):
    """An invalid parameter (not invalid data); the message names it."""


def check_positive(name: str, value: float) -> None:
    """Raise ConfigError unless value is a finite number above 0."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {float(value)!r}")


def numerical_rank(s: np.ndarray, rtol: float) -> int:
    """Numerical rank from descending singular values: #{s_i > rtol * s_0}.

    rtol must be positive.  The rank is 0 when there are no singular values
    or when the largest is below ABS_FLOOR (the matrix counts as zero).
    """
    check_positive("rtol", rtol)
    if s.size == 0 or s[0] < ABS_FLOOR:
        return 0
    return int(np.sum(s > rtol * s[0]))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value (L2 operator norm)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# JSON files; the matrix format is {"rows": n, "cols": m, "re": [[...]],
# "im": [[...]]}, row-major nested arrays, exact for IEEE-754 doubles
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
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise ValueError(
            f"matrix payload shape {re.shape}/{im.shape} does not match "
            f"declared {rows}x{cols}"
        )
    return re + 1j * im


def load_json(path):
    """Parse a JSON file; one that does not parse (JSONDecodeError, an integer
    beyond str's digit limit, ...) is a ConfigError that names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def save_json(path, obj) -> None:
    """Write a JSON document: indent 2, sorted keys, a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_matrix(path, m: np.ndarray) -> None:
    """Write a matrix object on one line."""
    with open(path, "w") as fh:
        json.dump(matrix_to_json(m), fh)
        fh.write("\n")


def load_matrix(path, key=None) -> np.ndarray:
    """The matrix object of a JSON file, or the one under ``key`` of its
    object; a file that holds none is a ConfigError that names it."""
    obj = load_json(path)
    if key is not None:
        if not isinstance(obj, dict) or key not in obj:
            raise ConfigError(f"{path}: no {key!r} key")
        obj = obj[key]
    try:
        return matrix_from_json(obj)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
