"""Dense complex linear-algebra kernel.

Column-stacking vectorization, the one order of node pairs, Hermitian
symmetrization, the one numerical-rank rule, spectral norm, and the one
reader and writer of the package's JSON files, the matrix format
included; also ``ConfigError``, raised by every check of a parameter
(not of data), ``naming``, the one way an input names itself in errors,
the one positivity, finiteness, integer and d >= 2 rules, and the hold
of numpy's OpenBLAS at one thread.

The vectorization convention is column stacking throughout:
``vec(M)[(j-1)*d + i] = M[i, j]`` (1-based), i.e. the first column of M
comes first.  All Kronecker identities in this package assume it, in
particular ``vec(A X B) = (B^T kron A) vec(X)``.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack, contextmanager
from functools import lru_cache
from numbers import Integral

import numpy as np

EPS = float(np.finfo(float).eps)

#: the one relative singular-value cut of every rank certificate; no caller sets another
DEFAULT_RTOL = 1e-9
#: if the largest singular value is below this, the matrix counts as zero
ABS_FLOOR = 1e-12
#: largest tolerated relative asymmetry when symmetrizing a Hermitian input
HERMITIAN_RTOL = 1e-10


def vec(m: np.ndarray) -> np.ndarray:
    """Stack the columns of ``m`` into a single vector."""
    return np.asarray(m).reshape(-1, order="F")


@lru_cache(maxsize=None)
def upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node pairs (i, j), i < j row-major, and their index k: read-only, as
    every caller shares them."""
    pairs = (*np.triu_indices(d, 1), np.arange(d * (d - 1) // 2))
    for a in pairs:
        a.flags.writeable = False
    return pairs


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M†)/2 of the matrices on the last two
    axes.  File round-off must not break Hermiticity invariants, so inputs
    are symmetrized; a NaN or infinite entry, and a relative asymmetry above
    HERMITIAN_RTOL (the largest of a stack in the message), are rejected."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix is not finite: it has a NaN or infinite entry")
    mh = m.conj().swapaxes(-1, -2)
    scale = np.maximum(np.linalg.norm(m, axis=(-2, -1)), ABS_FLOOR)
    rel = np.sqrt(np.square(np.abs(m - mh)).sum(axis=(-2, -1))) / scale
    if np.any(rel > HERMITIAN_RTOL):
        raise ValueError(f"matrix is not Hermitian: relative asymmetry {np.max(rel):.3e} "
                         f"exceeds {HERMITIAN_RTOL:.1e}")
    return 0.5 * (m + mh)


class ConfigError(ValueError):
    """An invalid parameter (not invalid data); the message names it."""


@contextmanager
def naming(source, error=None):
    """Re-raise a ValueError from inside as ``"<source>: <reason>"``, from None:
    as ``error`` if given, else a ConfigError as one and any other as a plain
    ValueError.  A callable ``source`` is called only on such an error."""
    try:
        yield
    except ValueError as exc:
        kind = error or (ConfigError if isinstance(exc, ConfigError) else ValueError)
        raise kind(f"{source() if callable(source) else source}: {exc}") from None


def check_positive(name: str, value: float) -> None:
    """Raise ConfigError unless value is a finite number (``is_finite``) above 0."""
    if not (is_finite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {shown_number(value)}")


def check_network_size(d: int) -> None:
    """The one network-size rule: a network has d >= 2 nodes (ConfigError)."""
    if d < 2:
        raise ConfigError(f"d must be at least 2, got {d}")


def shown_number(value) -> str:
    """A number as a message shows it: the repr of its float, or, for an
    integer beyond the float range, those words instead of its digits."""
    if is_integer(value) and not is_finite(value):
        return "an integer beyond the float range"
    return repr(float(value))


def is_finite(value) -> bool:
    """The one finiteness rule for a number: ``math.isfinite``, where an
    integer beyond the float range is not finite (not an OverflowError)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def is_integer(value) -> bool:
    """The one integer rule: a ``numbers.Integral`` (numpy integers too), not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def numerical_rank(s: np.ndarray, rtol: float):
    """Numerical rank #{s_i > rtol * s_0} of descending singular values on
    the last axis; a stack's as an array.  rtol must be positive.  The rank
    is 0 without singular values or when the largest is below ABS_FLOOR."""
    check_positive("rtol", rtol)
    s = np.asarray(s)
    top = s[..., :1]
    rank = np.sum((s > rtol * top) & (top >= ABS_FLOOR), axis=-1)
    return int(rank) if s.ndim == 1 else rank


def spectral_norm(a: np.ndarray):
    """Largest singular value (L2 operator norm); a stack's as an array."""
    a = np.asarray(a)
    norms = np.linalg.svd(a, compute_uv=False)[..., 0] if a.size else np.zeros(a.shape[:-2])
    return float(norms) if a.ndim <= 2 else norms


@lru_cache(maxsize=None)
def _openblas_threads():
    """numpy's OpenBLAS thread-count getter and setter, or None; found on first use."""
    import ctypes  # numpy has loaded it
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, put.argtypes, put.restype = [], [ctypes.c_int], None
    return get, put


@contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread and restore its count on exit, exceptions
    included; yields False, doing nothing, under another BLAS.  Entered one thread
    at a time by run_sweep, solve_commutator and reconstruct_hamiltonian."""
    calls = _openblas_threads()
    with ExitStack() as restore:
        if calls is not None:
            get, put = calls
            restore.callback(put, get())
            put(1)
        yield calls is not None


# ---------------------------------------------------------------------------
# JSON files; the matrix format is {"rows": n, "cols": m, "re": [[...]],
# "im": [[...]]}, row-major nested arrays of finite numbers, exact for
# IEEE-754 doubles
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
        rows, cols = obj["rows"], obj["cols"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if not (is_integer(rows) and is_integer(cols)):
        raise ValueError(f"malformed matrix object: rows and cols must be integers, "
                         f"got {rows!r} and {cols!r}")
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise ValueError(
            f"matrix payload shape {re.shape}/{im.shape} does not match "
            f"declared {rows}x{cols}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite, not NaN or Infinity")
    return re + 1j * im


def load_json(path):
    """Parse a JSON file; one that does not parse (JSONDecodeError, an integer
    beyond str's digit limit, ...) is a ConfigError that names the file."""
    with naming(path, ConfigError), open(path) as fh:
        return json.load(fh)


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


def load_matrix(path) -> np.ndarray:
    """The matrix object of a JSON file; a file that holds none is a
    ConfigError that names it."""
    obj = load_json(path)
    with naming(path, ConfigError):
        return matrix_from_json(obj)
