import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import qnetid
import qnetid.sweep
from qnetid.linalg import hermitize
from qnetid.sweep import _end_pool, run_sweep

from record_golden_sweeps import CONFIGS, LABEL_CONFIGS


def random_hermitian(rng, d, norm=None):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (g + g.conj().T)
    if norm is not None:
        h = h * (norm / np.linalg.norm(h, 2))
    return h


def liouvillian(h):
    """Reference vectorized generator L = -i (I kron H - H^T kron I):
    under column stacking L vec(rho) = vec(-i [H, rho])."""
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def expm_propagate(h, rho, t):
    """Reference propagation U rho U-dagger, U = expm(-i H t) by scipy:
    independent of the eigendecomposition qnetid propagates through."""
    u = scipy.linalg.expm(-1j * np.asarray(h) * t)
    return hermitize(u @ rho @ u.conj().T)


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_admissible(rng, d, real=False):
    h = random_hermitian(rng, d)
    if real:
        h = h.real.astype(complex)
        h = 0.5 * (h + h.T)
    np.fill_diagonal(h, 0.0)
    return h


def under_each_blas_setting(code):
    """The standard output of ``code`` run by a fresh interpreter with
    OPENBLAS_NUM_THREADS unset, at 1 and at 2, in that order."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(qnetid.__file__).resolve().parents[1])
    runs = []
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}):
        proc = subprocess.run([sys.executable, "-c", code], env={**env, **blas},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    return runs


def openblas_core():
    """The kernel numpy's bundled OpenBLAS runs (``OPENBLAS_CORETYPE`` picks
    it before numpy loads), or None under another BLAS."""
    import ctypes
    try:
        core = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    core.argtypes, core.restype = [], ctypes.c_char_p
    return core().decode()


def lstsq_recorder(calls):
    """A stand-in for np.linalg.lstsq that appends the rcond, rank and
    singular values of every call to ``calls``."""
    lstsq = np.linalg.lstsq

    def spy(a, b, rcond=None):
        out = lstsq(a, b, rcond=rcond)
        calls.append({"rcond": rcond, "rank": int(out[2]), "s": out[3]})
        return out

    return spy


def values_svd_recorder(calls):
    """A stand-in for np.linalg.svd that appends the row count and singular
    values of every values-only SVD of one matrix to ``calls``."""
    svd = np.linalg.svd

    def spy(a, full_matrices=True, compute_uv=True, hermitian=False):
        out = svd(a, full_matrices, compute_uv, hermitian)
        if not compute_uv and np.ndim(a) == 2:
            calls.append({"rows": len(a), "s": out})
        return out

    return spy


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Record every np.linalg.lstsq call of one test."""
    calls = []
    monkeypatch.setattr(np.linalg, "lstsq", lstsq_recorder(calls))
    return calls


class WorkerLog:
    """A list that the sweep's forked workers append to as well: each
    process appends ``(pid, item)`` to its own file under ``directory``,
    since a worker's memory is its own, and ``read`` returns them all, in
    order within a process."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def append(self, item):
        with open(self.directory / f"{os.getpid()}.pickle", "ab") as fh:
            pickle.dump((os.getpid(), item), fh)

    def read(self) -> list:
        entries = []
        for path in sorted(self.directory.glob("*.pickle")):
            with open(path, "rb") as fh:
                while fh.peek(1):
                    entries.append(pickle.load(fh))
        return entries

    def clear(self):
        for path in self.directory.glob("*.pickle"):
            path.unlink()


@pytest.fixture
def fresh_pool():
    """End the process's trial pool before and after the test, so that the
    workers of its pooled rows are forked under its patches, and no later
    test inherits them."""
    _end_pool()
    yield
    _end_pool()


@pytest.fixture(autouse=True)
def no_patched_pool(request):
    """A trial pool forked while a test's monkeypatches held keeps them:
    end it with that test."""
    before = qnetid.sweep._pools.get(os.getpid())
    yield
    if ("monkeypatch" in request.fixturenames
            and qnetid.sweep._pools.get(os.getpid()) not in (None, before)):
        _end_pool()


@pytest.fixture(scope="session")
def criterion1_sweep(tmp_path_factory):
    """The seed-0 criterion-1 sweep, run once for the session with the
    np.linalg.lstsq calls and the values-only SVDs of one system of every
    process recorded, in one list: (SweepResult, calls).  Its pool is
    forked under the recorders and ended with the sweep."""
    calls = WorkerLog(tmp_path_factory.mktemp("lstsq"))
    _end_pool()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "lstsq", lstsq_recorder(calls))
            mp.setattr(np.linalg, "svd", values_svd_recorder(calls))
            res = run_sweep(CONFIGS["criterion1"])
    finally:
        _end_pool()
    return res, [call for _, call in calls.read()]


@pytest.fixture(scope="session")
def criterion3_sweeps():
    """The seed-0 criterion-3 error sweeps, run once for the session: name -> SweepResult."""
    return {name: run_sweep(CONFIGS[name], kind="error")
            for name in ("criterion3_tau1", "criterion3_tau2")}


@pytest.fixture(scope="session")
def golden_cell_sweep():
    """The seed-0 d = 26..30 golden cell, run once for the session."""
    return run_sweep(LABEL_CONFIGS["extended_d26_30"])
