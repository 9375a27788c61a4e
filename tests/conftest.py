import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qnetid
from qnetid.linalg import check_positive
from qnetid.sweep import run_sweep

from record_golden_sweeps import CONFIGS


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


def lstsq_recorder(calls):
    """A stand-in for np.linalg.lstsq that appends the rcond, rank and
    singular values of every call to ``calls``."""
    lstsq = np.linalg.lstsq

    def spy(a, b, rcond=None):
        out = lstsq(a, b, rcond=rcond)
        calls.append({"rcond": rcond, "rank": int(out[2]), "s": out[3]})
        return out

    return spy


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Record every np.linalg.lstsq call of one test."""
    calls = []
    monkeypatch.setattr(np.linalg, "lstsq", lstsq_recorder(calls))
    return calls


@pytest.fixture(scope="session")
def criterion1_sweep():
    """The seed-0 criterion-1 sweep, run once for the session with its
    np.linalg.lstsq calls recorded: (SweepResult, calls)."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "lstsq", lstsq_recorder(calls))
        res = run_sweep(CONFIGS["criterion1"])
    return res, calls
