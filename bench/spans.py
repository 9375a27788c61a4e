"""Per-layer spans recorded from outside the qnetid package.

``Tracer.install`` wraps every public function of the qnetid layer
modules by replacing each binding of the function object in every
``qnetid`` module namespace (``sweep.sample_trajectory`` and
``dynamics.sample_trajectory`` are the same span), plus
``numpy.linalg.svd``.  Nothing under ``src/`` changes.  Spans live in
memory; per name the tracer keeps the call count and the self time (the
span's time minus the time covered by its child spans).

Only the SVD of the realified identification system gets its own span
(``numpy.linalg.svd.system``): an SVD called under
``identify.solve_commutator`` or ``identify.commutant_dimension`` and not
under ``linalg.spectral_norm``.  Every other SVD stays in its caller's
self time, so ``linalg.spectral_norm.self_ms`` is what the norm costs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("netmodel", "dynamics", "identify", "linalg", "partialinfo", "sweep", "cli")
SYSTEM_SVD = "numpy.linalg.svd.system"
_SYSTEM_PARENTS = frozenset({"identify.solve_commutator", "identify.commutant_dimension"})
_NORM = "linalg.spectral_norm"

#: per-op fraction metrics: name -> (span, exception class name it raised)
RAISED_FRACTIONS = {
    "partialinfo.unobservable_frac": ("partialinfo.reconstruct_liouvillian", "UnobservableError"),
    "partialinfo.rejected_frac": ("partialinfo.extract_hamiltonian", "ValueError"),
}


def svd_gflop(shape: tuple[int, ...], compute_uv: bool, is_complex: bool) -> float:
    """Computed flop count of a thin SVD of an m x n matrix, in Gflop.

    Golub & Van Loan's R-SVD counts (m >= n): 6mn^2 + 20n^3 with singular
    vectors, 2mn^2 + 2n^3 for values only; times 4 for complex input.
    Computed from the argument's shape, not measured.
    """
    m, n = max(shape[-2:]), min(shape[-2:])
    flops = 6 * m * n * n + 20 * n**3 if compute_uv else 2 * m * n * n + 2 * n**3
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return batch * flops * (4 if is_complex else 1) / 1e9


class Tracer:
    """Span recorder; ``install`` starts recording, ``uninstall`` restores."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.raised: Counter = Counter()
        self.gflop = 0.0
        self._stack: list[list] = []  # [name, ns covered by children]
        self._restore: list[tuple[object, str, object]] = []

    def _call(self, name, fn, args, kwargs):
        frame = [name, 0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self.raised[(name, type(exc).__name__)] += 1
            raise
        finally:
            dt = time.perf_counter_ns() - t0
            self._stack.pop()
            self.calls[name] += 1
            self.self_ns[name] += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _wrap_svd(self, svd):
        @functools.wraps(svd)
        def wrapper(a, *args, **kwargs):
            names = {f[0] for f in self._stack}
            if not names & _SYSTEM_PARENTS or self._stack[-1][0] == _NORM:
                return svd(a, *args, **kwargs)
            compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
            self.gflop += svd_gflop(np.shape(a), bool(compute_uv), np.iscomplexobj(a))
            return self._call(SYSTEM_SVD, svd, (a,) + args, kwargs)

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"qnetid.{layer}")
            except ImportError:
                continue
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrappers[val] = self._wrap(f"{layer}.{attr}", val)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qnetid" or n.startswith("qnetid."))]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        self._restore.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = self._wrap_svd(np.linalg.svd)

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, val = self._restore.pop()
            setattr(obj, attr, val)

    def self_sum_ns(self) -> int:
        return sum(self.self_ns.values())

    def metric(self, name: str, ops: int) -> float:
        """Per-op value of a per-layer metric; a span never entered reads 0."""
        if name in RAISED_FRACTIONS:
            return self.raised[RAISED_FRACTIONS[name]] / ops
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            return self.calls[span] / ops
        if stat == "self_ms":
            return self.self_ns[span] / 1e6 / ops
        if stat == "gflop" and span == SYSTEM_SVD:
            return self.gflop / ops
        raise KeyError(f"no rule computes per-layer metric {name!r}")
