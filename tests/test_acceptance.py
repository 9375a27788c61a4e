"""Acceptance suite: one test per benchmark criterion, printed pass/fail.

Criterion 2 (the d = 2..30 transition sweep, 17-20 s on 2 cores)
checks the curve; one of its cells (d = 26..30, 5 draws per d) is also
checked draw by draw against golden labels.

Criteria 1 and 3 run the seed-0 benchmark sweeps of
``record_golden_sweeps.CONFIGS`` and score every trial the sweep returns,
draw by draw.  Each trial must carry the test's own seed for its cell,
and the trials' labels and errors must aggregate to the sweep records
exactly.  Criterion 1 checks each solvability label against the paper's
condition: a unique admissible solution exists exactly when no nonzero
admissible matrix commutes with the exact time integral P of the
redrawn network.  Criterion 3 separates the solver from the quadrature:
the exact-P solve must recover the network, the median error must fall
as h^2 along the paired subsampling axis, and it must stay below 0.05
from 20 trapezoid panels on.  Both also compare their sweep records with
the golden seed-0 records in ``golden_sweeps.json``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import qnetid.sweep
from qnetid.dynamics import (
    exact_gram,
    sample_times,
    sample_trajectory,
)
from qnetid.identify import (
    build_P_trapezoid,
    build_Q,
    commutant_dimension,
    commutator,
    relative_error,
    solve_commutator,
)
from qnetid.linalg import DEFAULT_RTOL, spectral_norm
from qnetid.netmodel import basis_density, derive_seed
from qnetid.partialinfo import (
    UnobservableError,
    observability_rank,
    output_stacks,
    physical_decomposition,
    physical_initial_batch,
    reconstruct_hamiltonian,
    sampled_propagator,
)
from qnetid.svgplot import emit_plot
from qnetid.sweep import (
    SweepConfig,
    benchmark_network,
    run_sweep,
)

from conftest import (WorkerLog, expm_propagate, liouvillian, openblas_core, random_admissible,
                      random_density, random_hermitian)
from record_golden_sweeps import CONFIGS, LABEL_CONFIGS, LABEL_FIELDS

MASTER_SEED = 0
#: relative rank cut for the admissible commutant of the exact P, the
#: DEFAULT_RTOL that commutant_dimension cuts at; on the criterion-1 draws
#: sigma_min/sigma_max is <= 1e-15 on the unsolvable ones and >= 1e-5 on
#: the solvable ones, so the verdict does not hinge on this value
COMMUTANT_RTOL = 1e-9
#: golden records of the seed-0 sweeps of criteria 1 and 3
GOLDEN_SWEEPS = Path(__file__).with_name("golden_sweeps.json")
GOLDEN_EPS_RTOL = 1e-9


def golden_mismatches(name: str, records) -> list[str]:
    """Where ``records`` differ from the golden records ``name``
    (``golden_sweeps.json``, written by ``record_golden_sweeps.py``): the
    grid and ``solvability_mean`` must match exactly, the ``eps_*`` fields
    to ``GOLDEN_EPS_RTOL`` relative."""
    golden = json.loads(GOLDEN_SWEEPS.read_text())[name]
    if len(golden) != len(records):
        return [f"{name}: {len(records)} records, golden has {len(golden)}"]
    out = []
    for rec, ref in zip(records, golden):
        cell = f"{name} d={ref['d']} tau={ref['tau']:g} n~={ref['n_tilde']}"
        if (rec.d, rec.tau, rec.n_tilde, rec.solvability_mean) != (
            ref["d"], ref["tau"], ref["n_tilde"], ref["solvability_mean"]
        ):
            out.append(f"{cell}: record {rec} differs from golden {ref}")
            continue
        for key in ("eps_median", "eps_q1", "eps_q3"):
            got, want = getattr(rec, key), ref[key]
            if (got is None) != (want is None) or (
                want is not None and abs(got - want) > GOLDEN_EPS_RTOL * abs(want)
            ):
                out.append(f"{cell}: {key} {got} differs from golden {want}")
    return out


def label_mismatches(name: str, trials) -> list[str]:
    """Where the per-draw labels ``trials``, dicts of ``LABEL_FIELDS``, differ
    from the golden draws ``name``: every draw must match exactly."""
    golden = json.loads(GOLDEN_SWEEPS.read_text())[name]
    differ = [f"{g} != golden {w}" for g, w in zip(trials, golden) if g != w]
    if len(trials) != len(golden):
        differ.append(f"{len(trials)} draws, golden has {len(golden)}")
    return differ


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    return passed


def cell_trials(res):
    """Pair each sweep record with its trials; also list where the trials
    are not the cell's own draws.

    A cell's trials must carry its (d, tau, n~), trial numbers 0..trials-1
    and the seeds ``derive_seed(seed, d, tau, trial)`` the test derives
    itself, so redrawing a network from a trial's seed redraws the
    sweep's network.
    """
    cfg = res.config
    n = cfg.trials
    problems = []
    if len(res.trials) != n * len(res.records):
        problems.append(f"{len(res.trials)} trials for {len(res.records)} records of {n}")
    pairs = []
    for i, rec in enumerate(res.records):
        cell = res.trials[i * n:(i + 1) * n]
        want = [
            (rec.d, rec.tau, rec.n_tilde, trial, derive_seed(cfg.seed, rec.d, rec.tau, trial))
            for trial in range(n)
        ]
        if [(t.d, t.tau, t.n_tilde, t.trial, t.seed) for t in cell] != want:
            problems.append(
                f"d={rec.d} tau={rec.tau:g} n~={rec.n_tilde}: trials are not the cell's draws"
            )
        pairs.append((rec, cell))
    return pairs, problems


def aggregation_mismatches(rec, cell) -> list[str]:
    """Where the trials' labels and errors do not reproduce the record."""
    where = f"tau={rec.tau:g} n~={rec.n_tilde} d={rec.d}"
    out = []
    labels = [t.solvability for t in cell]
    if float(np.mean(labels)) != rec.solvability_mean:
        out.append(f"{where}: trial labels average to {np.mean(labels)}, "
                   f"the record has {rec.solvability_mean}")
    eps = [t.epsilon for t in cell if t.solvability == 1]
    quartiles = (tuple(float(q) for q in np.percentile(eps, [50.0, 25.0, 75.0]))
                 if eps else (None, None, None))
    if quartiles != (rec.eps_median, rec.eps_q1, rec.eps_q3):
        out.append(f"{where}: trial eps quartiles {quartiles} differ from the record's")
    return out


class TestCriterion1RoundTripSolvability:
    """100 seeded networks per d in 2..12, p=0.5, tau=3, dt=0.01, full
    sampling, basis initial state, real-coupling class: mean solvability
    >= 0.9 for d in {2, 3}, and on every draw the sweep's solvability
    label is 1 exactly when the admissible commutant of the exact P is
    trivial, so the mean label over identifiable draws is exactly 1.0.
    The sweep's trial labels must average to each record's solvability."""

    def test_solvability_plateau(self, criterion1_sweep):
        assert COMMUTANT_RTOL == DEFAULT_RTOL  # the cut commutant_dimension applies
        cfg = CONFIGS["criterion1"]
        res, _ = criterion1_sweep
        sbar = {rec.d: rec.solvability_mean for rec in res.records}
        detail = " ".join(f"d={d}:{v:.2f}" for d, v in sorted(sbar.items()))
        ok_small = all(sbar[d] >= 0.9 for d in (2, 3))

        pairs, unmatched_records = cell_trials(res)
        disagreements = []
        identifiable_labels = []
        for rec, cell in pairs:
            unmatched_records.extend(aggregation_mismatches(rec, cell))
            for t in cell:
                seed = derive_seed(cfg.seed, rec.d, rec.tau, t.trial)
                adjacency, rho0 = benchmark_network(rec.d, seed, cfg)
                p_exact = exact_gram(adjacency.astype(complex), rho0, rec.tau)
                dim = commutant_dimension(p_exact, real_coupling=cfg.real_coupling)
                if dim == 0:
                    identifiable_labels.append(t.solvability)
                if t.solvability != int(dim == 0):
                    disagreements.append(
                        f"d={rec.d} trial={t.trial} label={t.solvability} commutant={dim}"
                    )
        n_draws = len(res.records) * cfg.trials
        ok_band = not disagreements and float(np.mean(identifiable_labels)) == 1.0
        ok_records = not unmatched_records
        report(
            "criterion 1 (solvability round trip)", ok_small and ok_band and ok_records,
            f"{detail}; {n_draws - len(identifiable_labels)} of {n_draws} draws have a "
            f"nontrivial commutant, {len(disagreements)} label/commutant disagreements",
        )
        golden = golden_mismatches("criterion1", res.records)
        assert not golden, "sweep records differ from the golden records: " + "; ".join(golden)
        assert ok_records, "sweep trials differ from the records: " + "; ".join(unmatched_records)
        assert ok_small, f"mean solvability below 0.9 at d in 2..3: {detail}"
        assert ok_band, "label disagrees with the commutant condition: " + "; ".join(disagreements)

    def test_golden_records_on_trial_threads(self, criterion1_sweep, monkeypatch, fresh_pool,
                                             tmp_path):
        # every row on two worker processes, whatever the BLAS setting: the
        # stacked blocks are cut in half and run at once, none in the
        # calling process, and the records are still the golden ones and
        # the trials the session run's
        blocks, grams = WorkerLog(tmp_path), qnetid.sweep.trapezoid_grams
        monkeypatch.setattr(qnetid.sweep, "trapezoid_grams",
                            lambda h, *args: blocks.append(len(h)) or grams(h, *args))
        monkeypatch.setattr(qnetid.sweep, "_trial_workers", lambda *args: 2)
        res = run_sweep(CONFIGS["criterion1"])
        pids = {pid for pid, _ in blocks.read()}
        assert pids and os.getpid() not in pids
        golden = golden_mismatches("criterion1", res.records)
        assert not golden, "threaded records differ from the golden records: " + "; ".join(golden)
        assert res.trials == criterion1_sweep[0].trials


class TestCriterion2CriticalSize:
    """tau=3, p=0.5, d swept to 30 (quadrature on n_s/5 samples): the mean
    solvability transitions from 1 to 0 at a critical size of 28 +- 4."""

    def test_transition_location(self):
        cfg = SweepConfig(
            seed=MASTER_SEED, d_min=2, d_max=30, p_link=0.5, taus=(3.0,),
            dt=0.01, subsamples=(5,), trials=100,
        )
        res = run_sweep(cfg)
        curve = {rec.d: rec.solvability_mean for rec in res.records}
        marks = res.critical_sizes()["tau=3,n_tilde=60"]
        d_c = marks["last_full_d"]
        first_zero = marks["first_zero_d"]
        detail = (f"last d at 1.0 -> {d_c}, first d at 0.0 -> {first_zero}; "
                  + " ".join(f"{d}:{v:.2f}" for d, v in sorted(curve.items()) if d >= 20))
        ok = d_c is not None and 24 <= d_c <= 32 and first_zero is not None
        report("criterion 2 (critical size)", ok, detail)
        assert d_c is not None and 24 <= d_c <= 32, detail
        assert first_zero is not None and first_zero > d_c, detail


class TestCriterion2WindowMovesTransition:
    """The critical size is set by the observation window, not by d alone:
    seed 0, 10 draws per d, full sampling, real class.  At tau = 1.5 every
    draw at d = 20..22 reads 0 (17..19 read 1), and at tau = 6 every draw
    at d = 28..30 reads 1, where tau = 3 gives 0.10, 0.00 and 0.00."""

    @pytest.mark.parametrize("tau, d_min, d_max, label", [
        (1.5, 20, 22, 0.0),
        (6.0, 28, 30, 1.0),
    ], ids=["short-window", "long-window"])
    def test_transition_moves_with_tau(self, tau, d_min, d_max, label):
        cfg = SweepConfig(seed=MASTER_SEED, d_min=d_min, d_max=d_max, taus=(tau,),
                          subsamples=(1,), trials=10)
        curve = {rec.d: rec.solvability_mean for rec in run_sweep(cfg).records}
        detail = f"tau={tau:g}: " + " ".join(f"{d}:{v:.2f}" for d, v in sorted(curve.items()))
        ok = curve == {d: label for d in range(d_min, d_max + 1)}
        report("criterion 2 (critical size moves with tau)", ok, detail)
        assert ok, detail


class TestCriterion2GoldenCell:
    """The seed-0 cell d = 26..30, tau = 3, n~ = n_s/5, 5 draws per d, in
    tier 1: every draw's solvability label equals its golden label.

    The errors are deliberately not gated here.  At d >= 24 the
    rtol-truncated solve of a solvable draw keeps a condition number of
    4e7 to 1e9, so any change of rounding (the same system with its rows
    reordered or recombined orthogonally, or 1 against 2 BLAS threads)
    moves its eps far beyond 1e-9: halving the realified system moved the
    eps of the 111 solvable of the 210 seed-0 draws at d = 24..30 (30 per
    d) by 9e-7 to 5.5e-3 relative, and moved no label and no rank.  The
    golden records of criteria 1 and 3 (d <= 12, retained condition
    number below 1e6) keep their 1e-9 eps gate on the quartiles: the
    same change moved those quartiles by at most 7e-11."""

    def test_labels_draw_by_draw(self):
        name = "extended_d26_30"
        res = run_sweep(LABEL_CONFIGS[name])
        got = [{f: getattr(t, f) for f in LABEL_FIELDS} for t in res.trials]
        differ = label_mismatches(name, got)
        curve = " ".join(f"d={rec.d}:{rec.solvability_mean:.1f}" for rec in res.records)
        report("criterion 2 golden cell (labels draw by draw)", not differ,
               f"{len(got)} draws; {curve}; {len(differ)} differ")
        assert not differ, "labels differ from the golden draws: " + "; ".join(differ)


#: a fresh interpreter that runs the criterion-1 config and the golden cell
#: and prints its OpenBLAS kernel, the records and the per-draw labels
OTHER_KERNEL_RUN = """\
import dataclasses, json
from conftest import openblas_core
from record_golden_sweeps import CONFIGS, LABEL_CONFIGS, LABEL_FIELDS
from qnetid.sweep import run_sweep
print(json.dumps({
    "core": openblas_core(),
    "criterion1": [dataclasses.asdict(r) for r in run_sweep(CONFIGS["criterion1"]).records],
    "extended_d26_30": [{f: getattr(t, f) for f in LABEL_FIELDS}
                        for t in run_sweep(LABEL_CONFIGS["extended_d26_30"]).trials],
}))
"""


class TestGoldenRecordsOnAnotherKernel:
    """The golden records do not depend on the host's BLAS kernel: numpy's
    OpenBLAS, run on another x86-64 kernel (``OPENBLAS_CORETYPE``), gives
    the criterion-1 records within the golden rules (quartiles to 1e-9)
    and every label of the golden cell.  Per-draw eps at d >= 20 are
    kernel-specific and not compared."""

    def test_criterion1_and_golden_cell(self):
        host = openblas_core()
        if host is None:
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        kernel = "Sandybridge" if host == "Haswell" else "Haswell"
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=os.pathsep.join(
            [str(Path(qnetid.sweep.__file__).resolve().parents[1]), str(tests)]))
        proc = subprocess.run([sys.executable, "-c", OTHER_KERNEL_RUN], env=env, cwd=tests,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["core"] not in (None, host), f"the child ran {out['core']}, the host {host}"
        differ = golden_mismatches("criterion1", [SimpleNamespace(**r) for r in out["criterion1"]])
        differ += label_mismatches("extended_d26_30", out["extended_d26_30"])
        report("golden records on another BLAS kernel", not differ,
               f"{out['core']} (host {host}); {len(differ)} differ")
        assert not differ, (f"records differ from the golden ones on {out['core']}: "
                            + "; ".join(differ))


class TestCriterion3ErrorBenchmark:
    """Relative error over solvable trials in the band cells: d <= 8 at
    every (tau, n~) in {1,2} x {n_s/20, n_s/10, n_s/5, n_s}, and tau=2 at
    full sampling up to d = 12.  In every band cell:

    * the solver is exact: fed the exact P instead of the trapezoid, it
      recovers every solvable draw to eps <= 1e-9;
    * the median error follows the trapezoid's h^2 law along the paired
      n~ axis: each halving of the step divides it by a ratio in [3, 5]
      and n_s/5 -> n_s by a ratio in [20, 30] (asymptotically 4 and 25;
      the coarsest cells are pre-asymptotic, hence the band is wider
      than criterion 6's);
    * the median is <= 0.05 from n~ = n_s/5 (at least 20 panels) on.

    The sweep's trial errors must reproduce each record's quartiles.
    """

    def test_error_medians(self):
        failures = []
        lines = []
        worst_exact = 0.0
        ratios = {}
        for name in ("criterion3_tau1", "criterion3_tau2"):
            cfg = CONFIGS[name]
            (tau,) = cfg.taus
            res = run_sweep(cfg, kind="error")
            failures.extend(golden_mismatches(name, res.records))
            pairs, problems = cell_trials(res)
            failures.extend(problems)
            n_s = len(sample_times(tau, cfg.dt)) - 1
            medians = {(rec.d, n_s // rec.n_tilde): rec.eps_median for rec in res.records}
            cells = {(rec.d, n_s // rec.n_tilde): cell for rec, cell in pairs}
            for rec, cell in pairs:
                failures.extend(aggregation_mismatches(rec, cell))
            for d in cfg.d_values:
                band = [sub for sub in cfg.subsamples if d <= 8 or (tau == 2.0 and sub == 1)]
                if not band:
                    continue
                # the exact-P solve of every draw that is solvable in a band cell
                solvable = sorted({t.trial for sub in band for t in cells[(d, sub)]
                                   if t.solvability == 1})
                for trial in solvable:
                    seed = derive_seed(cfg.seed, d, tau, trial)
                    adjacency, rho0 = benchmark_network(d, seed, cfg)
                    h = adjacency.astype(complex)
                    exact = solve_commutator(
                        exact_gram(h, rho0, tau),
                        build_Q(rho0, expm_propagate(h, rho0, tau)),
                        real_coupling=cfg.real_coupling,
                    )
                    eps_exact = relative_error(exact.m_hat, adjacency)
                    worst_exact = max(worst_exact, eps_exact)
                    if eps_exact > 1e-9:
                        failures.append(
                            f"tau={tau:g} d={d} trial={trial}: exact-P eps {eps_exact:.2e}"
                        )
                for sub in band:
                    med = medians[(d, sub)]
                    lines.append(f"tau={tau:g} n~=ns/{sub} d={d}: {med:.4f}")
                    if sub in (5, 1) and (med is None or med > 0.05):
                        failures.append(lines[-1] + " over 0.05")
                for coarse, fine, lo, hi in ((20, 10, 3.0, 5.0), (10, 5, 3.0, 5.0), (5, 1, 20.0, 30.0)):
                    if fine not in band:
                        continue
                    ratio = medians[(d, coarse)] / medians[(d, fine)]
                    ratios.setdefault((coarse, fine), []).append(ratio)
                    if not lo <= ratio <= hi:
                        failures.append(
                            f"tau={tau:g} d={d}: median ratio ns/{coarse} -> ns/{fine} "
                            f"{ratio:.2f} outside [{lo:g}, {hi:g}]"
                        )
        print("\n".join(lines))
        ratio_ranges = ", ".join(
            f"ns/{c}->ns/{f} in [{min(r):.2f}, {max(r):.2f}]" for (c, f), r in ratios.items()
        )
        ok = not failures
        report("criterion 3 (error benchmark)", ok,
               f"{len(lines)} cells checked; exact-P worst eps {worst_exact:.1e}; "
               f"median ratios {ratio_ranges}; violations: {failures or 'none'}")
        assert ok, "criterion 3 violated: " + "; ".join(failures)


class TestCriterion4IntegrationIdentity:
    """For exact P and endpoints, the ground truth satisfies the
    commutator equation to 1e-9 relative on 1000 random instances."""

    def test_identity_residual(self):
        rng = np.random.default_rng(MASTER_SEED + 4)
        worst = 0.0
        for _ in range(1000):
            d = int(rng.integers(2, 7))
            h = random_hermitian(rng, d)
            rho0 = random_density(rng, d)
            tau = float(rng.uniform(0.5, 3.0))
            p = exact_gram(h, rho0, tau)
            q = build_Q(rho0, expm_propagate(h, rho0, tau))
            worst = max(worst, spectral_norm(commutator(h, p) - q) / spectral_norm(q))
        ok = worst <= 1e-9
        report("criterion 4 (integration identity)", ok, f"worst relative residual {worst:.2e}")
        assert ok


class TestCriterion5UniquenessEquivalence:
    """Rank-deficiency verdict of the solver and the nullity of the
    admissible commutant never disagree on 500 instances including
    engineered degenerate ones; maximally mixed data is always
    non-unique."""

    def test_equivalence(self):
        rng = np.random.default_rng(MASTER_SEED + 5)
        cases = []
        for d in (2, 3, 4, 5, 6):
            cases.append(np.eye(d, dtype=complex))                      # commutes with all
            cases.append(np.eye(d, dtype=complex) / d)                  # maximally mixed
            proj = np.zeros((d, d), dtype=complex)
            proj[0, 0] = float(d)
            cases.append(proj)                                          # stationary basis state
            rep = np.ones(d)
            rep[: d // 2 + 1] = 2.0
            cases.append(np.diag(rep).astype(complex))                  # repeated diagonal
        while len(cases) < 500:
            d = int(rng.integers(2, 7))
            cases.append(random_density(rng, d) + 0.1 * np.eye(d))
        disagreements = 0
        mixed_ok = True
        for p in cases:
            d = p.shape[0]
            q = commutator(random_admissible(rng, d), p)
            rep = solve_commutator(p, q)
            dim = commutant_dimension(p)
            if (rep.outcome == "non_unique") != (dim > 0):
                disagreements += 1
            if np.allclose(p, np.eye(d) / d) and rep.outcome != "non_unique":
                mixed_ok = False
        ok = disagreements == 0 and mixed_ok
        report("criterion 5 (uniqueness equivalence)", ok,
               f"{len(cases)} instances, {disagreements} disagreements")
        assert ok

    def test_zero_commutant_means_unique_solution(self):
        rng = np.random.default_rng(MASTER_SEED + 55)
        p = random_density(rng, 4) + 0.2 * np.eye(4)
        m_true = random_admissible(rng, 4)
        rep = solve_commutator(p, commutator(m_true, p))
        assert rep.outcome == "unique"
        assert relative_error(rep.m_hat, m_true) <= 1e-8


class TestCriterion6TrapezoidConvergence:
    """Halving the sampling period divides the quadrature error by about
    four (ratio within [3.5, 4.5]) on 50 random instances, d <= 5."""

    def test_second_order(self):
        rng = np.random.default_rng(MASTER_SEED + 6)
        ratios = []
        for _ in range(50):
            d = int(rng.integers(2, 6))
            h = random_hermitian(rng, d, norm=1.5)
            rho0 = random_density(rng, d)
            p_exact = exact_gram(h, rho0, 1.0)
            e_h = spectral_norm(
                build_P_trapezoid(sample_trajectory(h, rho0, 1.0, 0.05)) - p_exact
            )
            e_h2 = spectral_norm(
                build_P_trapezoid(sample_trajectory(h, rho0, 1.0, 0.025)) - p_exact
            )
            ratios.append(e_h / e_h2)
        lo, hi = min(ratios), max(ratios)
        ok = 3.5 <= lo and hi <= 4.5
        report("criterion 6 (trapezoid convergence)", ok, f"ratios in [{lo:.3f}, {hi:.3f}]")
        assert ok


class TestCriterion7PartialInformationRoundTrip:
    """Populations sampled every 1/||H||_2 for random Hamiltonians with
    nonzero diagonal (the 100 draws with d in {2, 3}, then 25 each with
    d = 4, 5, 6), each from the basis-element batch and from the
    preparable batch: observable pairs reconstruct the traceless Hamiltonian,
    and with it the generator (the reference Kronecker form of conftest.py),
    to 1e-8, unobservable ones report failure; every
    zero-diagonal Hamiltonian is structurally unobservable."""

    def test_round_trip(self):
        rng = np.random.default_rng(MASTER_SEED + 7)
        worst_l = worst_h = 0.0
        observable = unobservable = 0
        for d in [2, 3] * 50 + [4, 5, 6] * 25:
            while True:
                h = random_hermitian(rng, d, norm=1.0)
                if np.max(np.abs(np.diag(h).real)) >= 0.1:
                    break
            lv = liouvillian(h)
            h_traceless = h - np.trace(h) / d * np.eye(d)
            u, period = sampled_propagator(h)
            _, obs = observability_rank(h)
            for lambda0 in (np.eye(d * d, dtype=complex), physical_initial_batch(d)[0]):
                ys = output_stacks(u, lambda0)
                if obs:
                    observable += 1
                    h_hat = reconstruct_hamiltonian(ys, lambda0, period)
                    worst_l = max(worst_l, spectral_norm(liouvillian(h_hat) - lv))
                    worst_h = max(worst_h, spectral_norm(h_hat - h_traceless))
                else:
                    unobservable += 1
                    with pytest.raises(UnobservableError):
                        reconstruct_hamiltonian(ys, lambda0, period)
        ok = worst_l <= 1e-8 and worst_h <= 1e-8
        report(
            "criterion 7 (partial-information round trip)", ok,
            f"{observable} observable (worst generator error {worst_l:.2e}, "
            f"worst Hamiltonian error {worst_h:.2e}), {unobservable} unobservable",
        )
        assert ok

    def test_structural_unobservability(self):
        rng = np.random.default_rng(MASTER_SEED + 77)
        violations = 0
        for i in range(100):
            d = 2 if i % 2 == 0 else 3
            h = random_admissible(rng, d)
            rank, _ = observability_rank(h)
            if rank > d * d - 1:
                violations += 1
        ok = violations == 0
        report("criterion 7b (zero-diagonal unobservability)", ok,
               f"{violations} of 100 zero-diagonal instances reached full rank")
        assert ok


class TestCriterion8DecompositionIdentity:
    """The preparable-state decomposition reproduces |k><j| to 1e-14 for
    every pair up to d = 5, and recombining the propagated terms matches
    direct propagation to 1e-10."""

    def test_identity_and_linearity(self):
        rng = np.random.default_rng(MASTER_SEED + 8)
        worst_id = worst_prop = 0.0
        pairs = 0
        for d in range(2, 6):
            h = random_hermitian(rng, d)
            t = float(rng.uniform(0.3, 1.5))
            for k in range(1, d + 1):
                for j in range(k + 1, d + 1):
                    pairs += 1
                    target = np.zeros((d, d), dtype=complex)
                    target[k - 1, j - 1] = 1.0
                    terms = physical_decomposition(d, k, j)
                    acc = sum(c * rho for rho, c in terms)
                    worst_id = max(worst_id, float(np.max(np.abs(acc - target))))
                    u = scipy.linalg.expm(-1j * h * t)
                    direct = u @ target @ u.conj().T
                    recombined = sum(c * expm_propagate(h, rho, t) for rho, c in terms)
                    worst_prop = max(worst_prop, float(np.max(np.abs(direct - recombined))))
        ok = worst_id <= 1e-14 and worst_prop <= 1e-10
        report("criterion 8 (decomposition identity)", ok,
               f"{pairs} pairs, identity error {worst_id:.1e}, propagation error {worst_prop:.1e}")
        assert ok


class TestCriterion9Determinism:
    """Re-running a sweep with the same seed produces byte-identical CSV
    and SVG outputs."""

    def test_byte_identical_outputs(self, tmp_path):
        cfg = SweepConfig(
            seed=MASTER_SEED, d_min=2, d_max=4, taus=(1.0,), dt=0.01,
            subsamples=(5, 1), trials=10,
        )
        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(cfg, out_csv=csv_a)
        run_sweep(cfg, out_csv=csv_b)
        svg_a = emit_plot(csv_a, "solvability", tmp_path / "a.svg")
        svg_b = emit_plot(csv_b, "solvability", tmp_path / "b.svg")
        csv_same = csv_a.read_bytes() == csv_b.read_bytes()
        svg_same = svg_a.read_bytes() == svg_b.read_bytes()

        err_a, err_b = tmp_path / "ea.csv", tmp_path / "eb.csv"
        run_sweep(cfg, kind="error", out_csv=err_a)
        run_sweep(cfg, kind="error", out_csv=err_b)
        err_same = err_a.read_bytes() == err_b.read_bytes()

        ok = csv_same and svg_same and err_same
        report("criterion 9 (determinism)", ok,
               f"csv identical: {csv_same}, svg identical: {svg_same}, "
               f"error csv identical: {err_same}")
        assert ok
