"""Benchmark sweeps: solvability and reconstruction-error curves.

Runs a small version of the random-network benchmark (full runs use 100
trials per cell and extend to d = 30; see the CLI) and renders the two
standard figures as SVG files in ./demo_output/:

* mean solvability rate vs. network size, one curve per (tau, n~);
* median relative reconstruction error vs. network size (log axis).

The solvability label barely depends on the quadrature resolution n~,
while the reconstruction error grows sharply as fewer samples enter the
time integral; both effects are visible already in this small run.
"""

from pathlib import Path

from qnetid import SweepConfig, emit_plot, run_sweep

out = Path(__file__).resolve().parent / "demo_output"
out.mkdir(exist_ok=True)

cfg = SweepConfig(
    seed=0,
    d_min=2,
    d_max=10,
    p_link=0.5,
    taus=(1.0, 3.0),
    dt=0.01,
    subsamples=(20, 1),
    trials=30,
)

# solvability and error sweeps compute the same records (kind only names
# the sweep in the CSV preamble), so one sweep feeds both figures
print("running the sweep (this is the slow part) ...")
res = run_sweep(cfg, kind="solvability", out_csv=out / "sweep.csv")
for curve, marks in res.critical_sizes().items():
    print(f"  {curve}: last d at full solvability -> {marks['last_full_d']}")
worst = max(r.eps_median for r in res.records if r.eps_median is not None)
print(f"  worst median relative error on solvable cells: {worst:.3f}")

emit_plot(out / "sweep.csv", "solvability", out / "solvability.svg")
emit_plot(out / "sweep.csv", "error", out / "error.svg")
print(f"figures written to {out}/solvability.svg and {out}/error.svg")

print("\nsample rows (d, tau, n~, mean solvability, median error):")
for rec in res.records:
    if rec.d in (4, 8, 10):
        print(f"  d={rec.d:2d} tau={rec.tau:g} n~={rec.n_tilde:3d} "
              f"sbar={rec.solvability_mean:4.2f} eps={rec.eps_median:.4f}")
