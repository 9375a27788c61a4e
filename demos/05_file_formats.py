"""Tour of the on-disk formats: matrices, trajectories, reports, batches.

Every artifact the package writes is plain JSON or CSV with exact
(shortest round-trip) float encoding, so a pipeline can be split across
processes or machines without losing a bit.
"""

import json
from pathlib import Path

import numpy as np

from qnetid import (
    basis_density,
    identify_topology,
    load_matrix,
    output_stacks,
    physical_initial_batch,
    propagator,
    read_trajectory_csv,
    sample_trajectory,
    sampling_period,
    save_matrix,
    write_trajectory_csv,
)
from qnetid.partialinfo import read_output_batch, write_output_batch

out = Path(__file__).resolve().parent / "demo_output"
out.mkdir(exist_ok=True)

# matrix JSON: {"rows", "cols", "re", "im"} with row-major nested lists
h = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=complex)
save_matrix(out / "hamiltonian.json", h)
assert np.array_equal(load_matrix(out / "hamiltonian.json"), h)
print("matrix JSON round trip: exact")
print((out / "hamiltonian.json").read_text()[:80] + "...")

# trajectory CSV: t, re_1_1, im_1_1, re_2_1, ... in column-major order
traj = sample_trajectory(h, basis_density(3, 1), 1.0, 0.01)
write_trajectory_csv(traj, out / "trajectory.csv")
back = read_trajectory_csv(out / "trajectory.csv")
assert np.array_equal(back.states, traj.states)
print("\ntrajectory CSV round trip: exact "
      f"({back.n_samples + 1} samples, header shown below)")
print((out / "trajectory.csv").read_text().splitlines()[0][:72] + "...")

# identification report JSON
report = identify_topology(traj, truth=h, real_coupling=True)
report.save(out / "report.json")
obj = json.loads((out / "report.json").read_text())
print("\nreport.json keys:", ", ".join(sorted(obj)))
print(f"  outcome={obj['outcome']} solvability={obj['solvability']} "
      f"epsilon={obj['epsilon']:.2e}")

# diagonal-output batch: one CSV per initialization plus a manifest, with
# the populations sampled every 1/||H||_2, as partial-identify saves them
lam0, states = physical_initial_batch(2)
h2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
period = sampling_period(h2)
n = lam0.shape[0]  # d^2 runs, each sampled at t = k * period for k = 0..d^2
pops = output_stacks(propagator(h2, period), lam0, n).real
times = period * np.arange(n + 1)
runs = [(label, times, pops[:, :, i]) for i, (_, label) in enumerate(states)]
manifest = write_output_batch(out / "batch", runs, lam0)
lam_back, runs_back = read_output_batch(manifest)
assert np.array_equal(lam_back, lam0)
print(f"\noutput batch: {len(runs_back)} runs, manifest at {manifest}")
print("  files:", ", ".join(json.loads(manifest.read_text())["outputs"].values()))
