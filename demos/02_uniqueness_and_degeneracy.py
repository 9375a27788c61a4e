"""When is the reconstruction unique?  Degenerate data demystified.

The coupling matrix is unique exactly when no nonzero admissible matrix
commutes with the data integral P.  This demo walks through the three
classic ways the condition fails, all with perfectly noise-free data:

1. a maximally mixed initial state (the trajectory never moves),
2. an excitation placed on an isolated node (the rest of the network is
   never probed),
3. a graph automorphism fixing the excited node (symmetric nodes are
   indistinguishable from this vantage point).

Case 3 is why benchmark solvability dips below 1 for small networks:
random graphs frequently have symmetries at d <= 9 and almost never
afterwards.  Restricting the solve to real couplings rescues case 3
when the truth is a plain adjacency matrix, but nothing rescues 1 or 2;
those trajectories simply do not carry the information.
"""

import numpy as np

from qnetid import (
    basis_density,
    build_P_trapezoid,
    build_Q,
    commutant_dimension,
    exact_gram,
    sample_trajectory,
    solve_commutator,
)

TAU = 3.0


def verdicts(p, q):
    general = solve_commutator(p, q)
    real = solve_commutator(p, q, real_coupling=True)
    return (f"general class: {general.outcome} (commutant dim "
            f"{commutant_dimension(p)}); real couplings: {real.outcome}")


print("1. maximally mixed state, any network")
h = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)  # path graph
rho0 = np.eye(3, dtype=complex) / 3
p = exact_gram(h, rho0, TAU)
q = build_Q(rho0, sample_trajectory(h, rho0, TAU, TAU).states[-1])
print("   ", verdicts(p, q))

print("2. excitation on an isolated node (edge 1-2, node 3 isolated)")
h = np.zeros((3, 3), dtype=complex)
h[0, 1] = h[1, 0] = 1.0
rho0 = basis_density(3, 3)
p = exact_gram(h, rho0, TAU)
q = build_Q(rho0, sample_trajectory(h, rho0, TAU, TAU).states[-1])
print("   ", verdicts(p, q))
print("    (the 1-2 edge never influences the data; no method can see it)")

print("3. triangle graph, any excited node (the other two are symmetric)")
h = (np.ones((3, 3)) - np.eye(3)).astype(complex)
rho0 = basis_density(3, 1)
traj = sample_trajectory(h, rho0, TAU, 0.01)
p = build_P_trapezoid(traj)
q = build_Q(traj.states[0], traj.states[-1])
print("   ", verdicts(p, q))
rep = solve_commutator(p, q, real_coupling=True)
print(f"    real-coupling estimate error: {np.max(np.abs(rep.m_hat - h)):.2e} "
      "(exact despite the symmetry)")

print("4. healthy instance for comparison (path graph, end excitation)")
h = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
rho0 = basis_density(3, 1)
p = exact_gram(h, rho0, TAU)
q = build_Q(rho0, sample_trajectory(h, rho0, TAU, TAU).states[-1])
print("   ", verdicts(p, q))
