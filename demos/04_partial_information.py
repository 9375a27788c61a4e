"""Identification from populations only (diagonal measurements).

When only diag(rho_t) is measurable, a single trajectory is not enough:
the network must be re-initialized in d^2 linearly independent states.
Their populations, sampled every Delta = 1/||H||_2, are the Markov
parameters C A^k of the vectorized propagator A = conj(U) kron U.  The
simulation below builds them from the powers of the d x d propagator
U = exp(-i H Delta) alone.  When the (selector, propagator) pair is
observable the Markov parameters determine A.  Realigned, A is the
rank-one vec(conj U) vec(U)^T, so its dominant singular pair gives U up
to a phase and its second singular value certifies a closed-system
evolution; the eigenphases of U give the Hamiltonian up to an identity
shift.

The demo also shows the structural catch: a zero-diagonal Hamiltonian
(a bare coupling matrix) is never observable through the diagonal
selector, because it is itself invisible to both the dynamics it
generates and the selector.  Diagonal node energies restore
observability, so the partial-information route applies to networks
with distinguishable node frequencies.
"""

import numpy as np

from qnetid import (
    observability_rank,
    output_stacks,
    physical_decomposition,
    physical_initial_batch,
    propagator,
    reconstruct_hamiltonian,
    sampling_period,
    spectral_norm,
)

d = 2
h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)  # coupled, detuned nodes (traceless)
delta = sampling_period(h)
u = propagator(h, delta)
print(f"sampling period 1/||H|| = {delta:.4f}")

rank, observable = observability_rank(u)
print(f"pair rank {rank} of {d * d}: {'observable' if observable else 'not observable'}")

# the canonical basis elements |k><j| as (non-physical) initializations
lam0 = np.eye(d * d, dtype=complex)
h_hat = reconstruct_hamiltonian(output_stacks(u, lam0, d * d), lam0, delta)
print(f"basis elements:    Hamiltonian error {spectral_norm(h_hat - h):.2e}")

# measured-data route: the populations of d^2 preparable states
lam_phys, states = physical_initial_batch(d)
print(f"\npreparable initializations: {[label for _, label in states]}")
h_est = reconstruct_hamiltonian(output_stacks(u, lam_phys, d * d), lam_phys, delta)
print(f"preparable states: Hamiltonian error {spectral_norm(h_est - h):.2e} "
      f"from {d * d + 1} population samples per run")

# an open system: every step U X U^H followed by dephasing X -> (1 - p) X + p diag(X)
p = 1e-3
xs = lam0.T.reshape(-1, d, d).transpose(0, 2, 1)  # the columns of Lambda0 as matrices
ys = []
for _ in range(d * d + 1):
    ys.append(np.einsum("kii->ik", xs))
    xs = u @ xs @ u.conj().T
    xs = (1 - p) * xs + p * xs * np.eye(d)
try:
    reconstruct_hamiltonian(np.array(ys), lam0, delta)
except ValueError as exc:
    print(f"\ndephased by p = {p:g} per step: rejected, {exc}")

# the basis element |1><2| is not a physical state; its preparable surrogate
terms = physical_decomposition(d, 1, 2)
print("\n|1><2| as a combination of preparable states:")
for rho, coeff in terms:
    print(f"  coefficient {coeff:+.2f} on state diag={np.diag(rho).real.round(2)}")

# and the structural obstruction for bare coupling matrices
sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
rank, observable = observability_rank(propagator(sx, sampling_period(sx)))
print(f"\nbare coupling matrix: rank {rank} of {d * d} -> "
      f"{'observable' if observable else 'not observable (structural)'}")
