"""qnetid: coupling-matrix reconstruction for closed quantum dynamical networks.

The package identifies the interaction structure (hence the topology) of
an autonomous quantum network from sampled density-operator
trajectories (hbar = 1): the time integral P of the trajectory and the
endpoint difference Q = i*(rho_tau - rho_0) pin the coupling matrix M
down to the commutator equation [M, P] = Q, which is solved as a
constrained linear system with an explicit uniqueness certificate.  A
second route recovers the Hamiltonian from populations sampled after
d^2 preparations, via an observability argument on the sampled propagator.
A benchmark harness sweeps random quantum-walk networks and renders
solvability and error curves.
"""

__version__ = "0.1.0"

import types as _types

from .linalg import (
    ConfigError,
    hermitize,
    load_matrix,
    numerical_rank,
    save_matrix,
    spectral_norm,
    vec,
)
from .dynamics import (
    Trajectory,
    check_density,
    exact_gram,
    read_trajectory_csv,
    sample_trajectory,
    write_trajectory_csv,
)
from .netmodel import (
    basis_density,
    derive_seed,
    erdos_renyi,
    is_connected,
)
from .identify import (
    IdentificationReport,
    build_P_trapezoid,
    build_Q,
    commutant_dimension,
    commutator,
    identify_topology,
    relative_error,
    solve_commutator,
)
from .partialinfo import (
    UnobservableError,
    observability_rank,
    output_stacks,
    physical_decomposition,
    physical_initial_batch,
    reconstruct_hamiltonian,
    sampled_propagator,
)
from .sweep import (
    CellRecord,
    SweepConfig,
    SweepResult,
    TrialRecord,
    read_sweep_csv,
    run_benchmark_trials,
    run_sweep,
)
from .svgplot import emit_plot

# the names imported above, none of them a module
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
