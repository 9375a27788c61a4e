"""Command-line front end.

Verbs: simulate, identify, sweep solvability|error, observability,
partial-identify, decompose, plot.  Exit codes: 0 on success, 2 for a
``ConfigError`` (the library checks the flag values, ``SweepConfig.validate``
a sweep's, naming the field), a malformed input file or any path error
(``OSError``), 3 for numerical failures and invalid data (partial sweep
CSVs are flushed row by row, so whatever completed survives).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import read_trajectory_csv, sample_trajectory, write_trajectory_csv
from .identify import identify_topology, relative_error
from .linalg import (ConfigError, check_network_size, hermitize, load_json, load_matrix, naming,
                     save_json, save_matrix)
from .netmodel import basis_density, connected_erdos_renyi, erdos_renyi
from .partialinfo import (
    observability_rank,
    output_stacks,
    physical_decomposition,
    physical_initial_batch,
    reconstruct_hamiltonian,
    sampled_propagator,
    write_output_batch,
)
from .sweep import SweepConfig, run_sweep
from .svgplot import emit_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetid",
        description="Coupling-matrix reconstruction for closed quantum networks",
    )
    parser.add_argument("--version", action="version", version=f"qnetid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample a density-operator trajectory")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--hamiltonian", help="matrix JSON file with the network Hamiltonian")
    src.add_argument("--er-d", type=int, help="draw an Erdos-Renyi graph with this many nodes")
    sim.add_argument("--er-p", type=float, default=0.5, help="link probability for --er-d")
    sim.add_argument("--connected-only", action="store_true",
                     help="redraw --er-d graphs until connected")
    sim.add_argument("--seed", type=int, default=0, help="seed for --er-d")
    state = sim.add_mutually_exclusive_group()
    state.add_argument("--rho0", help="matrix JSON file with the initial state")
    state.add_argument("--excite-node", type=int, default=None,
                       help="start from the basis state of this node (1-based, default 1)")
    sim.add_argument("--tau", type=float, required=True)
    sim.add_argument("--dt", type=float, required=True)
    sim.add_argument("--out", required=True, help="trajectory CSV to write")
    sim.add_argument("--save-hamiltonian", help="also save the (generated) Hamiltonian")

    ident = sub.add_parser("identify", help="reconstruct the coupling matrix from a trajectory")
    ident.add_argument("--trajectory", required=True, help="trajectory CSV from 'simulate'")
    ident.add_argument("--subsample", type=int, default=1,
                       help="quadrature subsampling divisor of n_s")
    ident.add_argument("--h0", help="matrix JSON of a known node Hamiltonian to subtract")
    ident.add_argument("--truth", help="matrix JSON of the true coupling matrix (for epsilon)")
    ident.add_argument("--general-coupling", action="store_true",
                       help="solve in the full admissible class instead of real couplings")
    ident.add_argument("--out", help="write the identification report JSON here")

    sw = sub.add_parser("sweep", help="benchmark sweeps over random networks",
                        description="each flag sets the SweepConfig field of its name")
    sw.add_argument("target", choices=("solvability", "error"))
    sw.add_argument("--config", help="JSON file with a sweep configuration")
    for f in fields(SweepConfig):
        if isinstance(f.default, bool):  # real_coupling, cleared by the flag
            sw.add_argument("--general-coupling", action="store_false", dest=f.name,
                            default=None, help="identify in the full admissible class")
        elif isinstance(f.default, tuple):  # taus and subsamples: --tau and --subsample
            sw.add_argument(f"--{f.name[:-1]}", type=type(f.default[0]), action="append",
                            dest=f.name, metavar=f.name[:-1].upper(), help="repeatable")
        else:
            sw.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default))
    sw.add_argument("--out-dir", required=True)

    obs = sub.add_parser("observability",
                         help="rank test of the diagonal-output pair, "
                              "sampled every 1/||H - tr(H)/d I||_2")
    obs.add_argument("--hamiltonian", required=True, help="matrix JSON with the Hamiltonian")

    part = sub.add_parser("partial-identify",
                          help="recover the Hamiltonian from the populations of d^2 "
                               "preparable states, sampled every 1/||H - tr(H)/d I||_2")
    part.add_argument("--hamiltonian", required=True,
                      help="matrix JSON with the network Hamiltonian to simulate")
    part.add_argument("--save-outputs",
                      help="directory for the samples identified from: the populations of "
                           "each state at t = k*period, k = 0..d^2, one CSV per state")
    part.add_argument("--out", help="write a summary JSON here")

    dec = sub.add_parser("decompose", help="physical decomposition of a basis element |k><j|")
    dec.add_argument("--dim", type=int, required=True)
    dec.add_argument("--k", type=int, required=True)
    dec.add_argument("--j", type=int, required=True)
    dec.add_argument("--out-dir", help="write each state as matrix JSON plus coefficients")

    plot = sub.add_parser("plot", help="render a sweep CSV to SVG")
    plot.add_argument("--csv", required=True)
    plot.add_argument("--kind", choices=("solvability", "error"), required=True)
    plot.add_argument("--out", required=True)

    return parser


def _load_hermitian(path, d=None) -> np.ndarray:
    """A Hermitian matrix of a network (``check_network_size``), d x d when d is given."""
    m = load_matrix(path)
    with naming(path):
        h = hermitize(m)
        if d not in (None, h.shape[0]):
            raise ConfigError(f"expected d = {d} nodes, got a {h.shape} matrix")
        check_network_size(h.shape[0])
    return h


def _cmd_simulate(args) -> int:
    if args.hamiltonian is not None:
        h = _load_hermitian(args.hamiltonian)
    else:
        draw = connected_erdos_renyi if args.connected_only else erdos_renyi
        h = draw(args.er_d, args.er_p, args.seed).astype(complex)
    d = h.shape[0]
    if args.rho0:
        rho0 = _load_hermitian(args.rho0, d=d)
    else:
        node = 1 if args.excite_node is None else args.excite_node
        rho0 = basis_density(d, node)
    traj = sample_trajectory(h, rho0, args.tau, args.dt)
    write_trajectory_csv(traj, args.out)
    if args.save_hamiltonian:
        save_matrix(args.save_hamiltonian, h)
    print(f"wrote {traj.n_samples + 1} samples (d={d}, tau={args.tau:g}, dt={args.dt:g}) "
          f"to {args.out}")
    return EXIT_OK


def _cmd_identify(args) -> int:
    traj = read_trajectory_csv(args.trajectory)
    with naming(args.trajectory):
        check_network_size(traj.dim)
    h0, truth = (_load_hermitian(path, d=traj.dim) if path else None
                 for path in (args.h0, args.truth))
    report = identify_topology(
        traj,
        subsample=args.subsample,
        known_h0=h0,
        truth=truth,
        real_coupling=not args.general_coupling,
    )
    print(f"outcome:     {report.outcome}")
    print(f"solvability: {report.solvability} (rank {report.label_rank}/{report.required_rank})")
    print(f"residual:    {report.residual:.3e}")
    if report.epsilon is not None:
        print(f"epsilon:     {report.epsilon:.3e}")
    if args.out:
        report.save(args.out)
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    obj = load_json(args.config) if args.config else {}
    with naming(args.config):
        cfg = SweepConfig.from_json(obj)
    cfg = cfg.override(**{f.name: getattr(args, f.name) for f in fields(SweepConfig)}).validated()

    out_csv = Path(args.out_dir) / f"{args.target}.csv"
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    result = run_sweep(cfg, kind=args.target, out_csv=out_csv)
    print(f"wrote {len(result.records)} cells to {out_csv}")
    for curve, marks in result.critical_sizes().items():
        print(f"  {curve}: last d with mean solvability 1 -> {marks['last_full_d']}, "
              f"first d at 0 -> {marks['first_zero_d']}")
    return EXIT_OK


def _cmd_observability(args) -> int:
    h = _load_hermitian(args.hamiltonian)
    rank, observable = observability_rank(h)
    print(f"source: {args.hamiltonian}")
    print(f"observability rank: {rank} of {h.shape[0] ** 2}")
    print(f"observable: {'yes' if observable else 'no'}")
    return EXIT_OK


def _cmd_partial_identify(args) -> int:
    h = _load_hermitian(args.hamiltonian)
    d = h.shape[0]
    u, period = sampled_propagator(h)
    lambda0, states = physical_initial_batch(d)
    mode = f"populations of the preparable states, sampled every {period:.6g}"

    # the observability stack has full rank n = d^2 once this returns; it
    # raises UnobservableError, naming the rank, otherwise
    ys = output_stacks(u, lambda0)
    h_hat = reconstruct_hamiltonian(ys, lambda0, period)
    print(f"observability rank: {d * d} of {d * d} (observable)")
    ham_err = relative_error(h_hat, h - (np.trace(h) / d) * np.eye(d))
    print(f"mode: {mode}")
    print(f"hamiltonian relative error: {ham_err:.3e} (traceless gauge)")

    if args.save_outputs:
        times = period * np.arange(d * d + 1)
        runs = [(label, times, ys[:, :, i].real) for i, (_, label) in enumerate(states)]
        manifest = write_output_batch(args.save_outputs, runs, lambda0)
        print(f"output batch written to {manifest.parent}")

    if args.out:
        save_json(args.out, {
            "observability_rank": d * d,
            "observable": True,
            "mode": mode,
            "hamiltonian_relative_error": ham_err,
        })
    return EXIT_OK


def _cmd_decompose(args) -> int:
    terms = physical_decomposition(args.dim, args.k, args.j)
    print(f"|{args.k}><{args.j}| over {len(terms)} preparable state(s):")
    for idx, (rho, coeff) in enumerate(terms, start=1):
        print(f"  term {idx}: coefficient {coeff.real:+.3f}{coeff.imag:+.3f}i")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        coeffs = []
        for idx, (rho, coeff) in enumerate(terms, start=1):
            name = f"state_{idx:02d}.json"
            save_matrix(out / name, rho)
            coeffs.append({"file": name, "re": coeff.real, "im": coeff.imag})
        save_json(out / "coefficients.json", {"k": args.k, "j": args.j, "terms": coeffs})
        print(f"states written to {out}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    path = emit_plot(args.csv, args.kind, args.out)
    print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "identify": _cmd_identify,
    "sweep": _cmd_sweep,
    "observability": _cmd_observability,
    "partial-identify": _cmd_partial_identify,
    "decompose": _cmd_decompose,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
