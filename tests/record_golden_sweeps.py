"""Record the seed-0 acceptance sweeps into ``tests/golden_sweeps.json``.

The file holds the records of the criterion-1 solvability sweep and the
two criterion-3 error sweeps (tau = 1 and tau = 2), keyed by ``CONFIGS``.
The tests in ``test_acceptance.py`` run the same ``CONFIGS`` and compare
their sweep records against it: ``solvability_mean`` exactly, the
``eps_*`` fields to 1e-9 relative.  It also holds the per-draw labels of
the extended cells of ``LABEL_CONFIGS``, which are compared draw by draw
and label only.  Re-record only when a change to the records is intended:

    PYTHONPATH=src python tests/record_golden_sweeps.py
"""

import json
from pathlib import Path

from qnetid.sweep import SweepConfig, run_sweep

GOLDEN = Path(__file__).with_name("golden_sweeps.json")
FIELDS = ("d", "tau", "n_tilde", "solvability_mean", "eps_median", "eps_q1", "eps_q3")
LABEL_FIELDS = ("d", "tau", "n_tilde", "trial", "seed", "solvability")

#: the seed-0 sweep configurations of criteria 1 and 3
CONFIGS = {
    "criterion1": SweepConfig(seed=0, d_min=2, d_max=12, p_link=0.5, taus=(3.0,),
                              dt=0.01, subsamples=(1,), trials=100),
    "criterion3_tau1": SweepConfig(seed=0, d_min=2, d_max=8, p_link=0.5, taus=(1.0,),
                                   dt=0.01, subsamples=(20, 10, 5, 1), trials=100),
    "criterion3_tau2": SweepConfig(seed=0, d_min=2, d_max=12, p_link=0.5, taus=(2.0,),
                                   dt=0.01, subsamples=(20, 10, 5, 1), trials=100),
}

#: seed-0 cells near the solvability transition whose per-draw labels are recorded
LABEL_CONFIGS = {
    "extended_d26_30": SweepConfig(seed=0, d_min=26, d_max=30, p_link=0.5, taus=(3.0,),
                                   dt=0.01, subsamples=(5,), trials=5),
}


def main() -> None:
    golden = {
        name: [{f: getattr(rec, f) for f in FIELDS} for rec in run_sweep(cfg).records]
        for name, cfg in CONFIGS.items()
    }
    golden.update(
        (name, [{f: getattr(t, f) for f in LABEL_FIELDS} for t in run_sweep(cfg).trials])
        for name, cfg in LABEL_CONFIGS.items()
    )
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
