"""Experiment harness: one module per table/figure of the evaluation.

Every experiment module exposes ``run(config) -> ExperimentResult`` and
registers it in :mod:`repro.experiments.registry` at import time; the
CLI (``python -m repro <experiment>``) and the benchmark suite
(``benchmarks/``) resolve experiments through the registry.  The
mapping from experiment id to the paper's tables/figures is documented
in DESIGN.md and the measured-vs-expected record in EXPERIMENTS.md.

The modules are imported here in the paper's evaluation order, which
fixes the registry's iteration order.
"""

from repro.experiments.common import ExperimentConfig, ExperimentResult
from repro.experiments.registry import (
    experiment_ids,
    get_experiment,
    iter_experiments,
    register,
)

# Imported for their registration side effect, in paper order.
from repro.experiments import table1_model  # noqa: F401  (table1)
from repro.experiments import table2_strategies  # noqa: F401  (table2)
from repro.experiments import table3_validation  # noqa: F401  (table3)
from repro.experiments import table4_importance  # noqa: F401  (table4)
from repro.experiments import fig4_reliability  # noqa: F401  (fig4)
from repro.experiments import fig5_enf  # noqa: F401  (fig5)
from repro.experiments import fig6_cost  # noqa: F401  (fig6)
from repro.experiments import fig7_renewal  # noqa: F401  (fig7)
from repro.experiments import fig8_fleet  # noqa: F401  (fig8)
from repro.experiments import optimum  # noqa: F401
from repro.experiments import sensitivity  # noqa: F401
from repro.experiments import uncertainty  # noqa: F401
from repro.experiments import ablation_rdep  # noqa: F401  (ablation-rdep)
from repro.experiments import ablation_phases  # noqa: F401  (ablation-phases)
from repro.experiments import ablation_detection  # noqa: F401  (ablation-detection)
from repro.experiments import ctmc_crossval  # noqa: F401  (ctmc-crossval)
from repro.experiments import periodic_crossval  # noqa: F401  (periodic-crossval)
from repro.experiments import rareevent  # noqa: F401

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "register",
    "get_experiment",
    "iter_experiments",
    "experiment_ids",
]
