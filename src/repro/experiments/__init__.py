"""The paper's experiments, one module per figure.

Every module exposes the same surface:

* ``EXP_ID`` / ``TITLE`` / ``PAPER_REF`` constants,
* ``run(repetitions=..., seed=...) -> ExperimentOutput`` executing the
  experiment under the Section III-C protocol and rendering its figure,

and registers itself in :mod:`repro.experiments.registry`, which the
CLI and the benchmark harness consume.

Default repetition counts are the paper's 100; tests and benchmarks
pass reduced counts.
"""

from .common import ExperimentOutput, protocol_options, run_specs
from .registry import EXPERIMENTS, ExperimentInfo, get_experiment, list_experiments

__all__ = [
    "ExperimentOutput",
    "run_specs",
    "protocol_options",
    "EXPERIMENTS",
    "ExperimentInfo",
    "get_experiment",
    "list_experiments",
]
