"""The paper's experiments, one module per figure.

Every module defines ``EXP_ID`` / ``TITLE`` / ``PAPER_REF`` constants
and registers itself in :mod:`repro.experiments.registry`, which the
CLI and the benchmark harness consume.  A sweep experiment registers
its ``specs()`` table, campaign knobs, ``render`` and notes; any other
registers its own procedure.  Either way
``get_experiment(id).run(repetitions=..., seed=...)`` executes it under
the Section III-C protocol and renders its figure.

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
