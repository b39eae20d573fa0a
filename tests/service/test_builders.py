"""A process that only serves specs can build every registered scenario.

Experiment modules register their scenario builders on import.  A
``repro serve`` process imports none of them, so the service loads the
experiment registry when a spec names a builder it does not know yet.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments import exp_scaleout
from repro.scenario.compile import compile_scenario
from repro.service import get_service

SRC = Path(__file__).resolve().parents[2] / "src"

# Imports only the scenario IR and the service, as a server process does.
CODE = """
import json, sys
from repro import service
from repro.scenario import ScenarioSpec
assert "scaleout" not in service._BUILDERS, sorted(service._BUILDERS)
spec = ScenarioSpec.from_jsonable(json.loads(sys.argv[1]))
print(repr(service.get_service().run(spec, 0, cache=False).single.bandwidth_mib_s))
"""


def test_fresh_process_builds_a_scaleout_scenario():
    spec = compile_scenario(exp_scaleout.specs()[0], seed=0, builder="scaleout")
    out = subprocess.run(
        [sys.executable, "-c", CODE, json.dumps(spec.to_jsonable())],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 0, out.stderr
    expected = get_service().run(spec, 0, cache=False).single.bandwidth_mib_s
    assert out.stdout.strip() == repr(expected)
