"""The library names the benchmark's traced pass patches.

``perfbench/run.py`` wraps the functions that ``trace_targets()`` lists by
replacing ``owner.<attribute>``; a name that is no longer defined on its
owner makes ``--trace 1`` crash in ``Tracer.install`` with a ``KeyError``.
The check runs in a subprocess, because importing ``run.py`` sets the BLAS
thread variables of the importing process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
sys.path.insert(0, "perfbench")
import run
run.import_library()
targets = run.trace_targets()
missing = [name for owner, attribute, name in targets if attribute not in owner.__dict__]
print(json.dumps({"targets": len(targets), "missing": missing}))
"""


def test_every_trace_target_is_defined_on_its_owner():
    result = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["targets"] > 0
    assert report["missing"] == []
