"""The library names the benchmark's traced pass patches, and the library
calls its phase constructors make.

``perfbench/run.py`` wraps the functions that ``trace_targets()`` lists by
replacing ``owner.<attribute>``; a name that is no longer defined on its
owner makes ``--trace 1`` crash in ``Tracer.install`` with a ``KeyError``.
The train and meta phases of ``perfbench/workloads.py`` build an
``nn.SgdConfig`` and copy parameters with ``clone_params``; the probe builds
both phases on a small untrained network, so a library signature they rely
on cannot change without failing here. The check runs in a subprocess,
because importing ``run.py`` sets the BLAS thread variables of the
importing process.
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

import workloads
from protofuse import completion as cp
params = cp.CompletionNetParams.initialize(4, 3, seed=0, encoder_dim=6, aggregator_hidden=5,
                                           decoder_hidden=7)
setup = workloads.Setup(world=None, stats=None, params=params, seed=0, tasks=[])
workloads.TrainPhase(workloads.clone_params(params), setup, workloads.Tally(), None)
meta = workloads.MetaPhase([setup], 0, workloads.Tally(), None)
copied = all(copy.store.value(name).tobytes() == params.store.value(name).tobytes()
             for copy, _ in meta.copies for name in cp.TENSOR_NAMES)
print(json.dumps({"targets": len(targets), "missing": missing, "copied": copied}))
"""


def test_every_trace_target_is_defined_on_its_owner():
    result = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["targets"] > 0
    assert report["missing"] == []
    assert report["copied"]
