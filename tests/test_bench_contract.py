"""The library names the benchmark's traced pass patches, and the library
calls its phase constructors make.

``perfbench/run.py`` wraps the functions that ``trace_targets()`` lists by
replacing ``owner.<attribute>``; a name that is no longer defined on its
owner makes ``--trace 1`` crash in ``Tracer.install`` with a ``KeyError``.
The train and meta phases of ``perfbench/workloads.py`` build an
``nn.SgdConfig`` and copy parameters with ``clone_params``; the probe builds
both phases on a small untrained network, so a library signature they rely
on cannot change without failing here. The probe then installs
perfbench's own tracer on those targets and runs a small ``gauss-fusion``
evaluation and a one-episode ``meta_train``: each fusion step and the
inference completion must record spans under their traced names, or the
per-layer metrics built from them would read 0. A one-mode evaluation times
its mode alone: ``gauss-fusion`` records no ``mean_fuse`` span and a
``mean-only`` evaluation no completion span. So must both steps of the
training update, in meta-training and in completion training, and the
episodic loss's fusion node and cosine classifier. perfbench's
``tracer.NodeCounter`` counts the autodiff nodes of that meta episode: at
most the 11 parameter leaves and the loss's three nodes. Last it builds a
``workloads.Setup`` on the same small world as ``build_setup`` builds one,
with tasks from ``compute_base_prototypes`` and ``sample_completion_tasks``,
and runs one traced ``TrainPhase.step``, which must record no failure and
make at most the 11 leaves and the completion loss's two nodes. The
check runs in a subprocess, because importing ``run.py`` sets the BLAS thread variables of
the importing process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
import numpy as np
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

import tracer as tr
from protofuse import autodiff, datagen, episodes, knowledge, nn
world = datagen.generate_world(datagen.WorldSpec(
    dim=8, semantic_dim=4, num_base_classes=6, num_novel_classes=4, num_attributes=6,
    attributes_per_class=(2, 4), samples_per_class=8, seed=0))
stats = knowledge.compute_attribute_stats(world.base.embeddings, world.base.labels,
                                          world.knowledge)
params = cp.CompletionNetParams.initialize(8, 4, seed=0, encoder_dim=6, aggregator_hidden=5,
                                           decoder_hidden=7)
tracer = tr.Tracer()
tracer.install(targets)
spans = {}
try:
    episodes.evaluate(params, world.novel, world.knowledge, stats, "gauss-fusion", n_way=3,
                      k_shot=1, m_query=2, num_episodes=2, seed=0)
    spans["eval"] = sorted({span.name for span in tracer.spans})
    tracer.spans.clear()
    episodes.evaluate(params, world.novel, world.knowledge, stats, "mean-only", n_way=3,
                      k_shot=1, m_query=2, num_episodes=2, seed=0)
    spans["eval-mean-only"] = sorted({span.name for span in tracer.spans})
    tracer.spans.clear()
    meta_config = episodes.MetaTrainConfig(nn.SgdConfig(learning_rate=1e-4, epochs=1),
                                           n_way=3, k_shot=1, m_query=2, episodes_per_epoch=1)
    with tr.NodeCounter(autodiff.Node) as counter:
        episodes.meta_train(params, world.base, world.knowledge, stats, meta_config)
    spans["meta"] = sorted({span.name for span in tracer.spans})
    tracer.spans.clear()
    prototypes = knowledge.compute_base_prototypes(world.base.embeddings, world.base.labels)
    tasks = cp.sample_completion_tasks(world.base.embeddings, world.base.labels, prototypes,
                                       k_shot=1, count=4, rng=np.random.default_rng(0))
    tally = workloads.Tally()
    train = workloads.TrainPhase(workloads.clone_params(params),
                                 workloads.Setup(world, stats, params, 0, tasks), tally, tracer)
    with tr.NodeCounter(autodiff.Node) as train_counter:
        train.step()
    spans["setup+train"] = sorted({span.name for span in tracer.spans})
finally:
    tracer.uninstall()
step = {"attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
        "finite": bool(np.isfinite(train.losses).all())}
print(json.dumps({"targets": len(targets), "missing": missing, "copied": copied,
                  "spans": spans, "step": step, "meta_nodes": counter.count,
                  "train_nodes": train_counter.count}))
"""

FUSION_STEPS = {"fusion.soft_assign", "fusion.weighted_gaussian_estimate",
                "fusion.gaussian_product"}
# The training update; perfbench's {train,meta}.nn.* per-layer metrics read them.
UPDATE_STEPS = {"nn.ParamStore.accumulate", "nn.sgd_step"}
# The episodic loss's fusion node and classifier head; the meta.fusion.*
# per-layer metrics read them.
META_STEPS = {"fusion.fused_means", "fusion.cosine_matrix"}
# One meta episode: a leaf per network tensor and the classifier scale (11),
# then the completion, fusion and classifier-head nodes.
MAX_META_NODES = 11 + 3
# One completion training step: the 11 leaves, then the completion and
# squared-error nodes (perfbench's train.autodiff.nodes_per_step).
MAX_TRAIN_NODES = 11 + 2


def test_every_trace_target_is_defined_on_its_owner():
    result = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["targets"] > 0
    assert report["missing"] == []
    assert report["copied"]
    assert FUSION_STEPS | {"completion.complete_prototype"} <= set(report["spans"]["eval"])
    # each per-mode timing stays one-mode: no other mode's work in its spans
    assert "fusion.mean_fuse" not in report["spans"]["eval"]
    mean_only = set(report["spans"]["eval-mean-only"])
    assert {"episodes.sample_episode", "episodes.mean_prototypes",
            "fusion.cosine_matrix"} <= mean_only
    assert "completion.complete_prototype" not in mean_only
    assert FUSION_STEPS | UPDATE_STEPS | META_STEPS <= set(report["spans"]["meta"])
    assert report["meta_nodes"] <= MAX_META_NODES
    assert {"knowledge.compute_base_prototypes", "completion.sample_completion_tasks",
            "completion.train_completion", "completion.completion_loss"} | UPDATE_STEPS \
        <= set(report["spans"]["setup+train"])
    assert report["step"] == {"attempted": 1, "failed": 0, "problems": [], "finite": True}
    assert report["train_nodes"] <= MAX_TRAIN_NODES
