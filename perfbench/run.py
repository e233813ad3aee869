"""Benchmark for protofuse: two closed-loop workloads over the library's
public functions, end-to-end metrics untraced, per-layer split traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload eval-ablate --seed 0 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run makes an untraced
and a traced pass of the same work and reports the per-layer split, the
tracing overhead and the timings of the library's evaluation pool. Full results (sample counts, tail percentiles, the
environment, every layer statistic) go to ``.perfbench_out/`` under the
repository root, and a traced run also writes its spans there as JSONL.

Claims are developed on seed 0 (on which eval-ablate checks the ROADMAP
sanity run) and confirmed on the held-out seed ``HELD_OUT_SEED``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One thread of each kind. At these sizes (dim 64) extra BLAS threads only
# compete for a small machine's cores; on two cores they made the evaluation
# timings 15-25% slower and wider. The library's evaluation pool is timed
# apart: on a shared 2-vCPU host its two GIL-bound workers made the eval
# timings spread 30-64% across ten runs, against 15-17% for the
# single-threaded train and meta timings of the same runs, so the gated eval
# timings are single-threaded and the pool's cost is the pool.* per-layer
# metrics of a traced run.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "PROTOFUSE_THREADS"):
    os.environ[_name] = "1"

HELD_OUT_SEED = 17
MODES = ("mean-only", "completed-only", "mean-fusion", "gauss-fusion")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
UNIT_OF_KIND = {"setup": "setup", "train": "step", "meta": "episode"}

# Time shares of each workload's window. Every timing is sampled in the
# window, interleaved with the others, not in one stretch of the run: a
# shared machine's speed drifts over tens of seconds. eval gets two shares
# as a probe because its four metrics share its rounds.
SHARES = {
    "eval-ablate": {"eval": 4, "meta": 1, "train": 1},
    "meta-train": {"meta": 3, "eval": 2, "train": 1},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHARES))
    parser.add_argument("--seed", required=True, type=int,
                        help=f"workload seed (development: 0, held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", required=True, type=float,
                        help="length of the workload's timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import protofuse from this checkout's ``src``, or exit without a result."""
    if not (SRC / "protofuse" / "__init__.py").is_file():
        sys.exit(f"perfbench: no protofuse sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import protofuse

    if SRC.resolve() not in Path(protofuse.__file__).resolve().parents:
        sys.exit(f"perfbench: imported protofuse from {protofuse.__file__}, not {SRC}")


def trace_targets():
    """Public functions the traced pass wraps, as (owner, attribute, span name)."""
    from protofuse import autodiff, completion, datagen, episodes, fusion, knowledge, nn

    functions = {
        datagen: ("generate_world",),
        knowledge: ("compute_base_prototypes", "compute_attribute_stats"),
        completion: ("sample_completion_tasks", "train_completion", "completion_loss",
                     "complete_prototype", "draw_attribute_features"),
        autodiff: ("backward",),
        nn: ("sgd_step",),
        fusion: ("fuse_prototypes", "fused_means", "soft_assign",
                 "weighted_gaussian_estimate", "gaussian_product", "mean_fuse",
                 "cosine_matrix"),
        episodes: ("sample_episode", "mean_prototypes", "evaluate", "meta_episode_loss",
                   "meta_train"),
    }
    targets = [(module, name, f"{module.__name__.rsplit('.', 1)[-1]}.{name}")
               for module, names in functions.items() for name in names]
    targets.append((nn.ParamStore, "accumulate", "nn.ParamStore.accumulate"))
    return targets


def per_layer_spec():
    """(metric name, window kind, span name, statistic) of every per-layer metric."""
    spec = []

    def add(kind, span, *stats):
        spec.extend((f"{kind}.{span}.{stat}", kind, span, stat) for stat in stats)

    for span in ("datagen.generate_world", "knowledge.compute_base_prototypes",
                 "knowledge.compute_attribute_stats", "completion.sample_completion_tasks",
                 "completion.train_completion"):
        add("setup", span, "ms")
    add("train", "completion.train_completion", "ms", "self_ms")
    for span in ("completion.completion_loss", "autodiff.backward",
                 "nn.ParamStore.accumulate", "nn.sgd_step",
                 "completion.draw_attribute_features"):
        add("train", span, "ms")
    for mode in MODES:
        kind = f"eval.{mode}"
        add(kind, "episodes.evaluate", "ms", "self_ms", "parallelism")
        add(kind, "episodes.sample_episode", "ms")
        add(kind, "episodes.mean_prototypes", "ms")
        add(kind, "fusion.cosine_matrix", "ms", "calls")
        if mode != "mean-only":
            add(kind, "completion.complete_prototype", "ms", "self_ms", "calls")
            add(kind, "completion.draw_attribute_features", "ms")
    add("eval.mean-fusion", "fusion.mean_fuse", "ms", "calls")
    add("eval.gauss-fusion", "fusion.fuse_prototypes", "ms", "self_ms")
    add("eval.gauss-fusion", "fusion.soft_assign", "ms", "self_ms")
    add("eval.gauss-fusion", "fusion.weighted_gaussian_estimate", "ms", "calls")
    add("eval.gauss-fusion", "fusion.gaussian_product", "ms", "calls")
    add("meta", "episodes.meta_train", "ms", "self_ms")
    add("meta", "episodes.meta_episode_loss", "ms", "self_ms")
    add("meta", "fusion.fused_means", "ms", "self_ms")
    add("meta", "fusion.cosine_matrix", "ms", "calls")
    for span in ("episodes.sample_episode", "episodes.mean_prototypes",
                 "completion.draw_attribute_features", "autodiff.backward",
                 "nn.ParamStore.accumulate", "nn.sgd_step"):
        add("meta", span, "ms")
    return spec


def unit_of(kind: str, stat: str) -> str:
    per = UNIT_OF_KIND.get(kind, "episode")
    return {"ms": f"ms/{per}", "self_ms": f"ms/{per}", "calls": f"calls/{per}",
            "parallelism": "ratio"}[stat]


def tail(values):
    """Highest listed percentile with at least 10 samples beyond it."""
    import numpy as np

    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return {"percentile": p, "value": float(np.percentile(values, p))}
    return None


def timing(values) -> dict:
    return {"median": statistics.median(values), "samples": len(values),
            "tail": tail(values), "values": values}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "thread_env": {name: os.environ.get(name) for name in (
            "PROTOFUSE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
    }


@dataclass
class Pass:
    setup_s: list
    fixtures: list
    train: object
    evaluation: object
    meta: object


def run_pass(workload: str, seed: int, seconds: float, tally, tracer) -> Pass:
    """One set-up per fixture, then a ``seconds`` window interleaving the
    phases by SHARES."""
    import workloads as wl

    setup_s, fixtures = [], []
    for k in range(wl.FIXTURES):
        with tracer.window("setup") as window:
            start = time.perf_counter()
            fixtures.append(wl.build_setup(wl.fixture_seed(seed, k), tally, tracer))
            setup_s.append(time.perf_counter() - start)
            window.units = 1
    train = wl.TrainPhase(wl.clone_params(fixtures[0].params), fixtures[0], tally, tracer)
    evaluation = wl.EvalPhase(fixtures, seed, tally, tracer)
    evaluation.check_fusion()
    meta = wl.MetaPhase(fixtures, seed, tally, tracer)
    steps = {"train": train.step, "eval": evaluation.step, "meta": meta.step}
    wl.run_window(seconds, {steps[phase]: w for phase, w in SHARES[workload].items()})
    return Pass(setup_s, fixtures, train, evaluation, meta)


def quality(p: Pass) -> dict:
    """The quality metrics; runs any quality rounds or episodes the window left."""
    accuracy = p.evaluation.accuracy()
    out = {f"acc.{mode}": accuracy[mode] for mode in MODES}
    out["train_final_loss"] = (sum(s.training.final_loss for s in p.fixtures)
                               / len(p.fixtures))
    out["meta_final_loss"] = p.meta.final_loss()
    return out


def timings(p: Pass) -> dict:
    out = {"train_step_ms": timing(p.train.step_ms)}
    for mode in MODES:
        out[f"eval_episode_ms.{mode}"] = timing(p.evaluation.episode_ms[mode])
    out["meta_episode_ms"] = timing(p.meta.episode_ms)
    return out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(args, tally, tracer) -> tuple[dict, dict]:
    import workloads as wl

    p = run_pass(args.workload, args.seed, args.seconds, tally, tracer)
    quality_values = quality(p)
    times = timings(p)
    detail = {"setup_s_samples": p.setup_s, "timings": times}
    if args.workload == "eval-ablate" and args.seed == wl.SANITY_SEED:
        sanity = detail["sanity_acc"] = p.evaluation.sanity()
        for mode, expected in wl.SANITY_ACC.items():
            tally.check(round(sanity[mode], 4) == expected,
                        f"seed 0 ablate {mode} = {sanity[mode]:.6f}, "
                        f"ROADMAP sanity run has {expected}")
    metrics = {"setup_s": (statistics.median(p.setup_s), "s")}
    for name, t in times.items():
        metrics[name] = (t["median"], "ms")
    for name, value in quality_values.items():
        unit = "fraction" if name.startswith("acc.") else (
            "mse" if name.startswith("train") else "nats")
        metrics[name] = (value, unit)
    metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    return metrics, detail


def traced_run(args, tally, tracer) -> tuple[dict, dict]:
    """Untraced pass, traced pass of the same work, then a node-count pass."""
    import tracer as tr
    import workloads as wl
    from protofuse import autodiff

    half = args.seconds / 2.0
    plain = run_pass(args.workload, args.seed, half, tally, tracer)
    pool_ms = plain.evaluation.pool_rounds()
    tracer.install(trace_targets())
    try:
        traced = run_pass(args.workload, args.seed, half, tally, tracer)
        traced_quality = quality(traced)
    finally:
        tracer.uninstall()
    plain_quality = quality(plain)
    tally.check(plain_quality == traced_quality,
                f"traced run changed results: {plain_quality} vs {traced_quality}")
    train_nodes, meta_nodes = wl.count_nodes(traced.fixtures[0], args.seed, tally,
                                             tr.NodeCounter(autodiff.Node))

    stats = tr.layer_stats(tracer)
    metrics = {}
    for name, kind, span, stat in per_layer_spec():
        layer = stats.get(kind, {}).get("layers", {}).get(span)
        metrics[name] = (layer[stat] if layer else 0.0, unit_of(kind, stat))
    metrics["train.autodiff.nodes_per_step"] = (train_nodes, "nodes/step")
    metrics["meta.autodiff.nodes_per_episode"] = (meta_nodes, "nodes/episode")
    for mode in MODES:
        metrics[f"pool.eval_episode_ms.{mode}"] = (pool_ms[mode], "ms/episode")
    plain_times, traced_times = timings(plain), timings(traced)
    for name in plain_times:
        metrics[f"trace_overhead.{name}"] = (
            traced_times[name]["median"] - plain_times[name]["median"], "ms")
    detail = {"layers": stats, "untraced_timings": plain_times,
              "traced_timings": traced_times, "spans": len(tracer.spans)}
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import tracer as tr
    import workloads as wl

    tally = wl.Tally()
    tracer = tr.Tracer()
    started = time.perf_counter()
    if args.trace:
        metrics, detail = traced_run(args, tally, tracer)
    else:
        metrics, detail = untraced_run(args, tally, tracer)
    correct = tally.failed == 0 and not tally.problems
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = str(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failed_frac=tally.failed / max(tally.attempted, 1),
                  problems=tally.problems, wall_s=time.perf_counter() - started,
                  environment=environment(), detail=detail)
    Path(stem + ".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_jsonl(stem + ".spans.jsonl")
    for problem in tally.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<58} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
