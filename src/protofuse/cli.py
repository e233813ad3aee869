"""Command-line front door: world generation, the two training phases,
evaluation, and the diagnostic reports.

Every command takes an explicit --seed (no wall-clock seeding) and writes
outputs atomically, so rerunning with identical flags produces byte-identical
files. A command checks every file it writes before writing any: it refuses
an output whose directory does not exist (``gen`` makes its world
directory), and existing ones unless --overwrite is given. ``_command``
adds these two flags, the output flag and --world/--checkpoint where a command
reads them, so each subparser declares only its own. Exit codes: 0 success,
1 runtime error (single-line ``error: ...`` on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import completion as cp
from . import episodes as ep
from . import nn
from .datagen import WORLD_FILES, WORLDSPEC, World, WorldSpec, generate_world, load_world, \
    save_world
from .fileio import atomic_write_json, atomic_write_text, json_text
from .knowledge import average_cluster_variance, compute_attribute_stats, \
    compute_base_prototypes, inject_knowledge_noise


def _require_new(overwrite: bool, *paths, makes_directory: bool = False) -> None:
    """Refuse if the directory of any of a command's outputs does not exist
    (unless the command makes it, ``makes_directory``), and, unless
    ``overwrite``, if any output exists; None stands for an optional output
    this run does not write."""
    for path in paths:
        if path is None:
            continue
        directory = os.path.dirname(path)
        if not (makes_directory or os.path.isdir(directory or ".")):
            raise FileNotFoundError(f"{path}: no such directory {directory}")
        if os.path.exists(path) and not overwrite:
            raise FileExistsError(f"{path} exists; pass --overwrite to replace it")


def _load_world_and_stats(world_dir: str):
    world = load_world(world_dir)
    return world, compute_attribute_stats(world.base.embeddings, world.base.labels,
                                          world.knowledge)


def _load_world_and_model(args):
    """World, attribute stats, and the checkpoint with its metadata, after
    checking that the checkpoint's dimensions fit the world."""
    world, stats = _load_world_and_stats(args.world)
    params, metadata = cp.load_model(args.checkpoint)
    model_dims = (params.input_dim, params.semantic_dim)
    world_dims = (world.base.dim, world.knowledge.semantic_dim)
    if model_dims != world_dims:
        raise ValueError(
            f"checkpoint {args.checkpoint} takes {model_dims[0]}-d embeddings and "
            f"{model_dims[1]}-d semantics, but world {args.world} has {world_dims[0]}-d "
            f"embeddings and {world_dims[1]}-d semantics")
    return world, stats, params, metadata


def _cmd_gen(args) -> int:
    spec = WorldSpec(
        dim=args.dim, semantic_dim=args.semantic_dim,
        num_base_classes=args.base_classes, num_novel_classes=args.novel_classes,
        num_attributes=args.attributes,
        attributes_per_class=(args.attrs_per_class[0], args.attrs_per_class[1]),
        samples_per_class=args.samples_per_class,
        noise_std=args.noise_std, dropout_rate=args.dropout,
        seed=args.seed, offset_std=args.offset_std,
        novel_noise_std=args.novel_noise_std,
    )
    _require_new(args.overwrite,
                 *(os.path.join(args.out, name) for name in WORLD_FILES + (WORLDSPEC,)),
                 makes_directory=True)
    world = generate_world(spec)
    save_world(world, args.out)
    atomic_write_json(os.path.join(args.out, WORLDSPEC), asdict(spec))
    print(f"world written to {args.out}: {world.base.n} base / {world.novel.n} novel samples, "
          f"{world.knowledge.num_attributes} attributes")
    return 0


def _episodes_per_epoch(args, world: World) -> int:
    """--episodes-per-epoch, by default 4x the number of base classes."""
    return args.episodes_per_epoch or 4 * len(world.knowledge.base_class_ids)


def _cmd_train_completion(args) -> int:
    _require_new(args.overwrite, args.out, cp.sidecar_path(args.out))
    world, stats = _load_world_and_stats(args.world)
    episodes_per_epoch = _episodes_per_epoch(args, world)
    prototypes = compute_base_prototypes(world.base.embeddings, world.base.labels)
    params = cp.CompletionNetParams.initialize(
        world.base.dim, world.knowledge.semantic_dim, seed=args.seed)
    tasks = cp.sample_completion_tasks(
        world.base.embeddings, world.base.labels, prototypes,
        k_shot=args.k_shot, count=args.epochs * episodes_per_epoch,
        rng=np.random.default_rng([args.seed, 1]))
    config = nn.SgdConfig(learning_rate=args.learning_rate, epochs=args.epochs)
    losses = cp.train_completion(params, world.knowledge, stats, tasks, config,
                                 rng=np.random.default_rng([args.seed, 2]))
    cp.save_model(params, args.out, metadata={
        "phase": "completion",
        "seed": args.seed,
        "epochs": args.epochs,
        "episodes_per_epoch": episodes_per_epoch,
        "k_shot": args.k_shot,
        "learning_rate": args.learning_rate,
        "momentum": nn.MOMENTUM,
        "weight_decay": nn.WEIGHT_DECAY,
        "losses": losses,
    })
    print(f"completion training: {args.epochs} epochs, "
          f"loss {losses[0]:.6f} -> {losses[-1]:.6f}; checkpoint at {args.out}")
    return 0


def _cmd_meta_train(args) -> int:
    _require_new(args.overwrite, args.out, cp.sidecar_path(args.out))
    world, stats, params, meta = _load_world_and_model(args)
    episodes_per_epoch = _episodes_per_epoch(args, world)
    config = ep.MetaTrainConfig(
        optimizer=nn.SgdConfig(learning_rate=args.learning_rate, epochs=args.epochs),
        n_way=args.n_way, k_shot=args.k_shot, m_query=args.m_query,
        episodes_per_epoch=episodes_per_epoch, seed=args.seed)
    _, losses = ep.meta_train(params, world.base, world.knowledge, stats, config)
    cp.save_model(params, args.out, metadata={
        "phase": "meta",
        "initialized_from": meta,
        "seed": args.seed,
        "epochs": args.epochs,
        "episodes_per_epoch": episodes_per_epoch,
        "n_way": args.n_way,
        "k_shot": args.k_shot,
        "m_query": args.m_query,
        "learning_rate": args.learning_rate,
        "losses": losses,
    })
    print(f"episodic fine-tuning: {args.epochs} epochs, "
          f"loss {losses[0]:.6f} -> {losses[-1]:.6f}; checkpoint at {args.out}")
    return 0


def _split_dataset(world: World, split: str):
    return world.base if split == "base" else world.novel


def _evaluate(args, world: World, knowledge, stats, params, modes,
              fusion_dump: list | None = None) -> dict:
    """One ``ep.evaluate_modes`` pass with the split, shape and seed flags of ``args``."""
    return ep.evaluate_modes(params, _split_dataset(world, args.split), knowledge, stats,
                             modes, n_way=args.n_way, k_shot=args.k_shot,
                             m_query=args.m_query, num_episodes=args.episodes,
                             seed=args.seed, fusion_dump=fusion_dump)


def _cmd_eval(args) -> int:
    _require_new(args.overwrite, args.out, args.dump_fusion)
    world, stats, params, _ = _load_world_and_model(args)
    dump = [] if args.dump_fusion else None
    report = _evaluate(args, world, world.knowledge, stats, params, (args.mode,), dump)[args.mode]
    # both texts are formed before either file is written, so a value JSON
    # cannot hold leaves neither file behind
    texts = {args.out: json_text(report.to_json_dict(), args.out)}
    if args.dump_fusion:
        try:
            texts[args.dump_fusion] = "\n".join(
                json.dumps(e, sort_keys=True, allow_nan=False) for e in dump) + "\n"
        except ValueError as exc:
            raise ValueError(f"{args.dump_fusion}: {exc}") from None
    for path, text in texts.items():
        atomic_write_text(path, text)
    print(f"{'mode':<16}{'n-way':>6}{'k-shot':>8}{'episodes':>10}{'accuracy':>12}{'95% CI':>10}")
    print(f"{report.mode:<16}{report.n_way:>6}{report.k_shot:>8}{report.episodes:>10}"
          f"{report.mean_acc * 100:>11.2f}%{report.ci95 * 100:>9.2f}%")
    return 0


def _cmd_ablate(args) -> int:
    _require_new(args.overwrite, args.out)
    world, stats, params, _ = _load_world_and_model(args)
    reports = _evaluate(args, world, world.knowledge, stats, params, ep.MODES)
    print(f"{'row':<6}{'mode':<18}{'accuracy':>12}{'95% CI':>10}")
    for row, (mode, report) in zip(("i", "ii", "iii", "iv"), reports.items()):
        print(f"({row})".ljust(6) + f"{mode:<18}{report.mean_acc * 100:>11.2f}%"
              f"{report.ci95 * 100:>9.2f}%")
    atomic_write_json(args.out, {mode: report.to_json_dict() for mode, report in reports.items()})
    return 0


def _cmd_noise_sweep(args) -> int:
    _require_new(args.overwrite, args.out)
    world, stats, params, _ = _load_world_and_model(args)
    sweep_modes = (ep.MODE_COMPLETED_ONLY, ep.MODE_GAUSS_FUSION)
    results = {mode: {} for mode in sweep_modes}
    for i, gamma in enumerate(args.gamma_noise):
        # Noise corrupts the association matrix consumed at evaluation time;
        # attribute statistics stay those of the clean base knowledge.
        noisy = inject_knowledge_noise(world.knowledge, gamma, seed=(args.seed, i))
        for mode, report in _evaluate(args, world, noisy, stats, params, sweep_modes).items():
            results[mode][f"{gamma}"] = report.to_json_dict()
    print(f"{'mode':<18}" + "".join(f"{'noise=' + str(g):>14}" for g in args.gamma_noise))
    for mode in sweep_modes:
        cells = "".join(f"{results[mode][str(g)]['mean_acc'] * 100:>13.2f}%"
                        for g in args.gamma_noise)
        print(f"{mode:<18}{cells}")
    atomic_write_json(args.out, results)
    return 0


def _cmd_report(args) -> int:
    similarity_path = args.out_prefix + "-similarity.json"
    curve_path = args.out_prefix + "-rank-curve.csv"
    _require_new(args.overwrite, similarity_path, curve_path)
    world, stats, params, _ = _load_world_and_model(args)
    dataset = _split_dataset(world, args.split)

    # Both reports are computed before either file is written, so a failure
    # leaves nothing behind.
    similarity = ep.prototype_similarity_report(
        params, dataset, world.centers, world.knowledge, stats,
        num_episodes=args.episodes, n_way=args.n_way, k_shot=args.k_shot,
        m_query=args.m_query, seed=args.seed)
    curve = ep.rank_curve_report(params, dataset, world.centers, world.knowledge,
                                 stats, window=args.window)
    lines = ["rank,mean_based,completed"]
    for r in curve.ranks:
        lines.append(f"{r},{float(curve.raw[r])!r},{float(curve.completed[r])!r}")
    atomic_write_json(similarity_path, similarity.to_json_dict())
    atomic_write_text(curve_path, "\n".join(lines) + "\n")

    base_var = average_cluster_variance(world.base.embeddings, world.base.labels)
    novel_var = average_cluster_variance(world.novel.embeddings, world.novel.labels)
    print(f"{'estimate':<14}{'cos(proto, center)':>20}")
    print(f"{'mean-based':<14}{similarity.mean_based:>20.4f}")
    print(f"{'completed':<14}{similarity.completed:>20.4f}")
    print(f"{'fused':<14}{similarity.fused:>20.4f}")
    print(f"averaged variance: base {base_var:.4f} / novel {novel_var:.4f}")
    print(f"rank curve written to {curve_path} (window {curve.window})")
    return 0


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_training(p: argparse.ArgumentParser, epochs: int, learning_rate: float) -> None:
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--episodes-per-epoch", type=_positive_int, default=None,
                   help="default: 4x the number of base classes")
    p.add_argument("--learning-rate", type=float, default=learning_rate)


def _add_episode_shape(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-way", type=int, default=5)
    p.add_argument("--k-shot", type=int, default=1)
    p.add_argument("--m-query", type=int, default=15)


def _add_eval_shape(p: argparse.ArgumentParser, episodes_default: int) -> None:
    _add_episode_shape(p)
    p.add_argument("--episodes", type=int, default=episodes_default)
    p.add_argument("--split", choices=("base", "novel"), default="novel")


def _command(sub, name: str, func, help: str, *, world: bool = True,
             checkpoint: bool = True, out: str = "--out") -> argparse.ArgumentParser:
    """Subcommand ``name`` running ``func``, with the shared flags: --world and
    --checkpoint where it reads them, the output flag ``out``, --seed, --overwrite."""
    p = sub.add_parser(name, help=help)
    if world:
        p.add_argument("--world", required=True)
    if checkpoint:
        p.add_argument("--checkpoint", required=True)
    p.add_argument(out, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protofuse",
        description="Prototype completion with Bayesian Gaussian fusion for "
                    "few-shot classification over fixed embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "gen", _cmd_gen, "generate a synthetic embedding world",
                 world=False, checkpoint=False)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--semantic-dim", type=int, default=32)
    p.add_argument("--base-classes", type=int, default=32)
    p.add_argument("--novel-classes", type=int, default=8)
    p.add_argument("--attributes", type=int, default=20)
    p.add_argument("--attrs-per-class", type=int, nargs=2, default=(6, 10),
                   metavar=("LO", "HI"))
    p.add_argument("--samples-per-class", type=int, default=60)
    p.add_argument("--noise-std", type=float, default=0.05)
    p.add_argument("--novel-noise-std", type=float, default=None)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--offset-std", type=float, default=0.3)

    p = _command(sub, "train-completion", _cmd_train_completion,
                 "train the prototype completion network", checkpoint=False)
    p.add_argument("--k-shot", type=int, default=1)
    _add_training(p, epochs=100, learning_rate=1e-3)

    p = _command(sub, "meta-train", _cmd_meta_train,
                 "episodically fine-tune through the fused pipeline")
    _add_training(p, epochs=40, learning_rate=1e-4)
    _add_episode_shape(p)

    p = _command(sub, "eval", _cmd_eval, "evaluate one prototype mode over sampled episodes")
    p.add_argument("--mode", choices=ep.MODES, required=True)
    _add_eval_shape(p, episodes_default=600)
    p.add_argument("--dump-fusion", default=None,
                   help="optional JSONL path for per-episode fusion diagnostics; "
                        "needs --mode gauss-fusion")

    p = _command(sub, "ablate", _cmd_ablate, "run all four prototype modes on the same episodes")
    _add_eval_shape(p, episodes_default=600)

    p = _command(sub, "noise-sweep", _cmd_noise_sweep,
                 "evaluate under knowledge noise, with and without fusion")
    p.add_argument("--gamma-noise", type=float, nargs="+", required=True,
                   help="flip probabilities for association entries")
    _add_eval_shape(p, episodes_default=600)

    p = _command(sub, "report", _cmd_report, "prototype-similarity table and rank-curve CSV",
                 out="--out-prefix")
    _add_eval_shape(p, episodes_default=1000)
    p.add_argument("--window", type=_positive_int, default=50)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and args.dump_fusion:
        if args.mode != ep.MODE_GAUSS_FUSION:
            parser.error(f"eval --dump-fusion needs --mode {ep.MODE_GAUSS_FUSION}, "
                         f"the only mode that runs the fusion")
        if os.path.realpath(args.dump_fusion) == os.path.realpath(args.out):
            parser.error("eval --dump-fusion and --out name the same file")
    if args.command == "noise-sweep":
        keys = [str(gamma) for gamma in args.gamma_noise]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        if repeated:
            parser.error(f"noise-sweep --gamma-noise repeats {', '.join(repeated)}; "
                         f"each level is one entry of the JSON output")
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
