"""End-to-end command-line flows on a tiny world, including the determinism
and overwrite contracts."""

import csv
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import protofuse
from protofuse import completion as cp
from protofuse import episodes as ep
from protofuse import nn
from protofuse.cli import main
from protofuse.completion import sample_completion_tasks
from protofuse.datagen import FewShotDataset, World, load_world, save_world
from protofuse.knowledge import compute_attribute_stats, compute_base_prototypes

GEN_FLAGS = ["--dim", "12", "--semantic-dim", "6", "--base-classes", "6",
             "--novel-classes", "4", "--attributes", "10", "--attrs-per-class", "3", "5",
             "--samples-per-class", "20", "--noise-std", "0.05", "--dropout", "0.4",
             "--offset-std", "0.8", "--seed", "3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    world = root / "world"
    model = root / "model.pcn"
    assert main(["gen", "--out", str(world)] + GEN_FLAGS) == 0
    assert main(["train-completion", "--world", str(world), "--out", str(model),
                 "--epochs", "4", "--episodes-per-epoch", "8",
                 "--learning-rate", "0.01", "--seed", "5"]) == 0
    return root, world, model


WORLD_FILES = ("centers.json", "embeddings.f64le", "embeddings.labels.txt",
               "embeddings.manifest.json", "knowledge.json", "worldspec.json")


def test_gen_writes_expected_files(workspace):
    _, world, _ = workspace
    assert tuple(sorted(p.name for p in world.iterdir())) == WORLD_FILES
    assert json.loads((world / "worldspec.json").read_text())["num_base_classes"] == 6


def test_gen_is_deterministic(tmp_path, workspace):
    _, world, _ = workspace
    again = tmp_path / "again"
    assert main(["gen", "--out", str(again)] + GEN_FLAGS) == 0
    for name in WORLD_FILES:
        assert (again / name).read_bytes() == (world / name).read_bytes()


def test_train_produces_checkpoint_and_sidecar(workspace):
    _, _, model = workspace
    assert model.exists()
    sidecar = json.loads((model.parent / "model.pcn.json").read_text())
    assert set(sidecar) == {"scale_gamma", "metadata"}
    assert sidecar["scale_gamma"] == pytest.approx(cp.SCALE_INIT, rel=1e-15)
    assert len(sidecar["metadata"]["losses"]) == 4


def test_train_refuses_overwrite_without_flag(workspace, capsys):
    root, world, model = workspace
    code = main(["train-completion", "--world", str(world), "--out", str(model),
                 "--epochs", "1", "--episodes-per-epoch", "4", "--seed", "5"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", WORLD_FILES)
def test_gen_refuses_any_existing_world_file(tmp_path, capsys, name):
    (tmp_path / name).write_text("hand-written\n")
    capsys.readouterr()
    assert main(["gen", "--out", str(tmp_path)] + GEN_FLAGS) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / name} exists; "
                                       f"pass --overwrite to replace it\n")
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert (tmp_path / name).read_text() == "hand-written\n"
    assert main(["gen", "--out", str(tmp_path), "--overwrite"] + GEN_FLAGS) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == list(WORLD_FILES)


@pytest.mark.parametrize("command", [["train-completion"],
                                     ["meta-train", "--checkpoint", "model.pcn"]])
def test_training_refuses_an_existing_sidecar(tmp_path, workspace, capsys, command):
    _, world, model = workspace
    out, sidecar = tmp_path / "out.pcn", tmp_path / "out.pcn.json"
    sidecar.write_text("{}\n")
    flags = [str(model) if a == "model.pcn" else a for a in command]
    capsys.readouterr()
    code = main(flags + ["--world", str(world), "--out", str(out), "--epochs", "1",
                         "--episodes-per-epoch", "2", "--seed", "5"])
    assert code == 1
    assert capsys.readouterr().err == (f"error: {sidecar} exists; "
                                       f"pass --overwrite to replace it\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.pcn.json"]
    assert sidecar.read_text() == "{}\n"


def test_train_is_deterministic(tmp_path, workspace):
    _, world, model = workspace
    other = tmp_path / "other.pcn"
    assert main(["train-completion", "--world", str(world), "--out", str(other),
                 "--epochs", "4", "--episodes-per-epoch", "8",
                 "--learning-rate", "0.01", "--seed", "5"]) == 0
    assert other.read_bytes() == model.read_bytes()


def test_eval_writes_report_and_is_deterministic(tmp_path, workspace, capsys):
    _, world, model = workspace
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["eval", "--world", str(world), "--checkpoint", str(model),
            "--mode", "gauss-fusion", "--n-way", "3", "--m-query", "5",
            "--episodes", "12", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert "gauss-fusion" in capsys.readouterr().out
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["episodes"] == 12
    assert len(doc["per_episode"]) == 12
    assert 0.0 <= doc["mean_acc"] <= 1.0


def test_eval_fusion_dump(tmp_path, workspace):
    _, world, model = workspace
    out = tmp_path / "r.json"
    dump = tmp_path / "fusion.jsonl"
    assert main(["eval", "--world", str(world), "--checkpoint", str(model),
                 "--mode", "gauss-fusion", "--n-way", "3", "--m-query", "4",
                 "--episodes", "3", "--seed", "2", "--out", str(out),
                 "--dump-fusion", str(dump)]) == 0
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 3
    entry = json.loads(lines[0])
    assert {"mean_based", "completed", "posterior"} <= set(entry)


def test_eval_whose_dump_holds_a_nan_writes_neither_file(tmp_path, workspace, capsys,
                                                        monkeypatch):
    _, world, model = workspace
    entry = ep._fusion_dump_entry

    def poisoned(index, result, b):
        out = entry(index, result, b)
        out["posterior"][0]["mean"][0] = float("nan")
        return out

    monkeypatch.setattr(ep, "_fusion_dump_entry", poisoned)
    out, dump = tmp_path / "r.json", tmp_path / "fusion.jsonl"
    capsys.readouterr()
    assert main(["eval", "--world", str(world), "--checkpoint", str(model),
                 "--mode", "gauss-fusion", "--n-way", "3", "--m-query", "4",
                 "--episodes", "2", "--seed", "2", "--out", str(out),
                 "--dump-fusion", str(dump)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dump}: ") and err.count("\n") == 1
    assert not out.exists() and not dump.exists()


@pytest.mark.parametrize("mode", list(ep.MODES))
def test_eval_on_novel_rows_whose_squared_norm_overflows_prints_one_line(
        tmp_path, workspace, capsys, mode):
    # finite rows load; their squared norms overflow, and the one error line
    # comes without numpy's overflow warning (an error here under pytest)
    _, world, model = workspace
    loaded = load_world(world)
    rows = loaded.novel.embeddings.copy()
    rows[:, 0] = 1e200
    save_world(World(loaded.base, FewShotDataset(rows, loaded.novel.labels),
                     loaded.knowledge, loaded.centers), tmp_path / "world")
    capsys.readouterr()
    assert main(["eval", "--world", str(tmp_path / "world"), "--checkpoint", str(model),
                 "--mode", mode, "--n-way", "3", "--m-query", "4", "--episodes", "2",
                 "--seed", "2", "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == "error: episode 0: non-finite embedding at row 0\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("mode", ["mean-only", "completed-only", "mean-fusion"])
def test_fusion_dump_without_fusion_is_a_usage_error(tmp_path, workspace, capsys, mode):
    _, world, model = workspace
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--world", str(world), "--checkpoint", str(model), "--mode", mode,
              "--episodes", "2", "--seed", "2", "--out", str(tmp_path / "r.json"),
              "--dump-fusion", str(tmp_path / "d.jsonl")])
    assert exc.value.code == 2
    assert "--dump-fusion needs --mode gauss-fusion" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eval_dump_onto_its_report_is_a_usage_error(tmp_path, workspace, capsys):
    _, world, model = workspace
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--world", str(world), "--checkpoint", str(model),
              "--mode", "gauss-fusion", "--episodes", "2", "--seed", "2",
              "--out", str(tmp_path / "r.json"), "--dump-fusion", f"{tmp_path}/./r.json"])
    assert exc.value.code == 2
    assert "--dump-fusion and --out name the same file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_noise_sweep_repeated_level_is_a_usage_error(tmp_path, workspace, capsys):
    # 0.1 and 0.10 are one JSON key, so the second run would replace the first.
    _, world, model = workspace
    with pytest.raises(SystemExit) as exc:
        main(["noise-sweep", "--world", str(world), "--checkpoint", str(model),
              "--gamma-noise", "0.1", "0.0", "0.10", "--episodes", "2", "--seed", "2",
              "--out", str(tmp_path / "sweep.json")])
    assert exc.value.code == 2
    assert "--gamma-noise repeats 0.1;" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_knowledge_alone_marks_the_base_classes(tmp_path, workspace):
    _, world, _ = workspace
    shutil.copytree(world, tmp_path / "world")
    _rewrite_json(tmp_path / "world" / "knowledge.json",
                  lambda d: d["classes"][0].update(split="novel"))
    before = load_world(world)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # attributes only class 0 carries
        after = load_world(tmp_path / "world")
    moved = before.base.labels == 0
    assert after.base.embeddings.tobytes() == before.base.embeddings[~moved].tobytes()
    assert 0 not in after.base.class_ids()
    np.testing.assert_array_equal(after.novel.labels,
                                  np.concatenate([[0] * moved.sum(), before.novel.labels]))
    assert after.novel.embeddings.tobytes() == np.vstack(
        [before.base.embeddings[moved], before.novel.embeddings]).tobytes()
    prototypes = compute_base_prototypes(after.base.embeddings, after.base.labels)
    tasks = sample_completion_tasks(after.base.embeddings, after.base.labels, prototypes,
                                    k_shot=1, count=200, rng=np.random.default_rng(0))
    assert {task.class_id for task in tasks} == {1, 2, 3, 4, 5}


def test_world_without_its_worldspec_evaluates_the_same(tmp_path, workspace):
    _, world, model = workspace
    shutil.copytree(world, tmp_path / "world")
    (tmp_path / "world" / "worldspec.json").unlink()
    shape = ["--checkpoint", str(model), "--mode", "gauss-fusion", "--n-way", "3",
             "--m-query", "5", "--episodes", "6", "--seed", "13"]
    assert main(["eval", "--world", str(world), "--out", str(tmp_path / "a.json")]
                + shape) == 0
    assert main(["eval", "--world", str(tmp_path / "world"),
                 "--out", str(tmp_path / "b.json")] + shape) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_files_with_the_keys_of_earlier_versions_evaluate_the_same(tmp_path, workspace):
    # Earlier versions also wrote the network's dimensions into the sidecars,
    # the file names and payload dtype into the manifest, and the shape into
    # centers.json. Loading ignores those keys.
    _, world, model = workspace
    meta = tmp_path / "meta.pcn"
    assert main(["meta-train", "--world", str(world), "--checkpoint", str(model),
                 "--out", str(meta), "--epochs", "1", "--episodes-per-epoch", "4",
                 "--n-way", "3", "--m-query", "4", "--seed", "7"]) == 0
    legacy = tmp_path / "legacy"
    shutil.copytree(world, legacy / "world")
    _rewrite_json(legacy / "world" / "embeddings.manifest.json", lambda d: d.update(
        labels_file="embeddings.labels.txt", payload_file="embeddings.f64le",
        payload_dtype="f64le"))
    _rewrite_json(legacy / "world" / "centers.json", lambda d: d.update(
        d=len(d["centers"][0]), num_classes=len(d["centers"])))
    for checkpoint in (model, meta):
        shutil.copy(checkpoint, legacy / checkpoint.name)
        shutil.copy(f"{checkpoint}.json", legacy / f"{checkpoint.name}.json")
        _rewrite_json(legacy / f"{checkpoint.name}.json", lambda d: d.update(
            input_dim=12, semantic_dim=6, encoder_dim=256, aggregator_hidden=300,
            decoder_hidden=512))

    def evaluate(world_dir, checkpoint, out):
        assert main(["eval", "--world", str(world_dir), "--checkpoint", str(checkpoint),
                     "--mode", "gauss-fusion", "--n-way", "3", "--m-query", "5",
                     "--episodes", "6", "--seed", "13", "--out", f"{out}.json",
                     "--dump-fusion", f"{out}.jsonl"]) == 0
        return Path(f"{out}.json").read_bytes(), Path(f"{out}.jsonl").read_bytes()

    for checkpoint in (model, meta):
        assert (evaluate(world, checkpoint, tmp_path / f"{checkpoint.name}-eval")
                == evaluate(legacy / "world", legacy / checkpoint.name,
                            legacy / f"{checkpoint.name}-eval"))


@pytest.mark.parametrize("k_shot", ["0", "-1"])
def test_train_completion_k_shot_below_one_is_an_error(tmp_path, workspace, capsys, k_shot):
    _, world, _ = workspace
    capsys.readouterr()
    code = main(["train-completion", "--world", str(world), "--out", str(tmp_path / "m.pcn"),
                 "--epochs", "1", "--episodes-per-epoch", "4", "--k-shot", k_shot,
                 "--seed", "5"])
    assert code == 1
    assert capsys.readouterr().err == f"error: k_shot must be at least 1, got {k_shot}\n"
    assert list(tmp_path.iterdir()) == []


def test_meta_train_runs(tmp_path, workspace):
    _, world, model = workspace
    out = tmp_path / "meta.pcn"
    assert main(["meta-train", "--world", str(world), "--checkpoint", str(model),
                 "--out", str(out), "--epochs", "2", "--episodes-per-epoch", "4",
                 "--n-way", "3", "--m-query", "4", "--seed", "7"]) == 0
    sidecar = json.loads((tmp_path / "meta.pcn.json").read_text())
    assert sidecar["metadata"]["phase"] == "meta"
    assert len(sidecar["metadata"]["losses"]) == 2


def test_ablate_first_row_matches_eval(tmp_path, workspace):
    # ablate's one pass gives every row exactly as eval --mode <row> gives it
    _, world, model = workspace
    table = tmp_path / "ablate.json"
    shape = ["--n-way", "3", "--m-query", "5", "--episodes", "10", "--seed", "19"]
    assert main(["ablate", "--world", str(world), "--checkpoint", str(model),
                 "--out", str(table)] + shape) == 0
    rows = json.loads(table.read_text())
    assert set(rows) == {"mean-only", "completed-only", "mean-fusion", "gauss-fusion"}
    for mode in rows:
        single = tmp_path / f"{mode}.json"
        assert main(["eval", "--world", str(world), "--checkpoint", str(model),
                     "--mode", mode, "--out", str(single)] + shape) == 0
        assert rows[mode] == json.loads(single.read_text())


def test_noise_sweep_zero_level_matches_clean_eval(tmp_path, workspace):
    _, world, model = workspace
    out = tmp_path / "sweep.json"
    clean = tmp_path / "clean.json"
    shape = ["--n-way", "3", "--m-query", "5", "--episodes", "10", "--seed", "23"]
    assert main(["noise-sweep", "--world", str(world), "--checkpoint", str(model),
                 "--gamma-noise", "0.0", "0.3", "--out", str(out)] + shape) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"completed-only", "gauss-fusion"}
    for mode in doc:
        assert main(["eval", "--world", str(world), "--checkpoint", str(model),
                     "--mode", mode, "--out", str(clean), "--overwrite"] + shape) == 0
        assert doc[mode]["0.0"] == json.loads(clean.read_text())
        assert set(doc[mode]) == {"0.0", "0.3"}


def test_report_outputs(tmp_path, workspace, capsys):
    _, world, model = workspace
    prefix = str(tmp_path / "diag")
    assert main(["report", "--world", str(world), "--checkpoint", str(model),
                 "--out-prefix", prefix, "--episodes", "20", "--n-way", "3",
                 "--m-query", "4", "--window", "10", "--seed", "29"]) == 0
    out = capsys.readouterr().out
    assert "averaged variance" in out
    similarity = json.loads((tmp_path / "diag-similarity.json").read_text())
    assert {"mean_based", "completed", "fused"} <= set(similarity)
    with open(prefix + "-rank-curve.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["rank", "mean_based", "completed"]
    assert len(rows) == 20
    # every cell parses as a float equal to the report's own number
    loaded = load_world(world)
    params, _ = cp.load_model(model)
    stats = compute_attribute_stats(loaded.base.embeddings, loaded.base.labels,
                                    loaded.knowledge)
    curve = ep.rank_curve_report(params, loaded.novel, loaded.centers, loaded.knowledge,
                                 stats, window=10)
    assert [int(rank) for rank, _, _ in rows] == curve.ranks.tolist()
    assert [float(cell) for _, cell, _ in rows] == curve.raw.tolist()
    assert [float(cell) for _, _, cell in rows] == curve.completed.tolist()


def test_report_that_fails_writes_nothing(tmp_path, workspace, capsys, monkeypatch):
    _, world, model = workspace
    args = ["report", "--world", str(world), "--checkpoint", str(model),
            "--out-prefix", str(tmp_path / "diag"), "--episodes", "4", "--n-way", "3",
            "--m-query", "4", "--window", "10", "--seed", "29"]

    def broken(*args, **kwargs):
        raise ValueError("class 7: non-finite completed prototype")

    with monkeypatch.context() as patch:
        patch.setattr(ep, "rank_curve_report", broken)
        capsys.readouterr()
        assert main(args) == 1
    assert capsys.readouterr().err == "error: class 7: non-finite completed prototype\n"
    assert list(tmp_path.iterdir()) == []
    # nothing is left behind, so a rerun needs no --overwrite
    assert main(args) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diag-rank-curve.csv",
                                                           "diag-similarity.json"]


def test_runtime_error_exit_code(tmp_path, capsys):
    code = main(["eval", "--world", str(tmp_path / "missing"), "--checkpoint", "x",
                 "--mode", "mean-only", "--out", str(tmp_path / "r.json"),
                 "--seed", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "\n" not in err.strip()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--mode", "nonsense"])
    assert exc.value.code == 2


# The README's contract: every command requires --seed and its output flag,
# --world and --checkpoint where it reads them, and takes --overwrite.
SHARED_FLAGS = {
    "gen": {"--out", "--seed"},
    "train-completion": {"--world", "--out", "--seed"},
    "meta-train": {"--world", "--checkpoint", "--out", "--seed"},
    "eval": {"--world", "--checkpoint", "--out", "--seed"},
    "ablate": {"--world", "--checkpoint", "--out", "--seed"},
    "noise-sweep": {"--world", "--checkpoint", "--out", "--seed"},
    "report": {"--world", "--checkpoint", "--out-prefix", "--seed"},
}


@pytest.mark.parametrize("command", sorted(SHARED_FLAGS))
def test_every_command_requires_its_shared_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: protofuse {command} ") and "[--overwrite]" in err
    required = set(err.split("the following arguments are required: ")[1].strip().split(", "))
    assert SHARED_FLAGS[command] <= required
    for flag in {"--world", "--checkpoint"} - SHARED_FLAGS[command]:
        assert flag not in err


def test_meta_train_rejects_evaluation_flags(tmp_path, workspace):
    _, world, model = workspace
    with pytest.raises(SystemExit) as exc:
        main(["meta-train", "--world", str(world), "--checkpoint", str(model),
              "--out", str(tmp_path / "meta.pcn"), "--episodes", "999", "--split", "base",
              "--seed", "7"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["train-completion"],
                                     ["meta-train", "--checkpoint", "model.pcn"]])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_episodes_per_epoch_below_one_is_a_usage_error(tmp_path, workspace, capsys,
                                                       command, count):
    _, world, model = workspace
    flags = [str(model) if a == "model.pcn" else a for a in command]
    with pytest.raises(SystemExit) as exc:
        main(flags + ["--world", str(world), "--out", str(tmp_path / "out.pcn"),
                      "--epochs", "1", "--episodes-per-epoch", count, "--seed", "5"])
    assert exc.value.code == 2
    assert f"--episodes-per-epoch: must be at least 1, got {count}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["train-completion"],
                                     ["meta-train", "--checkpoint", "model.pcn"]])
@pytest.mark.parametrize("flag", ["--momentum", "--weight-decay"])
def test_fixed_optimizer_settings_are_not_flags(tmp_path, workspace, capsys, command, flag):
    _, world, model = workspace
    flags = [str(model) if a == "model.pcn" else a for a in command]
    with pytest.raises(SystemExit) as exc:
        main(flags + ["--world", str(world), "--out", str(tmp_path / "out.pcn"),
                      "--epochs", "1", flag, "0.5", "--seed", "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_report_window_zero_fails_before_writing(tmp_path, workspace, capsys):
    _, world, model = workspace
    with pytest.raises(SystemExit) as exc:
        main(["report", "--world", str(world), "--checkpoint", str(model),
              "--out-prefix", str(tmp_path / "diag"), "--episodes", "2", "--window", "0",
              "--seed", "29"])
    assert exc.value.code == 2
    assert "--window: must be at least 1, got 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point(tmp_path):
    # The subprocess imports the same protofuse as this test, installed or not.
    package_parent = str(Path(protofuse.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent,
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "protofuse", "gen", "--out", str(tmp_path / "w"),
         "--base-classes", "3", "--novel-classes", "2", "--attributes", "6",
         "--attrs-per-class", "2", "3", "--samples-per-class", "5",
         "--dim", "8", "--semantic-dim", "4", "--seed", "1"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "w" / "embeddings.manifest.json").exists()


def test_eval_zero_episodes_is_an_error_and_writes_nothing(tmp_path, workspace, capsys):
    _, world, model = workspace
    out = tmp_path / "r.json"
    code = main(["eval", "--world", str(world), "--checkpoint", str(model),
                 "--mode", "gauss-fusion", "--episodes", "0", "--seed", "1",
                 "--out", str(out)])
    assert code == 1
    assert "num_episodes must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["meta-train", "--out", "out.pcn"],
    ["eval", "--mode", "gauss-fusion", "--out", "out.json", "--dump-fusion", "dump.jsonl",
     "--episodes", "2"],
    ["ablate", "--out", "out.json", "--episodes", "2"],
    ["noise-sweep", "--gamma-noise", "0.1", "--out", "out.json", "--episodes", "2"],
    ["report", "--out-prefix", "out", "--episodes", "2"],
])
def test_checkpoint_of_another_world_is_rejected_at_load(tmp_path, workspace, capsys,
                                                         command):
    _, _, model = workspace
    other = tmp_path / "other-world"
    flags = list(GEN_FLAGS)
    flags[flags.index("--semantic-dim") + 1] = "4"
    assert main(["gen", "--out", str(other)] + flags) == 0
    capsys.readouterr()
    paths = [str(tmp_path / a) if a.startswith(("out", "dump")) else a for a in command]
    code = main(paths + ["--world", str(other), "--checkpoint", str(model), "--seed", "1"])
    assert code == 1
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert "\n" not in err and captured.out == ""
    assert f"checkpoint {model} takes 12-d embeddings and 6-d semantics" in err
    assert f"world {other} has 12-d embeddings and 4-d semantics" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["other-world"]


@pytest.mark.parametrize("command", [
    ["meta-train", "--out", "out.pcn"],
    ["eval", "--mode", "mean-only", "--out", "out.json"],
    ["ablate", "--out", "out.json"],
    ["noise-sweep", "--gamma-noise", "0.1", "--out", "out.json"],
    ["report", "--out-prefix", "out"],
])
@pytest.mark.parametrize("flag,value", [("--lambda", "0"), ("--lambda", "-1"),
                                        ("--lambda", "5"),
                                        ("--variance-floor", "0"),
                                        ("--variance-floor", "-1"),
                                        ("--variance-floor", "1e-3")])
def test_fusion_constants_must_be_positive(tmp_path, workspace, capsys, command, flag,
                                           value):
    """The sharpness and the variance floor are positive library constants, so
    no command takes them as flags, whatever the value."""
    _, world, model = workspace
    paths = [str(tmp_path / a) if a.startswith("out") else a for a in command]
    with pytest.raises(SystemExit) as exc:
        main(paths + ["--world", str(world), "--checkpoint", str(model), "--episodes", "2",
                      flag, value, "--seed", "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _rewrite_json(path, mutate):
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))


def _replace_first_line(path, line):
    path.write_text("\n".join([line] + path.read_text().splitlines()[1:]) + "\n")


def _flip_payload_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))


def _repeat_last_tensor(path):
    """Append a second copy of the checkpoint's last tensor, a scalar."""
    name = b"log_scale"
    record = struct.pack("<I", len(name)) + name + struct.pack("<I", 0) + bytes(8)
    path.write_bytes(path.read_bytes() + record)


def _rewrite_tensor(path, name, change):
    tensors = nn.load_checkpoint(path)
    tensors[name] = change(tensors[name])
    nn.save_checkpoint(tensors, path)


CORRUPTIONS = {
    "sidecar-json": ("model.pcn.json", "Expecting property name",
                     lambda p: p.write_text("{bad")),
    "sidecar-not-an-object": ("model.pcn.json", "expected a JSON object, got int",
                              lambda p: p.write_text("5")),
    # Python's json parses a bare NaN; meta-train would copy it into metadata
    # it cannot write.
    "sidecar-metadata-not-finite": (
        "model.pcn.json", "Out of range float values are not JSON compliant",
        lambda p: _rewrite_json(p, lambda d: d["metadata"].update(losses=[float("nan")]))),
    "checkpoint-magic": ("model.pcn", "bad magic bytes b'XXXX'",
                         lambda p: p.write_bytes(b"XXXX" + p.read_bytes()[4:])),
    "checkpoint-truncated": ("model.pcn", "truncated checkpoint while reading payload",
                             lambda p: p.write_bytes(p.read_bytes()[:-5])),
    "checkpoint-name-not-utf8": ("model.pcn", "tensor name at byte 8 is not valid UTF-8",
                                 lambda p: p.write_bytes(p.read_bytes()[:8] + b"\xff"
                                                         + p.read_bytes()[9:])),
    "checkpoint-repeated-name": ("model.pcn", "tensor 'log_scale' appears more than once",
                                 _repeat_last_tensor),
    # The tensors' shapes are the network's dimensions, so they must chain.
    "checkpoint-encoder-weight-not-a-matrix": (
        "model.pcn", "tensor 'encoder.weight' has shape (12,), not a matrix",
        lambda p: _rewrite_tensor(p, "encoder.weight", lambda w: w[0, :12])),
    "checkpoint-aggregator-width-odd": (
        "model.pcn", "tensor 'aggregator.hidden.weight' takes 25 inputs, which do not split "
                     "as d + 2s with s >= 1 for the d = 12 of 'encoder.weight'",
        lambda p: _rewrite_tensor(p, "aggregator.hidden.weight",
                                  lambda w: np.hstack([w, w[:, :1]]))),
    "knowledge-json": ("world/knowledge.json", "Expecting value",
                       lambda p: p.write_text("not json")),
    "knowledge-classes": ("world/knowledge.json", "classes: expected a list",
                          lambda p: _rewrite_json(p, lambda d: d.update(classes=5))),
    # Python's json parses NaN and Infinity; a semantic vector must be finite.
    "knowledge-semantic-not-finite": (
        "world/knowledge.json", "classes[0].semantic: values must be finite",
        lambda p: _rewrite_json(
            p, lambda d: d["classes"][0]["semantic"].__setitem__(0, float("nan")))),
    # A JSON integer past float64's range parses, but does not convert.
    "knowledge-semantic-overflow": (
        "world/knowledge.json", "classes[0].semantic: int too large to convert to float",
        lambda p: _rewrite_json(
            p, lambda d: d["classes"][0]["semantic"].__setitem__(0, 10**400))),
    "payload-checksum": ("world/embeddings.f64le", "payload checksum mismatch",
                         _flip_payload_byte),
    "manifest-d": ("world/embeddings.manifest.json", "manifest is missing 'd'",
                   lambda p: _rewrite_json(p, lambda d: d.pop("d"))),
    "manifest-d-not-an-integer": ("world/embeddings.manifest.json", "d and n must be integers",
                                  lambda p: _rewrite_json(p, lambda d: d.update(d="abc"))),
    # int() would truncate a float, parse a numeric string and count a bool as 1.
    "manifest-d-float": ("world/embeddings.manifest.json", "d and n must be integers, got d=16.9",
                         lambda p: _rewrite_json(p, lambda d: d.update(d=16.9))),
    "manifest-n-string": ("world/embeddings.manifest.json",
                          "d and n must be integers, got d=12, n='200'",
                          lambda p: _rewrite_json(p, lambda d: d.update(n=str(d["n"])))),
    "manifest-d-bool": ("world/embeddings.manifest.json", "d and n must be integers, got d=True",
                        lambda p: _rewrite_json(p, lambda d: d.update(d=True))),
    # With both negated the byte count n * d still matches the payload.
    "manifest-d-n-negative": ("world/embeddings.manifest.json",
                              "d and n must be at least 1, got d=-12, n=-200",
                              lambda p: _rewrite_json(
                                  p, lambda d: d.update(d=-d["d"], n=-d["n"]))),
    "labels-not-an-integer": ("world/embeddings.labels.txt",
                              "holds an entry that is not a 64-bit integer: invalid literal",
                              lambda p: _replace_first_line(p, "x")),
    # Python's int parses it, but it does not fit the int64 label array.
    "labels-past-int64": ("world/embeddings.labels.txt",
                          "holds an entry that is not a 64-bit integer: Python int too large",
                          lambda p: _replace_first_line(p, str(2**63))),
    "centers": ("world/centers.json", "missing ['centers']",
                lambda p: _rewrite_json(p, lambda d: d.pop("centers"))),
    "centers-not-numbers": ("world/centers.json", "centers must be a matrix",
                            lambda p: _rewrite_json(p, lambda d: d.update(centers="abc"))),
    # numpy's float conversion would read "1.5" as 1.5 and true as 1.0.
    "centers-string": ("world/centers.json", 'center row 3 holds "1.5", not a number',
                       lambda p: _rewrite_json(
                           p, lambda d: d["centers"][3].__setitem__(0, "1.5"))),
    "centers-bool": ("world/centers.json", "center row 0 holds true, not a number",
                     lambda p: _rewrite_json(
                         p, lambda d: d["centers"][0].__setitem__(2, True))),
    "centers-overflow": ("world/centers.json",
                         "centers must be a matrix: int too large to convert to float",
                         lambda p: _rewrite_json(
                             p, lambda d: d["centers"][0].__setitem__(0, 10**400))),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_load_errors_name_their_file(tmp_path, workspace, capsys, case):
    _, world, model = workspace
    shutil.copytree(world, tmp_path / "world")
    shutil.copy(model, tmp_path / "model.pcn")
    shutil.copy(f"{model}.json", tmp_path / "model.pcn.json")
    name, message, corrupt = CORRUPTIONS[case]
    corrupt(tmp_path / name)
    capsys.readouterr()
    code = main(["eval", "--world", str(tmp_path / "world"),
                 "--checkpoint", str(tmp_path / "model.pcn"), "--mode", "mean-only",
                 "--episodes", "2", "--seed", "1", "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("missing", ["out", "dump"])
def test_an_output_in_a_missing_directory_fails_before_anything_is_written(
        tmp_path, workspace, capsys, missing):
    _, world, model = workspace
    (tmp_path / "ev").mkdir()
    out, dump = tmp_path / "ev" / "r.json", tmp_path / "ev" / "d.jsonl"
    if missing == "out":
        out = tmp_path / "ev" / "missing" / "r.json"
    else:
        dump = tmp_path / "ev" / "missing" / "d.jsonl"
    capsys.readouterr()
    code = main(["eval", "--world", str(world), "--checkpoint", str(model),
                 "--mode", "gauss-fusion", "--episodes", "2", "--seed", "1",
                 "--out", str(out), "--dump-fusion", str(dump)])
    bad = out if missing == "out" else dump
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}: no such directory {bad.parent}\n"
    assert list((tmp_path / "ev").iterdir()) == []
