"""End-to-end command-line flows on a tiny world, including the determinism
and overwrite contracts."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import protofuse
from protofuse.cli import main

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


def test_gen_writes_expected_files(workspace):
    _, world, _ = workspace
    for name in ("base.manifest.json", "base.labels.txt", "base.f64le",
                 "novel.manifest.json", "knowledge.json", "centers.json",
                 "worldspec.json"):
        assert (world / name).exists()


def test_gen_is_deterministic(tmp_path, workspace):
    _, world, _ = workspace
    again = tmp_path / "again"
    assert main(["gen", "--out", str(again)] + GEN_FLAGS) == 0
    for name in ("base.f64le", "novel.f64le", "knowledge.json", "centers.json"):
        assert (again / name).read_bytes() == (world / name).read_bytes()


def test_train_produces_checkpoint_and_sidecar(workspace):
    _, _, model = workspace
    assert model.exists()
    sidecar = json.loads((model.parent / "model.pcn.json").read_text())
    assert sidecar["input_dim"] == 12
    assert len(sidecar["metadata"]["losses"]) == 4


def test_train_refuses_overwrite_without_flag(workspace, capsys):
    root, world, model = workspace
    code = main(["train-completion", "--world", str(world), "--out", str(model),
                 "--epochs", "1", "--episodes-per-epoch", "4", "--seed", "5"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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
    _, world, model = workspace
    table = tmp_path / "ablate.json"
    single = tmp_path / "single.json"
    shape = ["--n-way", "3", "--m-query", "5", "--episodes", "10", "--seed", "19"]
    assert main(["ablate", "--world", str(world), "--checkpoint", str(model),
                 "--out", str(table)] + shape) == 0
    assert main(["eval", "--world", str(world), "--checkpoint", str(model),
                 "--mode", "mean-only", "--out", str(single)] + shape) == 0
    rows = json.loads(table.read_text())
    assert set(rows) == {"mean-only", "completed-only", "mean-fusion", "gauss-fusion"}
    assert rows["mean-only"] == json.loads(single.read_text())


def test_noise_sweep_zero_level_matches_clean_eval(tmp_path, workspace):
    _, world, model = workspace
    out = tmp_path / "sweep.json"
    clean = tmp_path / "clean.json"
    shape = ["--n-way", "3", "--m-query", "5", "--episodes", "10", "--seed", "23"]
    assert main(["noise-sweep", "--world", str(world), "--checkpoint", str(model),
                 "--gamma-noise", "0.0", "0.3", "--out", str(out)] + shape) == 0
    assert main(["eval", "--world", str(world), "--checkpoint", str(model),
                 "--mode", "completed-only", "--out", str(clean)] + shape) == 0
    doc = json.loads(out.read_text())
    assert doc["completed-only"]["0.0"] == json.loads(clean.read_text())
    assert set(doc["completed-only"]) == {"0.0", "0.3"}


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
    curve = (tmp_path / "diag-rank-curve.csv").read_text().splitlines()
    assert curve[0] == "rank,mean_based,completed"
    assert len(curve) == 21


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
    assert (tmp_path / "w" / "base.manifest.json").exists()


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


def _flip_payload_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))


CORRUPTIONS = {
    "sidecar-json": ("model.pcn.json", "Expecting property name",
                     lambda p: p.write_text("{bad")),
    "sidecar-not-an-object": ("model.pcn.json", "expected a JSON object, got int",
                              lambda p: p.write_text("5")),
    "checkpoint-magic": ("model.pcn", "bad magic bytes b'XXXX'",
                         lambda p: p.write_bytes(b"XXXX" + p.read_bytes()[4:])),
    "checkpoint-truncated": ("model.pcn", "truncated checkpoint while reading payload",
                             lambda p: p.write_bytes(p.read_bytes()[:-5])),
    "knowledge-json": ("world/knowledge.json", "Expecting value",
                       lambda p: p.write_text("not json")),
    "knowledge-classes": ("world/knowledge.json", "classes: expected a list",
                          lambda p: _rewrite_json(p, lambda d: d.update(classes=5))),
    "payload-checksum": ("world/base.f64le", "payload checksum mismatch", _flip_payload_byte),
    "manifest-d": ("world/base.manifest.json", "manifest is missing 'd'",
                   lambda p: _rewrite_json(p, lambda d: d.pop("d"))),
    "manifest-d-not-an-integer": ("world/base.manifest.json", "d and n must be integers",
                                  lambda p: _rewrite_json(p, lambda d: d.update(d="abc"))),
    "sidecar-dimension-not-an-integer": (
        "model.pcn.json", "dimensions must be integers",
        lambda p: _rewrite_json(p, lambda d: d.update(input_dim=[12]))),
    "centers": ("world/centers.json", "missing ['centers']",
                lambda p: _rewrite_json(p, lambda d: d.pop("centers"))),
    "centers-not-numbers": ("world/centers.json", "centers must be a matrix",
                            lambda p: _rewrite_json(p, lambda d: d.update(centers="abc"))),
    "worldspec-unknown-field": ("world/worldspec.json", "unexpected keyword argument 'bogus'",
                                lambda p: _rewrite_json(p, lambda d: d.update(bogus=1))),
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
