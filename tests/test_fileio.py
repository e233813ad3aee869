"""Atomic writes: JSON artefacts never hold NaN or infinity, and a failed
write, or a document JSON cannot hold, names the path it was given and
leaves no temporary file."""

import json
import math
import re

import pytest

from protofuse.fileio import atomic_write_json


def test_atomic_write_json_round_trips(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json(path, {"b": [1.5, 2], "a": "x"})
    assert json.loads(path.read_text()) == {"a": "x", "b": [1.5, 2]}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_atomic_write_json_rejects_non_finite_and_leaves_no_file(tmp_path, value):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*not JSON compliant"):
        atomic_write_json(path, {"mean_acc": value})
    assert list(tmp_path.iterdir()) == []


def test_write_error_names_the_path_and_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "missing" / "doc.json"
    with pytest.raises(FileNotFoundError) as info:
        atomic_write_json(path, {"a": 1})
    assert str(info.value) == f"{path}: cannot write: No such file or directory"
    # a rename that fails (onto a directory) removes the written temporary file
    (tmp_path / "taken").mkdir()
    (tmp_path / "taken" / "inside").write_text("")
    with pytest.raises(OSError) as info:
        atomic_write_json(tmp_path / "taken", {"a": 1})
    assert str(info.value).startswith(f"{tmp_path / 'taken'}: cannot write: ")
    assert "\n" not in str(info.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
