"""Atomic writes: JSON artefacts never hold NaN or infinity."""

import json
import math

import pytest

from protofuse.fileio import atomic_write_json


def test_atomic_write_json_round_trips(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json(path, {"b": [1.5, 2], "a": "x"})
    assert json.loads(path.read_text()) == {"a": "x", "b": [1.5, 2]}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_atomic_write_json_rejects_non_finite_and_leaves_no_file(tmp_path, value):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        atomic_write_json(path, {"mean_acc": value})
    assert list(tmp_path.iterdir()) == []
