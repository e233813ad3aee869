"""Atomic file writes and checksums shared by the persistence layers."""

import hashlib
import json
import os
import tempfile


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file + rename in the same directory.

    An ``OSError`` of the write is raised again as one line that starts with
    ``path`` (the temporary file's name means nothing to the caller), and
    the temporary file is removed.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise type(exc)(f"{path}: cannot write: {exc.strerror or exc}") from exc
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def json_text(obj, path) -> str:
    """``obj`` as the JSON text of the file ``path``. NaN and infinities are
    not JSON: they raise a ValueError that names ``path``."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def atomic_write_json(path, obj) -> None:
    atomic_write_text(path, json_text(obj, path))


def read_json_object(path) -> dict:
    """Parse a JSON file that holds one object; a malformed document or any
    other top-level value raises ValueError naming ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def is_json_int(value) -> bool:
    """True for a JSON integer; JSON's true and false parse to bools, which
    Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_number(value) -> bool:
    """True for a JSON integer or float; not for a bool or a numeric string."""
    return is_json_int(value) or isinstance(value, float)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
