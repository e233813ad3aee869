"""Synthetic embedding worlds and on-disk dataset formats.

The generator builds the premise the completion pipeline exploits: every
attribute owns a unit component vector in embedding space, a class center is
the sum of its attribute components plus a class offset, and each sample
independently *drops* each possessed attribute component with some
probability (plus isotropic noise). Samples far from their center are
therefore exactly the ones missing attribute components, and the attribute
vocabulary is shared between base and novel classes so attribute statistics
transfer.

Returned class centers are the ideal pre-dropout centers (offset plus the
sum of all possessed components): distance from a sample to its center grows
with the number of dropped components, and the centers coincide with the
sample means when dropout_rate is 0.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from .fileio import (atomic_write_bytes, atomic_write_json, atomic_write_text,
                     read_json_object, sha256_file)
from .knowledge import (PrimitiveKnowledge, load_knowledge, prune_unsupported_attributes,
                        save_knowledge)

SPLITS = ("base", "novel-val", "novel-test")

PAYLOAD_DTYPES = {"f64le": "<f8", "f32le": "<f4"}


class DatasetFormatError(ValueError):
    pass


@dataclass
class FewShotDataset:
    """An embedding matrix with integer class labels and a split tag.

    The sorted class ids and each class's row indices are computed once, at
    construction, and handed out as read-only arrays.
    """

    embeddings: np.ndarray  # (n, d)
    labels: np.ndarray      # (n,)
    split: str = "base"

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] < 1:
            raise ValueError("embeddings must be a nonempty (n x d) matrix")
        if self.labels.shape != (self.embeddings.shape[0],):
            raise ValueError("labels must align with embedding rows")
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        order = np.argsort(self.labels, kind="stable")
        class_ids, starts = np.unique(self.labels[order], return_index=True)
        order.flags.writeable = False
        class_ids.flags.writeable = False
        self._class_ids = class_ids
        self._rows = dict(zip(class_ids.tolist(), np.split(order, starts[1:])))
        self._no_rows = order[:0]

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def class_ids(self) -> np.ndarray:
        return self._class_ids

    def indices_of(self, class_id: int) -> np.ndarray:
        """Ascending row indices of ``class_id``; empty for an absent class."""
        return self._rows.get(class_id, self._no_rows)


@dataclass
class WorldSpec:
    """Knobs for the synthetic world generator.

    The defaults are a calibrated benchmark: hard enough that mean-based
    1-shot prototypes land near 65% on 5-way tasks, with enough base classes
    that completion must learn a transferable rule rather than memorize them.
    """

    dim: int = 64
    semantic_dim: int = 32
    num_base_classes: int = 32
    num_novel_classes: int = 8
    num_attributes: int = 20
    attributes_per_class: tuple = (6, 10)
    samples_per_class: int = 60
    noise_std: float = 0.05
    dropout_rate: float = 0.5
    seed: int = 0
    offset_std: float = 0.3
    novel_noise_std: float | None = None  # defaults to noise_std
    semantic_noise: float = 0.05

    def __post_init__(self):
        lo, hi = self.attributes_per_class
        if min(self.dim, self.semantic_dim, self.num_base_classes,
               self.num_novel_classes, self.num_attributes,
               self.samples_per_class, lo, hi) < 1:
            raise ValueError("all counts must be at least 1")
        if lo > hi or hi > self.num_attributes:
            raise ValueError("attributes_per_class range must fit the vocabulary")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.noise_std < 0 or (self.novel_noise_std is not None and self.novel_noise_std < 0):
            raise ValueError("noise std must be nonnegative")
        if self.offset_std < 0 or self.semantic_noise < 0:
            raise ValueError("offset_std and semantic_noise must be nonnegative")
        if int(self.seed) < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class World:
    base: FewShotDataset
    novel: FewShotDataset
    knowledge: PrimitiveKnowledge
    centers: np.ndarray  # (num_classes, d) pre-dropout centers by class id
    spec: WorldSpec | None = None


def _unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def generate_world(spec: WorldSpec) -> World:
    """Deterministically build a base/novel embedding world plus its knowledge."""
    rng = np.random.default_rng(spec.seed)
    num_classes = spec.num_base_classes + spec.num_novel_classes
    lo, hi = spec.attributes_per_class

    components = _unit_rows(rng, spec.num_attributes, spec.dim)
    association = np.zeros((num_classes, spec.num_attributes), dtype=np.int8)
    for k in range(num_classes):
        size = int(rng.integers(lo, hi + 1))
        subset = rng.choice(spec.num_attributes, size=size, replace=False)
        association[k, subset] = 1
    offsets = _unit_rows(rng, num_classes, spec.dim) * spec.offset_std

    attribute_semantics = _unit_rows(rng, spec.num_attributes, spec.semantic_dim)
    class_semantics = np.empty((num_classes, spec.semantic_dim))
    for k in range(num_classes):
        owned = np.flatnonzero(association[k])
        class_semantics[k] = (attribute_semantics[owned].mean(axis=0)
                              + spec.semantic_noise * rng.standard_normal(spec.semantic_dim))

    centers = np.empty((num_classes, spec.dim))
    blocks, labels = [], []
    base_ids = list(range(spec.num_base_classes))
    for k in range(num_classes):
        owned = np.flatnonzero(association[k])
        comp = components[owned]
        centers[k] = offsets[k] + comp.sum(axis=0)
        noise_std = spec.noise_std if k in set(base_ids) else (
            spec.novel_noise_std if spec.novel_noise_std is not None else spec.noise_std)
        samples = np.empty((spec.samples_per_class, spec.dim))
        for i in range(spec.samples_per_class):
            kept = rng.random(owned.size) >= spec.dropout_rate
            samples[i] = (offsets[k] + comp[kept].sum(axis=0)
                          + noise_std * rng.standard_normal(spec.dim))
        blocks.append(samples)
        labels.append(np.full(spec.samples_per_class, k, dtype=np.int64))

    embeddings = np.vstack(blocks)
    labels = np.concatenate(labels)
    base_mask = labels < spec.num_base_classes
    base = FewShotDataset(embeddings[base_mask], labels[base_mask], "base")
    novel = FewShotDataset(embeddings[~base_mask], labels[~base_mask], "novel-test")

    knowledge = PrimitiveKnowledge(
        association=association,
        class_semantics=class_semantics,
        attribute_semantics=attribute_semantics,
        base_class_ids=tuple(base_ids),
        novel_class_ids=tuple(range(spec.num_base_classes, num_classes)),
    )
    # Attributes no base class carries cannot be estimated; the samples keep
    # their components but the knowledge drops the columns.
    knowledge, _ = prune_unsupported_attributes(knowledge)
    return World(base, novel, knowledge, centers, spec)


def save_dataset(dataset: FewShotDataset, directory, stem: str) -> str:
    """Write payload/labels/manifest files; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    payload_name = f"{stem}.f64le"
    labels_name = f"{stem}.labels.txt"
    manifest_path = os.path.join(directory, f"{stem}.manifest.json")
    payload_path = os.path.join(directory, payload_name)
    atomic_write_bytes(payload_path,
                       np.ascontiguousarray(dataset.embeddings, dtype="<f8").tobytes())
    atomic_write_text(os.path.join(directory, labels_name),
                      "\n".join(str(int(v)) for v in dataset.labels) + "\n")
    manifest = {
        "d": dataset.dim,
        "n": dataset.n,
        "classes": [int(c) for c in dataset.class_ids()],
        "labels_file": labels_name,
        "payload_file": payload_name,
        "payload_dtype": "f64le",
        "checksum": sha256_file(payload_path),
        "split": dataset.split,
    }
    atomic_write_json(manifest_path, manifest)
    return manifest_path


def load_embeddings(manifest_path) -> FewShotDataset:
    """Load a dataset from its manifest, verifying checksum and consistency."""
    manifest = read_json_object(manifest_path)
    for key in ("d", "n", "classes", "labels_file", "payload_file", "payload_dtype", "checksum"):
        if key not in manifest:
            raise DatasetFormatError(f"{manifest_path}: manifest is missing '{key}'")
    try:
        d, n = int(manifest["d"]), int(manifest["n"])
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{manifest_path}: d and n must be integers: {exc}") from exc
    dtype = PAYLOAD_DTYPES.get(manifest["payload_dtype"])
    if dtype is None:
        raise DatasetFormatError(
            f"{manifest_path}: unknown payload_dtype {manifest['payload_dtype']!r}")
    directory = os.path.dirname(os.fspath(manifest_path))
    payload_path = os.path.join(directory, manifest["payload_file"])
    labels_path = os.path.join(directory, manifest["labels_file"])

    actual = sha256_file(payload_path)
    if actual != manifest["checksum"]:
        raise DatasetFormatError(
            f"{payload_path}: payload checksum mismatch: manifest says "
            f"{manifest['checksum']}, file is {actual}")
    itemsize = np.dtype(dtype).itemsize
    expected_bytes = n * d * itemsize
    actual_bytes = os.path.getsize(payload_path)
    if actual_bytes != expected_bytes:
        raise DatasetFormatError(
            f"{payload_path}: payload size mismatch: expected {expected_bytes} bytes ({n}x{d}), "
            f"got {actual_bytes}")
    flat = np.fromfile(payload_path, dtype=dtype)
    embeddings = flat.astype(np.float64).reshape(n, d)

    with open(labels_path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if len(lines) != n:
        raise DatasetFormatError(
            f"{labels_path}: labels file has {len(lines)} entries, expected {n}")
    try:
        labels = np.asarray([int(line) for line in lines], dtype=np.int64)
    except ValueError as exc:
        raise DatasetFormatError(
            f"{labels_path}: labels file contains a non-integer entry: {exc}") from None
    known = set(int(c) for c in manifest["classes"])
    unknown = sorted(set(labels.tolist()) - known)
    if unknown:
        raise DatasetFormatError(f"{labels_path}: labels reference unknown class ids: {unknown}")
    return FewShotDataset(embeddings, labels, manifest.get("split", "base"))


def save_world(world: World, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    save_dataset(world.base, directory, "base")
    save_dataset(world.novel, directory, "novel")
    save_knowledge(world.knowledge, os.path.join(directory, "knowledge.json"))
    atomic_write_json(os.path.join(directory, "centers.json"), {
        "d": int(world.centers.shape[1]),
        "num_classes": int(world.centers.shape[0]),
        "centers": world.centers.tolist(),
    })
    if world.spec is not None:
        spec_doc = asdict(world.spec)
        spec_doc["attributes_per_class"] = list(world.spec.attributes_per_class)
        atomic_write_json(os.path.join(directory, "worldspec.json"), spec_doc)


def load_world(directory) -> World:
    base = load_embeddings(os.path.join(directory, "base.manifest.json"))
    novel = load_embeddings(os.path.join(directory, "novel.manifest.json"))
    knowledge = load_knowledge(os.path.join(directory, "knowledge.json"))
    centers_path = os.path.join(directory, "centers.json")
    doc = read_json_object(centers_path)
    absent = [key for key in ("d", "num_classes", "centers") if key not in doc]
    if absent:
        raise DatasetFormatError(f"{centers_path}: missing {absent}")
    try:
        centers = np.asarray(doc["centers"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{centers_path}: centers must be a matrix: {exc}") from exc
    if centers.shape != (doc["num_classes"], doc["d"]):
        raise DatasetFormatError(f"{centers_path}: shape fields disagree with the payload")
    spec = None
    spec_path = os.path.join(directory, "worldspec.json")
    if os.path.exists(spec_path):
        spec_doc = read_json_object(spec_path)
        try:
            spec_doc["attributes_per_class"] = tuple(spec_doc["attributes_per_class"])
            spec = WorldSpec(**spec_doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetFormatError(f"{spec_path}: {exc}") from exc
    return World(base, novel, knowledge, centers, spec)
