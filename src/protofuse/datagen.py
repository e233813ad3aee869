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

On disk a world is one ``embeddings.*`` dataset of every class (manifest,
little-endian float64 payload, labels), base rows first, plus
``knowledge.json``, which alone says which classes are base, and
``centers.json``. ``load_world`` splits the rows by the knowledge, in order.
The file names are the constants below; no file names another. The manifest
holds the payload's shape (``d``, ``n``) and SHA-256, and ``centers.json``
the center matrix alone. Loaders ignore any other key.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .fileio import (atomic_write_bytes, atomic_write_json, atomic_write_text,
                     is_json_int, read_json_object, sha256_file)
from .knowledge import (PrimitiveKnowledge, load_knowledge, prune_unsupported_attributes,
                        save_knowledge)

SEMANTIC_NOISE = 0.05  # std of the noise added to each class's semantic vector

# The files of a world directory: save_world writes WORLD_FILES, and cli gen
# adds WORLDSPEC, a record of its flags that nothing loads.
WORLD_FILES = (EMBEDDINGS_MANIFEST, EMBEDDINGS_PAYLOAD, EMBEDDINGS_LABELS, KNOWLEDGE, CENTERS) = (
    "embeddings.manifest.json", "embeddings.f64le", "embeddings.labels.txt", "knowledge.json",
    "centers.json")
WORLDSPEC = "worldspec.json"


class DatasetFormatError(ValueError):
    pass


@dataclass
class FewShotDataset:
    """An embedding matrix with integer class labels.

    Every embedding must be finite. The sorted class ids and each class's
    row indices are computed once, at construction, and handed out as
    read-only arrays.
    """

    embeddings: np.ndarray  # (n, d)
    labels: np.ndarray      # (n,)

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] < 1:
            raise ValueError("embeddings must be a nonempty (n x d) matrix")
        if self.labels.shape != (self.embeddings.shape[0],):
            raise ValueError("labels must align with embedding rows")
        finite = np.isfinite(self.embeddings).all(axis=1)
        if not finite.all():
            raise ValueError(f"embedding row {np.flatnonzero(~finite)[0]} is not finite")
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
        for name in ("noise_std", "novel_noise_std", "offset_std"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if int(self.seed) < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class World:
    base: FewShotDataset
    novel: FewShotDataset
    knowledge: PrimitiveKnowledge
    centers: np.ndarray  # (num_classes, d) pre-dropout centers by class id


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
                              + SEMANTIC_NOISE * rng.standard_normal(spec.semantic_dim))

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
    base = FewShotDataset(embeddings[base_mask], labels[base_mask])
    novel = FewShotDataset(embeddings[~base_mask], labels[~base_mask])

    knowledge = PrimitiveKnowledge(
        association=association,
        class_semantics=class_semantics,
        attribute_semantics=attribute_semantics,
        base_class_ids=tuple(base_ids),
    )
    # Attributes no base class carries cannot be estimated; the samples keep
    # their components but the knowledge drops the columns.
    knowledge, _ = prune_unsupported_attributes(knowledge)
    return World(base, novel, knowledge, centers)


def save_dataset(dataset: FewShotDataset, directory) -> str:
    """Write the embeddings.* payload/labels/manifest files; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    payload_path = os.path.join(directory, EMBEDDINGS_PAYLOAD)
    atomic_write_bytes(payload_path,
                       np.ascontiguousarray(dataset.embeddings, dtype="<f8").tobytes())
    atomic_write_text(os.path.join(directory, EMBEDDINGS_LABELS),
                      "\n".join(str(int(v)) for v in dataset.labels) + "\n")
    manifest_path = os.path.join(directory, EMBEDDINGS_MANIFEST)
    atomic_write_json(manifest_path, {"d": dataset.dim, "n": dataset.n,
                                      "checksum": sha256_file(payload_path)})
    return manifest_path


def load_embeddings(manifest_path) -> FewShotDataset:
    """Load a dataset from its manifest and the payload and labels files
    beside it, verifying the checksum and the shapes."""
    manifest = read_json_object(manifest_path)
    for key in ("d", "n", "checksum"):
        if key not in manifest:
            raise DatasetFormatError(f"{manifest_path}: manifest is missing '{key}'")
    d, n = manifest["d"], manifest["n"]
    if not (is_json_int(d) and is_json_int(n)):
        raise DatasetFormatError(
            f"{manifest_path}: d and n must be integers, got d={d!r}, n={n!r}")
    if d < 1 or n < 1:
        raise DatasetFormatError(f"{manifest_path}: d and n must be at least 1, got d={d}, n={n}")
    directory = os.path.dirname(os.fspath(manifest_path))
    payload_path = os.path.join(directory, EMBEDDINGS_PAYLOAD)
    labels_path = os.path.join(directory, EMBEDDINGS_LABELS)

    actual = sha256_file(payload_path)
    if actual != manifest["checksum"]:
        raise DatasetFormatError(
            f"{payload_path}: payload checksum mismatch: manifest says "
            f"{manifest['checksum']}, file is {actual}")
    expected_bytes = n * d * 8
    actual_bytes = os.path.getsize(payload_path)
    if actual_bytes != expected_bytes:
        raise DatasetFormatError(
            f"{payload_path}: payload size mismatch: expected {expected_bytes} bytes ({n}x{d}), "
            f"got {actual_bytes}")
    embeddings = np.fromfile(payload_path, dtype="<f8").reshape(n, d)

    with open(labels_path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if len(lines) != n:
        raise DatasetFormatError(
            f"{labels_path}: labels file has {len(lines)} entries, expected {n}")
    try:
        labels = np.asarray([int(line) for line in lines], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise DatasetFormatError(
            f"{labels_path}: labels file holds an entry that is not a 64-bit integer: {exc}"
        ) from None
    try:
        return FewShotDataset(embeddings, labels)
    except ValueError as exc:
        raise DatasetFormatError(f"{manifest_path}: {exc}") from exc


def save_world(world: World, directory) -> None:
    """Write the world's files; the dataset holds the base rows, then the novel."""
    save_dataset(FewShotDataset(np.vstack([world.base.embeddings, world.novel.embeddings]),
                                np.concatenate([world.base.labels, world.novel.labels])),
                 directory)
    save_knowledge(world.knowledge, os.path.join(directory, KNOWLEDGE))
    atomic_write_json(os.path.join(directory, CENTERS), {"centers": world.centers.tolist()})


def _load_centers(centers_path, dataset: FewShotDataset) -> np.ndarray:
    """The (num_classes, d) center matrix of ``centers.json``, checked against
    ``dataset``: finite, d columns, and a row for every class id."""
    doc = read_json_object(centers_path)
    if "centers" not in doc:
        raise DatasetFormatError(f"{centers_path}: missing ['centers']")
    try:
        centers = np.asarray(doc["centers"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"{centers_path}: centers must be a matrix: {exc}") from exc
    if centers.ndim != 2 or centers.shape[1] != dataset.dim:
        raise DatasetFormatError(f"{centers_path}: centers must be a matrix of "
                                 f"{dataset.dim}-d rows like the embeddings, got {centers.shape}")
    ids = dataset.class_ids()
    rowless = ids[ids >= centers.shape[0]]
    if rowless.size:
        raise DatasetFormatError(f"{centers_path}: no center row for class id {rowless[0]}")
    finite = np.isfinite(centers).all(axis=1)
    if not finite.all():
        raise DatasetFormatError(
            f"{centers_path}: center row {np.flatnonzero(~finite)[0]} is not finite")
    return centers


def load_world(directory) -> World:
    """Load a saved world, splitting its dataset into the base classes of its
    ``knowledge.json`` and the other classes, each in file row order."""
    manifest_path = os.path.join(directory, EMBEDDINGS_MANIFEST)
    dataset = load_embeddings(manifest_path)
    knowledge_path = os.path.join(directory, KNOWLEDGE)
    knowledge = load_knowledge(knowledge_path)
    ids = dataset.class_ids()
    unknown = ids[(ids < 0) | (ids >= knowledge.num_classes)]
    if unknown.size:
        raise DatasetFormatError(f"{manifest_path}: label {unknown[0]} is not a class id "
                                 f"of {knowledge_path}")
    is_base = np.isin(dataset.labels, knowledge.base_class_ids)
    if is_base.all() or not is_base.any():
        raise DatasetFormatError(f"{manifest_path}: no sample of a "
                                 f"{'novel' if is_base.all() else 'base'} class of "
                                 f"{knowledge_path}")
    centers = _load_centers(os.path.join(directory, CENTERS), dataset)
    return World(FewShotDataset(dataset.embeddings[is_base], dataset.labels[is_base]),
                 FewShotDataset(dataset.embeddings[~is_base], dataset.labels[~is_base]),
                 knowledge, centers)
