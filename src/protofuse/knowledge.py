"""Primitive knowledge (class-attribute associations plus semantic
embeddings) and the statistics derived from base-class embeddings: per-class
prototypes and per-attribute feature distributions.

Attribute statistics use the population (1/N) standard deviation and a
two-pass mean/variance computation. Attributes with no base-class support are
rejected outright rather than silently zeroed; the JSON loader applies the
same policy by dropping attributes no base class is associated with.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .fileio import atomic_write_json, read_json_object

SPLIT_BASE = "base"
SPLIT_NOVEL = "novel"


class KnowledgeFormatError(ValueError):
    """Knowledge file validation failure; message carries field context."""


class AttributeSupportError(ValueError):
    """One or more attributes have an empty base-class support set."""

    def __init__(self, attribute_ids):
        self.attribute_ids = list(attribute_ids)
        super().__init__(
            "attributes with empty base-class support: "
            + ", ".join(str(a) for a in self.attribute_ids)
        )


@dataclass
class PrimitiveKnowledge:
    """Binary class-attribute association matrix plus semantic embeddings.

    Rows of ``association`` are indexed by class id (0..num_classes-1) and
    columns by attribute id (0..num_attributes-1).
    """

    association: np.ndarray          # (num_classes, num_attributes), entries 0/1
    class_semantics: np.ndarray      # (num_classes, s)
    attribute_semantics: np.ndarray  # (num_attributes, s)
    base_class_ids: tuple
    novel_class_ids: tuple
    class_names: tuple = ()
    attribute_names: tuple = ()

    def __post_init__(self):
        self.association = np.asarray(self.association, dtype=np.int8)
        self.class_semantics = np.asarray(self.class_semantics, dtype=np.float64)
        self.attribute_semantics = np.asarray(self.attribute_semantics, dtype=np.float64)
        if self.association.ndim != 2:
            raise ValueError("association must be a (classes x attributes) matrix")
        if not np.isin(self.association, (0, 1)).all():
            raise ValueError("association entries must be 0 or 1")
        c, f = self.association.shape
        if self.class_semantics.shape[0] != c:
            raise ValueError("one semantic vector per class is required")
        if self.attribute_semantics.shape[0] != f:
            raise ValueError("one semantic vector per attribute is required")
        if self.class_semantics.ndim != 2 or self.attribute_semantics.ndim != 2:
            raise ValueError("semantic vectors must form 2-d arrays")
        if self.class_semantics.shape[1] != self.attribute_semantics.shape[1]:
            raise ValueError("class and attribute semantic dimensions differ")
        if self.class_semantics.shape[1] < 1:
            raise ValueError("semantic dimension must be positive")
        self.base_class_ids = tuple(sorted(int(i) for i in self.base_class_ids))
        self.novel_class_ids = tuple(sorted(int(i) for i in self.novel_class_ids))
        base, novel = set(self.base_class_ids), set(self.novel_class_ids)
        if base & novel:
            raise ValueError("base and novel class ids overlap")
        if base | novel != set(range(c)):
            raise ValueError("base and novel ids must cover exactly 0..num_classes-1")
        if not self.class_names:
            self.class_names = tuple(f"class_{i}" for i in range(c))
        if not self.attribute_names:
            self.attribute_names = tuple(f"attribute_{i}" for i in range(f))
        if len(self.class_names) != c or len(self.attribute_names) != f:
            raise ValueError("name lists must match class/attribute counts")

    @property
    def num_classes(self) -> int:
        return self.association.shape[0]

    @property
    def num_attributes(self) -> int:
        return self.association.shape[1]

    @property
    def semantic_dim(self) -> int:
        return self.class_semantics.shape[1]

    def is_base(self, class_id: int) -> bool:
        return class_id in set(self.base_class_ids)


@dataclass
class AttributeStats:
    """Per-attribute feature distribution: mean, population std, support size."""

    mean: np.ndarray           # (num_attributes, d)
    std: np.ndarray            # (num_attributes, d), nonnegative
    support_count: np.ndarray  # (num_attributes,)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        self.support_count = np.asarray(self.support_count, dtype=np.int64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 2:
            raise ValueError("mean and std must be matching (attributes x d) matrices")
        if self.support_count.shape != (self.mean.shape[0],):
            raise ValueError("one support count per attribute is required")
        if (self.std < 0).any():
            raise ValueError("std must be nonnegative")
        if (self.support_count < 1).any():
            raise ValueError("every retained attribute needs support_count >= 1")

    @property
    def num_attributes(self) -> int:
        return self.mean.shape[0]

    @property
    def dim(self) -> int:
        return self.mean.shape[1]


@dataclass
class ClassPrototypeTable:
    """Mean embedding per base class, with sample counts."""

    class_ids: tuple
    prototypes: np.ndarray     # (len(class_ids), d)
    sample_counts: np.ndarray  # (len(class_ids),)

    def __post_init__(self):
        self.class_ids = tuple(int(i) for i in self.class_ids)
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        self.sample_counts = np.asarray(self.sample_counts, dtype=np.int64)
        if self.prototypes.ndim != 2 or self.prototypes.shape[0] != len(self.class_ids):
            raise ValueError("one prototype row per class id is required")
        if self.sample_counts.shape != (len(self.class_ids),):
            raise ValueError("one sample count per class id is required")
        if (self.sample_counts < 1).any():
            raise ValueError("sample counts must be at least 1")
        self._index = {cid: i for i, cid in enumerate(self.class_ids)}

    def prototype(self, class_id: int) -> np.ndarray:
        return self.prototypes[self._index[class_id]]


def _check_labeled_embeddings(embeddings, labels):
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2:
        raise ValueError("embeddings must be a (samples x d) matrix")
    if y.shape != (x.shape[0],):
        raise ValueError("labels must align with embedding rows")
    if x.shape[0] == 0:
        raise ValueError("empty embedding collection")
    return x, y.astype(np.int64)


def compute_base_prototypes(embeddings, labels) -> ClassPrototypeTable:
    """Arithmetic mean of each class's embeddings, over the classes present."""
    x, y = _check_labeled_embeddings(embeddings, labels)
    class_ids = np.unique(y)
    prototypes = np.empty((class_ids.size, x.shape[1]))
    counts = np.empty(class_ids.size, dtype=np.int64)
    for i, cid in enumerate(class_ids):
        rows = x[y == cid]
        prototypes[i] = rows.mean(axis=0)
        counts[i] = rows.shape[0]
    return ClassPrototypeTable(tuple(class_ids.tolist()), prototypes, counts)


def compute_attribute_stats(embeddings, labels, knowledge: PrimitiveKnowledge) -> AttributeStats:
    """Population mean/std of each attribute's support set.

    The support set of attribute ``a`` pools every sample of every *base*
    class associated with ``a``. Two-pass computation for stability.
    """
    x, y = _check_labeled_embeddings(embeddings, labels)
    base_ids = np.asarray(knowledge.base_class_ids)
    base_mask = np.isin(y, base_ids)
    xb, yb = x[base_mask], y[base_mask]
    f, d = knowledge.num_attributes, x.shape[1]
    mean = np.zeros((f, d))
    std = np.zeros((f, d))
    support = np.zeros(f, dtype=np.int64)
    empty = []
    for a in range(f):
        classes_with_a = np.flatnonzero(knowledge.association[:, a])
        classes_with_a = classes_with_a[np.isin(classes_with_a, base_ids)]
        rows = xb[np.isin(yb, classes_with_a)]
        if rows.shape[0] == 0:
            empty.append(a)
            continue
        mu = rows.mean(axis=0)
        mean[a] = mu
        std[a] = np.sqrt(np.mean((rows - mu) ** 2, axis=0))
        support[a] = rows.shape[0]
    if empty:
        raise AttributeSupportError(empty)
    return AttributeStats(mean, std, support)


def inject_knowledge_noise(knowledge: PrimitiveKnowledge, noise_level: float,
                           seed) -> PrimitiveKnowledge:
    """Independently flip each association entry with probability ``noise_level``.

    Returns a new knowledge value; semantics are untouched and the input is
    never mutated. Deterministic per seed.
    """
    if not 0.0 <= noise_level <= 1.0:
        raise ValueError("noise_level must be in [0, 1]")
    rng = np.random.default_rng(seed)
    flips = rng.random(knowledge.association.shape) < noise_level
    flipped = np.where(flips, 1 - knowledge.association, knowledge.association)
    return replace(knowledge, association=flipped)


@dataclass
class ClusterVarianceReport:
    per_class: dict          # class id -> mean over dimensions of per-dim variance
    average: float           # mean of per_class values
    skipped_classes: int     # classes with fewer than 2 samples


def cluster_variance_report(embeddings, labels) -> ClusterVarianceReport:
    """Per-class averaged variance (mean of per-dimension population variances)."""
    x, y = _check_labeled_embeddings(embeddings, labels)
    per_class = {}
    skipped = 0
    for cid in np.unique(y):
        rows = x[y == cid]
        if rows.shape[0] < 2:
            skipped += 1
            continue
        per_class[int(cid)] = float(rows.var(axis=0).mean())
    if not per_class:
        raise ValueError("no class has at least two samples")
    return ClusterVarianceReport(per_class, float(np.mean(list(per_class.values()))), skipped)


def prune_unsupported_attributes(knowledge: PrimitiveKnowledge):
    """Drop attributes no base class is associated with.

    Returns (pruned knowledge, removed attribute ids). Attribute ids are
    re-indexed compactly; names and semantics follow.
    """
    base = np.asarray(knowledge.base_class_ids)
    supported = knowledge.association[base].any(axis=0)
    removed = np.flatnonzero(~supported).tolist()
    if not removed:
        return knowledge, []
    keep = np.flatnonzero(supported)
    pruned = replace(
        knowledge,
        association=knowledge.association[:, keep],
        attribute_semantics=knowledge.attribute_semantics[keep],
        attribute_names=tuple(knowledge.attribute_names[i] for i in keep),
    )
    return pruned, removed


def save_knowledge(knowledge: PrimitiveKnowledge, path) -> None:
    doc = {
        "classes": [
            {
                "id": i,
                "name": knowledge.class_names[i],
                "semantic": knowledge.class_semantics[i].tolist(),
                "split": SPLIT_BASE if knowledge.is_base(i) else SPLIT_NOVEL,
            }
            for i in range(knowledge.num_classes)
        ],
        "attributes": [
            {
                "id": a,
                "name": knowledge.attribute_names[a],
                "semantic": knowledge.attribute_semantics[a].tolist(),
            }
            for a in range(knowledge.num_attributes)
        ],
        "associations": [
            [int(c), int(a)]
            for c, a in zip(*np.nonzero(knowledge.association))
        ],
    }
    atomic_write_json(path, doc)


def _semantic_vector(entry, context: str) -> np.ndarray:
    vec = entry.get("semantic")
    if not isinstance(vec, list) or not vec or not all(
        isinstance(v, (int, float)) for v in vec
    ):
        raise KnowledgeFormatError(f"{context}.semantic: expected a nonempty list of numbers")
    return np.asarray(vec, dtype=np.float64)


def load_knowledge(path) -> PrimitiveKnowledge:
    """Load and validate a knowledge JSON file.

    Attributes not associated with any base class are removed on load (a
    warning reports their ids), mirroring the construction-time rejection in
    ``compute_attribute_stats``.
    """
    try:
        knowledge = _knowledge_from_doc(read_json_object(path))
    except KnowledgeFormatError as exc:
        raise KnowledgeFormatError(f"{path}: {exc}") from exc
    knowledge, removed = prune_unsupported_attributes(knowledge)
    if removed:
        warnings.warn(
            f"removed {len(removed)} attribute(s) without base-class support: {removed}",
            stacklevel=2,
        )
    return knowledge


def _knowledge_from_doc(doc) -> PrimitiveKnowledge:
    """Validate a parsed knowledge document and build the knowledge from it."""
    for key in ("classes", "attributes", "associations"):
        if key not in doc or not isinstance(doc[key], list):
            raise KnowledgeFormatError(f"{key}: expected a list")

    classes = doc["classes"]
    attributes = doc["attributes"]
    if not classes or not attributes:
        raise KnowledgeFormatError("classes and attributes must be nonempty")

    def check_ids(entries, what):
        seen = set()
        for i, entry in enumerate(entries):
            context = f"{what}[{i}]"
            if not isinstance(entry, dict):
                raise KnowledgeFormatError(f"{context}: expected an object")
            cid = entry.get("id")
            if not isinstance(cid, int):
                raise KnowledgeFormatError(f"{context}.id: expected an integer")
            if cid in seen:
                raise KnowledgeFormatError(f"{context}.id: duplicate id {cid}")
            seen.add(cid)
        if seen != set(range(len(entries))):
            raise KnowledgeFormatError(f"{what}: ids must be exactly 0..{len(entries) - 1}")

    check_ids(classes, "classes")
    check_ids(attributes, "attributes")

    c, f = len(classes), len(attributes)
    class_semantics = np.zeros((c, 0))
    class_names = [""] * c
    base_ids, novel_ids = [], []
    sem_dim = None
    for i, entry in enumerate(sorted(classes, key=lambda e: e["id"])):
        context = f"classes[{i}]"
        vec = _semantic_vector(entry, context)
        if sem_dim is None:
            sem_dim = vec.size
            class_semantics = np.zeros((c, sem_dim))
        elif vec.size != sem_dim:
            raise KnowledgeFormatError(
                f"{context}.semantic: dimension {vec.size} != {sem_dim}"
            )
        class_semantics[entry["id"]] = vec
        class_names[entry["id"]] = str(entry.get("name", f"class_{entry['id']}"))
        split = entry.get("split")
        if split == SPLIT_BASE:
            base_ids.append(entry["id"])
        elif split == SPLIT_NOVEL:
            novel_ids.append(entry["id"])
        else:
            raise KnowledgeFormatError(
                f"{context}.split: expected '{SPLIT_BASE}' or '{SPLIT_NOVEL}', got {split!r}"
            )
    if not base_ids:
        raise KnowledgeFormatError("classes: at least one base class is required")

    attribute_semantics = np.zeros((f, sem_dim))
    attribute_names = [""] * f
    for i, entry in enumerate(sorted(attributes, key=lambda e: e["id"])):
        context = f"attributes[{i}]"
        vec = _semantic_vector(entry, context)
        if vec.size != sem_dim:
            raise KnowledgeFormatError(
                f"{context}.semantic: dimension {vec.size} != {sem_dim}"
            )
        attribute_semantics[entry["id"]] = vec
        attribute_names[entry["id"]] = str(entry.get("name", f"attribute_{entry['id']}"))

    association = np.zeros((c, f), dtype=np.int8)
    for i, pair in enumerate(doc["associations"]):
        context = f"associations[{i}]"
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(v, int) for v in pair)):
            raise KnowledgeFormatError(f"{context}: expected [class_id, attribute_id]")
        cid, aid = pair
        if not 0 <= cid < c:
            raise KnowledgeFormatError(f"{context}: unknown class id {cid}")
        if not 0 <= aid < f:
            raise KnowledgeFormatError(f"{context}: unknown attribute id {aid}")
        association[cid, aid] = 1

    return PrimitiveKnowledge(
        association=association,
        class_semantics=class_semantics,
        attribute_semantics=attribute_semantics,
        base_class_ids=tuple(base_ids),
        novel_class_ids=tuple(novel_ids),
        class_names=tuple(class_names),
        attribute_names=tuple(attribute_names),
    )
