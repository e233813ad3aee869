"""Primitive knowledge (class-attribute associations plus semantic
embeddings) and the statistics derived from base-class embeddings: per-class
prototypes, the completion targets, as a ``{class_id: prototype}`` dict in
ascending id order, and per-attribute feature distributions, the completion
prior. Every class not listed as base is novel.

``knowledge.json`` lists the classes (id, semantic vector, ``split``), the
attributes (id, semantic vector) and the ``[class_id, attribute_id]`` pairs.
It alone marks a saved world's base classes; other keys are ignored.

Attribute statistics use the population (1/N) standard deviation and a
two-pass mean/variance computation. Attributes with no base-class support are
rejected outright rather than silently zeroed; the JSON loader applies the
same policy by dropping attributes no base class is associated with.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .fileio import atomic_write_json, is_json_int, is_json_number, read_json_object

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
    base_class_ids: tuple  # every other class id is novel

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
        if not set(self.base_class_ids) <= set(range(c)):
            raise ValueError("base class ids must lie in 0..num_classes-1")

    @property
    def num_classes(self) -> int:
        return self.association.shape[0]

    @property
    def num_attributes(self) -> int:
        return self.association.shape[1]

    @property
    def semantic_dim(self) -> int:
        return self.class_semantics.shape[1]


@dataclass
class AttributeStats:
    """Per-attribute feature distribution: mean and population std."""

    mean: np.ndarray  # (num_attributes, d)
    std: np.ndarray   # (num_attributes, d), nonnegative

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 2:
            raise ValueError("mean and std must be matching (attributes x d) matrices")
        if (self.std < 0).any():
            raise ValueError("std must be nonnegative")

    @property
    def num_attributes(self) -> int:
        return self.mean.shape[0]

    @property
    def dim(self) -> int:
        return self.mean.shape[1]


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


def compute_base_prototypes(embeddings, labels) -> dict:
    """Arithmetic mean of each class's embeddings, over the classes present:
    ``{class_id: prototype}`` with int keys in ascending order."""
    x, y = _check_labeled_embeddings(embeddings, labels)
    return {int(cid): x[y == cid].mean(axis=0) for cid in np.unique(y)}


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
    if empty:
        raise AttributeSupportError(empty)
    return AttributeStats(mean, std)


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


def average_cluster_variance(embeddings, labels) -> float:
    """Mean over classes of each class's averaged variance (the mean of its
    per-dimension population variances), skipping classes with fewer than
    two samples."""
    x, y = _check_labeled_embeddings(embeddings, labels)
    variances = []
    for cid in np.unique(y):
        rows = x[y == cid]
        if rows.shape[0] >= 2:
            variances.append(float(rows.var(axis=0).mean()))
    if not variances:
        raise ValueError("no class has at least two samples")
    return float(np.mean(variances))


def prune_unsupported_attributes(knowledge: PrimitiveKnowledge):
    """Drop attributes no base class is associated with.

    Returns (pruned knowledge, removed attribute ids). Attribute ids are
    re-indexed compactly; semantics follow.
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
    )
    return pruned, removed


def save_knowledge(knowledge: PrimitiveKnowledge, path) -> None:
    atomic_write_json(path, {
        "classes": [{"id": i, "semantic": semantic.tolist(),
                     "split": SPLIT_BASE if i in knowledge.base_class_ids else SPLIT_NOVEL}
                    for i, semantic in enumerate(knowledge.class_semantics)],
        "attributes": [{"id": a, "semantic": semantic.tolist()}
                       for a, semantic in enumerate(knowledge.attribute_semantics)],
        "associations": [[int(c), int(a)] for c, a in zip(*np.nonzero(knowledge.association))],
    })


def _semantic_vector(entry, context: str) -> np.ndarray:
    vec = entry.get("semantic")
    if not isinstance(vec, list) or not vec or not all(is_json_number(v) for v in vec):
        raise KnowledgeFormatError(f"{context}.semantic: expected a nonempty list of numbers")
    try:
        vec = np.asarray(vec, dtype=np.float64)
    except OverflowError as exc:  # a JSON integer past float64's range
        raise KnowledgeFormatError(f"{context}.semantic: {exc}") from exc
    if not np.isfinite(vec).all():
        raise KnowledgeFormatError(f"{context}.semantic: values must be finite")
    return vec


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
            if not is_json_int(cid):
                raise KnowledgeFormatError(f"{context}.id: expected an integer")
            if cid in seen:
                raise KnowledgeFormatError(f"{context}.id: duplicate id {cid}")
            seen.add(cid)
        if seen != set(range(len(entries))):
            raise KnowledgeFormatError(f"{what}: ids must be exactly 0..{len(entries) - 1}")

    check_ids(classes, "classes")
    check_ids(attributes, "attributes")

    def semantics(entries, what, dim=None):
        """The entries' semantic vectors in id order, all of one dimension:
        ``dim``, or the first vector's."""
        rows = []
        for i, entry in enumerate(sorted(entries, key=lambda e: e["id"])):
            vec = _semantic_vector(entry, f"{what}[{i}]")
            dim = vec.size if dim is None else dim
            if vec.size != dim:
                raise KnowledgeFormatError(f"{what}[{i}].semantic: dimension {vec.size} != {dim}")
            rows.append(vec)
        return np.array(rows)

    class_semantics = semantics(classes, "classes")
    base_ids = []
    for i, entry in enumerate(sorted(classes, key=lambda e: e["id"])):
        split = entry.get("split")
        if split == SPLIT_BASE:
            base_ids.append(entry["id"])
        elif split != SPLIT_NOVEL:
            raise KnowledgeFormatError(
                f"classes[{i}].split: expected '{SPLIT_BASE}' or '{SPLIT_NOVEL}', got {split!r}")
    if not base_ids:
        raise KnowledgeFormatError("classes: at least one base class is required")
    attribute_semantics = semantics(attributes, "attributes", class_semantics.shape[1])

    c, f = len(classes), len(attributes)
    association = np.zeros((c, f), dtype=np.int8)
    for i, pair in enumerate(doc["associations"]):
        context = f"associations[{i}]"
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(is_json_int(v) for v in pair)):
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
    )
