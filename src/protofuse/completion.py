"""Encoder-aggregator-decoder network that completes class prototypes.

A shared encoder embeds both the incomplete prototype and the attribute
features; an attention MLP scores each associated attribute from the
concatenation (prototype, class semantic, attribute semantic); the gated,
weighted latents plus the prototype latent are decoded back to embedding
space. Attributes the class is not associated with contribute exactly zero.

The attention score is a raw scalar (identity output activation) with no
normalization across attributes. The classifier scale used downstream is
kept here as ``log_scale`` so one checkpoint carries the whole trainable
state; optimizing the log keeps the scale positive.

Completing a (B, d) block as classes ``class_ids`` scores every associated
(row, attribute) pair in one batch, in the order ``_pairs`` fixes. Training
feeds ``_complete`` (generic over plain arrays and traced Nodes) one drawn
feature per pair as a (pairs, d) matrix. ``CompletionPlan`` is the untraced
inference path: it uses the attribute means, precomputes what depends only
on the parameters and the knowledge, and has ``_complete`` as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .fileio import atomic_write_json, read_json_object
from .knowledge import AttributeStats, PrimitiveKnowledge

ENCODER_DIM = 256
AGGREGATOR_HIDDEN = 300
DECODER_HIDDEN = 512
SCALE_INIT = 10.0  # the classifier scale gamma every new network starts from

TENSOR_NAMES = (
    "encoder.weight", "encoder.bias",
    "aggregator.hidden.weight", "aggregator.hidden.bias",
    "aggregator.output.weight", "aggregator.output.bias",
    "decoder.hidden.weight", "decoder.hidden.bias",
    "decoder.output.weight", "decoder.output.bias",
    "log_scale",
)


@dataclass
class CompletionNetParams:
    """All learnable state: encoder, aggregator, decoder, classifier scale."""

    store: nn.ParamStore
    input_dim: int
    semantic_dim: int
    encoder_dim: int = ENCODER_DIM
    aggregator_hidden: int = AGGREGATOR_HIDDEN
    decoder_hidden: int = DECODER_HIDDEN

    @classmethod
    def initialize(cls, input_dim: int, semantic_dim: int, seed,
                   encoder_dim: int = ENCODER_DIM,
                   aggregator_hidden: int = AGGREGATOR_HIDDEN,
                   decoder_hidden: int = DECODER_HIDDEN) -> "CompletionNetParams":
        rng = np.random.default_rng(seed)
        aggregator_in = input_dim + 2 * semantic_dim
        store = nn.ParamStore()
        store.register("encoder.weight", nn.glorot_uniform(rng, encoder_dim, input_dim))
        store.register("encoder.bias", np.zeros(encoder_dim))
        store.register("aggregator.hidden.weight",
                       nn.glorot_uniform(rng, aggregator_hidden, aggregator_in))
        store.register("aggregator.hidden.bias", np.zeros(aggregator_hidden))
        store.register("aggregator.output.weight", nn.glorot_uniform(rng, 1, aggregator_hidden))
        store.register("aggregator.output.bias", np.zeros(1))
        store.register("decoder.hidden.weight", nn.glorot_uniform(rng, decoder_hidden, encoder_dim))
        store.register("decoder.hidden.bias", np.zeros(decoder_hidden))
        store.register("decoder.output.weight", nn.glorot_uniform(rng, input_dim, decoder_hidden))
        store.register("decoder.output.bias", np.zeros(input_dim))
        store.register("log_scale", np.log(SCALE_INIT))
        return cls(store, input_dim, semantic_dim, encoder_dim, aggregator_hidden, decoder_hidden)

    def tensors(self) -> dict:
        """Live parameter arrays by name (the untraced fast path)."""
        return {name: self.store.value(name) for name in self.store.names()}

    def leaves(self) -> dict:
        """Fresh leaf Nodes for one traced forward/backward pass."""
        return self.store.leaves()

    @property
    def scale_gamma(self) -> float:
        return float(np.exp(self.store.value("log_scale")))

    def tensor_shapes(self) -> dict:
        """The shape every tensor must have for these dimensions, by name."""
        d, e = self.input_dim, self.encoder_dim
        h, k = self.aggregator_hidden, self.decoder_hidden
        return {
            "encoder.weight": (e, d), "encoder.bias": (e,),
            "aggregator.hidden.weight": (h, d + 2 * self.semantic_dim),
            "aggregator.hidden.bias": (h,),
            "aggregator.output.weight": (1, h), "aggregator.output.bias": (1,),
            "decoder.hidden.weight": (k, e), "decoder.hidden.bias": (k,),
            "decoder.output.weight": (d, k), "decoder.output.bias": (d,),
            "log_scale": (),
        }


def _tensor_dict(params) -> dict:
    return params.tensors() if isinstance(params, CompletionNetParams) else params


def _pairs(association: np.ndarray, class_ids) -> tuple:
    """(rows, attributes) of every associated pair when row i is class
    ``class_ids[i]``: row by row, attributes ascending."""
    ids = np.asarray(class_ids, dtype=np.int64)
    unknown = ids[(ids < 0) | (ids >= association.shape[0])]
    if unknown.size:
        raise ValueError(f"unknown class id {unknown[0]}")
    return np.nonzero(association[ids])


def draw_attribute_features(stats: AttributeStats, knowledge: PrimitiveKnowledge,
                            class_ids, rng: np.random.Generator) -> np.ndarray:
    """One training feature per associated pair of ``class_ids``, as the
    (pairs, d) matrix ``mean[a] + std[a] * eps`` whose row p belongs to pair
    p of ``_pairs``; the noise is one (pairs, d) block of ``rng``."""
    if stats.num_attributes != knowledge.num_attributes:
        raise ValueError(f"attribute stats cover {stats.num_attributes} attributes, "
                         f"the knowledge has {knowledge.num_attributes}")
    _, attrs = _pairs(knowledge.association, class_ids)
    return stats.mean[attrs] + stats.std[attrs] * rng.standard_normal((attrs.size, stats.dim))


def _encode(tensors, x):
    """Shared encoder on the rows of ``x``."""
    return ad.relu(ad.linear(x, tensors["encoder.weight"], tensors["encoder.bias"]))


def _attention_scores(tensors, knowledge: PrimitiveKnowledge, class_ids, prototypes, attrs):
    """Raw attention scalar of every (class, prototype, attribute) pair, shape (pairs, 1).

    Pair p scores attribute ``attrs[p]`` for class ``class_ids[p]`` whose
    incomplete prototype is row p of ``prototypes``.
    """
    inputs = np.concatenate([prototypes, knowledge.class_semantics[class_ids],
                             knowledge.attribute_semantics[attrs]], axis=1)
    hidden = ad.relu(ad.linear(inputs, tensors["aggregator.hidden.weight"],
                               tensors["aggregator.hidden.bias"]))
    return ad.linear(hidden, tensors["aggregator.output.weight"],
                     tensors["aggregator.output.bias"])


def _decode(tensors, combined):
    hidden = ad.relu(ad.linear(combined, tensors["decoder.hidden.weight"],
                               tensors["decoder.hidden.bias"]))
    return ad.linear(hidden, tensors["decoder.output.weight"], tensors["decoder.output.bias"])


def _complete(tensors, knowledge: PrimitiveKnowledge, class_ids, incomplete, features):
    """Complete row i of the (B, d) ``incomplete`` as class ``class_ids[i]``.

    Generic over plain arrays and traced Nodes. ``features`` is the constant
    (pairs, d) matrix of attribute features, row p for pair p of ``_pairs``
    (as ``draw_attribute_features`` returns it). All pairs go through one
    encoder pass and one aggregator pass; a constant (B, pairs) 0/1 matrix
    sums each row's score-weighted latents, so a row with no associated
    attributes decodes its own encoded prototype.
    """
    x = np.asarray(incomplete, dtype=np.float64)
    ids = np.asarray(class_ids, dtype=np.int64)
    if ids.shape != (x.shape[0],):
        raise ValueError(f"{ids.size} class ids for {x.shape[0]} prototypes")
    rows, attrs = _pairs(knowledge.association, ids)
    if np.shape(features) != (rows.size, x.shape[1]):
        raise ValueError(f"{rows.size} associated pairs of {x.shape[1]}-d prototypes need "
                         f"a ({rows.size}, {x.shape[1]}) feature block, got {np.shape(features)}")
    combined = _encode(tensors, x)
    if rows.size:
        latents = _encode(tensors, features)
        scores = _attention_scores(tensors, knowledge, ids[rows], x[rows], attrs)
        select = np.zeros((ids.size, rows.size))
        select[rows, np.arange(rows.size)] = 1.0
        combined = ad.add(ad.matmul(select, ad.mul(latents, scores)), combined)
    return _decode(tensors, combined)


@dataclass(frozen=True)
class CompletionPlan:
    """Inference completion constants of one (params, knowledge, stats) triple.

    The aggregator's first layer acts on (prototype, class semantic,
    attribute semantic), so its pre-activation splits into one term per
    column block. The class and attribute terms and the attribute latents
    of the attribute means depend only on the triple; they are
    computed once here, and completing B prototypes then costs a few
    (B, ...) matmuls. SGD updates the parameters in place and a noisy
    knowledge copy changes the associations, so a plan is built for one
    call and never kept past it.
    """

    tensors: dict                 # parameter arrays by name
    association: np.ndarray       # (C, A) bool
    prototype_weight: np.ndarray  # (H, d) prototype block of aggregator.hidden.weight
    class_terms: np.ndarray       # (C, H) class_semantics @ W_class.T
    attribute_terms: np.ndarray   # (A, H) attribute_semantics @ W_attribute.T + hidden bias
    attribute_latents: np.ndarray  # (A, E) relu(W_enc mean_a + b_enc)

    @classmethod
    def build(cls, params, knowledge: PrimitiveKnowledge,
              stats: AttributeStats) -> "CompletionPlan":
        t = _tensor_dict(params)
        w_enc, w_hidden = t["encoder.weight"], t["aggregator.hidden.weight"]
        d, s = w_enc.shape[1], knowledge.semantic_dim
        if w_hidden.shape[1] != d + 2 * s:
            raise ValueError(
                f"aggregator takes {w_hidden.shape[1]} inputs, but {d}-d prototypes and "
                f"{s}-d knowledge semantics make {d + 2 * s}")
        if stats.mean.shape != (knowledge.num_attributes, d):
            raise ValueError(f"attribute stats of shape {stats.mean.shape} do not match "
                             f"{knowledge.num_attributes} attributes of dimension {d}")
        return cls(
            tensors=t,
            association=knowledge.association.astype(bool),
            prototype_weight=w_hidden[:, :d],
            class_terms=knowledge.class_semantics @ w_hidden[:, d:d + s].T,
            attribute_terms=(knowledge.attribute_semantics @ w_hidden[:, d + s:].T
                             + t["aggregator.hidden.bias"]),
            attribute_latents=_encode(t, stats.mean),
        )

    def complete(self, class_ids, incomplete) -> np.ndarray:
        """Complete row i of the (B, d) ``incomplete`` as class ``class_ids[i]``.

        Only the (row, attribute) pairs the association rows allow are
        scored, in one (pairs, H) hidden matrix; their scores fill a (B, A)
        weight matrix whose other entries are exactly zero. Against scoring
        every pair in a (B, A, H) tensor this halves the scoring work and
        keeps a 5-way episode's temporaries under 128 KB; with 240 KB ones,
        meta-training episodes run between evaluations sometimes
        page-faulted about 50 times as often.
        """
        t = self.tensors
        x = np.asarray(incomplete, dtype=np.float64)
        ids = np.asarray(class_ids, dtype=np.int64)
        d = self.prototype_weight.shape[1]
        if x.ndim != 2 or x.shape[1] != d:
            raise ValueError(f"prototypes must be {d}-vectors, got a block of shape {x.shape}")
        if ids.shape != (x.shape[0],):
            raise ValueError(f"{ids.size} class ids for {x.shape[0]} prototypes")
        rows, attrs = _pairs(self.association, ids)
        z_proto = _encode(t, x)
        pre = (x @ self.prototype_weight.T + self.class_terms[ids])[rows] \
            + self.attribute_terms[attrs]
        alphas = np.zeros((ids.size, self.association.shape[1]))
        alphas[rows, attrs] = (ad.relu(pre) @ t["aggregator.output.weight"][0]
                               + t["aggregator.output.bias"])
        return _decode(t, alphas @ self.attribute_latents + z_proto)


def complete_prototype(params, knowledge: PrimitiveKnowledge, stats: AttributeStats,
                       class_id: int, incomplete) -> np.ndarray:
    """Complete one prototype from the attribute means (the one-row case of
    ``CompletionPlan``)."""
    plan = CompletionPlan.build(params, knowledge, stats)
    return plan.complete([class_id], np.asarray(incomplete, dtype=np.float64)[None])[0]


@dataclass
class CompletionTask:
    """One prototype-completion training episode for a base class."""

    class_id: int
    support: np.ndarray     # (k_shot, d)
    incomplete: np.ndarray  # (d,) mean of the support rows
    target: np.ndarray      # (d,) the full-class prototype

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.float64)
        self.incomplete = np.asarray(self.incomplete, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        if self.support.ndim != 2 or self.support.shape[0] < 1:
            raise ValueError("support must hold at least one embedding")
        if self.incomplete.shape != (self.support.shape[1],):
            raise ValueError("incomplete prototype dimension mismatch")
        if self.target.shape != self.incomplete.shape:
            raise ValueError("target dimension mismatch")


def sample_completion_tasks(embeddings, labels, prototypes, k_shot: int, count: int,
                            rng: np.random.Generator) -> list:
    """Uniformly draw (class, k_shot support rows without replacement) tasks.

    The incomplete prototype is the support mean; the target is the class's
    full prototype from ``prototypes``.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    class_ids = list(prototypes.class_ids)
    by_class = {cid: np.flatnonzero(y == cid) for cid in class_ids}
    for cid, rows in by_class.items():
        if rows.size < k_shot:
            raise ValueError(f"class {cid} has {rows.size} samples, fewer than k_shot={k_shot}")
    tasks = []
    for _ in range(count):
        cid = class_ids[rng.integers(len(class_ids))]
        chosen = rng.choice(by_class[cid], size=k_shot, replace=False)
        support = x[chosen]
        tasks.append(CompletionTask(
            class_id=cid,
            support=support,
            incomplete=support.mean(axis=0),
            target=prototypes.prototype(cid),
        ))
    return tasks


def completion_loss(tensors, knowledge: PrimitiveKnowledge, task: CompletionTask,
                    features):
    """Mean-over-dimensions squared error of the completed prototype (the
    one-row case of ``_complete``, with the task class's (pairs, d) features)."""
    predicted = _complete(tensors, knowledge, [task.class_id], task.incomplete[None],
                          features)
    diff = ad.sub(predicted, task.target)
    return ad.mean(ad.mul(diff, diff))


def train_completion(params: CompletionNetParams, knowledge: PrimitiveKnowledge,
                     stats: AttributeStats, tasks, config: nn.SgdConfig,
                     rng: np.random.Generator) -> list:
    """SGD over completion tasks; returns the per-epoch mean loss curve.

    The task list is consumed in ``config.epochs`` consecutive chunks, so
    callers control how many fresh episodes each epoch sees. Attribute
    features are drawn afresh for every task.
    """
    tasks = list(tasks)
    if not tasks:
        raise ValueError("no completion tasks provided")
    if len(tasks) < config.epochs:
        raise ValueError(f"{len(tasks)} tasks cannot fill {config.epochs} epochs")
    losses = []
    for chunk in np.array_split(np.arange(len(tasks)), config.epochs):
        total = 0.0
        for index in chunk:
            task = tasks[index]
            features = draw_attribute_features(stats, knowledge, [task.class_id], rng)
            leaves = params.store.leaves()
            loss = completion_loss(leaves, knowledge, task, features)
            if not np.isfinite(loss.value):
                raise RuntimeError(
                    f"non-finite completion loss on class {task.class_id}")
            ad.backward(loss)
            params.store.accumulate(leaves)
            nn.sgd_step(params.store, config)
            total += float(loss.value)
        losses.append(total / len(chunk))
    return losses


def save_model(params: CompletionNetParams, path, metadata: dict | None = None) -> None:
    """Binary checkpoint plus a JSON sidecar (dims, scale, training metadata)."""
    nn.save_checkpoint(params.store, path)
    sidecar = {
        "input_dim": params.input_dim,
        "semantic_dim": params.semantic_dim,
        "encoder_dim": params.encoder_dim,
        "aggregator_hidden": params.aggregator_hidden,
        "decoder_hidden": params.decoder_hidden,
        "scale_gamma": params.scale_gamma,
        "metadata": metadata or {},
    }
    atomic_write_json(str(path) + ".json", sidecar)


def load_model(path) -> tuple:
    """Load a checkpoint + sidecar pair; returns (params, metadata)."""
    sidecar_path = f"{path}.json"
    sidecar = read_json_object(sidecar_path)
    dims = ("input_dim", "semantic_dim", "encoder_dim", "aggregator_hidden", "decoder_hidden")
    absent = [key for key in dims if key not in sidecar]
    if absent:
        raise nn.CheckpointError(f"{sidecar_path}: sidecar is missing {absent}")
    tensors = nn.load_checkpoint(path)
    missing = [name for name in TENSOR_NAMES if name not in tensors]
    if missing:
        raise nn.CheckpointError(f"{path}: checkpoint is missing tensors: {missing}")
    store = nn.ParamStore()
    for name in TENSOR_NAMES:
        store.register(name, tensors[name])
    try:
        sizes = {key: int(sidecar[key]) for key in dims}
    except (TypeError, ValueError) as exc:
        raise nn.CheckpointError(f"{sidecar_path}: dimensions must be integers: {exc}") from exc
    params = CompletionNetParams(store=store, **sizes)
    for name, shape in params.tensor_shapes().items():
        if store.value(name).shape != shape:
            raise nn.CheckpointError(
                f"{path}: tensor '{name}' has shape {store.value(name).shape}, "
                f"expected {shape} from the sidecar dimensions")
        if not np.isfinite(store.value(name)).all():
            raise nn.CheckpointError(f"{path}: tensor '{name}' holds non-finite values")
    return params, sidecar.get("metadata", {})
