"""Encoder-aggregator-decoder network that completes class prototypes.

A shared encoder embeds both the incomplete prototype and the attribute
features; an attention MLP scores each associated attribute from
(prototype, class semantic, attribute semantic); the score-weighted latents
plus the prototype latent are decoded back to embedding space. Attributes
the class is not associated with contribute exactly zero.

The attention score is a raw scalar (identity output activation) with no
normalization across attributes. The classifier scale used downstream is
kept here as ``log_scale`` so one checkpoint carries the whole trainable
state; optimizing the log keeps the scale positive. The tensors' shapes are
the network's dimensions, so a checkpoint's JSON sidecar holds only the
scale as a number and the training metadata.

The network is written once, in ``_forward``. Completing a (B, d) block as
classes ``class_ids`` splits the aggregator's first layer into its
prototype, class and attribute column blocks, scores only the associated
(row, attribute) pairs in the order ``_pairs`` fixes, and multiplies the
scores, as a (B, L) weight matrix, into an (L, E) matrix of latents. Two
callers feed it:

- ``complete``, the training path (``completion_loss`` and the episodic
  loss): one autodiff node whose L latents are the encoded drawn features,
  one per pair, and whose hand-written backward pass returns the gradients
  of the ten network tensors;
- ``complete_prototype``, the inference path, with a ``CompletionPlan``:
  its L latents are the encoded attribute means, one per attribute, and the
  plan precomputes everything that depends only on the parameters and the
  knowledge.
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
NETWORK_TENSORS = TENSOR_NAMES[:-1]  # what completion reads: all but log_scale


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
        """Registers ``tensor_shapes`` in ``TENSOR_NAMES`` order, which fixes the glorot
        draws: weights glorot-uniform, biases zero, ``log_scale`` at log(SCALE_INIT)."""
        rng = np.random.default_rng(seed)
        params = cls(nn.ParamStore(), input_dim, semantic_dim, encoder_dim,
                     aggregator_hidden, decoder_hidden)
        shapes = params.tensor_shapes()
        for name in TENSOR_NAMES:
            if name.endswith(".weight"):
                value = nn.glorot_uniform(rng, *shapes[name])
            elif name == "log_scale":
                value = np.log(SCALE_INIT)
            else:
                value = np.zeros(shapes[name])
            params.store.register(name, value)
        return params

    def tensors(self) -> dict:
        """Live parameter arrays by name (the untraced fast path)."""
        return {name: self.store.value(name) for name in self.store.names()}

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


def _encode(t, x):
    """Shared encoder on the rows of ``x``."""
    return np.maximum(x @ t["encoder.weight"].T + t["encoder.bias"], 0.0)


def _input_dims(t, knowledge: PrimitiveKnowledge) -> tuple:
    """(d, s): the prototype and semantic dimensions, checked against the
    aggregator's input width."""
    d, s = t["encoder.weight"].shape[1], knowledge.semantic_dim
    width = t["aggregator.hidden.weight"].shape[1]
    if width != d + 2 * s:
        raise ValueError(f"aggregator takes {width} inputs, but {d}-d prototypes and "
                         f"{s}-d knowledge semantics make {d + 2 * s}")
    return d, s


def _block(class_ids, incomplete, d: int) -> tuple:
    """(B, d) prototypes and (B,) class ids of one completion call, checked."""
    x = np.asarray(incomplete, dtype=np.float64)
    ids = np.asarray(class_ids, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"prototypes must be {d}-vectors, got a block of shape {x.shape}")
    if ids.shape != (x.shape[0],):
        raise ValueError(f"{ids.size} class ids for {x.shape[0]} prototypes")
    return x, ids


def _forward(t, x, rows, columns, class_terms, attribute_terms, latents):
    """The completion network on plain arrays, the one forward pass of both
    the training node and the inference plan.

    Row i of the (B, d) ``x`` is completed from the pairs p with
    ``rows[p] == i``. The aggregator's first layer is split by column block:
    the prototype term ``x @ W_proto.T`` and ``class_terms`` (B, H) act per
    row, ``attribute_terms`` (P, H, hidden bias included) per pair. Only the
    P associated pairs are scored; score p fills entry (rows[p], columns[p])
    of a (B, L) weight matrix, whose other entries are exactly zero, and that
    matrix times the (L, E) ``latents`` adds the score-weighted latents to the
    encoded prototypes. Returns the (B, d) completion and the intermediates
    the backward pass reads.
    """
    z_proto = _encode(t, x)
    hidden = (x @ t["aggregator.hidden.weight"][:, :x.shape[1]].T + class_terms)[rows]
    hidden += attribute_terms
    np.maximum(hidden, 0.0, out=hidden)
    weights = np.zeros((x.shape[0], latents.shape[0]))
    weights[rows, columns] = (hidden @ t["aggregator.output.weight"][0]
                              + t["aggregator.output.bias"])
    combined = weights @ latents + z_proto
    decoded = np.maximum(combined @ t["decoder.hidden.weight"].T + t["decoder.hidden.bias"],
                         0.0)
    out = decoded @ t["decoder.output.weight"].T + t["decoder.output.bias"]
    return out, (z_proto, hidden, weights, combined, decoded)


def _weight_grad(g, x):
    """``g.T @ x``: a dense layer's (out, in) weight gradient from its (n, out)
    output gradient and (n, in) input. For one row this is an outer product,
    which ``einsum`` forms bit for bit as ``np.dot`` does (each entry is one
    product) in about 60% of the time for a 512 x 256 weight; ``np.dot`` is
    the faster from a few rows on."""
    if g.shape[0] == 1:
        return np.einsum("i,j->ij", g[0], x[0])
    return np.dot(g.T, x)


def complete(tensors, knowledge: PrimitiveKnowledge, class_ids, incomplete, features):
    """Complete row i of the (B, d) ``incomplete`` as class ``class_ids[i]``
    from the (pairs, d) ``features``, row p for pair p of ``_pairs`` (as
    ``draw_attribute_features`` returns it): the latent of pair p is the
    encoded feature p.

    When any of the ten network tensors is a traced Node, the result is one
    Node whose hand-written backward pass returns their gradients directly;
    with plain arrays it is the (B, d) array and nothing is recorded. The
    prototypes and the features are constants of both losses, so a Node for
    either is rejected. A row with no associated attributes decodes its own
    encoded prototype.
    """
    if ad.is_node(incomplete) or ad.is_node(features):
        raise TypeError("completion takes constant prototypes and features, not Nodes")
    t = {name: ad.value_of(tensors[name]) for name in NETWORK_TENSORS}
    d, s = _input_dims(t, knowledge)
    x, ids = _block(class_ids, incomplete, d)
    rows, attrs = _pairs(knowledge.association, ids)
    pairs = np.arange(rows.size)
    f = np.asarray(features, dtype=np.float64)
    if f.shape != (rows.size, d):
        raise ValueError(f"{rows.size} associated pairs of {d}-d prototypes need "
                         f"a ({rows.size}, {d}) feature block, got {f.shape}")
    w_hidden = t["aggregator.hidden.weight"]
    class_semantics = knowledge.class_semantics[ids]
    attribute_semantics = knowledge.attribute_semantics[attrs]
    latents = _encode(t, f)
    out, (z_proto, hidden, weights, combined, decoded) = _forward(
        t, x, rows, pairs, class_semantics @ w_hidden[:, d:d + s].T,
        attribute_semantics @ w_hidden[:, d + s:].T + t["aggregator.hidden.bias"], latents)
    names = [name for name in NETWORK_TENSORS if ad.is_node(tensors[name])]
    if not names:
        return out

    def vjp(g):
        d_decoded = (g @ t["decoder.output.weight"]) * (decoded > 0.0)
        d_combined = d_decoded @ t["decoder.hidden.weight"]
        d_scores = (d_combined @ latents.T)[rows, pairs]
        d_hidden = np.multiply.outer(d_scores, t["aggregator.output.weight"][0]) * (hidden > 0.0)
        d_encoded = np.concatenate([d_combined * (z_proto > 0.0),
                                    (weights.T @ d_combined) * (latents > 0.0)])
        grads = {
            "encoder.weight": np.dot(d_encoded.T, np.concatenate([x, f])),
            "encoder.bias": d_encoded.sum(axis=0),
            "aggregator.hidden.weight": np.dot(d_hidden.T, np.concatenate(
                [x[rows], class_semantics[rows], attribute_semantics], axis=1)),
            "aggregator.hidden.bias": d_hidden.sum(axis=0),
            "aggregator.output.weight": (d_scores @ hidden)[None],
            "aggregator.output.bias": np.array([d_scores.sum()]),
            "decoder.hidden.weight": _weight_grad(d_decoded, combined),
            "decoder.hidden.bias": d_decoded.sum(axis=0),
            "decoder.output.weight": _weight_grad(g, decoded),
            "decoder.output.bias": g.sum(axis=0),
        }
        return tuple(grads[name] for name in names)

    return ad.Node(out, [tensors[name] for name in names], vjp)


@dataclass(frozen=True)
class CompletionPlan:
    """Inference completion constants of one (params, knowledge, stats) triple.

    With it, ``complete_prototype`` runs the same ``_forward`` as the
    training node ``complete``, with the encoded attribute means as the
    latents (one per attribute, not one per pair). The class and attribute
    terms of the aggregator's first layer and those latents depend only on
    the triple, so they are computed once here, and completing B prototypes
    then costs a few (B, ...) matmuls. SGD updates the parameters in place
    and a noisy knowledge copy changes the associations, so a plan is built
    for one call and never kept past it.
    """

    tensors: dict                 # parameter arrays by name
    association: np.ndarray       # (C, A) bool
    class_terms: np.ndarray       # (C, H) class_semantics @ W_class.T
    attribute_terms: np.ndarray   # (A, H) attribute_semantics @ W_attribute.T + hidden bias
    attribute_latents: np.ndarray  # (A, E) relu(W_enc mean_a + b_enc)

    @classmethod
    def build(cls, params: CompletionNetParams, knowledge: PrimitiveKnowledge,
              stats: AttributeStats) -> "CompletionPlan":
        t = params.tensors()
        d, s = _input_dims(t, knowledge)
        if stats.mean.shape != (knowledge.num_attributes, d):
            raise ValueError(f"attribute stats of shape {stats.mean.shape} do not match "
                             f"{knowledge.num_attributes} attributes of dimension {d}")
        w_hidden = t["aggregator.hidden.weight"]
        return cls(
            tensors=t,
            association=knowledge.association.astype(bool),
            class_terms=knowledge.class_semantics @ w_hidden[:, d:d + s].T,
            attribute_terms=(knowledge.attribute_semantics @ w_hidden[:, d + s:].T
                             + t["aggregator.hidden.bias"]),
            attribute_latents=_encode(t, stats.mean),
        )


def complete_prototype(plan: CompletionPlan, class_ids, incomplete) -> np.ndarray:
    """Complete row i of the (B, d) ``incomplete`` as class ``class_ids[i]``
    from the attribute means, with the constants of ``plan``: every
    inference completion goes through here.

    Against scoring every (row, attribute) pair in a (B, A, H) tensor,
    scoring only the associated ones halves the scoring work and the
    largest temporary, about 96 KB per 5-way roster of the benchmark world.
    """
    x, ids = _block(class_ids, incomplete, plan.tensors["encoder.weight"].shape[1])
    rows, attrs = _pairs(plan.association, ids)
    return _forward(plan.tensors, x, rows, attrs, plan.class_terms[ids],
                    plan.attribute_terms[attrs], plan.attribute_latents)[0]


@dataclass
class CompletionTask:
    """One prototype-completion training episode for a base class."""

    class_id: int
    incomplete: np.ndarray  # (d,) mean of the k_shot support rows
    target: np.ndarray      # (d,) the full-class prototype

    def __post_init__(self):
        self.incomplete = np.asarray(self.incomplete, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        if self.incomplete.ndim != 1 or self.target.shape != self.incomplete.shape:
            raise ValueError("incomplete and target must be vectors of one dimension")


def sample_completion_tasks(embeddings, labels, prototypes, k_shot: int, count: int,
                            rng: np.random.Generator) -> list:
    """Uniformly draw (class, k_shot support rows without replacement) tasks.

    The incomplete prototype is the support mean; the target is the class's
    full prototype from ``prototypes``, the ``{class_id: prototype}`` dict of
    ``knowledge.compute_base_prototypes``.
    """
    if k_shot < 1:
        raise ValueError(f"k_shot must be at least 1, got {k_shot}")
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    class_ids = list(prototypes)
    by_class = {cid: np.flatnonzero(y == cid) for cid in class_ids}
    for cid, rows in by_class.items():
        if rows.size < k_shot:
            raise ValueError(f"class {cid} has {rows.size} samples, fewer than k_shot={k_shot}")
    tasks = []
    for _ in range(count):
        cid = class_ids[rng.integers(len(class_ids))]
        chosen = rng.choice(by_class[cid], size=k_shot, replace=False)
        tasks.append(CompletionTask(class_id=cid, incomplete=x[chosen].mean(axis=0),
                                    target=prototypes[cid]))
    return tasks


def completion_loss(tensors, knowledge: PrimitiveKnowledge, task: CompletionTask,
                    features):
    """Mean-over-dimensions squared error of the completed prototype: one
    ``complete`` node for the task's one row and its class's (pairs, d)
    features, then the squared error through autodiff."""
    predicted = complete(tensors, knowledge, [task.class_id], task.incomplete[None],
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
            total += nn.train_step(
                params.store, lambda leaves: completion_loss(leaves, knowledge, task, features),
                config, f"non-finite completion loss on class {task.class_id}")
        losses.append(total / len(chunk))
    return losses


def sidecar_path(path) -> str:
    """The JSON sidecar written beside the checkpoint at ``path``."""
    return f"{path}.json"


def save_model(params: CompletionNetParams, path, metadata: dict | None = None) -> None:
    """Binary checkpoint plus a JSON sidecar holding what the tensors cannot
    say: the classifier scale as a number, and the training metadata."""
    nn.save_checkpoint(params.tensors(), path)
    atomic_write_json(sidecar_path(path),
                      {"scale_gamma": params.scale_gamma, "metadata": metadata or {}})


def _dims(path, tensors) -> tuple:
    """(d, s, E, H, K) from the shapes of ``encoder.weight`` (E, d),
    ``aggregator.hidden.weight`` (H, d + 2s) and ``decoder.hidden.weight`` (K, E)."""
    for name in ("encoder.weight", "aggregator.hidden.weight", "decoder.hidden.weight"):
        if tensors[name].ndim != 2:
            raise nn.CheckpointError(
                f"{path}: tensor '{name}' has shape {tensors[name].shape}, not a matrix")
    e, d = tensors["encoder.weight"].shape
    h, width = tensors["aggregator.hidden.weight"].shape
    s, odd = divmod(width - d, 2)
    if odd or s < 1:
        raise nn.CheckpointError(
            f"{path}: tensor 'aggregator.hidden.weight' takes {width} inputs, which do not "
            f"split as d + 2s with s >= 1 for the d = {d} of 'encoder.weight'")
    return d, s, e, h, tensors["decoder.hidden.weight"].shape[0]


def load_model(path) -> tuple:
    """Load a checkpoint + sidecar pair; returns (params, metadata). The tensors'
    shapes give the dimensions, and every tensor must chain with them and be
    finite. Sidecar keys other than ``metadata`` are ignored."""
    sidecar = read_json_object(sidecar_path(path))
    tensors = nn.load_checkpoint(path)
    missing = [name for name in TENSOR_NAMES if name not in tensors]
    if missing:
        raise nn.CheckpointError(f"{path}: checkpoint is missing tensors: {missing}")
    store = nn.ParamStore()
    for name in TENSOR_NAMES:
        store.register(name, tensors[name])
    params = CompletionNetParams(store, *_dims(path, tensors))
    for name, shape in params.tensor_shapes().items():
        if store.value(name).shape != shape:
            raise nn.CheckpointError(
                f"{path}: tensor '{name}' has shape {store.value(name).shape}, "
                f"expected {shape} to chain with the other tensors")
        if not np.isfinite(store.value(name)).all():
            raise nn.CheckpointError(f"{path}: tensor '{name}' holds non-finite values")
    return params, sidecar.get("metadata", {})
