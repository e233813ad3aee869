"""N-way K-shot episodes: sampling, the prototypes of each mode, episodic
fine-tuning of the completion network, and the evaluation/diagnostic harness.
Evaluation classifies by the cosine argmax over ``episode_prototypes``;
fine-tuning minimises the cross-entropy of the scaled cosines.

Every ``Episode`` is class-major: ``sample_episode`` fills one
``(n_way, k_shot + m_query)`` matrix of dataset indices, row i for roster
class i, and the first ``k_shot`` columns are the supports. So support row j
is of roster position ``j // k_shot`` and query row j of ``j // m_query``
(``class_positions``), and the mean prototypes are a reshape and one mean.
An ``Episode`` may also be a block of E episodes of one shape, with a
leading axis of E on every array; the prototype and evaluation functions
here take either.

Evaluation draws one RNG stream per episode (stream id = episode index) and
handles the episodes of a call in consecutive blocks of ``BLOCK_EPISODES``,
the last one possibly shorter. A block's index matrices are drawn episode by
episode in index order, each from its own stream, and stack into one
``(E, n_way, k_shot + m_query)`` array that one gather turns into the
block's supports and queries. One pass (``evaluate_modes``; ``evaluate`` is
its one-mode case) serves every mode of a command: it builds at most one
``completion.CompletionPlan``, and ``episode_prototypes`` completes a
block's E * n_way classes in one ``completion.complete_prototype`` call and
fuses them once, whatever modes read them; soft assignment
(``fusion.soft_assign``), class moments
(``fusion.weighted_gaussian_estimate``), Gaussian product and the cosine
classifier then run as batched (E, ., .) operations, which compute each
episode of a block bit for bit as they would compute it alone. Only the
completion's matrix products over E * n_way rows may round the last bit
differently for blocks of other lengths, so episode i's accuracy is the
same, and its fused prototypes agree within 1e-12, whatever the number of
episodes or the block size. A check that fails for a block is run again
episode by episode, so the error names the episode at fault.

The block size is chosen by memory, not by any caller's episode count. A
block's largest temporary is the completion's (pairs, H) hidden matrix,
about 0.8 MB for 8 5-way 1-shot 15-query episodes of the benchmark world;
the fusion's largest are (E, samples, d) arrays the size of the block's
samples, about 0.3 MB. Up to 8 episodes per block, repeated 20-episode
evaluations page-fault as rarely as one episode per pass; from 12 on, each
call took 650 to 1,050 minor page faults as the allocator handed the freed
block back to the system and faulted it in again, and larger blocks gained
little speed.

Embeddings are treated as a fixed feature space throughout: episodic
fine-tuning updates only the completion network and the classifier scale.
Gradients flow through the whole episode loss, including the fusion stage
and its soft assignments. The traced loss is three autodiff nodes with
hand-written backward passes, each run once per episode on (n_way, .)
matrices: the completion network over the roster (``completion.complete``),
the fusion (``fusion.fused_means``) and the cosine classifier head.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import completion as cp
from . import fusion
from . import nn
from .datagen import FewShotDataset
from .knowledge import AttributeStats, PrimitiveKnowledge

MODE_MEAN_ONLY = "mean-only"
MODE_COMPLETED_ONLY = "completed-only"
MODE_MEAN_FUSION = "mean-fusion"
MODE_GAUSS_FUSION = "gauss-fusion"
MODES = (MODE_MEAN_ONLY, MODE_COMPLETED_ONLY, MODE_MEAN_FUSION, MODE_GAUSS_FUSION)

BLOCK_EPISODES = 8  # episodes sampled, completed, fused and classified per pass


@dataclass
class Episode:
    """Support and query sets over a sorted class roster, class-major; or a
    block of E such episodes of one shape, every array with a leading axis
    of E.

    Labels are global class ids; ``roster`` maps positions to ids. Support
    rows ``i * k_shot`` to ``(i + 1) * k_shot - 1`` are of class
    ``roster[i]``, and so are query rows ``i * m_query`` to
    ``(i + 1) * m_query - 1``. Support and query rows never share a dataset
    index.
    """

    roster: np.ndarray          # ([E,] n_way) sorted class ids
    support_x: np.ndarray       # ([E,] n_way * k_shot, d)
    support_y: np.ndarray       # ([E,] n_way * k_shot)
    query_x: np.ndarray         # ([E,] n_way * m_query, d)
    query_y: np.ndarray         # ([E,] n_way * m_query)

    @property
    def n_way(self) -> int:
        return self.roster.shape[-1]

    @property
    def k_shot(self) -> int:
        return self.support_y.shape[-1] // self.n_way

    @property
    def m_query(self) -> int:
        return self.query_y.shape[-1] // self.n_way

    def support_of(self, class_id) -> np.ndarray:
        """Support rows of ``class_id`` in one (unblocked) episode."""
        return self.support_x[self.support_y == class_id]


def class_positions(n_way: int, per_class: int) -> np.ndarray:
    """Roster position of every row of a class-major block of ``per_class``
    rows per class: ``per_class`` zeros, then ones, and so on."""
    return np.repeat(np.arange(n_way), per_class)


def _draw_indices(dataset: FewShotDataset, n_way: int, k_shot: int, m_query: int,
                  rng: np.random.Generator) -> tuple:
    """(sorted roster, (n_way, k_shot + m_query) index matrix) of one episode:
    uniform classes without replacement, then one ``rng.choice`` of disjoint
    indices per roster class, in roster order, as row i of the matrix."""
    class_ids = dataset.class_ids()
    if class_ids.size < n_way:
        raise ValueError(f"dataset has {class_ids.size} classes, needs {n_way}")
    chosen = np.sort(rng.choice(class_ids, size=n_way, replace=False))
    picked = np.empty((n_way, k_shot + m_query), dtype=np.int64)
    for row, cid in zip(picked, chosen):
        rows = dataset.indices_of(cid)
        if rows.size < k_shot + m_query:
            raise ValueError(
                f"class {cid} has {rows.size} samples, needs {k_shot + m_query}")
        row[:] = rng.choice(rows, size=k_shot + m_query, replace=False)
    return chosen, picked


def sample_episode(dataset: FewShotDataset, n_way: int, k_shot: int, m_query: int,
                   rng: np.random.Generator | list) -> Episode:
    """One episode drawn from the generator ``rng``, or, when ``rng`` is a
    list of generators, a block of episodes: episode b is drawn from
    ``rng[b]`` alone, as it would be by itself, and the index matrices stack
    into one (E, n_way, k_shot + m_query) array. Either way one fancy index
    gathers the supports and one the queries."""
    if isinstance(rng, np.random.Generator):
        chosen, picked = _draw_indices(dataset, n_way, k_shot, m_query, rng)
    else:
        draws = [_draw_indices(dataset, n_way, k_shot, m_query, r) for r in rng]
        chosen = np.stack([roster for roster, _ in draws])
        picked = np.stack([matrix for _, matrix in draws])
    lead = chosen.shape[:-1]
    return Episode(
        roster=chosen,
        support_x=dataset.embeddings[picked[..., :k_shot].reshape(lead + (n_way * k_shot,))],
        support_y=chosen[..., class_positions(n_way, k_shot)],
        query_x=dataset.embeddings[picked[..., k_shot:].reshape(lead + (n_way * m_query,))],
        query_y=chosen[..., class_positions(n_way, m_query)],
    )


def mean_prototypes(episode: Episode) -> np.ndarray:
    """Support means of every roster class, ([E,] n_way, d), rows in roster order.

    Each class's support rows are summed in support order, as
    ``episode.support_of(class_id).mean(axis=0)`` sums them.
    """
    shape = episode.roster.shape + (episode.k_shot, episode.support_x.shape[-1])
    return episode.support_x.reshape(shape).mean(axis=-2)


def episode_rng(seed: int, index: int) -> np.random.Generator:
    """Per-episode RNG stream: deterministic in (seed, index) only."""
    return np.random.default_rng([int(seed), int(index)])


def _transductive_pool(episode: Episode):
    """(embeddings, labels-as-positions) for S then Q; queries unlabeled.
    The labels are one (S + Q,) layout, shared by every episode of a block."""
    x = np.concatenate([episode.support_x, episode.query_x], axis=-2)
    labels = np.concatenate([class_positions(episode.n_way, episode.k_shot),
                             np.full(episode.query_y.shape[-1], -1, np.int64)])
    return x, labels


def episode_prototypes(plan, episode: Episode, modes):
    """``{mode: prototype matrix}`` of an episode or block for every mode in
    ``modes``, plus the ``fusion.FusionResult`` when gauss-fusion is one of
    them (else None). For a block both carry its leading episode axis.

    Only what the modes need is computed: the support means always, the
    completion (one ``complete_prototype`` call) for any other mode,
    ``mean_fuse`` for mean-fusion and the fusion for gauss-fusion. ``plan``
    is the caller's ``completion.CompletionPlan``; mean-only takes ``None``.
    """
    means = mean_prototypes(episode)
    prototypes, result = {MODE_MEAN_ONLY: means}, None
    if set(modes) - {MODE_MEAN_ONLY}:
        completed = cp.complete_prototype(plan, episode.roster.ravel(),
                                          means.reshape(-1, means.shape[-1]))
        completed = prototypes[MODE_COMPLETED_ONLY] = completed.reshape(means.shape)
        if MODE_MEAN_FUSION in modes:
            prototypes[MODE_MEAN_FUSION] = fusion.mean_fuse(means, completed)
        if MODE_GAUSS_FUSION in modes:
            x, labels = _transductive_pool(episode)
            result = fusion.fuse_prototypes(x, labels, means, completed)
            prototypes[MODE_GAUSS_FUSION] = result.fused
    return {mode: prototypes[mode] for mode in modes}, result


@dataclass
class EvalReport:
    mode: str
    n_way: int
    k_shot: int
    episodes: int
    seed: int
    per_episode: list
    mean_acc: float = field(init=False)
    ci95: float = field(init=False)

    def __post_init__(self):
        accs = np.asarray(self.per_episode, dtype=np.float64)
        if accs.size != self.episodes:
            raise ValueError("per-episode accuracies must match the episode count")
        if accs.size and ((accs < 0).any() or (accs > 1).any()):
            raise ValueError("accuracies must lie in [0, 1]")
        self.mean_acc = float(accs.mean())
        self.ci95 = float(1.96 * accs.std() / np.sqrt(accs.size))

    def to_json_dict(self) -> dict:
        return asdict(self)


def _accuracies(plan, episode: Episode, modes):
    """Query accuracies of every episode of a block, (E,) per mode, and the fusion details."""
    prototypes, detail = episode_prototypes(plan, episode, modes)
    accuracies = {}
    for mode, matrix in prototypes.items():
        sims = fusion.cosine_matrix(episode.query_x, matrix)
        predicted = np.take_along_axis(episode.roster, np.argmax(sims, axis=-1), axis=-1)
        accuracies[mode] = np.mean(predicted == episode.query_y, axis=-1)
    return accuracies, detail


def _check_episode_shape(**counts) -> None:
    """Reject an episode shape or count below 1 before any work starts."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _episode_blocks(dataset: FewShotDataset, n_way: int, k_shot: int, m_query: int,
                    num_episodes: int, seed: int, run):
    """Episodes 0 .. ``num_episodes - 1`` of ``seed`` in consecutive blocks of
    BLOCK_EPISODES (the last block may be shorter); yields the episode
    indices, the block and ``run(block)`` of every block.

    A ``ValueError`` that ``run`` raises for a block is raised again as
    ``episode <index>: ...`` for the first episode of the block that raises
    it when run as a block of one.
    """
    for start in range(0, num_episodes, BLOCK_EPISODES):
        indices = range(start, min(start + BLOCK_EPISODES, num_episodes))
        block = sample_episode(dataset, n_way, k_shot, m_query,
                               [episode_rng(seed, index) for index in indices])
        try:
            result = run(block)
        except ValueError:
            for index in indices:
                try:
                    run(sample_episode(dataset, n_way, k_shot, m_query,
                                       [episode_rng(seed, index)]))
                except ValueError as exc:
                    raise ValueError(f"episode {index}: {exc}") from exc
            raise
        yield indices, block, result


def evaluate_modes(params, dataset: FewShotDataset, knowledge: PrimitiveKnowledge,
                   stats: AttributeStats, modes, n_way: int = 5, k_shot: int = 1,
                   m_query: int = 15, num_episodes: int = 600, seed: int = 0,
                   fusion_dump: list | None = None) -> dict:
    """``{mode: EvalReport}`` of every mode in ``modes`` over the same freshly
    sampled episodes, with 95% CIs. Each block is sampled, completed and
    fused once, then classified per mode; mean-only alone builds no plan.

    When ``fusion_dump`` is a list and gauss-fusion is one of the modes, one
    diagnostic entry per episode is appended to it (in episode order).
    Unusable prototypes raise a one-line ``ValueError("episode <index>: ...")``.
    """
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    _check_episode_shape(n_way=n_way, k_shot=k_shot, m_query=m_query,
                         num_episodes=num_episodes)
    plan = (None if set(modes) <= {MODE_MEAN_ONLY}
            else cp.CompletionPlan.build(params, knowledge, stats))
    accuracies = {mode: [] for mode in modes}
    blocks = _episode_blocks(dataset, n_way, k_shot, m_query, num_episodes, seed,
                             lambda block: _accuracies(plan, block, modes))
    for indices, _, (block_accuracies, detail) in blocks:
        for mode, values in block_accuracies.items():
            accuracies[mode] += values.tolist()
        if fusion_dump is not None and detail is not None:
            fusion_dump.extend(_fusion_dump_entry(index, detail, b)
                               for b, index in enumerate(indices))
    return {mode: EvalReport(mode=mode, n_way=n_way, k_shot=k_shot, episodes=num_episodes,
                             seed=seed, per_episode=values)
            for mode, values in accuracies.items()}


def evaluate(params, dataset: FewShotDataset, knowledge: PrimitiveKnowledge,
             stats: AttributeStats, mode: str, n_way: int = 5, k_shot: int = 1,
             m_query: int = 15, num_episodes: int = 600, seed: int = 0,
             fusion_dump: list | None = None) -> EvalReport:
    """The one-mode ``evaluate_modes``: accuracy over freshly sampled episodes."""
    return evaluate_modes(params, dataset, knowledge, stats, (mode,), n_way, k_shot, m_query,
                          num_episodes, seed, fusion_dump)[mode]


def _fusion_dump_entry(index: int, result: fusion.FusionResult, b: int) -> dict:
    """Diagnostics of episode ``index``, entry ``b`` of the block ``result``."""
    entry = {"episode": index,
             "responsibilities_mean": result.assignment_mean[b].tolist(),
             "responsibilities_completed": result.assignment_completed[b].tolist()}
    for key in ("mean_based", "completed", "posterior"):
        stack = getattr(result, key)
        entry[key] = [{"mean": mean, "variance": variance} for mean, variance
                      in zip(stack.mean[b].tolist(), stack.variance[b].tolist())]
    return entry


def _query_cross_entropy(fused, log_scale, episode: Episode):
    """Classifier head of the episodic loss: mean cross-entropy of the query
    labels under the logits ``exp(log_scale) * cosine(query, fused)``, the
    cosines computed by ``fusion.cosine_matrix``.

    ``fused`` and ``log_scale`` are Nodes; the result is one Node whose
    hand-written backward pass returns both their gradients.
    """
    f = fused.value
    scale = np.exp(log_scale.value)
    cosines = fusion.cosine_matrix(episode.query_x, f)
    logits = cosines * scale
    shift = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - shift)
    totals = e.sum(axis=-1, keepdims=True)
    rows = np.arange(logits.shape[0])
    labels = class_positions(episode.n_way, episode.m_query)
    loss = (np.log(totals[:, 0]) + shift[:, 0] - logits[rows, labels]).sum() * (1.0 / rows.size)

    def vjp(g):
        g_logits = e / totals
        g_logits[rows, labels] -= 1.0
        g_logits *= g / rows.size
        return (fusion.cosine_matrix_vjp(episode.query_x, f, g_logits * scale),
                (g_logits * cosines).sum() * scale)

    return ad.Node(loss, (fused, log_scale), vjp)


def meta_episode_loss(tensors, knowledge: PrimitiveKnowledge, episode: Episode, features):
    """Cross-entropy of query labels under the full fused pipeline, as three
    nodes: the completion network (``completion.complete``), the fusion
    (``fusion.fused_means``) and the classifier head.

    ``features`` is the (pairs, d) attribute feature matrix of the episode's
    roster (``draw_attribute_features``), passed in so the same loss can be
    re-evaluated with frozen sampling noise. ``tensors`` maps every tensor
    name to its leaf Node.
    """
    means = mean_prototypes(episode)
    completed = cp.complete(tensors, knowledge, episode.roster, means, features)
    x, labels = _transductive_pool(episode)
    fused = fusion.fused_means(x, labels, means, completed)
    return _query_cross_entropy(fused, tensors["log_scale"], episode)


@dataclass
class MetaTrainConfig:
    optimizer: nn.SgdConfig
    n_way: int = 5
    k_shot: int = 1
    m_query: int = 15
    episodes_per_epoch: int = 64
    seed: int = 0

    def __post_init__(self):
        _check_episode_shape(n_way=self.n_way, k_shot=self.k_shot, m_query=self.m_query,
                             episodes_per_epoch=self.episodes_per_epoch)


def meta_train(params: cp.CompletionNetParams, dataset: FewShotDataset,
               knowledge: PrimitiveKnowledge, stats: AttributeStats,
               config: MetaTrainConfig):
    """Episodic fine-tuning of the completion network and classifier scale.

    Minimizes query cross-entropy through completion, fusion, and the scaled
    cosine classifier; returns (params, per-epoch mean losses). Deterministic
    per config seed.
    """
    rng = np.random.default_rng(config.seed)
    losses = []
    for epoch in range(config.optimizer.epochs):
        total = 0.0
        for index in range(config.episodes_per_epoch):
            episode = sample_episode(dataset, config.n_way, config.k_shot,
                                     config.m_query, rng)
            features = cp.draw_attribute_features(stats, knowledge, episode.roster, rng)
            total += nn.train_step(
                params.store,
                lambda leaves: meta_episode_loss(leaves, knowledge, episode, features),
                config.optimizer, f"non-finite episodic loss at epoch {epoch}, episode {index}")
        losses.append(total / config.episodes_per_epoch)
    return params, losses


@dataclass
class SimilarityReport:
    """Mean cosine similarity of each prototype estimate to the true centers."""

    mean_based: float
    completed: float
    fused: float
    episodes: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _row_cosines(rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """cos(rows[..., i, :], targets[..., i, :]) for every row i."""
    return (np.einsum("...ij,...ij->...i", rows, targets)
            / (np.linalg.norm(rows, axis=-1) * np.linalg.norm(targets, axis=-1)))


def prototype_similarity_report(params, dataset: FewShotDataset, centers: np.ndarray,
                                knowledge: PrimitiveKnowledge, stats: AttributeStats,
                                num_episodes: int = 1000, n_way: int = 5,
                                k_shot: int = 1, m_query: int = 15,
                                seed: int = 0) -> SimilarityReport:
    """Average cos(prototype, center) for mean-based, completed, and fused
    prototypes over sampled episodes.

    Unusable prototypes raise a one-line ``ValueError("episode <index>: ...")``.
    """
    _check_episode_shape(n_way=n_way, k_shot=k_shot, m_query=m_query,
                         num_episodes=num_episodes)
    plan = cp.CompletionPlan.build(params, knowledge, stats)
    modes = (MODE_MEAN_ONLY, MODE_COMPLETED_ONLY, MODE_GAUSS_FUSION)
    sums = np.zeros(3)
    blocks = _episode_blocks(dataset, n_way, k_shot, m_query, num_episodes, seed,
                             lambda block: episode_prototypes(plan, block, modes)[0])
    for _, block, estimates in blocks:
        truth = centers[block.roster]
        per_episode = np.stack([_row_cosines(estimates[m], truth).sum(axis=-1)
                                for m in modes], axis=-1)
        for episode_sums in per_episode:  # episode by episode, in index order
            sums += episode_sums
    sums /= num_episodes * n_way
    return SimilarityReport(float(sums[0]), float(sums[1]), float(sums[2]), num_episodes)


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average; leading entries average what is available."""
    if window < 1:
        raise ValueError("window must be at least 1")
    csum = np.cumsum(np.asarray(values, dtype=np.float64))
    lagged = np.zeros_like(csum)
    lagged[window:] = csum[:-window]
    return (csum - lagged) / np.minimum(np.arange(1, csum.size + 1), window)


@dataclass
class RankCurveReport:
    """Similarity-vs-rank curves, samples sorted by falling cosine to center."""

    raw: np.ndarray        # smoothed cos(sample, center) per rank
    completed: np.ndarray  # smoothed cos(completed 1-shot prototype, center)
    window: int            # the window used: at most the smallest class size

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(self.raw.size)


def rank_curve_report(params, dataset: FewShotDataset, centers: np.ndarray,
                      knowledge: PrimitiveKnowledge, stats: AttributeStats,
                      window: int = 50) -> RankCurveReport:
    """Per-rank completion diagnostic, averaged over classes then smoothed.

    Every sample is treated as a 1-shot prototype; rank r holds the class's
    r-th closest sample to its center. A class shorter than the window
    shrinks it to that class's size, and the report holds the window used.
    A non-finite completion raises a one-line ``ValueError("class <id>: ...")``.
    """
    plan = cp.CompletionPlan.build(params, knowledge, stats)
    class_ids, counts = np.unique(dataset.labels, return_counts=True)
    raw = np.full((class_ids.size, counts.max()), np.nan)
    completed_sims = np.full_like(raw, np.nan)
    for i, cid in enumerate(class_ids):
        rows = dataset.embeddings[dataset.indices_of(cid)]
        center = np.broadcast_to(centers[int(cid)], rows.shape)
        sims = _row_cosines(rows, center)
        order = np.argsort(-sims)
        raw[i, :rows.shape[0]] = sims[order]
        completed = cp.complete_prototype(plan, np.full(rows.shape[0], cid), rows[order])
        if not np.isfinite(completed).all():
            raise ValueError(f"class {cid}: non-finite completed prototype")
        completed_sims[i, :rows.shape[0]] = _row_cosines(completed, center)
    effective = min(window, int(counts.min()))
    return RankCurveReport(
        raw=moving_average(np.nanmean(raw, axis=0), effective),
        completed=moving_average(np.nanmean(completed_sims, axis=0), effective),
        window=effective,
    )
