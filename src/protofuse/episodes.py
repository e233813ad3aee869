"""N-way K-shot episodes: sampling, the prototypes of each mode, episodic
fine-tuning of the completion network, and the evaluation/diagnostic harness.
Evaluation classifies by the cosine argmax over ``episode_prototypes``;
fine-tuning minimises the cross-entropy of the scaled cosines.

Evaluation draws one RNG stream per episode (stream id = episode index), so
an episode's result depends on its seed and index only, not on how many
episodes one call evaluates. Episodes run one after another in the calling
thread: the per-episode work is small-array numpy that holds the
interpreter lock, and a thread pool made it slower. Each call that completes
prototypes builds one ``completion.CompletionPlan`` for its parameters,
knowledge and stats and completes each episode's classes in one batch.

Every ``Episode`` is class-major: ``sample_episode`` fills one
``(n_way, k_shot + m_query)`` matrix of dataset indices, row i for roster
class i, and the first ``k_shot`` columns are the supports. So support row j
is of roster position ``j // k_shot`` and query row j of ``j // m_query``
(``class_positions``), and the mean prototypes are a reshape and one mean.
The layout is the same for every episode of a shape, so a batched evaluator
(ROADMAP.md, item 3) can stack the index matrices of a block of episodes.

Embeddings are treated as a fixed feature space throughout: episodic
fine-tuning updates only the completion network and the classifier scale.
Gradients flow through the whole episode loss, including the fusion stage
and its soft assignments. The traced loss runs each stage once per
episode on (n_way, .) blocks: one completion pass over the roster, one
fusion pass and one cosine classifier.
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


@dataclass
class Episode:
    """Support and query sets over a sorted class roster, class-major.

    Labels are global class ids; ``roster`` maps positions to ids. Support
    rows ``i * k_shot`` to ``(i + 1) * k_shot - 1`` are of class
    ``roster[i]``, and so are query rows ``i * m_query`` to
    ``(i + 1) * m_query - 1``. Support and query rows never share a dataset
    index.
    """

    roster: np.ndarray          # (n_way,) sorted class ids
    support_x: np.ndarray       # (n_way * k_shot, d)
    support_y: np.ndarray       # (n_way * k_shot,)
    query_x: np.ndarray         # (n_way * m_query, d)
    query_y: np.ndarray         # (n_way * m_query,)
    support_indices: np.ndarray
    query_indices: np.ndarray

    @property
    def n_way(self) -> int:
        return self.roster.shape[0]

    @property
    def k_shot(self) -> int:
        return self.support_y.shape[0] // self.n_way

    @property
    def m_query(self) -> int:
        return self.query_y.shape[0] // self.n_way

    def support_of(self, class_id) -> np.ndarray:
        return self.support_x[self.support_y == class_id]


def class_positions(n_way: int, per_class: int) -> np.ndarray:
    """Roster position of every row of a class-major block of ``per_class``
    rows per class: ``per_class`` zeros, then ones, and so on."""
    return np.repeat(np.arange(n_way), per_class)


def sample_episode(dataset: FewShotDataset, n_way: int, k_shot: int, m_query: int,
                   rng: np.random.Generator) -> Episode:
    """Uniform classes without replacement, then uniform disjoint samples:
    one ``rng.choice`` of ``k_shot + m_query`` indices per roster class, in
    roster order, as row i of the episode's index matrix."""
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
    support_indices = picked[:, :k_shot].ravel()
    query_indices = picked[:, k_shot:].ravel()
    return Episode(
        roster=chosen,
        support_x=dataset.embeddings[support_indices],
        support_y=chosen[class_positions(n_way, k_shot)],
        query_x=dataset.embeddings[query_indices],
        query_y=chosen[class_positions(n_way, m_query)],
        support_indices=support_indices,
        query_indices=query_indices,
    )


def mean_prototypes(episode: Episode) -> np.ndarray:
    """Support means of every roster class, (n_way, d), rows in roster order.

    Each class's support rows are summed in support order, as
    ``episode.support_of(class_id).mean(axis=0)`` sums them.
    """
    return episode.support_x.reshape(episode.n_way, episode.k_shot, -1).mean(axis=1)


def episode_rng(seed: int, index: int) -> np.random.Generator:
    """Per-episode RNG stream: deterministic in (seed, index) only."""
    return np.random.default_rng([int(seed), int(index)])


def _transductive_pool(episode: Episode):
    """(embeddings, labels-as-positions) for S then Q; queries unlabeled."""
    x = np.vstack([episode.support_x, episode.query_x])
    labels = np.concatenate([class_positions(episode.n_way, episode.k_shot),
                             np.full(episode.query_y.shape[0], -1, np.int64)])
    return x, labels


def episode_prototypes(plan, episode: Episode, mode: str):
    """Prototype matrix for the requested ablation mode, plus the fusion
    details when the mode runs the full fusion.

    ``plan`` is the caller's ``completion.CompletionPlan``; mean-only needs
    none and takes ``None``.
    """
    means = mean_prototypes(episode)
    if mode == MODE_MEAN_ONLY:
        return means, None
    completed = plan.complete(episode.roster, means)
    if mode == MODE_COMPLETED_ONLY:
        return completed, None
    if mode == MODE_MEAN_FUSION:
        return fusion.mean_fuse(means, completed), None
    if mode == MODE_GAUSS_FUSION:
        x, labels = _transductive_pool(episode)
        result = fusion.fuse_prototypes(x, labels, means, completed)
        return result.fused, result
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


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


def _episode_accuracy(plan, episode: Episode, mode: str):
    prototypes, detail = episode_prototypes(plan, episode, mode)
    sims = fusion.cosine_matrix(episode.query_x, prototypes)
    predicted = episode.roster[np.argmax(sims, axis=1)]
    return float(np.mean(predicted == episode.query_y)), detail


def _check_episode_shape(**counts) -> None:
    """Reject an episode shape or count below 1 before any work starts."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def evaluate(params, dataset: FewShotDataset, knowledge: PrimitiveKnowledge,
             stats: AttributeStats, mode: str, n_way: int = 5, k_shot: int = 1,
             m_query: int = 15, num_episodes: int = 600, seed: int = 0,
             fusion_dump: list | None = None) -> EvalReport:
    """Accuracy over freshly sampled episodes, reported with a 95% CI.

    When ``fusion_dump`` is a list and the mode runs the full fusion, one
    diagnostic entry per episode is appended to it (in episode order).
    Unusable prototypes raise a one-line ``ValueError("episode <index>: ...")``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    _check_episode_shape(n_way=n_way, k_shot=k_shot, m_query=m_query,
                         num_episodes=num_episodes)
    plan = None if mode == MODE_MEAN_ONLY else cp.CompletionPlan.build(params, knowledge, stats)
    accuracies = []
    for index in range(num_episodes):
        episode = sample_episode(dataset, n_way, k_shot, m_query, episode_rng(seed, index))
        try:
            accuracy, detail = _episode_accuracy(plan, episode, mode)
        except ValueError as exc:
            raise ValueError(f"episode {index}: {exc}") from exc
        accuracies.append(accuracy)
        if fusion_dump is not None and detail is not None:
            fusion_dump.append(_fusion_dump_entry(index, detail))
    return EvalReport(mode=mode, n_way=n_way, k_shot=k_shot, episodes=num_episodes,
                      seed=seed, per_episode=accuracies)


def _gaussian_rows(stack: fusion.DiagonalGaussian) -> list:
    return [{"mean": mean, "variance": variance}
            for mean, variance in zip(stack.mean.tolist(), stack.variance.tolist())]


def _fusion_dump_entry(index: int, result: fusion.FusionResult) -> dict:
    return {
        "episode": index,
        "mean_based": _gaussian_rows(result.mean_based),
        "completed": _gaussian_rows(result.completed),
        "posterior": _gaussian_rows(result.posterior),
        "responsibilities_mean": result.assignment_mean.matrix.tolist(),
        "responsibilities_completed": result.assignment_completed.matrix.tolist(),
    }


def meta_episode_loss(tensors, knowledge: PrimitiveKnowledge, episode: Episode, features):
    """Cross-entropy of query labels under the full fused pipeline.

    ``features`` is the (pairs, d) attribute feature matrix of the episode's
    roster (``draw_attribute_features``), passed in so the same loss can be
    re-evaluated with frozen sampling noise. Generic over traced and plain
    tensors.
    """
    means = mean_prototypes(episode)
    completed = cp._complete(tensors, knowledge, episode.roster, means, features)
    x, labels = _transductive_pool(episode)
    fused = fusion.fused_means(x, labels, means, completed)
    sims = fusion.cosine_matrix(episode.query_x, fused)
    logits = ad.mul(sims, ad.exp(tensors["log_scale"]))
    mask = np.eye(episode.n_way)[class_positions(episode.n_way, episode.m_query)]
    picked = ad.sum(ad.mul(logits, mask), axis=1)
    return ad.mean(ad.sub(ad.logsumexp_rows(logits), picked))


@dataclass
class MetaTrainConfig:
    optimizer: nn.SgdConfig
    n_way: int = 5
    k_shot: int = 1
    m_query: int = 15
    episodes_per_epoch: int = 64
    seed: int = 0

    def __post_init__(self):
        if min(self.n_way, self.k_shot, self.m_query, self.episodes_per_epoch) < 1:
            raise ValueError("episode shape fields must be at least 1")


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
    for _ in range(config.optimizer.epochs):
        total = 0.0
        for _ in range(config.episodes_per_epoch):
            episode = sample_episode(dataset, config.n_way, config.k_shot,
                                     config.m_query, rng)
            features = cp.draw_attribute_features(stats, knowledge, episode.roster, rng)
            leaves = params.store.leaves()
            loss = meta_episode_loss(leaves, knowledge, episode, features)
            if not np.isfinite(loss.value):
                raise RuntimeError("non-finite episodic loss")
            ad.backward(loss)
            params.store.accumulate(leaves)
            nn.sgd_step(params.store, config.optimizer)
            total += float(loss.value)
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
    """cos(rows[i], targets[i]) for every row i."""
    return (np.einsum("ij,ij->i", rows, targets)
            / (np.linalg.norm(rows, axis=1) * np.linalg.norm(targets, axis=1)))


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
    sums = np.zeros(3)
    for index in range(num_episodes):
        episode = sample_episode(dataset, n_way, k_shot, m_query, episode_rng(seed, index))
        means = mean_prototypes(episode)
        x, labels = _transductive_pool(episode)
        try:
            completed = plan.complete(episode.roster, means)
            fused = fusion.fuse_prototypes(x, labels, means, completed).fused
        except ValueError as exc:
            raise ValueError(f"episode {index}: {exc}") from exc
        truth = centers[episode.roster]
        sums += [_row_cosines(p, truth).sum() for p in (means, completed, fused)]
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
    window: int
    classes_below_window: int

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(self.raw.size)


def rank_curve_report(params, dataset: FewShotDataset, centers: np.ndarray,
                      knowledge: PrimitiveKnowledge, stats: AttributeStats,
                      window: int = 50) -> RankCurveReport:
    """Per-rank completion diagnostic, averaged over classes then smoothed.

    Every sample is treated as a 1-shot prototype; rank r holds the class's
    r-th closest sample to its center. Classes shorter than the window shrink
    it (with a count reported). A non-finite completion raises a one-line
    ``ValueError("class <id>: ...")``.
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
        completed = plan.complete(np.full(rows.shape[0], cid), rows[order])
        if not np.isfinite(completed).all():
            raise ValueError(f"class {cid}: non-finite completed prototype")
        completed_sims[i, :rows.shape[0]] = _row_cosines(completed, center)
    effective = min(window, int(counts.min()))
    return RankCurveReport(
        raw=moving_average(np.nanmean(raw, axis=0), effective),
        completed=moving_average(np.nanmean(completed_sims, axis=0), effective),
        window=effective,
        classes_below_window=int((counts < window).sum()),
    )
