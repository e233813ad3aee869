"""Transductive estimation of diagonal-Gaussian prototype distributions and
their Bayesian fusion via the closed-form product of Gaussians.

One pass, ``_fuse``, does the paper's four steps for a whole episode: it
soft-assigns every sample against each prototype family, estimates a
diagonal Gaussian per class from each assignment, floors the variances and
multiplies the two Gaussians. It is generic over plain ndarrays and autodiff
Nodes: ``fuse_prototypes`` (inference) runs it on arrays and wraps the
result in validated ``FusionResult`` stacks, and ``fused_means`` (the
episodic training loss) runs it with the completed prototypes traced, so the
loss differentiates through the soft assignment, the class moments and the
product formula. ``soft_assign``, ``weighted_gaussian_estimate`` and
``gaussian_product`` expose single steps over the same helpers.

The paper fixes the soft-assignment sharpness and the variance floor, and so
does this module: ``DEFAULT_LAMBDA`` (the softmax sharpness) and
``EPSILON_VARIANCE`` (the floor) are module constants, not arguments of any
function. The floor matters: with a single labeled support and near-one-hot
responsibilities the weighted variance collapses to zero, which would make
the Gaussian product degenerate; flooring keeps fusion well-defined in
exactly the 1-shot regime this pipeline targets. The product's normalizing
constant is never computed because only the posterior mean and variance are
consumed downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

EPSILON_VARIANCE = 1e-6  # floor of every estimated variance

DEFAULT_LAMBDA = 10.0  # softmax sharpness of the soft assignment


@dataclass
class DiagonalGaussian:
    """Mean plus per-dimension variance: vectors for one Gaussian, or
    (n, d) matrices for n Gaussians, one per row."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.variance = np.asarray(self.variance, dtype=np.float64)
        if self.mean.ndim not in (1, 2) or self.mean.shape != self.variance.shape:
            raise ValueError("mean and variance must be matching vectors or matrices")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.variance).all()):
            raise ValueError("mean and variance must be finite")
        if (self.variance <= 0).any():
            raise ValueError("variance must be strictly positive (apply a floor first)")


@dataclass
class SoftAssignment:
    """Responsibilities P(class | sample) for every sample of an episode.

    Labeled rows are exact one-hot vectors; unlabeled rows are softmax
    distributions over classes.
    """

    matrix: np.ndarray   # (num_samples, num_classes)
    labeled: np.ndarray  # (num_samples,) bool

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.labeled = np.asarray(self.labeled, dtype=bool)
        if self.matrix.ndim != 2 or self.labeled.shape != (self.matrix.shape[0],):
            raise ValueError("matrix rows and labeled flags must align")
        if (self.matrix < 0).any():
            raise ValueError("responsibilities must be nonnegative")
        sums = self.matrix.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-9:
            raise ValueError("every responsibility row must sum to 1")
        lab = self.matrix[self.labeled]
        if lab.size and not np.isin(lab, (0.0, 1.0)).all():
            raise ValueError("labeled rows must be exact one-hot vectors")


def cosine_matrix(embeddings, prototypes):
    """Pairwise cosine similarities, rows = embeddings, columns = prototypes.

    ``prototypes`` may be a traced Node; embeddings are always constants.
    Raises on any zero-norm row, naming the offending sample or prototype,
    and on a prototype whose norm is not finite (a NaN or infinite entry, or
    a squared norm that overflows), naming its position.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("embeddings must be a (samples x d) matrix")
    pv = ad.value_of(prototypes)
    if pv.ndim != 2 or pv.shape[1] != x.shape[1]:
        raise ValueError(f"prototype matrix shape {pv.shape} does not match d={x.shape[1]}")
    x_norms = np.linalg.norm(x, axis=1)
    zero = np.flatnonzero(x_norms == 0.0)
    if zero.size:
        raise ValueError(f"zero-norm embedding at row {zero[0]}")
    p_norms = ad.sqrt(ad.sum(ad.mul(prototypes, prototypes), axis=1))
    norms = ad.value_of(p_norms)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ValueError(f"non-finite prototype at position {bad[0]}")
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"zero-norm prototype at position {zero[0]}")
    x_unit = x / x_norms[:, None]
    raw = ad.matmul(x_unit, ad.transpose(prototypes))
    return ad.div(raw, ad.reshape(p_norms, (1, pv.shape[0])))


def _check_assignment_inputs(labels: np.ndarray, num_classes: int) -> None:
    if labels.max(initial=-1) >= num_classes:
        raise ValueError("label refers to a class position beyond the prototype count")


def _soft_assign_matrix(x: np.ndarray, labels: np.ndarray, prototypes):
    """Responsibility matrix for any label layout; traced when ``prototypes`` is a Node.

    ``hard`` holds the one-hot rows of the labeled samples and the constant
    0/1 ``place`` matrix puts softmax row j at unlabeled sample j. The
    placement adds only exact zeros, so every row equals its direct formula
    bit for bit. With no unlabeled sample the (0, d) block flows through.
    """
    unlabeled = np.flatnonzero(labels < 0)
    labeled = np.flatnonzero(labels >= 0)
    hard = np.zeros((labels.size, ad.value_of(prototypes).shape[0]))
    hard[labeled, labels[labeled]] = 1.0
    place = np.zeros((labels.size, unlabeled.size))
    place[unlabeled, np.arange(unlabeled.size)] = 1.0
    soft = ad.softmax_rows(ad.mul(cosine_matrix(x[unlabeled], prototypes), DEFAULT_LAMBDA))
    return ad.add(hard, ad.matmul(place, soft))


def soft_assign(embeddings, labels, prototypes) -> SoftAssignment:
    """Responsibilities over classes for every sample of an episode.

    ``labels`` holds the class position (0..N-1) for labeled samples and -1
    for unlabeled ones. Labeled rows become exact one-hot vectors; unlabeled
    rows are softmax(DEFAULT_LAMBDA * cosine) over the prototype rows.
    """
    y = np.asarray(labels, dtype=np.int64)
    p = np.asarray(prototypes, dtype=np.float64)
    _check_assignment_inputs(y, p.shape[0])
    matrix = _soft_assign_matrix(np.asarray(embeddings, dtype=np.float64), y, p)
    return SoftAssignment(matrix, y >= 0)


def _class_moments(embeddings: np.ndarray, responsibilities):
    """Responsibility-weighted means and population variances of every class.

    ``responsibilities`` is (samples, classes) and may be a traced Node;
    returns two (classes, d) matrices. Two passes: the variance is taken
    around the finished mean.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    totals = ad.sum(responsibilities, axis=0)
    empty = np.flatnonzero(ad.value_of(totals) <= 0.0)
    if empty.size:
        raise ValueError(f"zero total responsibility for class position {empty[0]}")
    column = ad.reshape(totals, (ad.value_of(totals).shape[0], 1))
    mean = ad.div(ad.matmul(ad.transpose(responsibilities), x), column)
    return mean, ad.div(_weighted_square_deviations(x, responsibilities, mean), column)


def _weighted_square_deviations(x: np.ndarray, responsibilities, mean):
    """``sum_s r[s, k] * (x[s] - mean[k])**2`` for every class k, (classes, d).

    One (classes, samples, d) block of squared deviations, squared in place:
    it is the largest temporary of an episode. Traced, it is one node whose
    backward pass reuses the block and allocates nothing of its size.
    """
    r, m = ad.value_of(responsibilities), ad.value_of(mean)
    squares = x[None, :, :] - m[:, None, :]
    np.square(squares, out=squares)
    out = np.matmul(r.T[:, None, :], squares)[:, 0, :]
    parents = [p for p in (responsibilities, mean) if ad.is_node(p)]
    if not parents:
        return out

    def vjp(g):
        grads = []
        if ad.is_node(responsibilities):
            grads.append(np.matmul(squares, g[:, :, None])[:, :, 0].T)
        if ad.is_node(mean):
            grads.append(-2.0 * g * (r.T @ x - m * r.sum(axis=0)[:, None]))
        return grads

    return ad.Node(out, parents, vjp)


def weighted_gaussian_estimate(embeddings, assignment: SoftAssignment,
                               class_index: int) -> DiagonalGaussian:
    """Responsibility-weighted mean and population variance for one class."""
    w = assignment.matrix[:, [class_index]]
    if not w.sum() > 0.0:
        raise ValueError(f"zero total responsibility for class position {class_index}")
    mean, var = _class_moments(np.asarray(embeddings, dtype=np.float64), w)
    return DiagonalGaussian(mean[0], np.maximum(var[0], EPSILON_VARIANCE))


def _product_moments(prior_mean, prior_var, lik_mean, lik_var):
    """Closed-form moments of the product of two diagonal Gaussians."""
    denom = ad.add(prior_var, lik_var)
    mean = ad.div(ad.add(ad.mul(lik_var, prior_mean), ad.mul(prior_var, lik_mean)), denom)
    var = ad.div(ad.mul(prior_var, lik_var), denom)
    return mean, var


def gaussian_product(prior: DiagonalGaussian, likelihood: DiagonalGaussian) -> DiagonalGaussian:
    """Product of two diagonal Gaussians, as a (renormalized) Gaussian.

    Only the posterior mean/variance are returned; the scalar normalizer is
    irrelevant downstream and intentionally skipped.
    """
    if prior.mean.shape != likelihood.mean.shape:
        raise ValueError(f"shape mismatch: {prior.mean.shape} vs {likelihood.mean.shape}")
    mean, var = _product_moments(prior.mean, prior.variance,
                                 likelihood.mean, likelihood.variance)
    return DiagonalGaussian(mean, var)


def mean_fuse(prototype, completed):
    """Plain elementwise average of the two prototype estimates (ablation mode)."""
    p = np.asarray(prototype, dtype=np.float64)
    q = np.asarray(completed, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return (p + q) / 2.0


@dataclass
class FusionResult:
    """One episode's fusion; row k of every Gaussian stack is class position k."""

    mean_based: DiagonalGaussian   # (num_classes, d), the likelihood side
    completed: DiagonalGaussian    # (num_classes, d), the prior side
    posterior: DiagonalGaussian    # (num_classes, d)
    assignment_mean: SoftAssignment
    assignment_completed: SoftAssignment

    @property
    def fused(self) -> np.ndarray:
        """The fused prototypes: the posterior means, (num_classes, d)."""
        return self.posterior.mean


def _fuse(embeddings, labels, mean_prototypes, completed_prototypes):
    """The one fusion pass over an episode's samples, all classes at once.

    Soft-assigns all samples twice (once per prototype family), estimates a
    floored diagonal Gaussian per class from each assignment, and multiplies
    them with the completed-prototype Gaussian as the prior and the
    mean-based Gaussian as the likelihood. ``completed_prototypes`` may be a
    traced Node; the mean side involves no trainable quantity and stays
    untraced. Returns the two responsibility matrices and the (mean,
    variance) pairs of the mean-based, completed and posterior stacks.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    means = np.asarray(mean_prototypes, dtype=np.float64)
    completed_shape = ad.value_of(completed_prototypes).shape
    if completed_shape != means.shape:
        raise ValueError(f"completed prototypes of shape {completed_shape} do not match "
                         f"mean prototypes of shape {means.shape}")
    _check_assignment_inputs(y, means.shape[0])
    assign_mean = _soft_assign_matrix(x, y, means)
    assign_comp = _soft_assign_matrix(x, y, completed_prototypes)
    mu_mean, var_mean = _class_moments(x, assign_mean)
    mu_comp, var_comp = _class_moments(x, assign_comp)
    mean_side = (mu_mean, np.maximum(var_mean, EPSILON_VARIANCE))
    comp_side = (mu_comp, ad.maximum(var_comp, EPSILON_VARIANCE))
    posterior = _product_moments(*comp_side, *mean_side)
    return assign_mean, assign_comp, mean_side, comp_side, posterior


def fuse_prototypes(embeddings, labels, mean_prototypes,
                    completed_prototypes) -> FusionResult:
    """Full fusion pass over one episode's supports and queries (``_fuse``),
    with every stack and assignment validated. The fused prototype is the
    posterior mean."""
    assign_mean, assign_comp, mean_side, comp_side, posterior = _fuse(
        embeddings, labels, mean_prototypes, completed_prototypes)
    labeled = np.asarray(labels, dtype=np.int64) >= 0
    return FusionResult(DiagonalGaussian(*mean_side), DiagonalGaussian(*comp_side),
                        DiagonalGaussian(*posterior), SoftAssignment(assign_mean, labeled),
                        SoftAssignment(assign_comp, labeled))


def fused_means(embeddings, labels, mean_prototypes, completed_prototypes):
    """Fused prototypes of every class, (num_classes, d), for the episodic
    training loss: the posterior mean of ``_fuse``, traced when
    ``completed_prototypes`` is a Node."""
    _, _, _, _, (mean, _) = _fuse(embeddings, labels, mean_prototypes, completed_prototypes)
    return mean
