"""Transductive estimation of diagonal-Gaussian prototype distributions and
their Bayesian fusion via the closed-form product of Gaussians.

One pass, ``fuse_prototypes``, does the paper's four steps for a whole
episode: it soft-assigns every sample against each prototype family
(``soft_assign``), estimates a floored diagonal Gaussian per class from each
assignment (``weighted_gaussian_estimate``, matrix products on the samples
shifted by their episode mean) and multiplies the two Gaussians
(``gaussian_product``). Each step is written once and the pass calls all
three by their module names, so a wrapper installed on any of them sees
every fusion. It takes one episode, a (samples, d) sample matrix with
(classes, d) prototype families, or a block of episodes stacked along
leading axes, (E, samples, d) with (E, classes, d); every step acts on the
last two axes, so episode b of a block is computed as it would be alone.
Every step computes on plain arrays, and each Gaussian is a
``DiagonalGaussian`` (mean, variance) pair. Inference reads the pass's
``FusionResult``; ``fused_means`` (the episodic training loss) runs it on
the value of the completed prototypes' Node and returns one autodiff node
whose hand-written backward pass differentiates through the product
formula, the class moments, the soft assignment and the cosines. A
non-finite unlabeled sample or prototype fails in ``cosine_matrix``, by row.

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

from typing import NamedTuple

import numpy as np

from . import autodiff as ad

EPSILON_VARIANCE = 1e-6  # floor of every estimated variance

DEFAULT_LAMBDA = 10.0  # softmax sharpness of the soft assignment


class DiagonalGaussian(NamedTuple):
    """Mean plus per-dimension variance of n Gaussians, one per row of two
    (n, d) matrices, or of (E, n, d) stacks of those."""

    mean: np.ndarray
    variance: np.ndarray


def _first_row(mask: np.ndarray):
    """Row (index along the last axis) of the first set entry of ``mask`` in
    C order, or None when no entry is set."""
    hits = np.flatnonzero(mask)
    return int(hits[0] % mask.shape[-1]) if hits.size else None


def cosine_matrix(embeddings, prototypes):
    """Pairwise cosine similarities, rows = embeddings, columns = prototypes.

    Takes a (samples, d) and a (classes, d) matrix, or two stacks of them
    with the same leading axes; the result is (..., samples, classes).
    Raises on the first embedding, then the first prototype, whose norm is
    not finite (a NaN or infinite entry, or a squared norm that overflows)
    or is zero, naming it by its row within its matrix.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("embeddings must be a (samples x d) matrix")
    p = np.asarray(prototypes, dtype=np.float64)
    if p.shape[:-2] != x.shape[:-2] or p.ndim != x.ndim or p.shape[-1] != x.shape[-1]:
        raise ValueError(f"prototype matrix shape {p.shape} does not match "
                         f"embeddings of shape {x.shape}")
    x_norms = _row_norms(x)
    _check_norms(x_norms, "embedding at row")
    norms = _row_norms(p)
    _check_norms(norms, "prototype at position")
    return (x / x_norms[..., None]) @ np.swapaxes(p, -1, -2) / norms[..., None, :]


def _check_norms(norms: np.ndarray, what: str) -> None:
    """Raise on the first row of ``norms`` that is not finite, else on the
    first that is zero, naming it as ``what`` and its row."""
    if np.isfinite(norms).all() and norms.all():
        return
    bad = _first_row(~np.isfinite(norms))
    if bad is not None:
        raise ValueError(f"non-finite {what} {bad}")
    raise ValueError(f"zero-norm {what} {_first_row(norms == 0.0)}")


def cosine_matrix_vjp(embeddings, prototypes, g):
    """Gradient with respect to ``prototypes`` of ``sum(g * cosine_matrix(
    embeddings, prototypes))``, for inputs that ``cosine_matrix`` accepted.

    With embedding norms m_q and prototype norms n_k, let a_k = sum_q
    g_qk x_q / (m_q n_k); row k of the gradient is
    ``a_k - (a_k . p_k) p_k / n_k**2``.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    norms = _row_norms(prototypes)[..., None]
    a = np.swapaxes(g / _row_norms(x)[..., None], -1, -2) @ x / norms
    return a - (a * prototypes).sum(axis=-1, keepdims=True) / (norms * norms) * prototypes


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row (the last axis), as ``np.linalg.norm(a,
    axis=-1)`` computes it for real input."""
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the row maximum."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def soft_assign(embeddings, labels, prototypes):
    """Responsibilities P(class | sample) of every sample, ([E,] samples,
    classes).

    ``labels`` (samples,) holds the class position (0..N-1) of each labeled
    sample and -1 for an unlabeled one; a block's episodes share it. Labeled
    rows are exact one-hot vectors; unlabeled rows are
    softmax(DEFAULT_LAMBDA * cosine) over the prototype rows. With no
    unlabeled sample the (0, d) block flows through.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    p = np.asarray(prototypes, dtype=np.float64)
    num_classes = p.shape[-2]
    if y.max(initial=-1) >= num_classes:
        raise ValueError("label refers to a class position beyond the prototype count")
    unlabeled, labeled = (y < 0).nonzero()[0], (y >= 0).nonzero()[0]
    out = np.zeros(x.shape[:-2] + (y.size, num_classes))
    out[..., labeled, y[labeled]] = 1.0
    out[..., unlabeled, :] = _softmax_rows(
        cosine_matrix(x[..., unlabeled, :], p) * DEFAULT_LAMBDA)
    return out


def weighted_gaussian_estimate(embeddings, responsibilities):
    """Responsibility-weighted diagonal Gaussian of every class: the means
    and the population variances floored at EPSILON_VARIANCE.

    ``responsibilities`` is ([E,] samples, classes); returns the
    ``DiagonalGaussian`` of ([E,] classes, d) stacks. With T the column
    totals of r and c the episode's sample mean, the mean is ``r^T x / T``
    and the variance ``r^T (x - c)**2 / T - m'**2`` with the shifted mean
    ``m' = r^T (x - c) / T``: no offset the samples share reaches the
    subtraction, and one sample of responsibility 1 lands exactly on the
    floor.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    r = np.asarray(responsibilities, dtype=np.float64)
    totals = r.sum(axis=-2)
    empty = _first_row(totals <= 0.0)
    if empty is not None:
        raise ValueError(f"zero total responsibility for class position {empty}")
    column = totals[..., None]
    r_t = np.swapaxes(r, -1, -2)
    mean = r_t @ x / column
    center = x.mean(axis=-2, keepdims=True)
    shifted = x - center
    mean_shifted = r_t @ shifted / column
    variance = r_t @ (shifted * shifted) / column - mean_shifted * mean_shifted
    return DiagonalGaussian(mean, np.maximum(variance, EPSILON_VARIANCE))


def gaussian_product(prior, likelihood):
    """Closed-form product of two diagonal Gaussians, each a (mean,
    variance) pair of vectors, (n, d) matrices or (E, n, d) stacks. Returns
    the posterior ``DiagonalGaussian``; the scalar normalizer is irrelevant
    downstream and intentionally skipped.
    """
    prior_mean, prior_var, lik_mean, lik_var = (
        np.asarray(a, dtype=np.float64) for pair in (prior, likelihood) for a in pair)
    if prior_mean.shape != lik_mean.shape:
        raise ValueError(f"shape mismatch: {prior_mean.shape} vs {lik_mean.shape}")
    denom = prior_var + lik_var
    mean = (lik_var * prior_mean + prior_var * lik_mean) / denom
    return DiagonalGaussian(mean, prior_var * lik_var / denom)


def mean_fuse(prototype, completed):
    """Plain elementwise average of the two prototype estimates (ablation mode)."""
    p = np.asarray(prototype, dtype=np.float64)
    q = np.asarray(completed, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return (p + q) / 2.0


class FusionResult(NamedTuple):
    """One episode's fusion, or a block's with a leading episode axis on
    every stack; row k of every Gaussian stack is class position k."""

    mean_based: DiagonalGaussian   # ([E,] num_classes, d), the likelihood side
    completed: DiagonalGaussian    # ([E,] num_classes, d), the prior side
    posterior: DiagonalGaussian    # ([E,] num_classes, d)
    assignment_mean: np.ndarray       # ([E,] num_samples, num_classes) responsibilities
    assignment_completed: np.ndarray  # ([E,] num_samples, num_classes) responsibilities

    @property
    def fused(self) -> np.ndarray:
        """The fused prototypes: the posterior means, ([E,] num_classes, d)."""
        return self.posterior.mean


def fuse_prototypes(embeddings, labels, mean_prototypes,
                    completed_prototypes) -> FusionResult:
    """The one fusion pass over an episode's samples, all classes at once,
    or over a block of episodes stacked along a leading axis; inference and
    ``fused_means`` both run it.

    ``embeddings`` is ([E,] samples, d), the prototype families are ([E,]
    classes, d), and ``labels`` (samples,) is the layout every episode of a
    block shares. Soft-assigns all samples twice (``soft_assign``, once per
    prototype family), estimates a floored diagonal Gaussian per class from
    each assignment (``weighted_gaussian_estimate``), and multiplies them
    (``gaussian_product``) with the completed-prototype Gaussian as the
    prior and the mean-based Gaussian as the likelihood. The fused
    prototype is the posterior mean. A non-finite or zero-norm unlabeled
    sample or prototype is rejected by ``cosine_matrix``, named by its row.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    means = np.asarray(mean_prototypes, dtype=np.float64)
    completed = np.asarray(completed_prototypes, dtype=np.float64)
    if completed.shape != means.shape:
        raise ValueError(f"completed prototypes of shape {completed.shape} do not match "
                         f"mean prototypes of shape {means.shape}")
    assignment_mean = soft_assign(x, labels, means)
    assignment_completed = soft_assign(x, labels, completed)
    mean_based = weighted_gaussian_estimate(x, assignment_mean)
    completed_side = weighted_gaussian_estimate(x, assignment_completed)
    return FusionResult(mean_based, completed_side,
                        gaussian_product(completed_side, mean_based),
                        assignment_mean, assignment_completed)


def fused_means(embeddings, labels, mean_prototypes, completed_prototypes):
    """Fused prototypes of every class, ([E,] classes, d), for the episodic
    training loss: the posterior mean of ``fuse_prototypes``, as one Node
    over the Node ``completed_prototypes``.

    Its backward pass runs the fusion's steps in reverse: the product
    formula, the completed side's class moments (the two matrix products of
    ``weighted_gaussian_estimate``, differentiated on the same shifted
    samples), its soft assignment and the cosines. A variance at the floor
    passes no gradient back. The mean side involves no trainable quantity.
    """
    completed = completed_prototypes.value
    x = np.asarray(embeddings, dtype=np.float64)
    result = fuse_prototypes(x, labels, mean_prototypes, completed)
    (mean_m, var_m), (mean_c, var_c) = result.mean_based, result.completed
    r, fused = result.assignment_completed, result.fused
    unlabeled = np.flatnonzero(np.asarray(labels) < 0)

    def vjp(g):
        # product: the completed side's mean and (floored) variance, both
        # gradients divided by the class totals T of the moments below
        totals = r.sum(axis=-2)[..., None]
        denom = (var_c + var_m) * totals
        g_mean = g * var_m / denom
        g_var = g * (mean_m - fused) / denom * (var_c > EPSILON_VARIANCE)
        # class moments, mean = r^T x / T and variance = r^T x'^2 / T - m'^2
        # with x' = x - c and m' = mean - c, through the responsibilities of
        # the unlabeled samples (the labeled ones are constant)
        center = x.mean(axis=-2, keepdims=True)
        x_u = x[..., unlabeled, :]
        shifted, mean_shifted = x_u - center, mean_c - center
        g_soft = ((shifted * shifted) @ np.swapaxes(g_var, -1, -2)
                  + shifted @ np.swapaxes(g_mean - 2 * g_var * mean_shifted, -1, -2)
                  + (g_var * (mean_shifted * mean_shifted - var_c)
                     - g_mean * mean_shifted).sum(axis=-1)[..., None, :])
        # softmax of DEFAULT_LAMBDA * cosine
        soft = r[..., unlabeled, :]
        g_z = soft * (g_soft - (g_soft * soft).sum(axis=-1, keepdims=True))
        return (cosine_matrix_vjp(x_u, completed, DEFAULT_LAMBDA * g_z),)

    return ad.Node(fused, (completed_prototypes,), vjp)
