"""Transductive estimation of diagonal-Gaussian prototype distributions and
their Bayesian fusion via the closed-form product of Gaussians.

One pass, ``_fuse``, does the paper's four steps for a whole episode: it
soft-assigns every sample against each prototype family (``soft_assign``),
estimates a floored diagonal Gaussian per class from each assignment
(``weighted_gaussian_estimate``) and multiplies the two Gaussians
(``gaussian_product``). Each step is written once and ``_fuse`` calls all
three by their module names, so a wrapper installed on any of them sees
every fusion. It takes one episode, a (samples, d) sample matrix with
(classes, d) prototype families, or a block of episodes stacked along
leading axes, (E, samples, d) with (E, classes, d); every step acts on the
last two axes, so episode b of a block is computed as it would be alone. It
is generic over plain ndarrays and autodiff Nodes: ``fuse_prototypes``
(inference) runs it on arrays and wraps the result in validated
``FusionResult`` stacks, and ``fused_means`` (the episodic training loss)
runs it on one episode with the completed prototypes traced, so the loss
differentiates through the soft assignment, the class moments and the
product formula.

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

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

EPSILON_VARIANCE = 1e-6  # floor of every estimated variance

DEFAULT_LAMBDA = 10.0  # softmax sharpness of the soft assignment


@dataclass
class DiagonalGaussian:
    """Mean plus per-dimension variance of n Gaussians, one per row of two
    (n, d) matrices, or of (E, n, d) stacks of those."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.variance = np.asarray(self.variance, dtype=np.float64)
        if self.mean.ndim not in (2, 3) or self.mean.shape != self.variance.shape:
            raise ValueError("mean and variance must be matching matrices or stacks of matrices")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.variance).all()):
            raise ValueError("mean and variance must be finite")
        if (self.variance <= 0).any():
            raise ValueError("variance must be strictly positive (apply a floor first)")


def _first_row(mask: np.ndarray):
    """Row (index along the last axis) of the first set entry of ``mask`` in
    C order, or None when no entry is set."""
    hits = np.flatnonzero(mask)
    return int(hits[0] % mask.shape[-1]) if hits.size else None


def cosine_matrix(embeddings, prototypes):
    """Pairwise cosine similarities, rows = embeddings, columns = prototypes.

    Takes a (samples, d) and a (classes, d) matrix, or two stacks of them
    with the same leading axes; the result is (..., samples, classes).
    ``prototypes`` may be a traced Node; embeddings are always constants.
    Raises on any zero-norm row, naming the offending sample or prototype by
    its row within its matrix, and on a prototype whose norm is not finite (a
    NaN or infinite entry, or a squared norm that overflows), naming its
    position.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("embeddings must be a (samples x d) matrix")
    pv = ad.value_of(prototypes)
    if pv.shape[:-2] != x.shape[:-2] or pv.ndim != x.ndim or pv.shape[-1] != x.shape[-1]:
        raise ValueError(f"prototype matrix shape {pv.shape} does not match "
                         f"embeddings of shape {x.shape}")
    x_norms = np.linalg.norm(x, axis=-1)
    zero = _first_row(x_norms == 0.0)
    if zero is not None:
        raise ValueError(f"zero-norm embedding at row {zero}")
    p_norms = ad.sqrt(ad.sum(ad.mul(prototypes, prototypes), axis=-1))
    norms = ad.value_of(p_norms)
    bad = _first_row(~np.isfinite(norms))
    if bad is not None:
        raise ValueError(f"non-finite prototype at position {bad}")
    zero = _first_row(norms == 0.0)
    if zero is not None:
        raise ValueError(f"zero-norm prototype at position {zero}")
    x_unit = x / x_norms[..., None]
    raw = ad.matmul(x_unit, ad.transpose(prototypes))
    return ad.div(raw, ad.reshape(p_norms, pv.shape[:-2] + (1, pv.shape[-2])))


def soft_assign(embeddings, labels, prototypes):
    """Responsibilities P(class | sample) of every sample, ([E,] samples,
    classes); traced when ``prototypes`` is a Node.

    ``labels`` (samples,) holds the class position (0..N-1) of each labeled
    sample and -1 for an unlabeled one; a block's episodes share it. Labeled
    rows are exact one-hot vectors (``hard``); unlabeled rows are
    softmax(DEFAULT_LAMBDA * cosine) over the prototype rows, and the
    constant 0/1 ``place`` matrix puts softmax row j at unlabeled sample j.
    The placement adds only exact zeros, so every row equals its direct
    formula bit for bit. With no unlabeled sample the (0, d) block flows
    through.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    num_classes = ad.value_of(prototypes).shape[-2]
    if y.max(initial=-1) >= num_classes:
        raise ValueError("label refers to a class position beyond the prototype count")
    unlabeled = np.flatnonzero(y < 0)
    labeled = np.flatnonzero(y >= 0)
    hard = np.zeros((y.size, num_classes))
    hard[labeled, y[labeled]] = 1.0
    place = np.zeros((y.size, unlabeled.size))
    place[unlabeled, np.arange(unlabeled.size)] = 1.0
    soft = ad.softmax_rows(ad.mul(cosine_matrix(x[..., unlabeled, :], prototypes),
                                  DEFAULT_LAMBDA))
    return ad.add(hard, ad.matmul(place, soft))


def weighted_gaussian_estimate(embeddings, responsibilities):
    """Responsibility-weighted diagonal Gaussian of every class: the means
    and the population variances floored at EPSILON_VARIANCE.

    ``responsibilities`` is ([E,] samples, classes) and may be a traced
    Node; returns the two ([E,] classes, d) stacks (mean, variance). Two
    passes: the variance is taken around the finished mean.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    totals = ad.sum(responsibilities, axis=-2)
    empty = _first_row(ad.value_of(totals) <= 0.0)
    if empty is not None:
        raise ValueError(f"zero total responsibility for class position {empty}")
    column = ad.reshape(totals, ad.value_of(totals).shape + (1,))
    mean = ad.div(ad.matmul(ad.transpose(responsibilities), x), column)
    variance = ad.div(_weighted_square_deviations(x, responsibilities, mean), column)
    return mean, ad.maximum(variance, EPSILON_VARIANCE)


def _weighted_square_deviations(x: np.ndarray, responsibilities, mean):
    """``sum_s r[s, k] * (x[s] - mean[k])**2`` for every class k, ([E,] classes, d).

    The squared deviations, the largest temporaries of the fusion, are
    formed in (..., classes, samples, d) blocks squared in place, as many
    classes at a time as keep a block within one episode's all-class block
    and never fewer than one: one block for a single episode, and class by
    class for a block of at least as many episodes as classes. Each class's
    sum is the same matrix product either way. Traced, it is one node whose
    backward pass reuses the blocks and allocates nothing of their size.
    """
    r, m = ad.value_of(responsibilities), ad.value_of(mean)
    r_t = np.swapaxes(r, -1, -2)
    classes, episodes = m.shape[-2], math.prod(x.shape[:-2])
    step = max(1, classes // episodes)
    chunks = [slice(k, k + step) for k in range(0, classes, step)]
    parents = [p for p in (responsibilities, mean) if ad.is_node(p)]
    out = np.empty(m.shape)
    kept = []  # the blocks, for a traced backward pass
    for chunk in chunks:
        squares = x[..., None, :, :] - m[..., chunk, None, :]
        np.square(squares, out=squares)
        out[..., chunk, :] = np.matmul(r_t[..., chunk, None, :], squares)[..., 0, :]
        if parents:
            kept.append(squares)
    if not parents:
        return out

    def vjp(g):
        grads = []
        if ad.is_node(responsibilities):
            grads.append(np.concatenate(
                [np.matmul(squares, g[..., chunk, :, None])[..., 0]
                 for chunk, squares in zip(chunks, kept)], axis=-2).swapaxes(-1, -2))
        if ad.is_node(mean):
            grads.append(-2.0 * g * (r_t @ x - m * r.sum(axis=-2)[..., None]))
        return grads

    return ad.Node(out, parents, vjp)


def gaussian_product(prior, likelihood):
    """Closed-form product of two diagonal Gaussians, each a (mean,
    variance) pair of arrays or traced Nodes: vectors, (n, d) matrices or
    (E, n, d) stacks. Returns the posterior (mean, variance) pair; the
    scalar normalizer is irrelevant downstream and intentionally skipped.
    """
    (prior_mean, prior_var), (lik_mean, lik_var) = prior, likelihood
    prior_shape, lik_shape = ad.value_of(prior_mean).shape, ad.value_of(lik_mean).shape
    if prior_shape != lik_shape:
        raise ValueError(f"shape mismatch: {prior_shape} vs {lik_shape}")
    denom = ad.add(prior_var, lik_var)
    mean = ad.div(ad.add(ad.mul(lik_var, prior_mean), ad.mul(prior_var, lik_mean)), denom)
    var = ad.div(ad.mul(prior_var, lik_var), denom)
    return mean, var


def mean_fuse(prototype, completed):
    """Plain elementwise average of the two prototype estimates (ablation mode)."""
    p = np.asarray(prototype, dtype=np.float64)
    q = np.asarray(completed, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return (p + q) / 2.0


@dataclass
class FusionResult:
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


def _fuse(embeddings, labels, mean_prototypes, completed_prototypes):
    """The one fusion pass over an episode's samples, all classes at once,
    or over a block of episodes stacked along a leading axis.

    ``embeddings`` is ([E,] samples, d), the prototype families are ([E,]
    classes, d), and ``labels`` (samples,) is the layout every episode of a
    block shares. Soft-assigns all samples twice (``soft_assign``, once per
    prototype family), estimates a floored diagonal Gaussian per class from
    each assignment (``weighted_gaussian_estimate``), and multiplies them
    (``gaussian_product``) with the completed-prototype Gaussian as the
    prior and the mean-based Gaussian as the likelihood.
    ``completed_prototypes`` may be a traced Node; the mean side involves
    no trainable quantity and stays untraced.
    Returns the two responsibility matrices and the (mean, variance) pairs
    of the mean-based, completed and posterior stacks.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    means = np.asarray(mean_prototypes, dtype=np.float64)
    completed_shape = ad.value_of(completed_prototypes).shape
    if completed_shape != means.shape:
        raise ValueError(f"completed prototypes of shape {completed_shape} do not match "
                         f"mean prototypes of shape {means.shape}")
    assign_mean = soft_assign(x, labels, means)
    assign_comp = soft_assign(x, labels, completed_prototypes)
    mean_side = weighted_gaussian_estimate(x, assign_mean)
    comp_side = weighted_gaussian_estimate(x, assign_comp)
    posterior = gaussian_product(comp_side, mean_side)
    return assign_mean, assign_comp, mean_side, comp_side, posterior


def fuse_prototypes(embeddings, labels, mean_prototypes,
                    completed_prototypes) -> FusionResult:
    """Full fusion pass over one episode's supports and queries, or a
    block's (``_fuse``), with every Gaussian stack validated. The fused
    prototype is the posterior mean."""
    assign_mean, assign_comp, mean_side, comp_side, posterior = _fuse(
        embeddings, labels, mean_prototypes, completed_prototypes)
    return FusionResult(DiagonalGaussian(*mean_side), DiagonalGaussian(*comp_side),
                        DiagonalGaussian(*posterior), assign_mean, assign_comp)


def fused_means(embeddings, labels, mean_prototypes, completed_prototypes):
    """Fused prototypes of every class, (num_classes, d), for the episodic
    training loss: the posterior mean of ``_fuse``, traced when
    ``completed_prototypes`` is a Node."""
    _, _, _, _, (mean, _) = _fuse(embeddings, labels, mean_prototypes, completed_prototypes)
    return mean
