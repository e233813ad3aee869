"""The reference tape: generic autodiff operations, and the reference
compositions the tests build from them.

The library's training losses are hand-written nodes (``completion.complete``
and the completion loss's squared error, ``fusion.fused_means`` and the
episodic classifier head) on ``autodiff``'s tape, which defines no
operations. Each is checked against the same computation composed here from
generic operations, whose gradients come from their own small backward
passes, each checked against finite differences in ``test_autodiff.py``.
``matmul`` and ``transpose`` act on the last two axes, so they take one
matrix or a stack of matrices along leading axes (``matmul`` broadcasts
those axes). Every operation also accepts plain ndarrays and falls back to
numpy, so a reference can be evaluated untraced for finite differences.
``softmax_rows`` and ``logsumexp_rows`` subtract a detached row maximum,
which changes neither the value nor the derivative.
"""

import numpy as np

from protofuse import completion as cp
from protofuse import episodes as ep
from protofuse import fusion
from protofuse.autodiff import Node, backward, is_node

__all__ = ["value_of", "sub", "mul", "sum", "mean", "add", "div", "maximum", "matmul",
           "transpose", "reshape", "exp", "log", "sqrt", "softmax_rows", "logsumexp_rows",
           "meta_episode_loss", "assert_meta_loss_matches"]


def value_of(x) -> np.ndarray:
    """Underlying float64 array of a Node or array-like."""
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeezed = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeezed:
        grad = grad.sum(axis=squeezed, keepdims=True)
    return grad.reshape(shape)


def _lift(out_value, entries):
    parents = tuple(node for node, _ in entries)
    fns = tuple(fn for _, fn in entries)

    def vjp(g):
        return tuple(fn(g) for fn in fns)

    return Node(out_value, parents, vjp)


def _elementwise(forward, d_first, d_second):
    """Broadcasting binary op from its numpy ``forward`` and the maps
    (g, a, b) -> each operand's gradient, summed back to that operand's shape."""
    def op(a, b):
        av, bv = value_of(a), value_of(b)
        if not (is_node(a) or is_node(b)):
            return forward(av, bv)
        entries = []
        if is_node(a):
            entries.append((a, lambda g: _unbroadcast(d_first(g, av, bv), av.shape)))
        if is_node(b):
            entries.append((b, lambda g: _unbroadcast(d_second(g, av, bv), bv.shape)))
        return _lift(forward(av, bv), entries)
    return op


sub = _elementwise(np.subtract, lambda g, a, b: g, lambda g, a, b: -g)
mul = _elementwise(np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)


def sum(x, axis=None):
    if not is_node(x):
        return np.sum(np.asarray(x, np.float64), axis=axis)
    xv = x.value
    if axis is None:
        vjp_fn = lambda g: np.full(xv.shape, g, dtype=np.float64)
    else:
        vjp_fn = lambda g: np.broadcast_to(np.expand_dims(g, axis), xv.shape).copy()
    return _lift(xv.sum(axis=axis), [(x, vjp_fn)])


def mean(x, axis=None):
    if not is_node(x):
        return np.mean(np.asarray(x, np.float64), axis=axis)
    n = x.value.size if axis is None else x.value.shape[axis]
    return mul(sum(x, axis=axis), 1.0 / n)


add = _elementwise(np.add, lambda g, a, b: g, lambda g, a, b: g)
div = _elementwise(np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b))
# At ties, maximum's gradient routes to the first argument.
maximum = _elementwise(np.maximum, lambda g, a, b: g * (a >= b),
                       lambda g, a, b: g * ~(a >= b))


def _swap_last(x: np.ndarray) -> np.ndarray:
    """View of ``x`` with its last two axes swapped (``x.T`` of a matrix)."""
    return np.swapaxes(x, -1, -2)


def matmul(a, b):
    """Product of two matrices, or of two stacks of them over broadcast
    leading axes. Each matrix product of a stack is the one numpy computes
    for that pair alone."""
    av, bv = value_of(a), value_of(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError(f"matmul multiplies two matrices, got {av.ndim}-d @ {bv.ndim}-d")
    if av.shape[-1] != bv.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    if not (is_node(a) or is_node(b)):
        return av @ bv
    entries = []
    if is_node(a):
        entries.append((a, lambda g: _unbroadcast(g @ _swap_last(bv), av.shape)))
    if is_node(b):
        entries.append((b, lambda g: _unbroadcast(_swap_last(av) @ g, bv.shape)))
    return _lift(av @ bv, entries)


def transpose(x):
    """Swap the last two axes: the transpose of a matrix or of each matrix
    of a stack."""
    xv = value_of(x)
    if xv.ndim < 2:
        raise ValueError(f"transpose expects a matrix or a stack of them, got {xv.ndim}-d")
    if not is_node(x):
        return _swap_last(xv)
    return _lift(_swap_last(xv), [(x, _swap_last)])


def reshape(x, shape):
    if not is_node(x):
        return np.asarray(x, np.float64).reshape(shape)
    old = x.value.shape
    return _lift(x.value.reshape(shape), [(x, lambda g: g.reshape(old))])


def exp(x):
    if not is_node(x):
        return np.exp(np.asarray(x, np.float64))
    out = np.exp(x.value)
    return _lift(out, [(x, lambda g: g * out)])


def log(x):
    if not is_node(x):
        return np.log(np.asarray(x, np.float64))
    return _lift(np.log(x.value), [(x, lambda g: g / x.value)])


def sqrt(x):
    if not is_node(x):
        return np.sqrt(np.asarray(x, np.float64))
    out = np.sqrt(x.value)
    return _lift(out, [(x, lambda g: g * (0.5 / out))])


def softmax_rows(z):
    """Softmax over the last axis with a detached max shift (value and
    gradient exact)."""
    shift = value_of(z).max(axis=-1, keepdims=True)
    e = exp(sub(z, shift))
    totals = sum(e, axis=-1)
    return div(e, reshape(totals, shift.shape))


def logsumexp_rows(z):
    shift = value_of(z).max(axis=-1, keepdims=True)
    inner = sum(exp(sub(z, shift)), axis=-1)
    return add(log(inner), shift[..., 0])


# --- the episodic loss as one tape of generic operations ----------------------

def _cosine_matrix(x, prototypes):
    """(samples, classes) cosines of constant rows ``x`` against ``prototypes``."""
    x_unit = x / np.linalg.norm(x, axis=-1)[:, None]
    p_norms = sqrt(sum(mul(prototypes, prototypes), axis=-1))
    raw = matmul(x_unit, transpose(prototypes))
    return div(raw, reshape(p_norms, (1, value_of(prototypes).shape[0])))


def _soft_assign(x, labels, prototypes):
    """One-hot rows for labeled samples, softmax(lambda * cosine) rows for the
    others, placed by a constant 0/1 matrix."""
    classes = value_of(prototypes).shape[0]
    unlabeled, labeled = np.flatnonzero(labels < 0), np.flatnonzero(labels >= 0)
    hard = np.zeros((labels.size, classes))
    hard[labeled, labels[labeled]] = 1.0
    place = np.zeros((labels.size, unlabeled.size))
    place[unlabeled, np.arange(unlabeled.size)] = 1.0
    soft = softmax_rows(mul(_cosine_matrix(x[unlabeled], prototypes), fusion.DEFAULT_LAMBDA))
    return add(hard, matmul(place, soft))


def _weighted_gaussian_estimate(x, responsibilities):
    """Responsibility-weighted means and floored variances, the variance
    taken around the finished mean; the squared deviations of every
    (class, sample) pair form one (classes, samples, d) stack."""
    classes, samples = value_of(responsibilities).shape[1], x.shape[0]
    column = reshape(sum(responsibilities, axis=0), (classes, 1))
    mean_ = div(matmul(transpose(responsibilities), x), column)
    diff = sub(x[None], reshape(mean_, (classes, 1, x.shape[1])))
    weights = reshape(transpose(responsibilities), (classes, 1, samples))
    deviations = reshape(matmul(weights, mul(diff, diff)), (classes, x.shape[1]))
    return mean_, maximum(div(deviations, column), fusion.EPSILON_VARIANCE)


def _gaussian_product(prior, likelihood):
    (prior_mean, prior_var), (lik_mean, lik_var) = prior, likelihood
    denom = add(prior_var, lik_var)
    return div(add(mul(lik_var, prior_mean), mul(prior_var, lik_mean)), denom)


def meta_episode_loss(tensors, knowledge, episode, features):
    """``episodes.meta_episode_loss`` for one episode, as a tape of generic
    operations after the ``completion.complete`` node: soft assignments,
    class moments and product of the fusion, then the scaled cosine
    cross-entropy of the queries."""
    means = ep.mean_prototypes(episode)
    completed = cp.complete(tensors, knowledge, episode.roster, means, features)
    x = np.concatenate([episode.support_x, episode.query_x])
    labels = np.concatenate([ep.class_positions(episode.n_way, episode.k_shot),
                             np.full(episode.query_y.size, -1)])
    mean_side = _weighted_gaussian_estimate(x, _soft_assign(x, labels, means))
    comp_side = _weighted_gaussian_estimate(x, _soft_assign(x, labels, completed))
    fused = _gaussian_product(comp_side, mean_side)
    logits = mul(_cosine_matrix(episode.query_x, fused), exp(tensors["log_scale"]))
    mask = np.eye(episode.n_way)[ep.class_positions(episode.n_way, episode.m_query)]
    picked = sum(mul(logits, mask), axis=1)
    return mean(sub(logsumexp_rows(logits), picked))


def assert_meta_loss_matches(params, knowledge, episode, features, tolerance):
    """``episodes.meta_episode_loss`` against ``meta_episode_loss`` here: the
    loss and every leaf gradient (relative to that tensor's largest entry)
    within ``tolerance``."""
    nodes, reference = params.store.leaves(), params.store.leaves()
    loss = ep.meta_episode_loss(nodes, knowledge, episode, features)
    expected = meta_episode_loss(reference, knowledge, episode, features)
    backward(loss)
    backward(expected)
    assert abs(float(loss.value) - float(expected.value)) <= tolerance * abs(expected.value)
    for name in params.store.names():
        scale = np.abs(reference[name].grad).max()
        assert np.abs(nodes[name].grad - reference[name].grad).max() <= tolerance * scale, name
