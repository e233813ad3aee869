"""Reverse-mode automatic differentiation over numpy arrays.

Each operation records its parent nodes together with a closure mapping the
output gradient to parent gradients; ``backward`` replays those closures in
reverse topological order. Arithmetic goes through these functions only
(``Node`` defines no operators). ``matmul`` and ``transpose`` act on the last
two axes, so they take one matrix or a stack of matrices along leading axes
(``matmul`` broadcasts those axes); no other rank is accepted. Every helper
also accepts plain ndarrays and falls back to numpy, so numerical code can be
written once and executed either traced (when gradients are needed) or
untraced (fast inference path).

All values are float64. Stability-sensitive compositions (``softmax_rows``,
``logsumexp_rows``) subtract a detached row maximum, which changes neither
the value nor the derivative.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Node", "is_node", "value_of", "backward",
    "add", "sub", "mul", "div", "matmul", "transpose", "reshape",
    "exp", "log", "sqrt", "maximum", "sum", "mean",
    "softmax_rows", "logsumexp_rows",
]


class Node:
    """One value in a recorded computation graph."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    # No arithmetic operators: with this, ``ndarray + Node`` raises TypeError
    # instead of numpy building an object array.
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Node(shape={self.value.shape}, leaf={self._vjp is None})"


def is_node(x) -> bool:
    return isinstance(x, Node)


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


add = _elementwise(np.add, lambda g, a, b: g, lambda g, a, b: g)
sub = _elementwise(np.subtract, lambda g, a, b: g, lambda g, a, b: -g)
mul = _elementwise(np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)
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


def _topological_order(root: Node):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Node) -> None:
    """Populate ``.grad`` on every node reachable from ``root``, seeding the
    root with ones (a scalar loss's gradient with respect to itself)."""
    if not is_node(root):
        raise TypeError("backward requires a traced Node")
    order = _topological_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(node.grad)):
            pg = np.asarray(pg, np.float64)
            parent.grad = pg if parent.grad is None else parent.grad + pg
