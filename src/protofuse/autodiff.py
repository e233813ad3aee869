"""Reverse-mode automatic differentiation over numpy arrays.

Each operation records its parent nodes together with a closure mapping the
output gradient to parent gradients; ``backward`` replays those closures in
reverse topological order. Arithmetic goes through these functions only
(``Node`` defines no operators).

The training losses are built from a few nodes with hand-written backward
passes, each made directly with ``Node``: the completion network
(``completion.complete``), the fusion (``fusion.fused_means``) and the
episodic classifier head (``episodes`` module). The generic operations here
are the four that the completion loss composes on top of its node:
broadcasting ``sub`` and ``mul``, ``sum`` and ``mean``. Each also accepts
plain ndarrays and then falls back to numpy, so a loss can be written once
and executed either traced (when gradients are needed) or untraced (for
finite differences).

All values are float64.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Node", "is_node", "value_of", "backward", "sub", "mul", "sum", "mean"]


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
