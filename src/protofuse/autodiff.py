"""Reverse-mode automatic differentiation over numpy arrays: the tape.

Each ``Node`` records its parent nodes together with a closure mapping the
output gradient to parent gradients; ``backward`` replays those closures in
reverse topological order. ``Node`` defines no operators, and the module
defines no operations: every node of a training loss is written by hand,
with its own backward pass, over the leaf Nodes of ``nn.ParamStore.leaves``.
The completion loss is the completion network (``completion.complete``) and
its squared error; the episodic loss is that network, the fusion
(``fusion.fused_means``) and the cosine classifier head (``episodes``
module). A node takes Node parameters and always returns a Node, so a loss
has one traced form; finite differences re-evaluate it on the same leaves
(``nn.gradient_check``).

All values are float64.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Node", "is_node", "backward"]


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
