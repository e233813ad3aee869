"""Training substrate: a registry of named parameters, SGD with a fixed
momentum (``MOMENTUM``) and L2 weight decay (``WEIGHT_DECAY``) folded into
the gradient, finite-difference gradient checking, and a versioned binary
parameter checkpoint. The completion network reads the registry's leaves
through one autodiff node with a hand-written backward pass
(``completion.complete``).

``train_step`` is the one SGD step both trainings run (completion training
and episodic meta-training): fresh leaves, the loss, backward, update. The
registry keeps no gradient buffers. ``ParamStore.accumulate`` records the
backward pass's leaf gradients as pending gradients, and ``sgd_step`` reads
them in place, updating each tensor that has one through one scratch array
of its own. As in PyTorch's SGD, a tensor the loss does not reach is not
touched, so completion training leaves the classifier scale alone.

Everything runs in double precision on purpose: the gradient-check contract
(max relative error < 1e-4 against central differences) leaves no room for
single-precision noise.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .fileio import atomic_write_bytes

CHECKPOINT_MAGIC = b"PCN1"
MOMENTUM = 0.9  # the SGD recipe both training phases share
WEIGHT_DECAY = 0.0005


class NonFiniteGradientError(RuntimeError):
    """An update step saw a NaN/inf gradient; carries the parameter name."""

    def __init__(self, name: str):
        super().__init__(f"non-finite gradient for parameter '{name}'")
        self.parameter = name


class CheckpointError(ValueError):
    pass


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


class ParamStore:
    """Flat registry of named float64 tensors, the gradients pending for the
    next ``sgd_step``, and the optimizer's velocity and scratch arrays.

    Values are mutated in place by ``sgd_step`` so that any view handed out
    (e.g. the arrays a ``CompletionPlan`` holds) tracks training.
    """

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._pending: dict[str, np.ndarray] = {}
        self._velocity: dict[str, np.ndarray] = {}
        self._scratch: dict[str, np.ndarray] = {}

    def register(self, name: str, value) -> np.ndarray:
        if name in self._values:
            raise ValueError(f"parameter '{name}' already registered")
        v = np.array(value, dtype=np.float64)
        self._values[name] = v
        return v

    def names(self) -> list[str]:
        return list(self._values)

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def leaves(self) -> dict[str, ad.Node]:
        """Fresh leaf Nodes wrapping the live parameter arrays."""
        return {name: ad.Node(v) for name, v in self._values.items()}

    def accumulate(self, leaves: dict[str, ad.Node]) -> None:
        """Record a backward pass's leaf gradients as the next ``sgd_step``'s.

        The store keeps a reference to each leaf's ``.grad``, not a copy, and
        replaces whatever an earlier call recorded. Leaf gradients may alias
        each other, so nothing here or in ``sgd_step`` writes into them.
        perfbench traces this method by name (``nn.ParamStore.accumulate``).
        """
        unknown = [name for name in leaves if name not in self._values]
        if unknown:
            raise KeyError(unknown[0])
        self._pending = {name: node.grad for name, node in leaves.items()
                         if node.grad is not None}


@dataclass
class SgdConfig:
    learning_rate: float
    epochs: int = 1

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


def sgd_step(store: ParamStore, config: SgdConfig) -> None:
    """Momentum update with L2 decay folded into the gradient:
    g <- g + wd*theta; v <- m*v + g; theta <- theta - lr*v, with
    m = ``MOMENTUM`` and wd = ``WEIGHT_DECAY``.

    Exactly the tensors with a pending gradient ``g`` are updated, in store
    order; any other tensor keeps its value and its velocity. Each is updated
    through its own scratch array, in this operation order: scratch = wd*theta,
    scratch = g + scratch, v *= m, v += scratch, scratch = lr*v,
    theta -= scratch. The pending gradients are only read, then released.

    Aborts (before touching any parameter or velocity) if any pending
    gradient is non-finite: a finite sum clears a tensor in one pass, and
    only a non-finite sum (which finite values can also overflow to) falls
    back to the per-element test.
    """
    pending = [(name, theta, store._pending[name]) for name, theta in store._values.items()
               if name in store._pending]
    with np.errstate(over="ignore", invalid="ignore"):
        for name, _, g in pending:
            if not np.isfinite(g.sum()) and not np.isfinite(g).all():
                raise NonFiniteGradientError(name)
    for name, theta, g in pending:
        v = store._velocity.get(name)
        if v is None:
            v = store._velocity[name] = np.zeros_like(theta)
            store._scratch[name] = np.empty_like(theta)
        scratch = store._scratch[name]
        np.multiply(WEIGHT_DECAY, theta, out=scratch)
        np.add(g, scratch, out=scratch)
        v *= MOMENTUM
        v += scratch
        np.multiply(config.learning_rate, v, out=scratch)
        theta -= scratch
    store._pending = {}


def train_step(store: ParamStore, loss_fn, config: SgdConfig, failure: str) -> float:
    """One SGD step on ``loss_fn``, a map from fresh leaf Nodes (by name) to
    a scalar loss Node; returns the loss. A non-finite loss raises
    ``RuntimeError(failure)`` before any parameter changes."""
    leaves = store.leaves()
    loss = loss_fn(leaves)
    if not np.isfinite(loss.value):
        raise RuntimeError(failure)
    ad.backward(loss)
    store.accumulate(leaves)
    sgd_step(store, config)
    return float(loss.value)


@dataclass
class GradientCheckReport:
    max_relative_error: float
    worst_parameter: str | None
    per_parameter: dict = field(default_factory=dict)


def gradient_check(store: ParamStore, loss_fn, step: float = 1e-4,
                   samples_per_tensor: int = 10,
                   rng: np.random.Generator | None = None) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` maps a dict name -> tensor (leaf Nodes when traced, plain
    arrays when re-evaluated for differencing) to a scalar. For each
    registered tensor, up to ``samples_per_tensor`` coordinates are probed.
    """
    rng = rng or np.random.default_rng(0)
    leaves = store.leaves()
    out = loss_fn(leaves)
    if not ad.is_node(out):
        raise ValueError("loss_fn must depend on the supplied parameters")
    ad.backward(out)

    plain = {name: store.value(name) for name in store.names()}
    worst, worst_name = 0.0, None
    per_parameter = {}
    for name in store.names():
        theta = store.value(name)
        node = leaves[name]
        analytic = node.grad if node.grad is not None else np.zeros_like(theta)
        count = min(samples_per_tensor, theta.size)
        coords = rng.choice(theta.size, size=count, replace=False)
        local_worst = 0.0
        for j in coords:
            original = theta.flat[j]
            theta.flat[j] = original + step
            loss_plus = float(loss_fn(plain))
            theta.flat[j] = original - step
            loss_minus = float(loss_fn(plain))
            theta.flat[j] = original
            fd = (loss_plus - loss_minus) / (2.0 * step)
            a = float(analytic.flat[j])
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            if rel > local_worst:
                local_worst = rel
        per_parameter[name] = local_worst
        if local_worst > worst:
            worst, worst_name = local_worst, name
    return GradientCheckReport(worst, worst_name, per_parameter)


def save_checkpoint(tensors, path) -> None:
    """Write named tensors as: magic ``PCN1`` then, per tensor, u32 name
    length, UTF-8 name, u32 rank, u32 dims, float64 little-endian payload.
    """
    buf = bytearray(CHECKPOINT_MAGIC)
    for name, tensor in tensors.items():
        tensor = np.asarray(tensor, dtype=np.float64)
        encoded = name.encode("utf-8")
        buf += struct.pack("<I", len(encoded))
        buf += encoded
        buf += struct.pack("<I", tensor.ndim)
        buf += struct.pack(f"<{tensor.ndim}I", *tensor.shape)
        buf += np.ascontiguousarray(tensor, dtype="<f8").tobytes()
    atomic_write_bytes(path, bytes(buf))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Inverse of ``save_checkpoint``; round-trips bit-exactly. A corrupt
    file (bad magic, truncation, a name that is not UTF-8, a repeated name)
    raises a one-line ``CheckpointError`` that starts with the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path}: bad magic bytes {data[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    offset = 4
    tensors: dict[str, np.ndarray] = {}

    def need(n: int, what: str):
        if offset + n > len(data):
            raise CheckpointError(
                f"{path}: truncated checkpoint while reading {what}: "
                f"expected {offset + n} bytes, file has {len(data)}"
            )

    while offset < len(data):
        need(4, "name length")
        (name_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        need(name_len, "name")
        try:
            name = data[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"{path}: tensor name at byte {offset} is not valid UTF-8: {exc.reason}"
            ) from exc
        if name in tensors:
            raise CheckpointError(f"{path}: tensor '{name}' appears more than once")
        offset += name_len
        need(4, f"rank of '{name}'")
        (rank,) = struct.unpack_from("<I", data, offset)
        offset += 4
        need(4 * rank, f"dims of '{name}'")
        dims = struct.unpack_from(f"<{rank}I", data, offset)
        offset += 4 * rank
        count = math.prod(dims)
        need(8 * count, f"payload of '{name}'")
        flat = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        tensors[name] = flat.reshape(dims).astype(np.float64).copy()
    return tensors
