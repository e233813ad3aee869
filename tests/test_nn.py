"""Stacks of dense layers traced through autodiff against scalar and
finite-difference references, the SGD update rule, gradient checking, and checkpoint
round-trips."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tape
from protofuse import autodiff as ad
from protofuse import nn


def linear_stack(x, layers):
    """Stack of dense layers ``h @ weight.T + bias``, traced when the weights
    are Nodes, each followed by relu (``maximum(0, h)``) unless marked
    identity; ``layers`` holds (weight, bias, activation)."""
    h = x
    for weight, bias, activation in layers:
        h = tape.add(tape.matmul(h, tape.transpose(weight)), bias)
        if activation == "relu":
            h = tape.maximum(0.0, h)
    return h


def make_layers(rng, shapes):
    return [(nn.glorot_uniform(rng, o, i), np.zeros(o), act) for i, o, act in shapes]


def accumulate_grads(store, **grads):
    """Hand ``grads`` to ``store`` the way a training loop does: as the
    ``.grad`` of leaf Nodes passed to ``accumulate``."""
    leaves = store.leaves()
    for name, grad in grads.items():
        leaves[name].grad = np.array(grad, dtype=np.float64)
    store.accumulate(leaves)


def test_forward_identity_passthrough():
    y = linear_stack(np.array([[1.0, -2.0, 0.5]]), [(np.eye(3), np.zeros(3), "identity")])
    np.testing.assert_array_equal(y, [[1.0, -2.0, 0.5]])


def test_forward_relu_clamps():
    y = linear_stack(np.array([[-1.0, 2.0]]), [(np.eye(2), np.zeros(2), "relu")])
    np.testing.assert_array_equal(y, [[0.0, 2.0]])


def test_forward_matches_scalar_reference():
    # Independent scalar-loop forward pass for a fixed-seed 2-layer net.
    rng = np.random.default_rng(42)
    (w1, b1, _), (w2, b2, _) = layers = make_layers(rng, [(4, 3, "relu"), (3, 2, "identity")])
    b1[...] = rng.standard_normal(3)
    x = rng.standard_normal(4)
    y = linear_stack(x[None], layers)[0]

    h = [0.0] * 3
    for i in range(3):
        z = b1[i]
        for j in range(4):
            z += w1[i][j] * x[j]
        h[i] = z if z > 0 else 0.0
    expected = [0.0] * 2
    for i in range(2):
        z = b2[i]
        for j in range(3):
            z += w2[i][j] * h[j]
        expected[i] = z
    np.testing.assert_allclose(y, expected, rtol=1e-12)


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError, match="matmul shape mismatch"):
        linear_stack(np.ones((1, 4)), [(np.ones((2, 3)), np.zeros(2), "identity")])


def test_backward_linear_outer_product():
    # Identity activation, loss = sum(outputs): dW = outer(ones, x), db = ones.
    weight, bias = ad.Node(np.zeros((3, 2))), ad.Node(np.zeros(3))
    x = np.array([2.0, -1.0])
    ad.backward(tape.sum(linear_stack(x[None], [(weight, bias, "identity")])))
    np.testing.assert_allclose(weight.grad, np.outer(np.ones(3), x))
    np.testing.assert_allclose(bias.grad, np.ones(3))


def test_backward_dead_relu_unit():
    weight, bias = ad.Node(np.array([[1.0], [-1.0]])), ad.Node(np.zeros(2))
    out = linear_stack(np.array([[3.0]]), [(weight, bias, "relu")])  # unit 1 is dead
    ad.backward(out)
    np.testing.assert_array_equal(weight.grad, [[3.0], [0.0]])
    np.testing.assert_array_equal(bias.grad, [1.0, 0.0])


@pytest.mark.parametrize("shapes", [
    [(4, 6, "relu"), (6, 3, "identity")],
    [(8, 256, "relu")],
    [(256, 512, "relu"), (512, 8, "identity")],
])
def test_backward_against_finite_differences(shapes):
    rng = np.random.default_rng(7)
    layers = make_layers(rng, shapes)
    x = rng.standard_normal((2, shapes[0][0])) + 0.3
    weights = rng.standard_normal((2, shapes[-1][1]))

    def loss_at(layers_):
        return float(np.sum(weights * linear_stack(x, layers_)))

    leaves = [(ad.Node(w), ad.Node(b), act) for w, b, act in layers]
    ad.backward(tape.sum(tape.mul(linear_stack(x, leaves), weights)))

    coord_rng = np.random.default_rng(3)
    h_step = 1e-6
    for (weight, _, _), (leaf, _, _) in zip(layers, leaves):
        for j in coord_rng.choice(weight.size, size=8, replace=False):
            orig = weight.flat[j]
            weight.flat[j] = orig + h_step
            up = loss_at(layers)
            weight.flat[j] = orig - h_step
            down = loss_at(layers)
            weight.flat[j] = orig
            fd = (up - down) / (2 * h_step)
            assert leaf.grad.flat[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_sgd_plain_step():
    store = nn.ParamStore()
    store.register("w", [1.0, 2.0])
    expected, velocity = {"w": np.array([1.0, 2.0])}, {"w": np.zeros(2)}
    accumulate_grads(store, w=[0.5, -0.5])
    nn.sgd_step(store, nn.SgdConfig(learning_rate=1.0))
    reference_sgd_step(expected, velocity, {"w": np.array([0.5, -0.5])}, 1.0)
    assert store.value("w").tobytes() == expected["w"].tobytes()
    # the step took the gradient: a second one with nothing accumulated
    # leaves the tensor and its velocity as they are
    after, v = store.value("w").copy(), store._velocity["w"].copy()
    nn.sgd_step(store, nn.SgdConfig(learning_rate=1.0))
    assert store.value("w").tobytes() == after.tobytes()
    assert store._velocity["w"].tobytes() == v.tobytes()


def test_sgd_momentum_doubles_second_displacement():
    # Same gradient g twice from w = 0: v1 = g and w1 = -lr g, then
    # v2 = m v1 + g + wd w1 = (1 + m - wd lr) g, about 1.9 g.
    store = nn.ParamStore()
    store.register("w", [0.0])
    cfg = nn.SgdConfig(learning_rate=0.1)
    accumulate_grads(store, w=[1.0])
    nn.sgd_step(store, cfg)
    first = -store.value("w")[0]
    accumulate_grads(store, w=[1.0])
    before = store.value("w")[0]
    nn.sgd_step(store, cfg)
    second = before - store.value("w")[0]
    ratio = 1.0 + nn.MOMENTUM - nn.WEIGHT_DECAY * 0.1
    assert second == pytest.approx(ratio * first, rel=1e-12)


def test_sgd_weight_decay_shrinks_with_zero_grad():
    # Decay acts through the gradient: a zero gradient decays the tensor, and
    # a tensor without a gradient (off the loss's path) is not touched.
    store = nn.ParamStore()
    store.register("w", [10.0])
    store.register("idle", [10.0])
    accumulate_grads(store, w=[0.0])
    nn.sgd_step(store, nn.SgdConfig(learning_rate=0.5))
    # the first step starts from zero velocity, so it is plain decay
    assert store.value("w")[0] == pytest.approx(10.0 * (1 - 0.5 * nn.WEIGHT_DECAY), rel=1e-12)
    assert store.value("idle")[0] == 10.0
    assert "idle" not in store._velocity


def test_accumulate_records_the_latest_backward_pass_only():
    store = nn.ParamStore()
    store.register("a", [1.0])
    store.register("b", [1.0])
    accumulate_grads(store, a=[5.0], b=[5.0])
    accumulate_grads(store, a=[2.0])  # replaces the first call, "b" included
    nn.sgd_step(store, nn.SgdConfig(learning_rate=1.0))
    np.testing.assert_allclose(store.value("a"), [1.0 - 2.0 - nn.WEIGHT_DECAY], rtol=1e-15)
    np.testing.assert_array_equal(store.value("b"), [1.0])
    with pytest.raises(KeyError, match="other"):
        store.accumulate({"other": ad.Node(np.zeros(1))})


def test_sgd_aborts_on_non_finite_gradient():
    store = nn.ParamStore()
    store.register("fine", [1.0])
    store.register("broken", [1.0])
    accumulate_grads(store, fine=[2.0], broken=[np.nan])
    with pytest.raises(nn.NonFiniteGradientError, match="broken"):
        nn.sgd_step(store, nn.SgdConfig(learning_rate=0.1))
    # nothing was mutated, velocity included
    np.testing.assert_array_equal(store.value("fine"), [1.0])
    assert not any(v.any() for v in store._velocity.values())


def reference_sgd_step(values, velocity, grads, lr):
    """The update as one formula per tensor that has a gradient; any other
    tensor and its velocity stay as they are."""
    for name, grad in grads.items():
        theta = values[name]
        g = grad + nn.WEIGHT_DECAY * theta
        velocity[name] = nn.MOMENTUM * velocity[name] + g
        theta -= lr * velocity[name]


@settings(deadline=None, max_examples=60)
@given(data=st.data(),
       shapes=st.lists(hnp.array_shapes(min_dims=0, max_dims=2, max_side=5),
                       min_size=1, max_size=3),
       lr=st.floats(1e-4, 1.0),
       steps=st.integers(1, 4))
def test_sgd_step_equals_reference_update_bitwise(data, shapes, lr, steps):
    values = st.floats(-10.0, 10.0, allow_subnormal=False)
    store = nn.ParamStore()
    names = [f"t{i}" for i in range(len(shapes))]
    for name, shape in zip(names, shapes):
        store.register(name, data.draw(hnp.arrays(np.float64, shape, elements=values)))
    store.register("idle", data.draw(hnp.arrays(np.float64, (3,), elements=values)))
    expected = {name: store.value(name).copy() for name in store.names()}
    velocity = {name: np.zeros_like(theta) for name, theta in expected.items()}
    config = nn.SgdConfig(learning_rate=lr)
    for _ in range(steps):
        # a gradient for some of the tensors; "idle" never gets one
        grads = {name: data.draw(hnp.arrays(np.float64, store.value(name).shape,
                                            elements=values))
                 for name in names if data.draw(st.booleans())}
        accumulate_grads(store, **grads)
        nn.sgd_step(store, config)
        reference_sgd_step(expected, velocity, grads, lr)
    for name in store.names():
        assert store.value(name).tobytes() == expected[name].tobytes(), name


CHUNKS = 2.5  # a tensor this many update slices long ends in a partial slice


@pytest.mark.parametrize("shape, transposed", [
    pytest.param((int(CHUNKS * nn.UPDATE_CHUNK) // 8, 8), False, id="two-and-a-half-chunks"),
    pytest.param((96, 80), True, id="transposed-gradient"),
    pytest.param((), False, id="0-d"),
])
def test_sgd_step_across_update_chunks_equals_reference_bitwise(shape, transposed):
    rng = np.random.default_rng(31)
    store = nn.ParamStore()
    store.register("w", rng.standard_normal(shape))
    store.register("small", rng.standard_normal(3))
    expected = {name: store.value(name).copy() for name in store.names()}
    velocity = {name: np.zeros_like(theta) for name, theta in expected.items()}
    for step in range(3):
        w_grad = rng.standard_normal(shape[::-1]).T if transposed else rng.standard_normal(shape)
        assert w_grad.flags.c_contiguous != transposed
        grads = {"w": w_grad, "small": rng.standard_normal(3)}
        leaves = store.leaves()
        for name, grad in grads.items():
            leaves[name].grad = grad
        store.accumulate(leaves)
        nn.sgd_step(store, nn.SgdConfig(learning_rate=0.05 * (step + 1)))
        reference_sgd_step(expected, velocity, grads, 0.05 * (step + 1))
    for name in store.names():
        assert store.value(name).tobytes() == expected[name].tobytes(), name
        assert store._velocity[name].tobytes() == velocity[name].tobytes(), name


def test_sgd_aborts_on_nan_in_the_last_chunk_before_any_write():
    rng = np.random.default_rng(32)
    size = int(CHUNKS * nn.UPDATE_CHUNK)
    store = nn.ParamStore()
    store.register("first", rng.standard_normal(5))
    store.register("large", rng.standard_normal(size))
    config = nn.SgdConfig(learning_rate=0.1)
    accumulate_grads(store, first=rng.standard_normal(5), large=rng.standard_normal(size))
    nn.sgd_step(store, config)  # velocities are nonzero from here on
    before = {name: (store.value(name).copy(), store._velocity[name].copy())
              for name in store.names()}
    broken = rng.standard_normal(size)
    broken[-1] = np.nan
    accumulate_grads(store, first=rng.standard_normal(5), large=broken)
    with pytest.raises(nn.NonFiniteGradientError, match="'large'"):
        nn.sgd_step(store, config)
    for name, (value, velocity) in before.items():
        assert store.value(name).tobytes() == value.tobytes(), name
        assert store._velocity[name].tobytes() == velocity.tobytes(), name


def test_sgd_steps_finite_gradients_whose_sum_overflows():
    store = nn.ParamStore()
    store.register("w", [0.0, 0.0])
    grad = np.array([1e308, 1e308])
    with np.errstate(over="ignore"):
        assert np.isinf(grad.sum())
    accumulate_grads(store, w=grad)
    nn.sgd_step(store, nn.SgdConfig(learning_rate=0.5))
    # from w = 0 and zero velocity, neither decay nor momentum adds anything
    np.testing.assert_array_equal(store.value("w"), [-5e307, -5e307])


def test_sgd_step_leaves_sharing_one_gradient_array():
    store = nn.ParamStore()
    store.register("a", [1.0, 2.0])
    store.register("b", [3.0, -4.0])
    config = nn.SgdConfig(learning_rate=0.1)
    expected = {name: store.value(name).copy() for name in store.names()}
    velocity = {name: np.zeros(2) for name in store.names()}
    for _ in range(2):
        leaves = store.leaves()
        ad.backward(tape.sum(tape.mul(tape.add(leaves["a"], leaves["b"]),
                                      np.array([0.5, -0.25]))))
        shared = leaves["a"].grad
        assert leaves["b"].grad is shared  # add's gradient is the output's, for both
        snapshot = shared.copy()
        store.accumulate(leaves)
        nn.sgd_step(store, config)
        reference_sgd_step(expected, velocity, {"a": snapshot, "b": snapshot}, 0.1)
        assert shared.tobytes() == snapshot.tobytes()
    for name in store.names():
        assert store.value(name).tobytes() == expected[name].tobytes(), name


# Explicit ids keep each case's name stable: kwargs2 and kwargs3 were the
# momentum and weight-decay cases, gone now that those are fixed constants.
@pytest.mark.parametrize("kwargs", [
    pytest.param(dict(learning_rate=0.0), id="kwargs0"),
    pytest.param(dict(learning_rate=float("nan")), id="kwargs1"),
    pytest.param(dict(learning_rate=1e-3, epochs=0), id="kwargs4"),
    pytest.param(dict(learning_rate=float("inf")), id="kwargs5"),
])
def test_sgd_config_validation(kwargs):
    with pytest.raises(ValueError):
        nn.SgdConfig(**kwargs)


def test_gradient_check_api():
    rng = np.random.default_rng(0)
    store = nn.ParamStore()
    store.register("w", rng.standard_normal((3, 4)))
    store.register("b", rng.standard_normal(3))
    x = rng.standard_normal((4, 1))

    def loss_fn(t):
        product = tape.reshape(tape.matmul(t["w"], x), (3,))
        return tape.sum(tape.exp(tape.mul(tape.add(product, t["b"]), 0.1)))

    report = nn.gradient_check(store, loss_fn, samples_per_tensor=12,
                               rng=np.random.default_rng(1))
    assert report.max_relative_error < 1e-6
    assert set(report.per_parameter) == {"w", "b"}
    assert report.worst_parameter in ("w", "b")


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    tensors = {
        "matrix": rng.standard_normal((4, 7)),
        "vector": rng.standard_normal(9),
        "scalar": np.array(np.pi),
        "with spaces / unicode γ": rng.standard_normal((2, 2, 2)),
    }
    path = tmp_path / "params.pcn"
    nn.save_checkpoint(tensors, path)
    loaded = nn.load_checkpoint(path)
    assert list(loaded) == list(tensors)
    for name, tensor in tensors.items():
        assert loaded[name].shape == np.asarray(tensor).shape
        assert loaded[name].tobytes() == np.asarray(tensor, np.float64).tobytes()
    # byte-identical on re-save
    nn.save_checkpoint(loaded, tmp_path / "again.pcn")
    assert (tmp_path / "params.pcn").read_bytes() == (tmp_path / "again.pcn").read_bytes()


# Any float64 bit pattern (NaN payloads, signed zeros, subnormals, infinities),
# drawn as raw 64-bit words.
float64_bits = hnp.arrays(np.uint64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                      max_side=4)).map(
    lambda words: words.view(np.float64))


@settings(deadline=None, max_examples=150)
@given(tensors=st.dictionaries(st.text(max_size=12), float64_bits, max_size=5))
def test_checkpoint_roundtrip_bit_exact_property(tensors):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "params.pcn"
        nn.save_checkpoint(tensors, path)
        loaded = nn.load_checkpoint(path)
    assert list(loaded) == list(tensors)
    for name, tensor in tensors.items():
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == tensor.shape
        assert loaded[name].tobytes() == tensor.tobytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.pcn"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(nn.CheckpointError, match="magic"):
        nn.load_checkpoint(path)


def test_checkpoint_truncation_reports_byte_counts(tmp_path):
    path = tmp_path / "params.pcn"
    nn.save_checkpoint({"w": np.ones((2, 2))}, path)
    data = path.read_bytes()
    cut = tmp_path / "cut.pcn"
    cut.write_bytes(data[:-9])
    with pytest.raises(nn.CheckpointError, match=r"expected \d+ bytes, file has \d+"):
        nn.load_checkpoint(cut)


def test_checkpoint_dims_whose_product_overflows_int64_report_truncation(tmp_path):
    # 4 dims of 2**32 - 1 multiply past 2**63; the payload holds 2 floats
    path = tmp_path / "huge.pcn"
    path.write_bytes(nn.CHECKPOINT_MAGIC + struct.pack("<I", 1) + b"w"
                     + struct.pack("<5I", 4, *[2**32 - 1] * 4) + b"\x00" * 16)
    with pytest.raises(nn.CheckpointError) as err:
        nn.load_checkpoint(path)
    assert str(err.value).startswith(
        f"{path}: truncated checkpoint while reading payload of 'w': expected ")


def test_checkpoint_name_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "params.pcn"
    nn.save_checkpoint({"ab": np.ones(2)}, path)
    data = bytearray(path.read_bytes())
    data[8] = 0xFF  # first byte of the name, after the magic and its length
    path.write_bytes(bytes(data))
    with pytest.raises(nn.CheckpointError) as err:
        nn.load_checkpoint(path)
    message = str(err.value)
    assert message.startswith(f"{path}: tensor name at byte 8 is not valid UTF-8")
    assert "\n" not in message


def test_checkpoint_repeated_name_names_the_file(tmp_path):
    path = tmp_path / "params.pcn"
    nn.save_checkpoint({"w": np.ones(2), "b": np.zeros(1)}, path)
    data = path.read_bytes()
    nn.save_checkpoint({"w": np.full(3, 2.0)}, tmp_path / "again.pcn")
    path.write_bytes(data + (tmp_path / "again.pcn").read_bytes()[4:])
    with pytest.raises(nn.CheckpointError) as err:
        nn.load_checkpoint(path)
    assert str(err.value) == f"{path}: tensor 'w' appears more than once"


def test_param_store_register_and_leaves():
    store = nn.ParamStore()
    arr = store.register("w", [[1.0, 2.0]])
    assert "w" in store.names()
    with pytest.raises(ValueError, match="already registered"):
        store.register("w", [0.0])
    leaves = store.leaves()
    assert leaves["w"].value is arr  # leaves wrap the live array
    out = tape.sum(tape.mul(leaves["w"], 3.0))
    ad.backward(out)
    store.accumulate(leaves)
    # a first step at lr 1 (zero velocity) subtracts the accumulated gradient
    # and the decay term
    nn.sgd_step(store, nn.SgdConfig(learning_rate=1.0))
    np.testing.assert_allclose(arr, [[1.0 - 3.0 - 1.0 * nn.WEIGHT_DECAY,
                                      2.0 - 3.0 - 2.0 * nn.WEIGHT_DECAY]])
