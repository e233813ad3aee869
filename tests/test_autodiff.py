"""Engine-level gradient checks: every generic op of the test-local
reference tape (``tape.py``) is compared against central finite differences
on smooth compositions, with relu probed away from its kink; and the
library's tape itself (``Node`` and ``backward``)."""

import numpy as np
import pytest

import tape
from protofuse import autodiff as ad


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at x, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[j] += h
        xm.flat[j] -= h
        g.flat[j] = (f(xp) - f(xm)) / (2 * h)
    return g


def check_op(build, x0, rtol=1e-6):
    """build(node_or_array) -> scalar; compare the traced gradient with FD."""
    node = ad.Node(np.asarray(x0, np.float64))
    out = build(node)
    ad.backward(out)
    numeric = fd_grad(lambda x: float(tape.value_of(build(x))), x0)
    np.testing.assert_allclose(node.grad, numeric, rtol=rtol, atol=1e-8)


RNG = np.random.default_rng(1234)


def test_add_mul_broadcast():
    a = RNG.standard_normal((4, 3))
    b = RNG.standard_normal(3)
    check_op(lambda x: tape.sum(tape.mul(tape.add(x, b), 2.5)), a)
    check_op(lambda x: tape.sum(tape.add(a, tape.mul(x, a[0]))), b)


def test_sub_div_broadcast():
    a = RNG.standard_normal((3, 4)) + 5.0
    col = RNG.standard_normal((3, 1)) + 4.0
    check_op(lambda x: tape.sum(tape.div(tape.sub(x, 1.5), col)), a)
    check_op(lambda x: tape.sum(tape.div(a, tape.add(x, 6.0))), col)


def test_matmul_all_arrangements():
    m = RNG.standard_normal((3, 4))
    w = RNG.standard_normal((4, 2))
    check_op(lambda x: tape.sum(tape.matmul(x, w)), m)          # 2d @ 2d
    check_op(lambda x: tape.sum(tape.matmul(m, x)), w)
    v = RNG.standard_normal(4)
    for a, b, ranks in ((m, v, "2-d @ 1-d"), (v, w, "1-d @ 2-d"), (v, v, "1-d @ 1-d")):
        with pytest.raises(ValueError, match=f"^matmul multiplies two matrices, got {ranks}$"):
            tape.matmul(ad.Node(a), b)


def test_matmul_and_transpose_act_on_stacks_of_matrices():
    stack = RNG.standard_normal((2, 3, 4))
    w = RNG.standard_normal((4, 2))
    other = RNG.standard_normal((2, 4, 5))
    probe = RNG.standard_normal((2, 3, 2))
    probe_t = RNG.standard_normal((2, 4, 3))
    check_op(lambda x: tape.sum(tape.mul(tape.matmul(x, w), probe)), stack)   # broadcast w
    check_op(lambda x: tape.sum(tape.mul(tape.matmul(stack, x), probe)), w)   # grad summed over stack
    check_op(lambda x: tape.sum(tape.matmul(x, other)), stack)
    check_op(lambda x: tape.sum(tape.matmul(stack, x)), other)
    check_op(lambda x: tape.sum(tape.mul(tape.transpose(x), probe_t)), stack)
    for b in range(2):  # each product is the one numpy computes for the pair alone
        assert (tape.matmul(stack, other)[b] == stack[b] @ other[b]).all()
    assert (tape.transpose(stack) == np.swapaxes(stack, 1, 2)).all()
    with pytest.raises(ValueError, match="mismatch"):
        tape.matmul(stack, np.ones((2, 3, 5)))
    with pytest.raises(ValueError, match="^transpose expects a matrix or a stack of them, "
                                         "got 1-d$"):
        tape.transpose(ad.Node(np.ones(3)))


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        tape.matmul(np.ones((2, 3)), np.ones((4, 2)))


def test_transpose_reshape():
    m = RNG.standard_normal((2, 5))
    check_op(lambda x: tape.sum(tape.mul(tape.transpose(x), tape.transpose(x))), m)
    check_op(lambda x: tape.sum(tape.mul(tape.reshape(x, (5, 2)), 3.0)), m)


def test_exp_log_sqrt():
    v = RNG.standard_normal(6) * 0.5 + 2.0
    check_op(lambda x: tape.sum(tape.exp(x)), v)
    check_op(lambda x: tape.sum(tape.log(x)), v)
    check_op(lambda x: tape.sum(tape.sqrt(x)), v)


def test_relu_off_kink():
    # relu as maximum(0, x), the form the reference networks use: a unit at
    # or below zero is dead and passes exactly zero gradient
    v = np.array([-2.0, -0.5, 0.7, 3.0])
    check_op(lambda x: tape.sum(tape.mul(tape.maximum(0.0, x), v)), v)
    node = ad.Node(np.array([-2.0, 0.0, 0.7, 3.0]))
    out = tape.sum(tape.maximum(0.0, node))
    ad.backward(out)
    np.testing.assert_array_equal(node.grad, [0.0, 0.0, 1.0, 1.0])


def test_maximum_floor():
    v = np.array([0.5, 2.0, 3.0, 0.2])
    check_op(lambda x: tape.sum(tape.maximum(x, 1.0)), v)
    node = ad.Node(v)
    out = tape.sum(tape.maximum(node, 1.0))
    ad.backward(out)
    np.testing.assert_array_equal(node.grad, [0.0, 1.0, 1.0, 0.0])


def test_sum_mean_axes():
    m = RNG.standard_normal((3, 4))
    check_op(lambda x: tape.sum(tape.mul(tape.sum(x, axis=0), np.arange(4.0))), m)
    check_op(lambda x: tape.sum(tape.mul(tape.sum(x, axis=1), np.arange(3.0))), m)
    check_op(lambda x: tape.mean(tape.mul(x, x)), m)
    assert tape.mean(m) == pytest.approx(np.mean(m))


def test_softmax_rows_matches_direct_formula():
    z = RNG.standard_normal((5, 4)) * 3
    p = tape.softmax_rows(z)
    direct = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(p, direct, rtol=1e-12)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)


def test_softmax_logsumexp_gradients():
    z0 = RNG.standard_normal((3, 4))
    check_op(lambda x: tape.sum(tape.mul(tape.softmax_rows(x), np.arange(12.0).reshape(3, 4))), z0)
    check_op(lambda x: tape.sum(tape.logsumexp_rows(x)), z0)


def test_softmax_no_overflow_on_large_logits():
    z = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    p = tape.softmax_rows(z)
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p[0], [1.0, 0.0], atol=1e-12)


def test_gradient_accumulates_across_reuse():
    v = np.array([1.5, -0.5])
    node = ad.Node(v)
    out = tape.add(tape.sum(tape.mul(node, node)), tape.sum(node))  # x^2 + x -> 2x + 1
    ad.backward(out)
    np.testing.assert_allclose(node.grad, 2 * v + 1)


def test_backward_seeds_the_root_with_ones():
    node = ad.Node(np.ones(3))
    out = tape.mul(node, 2.0)
    ad.backward(out)
    np.testing.assert_array_equal(out.grad, np.ones(3))
    np.testing.assert_array_equal(node.grad, np.full(3, 2.0))


def test_node_defines_no_arithmetic_operators():
    node = ad.Node(np.ones(2))
    for combine in (lambda: node + 1.0, lambda: 2.0 * node, lambda: np.ones(2) + node,
                    lambda: np.ones((2, 2)) @ node, lambda: -node):
        with pytest.raises(TypeError):
            combine()


def test_plain_arrays_stay_plain():
    a = np.ones((2, 2))
    assert not ad.is_node(tape.maximum(a, 0.0))
    assert not ad.is_node(tape.matmul(a, a))
    assert not ad.is_node(tape.softmax_rows(a))
