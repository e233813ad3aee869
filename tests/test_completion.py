"""Completion network: feature draws, the completion node against scalar and
traced references (values and gradients), task sampling, training, and
checkpoints."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape
from protofuse import autodiff as ad
from protofuse import completion as cp
from protofuse import datagen, nn
from protofuse import knowledge as kn


def small_params(d=4, s=3, seed=0, **kwargs):
    return cp.CompletionNetParams.initialize(d, s, seed=seed, encoder_dim=6,
                                             aggregator_hidden=5, decoder_hidden=7, **kwargs)


def small_knowledge(association, num_base, s=3, seed=0):
    association = np.asarray(association)
    rng = np.random.default_rng(seed)
    return kn.PrimitiveKnowledge(
        association=association,
        class_semantics=rng.standard_normal((association.shape[0], s)),
        attribute_semantics=rng.standard_normal((association.shape[1], s)),
        base_class_ids=tuple(range(num_base)),
    )


def constant_stats(values, std=None):
    values = np.asarray(values, dtype=np.float64)
    std = np.zeros_like(values) if std is None else np.asarray(std, dtype=np.float64)
    return kn.AttributeStats(values, std)


# --- attribute feature sampling ---------------------------------------------

def test_sample_train_mode_zero_std_is_mean():
    stats = constant_stats([[4.0, 5.0]])
    out = cp.draw_attribute_features(stats, small_knowledge([[1]], num_base=1), [0],
                                     np.random.default_rng(0))
    np.testing.assert_array_equal(out, [[4.0, 5.0]])


def test_sample_train_mode_moments():
    mu, sigma = np.array([[2.0, -1.0]]), np.array([[0.5, 2.0]])
    stats = constant_stats(mu, sigma)
    know = small_knowledge([[1]], num_base=1)
    draws = cp.draw_attribute_features(stats, know, np.zeros(10_000, dtype=int),
                                       np.random.default_rng(123))
    se_mean = sigma[0] / np.sqrt(10_000)
    assert (np.abs(draws.mean(axis=0) - mu[0]) < 3 * se_mean).all()
    se_std = sigma[0] / np.sqrt(2 * 10_000)
    assert (np.abs(draws.std(axis=0) - sigma[0]) < 3 * se_std).all()


def test_sample_train_mode_block_equals_per_attribute_draws():
    stats = constant_stats(np.random.default_rng(1).standard_normal((4, 3)),
                           np.abs(np.random.default_rng(2).standard_normal((4, 3))))
    know = small_knowledge([[1, 0, 1, 1], [0, 0, 0, 0], [0, 1, 0, 0]], num_base=3)
    block = cp.draw_attribute_features(stats, know, [0, 1, 2], np.random.default_rng(5))
    rng = np.random.default_rng(5)
    assert block.shape == (4, 3)
    for row, a in zip(block, (0, 2, 3, 1)):
        np.testing.assert_array_equal(row, stats.mean[a] + stats.std[a] * rng.standard_normal(3))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=6), st.integers(0, 2**32 - 1))
def test_one_roster_draw_equals_concatenated_class_draws(roster, seed):
    stats = constant_stats(np.random.default_rng(1).standard_normal((5, 3)),
                           np.abs(np.random.default_rng(2).standard_normal((5, 3))))
    know = small_knowledge([[1, 0, 1, 1, 0], [0, 0, 0, 0, 0], [0, 1, 0, 0, 1],
                            [1, 1, 1, 1, 1]], num_base=4)
    block = cp.draw_attribute_features(stats, know, roster, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    expected = np.vstack([np.zeros((0, 3))]
                         + [cp.draw_attribute_features(stats, know, [c], rng) for c in roster])
    assert block.shape == expected.shape and block.tobytes() == expected.tobytes()


def test_sample_unknown_attribute():
    know = small_knowledge([[1, 0, 0, 1]], num_base=1)
    with pytest.raises(ValueError, match="stats cover 1 attributes, the knowledge has 4"):
        cp.draw_attribute_features(constant_stats([[0.0]]), know, [0],
                                   np.random.default_rng(0))
    with pytest.raises(ValueError, match="unknown class id 1"):
        cp.draw_attribute_features(constant_stats(np.zeros((4, 1))), know, [0, 1],
                                   np.random.default_rng(0))


# --- traced reference ------------------------------------------------------
#
# The completion network as a composition of generic autodiff operations:
# every pair's (prototype, class semantic, attribute semantic) row through one
# dense aggregator layer, and a constant 0/1 matrix summing each row's
# score-weighted latents. Its gradients come from the generic operations of
# the reference tape (``tape.py``), independently of the node's hand-written
# backward pass.

def reference_dense(x, weight, bias, relu):
    out = tape.add(tape.matmul(x, tape.transpose(weight)), bias)
    return tape.maximum(0.0, out) if relu else out


def reference_scores(t, know, class_ids, prototypes, attrs):
    """Raw attention scalar of each pair (row p: class ``class_ids[p]`` with
    incomplete prototype ``prototypes[p]``, attribute ``attrs[p]``), (pairs, 1)."""
    inputs = np.concatenate([prototypes, know.class_semantics[class_ids],
                             know.attribute_semantics[attrs]], axis=1)
    hidden = reference_dense(inputs, t["aggregator.hidden.weight"],
                             t["aggregator.hidden.bias"], True)
    return reference_dense(hidden, t["aggregator.output.weight"],
                           t["aggregator.output.bias"], False)


def reference_complete(t, know, class_ids, incomplete, features):
    x, ids = np.asarray(incomplete, dtype=np.float64), np.asarray(class_ids)
    rows, attrs = np.nonzero(know.association[ids])
    encode = lambda v: reference_dense(v, t["encoder.weight"], t["encoder.bias"], True)
    combined = encode(x)
    if rows.size:
        latents = encode(features)
        scores = reference_scores(t, know, ids[rows], x[rows], attrs)
        select = np.zeros((ids.size, rows.size))
        select[rows, np.arange(rows.size)] = 1.0
        combined = tape.add(tape.matmul(select, tape.mul(latents, scores)), combined)
    hidden = reference_dense(combined, t["decoder.hidden.weight"], t["decoder.hidden.bias"],
                             True)
    return reference_dense(hidden, t["decoder.output.weight"], t["decoder.output.bias"], False)


# --- completion ------------------------------------------------------------

def small_world():
    know = small_knowledge([[1, 1, 0], [0, 1, 1], [1, 0, 1]], num_base=3, seed=6)
    stats = constant_stats(np.random.default_rng(7).standard_normal((3, 4)),
                           np.abs(np.random.default_rng(8).standard_normal((3, 4))))
    return know, stats


def test_complete_zero_decoder_outputs_zero():
    know, stats = small_world()
    params = small_params(seed=1)
    params.store.value("decoder.output.weight")[...] = 0.0
    params.store.value("decoder.output.bias")[...] = 0.0
    out = cp.complete_prototype(cp.CompletionPlan.build(params, know, stats), [0],
                                np.ones((1, 4)))
    np.testing.assert_array_equal(out, np.zeros((1, 4)))


def test_complete_test_mode_deterministic():
    know, stats = small_world()
    params = small_params(seed=2)
    p = np.random.default_rng(1).standard_normal((1, 4))
    a = cp.complete_prototype(cp.CompletionPlan.build(params, know, stats), [1], p)
    b = cp.complete_prototype(cp.CompletionPlan.build(params, know, stats), [1], p)
    np.testing.assert_array_equal(a, b)


def test_complete_traced_equals_plain_given_same_draws():
    # the node's value against the reference composition run on plain arrays
    know, stats = small_world()
    params = small_params(seed=4)
    p = np.random.default_rng(2).standard_normal((1, 4))
    features = cp.draw_attribute_features(stats, know, [2], np.random.default_rng(3))
    plain = reference_complete(params.tensors(), know, [2], p, features)
    traced = cp.complete(params.store.leaves(), know, [2], p, features)
    assert type(plain) is np.ndarray and plain.shape == (1, 4)
    assert ad.is_node(traced) and traced.shape == (1, 4)
    np.testing.assert_allclose(traced.value, plain, rtol=1e-12, atol=1e-12)


def test_complete_validates_inputs():
    know, stats = small_world()
    params = small_params()
    plan = cp.CompletionPlan.build(params, know, stats)
    with pytest.raises(ValueError, match="4-vector"):
        cp.complete_prototype(plan, [0], np.ones((1, 3)))
    with pytest.raises(ValueError, match="unknown class"):
        cp.complete_prototype(plan, [9], np.ones((1, 4)))
    with pytest.raises(ValueError, match="4-vector"):
        cp.complete_prototype(plan, [0, 1], np.ones((2, 5)))
    with pytest.raises(ValueError, match="3 class ids for 2 prototypes"):
        cp.complete_prototype(plan, [0, 1, 2], np.ones((2, 4)))
    with pytest.raises(ValueError, match="unknown class id -1"):
        cp.complete_prototype(plan, [0, -1], np.ones((2, 4)))
    with pytest.raises(ValueError, match="1 class ids for 3 prototypes"):
        cp.complete(params.store.leaves(), know, [0], np.ones((3, 4)), np.ones((2, 4)))
    with pytest.raises(ValueError, match="aggregator takes 8 inputs"):
        cp.complete(small_params(s=2).store.leaves(), know, [0], np.ones((1, 4)),
                    np.ones((2, 4)))


def test_complete_rejects_a_feature_block_of_the_wrong_shape():
    know, stats = small_world()
    params = small_params()
    features = cp.draw_attribute_features(stats, know, [1, 0], np.random.default_rng(0))
    leaves = params.store.leaves()
    cp.complete(leaves, know, [1, 0], np.ones((2, 4)), features)
    for bad in (features[:3], features[:, :3], features[None]):
        with pytest.raises(ValueError) as err:
            cp.complete(leaves, know, [1, 0], np.ones((2, 4)), bad)
        assert "need a (4, 4) feature block" in str(err.value)
        assert "\n" not in str(err.value)


@pytest.mark.parametrize("bad_id", [-1, 3, 7])
def test_complete_rejects_unknown_class_ids(bad_id):
    know, stats = small_world()
    params = small_params()
    with pytest.raises(ValueError, match=f"unknown class id {bad_id}"):
        cp.complete(params.store.leaves(), know, [0, bad_id], np.ones((2, 4)), np.ones((4, 4)))


def test_plan_rejects_knowledge_of_another_semantic_dim():
    know, stats = small_world()
    params = small_params(s=2)
    with pytest.raises(ValueError, match="aggregator takes 8 inputs"):
        cp.CompletionPlan.build(params, know, stats)
    with pytest.raises(ValueError, match="attribute stats"):
        cp.CompletionPlan.build(small_params(), know, constant_stats(np.ones((3, 5))))


# --- batched completion ------------------------------------------------------

def dense(weight, bias, vector, relu):
    """Scalar-loop dense layer."""
    out = []
    for i in range(len(bias)):
        z = bias[i] + sum(weight[i][j] * vector[j] for j in range(len(vector)))
        out.append(max(z, 0.0) if relu else z)
    return out


def naive_completion(params, know, stats, class_id, incomplete, features=None):
    """Scalar-loop completion, one attribute at a time, from ``features``
    (attribute id -> feature); the attribute means when None."""
    t = params.tensors()
    encode = lambda v: dense(t["encoder.weight"], t["encoder.bias"], v, True)
    combined = encode(incomplete)
    for a in range(know.num_attributes):
        if not know.association[class_id, a]:
            continue
        u = list(incomplete) + list(know.class_semantics[class_id]) \
            + list(know.attribute_semantics[a])
        hidden = dense(t["aggregator.hidden.weight"], t["aggregator.hidden.bias"], u, True)
        (alpha,) = dense(t["aggregator.output.weight"], t["aggregator.output.bias"],
                         hidden, False)
        latent = encode(stats.mean[a] if features is None else features[a])
        combined = [c + alpha * z for c, z in zip(combined, latent)]
    hidden = dense(t["decoder.hidden.weight"], t["decoder.hidden.bias"], combined, True)
    return dense(t["decoder.output.weight"], t["decoder.output.bias"], hidden, False)


def test_plan_matches_scalar_reference():
    know = small_knowledge([[1, 1, 0, 1], [0, 0, 0, 0], [1, 0, 1, 0]], num_base=3, seed=4)
    stats = constant_stats(np.random.default_rng(1).standard_normal((4, 4)))
    params = small_params(seed=9)
    x = np.random.default_rng(11).standard_normal((5, 4))
    ids = [0, 1, 2, 0, 2]
    out = cp.complete_prototype(cp.CompletionPlan.build(params, know, stats), ids, x)
    for row, cid in enumerate(ids):
        expected = naive_completion(params, know, stats, cid, x[row])
        np.testing.assert_allclose(out[row], expected, rtol=1e-12, atol=1e-12)


def test_batched_complete_matches_scalar_loop_on_train_draws():
    # class 1 has no associated attributes; class 0 appears twice in the block
    know = small_knowledge([[1, 1, 0, 1], [0, 0, 0, 0], [1, 0, 1, 0]], num_base=3, seed=4)
    stats = constant_stats(np.random.default_rng(1).standard_normal((4, 4)),
                           np.abs(np.random.default_rng(2).standard_normal((4, 4))))
    params = small_params(seed=9)
    x = np.random.default_rng(11).standard_normal((4, 4))
    ids = [2, 1, 0, 0]
    features = cp.draw_attribute_features(stats, know, ids, np.random.default_rng(12))
    assert features.shape == (2 + 0 + 3 + 3, 4)
    completed = cp.complete(params.store.leaves(), know, ids, x, features).value
    rows, attrs = np.nonzero(know.association[ids])
    for row, cid in enumerate(ids):
        by_attribute = dict(zip(attrs[rows == row].tolist(), features[rows == row]))
        expected = naive_completion(params, know, stats, cid, x[row], by_attribute)
        np.testing.assert_allclose(completed[row], expected, rtol=1e-12, atol=1e-12)


def test_encode_matches_scalar_reference():
    know = small_knowledge([[1, 1, 0, 1]], num_base=1, seed=4)
    stats = constant_stats(np.random.default_rng(5).standard_normal((4, 4)))
    params = small_params(seed=3)
    t = params.tensors()
    plan = cp.CompletionPlan.build(params, know, stats)
    for a in range(4):
        expected = dense(t["encoder.weight"], t["encoder.bias"], stats.mean[a], True)
        np.testing.assert_allclose(plan.attribute_latents[a], expected, rtol=1e-12)


@pytest.mark.parametrize("shape", [(7,), (3, 7), (2, 3, 7)])
def test_relu_equals_the_scalar_form_bitwise(shape):
    # the zeros are a row of constants, in place; np.maximum against the
    # scalar 0.0 gives the same bits, signed zeros and NaN signs included
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, -1.5, 2.5]
    a = np.random.default_rng(6).permutation(np.resize(special, shape).ravel()).reshape(shape)
    expected = np.maximum(a, 0.0)
    out = cp._relu(a)
    assert out is a and out.tobytes() == expected.tobytes()


def test_aggregate_matches_scalar_reference():
    know = small_knowledge([[1, 1, 1], [1, 0, 1]], num_base=2, seed=4)
    stats = constant_stats(np.zeros((3, 4)))
    params = small_params(seed=9)
    t = params.tensors()
    plan = cp.CompletionPlan.build(params, know, stats)
    x = np.random.default_rng(11).standard_normal(4)
    for cid in range(2):
        attrs = np.flatnonzero(know.association[cid])
        traced = reference_scores(t, know, np.full(len(attrs), cid),
                                  np.tile(x, (len(attrs), 1)), attrs)
        for k, a in enumerate(attrs):
            u = list(x) + list(know.class_semantics[cid]) + list(know.attribute_semantics[a])
            hidden = dense(t["aggregator.hidden.weight"], t["aggregator.hidden.bias"], u, True)
            (alpha,) = dense(t["aggregator.output.weight"], t["aggregator.output.bias"],
                             hidden, False)
            assert traced[k, 0] == pytest.approx(alpha, rel=1e-12)
            # the plan's per-block split of the first layer gives the same score
            pre = (t["aggregator.hidden.weight"][:, :4] @ x + plan.class_terms[cid]
                   + plan.attribute_terms[a])
            split = np.maximum(pre, 0.0) @ t["aggregator.output.weight"][0] \
                + t["aggregator.output.bias"][0]
            assert split == pytest.approx(alpha, rel=1e-12)


def test_plan_unassociated_attributes_contribute_exactly_zero():
    know = small_knowledge([[1, 1, 0, 0], [0, 0, 0, 0]], num_base=2, seed=2)
    stats = constant_stats(np.random.default_rng(3).standard_normal((4, 4)))
    params = small_params(seed=5)
    x = np.random.default_rng(4).standard_normal((2, 4))
    out = cp.complete_prototype(cp.CompletionPlan.build(params, know, stats), [0, 1], x)

    # attributes 2 and 3 belong to neither class: changing them changes nothing
    know.attribute_semantics[2:] = 1e3
    stats.mean[2:] = -1e3
    again = cp.complete_prototype(cp.CompletionPlan.build(params, know, stats), [0, 1], x)
    np.testing.assert_array_equal(again, out)

    # a class with no attributes decodes its own encoded prototype
    t = params.tensors()
    z = np.maximum(t["encoder.weight"] @ x[1] + t["encoder.bias"], 0.0)
    hidden = np.maximum(t["decoder.hidden.weight"] @ z + t["decoder.hidden.bias"], 0.0)
    np.testing.assert_allclose(out[1], t["decoder.output.weight"] @ hidden
                               + t["decoder.output.bias"], rtol=1e-12)


def test_plan_attribute_order_invariant_and_cut_association_matters():
    association = np.array([[1, 1, 1, 0], [0, 1, 1, 1]])
    know = small_knowledge(association, num_base=2, seed=2)
    stats = constant_stats(np.random.default_rng(3).standard_normal((4, 4)))
    params = small_params(seed=5)
    x = np.random.default_rng(6).standard_normal((2, 4))
    out = cp.complete_prototype(cp.CompletionPlan.build(params, know, stats), [0, 1], x)

    order = [2, 0, 3, 1]
    shuffled = kn.PrimitiveKnowledge(association[:, order], know.class_semantics,
                                     know.attribute_semantics[order], (0, 1))
    stats_shuffled = constant_stats(stats.mean[order])
    again = cp.complete_prototype(cp.CompletionPlan.build(params, shuffled, stats_shuffled),
                                  [0, 1], x)
    np.testing.assert_allclose(again, out, rtol=1e-12, atol=1e-12)

    cut = association.copy()
    cut[0, 1] = 0
    know_cut = kn.PrimitiveKnowledge(cut, know.class_semantics, know.attribute_semantics,
                                     (0, 1))
    out_cut = cp.complete_prototype(cp.CompletionPlan.build(params, know_cut, stats), [0, 1], x)
    assert np.abs(out_cut[0] - out[0]).max() > 1e-6
    np.testing.assert_array_equal(out_cut[1], out[1])


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_plan_matches_traced_completion_on_acceptance_world(noise):
    world = datagen.generate_world(datagen.WorldSpec(seed=0))
    stats = kn.compute_attribute_stats(world.base.embeddings, world.base.labels,
                                       world.knowledge)
    know = world.knowledge
    if noise:
        know = kn.inject_knowledge_noise(know, noise, seed=(0, 5))
        assert (know.association != world.knowledge.association).any()
    params = cp.CompletionNetParams.initialize(world.base.dim, know.semantic_dim, seed=100)
    ids = np.arange(know.num_classes)
    x = np.random.default_rng(1).standard_normal((ids.size, world.base.dim))
    out = cp.complete_prototype(cp.CompletionPlan.build(params, know, stats), ids, x)
    means = stats.mean[np.nonzero(know.association[ids])[1]]
    expected = reference_complete(params.tensors(), know, ids, x, means)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_completion_gradient_check_full_pipeline():
    know, stats = small_world()
    params = small_params(seed=11)
    task = cp.CompletionTask(class_id=0, incomplete=np.full(4, 0.7),
                             target=np.random.default_rng(5).standard_normal(4))
    features = cp.draw_attribute_features(stats, know, [0], np.random.default_rng(6))
    report = nn.gradient_check(params.store,
                               lambda t: cp.completion_loss(t, know, task, features),
                               samples_per_tensor=10, rng=np.random.default_rng(7))
    assert report.max_relative_error < 1e-4


# --- the completion node against the traced reference ----------------------

def node_and_reference_gradients(params, know, ids, x, features, loss):
    """Loss and leaf gradients of ``loss(completed)`` through the node and
    through the traced reference, each from fresh leaves."""
    out = []
    for completion in (cp.complete, reference_complete):
        leaves = params.store.leaves()
        value = loss(completion(leaves, know, ids, x, features))
        ad.backward(value)
        out.append((float(value.value), {name: leaves[name].grad for name in leaves}))
    return out


def assert_node_matches_reference(params, know, ids, x, features, loss):
    (node_loss, node_grads), (ref_loss, ref_grads) = node_and_reference_gradients(
        params, know, ids, x, features, loss)
    assert abs(node_loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
    assert [n for n in node_grads if node_grads[n] is not None] == list(cp.NETWORK_TENSORS)
    assert node_grads["log_scale"] is None and ref_grads["log_scale"] is None
    for name in cp.NETWORK_TENSORS:
        assert node_grads[name].shape == params.store.value(name).shape, name
        np.testing.assert_allclose(node_grads[name], ref_grads[name], rtol=1e-12, atol=1e-12,
                                   err_msg=name)


def acceptance_setup(seed):
    world = datagen.generate_world(datagen.WorldSpec(seed=0))
    stats = kn.compute_attribute_stats(world.base.embeddings, world.base.labels,
                                       world.knowledge)
    params = cp.CompletionNetParams.initialize(world.base.dim, world.knowledge.semantic_dim,
                                               seed=seed)
    return world, stats, params


def test_node_matches_reference_on_one_train_step():
    world, stats, params = acceptance_setup(100)
    table = kn.compute_base_prototypes(world.base.embeddings, world.base.labels)
    (task,) = cp.sample_completion_tasks(world.base.embeddings, world.base.labels, table,
                                         k_shot=1, count=1, rng=np.random.default_rng(1))
    features = cp.draw_attribute_features(stats, world.knowledge, [task.class_id],
                                          np.random.default_rng(2))

    def loss(completed):
        diff = tape.sub(completed, task.target)
        return tape.mean(tape.mul(diff, diff))

    assert_node_matches_reference(params, world.knowledge, [task.class_id],
                                  task.incomplete[None], features, loss)
    # completion_loss is that loss on the node, bit for bit in value and gradients
    composed = []
    for loss_fn in (lambda t: loss(cp.complete(t, world.knowledge, [task.class_id],
                                               task.incomplete[None], features)),
                    lambda t: cp.completion_loss(t, world.knowledge, task, features)):
        leaves = params.store.leaves()
        value = loss_fn(leaves)
        ad.backward(value)
        composed.append((float(value.value), {name: leaves[name].grad
                                              for name in cp.NETWORK_TENSORS}))
    (tape_loss, tape_grads), (node_loss, node_grads) = composed
    assert node_loss == tape_loss
    for name in cp.NETWORK_TENSORS:
        assert node_grads[name].tobytes() == tape_grads[name].tobytes(), name


def test_completion_loss_is_two_nodes_over_the_network_leaves():
    # the complete node and the squared error; the classifier scale's leaf is
    # handed out but not read, as a meta episode's three nodes read all 11
    know, stats = small_world()
    params = small_params(seed=11)
    task = cp.CompletionTask(class_id=0, incomplete=np.full(4, 0.7), target=np.zeros(4))
    features = cp.draw_attribute_features(stats, know, [0], np.random.default_rng(6))
    leaves = params.store.leaves()
    loss = cp.completion_loss(leaves, know, task, features)
    assert len(leaves) == 11
    assert len(ad._topological_order(loss)) == len(cp.NETWORK_TENSORS) + 2


def test_node_matches_reference_on_a_roster_with_an_empty_and_a_repeated_class():
    # class 1 has no associated attributes; class 0 appears twice
    know = small_knowledge([[1, 1, 0, 1], [0, 0, 0, 0], [1, 0, 1, 0]], num_base=3, seed=4)
    stats = constant_stats(np.random.default_rng(1).standard_normal((4, 4)),
                           np.abs(np.random.default_rng(2).standard_normal((4, 4))))
    params = small_params(seed=9)
    ids = [0, 1, 2, 0, 2]
    x = np.random.default_rng(11).standard_normal((5, 4))
    features = cp.draw_attribute_features(stats, know, ids, np.random.default_rng(12))
    probe = np.random.default_rng(13).standard_normal((5, 4))
    assert_node_matches_reference(params, know, ids, x, features,
                                  lambda completed: tape.sum(tape.mul(completed, probe)))


def test_node_matches_reference_and_plan_on_an_evaluation_block():
    # E * n_way rows, episode-major, as evaluation hands a block to the plan:
    # classes repeat across episodes and the latents are the attribute means
    world, stats, params = acceptance_setup(101)
    rng = np.random.default_rng(3)
    ids = np.concatenate([np.sort(rng.choice(world.novel.class_ids(), 5, replace=False))
                          for _ in range(4)])
    x = rng.standard_normal((ids.size, world.base.dim))
    means = stats.mean[np.nonzero(world.knowledge.association[ids])[1]]
    probe = rng.standard_normal(x.shape)
    assert_node_matches_reference(params, world.knowledge, ids, x, means,
                                  lambda completed: tape.sum(tape.mul(completed, probe)))
    plan = cp.CompletionPlan.build(params, world.knowledge, stats)
    np.testing.assert_allclose(cp.complete(params.store.leaves(), world.knowledge, ids, x,
                                           means).value,
                               cp.complete_prototype(plan, ids, x), rtol=0, atol=1e-12)


def test_node_gradient_check_on_a_block():
    know, stats = small_world()
    params = small_params(seed=12)
    ids = [2, 0, 0, 1]
    x = np.random.default_rng(14).standard_normal((4, 4))
    features = cp.draw_attribute_features(stats, know, ids, np.random.default_rng(15))
    probe = np.random.default_rng(16).standard_normal((4, 4))
    report = nn.gradient_check(
        params.store, lambda t: tape.sum(tape.mul(cp.complete(t, know, ids, x, features), probe)),
        samples_per_tensor=10, rng=np.random.default_rng(17))
    assert report.max_relative_error < 1e-4
    assert set(report.per_parameter) == set(cp.TENSOR_NAMES)


def test_node_rejects_traced_prototypes_or_features():
    know, stats = small_world()
    params = small_params()
    features = cp.draw_attribute_features(stats, know, [0], np.random.default_rng(0))
    x = np.ones((1, 4))
    for args in ((ad.Node(x), features), (x, ad.Node(features))):
        with pytest.raises(TypeError, match="not Nodes"):
            cp.complete(params.store.leaves(), know, [0], *args)


# --- task sampling ----------------------------------------------------------

def labeled_toy(seed=0, per_class=6, classes=3, d=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((per_class * classes, d))
    y = np.repeat(np.arange(classes), per_class)
    return x, y


def test_tasks_full_class_support_equals_target():
    x, y = labeled_toy()
    table = kn.compute_base_prototypes(x, y)
    tasks = cp.sample_completion_tasks(x, y, table, k_shot=6, count=5,
                                       rng=np.random.default_rng(1))
    for task in tasks:
        np.testing.assert_allclose(task.incomplete, task.target, atol=1e-12)


def test_tasks_one_shot_is_single_embedding():
    x, y = labeled_toy()
    table = kn.compute_base_prototypes(x, y)
    tasks = cp.sample_completion_tasks(x, y, table, k_shot=1, count=3,
                                       rng=np.random.default_rng(2))
    for task in tasks:
        assert (x[y == task.class_id] == task.incomplete).all(axis=1).any()


def test_task_rejects_a_target_of_another_shape():
    with pytest.raises(ValueError, match="vectors of one dimension"):
        cp.CompletionTask(0, np.zeros(4), np.zeros(3))
    with pytest.raises(ValueError, match="vectors of one dimension"):
        cp.CompletionTask(0, np.zeros((1, 4)), np.zeros((1, 4)))


def test_tasks_class_frequencies_uniform():
    x, y = labeled_toy(classes=8, per_class=4)
    table = kn.compute_base_prototypes(x, y)
    tasks = cp.sample_completion_tasks(x, y, table, k_shot=1, count=10_000,
                                       rng=np.random.default_rng(3))
    counts = np.bincount([t.class_id for t in tasks], minlength=8)
    expected = 10_000 / 8
    bound = 3 * np.sqrt(10_000 * (1 / 8) * (7 / 8))
    assert (np.abs(counts - expected) < bound).all()


def test_tasks_reject_oversized_k():
    x, y = labeled_toy(per_class=4)
    table = kn.compute_base_prototypes(x, y)
    with pytest.raises(ValueError, match="fewer than k_shot"):
        cp.sample_completion_tasks(x, y, table, k_shot=5, count=1,
                                   rng=np.random.default_rng(0))



@pytest.mark.parametrize("k_shot", [0, -1])
def test_tasks_reject_k_below_one_before_drawing(k_shot):
    x, y = labeled_toy()
    table = kn.compute_base_prototypes(x, y)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^k_shot must be at least 1, got {k_shot}$"):
        cp.sample_completion_tasks(x, y, table, k_shot=k_shot, count=1, rng=rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

# --- training ---------------------------------------------------------------

def test_train_completion_rejects_empty_tasks():
    know, stats = small_world()
    params = small_params()
    with pytest.raises(ValueError, match="no completion tasks"):
        cp.train_completion(params, know, stats, [], nn.SgdConfig(1e-3), np.random.default_rng(0))


def test_train_completion_stops_on_a_non_finite_loss_before_any_update():
    # A finite output bias whose square overflows makes the first task's loss
    # infinite; the step must stop before backward and the update.
    know, stats = small_world()
    params = small_params()
    params.store.value("decoder.output.bias")[:] = 1e200
    before = {name: params.store.value(name).copy() for name in params.store.names()}
    point = np.ones(4)
    tasks = [cp.CompletionTask(2, point, point)] * 3
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match="^non-finite completion loss on class 2$"):
        cp.train_completion(params, know, stats, tasks, nn.SgdConfig(1e-3),
                            np.random.default_rng(0))
    for name, value in before.items():
        assert params.store.value(name).tobytes() == value.tobytes(), name


def test_train_completion_leaves_the_classifier_scale_alone():
    # The completion loss does not read log_scale, so it gets no gradient and
    # neither decay nor momentum moves it; every other tensor trains.
    know, stats = small_world()
    params = small_params(seed=2)
    before = {name: params.store.value(name).copy() for name in params.store.names()}
    rng = np.random.default_rng(0)
    tasks = [cp.CompletionTask(int(rng.integers(3)), rng.standard_normal(4),
                               rng.standard_normal(4)) for _ in range(20)]
    cp.train_completion(params, know, stats, tasks, nn.SgdConfig(learning_rate=1e-2, epochs=2),
                        np.random.default_rng(1))
    assert params.store.value("log_scale").tobytes() == np.log(cp.SCALE_INIT).tobytes()
    for name in cp.NETWORK_TENSORS:
        assert params.store.value(name).tobytes() != before[name].tobytes(), name


def test_train_completion_drives_identity_loss_down():
    # Targets equal the inputs on a 3-class toy world: the net only has to
    # learn a pass-through, so the loss must fall below 1e-3.
    rng = np.random.default_rng(0)
    know = small_knowledge([[1], [1], [1]], num_base=3, s=3, seed=1)
    stats = constant_stats(rng.standard_normal((1, 4)) * 0.1)
    params = cp.CompletionNetParams.initialize(4, 3, seed=2, encoder_dim=64,
                                               aggregator_hidden=8, decoder_hidden=64)
    anchors = rng.standard_normal((3, 4))
    tasks = []
    for _ in range(100 * 20):
        cid = int(rng.integers(3))
        point = anchors[cid] + 0.02 * rng.standard_normal(4)
        tasks.append(cp.CompletionTask(cid, point, point))
    losses = cp.train_completion(params, know, stats, tasks,
                                 nn.SgdConfig(learning_rate=3e-2, epochs=100),
                                 np.random.default_rng(3))
    assert losses[-1] < 1e-3


def test_train_completion_loss_ratio_on_synthetic_world():
    # High-energy targets, low noise: 100 epochs must cut the epoch-mean loss
    # by at least 10x.
    spec = datagen.WorldSpec(dim=16, semantic_dim=8, num_base_classes=8,
                             num_novel_classes=2, num_attributes=10,
                             attributes_per_class=(3, 5), samples_per_class=20,
                             noise_std=0.01, dropout_rate=0.3, offset_std=2.0, seed=4)
    world = datagen.generate_world(spec)
    table = kn.compute_base_prototypes(world.base.embeddings, world.base.labels)
    stats = kn.compute_attribute_stats(world.base.embeddings, world.base.labels,
                                       world.knowledge)
    params = cp.CompletionNetParams.initialize(16, 8, seed=5, encoder_dim=64,
                                               aggregator_hidden=32, decoder_hidden=64)
    tasks = cp.sample_completion_tasks(world.base.embeddings, world.base.labels, table,
                                       k_shot=1, count=100 * 32,
                                       rng=np.random.default_rng(6))
    losses = cp.train_completion(params, world.knowledge, stats, tasks,
                                 nn.SgdConfig(learning_rate=1e-2, epochs=100),
                                 np.random.default_rng(7))
    assert losses[-1] * 10 < losses[0]


def test_trained_completion_beats_incomplete_prototype():
    # After training, completed 1-shot prototypes of held-out tasks must sit
    # closer to the real prototypes than the raw supports do (margin from a
    # pilot run of this exact configuration).
    spec = datagen.WorldSpec(dim=16, semantic_dim=8, num_base_classes=8,
                             num_novel_classes=2, num_attributes=10,
                             attributes_per_class=(3, 5), samples_per_class=20,
                             noise_std=0.05, dropout_rate=0.5, offset_std=0.5, seed=9)
    world = datagen.generate_world(spec)
    table = kn.compute_base_prototypes(world.base.embeddings, world.base.labels)
    stats = kn.compute_attribute_stats(world.base.embeddings, world.base.labels,
                                       world.knowledge)
    params = cp.CompletionNetParams.initialize(16, 8, seed=10, encoder_dim=64,
                                               aggregator_hidden=32, decoder_hidden=64)
    tasks = cp.sample_completion_tasks(world.base.embeddings, world.base.labels, table,
                                       k_shot=1, count=60 * 32,
                                       rng=np.random.default_rng(11))
    cp.train_completion(params, world.knowledge, stats, tasks,
                        nn.SgdConfig(learning_rate=1e-2, epochs=60),
                        np.random.default_rng(12))
    held_out = cp.sample_completion_tasks(world.base.embeddings, world.base.labels, table,
                                          k_shot=1, count=200,
                                          rng=np.random.default_rng(999))
    plan = cp.CompletionPlan.build(params, world.knowledge, stats)
    raw_err, completed_err = 0.0, 0.0
    for task in held_out:
        predicted = cp.complete_prototype(plan, [task.class_id], task.incomplete[None])[0]
        raw_err += float(np.linalg.norm(task.incomplete - task.target))
        completed_err += float(np.linalg.norm(predicted - task.target))
    assert completed_err < raw_err


def test_load_model_rejects_any_tensor_off_the_sidecar_dims(tmp_path):
    # The dimensions come from encoder.weight (E, d), aggregator.hidden.weight
    # (H, d + 2s) and decoder.hidden.weight (K, E); one case per tensor, each
    # checked against the shapes the other tensors imply.
    params = small_params(seed=13)  # d=4, s=3, E=6, H=5, K=7
    path = tmp_path / "model.pcn"
    cp.save_model(params, path)
    tensors = nn.load_checkpoint(path)
    expected = params.tensor_shapes()
    assert set(expected) == set(cp.TENSOR_NAMES)
    defining = {
        "encoder.weight": ((6,), "has shape (6,), not a matrix"),
        "aggregator.hidden.weight": ((5, 11), "takes 11 inputs, which do not split as "
                                              "d + 2s with s >= 1 for the d = 4 of "
                                              "'encoder.weight'"),
        "decoder.hidden.weight": ((7, 5), "has shape (7, 5), expected (7, 6) to chain "
                                          "with the other tensors"),
    }
    for name in cp.TENSOR_NAMES:
        if name in defining:
            shape, message = defining[name]
        else:
            shape = (expected[name] + (1,) if name == "log_scale"
                     else expected[name][:-1] + (expected[name][-1] - 1,))
            message = f"has shape {shape}, expected {expected[name]} to chain with the other"
        bad = dict(tensors)
        bad[name] = np.zeros(shape)
        nn.save_checkpoint(bad, path)
        with pytest.raises(nn.CheckpointError,
                           match=re.escape(f"{path}: tensor '{name}' {message}")):
            cp.load_model(path)


def test_load_model_takes_its_dimensions_from_the_tensors(tmp_path):
    # A width d + 2s with s = 1 is a network for 1-d semantics; no aggregator
    # width below d + 2 splits.
    params = cp.CompletionNetParams.initialize(4, 1, seed=0, encoder_dim=6,
                                               aggregator_hidden=5, decoder_hidden=7)
    path = tmp_path / "model.pcn"
    cp.save_model(params, path)
    loaded, _ = cp.load_model(path)
    assert (loaded.input_dim, loaded.semantic_dim, loaded.encoder_dim,
            loaded.aggregator_hidden, loaded.decoder_hidden) == (4, 1, 6, 5, 7)
    tensors = nn.load_checkpoint(path)
    tensors["aggregator.hidden.weight"] = np.zeros((5, 4))
    nn.save_checkpoint(tensors, path)
    with pytest.raises(nn.CheckpointError, match="takes 4 inputs, which do not split"):
        cp.load_model(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_load_model_rejects_non_finite_tensors(tmp_path, value):
    params = small_params(seed=13)
    path = tmp_path / "model.pcn"
    params.store.value("decoder.output.bias")[2] = value
    cp.save_model(params, path)
    with pytest.raises(nn.CheckpointError,
                       match=re.escape(f"{path}: tensor 'decoder.output.bias' holds non-finite")):
        cp.load_model(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_save_model_with_non_finite_metadata_writes_neither_file(tmp_path, value):
    path = tmp_path / "model.pcn"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}.json: Out of range float"):
        cp.save_model(small_params(seed=13), path, metadata={"losses": [0.5, value]})
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_roundtrip_with_sidecar(tmp_path):
    params = small_params(seed=13)
    path = tmp_path / "model.pcn"
    cp.save_model(params, path, metadata={"note": "unit", "losses": [0.5, 0.25]})
    assert json.loads((tmp_path / "model.pcn.json").read_text()) == {
        "scale_gamma": params.scale_gamma, "metadata": {"note": "unit", "losses": [0.5, 0.25]}}
    loaded, meta = cp.load_model(path)
    assert meta["losses"] == [0.5, 0.25]
    assert loaded.input_dim == params.input_dim
    assert loaded.scale_gamma == pytest.approx(params.scale_gamma)
    for name in params.store.names():
        np.testing.assert_array_equal(loaded.store.value(name), params.store.value(name))
