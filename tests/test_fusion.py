"""Gaussian product, soft assignment, weighted estimation, and full fusion,
checked against independent oracles (grid integration and scalar loops)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tape
from protofuse import autodiff as ad
from protofuse import fusion


def gauss(mean, var):
    """A (mean, variance) pair of vectors, as ``gaussian_product`` takes it."""
    return np.atleast_1d(np.asarray(mean, float)), np.atleast_1d(np.asarray(var, float))


# --- gaussian product ------------------------------------------------------

def test_product_equal_variances():
    mean, var = fusion.gaussian_product(gauss([0.0, 0.0], [1.0, 1.0]),
                                        gauss([2.0, 2.0], [1.0, 1.0]))
    np.testing.assert_allclose(mean, [1.0, 1.0])
    np.testing.assert_allclose(var, [0.5, 0.5])


def test_product_uninformative_prior_limit():
    mean, var = fusion.gaussian_product(gauss([3.0], [1e12]), gauss([-1.5], [0.4]))
    assert mean[0] == pytest.approx(-1.5, rel=1e-6)
    assert var[0] == pytest.approx(0.4, rel=1e-6)


def grid_product_moments(m1, v1, m2, v2, points=100_000):
    """Normalized pointwise product of two 1-d Gaussian pdfs on a grid."""
    spread = 10.0 * (math.sqrt(v1) + math.sqrt(v2))
    lo, hi = min(m1, m2) - spread, max(m1, m2) + spread
    xs = np.linspace(lo, hi, points)
    log_p = -(xs - m1) ** 2 / (2 * v1) - (xs - m2) ** 2 / (2 * v2)
    w = np.exp(log_p - log_p.max())
    w /= w.sum()
    mean = float(w @ xs)
    var = float(w @ (xs - mean) ** 2)
    return mean, var


def test_product_matches_grid_oracle_sample():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m1, m2 = rng.uniform(-5, 5, size=2)
        s1, s2 = rng.uniform(0.1, 3.0, size=2)
        post_mean, post_var = fusion.gaussian_product(gauss([m1], [s1**2]),
                                                      gauss([m2], [s2**2]))
        mean, var = grid_product_moments(m1, s1**2, m2, s2**2)
        assert post_mean[0] == pytest.approx(mean, abs=1e-6)
        assert post_var[0] == pytest.approx(var, abs=1e-6)


finite_means = st.floats(min_value=-5, max_value=5, allow_nan=False)
finite_vars = st.floats(min_value=1e-4, max_value=9.0, allow_nan=False)


@settings(deadline=None, max_examples=200)
@given(m1=finite_means, m2=finite_means, v1=finite_vars, v2=finite_vars)
def test_product_symmetry_and_bounds(m1, m2, v1, v2):
    a, b = gauss([m1], [v1]), gauss([m2], [v2])
    ab_mean, ab_var = fusion.gaussian_product(a, b)
    ba_mean, ba_var = fusion.gaussian_product(b, a)
    # swapping prior and likelihood changes nothing
    assert abs(ab_mean[0] - ba_mean[0]) < 1e-12
    assert abs(ab_var[0] - ba_var[0]) < 1e-12
    # information never decreases
    assert ab_var[0] <= min(v1, v2) + 1e-15
    # posterior mean is a convex combination of the input means
    lo, hi = min(m1, m2), max(m1, m2)
    assert lo - 1e-12 <= ab_mean[0] <= hi + 1e-12


def test_product_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        fusion.gaussian_product(gauss([0.0], [1.0]), gauss([0.0, 1.0], [1.0, 1.0]))


# --- soft assignment -------------------------------------------------------

def test_soft_assign_single_class_is_certain():
    x = np.array([[1.0, 0.0], [0.5, 0.5]])
    assign = fusion.soft_assign(x, [-1, -1], np.array([[2.0, 1.0]]))
    np.testing.assert_allclose(assign, [[1.0], [1.0]])


def test_soft_assign_equidistant_splits_evenly():
    prototypes = np.array([[1.0, 0.0], [0.0, 1.0]])
    x = np.array([[1.0, 1.0]])  # equal cosine to both
    assign = fusion.soft_assign(x, [-1], prototypes)
    np.testing.assert_allclose(assign[0], [0.5, 0.5], atol=1e-12)


def test_soft_assign_matches_direct_softmax_of_cosines():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 4))
    prototypes = rng.standard_normal((3, 4))
    lam = fusion.DEFAULT_LAMBDA
    assign = fusion.soft_assign(x, [-1] * 6, prototypes)
    for i in range(6):
        sims = [
            float(x[i] @ p / (np.linalg.norm(x[i]) * np.linalg.norm(p)))
            for p in prototypes
        ]
        weights = [math.exp(lam * s) for s in sims]
        expected = [w / sum(weights) for w in weights]
        np.testing.assert_allclose(assign[i], expected, rtol=1e-12)


def test_soft_assign_two_known_cosines():
    # cosines (0.9, 0.7) at sharpness 10 give softmax(9, 7) = 1/(1+e^-2)
    p = math.exp(9) / (math.exp(9) + math.exp(7))
    assert p == pytest.approx(1 / (1 + math.exp(-2)))
    assert p == pytest.approx(0.8807970779778823, abs=1e-12)


def test_soft_assign_labeled_rows_exact_one_hot():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    prototypes = np.array([[1.0, 0.0], [0.0, 1.0]])
    assign = fusion.soft_assign(x, [1, -1, 0], prototypes)
    np.testing.assert_array_equal(assign[0], [0.0, 1.0])
    np.testing.assert_array_equal(assign[2], [1.0, 0.0])
    assert 0.0 < assign[1, 0] < 1.0  # the unlabeled row is soft


def test_soft_assign_rows_sum_to_one():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((20, 5))
    prototypes = rng.standard_normal((4, 5))
    labels = np.array([0, 1, 2, 3] + [-1] * 16)
    assign = fusion.soft_assign(x, labels, prototypes)
    np.testing.assert_allclose(assign.sum(axis=1), 1.0, atol=1e-12)


def test_soft_assign_argmax_invariant_to_prototype_scaling():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 6))
    prototypes = rng.standard_normal((3, 6))
    a = fusion.soft_assign(x, [-1] * 10, prototypes)
    b = fusion.soft_assign(x, [-1] * 10, prototypes * 37.5)
    np.testing.assert_array_equal(np.argmax(a, axis=1), np.argmax(b, axis=1))


@pytest.mark.parametrize("labels", [[0, 2, 1, 0], [-1, -1, -1, -1], [-1, 2, -1, 0]],
                         ids=["all-labeled", "all-unlabeled", "interleaved"])
def test_soft_assign_matches_per_row_reference(labels):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((4, 5))
    prototypes = rng.standard_normal((3, 5))
    lam = fusion.DEFAULT_LAMBDA
    matrix = fusion.soft_assign(x, labels, prototypes)
    for i, label in enumerate(labels):
        if label >= 0:
            expected = np.eye(3)[label]
            np.testing.assert_array_equal(matrix[i], expected)
        else:
            sims = [float(x[i] @ p / (np.linalg.norm(x[i]) * np.linalg.norm(p)))
                    for p in prototypes]
            weights = [math.exp(lam * s) for s in sims]
            np.testing.assert_allclose(matrix[i], [w / sum(weights) for w in weights],
                                       rtol=1e-12)


def test_soft_assign_rejects_bad_lambda_and_labels():
    x, prototypes = np.eye(2), np.eye(2)
    with pytest.raises(ValueError, match="beyond the prototype count"):
        fusion.soft_assign(x, [2, -1], prototypes)
    with pytest.raises(ValueError, match="beyond the prototype count"):
        fusion.fused_means(x, [0, 2], prototypes, ad.Node(prototypes))
    with pytest.raises(ValueError, match="do not match mean prototypes"):
        fusion.fuse_prototypes(x, [0, 1], prototypes, np.eye(3))


def test_soft_assign_zero_norm_errors_name_offender():
    prototypes = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError, match="embedding at row 1"):
        fusion.soft_assign(np.array([[1.0, 0.0], [0.0, 0.0]]), [-1, -1], prototypes)
    with pytest.raises(ValueError, match="prototype at position 0"):
        fusion.soft_assign(np.array([[1.0, 0.0]]), [-1], np.zeros((1, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cosine_matrix_rejects_non_finite_prototype_by_position(bad):
    prototypes = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    prototypes[2, 1] = bad
    x = np.array([[1.0, 0.5]])
    with pytest.raises(ValueError, match="^non-finite prototype at position 2$"):
        fusion.cosine_matrix(x, prototypes)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_cosine_matrix_rejects_non_finite_embedding_by_row(bad):
    # 1e200 squares to inf; numpy warns of the overflow first, so the warning
    # is silenced to reach the check itself
    x = np.array([[1.0, 0.5], [0.0, 2.0], [1.0, 1.0]])
    x[1, 0] = bad
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^non-finite embedding at row 1$"):
        fusion.cosine_matrix(x, np.eye(2))


def test_fusion_names_the_row_of_a_non_finite_query():
    # two labeled supports, then three queries; the soft assignment of the
    # queries reaches the check, which names the query's row
    x, labels, means, completed = random_episode(19, 2, 1, 3, 4)
    x[3, 2] = np.nan
    with pytest.raises(ValueError, match="^non-finite embedding at row 1$"):
        fusion.fuse_prototypes(x, labels, means, completed)
    with pytest.raises(ValueError, match="^non-finite embedding at row 1$"):
        fusion.fused_means(x, labels, means, ad.Node(completed))


def test_row_norm_overflow_fails_by_row_without_a_warning():
    # no errstate here: pytest turns numpy's overflow warning into an error
    x = np.array([[1.0, 0.5], [1e200, 2.0]])
    with pytest.raises(ValueError, match="^non-finite embedding at row 1$"):
        fusion.cosine_matrix(x, np.eye(2))
    with pytest.raises(ValueError, match="^non-finite prototype at position 0$"):
        fusion.cosine_matrix(np.eye(2), x[::-1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fusion_names_the_row_of_a_non_finite_labeled_sample(bad):
    # the labeled rows never reach the cosines; the class moments reject them
    x, labels, means, completed = random_episode(19, 2, 1, 3, 4)
    x[1, 2] = bad
    with pytest.raises(ValueError, match="^non-finite sample at row 1$"):
        fusion.fuse_prototypes(x, labels, means, completed)
    with pytest.raises(ValueError, match="^non-finite sample at row 1$"):
        fusion.fused_means(x, labels, means, ad.Node(completed))
    block = np.stack([x, x])
    block[0, 1, 2] = 0.0
    with pytest.raises(ValueError, match="^non-finite sample at row 1$"):
        fusion.fuse_prototypes(block, labels, np.stack([means] * 2), np.stack([completed] * 2))


def test_fused_means_runs_one_fusion_pass(monkeypatch):
    calls = []
    fuse = fusion.fuse_prototypes
    monkeypatch.setattr(fusion, "fuse_prototypes", lambda *args: calls.append(1) or fuse(*args))
    x, labels, means, completed = random_episode(20, 3, 1, 4, 5)
    fused = fusion.fused_means(x, labels, means, ad.Node(completed))
    assert len(calls) == 1
    np.testing.assert_array_equal(fused.value, fuse(x, labels, means, completed).fused)


# --- weighted estimation ---------------------------------------------------

def test_weighted_estimate_degenerate_weight_hits_floor():
    x = np.array([[0.0], [2.0]])
    mean, variance = fusion.weighted_gaussian_estimate(x, np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(mean[0], [0.0])
    np.testing.assert_allclose(variance[0], [fusion.EPSILON_VARIANCE])
    _, variance = fusion.weighted_gaussian_estimate(np.array([[0.0, 1.0], [0.0, 5.0]]),
                                                    np.full((2, 2), 0.5))
    np.testing.assert_allclose(variance[0], [fusion.EPSILON_VARIANCE, 4.0])


def test_weighted_estimate_two_point():
    x = np.array([[0.0], [2.0]])
    mean, variance = fusion.weighted_gaussian_estimate(x, np.full((2, 2), 0.5))
    np.testing.assert_allclose(mean[0], [1.0])
    np.testing.assert_allclose(variance[0], [1.0])


def test_weighted_estimate_matches_scalar_loops():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((12, 3))
    w = rng.random((12, 2))
    w /= w.sum(axis=1, keepdims=True)
    means, variances = fusion.weighted_gaussian_estimate(x, w)
    for k in range(2):
        total = sum(w[i][k] for i in range(12))
        for dim in range(3):
            mean = sum(w[i][k] * x[i][dim] for i in range(12)) / total
            var = sum(w[i][k] * (x[i][dim] - mean) ** 2 for i in range(12)) / total
            assert means[k, dim] == pytest.approx(mean, abs=1e-12)
            assert variances[k, dim] == pytest.approx(max(var, fusion.EPSILON_VARIANCE),
                                                      abs=1e-9)


def test_variance_floor_equals_the_scalar_form_bitwise(monkeypatch):
    # the floor is a row of constants; np.maximum against the scalar gives
    # the same bits, here on variances of 0.0, below and above the floor,
    # inf and NaN (a 1e160 deviation squares to inf, times a zero weight NaN)
    x = np.array([[0.0, 5.0, -1e160], [1e-4, 5.0, 0.0], [3.0, 5.0, 1e160]])
    r = np.array([[1.0, 0.5], [0.0, 0.5], [1.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        floored = fusion.weighted_gaussian_estimate(x, r).variance
        monkeypatch.setattr(fusion, "EPSILON_VARIANCE", -np.inf)
        raw = fusion.weighted_gaussian_estimate(x, r).variance
    assert (raw == 0.0).any() and np.isnan(raw).any() and np.isinf(raw).any()
    assert ((raw > 0.0) & (raw < 1e-6)).any() and (raw > 1e-6).any()
    assert floored.tobytes() == np.maximum(raw, 1e-6).tobytes()
    special = np.array([[0.0, -0.0, np.nan, np.inf, -np.inf, 1e-7, 2.0]] * 2)
    assert (np.maximum(special, np.full(7, 1e-6)).tobytes()
            == np.maximum(special, 1e-6).tobytes())


def test_weighted_estimate_rejects_finite_samples_whose_mean_overflows():
    x = np.array([[1.7e308, 0.0], [1.7e308, 1.0]])
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^the samples' mean overflows$"):
        fusion.weighted_gaussian_estimate(x, np.eye(2))


def test_weighted_estimate_zero_responsibility():
    x = np.array([[1.0]])
    with pytest.raises(ValueError, match="zero total responsibility for class position 1"):
        fusion.weighted_gaussian_estimate(x, np.array([[1.0, 0.0]]))


# --- fusion ----------------------------------------------------------------

def test_mean_fuse():
    np.testing.assert_allclose(fusion.mean_fuse([0.0], [2.0]), [1.0])
    p = np.array([1.0, -2.0])
    np.testing.assert_allclose(fusion.mean_fuse(p, p), p)
    with pytest.raises(ValueError, match="mismatch"):
        fusion.mean_fuse(np.ones(2), np.ones(3))


def test_fuse_identical_prototype_families_collapse():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((16, 4)) + 2.0
    labels = np.array([0, 1] + [-1] * 14)
    prototypes = rng.standard_normal((2, 4))
    result = fusion.fuse_prototypes(x, labels, prototypes, prototypes.copy())
    for k in range(2):
        np.testing.assert_allclose(result.fused[k], result.mean_based.mean[k], atol=1e-12)
        np.testing.assert_allclose(result.mean_based.mean[k], result.completed.mean[k],
                                   atol=1e-12)


def test_fuse_single_class_uses_full_population():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((10, 3)) + 1.0
    labels = np.array([0] + [-1] * 9)
    mean_p = x[:3].mean(axis=0, keepdims=True)
    comp_p = x[:5].mean(axis=0, keepdims=True)
    result = fusion.fuse_prototypes(x, labels, mean_p, comp_p)
    np.testing.assert_allclose(result.assignment_mean, 1.0)
    mu = x.mean(axis=0)
    var = np.maximum(x.var(axis=0), fusion.EPSILON_VARIANCE)
    expected_mean, _ = fusion.gaussian_product((mu, var), (mu, var))
    np.testing.assert_allclose(result.fused[0], expected_mean, atol=1e-12)


def test_fused_means_traced_equals_plain():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((14, 5))
    labels = np.array([0, 1, 2] + [-1] * 11)
    means = rng.standard_normal((3, 5))
    completed = rng.standard_normal((3, 5))
    plain = fusion.fuse_prototypes(x, labels, means, completed).fused
    traced = fusion.fused_means(x, labels, means, ad.Node(completed))
    assert ad.is_node(traced) and traced.shape == (3, 5)
    np.testing.assert_allclose(traced.value, plain, rtol=0, atol=1e-12)


def test_fused_means_gradient_flows_through_responsibilities():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((8, 3))
    labels = np.array([0, 1] + [-1] * 6)
    means = rng.standard_normal((2, 3))
    completed_value = rng.standard_normal(3)
    other = rng.standard_normal(3)

    def loss_at(vec):
        # row 0 is the probed vector, row 1 a constant
        completed = tape.add(tape.matmul(np.array([[1.0], [0.0]]), tape.reshape(vec, (1, 3))),
                             np.vstack([np.zeros(3), other]))
        fused = fusion.fused_means(x, labels, means, completed)
        return tape.sum(tape.mul(fused, np.array([np.arange(3.0), np.ones(3)])))

    node = ad.Node(completed_value)
    out = loss_at(node)
    ad.backward(out)
    assert node.grad is not None and np.abs(node.grad).max() > 0
    h = 1e-6
    for j in range(3):
        up, down = completed_value.copy(), completed_value.copy()
        up[j] += h
        down[j] -= h
        fd = (float(loss_at(ad.Node(up)).value) - float(loss_at(ad.Node(down)).value)) / (2 * h)
        assert node.grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def offset_samples(rng, samples, d, offset):
    """Standard-normal samples shifted by ``offset`` times their spread, along
    a random sign in each dimension."""
    return offset * rng.choice([-1.0, 1.0], size=d) + rng.standard_normal((samples, d))


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), samples=st.integers(1, 16), classes=st.integers(1, 5),
       d=st.integers(1, 8), offset=st.floats(0.0, 100.0), scale=st.floats(1e-2, 1e2))
@example(seed=4826, samples=2, classes=2, d=2, offset=100.0, scale=1.0)
def test_weighted_estimate_matches_two_pass_reference_at_any_offset(seed, samples, classes,
                                                                    d, offset, scale):
    # The closed form r^T (x - c)**2 / T - m'**2, m' = r^T (x - c) / T,
    # against the two-pass reference, which squares the deviations from the
    # finished mean. Every term is computed on the shifted samples, so the
    # offset does not enter the error at all. On the pinned example, taking
    # m' as (r^T x / T) - c instead exceeds the bound 62,000-fold.
    rng = np.random.default_rng(seed)
    x = scale * offset_samples(rng, samples, d, offset)
    r = rng.random((samples, classes))
    mean, variance = fusion.weighted_gaussian_estimate(x, r)
    ref_mean, ref_variance = tape._weighted_gaussian_estimate(x, r)
    np.testing.assert_array_equal(mean, ref_mean)
    rounding = np.finfo(float).eps * ((x - x.mean(axis=0)) ** 2).max(axis=0)
    assert (np.abs(variance - ref_variance) <= 1e-12 * ref_variance + 16 * rounding).all()


@pytest.mark.parametrize("offset", [0.0, 100.0, 1e6])
def test_weighted_estimate_of_one_certain_sample_lands_on_the_floor(offset):
    rng = np.random.default_rng(15)
    x = offset_samples(rng, 6, 4, offset)
    r = rng.random((6, 3))
    r[:, 1] = np.eye(6)[2]
    mean, variance = fusion.weighted_gaussian_estimate(x, r)
    np.testing.assert_array_equal(mean[1], x[2])
    np.testing.assert_array_equal(variance[1], fusion.EPSILON_VARIANCE)


def test_weighted_estimate_of_a_block_equals_each_episode_alone_bitwise():
    # Three episodes of two classes; the moments equal those of each episode
    # alone bit for bit, and so do the fusion node's gradients within 1e-14.
    rng = np.random.default_rng(16)
    x, r = offset_samples(rng, 21, 3, 5.0).reshape(3, 7, 3), rng.random((3, 7, 2))
    block = fusion.weighted_gaussian_estimate(x, r)
    labels = np.array([0, 1] + [-1] * 5)
    means, completed = x[:, :2], x[:, :2] + rng.standard_normal((3, 2, 3))
    probe = rng.standard_normal((3, 2, 3))
    node = ad.Node(completed)
    ad.backward(tape.sum(tape.mul(fusion.fused_means(x, labels, means, node), probe)))
    for b in range(3):
        for stack, alone in zip(block, fusion.weighted_gaussian_estimate(x[b], r[b])):
            np.testing.assert_array_equal(stack[b], alone)
        alone = ad.Node(completed[b])
        ad.backward(tape.sum(tape.mul(fusion.fused_means(x[b], labels, means[b], alone),
                                      probe[b])))
        np.testing.assert_allclose(node.grad[b], alone.grad, rtol=1e-14, atol=1e-14)


def test_fused_means_gradient_at_an_offset_matches_central_differences():
    # Embeddings, mean and completed prototypes offset by 100 times the
    # samples' spread, so the backward pass differentiates shifted moments
    # that the centred episodes of the other gradient checks leave near zero.
    x, labels, means, completed = random_episode(17, 3, 2, 9, 4)
    offset = 100 * x.std(axis=0) * np.random.default_rng(17).choice([-1.0, 1.0], size=4)
    x, means, completed = x + offset, means + offset, completed + offset
    probe = np.random.default_rng(18).standard_normal(completed.shape)
    node = ad.Node(completed)
    ad.backward(tape.sum(tape.mul(fusion.fused_means(x, labels, means, node), probe)))
    assert np.abs(node.grad).max() > 0
    h = 1e-6 * np.abs(completed).max()
    for j in range(completed.size):
        up, down = completed.copy(), completed.copy()
        up.flat[j] += h
        down.flat[j] -= h
        step = (fusion.fuse_prototypes(x, labels, means, up).fused
                - fusion.fuse_prototypes(x, labels, means, down).fused)
        assert node.grad.flat[j] == pytest.approx(np.sum(step * probe) / (2 * h),
                                                  rel=1e-5, abs=1e-9)


# --- batched fusion properties ---------------------------------------------

def random_episode(seed, n_way, k_shot, m_query, d):
    """Supports grouped by class, then unlabeled queries, plus two prototype
    families (support means and a perturbed copy)."""
    rng = np.random.default_rng(seed)
    centers = 2.0 * rng.standard_normal((n_way, d))
    support = np.repeat(centers, k_shot, axis=0) + 0.5 * rng.standard_normal((n_way * k_shot, d))
    queries = centers[rng.integers(n_way, size=m_query)] + 0.5 * rng.standard_normal((m_query, d))
    labels = np.concatenate([np.repeat(np.arange(n_way), k_shot), np.full(m_query, -1)])
    means = support.reshape(n_way, k_shot, d).mean(axis=1)
    completed = means + rng.standard_normal((n_way, d))
    return np.vstack([support, queries]), labels, means, completed


episode_shapes = dict(seed=st.integers(0, 2**32 - 1), n_way=st.integers(1, 6),
                      k_shot=st.integers(1, 3), m_query=st.integers(0, 12),
                      d=st.integers(1, 8))


@settings(deadline=None, max_examples=100)
@given(**episode_shapes)
def test_fusion_posterior_is_tighter_and_between_per_dimension(seed, n_way, k_shot,
                                                               m_query, d):
    x, labels, means, completed = random_episode(seed, n_way, k_shot, m_query, d)
    result = fusion.fuse_prototypes(x, labels, means, completed)
    prior, likelihood, post = result.completed, result.mean_based, result.posterior
    assert post.mean.shape == post.variance.shape == (n_way, d)
    tightest = np.minimum(prior.variance, likelihood.variance)
    assert (post.variance <= tightest * (1 + 1e-12)).all()
    lo = np.minimum(prior.mean, likelihood.mean)
    hi = np.maximum(prior.mean, likelihood.mean)
    slack = 1e-12 * (1.0 + np.abs(post.mean))
    assert ((lo - slack <= post.mean) & (post.mean <= hi + slack)).all()
    # row k is the estimate from column k alone and the product of class
    # position k; a one-pass variance far below its class's squared distance
    # from the episode mean c keeps only eps * max |x - c|**2 absolute precision
    rounding = 16 * np.finfo(float).eps * np.max((x - x.mean(axis=0)) ** 2)
    for k in range(n_way):
        g_mean = [stack[0] for stack in fusion.weighted_gaussian_estimate(
            x, result.assignment_mean[:, [k]])]
        g_comp = [stack[0] for stack in fusion.weighted_gaussian_estimate(
            x, result.assignment_completed[:, [k]])]
        single_mean, single_var = fusion.gaussian_product(g_comp, g_mean)
        np.testing.assert_allclose(post.mean[k], single_mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(post.variance[k], single_var, rtol=1e-12, atol=rounding)
    # the traced training-loss fusion computes the same posterior means
    traced = fusion.fused_means(x, labels, means, ad.Node(completed))
    np.testing.assert_allclose(traced.value, post.mean, rtol=1e-12, atol=1e-12)


@settings(deadline=None, max_examples=100)
@given(**episode_shapes)
def test_fusing_a_gaussian_with_itself_halves_its_variance(seed, n_way, k_shot, m_query, d):
    x, labels, means, _ = random_episode(seed, n_way, k_shot, m_query, d)
    result = fusion.fuse_prototypes(x, labels, means, means.copy())
    np.testing.assert_array_equal(result.completed.variance, result.mean_based.variance)
    np.testing.assert_allclose(result.posterior.variance, result.mean_based.variance / 2,
                               rtol=1e-15, atol=0)
    np.testing.assert_allclose(result.fused, result.mean_based.mean, rtol=1e-15, atol=0)


@settings(deadline=None, max_examples=100)
@given(scale=st.floats(min_value=1e-3, max_value=1e3), which=st.integers(0, 5),
       **episode_shapes)
def test_soft_assignment_rows_sum_to_one_and_ignore_prototype_scale(scale, which, seed,
                                                                    n_way, k_shot,
                                                                    m_query, d):
    x, labels, means, completed = random_episode(seed, n_way, k_shot, m_query, d)
    result = fusion.fuse_prototypes(x, labels, means, completed)
    labeled = labels >= 0
    one_hot = np.eye(n_way)[labels[labeled]]
    for assignment in (result.assignment_mean, result.assignment_completed,
                       fusion.soft_assign(x, labels, completed)):
        assert (assignment >= 0.0).all()
        np.testing.assert_allclose(assignment.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(assignment[labeled], one_hot)
    scaled = completed.copy()
    scaled[which % n_way] *= scale
    rescaled = fusion.fuse_prototypes(x, labels, means, scaled)
    np.testing.assert_allclose(rescaled.assignment_completed,
                               result.assignment_completed, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=100)
@given(**episode_shapes)
def test_inference_and_training_fusion_agree_bitwise(seed, n_way, k_shot, m_query, d):
    x, labels, means, completed = random_episode(seed, n_way, k_shot, m_query, d)
    fused = fusion.fuse_prototypes(x, labels, means, completed).fused
    traced = fusion.fused_means(x, labels, means, ad.Node(completed))
    np.testing.assert_array_equal(traced.value, fused)


@settings(deadline=None, max_examples=50)
@given(episodes=st.integers(1, 5), **episode_shapes)
def test_block_fusion_equals_each_episode_alone_bitwise(episodes, seed, n_way, k_shot,
                                                        m_query, d):
    # A block of episodes stacked on a leading axis is fused as each of its
    # episodes would be alone, bit for bit, by inference and by the training
    # loss's fusion node.
    stacks = [random_episode(seed + b, n_way, k_shot, m_query, d) for b in range(episodes)]
    labels = stacks[0][1]
    x, means, completed = (np.stack([s[i] for s in stacks]) for i in (0, 2, 3))
    block = fusion.fuse_prototypes(x, labels, means, completed)
    traced = fusion.fused_means(x, labels, means, ad.Node(completed))
    np.testing.assert_array_equal(traced.value, block.fused)
    for b in range(episodes):
        alone = fusion.fuse_prototypes(x[b], labels, means[b], completed[b])
        for name in ("mean_based", "completed", "posterior"):
            np.testing.assert_array_equal(getattr(block, name).mean[b],
                                          getattr(alone, name).mean)
            np.testing.assert_array_equal(getattr(block, name).variance[b],
                                          getattr(alone, name).variance)
        np.testing.assert_array_equal(block.assignment_mean[b], alone.assignment_mean)
        np.testing.assert_array_equal(block.assignment_completed[b],
                                      alone.assignment_completed)
        np.testing.assert_array_equal(fusion.cosine_matrix(x, block.fused)[b],
                                      fusion.cosine_matrix(x[b], alone.fused))


# --- family axis -----------------------------------------------------------

@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), episodes=st.sampled_from([1, 3, 8]),
       n_way=st.sampled_from([1, 2, 5, 8]), k_shot=st.sampled_from([1, 5]),
       m_query=st.integers(0, 15), d=st.integers(1, 8))
def test_fusion_equals_each_family_through_the_steps_alone_bitwise(seed, episodes, n_way,
                                                                   k_shot, m_query, d):
    # One pass over both families, stacked on a family axis, gives the bits
    # of each family soft-assigned and estimated on its own; for a block of
    # episodes and for its first episode alone.
    stacks = [random_episode(seed + b, n_way, k_shot, m_query, d) for b in range(episodes)]
    labels = stacks[0][1]
    block = tuple(np.stack([s[i] for s in stacks]) for i in (0, 2, 3))
    for x, means, completed in (block, tuple(a[0] for a in block)):
        result = fusion.fuse_prototypes(x, labels, means, completed)
        r_mean = fusion.soft_assign(x, labels, means)
        r_completed = fusion.soft_assign(x, labels, completed)
        mean_based = fusion.weighted_gaussian_estimate(x, r_mean)
        completed_side = fusion.weighted_gaussian_estimate(x, r_completed)
        posterior = fusion.gaussian_product(completed_side, mean_based)
        expected = (*mean_based, *completed_side, *posterior, r_mean, r_completed)
        actual = (*result.mean_based, *result.completed, *result.posterior,
                  result.assignment_mean, result.assignment_completed)
        for got, want in zip(actual, expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_fusion_makes_one_assignment_and_one_estimate(monkeypatch):
    calls = {"soft_assign": 0, "weighted_gaussian_estimate": 0}
    for name in calls:
        step = getattr(fusion, name)

        def counted(*args, name=name, step=step):
            calls[name] += 1
            return step(*args)

        monkeypatch.setattr(fusion, name, counted)
    x, labels, means, completed = random_episode(21, 3, 2, 5, 4)
    fusion.fuse_prototypes(x, labels, means, completed)
    assert calls == {"soft_assign": 1, "weighted_gaussian_estimate": 1}


def test_cosine_matrix_broadcasts_embeddings_over_a_family_axis():
    rng = np.random.default_rng(22)
    for lead in ((), (3,)):
        x = rng.standard_normal(lead + (7, 4))
        families = rng.standard_normal((2,) + lead + (5, 4))
        stacked = fusion.cosine_matrix(x, families)
        assert stacked.shape == (2,) + lead + (7, 5)
        for f in range(2):
            assert stacked[f].tobytes() == fusion.cosine_matrix(x, families[f]).tobytes()
    with pytest.raises(ValueError, match="does not match embeddings"):
        fusion.cosine_matrix(rng.standard_normal((3, 7, 4)), rng.standard_normal((2, 4, 5, 4)))
    with pytest.raises(ValueError, match="does not match embeddings"):
        fusion.cosine_matrix(rng.standard_normal((3, 7, 4)), rng.standard_normal((5, 4)))
