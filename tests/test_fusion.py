"""Gaussian product, soft assignment, weighted estimation, and full fusion,
checked against independent oracles (grid integration and scalar loops)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protofuse import autodiff as ad
from protofuse import fusion


def gauss(mean, var):
    return fusion.DiagonalGaussian(np.atleast_1d(np.asarray(mean, float)),
                                   np.atleast_1d(np.asarray(var, float)))


# --- gaussian product ------------------------------------------------------

def test_product_equal_variances():
    post = fusion.gaussian_product(gauss([0.0, 0.0], [1.0, 1.0]),
                                   gauss([2.0, 2.0], [1.0, 1.0]))
    np.testing.assert_allclose(post.mean, [1.0, 1.0])
    np.testing.assert_allclose(post.variance, [0.5, 0.5])


def test_product_uninformative_prior_limit():
    post = fusion.gaussian_product(gauss([3.0], [1e12]), gauss([-1.5], [0.4]))
    assert post.mean[0] == pytest.approx(-1.5, rel=1e-6)
    assert post.variance[0] == pytest.approx(0.4, rel=1e-6)


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
        post = fusion.gaussian_product(gauss([m1], [s1**2]), gauss([m2], [s2**2]))
        mean, var = grid_product_moments(m1, s1**2, m2, s2**2)
        assert post.mean[0] == pytest.approx(mean, abs=1e-6)
        assert post.variance[0] == pytest.approx(var, abs=1e-6)


finite_means = st.floats(min_value=-5, max_value=5, allow_nan=False)
finite_vars = st.floats(min_value=1e-4, max_value=9.0, allow_nan=False)


@settings(deadline=None, max_examples=200)
@given(m1=finite_means, m2=finite_means, v1=finite_vars, v2=finite_vars)
def test_product_symmetry_and_bounds(m1, m2, v1, v2):
    a, b = gauss([m1], [v1]), gauss([m2], [v2])
    ab = fusion.gaussian_product(a, b)
    ba = fusion.gaussian_product(b, a)
    # swapping prior and likelihood changes nothing
    assert abs(ab.mean[0] - ba.mean[0]) < 1e-12
    assert abs(ab.variance[0] - ba.variance[0]) < 1e-12
    # information never decreases
    assert ab.variance[0] <= min(v1, v2) + 1e-15
    # posterior mean is a convex combination of the input means
    lo, hi = min(m1, m2), max(m1, m2)
    assert lo - 1e-12 <= ab.mean[0] <= hi + 1e-12


def test_product_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        fusion.gaussian_product(gauss([0.0], [1.0]), gauss([0.0, 1.0], [1.0, 1.0]))


def test_diagonal_gaussian_flooring():
    with pytest.raises(ValueError, match="strictly positive"):
        fusion.DiagonalGaussian(np.zeros(2), np.array([0.0, 1.0]))


# --- soft assignment -------------------------------------------------------

def test_soft_assign_single_class_is_certain():
    x = np.array([[1.0, 0.0], [0.5, 0.5]])
    assign = fusion.soft_assign(x, [-1, -1], np.array([[2.0, 1.0]]))
    np.testing.assert_allclose(assign.matrix, [[1.0], [1.0]])


def test_soft_assign_equidistant_splits_evenly():
    prototypes = np.array([[1.0, 0.0], [0.0, 1.0]])
    x = np.array([[1.0, 1.0]])  # equal cosine to both
    assign = fusion.soft_assign(x, [-1], prototypes)
    np.testing.assert_allclose(assign.matrix[0], [0.5, 0.5], atol=1e-12)


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
        np.testing.assert_allclose(assign.matrix[i], expected, rtol=1e-12)


def test_soft_assign_two_known_cosines():
    # cosines (0.9, 0.7) at sharpness 10 give softmax(9, 7) = 1/(1+e^-2)
    p = math.exp(9) / (math.exp(9) + math.exp(7))
    assert p == pytest.approx(1 / (1 + math.exp(-2)))
    assert p == pytest.approx(0.8807970779778823, abs=1e-12)


def test_soft_assign_labeled_rows_exact_one_hot():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    prototypes = np.array([[1.0, 0.0], [0.0, 1.0]])
    assign = fusion.soft_assign(x, [1, -1, 0], prototypes)
    np.testing.assert_array_equal(assign.matrix[0], [0.0, 1.0])
    np.testing.assert_array_equal(assign.matrix[2], [1.0, 0.0])
    assert not assign.labeled[1]


def test_soft_assign_rows_sum_to_one():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((20, 5))
    prototypes = rng.standard_normal((4, 5))
    labels = np.array([0, 1, 2, 3] + [-1] * 16)
    assign = fusion.soft_assign(x, labels, prototypes)
    np.testing.assert_allclose(assign.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_soft_assign_argmax_invariant_to_prototype_scaling():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 6))
    prototypes = rng.standard_normal((3, 6))
    a = fusion.soft_assign(x, [-1] * 10, prototypes)
    b = fusion.soft_assign(x, [-1] * 10, prototypes * 37.5)
    np.testing.assert_array_equal(np.argmax(a.matrix, axis=1), np.argmax(b.matrix, axis=1))


@pytest.mark.parametrize("labels", [[0, 2, 1, 0], [-1, -1, -1, -1], [-1, 2, -1, 0]],
                         ids=["all-labeled", "all-unlabeled", "interleaved"])
def test_soft_assign_matches_per_row_reference(labels):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((4, 5))
    prototypes = rng.standard_normal((3, 5))
    lam = fusion.DEFAULT_LAMBDA
    matrix = fusion.soft_assign(x, labels, prototypes).matrix
    traced = fusion._soft_assign_matrix(x, np.array(labels), ad.Node(prototypes))
    np.testing.assert_array_equal(ad.value_of(traced), matrix)
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
    with pytest.raises(ValueError, match="^non-finite prototype at position 2$"):
        fusion.cosine_matrix(x, ad.Node(prototypes))


# --- weighted estimation ---------------------------------------------------

def test_weighted_estimate_degenerate_weight_hits_floor():
    x = np.array([[0.0], [2.0]])
    assign = fusion.SoftAssignment(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([True, True]))
    g = fusion.weighted_gaussian_estimate(x, assign, 0)
    np.testing.assert_allclose(g.mean, [0.0])
    np.testing.assert_allclose(g.variance, [fusion.EPSILON_VARIANCE])
    two_point = fusion.SoftAssignment(np.full((2, 2), 0.5), np.array([False, False]))
    g = fusion.weighted_gaussian_estimate(np.array([[0.0, 1.0], [0.0, 5.0]]), two_point, 0)
    np.testing.assert_allclose(g.variance, [fusion.EPSILON_VARIANCE, 4.0])


def test_weighted_estimate_two_point():
    x = np.array([[0.0], [2.0]])
    assign = fusion.SoftAssignment(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([False, False]))
    g = fusion.weighted_gaussian_estimate(x, assign, 0)
    np.testing.assert_allclose(g.mean, [1.0])
    np.testing.assert_allclose(g.variance, [1.0])


def test_weighted_estimate_matches_scalar_loops():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((12, 3))
    w = rng.random((12, 2))
    w /= w.sum(axis=1, keepdims=True)
    assign = fusion.SoftAssignment(w, np.zeros(12, dtype=bool))
    for k in range(2):
        g = fusion.weighted_gaussian_estimate(x, assign, k)
        total = sum(w[i][k] for i in range(12))
        for dim in range(3):
            mean = sum(w[i][k] * x[i][dim] for i in range(12)) / total
            var = sum(w[i][k] * (x[i][dim] - mean) ** 2 for i in range(12)) / total
            assert g.mean[dim] == pytest.approx(mean, abs=1e-12)
            assert g.variance[dim] == pytest.approx(max(var, fusion.EPSILON_VARIANCE), abs=1e-9)


def test_weighted_estimate_zero_responsibility():
    x = np.array([[1.0]])
    assign = fusion.SoftAssignment(np.array([[1.0, 0.0]]), np.array([True]))
    with pytest.raises(ValueError, match="zero total responsibility"):
        fusion.weighted_gaussian_estimate(x, assign, 1)


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
    np.testing.assert_allclose(result.assignment_mean.matrix, 1.0)
    mu = x.mean(axis=0)
    var = np.maximum(x.var(axis=0), fusion.EPSILON_VARIANCE)
    expected = fusion.gaussian_product(
        fusion.DiagonalGaussian(mu, var), fusion.DiagonalGaussian(mu, var))
    np.testing.assert_allclose(result.fused[0], expected.mean, atol=1e-12)


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
    untraced = fusion.fused_means(x, labels, means, completed)
    np.testing.assert_allclose(untraced, plain, rtol=0, atol=1e-12)


def test_fused_means_gradient_flows_through_responsibilities():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((8, 3))
    labels = np.array([0, 1] + [-1] * 6)
    means = rng.standard_normal((2, 3))
    completed_value = rng.standard_normal(3)
    other = rng.standard_normal(3)

    def loss_at(vec):
        # row 0 is the probed vector, row 1 a constant
        completed = ad.add(ad.matmul(np.array([[1.0], [0.0]]), ad.reshape(vec, (1, 3))),
                           np.vstack([np.zeros(3), other]))
        fused = fusion.fused_means(x, labels, means, completed)
        return ad.sum(ad.mul(fused, np.array([np.arange(3.0), np.ones(3)])))

    node = ad.Node(completed_value)
    out = loss_at(node)
    ad.backward(out)
    assert node.grad is not None and np.abs(node.grad).max() > 0
    h = 1e-6
    for j in range(3):
        up, down = completed_value.copy(), completed_value.copy()
        up[j] += h
        down[j] -= h
        fd = (float(ad.value_of(loss_at(up))) - float(ad.value_of(loss_at(down)))) / (2 * h)
        assert node.grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_weighted_square_deviations_gradients_match_finite_differences():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((7, 3))
    r = rng.random((7, 2))
    mean = rng.standard_normal((2, 3))
    probe = rng.standard_normal((2, 3))

    def loss(responsibilities, m):
        return ad.sum(ad.mul(fusion._weighted_square_deviations(x, responsibilities, m), probe))

    r_node, mean_node = ad.Node(r), ad.Node(mean)
    ad.backward(loss(r_node, mean_node))
    h = 1e-6
    for node, value, at in ((r_node, r, lambda v: loss(v, mean)),
                            (mean_node, mean, lambda v: loss(r, v))):
        for j in range(value.size):
            up, down = value.copy(), value.copy()
            up.flat[j] += h
            down.flat[j] -= h
            fd = (float(at(up)) - float(at(down))) / (2 * h)
            assert node.grad.flat[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)
    expected = [[np.sum(r[:, k] * (x[:, j] - mean[k, j]) ** 2) for j in range(3)]
                for k in range(2)]
    np.testing.assert_allclose(fusion._weighted_square_deviations(x, r, mean), expected,
                               rtol=1e-12)


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
    # row k is the per-class estimate and product of class position k
    for k in range(n_way):
        g_mean = fusion.weighted_gaussian_estimate(x, result.assignment_mean, k)
        g_comp = fusion.weighted_gaussian_estimate(x, result.assignment_completed, k)
        single = fusion.gaussian_product(g_comp, g_mean)
        np.testing.assert_allclose(post.mean[k], single.mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(post.variance[k], single.variance, rtol=1e-12)
    # the traced training-loss fusion computes the same posterior means
    traced = fusion.fused_means(x, labels, means, ad.Node(completed))
    np.testing.assert_allclose(ad.value_of(traced), post.mean, rtol=1e-12, atol=1e-12)


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
    for assignment in (result.assignment_mean, result.assignment_completed):
        np.testing.assert_allclose(assignment.matrix.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    scaled = completed.copy()
    scaled[which % n_way] *= scale
    rescaled = fusion.fuse_prototypes(x, labels, means, scaled)
    np.testing.assert_allclose(rescaled.assignment_completed.matrix,
                               result.assignment_completed.matrix, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=100)
@given(**episode_shapes)
def test_inference_and_training_fusion_agree_bitwise(seed, n_way, k_shot, m_query, d):
    x, labels, means, completed = random_episode(seed, n_way, k_shot, m_query, d)
    fused = fusion.fuse_prototypes(x, labels, means, completed).fused
    np.testing.assert_array_equal(fusion.fused_means(x, labels, means, completed), fused)
    traced = fusion.fused_means(x, labels, means, ad.Node(completed))
    np.testing.assert_array_equal(traced.value, fused)
