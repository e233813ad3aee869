"""Knowledge model: prototypes, attribute statistics, noise injection, the
variance diagnostic, and the JSON interchange format."""

import numpy as np
import pytest

from protofuse import knowledge as kn


def tiny_knowledge(association, num_base, sem_dim=3, seed=0):
    association = np.asarray(association)
    c, f = association.shape
    rng = np.random.default_rng(seed)
    return kn.PrimitiveKnowledge(
        association=association,
        class_semantics=rng.standard_normal((c, sem_dim)),
        attribute_semantics=rng.standard_normal((f, sem_dim)),
        base_class_ids=tuple(range(num_base)),
    )


# --- prototypes -----------------------------------------------------------

def test_prototype_two_point_mean():
    table = kn.compute_base_prototypes([[1.0, 3.0], [3.0, 5.0]], [0, 0])
    np.testing.assert_allclose(table[0], [2.0, 4.0])


def test_prototype_single_sample_identity():
    table = kn.compute_base_prototypes([[7.0, -1.0]], [4])
    np.testing.assert_allclose(table[4], [7.0, -1.0])


def test_prototypes_recover_generator_centers():
    # 3 classes x 50 noisy draws around known centers; the class mean must
    # land within a few noise-sigma/sqrt(50) of each center.
    rng = np.random.default_rng(11)
    sigma = 0.3
    centers = rng.standard_normal((3, 6))
    xs, ys = [], []
    for cid in range(3):
        xs.append(centers[cid] + sigma * rng.standard_normal((50, 6)))
        ys.append(np.full(50, cid))
    table = kn.compute_base_prototypes(np.vstack(xs), np.concatenate(ys))
    bound = 5 * sigma / np.sqrt(50)
    for cid in range(3):
        assert np.abs(table[cid] - centers[cid]).max() < bound


def test_prototypes_permutation_invariant():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 5))
    y = rng.integers(0, 4, size=40)
    perm = rng.permutation(40)
    a = kn.compute_base_prototypes(x, y)
    b = kn.compute_base_prototypes(x[perm], y[perm])
    assert list(a) == list(b) == sorted(set(y.tolist()))
    assert all(type(cid) is int for cid in a)
    np.testing.assert_allclose(np.stack(list(a.values())), np.stack(list(b.values())),
                               atol=1e-12)


def test_prototypes_reject_empty_and_misaligned():
    with pytest.raises(ValueError, match="empty"):
        kn.compute_base_prototypes(np.empty((0, 3)), [])
    with pytest.raises(ValueError, match="align"):
        kn.compute_base_prototypes(np.ones((2, 3)), [0])


# --- attribute statistics --------------------------------------------------

def test_attribute_stats_two_point():
    know = tiny_knowledge([[1], [0]], num_base=2)
    stats = kn.compute_attribute_stats([[0.0], [2.0], [9.0]], [0, 0, 1], know)
    np.testing.assert_allclose(stats.mean[0], [1.0])
    np.testing.assert_allclose(stats.std[0], [1.0])


def test_attribute_stats_single_sample_zero_std():
    know = tiny_knowledge([[1]], num_base=1)
    stats = kn.compute_attribute_stats([[4.0, -2.0]], [0], know)
    np.testing.assert_array_equal(stats.std[0], [0.0, 0.0])


def test_attribute_stats_pool_all_supporting_classes():
    # attribute 0 is carried by classes 0 and 1: mean pools their samples
    know = tiny_knowledge([[1], [1], [0]], num_base=3)
    x = [[0.0], [4.0], [8.0]]
    stats = kn.compute_attribute_stats(x, [0, 1, 2], know)
    np.testing.assert_allclose(stats.mean[0], [2.0])


def test_attribute_stats_ignore_novel_samples():
    know = tiny_knowledge([[1], [1]], num_base=1)  # class 1 is novel
    stats = kn.compute_attribute_stats([[1.0], [100.0]], [0, 1], know)
    np.testing.assert_allclose(stats.mean[0], [1.0])


def test_attribute_stats_reject_empty_support():
    know = tiny_knowledge([[1, 0, 0], [0, 0, 1]], num_base=2)
    with pytest.raises(kn.AttributeSupportError, match="1") as err:
        kn.compute_attribute_stats([[1.0], [2.0]], [0, 1], know)
    assert err.value.attribute_ids == [1]


def test_attribute_stats_two_pass_equals_moment_form():
    # population sigma from the two-pass definition vs E[x^2] - E[x]^2
    rng = np.random.default_rng(9)
    x = rng.standard_normal((200, 4)) * 3 + 10
    know = tiny_knowledge([[1]], num_base=1)
    stats = kn.compute_attribute_stats(x, np.zeros(200, dtype=int), know)
    moment = np.sqrt(np.mean(x**2, axis=0) - np.mean(x, axis=0) ** 2)
    np.testing.assert_allclose(stats.std[0], moment, rtol=1e-9)


# --- knowledge noise -------------------------------------------------------

def test_noise_zero_is_identity():
    know = tiny_knowledge(np.eye(4, 5, dtype=int), num_base=3, seed=1)
    noisy = kn.inject_knowledge_noise(know, 0.0, seed=7)
    np.testing.assert_array_equal(noisy.association, know.association)


def test_noise_one_flips_everything():
    know = tiny_knowledge(np.eye(4, 5, dtype=int), num_base=3, seed=1)
    noisy = kn.inject_knowledge_noise(know, 1.0, seed=7)
    np.testing.assert_array_equal(noisy.association, 1 - know.association)


def test_noise_leaves_input_untouched_and_is_seed_reproducible():
    know = tiny_knowledge(np.ones((4, 6), dtype=int), num_base=2, seed=2)
    original = know.association.copy()
    a = kn.inject_knowledge_noise(know, 0.5, seed=3)
    b = kn.inject_knowledge_noise(know, 0.5, seed=3)
    c = kn.inject_knowledge_noise(know, 0.5, seed=4)
    np.testing.assert_array_equal(know.association, original)
    np.testing.assert_array_equal(a.association, b.association)
    assert (a.association != c.association).any()
    np.testing.assert_array_equal(a.class_semantics, know.class_semantics)


def test_noise_flip_fraction_binomial():
    # pooled over many seeds, the flip fraction sits within 3 binomial sigma
    know = tiny_knowledge(np.zeros((64, 100), dtype=int), num_base=32, seed=5)
    gamma, flips, total = 0.2, 0, 0
    for seed in range(20):
        noisy = kn.inject_knowledge_noise(know, gamma, seed=seed)
        flips += int(noisy.association.sum())
        total += noisy.association.size
    fraction = flips / total
    bound = 3 * np.sqrt(gamma * (1 - gamma) / total)
    assert abs(fraction - gamma) < bound


def test_noise_rejects_bad_level():
    know = tiny_knowledge([[1]], num_base=1)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            kn.inject_knowledge_noise(know, bad, seed=0)


# --- cluster variance ------------------------------------------------------

def test_variance_zero_for_identical_samples():
    assert kn.average_cluster_variance([[1.0, 2.0]] * 5, [0] * 5) == 0.0


def test_variance_two_point_case():
    assert kn.average_cluster_variance([[0.0], [2.0]], [0, 0]) == pytest.approx(1.0)


def test_variance_skips_small_classes():
    # Class 1's lone sample would pull a plain average down to 0.5.
    x = [[0.0], [2.0], [5.0]]
    assert kn.average_cluster_variance(x, [0, 0, 1]) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="two samples"):
        kn.average_cluster_variance([[1.0], [2.0]], [0, 1])


def test_variance_orders_noisy_vs_tight_classes():
    rng = np.random.default_rng(21)
    tight = rng.standard_normal((100, 8)) * 0.1
    loose = rng.standard_normal((100, 8)) * 0.5
    base = kn.average_cluster_variance(tight, np.zeros(100, dtype=int))
    novel = kn.average_cluster_variance(loose, np.zeros(100, dtype=int))
    assert novel > base


# --- invariants and the JSON format ---------------------------------------

def test_primitive_knowledge_validation():
    with pytest.raises(ValueError, match="0 or 1"):
        tiny_knowledge([[2]], num_base=1)
    rng = np.random.default_rng(0)
    for base_ids in ((0, 2), (-1,)):
        with pytest.raises(ValueError, match=r"base class ids must lie in 0\.\.num_classes-1"):
            kn.PrimitiveKnowledge(np.ones((2, 1), dtype=int), rng.standard_normal((2, 3)),
                                  rng.standard_normal((1, 3)), base_ids)
    with pytest.raises(ValueError, match="dimensions differ"):
        kn.PrimitiveKnowledge(np.ones((2, 1), dtype=int), rng.standard_normal((2, 3)),
                              rng.standard_normal((1, 4)), (0,))


def test_knowledge_json_roundtrip(tmp_path):
    know = tiny_knowledge([[1, 0], [1, 1], [0, 1]], num_base=2, seed=8)
    path = tmp_path / "knowledge.json"
    kn.save_knowledge(know, path)
    loaded = kn.load_knowledge(path)
    np.testing.assert_array_equal(loaded.association, know.association)
    np.testing.assert_allclose(loaded.class_semantics, know.class_semantics)
    np.testing.assert_allclose(loaded.attribute_semantics, know.attribute_semantics)
    assert loaded.base_class_ids == know.base_class_ids


def test_knowledge_load_prunes_unseen_attributes(tmp_path):
    # attribute 1 is carried only by the novel class: dropped on load
    know = tiny_knowledge([[1, 0], [0, 1]], num_base=1, seed=8)
    path = tmp_path / "knowledge.json"
    kn.save_knowledge(know, path)
    with pytest.warns(UserWarning, match="without base-class support"):
        loaded = kn.load_knowledge(path)
    assert loaded.num_attributes == 1
    np.testing.assert_allclose(loaded.attribute_semantics, know.attribute_semantics[:1])


@pytest.mark.parametrize("mutate,context", [
    (lambda d: d["classes"][0].update(split="weird"), "split"),
    (lambda d: d["classes"][0].update(id=5), "ids must be exactly"),
    (lambda d: d["classes"][1].update(semantic=[1.0]), "dimension"),
    (lambda d: d["attributes"][0].update(semantic="oops"), "semantic"),
    (lambda d: d["associations"].append([9, 0]), "unknown class id"),
    (lambda d: d["associations"].append([0, 9]), "unknown attribute id"),
    (lambda d: d.pop("attributes"), "expected a list"),
    (lambda d: d["classes"][1]["semantic"].__setitem__(0, float("inf")),
     r"classes\[1\]\.semantic: values must be finite"),
    # JSON true and false are not integers or numbers, though Python's bool is an int
    (lambda d: d["classes"][1].update(id=True), r"classes\[1\]\.id: expected an integer"),
    (lambda d: d["associations"].append([True, False]),
     r"associations\[3\]: expected \[class_id, attribute_id\]"),
    (lambda d: d["attributes"][0]["semantic"].__setitem__(0, False),
     r"attributes\[0\]\.semantic: expected a nonempty list of numbers"),
    (lambda d: d["classes"][0]["semantic"].__setitem__(0, 10**400),
     r"classes\[0\]\.semantic: int too large to convert to float"),
])
def test_knowledge_load_errors_carry_context(tmp_path, mutate, context):
    import json
    know = tiny_knowledge([[1, 1], [1, 0]], num_base=1, seed=8)
    path = tmp_path / "knowledge.json"
    kn.save_knowledge(know, path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(kn.KnowledgeFormatError, match=context):
        kn.load_knowledge(path)
