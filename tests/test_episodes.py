"""Episode sampling, prototypes, evaluation against a nearest-centroid
oracle, reporting, episodic fine-tuning, and the diagnostics."""

import math

import numpy as np
import pytest

from protofuse import completion as cp
from protofuse import datagen
from protofuse import episodes as ep
from protofuse import knowledge as kn
from protofuse import nn


def make_world(seed=0, **kwargs):
    defaults = dict(dim=12, semantic_dim=6, num_base_classes=8, num_novel_classes=5,
                    num_attributes=10, attributes_per_class=(3, 5), samples_per_class=20,
                    noise_std=0.05, dropout_rate=0.4, offset_std=0.8, seed=seed)
    defaults.update(kwargs)
    return datagen.generate_world(datagen.WorldSpec(**defaults))


def make_fixture(seed=0, **kwargs):
    world = make_world(seed, **kwargs)
    stats = kn.compute_attribute_stats(world.base.embeddings, world.base.labels,
                                       world.knowledge)
    params = cp.CompletionNetParams.initialize(world.base.dim,
                                               world.knowledge.semantic_dim,
                                               seed=seed + 50, encoder_dim=16,
                                               aggregator_hidden=8, decoder_hidden=16)
    return world, stats, params


# --- sampling ----------------------------------------------------------------

def test_episode_structure_and_disjointness():
    world = make_world()
    episode = ep.sample_episode(world.novel, 5, 1, 15, np.random.default_rng(0))
    assert episode.support_x.shape == (5, 12)
    assert episode.query_x.shape == (75, 12)
    assert len(np.unique(episode.roster)) == 5
    assert not set(episode.support_indices) & set(episode.query_indices)
    for cid in episode.roster:
        assert (episode.support_y == cid).sum() == 1
        assert (episode.query_y == cid).sum() == 15


def test_episode_single_class_full_support():
    world = make_world()
    cid = int(world.novel.class_ids()[0])
    episode = ep.sample_episode(world.novel, 1, 20, 0, np.random.default_rng(1))
    if episode.roster[0] == cid:
        rows = world.novel.embeddings[world.novel.indices_of(cid)]
        np.testing.assert_allclose(np.sort(episode.support_x, axis=0),
                                   np.sort(rows, axis=0))
    assert episode.query_x.shape == (0, 12)


def test_episode_insufficient_data_errors():
    world = make_world()
    with pytest.raises(ValueError, match="needs 9"):
        ep.sample_episode(world.novel, 9, 1, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="needs 25"):
        ep.sample_episode(world.novel, 2, 10, 15, np.random.default_rng(0))


def test_episode_class_frequencies_uniform():
    world = make_world()
    rng = np.random.default_rng(5)
    counts = np.zeros(world.novel.class_ids().size)
    trials = 10_000
    for _ in range(trials):
        episode = ep.sample_episode(world.novel, 2, 1, 0, rng)
        for cid in episode.roster:
            counts[int(cid) - 8] += 1
    p = 2 / 5
    bound = 3 * np.sqrt(trials * p * (1 - p))
    assert (np.abs(counts - trials * p) < bound).all()


def test_episode_determinism_bit_for_bit():
    world = make_world()
    a = ep.sample_episode(world.novel, 3, 2, 4, ep.episode_rng(42, 7))
    b = ep.sample_episode(world.novel, 3, 2, 4, ep.episode_rng(42, 7))
    assert a.support_x.tobytes() == b.support_x.tobytes()
    assert a.query_indices.tolist() == b.query_indices.tolist()


# --- prototypes --------------------------------------------------------------

def test_mean_prototype_full_class_equals_table():
    world = make_world()
    episode = ep.sample_episode(world.novel, 1, 20, 0, np.random.default_rng(3))
    cid = int(episode.roster[0])
    table = kn.compute_base_prototypes(world.novel.embeddings, world.novel.labels)
    np.testing.assert_allclose(ep.mean_prototypes(episode)[0], table.prototype(cid),
                               atol=1e-12)


# --- evaluation ---------------------------------------------------------------

def test_evaluate_perfectly_separated_world_is_perfect():
    world = make_world(dropout_rate=0.0, noise_std=0.0, offset_std=3.0)
    _, stats, params = make_fixture()
    stats = kn.compute_attribute_stats(world.base.embeddings, world.base.labels,
                                       world.knowledge)
    for mode in (ep.MODE_MEAN_ONLY, ep.MODE_GAUSS_FUSION):
        report = ep.evaluate(params, world.novel, world.knowledge, stats, mode,
                             n_way=3, k_shot=1, m_query=5, num_episodes=30, seed=1)
        assert report.mean_acc == 1.0
        assert report.ci95 == 0.0


def test_evaluate_mean_only_matches_nearest_centroid_oracle():
    world, stats, params = make_fixture(seed=3)
    seed, episodes = 21, 60
    report = ep.evaluate(params, world.novel, world.knowledge, stats, ep.MODE_MEAN_ONLY,
                         n_way=4, k_shot=2, m_query=6, num_episodes=episodes, seed=seed)
    for index in range(episodes):
        episode = ep.sample_episode(world.novel, 4, 2, 6, ep.episode_rng(seed, index))
        correct = 0
        for q, true_label in zip(episode.query_x, episode.query_y):
            best, best_sim = None, -2.0
            for cid in episode.roster:
                centroid = episode.support_of(cid).mean(axis=0)
                sim = float(q @ centroid / (np.linalg.norm(q) * np.linalg.norm(centroid)))
                if sim > best_sim:
                    best, best_sim = cid, sim
            correct += int(best == true_label)
        assert report.per_episode[index] == pytest.approx(correct / 24)


def test_evaluate_per_episode_results_independent_of_episode_count():
    world, stats, params = make_fixture(seed=4)
    for mode in ep.MODES:
        kwargs = dict(n_way=3, k_shot=1, m_query=4, seed=9)
        long = ep.evaluate(params, world.novel, world.knowledge, stats, mode,
                           num_episodes=16, **kwargs)
        short = ep.evaluate(params, world.novel, world.knowledge, stats, mode,
                            num_episodes=5, **kwargs)
        assert long.per_episode[:5] == short.per_episode


def test_evaluate_rejects_fewer_than_one_episode():
    world, stats, params = make_fixture()
    for count in (0, -3):
        with pytest.raises(ValueError, match="num_episodes must be at least 1"):
            ep.evaluate(params, world.novel, world.knowledge, stats, ep.MODE_MEAN_ONLY,
                        num_episodes=count)


@pytest.mark.parametrize("mode", [ep.MODE_COMPLETED_ONLY, ep.MODE_MEAN_FUSION,
                                  ep.MODE_GAUSS_FUSION])
def test_evaluate_names_the_episode_of_non_finite_prototypes(mode):
    world, stats, params = make_fixture()
    params.store.value("decoder.output.bias")[3] = np.nan
    with pytest.raises(ValueError, match="^episode 0: non-finite prototype at position 0$"):
        ep.evaluate(params, world.novel, world.knowledge, stats, mode, num_episodes=3)
    # mean-only builds no completion and is unaffected
    ep.evaluate(params, world.novel, world.knowledge, stats, ep.MODE_MEAN_ONLY,
                num_episodes=3)


@pytest.mark.parametrize("mode", [ep.MODE_COMPLETED_ONLY, ep.MODE_GAUSS_FUSION])
def test_evaluate_names_the_episode_of_zero_norm_prototypes(mode):
    world, stats, params = make_fixture()
    params.store.value("decoder.output.weight")[:] = 0.0
    params.store.value("decoder.output.bias")[:] = 0.0
    with pytest.raises(ValueError, match="^episode 0: zero-norm prototype at position 0$"):
        ep.evaluate(params, world.novel, world.knowledge, stats, mode, num_episodes=3)


@pytest.mark.parametrize("field,value", [
    ("num_episodes", 0), ("num_episodes", -3), ("n_way", 0), ("k_shot", 0),
    ("m_query", 0), ("k_shot", -1),
])
@pytest.mark.parametrize("call", ["evaluate", "similarity"])
def test_degenerate_episode_shapes_are_rejected_before_any_work(call, field, value):
    world = make_world()
    shape = {"n_way": 5, "k_shot": 1, "m_query": 15, "num_episodes": 4, field: value}
    # params=None: the check has to come before the completion plan is built
    with pytest.raises(ValueError, match=f"^{field} must be at least 1, got {value}$"):
        if call == "evaluate":
            ep.evaluate(None, world.novel, world.knowledge, None, ep.MODE_GAUSS_FUSION,
                        **shape)
        else:
            ep.prototype_similarity_report(None, world.novel, world.centers,
                                           world.knowledge, None, **shape)


def test_mean_prototypes_equal_per_class_support_means_bitwise():
    world = make_world()
    for k_shot in (1, 3, 7):
        episode = ep.sample_episode(world.novel, 4, k_shot, 2, np.random.default_rng(k_shot))
        expected = np.stack([episode.support_of(c).mean(axis=0) for c in episode.roster])
        assert ep.mean_prototypes(episode).tobytes() == expected.tobytes()


def test_evaluate_rejects_unknown_mode():
    world, stats, params = make_fixture()
    with pytest.raises(ValueError, match="mode"):
        ep.evaluate(params, world.novel, world.knowledge, stats, "everything")


def test_eval_report_ci_formula():
    rng = np.random.default_rng(10)
    accs = rng.random(600)
    # force the population std to exactly 0.1
    accs = (accs - accs.mean()) / accs.std() * 0.1 + 0.5
    report = ep.EvalReport(mode="mean-only", n_way=5, k_shot=1, episodes=600,
                           seed=0, per_episode=accs.tolist())
    assert report.ci95 == pytest.approx(1.96 * 0.1 / math.sqrt(600), abs=1e-12)
    doc = report.to_json_dict()
    assert set(doc) == {"mode", "n_way", "k_shot", "episodes", "mean_acc",
                        "ci95", "seed", "per_episode"}


# --- episodic fine-tuning -------------------------------------------------------

def test_meta_loss_gradient_check():
    world, stats, params = make_fixture(seed=6)
    episode = ep.sample_episode(world.base, 3, 1, 4, np.random.default_rng(8))
    draws = {int(c): cp.draw_attribute_features(stats, world.knowledge.attributes_of(int(c)),
                                                "train", np.random.default_rng(9))
             for c in episode.roster}
    report = nn.gradient_check(
        params.store,
        lambda t: ep.meta_episode_loss(t, world.knowledge, episode, draws),
        samples_per_tensor=8, rng=np.random.default_rng(10))
    assert report.max_relative_error < 1e-4


def test_meta_train_deterministic_per_seed():
    world, stats, params = make_fixture(seed=7)
    config = ep.MetaTrainConfig(
        optimizer=nn.SgdConfig(learning_rate=1e-4, epochs=2),
        n_way=3, k_shot=1, m_query=4, episodes_per_epoch=6, seed=13)
    _, losses_a = ep.meta_train(params, world.base, world.knowledge, stats, config)
    _, _, params_b = make_fixture(seed=7)
    _, losses_b = ep.meta_train(params_b, world.base, world.knowledge, stats, config)
    assert losses_a == losses_b
    for name in params.store.names():
        np.testing.assert_array_equal(params.store.value(name), params_b.store.value(name))


def test_meta_train_improves_validation_accuracy():
    # From a deliberately half-trained completion net, episodic fine-tuning
    # must not hurt 1-shot accuracy on the held-out split (600 episodes).
    world_seed = 3
    world = datagen.generate_world(datagen.WorldSpec(
        dim=24, semantic_dim=8, num_base_classes=16, num_novel_classes=5,
        num_attributes=12, attributes_per_class=(4, 7), samples_per_class=25,
        noise_std=0.05, dropout_rate=0.5, offset_std=0.3, seed=world_seed))
    stats = kn.compute_attribute_stats(world.base.embeddings, world.base.labels,
                                       world.knowledge)
    params = cp.CompletionNetParams.initialize(24, 8, seed=world_seed + 51,
                                               encoder_dim=32, aggregator_hidden=16,
                                               decoder_hidden=32)
    table = kn.compute_base_prototypes(world.base.embeddings, world.base.labels)
    tasks = cp.sample_completion_tasks(world.base.embeddings, world.base.labels, table,
                                       k_shot=1, count=15 * 64,
                                       rng=np.random.default_rng(world_seed + 2))
    cp.train_completion(params, world.knowledge, stats, tasks,
                        nn.SgdConfig(learning_rate=1e-2, epochs=15),
                        np.random.default_rng(world_seed + 3))
    before = ep.evaluate(params, world.novel, world.knowledge, stats,
                         ep.MODE_GAUSS_FUSION, n_way=5, k_shot=1, m_query=10,
                         num_episodes=600, seed=77).mean_acc
    config = ep.MetaTrainConfig(
        optimizer=nn.SgdConfig(learning_rate=3e-4, epochs=8),
        n_way=5, k_shot=1, m_query=10, episodes_per_epoch=48, seed=world_seed + 5)
    _, losses = ep.meta_train(params, world.base, world.knowledge, stats, config)
    after = ep.evaluate(params, world.novel, world.knowledge, stats,
                        ep.MODE_GAUSS_FUSION, n_way=5, k_shot=1, m_query=10,
                        num_episodes=600, seed=77).mean_acc
    assert after >= before
    assert losses[-1] < losses[0]


# --- diagnostics -----------------------------------------------------------------

def test_similarity_report_perfect_when_centers_are_prototypes():
    world = make_world(dropout_rate=0.0, noise_std=0.0)
    stats = kn.compute_attribute_stats(world.base.embeddings, world.base.labels,
                                       world.knowledge)
    params = cp.CompletionNetParams.initialize(12, 6, seed=0, encoder_dim=16,
                                               aggregator_hidden=8, decoder_hidden=16)
    report = ep.prototype_similarity_report(params, world.novel, world.centers,
                                            world.knowledge, stats, num_episodes=20,
                                            n_way=3, m_query=2, seed=3)
    assert report.mean_based == pytest.approx(1.0, abs=1e-9)


def test_similarity_mean_based_below_one_under_noise():
    world, stats, params = make_fixture(seed=9)
    report = ep.prototype_similarity_report(params, world.novel, world.centers,
                                            world.knowledge, stats, num_episodes=50,
                                            n_way=3, m_query=4, seed=4)
    assert report.mean_based < 1.0 - 1e-6


def test_similarity_report_names_the_episode_of_non_finite_prototypes():
    world, stats, params = make_fixture()
    params.store.value("decoder.output.bias")[3] = np.nan
    with pytest.raises(ValueError, match="^episode 0: non-finite prototype at position 0$"):
        ep.prototype_similarity_report(params, world.novel, world.centers,
                                       world.knowledge, stats, num_episodes=3)


def test_moving_average_window_one_and_constant():
    values = np.array([3.0, 3.0, 3.0, 3.0])
    np.testing.assert_allclose(ep.moving_average(values, 3), values)
    jagged = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(ep.moving_average(jagged, 1), jagged)
    np.testing.assert_allclose(ep.moving_average(jagged, 2), [1.0, 1.5, 2.5, 3.5])


def test_rank_curve_completion_gap_widens_with_rank():
    # On a trained world, the completion advantage must grow as the 1-shot
    # sample sits farther from its center, overtaking the raw curve on the
    # far third of the ranks.
    world = datagen.generate_world(datagen.WorldSpec(
        dim=32, semantic_dim=8, num_base_classes=24, num_novel_classes=5,
        num_attributes=12, attributes_per_class=(4, 7), samples_per_class=60,
        noise_std=0.05, dropout_rate=0.5, offset_std=0.3, seed=2))
    stats = kn.compute_attribute_stats(world.base.embeddings, world.base.labels,
                                       world.knowledge)
    table = kn.compute_base_prototypes(world.base.embeddings, world.base.labels)
    params = cp.CompletionNetParams.initialize(32, 8, seed=53, encoder_dim=64,
                                               aggregator_hidden=32, decoder_hidden=64)
    tasks = cp.sample_completion_tasks(world.base.embeddings, world.base.labels, table,
                                       k_shot=1, count=80 * 96,
                                       rng=np.random.default_rng(6))
    cp.train_completion(params, world.knowledge, stats, tasks,
                        nn.SgdConfig(learning_rate=1e-2, epochs=80),
                        np.random.default_rng(7))
    curve = ep.rank_curve_report(params, world.novel, world.centers, world.knowledge,
                                 stats, window=50)
    gap = curve.completed - curve.raw
    third = gap.size // 3
    assert gap[-third:].mean() > gap[:third].mean()
    assert (curve.completed[-third:] > curve.raw[-third:]).mean() > 0.9


def test_rank_curve_shapes_and_window_shrink():
    world, stats, params = make_fixture(seed=11)
    report = ep.rank_curve_report(params, world.novel, world.centers, world.knowledge,
                                  stats, window=50)
    assert report.window == 20  # classes have 20 samples each
    assert report.classes_below_window == 5
    assert report.raw.shape == report.completed.shape == (20,)
    assert report.ranks.tolist() == list(range(20))
    # raw similarities were sorted descending, so the smoothed curve cannot rise
    assert (np.diff(ep.moving_average(report.raw, 1)) <= 1e-9).all()


def test_rank_curve_names_the_class_of_a_non_finite_completion():
    world, stats, params = make_fixture()
    params.store.value("decoder.output.bias")[3] = np.nan
    first = int(world.novel.class_ids()[0])
    with pytest.raises(ValueError, match=f"^class {first}: non-finite completed prototype$"):
        ep.rank_curve_report(params, world.novel, world.centers, world.knowledge, stats)
