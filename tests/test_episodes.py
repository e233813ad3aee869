"""Episode sampling, prototypes, evaluation against a nearest-centroid
oracle, reporting, episodic fine-tuning, and the diagnostics."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape
from protofuse import autodiff as ad
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

def drawn_indices(dataset, n_way, k_shot, m_query, rng):
    """Class-major (support, query) dataset indices of the episode that
    ``sample_episode`` draws from ``rng``."""
    _, picked = ep._draw_indices(dataset, n_way, k_shot, m_query, rng)
    return picked[:, :k_shot].ravel(), picked[:, k_shot:].ravel()


def test_episode_structure_and_disjointness():
    world = make_world()
    episode = ep.sample_episode(world.novel, 5, 1, 15, np.random.default_rng(0))
    assert episode.support_x.shape == (5, 12)
    assert episode.query_x.shape == (75, 12)
    assert len(np.unique(episode.roster)) == 5
    support, query = drawn_indices(world.novel, 5, 1, 15, np.random.default_rng(0))
    assert episode.support_x.tobytes() == world.novel.embeddings[support].tobytes()
    assert not set(support) & set(query)
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


@functools.cache
def novel_split():
    return make_world().novel


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n_way=st.integers(1, 5), k_shot=st.integers(1, 6),
       m_query=st.integers(0, 6))
def test_episode_rows_are_class_major(seed, n_way, k_shot, m_query):
    dataset = novel_split()
    episode = ep.sample_episode(dataset, n_way, k_shot, m_query, np.random.default_rng(seed))
    assert (episode.k_shot, episode.m_query) == (k_shot, m_query)
    for i, cid in enumerate(episode.support_y):
        assert cid == episode.roster[i // k_shot]
    for j, cid in enumerate(episode.query_y):
        assert cid == episode.roster[j // m_query]
    # every row is the dataset row its index names, with that row's label
    support, query = drawn_indices(dataset, n_way, k_shot, m_query,
                                   np.random.default_rng(seed))
    for x, y, indices in ((episode.support_x, episode.support_y, support),
                          (episode.query_x, episode.query_y, query)):
        assert x.tobytes() == dataset.embeddings[indices].tobytes()
        assert y.tolist() == dataset.labels[indices].tolist()
    np.testing.assert_array_equal(ep.class_positions(n_way, k_shot),
                                  np.searchsorted(episode.roster, episode.support_y))


@pytest.mark.parametrize("n_way,k_shot,m_query", [(5, 1, 15), (3, 5, 0), (5, 5, 4)])
def test_sample_episode_replays_one_choice_per_roster_class(n_way, k_shot, m_query):
    # One choice of classes, then one choice of k_shot + m_query indices per
    # roster class in roster order: the support columns come first.
    dataset = novel_split()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        episode = ep.sample_episode(dataset, n_way, k_shot, m_query, rng)
        replay = np.random.default_rng(seed)
        roster = np.sort(replay.choice(dataset.class_ids(), size=n_way, replace=False))
        picked = np.stack([replay.choice(dataset.indices_of(c), size=k_shot + m_query,
                                         replace=False) for c in roster])
        assert episode.roster.tolist() == roster.tolist()
        support, query = drawn_indices(dataset, n_way, k_shot, m_query,
                                       np.random.default_rng(seed))
        assert support.tolist() == picked[:, :k_shot].ravel().tolist()
        assert query.tolist() == picked[:, k_shot:].ravel().tolist()
        assert episode.support_x.tobytes() == dataset.embeddings[support].tobytes()
        assert episode.query_x.tobytes() == dataset.embeddings[query].tobytes()
        assert episode.query_x.shape == (n_way * m_query, dataset.dim)
        # the stream is left where the replay leaves it
        assert rng.random() == replay.random()


def test_episode_determinism_bit_for_bit():
    world = make_world()
    a = ep.sample_episode(world.novel, 3, 2, 4, ep.episode_rng(42, 7))
    b = ep.sample_episode(world.novel, 3, 2, 4, ep.episode_rng(42, 7))
    assert a.support_x.tobytes() == b.support_x.tobytes()
    assert a.query_x.tobytes() == b.query_x.tobytes()
    _, query_a = drawn_indices(world.novel, 3, 2, 4, ep.episode_rng(42, 7))
    _, query_b = drawn_indices(world.novel, 3, 2, 4, ep.episode_rng(42, 7))
    assert query_a.tolist() == query_b.tolist()


# --- prototypes --------------------------------------------------------------

def test_mean_prototype_full_class_equals_table():
    world = make_world()
    episode = ep.sample_episode(world.novel, 1, 20, 0, np.random.default_rng(3))
    cid = int(episode.roster[0])
    table = kn.compute_base_prototypes(world.novel.embeddings, world.novel.labels)
    np.testing.assert_allclose(ep.mean_prototypes(episode)[0], table[cid],
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


@pytest.mark.parametrize("count", [1, 9, 19])
@pytest.mark.parametrize("k_shot", [1, 5])
def test_one_pass_over_every_mode_equals_one_mode_evaluate_calls(k_shot, count):
    world, stats, params = make_fixture(seed=4)
    kwargs = dict(n_way=3, k_shot=k_shot, m_query=4, num_episodes=count, seed=9)
    dump = []
    reports = ep.evaluate_modes(params, world.novel, world.knowledge, stats, ep.MODES,
                                fusion_dump=dump, **kwargs)
    assert list(reports) == list(ep.MODES)
    for mode in ep.MODES:
        single_dump = []
        single = ep.evaluate(params, world.novel, world.knowledge, stats, mode,
                             fusion_dump=single_dump, **kwargs)
        assert reports[mode].to_json_dict() == single.to_json_dict()
        assert len(single_dump) == (count if mode == ep.MODE_GAUSS_FUSION else 0)
        if single_dump:
            assert dump == single_dump


def test_a_four_mode_pass_samples_and_completes_each_block_once(monkeypatch):
    world, stats, params = make_fixture(seed=4)
    calls = {}

    def count_calls(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count_calls(ep, "sample_episode")
    count_calls(cp, "complete_prototype")
    kwargs = dict(n_way=3, k_shot=1, m_query=4, num_episodes=19, seed=9)
    blocks = math.ceil(19 / ep.BLOCK_EPISODES)
    assert blocks == 3
    ep.evaluate_modes(params, world.novel, world.knowledge, stats, ep.MODES, **kwargs)
    assert calls == {"sample_episode": blocks, "complete_prototype": blocks}
    calls.clear()
    for mode in ep.MODES:  # four one-mode calls: mean-only completes nothing
        ep.evaluate(params, world.novel, world.knowledge, stats, mode, **kwargs)
    assert calls == {"sample_episode": 4 * blocks, "complete_prototype": 3 * blocks}


def test_evaluate_per_episode_results_independent_of_episode_count():
    world, stats, params = make_fixture(seed=4)
    for mode in ep.MODES:
        kwargs = dict(n_way=3, k_shot=1, m_query=4, seed=9)
        long = ep.evaluate(params, world.novel, world.knowledge, stats, mode,
                           num_episodes=16, **kwargs)
        short = ep.evaluate(params, world.novel, world.knowledge, stats, mode,
                            num_episodes=5, **kwargs)
        assert long.per_episode[:5] == short.per_episode


@pytest.mark.parametrize("mode", ep.MODES)
def test_episode_results_do_not_depend_on_episode_count_or_block_size(mode, monkeypatch):
    # Episode i is the same whether it is alone, in a full block, in a short
    # final block, or evaluated in blocks of another size.
    world, stats, params = make_fixture(seed=4)
    size = ep.BLOCK_EPISODES
    counts = (1, size - 1, size, size + 1, 2 * size + 3)
    runs = []
    for block_size, block_counts in ((size, counts), (1, counts[-1:]), (3, counts[-1:])):
        monkeypatch.setattr(ep, "BLOCK_EPISODES", block_size)
        for count in block_counts:
            dump = []
            report = ep.evaluate(params, world.novel, world.knowledge, stats, mode,
                                 n_way=3, k_shot=1, m_query=4, num_episodes=count, seed=9,
                                 fusion_dump=dump)
            runs.append((report.per_episode, dump))
    longest, longest_dump = max(runs, key=lambda run: len(run[0]))
    assert len(longest) == counts[-1]
    for accuracies, dump in runs:
        assert accuracies == longest[:len(accuracies)]
        assert len(dump) == (len(accuracies) if mode == ep.MODE_GAUSS_FUSION else 0)
        for entry, expected in zip(dump, longest_dump):
            assert entry["episode"] == expected["episode"]
            for key in ("mean_based", "completed", "posterior"):
                for got, want in zip(entry[key], expected[key]):
                    np.testing.assert_allclose(got["mean"], want["mean"], rtol=0, atol=1e-12)
                    np.testing.assert_allclose(got["variance"], want["variance"], rtol=0,
                                               atol=1e-12)


def _zero_support_in_a_later_block(world, n_way, k_shot, m_query):
    """(dataset, seed, episode index, roster position): one support row of
    episode ``BLOCK_EPISODES + 2`` of ``seed`` is zeroed, and no earlier
    episode of that seed uses the row; the first seed that has such a row."""
    target = ep.BLOCK_EPISODES + 2
    for seed in range(100):
        used = set()
        for index in range(target):
            support, query = drawn_indices(world.novel, n_way, k_shot, m_query,
                                           ep.episode_rng(seed, index))
            used.update(support.tolist() + query.tolist())
        support, _ = drawn_indices(world.novel, n_way, k_shot, m_query,
                                   ep.episode_rng(seed, target))
        fresh = [p for p, row in enumerate(support) if row not in used]
        if fresh:
            embeddings = world.novel.embeddings.copy()
            embeddings[support[fresh[0]]] = 0.0
            dataset = datagen.FewShotDataset(embeddings, world.novel.labels)
            return dataset, seed, target, fresh[0]
    raise AssertionError("no seed below 100 has a fresh support row")


@pytest.mark.parametrize("mode", [ep.MODE_MEAN_ONLY, ep.MODE_GAUSS_FUSION, "similarity"])
def test_zero_norm_support_inside_a_block_names_its_episode(mode):
    world, stats, params = make_fixture(seed=4, samples_per_class=60)
    dataset, seed, index, position = _zero_support_in_a_later_block(world, 3, 1, 4)
    message = f"^episode {index}: zero-norm prototype at position {position}$"
    count = 2 * ep.BLOCK_EPISODES + 3
    with pytest.raises(ValueError, match=message):
        if mode == "similarity":
            ep.prototype_similarity_report(params, dataset, world.centers, world.knowledge,
                                           stats, num_episodes=count, n_way=3, k_shot=1,
                                           m_query=4, seed=seed)
        else:
            ep.evaluate(params, dataset, world.knowledge, stats, mode, n_way=3, k_shot=1,
                        m_query=4, num_episodes=count, seed=seed)
    # the episodes before it are unaffected
    ep.evaluate(params, dataset, world.knowledge, stats, ep.MODE_MEAN_ONLY, n_way=3,
                k_shot=1, m_query=4, num_episodes=index, seed=seed)


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
    for k_shot in (1, 3, 5, 7):
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
    features = np.vstack([cp.draw_attribute_features(stats, world.knowledge, [c],
                                                     np.random.default_rng(9))
                          for c in episode.roster])
    report = nn.gradient_check(
        params.store,
        lambda t: ep.meta_episode_loss(t, world.knowledge, episode, features),
        samples_per_tensor=8, rng=np.random.default_rng(10))
    assert report.max_relative_error < 1e-4


@pytest.mark.parametrize("k_shot", [1, 3])
def test_meta_loss_nodes_match_the_reference_tape(k_shot):
    world, stats, params = make_fixture(seed=6)
    rng = np.random.default_rng(11)
    for _ in range(4):
        episode = ep.sample_episode(world.base, 4, k_shot, 5, rng)
        features = cp.draw_attribute_features(stats, world.knowledge, episode.roster, rng)
        tape.assert_meta_loss_matches(params, world.knowledge, episode, features, 1e-12)


def test_meta_loss_is_three_nodes_over_the_leaves():
    world, stats, params = make_fixture(seed=6)
    rng = np.random.default_rng(12)
    episode = ep.sample_episode(world.base, 3, 1, 4, rng)
    features = cp.draw_attribute_features(stats, world.knowledge, episode.roster, rng)
    leaves = params.store.leaves()
    loss = ep.meta_episode_loss(leaves, world.knowledge, episode, features)
    assert len(ad._topological_order(loss)) == len(leaves) + 3


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


@pytest.mark.parametrize("field", ["n_way", "k_shot", "m_query", "episodes_per_epoch"])
def test_meta_train_config_names_a_degenerate_field(field):
    with pytest.raises(ValueError, match=f"^{field} must be at least 1, got 0$"):
        ep.MetaTrainConfig(optimizer=nn.SgdConfig(learning_rate=1e-4), **{field: 0})


def test_meta_train_stops_on_a_non_finite_loss_before_any_update():
    # A finite log_scale whose exp overflows makes the first episode's logits
    # infinite; the step must stop before backward and the update.
    world, stats, params = make_fixture(seed=7)
    params.store.value("log_scale")[...] = 1e3
    before = {name: params.store.value(name).copy() for name in params.store.names()}
    config = ep.MetaTrainConfig(optimizer=nn.SgdConfig(learning_rate=1e-4, epochs=2),
                                n_way=3, k_shot=1, m_query=4, episodes_per_epoch=3, seed=13)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match="^non-finite episodic loss at epoch 0, episode 0$"):
        ep.meta_train(params, world.base, world.knowledge, stats, config)
    for name, value in before.items():
        assert params.store.value(name).tobytes() == value.tobytes(), name


def test_each_training_step_is_one_train_step(monkeypatch):
    # Both trainings update only through nn.train_step: one call per
    # completion task and per meta episode, and the loss curve is its losses.
    world, stats, params = make_fixture(seed=7)
    calls = []
    step = nn.train_step

    def counting(store, loss_fn, config, failure):
        calls.append(step(store, loss_fn, config, failure))
        return calls[-1]

    monkeypatch.setattr(nn, "train_step", counting)
    prototypes = kn.compute_base_prototypes(world.base.embeddings, world.base.labels)
    tasks = cp.sample_completion_tasks(world.base.embeddings, world.base.labels, prototypes,
                                       1, 1, np.random.default_rng(0))
    losses = cp.train_completion(params, world.knowledge, stats, tasks,
                                 nn.SgdConfig(learning_rate=1e-3), np.random.default_rng(1))
    assert losses == calls and len(calls) == 1
    calls.clear()
    config = ep.MetaTrainConfig(optimizer=nn.SgdConfig(learning_rate=1e-4), n_way=3,
                                k_shot=1, m_query=4, episodes_per_epoch=1, seed=13)
    _, losses = ep.meta_train(params, world.base, world.knowledge, stats, config)
    assert losses == calls and len(calls) == 1


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


@pytest.mark.parametrize("size,window", [(1, 1), (7, 3), (7, 7), (7, 9), (333, 1),
                                         (333, 50), (333, 333), (333, 400)])
def test_moving_average_equals_the_trailing_cumsum_loop_bitwise(size, window):
    values = np.random.default_rng(size + window).standard_normal(size)
    csum = np.cumsum(values)
    expected = []
    for i in range(size):
        lo = max(0, i - window + 1)
        expected.append((csum[i] - (csum[lo - 1] if lo > 0 else 0.0)) / (i - lo + 1))
    assert ep.moving_average(values, window).tobytes() == np.array(expected).tobytes()


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
