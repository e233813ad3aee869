"""The set-up and the three phases every benchmark workload runs, with their
output checks.

Each is a closed loop: a step or episode starts only after the one
before it has returned.

* set-up: world, knowledge and a fixture model trained by completion-network
  SGD, one ``completion.train_completion`` call per step (1,280 1-shot
  tasks, lr 1e-2).
* train: the same SGD, continued on a fresh copy of the first fixture.
* eval: ``episodes.evaluate`` in all four prototype modes on 5-way 1-shot
  15-query novel episodes, as ``protofuse ablate`` runs it, single-threaded
  (``PROTOFUSE_THREADS=1``); ``EvalPhase.pool_rounds`` times the library's
  default thread pool on the same calls.
* meta: episodic fine-tuning of fresh copies of the fixtures, one
  ``episodes.meta_train`` call per episode (5-way 1-shot 15-query base
  episodes, lr 1e-4).

Every run trains FIXTURES fixture models, one per fixture seed of its
workload seed. The eval rounds and the meta episodes rotate over them, so
the quality metrics average over FIXTURES trainings: how well the
completion network trains depends on its initialisation and tasks (with
one fixture, completed-only accuracy ranged from 0.39 to 0.59 over seeds
0-17), and a single fixture makes the quality metrics as wide across seeds
as that.

The world is the acceptance world ``WorldSpec(seed=0)`` for every workload
seed, the way a few-shot benchmark fixes its dataset and samples episodes:
the seed drives the initialisations, the completion tasks, the attribute
draws and every episode.
"""

from __future__ import annotations

import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from protofuse import completion as cp
from protofuse import datagen
from protofuse import episodes as ep
from protofuse import knowledge as kn
from protofuse import nn

WORLD_SEED = 0

# Fixture recipe (tests/test_acceptance.py::train_run, shortened to 10 epochs).
TRAIN_LR = 1e-2
TRAIN_EPOCHS = 10
TASKS_PER_EPOCH = 128
FIXTURE_STEPS = TRAIN_EPOCHS * TASKS_PER_EPOCH
FIXTURES = 3
FIXTURE_SEED_STRIDE = 1000

N_WAY, K_SHOT, M_QUERY = 5, 1, 15
EVAL_SEED_BASE = 900
EVAL_BATCH = 20  # episodes per timed evaluate call
POOL_ROUNDS = 6  # rounds with the default evaluation pool in a traced run
QUALITY_ROUNDS = 5 * FIXTURES  # rounds whose accuracies are the acc.* metrics

META_LR = 1e-4
META_LOSS_EPISODES = 32 * FIXTURES  # meta_final_loss averages the first episodes

# On seed 0 a 600-episode ablate of the first fixture is the ROADMAP sanity run.
SANITY_SEED = 0
SANITY_EPISODES = 600
SANITY_ACC = {"mean-only": 0.6354, "mean-fusion": 0.6479, "gauss-fusion": 0.7254}


def fixture_seed(seed: int, k: int) -> int:
    """Seed of the ``k``-th fixture of workload seed ``seed``; the first is ``seed``."""
    return seed + FIXTURE_SEED_STRIDE * k


@dataclass
class Tally:
    """Units of work attempted and failed, plus run-level check failures."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, units: int, message: str) -> None:
        self.failed += units
        self.problems.append(message)

    def crash(self, units: int, what: str) -> None:
        self.fail(units, f"{what} raised: {traceback.format_exc(limit=3).strip()}")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass
class Setup:
    world: datagen.World
    stats: kn.AttributeStats
    params: cp.CompletionNetParams  # the trained fixture
    seed: int  # the fixture seed
    tasks: list
    training: "TrainPhase | None" = None  # the fixture's 1,280 steps


def clone_params(params: cp.CompletionNetParams) -> cp.CompletionNetParams:
    """Fresh parameters (no optimiser state) holding ``params``' values, as
    load_model builds them."""
    store = nn.ParamStore()
    for name in cp.TENSOR_NAMES:
        store.register(name, params.store.value(name).copy())
    return cp.CompletionNetParams(store, params.input_dim, params.semantic_dim,
                                  params.encoder_dim, params.aggregator_hidden,
                                  params.decoder_hidden)


class TrainPhase:
    """SGD on ``params`` over a set-up's tasks in order, cycled, one
    ``train_completion`` call per step, with the set-up's draw rng."""

    def __init__(self, params, setup: Setup, tally: Tally, tracer):
        self.params, self.setup, self.tally, self.tracer = params, setup, tally, tracer
        self.config = nn.SgdConfig(learning_rate=TRAIN_LR, epochs=1)
        self.rng = np.random.default_rng([setup.seed, 2])
        self.step_ms, self.losses = [], []

    def step(self) -> None:
        setup, index = self.setup, len(self.step_ms)
        task = setup.tasks[index % len(setup.tasks)]
        self.tally.attempted += 1
        with self.tracer.window("train") as window:
            start = time.perf_counter()
            try:
                (loss,) = cp.train_completion(self.params, setup.world.knowledge,
                                              setup.stats, [task], self.config, self.rng)
            except Exception:
                self.tally.crash(1, f"fixture {setup.seed} train step {index}")
                loss = float("nan")
            else:
                if not np.isfinite(loss):
                    self.tally.fail(1, f"fixture {setup.seed} train step {index}: "
                                       f"non-finite loss {loss}")
            self.step_ms.append((time.perf_counter() - start) * 1e3)
            window.units = 1
        self.losses.append(loss)

    @property
    def final_loss(self) -> float:
        """Mean loss of the fixture's last epoch, in train_completion's summation order."""
        last_epoch = self.losses[FIXTURE_STEPS - TASKS_PER_EPOCH:FIXTURE_STEPS]
        return sum(last_epoch) / TASKS_PER_EPOCH


def build_setup(seed: int, tally: Tally, tracer) -> Setup:
    """World, base prototypes, attribute stats, tasks, fresh init and the
    1,280-step training of the fixture with fixture seed ``seed``."""
    world = datagen.generate_world(datagen.WorldSpec(seed=WORLD_SEED))
    prototypes = kn.compute_base_prototypes(world.base.embeddings, world.base.labels)
    stats = kn.compute_attribute_stats(world.base.embeddings, world.base.labels,
                                       world.knowledge)
    tasks = cp.sample_completion_tasks(world.base.embeddings, world.base.labels,
                                       prototypes, k_shot=1, count=FIXTURE_STEPS,
                                       rng=np.random.default_rng([seed, 1]))
    params = cp.CompletionNetParams.initialize(world.base.dim, world.knowledge.semantic_dim,
                                               seed=seed + 100)
    setup = Setup(world, stats, params, seed, tasks)
    training = setup.training = TrainPhase(params, setup, tally, tracer)
    for _ in range(FIXTURE_STEPS):
        training.step()
    first = sum(training.losses[:TASKS_PER_EPOCH]) / TASKS_PER_EPOCH
    tally.check(training.final_loss < first,
                f"fixture {seed}: training did not lower the loss: "
                f"epoch 1 {first}, epoch {TRAIN_EPOCHS} {training.final_loss}")
    tally.check(all(np.isfinite(params.store.value(n)).all() for n in cp.TENSOR_NAMES),
                f"fixture {seed}: parameters are not finite")
    return setup


def nearest_centroid_accuracy(dataset, seed: int, index: int) -> float:
    """Independent cosine nearest-centroid classifier on episode ``index``."""
    episode = ep.sample_episode(dataset, N_WAY, K_SHOT, M_QUERY, ep.episode_rng(seed, index))
    centroids = np.stack([episode.support_x[episode.support_y == c].mean(axis=0)
                          for c in episode.roster])
    q = episode.query_x
    sims = (q @ centroids.T) / np.outer(np.sqrt((q * q).sum(axis=1)),
                                        np.sqrt((centroids * centroids).sum(axis=1)))
    predicted = episode.roster[np.argmax(sims, axis=1)]
    return float(np.mean(predicted == episode.query_y))


class EvalPhase:
    """Rounds of one EVAL_BATCH-episode call per mode on the same episodes,
    modes in rotating order; round ``r`` evaluates fixture ``r % FIXTURES``.
    The first QUALITY_ROUNDS rounds give the accuracies."""

    def __init__(self, fixtures: list, seed: int, tally: Tally, tracer):
        self.fixtures = fixtures
        self.tally, self.tracer = tally, tracer
        self.eval_seed = EVAL_SEED_BASE + seed
        self.episode_ms = {mode: [] for mode in ep.MODES}
        self.per_episode = {mode: [] for mode in ep.MODES}  # of the quality rounds
        self.rounds = 0

    def _evaluate(self, fixture: int, mode: str, episodes: int, seed: int,
                  fusion_dump=None):
        """One evaluate call; returns (per-episode ms, report or None) after checks."""
        setup = self.fixtures[fixture]
        dataset, tally = setup.world.novel, self.tally
        tally.attempted += episodes
        start = time.perf_counter()
        try:
            report = ep.evaluate(setup.params, dataset, setup.world.knowledge, setup.stats,
                                 mode, n_way=N_WAY, k_shot=K_SHOT, m_query=M_QUERY,
                                 num_episodes=episodes, seed=seed, fusion_dump=fusion_dump)
        except Exception:
            tally.crash(episodes, f"evaluate {mode} seed {seed}")
            return (time.perf_counter() - start) * 1e3 / episodes, None
        per_episode_ms = (time.perf_counter() - start) * 1e3 / episodes
        with self.tracer.suspended():
            accs = np.asarray(report.per_episode, dtype=np.float64)
            bad = int(np.count_nonzero(~((accs >= 0) & (accs <= 1))))
            if bad or accs.size != episodes:
                tally.fail(max(bad, 1), f"evaluate {mode} seed {seed}: accuracy outside [0, 1]")
            if mode == ep.MODE_MEAN_ONLY:
                wrong = [i for i in range(episodes)
                         if report.per_episode[i]
                         != nearest_centroid_accuracy(dataset, seed, i)]
                if wrong:
                    tally.fail(len(wrong), f"mean-only seed {seed}: episodes {wrong[:5]} "
                                           "disagree with the nearest-centroid oracle")
        return per_episode_ms, report

    def check_fusion(self) -> None:
        """Untimed: the fused prototypes of a dumped gauss-fusion call are finite."""
        with self.tracer.suspended():
            dump = []
            self._evaluate(0, ep.MODE_GAUSS_FUSION, EVAL_BATCH, self.eval_seed, dump)
            finite = all(np.isfinite(g["mean"]).all() and np.isfinite(g["variance"]).all()
                         for entry in dump for g in entry["posterior"])
            self.tally.check(finite and len(dump) == EVAL_BATCH,
                             "fused prototypes are not finite")

    def sanity(self) -> dict:
        """Untimed: the first fixture's ablate on the evaluation seed, as
        ``protofuse ablate`` runs it; returns each mode's accuracy."""
        with self.tracer.suspended():
            out = {}
            for mode in ep.MODES:
                _, report = self._evaluate(0, mode, SANITY_EPISODES, self.eval_seed)
                out[mode] = report.mean_acc if report else float("nan")
            return out

    def pool_rounds(self) -> dict:
        """Median per-episode ms of POOL_ROUNDS more rounds run with the
        library's default evaluation pool (PROTOFUSE_THREADS unset)."""
        saved = os.environ.pop("PROTOFUSE_THREADS", None)
        try:
            ms = {mode: [] for mode in ep.MODES}
            for r in range(POOL_ROUNDS):
                round_seed = self.eval_seed + 1000 * (self.rounds + r + 1)
                for mode in ep.MODES[r % len(ep.MODES):] + ep.MODES[:r % len(ep.MODES)]:
                    ms[mode].append(self._evaluate(r % FIXTURES, mode, EVAL_BATCH,
                                                   round_seed)[0])
        finally:
            if saved is not None:
                os.environ["PROTOFUSE_THREADS"] = saved
        return {mode: statistics.median(values) for mode, values in ms.items()}

    def step(self) -> None:
        """One round: one timed call per mode."""
        shift = self.rounds % len(ep.MODES)
        round_seed = self.eval_seed + 1000 * (self.rounds + 1)
        for mode in ep.MODES[shift:] + ep.MODES[:shift]:
            with self.tracer.window(f"eval.{mode}") as window:
                ms, report = self._evaluate(self.rounds % FIXTURES, mode, EVAL_BATCH,
                                            round_seed)
                window.units = EVAL_BATCH
            self.episode_ms[mode].append(ms)
            if self.rounds < QUALITY_ROUNDS:
                self.per_episode[mode] += (report.per_episode if report
                                           else [float("nan")] * EVAL_BATCH)
        self.rounds += 1

    def accuracy(self) -> dict:
        """Mean accuracy per mode over the quality rounds, running any not yet run."""
        while self.rounds < QUALITY_ROUNDS:
            self.step()
        return {mode: float(np.mean(accs)) for mode, accs in self.per_episode.items()}


class MetaPhase:
    """Fine-tunes a fresh copy of each fixture; episode ``i`` is one
    meta_train call on copy ``i % FIXTURES``, seeded by the ``i``-th draw of
    rng ``[seed, 3]``."""

    def __init__(self, fixtures: list, seed: int, tally: Tally, tracer):
        self.copies = [(clone_params(s.params), s) for s in fixtures]
        self.tally, self.tracer = tally, tracer
        self.optimizer = nn.SgdConfig(learning_rate=META_LR, epochs=1)
        self.seeds = np.random.default_rng([seed, 3])
        self.episode_ms, self.losses = [], []

    def step(self) -> None:
        index = len(self.episode_ms)
        params, setup = self.copies[index % FIXTURES]
        config = ep.MetaTrainConfig(optimizer=self.optimizer, n_way=N_WAY, k_shot=K_SHOT,
                                    m_query=M_QUERY, episodes_per_epoch=1,
                                    seed=int(self.seeds.integers(2**62)))
        self.tally.attempted += 1
        with self.tracer.window("meta") as window:
            start = time.perf_counter()
            try:
                _, (loss,) = ep.meta_train(params, setup.world.base, setup.world.knowledge,
                                           setup.stats, config)
            except Exception:
                self.tally.crash(1, f"meta episode {index}")
                loss = float("nan")
            else:
                if not np.isfinite(loss):
                    self.tally.fail(1, f"meta episode {index}: non-finite loss {loss}")
            self.episode_ms.append((time.perf_counter() - start) * 1e3)
            window.units = 1
        self.losses.append(loss)

    def final_loss(self) -> float:
        """Mean loss of the first META_LOSS_EPISODES, running any not yet run."""
        while len(self.losses) < META_LOSS_EPISODES:
            self.step()
        self.tally.check(all(np.isfinite(params.store.value(n)).all()
                             for params, _ in self.copies for n in cp.TENSOR_NAMES),
                         "meta-trained parameters are not finite")
        return sum(self.losses[:META_LOSS_EPISODES]) / META_LOSS_EPISODES


MIN_TURNS = 3
TURN_SECONDS = 0.5


def run_window(seconds: float, shares: dict) -> None:
    """Interleave ``{step function: weight}`` for ``seconds`` (and at least
    MIN_TURNS turns each). Each turn goes to the phase whose time so far is
    lowest relative to its weight, so every phase's samples spread over the
    whole window; a turn repeats its step for TURN_SECONDS, so that few steps
    follow a step of another phase."""
    spent = dict.fromkeys(shares, 0.0)
    turns = dict.fromkeys(shares, 0)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or min(turns.values()) < MIN_TURNS:
        step = min(shares, key=lambda s: (turns[s] >= MIN_TURNS, spent[s] / shares[s]))
        start = time.perf_counter()
        while True:
            step()
            elapsed = time.perf_counter() - start
            if elapsed >= TURN_SECONDS:
                break
        spent[step] += elapsed
        turns[step] += 1


NODE_COUNT_STEPS = 32
NODE_COUNT_EPISODES = 16


def count_nodes(setup: Setup, seed: int, tally: Tally, counter) -> tuple:
    """Autodiff nodes built per train step and per meta episode, counted on
    fresh copies of a fixture in a pass of their own."""
    world = setup.world
    tally.attempted += NODE_COUNT_STEPS + NODE_COUNT_EPISODES
    with counter:
        cp.train_completion(clone_params(setup.params), world.knowledge, setup.stats,
                            setup.tasks[:NODE_COUNT_STEPS],
                            nn.SgdConfig(learning_rate=TRAIN_LR, epochs=1),
                            np.random.default_rng([setup.seed, 2]))
    train_nodes, counter.count = counter.count / NODE_COUNT_STEPS, 0
    config = ep.MetaTrainConfig(optimizer=nn.SgdConfig(learning_rate=META_LR, epochs=1),
                                n_way=N_WAY, k_shot=K_SHOT, m_query=M_QUERY,
                                episodes_per_epoch=NODE_COUNT_EPISODES, seed=seed)
    with counter:
        ep.meta_train(clone_params(setup.params), world.base, world.knowledge,
                      setup.stats, config)
    return train_nodes, counter.count / NODE_COUNT_EPISODES
