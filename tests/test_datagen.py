"""Synthetic world generator properties and the manifest/payload formats."""

import json

import numpy as np
import pytest

from protofuse import datagen
from protofuse import knowledge as kn


def spec(**kwargs):
    defaults = dict(dim=12, semantic_dim=6, num_base_classes=6, num_novel_classes=4,
                    num_attributes=10, attributes_per_class=(3, 5), samples_per_class=15,
                    noise_std=0.05, dropout_rate=0.4, offset_std=1.0, seed=0)
    defaults.update(kwargs)
    return datagen.WorldSpec(**defaults)


def test_generate_world_deterministic_per_seed():
    a = datagen.generate_world(spec(seed=5))
    b = datagen.generate_world(spec(seed=5))
    c = datagen.generate_world(spec(seed=6))
    np.testing.assert_array_equal(a.base.embeddings, b.base.embeddings)
    np.testing.assert_array_equal(a.novel.labels, b.novel.labels)
    np.testing.assert_array_equal(a.knowledge.association, b.knowledge.association)
    assert (a.base.embeddings != c.base.embeddings).any()


def test_base_and_novel_classes_disjoint():
    world = datagen.generate_world(spec())
    base_ids = set(world.base.class_ids().tolist())
    novel_ids = set(world.novel.class_ids().tolist())
    assert not base_ids & novel_ids
    assert base_ids == set(world.knowledge.base_class_ids)
    assert novel_ids == set(world.knowledge.novel_class_ids)


def test_class_index_matches_label_scans_and_is_read_only():
    world = datagen.generate_world(spec())
    rng = np.random.default_rng(3)
    shuffled = rng.permutation(world.novel.labels)  # classes interleaved
    datasets = (world.base, world.novel,
                datagen.FewShotDataset(world.novel.embeddings, shuffled, "novel-test"))
    for dataset in datasets:
        ids = dataset.class_ids()
        np.testing.assert_array_equal(ids, np.unique(dataset.labels))
        assert not ids.flags.writeable
        absent = int(ids.max()) + 1
        for cid in [*ids.tolist(), absent]:
            rows = dataset.indices_of(cid)
            assert rows.dtype == np.int64
            np.testing.assert_array_equal(rows, np.flatnonzero(dataset.labels == cid))
            assert not rows.flags.writeable
        assert dataset.indices_of(absent).size == 0


def test_no_dropout_no_noise_samples_equal_centers():
    world = datagen.generate_world(spec(dropout_rate=0.0, noise_std=0.0))
    for cid in world.base.class_ids():
        rows = world.base.embeddings[world.base.indices_of(cid)]
        np.testing.assert_allclose(rows - world.centers[cid], 0.0, atol=1e-12)


def test_dropout_biases_one_shot_prototypes():
    # under dropout, single samples point measurably away from the center
    def mean_cos(world):
        total, count = 0.0, 0
        for cid in world.novel.class_ids():
            rows = world.novel.embeddings[world.novel.indices_of(cid)]
            center = world.centers[cid]
            sims = rows @ center / (np.linalg.norm(rows, axis=1) * np.linalg.norm(center))
            total += sims.sum()
            count += sims.size
        return total / count

    sims_clean = np.mean([mean_cos(datagen.generate_world(spec(dropout_rate=0.0, seed=s)))
                          for s in range(3)])
    sims_dropped = np.mean([mean_cos(datagen.generate_world(spec(dropout_rate=0.5, seed=s)))
                            for s in range(3)])
    assert sims_dropped < sims_clean - 0.05


def test_attribute_stats_recover_components():
    # mu_a minus the global mean should point along the attribute's component
    world = datagen.generate_world(spec(num_base_classes=10, samples_per_class=40, seed=3))
    stats = kn.compute_attribute_stats(world.base.embeddings, world.base.labels,
                                       world.knowledge)
    # re-derive the component vectors with the generator's own draw order
    rng = np.random.default_rng(3)
    components = rng.standard_normal((10, 12))
    components /= np.linalg.norm(components, axis=1, keepdims=True)
    global_mean = world.base.embeddings.mean(axis=0)
    sims = []
    for a in range(world.knowledge.num_attributes):
        shifted = stats.mean[a] - global_mean
        sims.append(shifted @ components[a]
                    / (np.linalg.norm(shifted) * np.linalg.norm(components[a])))
    assert np.mean(sims) > 0.5


def test_distance_correlates_with_dropped_attribute_count():
    # Spearman rank correlation between per-sample distance-to-center and the
    # number of missing components (counted by projecting the deficit onto the
    # unit component vectors, re-derived from the documented draw order).
    world = datagen.generate_world(spec(dropout_rate=0.5, noise_std=0.01,
                                        samples_per_class=50, seed=8))
    rng = np.random.default_rng(8)
    components = rng.standard_normal((10, 12))
    components /= np.linalg.norm(components, axis=1, keepdims=True)
    subsets = {}
    for k in range(10):  # base + novel classes, in draw order
        size = int(rng.integers(3, 6))
        subsets[k] = np.sort(rng.choice(10, size=size, replace=False))

    def spearman(u, v):
        def ranks(w):
            order = np.argsort(w)
            r = np.empty_like(order, dtype=float)
            r[order] = np.arange(len(w))
            return r
        ru, rv = ranks(u), ranks(v)
        ru -= ru.mean()
        rv -= rv.mean()
        return float((ru @ rv) / np.sqrt((ru @ ru) * (rv @ rv)))

    rhos = []
    for cid in world.base.class_ids():
        rows = world.base.embeddings[world.base.indices_of(cid)]
        center = world.centers[cid]
        dist = np.linalg.norm(rows - center, axis=1)
        deficit = (center - rows) @ components[subsets[int(cid)]].T
        dropped = np.round(deficit).clip(0, 1).sum(axis=1)
        if np.unique(dropped).size > 1:
            rhos.append(spearman(dist, dropped))
    assert np.mean(rhos) > 0.5


def test_novel_noise_knob_raises_novel_variance():
    world = datagen.generate_world(spec(noise_std=0.05, novel_noise_std=0.5, seed=2))
    base_var = kn.cluster_variance_report(world.base.embeddings, world.base.labels)
    novel_var = kn.cluster_variance_report(world.novel.embeddings, world.novel.labels)
    assert novel_var.average > base_var.average


def test_worldspec_validation():
    with pytest.raises(ValueError, match="dropout_rate"):
        spec(dropout_rate=1.0)
    with pytest.raises(ValueError, match="fit the vocabulary"):
        spec(attributes_per_class=(3, 99))
    with pytest.raises(ValueError, match="at least 1"):
        spec(num_base_classes=0)


# --- file formats ------------------------------------------------------------

def test_dataset_roundtrip_bit_exact(tmp_path):
    world = datagen.generate_world(spec(seed=4))
    manifest = datagen.save_dataset(world.base, tmp_path, "base")
    loaded = datagen.load_embeddings(manifest)
    assert loaded.embeddings.tobytes() == world.base.embeddings.tobytes()
    np.testing.assert_array_equal(loaded.labels, world.base.labels)
    assert loaded.split == "base"


def test_truncated_payload_reports_byte_counts(tmp_path):
    world = datagen.generate_world(spec(seed=4))
    manifest = datagen.save_dataset(world.base, tmp_path, "base")
    payload = tmp_path / "base.f64le"
    data = payload.read_bytes()
    payload.write_bytes(data[:-16])
    # fix the checksum so the size check is what fires
    doc = json.loads((tmp_path / "base.manifest.json").read_text())
    from protofuse.fileio import sha256_file
    doc["checksum"] = sha256_file(payload)
    (tmp_path / "base.manifest.json").write_text(json.dumps(doc))
    with pytest.raises(datagen.DatasetFormatError,
                       match=rf"expected {world.base.n * world.base.dim * 8} bytes.*got "
                             rf"{world.base.n * world.base.dim * 8 - 16}"):
        datagen.load_embeddings(manifest)


def test_checksum_mismatch_rejected(tmp_path):
    world = datagen.generate_world(spec(seed=4))
    manifest = datagen.save_dataset(world.base, tmp_path, "base")
    payload = tmp_path / "base.f64le"
    data = bytearray(payload.read_bytes())
    data[0] ^= 0xFF
    payload.write_bytes(bytes(data))
    with pytest.raises(datagen.DatasetFormatError, match="checksum mismatch"):
        datagen.load_embeddings(manifest)


def test_dimension_disagreement_rejected(tmp_path):
    world = datagen.generate_world(spec(seed=4))
    manifest = datagen.save_dataset(world.base, tmp_path, "base")
    doc = json.loads((tmp_path / "base.manifest.json").read_text())
    doc["d"] = doc["d"] + 1
    (tmp_path / "base.manifest.json").write_text(json.dumps(doc))
    with pytest.raises(datagen.DatasetFormatError, match="size mismatch"):
        datagen.load_embeddings(manifest)


def test_unknown_label_rejected(tmp_path):
    world = datagen.generate_world(spec(seed=4))
    manifest = datagen.save_dataset(world.base, tmp_path, "base")
    labels_path = tmp_path / "base.labels.txt"
    lines = labels_path.read_text().splitlines()
    lines[0] = "999"
    labels_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(datagen.DatasetFormatError, match="unknown class ids"):
        datagen.load_embeddings(manifest)


def test_world_roundtrip(tmp_path):
    world = datagen.generate_world(spec(seed=7))
    datagen.save_world(world, tmp_path)
    loaded = datagen.load_world(tmp_path)
    assert loaded.base.embeddings.tobytes() == world.base.embeddings.tobytes()
    assert loaded.novel.embeddings.tobytes() == world.novel.embeddings.tobytes()
    np.testing.assert_array_equal(loaded.knowledge.association, world.knowledge.association)
    np.testing.assert_allclose(loaded.centers, world.centers)
    assert loaded.spec == world.spec
