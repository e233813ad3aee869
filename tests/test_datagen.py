"""Synthetic world generator properties and the manifest/payload formats."""

import json
import re

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
    assert novel_ids == set(range(world.knowledge.num_classes)) - base_ids


def test_class_index_matches_label_scans_and_is_read_only():
    world = datagen.generate_world(spec())
    rng = np.random.default_rng(3)
    shuffled = rng.permutation(world.novel.labels)  # classes interleaved
    datasets = (world.base, world.novel,
                datagen.FewShotDataset(world.novel.embeddings, shuffled))
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
    base_var = kn.average_cluster_variance(world.base.embeddings, world.base.labels)
    novel_var = kn.average_cluster_variance(world.novel.embeddings, world.novel.labels)
    assert novel_var > base_var


def test_worldspec_validation():
    with pytest.raises(ValueError, match="dropout_rate"):
        spec(dropout_rate=1.0)
    with pytest.raises(ValueError, match="fit the vocabulary"):
        spec(attributes_per_class=(3, 99))
    with pytest.raises(ValueError, match="at least 1"):
        spec(num_base_classes=0)
    for name in ("noise_std", "novel_noise_std", "offset_std"):
        for value in (np.nan, np.inf, -np.inf, -0.1):
            with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative, "
                                                 f"got {value}$"):
                spec(**{name: value})


# --- file formats ------------------------------------------------------------

def test_dataset_roundtrip_bit_exact(tmp_path):
    world = datagen.generate_world(spec(seed=4))
    manifest = datagen.save_dataset(world.base, tmp_path)
    loaded = datagen.load_embeddings(manifest)
    assert loaded.embeddings.tobytes() == world.base.embeddings.tobytes()
    np.testing.assert_array_equal(loaded.labels, world.base.labels)


def test_truncated_payload_reports_byte_counts(tmp_path):
    world = datagen.generate_world(spec(seed=4))
    manifest = datagen.save_dataset(world.base, tmp_path)
    payload = tmp_path / "embeddings.f64le"
    data = payload.read_bytes()
    payload.write_bytes(data[:-16])
    # fix the checksum so the size check is what fires
    doc = json.loads((tmp_path / "embeddings.manifest.json").read_text())
    from protofuse.fileio import sha256_file
    doc["checksum"] = sha256_file(payload)
    (tmp_path / "embeddings.manifest.json").write_text(json.dumps(doc))
    with pytest.raises(datagen.DatasetFormatError,
                       match=rf"expected {world.base.n * world.base.dim * 8} bytes.*got "
                             rf"{world.base.n * world.base.dim * 8 - 16}"):
        datagen.load_embeddings(manifest)


def test_checksum_mismatch_rejected(tmp_path):
    world = datagen.generate_world(spec(seed=4))
    manifest = datagen.save_dataset(world.base, tmp_path)
    payload = tmp_path / "embeddings.f64le"
    data = bytearray(payload.read_bytes())
    data[0] ^= 0xFF
    payload.write_bytes(bytes(data))
    with pytest.raises(datagen.DatasetFormatError, match="checksum mismatch"):
        datagen.load_embeddings(manifest)


def test_dimension_disagreement_rejected(tmp_path):
    world = datagen.generate_world(spec(seed=4))
    manifest = datagen.save_dataset(world.base, tmp_path)
    doc = json.loads((tmp_path / "embeddings.manifest.json").read_text())
    doc["d"] = doc["d"] + 1
    (tmp_path / "embeddings.manifest.json").write_text(json.dumps(doc))
    with pytest.raises(datagen.DatasetFormatError, match="size mismatch"):
        datagen.load_embeddings(manifest)


def test_unknown_label_rejected(tmp_path):
    world = datagen.generate_world(spec(seed=4))
    for label in ("999", "-1"):
        directory = tmp_path / label
        datagen.save_world(world, directory)
        labels_path = directory / "embeddings.labels.txt"
        lines = labels_path.read_text().splitlines()
        lines[3] = label
        labels_path.write_text("\n".join(lines) + "\n")
        manifest = re.escape(str(directory / "embeddings.manifest.json"))
        knowledge = re.escape(str(directory / "knowledge.json"))
        with pytest.raises(datagen.DatasetFormatError,
                           match=f"^{manifest}: label {label} is not a class id of {knowledge}$"):
            datagen.load_world(directory)


def test_world_roundtrip(tmp_path):
    world = datagen.generate_world(spec(seed=7))
    datagen.save_world(world, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "centers.json", "embeddings.f64le", "embeddings.labels.txt",
        "embeddings.manifest.json", "knowledge.json"]
    loaded = datagen.load_world(tmp_path)
    for side in ("base", "novel"):
        saved, again = getattr(world, side), getattr(loaded, side)
        assert again.embeddings.tobytes() == saved.embeddings.tobytes()
        np.testing.assert_array_equal(again.labels, saved.labels)
    np.testing.assert_array_equal(loaded.knowledge.association, world.knowledge.association)
    np.testing.assert_allclose(loaded.centers, world.centers)


@pytest.mark.parametrize("kept,missing", [("base", "novel"), ("novel", "base")])
def test_world_without_base_or_novel_samples_is_rejected(tmp_path, kept, missing):
    world = datagen.generate_world(spec(seed=4))
    datagen.save_world(world, tmp_path)
    datagen.save_dataset(getattr(world, kept), tmp_path)
    manifest, knowledge = tmp_path / "embeddings.manifest.json", tmp_path / "knowledge.json"
    with pytest.raises(datagen.DatasetFormatError,
                       match=f"^{re.escape(str(manifest))}: no sample of a {missing} class "
                             f"of {re.escape(str(knowledge))}$"):
        datagen.load_world(tmp_path)


def test_legacy_names_split_tags_and_class_lists_are_ignored(tmp_path):
    world = datagen.generate_world(spec(seed=4))
    datagen.save_world(world, tmp_path)
    knowledge = tmp_path / "knowledge.json"
    doc = json.loads(knowledge.read_text())
    for what in ("classes", "attributes"):
        for entry in doc[what]:
            entry["name"] = f"{what}_{entry['id']}"
    knowledge.write_text(json.dumps(doc))
    manifest = tmp_path / "embeddings.manifest.json"
    doc = json.loads(manifest.read_text())
    doc.update(split="novel-val", classes=[0])
    manifest.write_text(json.dumps(doc))
    loaded = datagen.load_world(tmp_path)
    for side in ("base", "novel"):
        saved, again = getattr(world, side), getattr(loaded, side)
        assert again.embeddings.tobytes() == saved.embeddings.tobytes()
        np.testing.assert_array_equal(again.labels, saved.labels)
    assert loaded.knowledge.base_class_ids == world.knowledge.base_class_ids
    np.testing.assert_array_equal(loaded.knowledge.association, world.knowledge.association)


def _rewrite_payload_row_with_nan(directory, dataset, row):
    """Overwrite one value of ``row`` of a saved payload with NaN and fix the
    manifest's checksum, so the finiteness check is what fires."""
    from protofuse.fileio import sha256_file
    embeddings = dataset.embeddings.copy()
    embeddings[row, 1] = np.nan
    payload = directory / "embeddings.f64le"
    payload.write_bytes(embeddings.astype("<f8").tobytes())
    manifest = directory / "embeddings.manifest.json"
    doc = json.loads(manifest.read_text())
    doc["checksum"] = sha256_file(payload)
    manifest.write_text(json.dumps(doc))
    return manifest


def test_non_finite_embedding_is_rejected_naming_its_row(tmp_path):
    world = datagen.generate_world(spec(seed=4))
    for bad in (np.nan, np.inf, -np.inf):
        embeddings = world.novel.embeddings.copy()
        embeddings[5, 2] = bad
        embeddings[9, 0] = bad
        with pytest.raises(ValueError, match="^embedding row 5 is not finite$"):
            datagen.FewShotDataset(embeddings, world.novel.labels)
    datagen.save_dataset(world.novel, tmp_path)
    manifest = _rewrite_payload_row_with_nan(tmp_path, world.novel, 7)
    with pytest.raises(datagen.DatasetFormatError,
                       match=f"^{re.escape(str(manifest))}: embedding row 7 is not finite$"):
        datagen.load_embeddings(manifest)


def _rewrite_centers(directory, change):
    path = directory / "centers.json"
    doc = json.loads(path.read_text())
    centers = np.array(doc["centers"])
    centers = change(centers)
    doc.update(centers=centers.tolist())
    path.write_text(json.dumps(doc))  # json writes NaN as a bare NaN token
    return re.escape(str(path))


def test_centers_must_fit_the_world(tmp_path):
    world = datagen.generate_world(spec(seed=7))
    cases = {
        "wide": (lambda c: np.hstack([c, np.ones((c.shape[0], 1))]),
                 re.escape("centers must be a matrix of 12-d rows like the embeddings, "
                           "got (10, 13)")),
        "vector": (lambda c: c[0],
                   re.escape("centers must be a matrix of 12-d rows like the embeddings, "
                             "got (12,)")),
        "short": (lambda c: c[:-1], "no center row for class id 9"),
        "nan": (lambda c: np.where(np.arange(c.shape[0])[:, None] == 4, np.nan, c),
                "center row 4 is not finite"),
        "inf": (lambda c: np.where(np.arange(c.shape[0])[:, None] >= 2, np.inf, c),
                "center row 2 is not finite"),
    }
    for name, (change, message) in cases.items():
        directory = tmp_path / name
        datagen.save_world(world, directory)
        path = _rewrite_centers(directory, change)
        with pytest.raises(datagen.DatasetFormatError, match=f"^{path}: {message}$"):
            datagen.load_world(directory)
