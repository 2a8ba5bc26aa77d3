import dataclasses
import functools
import hashlib
import json
import re
import typing
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gsfloc.config import GRID_POINTS_MOST, RunConfig
from gsfloc.core import (
    FormatError,
    RigidTransform,
    SemanticPointCloud,
    ValidationError,
    one_hot_logits,
    pose_error,
    rot_z,
)
from gsfloc.descriptors import (
    ORDERS,
    TriangleDescriptor,
    build_index,
    query_index,
    triangle_table,
    triangulate,
)
from gsfloc import descriptors, matching, pipeline, scene_graph
from gsfloc.pipeline import (
    BUNDLE_FILES,
    STAGES,
    BuildError,
    build_map,
    load_map,
    localize,
    save_map,
    voxel_downsample,
)
from gsfloc.gsf import GpPopulation, fit_gsf, grid_probe
from gsfloc.scene_graph import build_scene_graph
from gsfloc.synth import (
    BenchmarkSpec,
    generate_mirrored_twin,
    generate_scene,
    run_benchmark,
    sample_query_poses,
    simulate_scan,
)
from gsfloc.wasserstein import w2_lower_bound, w2_squared

from conftest import pole_line_scene, rows, small_scene_spec, twin_scene_spec


@pytest.fixture(scope="module")
def scene(taxonomy_module):
    return generate_scene(small_scene_spec(seed=31), taxonomy_module)


@pytest.fixture(scope="module")
def taxonomy_module():
    from gsfloc.core import default_taxonomy

    return default_taxonomy()


@pytest.fixture(scope="module")
def ref_map(scene, taxonomy_module):
    cloud, _ = scene
    return build_map(cloud, taxonomy_module, RunConfig())


class TestBuildMap:
    def test_counts(self, ref_map):
        assert len(ref_map.centroids) == 20
        assert ref_map.fitted.tolist() == [True] * 20
        assert ref_map.populations.mu.shape == (20, 25, 12)
        k = ref_map.config.index.k_neighbors
        bound = len(ref_map.centroids) * k * (k - 1) // 2
        assert 0 < len(ref_map.index.table) <= bound

    def test_too_few_instances(self, taxonomy_module):
        rng = np.random.default_rng(0)
        labels = np.full(200, taxonomy_module.id_of("road"))
        cloud = SemanticPointCloud(
            rng.uniform(-10, 10, (200, 3)), labels, one_hot_logits(labels, 12)
        )
        with pytest.raises(BuildError, match="instances"):
            build_map(cloud, taxonomy_module, RunConfig())

    def test_bundle_round_trip(self, ref_map, tmp_path):
        d1, d2 = tmp_path / "bundle", tmp_path / "bundle2"
        save_map(ref_map, d1)
        again = load_map(d1)
        save_map(again, d2)
        assert (d1 / "index.gsfi").read_bytes() == (d2 / "index.gsfi").read_bytes()
        assert (d1 / "graph.json").read_text() == (d2 / "graph.json").read_text()
        pop, other = ref_map.populations, again.populations
        assert np.array_equal(again.fitted, ref_map.fitted)
        np.testing.assert_allclose(pop.mu, other.mu, rtol=1e-7, atol=1e-12)
        np.testing.assert_allclose(pop.Sigma, other.Sigma, rtol=1e-7, atol=1e-12)
        np.testing.assert_array_equal(pop.stability_weights, other.stability_weights)

    @pytest.mark.parametrize("nx, ny", [(64, 4), (256, 1)])
    def test_bundle_with_grid_at_cap_round_trip(self, scene, taxonomy_module, tmp_path,
                                                nx, ny):
        """A map built on a grid of GRID_POINTS_MOST points, ny set before nx,
        saves and loads back with its config."""
        cfg = RunConfig()
        cfg.apply_overrides([f"gsf.grid.ny={ny}", f"gsf.grid.nx={nx}"])
        built = build_map(scene[0], taxonomy_module, cfg)
        save_map(built, tmp_path)
        again = load_map(tmp_path)
        assert again.config == cfg
        assert again.populations.grid.shape == (GRID_POINTS_MOST, 3)
        assert again.populations.Sigma.shape[1:] == (GRID_POINTS_MOST, GRID_POINTS_MOST)

    def test_bundle_hash_mismatch_detected(self, ref_map, tmp_path):
        d = tmp_path / "tampered"
        save_map(ref_map, d)
        raw = bytearray((d / "index.gsfi").read_bytes())
        raw[-1] ^= 0xFF
        (d / "index.gsfi").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="hash mismatch"):
            load_map(d)

    def test_bundle_version_mismatch_detected(self, ref_map, tmp_path):
        # version 1 bundles kept config copies in graph.json and manifest.json
        d = tmp_path / "old"
        save_map(ref_map, d)
        manifest = json.loads((d / "manifest.json").read_text())
        manifest["version"] = 1
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="unsupported version 1"):
            load_map(d)

    def test_version_3_bundle_refused(self, ref_map, tmp_path):
        """Version 3 also stored each population's grid and stability weights."""
        save_map(ref_map, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["version"] == 5
        manifest["version"] = 3
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="unsupported version 3"):
            load_map(tmp_path)

    def test_version_4_bundle_refused(self, ref_map, tmp_path):
        """Version 4 stored each population as its own pair of arrays."""
        save_map(ref_map, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["version"] = 4
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="unsupported version 4"):
            load_map(tmp_path)

    def test_config_stored_once(self, ref_map, tmp_path):
        save_map(ref_map, tmp_path)
        assert "config" not in json.loads((tmp_path / "graph.json").read_text())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest) == ["files", "format", "version"]
        meta = json.loads((tmp_path / "config.json").read_text())
        assert meta["config"] == ref_map.config.to_dict()

    @pytest.mark.parametrize("width", [11, 13])
    def test_logit_width_mismatch_rejected(self, scene, taxonomy_module, width):
        cloud, _ = scene
        logits = np.hstack([cloud.logits, np.zeros((cloud.n, 1))])[:, :width]
        with pytest.raises(ValidationError,
                           match=f"{width} logit columns; the taxonomy has 12 classes"):
            build_map(SemanticPointCloud(cloud.points, cloud.labels, logits),
                      taxonomy_module, RunConfig())

    @pytest.mark.parametrize("defect, message", [
        ("emptied-files", "must list exactly graph.json, index.gsfi, populations.npz"),
        ("no-files", "manifest.json has no files map"),
        ("not-json", "manifest.json line 1"),
        ("missing-file", "populations.npz not found"),
    ])
    def test_bundle_manifest_defects_detected(self, ref_map, tmp_path, defect, message):
        d = tmp_path / defect
        save_map(ref_map, d)
        manifest = json.loads((d / "manifest.json").read_text())
        if defect == "emptied-files":
            # with the index unchecked, a tampered index would otherwise load
            manifest["files"] = {}
            raw = bytearray((d / "index.gsfi").read_bytes())
            raw[-1] ^= 0xFF
            (d / "index.gsfi").write_bytes(bytes(raw))
        elif defect == "no-files":
            del manifest["files"]
        elif defect == "missing-file":
            (d / "populations.npz").unlink()
        text = json.dumps(manifest) if defect != "not-json" else "{not json"
        (d / "manifest.json").write_text(text)
        with pytest.raises(FormatError, match=message):
            load_map(d)


def _rewrite_bundle_file(d, name, data: bytes):
    """Replace one bundle file and record its hash in the manifest, so that
    only the content check of the file itself can catch the defect."""
    (d / name).write_bytes(data)
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["files"][name] = hashlib.sha256(data).hexdigest()
    (d / "manifest.json").write_text(json.dumps(manifest))


def _edit_npz_array(d, name, suffix, edit) -> str:
    """Apply `edit(arrays, key)` to the first array of `name` whose key, led by
    an underscore, ends with `suffix` ("_mu" picks "mu"), rewrite the file and
    its hash; returns the key."""
    with np.load(d / name) as buf:
        arrays = {k: buf[k] for k in buf.files}
    key = next(k for k in sorted(arrays) if f"_{k}".endswith(suffix))
    edit(arrays, key)
    np.savez_compressed(d / name, **arrays)
    _rewrite_bundle_file(d, name, (d / name).read_bytes())
    return key


def _drop(arrays, key):
    del arrays[key]


def _poison(arrays, key):
    arrays[key] = arrays[key].copy()
    arrays[key].flat[0] = np.nan


class TestBundleArrays:
    """A bundle whose npz files break with the manifest still consistent."""

    @pytest.mark.parametrize("name", ["populations.npz"])
    def test_truncated_npz_detected(self, ref_map, tmp_path, name):
        save_map(ref_map, tmp_path)
        raw = (tmp_path / name).read_bytes()
        _rewrite_bundle_file(tmp_path, name, raw[: len(raw) // 2])
        with pytest.raises(FormatError, match=f"{name}: unreadable"):
            load_map(tmp_path)

    @pytest.mark.parametrize("name, suffix", [("populations.npz", "_mu")])
    def test_missing_array_detected(self, ref_map, tmp_path, name, suffix):
        save_map(ref_map, tmp_path)
        key = _edit_npz_array(tmp_path, name, suffix, _drop)
        with pytest.raises(FormatError, match=f"{name}: array '{key}' missing"):
            load_map(tmp_path)

    @pytest.mark.parametrize("name, suffix", [("populations.npz", "_mu")])
    def test_non_finite_array_detected(self, ref_map, tmp_path, name, suffix):
        save_map(ref_map, tmp_path)
        key = _edit_npz_array(tmp_path, name, suffix, _poison)
        with pytest.raises(FormatError, match=f"{name}: array '{key}' holds non-finite"):
            load_map(tmp_path)

    def test_stores_only_means_and_covariances(self, ref_map, tmp_path):
        """The grid and the stability weights are rebuilt on load, bit-equal to
        the built map's; the bundle stores neither."""
        save_map(ref_map, tmp_path)
        with np.load(tmp_path / "populations.npz") as buf:
            assert sorted(buf.files) == ["Sigma", "ids", "mu"]
            assert buf["ids"].tolist() == list(range(20))
            assert buf["mu"].shape == (20, 25, 12) and buf["Sigma"].shape == (20, 25, 25)
        again = load_map(tmp_path)
        for part in ("grid", "mu", "Sigma", "stability_weights"):
            assert np.array_equal(getattr(again.populations, part),
                                  getattr(ref_map.populations, part))

    @pytest.mark.parametrize("failed", [[6], list(range(20))], ids=["one-failed", "all-failed"])
    def test_layout_round_trip(self, ref_map, tmp_path, failed):
        """With fits failed, saved and loaded, the fitted mask and every array of
        the table equal the built ones, NaN rows where a fit failed; ids, mu and
        Sigma hold the fitted rows as whole arrays, P = 0 included."""
        built = _fail(ref_map, failed)
        pops = built.populations
        save_map(built, tmp_path)
        kept = [i for i in range(20) if i not in failed]
        with np.load(tmp_path / "populations.npz") as buf:
            assert buf["ids"].dtype == np.int64 and buf["ids"].tolist() == kept
            assert np.array_equal(buf["mu"], np.array([pops[i].mu for i in kept]).reshape(
                -1, 25, 12))
            assert np.array_equal(buf["Sigma"], np.array([pops[i].Sigma for i in kept]).reshape(
                -1, 25, 25))
        again = load_map(tmp_path)
        assert np.array_equal(again.fitted, built.fitted)
        assert again.fitted.tolist() == [i not in failed for i in range(20)]
        assert np.array_equal(again.populations.grid, pops.grid)
        for part in ("mu", "Sigma", "stability_weights"):
            assert np.array_equal(getattr(again.populations, part), getattr(pops, part),
                                  equal_nan=True)
            assert np.isnan(getattr(again.populations, part)[failed]).all()

    @pytest.mark.parametrize("edit, says", [
        (lambda ids: ids[:, None], "int64 ids of shape (20, 1)"),
        (lambda ids: ids.astype(np.float64), "float64 ids of shape (20,)"),
        (lambda ids: ids[::-1].copy(), "int64 ids of shape (20,)"),
        (lambda ids: np.sort(np.append(ids[:-1], 4)), "int64 ids of shape (20,)"),
        (lambda ids: np.int64(0), "int64 ids of shape ()"),
        (lambda ids: ids > 0, "bool ids of shape (20,)"),
    ], ids=["column", "float", "descending", "duplicate", "scalar", "bool"])
    def test_ids_not_one_ascending_row_refused(self, ref_map, tmp_path, edit, says):
        """ids must be one strictly ascending row of integers; a column of
        them once failed inside `load_map` with a bare TypeError."""
        def change(arrays, key):
            arrays[key] = edit(arrays[key])

        save_map(ref_map, tmp_path)
        _edit_npz_array(tmp_path, "populations.npz", "ids", change)
        with pytest.raises(FormatError, match=r"populations\.npz ids must be one strictly "
                                              r"ascending row of integers") as err:
            load_map(tmp_path)
        assert f"it holds {says}" in str(err.value)

    @pytest.mark.parametrize("which, part, value", [
        ("first", "w", lambda pop: np.zeros(len(pop.mu))),
        ("all", "w", lambda pop: np.full(len(pop.mu), 0.3)),
        ("first", "grid", lambda pop: pop.grid[:3]),
    ], ids=["first-weights-zero", "all-weights-0.3", "grid-three-rows"])
    def test_arrays_it_rebuilds_are_not_read(self, scene, ref_map, tmp_path, which, part,
                                             value):
        """A bundle that also holds weights or a grid, wrong ones, loads the
        rebuilt arrays and localizes as the built map does."""
        def add(arrays, ids_key):
            ids = arrays[ids_key].tolist()
            for i in ids if which == "all" else ids[:1]:
                arrays[f"pop{i}_{part}"] = value(ref_map.populations[i])

        save_map(ref_map, tmp_path)
        _edit_npz_array(tmp_path, "populations.npz", "ids", add)
        again = load_map(tmp_path)
        assert np.array_equal(again.populations.grid, ref_map.populations.grid)
        assert np.array_equal(again.populations.stability_weights,
                              ref_map.populations.stability_weights)
        pose = sample_query_poses(1, seed=7, half=15.0)[0]
        scan = simulate_scan(scene[0], pose, 60.0, 0.3, 0.03, seed=42)
        got = localize(scan, again).to_dict(include_timings=False)
        assert got["status"] == "success"
        assert got == localize(scan, ref_map).to_dict(include_timings=False)

    @pytest.mark.parametrize("part, edit, shape", [
        ("mu", lambda a: a[..., :11], "(20, 25, 11)"),
        ("mu", lambda a: a[:, :3], "(20, 3, 12)"),
        ("Sigma", lambda a: a[..., :24], "(20, 25, 24)"),
        ("Sigma", lambda a: a[:, 0], "(20, 25)"),
        ("mu", lambda a: a[:-1], "(19, 25, 12)"),
        ("Sigma", lambda a: a[0], "(25, 25)"),
    ], ids=["mu-11-columns", "mu-3-rows", "Sigma-24-columns", "Sigma-one-row",
            "mu-row-short-of-ids", "Sigma-one-population"])
    def test_population_shape_mismatch_detected(self, ref_map, tmp_path, part, edit, shape):
        def cut(arrays, key):
            arrays[key] = edit(arrays[key])

        save_map(ref_map, tmp_path)
        key = _edit_npz_array(tmp_path, "populations.npz", f"_{part}", cut)
        with pytest.raises(FormatError, match=r"populations\.npz holds mu of shape") as err:
            load_map(tmp_path)
        assert f"{key} of shape {shape}" in str(err.value)
        assert "need (20, 25, 12) and (20, 25, 25)" in str(err.value)


def _edit_json(d, name, edit):
    """Apply `edit(doc)` to the parsed JSON file `name`; a returned string
    replaces the file's text. Rewrites the file and its hash."""
    doc = json.loads((d / name).read_text())
    text = edit(doc)
    _rewrite_bundle_file(d, name, (text if isinstance(text, str) else json.dumps(doc)).encode())


def _drop_last_three(doc):
    del doc["instances"][-3:]


def _swap_first_two(doc):
    doc["instances"][:2] = doc["instances"][1::-1]


def _nan_centroid(doc):
    doc["instances"][4]["centroid"][1] = float("nan")


class TestBundleJson:
    """A bundle whose JSON files break, or disagree with the other files, with
    the manifest still consistent."""

    @pytest.mark.parametrize("name, edit, message", [
        ("config.json", lambda doc: "{not json", "config.json line 1: Expecting"),
        ("config.json", lambda doc: doc.pop("taxonomy"),
         "config.json needs a config and a taxonomy section"),
        ("graph.json", lambda doc: doc.pop("instances"), "graph.json: no instances list"),
        ("graph.json", lambda doc: doc["instances"][2].pop("id"),
         "graph.json: instance record 2 lacks id or centroid"),
        ("graph.json", lambda doc: doc["instances"][2].pop("centroid"),
         "graph.json: instance record 2 lacks id or centroid"),
        ("config.json", lambda doc: doc["config"]["gsf"].update(kappa="big"),
         "config.json: config key 'gsf.kappa' expects a number"),
        ("config.json", lambda doc: doc.update(taxonomy=list(doc["taxonomy"].values())),
         "config.json: taxonomy must be a non-empty object"),
        ("config.json", lambda doc: doc.update(taxonomy={}),
         "config.json: taxonomy must be a non-empty object"),
        ("config.json", lambda doc: doc["taxonomy"]["7"].pop("stability"),
         "config.json: taxonomy field 7.stability is required"),
    ], ids=["config-not-json", "config-no-taxonomy", "graph-no-instances", "record-no-id",
            "record-no-centroid", "config-value-mistyped", "taxonomy-list", "taxonomy-empty",
            "class-no-stability"])
    def test_malformed_json_detected(self, ref_map, tmp_path, name, edit, message):
        save_map(ref_map, tmp_path)
        _edit_json(tmp_path, name, edit)
        with pytest.raises(FormatError, match=message):
            load_map(tmp_path)

    @pytest.mark.parametrize("edit, message", [
        (_swap_first_two, "graph.json: instance ids must be 0..K-1 in list order; "
                          "record 0 has id 1"),
        (_drop_last_three, "index.gsfi names instance 17, which graph.json does not hold"),
        (_nan_centroid, "graph.json: instance 4 centroid is not three finite numbers"),
    ], ids=["ids-out-of-order", "instances-dropped", "nan-centroid"])
    def test_graph_disagreeing_with_bundle_detected(self, ref_map, tmp_path, edit, message):
        save_map(ref_map, tmp_path)
        _edit_json(tmp_path, "graph.json", edit)
        with pytest.raises(FormatError, match=message):
            load_map(tmp_path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["taxonomy"].update({"12": doc["taxonomy"].pop("11")}),
         r"config.json: taxonomy class ids must be 0\.\.11"),
        (lambda doc: doc["taxonomy"]["8"].update(name="sign"),
         "config.json: cluster threshold for unknown class 'traffic-sign'"),
        (lambda doc: doc["config"]["cluster"]["thresholds"].update(lamp=0.5),
         "config.json: cluster threshold for unknown class 'lamp'"),
    ], ids=["class-id-gap", "class-renamed", "threshold-unknown-class"])
    def test_config_disagreeing_with_itself_detected(self, ref_map, tmp_path, edit, message):
        """A config.json whose taxonomy skips a logit column, or whose cluster
        thresholds name a class the taxonomy lacks, is refused on load, not at
        the first query with a ValidationError (exit 2)."""
        save_map(ref_map, tmp_path)
        _edit_json(tmp_path, "config.json", edit)
        with pytest.raises(FormatError, match=message):
            load_map(tmp_path)

    def test_index_delta_d_disagreeing_with_config_detected(self, ref_map, tmp_path):
        """index.gsfi keeps the delta_d it was built with; one other than
        config.json's index.delta_d is refused, not used for the lookup."""
        save_map(ref_map, tmp_path)
        raw = bytearray((tmp_path / "index.gsfi").read_bytes())
        raw[8:16] = np.float64(5.0).tobytes()
        _rewrite_bundle_file(tmp_path, "index.gsfi", bytes(raw))
        with pytest.raises(FormatError, match="index.gsfi was built with delta_d 5.0; "
                                              "config.json's index.delta_d is 0.5"):
            load_map(tmp_path)

    def test_population_of_unknown_instance_detected(self, ref_map, tmp_path):
        def add_population(arrays, key):
            arrays[key] = np.append(arrays[key], 20)
            for part in ("mu", "Sigma"):
                arrays[part] = np.concatenate([arrays[part], arrays[part][:1]])

        save_map(ref_map, tmp_path)
        _edit_npz_array(tmp_path, "populations.npz", "ids", add_population)
        with pytest.raises(FormatError,
                           match="populations.npz names instance 20, which graph.json does not"):
            load_map(tmp_path)

    def test_bundle_files(self, ref_map, tmp_path):
        save_map(ref_map, tmp_path)
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
            [*BUNDLE_FILES, "manifest.json"])
        doc = json.loads((tmp_path / "graph.json").read_text())
        assert doc["version"] == 3
        assert all(sorted(rec) == ["centroid", "id"] for rec in doc["instances"])


def _disjoint_scan(taxonomy):
    """A scan of a sparse scene that shares no layout with the map."""
    from gsfloc.synth import InstanceTemplate, SceneSpec

    sparse = SceneSpec(
        extent=70,
        templates=[InstanceTemplate("pole", 3, 140), InstanceTemplate("car", 2, 260),
                   InstanceTemplate("trunk", 2, 160)],
        seed=777,
    )
    other, _ = generate_scene(sparse, taxonomy)
    pose = sample_query_poses(1, seed=8, half=10.0)[0]
    return simulate_scan(other, pose, range_max=40.0, seed=1)


class TestEmptyMatch:
    """The batched match stage on its empty edges: each query ends without an
    exception and with no match, with the GSF filter on and off."""

    @staticmethod
    def _scan(scene):
        cloud, _ = scene
        return simulate_scan(cloud, sample_query_poses(1, seed=7, half=15.0)[0],
                             range_max=60.0, dropout_rate=0.3, noise_sigma=0.03, seed=42)

    @staticmethod
    def _localize(scan, ref, use_gsf):
        cfg = RunConfig.from_dict(ref.config.to_dict())
        cfg.pipeline.use_gsf_filter = use_gsf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # triangulation warns on a graph under 3
            return localize(scan, ref, cfg)

    @staticmethod
    def _assert_no_match(res):
        assert res.status == "no-match" and res.pose is None
        assert res.candidates_after_filter == res.clique_size == res.inlier_count == 0
        assert len(res.inliers) == 0 and res.timings_ms["solve"] == 0.0

    @pytest.mark.parametrize("use_gsf", [True, False], ids=["gsf", "plain"])
    def test_zero_query_triangles(self, scene, ref_map, taxonomy_module, use_gsf):
        scan = self._scan(scene)
        road = scan.labels == taxonomy_module.id_of("road")
        scan = SemanticPointCloud(scan.points[road], scan.labels[road], scan.logits[road])
        res = self._localize(scan, ref_map, use_gsf)
        assert res.triangles_queried == 0
        self._assert_no_match(res)

    @pytest.mark.parametrize("use_gsf", [True, False], ids=["gsf", "plain"])
    @pytest.mark.parametrize("stored", [[], [TriangleDescriptor(0, (0, 1, 2),
                                                                (90.0, 91.0, 92.0), (4, 4, 4))]],
                             ids=["empty-index", "far-index"])
    def test_zero_coarse_candidates(self, scene, ref_map, use_gsf, stored):
        scan = self._scan(scene)
        ref = dataclasses.replace(ref_map, index=build_index(stored, ref_map.index.delta_d))
        res = self._localize(scan, ref, use_gsf)
        assert res.triangles_queried > 0
        self._assert_no_match(res)

    @pytest.mark.parametrize("use_gsf", [True, False], ids=["gsf", "plain"])
    def test_every_candidate_skipped(self, scene, ref_map, use_gsf):
        """No map instance has a population: the filter skips every candidate.
        With it off no population is read, so the same query still localizes."""
        scan = self._scan(scene)
        ref = _fail(ref_map, list(range(20)))
        res = self._localize(scan, ref, use_gsf)
        assert res.triangles_queried > 0
        if use_gsf:
            self._assert_no_match(res)
        else:
            assert res.status == "success"


class TestTriangleTable:
    def test_pipeline_builds_no_descriptor_object(self, scene, taxonomy_module, tmp_path,
                                                   monkeypatch):
        """Map building, the bundle and both match paths run on triangle
        tables alone: with `TriangleDescriptor` unconstructible, a map is built,
        saved and loaded, and a query localizes with the GSF filter on and off,
        to the pose of the unpatched code."""
        cloud, _ = scene
        pose = sample_query_poses(1, seed=7, half=15.0)[0]
        scan = simulate_scan(cloud, pose, range_max=60.0, dropout_rate=0.3,
                             noise_sigma=0.03, seed=42)
        want = [localize(scan, build_map(cloud, taxonomy_module, RunConfig()), cfg)
                for cfg in (_gsf(True), _gsf(False))]

        def refuse(self, *args, **kwargs):
            raise AssertionError("a TriangleDescriptor was constructed")

        monkeypatch.setattr(TriangleDescriptor, "__init__", refuse)
        with pytest.raises(AssertionError, match="constructed"):
            TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (7, 7, 7))
        save_map(build_map(cloud, taxonomy_module, RunConfig()), tmp_path / "bundle")
        ref = load_map(tmp_path / "bundle")
        for cfg, before in zip((_gsf(True), _gsf(False)), want):
            res = localize(scan, ref, cfg)
            assert res.status == before.status == "success"
            assert res.to_dict(include_timings=False) == before.to_dict(include_timings=False)


def _gsf(on: bool) -> RunConfig:
    """The default config with the GSF filter on or off."""
    cfg = RunConfig()
    cfg.pipeline.use_gsf_filter = on
    return cfg


class TestLocalize:
    def test_transformed_window_success(self, scene, ref_map):
        cloud, _ = scene
        pose = sample_query_poses(1, seed=7, half=15.0)[0]
        scan = simulate_scan(cloud, pose, range_max=60.0, dropout_rate=0.3,
                             noise_sigma=0.03, seed=42)
        res = localize(scan, ref_map)
        assert res.status == "success"
        te, re = pose_error(res.pose, pose)
        assert te <= 0.5 and re <= 2.0
        assert res.inlier_count >= 3

    def test_disjoint_scene_no_match(self, ref_map, taxonomy_module):
        res = localize(_disjoint_scan(taxonomy_module), ref_map)
        assert res.status in ("no-match", "degenerate")
        assert res.pose is None

    def test_determinism(self, scene, ref_map):
        cloud, _ = scene
        pose = sample_query_poses(1, seed=9, half=15.0)[0]
        scan = simulate_scan(cloud, pose, 60.0, 0.3, 0.03, seed=5)
        a = localize(scan, ref_map).to_dict(include_timings=False)
        b = localize(scan, ref_map).to_dict(include_timings=False)
        assert a == b

    def test_gsf_toggle_recorded_and_still_localizes(self, scene, ref_map, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a field fitted or probed with the GSF filter off")

        # nothing reads the query fields or populations with the filter off:
        # no probe stage, and no field fitted
        monkeypatch.setattr(pipeline, "grid_probe", refuse)
        monkeypatch.setattr(scene_graph, "fit_gsf", refuse)
        cloud, _ = scene
        pose = sample_query_poses(1, seed=10, half=15.0)[0]
        scan = simulate_scan(cloud, pose, 60.0, 0.3, 0.03, seed=6)
        cfg = RunConfig()
        cfg.pipeline.use_gsf_filter = False
        res = localize(scan, ref_map, cfg)
        assert res.gsf_filter_used is False and res.timings_ms["probe"] == 0.0
        # unique scene: centroid-only pipeline still finds the pose
        assert res.status == "success"
        te, _ = pose_error(res.pose, pose)
        assert te <= 0.5

    def test_fields_fitted_and_probed_one_at_a_time(self, scene, ref_map, taxonomy_module,
                                                   monkeypatch):
        """Map and query probe each field right after fitting it, before the
        next fit, so the fields are never held together."""
        events = []
        monkeypatch.setattr(scene_graph, "fit_gsf",
                            lambda *a, **k: events.append("fit") or fit_gsf(*a, **k))
        monkeypatch.setattr(pipeline, "grid_probe",
                            lambda *a, **k: events.append("probe") or grid_probe(*a, **k))
        cloud, _ = scene
        build_map(cloud, taxonomy_module, RunConfig())
        assert events == ["fit", "probe"] * 20
        events.clear()
        pose = sample_query_poses(1, seed=7, half=15.0)[0]
        localize(simulate_scan(cloud, pose, 60.0, 0.3, 0.03, seed=42), ref_map)
        assert len(events) > 10 and events == ["fit", "probe"] * (len(events) // 2)

    def test_success_inliers_pairwise_consistent(self, scene, ref_map):
        from gsfloc.matching import Correspondence, consistency_check

        cloud, _ = scene
        pose = sample_query_poses(1, seed=11, half=15.0)[0]
        scan = simulate_scan(cloud, pose, 60.0, 0.3, 0.03, seed=7)
        cfg = ref_map.config
        res = localize(scan, ref_map)
        assert res.status == "success"
        qcloud = voxel_downsample(scan, cfg.pipeline.query_voxel)
        qgraph = build_scene_graph(qcloud, ref_map.taxonomy, cfg)
        ins = res.inliers
        pairs = [Correspondence(*r) for r in zip(ins.query_ids.tolist(), ins.map_ids.tolist(),
                                                 ins.omegas.tolist(), ins.supports.tolist())]
        for i, a in enumerate(pairs):
            for b in pairs[i + 1:]:
                assert consistency_check(a, b, qgraph.centroids, ref_map.centroids,
                                         cfg.matching.epsilon)

    def test_map_instance_without_field(self, scene, ref_map, taxonomy_module):
        """A map instance without a population, as `load_map` gives for an id
        that `populations.npz` does not list: the match stage skips its
        candidates with a warning, its pairs stay out of the W2 table and the
        self-tuned median, and the query still localizes."""
        pose, scan, qgraph, probes, cand_lists = _street_query(scene, ref_map, taxonomy_module)
        index, cfg, pops_query = ref_map.index, ref_map.config, probes[1]
        touched = [m for _, cands in cand_lists for cid in cands
                   for m in index.table.vertex_ids[cid].tolist()]
        gone = max(set(touched), key=touched.count)
        holed = _fail(ref_map, [gone])

        with pytest.warns(UserWarning, match=rf"map instances \[{gone}\] lack fields; candidate"):
            kept, w2, sim = _w2_table_lists(cand_lists, probes, holed, cfg)
        assert [cands for _, cands in kept] == [
            [cid for cid in cands if gone not in index.table.vertex_ids[cid].tolist()]
            for _, cands in cand_lists]
        canonical = {(q, m) for d, cands in kept for cid in cands
                     for q, m in zip(d.vertex_ids, index.table.vertex_ids[cid].tolist())}
        ordered = {(d.vertex_ids[k], index.table.vertex_ids[cid].tolist()[perm[k]])
                   for d, cands in kept for cid in cands
                   for perm in _stored_orders(index, cid) for k in range(3)}
        assert set(w2) == canonical | ordered
        median = float(np.median([
            np.min(w2_squared(pops_query[q], holed.populations[m], cfg.sim.use_stability))
            for q, m in canonical]))
        assert sim.accept_threshold == 3.0 * median

        with pytest.warns(UserWarning, match=rf"map instances \[{gone}\] lack fields"):
            res = localize(scan, holed)
        assert res.status == "success"
        assert gone not in res.inliers.map_ids
        te, re = pose_error(res.pose, pose)
        assert te <= 0.5 and re <= 2.0

    def test_query_instance_without_field(self, scene, ref_map, taxonomy_module, monkeypatch):
        """A query instance without a population, as a failed fit leaves it:
        the match stage skips every triangle on it with a warning and scores
        the rest. Its NaN row never reaches `pair_w2`, and every value the
        filter reads from the W2 table under a stored vertex order is finite."""
        _, _, qgraph, probes, cand_lists = _street_query(scene, ref_map, taxonomy_module)
        touched = [q for d, cands in cand_lists if cands for q in d.vertex_ids]
        gone = max(set(touched), key=touched.count)
        holed = _fail_rows(*probes, [gone])
        assert np.isnan(holed[1].mu[gone]).all()
        scored, tables = [], []

        def spy(qids, mids, *args):
            scored.extend(qids.tolist())
            return descriptors.pair_w2(qids, mids, *args)

        def read(table, kept, index, w2, cfg):
            qv = table.vertex_ids[kept[:, 0]][:, None, :]
            mv = index.table.vertex_ids[kept[:, 1]][:, ORDERS]
            tables.append(w2[qv, mv][index.order_mask[kept[:, 1]]])
            return descriptors.gsf_filter(table, kept, index, w2, cfg)

        monkeypatch.setattr(pipeline, "pair_w2", spy)
        monkeypatch.setattr(pipeline, "gsf_filter", read)
        with pytest.warns(UserWarning, match=rf"query instances \[{gone}\] lack fields; "
                                             "candidates skipped"):
            kept, w2, _ = _w2_table_lists(cand_lists, holed, ref_map, ref_map.config)
        assert [cands for _, cands in kept] == [
            [] if gone in d.vertex_ids else cands for d, cands in cand_lists]
        assert all(q != gone for q, _ in w2)
        with pytest.warns(UserWarning, match=rf"query instances \[{gone}\] lack fields"):
            _, matches = pipeline._match(qgraph, holed, ref_map, ref_map.config)
        assert len(matches) and gone not in matches.pairs[..., 0]
        assert scored and gone not in scored
        assert len(tables) == 1 and tables[0].size and np.isfinite(tables[0]).all()

    def test_one_skip_warning_per_side(self, scene, ref_map, taxonomy_module):
        """One query and one map instance without a field: the match stage warns
        once per side, naming the instance and the number of triangles or
        candidates it skips, not once per skipped triangle or candidate."""
        _, _, qgraph, probes, cand_lists = _street_query(scene, ref_map, taxonomy_module)
        vertex_ids = ref_map.index.table.vertex_ids
        touched = [q for d, cands in cand_lists if cands for q in d.vertex_ids]
        gone_q = max(set(touched), key=touched.count)
        rest = [cands for d, cands in cand_lists if gone_q not in d.vertex_ids]
        touched = [m for cands in rest for cid in cands for m in vertex_ids[cid].tolist()]
        gone_m = max(set(touched), key=touched.count)
        triangles = sum(gone_q in d.vertex_ids for d, _ in cand_lists)
        candidates = sum(gone_m in vertex_ids[cid] for cands in rest for cid in cands)
        assert triangles > 1 and candidates > 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pipeline._match(qgraph, _fail_rows(*probes, [gone_q]), _fail(ref_map, [gone_m]),
                            ref_map.config)
        assert [str(w.message) for w in caught] == [
            f"query instances [{gone_q}] lack fields; candidates skipped on {triangles} "
            "triangles",
            f"map instances [{gone_m}] lack fields; candidates skipped: {candidates}",
        ]

    def test_localizes_without_correspondence_objects(self, scene, ref_map, monkeypatch):
        """From the match record to the result the stages read one correspondence
        table: a street query localizes with `Correspondence` refusing to be built."""
        def refuse(self, *args, **kwargs):
            raise AssertionError("a Correspondence was built")

        monkeypatch.setattr(matching.Correspondence, "__init__", refuse)
        cloud, _ = scene
        pose = sample_query_poses(1, seed=11, half=15.0)[0]
        res = localize(simulate_scan(cloud, pose, 60.0, 0.3, 0.03, seed=7), ref_map)
        assert res.status == "success" and len(res.inliers) == res.inlier_count >= 3
        assert isinstance(res.inliers, matching.CorrespondenceTable)

    def test_inlier_rows_are_json_values(self, scene, ref_map):
        """`to_dict` writes each inlier row as Python ints and a float, not the
        table's numpy scalars, and `json.dumps` takes the record."""
        cloud, _ = scene
        pose = sample_query_poses(1, seed=11, half=15.0)[0]
        res = localize(simulate_scan(cloud, pose, 60.0, 0.3, 0.03, seed=7), ref_map)
        rows = res.to_dict()["inliers"]
        assert len(rows) == res.inlier_count >= 3
        assert all([type(r[k]) for k in ("query", "map", "omega", "support")]
                   == [int, int, float, int] for r in rows)
        assert [r["map"] for r in rows] == res.inliers.map_ids.tolist()
        json.dumps(res.to_dict())

    @pytest.mark.parametrize("case", ["success", "empty-scan", "disjoint", "degenerate"])
    def test_every_exit(self, scene, ref_map, taxonomy_module, monkeypatch, case):
        from gsfloc.pose_solver import DegenerateGeometryError

        cloud, _ = scene
        scan = simulate_scan(cloud, sample_query_poses(1, seed=7, half=15.0)[0],
                             range_max=60.0, dropout_rate=0.3, noise_sigma=0.03, seed=42)
        if case == "empty-scan":
            scan = SemanticPointCloud(np.zeros((0, 3)), np.zeros(0, dtype=int),
                                      np.zeros((0, taxonomy_module.num_classes)))
        elif case == "disjoint":
            scan = _disjoint_scan(taxonomy_module)
        elif case == "degenerate":
            def refuse(*args, **kwargs):
                raise DegenerateGeometryError("collinear")

            monkeypatch.setattr(pipeline, "robust_irls", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # triangulation warns on an empty graph
            res = localize(scan, ref_map)
        assert list(res.timings_ms) == list(STAGES)
        assert res.status == {"success": "success", "degenerate": "degenerate"}.get(
            case, "no-match")
        if case == "success":
            assert res.pose is not None
            assert 3 <= res.inlier_count == len(res.inliers) <= res.clique_size
        else:
            assert res.pose is None and res.inlier_count == 0 and len(res.inliers) == 0
        if case == "empty-scan":
            assert res.triangles_queried == 0 and res.candidates_after_filter == 0
        else:
            assert res.triangles_queried > 0
        if case in ("empty-scan", "disjoint"):
            assert res.clique_size < 3 and res.timings_ms["solve"] == 0.0
        else:
            assert res.clique_size >= 3 and res.candidates_after_filter > 0

    def test_near_collinear_scene_degenerate(self, taxonomy_module):
        """Six poles on one line leave the rotation about it open: the clique
        holds all six, and the query ends "degenerate" without a pose."""
        cloud, scan = pole_line_scene(taxonomy_module)
        res = localize(scan, build_map(cloud, taxonomy_module, RunConfig()))
        assert res.clique_size == 6
        assert res.status == "degenerate" and res.pose is None

    def test_underflowing_clique_weights_degenerate(self, scene, ref_map):
        """A sigma_w so small that every clique weight underflows to 0 leaves
        the pose solve nothing to weigh: the query ends "degenerate" without a
        pose, as a failed solve does, not with a refusal naming no key."""
        cloud, _ = scene
        scan = simulate_scan(cloud, sample_query_poses(1, seed=7, half=15.0)[0],
                             range_max=60.0, dropout_rate=0.3, noise_sigma=0.03, seed=42)
        cfg = RunConfig()
        cfg.sim.sigma_w = 1e-100  # the least sigma_w taken
        res = localize(scan, ref_map, cfg)
        assert res.clique_size >= 3
        assert res.status == "degenerate" and res.pose is None

    @pytest.mark.parametrize("sigma_w", [1e-300, 1e200])
    def test_sigma_w_out_of_range_refused(self, scene, ref_map, sigma_w):
        """A sigma_w whose square underflows or overflows, set on the config
        object, is refused by name, not scored with a numpy warning."""
        cloud, _ = scene
        cfg = RunConfig()
        cfg.sim.sigma_w = sigma_w
        with pytest.raises(ValidationError, match="config key 'sim.sigma_w' must be [<>]= 1e"):
            localize(cloud, ref_map, cfg)

    def test_grid_geometry_mismatch_rejected(self, scene, ref_map):
        cloud, _ = scene
        cfg = RunConfig()
        cfg.gsf.grid.nx = 3
        with pytest.raises(ValidationError, match="gsf.grid.nx"):
            localize(cloud, ref_map, cfg)

    @pytest.mark.parametrize("key, value, message", [
        ("matching.epsilon", -1.0, "config key 'matching.epsilon' must be >= 0, got -1.0"),
        ("solver.max_iters", 2.5, "config key 'solver.max_iters' expects an integer, got 2.5"),
        ("sim.yaw_samples", 37, "config key 'sim.yaw_samples' must be <= 36, got 37"),
    ])
    def test_config_edited_in_code_checked_on_entry(self, scene, ref_map, key, value,
                                                    message):
        """`localize` holds a config set in code to the bounds a file's is held
        to, before any stage runs."""
        cloud, _ = scene
        cfg = RunConfig()
        *section, name = key.split(".")
        setattr(functools.reduce(getattr, section, cfg), name, value)
        with pytest.raises(ValidationError, match=re.escape(message)):
            localize(cloud, ref_map, cfg)

    def test_build_map_checks_grid_on_entry(self, scene, taxonomy_module):
        """A grid over the cap set in code is refused before any field is fitted."""
        cfg = RunConfig()
        cfg.gsf.grid.nx = 52
        with pytest.raises(ValidationError, match=r"config key 'gsf.grid.nx' x 'gsf.grid.ny' "
                                                  r"must be <= 256, got 52 x 5"):
            build_map(scene[0], taxonomy_module, cfg)

    @pytest.mark.parametrize("key, value", [
        ("gsf.kappa", 3.0),
        ("gsf.sigma_y", 0.2),
        ("gsf.budget", 128),
        ("gsf.softmax_targets", True),
        ("gsf.grid.ny", 3),
        ("gsf.grid.dx", 2.0),
        ("gsf.grid.dy", 2.0),
        ("gsf.grid.z_mode", 0.5),
        ("cluster.neighborhood_radius", 8.0),
        ("index.delta_d", 5.0),
    ])
    def test_population_settings_mismatch_rejected(self, scene, ref_map, key, value):
        cloud, _ = scene
        cfg = RunConfig()
        cfg.apply_overrides([f"{key}={json.dumps(value)}"])
        with pytest.raises(ValidationError, match=f"differs from the map bundle in {key};"):
            localize(cloud, ref_map, cfg)

    def test_query_logit_width_mismatch_rejected(self, scene, ref_map):
        cloud, _ = scene
        scan = SemanticPointCloud(cloud.points, cloud.labels,
                                  np.hstack([cloud.logits, np.zeros((cloud.n, 1))]))
        with pytest.raises(ValidationError, match="13 logit columns; the taxonomy has 12"):
            localize(scan, ref_map)


def _street_query(scene, ref_map, taxonomy):
    """A scan of the scene and its inputs to the match stage: the pose, the
    scan, the query graph, its probes (the fitted mask and the table of
    stacked populations) and its coarse candidates."""
    cloud, _ = scene
    pose = sample_query_poses(1, seed=7, half=15.0)[0]
    scan = simulate_scan(cloud, pose, range_max=60.0, dropout_rate=0.3,
                         noise_sigma=0.03, seed=42)
    cfg = ref_map.config
    qcloud, qgraph = pipeline._query_graph(scan, taxonomy, cfg)
    probes = pipeline._query_probes(qgraph, qcloud, taxonomy, cfg)
    cand_lists = [(d, query_index(ref_map.index, d))
                  for d in rows(triangulate(qgraph, cfg.index.k_neighbors))]
    return pose, scan, qgraph, probes, cand_lists


def _twin_map_and_scan(taxonomy, s, bundle):
    """Criterion 9's twin scene of seed 200 + s through build, save and load,
    and its scan, placed as criterion 9 places it."""
    cloud, _, info = generate_mirrored_twin(twin_scene_spec(seed=200 + s, perturbation=0.5),
                                            taxonomy)
    save_map(build_map(cloud, taxonomy, RunConfig()), bundle)
    rng = np.random.default_rng(900 + s)
    center = info.center_1 if s % 2 == 0 else info.center_2
    xy = center[:2] + rng.uniform(-8, 8, 2)
    pose = RigidTransform(rot_z(rng.uniform(0, 2 * np.pi)), np.array([xy[0], xy[1], 1.8]))
    scan = simulate_scan(cloud, pose, range_max=22.0, dropout_rate=0.2, noise_sigma=0.02,
                         seed=1900 + s)
    return load_map(bundle), scan


def _twin_query(taxonomy, tmp_path):
    """The first twin scan's inputs to the match stage: its query graph, its
    probes, the map and its coarse candidates."""
    ref, scan = _twin_map_and_scan(taxonomy, 0, tmp_path)
    cfg = ref.config
    qcloud, qgraph = pipeline._query_graph(scan, taxonomy, cfg)
    probes = pipeline._query_probes(qgraph, qcloud, taxonomy, cfg)
    cand_lists = [(d, query_index(ref.index, d))
                  for d in rows(triangulate(qgraph, cfg.index.k_neighbors))]
    return qgraph, probes, ref, cand_lists


def _stored_orders(index, cid):
    """The vertex orders stored for candidate `cid`, as tuples in ORDERS order."""
    return [tuple(p) for p in ORDERS[index.order_mask[cid]].tolist()]


def _fail_rows(fitted, pops, gone):
    """A fitted mask and table with the fits of instances `gone` failed, as
    `_probe_fields` leaves a failed fit: out of the mask, its rows NaN."""
    fitted, pops = fitted.copy(), GpPopulation(pops.grid, pops.mu.copy(), pops.Sigma.copy(),
                                               pops.stability_weights.copy())
    fitted[gone] = False
    pops.mu[gone] = pops.Sigma[gone] = pops.stability_weights[gone] = np.nan
    return fitted, pops


def _fail(ref_map, gone):
    """`ref_map` with the fits of map instances `gone` failed."""
    fitted, pops = _fail_rows(ref_map.fitted, ref_map.populations, gone)
    return dataclasses.replace(ref_map, fitted=fitted, populations=pops)


def _w2_table_lists(cand_lists, probes, ref_map, config):
    """`pipeline._w2_table` over per-triangle candidate lists and the query's
    probes, its kept candidates regrouped per triangle and its table as
    {(qid, mid): W2^2}."""
    descs = [d for d, _ in cand_lists]
    cand = np.array([(r, cid) for r, (_, cids) in enumerate(cand_lists) for cid in cids],
                    dtype=np.int64).reshape(-1, 2)
    kept, w2, sim = pipeline._w2_table(triangle_table(descs), cand, *probes, ref_map, config)
    per_triangle = [(d, kept[kept[:, 0] == r, 1].tolist()) for r, d in enumerate(descs)]
    scored = np.argwhere(~np.isnan(w2)).tolist()
    return per_triangle, {(q, m): float(w2[q, m]) for q, m in scored}, sim


def _unpruned(qids, mids, pops_query, pops_map, use_stability):
    """Min over yaws of every (pair, yaw) member's W2^2: one `w2_squared` call
    per query instance against every map population it is paired with."""
    out = np.empty(len(qids))
    for q in np.unique(qids).tolist():
        rows = np.flatnonzero(qids == q)
        um, ib = np.unique(mids[rows], return_inverse=True)
        full = w2_squared(pops_query[q][None], pops_map[um], use_stability,
                          (np.zeros(len(rows), dtype=np.intp), ib))
        out[rows] = full.min(axis=1)
    return out


def _all_pairs(q_ok, m_ok):
    """Every (query instance, map instance) pair with two populations, from the
    two fitted masks."""
    qids, mids = np.meshgrid(np.flatnonzero(q_ok), np.flatnonzero(m_ok), indexing="ij")
    return qids.ravel(), mids.ravel()


@pytest.fixture(scope="module")
def street_scans(scene, ref_map, taxonomy_module):
    """Two 60 m street scans' query probes, and the map."""
    cloud, _ = scene
    cfg = ref_map.config
    pops = []
    for i, pose in enumerate(sample_query_poses(2, seed=17, half=20.0)):
        scan = simulate_scan(cloud, pose, range_max=60.0, dropout_rate=0.3, noise_sigma=0.03,
                             seed=[17, i])
        qcloud, qgraph = pipeline._query_graph(scan, taxonomy_module, cfg)
        pops.append(pipeline._query_probes(qgraph, qcloud, taxonomy_module, cfg))
    return pops, ref_map


@pytest.fixture(scope="module")
def twin_scans(taxonomy_module, tmp_path_factory):
    """Two twin scans (scenes 200 and 201, one per twin), each with its map."""
    out = []
    for s in (0, 1):
        ref, scan = _twin_map_and_scan(taxonomy_module, s, tmp_path_factory.mktemp("twin"))
        qcloud, qgraph = pipeline._query_graph(scan, taxonomy_module, ref.config)
        out.append((pipeline._query_probes(qgraph, qcloud, taxonomy_module, ref.config), ref))
    return out


class TestW2Cut:
    """The lower-bound cut in `pair_w2` on scans of the street and twins
    scenes, over every (query, map) instance pair, the fine filter's and the
    rest: each value equals the unpruned minimum over yaws, bit for bit."""

    @pytest.mark.parametrize("use_stability, chunk_pairs",
                             [(True, None), (False, None), (True, 7)],
                             ids=["stability", "no-stability", "stability-chunks-of-7"])
    @pytest.mark.parametrize("workload", ["street", "twins"])
    def test_scan_tables_equal_unpruned(self, request, monkeypatch, workload, use_stability,
                                        chunk_pairs):
        if workload == "street":
            pops, ref = request.getfixturevalue("street_scans")
            scans = [(p, ref) for p in pops]
        else:
            scans = request.getfixturevalue("twin_scans")
        if chunk_pairs is not None:
            one_pair = scans[0][0][1].Sigma[0].nbytes
            monkeypatch.setattr(descriptors, "W2_CHUNK_BYTES", chunk_pairs * one_pair)
        for (q_ok, pops_query), ref in scans:
            qids, mids = _all_pairs(q_ok, ref.fitted)
            got = pipeline.pair_w2(qids, mids, pops_query, ref.populations, use_stability)
            assert len(got) > 50
            assert np.array_equal(got, _unpruned(qids, mids, pops_query, ref.populations,
                                                 use_stability))

    @pytest.mark.parametrize("yaws", [1, 36])
    def test_yaw_samples(self, scene, ref_map, taxonomy_module, yaws):
        """`sim.yaw_samples` 1 (nothing to skip) and 36 on a street scan."""
        cfg = RunConfig()
        cfg.apply_overrides([f"sim.yaw_samples={yaws}"])
        cloud, ref = scene[0], ref_map
        pose = sample_query_poses(1, seed=18, half=20.0)[0]
        scan = simulate_scan(cloud, pose, range_max=60.0, dropout_rate=0.3, noise_sigma=0.03,
                             seed=18)
        qcloud, qgraph = pipeline._query_graph(scan, taxonomy_module, cfg)
        q_ok, pops_query = pipeline._query_probes(qgraph, qcloud, taxonomy_module, cfg)
        assert pops_query.mu.shape[1] == yaws
        qids, mids = _all_pairs(q_ok & (np.arange(len(q_ok)) < 6), ref.fitted)
        got = pipeline.pair_w2(qids, mids, pops_query, ref.populations, True)
        assert np.array_equal(got, _unpruned(qids, mids, pops_query, ref.populations, True))


class TestMatch:
    def test_table_equals_written_out_loop(self, scene, ref_map, taxonomy_module):
        """The match stage's W2 table path against a loop that calls
        `w2_squared` for every (candidate, vertex order, vertex) and takes the
        min over yaws: the same survivors in the same order, ties included,
        with scores and weights within 1e-9."""
        _, _, qgraph, probes, cand_lists = _street_query(scene, ref_map, taxonomy_module)
        self._check_against_loop(qgraph, probes, ref_map, cand_lists)

    def test_table_equals_written_out_loop_on_twins(self, taxonomy_module, tmp_path):
        """The same check on a twins query, where W2 decides between the twins."""
        self._check_against_loop(*_twin_query(taxonomy_module, tmp_path))

    @pytest.mark.parametrize("chunk_pairs", [None, 3, 1], ids=["one-chunk", "chunks-of-3",
                                                                "chunks-of-1"])
    def test_batched_table_equals_per_pair_loop(self, scene, ref_map, taxonomy_module,
                                                monkeypatch, chunk_pairs):
        """The W2 table from one batched `pair_w2` call against a written-out
        loop of one `w2_squared` call per pair, min over yaws: `np.array_equal`.
        On the defaults one chunk covers the query; a chunk size forced down to
        3 pairs or 1 pair splits it, with the same values."""
        _, _, _, probes, cand_lists = _street_query(scene, ref_map, taxonomy_module)
        self._check_table(probes, ref_map, cand_lists, monkeypatch, chunk_pairs)

    @pytest.mark.parametrize("chunk_pairs", [None, 2], ids=["one-chunk", "chunks-of-2"])
    def test_batched_table_equals_per_pair_loop_on_twins(self, taxonomy_module, tmp_path,
                                                         monkeypatch, chunk_pairs):
        _, probes, ref, cand_lists = _twin_query(taxonomy_module, tmp_path)
        self._check_table(probes, ref, cand_lists, monkeypatch, chunk_pairs)

    @staticmethod
    def _check_table(probes, ref_map, cand_lists, monkeypatch, chunk_pairs):
        pops_query = probes[1]
        if chunk_pairs is not None:
            one_pair = pops_query.Sigma[0].nbytes
            monkeypatch.setattr(descriptors, "W2_CHUNK_BYTES", chunk_pairs * one_pair)
        calls = []

        def counted(pop_a, pop_b, use_stability, pairs):
            calls.append((len(pairs[0]), len(pop_b.mu)))
            return w2_squared(pop_a, pop_b, use_stability, pairs)

        monkeypatch.setattr(descriptors, "w2_squared", counted)
        _, w2, _ = _w2_table_lists(cand_lists, probes, ref_map, ref_map.config)
        scored = sorted(w2)
        full = [w2_squared(pops_query[q], ref_map.populations[m], use_stability=True)
                for q, m in scored]
        assert np.array_equal([w2[k] for k in scored], [float(np.min(v)) for v in full])
        # per chunk: pass 1 scores one yaw per pair against the chunk's map
        # populations; pass 2, only if any member survives the lower-bound
        # cut, scores the survivors against the map populations they touch
        want, step = [], chunk_pairs or len(scored)
        for lo in range(0, len(scored), step):
            chunk, survivors, touched = scored[lo:lo + step], 0, set()
            for (q, m), values in zip(chunk, full[lo:lo + step]):
                one = np.zeros(1, dtype=np.intp)
                bound = w2_lower_bound(pops_query[q][None], ref_map.populations[m][None],
                                       True, (one, one))[0]
                more = int(np.sum(bound <= values[np.argmin(bound)])) - 1
                survivors += more
                touched |= {m} if more else set()
            want.append((len(chunk), len({m for _, m in chunk})))
            want += [(survivors, len(touched))] if survivors else []
        assert calls == want
        assert len(calls) > (chunk_pairs is not None)
        assert sum(n for n, _ in calls) <= len(scored) * len(full[0]) / 4  # 3/4 skipped

    @staticmethod
    def _check_against_loop(qgraph, probes, ref_map, cand_lists):
        index, pops_map = ref_map.index, ref_map.populations
        q_ok, pops_query = probes
        assert q_ok.all() and ref_map.fitted.all()
        _, got = pipeline._match(qgraph, probes, ref_map, ref_map.config)

        def w2(q, m):
            return float(np.min(w2_squared(pops_query[q], pops_map[m], use_stability=True)))

        median = float(np.median([
            w2(q, m) for q, m in {(q, m) for d, cands in cand_lists for cid in cands
                                  for q, m in zip(d.vertex_ids,
                                                  index.table.vertex_ids[cid].tolist())}]))
        sigma_w, accept = np.sqrt(median), 3.0 * median
        want = []
        for d, cands in cand_lists:
            kept = []
            for cid in cands:
                best = None
                for perm in _stored_orders(index, cid):
                    pairs = [(d.vertex_ids[k], index.table.vertex_ids[cid].tolist()[perm[k]])
                             for k in range(3)]
                    scores = [w2(q, m) for q, m in pairs]
                    total = scores[0] + scores[1] + scores[2]
                    if best is None or total < best[0]:
                        best = (total, cid, pairs, scores)
                if best[0] <= 3.0 * accept:
                    kept.append(best)
            want += sorted(kept, key=lambda b: (b[0], b[1]))
        assert len(got) == len(want) > 0
        for k, (total, cid, pairs, scores) in enumerate(want):
            assert got.candidate_ids[k] == cid and got.pairs[k].tolist() == list(map(list, pairs))
            assert abs(got.totals[k] - total) < 1e-9
            for omega, s in zip(got.omegas[k], scores):
                assert abs(omega - np.exp(-s / (2.0 * sigma_w**2))) < 1e-9


    def test_table_covers_every_stored_order(self, ref_map):
        """An equilateral candidate pairs its vertices under all six orders:
        the table holds all nine pairs, and the similarity self-tunes to the
        median over the three canonical ones."""
        probes = (np.ones(3, dtype=bool), ref_map.populations[:3, None])  # one yaw each
        q = TriangleDescriptor(0, (0, 1, 2), (4.0, 4.0, 4.0), (7, 7, 7))
        cand = TriangleDescriptor(0, (3, 4, 5), (4.0, 4.0, 4.0), (7, 7, 7))
        one = dataclasses.replace(ref_map, index=build_index([cand], 0.5))
        kept, w2, sim = _w2_table_lists([(q, [0])], probes, one, ref_map.config)
        assert kept == [(q, [0])]
        assert sorted(w2) == [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
        median = float(np.median([w2[(0, 3)], w2[(1, 4)], w2[(2, 5)]]))
        assert sim.accept_threshold == 3.0 * median and sim.sigma_w == np.sqrt(median)


def _result_hash(status: str, pose) -> str:
    """sha256 of the status and the 3x4 pose rounded to 1e-6, as the benchmark
    hashes a query's result."""
    text = status
    if pose is not None:
        vals = np.round(pose.matrix_3x4().ravel(), 6) + 0.0  # + 0.0 folds -0.0 into 0.0
        text += " " + " ".join(f"{v:.6f}" for v in vals)
    return hashlib.sha256(text.encode()).hexdigest()


class TestQueryPin:
    # the first 16 hex digits of each result hash, recorded before the GP pass
    # dropped its copied and repeated work; that rewrite must not move a pose
    PINNED = ["0e5e1f5184469c1a", "804db92d11da083c", "6201ced1412f5d6e",
              "b60f2b56e8c75c7e", "19b785f251489ecf", "5ef6051b3ce4494c"]

    def test_street_results_unchanged(self, scene, ref_map):
        """Six scans of criterion 8's scene, drawn as `synth.run_benchmark`
        draws them, localize to the recorded status and pose."""
        cloud, _ = scene
        got = []
        for i, pose in enumerate(sample_query_poses(6, seed=[31, 1], half=20.0)):
            scan = simulate_scan(cloud, pose, range_max=60.0, dropout_rate=0.3,
                                 noise_sigma=0.03, seed=31 * 100003 + i)
            res = localize(scan, ref_map)
            got.append(_result_hash(res.status, res.pose)[:16])
        assert got == self.PINNED

    # recorded before the match stage became array work; twins is where the
    # W2 ordering of the candidates decides which twin a scan lands on
    TWINS_PINNED = ["d1c1e266d3fa20b0", "4033b89b57886d02", "1b9c7db0704aed97",
                    "b5504acb7a4724cc", "6da483ad314e119c", "289126aa223bc4a9"]

    def test_twin_results_unchanged(self, taxonomy_module, tmp_path):
        """Six of criterion 9's twin scans, placed as it places them, each
        localized against its scene's map through build, save and load, end
        in the recorded status and pose."""
        got = []
        for s in range(6):
            ref, scan = _twin_map_and_scan(taxonomy_module, s, tmp_path / str(s))
            res = localize(scan, ref)
            got.append(_result_hash(res.status, res.pose)[:16])
        assert got == self.TWINS_PINNED


class TestBlasThreads:
    """The field layer's one-thread BLAS scope, seen from the pipeline."""

    def test_build_and_localize_leave_thread_counts(self, scene, taxonomy_module,
                                                    blas_threads):
        cloud, _ = scene
        ref = build_map(cloud, taxonomy_module, RunConfig())
        assert set(blas_threads()) == {2}
        pose = sample_query_poses(1, seed=7, half=15.0)[0]
        scan = simulate_scan(cloud, pose, range_max=60.0, dropout_rate=0.3,
                             noise_sigma=0.03, seed=42)
        assert localize(scan, ref).status == "success"
        assert set(blas_threads()) == {2}

    def test_two_threads_localize_as_serial_calls(self, scene, ref_map, blas_threads):
        """Two Python threads, each localizing three scans against one shared
        map, end in the statuses and poses of serial calls, bit for bit."""
        cloud, _ = scene
        scans = [simulate_scan(cloud, pose, range_max=60.0, dropout_rate=0.3,
                               noise_sigma=0.03, seed=[31, i])
                 for i, pose in enumerate(sample_query_poses(6, seed=[31, 2], half=20.0))]

        def run(batch):
            return [(r.status, None if r.pose is None else r.pose.matrix_3x4())
                    for r in (localize(scan, ref_map) for scan in batch)]

        serial = run(scans)
        with ThreadPoolExecutor(2) as pool:
            halves = [pool.submit(run, scans[k::2]) for k in (0, 1)]
            got = [f.result(timeout=120.0) for f in halves]
        threaded = [got[i % 2][i // 2] for i in range(len(scans))]
        assert [s for s, _ in threaded] == [s for s, _ in serial]
        assert "success" in [s for s, _ in serial]
        for (_, a), (_, b) in zip(threaded, serial):
            assert (a is None and b is None) or np.array_equal(a, b)
        assert set(blas_threads()) == {2}


def _load_bench(name: str):
    """A module of the benchmark, loaded from its file as the benchmark uses it."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _recorder(fn, out: list, arg: int | None = None):
    """`fn`, appending each result, or its positional argument `arg`, to `out`."""
    def call(*args, **kwargs):
        result = fn(*args, **kwargs)
        out.append(result if arg is None else args[arg])
        return result
    return call


class TestTracedCounts:
    def test_counts_are_instances_and_edges(self, scene, taxonomy_module):
        """The benchmark tracer's counts, taken as `len` of a traced function's
        result, are the numbers they name: the set-up clustering's instances
        are the map's centroid rows, the query's are its scene graph's rows,
        the set-up and query triangles are the rows of the map's and the
        query's triangle tables, the coarse and filtered candidates are the
        rows of the candidate arrays, and the consistency graph's edges are its
        adjacency's upper triangle."""
        cloud, _ = scene
        pose = sample_query_poses(1, seed=7, half=15.0)[0]
        scan = simulate_scan(cloud, pose, range_max=60.0, dropout_rate=0.3,
                             noise_sigma=0.03, seed=42)
        graphs, cgraphs, tables, cands, kept = [], [], [], [], []
        # the recorders wrap the tracer's wrappers, and are taken off before them
        with _load_bench("tracer").Tracer() as tracer, pytest.MonkeyPatch.context() as mp:
            for name, out, arg in [("build_scene_graph", graphs, None),
                                   ("build_consistency_graph", cgraphs, None),
                                   ("triangulate", tables, None), ("query_index", cands, None),
                                   ("gsf_filter", kept, 1)]:
                mp.setattr(pipeline, name, _recorder(getattr(pipeline, name), out, arg))
            tracer.context = -1
            ref = build_map(cloud, taxonomy_module, RunConfig())
            tracer.context = 0
            res = localize(scan, ref)
        assert res.status == "success"
        counts = {(rec[0], rec[4]): rec[5] for rec in tracer.spans}
        set_up = counts["scene_graph.cluster_instances", -1]["instances"]
        assert set_up == len(ref.centroids) == len(graphs[0]) >= 20
        qgraph = graphs[1]
        assert counts["scene_graph.cluster_instances", 0]["instances"] == len(qgraph.centroids)
        assert len(qgraph) == len(qgraph.centroids) >= 3
        (cgraph,) = cgraphs
        edges = int(np.triu(cgraph.adjacency, 1).sum())
        assert counts["matching.build_consistency_graph", 0]["edges"] == edges > 0
        map_table, query_table = tables
        assert map_table is ref.index.table
        for context, table in [(-1, map_table), (0, query_table)]:
            n = counts["descriptors.triangulate", context]["triangles"]
            assert n == table.vertex_ids.shape[0] == table.labels.shape[0] > 3
            assert table.vertex_ids.shape == table.labels.shape == table.sides.shape == (n, 3)
        (cand,), (filtered,) = cands, kept
        assert counts["descriptors.query_index", 0]["candidates"] == cand.shape[0] > 0
        assert counts["descriptors.gsf_filter", 0]["candidates"] == filtered.shape[0] > 0
        assert cand.shape[1] == filtered.shape[1] == 2


class TestVoxelDownsample:
    def test_deterministic_first_point(self):
        pts = np.array([[0.01, 0.0, 0.0], [0.05, 0.0, 0.0], [1.0, 0.0, 0.0]])
        cloud = SemanticPointCloud(pts, [0, 1, 2], one_hot_logits([0, 1, 2], 3))
        out = voxel_downsample(cloud, 0.2)
        assert out.n == 2
        assert list(out.labels) == [0, 2]  # first point per voxel kept

    def test_zero_voxel_passthrough(self):
        cloud = SemanticPointCloud(np.zeros((3, 3)), [0, 0, 0])
        assert voxel_downsample(cloud, 0.0) is cloud

    def test_matches_unique_reference(self):
        """The lowest index of every occupied voxel, as np.unique over the rows finds it."""
        rng = np.random.default_rng(17)
        for n, half, voxel in [(1, 1.0, 0.2), (500, 0.5, 0.2), (3000, 4.0, 0.5),
                               (2000, 60.0, 0.2)]:
            pts = rng.uniform(-half, half, (n, 3))
            pts[n // 2:] = pts[rng.integers(0, max(n // 2, 1), n - n // 2)]  # exact repeats
            labels = rng.integers(0, 12, n)
            _, first = np.unique(np.floor(pts / voxel).astype(np.int64), axis=0,
                                 return_index=True)
            keep = np.sort(first)
            out = voxel_downsample(SemanticPointCloud(pts, labels, one_hot_logits(labels, 12)),
                                   voxel)
            np.testing.assert_array_equal(out.points, pts[keep])
            np.testing.assert_array_equal(out.labels, labels[keep])
            np.testing.assert_array_equal(out.logits, one_hot_logits(labels, 12)[keep])

    @staticmethod
    def _lexsort_keep(pts, voxel):
        """Each voxel's lowest point index, ascending, by sorting the integer
        voxel rows and taking the start of every run."""
        keys = np.floor(pts / voxel).astype(np.int64)
        order = np.lexsort(keys.T[::-1])
        runs = keys[order]
        start = np.ones(len(pts), dtype=bool)
        start[1:] = np.any(runs[1:] != runs[:-1], axis=1)
        return np.sort(order[start])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lexsort_reference(self, seed):
        rng = np.random.default_rng([seed, 5])
        n = int(rng.integers(1, 4000))
        voxel = rng.choice([0.05, 0.2, 1.0, 3.0])
        sides = rng.integers(1, 25, 3) * voxel  # uneven sides, densely occupied
        pts = rng.uniform(0.0, 1.0, (n, 3)) * sides - rng.uniform(0.0, 1000.0, 3)
        pts[n // 2:] = pts[rng.integers(0, max(n // 2, 1), n - n // 2)]  # shared voxels
        pts[::7] += rng.uniform(-0.5, 0.5, (len(pts[::7]), 3)) * voxel
        labels = rng.integers(0, 12, n)
        out = voxel_downsample(SemanticPointCloud(pts, labels), voxel)
        keep = self._lexsort_keep(pts, voxel)
        assert np.array_equal(out.points, pts[keep])
        assert np.array_equal(out.labels, labels[keep])

    @pytest.mark.parametrize("xs, voxel", [
        ((1e20, 3e20, -5e20), 0.2),  # voxel indices beyond int64
        ((-1e18, 0.0, 1e18), 0.2),  # indices fit, the bounding box's voxel count does not
    ])
    def test_keys_beyond_int64_refused(self, xs, voxel):
        pts = np.column_stack([xs, np.zeros(3), np.zeros(3)])
        with pytest.raises(ValidationError, match="int64"):
            voxel_downsample(SemanticPointCloud(pts, [0, 1, 2]), voxel)


class TestConfig:
    @pytest.mark.parametrize("key, bad, edge", [
        ("cluster.neighborhood_radius", -1.0, 0.0),
        ("cluster.default_threshold", -0.5, 0.0),
        ("cluster.min_cluster_size", -1, 0),
        ("matching.epsilon", -0.1, 0.0),
        ("solver.rel_tol", -1e-6, 0.0),
        ("pipeline.query_voxel", -0.2, 0.0),
        ("pipeline.seed", -1, 0),
        ("gsf.grid.dx", 0.0, 1e-3),
        ("gsf.grid.dy", -2.5, 1e-3),
        ("gsf.grid.nx", 0, 1),
        ("gsf.grid.ny", -2, 1),
        ("gsf.budget", 0, 1),
        ("gsf.kappa", 0.0, 1e-3),
        ("gsf.kappa", -2.0, 1e-3),
        ("gsf.sigma_y", -0.1, 0.0),
        ("index.k_neighbors", 1, 2),
        ("index.delta_d", 0.0, 1e-3),
        ("index.delta_d", -0.5, 1e-3),
    ])
    def test_range_checks(self, key, bad, edge):
        """`bad` is refused naming the key, by override and by dict; `edge`, a value
        at or just inside the bound, is set."""
        with pytest.raises(ValidationError, match=f"'{key}' must be"):
            RunConfig().apply_overrides([f"{key}={bad}"])
        nested = bad
        for part in reversed(key.split(".")):
            nested = {part: nested}
        with pytest.raises(ValidationError, match=f"'{key}' must be"):
            RunConfig.from_dict(nested)
        cfg = RunConfig()
        cfg.apply_overrides([f"{key}={edge}"])
        assert functools.reduce(getattr, key.split("."), cfg) == edge

    @pytest.mark.parametrize("key, bad, edge", [
        ("gsf.budget", 2049, 2048),
        ("sim.yaw_samples", 37, 36),
    ])
    def test_upper_limits(self, key, bad, edge):
        """Above its cap a key is refused when set, by override and by dict;
        at the cap it is set. Nothing is built, so no test allocates the
        large case."""
        with pytest.raises(ValidationError, match=f"'{key}' must"):
            RunConfig().apply_overrides([f"{key}={bad}"])
        nested = bad
        for part in reversed(key.split(".")):
            nested = {part: nested}
        with pytest.raises(ValidationError, match=f"'{key}' must"):
            RunConfig.from_dict(nested)
        cfg = RunConfig()
        cfg.apply_overrides([f"{key}={edge}"])
        assert functools.reduce(getattr, key.split("."), cfg) == edge

    @pytest.mark.parametrize("nx, ny", [(16, 16), (64, 4), (256, 1), (1, 256), (51, 5)])
    def test_grid_cap_is_on_the_point_count(self, nx, ny, tmp_path):
        """nx x ny is held to GRID_POINTS_MOST once every key of an update is
        set, whichever of the two comes first; a grid at the cap survives
        to_dict/from_dict and loads from a file that lists nx first."""
        for overrides in ([f"gsf.grid.nx={nx}", f"gsf.grid.ny={ny}"],
                          [f"gsf.grid.ny={ny}", f"gsf.grid.nx={nx}"]):
            cfg = RunConfig()
            cfg.apply_overrides(overrides)
            assert (cfg.gsf.grid.nx, cfg.gsf.grid.ny) == (nx, ny)
        assert nx * ny <= GRID_POINTS_MOST
        assert list(cfg.to_dict()["gsf"]["grid"])[:2] == ["nx", "ny"]
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"gsf": {"grid": {"nx": nx, "ny": ny}}}))
        from_file = RunConfig()
        from_file.update_from_file(path)
        assert from_file == cfg

    @pytest.mark.parametrize("apply", [
        lambda: RunConfig().apply_overrides(["gsf.grid.ny=17", "gsf.grid.nx=16"]),
        lambda: RunConfig.from_dict({"gsf": {"grid": {"nx": 16, "ny": 17}}}),
        lambda: RunConfig().apply_overrides(["gsf.grid.nx=52"]),  # against the default ny = 5
        lambda: RunConfig.from_dict({"gsf": {"grid": {"ny": 52}}}),
    ], ids=["overrides", "dict", "nx-alone", "ny-alone"])
    def test_grid_above_cap_refused(self, apply):
        assert RunConfig.from_dict(RunConfig().to_dict()) == RunConfig()
        with pytest.raises(ValidationError, match=r"'gsf.grid.nx' x 'gsf.grid.ny' must be "
                                                  r"<= 256, got (16 x 17|52 x 5|5 x 52)"):
            apply()

    def test_benchmark_spec_grid_above_cap_refused(self):
        """The grid rule holds in a config read inside a benchmark spec."""
        with pytest.raises(ValidationError, match=r"benchmark spec field config.gsf.grid.nx x "
                                                  r"'config.gsf.grid.ny' must be <= 256, "
                                                  r"got 300 x 5"):
            BenchmarkSpec.from_dict({"map": {}, "config": {"gsf": {"grid": {"nx": 300}}}})

    @pytest.mark.parametrize("apply", [
        lambda cfg, path: cfg.update({"gsf": {"kappa": 3.0}, "sim": {"yaw_samples": 0}}),
        lambda cfg, path: cfg.update({"gsf": {"kappa": 3.0, "grid": {"nx": 300}}}),
        lambda cfg, path: cfg.apply_overrides(["gsf.kappa=3.0", "sim.yaw_samples=0"]),
        lambda cfg, path: cfg.apply_overrides(["gsf.kappa=3.0", "gsf.grid.nx=300"]),
        lambda cfg, path: cfg.apply_overrides(["gsf.kappa=3.0", "no-equals-sign"]),
        lambda cfg, path: cfg.update_from_file(path),
    ], ids=["update", "update-grid", "overrides", "overrides-grid", "overrides-malformed",
            "file"])
    def test_refused_update_changes_nothing(self, apply, tmp_path):
        """A refused dict, override list or file leaves the config exactly as it
        was: none of its earlier keys is set, the grid's included."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gsf": {"kappa": 3.0}, "sim": {"yaw_samples": 0}}))
        cfg = RunConfig()
        cfg.apply_overrides(["sim.sigma_w=1.5"])
        grid = cfg.gsf.grid
        with pytest.raises(ValidationError):
            apply(cfg, path)
        assert cfg == RunConfig.from_dict({"sim": {"sigma_w": 1.5}})
        assert cfg.gsf.grid is grid

    @pytest.mark.parametrize("key, bad", [
        ("gsf.grid.z_mode", "NaN"),
        ("gsf.grid.z_mode", "Infinity"),
        ("gsf.grid.z_mode", "-Infinity"),
        ("index.delta_d", "NaN"),
        ("index.delta_d", "Infinity"),
    ])
    def test_non_finite_refused(self, key, bad):
        with pytest.raises(ValidationError, match=f"'{key}' must be"):
            RunConfig().apply_overrides([f"{key}={bad}"])

    @staticmethod
    def _float_keys(section, prefix=""):
        """Every dotted key whose declared type admits a float; the per-class
        `cluster.thresholds`, each a number > 0, is not one key."""
        for name, hint in typing.get_type_hints(type(section)).items():
            value = getattr(section, name)
            if dataclasses.is_dataclass(value):
                yield from TestConfig._float_keys(value, f"{prefix}{name}.")
            elif typing.get_origin(hint) is not dict and (hint is float
                                                         or float in typing.get_args(hint)):
                yield f"{prefix}{name}"

    @pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize("key", [
        "gsf.kappa", "gsf.sigma_y", "gsf.grid.dx", "gsf.grid.dy", "sim.sigma_w",
        "solver.tau0", "solver.rel_tol", "matching.epsilon", "cluster.default_threshold",
        "cluster.neighborhood_radius", "pipeline.query_voxel",
    ])
    def test_every_float_key_must_be_finite(self, key, bad):
        with pytest.raises(ValidationError, match=f"'{key}' must be"):
            RunConfig().apply_overrides([f"{key}={bad}"])

    def test_finite_list_covers_every_float_key(self):
        """The keys above, `gsf.grid.z_mode`, `index.delta_d` and the three that
        take Infinity as no limit are every float key of the config."""
        listed = {"gsf.kappa", "gsf.sigma_y", "gsf.grid.dx", "gsf.grid.dy", "sim.sigma_w",
                  "solver.tau0", "solver.rel_tol", "matching.epsilon",
                  "cluster.default_threshold", "cluster.neighborhood_radius",
                  "pipeline.query_voxel", "gsf.grid.z_mode", "index.delta_d",
                  "sim.accept_threshold", "pipeline.success_trans_m",
                  "pipeline.success_rot_deg"}
        assert set(self._float_keys(RunConfig())) == listed

    @pytest.mark.parametrize("key", ["sim.accept_threshold", "pipeline.success_trans_m",
                                     "pipeline.success_rot_deg"])
    def test_no_limit_keys_take_infinity_only(self, key):
        cfg = RunConfig()
        cfg.apply_overrides([f"{key}=Infinity"])
        assert functools.reduce(getattr, key.split("."), cfg) == np.inf
        for bad in ("-Infinity", "NaN"):
            with pytest.raises(ValidationError, match=f"'{key}' must be"):
                RunConfig().apply_overrides([f"{key}={bad}"])

    @pytest.mark.parametrize("bad", ["Infinity", "NaN"])
    def test_cluster_threshold_must_be_finite(self, bad):
        with pytest.raises(ValidationError, match="'cluster.thresholds.pole' must be"):
            RunConfig().apply_overrides([f'cluster.thresholds={{"pole": {bad}}}'])

    def test_no_limit_keys_still_localize_and_evaluate(self, scene, ref_map):
        """An infinite acceptance threshold keeps every candidate and still
        localizes; infinite success thresholds count every pose found."""
        cloud, _ = scene
        pose = sample_query_poses(1, seed=7, half=15.0)[0]
        scan = simulate_scan(cloud, pose, range_max=60.0, dropout_rate=0.3,
                             noise_sigma=0.03, seed=42)
        cfg = RunConfig()
        cfg.apply_overrides(["sim.accept_threshold=Infinity"])
        res = localize(scan, ref_map, cfg)
        te, re = pose_error(res.pose, pose)
        assert res.status == "success" and te <= 0.5 and re <= 2.0
        cfg = RunConfig()
        cfg.apply_overrides(["pipeline.success_trans_m=Infinity",
                             "pipeline.success_rot_deg=Infinity"])
        rep = run_benchmark(small_scene_spec(seed=31),
                            sample_query_poses(2, seed=[31, 1], half=20.0), cfg)
        assert rep.aggregates["success_rate"] == 1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown config key"):
            RunConfig.from_dict({"gsf": {"kapa": 2.0}})
        with pytest.raises(ValidationError, match="unknown config key"):
            RunConfig.from_dict({"nope": {}})

    def test_update_sets_only_given_keys(self):
        cfg = RunConfig()
        cfg.update({"index": {"delta_d": 0.25}, "sim": {"yaw_samples": 4}})
        assert cfg.index.delta_d == 0.25 and cfg.sim.yaw_samples == 4
        assert cfg.index.k_neighbors == RunConfig().index.k_neighbors
        with pytest.raises(ValidationError, match="index.bogus"):
            cfg.update({"index": {"bogus": 1}})

    def test_round_trip(self):
        cfg = RunConfig()
        cfg.sim.yaw_samples = 4
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_overrides(self):
        cfg = RunConfig()
        cfg.apply_overrides(["sim.sigma_w=1.5", "pipeline.use_gsf_filter=false",
                             "gsf.grid.nx=7"])
        assert cfg.sim.sigma_w == 1.5
        assert cfg.pipeline.use_gsf_filter is False
        assert cfg.gsf.grid.nx == 7
        cfg.apply_overrides(["sim.sigma_w=null", "gsf.grid.z_mode=1", "index.k_neighbors=4.0",
                             "sim.accept_threshold=2"])
        assert cfg.sim.sigma_w is None and cfg.sim.accept_threshold == 2.0
        assert cfg.gsf.grid.z_mode == 1.0 and isinstance(cfg.gsf.grid.z_mode, float)
        assert cfg.index.k_neighbors == 4 and isinstance(cfg.index.k_neighbors, int)
        with pytest.raises(ValidationError):
            cfg.apply_overrides(["sim.bogus=1"])
        with pytest.raises(ValidationError):
            cfg.apply_overrides(["justakey"])

    def test_type_checks(self):
        with pytest.raises(ValidationError, match="boolean"):
            RunConfig.from_dict({"pipeline": {"use_gsf_filter": "yes"}})
        with pytest.raises(ValidationError, match="number"):
            RunConfig.from_dict({"gsf": {"kappa": "big"}})
        # each field is checked against its declared type, also where the default is null
        for override, message in [
            ('sim.sigma_w="abc"', "'sim.sigma_w' expects a number or null"),
            ("sim.sigma_w=0", "'sim.sigma_w' must be > 0"),
            ("sim.accept_threshold=true", "'sim.accept_threshold' expects a number or null"),
            ('gsf.grid.z_mode="up"', "'gsf.grid.z_mode' expects \"local-zero\" or a number"),
            ("sim.yaw_samples=0", "'sim.yaw_samples' must be > 0"),
            ("index.k_neighbors=2.7", "'index.k_neighbors' expects an integer"),
            ("pipeline.seed=true", "'pipeline.seed' expects an integer"),
            ("solver.max_iters=0", "'solver.max_iters' must be > 0"),
            ("solver.tau0=-1", "'solver.tau0' must be > 0"),
            ('cluster.thresholds={"pole": "x"}', "'cluster.thresholds.pole' expects a number"),
            ('cluster.thresholds={"car": true}', "'cluster.thresholds.car' expects a number"),
            ('cluster.thresholds={"pole": 0}', "'cluster.thresholds.pole' must be > 0"),
        ]:
            with pytest.raises(ValidationError, match=message):
                RunConfig().apply_overrides([override])
