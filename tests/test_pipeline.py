import dataclasses
import functools
import hashlib
import json
import warnings

import numpy as np
import pytest

from gsfloc.config import RunConfig
from gsfloc.core import (
    FormatError,
    SemanticPointCloud,
    ValidationError,
    one_hot_logits,
    pose_error,
)
from gsfloc.descriptors import (
    TriangleDescriptor,
    build_index,
    pair_w2,
    query_index,
    triangulate,
)
from gsfloc import pipeline
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
from gsfloc.scene_graph import build_scene_graph
from gsfloc.synth import generate_scene, sample_query_poses, simulate_scan
from gsfloc.wasserstein import w2_squared

from conftest import pole_line_scene, small_scene_spec, stack_pops


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
        assert sum(p is not None for p in ref_map.populations.values()) == 20
        k = ref_map.config.index.k_neighbors
        bound = len(ref_map.centroids) * k * (k - 1) // 2
        assert 0 < len(ref_map.index.descriptors) <= bound

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
        for iid, pop in ref_map.populations.items():
            other = again.populations[iid]
            np.testing.assert_allclose(pop.mu, other.mu, rtol=1e-7, atol=1e-12)
            np.testing.assert_allclose(pop.Sigma, other.Sigma, rtol=1e-7, atol=1e-12)
            np.testing.assert_array_equal(pop.stability_weights, other.stability_weights)

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
    """Apply `edit(arrays, key)` to the first array of `name` whose key ends
    with `suffix`, rewrite the file and its hash; returns the key."""
    with np.load(d / name) as buf:
        arrays = {k: buf[k] for k in buf.files}
    key = next(k for k in sorted(arrays) if k.endswith(suffix))
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
         "config.json: taxonomy class '7' needs an integer id, a name"),
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

    def test_population_of_unknown_instance_detected(self, ref_map, tmp_path):
        def add_population(arrays, key):
            arrays[key] = np.append(arrays[key], 20)
            for part in ("grid", "mu", "Sigma", "w"):
                arrays[f"pop20_{part}"] = arrays[f"pop0_{part}"]

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
            raise AssertionError("grid_probe called with the GSF filter off")

        # nothing reads the query populations with the filter off: no probe stage
        monkeypatch.setattr(pipeline, "grid_probe", refuse)
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

    def test_success_inliers_pairwise_consistent(self, scene, ref_map):
        from gsfloc.matching import consistency_check

        cloud, _ = scene
        pose = sample_query_poses(1, seed=11, half=15.0)[0]
        scan = simulate_scan(cloud, pose, 60.0, 0.3, 0.03, seed=7)
        cfg = ref_map.config
        res = localize(scan, ref_map)
        assert res.status == "success"
        qcloud = voxel_downsample(scan, cfg.pipeline.query_voxel)
        qgraph = build_scene_graph(qcloud, ref_map.taxonomy, cfg)
        qc = {i.id: i.centroid for i in qgraph.instances}
        for i, a in enumerate(res.inliers):
            for b in res.inliers[i + 1:]:
                assert consistency_check(a, b, qc, ref_map.centroids, cfg.matching.epsilon)

    def test_map_instance_without_field(self, scene, ref_map, taxonomy_module):
        """A map instance without a population, as `load_map` gives for an id
        that `populations.npz` does not list: the match stage skips its
        candidates with a warning, its pairs stay out of the W2 table and the
        self-tuned median, and the query still localizes."""
        pose, scan, qgraph, pops_query, cand_lists = _street_query(scene, ref_map,
                                                                   taxonomy_module)
        index, cfg = ref_map.index, ref_map.config
        touched = [m for _, cands in cand_lists for cid in cands
                   for m in index.descriptors[cid].vertex_ids]
        gone = max(set(touched), key=touched.count)
        pops = {**ref_map.populations, gone: None}
        holed = dataclasses.replace(ref_map, populations=pops)

        with pytest.warns(UserWarning, match=rf"map instances \[{gone}\] lack fields; candidate"):
            kept, w2, sim = pipeline._w2_table(cand_lists, pops_query, holed, cfg)
        assert [cands for _, cands in kept] == [
            [cid for cid in cands if gone not in index.descriptors[cid].vertex_ids]
            for _, cands in cand_lists]
        canonical = {(q, m) for d, cands in kept for cid in cands
                     for q, m in zip(d.vertex_ids, index.descriptors[cid].vertex_ids)}
        ordered = {(d.vertex_ids[k], index.descriptors[cid].vertex_ids[perm[k]])
                   for d, cands in kept for cid in cands
                   for perm in index.orders[cid] for k in range(3)}
        assert set(w2) == canonical | ordered
        median = float(np.median([
            pair_w2(q, m, pops_query, pops, cfg.sim.use_stability) for q, m in canonical]))
        assert sim.accept_threshold == 3.0 * median

        with pytest.warns(UserWarning, match=rf"map instances \[{gone}\] lack fields"):
            res = localize(scan, holed)
        assert res.status == "success"
        assert all(c.map_id != gone for c in res.inliers)
        te, re = pose_error(res.pose, pose)
        assert te <= 0.5 and re <= 2.0

    def test_query_instance_without_field(self, scene, ref_map, taxonomy_module):
        """A query instance without a population, as a failed fit leaves it:
        the match stage skips every triangle on it with a warning and scores
        the rest."""
        _, _, qgraph, pops_query, cand_lists = _street_query(scene, ref_map,
                                                             taxonomy_module)
        touched = [q for d, cands in cand_lists if cands for q in d.vertex_ids]
        gone = max(set(touched), key=touched.count)
        holed = {**pops_query, gone: None}

        with pytest.warns(UserWarning, match=rf"query instances \[{gone}\] lack fields; "
                                             "candidates skipped"):
            kept, w2, _ = pipeline._w2_table(cand_lists, holed, ref_map, ref_map.config)
        assert [cands for _, cands in kept] == [
            [] if gone in d.vertex_ids else cands for d, cands in cand_lists]
        assert all(q != gone for q, _ in w2)
        with pytest.warns(UserWarning, match=rf"query instances \[{gone}\] lack fields"):
            _, matches = pipeline._match(qgraph, holed, ref_map, ref_map.config)
        assert matches and all(gone not in m.query.vertex_ids for m in matches)

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
            assert res.pose is None and res.inlier_count == 0 and res.inliers == []
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

    def test_grid_geometry_mismatch_rejected(self, scene, ref_map):
        cloud, _ = scene
        cfg = RunConfig()
        cfg.gsf.grid.nx = 3
        with pytest.raises(ValidationError, match="gsf.grid.nx"):
            localize(cloud, ref_map, cfg)

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
    scan, the query graph, its stacked populations and its coarse candidates."""
    cloud, _ = scene
    pose = sample_query_poses(1, seed=7, half=15.0)[0]
    scan = simulate_scan(cloud, pose, range_max=60.0, dropout_rate=0.3,
                         noise_sigma=0.03, seed=42)
    cfg = ref_map.config
    qgraph = pipeline._query_graph(scan, taxonomy, cfg)
    pops_query = pipeline._query_probes(qgraph, taxonomy, cfg)
    cand_lists = [(d, query_index(ref_map.index, d))
                  for d in triangulate(qgraph, cfg.index.k_neighbors)]
    return pose, scan, qgraph, pops_query, cand_lists


class TestMatch:
    def test_table_equals_written_out_loop(self, scene, ref_map, taxonomy_module):
        """The match stage's W2 table path against a loop that calls
        `w2_squared` for every (candidate, vertex order, vertex) and takes the
        min over yaws: the same survivors in the same order, ties included,
        with scores and weights within 1e-9."""
        _, _, qgraph, pops_query, cand_lists = _street_query(scene, ref_map,
                                                             taxonomy_module)
        index, pops_map = ref_map.index, ref_map.populations
        assert all(p is not None for p in [*pops_query.values(), *pops_map.values()])
        _, got = pipeline._match(qgraph, pops_query, ref_map, ref_map.config)

        def w2(q, m):
            return float(np.min(w2_squared(pops_query[q], pops_map[m], use_stability=True)))

        median = float(np.median([
            w2(q, m) for q, m in {(q, m) for d, cands in cand_lists for cid in cands
                                  for q, m in zip(d.vertex_ids,
                                                  index.descriptors[cid].vertex_ids)}]))
        sigma_w, accept = np.sqrt(median), 3.0 * median
        want = []
        for d, cands in cand_lists:
            kept = []
            for cid in cands:
                best = None
                for perm in index.orders[cid]:
                    pairs = [(d.vertex_ids[k], index.descriptors[cid].vertex_ids[perm[k]])
                             for k in range(3)]
                    scores = [w2(q, m) for q, m in pairs]
                    total = scores[0] + scores[1] + scores[2]
                    if best is None or total < best[0]:
                        best = (total, cid, pairs, scores)
                if best[0] <= 3.0 * accept:
                    kept.append(best)
            want += sorted(kept, key=lambda b: (b[0], b[1]))
        assert len(got) == len(want) > 0
        for m, (total, cid, pairs, scores) in zip(got, want):
            assert m.map.id == cid and list(m.pairs) == pairs
            assert abs(m.w2_total - total) < 1e-9
            for omega, s in zip(m.omegas, scores):
                assert abs(omega - np.exp(-s / (2.0 * sigma_w**2))) < 1e-9


    def test_table_covers_every_stored_order(self, ref_map):
        """An equilateral candidate pairs its vertices under all six orders:
        the table holds all nine pairs, and the similarity self-tunes to the
        median over the three canonical ones."""
        pops_query = {q: stack_pops([ref_map.populations[q]]) for q in (0, 1, 2)}
        q = TriangleDescriptor(0, (0, 1, 2), (4.0, 4.0, 4.0), (7, 7, 7))
        cand = TriangleDescriptor(0, (3, 4, 5), (4.0, 4.0, 4.0), (7, 7, 7))
        one = dataclasses.replace(ref_map, index=build_index([cand], 0.5))
        kept, w2, sim = pipeline._w2_table([(q, [0])], pops_query, one, ref_map.config)
        assert kept == [(q, [0])]
        assert sorted(w2) == [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
        median = float(np.median([w2[(0, 3)], w2[(1, 4)], w2[(2, 5)]]))
        assert sim.accept_threshold == 3.0 * median and sim.sigma_w == np.sqrt(median)


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


class TestConfig:
    @pytest.mark.parametrize("key, bad, edge", [
        ("cluster.neighborhood_radius", -1.0, 0.0),
        ("cluster.default_threshold", -0.5, 0.0),
        ("cluster.min_cluster_size", -1, 0),
        ("matching.epsilon", -0.1, 0.0),
        ("solver.rel_tol", -1e-6, 0.0),
        ("pipeline.query_voxel", -0.2, 0.0),
        ("gsf.grid.dx", 0.0, 1e-3),
        ("gsf.grid.dy", -2.5, 1e-3),
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
            ('cluster.thresholds={"pole": "x"}', "'cluster.thresholds' wants a number > 0"),
            ('cluster.thresholds={"car": true}', "'cluster.thresholds' wants a number > 0"),
            ('cluster.thresholds={"pole": 0}', "'cluster.thresholds' wants a number > 0"),
        ]:
            with pytest.raises(ValidationError, match=message):
                RunConfig().apply_overrides([override])
