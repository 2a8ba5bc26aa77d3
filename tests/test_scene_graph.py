import json
import warnings

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from gsfloc.config import ClusterSection, RunConfig
from gsfloc.core import (FormatError, SemanticPointCloud, ValidationError, one_hot_logits,
                         transform_cloud)
from gsfloc import scene_graph
from gsfloc.gsf import GpHyperParams, fit_gsf
from gsfloc.scene_graph import (
    SceneGraph,
    build_scene_graph,
    cluster_instances,
    fit_fields,
    load_scene_graph,
    save_scene_graph,
)

from conftest import random_transform, small_scene_spec


def make_cloud(points, labels, num_classes=12):
    labels = np.asarray(labels)
    return SemanticPointCloud(points, labels, one_hot_logits(labels, num_classes))


def cluster_params(thresholds=None, min_cluster_size=10):
    """A cluster section with no per-class thresholds unless given (1.0 m for all)."""
    return ClusterSection(thresholds=thresholds or {}, min_cluster_size=min_cluster_size)


def rows(graph):
    """(label, centroid, members) of each instance of a scene graph, in id order."""
    return list(zip(graph.labels.tolist(), graph.centroids, graph.members, strict=True))


def graph_of(centroids, labels, members):
    """A scene graph of the given rows."""
    return SceneGraph(np.asarray(centroids, dtype=float).reshape(-1, 3),
                      np.asarray(labels, dtype=np.int64), list(members))


def blob(rng, center, n=15, scale=0.1):
    return np.asarray(center) + rng.normal(0, scale, size=(n, 3))


def brute_force_clusters(points, labels, taxonomy, params):
    """O(N^2) union-find over the full pairwise distance matrix."""
    out = []
    for cid in taxonomy.instantiable_ids():
        idx = np.nonzero(labels == cid)[0]
        if idx.size == 0:
            continue
        pts = points[idx]
        parent = list(range(idx.size))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        thr = params.thresholds.get(taxonomy.name(cid), params.default_threshold)
        for i in range(idx.size):
            for j in range(i + 1, idx.size):
                if np.linalg.norm(pts[i] - pts[j]) <= thr:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
        groups = {}
        for i in range(idx.size):
            groups.setdefault(find(i), []).append(int(idx[i]))
        for g in groups.values():
            if len(g) >= params.min_cluster_size:
                out.append((cid, frozenset(g)))
    return set(out)


def per_class_clusters(cloud, taxonomy, params):
    """Written-out reference: one tree, one sparse graph and one component pass
    per class, then the documented sort."""
    raw = []
    for cid in taxonomy.instantiable_ids():
        mask = np.nonzero(cloud.labels == cid)[0]
        if mask.size == 0:
            continue
        pairs = cKDTree(cloud.points[mask]).query_pairs(
            params.thresholds.get(taxonomy.name(cid), params.default_threshold),
            output_type="ndarray")
        links = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                           shape=(mask.size, mask.size))
        _, comp = connected_components(links, directed=False)
        sizes = np.bincount(comp)
        members = np.split(np.argsort(comp, kind="stable"), np.cumsum(sizes)[:-1])
        raw += [(cid, mask[idx]) for size, idx in zip(sizes, members)
                if size >= params.min_cluster_size]
    keyed = sorted(((label, tuple(cloud.points[idx].mean(axis=0)), idx) for label, idx in raw),
                   key=lambda k: (k[0], k[1]))
    return [(label, cloud.points[idx].mean(axis=0), np.sort(idx)) for label, _, idx in keyed]


class TestClustering:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_pass_equals_per_class_reference(self, taxonomy, seed):
        """One sparse graph over every class equals one per class, bit for bit:
        labels, centroids and members. The cloud mixes classes, holds a class
        with no points, a cluster of exactly min_cluster_size points (kept),
        one of one fewer (dropped) and scattered singletons."""
        rng = np.random.default_rng(seed)
        classes = taxonomy.instantiable_ids()
        chunks, labels = [], []
        for k, size in enumerate([5, 4, 12, 30, 5, 1, 1, 1]):
            cid = classes[k % (len(classes) - 1)]  # the last class stays empty
            chunks.append(blob(rng, rng.uniform(-20, 20, 3), n=size, scale=0.15))
            labels.append(np.full(size, cid))
        chunks.append(rng.uniform(-30, 30, (40, 3)))
        labels.append(rng.choice([taxonomy.id_of("road"), *classes[:-1]], 40))
        perm = rng.permutation(sum(map(len, chunks)))
        cloud = make_cloud(np.vstack(chunks)[perm], np.concatenate(labels)[perm])
        assert not (cloud.labels == classes[-1]).any()
        params = cluster_params(thresholds={taxonomy.name(classes[0]): 0.5}, min_cluster_size=5)
        got = cluster_instances(cloud, taxonomy, params)
        want = per_class_clusters(cloud, taxonomy, params)
        assert len(got) == len(want)
        assert 5 in {len(idx) for _, _, idx in want} and len(want) >= 3
        for (got_label, got_centroid, got_idx), (label, centroid, idx) in zip(rows(got), want,
                                                                              strict=True):
            assert got_label == label
            assert np.array_equal(got_centroid, centroid)
            assert np.array_equal(got_idx, idx)

    def test_one_pass_equals_per_class_reference_on_a_scene(self, taxonomy):
        from gsfloc.synth import generate_scene

        cloud, _ = generate_scene(small_scene_spec(seed=31), taxonomy)
        params = RunConfig().cluster
        got = cluster_instances(cloud, taxonomy, params)
        want = per_class_clusters(cloud, taxonomy, params)
        assert len(got) == len(want) >= 20
        for (got_label, got_centroid, got_idx), (label, centroid, idx) in zip(rows(got), want):
            assert got_label == label
            assert np.array_equal(got_centroid, centroid)
            assert np.array_equal(got_idx, idx)

    def test_two_separated_blobs(self, taxonomy):
        rng = np.random.default_rng(0)
        pole = taxonomy.id_of("pole")
        pts = np.vstack([blob(rng, [0, 0, 0]), blob(rng, [10, 0, 0])])
        cloud = make_cloud(pts, np.full(30, pole))
        insts = cluster_instances(cloud, taxonomy, cluster_params(min_cluster_size=5))
        assert len(insts) == 2

    def test_non_instantiable_filtered(self, taxonomy):
        rng = np.random.default_rng(1)
        road = taxonomy.id_of("road")
        cloud = make_cloud(blob(rng, [0, 0, 0], n=40), np.full(40, road))
        assert len(cluster_instances(cloud, taxonomy, cluster_params())) == 0

    def test_min_cluster_size(self, taxonomy):
        rng = np.random.default_rng(2)
        pole = taxonomy.id_of("pole")
        cloud = make_cloud(blob(rng, [0, 0, 0], n=9), np.full(9, pole))
        assert len(cluster_instances(cloud, taxonomy, cluster_params(min_cluster_size=10))) == 0

    def test_unknown_threshold_class_rejected(self, taxonomy):
        cloud = make_cloud(np.zeros((1, 3)), [taxonomy.id_of("pole")])
        with pytest.raises(ValidationError, match="unknown class 'lamp'"):
            cluster_instances(cloud, taxonomy, cluster_params(thresholds={"lamp": 0.5}))

    def test_matches_brute_force_union_find(self, taxonomy):
        rng = np.random.default_rng(3)
        for trial in range(8):
            chunks, labels = [], []
            for _ in range(rng.integers(2, 6)):
                cid = int(rng.choice(taxonomy.instantiable_ids()))
                c = rng.uniform(-15, 15, 3)
                n = int(rng.integers(4, 20))
                chunks.append(blob(rng, c, n=n, scale=rng.uniform(0.05, 0.8)))
                labels.append(np.full(n, cid))
            pts = np.vstack(chunks)
            labels = np.concatenate(labels)
            cloud = make_cloud(pts, labels)
            params = cluster_params(min_cluster_size=3)
            got = {
                (label, frozenset(int(i) for i in idx))
                for label, _, idx in rows(cluster_instances(cloud, taxonomy, params))
            }
            want = brute_force_clusters(pts, labels, taxonomy, params)
            assert got == want, f"trial {trial}"

    def test_permutation_invariance(self, taxonomy):
        rng = np.random.default_rng(4)
        pole = taxonomy.id_of("pole")
        pts = np.vstack([blob(rng, [0, 0, 0]), blob(rng, [8, 0, 0]), blob(rng, [0, 9, 0])])
        labels = np.full(45, pole)
        perm = rng.permutation(45)
        a = cluster_instances(make_cloud(pts, labels), taxonomy, cluster_params(min_cluster_size=5))
        b = cluster_instances(make_cloud(pts[perm], labels[perm]), taxonomy,
                              cluster_params(min_cluster_size=5))
        assert len(a) == len(b)
        np.testing.assert_allclose(a.centroids, b.centroids, atol=1e-12)

    def test_rigid_equivariance(self, taxonomy):
        rng = np.random.default_rng(5)
        pole = taxonomy.id_of("pole")
        pts = np.vstack([blob(rng, [0, 0, 0]), blob(rng, [12, 0, 0])])
        cloud = make_cloud(pts, np.full(30, pole))
        T = random_transform(rng)
        a = cluster_instances(cloud, taxonomy, cluster_params(min_cluster_size=5))
        b = cluster_instances(transform_cloud(cloud, T), taxonomy,
                              cluster_params(min_cluster_size=5))
        got = sorted(tuple(np.round(T.apply(c), 6)) for c in a.centroids)
        want = sorted(tuple(np.round(c, 6)) for c in b.centroids)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_centroid_invariant_and_no_duplicates(self, taxonomy):
        from gsfloc.synth import generate_scene

        cloud, _ = generate_scene(small_scene_spec(seed=21), taxonomy)
        insts = cluster_instances(cloud, taxonomy, cluster_params(
            thresholds={"pole": 0.5, "trunk": 0.5, "traffic-sign": 0.5}))
        seen = set()
        for label, centroid, idx in rows(insts):
            np.testing.assert_allclose(centroid, cloud.points[idx].mean(axis=0), atol=1e-9)
            assert (cloud.labels[idx] == label).all()
            members = set(int(i) for i in idx)
            assert not (members & seen)
            seen |= members
        # one row per instance in every column, sorted by (label, centroid)
        k = len(insts)
        assert insts.centroids.shape == (k, 3) and insts.labels.shape == (k,)
        assert len(insts.members) == k
        keys = [(label, tuple(centroid)) for label, centroid, _ in rows(insts)]
        assert keys == sorted(keys)


class TestBuildGraph:
    def test_no_instantiable_points(self, taxonomy):
        rng = np.random.default_rng(8)
        road = taxonomy.id_of("road")
        cloud = make_cloud(blob(rng, [0, 0, 0], n=50), np.full(50, road))
        graph = build_scene_graph(cloud, taxonomy, RunConfig(cluster=cluster_params()))
        assert len(graph) == 0 and graph.centroids.shape == (0, 3)

    def test_planted_poles_get_fields(self, taxonomy):
        from gsfloc.synth import InstanceTemplate, SceneSpec, generate_scene

        spec = SceneSpec(extent=60, templates=[InstanceTemplate("pole", 5, 120)], seed=9)
        cloud, gt = generate_scene(spec, taxonomy)
        cfg = RunConfig(cluster=cluster_params(thresholds={"pole": 0.5}))
        graph = build_scene_graph(cloud, taxonomy, cfg)
        assert len(graph) == 5
        fields = list(fit_fields(graph, cloud, cfg))
        assert [iid for iid, _ in fields] == list(range(len(graph)))
        assert all(fld is not None for _, fld in fields)
        got = sorted(tuple(np.round(c, 4)) for c in graph.centroids)
        want = sorted(tuple(np.round(g.centroid, 4)) for g in gt)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_neighborhood_radius_oracle(self, taxonomy):
        from gsfloc.synth import generate_scene

        cloud, _ = generate_scene(small_scene_spec(seed=10), taxonomy)
        cfg = RunConfig(cluster=cluster_params())
        graph = build_scene_graph(cloud, taxonomy, cfg)
        centroid = graph.centroids[0]
        fld = dict(fit_fields(graph, cloud, cfg))[0]
        dist = np.linalg.norm(cloud.points - centroid, axis=1)
        want = np.nonzero(dist <= cfg.cluster.neighborhood_radius)[0]
        # every training row, back in the map frame, is a cloud point of the neighborhood
        gap, nearest = cKDTree(cloud.points).query(fld.X + centroid)
        assert gap.max() < 1e-9
        assert np.all(dist[nearest] <= cfg.cluster.neighborhood_radius)
        neighborhood_classes = set(int(c) for c in cloud.labels[want])
        assert len(neighborhood_classes) > 1  # all classes included, not only instantiable


    @pytest.mark.parametrize("centroid", [(0.0, 0.0, 0.0), (1.5, -2.25, 0.5)])
    def test_neighborhood_boundary_as_ball_query(self, centroid):
        """A point exactly `neighborhood_radius` from the centroid is in its
        neighbourhood and one at the next float beyond is not, as with
        `cKDTree.query_ball_point`."""
        r = 10.0
        c = np.array(centroid)
        beyond = np.nextafter(r, np.inf)
        offsets = np.array([[r, 0, 0], [0, -r, 0], [0, 0, r], [6, 8, 0], [0, 0, 0.5],
                            [beyond, 0, 0], [0, -beyond, 0], [6, np.nextafter(8.0, 9.0), 0],
                            [0, 0, beyond]])
        cloud = make_cloud(c + offsets, [1] * len(offsets))
        assert np.array_equal(np.linalg.norm(cloud.points - c, axis=1)[:5], [r] * 4 + [0.5])
        cfg = RunConfig()
        cfg.cluster.neighborhood_radius = r
        (_, fld), = fit_fields(graph_of([c], [1], [np.arange(5)]), cloud, cfg)
        kept = cKDTree(cloud.points).query_ball_point(c, r, return_sorted=True)
        assert kept == [0, 1, 2, 3, 4]
        assert np.array_equal(fld.X + c, cloud.points[kept])

    def test_budget_too_small_for_class_mix_warns(self):
        """A neighbourhood whose class-proportional draw keeps no point, three
        equal classes at budget 1, gets no field and a warning naming why."""
        rng = np.random.default_rng(3)
        cloud = make_cloud(rng.normal(size=(12, 3)), [0, 1, 2] * 4)
        cfg = RunConfig()
        cfg.gsf.budget = 1
        with pytest.warns(UserWarning, match="instance 0: sparsification kept 0 points"):
            (iid, fld), = fit_fields(graph_of([np.zeros(3)], [1], [np.arange(4)]), cloud, cfg)
        assert (iid, fld) == (0, None)

    def test_kept_count_above_budget_drawn_once(self):
        """Rounding can keep more points than the budget (classes of 1, 1 and 4
        points at budget 4 keep 1, 1 and 3): the field is fit on those 5, drawn
        once, as `fit_gsf` draws them from the whole neighbourhood; a second
        draw at budget 4 would keep 1, 1 and 2."""
        rng = np.random.default_rng(4)
        cloud = make_cloud(rng.normal(size=(6, 3)), [0, 1, 2, 2, 2, 2])
        cfg = RunConfig()
        cfg.gsf.budget = 4
        (_, fld), = fit_fields(graph_of([np.zeros(3)], [1], [np.arange(3)]), cloud, cfg)
        want = fit_gsf(cloud.points, cloud.logits, cloud.labels,
                       GpHyperParams(cfg.gsf.kappa, cfg.gsf.sigma_y), 4,
                       seed=[cfg.pipeline.seed, 0])
        assert fld.m == want.m == 5
        assert fld.X.tobytes() == want.X.tobytes() and fld.Y.tobytes() == want.Y.tobytes()

    def test_batched_neighborhoods_equal_single_queries(self, taxonomy):
        """`fit_fields`, with one distance row and one draw from the labels per
        instance, equals byte for byte a written-out loop of sorted
        single-centroid ball queries, each followed by `fit_gsf` on the whole
        neighbourhood: X, Y, the factor, the whitened targets and the jitter of
        every field. An instance with an empty neighbourhood gets None and a
        warning."""
        from gsfloc.synth import generate_scene

        cloud, _ = generate_scene(small_scene_spec(seed=10), taxonomy)
        cfg = RunConfig()
        graph = build_scene_graph(cloud, taxonomy, cfg)
        far = len(graph)  # an instance with an empty neighbourhood
        graph = graph_of(np.vstack([graph.centroids, [500.0, 500.0, 0.0]]),
                         np.append(graph.labels, 7), graph.members + [np.zeros(0, int)])
        tree = cKDTree(cloud.points)
        for radius in (0.5, 3.0, cfg.cluster.neighborhood_radius):
            cfg.cluster.neighborhood_radius = radius
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = list(fit_fields(graph, cloud, cfg))
            assert any(f"instance {far}: cannot fit" in str(w.message) for w in caught)
            assert [iid for iid, _ in got] == list(range(len(graph)))
            assert got[-1][1] is None
            fitted = 0
            for (iid, fld), centroid in zip(got[:-1], graph.centroids):
                idx = np.sort(np.asarray(tree.query_ball_point(centroid, radius),
                                         dtype=np.int64))
                if not idx.size:
                    assert fld is None
                    continue
                want = fit_gsf(cloud.points[idx] - centroid, cloud.logits[idx],
                               cloud.labels[idx], GpHyperParams(cfg.gsf.kappa, cfg.gsf.sigma_y),
                               cfg.gsf.budget, seed=[cfg.pipeline.seed, iid])
                fitted += 1
                for a, b in [(fld.X, want.X), (fld.Y, want.Y), (fld.factor, want.factor),
                             (fld.white_y, want.white_y)]:
                    assert a.tobytes() == b.tobytes()
                assert fld.jitter == want.jitter
            assert fitted >= len(graph) // 2
        assert list(fit_fields(graph_of([], [], []), cloud, cfg)) == []

    def test_fit_fields_is_lazy(self, taxonomy, monkeypatch):
        """Each field is fitted only when it is asked for: none before the first
        item is taken, exactly one after it."""
        from gsfloc.synth import generate_scene

        cloud, _ = generate_scene(small_scene_spec(seed=10), taxonomy)
        cfg = RunConfig()
        graph = build_scene_graph(cloud, taxonomy, cfg)
        assert len(graph) > 2
        calls = []
        monkeypatch.setattr(scene_graph, "fit_gsf",
                            lambda *a, **k: calls.append(k["seed"]) or fit_gsf(*a, **k))
        fields = fit_fields(graph, cloud, cfg)
        assert calls == []
        assert next(fields)[0] == 0
        assert calls == [[cfg.pipeline.seed, 0]]
        assert next(fields)[0] == 1
        assert len(calls) == 2


class TestSerialization:
    def test_round_trip(self, taxonomy, tmp_path):
        from gsfloc.synth import generate_scene

        cloud, _ = generate_scene(small_scene_spec(seed=13), taxonomy)
        cfg = RunConfig(cluster=cluster_params())
        graph = build_scene_graph(cloud, taxonomy, cfg)
        save_scene_graph(graph.centroids, tmp_path / "g.json")
        again = load_scene_graph(tmp_path / "g.json")
        assert again.shape == (len(graph), 3)
        np.testing.assert_array_equal(again, graph.centroids)

    @pytest.mark.parametrize("k, bad", [(0, False), (1, True), (2, 2.0)],
                             ids=["false", "true", "float"])
    def test_id_not_a_json_integer_refused(self, tmp_path, k, bad):
        """An id equal to its row as a value but not a JSON integer (false for
        0, true for 1, 2.0 for 2) is a FormatError naming the record."""
        path = tmp_path / "g.json"
        save_scene_graph(np.arange(9.0).reshape(3, 3), path)
        doc = json.loads(path.read_text())
        doc["instances"][k]["id"] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=rf"{path}: instance ids must be 0\.\.K-1 in "
                                              rf"list order; record {k} has id {bad!r}"):
            load_scene_graph(path)
