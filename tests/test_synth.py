import re

import numpy as np
import pytest

from gsfloc.core import RigidTransform, ValidationError, rot_z, transform_cloud
from gsfloc.pose_solver import WeightedCorrespondenceSet, weighted_kabsch
from gsfloc.config import ClusterSection
from gsfloc.scene_graph import cluster_instances
from gsfloc.synth import (
    EvalReport,
    GenerationError,
    InstanceTemplate,
    QueryRow,
    SceneSpec,
    generate_mirrored_twin,
    generate_scene,
    sample_query_poses,
    simulate_scan,
)

from conftest import small_scene_spec, twin_scene_spec


class TestGenerateScene:
    def test_background_only(self, taxonomy):
        spec = SceneSpec(extent=30, templates=[], seed=0)
        cloud, gt = generate_scene(spec, taxonomy)
        assert gt == []
        assert cloud.n > 0
        assert not any(taxonomy.is_instantiable(int(c)) for c in np.unique(cloud.labels))

    def test_five_poles_recoverable(self, taxonomy):
        spec = SceneSpec(extent=60, templates=[InstanceTemplate("pole", 5, 120)], seed=1)
        cloud, gt = generate_scene(spec, taxonomy)
        assert len(gt) == 5
        params = ClusterSection(thresholds={"pole": 0.5})
        insts = cluster_instances(cloud, taxonomy, params)
        assert len(insts) == 5
        got = sorted(tuple(np.round(c, 4)) for c in insts.centroids)
        want = sorted(tuple(np.round(g.centroid, 4)) for g in gt)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_determinism(self, taxonomy):
        a, _ = generate_scene(small_scene_spec(seed=5), taxonomy)
        b, _ = generate_scene(small_scene_spec(seed=5), taxonomy)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.logits, b.logits)

    def test_infeasible_placement(self, taxonomy):
        spec = SceneSpec(extent=10, templates=[InstanceTemplate("truck", 20, 50)], seed=2)
        with pytest.raises(GenerationError):
            generate_scene(spec, taxonomy)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SceneSpec(extent=-1)
        with pytest.raises(ValidationError):
            SceneSpec(symmetry="diagonal")
        # a spec built in code is held to its fields' bounds, its instances' too
        for bad in (float("inf"), float("nan"), 2e6):
            with pytest.raises(ValidationError, match="scene spec field extent must be"):
                SceneSpec(extent=bad)
        with pytest.raises(ValidationError, match=r"instances\[1\]\.count must be >= 0"):
            SceneSpec(templates=[InstanceTemplate("pole", 1), InstanceTemplate("car", -1)])
        with pytest.raises(ValidationError):
            SceneSpec.from_dict({"bogus_key": 1})
        with pytest.raises(ValidationError, match="instances\\[0\\]"):
            SceneSpec.from_dict({"instances": [{"class": "pole"}]})

    def test_spec_dict_round_trip(self):
        spec = small_scene_spec(seed=3)
        again = SceneSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()


class TestMirroredTwin:
    def test_constellation_congruence(self, taxonomy):
        cloud, gt, info = generate_mirrored_twin(twin_scene_spec(4, 0.3), taxonomy)
        k = len(gt) // 2
        c1 = np.stack([g.centroid for g in gt[:k]])
        c2 = np.stack([g.centroid for g in gt[k:]])
        np.testing.assert_allclose(info.isometry.apply(c1), c2, atol=1e-6)
        est = weighted_kabsch(WeightedCorrespondenceSet(c2, c1, np.ones(k)))
        assert np.abs(est.apply(c1) - c2).max() <= 1e-6

    def test_zero_perturbation_fully_congruent(self, taxonomy):
        cloud, gt, info = generate_mirrored_twin(twin_scene_spec(5, 0.0), taxonomy)
        n = cloud.n // 2
        np.testing.assert_allclose(
            info.isometry.apply(cloud.points[:n]), cloud.points[n:], atol=1e-9
        )
        np.testing.assert_array_equal(cloud.logits[:n], cloud.logits[n:])
        assert info.measured_deviation == 0.0

    def test_measured_deviation_matches_magnitude(self, taxonomy):
        for mag in (0.2, 0.5, 1.0):
            _, _, info = generate_mirrored_twin(twin_scene_spec(6, mag), taxonomy)
            assert abs(info.measured_deviation - mag) < 1e-9

    def test_twin_w2_gap_grows_with_perturbation(self, taxonomy):
        from gsfloc.config import RunConfig
        from gsfloc.gsf import grid_probe
        from gsfloc.pipeline import build_map
        from gsfloc.scene_graph import build_scene_graph, fit_fields
        from gsfloc.wasserstein import w2_squared

        gaps = []
        for mag in (0.0, 1.0):
            cloud, gt, info = generate_mirrored_twin(twin_scene_spec(7, mag), taxonomy)
            ref = build_map(cloud, taxonomy, RunConfig())
            graph = build_scene_graph(cloud, taxonomy, ref.config)
            fields = dict(fit_fields(graph, cloud, ref.config))
            left = np.flatnonzero(graph.centroids[:, 0] < 0)
            pair_gap = []
            for iid in left.tolist():
                target = info.isometry.apply(graph.centroids[iid].reshape(1, 3))[0]
                other = int(np.argmin(np.linalg.norm(graph.centroids - target, axis=1)))
                fld, pb = fields[iid], ref.populations[other]
                if fld is None or pb is None:
                    continue
                # min-over-yaw comparison, as the matching stage performs it:
                # the twins' local frames differ by a 180-degree yaw
                pair_gap.append(
                    min(
                        w2_squared(
                            grid_probe(fld, taxonomy, ref.config.gsf.grid, 2 * np.pi * k / 8),
                            pb,
                        )
                        for k in range(8)
                    )
                )
            gaps.append(float(np.median(pair_gap)))
        # mag 0 leaves only sparsification sampling noise between the twins;
        # a supra-threshold perturbation must dominate that floor
        assert gaps[1] > 5.0 * gaps[0]


class TestSimulateScan:
    def test_identity_no_noise(self, taxonomy):
        cloud, _ = generate_scene(small_scene_spec(seed=8), taxonomy)
        scan = simulate_scan(cloud, RigidTransform.identity(), range_max=1e4)
        assert np.array_equal(scan.points, cloud.points)
        assert np.array_equal(scan.labels, cloud.labels)

    def test_dropout_statistics(self, taxonomy):
        cloud, _ = generate_scene(small_scene_spec(seed=9), taxonomy)
        n = cloud.n
        scan = simulate_scan(cloud, RigidTransform.identity(), 1e4, dropout_rate=0.5, seed=1)
        sigma = np.sqrt(n * 0.25)
        assert abs(scan.n - 0.5 * n) <= 3 * sigma

    def test_range_limit(self, taxonomy):
        cloud, _ = generate_scene(small_scene_spec(seed=10), taxonomy)
        pose = RigidTransform(np.eye(3), np.array([5.0, 5.0, 0.0]))
        scan = simulate_scan(cloud, pose, range_max=15.0)
        world = transform_cloud(scan, pose)
        assert (np.linalg.norm(world.points - pose.t, axis=1) <= 15.0 + 1e-9).all()

    def test_round_trip_realignment(self, taxonomy):
        cloud, _ = generate_scene(small_scene_spec(seed=11), taxonomy)
        pose = RigidTransform(rot_z(0.7), np.array([3.0, -2.0, 1.5]))
        scan = simulate_scan(cloud, pose, 1e4, noise_sigma=0.01, seed=2)
        world = transform_cloud(scan, pose)
        assert world.n == cloud.n
        assert np.abs(world.points - cloud.points).max() < 0.01 * 6

    def test_pose_commutation_noiseless(self, taxonomy):
        cloud, _ = generate_scene(small_scene_spec(seed=12), taxonomy)
        T = RigidTransform(rot_z(1.1), np.array([2.0, 1.0, 0.0]))
        pose = RigidTransform(rot_z(0.3), np.array([1.0, 4.0, 1.0]))
        a = simulate_scan(transform_cloud(cloud, T), T.compose(pose), 1e4)
        b = simulate_scan(cloud, pose, 1e4)
        np.testing.assert_allclose(a.points, b.points, atol=1e-9)

    def test_validation(self, taxonomy):
        cloud, _ = generate_scene(small_scene_spec(seed=13), taxonomy)
        with pytest.raises(ValidationError):
            simulate_scan(cloud, RigidTransform.identity(), 10.0, dropout_rate=1.0)
        for noise, says in ((-1.0, ">= 0"), (np.nan, "finite")):
            with pytest.raises(ValidationError, match=f"noise_sigma must be {says}"):
                simulate_scan(cloud, RigidTransform.identity(), 10.0, noise_sigma=noise)

    @pytest.mark.parametrize("range_max", [np.nan, -1.0, 0.0])
    def test_range_max_refused(self, taxonomy, range_max):
        """A range that is not > 0 is refused by QuerySpec's bound, not scanned
        into an empty cloud."""
        cloud, _ = generate_scene(small_scene_spec(seed=13), taxonomy)
        says = "finite or Infinity" if np.isnan(range_max) else "> 0"
        with pytest.raises(ValidationError, match=f"query spec field range_max must be {says}"):
            simulate_scan(cloud, RigidTransform.identity(), range_max)
        assert simulate_scan(cloud, RigidTransform.identity(), np.inf).n == cloud.n

    @pytest.mark.parametrize("kwargs, field", [
        ({"z": np.nan}, "z"),
        ({"z": 2e6}, "z"),
        ({"half": np.nan}, "region_half"),
        ({"half": np.inf}, "region_half"),
        ({"half": -1.0}, "region_half"),
        ({"count": 0}, "count"),
    ], ids=["z-nan", "z-far", "half-nan", "half-inf", "half-negative", "count-zero"])
    def test_sample_poses_refused(self, kwargs, field):
        """The pose numbers are held to QuerySpec's bounds: a NaN height gave
        NaN poses, and a NaN or infinite half-size an OverflowError."""
        with pytest.raises(ValidationError, match=f"query spec field {field} must be"):
            sample_query_poses(**{"count": 2, "seed": 0, **kwargs})

    @pytest.mark.parametrize("kwargs, says", [
        ({"center": (np.nan, 0.0)}, "center[0] must be finite, got nan"),
        ({"center": np.array([0.0, np.inf])}, "center[1] must be <= 1000000.0, got inf"),
        ({"center": (0.0, -2e6)}, "center[1] must be >= -1000000.0, got -2000000.0"),
        ({"center": (0.0, 0.0, 0.0)}, "center must be two numbers, got [0.0, 0.0, 0.0]"),
        ({"center": 5.0}, "center expects a list, got 5.0"),
        ({"half": None}, "half must be a number, got None"),
    ], ids=["center-nan", "center-inf", "center-far", "center-three", "center-scalar",
            "half-none"])
    def test_sample_poses_argument_refused(self, kwargs, says):
        """A center that is not two finite numbers within FAR, and a half-size
        of None, which only a spec resolves against its extent, are refused
        naming the argument: a NaN center gave NaN poses, None a TypeError."""
        with pytest.raises(ValidationError, match="^" + re.escape(says)):
            sample_query_poses(**{"count": 2, "seed": 0, **kwargs})

    def test_sample_poses_center_shifts_poses(self):
        """A center given as a list, a tuple or an array shifts the same draws."""
        at_origin = sample_query_poses(3, seed=4)
        for center in ([10, -5], (10.0, -5.0), np.array([10.0, -5.0])):
            moved = sample_query_poses(3, seed=4, center=center)
            assert all(np.array_equal(b.t, a.t + [10.0, -5.0, 0.0]) and np.array_equal(b.R, a.R)
                       for a, b in zip(at_origin, moved))


class TestEvalReport:
    def _rows(self):
        rng = np.random.default_rng(14)
        rows = []
        for i in range(10):
            ok = i % 3 != 0
            pose = RigidTransform(rot_z(rng.uniform(0, 6)), rng.uniform(-5, 5, 3))
            rows.append(
                QueryRow(
                    i, 100 + i, pose, "success" if ok else "no-match",
                    pose if ok else None,
                    float(rng.uniform(0, 0.5)) if ok else float("nan"),
                    float(rng.uniform(0, 2.0)) if ok else float("nan"),
                    ok, 5, 5, {"graph": 1.0, "total": 2.0},
                )
            )
        return rows

    def test_aggregates_recomputable(self):
        rows = self._rows()
        report = EvalReport.from_rows(rows)
        again = EvalReport.compute_aggregates(rows)
        for k, v in report.aggregates.items():
            if isinstance(v, float):
                assert abs(v - again[k]) <= 1e-12
            else:
                assert v == again[k]
        assert report.aggregates["success_rate"] == report.aggregates["successes"] / 10

    def test_csv_deterministic_and_timings_toggle(self, tmp_path):
        rows = self._rows()
        report = EvalReport.from_rows(rows)
        a = report.to_csv(include_timings=False)
        b = report.to_csv(include_timings=False)
        assert a == b
        assert "t_graph_ms" not in a
        assert "t_graph_ms" in report.to_csv(include_timings=True)

    def test_sample_poses_deterministic(self):
        a = sample_query_poses(5, seed=3)
        b = sample_query_poses(5, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.matrix_3x4(), y.matrix_3x4())
