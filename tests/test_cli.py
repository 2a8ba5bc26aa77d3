import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import gsfloc
from gsfloc.cli import main
from gsfloc.core import default_taxonomy, save_cloud
from gsfloc.synth import generate_scene, sample_query_poses, simulate_scan

from conftest import pole_line_scene, small_scene_spec


@pytest.fixture(scope="module")
def scene_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scene")
    tax = default_taxonomy()
    cloud, _ = generate_scene(small_scene_spec(seed=41), tax)
    save_cloud(cloud, tmp / "map.points", tmp / "map.labels", tmp / "map.logits")
    pose = sample_query_poses(1, seed=2, half=15.0)[0]
    scan = simulate_scan(cloud, pose, 60.0, 0.3, 0.03, seed=3)
    save_cloud(scan, tmp / "q.points", tmp / "q.labels", tmp / "q.logits")
    from gsfloc.synth import InstanceTemplate, SceneSpec

    sparse = SceneSpec(
        extent=70,
        templates=[InstanceTemplate("pole", 3, 140), InstanceTemplate("car", 2, 260),
                   InstanceTemplate("trunk", 2, 160)],
        seed=999,
    )
    other, _ = generate_scene(sparse, tax)
    far = simulate_scan(other, sample_query_poses(1, seed=4, half=10.0)[0], 40.0,
                        0.1, 0.02, seed=5)
    save_cloud(far, tmp / "far.points", tmp / "far.labels", tmp / "far.logits")
    return tmp


def _npz_edit(raw: bytes, header_unclosed=None, **edits) -> bytes:
    """An npz archive's bytes with `edits[key](array)` in place of each array
    it names, or without the array where that is None; or with the array
    header of `header_unclosed` left without its closing brace, which numpy's
    header parse meets with a tokenize error."""
    with np.load(io.BytesIO(raw)) as buf:
        arrays = {k: buf[k] for k in buf.files}
    for key, edit in edits.items():
        if edit is None:
            del arrays[key]
        else:
            arrays[key] = edit(arrays[key])
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w", zipfile.ZIP_DEFLATED) as z:
        for key, a in arrays.items():
            npy = io.BytesIO()
            np.lib.format.write_array(npy, a)
            data = npy.getvalue()
            z.writestr(f"{key}.npy", data.replace(b"}", b" ", 1) if key == header_unclosed
                       else data)
    return out.getvalue()


def _not_utf8(path: Path) -> Path:
    """A JSON config file with one 0xff byte, which no UTF-8 text holds."""
    path.write_bytes(b'{"sim": {"yaw_samples": 4}, "note": "\xff"}')
    return path


@pytest.fixture(scope="module")
def bundle(scene_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle") / "map"
    rc = main([
        "build-map",
        "--points", str(scene_files / "map.points"),
        "--labels", str(scene_files / "map.labels"),
        "--logits", str(scene_files / "map.logits"),
        "--out", str(out),
    ])
    assert rc == 0
    return out


def _localize_query(bundle, scene_files, *extra):
    return main([
        "localize", "--map", str(bundle),
        "--points", str(scene_files / "q.points"),
        "--labels", str(scene_files / "q.labels"),
        "--logits", str(scene_files / "q.logits"),
        *extra,
    ])


class TestBuildMap:
    def test_bundle_written(self, bundle, capsys):
        assert (bundle / "manifest.json").exists()
        assert (bundle / "map.npz").exists()
        assert (bundle / "run_manifest.json").exists()
        manifest = json.loads((bundle / "run_manifest.json").read_text())
        assert "effective_config" in manifest and "inputs" in manifest

    def test_missing_labels_file_exit_1(self, scene_files, tmp_path, capsys):
        rc = main([
            "build-map",
            "--points", str(scene_files / "map.points"),
            "--labels", str(scene_files / "nonexistent.labels"),
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        assert "nonexistent.labels" in capsys.readouterr().err

    def test_too_few_instances_exit_3(self, tmp_path, capsys):
        tax = default_taxonomy()
        from gsfloc.core import SemanticPointCloud, one_hot_logits

        rng = np.random.default_rng(0)
        labels = np.full(100, tax.id_of("road"))
        cloud = SemanticPointCloud(rng.uniform(-5, 5, (100, 3)), labels,
                                   one_hot_logits(labels, 12))
        save_cloud(cloud, tmp_path / "r.points", tmp_path / "r.labels", tmp_path / "r.logits")
        rc = main([
            "build-map",
            "--points", str(tmp_path / "r.points"),
            "--labels", str(tmp_path / "r.labels"),
            "--logits", str(tmp_path / "r.logits"),
            "--out", str(tmp_path / "bundle"),
        ])
        assert rc == 3

    def test_collinear_instances_exit_3(self, tmp_path, capsys):
        """Four poles of one shape on the x axis share their centroids' y and z
        bit for bit, so no triangle of them is non-degenerate: exit 3."""
        tax = default_taxonomy()
        from gsfloc.core import SemanticPointCloud, one_hot_logits

        rng = np.random.default_rng(5)
        shape = np.column_stack([rng.uniform(-0.1, 0.1, (140, 2)), rng.uniform(0, 4, 140)])
        points = np.vstack([shape + [x, 0, 0] for x in (0, 6, 13, 21)])
        labels = np.full(len(points), tax.id_of("pole"))
        cloud = SemanticPointCloud(points, labels, one_hot_logits(labels, 12))
        save_cloud(cloud, tmp_path / "p.points", tmp_path / "p.labels", tmp_path / "p.logits")
        rc = main([
            "build-map",
            "--points", str(tmp_path / "p.points"),
            "--labels", str(tmp_path / "p.labels"),
            "--logits", str(tmp_path / "p.logits"),
            "--out", str(tmp_path / "bundle"),
        ])
        assert rc == 3
        assert "map has no non-degenerate triangle; its 4 instances" in capsys.readouterr().err

    def test_bad_config_value_exit_2(self, scene_files, tmp_path, capsys):
        rc = main([
            "build-map",
            "--points", str(scene_files / "map.points"),
            "--labels", str(scene_files / "map.labels"),
            "--out", str(tmp_path / "x"),
            "--set", 'gsf.grid.z_mode="up"',
        ])
        assert rc == 2
        assert "gsf.grid.z_mode" in capsys.readouterr().err

    def test_bad_threshold_exit_2(self, scene_files, tmp_path, capsys):
        rc = main([
            "build-map",
            "--points", str(scene_files / "map.points"),
            "--labels", str(scene_files / "map.labels"),
            "--out", str(tmp_path / "x"),
            "--set", 'cluster.thresholds={"pole": "x"}',
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "cluster.thresholds" in err and "Traceback" not in err

    def test_negative_radius_exit_2(self, scene_files, tmp_path, capsys):
        rc = main([
            "build-map",
            "--points", str(scene_files / "map.points"),
            "--labels", str(scene_files / "map.labels"),
            "--out", str(tmp_path / "x"),
            "--set", "cluster.neighborhood_radius=-1",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "'cluster.neighborhood_radius' must be >= 0" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_nan_probe_height_exit_2(self, scene_files, tmp_path, capsys):
        rc = main([
            "build-map",
            "--points", str(scene_files / "map.points"),
            "--labels", str(scene_files / "map.labels"),
            "--out", str(tmp_path / "x"),
            "--set", "gsf.grid.z_mode=NaN",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "'gsf.grid.z_mode' must be finite, got nan" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_infinite_voxel_exit_2(self, scene_files, tmp_path, capsys):
        rc = main([
            "build-map",
            "--points", str(scene_files / "map.points"),
            "--labels", str(scene_files / "map.labels"),
            "--out", str(tmp_path / "x"),
            "--set", "pipeline.query_voxel=Infinity",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "'pipeline.query_voxel' must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_yaw_samples_above_cap_exit_2(self, scene_files, tmp_path, capsys):
        rc = main([
            "build-map",
            "--points", str(scene_files / "map.points"),
            "--labels", str(scene_files / "map.labels"),
            "--out", str(tmp_path / "x"),
            "--set", "sim.yaw_samples=100000",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "'sim.yaw_samples' must be <= 36" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("how", ["set-ny-first", "config-file-nx-first"])
    def test_grid_at_cap_builds_and_localizes(self, scene_files, tmp_path, capsys, how):
        """A 64 x 4 grid (GRID_POINTS_MOST points) builds, whichever key comes
        first, and `localize` reads the bundle's config back. The small scene's
        scan is both the map and the query, probed at one yaw, to keep the
        256-point probes few."""
        (tmp_path / "grid.json").write_text(json.dumps({"gsf": {"grid": {"nx": 64, "ny": 4}}}))
        extra = {"set-ny-first": ["--set", "gsf.grid.ny=4", "--set", "gsf.grid.nx=64"],
                 "config-file-nx-first": ["--config", str(tmp_path / "grid.json")]}[how]
        bundle = tmp_path / "map"
        cloud = [f"--{part}={scene_files / f'far.{part}'}"
                 for part in ("points", "labels", "logits")]
        assert main(["build-map", *cloud, "--out", str(bundle), *extra]) == 0
        capsys.readouterr()
        rc = main(["localize", "--map", str(bundle), *cloud, "--set", "sim.yaw_samples=1"])
        captured = capsys.readouterr()
        assert rc in (0, 4) and "Traceback" not in captured.err
        grid = json.loads(captured.out.strip().splitlines()[-1])["manifest"][
            "effective_config"]["gsf"]["grid"]
        assert (grid["nx"], grid["ny"]) == (64, 4)

    def test_unknown_config_key_exit_2(self, scene_files, tmp_path, capsys):
        rc = main([
            "build-map",
            "--points", str(scene_files / "map.points"),
            "--labels", str(scene_files / "map.labels"),
            "--out", str(tmp_path / "x"),
            "--set", "gsf.bogus=1",
        ])
        assert rc == 2


class TestLocalize:
    def test_success_parsable_pose(self, scene_files, bundle, capsys):
        rc = main([
            "localize", "--map", str(bundle),
            "--points", str(scene_files / "q.points"),
            "--labels", str(scene_files / "q.labels"),
            "--logits", str(scene_files / "q.logits"),
        ])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        pose_vals = [float(v) for v in out[0].split()]
        assert len(pose_vals) == 12
        status = json.loads(out[-1])
        assert status["status"] == "success"
        assert status["gsf_filter"] is True
        assert "manifest" in status and "effective_config" in status["manifest"]

    def test_disjoint_exit_4(self, scene_files, bundle, capsys):
        rc = main([
            "localize", "--map", str(bundle),
            "--points", str(scene_files / "far.points"),
            "--labels", str(scene_files / "far.labels"),
            "--logits", str(scene_files / "far.logits"),
        ])
        assert rc == 4
        lines = capsys.readouterr().out.strip().splitlines()
        status = json.loads(lines[-1])
        assert status["status"] in ("no-match", "degenerate")
        assert status["pose"] is None

    def test_non_finite_point_exit_2(self, scene_files, bundle, tmp_path, capsys):
        pts = np.frombuffer((scene_files / "q.points").read_bytes(), dtype="<f4").copy()
        pts[4] = np.nan
        (tmp_path / "nan.points").write_bytes(pts.tobytes())
        rc = main([
            "localize", "--map", str(bundle),
            "--points", str(tmp_path / "nan.points"),
            "--labels", str(scene_files / "q.labels"),
            "--logits", str(scene_files / "q.logits"),
        ])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_logit_exit_2(self, scene_files, bundle, tmp_path, capsys):
        raw = bytearray((scene_files / "q.logits").read_bytes())
        labels = np.frombuffer((scene_files / "q.labels").read_bytes(), dtype="<u4")
        label = int(labels[4]) & 0xFFFF
        d = struct.unpack("<I", raw[8:12])[0]
        # a NaN in point 4's own label column, which the argmax check passes
        at = 16 + 4 * (4 * d + label)
        raw[at:at + 4] = np.float32(np.nan).tobytes()
        (tmp_path / "nan.logits").write_bytes(bytes(raw))
        rc = main([
            "localize", "--map", str(bundle),
            "--points", str(scene_files / "q.points"),
            "--labels", str(scene_files / "q.labels"),
            "--logits", str(tmp_path / "nan.logits"),
        ])
        assert rc == 2
        assert "point 4 has a non-finite logit" in capsys.readouterr().err

    def test_emptied_manifest_exit_1(self, scene_files, bundle, tmp_path, capsys):
        tampered = tmp_path / "tampered"
        shutil.copytree(bundle, tampered)
        manifest = json.loads((tampered / "manifest.json").read_text())
        manifest["files"] = {}
        (tampered / "manifest.json").write_text(json.dumps(manifest))
        rc = main([
            "localize", "--map", str(tampered),
            "--points", str(scene_files / "q.points"),
            "--labels", str(scene_files / "q.labels"),
            "--logits", str(scene_files / "q.logits"),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "must list exactly" in err and "Traceback" not in err

    def test_truncated_populations_exit_1(self, scene_files, bundle, tmp_path, capsys):
        tampered = tmp_path / "tampered"
        shutil.copytree(bundle, tampered)
        raw = (tampered / "map.npz").read_bytes()[:1000]
        (tampered / "map.npz").write_bytes(raw)
        manifest = json.loads((tampered / "manifest.json").read_text())
        manifest["files"]["map.npz"] = hashlib.sha256(raw).hexdigest()
        (tampered / "manifest.json").write_text(json.dumps(manifest))
        rc = _localize_query(tampered, scene_files)
        err = capsys.readouterr().err
        assert rc == 1
        assert "map.npz: unreadable" in err and "Traceback" not in err

    def test_version_1_bundle_exit_1(self, scene_files, bundle, tmp_path, capsys):
        old = tmp_path / "old"
        shutil.copytree(bundle, old)
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["version"] = 1
        (old / "manifest.json").write_text(json.dumps(manifest))
        rc = _localize_query(old, scene_files)
        assert rc == 1
        assert "unsupported version 1" in capsys.readouterr().err

    def test_version_2_bundle_exit_1(self, scene_files, bundle, tmp_path, capsys):
        old = tmp_path / "old"
        shutil.copytree(bundle, old)
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["version"] = 2
        (old / "manifest.json").write_text(json.dumps(manifest))
        rc = _localize_query(old, scene_files)
        assert rc == 1
        assert "unsupported version 2" in capsys.readouterr().err

    def test_version_5_bundle_exit_1(self, scene_files, bundle, tmp_path, capsys):
        old = tmp_path / "old"
        shutil.copytree(bundle, old)
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["version"] = 5
        (old / "manifest.json").write_text(json.dumps(manifest))
        rc = _localize_query(old, scene_files)
        assert rc == 1
        assert "unsupported version 5" in capsys.readouterr().err

    def test_graph_without_instances_exit_1(self, scene_files, bundle, tmp_path, capsys):
        """A map.npz without its instance centroids exits 1, naming the array."""
        tampered = tmp_path / "tampered"
        shutil.copytree(bundle, tampered)
        raw = _npz_edit((tampered / "map.npz").read_bytes(), centroids=None)
        (tampered / "map.npz").write_bytes(raw)
        manifest = json.loads((tampered / "manifest.json").read_text())
        manifest["files"]["map.npz"] = hashlib.sha256(raw).hexdigest()
        (tampered / "manifest.json").write_text(json.dumps(manifest))
        rc = _localize_query(tampered, scene_files)
        err = capsys.readouterr().err
        assert rc == 1
        assert "map.npz: array 'centroids' missing" in err and "Traceback" not in err

    def test_mistyped_bundle_config_exit_1(self, scene_files, bundle, tmp_path, capsys):
        tampered = tmp_path / "tampered"
        shutil.copytree(bundle, tampered)
        doc = json.loads((tampered / "config.json").read_text())
        doc["config"]["gsf"]["kappa"] = "big"
        raw = json.dumps(doc).encode()
        (tampered / "config.json").write_bytes(raw)
        manifest = json.loads((tampered / "manifest.json").read_text())
        manifest["files"]["config.json"] = hashlib.sha256(raw).hexdigest()
        (tampered / "manifest.json").write_text(json.dumps(manifest))
        rc = _localize_query(tampered, scene_files)
        err = capsys.readouterr().err
        assert rc == 1
        assert "config.json: config key 'gsf.kappa'" in err and "Traceback" not in err

    @pytest.mark.parametrize("name, tamper, says", [
        ("config.json", lambda raw: raw.replace(b'"delta_d": 0.5', b'"delta_d": 0'),
         "config.json: config key 'index.delta_d' must be > 0, got 0"),
        ("map.npz", lambda raw: _npz_edit(raw, ids=lambda a: a[:, None]),
         "map.npz: ids must be one strictly ascending row of integers"),
        ("map.npz", lambda raw: _npz_edit(raw, header_unclosed="ids"),
         "map.npz: unreadable (('EOF in multi-line statement'"),
        ("map.npz", lambda raw: _npz_edit(raw, labels=lambda a: a + 12),
         "map.npz: labels must be one (20,) row of integers in [0, 12)"),
        ("map.npz", lambda raw: _npz_edit(raw, vertex_ids=lambda a: a[:, :2]),
         "map.npz: vertex_ids must be an (n, 3) integer array in [0, 20)"),
        ("config.json", lambda raw: raw.replace(b'"11"', b'"12"'),
         "config.json: taxonomy class ids must be 0..11"),
        ("config.json", lambda raw: raw.replace(b'"3": {', b'"03": {'),
         "config.json: taxonomy class ids must be 0..11"),
        ("config.json", lambda raw: raw.replace(b'"name": "sidewalk"', b'"name": "road"'),
         "config.json: taxonomy class name 'road' is used twice"),
        ("config.json", lambda raw: raw.replace(b'"name": "pole"',
                                                b'"name": "pole", "colour": "grey"'),
         "config.json: unknown taxonomy field 7.colour"),
        ("config.json", lambda raw: raw[:100] + b"\xff" + raw[100:],
         "config.json: not a JSON document ('utf-8' codec can't decode byte 0xff"),
    ], ids=["delta-d", "ids-column", "npy-header", "labels-past-taxonomy", "vertex-ids-2-columns",
            "class-id-gap", "class-id-leading-zero", "class-name-twice",
            "class-record-unknown-key", "not-utf8"])
    def test_bundle_fault_exit_1(self, scene_files, bundle, tmp_path, capsys, name, tamper,
                                 says):
        """Each bundle fault, its manifest hash rewritten, exits 1 with a
        message naming the file and no traceback."""
        tampered = tmp_path / "tampered"
        shutil.copytree(bundle, tampered)
        raw = tamper((tampered / name).read_bytes())
        (tampered / name).write_bytes(raw)
        manifest = json.loads((tampered / "manifest.json").read_text())
        manifest["files"][name] = hashlib.sha256(raw).hexdigest()
        (tampered / "manifest.json").write_text(json.dumps(manifest))
        rc = _localize_query(tampered, scene_files)
        err = capsys.readouterr().err
        assert rc == 1
        assert says in err and str(tampered) in err and "Traceback" not in err

    def test_near_collinear_scene_exit_3(self, tmp_path, capsys):
        cloud, scan = pole_line_scene(default_taxonomy())
        save_cloud(cloud, tmp_path / "m.points", tmp_path / "m.labels", tmp_path / "m.logits")
        save_cloud(scan, tmp_path / "q.points", tmp_path / "q.labels", tmp_path / "q.logits")
        assert main(["build-map", "--points", str(tmp_path / "m.points"),
                     "--labels", str(tmp_path / "m.labels"),
                     "--logits", str(tmp_path / "m.logits"),
                     "--out", str(tmp_path / "map")]) == 0
        capsys.readouterr()
        rc = main(["localize", "--map", str(tmp_path / "map"),
                   "--points", str(tmp_path / "q.points"),
                   "--labels", str(tmp_path / "q.labels"),
                   "--logits", str(tmp_path / "q.logits")])
        status = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rc == 3
        assert status["status"] == "degenerate" and status["pose"] is None

    def test_underflowing_clique_weights_exit_3(self, scene_files, bundle, capsys):
        rc = _localize_query(bundle, scene_files, "--set", "sim.sigma_w=1e-100")
        captured = capsys.readouterr()
        status = json.loads(captured.out.strip().splitlines()[-1])
        assert rc == 3 and "Traceback" not in captured.err
        assert status["status"] == "degenerate" and status["pose"] is None

    @pytest.mark.parametrize("value, bound", [("1e200", "<= 1e+100"), ("1e-300", ">= 1e-100")],
                             ids=["overflow", "underflow"])
    def test_sigma_w_out_of_range_exit_2(self, scene_files, bundle, capsys, value, bound):
        """A sigma_w whose square overflows or underflows is refused when it is
        set, by name, before any query work."""
        rc = _localize_query(bundle, scene_files, "--set", f"sim.sigma_w={value}")
        err = capsys.readouterr().err
        assert rc == 2 and "Traceback" not in err
        assert f"'sim.sigma_w' must be {bound}" in err

    @pytest.mark.parametrize("override", ["gsf.kappa=6.0", "index.delta_d=5.0",
                                          "solver.max_iters=0"])
    def test_refused_query_setting_exit_2(self, scene_files, bundle, capsys, override):
        rc = _localize_query(bundle, scene_files, "--set", override)
        assert rc == 2
        assert override.split("=")[0] in capsys.readouterr().err

    def test_query_settings_on_bundle_config(self, scene_files, tmp_path, capsys):
        bundle = tmp_path / "map"
        assert main([
            "build-map",
            "--points", str(scene_files / "map.points"),
            "--labels", str(scene_files / "map.labels"),
            "--logits", str(scene_files / "map.logits"),
            "--out", str(bundle),
            "--set", "matching.epsilon=0.5",
        ]) == 0
        capsys.readouterr()

        def run(*extra):
            rc = _localize_query(bundle, scene_files, *extra)
            return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])

        # the query starts from the bundle's config, non-default keys included
        rc, base = run()
        stored = json.loads((bundle / "config.json").read_text())["config"]
        assert rc == 0 and base["manifest"]["effective_config"] == stored
        rc, fewer = run("--set", "index.k_neighbors=3")
        assert rc != 2 and fewer["triangles_queried"] != base["triangles_queried"]
        rc, four = run("--set", "sim.yaw_samples=4")
        assert rc == 0 and four["status"] == "success"
        want = base["manifest"]["effective_config"]
        want["sim"]["yaw_samples"] = 4
        assert four["manifest"]["effective_config"] == want
        # a config file's keys land on the bundle's config, not on the defaults
        (tmp_path / "q.json").write_text(json.dumps({"sim": {"yaw_samples": 4}}))
        rc, from_file = run("--config", str(tmp_path / "q.json"))
        assert rc == 0 and from_file["manifest"]["effective_config"] == want

    def test_no_gsf_flag_recorded(self, scene_files, bundle, capsys):
        rc = main([
            "localize", "--map", str(bundle),
            "--points", str(scene_files / "q.points"),
            "--labels", str(scene_files / "q.labels"),
            "--logits", str(scene_files / "q.logits"),
            "--no-gsf",
        ])
        out = capsys.readouterr().out.strip().splitlines()
        status = json.loads(out[-1])
        assert status["gsf_filter"] is False
        assert rc == 0


class TestSynth:
    def test_scene_written_and_deterministic(self, tmp_path, capsys):
        spec = small_scene_spec(seed=42).to_dict()
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        rc = main(["synth", "--spec", str(f), "--out", str(tmp_path / "a")])
        assert rc == 0
        rc = main(["synth", "--spec", str(f), "--out", str(tmp_path / "b")])
        assert rc == 0
        for name in ("scene.points", "scene.labels", "scene.logits", "ground_truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        gt = json.loads((tmp_path / "a" / "ground_truth.json").read_text())
        assert len(gt["instances"]) == 20

    def test_malformed_spec_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text('{"extent": 80,\n  "oops"\n}')
        rc = main(["synth", "--spec", str(f), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    def test_unknown_field_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad2.json"
        f.write_text('{"extent": 80, "wibble": 1}')
        rc = main(["synth", "--spec", str(f), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "wibble" in capsys.readouterr().err


    @pytest.mark.parametrize("edit, field", [
        (lambda spec: spec.update(extent="big"), "extent expects a number"),
        (lambda spec: spec["instances"][0].update(count="many"),
         "instances[0].count expects an integer"),
        (lambda spec: spec["background"].update(road_points="x"),
         "background.road_points expects an integer"),
        (lambda spec: spec["instances"][1].update({"class": "lamp"}),
         "instances[1].class expects \"pole\" or \"trunk\" or \"traffic-sign\" or \"car\" "
         "or \"truck\", got 'lamp'"),
    ], ids=["extent", "count", "road-points", "class"])
    def test_mistyped_field_exit_2(self, tmp_path, capsys, edit, field):
        spec = small_scene_spec(seed=42).to_dict()
        edit(spec)
        f = tmp_path / "bad3.json"
        f.write_text(json.dumps(spec))
        rc = main(["synth", "--spec", str(f), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert field in err and "Traceback" not in err


class TestEvaluate:
    def test_csv_deterministic_without_timings(self, tmp_path, capsys):
        spec = {
            "map": small_scene_spec(seed=43).to_dict(),
            "queries": {"count": 2, "range_max": 60.0, "dropout": 0.2,
                        "noise_sigma": 0.02},
        }
        f = tmp_path / "bench.json"
        f.write_text(json.dumps(spec))
        rc = main(["evaluate", "--spec", str(f), "--out", str(tmp_path / "r1"),
                   "--no-timings"])
        assert rc == 0
        rc = main(["evaluate", "--spec", str(f), "--out", str(tmp_path / "r2"),
                   "--no-timings"])
        assert rc == 0
        assert (tmp_path / "r1" / "report.csv").read_bytes() == (
            tmp_path / "r2" / "report.csv"
        ).read_bytes()
        summary = json.loads((tmp_path / "r1" / "summary.json").read_text())
        assert summary["aggregates"]["queries"] == 2
        assert (tmp_path / "r1" / "manifest.json").exists()

    def test_unknown_config_key_in_spec_exit_2(self, tmp_path, capsys):
        spec = {"map": small_scene_spec(seed=43).to_dict(), "config": {"sim": {"bogus": 1}}}
        f = tmp_path / "bench.json"
        f.write_text(json.dumps(spec))
        assert main(["evaluate", "--spec", str(f), "--out", str(tmp_path / "r")]) == 2
        assert "sim.bogus" in capsys.readouterr().err


    @pytest.mark.parametrize("text", ["5", "null", "[]"])
    def test_spec_not_an_object_exit_2(self, tmp_path, capsys, text):
        f = tmp_path / "bench.json"
        f.write_text(text)
        assert main(["evaluate", "--spec", str(f), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "benchmark spec expects an object" in err and "Traceback" not in err

    def test_mistyped_query_field_exit_2(self, tmp_path, capsys):
        spec = {"map": small_scene_spec(seed=43).to_dict(), "queries": {"count": "ten"}}
        f = tmp_path / "bench.json"
        f.write_text(json.dumps(spec))
        assert main(["evaluate", "--spec", str(f), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "queries.count expects an integer" in err and "Traceback" not in err


    @pytest.mark.parametrize("queries, field", [
        ({"count": 0}, "queries.count must be >= 1"),
        ({"count": -3}, "queries.count must be >= 1"),
        ({"range_max": -1.0}, "queries.range_max must be > 0"),
        ({"range_max": 0}, "queries.range_max must be > 0"),
    ], ids=["count-zero", "count-negative", "range-negative", "range-zero"])
    def test_unanswerable_queries_exit_2(self, tmp_path, capsys, queries, field):
        spec = {"map": small_scene_spec(seed=43).to_dict(), "queries": queries}
        f = tmp_path / "bench.json"
        f.write_text(json.dumps(spec))
        assert main(["evaluate", "--spec", str(f), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()


    def test_command_line_beats_spec_config(self, tmp_path, capsys):
        """The spec's config sits on the defaults, the --config file on the
        spec's and each --set on both, as `effective_config` records."""
        spec = {"map": small_scene_spec(seed=43).to_dict(), "queries": {"count": 1},
                "config": {"sim": {"yaw_samples": 4, "use_stability": False},
                           "matching": {"epsilon": 0.5}}}
        f, cfg = tmp_path / "bench.json", tmp_path / "cfg.json"
        f.write_text(json.dumps(spec))
        cfg.write_text(json.dumps({"sim": {"yaw_samples": 3}, "matching": {"epsilon": 0.55}}))
        rc = main(["evaluate", "--spec", str(f), "--out", str(tmp_path / "r"), "--config",
                   str(cfg), "--set", "sim.yaw_samples=2"])
        assert rc == 0
        got = json.loads((tmp_path / "r" / "manifest.json").read_text())["effective_config"]
        assert got["sim"]["yaw_samples"] == 2
        assert got["matching"]["epsilon"] == 0.55
        assert got["sim"]["use_stability"] is False
        assert got["solver"]["tau0"] == 1.0  # a default no layer sets


class TestRefusedSpecValue:
    """A spec value that cannot give a meaningful scene or query set is refused
    when the spec is read, exit 2, naming the field, without a traceback and
    before an output directory is made: unchecked, an infinite or NaN extent,
    a negative size or region die in numpy, and the other values are taken
    (a NaN perturbation as none, a zero field scale dividing by zero, a NaN
    query height failing every query)."""

    @staticmethod
    def _check(rc, capsys, says, out):
        err = capsys.readouterr().err
        assert rc == 2
        assert says in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, says", [
        (lambda s: s.update(extent=float("inf")), "extent must be <= 1000000.0, got inf"),
        (lambda s: s.update(extent=float("nan")), "extent must be finite, got nan"),
        (lambda s: s["background"].update(vegetation_points_per_blob=-1),
         "background.vegetation_points_per_blob must be >= 0, got -1"),
        (lambda s: s.update(min_separation=-5), "min_separation must be >= 0, got -5.0"),
        (lambda s: s.update(twin_perturbation=float("nan")),
         "twin_perturbation must be finite, got nan"),
        (lambda s: s["background"].update(road_points=-5),
         "background.road_points must be >= 0, got -5"),
        (lambda s: s["background"].update(field_scale=0),
         "background.field_scale must be >= 0.001, got 0.0"),
    ], ids=["extent-infinity", "extent-nan", "blob-points-negative", "separation-negative",
            "perturbation-nan", "road-points-negative", "field-scale-zero"])
    def test_synth(self, tmp_path, capsys, edit, says):
        spec = small_scene_spec(seed=42).to_dict()
        edit(spec)
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        rc = main(["synth", "--spec", str(f), "--out", str(tmp_path / "x")])
        self._check(rc, capsys, f"scene spec field {says}", tmp_path / "x")

    @pytest.mark.parametrize("queries, says", [
        ({"region_half": -5}, "queries.region_half must be >= 0, got -5.0"),
        ({"z": float("nan")}, "queries.z must be finite, got nan"),
    ], ids=["region-half-negative", "z-nan"])
    def test_evaluate(self, tmp_path, capsys, queries, says):
        f = tmp_path / "bench.json"
        f.write_text(json.dumps({"map": small_scene_spec(seed=43).to_dict(),
                                 "queries": {"count": 2, **queries}}))
        rc = main(["evaluate", "--spec", str(f), "--out", str(tmp_path / "r")])
        self._check(rc, capsys, f"benchmark spec field {says}", tmp_path / "r")


class TestNegativeSeed:
    """A negative seed, which `np.random.default_rng` refuses, is refused
    where it is set, naming the key, exit 2 without a traceback."""

    @staticmethod
    def _check(rc, capsys, says, out):
        err = capsys.readouterr().err
        assert rc == 2
        assert says in err and "Traceback" not in err
        assert not out.exists()

    def test_build_map_pipeline_seed(self, scene_files, tmp_path, capsys):
        rc = main(["build-map", "--points", str(scene_files / "map.points"),
                   "--labels", str(scene_files / "map.labels"),
                   "--out", str(tmp_path / "map"), "--set", "pipeline.seed=-1"])
        self._check(rc, capsys, "config key 'pipeline.seed' must be >= 0, got -1",
                    tmp_path / "map")

    def test_synth_seed_flag(self, tmp_path, capsys):
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(small_scene_spec(seed=42).to_dict()))
        rc = main(["synth", "--spec", str(f), "--out", str(tmp_path / "x"), "--seed", "-1"])
        self._check(rc, capsys, "seed must be >= 0, got -1", tmp_path / "x")

    def test_synth_spec_seed(self, tmp_path, capsys):
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({**small_scene_spec(seed=42).to_dict(), "seed": -5}))
        rc = main(["synth", "--spec", str(f), "--out", str(tmp_path / "x")])
        self._check(rc, capsys, "seed must be >= 0, got -5", tmp_path / "x")

    def test_evaluate_seed_flag(self, tmp_path, capsys):
        f = tmp_path / "bench.json"
        f.write_text(json.dumps({"map": small_scene_spec(seed=43).to_dict()}))
        rc = main(["evaluate", "--spec", str(f), "--out", str(tmp_path / "r"), "--seed", "-1"])
        self._check(rc, capsys, "seed must be >= 0, got -1", tmp_path / "r")


class TestInputFileNotUtf8:
    """A --config or --spec file that is not UTF-8 exits with its documented
    code, naming the file, and without a traceback."""

    @staticmethod
    def _check(rc, capsys, path, code):
        err = capsys.readouterr().err
        assert rc == code
        assert f"{path}: not a JSON document ('utf-8' codec can't decode byte 0xff" in err
        assert "Traceback" not in err

    def test_build_map_config_exit_1(self, scene_files, tmp_path, capsys):
        f = _not_utf8(tmp_path / "cfg.json")
        rc = main(["build-map", "--points", str(scene_files / "map.points"),
                   "--labels", str(scene_files / "map.labels"),
                   "--out", str(tmp_path / "map"), "--config", str(f)])
        self._check(rc, capsys, f"config file {f}", 1)
        assert not (tmp_path / "map").exists()

    def test_localize_config_exit_1(self, scene_files, bundle, tmp_path, capsys):
        f = _not_utf8(tmp_path / "cfg.json")
        self._check(_localize_query(bundle, scene_files, "--config", str(f)), capsys,
                    f"config file {f}", 1)

    @pytest.mark.parametrize("command", ["synth", "evaluate"])
    def test_spec_exit_2(self, tmp_path, capsys, command):
        f = _not_utf8(tmp_path / "spec.json")
        rc = main([command, "--spec", str(f), "--out", str(tmp_path / "out")])
        self._check(rc, capsys, f"spec file {f}", 2)
        assert not (tmp_path / "out").exists()


class TestConfigNotAnObject:
    """A --config file that parses but whose top level is not an object exits
    1, naming the file, as one that does not parse does."""

    @pytest.mark.parametrize("text", ["[1]", "5", "null"])
    def test_build_map_config_exit_1(self, scene_files, tmp_path, capsys, text):
        f = tmp_path / "cfg.json"
        f.write_text(text)
        rc = main(["build-map", "--points", str(scene_files / "map.points"),
                   "--labels", str(scene_files / "map.labels"),
                   "--out", str(tmp_path / "map"), "--config", str(f)])
        assert rc == 1
        assert f"config file {f}: top level must be an object" in capsys.readouterr().err
        assert not (tmp_path / "map").exists()

    def test_localize_config_exit_1(self, scene_files, bundle, tmp_path, capsys):
        f = tmp_path / "cfg.json"
        f.write_text("[1]")
        assert _localize_query(bundle, scene_files, "--config", str(f)) == 1
        assert f"config file {f}: top level must be an object" in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out
        assert "PASS batched W2 table vs per-pair loop (20 pairs x 8 yaws, bit-equal)" in out


class TestImport:
    def test_cli_import_loads_no_test_tool(self):
        """`import gsfloc.cli` in a fresh interpreter loads neither hypothesis
        nor networkx: the CLI's start-up time must not carry test tools."""
        src = str(Path(gsfloc.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, gsfloc.cli; print(sorted("
                "{m.split('.')[0] for m in sys.modules} & {'hypothesis', 'networkx'}))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"
