"""The benchmark's traced call sites against the program.

The benchmark tracer wraps each public function at the module attribute its
caller resolves, and its per-layer metrics expect every span to fire. This
test runs one map build and one successful query under that tracer,
called through the module attributes as the benchmark calls them, once
against the built map and once against the map saved to a bundle and
loaded back, so a change that moves a traced call fails here and not only
in a traced benchmark run. The tracer and the metric table are loaded from their files
and used as they are.
"""

import importlib.util
from pathlib import Path

from gsfloc import pipeline
from gsfloc.config import RunConfig
from gsfloc.core import default_taxonomy
from gsfloc.synth import generate_scene, sample_query_poses, simulate_scan

from conftest import small_scene_spec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scene_and_scan():
    taxonomy = default_taxonomy()
    cloud, _ = generate_scene(small_scene_spec(seed=31), taxonomy)
    pose = sample_query_poses(1, seed=7, half=15.0)[0]
    scan = simulate_scan(cloud, pose, range_max=60.0, dropout_rate=0.3,
                         noise_sigma=0.03, seed=42)
    return taxonomy, cloud, scan


def test_every_expected_span_fires():
    tracer_mod, metrics = _load("tracer"), _load("metrics")
    taxonomy, cloud, scan = _scene_and_scan()
    with tracer_mod.Tracer() as tracer:
        tracer.context = -1
        ref = pipeline.build_map(cloud, taxonomy, RunConfig())
        tracer.context = 0
        res = pipeline.localize(scan, ref)
    assert res.status == "success"
    assert sorted(metrics.expected_spans(bundle_io=False) - set(tracer.aggregate())) == []


def test_every_bundle_span_fires(tmp_path):
    tracer_mod, metrics = _load("tracer"), _load("metrics")
    taxonomy, cloud, scan = _scene_and_scan()
    with tracer_mod.Tracer() as tracer:
        tracer.context = -1
        pipeline.save_map(pipeline.build_map(cloud, taxonomy, RunConfig()), tmp_path)
        ref = pipeline.load_map(tmp_path)
        tracer.context = 0
        res = pipeline.localize(scan, ref)
    assert res.status == "success"
    assert sorted(metrics.expected_spans(bundle_io=True) - set(tracer.aggregate())) == []
