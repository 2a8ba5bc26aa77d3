"""End-to-end metrics from per-query records, per-layer metrics from spans."""

from __future__ import annotations

import hashlib

import numpy as np

# every end-to-end quantity a run computes, with its unit
END_TO_END_UNITS = {
    "setup_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "query_cpu_ms_p50": "ms",
    "queries_per_s": "1/s",
    "success_rate": "ratio",
    "error_rate": "ratio",
    "ate_m_p50": "m",
    "are_deg_p50": "deg",
    "peak_rss_mb": "MB",
}

# the ones BENCHMARK.json bounds. error_rate is 0 on a healthy run, and the
# median pose errors spread by 15-25 % from seed to seed, because each seed
# draws new poses; those three are printed on the quality line and held by
# the quality floors instead.
BOUNDED = ("setup_s", "query_ms_p50", "query_ms_p90", "query_cpu_ms_p50",
           "queries_per_s", "success_rate", "peak_rss_mb")
QUALITY = ("success_rate", "error_rate", "ate_m_p50", "are_deg_p50")

# (metric, unit, phase, span, kind, field, base field)
#   phase "query": divided by traced queries; "setup": by traced set-ups
#   kind  "self_ms"/"ms": summed self or total span time; "calls": span count;
#         "count": summed field; "mean": field per call that returned;
#         "ratio": summed field / summed base field
PER_LAYER = [
    ("pipeline.localize.self_ms", "ms", "query", "pipeline.localize", "self_ms", None, None),
    ("pipeline.voxel_downsample.self_ms", "ms", "query", "pipeline.voxel_downsample", "self_ms", None, None),
    ("pipeline.voxel_downsample.points_out", "count", "query", "pipeline.voxel_downsample", "count", "points_out", None),
    ("pipeline.save_map.ms", "ms", "setup", "pipeline.save_map", "ms", None, None),
    ("pipeline.load_map.ms", "ms", "setup", "pipeline.load_map", "ms", None, None),
    ("pipeline.bundle_bytes", "bytes", "setup", "pipeline.save_map", "count", "bytes", None),
    ("scene_graph.build_scene_graph.self_ms", "ms", "query", "scene_graph.build_scene_graph", "self_ms", None, None),
    ("scene_graph.cluster_instances.self_ms", "ms", "query", "scene_graph.cluster_instances", "self_ms", None, None),
    ("scene_graph.cluster_instances.instances", "count", "query", "scene_graph.cluster_instances", "count", "instances", None),
    ("gsf.fit_gsf.self_ms", "ms", "query", "gsf.fit_gsf", "self_ms", None, None),
    ("gsf.fit_gsf.calls", "count", "query", "gsf.fit_gsf", "calls", None, None),
    ("gsf.fit_gsf.support_points", "count", "query", "gsf.fit_gsf", "mean", "support_points", None),
    ("gsf.fit_gsf.failed", "count", "query", "gsf.fit_gsf", "count", "raised", None),
    ("gsf.grid_probe.self_ms", "ms", "query", "gsf.grid_probe", "self_ms", None, None),
    ("gsf.grid_probe.calls", "count", "query", "gsf.grid_probe", "calls", None, None),
    ("descriptors.triangulate.self_ms", "ms", "query", "descriptors.triangulate", "self_ms", None, None),
    ("descriptors.triangulate.triangles", "count", "query", "descriptors.triangulate", "count", "triangles", None),
    ("descriptors.query_index.self_ms", "ms", "query", "descriptors.query_index", "self_ms", None, None),
    ("descriptors.query_index.candidates", "count", "query", "descriptors.query_index", "count", "candidates", None),
    ("descriptors.gsf_filter.self_ms", "ms", "query", "descriptors.gsf_filter", "self_ms", None, None),
    ("descriptors.gsf_filter.survivors", "count", "query", "descriptors.gsf_filter", "count", "survivors", None),
    ("descriptors.gsf_filter.survival_ratio", "ratio", "query", "descriptors.gsf_filter", "ratio", "survivors", "candidates"),
    ("descriptors.pair_w2.calls", "count", "query", "descriptors.pair_w2", "calls", None, None),
    ("descriptors.pair_w2.cache_hit_ratio", "ratio", "query", "descriptors.pair_w2", "ratio", "cache_hits", "calls"),
    ("wasserstein.w2_squared.self_ms", "ms", "query", "wasserstein.w2_squared", "self_ms", None, None),
    ("wasserstein.w2_squared.calls", "count", "query", "wasserstein.w2_squared", "calls", None, None),
    ("wasserstein.psd_sqrt.self_ms", "ms", "query", "wasserstein.psd_sqrt", "self_ms", None, None),
    ("wasserstein.psd_sqrt.calls", "count", "query", "wasserstein.psd_sqrt", "calls", None, None),
    ("matching.collect_correspondences.correspondences", "count", "query", "matching.collect_correspondences", "count", "correspondences", None),
    ("matching.build_consistency_graph.self_ms", "ms", "query", "matching.build_consistency_graph", "self_ms", None, None),
    ("matching.build_consistency_graph.edges", "count", "query", "matching.build_consistency_graph", "count", "edges", None),
    ("matching.max_clique.self_ms", "ms", "query", "matching.max_clique", "self_ms", None, None),
    ("matching.max_clique.clique_size", "count", "query", "matching.max_clique", "count", "clique_size", None),
    ("pose_solver.robust_irls.self_ms", "ms", "query", "pose_solver.robust_irls", "self_ms", None, None),
    ("pose_solver.robust_irls.iterations", "count", "query", "pose_solver.robust_irls", "count", "iterations", None),
    ("pose_solver.robust_irls.inlier_ratio", "ratio", "query", "pose_solver.robust_irls", "ratio", "inliers", "pairs"),
    ("setup.pipeline.build_map.ms", "ms", "setup", "pipeline.build_map", "ms", None, None),
    ("setup.scene_graph.cluster_instances.self_ms", "ms", "setup", "scene_graph.cluster_instances", "self_ms", None, None),
    ("setup.gsf.fit_gsf.self_ms", "ms", "setup", "gsf.fit_gsf", "self_ms", None, None),
    ("setup.gsf.grid_probe.self_ms", "ms", "setup", "gsf.grid_probe", "self_ms", None, None),
    ("setup.descriptors.triangulate.self_ms", "ms", "setup", "descriptors.triangulate", "self_ms", None, None),
    ("setup.scene_graph.load_scene_graph.self_ms", "ms", "setup", "scene_graph.load_scene_graph", "self_ms", None, None),
]

# spans that only run when a workload writes and reads a map bundle
BUNDLE_SPANS = {"pipeline.save_map", "pipeline.load_map", "scene_graph.load_scene_graph"}

TRACE_METRICS = {"trace.overhead_ms": "ms", "trace.queries": "count"}


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, unit, *_ in PER_LAYER}
    units.update(TRACE_METRICS)
    return units


def expected_spans(bundle_io: bool) -> set[tuple[str, str]]:
    """(phase, span) pairs that must fire at least once on a workload."""
    return {
        (phase, span)
        for _, _, phase, span, *_ in PER_LAYER
        if bundle_io or span not in BUNDLE_SPANS
    }


def per_layer(agg: dict, n_queries: int, n_setups: int) -> dict[str, float]:
    """Per-query (or per-set-up) values of every PER_LAYER metric."""
    out = {}
    for name, _, phase, span, kind, field, base in PER_LAYER:
        a = agg.get((phase, span), {"calls": 0})
        n = n_queries if phase == "query" else n_setups
        if kind in ("self_ms", "ms"):
            val = a.get(kind, 0.0) / n
        elif kind == "calls":
            val = a["calls"] / n
        elif kind == "count":
            val = a.get(field, 0) / n
        elif kind == "mean":
            returned = a["calls"] - a.get("raised", 0)
            val = a.get(field, 0) / returned if returned else 0.0
        else:  # ratio
            den = a.get(base, 0)
            val = a.get(field, 0) / den if den else 0.0
        out[name] = float(val)
    return out


SETUP_METRICS = {"setup_s"} | {name for name, _, phase, *_ in PER_LAYER if phase == "setup"}


def to_reference_speed(values: dict[str, float], units: dict[str, str],
                       query_factor: float, setup_factor: float) -> dict[str, float]:
    """Scale times by the speed factor of their phase and rates by its inverse."""
    out = {}
    for k, v in values.items():
        f = setup_factor if k in SETUP_METRICS else query_factor
        out[k] = v * {"s": f, "ms": f, "1/s": 1.0 / f}.get(units[k], 1.0)
    return out


def query_hash(status: str, pose) -> str:
    """sha256 of the status and the 3x4 pose rounded to 1e-6."""
    text = status
    if pose is not None:
        vals = np.round(pose.matrix_3x4().ravel(), 6) + 0.0  # + 0.0 folds -0.0 into 0.0
        text += " " + " ".join(f"{v:.6f}" for v in vals)
    return hashlib.sha256(text.encode()).hexdigest()


def run_hash(hashes_by_pool: dict[int, str]) -> str:
    """One digest over the per-query hashes, in pool order."""
    h = hashlib.sha256()
    for i in sorted(hashes_by_pool):
        h.update(f"{i}:{hashes_by_pool[i]}\n".encode())
    return h.hexdigest()


def end_to_end(records: list[dict], setup_seconds: list[float], query_phase_s: float,
               peak_rss_mb: float) -> dict[str, float]:
    """Every END_TO_END_UNITS quantity from the timed query records of one run.

    Quality metrics count each distinct pool query once; the results of its
    repeats are identical, which the run checks by hash.
    """
    wall = np.array([r["wall_ms"] for r in records])
    cpu = np.array([r["cpu_ms"] for r in records])
    distinct = {r["pool"]: r for r in records}.values()
    successes = [r for r in distinct if r["success"]]
    te = [r["trans_err"] for r in successes]
    re_ = [r["rot_err"] for r in successes]
    return {
        "setup_s": float(np.median(setup_seconds)),
        "query_ms_p50": float(np.percentile(wall, 50)),
        "query_ms_p90": float(np.percentile(wall, 90)),
        "query_cpu_ms_p50": float(np.percentile(cpu, 50)),
        "queries_per_s": len(records) / query_phase_s,
        "success_rate": len(successes) / len(distinct),
        "error_rate": sum(r["status"] != "success" for r in records) / len(records),
        "ate_m_p50": float(np.median(te)) if te else float("nan"),
        "are_deg_p50": float(np.median(re_)) if re_ else float("nan"),
        "peak_rss_mb": peak_rss_mb,
    }
