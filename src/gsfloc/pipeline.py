"""End-to-end orchestration: offline map building, one-shot localization.

Map bundle directory layout (manifest.json carries sha256 content hashes):
    graph.json / graph_buffers.npz   scene graph + GP training buffers
    index.gsfi                       triangle descriptor index
    populations.npz                  per-instance probe populations
    config.json                      RunConfig + taxonomy snapshot
    manifest.json                    file hashes + effective config

The returned pose maps query-frame (sensor) coordinates into the map frame.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .core import (
    FormatError,
    GsflocError,
    LabelTaxonomy,
    RigidTransform,
    SemanticPointCloud,
    ValidationError,
)
from .descriptors import (
    DescriptorIndex,
    build_index,
    gsf_filter,
    load_index,
    pair_w2,
    plain_matches,
    query_index,
    save_index,
    triangulate,
)
from .gsf import GpPopulation, grid_probe, permute_population, yaw_reuse_plan
from .matching import (
    build_consistency_graph,
    collect_correspondences,
    max_clique,
)
from .pose_solver import (
    DegenerateGeometryError,
    IrlsFailure,
    WeightedCorrespondenceSet,
    robust_irls,
)
from .scene_graph import SceneGraph, build_scene_graph, load_scene_graph, save_scene_graph
from .wasserstein import SimilarityConfig

MAP_BUNDLE_FORMAT = "gsfloc-map-bundle"
MAP_BUNDLE_VERSION = 1


class BuildError(GsflocError):
    """The map cloud cannot support localization (too few instances)."""


@dataclass
class ReferenceMap:
    graph: SceneGraph
    index: DescriptorIndex
    populations: dict[int, GpPopulation | None]  # instance id -> canonical population
    taxonomy: LabelTaxonomy
    config: RunConfig


@dataclass
class LocalizationResult:
    status: str  # "success" | "no-match" | "degenerate"
    pose: RigidTransform | None
    inlier_count: int
    clique_size: int
    triangles_queried: int
    candidates_after_filter: int
    inliers: list  # surviving Correspondence objects
    timings_ms: dict[str, float]
    gsf_filter_used: bool

    def to_dict(self, include_timings: bool = True) -> dict:
        d = {
            "status": self.status,
            "pose": (
                [float(v) for v in self.pose.matrix_3x4().ravel()]
                if self.pose is not None
                else None
            ),
            "inlier_count": self.inlier_count,
            "clique_size": self.clique_size,
            "triangles_queried": self.triangles_queried,
            "candidates_after_filter": self.candidates_after_filter,
            "inliers": [
                {"query": c.query_id, "map": c.map_id, "omega": c.omega, "support": c.support}
                for c in self.inliers
            ],
            "gsf_filter": self.gsf_filter_used,
        }
        if include_timings:
            d["timings_ms"] = dict(self.timings_ms)
        return d


def voxel_downsample(cloud: SemanticPointCloud, voxel: float) -> SemanticPointCloud:
    """Keep the lowest-index point per voxel; deterministic."""
    if voxel <= 0 or cloud.n == 0:
        return cloud
    keys = np.floor(cloud.points / voxel).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    keep = np.sort(first)
    logits = None if cloud.logits is None else cloud.logits[keep]
    return SemanticPointCloud(cloud.points[keep], cloud.labels[keep], logits)


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _prepare_cloud(cloud: SemanticPointCloud, config: RunConfig) -> SemanticPointCloud:
    if config.gsf.softmax_targets and cloud.logits is not None:
        return SemanticPointCloud(cloud.points, cloud.labels, _softmax(cloud.logits))
    return cloud


def _grid_args(config: RunConfig) -> dict:
    """`probe_grid` arguments other than yaw; instance fields live in local frames."""
    g = config.gsf.grid
    return dict(centroid_local=(0.0, 0.0, 0.0), delta_x=g.dx, delta_y=g.dy,
                n_x=g.nx, n_y=g.ny, z_mode=g.z_mode)


def _probe_instance(graph, taxonomy, config, inst_id, yaw):
    field = graph.fields.get(inst_id)
    if field is None:
        return None
    return grid_probe(field, taxonomy, **_grid_args(config), yaw=yaw)


def _probe_yaws(field, taxonomy, config, yaws, plan) -> list[GpPopulation]:
    """One population per yaw: probe where `plan` (from `yaw_reuse_plan`) says
    so, reorder the earlier probe everywhere else."""
    pops: list[GpPopulation] = []
    for yaw, reuse in zip(yaws, plan):
        if reuse is None:
            pops.append(grid_probe(field, taxonomy, **_grid_args(config), yaw=yaw))
        else:
            j, perm = reuse
            pops.append(permute_population(pops[j], perm))
    return pops


def _flatten(d: dict, prefix: str = ""):
    for k, v in d.items():
        if isinstance(v, dict):
            yield from _flatten(v, f"{prefix}{k}.")
        else:
            yield f"{prefix}{k}", v


def _population_settings(config: RunConfig) -> dict:
    """Settings that decide whether query and map populations are comparable."""
    return dict(_flatten({
        "gsf": config.to_dict()["gsf"],
        "cluster": {"neighborhood_radius": config.cluster.neighborhood_radius},
    }))


def build_map(
    map_cloud: SemanticPointCloud,
    taxonomy: LabelTaxonomy,
    config: RunConfig | None = None,
) -> ReferenceMap:
    """Scene graph + canonical populations + descriptor index over the map cloud."""
    config = config or RunConfig()
    cloud = _prepare_cloud(map_cloud, config)
    graph = build_scene_graph(cloud, taxonomy, config.graph_config(taxonomy))
    if graph.num_instances < 3:
        raise BuildError(
            f"map has {graph.num_instances} instances; at least 3 are required"
        )
    populations = {
        inst.id: _probe_instance(graph, taxonomy, config, inst.id, yaw=0.0)
        for inst in graph.instances
    }
    descs = triangulate(graph, config.index.k_neighbors)
    index = build_index(descs, config.index.delta_d)
    return ReferenceMap(graph, index, populations, taxonomy, config)


def localize(
    query_cloud: SemanticPointCloud,
    ref_map: ReferenceMap,
    config: RunConfig | None = None,
) -> LocalizationResult:
    """One-shot localization of a query scan against a prebuilt map."""
    config = config or ref_map.config
    want, got = _population_settings(ref_map.config), _population_settings(config)
    differ = [k for k in want if got[k] != want[k]]
    if differ:
        raise ValidationError(
            f"query config differs from the map bundle in {', '.join(differ)}; "
            "populations are not comparable"
        )
    taxonomy = ref_map.taxonomy
    timings: dict[str, float] = {}
    use_gsf = config.pipeline.use_gsf_filter

    def fail(status: str, triangles=0, candidates=0) -> LocalizationResult:
        return LocalizationResult(
            status, None, 0, 0, triangles, candidates, [], timings, use_gsf
        )

    t0 = time.perf_counter()
    cloud = _prepare_cloud(query_cloud, config)
    cloud = voxel_downsample(cloud, config.pipeline.query_voxel)
    qgraph = build_scene_graph(cloud, taxonomy, config.graph_config(taxonomy))
    timings["graph"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    yaws = [2.0 * np.pi * k / config.sim.yaw_samples for k in range(config.sim.yaw_samples)]
    plan = yaw_reuse_plan(yaws, **_grid_args(config))
    pops_query: dict[int, list | None] = {}
    for inst in qgraph.instances:
        field = qgraph.fields.get(inst.id)
        pops_query[inst.id] = (
            None if field is None else _probe_yaws(field, taxonomy, config, yaws, plan)
        )
    timings["probe"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    query_descs = triangulate(qgraph, config.index.k_neighbors)
    cand_lists = [(d, query_index(ref_map.index, d)) for d in query_descs]

    matches = []
    n_candidates = 0
    if use_gsf:
        cache: dict = {}
        # first pass: score the canonical pairs so the similarity scale can
        # self-tune on this query's candidate distribution
        for d, cands in cand_lists:
            if any(pops_query.get(q) is None for q in d.vertex_ids):
                continue
            for cid in cands:
                cd = ref_map.index.descriptors[cid]
                if any(ref_map.populations.get(m) is None for m in cd.vertex_ids):
                    continue
                for q, m in zip(d.vertex_ids, cd.vertex_ids):
                    pair_w2(q, m, pops_query, ref_map.populations,
                            config.sim.use_stability, cache)
        if not cache:
            timings["match"] = (time.perf_counter() - t0) * 1e3
            timings.setdefault("clique", 0.0)
            timings.setdefault("solve", 0.0)
            return fail("no-match", triangles=len(query_descs))
        median = float(np.median(list(cache.values())))
        sigma_w = config.sim.sigma_w or max(np.sqrt(median), 1e-9)
        accept = config.sim.accept_threshold or max(3.0 * median, 1e-12)
        simcfg = SimilarityConfig(sigma_w, accept)
        for d, cands in cand_lists:
            matches.extend(
                gsf_filter(
                    d, cands, ref_map.index, pops_query, ref_map.populations,
                    simcfg, config.sim.use_stability, cache,
                )
            )
    else:
        for d, cands in cand_lists:
            matches.extend(plain_matches(d, cands, ref_map.index))
    n_candidates = len(matches)
    timings["match"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    corrs = collect_correspondences(matches)
    if not corrs:
        timings["clique"] = (time.perf_counter() - t0) * 1e3
        timings.setdefault("solve", 0.0)
        return fail("no-match", triangles=len(query_descs), candidates=n_candidates)
    qcents = {inst.id: inst.centroid for inst in qgraph.instances}
    mcents = {inst.id: inst.centroid for inst in ref_map.graph.instances}
    cgraph = build_consistency_graph(corrs, qcents, mcents, config.matching.epsilon)
    clique = max_clique(cgraph)
    timings["clique"] = (time.perf_counter() - t0) * 1e3

    if len(clique) < 3:
        timings.setdefault("solve", 0.0)
        res = fail("no-match", triangles=len(query_descs), candidates=n_candidates)
        res.clique_size = len(clique)
        return res

    t0 = time.perf_counter()
    picked = [corrs[i] for i in clique]
    cset = WeightedCorrespondenceSet(
        p=np.stack([qcents[c.query_id] for c in picked]),
        q=np.stack([mcents[c.map_id] for c in picked]),
        omega=np.array([c.omega for c in picked]),
        tau0=config.solver.tau0,
    )
    try:
        T_qm, mask, _trace = robust_irls(
            cset, config.solver.max_iters, config.solver.rel_tol
        )
    except (DegenerateGeometryError, IrlsFailure, ValidationError):
        timings["solve"] = (time.perf_counter() - t0) * 1e3
        res = fail("degenerate", triangles=len(query_descs), candidates=n_candidates)
        res.clique_size = len(clique)
        return res
    timings["solve"] = (time.perf_counter() - t0) * 1e3

    inliers = [c for c, keep in zip(picked, mask) if keep]
    if len(inliers) < 3:
        res = fail("degenerate", triangles=len(query_descs), candidates=n_candidates)
        res.clique_size = len(clique)
        return res
    return LocalizationResult(
        "success",
        T_qm.inverse(),  # sensor pose in the map frame
        len(inliers),
        len(clique),
        len(query_descs),
        n_candidates,
        inliers,
        timings,
        use_gsf,
    )


# ---------------------------------------------------------------------------
# Map bundle IO
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def save_map(ref_map: ReferenceMap, bundle_dir) -> None:
    d = Path(bundle_dir)
    d.mkdir(parents=True, exist_ok=True)
    save_scene_graph(ref_map.graph, d / "graph.json", d / "graph_buffers.npz")
    save_index(ref_map.index, d / "index.gsfi")

    arrays: dict[str, np.ndarray] = {}
    ids = sorted(i for i, p in ref_map.populations.items() if p is not None)
    arrays["ids"] = np.array(ids, dtype=np.int64)
    for i in ids:
        p = ref_map.populations[i]
        arrays[f"pop{i}_grid"] = p.grid
        arrays[f"pop{i}_mu"] = p.mu
        arrays[f"pop{i}_Sigma"] = p.Sigma
        arrays[f"pop{i}_w"] = p.stability_weights
    np.savez_compressed(d / "populations.npz", **arrays)

    (d / "config.json").write_text(
        json.dumps(
            {"config": ref_map.config.to_dict(), "taxonomy": ref_map.taxonomy.to_dict()},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    files = ["graph.json", "graph_buffers.npz", "index.gsfi", "populations.npz", "config.json"]
    manifest = {
        "format": MAP_BUNDLE_FORMAT,
        "version": MAP_BUNDLE_VERSION,
        "files": {f: _sha256(d / f) for f in files},
        "config": ref_map.config.to_dict(),
    }
    (d / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_map(bundle_dir) -> ReferenceMap:
    d = Path(bundle_dir)
    mpath = d / "manifest.json"
    if not mpath.exists():
        raise FormatError(f"map bundle {d}: manifest.json not found")
    manifest = json.loads(mpath.read_text())
    if manifest.get("format") != MAP_BUNDLE_FORMAT:
        raise FormatError(f"map bundle {d}: unrecognized manifest format")
    if manifest.get("version") != MAP_BUNDLE_VERSION:
        raise FormatError(f"map bundle {d}: unsupported version {manifest.get('version')}")
    for name, digest in manifest["files"].items():
        actual = _sha256(d / name)
        if actual != digest:
            raise FormatError(
                f"map bundle {d}: content hash mismatch for {name} "
                f"(manifest {digest[:12]}.., file {actual[:12]}..)"
            )

    meta = json.loads((d / "config.json").read_text())
    config = RunConfig.from_dict(meta["config"])
    taxonomy = LabelTaxonomy.from_dict(meta["taxonomy"])
    graph = load_scene_graph(d / "graph.json", d / "graph_buffers.npz")
    index = load_index(d / "index.gsfi")
    populations: dict[int, GpPopulation | None] = {
        inst.id: None for inst in graph.instances
    }
    with np.load(d / "populations.npz") as buf:
        for i in buf["ids"]:
            i = int(i)
            populations[i] = GpPopulation(
                buf[f"pop{i}_grid"], buf[f"pop{i}_mu"],
                buf[f"pop{i}_Sigma"], buf[f"pop{i}_w"],
            )
    return ReferenceMap(graph, index, populations, taxonomy, config)
