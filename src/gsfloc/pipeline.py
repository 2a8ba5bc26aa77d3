"""End-to-end orchestration: offline map building, one-shot localization.

`localize` runs one private function per entry of STAGES, each timed under
its name: `_query_graph` (prepare, voxel, scene graph), `_query_probes` (one
`grid_probe` per fitted instance at every yaw sample, run only with the GSF
filter on; `grid_probe` itself probes only the yaws whose grid is not a
reordering of an earlier one and gathers the rest), `_match`
(triangles, index lookup, one W2 table of every instance pair the GSF filter
reads, scored once each, the similarity self-tuned from it, then the
filter), `_clique` (correspondences, consistency graph, max clique) and
`_solve` (robust IRLS).

A map holds only what `localize` reads: each instance's centroid, the probed
populations, the triangle index, the taxonomy and the config. `build_map`
drops the map cloud and its fields once they are probed and triangulated.

Map bundle directory layout, version 3:
    graph.json        instance ids and centroids
    index.gsfi        triangle descriptor index
    populations.npz   per-instance probe populations
    config.json       RunConfig + taxonomy snapshot
    manifest.json     format, version, sha256 of each file above

config.json is the bundle's only copy of the config. A query config is held
to the map's by `localize` alone: it refuses one whose population settings
(the `gsf` section, `cluster.neighborhood_radius` and `index.delta_d`)
differ. `load_map` refuses, with a FormatError naming the file, a JSON file
that does not parse or lacks a part, a config.json whose config or taxonomy
does not check, an npz file that does not read, lacks an array or holds a
non-finite value, and an index or population of an instance that graph.json
does not hold.

The returned pose maps query-frame (sensor) coordinates into the map frame.
"""

from __future__ import annotations

import json
import time
import warnings
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
    load_npz,
    sha256_file,
)
from .descriptors import (
    DescriptorIndex,
    TriangleMatch,
    build_index,
    gsf_filter,
    load_index,
    pair_w2,
    plain_matches,
    query_index,
    save_index,
    triangulate,
)
from .gsf import GpPopulation, grid_probe
from .matching import (
    Correspondence,
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
MAP_BUNDLE_VERSION = 3
BUNDLE_FILES = ("graph.json", "index.gsfi", "populations.npz", "config.json")

# localize's stages, in run order; each is one key of `timings_ms`
STAGES = ("graph", "probe", "match", "clique", "solve")


class BuildError(GsflocError):
    """The map cloud cannot support localization (too few instances)."""


@dataclass
class ReferenceMap:
    centroids: dict[int, np.ndarray]  # instance id -> map-frame centroid
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
    order = np.lexsort(keys.T[::-1])  # stable: each voxel's run starts at its lowest index
    runs = keys[order]
    run_start = np.ones(cloud.n, dtype=bool)
    run_start[1:] = np.any(runs[1:] != runs[:-1], axis=1)
    keep = np.sort(order[run_start])
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


def _flatten(d: dict, prefix: str = ""):
    for k, v in d.items():
        if isinstance(v, dict):
            yield from _flatten(v, f"{prefix}{k}.")
        else:
            yield f"{prefix}{k}", v


def _population_settings(config: RunConfig) -> dict:
    """Settings that decide whether query and map populations are comparable,
    and the index tolerance the map was built with."""
    return dict(_flatten({
        "gsf": config.to_dict()["gsf"],
        "cluster": {"neighborhood_radius": config.cluster.neighborhood_radius},
        "index": {"delta_d": config.index.delta_d},
    }))


def build_map(
    map_cloud: SemanticPointCloud,
    taxonomy: LabelTaxonomy,
    config: RunConfig | None = None,
) -> ReferenceMap:
    """Instance centroids + canonical populations + descriptor index over the
    map cloud; the scene graph itself is not kept."""
    config = config or RunConfig()
    cloud = _prepare_cloud(map_cloud, config)
    graph = build_scene_graph(cloud, taxonomy, config)
    if graph.num_instances < 3:
        raise BuildError(
            f"map has {graph.num_instances} instances; at least 3 are required"
        )
    populations = {
        inst.id: None if (field := graph.fields.get(inst.id)) is None
        else grid_probe(field, taxonomy, config.gsf.grid)
        for inst in graph.instances
    }
    index = build_index(triangulate(graph, config.index.k_neighbors), config.index.delta_d)
    centroids = {inst.id: inst.centroid for inst in graph.instances}
    return ReferenceMap(centroids, index, populations, taxonomy, config)


def _timed(timings: dict, stage: str, fn, *args):
    """`fn(*args)`, with its wall time in ms recorded under `stage`."""
    t0 = time.perf_counter()
    out = fn(*args)
    timings[stage] = (time.perf_counter() - t0) * 1e3
    return out


def _query_graph(query_cloud, taxonomy, config) -> SceneGraph:
    """Stage "graph": prepare and voxel-downsample the scan, cluster and fit."""
    cloud = voxel_downsample(_prepare_cloud(query_cloud, config), config.pipeline.query_voxel)
    return build_scene_graph(cloud, taxonomy, config)


def _query_probes(qgraph, taxonomy, config) -> dict[int, GpPopulation | None]:
    """Stage "probe": every fitted instance's stacked population over the yaw samples."""
    n = config.sim.yaw_samples
    yaws = [2.0 * np.pi * k / n for k in range(n)]
    return {
        inst.id: None if (field := qgraph.fields.get(inst.id)) is None
        else grid_probe(field, taxonomy, config.gsf.grid, yaws)
        for inst in qgraph.instances
    }


def _w2_table(
    cand_lists, pops_query, ref_map, config
) -> tuple[list, dict, SimilarityConfig | None]:
    """Score each distinct (query, map) instance pair the fine filter reads, once.

    Skips, with a warning, a query triangle or a candidate that touches an
    instance without a population. A kept candidate pairs its triangle's
    vertices under every stored vertex order and canonically. Returns the kept
    candidate lists, the {(qid, mid): W2^2} table, and the similarity scaled
    to the median W2^2 over the canonical pairs (None if there is none).
    """
    index, pops_map = ref_map.index, ref_map.populations
    kept, canonical, pairs = [], set(), set()
    for d, cands in cand_lists:
        missing = [q for q in d.vertex_ids if pops_query.get(q) is None]
        if missing:
            warnings.warn(f"query instances {missing} lack fields; candidates skipped")
            cands = []
        ok = []
        for cid in cands:
            mids = index.descriptors[cid].vertex_ids
            missing = [m for m in mids if pops_map.get(m) is None]
            if missing:
                warnings.warn(f"map instances {missing} lack fields; candidate {cid} skipped")
                continue
            ok.append(cid)
            canonical.update(zip(d.vertex_ids, mids))
            for perm in index.orders[cid]:
                pairs.update(zip(d.vertex_ids, [mids[k] for k in perm]))
        kept.append((d, ok))
    w2 = {p: pair_w2(*p, pops_query, pops_map, config.sim.use_stability)
          for p in sorted(pairs | canonical)}
    if not canonical:
        return kept, w2, None
    median = float(np.median([w2[p] for p in sorted(canonical)]))
    sim = config.sim
    return kept, w2, SimilarityConfig(
        max(np.sqrt(median), 1e-9) if sim.sigma_w is None else sim.sigma_w,
        max(3.0 * median, 1e-12) if sim.accept_threshold is None else sim.accept_threshold,
    )


def _match(qgraph, pops_query, ref_map, config) -> tuple[int, list[TriangleMatch]]:
    """Stage "match": triangles, coarse lookup, then the GSF fine filter over one
    W2 table (canonical pairing with it off). Returns the triangle count and
    the matches."""
    descs = triangulate(qgraph, config.index.k_neighbors)
    cand_lists = [(d, query_index(ref_map.index, d)) for d in descs]
    if not config.pipeline.use_gsf_filter:
        return len(descs), [m for d, cands in cand_lists
                            for m in plain_matches(d, cands, ref_map.index)]
    kept, w2, simcfg = _w2_table(cand_lists, pops_query, ref_map, config)
    if simcfg is None:
        return len(descs), []
    return len(descs), [m for d, cands in kept
                        for m in gsf_filter(d, cands, ref_map.index, w2, simcfg)]


def _clique(matches, qcents, mcents, config) -> list[Correspondence]:
    """Stage "clique": the correspondences of the maximum consistent clique."""
    corrs = collect_correspondences(matches)
    if not corrs:
        return []
    cgraph = build_consistency_graph(corrs, qcents, mcents, config.matching.epsilon)
    return [corrs[i] for i in max_clique(cgraph)]


def _solve(picked, qcents, mcents, config) -> tuple[RigidTransform, list] | None:
    """Stage "solve": truncated IRLS over the clique. Returns the sensor pose in the
    map frame and the surviving pairs; None if degenerate or fewer than 3 survive."""
    cset = WeightedCorrespondenceSet(
        p=np.stack([qcents[c.query_id] for c in picked]),
        q=np.stack([mcents[c.map_id] for c in picked]),
        omega=np.array([c.omega for c in picked]),
        tau0=config.solver.tau0,
    )
    try:
        T_qm, mask, _trace = robust_irls(cset, config.solver.max_iters, config.solver.rel_tol)
    except (DegenerateGeometryError, IrlsFailure, ValidationError):
        return None
    inliers = [c for c, keep in zip(picked, mask) if keep]
    return (T_qm.inverse(), inliers) if len(inliers) >= 3 else None


def localize(
    query_cloud: SemanticPointCloud,
    ref_map: ReferenceMap,
    config: RunConfig | None = None,
) -> LocalizationResult:
    """One-shot localization of a query scan against a prebuilt map.

    Runs the STAGES in order; with the GSF filter off, "probe" is skipped, as
    nothing reads its populations. Fewer than 3 clique members end the query
    as "no-match", a failed pose solve as "degenerate"; stages not run time 0 ms.
    """
    config = config or ref_map.config
    want, got = _population_settings(ref_map.config), _population_settings(config)
    differ = [k for k in want if got[k] != want[k]]
    if differ:
        raise ValidationError(
            f"query config differs from the map bundle in {', '.join(differ)}; "
            "populations are not comparable"
        )
    taxonomy = ref_map.taxonomy
    timings = dict.fromkeys(STAGES, 0.0)
    res = LocalizationResult("no-match", None, 0, 0, 0, 0, [], timings,
                             config.pipeline.use_gsf_filter)

    qgraph = _timed(timings, "graph", _query_graph, query_cloud, taxonomy, config)
    pops_query = (_timed(timings, "probe", _query_probes, qgraph, taxonomy, config)
                  if config.pipeline.use_gsf_filter else {})
    res.triangles_queried, matches = _timed(
        timings, "match", _match, qgraph, pops_query, ref_map, config)
    res.candidates_after_filter = len(matches)
    qcents = {inst.id: inst.centroid for inst in qgraph.instances}
    mcents = ref_map.centroids
    picked = _timed(timings, "clique", _clique, matches, qcents, mcents, config)
    res.clique_size = len(picked)
    if len(picked) < 3:
        return res
    solved = _timed(timings, "solve", _solve, picked, qcents, mcents, config)
    if solved is None:
        res.status = "degenerate"
        return res
    res.status = "success"
    res.pose, res.inliers = solved
    res.inlier_count = len(res.inliers)
    return res


# ---------------------------------------------------------------------------
# Map bundle IO
# ---------------------------------------------------------------------------


def save_map(ref_map: ReferenceMap, bundle_dir) -> None:
    d = Path(bundle_dir)
    d.mkdir(parents=True, exist_ok=True)
    save_scene_graph(ref_map.centroids, d / "graph.json")
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
    manifest = {
        "format": MAP_BUNDLE_FORMAT,
        "version": MAP_BUNDLE_VERSION,
        "files": {f: sha256_file(d / f) for f in BUNDLE_FILES},
    }
    (d / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_map(bundle_dir) -> ReferenceMap:
    d = Path(bundle_dir)
    mpath = d / "manifest.json"
    if not mpath.exists():
        raise FormatError(f"map bundle {d}: manifest.json not found")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"map bundle {d}: manifest.json line {e.lineno}: {e.msg}") from e
    if not isinstance(manifest, dict) or manifest.get("format") != MAP_BUNDLE_FORMAT:
        raise FormatError(f"map bundle {d}: unrecognized manifest format")
    if manifest.get("version") != MAP_BUNDLE_VERSION:
        raise FormatError(f"map bundle {d}: unsupported version {manifest.get('version')}")
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise FormatError(f"map bundle {d}: manifest.json has no files map")
    if sorted(files) != sorted(BUNDLE_FILES):
        raise FormatError(
            f"map bundle {d}: manifest.json must list exactly {', '.join(BUNDLE_FILES)}; "
            f"it lists {', '.join(sorted(files)) or 'none'}"
        )
    for name in BUNDLE_FILES:
        if not (d / name).is_file():
            raise FormatError(f"map bundle {d}: {name} not found")
        actual = sha256_file(d / name)
        if actual != files[name]:
            raise FormatError(
                f"map bundle {d}: content hash mismatch for {name} "
                f"(manifest {str(files[name])[:12]}.., file {actual[:12]}..)"
            )

    try:
        meta = json.loads((d / "config.json").read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"map bundle {d}: config.json line {e.lineno}: {e.msg}") from e
    if not isinstance(meta, dict) or not {"config", "taxonomy"} <= meta.keys():
        raise FormatError(f"map bundle {d}: config.json needs a config and a taxonomy section")
    try:
        config = RunConfig.from_dict(meta["config"])
        taxonomy = LabelTaxonomy.from_dict(meta["taxonomy"])
    except ValidationError as e:
        raise FormatError(f"map bundle {d}: config.json: {e}") from e
    centroids = load_scene_graph(d / "graph.json")
    index = load_index(d / "index.gsfi")
    buf = load_npz(d / "populations.npz")
    pop_ids = buf["ids"].tolist()
    for name, ids in (("index.gsfi", {v for dsc in index.descriptors for v in dsc.vertex_ids}),
                      ("populations.npz", pop_ids)):
        stray = sorted(set(ids) - set(centroids))
        if stray:
            raise FormatError(
                f"map bundle {d}: {name} names instance {stray[0]}, "
                f"which graph.json does not hold ({len(centroids)} instances)"
            )
    populations: dict[int, GpPopulation | None] = dict.fromkeys(centroids)
    for i in pop_ids:
        populations[i] = GpPopulation(
            buf[f"pop{i}_grid"], buf[f"pop{i}_mu"], buf[f"pop{i}_Sigma"], buf[f"pop{i}_w"],
        )
    return ReferenceMap(centroids, index, populations, taxonomy, config)
