"""End-to-end orchestration: offline map building, one-shot localization.

`localize` runs one private function per entry of STAGES, each timed under
its name: `_query_graph` (prepare, voxel, the scene graph's object layer),
`_query_probes` (each instance's field fitted and probed by `grid_probe` at
every yaw sample into one population table, run only with the GSF filter on;
`grid_probe` itself probes only the yaws whose grid is not a reordering of an
earlier one and gathers the rest), `_match` (triangles; one `query_index`
call for all of them, which gives the coarse candidates as one (triangle row,
candidate id) array; one W2 table of every instance pair the GSF filter
reads, from one batched `pair_w2` call that gathers the rows it reads into a
dense (query instance x map instance) array, with the similarity self-tuned
from it; then one `gsf_filter` call over all candidates, whose survivors come
back as one `TriangleMatches` array record), `_clique` (correspondences merged
from that record by array operations, consistency graph, max clique) and
`_solve` (robust IRLS).

A map holds only what `localize` reads: each instance's centroid, one table
of probed populations, row i instance i's, with a mask of the fitted rows,
the triangle index, the taxonomy and the config. Map and query share one
fit-and-probe path, `_probe_fields`, which fills a row and drops its field;
`build_map` drops the map cloud once it is triangulated.

Map bundle directory layout, version 5:
    graph.json        instance ids and centroids
    index.gsfi        triangle descriptor index
    populations.npz   three whole arrays: ids (P,), the instances that have a
                      population, ascending; mu (P, G, D), their probed means;
                      Sigma (P, G, G), their probed covariances
    config.json       RunConfig + taxonomy snapshot
    manifest.json     format, version, sha256 of each file above

config.json is the bundle's only copy of the config. A query config is held
to the map's by `localize` alone: it refuses one whose population settings
(the `gsf` section, `cluster.neighborhood_radius` and `index.delta_d`)
differ. `load_map` refuses, with a FormatError naming the file, a JSON file
that is not UTF-8, does not parse or lacks a part, a config.json whose config
or taxonomy does not check or whose cluster thresholds name a class the
taxonomy lacks, an index whose delta_d is not config.json's, an npz file that
does not read, lacks an array or holds a non-finite value, ids that are not
one strictly ascending row of integers, a mu other than (P, G, D) or a Sigma
other than (P, G, G) for the config's G grid points and the taxonomy's D
classes, and an index or population of an instance that graph.json does not
hold. The stored rows fill a NaN table; its grid and stability weights are
rebuilt from the config and the taxonomy, as `grid_probe` made them.

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
    read_json,
    sha256_file,
)
from .descriptors import (
    ORDERS,
    DescriptorIndex,
    TriangleMatches,
    build_index,
    gsf_filter,
    load_index,
    pair_w2,
    plain_matches,
    query_index,
    save_index,
    triangulate,
    vertex_array,
)
from .gsf import GpPopulation, grid_probe, probe_grid, stability_weights
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
from .scene_graph import (
    SceneGraph,
    build_scene_graph,
    check_thresholds,
    fit_fields,
    load_scene_graph,
    save_scene_graph,
)
from .wasserstein import SimilarityConfig

MAP_BUNDLE_FORMAT = "gsfloc-map-bundle"
MAP_BUNDLE_VERSION = 5
BUNDLE_FILES = ("graph.json", "index.gsfi", "populations.npz", "config.json")

# localize's stages, in run order; each is one key of `timings_ms`
STAGES = ("graph", "probe", "match", "clique", "solve")


class BuildError(GsflocError):
    """The map cloud cannot support localization (too few instances)."""


@dataclass
class ReferenceMap:
    centroids: dict[int, np.ndarray]  # instance id -> map-frame centroid
    index: DescriptorIndex
    populations: GpPopulation  # (K, G, ·) table, row i instance i's, NaN where a fit failed
    fitted: np.ndarray  # (K,) bool, the rows of `populations` that hold a population
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
    """Keep the lowest-index point per voxel; deterministic.

    Each voxel gets one int64 key, its row-major index in the cloud's voxel
    bounding box. A cloud whose voxel indices, or that box's voxel count, do
    not fit in int64 is refused with a ValidationError.
    """
    if voxel <= 0 or cloud.n == 0:
        return cloud
    cells = np.floor(cloud.points / voxel)
    if not np.all((cells >= -(2.0**63)) & (cells < 2.0**63)):
        raise ValidationError(
            f"voxel indices at voxel size {voxel} do not fit in int64; the cloud reaches "
            f"{np.abs(cloud.points).max():.3g} m from the origin"
        )
    cells = cells.astype(np.int64)
    low = cells.min(axis=0)
    spans = [int(hi) - int(lo) + 1 for lo, hi in zip(low, cells.max(axis=0))]
    if spans[0] * spans[1] * spans[2] > 2**63:
        raise ValidationError(
            f"the cloud spans {spans[0]} x {spans[1]} x {spans[2]} voxels of size {voxel}; "
            "that many do not fit in int64"
        )
    cells -= low
    key = (cells[:, 0] * spans[1] + cells[:, 1]) * spans[2] + cells[:, 2]
    _, first = np.unique(key, return_index=True)  # each voxel's lowest index
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
    fitted, populations = _probe_fields(graph, cloud, taxonomy, config, 0.0)
    index = build_index(triangulate(graph, config.index.k_neighbors), config.index.delta_d)
    centroids = {inst.id: inst.centroid for inst in graph.instances}
    return ReferenceMap(centroids, index, populations, fitted, taxonomy, config)


def _timed(timings: dict, stage: str, fn, *args):
    """`fn(*args)`, with its wall time in ms recorded under `stage`."""
    t0 = time.perf_counter()
    out = fn(*args)
    timings[stage] = (time.perf_counter() - t0) * 1e3
    return out


def _nan_table(grid: np.ndarray, k: int, n_cls: int) -> GpPopulation:
    """A table of k populations on `grid` (G,3), or a yaw stack (Y,G,3), all NaN."""
    lead, g = (k, *grid.shape[:-2]), grid.shape[-2]
    return GpPopulation(grid, np.full((*lead, g, n_cls), np.nan),
                        np.full((*lead, g, g), np.nan), np.full((*lead, g), np.nan))


def _probe_fields(graph, cloud, taxonomy, config, yaw) -> tuple[np.ndarray, GpPopulation]:
    """Each instance's field fitted, probed at `yaw` (a float or a sequence) and
    dropped: the (K,) fitted mask and the table, row i instance i's, NaN where it failed."""
    grid = probe_grid(config.gsf.grid, yaw)
    fitted = np.zeros(graph.num_instances, dtype=bool)
    table = _nan_table(grid, graph.num_instances, taxonomy.num_classes)
    for iid, field in fit_fields(graph, cloud, config):
        if field is not None:
            table[iid] = grid_probe(field, taxonomy, config.gsf.grid, yaw)
            fitted[iid] = True
    return fitted, table


def _query_graph(query_cloud, taxonomy, config) -> tuple[SemanticPointCloud, SceneGraph]:
    """Stage "graph": prepare and voxel-downsample the scan, then cluster it.
    Returns the voxelled scan and its scene graph."""
    cloud = voxel_downsample(_prepare_cloud(query_cloud, config), config.pipeline.query_voxel)
    return cloud, build_scene_graph(cloud, taxonomy, config)


def _query_probes(qgraph, cloud, taxonomy, config) -> tuple[np.ndarray, GpPopulation]:
    """Stage "probe": the fitted mask and the (K, Y, G, ·) table at the yaw samples."""
    n = config.sim.yaw_samples
    return _probe_fields(qgraph, cloud, taxonomy, config, [2.0 * np.pi * k / n for k in range(n)])


def _w2_table(
    descs, cand, q_ok, pops_query, ref_map, config
) -> tuple[np.ndarray, np.ndarray, SimilarityConfig | None]:
    """Score each distinct (query, map) instance pair the fine filter reads, once,
    all in one `pair_w2` call.

    Skips, with a warning, a query triangle or a candidate that touches an
    instance `q_ok` or `ref_map.fitted` leaves out. A kept candidate pairs its
    triangle's vertices under every stored vertex order and canonically.
    Returns the kept rows of `cand`, the W2^2 table as a dense (query instance
    x map instance) array, NaN where no pair was scored, and the similarity
    scaled to the median W2^2 over the canonical pairs (None if there is none).
    """
    index, pops_map, m_ok = ref_map.index, ref_map.populations, ref_map.fitted
    qv = vertex_array(descs)
    n_query = int(qv.max()) + 1 if qv.size else 0
    n_map = int(index.vertex_ids.max()) + 1 if index.vertex_ids.size else 0
    row_ok = q_ok[qv].all(axis=1)
    cand_ok = m_ok[index.vertex_ids[cand[:, 1]]].all(axis=1)
    lost = row_ok[cand[:, 0]] & ~cand_ok
    for r, cid in sorted([(r, -1) for r in np.flatnonzero(~row_ok).tolist()]
                         + cand[lost].tolist()):
        if cid < 0:
            missing = [q for q in descs[r].vertex_ids if not q_ok[q]]
            warnings.warn(f"query instances {missing} lack fields; candidates skipped")
        else:
            missing = [m for m in index.vertex_ids[cid].tolist() if not m_ok[m]]
            warnings.warn(f"map instances {missing} lack fields; candidate {cid} skipped")
    kept = cand[row_ok[cand[:, 0]] & cand_ok]
    kq, cids = qv[kept[:, 0]], kept[:, 1]
    canonical = np.unique(kq * n_map + index.vertex_ids[cids])
    ordered = kq[:, None, :] * n_map + index.vertex_ids[cids][:, ORDERS]
    codes = np.union1d(canonical, ordered[index.order_mask[cids]])
    w2 = np.full((n_query, n_map), np.nan)
    qids, mids = np.divmod(codes, n_map)
    w2.flat[codes] = pair_w2(qids, mids, pops_query, pops_map, config.sim.use_stability)
    if not canonical.size:
        return kept, w2, None
    median = float(np.median(w2.flat[canonical]))
    sim = config.sim
    return kept, w2, SimilarityConfig(
        max(np.sqrt(median), 1e-9) if sim.sigma_w is None else sim.sigma_w,
        max(3.0 * median, 1e-12) if sim.accept_threshold is None else sim.accept_threshold,
    )


def _match(qgraph, probes, ref_map, config) -> tuple[int, TriangleMatches]:
    """Stage "match": triangles, one coarse lookup for all of them, then one GSF
    fine filter over one W2 table of `probes` (canonical pairing with it off).
    Returns the triangle count and the matches."""
    descs = triangulate(qgraph, config.index.k_neighbors)
    cand = query_index(ref_map.index, descs)
    if not config.pipeline.use_gsf_filter:
        return len(descs), plain_matches(descs, cand, ref_map.index)
    kept, w2, simcfg = _w2_table(descs, cand, *probes, ref_map, config)
    if simcfg is None:
        return len(descs), TriangleMatches.empty()
    return len(descs), gsf_filter(descs, kept, ref_map.index, w2, simcfg)


def _clique(matches, qcents, mcents, config) -> list[Correspondence]:
    """Stage "clique": the correspondences of the maximum consistent clique."""
    corrs = collect_correspondences(matches)
    if not corrs:
        return []
    cgraph = build_consistency_graph(corrs, qcents, mcents, config.matching.epsilon)
    return [corrs[i] for i in max_clique(cgraph)]


def _solve(picked, qcents, mcents, config) -> tuple[RigidTransform, list] | None:
    """Stage "solve": truncated IRLS over the clique. Returns the sensor pose in the
    map frame and the surviving pairs; None if degenerate or fewer than 3 survive.
    Clique weights that underflow to 0 (a tiny `sim.sigma_w`) are degenerate too."""
    try:
        cset = WeightedCorrespondenceSet(
            p=np.stack([qcents[c.query_id] for c in picked]),
            q=np.stack([mcents[c.map_id] for c in picked]),
            omega=np.array([c.omega for c in picked]),
            tau0=config.solver.tau0,
        )
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

    Runs the STAGES in order; with the GSF filter off, "probe" is skipped and
    no field is fitted, as nothing reads them. Fewer than 3 clique members end
    the query as "no-match", a failed pose solve as "degenerate"; stages not
    run time 0 ms.
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

    qcloud, qgraph = _timed(timings, "graph", _query_graph, query_cloud, taxonomy, config)
    probes = (_timed(timings, "probe", _query_probes, qgraph, qcloud, taxonomy, config)
              if config.pipeline.use_gsf_filter else None)
    del qcloud  # only the fits read the voxelled scan
    res.triangles_queried, matches = _timed(
        timings, "match", _match, qgraph, probes, ref_map, config)
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
    fitted, pops = ref_map.fitted, ref_map.populations
    np.savez_compressed(d / "populations.npz", ids=np.flatnonzero(fitted),
                        mu=pops.mu[fitted], Sigma=pops.Sigma[fitted])
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
    manifest = read_json(mpath, f"map bundle {d}: manifest.json")
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

    meta = read_json(d / "config.json", f"map bundle {d}: config.json")
    if not isinstance(meta, dict) or not {"config", "taxonomy"} <= meta.keys():
        raise FormatError(f"map bundle {d}: config.json needs a config and a taxonomy section")
    try:
        config = RunConfig.from_dict(meta["config"])
        taxonomy = LabelTaxonomy.from_dict(meta["taxonomy"])
        check_thresholds(config.cluster, taxonomy)
    except ValidationError as e:
        raise FormatError(f"map bundle {d}: config.json: {e}") from e
    centroids = load_scene_graph(d / "graph.json")
    index = load_index(d / "index.gsfi")
    if index.delta_d != config.index.delta_d:
        raise FormatError(
            f"map bundle {d}: index.gsfi was built with delta_d {index.delta_d}; "
            f"config.json's index.delta_d is {config.index.delta_d}"
        )
    buf = load_npz(d / "populations.npz")
    ids, mu, Sigma = buf["ids"], buf["mu"], buf["Sigma"]
    if ids.ndim != 1 or ids.dtype.kind not in "iu" or np.any(ids[1:] <= ids[:-1]):
        raise FormatError(
            f"map bundle {d}: populations.npz ids must be one strictly ascending row of "
            f"integers; it holds {ids.dtype} ids of shape {ids.shape}"
        )
    for name, named in (("index.gsfi", index.vertex_ids), ("populations.npz", ids)):
        stray = np.setdiff1d(named, list(centroids))  # a negative id would wrap below
        if stray.size:
            raise FormatError(
                f"map bundle {d}: {name} names instance {stray[0]}, "
                f"which graph.json does not hold ({len(centroids)} instances)"
            )
    grid = probe_grid(config.gsf.grid)
    g, n_cls, p = len(grid), taxonomy.num_classes, len(ids)
    if mu.shape != (p, g, n_cls) or Sigma.shape != (p, g, g):
        raise FormatError(
            f"map bundle {d}: populations.npz holds mu of shape {mu.shape} and Sigma of shape "
            f"{Sigma.shape}; its {p} ids, the config's {g} grid points and the taxonomy's "
            f"{n_cls} classes need ({p}, {g}, {n_cls}) and ({p}, {g}, {g})"
        )
    fitted = np.isin(np.arange(len(centroids)), ids)
    populations = _nan_table(grid, len(centroids), n_cls)
    populations[ids] = GpPopulation(grid, mu, Sigma, stability_weights(mu, taxonomy))
    return ReferenceMap(centroids, index, populations, fitted, taxonomy, config)
