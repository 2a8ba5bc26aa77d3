"""End-to-end orchestration: offline map building, one-shot localization.

`localize` runs one private function per entry of STAGES, each timed under
its name: `_query_graph` (prepare, voxel, the scene graph's object layer),
`_query_probes` (each instance's field fitted and probed by `grid_probe` at
every yaw sample into one population table, run only with the GSF filter on;
`grid_probe` itself probes only the yaws whose grid is not a reordering of an
earlier one and gathers the rest), `_match` (the query's triangle table; one
`query_index` call on it, which gives the coarse candidates as one (triangle
row, candidate id) array; one W2 table, a dense (query instance x map
instance) array, of every instance pair the GSF filter reads, all scored by
one `pair_w2` call, with the similarity self-tuned from it; then one
`gsf_filter` call over all candidates, whose survivors come back as one
`TriangleMatches` array record), `_clique` (one `CorrespondenceTable` merged
from that record by array operations, its consistency graph and its max
clique's rows) and `_solve` (robust IRLS over those rows of the two centroid
tables; the result's inliers are the rows it keeps).

A map holds only what `localize` reads: one (K, 3) table of instance
centroids and one table of probed populations, row i instance i's in each,
with a mask of the fitted rows, the triangle index over the map's triangle
table, the taxonomy and the config. Map and query share one fit-and-probe
path, `_probe_fields`, which fills a row and drops its field; `build_map`
drops the map cloud once it is triangulated.

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

from .config import RunConfig, config_key
from .core import (
    FormatError,
    GsflocError,
    LabelTaxonomy,
    RigidTransform,
    SemanticPointCloud,
    ValidationError,
    check_fields,
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
)
from .gsf import GpPopulation, grid_probe, probe_grid, stability_weights
from .matching import (CorrespondenceTable, build_consistency_graph, collect_correspondences,
                       correspondence_table, max_clique)
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
    centroids: np.ndarray  # (K, 3) map-frame centroids, row i instance i's
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
    inliers: CorrespondenceTable  # the clique's rows that survive the solve
    timings_ms: dict[str, float]
    gsf_filter_used: bool

    def to_dict(self, include_timings: bool = True) -> dict:
        ins = self.inliers
        d = {
            "status": self.status,
            "pose": None if self.pose is None else self.pose.matrix_3x4().ravel().tolist(),
            "inlier_count": self.inlier_count,
            "clique_size": self.clique_size,
            "triangles_queried": self.triangles_queried,
            "candidates_after_filter": self.candidates_after_filter,
            "inliers": [
                {"query": q, "map": m, "omega": o, "support": s}
                for q, m, o, s in zip(ins.query_ids.tolist(), ins.map_ids.tolist(),
                                      ins.omegas.tolist(), ins.supports.tolist())
            ],
            "gsf_filter": self.gsf_filter_used,
        }
        if include_timings:
            d["timings_ms"] = dict(self.timings_ms)
        return d


def voxel_downsample(cloud: SemanticPointCloud, voxel: float) -> SemanticPointCloud:
    """Keep the lowest-index point per voxel; deterministic.

    Each voxel gets one int64 key, its row-major index in the cloud's voxel
    bounding box, whose bounds are taken per axis from one row of voxel
    indices each. The keys are sorted once, in no stable order, and each
    voxel keeps the smallest point index of its run. A cloud whose voxel
    indices, or that box's voxel count, do not fit in int64 is refused with a
    ValidationError.
    """
    if voxel <= 0 or cloud.n == 0:
        return cloud
    with np.errstate(over="ignore"):  # an infinite index is refused below
        cells = np.floor(np.ascontiguousarray(cloud.points.T) / voxel)  # (3, N)
    low, high = cells.min(axis=1), cells.max(axis=1)
    if not np.all((low >= -(2.0**63)) & (high < 2.0**63)):
        raise ValidationError(
            f"voxel indices at pipeline.query_voxel {voxel} do not fit in int64; the cloud "
            f"reaches {np.abs(cloud.points).max():.3g} m from the origin"
        )
    cells, low = cells.astype(np.int64), low.astype(np.int64)
    spans = [int(hi) - int(lo) + 1 for lo, hi in zip(low, high)]
    if spans[0] * spans[1] * spans[2] > 2**63:
        raise ValidationError(
            f"the cloud spans {spans[0]} x {spans[1]} x {spans[2]} voxels at "
            f"pipeline.query_voxel {voxel}; that many do not fit in int64"
        )
    cells -= low[:, None]
    key = (cells[0] * spans[1] + cells[1]) * spans[2] + cells[2]
    order = np.argsort(key)
    key = key[order]
    runs = np.flatnonzero(key[1:] != key[:-1]) + 1
    first = np.minimum.reduceat(order, np.concatenate(([0], runs)))  # each voxel's lowest index
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
    map cloud; of the scene graph, only the centroid table is kept. The
    config is checked as one read from a file would be."""
    config = config or RunConfig()
    check_fields(config, config_key)
    cloud = _prepare_cloud(map_cloud, config)
    graph = build_scene_graph(cloud, taxonomy, config)
    if len(graph) < 3:
        raise BuildError(f"map has {len(graph)} instances; at least 3 are required")
    fitted, populations = _probe_fields(graph, cloud, taxonomy, config, 0.0)
    index = build_index(triangulate(graph, config.index.k_neighbors), config.index.delta_d)
    return ReferenceMap(graph.centroids, index, populations, fitted, taxonomy, config)


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
    fitted = np.zeros(len(graph), dtype=bool)
    table = _nan_table(grid, len(graph), taxonomy.num_classes)
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
    table, cand, q_ok, pops_query, ref_map, config
) -> tuple[np.ndarray, np.ndarray, SimilarityConfig | None]:
    """Score each distinct (query, map) instance pair the fine filter reads, once,
    all in one `pair_w2` call.

    Skips, with one warning per side that names the sorted instances without
    fields and the count skipped, a query triangle or a candidate that touches
    an instance `q_ok` or `ref_map.fitted` leaves out. A kept candidate pairs
    its triangle's vertices under every stored vertex order and canonically.
    Returns the kept rows of `cand`, the W2^2 table as a dense (query instance
    x map instance) array, NaN where no pair was scored, and the similarity
    scaled to the median W2^2 over the canonical pairs (None if there is none).
    """
    pops_map, m_ok = ref_map.populations, ref_map.fitted
    qv, mv = table.vertex_ids, ref_map.index.table.vertex_ids
    n_query = int(qv.max()) + 1 if qv.size else 0
    n_map = int(mv.max()) + 1 if mv.size else 0
    row_ok = q_ok[qv].all(axis=1)
    cand_ok = m_ok[mv[cand[:, 1]]].all(axis=1)
    lost = row_ok[cand[:, 0]] & ~cand_ok
    if not row_ok.all():
        rows = qv[~row_ok]
        warnings.warn(f"query instances {np.unique(rows[~q_ok[rows]]).tolist()} lack fields; "
                      f"candidates skipped on {len(rows)} triangles")
    if lost.any():
        rows = mv[cand[lost, 1]]
        warnings.warn(f"map instances {np.unique(rows[~m_ok[rows]]).tolist()} lack fields; "
                      f"candidates skipped: {len(rows)}")
    kept = cand[row_ok[cand[:, 0]] & cand_ok]
    kq, cids = qv[kept[:, 0]], kept[:, 1]
    canonical = np.unique(kq * n_map + mv[cids])
    ordered = kq[:, None, :] * n_map + mv[cids][:, ORDERS]
    codes = np.union1d(canonical, ordered[ref_map.index.order_mask[cids]])
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
    table = triangulate(qgraph, config.index.k_neighbors)
    cand = query_index(ref_map.index, table)
    if not config.pipeline.use_gsf_filter:
        return len(table), plain_matches(table, cand, ref_map.index)
    kept, w2, simcfg = _w2_table(table, cand, *probes, ref_map, config)
    if simcfg is None:
        return len(table), TriangleMatches.empty()
    return len(table), gsf_filter(table, kept, ref_map.index, w2, simcfg)


def _clique(matches, qcents, mcents, config) -> CorrespondenceTable:
    """Stage "clique": the correspondence table's rows of the maximum consistent clique."""
    corrs = collect_correspondences(matches)
    if not corrs:
        return corrs
    cgraph = build_consistency_graph(corrs, qcents, mcents, config.matching.epsilon)
    return corrs[max_clique(cgraph)]


def _solve(picked, qcents, mcents, config) -> tuple[RigidTransform, CorrespondenceTable] | None:
    """Stage "solve": truncated IRLS over the clique. Returns the sensor pose in the
    map frame and the clique's surviving rows; None if degenerate or fewer than 3
    survive. Clique weights that underflow to 0 (a tiny `sim.sigma_w`) are degenerate too."""
    try:
        cset = WeightedCorrespondenceSet(qcents[picked.query_ids], mcents[picked.map_ids],
                                         picked.omegas, config.solver.tau0)
        T_qm, mask, _trace = robust_irls(cset, config.solver.max_iters, config.solver.rel_tol)
    except (DegenerateGeometryError, IrlsFailure, ValidationError):
        return None
    inliers = picked[mask]
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
    run time 0 ms. The config is checked as one read from a file would be.
    """
    config = config or ref_map.config
    check_fields(config, config_key)
    want, got = _population_settings(ref_map.config), _population_settings(config)
    differ = [k for k in want if got[k] != want[k]]
    if differ:
        raise ValidationError(
            f"query config differs from the map bundle in {', '.join(differ)}; "
            "populations are not comparable"
        )
    taxonomy = ref_map.taxonomy
    timings = dict.fromkeys(STAGES, 0.0)
    res = LocalizationResult("no-match", None, 0, 0, 0, 0, correspondence_table([]), timings,
                             config.pipeline.use_gsf_filter)

    qcloud, qgraph = _timed(timings, "graph", _query_graph, query_cloud, taxonomy, config)
    probes = (_timed(timings, "probe", _query_probes, qgraph, qcloud, taxonomy, config)
              if config.pipeline.use_gsf_filter else None)
    del qcloud  # only the fits read the voxelled scan
    res.triangles_queried, matches = _timed(
        timings, "match", _match, qgraph, probes, ref_map, config)
    res.candidates_after_filter = len(matches)
    qcents, mcents = qgraph.centroids, ref_map.centroids
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
    for name, named in (("index.gsfi", index.table.vertex_ids), ("populations.npz", ids)):
        stray = np.setdiff1d(named, np.arange(len(centroids)))  # a negative id would wrap below
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
