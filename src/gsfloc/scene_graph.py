"""Scene graph construction: an object layer and a field layer.

Object layer (`build_scene_graph`): per-class single-linkage Euclidean
clustering of instantiable points (connected components of the
distance-threshold graph). Field layer (`fit_fields`), read only by GSF-filtered
matching: one Gaussian semantic field per instance, fit on the radius-r
neighborhood (all classes) in local coordinates centered at the instance
centroid, one at a time, so a caller can probe each and drop it before the next
is fitted. The graph keeps no copy of the cloud it was built from. Every
setting comes from the run's `RunConfig`: the `cluster` section, the GP
settings of `gsf` and `pipeline.seed`.

Serialization: a versioned JSON document of each instance's id and centroid,
the part of the object layer a map bundle needs at query time. Fields are not
stored; a map bundle keeps their probed populations instead.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .config import ClusterSection, RunConfig
from .core import FormatError, LabelTaxonomy, SemanticPointCloud, ValidationError, read_json
from .gsf import FitError, GaussianSemanticField, GpHyperParams, fit_gsf

# k-d trees built once and queried once: the median splits of a balanced tree
# and the shrunk node boxes of a compact one cost more to build than they save
_TREE = {"balanced_tree": False, "compact_nodes": False}

GRAPH_FORMAT = "gsfloc-scene-graph"
GRAPH_VERSION = 3


@dataclass
class Instance:
    id: int
    centroid: np.ndarray  # (3,) mean of member points
    label: int
    point_indices: np.ndarray  # indices into the source cloud


@dataclass
class SceneGraph:
    instances: list[Instance]

    @property
    def num_instances(self) -> int:
        return len(self.instances)


def check_thresholds(cluster: ClusterSection, taxonomy: LabelTaxonomy) -> None:
    """A ValidationError if `cluster.thresholds` names a class the taxonomy lacks."""
    unknown = sorted(set(cluster.thresholds) - {taxonomy.name(c) for c in taxonomy.ids()})
    if unknown:
        raise ValidationError(f"cluster threshold for unknown class {unknown[0]!r}")


def cluster_instances(
    cloud: SemanticPointCloud, taxonomy: LabelTaxonomy, cluster: ClusterSection
) -> list[Instance]:
    """Connected components of instantiable points under the per-class
    distance-threshold relation (`cluster.thresholds` by class name, else
    `cluster.default_threshold`); components below min_cluster_size dropped.

    Output is deterministic: instances sorted by label id, then centroid
    lexicographically, with dense ids 0..K-1.
    """
    check_thresholds(cluster, taxonomy)
    # every instantiable point, class by class, each class's indices ascending
    members, links = [], []
    start = 0
    for cid in taxonomy.instantiable_ids():
        idx = np.flatnonzero(cloud.labels == cid)
        if idx.size == 0:
            continue
        pairs = cKDTree(cloud.points[idx], **_TREE).query_pairs(
            cluster.thresholds.get(taxonomy.name(cid), cluster.default_threshold),
            output_type="ndarray",
        )
        pairs += start
        members.append(idx)
        links.append(pairs)
        start += idx.size
    if not start:
        return []
    members, pairs = np.concatenate(members), np.concatenate(links)
    links.clear()  # the per-class pairs go before the sparse graph is built
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(start, start))
    del pairs  # the graph holds its own (int32) copy of the pairs
    # components are numbered in order of their lowest member, so class by class
    _, comp = connected_components(graph, directed=False)
    sizes = np.bincount(comp)
    ends = np.cumsum(sizes)
    big = sizes >= cluster.min_cluster_size
    by_comp = members[np.argsort(comp, kind="stable")]  # each component's members ascending

    keyed = []
    for lo, hi in zip((ends - sizes)[big].tolist(), ends[big].tolist()):
        idx = by_comp[lo:hi]
        centroid = cloud.points[idx].mean(axis=0)
        keyed.append((int(cloud.labels[idx[0]]), tuple(centroid), centroid, idx))
    keyed.sort(key=lambda k: (k[0], k[1]))
    return [
        Instance(i, centroid, label, np.sort(idx))
        for i, (label, _, centroid, idx) in enumerate(keyed)
    ]


def build_scene_graph(
    cloud: SemanticPointCloud,
    taxonomy: LabelTaxonomy,
    config: RunConfig,
) -> SceneGraph:
    """The object layer: the instances `cluster_instances` finds under
    `config.cluster`. The cloud must carry one logit column per taxonomy class,
    which the field layer fits."""
    if cloud.logits is None:
        raise ValidationError("scene graph construction requires logits")
    if cloud.num_classes != taxonomy.num_classes:
        raise ValidationError(
            f"cloud has {cloud.num_classes} logit columns; "
            f"the taxonomy has {taxonomy.num_classes} classes"
        )
    return SceneGraph(cluster_instances(cloud, taxonomy, config.cluster))


def fit_fields(
    graph: SceneGraph, cloud: SemanticPointCloud, config: RunConfig
) -> Iterator[tuple[int, GaussianSemanticField | None]]:
    """The field layer: (instance id, field) for each instance of `graph`, in
    order, each fitted only when it is asked for.

    A field is fit on the points of `cloud`, the graph's own cloud, within
    `config.cluster.neighborhood_radius` of the instance's centroid (one
    batched ball query), with the GP settings of `config.gsf`. Each fit is
    seeded by `config.pipeline.seed` and the instance id. A fit failure is
    reported as a warning and gives None: the instance is skipped by GSF-based
    filtering downstream.
    """
    if not graph.instances:
        return
    hyper = GpHyperParams(config.gsf.kappa, config.gsf.sigma_y)
    hoods = cKDTree(cloud.points, **_TREE).query_ball_point(
        np.stack([inst.centroid for inst in graph.instances]),
        config.cluster.neighborhood_radius, return_sorted=True)
    for inst, hood in zip(graph.instances, hoods):
        idx = np.asarray(hood, dtype=np.int64)
        try:
            field = fit_gsf(
                cloud.points[idx] - inst.centroid,
                cloud.logits[idx],
                cloud.labels[idx],
                hyper,
                config.gsf.budget,
                seed=[config.pipeline.seed, inst.id],
            )
        except FitError as e:
            warnings.warn(f"field fit failed for instance {inst.id}: {e}")
            field = None
        yield inst.id, field


def save_scene_graph(centroids: dict[int, np.ndarray], json_path) -> None:
    """Write each instance's id and centroid, in id order."""
    doc = {
        "format": GRAPH_FORMAT,
        "version": GRAPH_VERSION,
        "instances": [
            {"id": iid, "centroid": [float(v) for v in c]}
            for iid, c in sorted(centroids.items())
        ],
    }
    Path(json_path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_scene_graph(json_path) -> dict[int, np.ndarray]:
    """The centroids saved by `save_scene_graph`, by instance id.

    A document that does not parse, or whose instances are not ids 0..K-1 in
    list order each with three finite centroid coordinates, is a FormatError
    naming the file.
    """
    where = f"scene graph file {json_path}"
    doc = read_json(json_path, where)
    if not isinstance(doc, dict) or doc.get("format") != GRAPH_FORMAT:
        raise FormatError(f"{where}: unrecognized format field")
    if doc.get("version") != GRAPH_VERSION:
        raise FormatError(f"{where}: unsupported version {doc.get('version')}")
    records = doc.get("instances")
    if not isinstance(records, list):
        raise FormatError(f"{where}: no instances list")
    centroids: dict[int, np.ndarray] = {}
    for k, rec in enumerate(records):
        if not isinstance(rec, dict) or "id" not in rec or "centroid" not in rec:
            raise FormatError(f"{where}: instance record {k} lacks id or centroid")
        if rec["id"] != k:
            raise FormatError(
                f"{where}: instance ids must be 0..K-1 in list order; "
                f"record {k} has id {rec['id']!r}"
            )
        try:
            c = np.asarray(rec["centroid"], dtype=np.float64)
        except (TypeError, ValueError):
            c = np.full(0, np.nan)
        if c.shape != (3,) or not np.all(np.isfinite(c)):
            raise FormatError(f"{where}: instance {k} centroid is not three finite numbers")
        centroids[k] = c
    return centroids
