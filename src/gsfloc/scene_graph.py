"""Tri-layer scene graph construction.

Object layer: per-class single-linkage Euclidean clustering of instantiable
points (connected components of the distance-threshold graph). Field layer: one Gaussian semantic field per instance, fit on the
radius-r neighborhood (all classes) in local coordinates centered at the
instance centroid. Point layer: the source cloud itself. Every setting comes
from the run's `RunConfig`: the `cluster` section, the GP settings of `gsf`
and `pipeline.seed`.

Serialization: a versioned JSON document (ids, labels, centroids, field
jitter) plus an .npz sidecar holding the cloud buffers, member indices, and
per-field GP training buffers. The document holds no config; factorizations
are rebuilt on load with the GP hyperparameters the caller passes in (a map
bundle takes them from its config.json).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .config import ClusterSection, RunConfig
from .core import FormatError, LabelTaxonomy, SemanticPointCloud, ValidationError, load_npz
from .gsf import FitError, GaussianSemanticField, GpHyperParams, fit_exact, fit_gsf

GRAPH_FORMAT = "gsfloc-scene-graph"
GRAPH_VERSION = 2


@dataclass
class Instance:
    id: int
    centroid: np.ndarray  # (3,) mean of member points
    label: int
    point_indices: np.ndarray  # indices into the source cloud


@dataclass
class SceneGraph:
    cloud: SemanticPointCloud
    instances: list[Instance]
    fields: dict[int, GaussianSemanticField | None]  # instance id -> field

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    def centroids(self) -> np.ndarray:
        if not self.instances:
            return np.zeros((0, 3))
        return np.stack([inst.centroid for inst in self.instances])


def cluster_instances(
    cloud: SemanticPointCloud, taxonomy: LabelTaxonomy, cluster: ClusterSection
) -> list[Instance]:
    """Connected components of instantiable points under the per-class
    distance-threshold relation (`cluster.thresholds` by class name, else
    `cluster.default_threshold`); components below min_cluster_size dropped.

    Output is deterministic: instances sorted by label id, then centroid
    lexicographically, with dense ids 0..K-1.
    """
    unknown = sorted(set(cluster.thresholds) - {taxonomy.name(c) for c in taxonomy.ids()})
    if unknown:
        raise ValidationError(f"cluster threshold for unknown class {unknown[0]!r}")
    raw: list[tuple[int, np.ndarray]] = []  # (label, member indices)
    for cid in taxonomy.instantiable_ids():
        mask = np.nonzero(cloud.labels == cid)[0]
        if mask.size == 0:
            continue
        pairs = cKDTree(cloud.points[mask]).query_pairs(
            cluster.thresholds.get(taxonomy.name(cid), cluster.default_threshold),
            output_type="ndarray",
        )
        links = coo_matrix(
            (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(mask.size, mask.size)
        )
        # components are numbered in order of their lowest member
        _, comp = connected_components(links, directed=False)
        sizes = np.bincount(comp)
        members = np.split(np.argsort(comp, kind="stable"), np.cumsum(sizes)[:-1])
        for size, idx in zip(sizes, members):
            if size >= cluster.min_cluster_size:
                raw.append((cid, mask[idx]))

    keyed = []
    for label, idx in raw:
        centroid = cloud.points[idx].mean(axis=0)
        keyed.append((label, tuple(centroid), centroid, idx))
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
    """Cluster instances and fit one field per instance on its neighborhood.

    Reads `config.cluster`, the GP settings of `config.gsf` and
    `config.pipeline.seed`. Fit failures are reported as warnings; the
    instance is kept without a field and is skipped by GSF-based filtering
    downstream. Each fit is seeded by the run seed and its instance id.
    """
    if cloud.logits is None:
        raise ValidationError("scene graph construction requires logits")
    if cloud.num_classes != taxonomy.num_classes:
        raise ValidationError(
            f"cloud has {cloud.num_classes} logit columns; "
            f"the taxonomy has {taxonomy.num_classes} classes"
        )
    instances = cluster_instances(cloud, taxonomy, config.cluster)
    hyper = GpHyperParams(config.gsf.kappa, config.gsf.sigma_y)
    fields: dict[int, GaussianSemanticField | None] = {}
    tree = cKDTree(cloud.points) if cloud.n else None
    for inst in instances:
        idx = np.sort(
            np.asarray(
                tree.query_ball_point(inst.centroid, config.cluster.neighborhood_radius),
                dtype=np.int64,
            )
        )
        local = cloud.points[idx] - inst.centroid
        try:
            fields[inst.id] = fit_gsf(
                local,
                cloud.logits[idx],
                cloud.labels[idx],
                hyper,
                config.gsf.budget,
                seed=[config.pipeline.seed, inst.id],
            )
        except FitError as e:
            warnings.warn(f"field fit failed for instance {inst.id}: {e}")
            fields[inst.id] = None
    return SceneGraph(cloud, instances, fields)


def save_scene_graph(graph: SceneGraph, json_path, buffers_path) -> None:
    doc = {
        "format": GRAPH_FORMAT,
        "version": GRAPH_VERSION,
        "buffers": Path(buffers_path).name,
        "instances": [
            {
                "id": inst.id,
                "label": int(inst.label),
                "centroid": [float(v) for v in inst.centroid],
                "has_field": graph.fields.get(inst.id) is not None,
                "jitter": (
                    graph.fields[inst.id].jitter
                    if graph.fields.get(inst.id) is not None
                    else None
                ),
            }
            for inst in graph.instances
        ],
    }
    Path(json_path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    arrays: dict[str, np.ndarray] = {
        "points": graph.cloud.points,
        "labels": graph.cloud.labels,
    }
    if graph.cloud.logits is not None:
        arrays["logits"] = graph.cloud.logits
    for inst in graph.instances:
        arrays[f"inst{inst.id}_indices"] = inst.point_indices
        fld = graph.fields.get(inst.id)
        if fld is not None:
            arrays[f"fld{inst.id}_X"] = fld.X
            arrays[f"fld{inst.id}_Y"] = fld.Y
            if fld.source_indices is not None:
                arrays[f"fld{inst.id}_src"] = fld.source_indices
    np.savez_compressed(buffers_path, **arrays)


def load_scene_graph(json_path, buffers_path, hyper: GpHyperParams) -> SceneGraph:
    """The graph saved by `save_scene_graph`, its fields refit with `hyper`."""
    try:
        doc = json.loads(Path(json_path).read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"scene graph file {json_path}: {e}") from e
    if doc.get("format") != GRAPH_FORMAT:
        raise FormatError(f"scene graph file {json_path}: unrecognized format field")
    if doc.get("version") != GRAPH_VERSION:
        raise FormatError(
            f"scene graph file {json_path}: unsupported version {doc.get('version')}"
        )
    buf = load_npz(buffers_path)
    cloud = SemanticPointCloud(
        buf["points"], buf["labels"], buf["logits"] if "logits" in buf else None
    )
    instances = []
    fields: dict[int, GaussianSemanticField | None] = {}
    for rec in doc["instances"]:
        iid = int(rec["id"])
        inst = Instance(
            iid,
            np.asarray(rec["centroid"], dtype=np.float64),
            int(rec["label"]),
            buf[f"inst{iid}_indices"],
        )
        instances.append(inst)
        if rec["has_field"]:
            X = buf[f"fld{iid}_X"]
            Y = buf[f"fld{iid}_Y"]
            src = buf[f"fld{iid}_src"] if f"fld{iid}_src" in buf else None
            fields[iid] = fit_exact(X, Y, hyper, src)
        else:
            fields[iid] = None
    return SceneGraph(cloud, instances, fields)

