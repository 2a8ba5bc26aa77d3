"""Tri-layer scene graph construction.

Object layer: per-class single-linkage Euclidean clustering of instantiable
points (connected components of the distance-threshold graph). Field layer: one Gaussian semantic field per instance, fit on the
radius-r neighborhood (all classes) in local coordinates centered at the
instance centroid. Point layer: the source cloud itself.

Serialization: a versioned JSON document (ids, labels, centroids, config)
plus an .npz sidecar holding the cloud buffers, member indices, and per-field
GP training buffers; factorizations are rebuilt on load.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .core import FormatError, LabelTaxonomy, SemanticPointCloud, ValidationError
from .gsf import FitError, GaussianSemanticField, GpHyperParams, fit_exact, fit_gsf

GRAPH_FORMAT = "gsfloc-scene-graph"
GRAPH_VERSION = 1


@dataclass
class ClusterParams:
    thresholds: dict[int, float] = dc_field(default_factory=dict)  # class id -> meters
    default_threshold: float = 1.0
    min_cluster_size: int = 10

    def threshold_for(self, class_id: int) -> float:
        return self.thresholds.get(class_id, self.default_threshold)


@dataclass
class GraphBuildConfig:
    cluster: ClusterParams = dc_field(default_factory=ClusterParams)
    neighborhood_radius: float = 10.0
    hyper: GpHyperParams = dc_field(default_factory=GpHyperParams)
    budget: int = 256
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "cluster": {
                "thresholds": {str(k): v for k, v in self.cluster.thresholds.items()},
                "default_threshold": self.cluster.default_threshold,
                "min_cluster_size": self.cluster.min_cluster_size,
            },
            "neighborhood_radius": self.neighborhood_radius,
            "hyper": {"kappa": self.hyper.kappa, "sigma_y": self.hyper.sigma_y},
            "budget": self.budget,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GraphBuildConfig":
        c = d["cluster"]
        return cls(
            cluster=ClusterParams(
                thresholds={int(k): float(v) for k, v in c["thresholds"].items()},
                default_threshold=float(c["default_threshold"]),
                min_cluster_size=int(c["min_cluster_size"]),
            ),
            neighborhood_radius=float(d["neighborhood_radius"]),
            hyper=GpHyperParams(float(d["hyper"]["kappa"]), float(d["hyper"]["sigma_y"])),
            budget=int(d["budget"]),
            seed=int(d["seed"]),
        )


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
    config: GraphBuildConfig

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    def centroids(self) -> np.ndarray:
        if not self.instances:
            return np.zeros((0, 3))
        return np.stack([inst.centroid for inst in self.instances])


def cluster_instances(
    cloud: SemanticPointCloud, taxonomy: LabelTaxonomy, params: ClusterParams
) -> list[Instance]:
    """Connected components of instantiable points under the per-class
    distance-threshold relation; components below min_cluster_size dropped.

    Output is deterministic: instances sorted by label id, then centroid
    lexicographically, with dense ids 0..K-1.
    """
    raw: list[tuple[int, np.ndarray]] = []  # (label, member indices)
    for cid in taxonomy.instantiable_ids():
        mask = np.nonzero(cloud.labels == cid)[0]
        if mask.size == 0:
            continue
        pairs = cKDTree(cloud.points[mask]).query_pairs(
            params.threshold_for(cid), output_type="ndarray"
        )
        links = coo_matrix(
            (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(mask.size, mask.size)
        )
        # components are numbered in order of their lowest member
        _, comp = connected_components(links, directed=False)
        sizes = np.bincount(comp)
        members = np.split(np.argsort(comp, kind="stable"), np.cumsum(sizes)[:-1])
        for size, idx in zip(sizes, members):
            if size >= params.min_cluster_size:
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
    config: GraphBuildConfig,
) -> SceneGraph:
    """Cluster instances and fit one field per instance on its neighborhood.

    Fit failures are reported as warnings; the instance is kept without a
    field and is skipped by GSF-based filtering downstream. Each fit is
    seeded by its instance id.
    """
    if cloud.logits is None:
        raise ValidationError("scene graph construction requires logits")
    instances = cluster_instances(cloud, taxonomy, config.cluster)
    fields: dict[int, GaussianSemanticField | None] = {}
    tree = cKDTree(cloud.points) if cloud.n else None
    for inst in instances:
        idx = np.sort(
            np.asarray(
                tree.query_ball_point(inst.centroid, config.neighborhood_radius),
                dtype=np.int64,
            )
        )
        local = cloud.points[idx] - inst.centroid
        try:
            fields[inst.id] = fit_gsf(
                local,
                cloud.logits[idx],
                cloud.labels[idx],
                config.hyper,
                config.budget,
                seed=[config.seed, inst.id],
            )
        except FitError as e:
            warnings.warn(f"field fit failed for instance {inst.id}: {e}")
            fields[inst.id] = None
    return SceneGraph(cloud, instances, fields, config)


def save_scene_graph(graph: SceneGraph, json_path, buffers_path) -> None:
    doc = {
        "format": GRAPH_FORMAT,
        "version": GRAPH_VERSION,
        "config": graph.config.to_dict(),
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


def load_scene_graph(json_path, buffers_path) -> SceneGraph:
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
    config = GraphBuildConfig.from_dict(doc["config"])
    with np.load(buffers_path) as buf:
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
                fields[iid] = fit_exact(X, Y, config.hyper, src)
            else:
                fields[iid] = None
    return SceneGraph(cloud, instances, fields, config)

