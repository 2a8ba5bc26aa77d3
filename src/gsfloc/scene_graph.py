"""Scene graph construction: an object layer and a field layer.

Object layer (`build_scene_graph`): per-class single-linkage Euclidean
clustering of instantiable points (connected components of the
distance-threshold graph), held as one instance table: (K, 3) centroids, (K,)
labels and K member index arrays, row i instance i. Field layer
(`fit_fields`), read only by GSF-filtered matching: one Gaussian semantic
field per instance, fit on the radius-r neighborhood (all classes) in local
coordinates centered at the instance centroid, one at a time, so a caller can
probe each and drop it before the next is fitted. Each neighborhood is one
row of squared distances from the centroid to the cloud, sparsified from its
labels before any coordinate or logit of it is gathered. The graph keeps no
copy of the cloud it was built from. Every setting comes from the run's
`RunConfig`: the `cluster` section, the GP settings of `gsf` and
`pipeline.seed`.

Serialization: the instance table's centroids and labels, the part of the
object layer a map archive needs, as two whole arrays, row i instance i.
Members and fields are not stored; a map archive keeps the fields' probed
populations instead.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .config import ClusterSection, RunConfig
from .core import LabelTaxonomy, SemanticPointCloud, ValidationError, describe_array
from .gsf import FitError, GaussianSemanticField, GpHyperParams, fit_gsf, semantic_sparsify

# k-d trees built once and queried once: the median splits of a balanced tree
# and the shrunk node boxes of a compact one cost more to build than they save
_TREE = {"balanced_tree": False, "compact_nodes": False}


@dataclass
class SceneGraph:
    """The object layer as one instance table: row i is instance i."""

    centroids: np.ndarray  # (K, 3) mean of each instance's member points
    labels: np.ndarray  # (K,) int64 class id of each instance
    members: list[np.ndarray]  # K ascending index arrays into the source cloud

    def __len__(self) -> int:
        return len(self.labels)


def check_thresholds(cluster: ClusterSection, taxonomy: LabelTaxonomy) -> None:
    """A ValidationError if `cluster.thresholds` names a class the taxonomy lacks."""
    unknown = sorted(set(cluster.thresholds) - {taxonomy.name(c) for c in taxonomy.ids()})
    if unknown:
        raise ValidationError(f"cluster threshold for unknown class {unknown[0]!r}")


def cluster_instances(
    cloud: SemanticPointCloud, taxonomy: LabelTaxonomy, cluster: ClusterSection
) -> SceneGraph:
    """Connected components of instantiable points under the per-class
    distance-threshold relation (`cluster.thresholds` by class name, else
    `cluster.default_threshold`); components below min_cluster_size dropped.

    Output is deterministic: instances sorted by label id, then centroid
    lexicographically, instance i in row i.
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
        return SceneGraph(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), [])
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
    kept = [by_comp[lo:hi] for lo, hi in zip((ends - sizes)[big].tolist(), ends[big].tolist())]
    centroids = np.array([cloud.points[idx].mean(axis=0) for idx in kept]).reshape(-1, 3)
    labels = cloud.labels[[idx[0] for idx in kept]].astype(np.int64)
    order = np.lexsort((*centroids.T[::-1], labels))  # label, then x, y, z
    return SceneGraph(centroids[order], labels[order], [kept[i] for i in order.tolist()])


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
    return cluster_instances(cloud, taxonomy, config.cluster)


def fit_fields(
    graph: SceneGraph, cloud: SemanticPointCloud, config: RunConfig
) -> Iterator[tuple[int, GaussianSemanticField | None]]:
    """The field layer: (instance id, field) for each instance of `graph`, in
    order, each fitted only when it is asked for.

    A field is fit on the points of `cloud`, the graph's own cloud, within
    `config.cluster.neighborhood_radius` of the instance's centroid, with the
    GP settings of `config.gsf`. Each neighborhood comes from one row of
    squared distances to the cloud, and is sparsified by `semantic_sparsify`,
    seeded by `config.pipeline.seed` and the instance id, from its labels alone:
    only the kept points are gathered, and `fit_gsf` fits them as they are. A
    fit failure is reported as a warning and gives None: the instance is
    skipped by GSF-based filtering downstream.
    """
    hyper = GpHyperParams(config.gsf.kappa, config.gsf.sigma_y)
    r2 = config.cluster.neighborhood_radius ** 2
    for iid, centroid in enumerate(graph.centroids):
        seed = [config.pipeline.seed, iid]
        hood = np.flatnonzero(cdist(centroid[None], cloud.points, "sqeuclidean")[0] <= r2)
        try:
            if hood.size:  # an empty neighborhood is fit_gsf's to refuse
                hood = hood[semantic_sparsify(cloud.labels[hood], config.gsf.budget, seed)]
                if not hood.size:
                    raise FitError("sparsification kept 0 points (budget too small for class mix)")
            # the kept points, which may exceed the budget by rounding, are their
            # own budget: fit_gsf draws no more
            field = fit_gsf(cloud.points[hood] - centroid, cloud.logits[hood],
                            cloud.labels[hood], hyper, hood.size, seed=seed)
        except FitError as e:
            warnings.warn(f"field fit failed for instance {iid}: {e}")
            field = None
        yield iid, field


def save_scene_graph(centroids: np.ndarray, labels: np.ndarray) -> dict[str, np.ndarray]:
    """The instance table's part of a map archive: centroids (K, 3) and labels (K,)."""
    return {"centroids": centroids, "labels": labels}


def load_scene_graph(centroids: np.ndarray, labels: np.ndarray,
                     num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """The instance table `save_scene_graph` stored, as float64 centroids and
    int64 labels. Centroids that are not (K, 3) floats, or labels that are not
    one (K,) row of integers in [0, num_classes), are a ValidationError
    naming the array."""
    if not (centroids.ndim == 2 and centroids.shape[1] == 3 and centroids.dtype.kind == "f"):
        raise ValidationError(f"centroids must be (K, 3) floats; "
                              f"{describe_array(centroids, 'centroids')}")
    k = len(centroids)
    if not (labels.shape == (k,) and labels.dtype.kind in "iu"
            and np.all((labels >= 0) & (labels < num_classes))):
        raise ValidationError(f"labels must be one ({k},) row of integers in [0, {num_classes}); "
                              f"{describe_array(labels, 'labels')}")
    return centroids.astype(np.float64), labels.astype(np.int64)
