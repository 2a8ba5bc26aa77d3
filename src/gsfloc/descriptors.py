"""Triangle descriptors over scene-graph instances and their KD-tree index.

`triangulate` gives a scan's or a map's descriptors as one `TriangleTable`,
row i descriptor i: vertex ids (n, 3), ordered so that the sides (n, 3)
ascend as (d12, d23, d31), and vertex labels (n, 3) in the same order;
`triangle_table` stacks one `TriangleDescriptor` or a list of them. The
index holds the map's table, a KD-tree over its sides, each row's label
code (its sorted labels packed into one int64) and a mask (n, 6) of the
vertex orders in `ORDERS` whose sides still ascend. A query returns every
stored row within delta_d per side (a Chebyshev ball, boundary included)
whose label multiset matches: one descriptor's candidate ids, or, from one
query between a tree over its sides and the index's, a table's (query row,
candidate id) array, which `gsf_filter` scores into one `TriangleMatches`
record. `build_index`, the index's one constructor, refuses a label outside
[0, 2**LABEL_BITS), the range of a label code, and a side that is not finite.

A map archive keeps only the index's vertex ids (`save_index`); `load_index`
derives each row's labels and sides from the instance table, the sides by
`triangle_sides`, the rule `triangulate` gathers them by, so they are the
built index's bit for bit.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist, squareform

from .core import ValidationError, check_finite, describe_array
from .gsf import GpPopulation
from .wasserstein import (SimilarityConfig, covariance_roots, similarity_weight, w2_lower_bound,
                          w2_squared)

DEGENERACY_SLACK = 1e-6
EQUAL_SIDE_TOL = 1e-9


@dataclass
class TriangleDescriptor:
    id: int
    vertex_ids: tuple[int, int, int]  # ordered so d(v1,v2) <= d(v2,v3) <= d(v3,v1)
    sides: tuple[float, float, float]  # (d12, d23, d31), ascending
    labels: tuple[int, int, int]  # per vertex, same order


@dataclass(frozen=True, eq=False)
class TriangleTable:
    """Triangle descriptors as arrays, row i descriptor i; columns as in `TriangleDescriptor`."""

    vertex_ids: np.ndarray  # (n, 3) int64
    labels: np.ndarray  # (n, 3) int64
    sides: np.ndarray  # (n, 3) float64

    def __len__(self) -> int:
        return len(self.sides)


def triangle_table(descs) -> TriangleTable:
    """A table as it is; one descriptor, or a sequence of them, stacked into one."""
    if isinstance(descs, TriangleTable):
        return descs
    stack = [descs] if isinstance(descs, TriangleDescriptor) else descs
    return TriangleTable(np.array([d.vertex_ids for d in stack], dtype=np.int64).reshape(-1, 3),
                         np.array([d.labels for d in stack], dtype=np.int64).reshape(-1, 3),
                         np.array([d.sides for d in stack], dtype=np.float64).reshape(-1, 3))


# the six vertex orders of a triangle, lexicographic, and each vertex's successor
ORDERS = np.array(list(itertools.permutations(range(3))))
_NEXT = np.roll(ORDERS, -1, axis=1)


def _ascending(sides: np.ndarray) -> np.ndarray:
    """Whether (d12, d23, d31) on the last axis ascends within EQUAL_SIDE_TOL."""
    return (sides[..., 0] <= sides[..., 1] + EQUAL_SIDE_TOL) & (
        sides[..., 1] <= sides[..., 2] + EQUAL_SIDE_TOL)


def triangle_sides(dist: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """(d12, d23, d31) on the last axis of each vertex order `verts` (..., 3),
    gathered from the instances' distance matrix `dist`."""
    return dist[verts, verts[..., [1, 2, 0]]]


def triangulate(graph, k_neighbors: int) -> TriangleTable:
    """All C(K,2) triangles per anchor with its K nearest instances, deduplicated,
    over a scene graph's centroid and label rows, as one table.

    Neighbours tie by instance id; rows follow first sight over the anchors in
    id order. Each triangle takes the lexicographically smallest id order with
    sorted sides; collinear or coincident triangles are dropped.
    """
    if k_neighbors < 2:
        raise ValidationError(f"neighbor count must be >= 2, got {k_neighbors}")
    n = len(graph)
    if n < 3:
        warnings.warn(f"triangulation needs >= 3 instances, got {n}")
        return triangle_table([])
    dist = squareform(pdist(graph.centroids))

    away = dist.copy()
    np.fill_diagonal(away, np.inf)  # the anchor sorts last among its own row
    k = min(k_neighbors, n - 1)
    nearest = np.argsort(away, axis=1, kind="stable")[:, :k]
    b, c = np.triu_indices(k, 1)  # itertools.combinations order
    tris = np.column_stack([np.repeat(np.arange(n), b.size), nearest[:, b].ravel(),
                            nearest[:, c].ravel()])
    tris = np.sort(tris, axis=1)
    # one int64 per sorted row, ordered as the rows are (ids < n, n**3 < 2**63)
    _, first = np.unique((tris[:, 0] * n + tris[:, 1]) * n + tris[:, 2], return_index=True)
    tris = tris[np.sort(first)]

    verts = tris[:, ORDERS]  # (m, 6, 3): every vertex order of every triangle
    sides = triangle_sides(dist, verts)
    fits = _ascending(sides)
    pick = np.argmax(fits, axis=1)
    rows = np.arange(len(tris))
    verts, sides = verts[rows, pick], sides[rows, pick]
    # reject collinear: the longest side within slack of the other two's sum
    keep = fits[rows, pick] & (sides[:, 0] + sides[:, 1] - sides[:, 2] > DEGENERACY_SLACK)
    return TriangleTable(verts[keep], graph.labels[verts[keep]], sides[keep])


@dataclass
class DescriptorIndex:
    delta_d: float
    table: TriangleTable  # the map's descriptors, row i = descriptor i
    tree: cKDTree  # over the table's sides
    label_codes: np.ndarray  # (n,) int64, per descriptor `label_codes` of its labels
    order_mask: np.ndarray  # (n, 6) bool, the rows of ORDERS whose sides ascend


# _SIDE[i, j]: the position in (d12, d23, d31) of the side between vertices i and j
_SIDE = np.array([[0, 0, 2], [0, 0, 1], [2, 1, 0]])
# bits per label in a label code
LABEL_BITS = 21


def label_codes(labels) -> np.ndarray:
    """One int64 per row of an (n, 3) label array: its labels sorted and packed
    LABEL_BITS apart, so two rows share a code exactly when their label
    multisets are equal. A row with a label outside [0, 2**LABEL_BITS) gets -1."""
    lab = np.sort(np.asarray(labels, dtype=np.int64).reshape(-1, 3), axis=1)
    codes = (lab[:, 0] << 2 * LABEL_BITS) | (lab[:, 1] << LABEL_BITS) | lab[:, 2]
    return np.where(((lab >= 0) & (lab < 1 << LABEL_BITS)).all(axis=1), codes, -1)


def build_index(descriptors, delta_d: float) -> DescriptorIndex:
    """KD-tree over the sides of a triangle table (or of descriptors, stacked by
    `triangle_table`), plus what `query_index` and `gsf_filter` read per row:
    its label code and every vertex order whose sides still ascend
    (lexicographic, so a tie keeps the first)."""
    if not (np.isfinite(delta_d) and delta_d > 0):
        raise ValidationError(f"delta_d must be a positive finite number, got {delta_d}")
    table = triangle_table(descriptors)
    codes = label_codes(table.labels)
    if (codes < 0).any():
        bad = int(np.argmax(codes < 0))
        raise ValidationError(f"descriptor {bad}: labels {tuple(table.labels[bad].tolist())} "
                              f"must lie in [0, {1 << LABEL_BITS})")
    check_finite(table.sides, "descriptor {row}: sides {values} must be finite")
    return DescriptorIndex(delta_d, table, cKDTree(table.sides), codes,
                           _ascending(table.sides[:, _SIDE[ORDERS, _NEXT]]))


def query_index(index: DescriptorIndex, descs):
    """Coarse candidates: the stored descriptors whose sides match within
    delta_d per side (inclusive) and whose label multiset equals the query's.

    One descriptor gives its candidate ids, ascending. A table or a sequence
    gives, from one query of a tree over its sides against the index's, an
    (n_cand, 2) int64 array of (row, candidate id), sorted by row, then id.
    """
    table = triangle_table(descs)
    near = cKDTree(table.sides).sparse_distance_matrix(index.tree, index.delta_d, p=np.inf,
                                                      output_type="ndarray")
    rows, ids = near["i"], near["j"]
    order = np.argsort(rows * len(index.table) + ids)
    rows, ids = rows[order], ids[order]
    keep = index.label_codes[ids] == label_codes(table.labels)[rows]
    cand = np.column_stack([rows[keep], ids[keep]])
    return cand[:, 1].tolist() if isinstance(descs, TriangleDescriptor) else cand


def save_index(index: DescriptorIndex) -> dict[str, np.ndarray]:
    """The index's part of a map archive: its (n, 3) vertex ids, row i descriptor i."""
    return {"vertex_ids": index.table.vertex_ids}


def load_index(vertex_ids: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
               delta_d: float) -> DescriptorIndex:
    """The index over the stored triangle rows `vertex_ids`, in the vertex order
    `triangulate` gave them, of the instances with `centroids` (K, 3) and
    `labels` (K,): each row's labels are `labels[vertex_ids]`, and its sides
    are gathered from the centroids' distances by `triangle_sides`. Vertex ids
    that are not an (n, 3) integer array in [0, K) are a ValidationError
    naming them."""
    k = len(centroids)
    if not (vertex_ids.ndim == 2 and vertex_ids.shape[1] == 3 and vertex_ids.dtype.kind in "iu"
            and np.all((vertex_ids >= 0) & (vertex_ids < k))):
        raise ValidationError(f"vertex_ids must be an (n, 3) integer array in [0, {k}); "
                              f"{describe_array(vertex_ids, 'vertex_ids')}")
    verts = vertex_ids.astype(np.int64)
    sides = triangle_sides(squareform(pdist(centroids)), verts)
    return build_index(TriangleTable(verts, labels[verts], sides), delta_d)


# ---------------------------------------------------------------------------
# GSF fine filtering
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TriangleMatches:
    """Triangle matches as arrays, one row per match: its row in the query's
    triangle table, its candidate (map descriptor) id, the three (query
    instance, map instance) vertex pairs, their confidence weights and the
    summed W2^2 of its vertex order."""

    rows: np.ndarray  # (n,) int64
    candidate_ids: np.ndarray  # (n,) int64
    pairs: np.ndarray  # (n, 3, 2) int64
    omegas: np.ndarray  # (n, 3) float64
    totals: np.ndarray  # (n,) float64

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def empty(cls) -> "TriangleMatches":
        ids = np.zeros(0, dtype=np.int64)
        return cls(ids, ids, np.zeros((0, 3, 2), dtype=np.int64), np.zeros((0, 3)),
                   np.zeros(0))


# bytes of one chunk's (pairs x yaws x G x G) covariance stack in `pair_w2`;
# the batched product and its temporaries take a few times this at peak
W2_CHUNK_BYTES = 2 << 20


def pair_w2(
    qids: np.ndarray,
    mids: np.ndarray,
    pops_query: GpPopulation,
    pops_map: GpPopulation,
    use_stability: bool,
) -> np.ndarray:
    """Min-over-yaw squared W2 between query and map instance populations.

    `pops_query` and `pops_map` are tables, row i instance i's, each query row
    a stack over the yaw samples; two equal-length id arrays give one value
    per (qids[p], mids[p]) pair. The pairs are scored in chunks whose
    (pairs x yaws x G x G) covariance stack stays under W2_CHUNK_BYTES. Per
    chunk, the query and map rows it names are gathered once, the map rows
    are masked and rooted once (`covariance_roots`, one batched `eigh`), and
    `w2_lower_bound` bounds every (pair, yaw) member; then two `w2_squared`
    calls, both given those roots, score only the members that can be a
    pair's minimum:

    1. each pair's lowest-bound yaw, gathered first so that only those
       members are masked;
    2. every other member whose bound does not exceed its pair's value from
       pass 1, against only the map rows these members touch and their roots.

    Each pair takes the smaller of the two. The bound already has a rounding
    slack taken off, so a skipped member's computed W2^2 exceeds a scored
    one's: every value is the one a full min over yaws gives, bit for bit.
    When nothing is skipped, pass 2 scores all but one yaw per pair.
    """
    qids, mids = np.asarray(qids, dtype=np.int64), np.asarray(mids, dtype=np.int64)
    out = np.empty(qids.size)
    if qids.size:
        step = max(1, W2_CHUNK_BYTES // pops_query.Sigma[0].nbytes)
        for lo in range(0, qids.size, step):
            uq, ia = np.unique(qids[lo:lo + step], return_inverse=True)
            um, ib = np.unique(mids[lo:lo + step], return_inverse=True)
            pop_q, pop_m = pops_query[uq], pops_map[um]
            roots = covariance_roots(pop_m, use_stability)
            bound = w2_lower_bound(pop_q, pop_m, use_stability, (ia, ib))
            rows = np.arange(ia.size)
            yaw = np.argmin(bound, axis=1)
            best = w2_squared(pop_q[ia, yaw], pop_m, use_stability, (rows, ib), roots)
            todo = ~(bound > best[:, None])  # a NaN bound or value is scored
            todo[rows, yaw] = False
            p, y = np.nonzero(todo)
            if p.size:
                touched, jb = np.unique(ib[p], return_inverse=True)
                more = w2_squared(pop_q[ia[p], y], pop_m[touched], use_stability,
                                  (np.arange(p.size), jb), roots[touched])
                np.minimum.at(best, p, more)
            out[lo:lo + step] = best
    return out


def gsf_filter(
    table: TriangleTable,
    candidate_ids: np.ndarray,
    index: DescriptorIndex,
    w2: np.ndarray,
    cfg: SimilarityConfig,
) -> TriangleMatches:
    """Score coarse candidates by summed per-vertex W2^2 and keep the survivors.

    `candidate_ids` holds `query_index`'s (query row, candidate id) rows over
    `table`. `w2[qid, mid]` is `pair_w2` of query instance qid and map instance
    mid, for every pair a candidate makes under its stored vertex orders. Each
    candidate takes its lowest-sum order (the first on a tie); those above 3x
    the acceptance threshold are dropped; survivors come back by query row,
    then ascending by score, then by candidate id.
    """
    rows, cids = candidate_ids[:, 0], candidate_ids[:, 1]
    qv = table.vertex_ids[rows]  # (k, 3)
    mv = index.table.vertex_ids[cids][:, ORDERS]  # (k, 6, 3): every order's map vertices
    scores = w2[qv[:, None, :], mv]  # (k, 6, 3)
    totals = scores[..., 0] + scores[..., 1] + scores[..., 2]
    totals[~index.order_mask[cids]] = np.inf
    pick = np.argmin(totals, axis=1)
    best = totals[np.arange(len(cids)), pick]
    keep = np.flatnonzero(best <= 3.0 * cfg.accept_threshold)
    keep = keep[np.lexsort((cids[keep], best[keep], rows[keep]))]
    pick = pick[keep]
    return TriangleMatches(rows[keep], cids[keep], np.stack([qv[keep], mv[keep, pick]], axis=-1),
                           similarity_weight(scores[keep, pick], cfg), best[keep])


def plain_matches(
    table: TriangleTable, candidate_ids: np.ndarray, index: DescriptorIndex
) -> TriangleMatches:
    """GSF-disabled counterpart: canonical pairing, unit confidence, in
    `candidate_ids` order."""
    rows, cids = candidate_ids[:, 0], candidate_ids[:, 1]
    pairs = np.stack([table.vertex_ids[rows], index.table.vertex_ids[cids]], axis=-1)
    return TriangleMatches(rows, cids, pairs, np.ones((len(rows), 3)), np.zeros(len(rows)))
