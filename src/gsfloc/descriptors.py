"""Triangle descriptors over scene-graph instances and their KD-tree index.

Descriptors carry sorted side lengths (d12 <= d23 <= d31), vertex labels, and
vertex ids permuted to match the sorted sides. The index is a KD-tree over the
side triples; a query returns every stored triangle within delta_d per side
(a Chebyshev ball, boundary included) whose label multiset matches.

Index binary layout (little-endian), magic "GSFI":
    4s  magic        b"GSFI"
    u32 version      1
    f64 delta_d
    u32 count
    per descriptor (48 bytes):
        3*u32 vertex ids, 3*u32 vertex labels, 3*f64 sides
Descriptor ids are implicit (0..count-1, file order).
"""

from __future__ import annotations

import itertools
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .core import FormatError, ValidationError
from .gsf import GpPopulation
from .wasserstein import SimilarityConfig, similarity_weight, w2_squared

INDEX_MAGIC = b"GSFI"
INDEX_VERSION = 1
DEGENERACY_SLACK = 1e-6
EQUAL_SIDE_TOL = 1e-9


@dataclass
class TriangleDescriptor:
    id: int
    vertex_ids: tuple[int, int, int]  # ordered so d(v1,v2) <= d(v2,v3) <= d(v3,v1)
    sides: tuple[float, float, float]  # (d12, d23, d31), ascending
    labels: tuple[int, int, int]  # per vertex, same order


# the six vertex orders of a triangle, lexicographic, and each vertex's successor
_ORDERS = np.array(list(itertools.permutations(range(3))))
_NEXT = np.roll(_ORDERS, -1, axis=1)


def _ascending(sides: np.ndarray) -> np.ndarray:
    """Whether (d12, d23, d31) on the last axis ascends within EQUAL_SIDE_TOL."""
    return (sides[..., 0] <= sides[..., 1] + EQUAL_SIDE_TOL) & (
        sides[..., 1] <= sides[..., 2] + EQUAL_SIDE_TOL)


def triangulate(graph, k_neighbors: int) -> list[TriangleDescriptor]:
    """All C(K,2) triangles per anchor with its K nearest instances, deduplicated.

    Neighbours tie by instance id; descriptor ids follow first sight over the
    anchors in id order. Each triangle takes the lexicographically smallest
    id order with sorted sides; collinear or coincident triangles are dropped.
    """
    if k_neighbors < 2:
        raise ValidationError(f"neighbor count must be >= 2, got {k_neighbors}")
    insts = graph.instances
    n = len(insts)
    if n < 3:
        warnings.warn(f"triangulation needs >= 3 instances, got {n}")
        return []
    if any(inst.id != i for i, inst in enumerate(insts)):
        raise ValidationError("instance ids must be 0..K-1 in list order")
    cents = np.stack([np.asarray(inst.centroid, dtype=np.float64) for inst in insts])
    labels = np.array([inst.label for inst in insts])
    dist = np.linalg.norm(cents[:, None, :] - cents[None, :, :], axis=-1)

    away = dist.copy()
    np.fill_diagonal(away, np.inf)  # the anchor sorts last among its own row
    k = min(k_neighbors, n - 1)
    nearest = np.argsort(away, axis=1, kind="stable")[:, :k]
    b, c = np.triu_indices(k, 1)  # itertools.combinations order
    tris = np.column_stack([np.repeat(np.arange(n), b.size), nearest[:, b].ravel(),
                            nearest[:, c].ravel()])
    tris = np.sort(tris, axis=1)
    _, first = np.unique(tris, axis=0, return_index=True)
    tris = tris[np.sort(first)]

    verts = tris[:, _ORDERS]  # (m, 6, 3): every vertex order of every triangle
    sides = dist[verts, tris[:, _NEXT]]  # (d12, d23, d31) per order
    fits = _ascending(sides)
    pick = np.argmax(fits, axis=1)
    rows = np.arange(len(tris))
    verts, sides = verts[rows, pick], sides[rows, pick]
    # reject collinear: the longest side within slack of the other two's sum
    keep = fits[rows, pick] & (sides[:, 0] + sides[:, 1] - sides[:, 2] > DEGENERACY_SLACK)
    return [
        TriangleDescriptor(i, tuple(v), tuple(s), tuple(lab))
        for i, (v, s, lab) in enumerate(zip(
            verts[keep].tolist(), sides[keep].tolist(), labels[verts[keep]].tolist()))
    ]


@dataclass
class DescriptorIndex:
    descriptors: list[TriangleDescriptor]
    delta_d: float
    tree: cKDTree  # over the (n, 3) side triples, row i = descriptor i
    orders: list[tuple]  # per descriptor, its vertex orders whose sides ascend
    label_keys: list[tuple]  # per descriptor, its labels sorted


# _SIDE[i, j]: the position in (d12, d23, d31) of the side between vertices i and j
_SIDE = np.array([[0, 0, 2], [0, 0, 1], [2, 1, 0]])


def build_index(descriptors: list[TriangleDescriptor], delta_d: float) -> DescriptorIndex:
    """KD-tree over the side triples, plus what `gsf_filter` and `query_index`
    read per descriptor: every vertex order whose sides still ascend
    (lexicographic, so a tie keeps the first) and the sorted label key."""
    if not (np.isfinite(delta_d) and delta_d > 0):
        raise ValidationError(f"delta_d must be a positive finite number, got {delta_d}")
    sides = np.array([d.sides for d in descriptors], dtype=np.float64).reshape(-1, 3)
    fits = _ascending(sides[:, _SIDE[_ORDERS, _NEXT]])  # (n, 6)
    codes = fits @ (1 << np.arange(6))  # one code per set of fitting orders
    _, first, which = np.unique(codes, return_index=True, return_inverse=True)
    choices = [tuple(map(tuple, _ORDERS[fits[i]].tolist())) for i in first]
    orders = [choices[i] for i in which.tolist()]
    label_keys = [tuple(sorted(d.labels)) for d in descriptors]
    return DescriptorIndex(list(descriptors), delta_d, cKDTree(sides), orders, label_keys)


def query_index(index: DescriptorIndex, d: TriangleDescriptor) -> list[int]:
    """Candidate ids, ascending, whose sides match within delta_d per side
    (inclusive) and whose label multiset equals the query's."""
    near = index.tree.query_ball_point(d.sides, index.delta_d, p=np.inf, return_sorted=True)
    want = tuple(sorted(d.labels))
    return [cid for cid in near if index.label_keys[cid] == want]


def save_index(index: DescriptorIndex, path) -> None:
    parts = [
        struct.pack(
            "<4sIdI", INDEX_MAGIC, INDEX_VERSION, index.delta_d, len(index.descriptors)
        )
    ]
    for d in index.descriptors:
        parts.append(struct.pack("<3I3I3d", *d.vertex_ids, *d.labels, *d.sides))
    Path(path).write_bytes(b"".join(parts))


def load_index(path) -> DescriptorIndex:
    raw = Path(path).read_bytes()
    head = struct.calcsize("<4sIdI")
    if len(raw) < head:
        raise FormatError(f"index file {path}: expected at least {head} bytes, got {len(raw)}")
    magic, version, delta_d, count = struct.unpack("<4sIdI", raw[:head])
    if magic != INDEX_MAGIC:
        raise FormatError(f"index file {path}: bad magic {magic!r}")
    if version != INDEX_VERSION:
        raise FormatError(f"index file {path}: unsupported version {version}")
    rec = struct.calcsize("<3I3I3d")
    expected = head + count * rec
    if len(raw) != expected:
        raise FormatError(
            f"index file {path}: expected {expected} bytes for {count} entries, got {len(raw)}"
        )
    descs = []
    for i in range(count):
        vals = struct.unpack_from("<3I3I3d", raw, head + i * rec)
        descs.append(TriangleDescriptor(i, tuple(vals[0:3]), tuple(vals[6:9]), tuple(vals[3:6])))
    return build_index(descs, delta_d)


# ---------------------------------------------------------------------------
# GSF fine filtering
# ---------------------------------------------------------------------------


@dataclass
class TriangleMatch:
    query: TriangleDescriptor
    map: TriangleDescriptor
    pairs: tuple  # three (query instance id, map instance id) pairs
    omegas: tuple  # per-pair confidence weights
    w2_total: float


def pair_w2(
    qid: int,
    mid: int,
    pops_query: dict[int, GpPopulation],
    pops_map: dict[int, GpPopulation],
    use_stability: bool,
) -> float:
    """Min-over-yaw squared W2 between a query and a map instance population.

    `pops_query` holds each query instance's stacked population over the yaw
    samples; it goes to `w2_squared` as is, so every yaw is scored in one
    batched call.
    """
    return float(w2_squared(pops_query[qid], pops_map[mid], use_stability).min())


def gsf_filter(
    query_d: TriangleDescriptor,
    candidate_ids: list[int],
    index: DescriptorIndex,
    w2: dict[tuple[int, int], float],
    cfg: SimilarityConfig,
) -> list[TriangleMatch]:
    """Score coarse candidates by summed per-vertex W2^2 and keep the survivors.

    `w2` maps (query instance id, map instance id) to `pair_w2` and holds every
    pair a candidate makes under its stored vertex orders. Each candidate takes
    its lowest-sum order (the first on a tie); those above 3x the acceptance
    threshold are dropped; survivors come back ascending by score (ties by
    candidate id).
    """
    out = []
    for cid in candidate_ids:
        cand = index.descriptors[cid]
        scored = []
        for perm in index.orders[cid]:
            pairs = tuple(zip(query_d.vertex_ids, [cand.vertex_ids[k] for k in perm]))
            scores = tuple(map(w2.__getitem__, pairs))
            scored.append((sum(scores), pairs, scores))
        total, pairs, scores = min(scored, key=lambda s: s[0])
        if total > 3.0 * cfg.accept_threshold:
            continue
        omegas = tuple(similarity_weight(s, cfg) for s in scores)
        out.append(TriangleMatch(query_d, cand, pairs, omegas, total))
    out.sort(key=lambda m: (m.w2_total, m.map.id))
    return out


def plain_matches(
    query_d: TriangleDescriptor, candidate_ids: list[int], index: DescriptorIndex
) -> list[TriangleMatch]:
    """GSF-disabled counterpart: canonical pairing, unit confidence."""
    out = []
    for cid in candidate_ids:
        cand = index.descriptors[cid]
        pairs = tuple(zip(query_d.vertex_ids, cand.vertex_ids))
        out.append(TriangleMatch(query_d, cand, pairs, (1.0, 1.0, 1.0), 0.0))
    return out
