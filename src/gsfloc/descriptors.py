"""Triangle descriptors over scene-graph instances and their KD-tree index.

Descriptors carry sorted side lengths (d12 <= d23 <= d31), vertex labels, and
vertex ids permuted to match the sorted sides. The index is a KD-tree over the
side triples plus four arrays, one row per descriptor: its label code (its
sorted labels packed into one int64), its vertex ids and labels (n, 3) and a
mask (n, 6) of the vertex orders in `ORDERS` whose sides still ascend; it holds
no descriptor objects. A query returns
every stored triangle within delta_d per side (a Chebyshev ball, boundary
included) whose label multiset matches. `query_index` takes one descriptor
(its candidate ids) or a sequence of them: one tree query then answers all,
as an (n_cand, 2) array of (query row, candidate id). The match stage calls
it once per query, `pair_w2` once per query for every instance pair the
filter reads, and `gsf_filter` once per query on the candidate array;
`gsf_filter` hands its survivors on as one `TriangleMatches` array record.
An index refuses a label outside [0, 2**LABEL_BITS), the range a label code
holds, and a side that is not finite; `load_index` refuses such a file with a
FormatError naming it. A descriptor's id is its row; the file holds the rows
as one array of `INDEX_RECORD`s.

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
from .wasserstein import SimilarityConfig, similarity_weight, w2_lower_bound, w2_squared

INDEX_MAGIC = b"GSFI"
INDEX_VERSION = 1
INDEX_HEADER = struct.Struct("<4sIdI")  # magic, version, delta_d, count
INDEX_RECORD = np.dtype([("vertex_ids", "<u4", 3), ("labels", "<u4", 3), ("sides", "<f8", 3)])
DEGENERACY_SLACK = 1e-6
EQUAL_SIDE_TOL = 1e-9


@dataclass
class TriangleDescriptor:
    id: int
    vertex_ids: tuple[int, int, int]  # ordered so d(v1,v2) <= d(v2,v3) <= d(v3,v1)
    sides: tuple[float, float, float]  # (d12, d23, d31), ascending
    labels: tuple[int, int, int]  # per vertex, same order


# the six vertex orders of a triangle, lexicographic, and each vertex's successor
ORDERS = np.array(list(itertools.permutations(range(3))))
_NEXT = np.roll(ORDERS, -1, axis=1)


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

    verts = tris[:, ORDERS]  # (m, 6, 3): every vertex order of every triangle
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
    delta_d: float
    tree: cKDTree  # over the (n, 3) side triples, row i = descriptor i
    label_codes: np.ndarray  # (n,) int64, per descriptor `label_codes` of its labels
    vertex_ids: np.ndarray  # (n, 3) int64, per descriptor its vertex ids
    labels: np.ndarray  # (n, 3) int64, per descriptor its vertex labels, same order
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


def vertex_array(descs: list[TriangleDescriptor]) -> np.ndarray:
    """The (n, 3) int64 vertex ids of a descriptor list."""
    return np.array([d.vertex_ids for d in descs], dtype=np.int64).reshape(-1, 3)


def build_index(descriptors: list[TriangleDescriptor], delta_d: float) -> DescriptorIndex:
    """KD-tree over the side triples, plus what `query_index` and `gsf_filter`
    read per descriptor: its label code, its vertex ids and every vertex order
    whose sides still ascend (lexicographic, so a tie keeps the first)."""
    return _index_from_arrays(vertex_array(descriptors), [d.labels for d in descriptors],
                              [d.sides for d in descriptors], delta_d)


def _index_from_arrays(vertex_ids, labels, sides, delta_d) -> DescriptorIndex:
    """The index of per-descriptor (n, 3) vertex ids, labels and sides."""
    if not (np.isfinite(delta_d) and delta_d > 0):
        raise ValidationError(f"delta_d must be a positive finite number, got {delta_d}")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 3)
    codes = label_codes(labels)
    if (codes < 0).any():
        bad = int(np.argmax(codes < 0))
        raise ValidationError(f"descriptor {bad}: labels {tuple(labels[bad].tolist())} must "
                              f"lie in [0, {1 << LABEL_BITS})")
    sides = np.asarray(sides, dtype=np.float64).reshape(-1, 3)
    finite = np.isfinite(sides).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValidationError(f"descriptor {bad}: sides {tuple(sides[bad].tolist())} must be "
                              "finite")
    return DescriptorIndex(delta_d, cKDTree(sides), codes,
                           np.asarray(vertex_ids, dtype=np.int64).reshape(-1, 3), labels,
                           _ascending(sides[:, _SIDE[ORDERS, _NEXT]]))


def query_index(index: DescriptorIndex, descs):
    """Coarse candidates: the stored descriptors whose sides match within
    delta_d per side (inclusive) and whose label multiset equals the query's.

    One descriptor gives its candidate ids, ascending. A sequence gives, from
    one tree query, an (n_cand, 2) int64 array of (position in the sequence,
    candidate id), sorted by position, then id.
    """
    one = isinstance(descs, TriangleDescriptor)
    stack = [descs] if one else descs
    sides = np.array([d.sides for d in stack], dtype=np.float64).reshape(-1, 3)
    near = index.tree.query_ball_point(sides, index.delta_d, p=np.inf, return_sorted=True)
    sizes = np.fromiter(map(len, near), np.int64, len(stack))
    ids = np.fromiter(itertools.chain.from_iterable(near), np.int64, int(sizes.sum()))
    rows = np.repeat(np.arange(len(stack), dtype=np.int64), sizes)
    keep = index.label_codes[ids] == label_codes([d.labels for d in stack])[rows]
    cand = np.column_stack([rows[keep], ids[keep]])
    return cand[:, 1].tolist() if one else cand


def save_index(index: DescriptorIndex, path) -> None:
    rec = np.empty(len(index.vertex_ids), INDEX_RECORD)
    rec["vertex_ids"], rec["labels"], rec["sides"] = index.vertex_ids, index.labels, index.tree.data
    head = INDEX_HEADER.pack(INDEX_MAGIC, INDEX_VERSION, index.delta_d, len(rec))
    Path(path).write_bytes(head + rec.tobytes())


def load_index(path) -> DescriptorIndex:
    """The index `save_index` wrote. A file that is short, of another magic or
    version, or whose content `build_index` refuses (a delta_d that is not a
    positive finite number, a label outside the code range, a side that is not
    finite) is a FormatError naming the file."""
    raw, head = Path(path).read_bytes(), INDEX_HEADER.size
    if len(raw) < head:
        raise FormatError(f"index file {path}: expected at least {head} bytes, got {len(raw)}")
    magic, version, delta_d, count = INDEX_HEADER.unpack_from(raw)
    if magic != INDEX_MAGIC:
        raise FormatError(f"index file {path}: bad magic {magic!r}")
    if version != INDEX_VERSION:
        raise FormatError(f"index file {path}: unsupported version {version}")
    expected = head + count * INDEX_RECORD.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"index file {path}: expected {expected} bytes for {count} entries, got {len(raw)}"
        )
    rec = np.frombuffer(raw, INDEX_RECORD, count, head)
    try:
        return _index_from_arrays(rec["vertex_ids"], rec["labels"], rec["sides"], delta_d)
    except ValidationError as e:
        raise FormatError(f"index file {path}: {e}") from e


# ---------------------------------------------------------------------------
# GSF fine filtering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleMatches:
    """Triangle matches as arrays, one row per match: its query triangle's row
    (position in the query's descriptor list), its candidate (map descriptor)
    id, the three (query instance, map instance) vertex pairs, their
    confidence weights and the summed W2^2 of its vertex order."""

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
    chunk, the query and map rows it names are gathered once and
    `w2_lower_bound` bounds every (pair, yaw) member; then two `w2_squared`
    calls score only the members that can be a pair's minimum:

    1. each pair's lowest-bound yaw, gathered first so that only those
       members are masked;
    2. every other member whose bound does not exceed its pair's value from
       pass 1, against only the map rows these members touch.

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
            bound = w2_lower_bound(pop_q, pop_m, use_stability, (ia, ib))
            rows = np.arange(ia.size)
            yaw = np.argmin(bound, axis=1)
            best = w2_squared(pop_q[ia, yaw], pop_m, use_stability, (rows, ib))
            todo = ~(bound > best[:, None])  # a NaN bound or value is scored
            todo[rows, yaw] = False
            p, y = np.nonzero(todo)
            if p.size:
                touched, jb = np.unique(ib[p], return_inverse=True)
                more = w2_squared(pop_q[ia[p], y], pop_m[touched], use_stability,
                                  (np.arange(p.size), jb))
                np.minimum.at(best, p, more)
            out[lo:lo + step] = best
    return out


def gsf_filter(
    descs: list[TriangleDescriptor],
    candidate_ids: np.ndarray,
    index: DescriptorIndex,
    w2: np.ndarray,
    cfg: SimilarityConfig,
) -> TriangleMatches:
    """Score coarse candidates by summed per-vertex W2^2 and keep the survivors.

    `candidate_ids` holds `query_index`'s (query row, candidate id) rows over
    `descs`. `w2[qid, mid]` is `pair_w2` of query instance qid and map instance
    mid, for every pair a candidate makes under its stored vertex orders. Each
    candidate takes its lowest-sum order (the first on a tie); those above 3x
    the acceptance threshold are dropped; survivors come back by query row,
    then ascending by score, then by candidate id.
    """
    rows, cids = candidate_ids[:, 0], candidate_ids[:, 1]
    qv = vertex_array(descs)[rows]  # (k, 3)
    mv = index.vertex_ids[cids][:, ORDERS]  # (k, 6, 3): every order's map vertices
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
    descs: list[TriangleDescriptor], candidate_ids: np.ndarray, index: DescriptorIndex
) -> TriangleMatches:
    """GSF-disabled counterpart: canonical pairing, unit confidence, in
    `candidate_ids` order."""
    rows, cids = candidate_ids[:, 0], candidate_ids[:, 1]
    pairs = np.stack([vertex_array(descs)[rows], index.vertex_ids[cids]], axis=-1)
    return TriangleMatches(rows, cids, pairs, np.ones((len(rows), 3)), np.zeros(len(rows)))
