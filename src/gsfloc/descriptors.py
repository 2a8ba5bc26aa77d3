"""Triangle descriptors over scene-graph instances and their hash index.

Descriptors carry sorted side lengths (d12 <= d23 <= d31), vertex labels, and
vertex ids permuted to match the sorted sides. The index hashes quantized
side triples; queries probe the 26 adjacent bins so that any stored triangle
within delta_d per side is guaranteed to be returned.

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

from .core import FormatError, ValidationError
from .gsf import GpPopulation
from .wasserstein import SimilarityConfig, population_sqrt, similarity_weight, w2_squared

INDEX_MAGIC = b"GSFI"
INDEX_VERSION = 1
DEGENERACY_SLACK = 1e-6
EQUAL_SIDE_TOL = 1e-9

# classic spatial-hash mixing primes
_MIX = (73856093, 19349663, 83492791)


@dataclass
class TriangleDescriptor:
    id: int
    vertex_ids: tuple[int, int, int]  # ordered so d(v1,v2) <= d(v2,v3) <= d(v3,v1)
    sides: tuple[float, float, float]  # (d12, d23, d31), ascending
    labels: tuple[int, int, int]  # per vertex, same order


def _canonical_order(ids, centroids, labels):
    """Permute three vertices to the sorted-side convention.

    Returns (vertex_ids, sides, labels) or None for degenerate (collinear or
    coincident) triangles. Among valid orderings the lexicographically
    smallest id triple is chosen.
    """
    pts = {i: centroids[i] for i in ids}
    best = None
    for perm in itertools.permutations(ids):
        a, b, c = perm
        d12 = float(np.linalg.norm(pts[a] - pts[b]))
        d23 = float(np.linalg.norm(pts[b] - pts[c]))
        d31 = float(np.linalg.norm(pts[c] - pts[a]))
        if d12 <= d23 + EQUAL_SIDE_TOL and d23 <= d31 + EQUAL_SIDE_TOL:
            if best is None or perm < best[0]:
                best = (perm, (d12, d23, d31))
    if best is None:
        return None
    perm, sides = best
    # reject collinear: the longest side within slack of the other two's sum
    if sides[0] + sides[1] - sides[2] <= DEGENERACY_SLACK:
        return None
    return perm, sides, tuple(labels[i] for i in perm)


def triangulate(graph, k_neighbors: int) -> list[TriangleDescriptor]:
    """All C(K,2) triangles per anchor with its K nearest instances, deduplicated."""
    if k_neighbors < 2:
        raise ValidationError(f"neighbor count must be >= 2, got {k_neighbors}")
    insts = graph.instances
    if len(insts) < 3:
        warnings.warn(f"triangulation needs >= 3 instances, got {len(insts)}")
        return []
    cents = {inst.id: np.asarray(inst.centroid) for inst in insts}
    labels = {inst.id: inst.label for inst in insts}
    ids = [inst.id for inst in insts]

    seen: set[frozenset] = set()
    out: list[TriangleDescriptor] = []
    for anchor in ids:
        others = sorted(
            (float(np.linalg.norm(cents[anchor] - cents[j])), j)
            for j in ids
            if j != anchor
        )
        nearest = [j for _, j in others[:k_neighbors]]
        for b, c in itertools.combinations(nearest, 2):
            key = frozenset((anchor, b, c))
            if key in seen:
                continue
            seen.add(key)
            canon = _canonical_order((anchor, b, c), cents, labels)
            if canon is None:
                continue
            vids, sides, labs = canon
            out.append(TriangleDescriptor(len(out), vids, sides, labs))
    return out


def _key_from_bins(b1: int, b2: int, b3: int) -> int:
    return (b1 * _MIX[0]) ^ (b2 * _MIX[1]) ^ (b3 * _MIX[2])


def hash_key(d: TriangleDescriptor, delta_d: float) -> int:
    """Mix the floor-quantized side triple into one integer key."""
    if delta_d <= 0:
        raise ValidationError(f"delta_d must be > 0, got {delta_d}")
    b = [int(np.floor(s / delta_d)) for s in d.sides]
    return _key_from_bins(*b)


@dataclass
class DescriptorIndex:
    descriptors: list[TriangleDescriptor]
    delta_d: float
    buckets: dict[int, list[int]]


def build_index(descriptors: list[TriangleDescriptor], delta_d: float) -> DescriptorIndex:
    buckets: dict[int, list[int]] = {}
    for d in descriptors:
        buckets.setdefault(hash_key(d, delta_d), []).append(d.id)
    return DescriptorIndex(list(descriptors), delta_d, buckets)


def query_index(index: DescriptorIndex, d: TriangleDescriptor) -> list[int]:
    """Candidate ids whose sides match within delta_d per side and whose label
    multiset equals the query's; probes the query bin and all 26 neighbors."""
    dd = index.delta_d
    bins = [int(np.floor(s / dd)) for s in d.sides]
    cand: set[int] = set()
    for o1, o2, o3 in itertools.product((-1, 0, 1), repeat=3):
        key = _key_from_bins(bins[0] + o1, bins[1] + o2, bins[2] + o3)
        cand.update(index.buckets.get(key, ()))
    want_labels = sorted(d.labels)
    out = []
    for cid in sorted(cand):
        cd = index.descriptors[cid]
        if all(abs(a - b) <= dd for a, b in zip(d.sides, cd.sides)) and sorted(
            cd.labels
        ) == want_labels:
            out.append(cid)
    return out


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


def _map_orderings(d: TriangleDescriptor):
    """Vertex orderings of `d` consistent with its sorted sides within tolerance.

    Side lookup under a permutation reuses the stored sides: d(v1,v2)=s1,
    d(v2,v3)=s2, d(v3,v1)=s3.
    """
    s1, s2, s3 = d.sides
    dist = {
        frozenset((0, 1)): s1,
        frozenset((1, 2)): s2,
        frozenset((2, 0)): s3,
    }
    orderings = []
    for perm in itertools.permutations(range(3)):
        a, b, c = perm
        e1 = dist[frozenset((a, b))]
        e2 = dist[frozenset((b, c))]
        e3 = dist[frozenset((c, a))]
        if e1 <= e2 + EQUAL_SIDE_TOL and e2 <= e3 + EQUAL_SIDE_TOL:
            orderings.append(perm)
    return orderings


def pair_w2(
    qid: int,
    mid: int,
    pops_query: dict[int, list[GpPopulation]],
    pops_map: dict[int, GpPopulation],
    use_stability: bool,
    cache: dict | None = None,
) -> float:
    """Min-over-yaw squared W2 between a query and a map instance population.

    The map population's covariance root is taken once and shared by every yaw.
    """
    if cache is not None and (qid, mid) in cache:
        return cache[(qid, mid)]
    pop_m = pops_map[mid]
    sqrt_m = population_sqrt(pop_m, use_stability)
    val = min(
        w2_squared(qp, pop_m, use_stability=use_stability, sqrt_b=sqrt_m)
        for qp in pops_query[qid]
    )
    if cache is not None:
        cache[(qid, mid)] = val
    return val


def gsf_filter(
    query_d: TriangleDescriptor,
    candidate_ids: list[int],
    index: DescriptorIndex,
    pops_query: dict[int, list[GpPopulation]],
    pops_map: dict[int, GpPopulation],
    cfg: SimilarityConfig,
    use_stability: bool = True,
    cache: dict | None = None,
) -> list[TriangleMatch]:
    """Score coarse candidates by summed per-vertex W2^2 and keep the survivors.

    Candidates whose three-vertex sum exceeds 3x the acceptance threshold are
    dropped; survivors come back ascending by score (ties by candidate id).
    Candidates touching instances without populations are skipped.
    """
    if any(pops_query.get(q) is None for q in query_d.vertex_ids):
        missing = [q for q in query_d.vertex_ids if pops_query.get(q) is None]
        warnings.warn(f"query instances {missing} lack fields; candidates skipped")
        return []
    out = []
    for cid in candidate_ids:
        cand = index.descriptors[cid]
        if any(pops_map.get(m) is None for m in cand.vertex_ids):
            missing = [m for m in cand.vertex_ids if pops_map.get(m) is None]
            warnings.warn(f"map instances {missing} lack fields; candidate {cid} skipped")
            continue
        best = None
        for perm in _map_orderings(cand):
            pairs = tuple(
                (query_d.vertex_ids[k], cand.vertex_ids[perm[k]]) for k in range(3)
            )
            scores = tuple(
                pair_w2(q, m, pops_query, pops_map, use_stability, cache)
                for q, m in pairs
            )
            total = sum(scores)
            if best is None or total < best[0]:
                best = (total, pairs, scores)
        total, pairs, scores = best
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
