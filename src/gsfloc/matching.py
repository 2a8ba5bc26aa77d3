"""Instance correspondences, pairwise consistency, and exact maximum clique.

The correspondences are one `CorrespondenceTable` (`Correspondence` is one
row), made from the fine filter's `TriangleMatches` record in one pass of
array operations: each (query, map) vertex pair is one correspondence, its
support the number of matches that name it and its confidence the largest
weight among them.

Two correspondences are consistent when the centroid distance on the query
side agrees with the map side within epsilon, and they share neither a query
nor a map instance (one-to-one enforcement). Each side's distances come from
`pdist` over the table's rows of its (K, 3) centroid table. The inlier set is
the maximum clique of the consistency graph; ties on size are broken by
largest summed confidence, then by lexicographically smallest sorted node-id
sequence. The clique search holds each adjacency row as one int, packed from
the row's bits by `np.packbits`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .core import ValidationError
from .descriptors import TriangleMatches

BRUTE_FORCE_MAX_NODES = 25


@dataclass
class Correspondence:
    query_id: int
    map_id: int
    omega: float  # max confidence observed across triangle votes, in (0,1]
    support: int  # number of triangle matches voting for this pair


@dataclass(frozen=True, eq=False)
class CorrespondenceTable:
    """Correspondences as arrays, row i correspondence i; columns as in `Correspondence`."""

    query_ids: np.ndarray  # (n,) int64
    map_ids: np.ndarray  # (n,) int64
    omegas: np.ndarray  # (n,) float64
    supports: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.omegas)

    def __getitem__(self, rows) -> "CorrespondenceTable":
        """The rows an index list, index array or mask picks, as a table."""
        return CorrespondenceTable(self.query_ids[rows], self.map_ids[rows],
                                   self.omegas[rows], self.supports[rows])


def correspondence_table(corrs) -> CorrespondenceTable:
    """A table as it is; a sequence of correspondences stacked into one."""
    if isinstance(corrs, CorrespondenceTable):
        return corrs
    return CorrespondenceTable(np.array([c.query_id for c in corrs], dtype=np.int64),
                               np.array([c.map_id for c in corrs], dtype=np.int64),
                               np.array([c.omega for c in corrs], dtype=np.float64),
                               np.array([c.support for c in corrs], dtype=np.int64))


@dataclass
class ConsistencyGraph:
    nodes: CorrespondenceTable  # a sequence of correspondences is stacked into one
    adjacency: np.ndarray  # (n,n) bool, symmetric, no self-loops
    epsilon: float

    def __post_init__(self):
        self.nodes = correspondence_table(self.nodes)


def collect_correspondences(matches: TriangleMatches) -> CorrespondenceTable:
    """Aggregate vertex pairs across triangle matches.

    Duplicate (query, map) pairs merge: support counts them, omega keeps the
    maximum observed. Output sorted by (query_id, map_id). One `np.unique`
    over the pairs' codes groups them, `bincount` gives the support and
    `maximum.at` the omega.
    """
    pairs = matches.pairs.reshape(-1, 2)
    if not len(pairs):
        return correspondence_table([])
    n_map = int(pairs[:, 1].max()) + 1
    codes, inverse = np.unique(pairs[:, 0] * n_map + pairs[:, 1], return_inverse=True)
    support = np.bincount(inverse, minlength=len(codes))
    omega = np.full(len(codes), -np.inf)
    np.maximum.at(omega, inverse, matches.omegas.ravel())
    qids, mids = np.divmod(codes, n_map)
    return CorrespondenceTable(qids, mids, omega, support)


def consistency_check(ci: Correspondence, cj: Correspondence, query_centroids: np.ndarray,
                      map_centroids: np.ndarray, epsilon: float) -> bool:
    """| |a_i - a_j| - |b_i - b_j| | <= epsilon, plus one-to-one enforcement."""
    if ci.query_id == cj.query_id or ci.map_id == cj.map_id:
        return False
    da = np.linalg.norm(query_centroids[ci.query_id] - query_centroids[cj.query_id])
    db = np.linalg.norm(map_centroids[ci.map_id] - map_centroids[cj.map_id])
    return bool(abs(da - db) <= epsilon)


def build_consistency_graph(corrs: CorrespondenceTable, query_centroids: np.ndarray,
                            map_centroids: np.ndarray, epsilon: float) -> ConsistencyGraph:
    """Every pair `consistency_check` passes, from the query and map centroid
    distance matrices of the correspondences' rows of the (K, 3) centroid
    tables: |D_q - D_m| <= epsilon, query ids distinct, map ids distinct. A
    sequence of correspondences is stacked into a table first."""
    corrs = correspondence_table(corrs)
    if not corrs:
        raise ValidationError("cannot build a consistency graph with no correspondences")
    qids, mids = corrs.query_ids, corrs.map_ids
    gap = squareform(pdist(query_centroids[qids]))
    gap -= squareform(pdist(map_centroids[mids]))
    adj = (np.abs(gap, out=gap) <= epsilon) & (qids[:, None] != qids) & (mids[:, None] != mids)
    return ConsistencyGraph(corrs, adj, epsilon)


def _better(a, b) -> bool:
    """Clique preference: larger size, then larger sum omega, then lex-smaller ids."""
    return a[:2] > b[:2] if a[:2] != b[:2] else a[2] < b[2]


def _adj_masks(graph: ConsistencyGraph) -> list[int]:
    """Row i of the adjacency as an int whose bit j is set where it holds an edge."""
    packed = np.packbits(graph.adjacency, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def max_clique(graph: ConsistencyGraph) -> list[int]:
    """Exact maximum clique via branch and bound with a greedy coloring bound.

    Pruning uses a strict bound so that all maximum cliques stay reachable and
    the documented tie-breaks are applied exactly.
    """
    n = len(graph.nodes)
    adj = _adj_masks(graph)
    omega = graph.nodes.omegas.tolist()
    best = [(0, 0.0, ())]

    def consider(ids: tuple):
        cand = (len(ids), sum(omega[i] for i in ids), ids)
        if _better(cand, best[0]):
            best[0] = cand

    def color_sort(p_mask: int):
        """Greedy coloring; returns vertices with color numbers, colors ascending."""
        order = []
        uncolored = p_mask
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                uncolored ^= 1 << v
                avail &= ~((1 << v) | adj[v])
        return order

    def expand(r_ids: tuple, p_mask: int):
        if p_mask == 0:
            consider(tuple(sorted(r_ids)))
            return
        order = color_sort(p_mask)
        for v, color in reversed(order):
            if len(r_ids) + color < best[0][0]:
                return  # colors ascend toward the end; earlier ones bound lower
            expand(r_ids + (v,), p_mask & adj[v])
            p_mask ^= 1 << v

    expand((), (1 << n) - 1)
    return list(best[0][2])


def brute_force_max_clique(graph: ConsistencyGraph) -> list[int]:
    """Exhaustive clique enumeration oracle; guarded to small graphs."""
    n = len(graph.nodes)
    if n > BRUTE_FORCE_MAX_NODES:
        raise ValidationError(
            f"brute force guarded to {BRUTE_FORCE_MAX_NODES} nodes, got {n}"
        )
    adj = _adj_masks(graph)
    omega = graph.nodes.omegas.tolist()
    best = [(0, 0.0, ())]

    def rec(ids: tuple, allowed: int):
        cand = (len(ids), sum(omega[i] for i in ids), ids)
        if _better(cand, best[0]):
            best[0] = cand
        for v in _bits(allowed):
            higher = allowed & ~((1 << (v + 1)) - 1)
            rec(ids + (v,), higher & adj[v])

    rec((), (1 << n) - 1)
    return list(best[0][2])
