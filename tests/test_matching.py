import copy
import tracemalloc

import numpy as np
import pytest

from gsfloc.core import ValidationError
from gsfloc.descriptors import TriangleMatches, TriangleTable
from gsfloc.matching import (
    ConsistencyGraph,
    Correspondence,
    CorrespondenceTable,
    brute_force_max_clique,
    _adj_masks,
    build_consistency_graph,
    collect_correspondences,
    consistency_check,
    correspondence_table,
    max_clique,
)

from conftest import random_transform


def match(pairs, omegas=(1.0, 1.0, 1.0)):
    """One triangle match: its three (query, map) pairs and their weights."""
    return tuple(pairs), tuple(omegas)


def matches_of(matches):
    """The `TriangleMatches` record of a list of `match` results, as the fine
    filter hands it over."""
    n = len(matches)
    pairs = np.array([p for p, _ in matches], dtype=np.int64).reshape(n, 3, 2)
    omegas = np.array([o for _, o in matches], dtype=np.float64).reshape(n, 3)
    return TriangleMatches(np.zeros(n, dtype=np.int64), np.arange(n), pairs, omegas,
                           np.zeros(n))


def graph_from_adjacency(adj, omegas=None):
    n = adj.shape[0]
    omegas = [1.0] * n if omegas is None else omegas
    nodes = [Correspondence(i, i, omegas[i], 1) for i in range(n)]
    return ConsistencyGraph(nodes, adj.astype(bool), 1.0)


def rows(corrs):
    """A correspondence table's rows as (query, map, omega, support) tuples."""
    return list(zip(corrs.query_ids.tolist(), corrs.map_ids.tolist(), corrs.omegas.tolist(),
                    corrs.supports.tolist()))


def table(cents):
    """The (K, 3) centroid table of an id -> centroid dict, with NaN rows for
    the ids it does not name."""
    rows = np.full((max(cents) + 1, 3), np.nan)
    rows[list(cents)] = list(cents.values())
    return rows


def random_graph(rng, n, density):
    adj = np.triu(rng.random((n, n)) < density, 1)
    return adj | adj.T


class TestTable:
    def test_stacks_and_gathers_rows(self):
        """A list of correspondences stacks into int64 and float64 columns, once:
        a table passes as it is, and `ConsistencyGraph` stacks the list it is
        given. A gather by index list, mask or no rows is a table."""
        corrs = [Correspondence(0, 10, 0.5, 2), Correspondence(1, 11, 0.25, 1),
                 Correspondence(2, 12, 1.0, 3)]
        t = correspondence_table(corrs)
        assert rows(t) == [(0, 10, 0.5, 2), (1, 11, 0.25, 1), (2, 12, 1.0, 3)]
        assert t.query_ids.dtype == t.map_ids.dtype == t.supports.dtype == np.int64
        assert correspondence_table(t) is t and len(t) == 3
        assert rows(t[[2, 0]]) == [(2, 12, 1.0, 3), (0, 10, 0.5, 2)]
        assert rows(t[np.array([True, False, True])]) == [(0, 10, 0.5, 2), (2, 12, 1.0, 3)]
        assert len(t[[]]) == 0 and t[[]].query_ids.dtype == np.int64
        assert len(correspondence_table([])) == 0
        g = ConsistencyGraph(corrs, np.zeros((3, 3), dtype=bool), 1.0)
        assert isinstance(g.nodes, CorrespondenceTable) and rows(g.nodes) == rows(t)

    def test_tables_compare_by_identity(self):
        """A table of several rows compares by identity, against a copy of
        itself, an empty table or a list, and raises no ambiguous-truth error."""
        t = correspondence_table([Correspondence(0, 10, 0.5, 2), Correspondence(1, 11, 0.25, 1)])
        ids = np.arange(6, dtype=np.int64).reshape(2, 3)
        tables = [t, TriangleTable(ids, ids, ids.astype(float)),
                  TriangleMatches(ids[0, :2], ids[0, :2], np.zeros((2, 3, 2), dtype=np.int64),
                                  np.ones((2, 3)), np.ones(2))]
        for table in tables:
            assert table == table and not table != table
            assert table != copy.copy(table) and not table == copy.copy(table)
            assert table != [] and not table == []
        assert correspondence_table([]) != []  # a result's `inliers` when it fails


class TestCollect:
    def test_single_triangle(self):
        out = collect_correspondences(matches_of([match([(0, 10), (1, 11), (2, 12)])]))
        assert [(q, m, s) for q, m, _, s in rows(out)] == [
            (0, 10, 1), (1, 11, 1), (2, 12, 1)
        ]

    def test_shared_pair_support(self):
        out = collect_correspondences(matches_of([
            match([(0, 10), (1, 11), (2, 12)], (0.5, 0.6, 0.7)),
            match([(0, 10), (3, 13), (4, 14)], (0.9, 0.6, 0.7)),
        ]))
        c = {(q, m): (o, s) for q, m, o, s in rows(out)}
        assert c[(0, 10)][1] == 2
        assert c[(0, 10)][0] == 0.9  # max observed

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            matches = []
            for _ in range(rng.integers(1, 15)):
                pairs = [(int(rng.integers(0, 6)), int(rng.integers(10, 16))) for _ in range(3)]
                omegas = tuple(float(v) for v in rng.uniform(0.1, 1.0, 3))
                matches.append(match(pairs, omegas))
            got = collect_correspondences(matches_of(matches))
            # hashmap-free aggregation
            flat = [(q, m, o) for pairs, omegas in matches for (q, m), o in zip(pairs, omegas)]
            keys = sorted(set((q, m) for q, m, _ in flat))
            want = [
                (k[0], k[1],
                 max(o for q, m, o in flat if (q, m) == k),
                 sum(1 for q, m, _ in flat if (q, m) == k))
                for k in keys
            ]
            assert rows(got) == want

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_dict_merge(self, seed):
        """The array merge against a written-out dict merge of every vertex
        pair, over records with many duplicate pairs under different weights:
        the same pairs, order, supports and omegas, in int64 and float64 columns."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 400))
        pairs = np.stack([rng.integers(0, 8, (n, 3)), rng.integers(0, 30, (n, 3))], axis=-1)
        omegas = rng.uniform(0.0, 1.0, (n, 3))
        got = collect_correspondences(TriangleMatches(np.arange(n), np.arange(n), pairs, omegas,
                                                      np.zeros(n)))
        merged = {}
        for (q, m), omega in zip(pairs.reshape(-1, 2).tolist(), omegas.ravel().tolist()):
            if (q, m) in merged:
                merged[q, m] = (max(merged[q, m][0], omega), merged[q, m][1] + 1)
            else:
                merged[q, m] = (omega, 1)
        want = [(q, m, *merged[q, m]) for q, m in sorted(merged)]
        assert max(s for _, _, _, s in want) > 1
        assert rows(got) == want
        assert got.query_ids.dtype == got.map_ids.dtype == got.supports.dtype == np.int64
        assert got.omegas.dtype == np.float64

    def test_no_matches(self):
        out = collect_correspondences(TriangleMatches.empty())
        assert len(out) == 0 and rows(out) == []

    def test_ordering_deterministic(self):
        out = collect_correspondences(matches_of([match([(2, 12), (0, 10), (1, 11)])]))
        assert [(q, m) for q, m, _, _ in rows(out)] == [(0, 10), (1, 11), (2, 12)]


class TestConsistency:
    def test_rigidly_transformed_scene_consistent(self):
        rng = np.random.default_rng(1)
        T = random_transform(rng)
        q = {i: rng.uniform(-10, 10, 3) for i in range(4)}
        m = {i + 10: T.apply(q[i].reshape(1, 3))[0] for i in range(4)}
        corrs = [Correspondence(i, i + 10, 1.0, 1) for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert consistency_check(corrs[i], corrs[j], q, m, epsilon=1e-6)

    def test_one_to_one_violation(self):
        q = {0: np.zeros(3)}
        m = {10: np.zeros(3), 11: np.ones(3)}
        a = Correspondence(0, 10, 1.0, 1)
        b = Correspondence(0, 11, 1.0, 1)
        assert not consistency_check(a, b, q, m, epsilon=100.0)

    def test_planted_discrepancy(self):
        eps = 0.5
        q = {0: np.zeros(3), 1: np.array([5.0, 0, 0])}
        m = {10: np.zeros(3), 11: np.array([5.0 + 2 * eps, 0, 0])}
        a, b = Correspondence(0, 10, 1.0, 1), Correspondence(1, 11, 1.0, 1)
        assert not consistency_check(a, b, q, m, epsilon=eps)
        m[11] = np.array([5.0 + 0.5 * eps, 0, 0])
        assert consistency_check(a, b, q, m, epsilon=eps)

    def test_graph_matches_double_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 61))
            q = {i: rng.uniform(-10, 10, 3) for i in range(n)}
            m = {i: rng.uniform(-10, 10, 3) for i in range(10, 10 + n)}
            corrs = [
                Correspondence(int(rng.integers(0, n)), int(rng.integers(10, 10 + n)), 1.0, 1)
                for _ in range(n)
            ]
            g = build_consistency_graph(corrs, table(q), table(m), epsilon=3.0)
            for i in range(n):
                assert not g.adjacency[i, i]
                for j in range(n):
                    want = i != j and consistency_check(corrs[i], corrs[j], q, m, 3.0)
                    assert g.adjacency[i, j] == want
            assert (g.adjacency == g.adjacency.T).all()

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            build_consistency_graph([], {}, {}, 0.5)

    def test_adjacency_invariant_under_query_rigid_transform(self):
        rng = np.random.default_rng(3)
        n = 8
        q = {i: rng.uniform(-10, 10, 3) for i in range(n)}
        m = {i: rng.uniform(-10, 10, 3) for i in range(10, 10 + n)}
        corrs = [
            Correspondence(int(rng.integers(0, n)), int(rng.integers(10, 10 + n)), 1.0, 1)
            for _ in range(n)
        ]
        T = random_transform(rng)
        q_moved = {k: T.apply(v.reshape(1, 3))[0] for k, v in q.items()}
        a = build_consistency_graph(corrs, table(q), table(m), epsilon=2.0)
        b = build_consistency_graph(corrs, table(q_moved), table(m), epsilon=2.0)
        assert (a.adjacency == b.adjacency).all()

    def test_memory_bounded(self):
        """600 correspondences over 64 instances per side: the build's traced
        peak stays under 5 n^2 doubles. A build that holds each side's (n, n, 3)
        difference array peaks at 8 n^2."""
        rng = np.random.default_rng(6)
        n, k = 600, 64
        codes = rng.choice(k * k, n, replace=False)
        corrs = [Correspondence(int(q), int(m), 1.0, 1) for q, m in zip(*np.divmod(codes, k))]
        q, m = rng.uniform(-30, 30, (k, 3)), rng.uniform(-30, 30, (k, 3))
        tracemalloc.start()
        try:
            g = build_consistency_graph(corrs, q, m, epsilon=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.adjacency.shape == (n, n) and g.adjacency.any()
        assert peak < 5 * n * n * 8, f"peak {peak / 1e6:.1f} MB"


class TestAdjMasks:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65])
    def test_equals_bit_loop(self, n):
        """Each row's int has bit j set exactly where the adjacency holds (i, j),
        at sizes around and on a byte boundary."""
        g = graph_from_adjacency(random_graph(np.random.default_rng(n), n, 0.5))
        want = []
        for i in range(n):
            row = 0
            for j in range(n):
                if g.adjacency[i, j]:
                    row |= 1 << j
            want.append(row)
        got = _adj_masks(g)
        assert got == want and all(type(v) is int for v in got)
        assert max(want) < 1 << n and (n < 2 or any(want))


class TestMaxClique:
    def test_complete_graph(self):
        adj = ~np.eye(5, dtype=bool)
        assert max_clique(graph_from_adjacency(adj)) == [0, 1, 2, 3, 4]

    def test_empty_graph(self):
        g = ConsistencyGraph([], np.zeros((0, 0), dtype=bool), 1.0)
        assert max_clique(g) == []
        assert brute_force_max_clique(g) == []

    def test_single_node(self):
        g = graph_from_adjacency(np.zeros((1, 1)))
        assert max_clique(g) == [0]

    def test_planted_clique_with_distractors(self):
        rng = np.random.default_rng(3)
        n = 10
        adj = np.zeros((n, n), dtype=bool)
        planted = [2, 4, 6, 8]
        for i in planted:
            for j in planted:
                if i != j:
                    adj[i, j] = True
        # sparse distractor edges that never form a 4-clique
        for (i, j) in [(0, 1), (1, 3), (3, 5), (5, 7), (7, 9), (0, 9)]:
            adj[i, j] = adj[j, i] = True
        g = graph_from_adjacency(adj)
        assert max_clique(g) == planted
        assert brute_force_max_clique(g) == planted

    def test_path_graph_lexicographic(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
        g = graph_from_adjacency(adj)
        assert brute_force_max_clique(g) == [0, 1]
        assert max_clique(g) == [0, 1]

    def test_omega_tie_break(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True
        g = graph_from_adjacency(adj, omegas=[0.4, 0.4, 0.9, 0.9])
        assert max_clique(g) == [2, 3]
        assert brute_force_max_clique(g) == [2, 3]

    def test_guard(self):
        g = graph_from_adjacency(np.zeros((26, 26)))
        with pytest.raises(ValidationError, match="guard"):
            brute_force_max_clique(g)

    def test_random_equivalence(self):
        rng = np.random.default_rng(4)
        for trial in range(60):
            n = int(rng.integers(2, 16))
            adj = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            omegas = [float(v) for v in rng.uniform(0.1, 1.0, n)]
            g = graph_from_adjacency(adj, omegas)
            assert max_clique(g) == brute_force_max_clique(g), f"trial {trial}"

    def test_output_pairwise_consistent(self):
        rng = np.random.default_rng(5)
        n = 12
        adj = random_graph(rng, n, 0.5)
        g = graph_from_adjacency(adj)
        clique = max_clique(g)
        for i in clique:
            for j in clique:
                if i != j:
                    assert adj[i, j]
