import itertools

import numpy as np
import pytest

from gsfloc.config import GridSection
from gsfloc.core import ValidationError, one_hot_logits
from gsfloc.descriptors import (
    EQUAL_SIDE_TOL,
    TriangleDescriptor,
    build_index,
    gsf_filter,
    load_index,
    pair_w2,
    plain_matches,
    query_index,
    save_index,
    triangulate,
)
from gsfloc.gsf import GpHyperParams, fit_gsf, grid_probe
from gsfloc.scene_graph import Instance, SceneGraph
from gsfloc.wasserstein import SimilarityConfig

from conftest import random_transform, stack_pops


def graph_from_centroids(centroids, labels=None):
    centroids = np.asarray(centroids, dtype=float)
    labels = [7] * len(centroids) if labels is None else labels
    insts = [Instance(i, centroids[i], labels[i], np.zeros(0, int)) for i in range(len(centroids))]
    return SceneGraph(insts, {i.id: None for i in insts})


def brute_force_triangulate(centroids, labels, k):
    """Independent enumerator with the same K-NN and dedup rules."""
    n = len(centroids)
    seen = set()
    out = []
    for anchor in range(n):
        others = sorted(
            (np.linalg.norm(centroids[anchor] - centroids[j]), j)
            for j in range(n) if j != anchor
        )
        for b, c in itertools.combinations([j for _, j in others[:k]], 2):
            key = frozenset((anchor, b, c))
            if key in seen:
                continue
            seen.add(key)
            tri = sorted(key)
            d = sorted(
                np.linalg.norm(centroids[a] - centroids[bb])
                for a, bb in itertools.combinations(tri, 2)
            )
            if d[0] + d[1] - d[2] <= 1e-6:
                continue
            out.append((key, tuple(np.round(d, 9))))
    return set(out)


def loop_triangulate(centroids, labels, k):
    """Per-anchor loop reference: descriptors in first-seen order, each in the
    smallest id order whose sides are sorted."""
    n = len(centroids)

    def dist(a, b):
        return float(np.linalg.norm(centroids[a] - centroids[b]))

    seen, out = set(), []
    for anchor in range(n):
        others = sorted((j for j in range(n) if j != anchor), key=lambda j: (dist(anchor, j), j))
        for b, c in itertools.combinations(others[:k], 2):
            key = frozenset((anchor, b, c))
            if key in seen:
                continue
            seen.add(key)
            for v in itertools.permutations(sorted(key)):
                s = (dist(v[0], v[1]), dist(v[1], v[2]), dist(v[2], v[0]))
                if s[0] <= s[1] + 1e-9 and s[1] <= s[2] + 1e-9:
                    break
            if s[0] + s[1] - s[2] > 1e-6:
                out.append((v, s, tuple(labels[i] for i in v)))
    return out


class TestTriangulate:
    def test_three_instances_one_descriptor(self):
        g = graph_from_centroids([[0, 0, 0], [3, 0, 0], [0, 4, 0]])
        descs = triangulate(g, k_neighbors=2)
        assert len(descs) == 1
        np.testing.assert_allclose(descs[0].sides, (3.0, 4.0, 5.0))

    def test_sorted_sides_and_vertex_pairing(self):
        g = graph_from_centroids([[0, 4, 0], [0, 0, 0], [3, 0, 0]])
        d = triangulate(g, 2)[0]
        assert d.sides[0] <= d.sides[1] <= d.sides[2]
        # v1-v2 is the shortest side, v3-v1 the longest
        c = {i.id: i.centroid for i in g.instances}
        v1, v2, v3 = d.vertex_ids
        assert abs(np.linalg.norm(c[v1] - c[v2]) - d.sides[0]) < 1e-12
        assert abs(np.linalg.norm(c[v2] - c[v3]) - d.sides[1]) < 1e-12
        assert abs(np.linalg.norm(c[v3] - c[v1]) - d.sides[2]) < 1e-12

    def test_too_few_instances_warns(self):
        g = graph_from_centroids([[0, 0, 0], [1, 0, 0]])
        with pytest.warns(UserWarning, match="3 instances"):
            assert triangulate(g, 2) == []

    def test_collinear_rejected(self):
        g = graph_from_centroids([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        assert triangulate(g, 2) == []

    def test_brute_force_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(4, 15))
            cents = rng.uniform(-20, 20, (n, 3))
            labels = rng.integers(6, 11, n).tolist()
            k = int(rng.integers(2, min(n, 8)))
            descs = triangulate(graph_from_centroids(cents, labels), k)
            got = {(frozenset(d.vertex_ids), tuple(np.round(d.sides, 9))) for d in descs}
            assert got == brute_force_triangulate(cents, labels, k)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            n = int(rng.integers(3, 16))
            # integer lattice points give exact distance ties and collinear triples
            cents = (rng.integers(-3, 4, (n, 3)).astype(float) if trial % 2
                     else rng.uniform(-20, 20, (n, 3)))
            labels = rng.integers(6, 11, n).tolist()
            k = int(rng.integers(2, 12))
            descs = triangulate(graph_from_centroids(cents, labels), k)
            want = loop_triangulate(cents, labels, k)
            assert [d.id for d in descs] == list(range(len(want)))
            assert [(d.vertex_ids, d.labels) for d in descs] == [(v, lab) for v, _, lab in want]
            np.testing.assert_allclose([d.sides for d in descs], [s for _, s, _ in want],
                                       rtol=0, atol=1e-12)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(1)
        cents = rng.uniform(-10, 10, (8, 3))
        T = random_transform(rng)
        a = triangulate(graph_from_centroids(cents), 4)
        b = triangulate(graph_from_centroids(T.apply(cents)), 4)
        sa = sorted((frozenset(d.vertex_ids), tuple(np.round(d.sides, 6))) for d in a)
        sb = sorted((frozenset(d.vertex_ids), tuple(np.round(d.sides, 6))) for d in b)
        assert sa == sb

    def test_permutation_invariance(self):
        cents = np.array([[0.0, 0, 0], [3.0, 0, 0], [0.0, 4, 0]])
        labels = [7, 8, 9]
        got = set()
        for perm in itertools.permutations(range(3)):
            perm = list(perm)
            (d,) = triangulate(graph_from_centroids(cents[perm], [labels[i] for i in perm]), 2)
            got.add((d.sides, d.labels))
        # the 3-4-5 sides fix the vertex order: (3,0,0), (0,0,0), (0,4,0)
        assert got == {((3.0, 4.0, 5.0), (8, 7, 9))}

    def test_ids_must_be_dense_in_list_order(self):
        g = graph_from_centroids([[0, 0, 0], [3, 0, 0], [0, 4, 0]])
        g.instances.reverse()
        with pytest.raises(ValidationError, match="0..K-1"):
            triangulate(g, 2)


def random_descriptor(rng, desc_id, label_pool=(6, 7, 8, 9)):
    # build sides from an actual triangle so validity holds
    pts = rng.uniform(-20, 20, (3, 3))
    d = sorted(
        float(np.linalg.norm(pts[i] - pts[j])) for i, j in ((0, 1), (1, 2), (2, 0))
    )
    labels = tuple(int(v) for v in rng.choice(label_pool, 3))
    return TriangleDescriptor(desc_id, (3 * desc_id, 3 * desc_id + 1, 3 * desc_id + 2),
                              tuple(d), labels)


def ascending_orders(sides):
    """Vertex orders of a triangle whose sides still ascend, one order at a time."""
    side = {frozenset((0, 1)): sides[0], frozenset((1, 2)): sides[1],
            frozenset((0, 2)): sides[2]}
    out = []
    for perm in itertools.permutations(range(3)):
        a, b, c = (side[frozenset((perm[k], perm[(k + 1) % 3]))] for k in range(3))
        if a <= b + EQUAL_SIDE_TOL and b <= c + EQUAL_SIDE_TOL:
            out.append(perm)
    return out


class TestIndex:
    def test_stored_orders_match_written_out_rule(self):
        rng = np.random.default_rng(5)
        descs = [random_descriptor(rng, i) for i in range(20)]
        special = [((3.0, 3.0, 5.0), 2), ((3.0, 5.0, 5.0), 2), ((4.0, 4.0, 4.0), 6),
                   ((4.0, 4.0 + 4e-10, 4.0 + 8e-10), 6)]
        for sides, _ in special:
            descs.append(TriangleDescriptor(len(descs), (0, 1, 2), sides, (7, 7, 7)))
        index = build_index(descs, 0.5)
        for d, orders in zip(descs, index.orders):
            assert list(orders) == ascending_orders(d.sides)
        assert [len(o) for o in index.orders[-len(special):]] == [n for _, n in special]
        assert index.label_keys == [tuple(sorted(d.labels)) for d in descs]

    def test_self_retrieval(self):
        rng = np.random.default_rng(2)
        descs = [random_descriptor(rng, i) for i in range(50)]
        index = build_index(descs, 0.5)
        for d in descs:
            assert d.id in query_index(index, d)

    def test_label_multiset_mismatch_empty(self):
        d1 = TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (7, 7, 7))
        index = build_index([d1], 0.5)
        q = TriangleDescriptor(0, (9, 10, 11), (3.0, 4.0, 5.0), (7, 7, 8))
        assert query_index(index, q) == []

    def test_completeness_vs_linear_scan(self):
        rng = np.random.default_rng(3)
        delta = 0.5
        descs = [random_descriptor(rng, i) for i in range(300)]
        index = build_index(descs, delta)
        for _ in range(200):
            base = descs[int(rng.integers(len(descs)))]
            # nudge sides by up to delta, including exact bin-boundary offsets
            off = rng.choice([-delta, -delta / 2, 0.0, delta / 2, delta], 3)
            sides = tuple(sorted(max(0.1, s + o) for s, o in zip(base.sides, off)))
            q = TriangleDescriptor(0, (90, 91, 92), sides, base.labels)
            got = set(query_index(index, q))
            want = {
                d.id
                for d in descs
                if all(abs(a - b) <= delta for a, b in zip(q.sides, d.sides))
                and sorted(d.labels) == sorted(q.labels)
            }
            assert got == want

    @pytest.mark.parametrize(
        "delta,count",
        [(0.0, 1), (0.0, 0), (-0.5, 1), (float("nan"), 1), (float("nan"), 0), (float("inf"), 1)],
        ids=["zero", "zero-empty", "negative", "nan", "nan-empty", "inf"],
    )
    def test_invalid_delta(self, delta, count):
        descs = [TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (7, 7, 7))][:count]
        with pytest.raises(ValidationError, match="delta_d"):
            build_index(descs, delta)

    def test_nan_delta_in_file_rejected(self, tmp_path):
        path = tmp_path / "nan.gsfi"
        save_index(build_index([], 0.5), path)
        raw = bytearray(path.read_bytes())
        raw[8:16] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="delta_d"):
            load_index(path)

    def test_empty_index_returns_nothing(self):
        q = TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (7, 7, 7))
        assert query_index(build_index([], 0.5), q) == []

    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(4)
        descs = [random_descriptor(rng, i) for i in range(30)]
        index = build_index(descs, 0.5)
        f1, f2 = tmp_path / "a.gsfi", tmp_path / "b.gsfi"
        save_index(index, f1)
        again = load_index(f1)
        save_index(again, f2)
        assert f1.read_bytes() == f2.read_bytes()
        assert again.delta_d == 0.5
        for a, b in zip(index.descriptors, again.descriptors):
            assert a.vertex_ids == b.vertex_ids
            assert a.sides == b.sides
            assert a.labels == b.labels


def field_with_offset(taxonomy, offset, seed=0):
    """Small planted field; `offset` shifts the vegetation logit pattern."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-6, 6, (40, 3))
    labels = np.full(40, taxonomy.id_of("vegetation"))
    Y = one_hot_logits(labels, 12)
    Y[:, taxonomy.id_of("vegetation")] += offset * np.sin(X[:, 0])
    fld = fit_gsf(X, Y, labels, GpHyperParams(), 40, 0)
    return grid_probe(fld, taxonomy, GridSection())


def w2_table(pops_query, pops_map):
    """Every (query, map) pair's W2^2, stability on: the table the match stage builds."""
    return {(q, m): pair_w2(q, m, pops_query, pops_map, True)
            for q in pops_query for m in pops_map}


class TestGsfFilter:
    def _setup(self, taxonomy):
        pops_map = {
            0: field_with_offset(taxonomy, 0.0, seed=1),
            1: field_with_offset(taxonomy, 0.1, seed=2),
            2: field_with_offset(taxonomy, 0.2, seed=3),
            3: field_with_offset(taxonomy, 3.0, seed=4),  # wildly different
        }
        pops_query = {i: stack_pops([pops_map[i]]) for i in range(3)}
        q = TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (4, 4, 4))
        same = TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (4, 4, 4))
        far = TriangleDescriptor(1, (0, 1, 3), (3.0, 4.0, 5.0), (4, 4, 4))
        index = build_index([same, far], 0.5)
        return q, index, pops_query, pops_map

    def test_identical_candidate_scores_zero_and_ranks_first(self, taxonomy):
        q, index, pq, pm = self._setup(taxonomy)
        cfg = SimilarityConfig(sigma_w=1.0, accept_threshold=10.0)
        out = gsf_filter(q, [0, 1], index, w2_table(pq, pm), cfg)
        assert out[0].map.id == 0
        assert out[0].w2_total < 1e-8
        assert all(abs(w - 1.0) < 1e-6 for w in out[0].omegas)

    def test_planted_outlier_filtered(self, taxonomy):
        q, index, pq, pm = self._setup(taxonomy)
        cfg = SimilarityConfig(sigma_w=1.0, accept_threshold=0.05)
        out = gsf_filter(q, [0, 1], index, w2_table(pq, pm), cfg)
        assert [m.map.id for m in out] == [0]

    def test_tie_breaks_by_candidate_id(self, taxonomy):
        pop = field_with_offset(taxonomy, 0.0, seed=5)
        pm = {i: pop for i in range(6)}
        pq = {i: stack_pops([pop]) for i in range(3)}
        q = TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (4, 4, 4))
        c1 = TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (4, 4, 4))
        c2 = TriangleDescriptor(1, (3, 4, 5), (3.0, 4.0, 5.0), (4, 4, 4))
        index = build_index([c1, c2], 0.5)
        out = gsf_filter(q, [0, 1], index, w2_table(pq, pm),
                         SimilarityConfig(sigma_w=1.0, accept_threshold=10.0))
        assert [m.map.id for m in out] == [0, 1]  # equal scores: id order

    def test_equilateral_keeps_first_order_among_equal_totals(self, taxonomy):
        a = field_with_offset(taxonomy, 0.0, seed=1)
        b = field_with_offset(taxonomy, 0.3, seed=2)
        c = field_with_offset(taxonomy, 1.0, seed=4)
        q = TriangleDescriptor(0, (0, 1, 2), (4.0, 4.0, 4.0), (4, 4, 4))
        cand = TriangleDescriptor(0, (10, 11, 12), (4.0, 4.0, 4.0), (4, 4, 4))
        index = build_index([cand], 0.5)
        assert len(index.orders[0]) == 6
        cfg = SimilarityConfig(sigma_w=1.0, accept_threshold=100.0)
        # orders (0, 1, 2) and (1, 0, 2) score the same total: the first is kept
        pm = {10: a, 11: a, 12: c}
        pq = {0: stack_pops([a]), 1: stack_pops([a]), 2: stack_pops([c])}
        (m,) = gsf_filter(q, [0], index, w2_table(pq, pm), cfg)
        assert m.pairs == ((0, 10), (1, 11), (2, 12))
        # a lower total under a later order wins
        pm = {10: a, 11: b, 12: c}
        pq = {0: stack_pops([b]), 1: stack_pops([a]), 2: stack_pops([c])}
        (m,) = gsf_filter(q, [0], index, w2_table(pq, pm), cfg)
        assert m.pairs == ((0, 11), (1, 10), (2, 12))

    def test_plain_matches_unit_omega(self, taxonomy):
        q, index, _, _ = self._setup(taxonomy)
        out = plain_matches(q, [0, 1], index)
        assert len(out) == 2
        assert all(m.omegas == (1.0, 1.0, 1.0) for m in out)
