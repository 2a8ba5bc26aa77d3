import itertools
import warnings

import numpy as np
import pytest

from gsfloc import descriptors
from gsfloc.config import GridSection
from gsfloc.core import ValidationError, one_hot_logits
from gsfloc.descriptors import (
    EQUAL_SIDE_TOL,
    LABEL_BITS,
    ORDERS,
    TriangleDescriptor,
    TriangleTable,
    build_index,
    gsf_filter,
    label_codes,
    load_index,
    pair_w2,
    plain_matches,
    query_index,
    save_index,
    triangle_table,
    triangulate,
)
from gsfloc.gsf import GpHyperParams, GpPopulation, fit_gsf, grid_probe
from gsfloc.scene_graph import SceneGraph
from gsfloc.wasserstein import SimilarityConfig, w2_squared

from conftest import planted_table, random_transform, rows


def graph_from_centroids(centroids, labels=None):
    centroids = np.asarray(centroids, dtype=float)
    labels = [7] * len(centroids) if labels is None else labels
    return SceneGraph(centroids, np.asarray(labels, dtype=np.int64),
                      [np.zeros(0, int)] * len(centroids))


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
        descs = rows(triangulate(g, k_neighbors=2))
        assert len(descs) == 1
        np.testing.assert_allclose(descs[0].sides, (3.0, 4.0, 5.0))

    def test_sorted_sides_and_vertex_pairing(self):
        g = graph_from_centroids([[0, 4, 0], [0, 0, 0], [3, 0, 0]])
        d = rows(triangulate(g, 2))[0]
        assert d.sides[0] <= d.sides[1] <= d.sides[2]
        # v1-v2 is the shortest side, v3-v1 the longest
        c = g.centroids
        v1, v2, v3 = d.vertex_ids
        assert abs(np.linalg.norm(c[v1] - c[v2]) - d.sides[0]) < 1e-12
        assert abs(np.linalg.norm(c[v2] - c[v3]) - d.sides[1]) < 1e-12
        assert abs(np.linalg.norm(c[v3] - c[v1]) - d.sides[2]) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_one_table_of_typed_columns(self, n):
        """`triangulate` returns one table, its columns (len, 3) int64, int64
        and float64, also when it warns and returns none; `triangle_table`
        gives a table back as it is and stacks descriptors into the same."""
        g = graph_from_centroids(np.random.default_rng(n).uniform(-9, 9, (n, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = triangulate(g, 4)
        assert isinstance(table, TriangleTable) and (len(table) > 0) == (n >= 3)
        for col, kind in [(table.vertex_ids, np.int64), (table.labels, np.int64),
                          (table.sides, np.float64)]:
            assert col.dtype == kind and col.shape == (len(table), 3)
        assert triangle_table(table) is table
        again = triangle_table(rows(table))
        for part in ("vertex_ids", "labels", "sides"):
            assert getattr(again, part).dtype == getattr(table, part).dtype
            assert np.array_equal(getattr(again, part), getattr(table, part))

    def test_too_few_instances_warns(self):
        g = graph_from_centroids([[0, 0, 0], [1, 0, 0]])
        with pytest.warns(UserWarning, match="3 instances"):
            assert rows(triangulate(g, 2)) == []

    def test_collinear_rejected(self):
        g = graph_from_centroids([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        assert rows(triangulate(g, 2)) == []

    def test_brute_force_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(4, 15))
            cents = rng.uniform(-20, 20, (n, 3))
            labels = rng.integers(6, 11, n).tolist()
            k = int(rng.integers(2, min(n, 8)))
            descs = rows(triangulate(graph_from_centroids(cents, labels), k))
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
            descs = rows(triangulate(graph_from_centroids(cents, labels), k))
            want = loop_triangulate(cents, labels, k)
            assert [d.id for d in descs] == list(range(len(want)))
            assert [(d.vertex_ids, d.labels) for d in descs] == [(v, lab) for v, _, lab in want]
            np.testing.assert_allclose([d.sides for d in descs], [s for _, s, _ in want],
                                       rtol=0, atol=1e-12)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(1)
        cents = rng.uniform(-10, 10, (8, 3))
        T = random_transform(rng)
        a = rows(triangulate(graph_from_centroids(cents), 4))
        b = rows(triangulate(graph_from_centroids(T.apply(cents)), 4))
        sa = sorted((frozenset(d.vertex_ids), tuple(np.round(d.sides, 6))) for d in a)
        sb = sorted((frozenset(d.vertex_ids), tuple(np.round(d.sides, 6))) for d in b)
        assert sa == sb

    def test_permutation_invariance(self):
        cents = np.array([[0.0, 0, 0], [3.0, 0, 0], [0.0, 4, 0]])
        labels = [7, 8, 9]
        got = set()
        for perm in itertools.permutations(range(3)):
            perm = list(perm)
            (d,) = rows(triangulate(graph_from_centroids(cents[perm],
                                                         [labels[i] for i in perm]), 2))
            got.add((d.sides, d.labels))
        # the 3-4-5 sides fix the vertex order: (3,0,0), (0,0,0), (0,4,0)
        assert got == {((3.0, 4.0, 5.0), (8, 7, 9))}


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


def stored_orders(index):
    """Per descriptor, the vertex orders its mask keeps, as tuples in ORDERS order."""
    return [[tuple(p) for p in ORDERS[mask].tolist()] for mask in index.order_mask]


def label_keys(index):
    """Per descriptor, its sorted labels, unpacked from its label code."""
    low = (1 << LABEL_BITS) - 1
    return [tuple((c >> s) & low for s in (2 * LABEL_BITS, LABEL_BITS, 0))
            for c in index.label_codes.tolist()]


class TestIndex:
    def test_stored_orders_match_written_out_rule(self):
        rng = np.random.default_rng(5)
        descs = [random_descriptor(rng, i) for i in range(20)]
        special = [((3.0, 3.0, 5.0), 2), ((3.0, 5.0, 5.0), 2), ((4.0, 4.0, 4.0), 6),
                   ((4.0, 4.0 + 4e-10, 4.0 + 8e-10), 6)]
        for sides, _ in special:
            descs.append(TriangleDescriptor(len(descs), (0, 1, 2), sides, (7, 7, 7)))
        index = build_index(descs, 0.5)
        orders, keys = stored_orders(index), label_keys(index)
        for d, d_orders in zip(descs, orders):
            assert list(d_orders) == ascending_orders(d.sides)
        assert [len(o) for o in orders[-len(special):]] == [n for _, n in special]
        assert keys == [tuple(sorted(d.labels)) for d in descs]

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

    def test_batched_equals_per_descriptor_lists(self):
        """One batched lookup equals the per-descriptor lists, concatenated with
        their rows: quarter-metre sides put many probes exactly delta_d away,
        and half the probes take labels drawn afresh, which mostly differ."""
        rng = np.random.default_rng(11)
        delta = 0.5
        sides = np.sort(np.round(rng.uniform(1, 10, (300, 3)) * 4) / 4, axis=1).tolist()
        labels = rng.choice([3, 6, 7], (300, 3)).tolist()
        descs = [TriangleDescriptor(i, (0, 1, 2), tuple(s), tuple(lab))
                 for i, (s, lab) in enumerate(zip(sides, labels))]
        index = build_index(descs, delta)
        probes = []
        for i in range(200):
            base = descs[int(rng.integers(len(descs)))]
            off = rng.choice([-delta, 0.0, delta], 3)
            labs = rng.permutation(base.labels) if i % 2 else rng.choice([3, 6, 7], 3)
            probes.append(TriangleDescriptor(i, (0, 1, 2),
                                             tuple(s + o for s, o in zip(base.sides, off)),
                                             tuple(labs.tolist())))
        want = [[row, cid] for row, q in enumerate(probes) for cid in query_index(index, q)]
        got = query_index(index, probes)
        assert got.dtype == np.int64 and got.shape == (len(want), 2)
        assert got.tolist() == want
        on_edge = [max(abs(a - b) for a, b in zip(probes[r].sides, descs[c].sides)) == delta
                   for r, c in want]
        assert sum(on_edge) > 20 and len({r for r, _ in want}) > 50

    @pytest.mark.parametrize("stored,probes", [(0, 2), (0, 0), (3, 0)],
                             ids=["empty-index", "empty-both", "no-probes"])
    def test_batched_empty(self, stored, probes):
        d = TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (7, 7, 7))
        got = query_index(build_index([d] * stored, 0.5), [d] * probes)
        assert got.dtype == np.int64 and got.shape == (0, 2)

    def test_label_codes_equal_exactly_for_equal_multisets(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 4, (60, 3))
        labels[:3] = [[0, 0, 1 << (LABEL_BITS - 1)], [0, 1 << (LABEL_BITS - 1), 0],
                      [(1 << LABEL_BITS) - 1] * 3]
        codes = label_codes(labels)
        keys = [tuple(sorted(row)) for row in labels.tolist()]
        for i in range(len(keys)):
            for j in range(len(keys)):
                assert (codes[i] == codes[j]) == (keys[i] == keys[j])
        assert (codes >= 0).all()
        assert label_codes([[0, 1, 1 << LABEL_BITS], [-1, 0, 0]]).tolist() == [-1, -1]

    def test_label_outside_code_range_refused(self):
        d = TriangleDescriptor(4, (0, 1, 2), (3.0, 4.0, 5.0), (7, 7, 1 << LABEL_BITS))
        # the index names a descriptor by its row, the id `query_index` returns
        with pytest.raises(ValidationError, match="descriptor 0: labels"):
            build_index([d], 0.5)
        stored = build_index([TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (7, 7, 7))],
                             0.5)
        assert query_index(stored, d) == []

    @pytest.mark.parametrize(
        "delta,count",
        [(0.0, 1), (0.0, 0), (-0.5, 1), (float("nan"), 1), (float("nan"), 0), (float("inf"), 1)],
        ids=["zero", "zero-empty", "negative", "nan", "nan-empty", "inf"],
    )
    def test_invalid_delta(self, delta, count):
        descs = [TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (7, 7, 7))][:count]
        with pytest.raises(ValidationError, match="delta_d"):
            build_index(descs, delta)

    def test_label_outside_code_range_in_file_rejected(self):
        """A stored instance label of 2**LABEL_BITS does not fit a label code:
        `load_index` refuses the triangle it labels with a ValidationError."""
        centroids = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        index = build_index(triangulate(graph_from_centroids(centroids), 2), 0.5)
        labels = np.array([7, 1 << LABEL_BITS, 7])
        with pytest.raises(ValidationError, match="descriptor 0: labels"):
            load_index(save_index(index)["vertex_ids"], centroids, labels, 0.5)

    def test_empty_index_returns_nothing(self):
        q = TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (7, 7, 7))
        assert query_index(build_index([], 0.5), q) == []

    def test_round_trip_bytes(self):
        """An index saved, loaded and saved again keeps its vertex ids byte for
        byte, and the loaded index equals the built one: labels and sides
        derived from the instance table, label codes, orders and tree."""
        rng = np.random.default_rng(4)
        centroids = rng.uniform(-30, 30, (12, 3))
        labels = rng.choice([6, 7, 8, 9], 12)
        index = build_index(triangulate(graph_from_centroids(centroids, labels), 4), 0.5)
        saved = save_index(index)
        assert sorted(saved) == ["vertex_ids"] and len(index.table) > 0
        again = load_index(saved["vertex_ids"], centroids, labels, 0.5)
        assert save_index(again)["vertex_ids"].tobytes() == saved["vertex_ids"].tobytes()
        assert again.delta_d == 0.5
        for part in ("vertex_ids", "labels", "sides"):
            got, want = getattr(again.table, part), getattr(index.table, part)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for part in ("label_codes", "order_mask"):
            assert np.array_equal(getattr(again, part), getattr(index, part))
        assert np.array_equal(again.tree.data, index.tree.data)

    @pytest.mark.parametrize("vertex_ids, says", [
        (np.array([[0, 1, 3]]), "int64 vertex_ids of shape (1, 3) from 0 to 3"),
        (np.array([[0, -1, 2]]), "int64 vertex_ids of shape (1, 3) from -1 to 2"),
        (np.array([0, 1, 2]), "int64 vertex_ids of shape (3,)"),
        (np.array([[0.0, 1.0, 2.0]]), "float64 vertex_ids of shape (1, 3)"),
        (np.array([[False, True, True]]), "bool vertex_ids of shape (1, 3)"),
    ], ids=["past-k", "negative", "one-row", "float", "bool"])
    def test_vertex_ids_not_rows_of_instances_refused(self, vertex_ids, says):
        """Stored vertex ids that are not an (n, 3) integer array in [0, K)
        are a ValidationError naming them."""
        centroids = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        with pytest.raises(ValidationError, match=r"vertex_ids must be an \(n, 3\) integer "
                                                  r"array in \[0, 3\)") as err:
            load_index(vertex_ids, centroids, np.full(3, 7), 0.5)
        assert f"it holds {says}" in str(err.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_side_refused(self, value):
        """A side that is not finite is a ValidationError in `build_index`, also
        when `load_index` derives it from a centroid that is not finite; the
        k-d tree would refuse it with a bare ValueError."""
        d = TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, value), (7, 7, 7))
        with pytest.raises(ValidationError, match="descriptor 0: sides .* must be finite"):
            build_index([d], 0.5)
        centroids = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        vertex_ids = save_index(build_index(triangulate(graph_from_centroids(centroids), 2),
                                            0.5))["vertex_ids"]
        centroids[2, 1] = value
        with pytest.raises(ValidationError, match="descriptor 0: sides .* must be finite"):
            load_index(vertex_ids, centroids, np.full(3, 7), 0.5)


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
    """Every (query, map) pair's W2^2, stability on, as the dense (query
    instance x map instance) table the match stage builds."""
    table = np.full((max(pops_query) + 1, max(pops_map) + 1), np.nan)
    for q in pops_query:
        for m in pops_map:
            table[q, m] = np.min(w2_squared(pops_query[q], pops_map[m], True))
    return table


def cands(*ids):
    """Coarse candidates of query row 0, as `query_index` stacks them."""
    return np.array([[0, cid] for cid in ids], dtype=np.int64).reshape(-1, 2)


class TestGsfFilter:
    def _setup(self, taxonomy):
        pops_map = {
            0: field_with_offset(taxonomy, 0.0, seed=1),
            1: field_with_offset(taxonomy, 0.1, seed=2),
            2: field_with_offset(taxonomy, 0.2, seed=3),
            3: field_with_offset(taxonomy, 3.0, seed=4),  # wildly different
        }
        pops_query = {i: pops_map[i][None] for i in range(3)}
        q = TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (4, 4, 4))
        same = TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (4, 4, 4))
        far = TriangleDescriptor(1, (0, 1, 3), (3.0, 4.0, 5.0), (4, 4, 4))
        index = build_index([same, far], 0.5)
        return q, index, pops_query, pops_map

    def test_identical_candidate_scores_zero_and_ranks_first(self, taxonomy):
        q, index, pq, pm = self._setup(taxonomy)
        cfg = SimilarityConfig(sigma_w=1.0, accept_threshold=10.0)
        out = gsf_filter(triangle_table([q]), cands(0, 1), index, w2_table(pq, pm), cfg)
        assert out.candidate_ids[0] == 0
        assert out.totals[0] < 1e-8
        assert all(abs(w - 1.0) < 1e-6 for w in out.omegas[0])

    def test_planted_outlier_filtered(self, taxonomy):
        q, index, pq, pm = self._setup(taxonomy)
        cfg = SimilarityConfig(sigma_w=1.0, accept_threshold=0.05)
        out = gsf_filter(triangle_table([q]), cands(0, 1), index, w2_table(pq, pm), cfg)
        assert out.candidate_ids.tolist() == [0]

    def test_tie_breaks_by_candidate_id(self, taxonomy):
        pop = field_with_offset(taxonomy, 0.0, seed=5)
        pm = {i: pop for i in range(6)}
        pq = {i: pop[None] for i in range(3)}
        q = TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (4, 4, 4))
        c1 = TriangleDescriptor(0, (0, 1, 2), (3.0, 4.0, 5.0), (4, 4, 4))
        c2 = TriangleDescriptor(1, (3, 4, 5), (3.0, 4.0, 5.0), (4, 4, 4))
        index = build_index([c1, c2], 0.5)
        out = gsf_filter(triangle_table([q]), cands(0, 1), index, w2_table(pq, pm),
                         SimilarityConfig(sigma_w=1.0, accept_threshold=10.0))
        assert out.candidate_ids.tolist() == [0, 1]  # equal scores: id order

    def test_equilateral_keeps_first_order_among_equal_totals(self, taxonomy):
        a = field_with_offset(taxonomy, 0.0, seed=1)
        b = field_with_offset(taxonomy, 0.3, seed=2)
        c = field_with_offset(taxonomy, 1.0, seed=4)
        q = TriangleDescriptor(0, (0, 1, 2), (4.0, 4.0, 4.0), (4, 4, 4))
        cand = TriangleDescriptor(0, (10, 11, 12), (4.0, 4.0, 4.0), (4, 4, 4))
        index = build_index([cand], 0.5)
        assert len(stored_orders(index)[0]) == 6
        cfg = SimilarityConfig(sigma_w=1.0, accept_threshold=100.0)
        # orders (0, 1, 2) and (1, 0, 2) score the same total: the first is kept
        pm = {10: a, 11: a, 12: c}
        pq = {0: a[None], 1: a[None], 2: c[None]}
        m = gsf_filter(triangle_table([q]), cands(0), index, w2_table(pq, pm), cfg)
        assert len(m) == 1 and m.pairs[0].tolist() == [[0, 10], [1, 11], [2, 12]]
        # a lower total under a later order wins
        pm = {10: a, 11: b, 12: c}
        pq = {0: b[None], 1: a[None], 2: c[None]}
        table = w2_table(pq, pm)
        m = gsf_filter(triangle_table([q]), cands(0), index, table, cfg)
        assert len(m) == 1 and m.pairs[0].tolist() == [[0, 11], [1, 10], [2, 12]]
        # the weights are those of the pairs taken, not of the first order
        assert m.omegas[0].tolist() == np.exp(-table[[0, 1, 2], [11, 10, 12]] / 2.0).tolist()

    def test_six_order_tie_keeps_first_order(self):
        """An equilateral candidate under a table W2[q, m] = f(q) + g(m) of
        dyadic values: all six order totals are the same float, so the first
        stored order, the identity, is kept; the per-vertex weights show which
        pairs were taken."""
        f, g = np.array([0.25, 0.5, 1.0]), np.array([0.125, 2.0, 4.0])
        table = np.full((3, 13), np.nan)
        table[:, 10:] = f[:, None] + g[None, :]
        q = TriangleDescriptor(0, (0, 1, 2), (4.0, 4.0, 4.0), (4, 4, 4))
        cand = TriangleDescriptor(0, (10, 11, 12), (4.0, 4.0, 4.0), (4, 4, 4))
        index = build_index([cand], 0.5)
        totals = {sum(table[k, 10 + p[k]] for k in range(3)) for p in ORDERS.tolist()}
        assert totals == {f.sum() + g.sum()}
        cfg = SimilarityConfig(sigma_w=1.0, accept_threshold=100.0)
        m = gsf_filter(triangle_table([q]), cands(0), index, table, cfg)
        assert len(m) == 1 and m.pairs[0].tolist() == [[0, 10], [1, 11], [2, 12]]
        assert m.totals[0] == f.sum() + g.sum()
        assert m.omegas[0].tolist() == np.exp(-(f + g) / 2.0).tolist()

    def test_plain_matches_equal_written_out_loop(self):
        """GSF off: every coarse candidate in `query_index` order, paired
        canonically, unit weights and zero totals; `np.array_equal` to a loop."""
        rng = np.random.default_rng(8)
        stored = [random_descriptor(rng, i, label_pool=(6, 7)) for i in range(60)]
        index = build_index(stored, 2.0)
        descs = [TriangleDescriptor(k, tuple(int(v) for v in rng.integers(0, 9, 3)), d.sides,
                                    d.labels) for k, d in enumerate(stored[:20])]
        cand = query_index(index, descs)
        got = plain_matches(triangle_table(descs), cand, index)
        loop = [(r, c, list(zip(descs[r].vertex_ids, stored[c].vertex_ids)))
                for r, c in cand.tolist()]
        assert len(got) == len(loop) > 20
        assert np.array_equal(got.rows, [r for r, _, _ in loop])
        assert np.array_equal(got.candidate_ids, [c for _, c, _ in loop])
        assert np.array_equal(got.pairs, np.array([p for _, _, p in loop], dtype=np.int64))
        assert np.array_equal(got.omegas, np.ones((len(loop), 3)))
        assert np.array_equal(got.totals, np.zeros(len(loop)))
        none = plain_matches(triangle_table(descs), cand[:0], index)
        assert len(none) == 0 and none.pairs.shape == (0, 3, 2)

    def test_pair_w2_zero_pairs(self, monkeypatch):
        """No pairs: an empty array back, and no `w2_squared` call."""
        monkeypatch.setattr(descriptors, "w2_squared", None)
        empty = np.zeros(0, dtype=np.int64)
        a, b, _ = planted_table(np.random.default_rng(30), g=4, d=2)
        out = pair_w2(empty, empty, a[:0], b[:0], True)
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_plain_matches_unit_omega(self, taxonomy):
        q, index, _, _ = self._setup(taxonomy)
        out = plain_matches(triangle_table([q]), cands(0, 1), index)
        assert len(out) == 2
        assert out.omegas.tolist() == [[1.0, 1.0, 1.0]] * 2


class TestPairW2Cut:
    """`pair_w2` scores only the (pair, yaw) members whose lower bound does not
    exceed a value already scored for the pair; every table value must still
    equal the unpruned minimum over yaws, bit for bit."""

    @pytest.mark.parametrize("chunk_pairs", [None, 5], ids=["one-chunk", "chunks-of-5"])
    @pytest.mark.parametrize("rank", [None, 3, 0], ids=["full-rank", "rank-3", "zero"])
    @pytest.mark.parametrize("use_stability", [False, True])
    def test_tight_members_equal_unpruned(self, monkeypatch, rank, use_stability, chunk_pairs):
        """Yaw members equal to their map population, or proportional to it
        with the same means (two of them tie), over full-rank, rank-3 and
        zero covariances."""
        a, b, (ia, ib) = planted_table(np.random.default_rng(31), rank=rank)
        if chunk_pairs is not None:
            monkeypatch.setattr(descriptors, "W2_CHUNK_BYTES", chunk_pairs * a.Sigma[0].nbytes)
        got = pair_w2(ia, ib, a, b, use_stability)
        want = [np.min(w2_squared(a[q], b[m], use_stability))
                for q, m in zip(ia.tolist(), ib.tolist())]
        assert np.array_equal(got, want)

    def test_nothing_to_skip(self, monkeypatch):
        """Every yaw member the same: no bound can exceed the pass-1 value, so
        pass 2 scores every other yaw of every pair, against every map
        population, and the values still match."""
        a, b, (ia, ib) = planted_table(np.random.default_rng(33), g=9)
        a = GpPopulation(a.grid, *(np.repeat(v[:, :1], 8, axis=1) for v in
                                   (a.mu, a.Sigma, a.stability_weights)))
        calls = []

        def counted(pop_a, pop_b, use_stability, pairs, roots=None):
            calls.append((len(pairs[0]), len(pop_b.mu)))
            return w2_squared(pop_a, pop_b, use_stability, pairs, roots)

        monkeypatch.setattr(descriptors, "w2_squared", counted)
        got = pair_w2(ia, ib, a, b, True)
        assert calls == [(12, 4), (12 * 7, 4)]
        want = [np.min(w2_squared(a[q], b[m], True))
                for q, m in zip(ia.tolist(), ib.tolist())]
        assert np.array_equal(got, want)
