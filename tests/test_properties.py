"""Oracles as properties: W2, its scale law and the lower-bound cut of the
W2 table; the class-proportional draw of semantic sparsification; the exact
max clique against brute force and networkx; a yaw stack against its
single-yaw probes; a damaged map bundle, refused or localizing; clouds
from empty to non-finite through `build_map` and `localize`; an edge
value in each spec field and config key, refused by name or run; and the
query path's array idioms against the numpy forms they replaced: the voxel
dedup, the triangle dedup, the coarse lookup, a fit below its budget and the
first non-finite row of a cloud or a triangle table.

Populations are drawn small (up to 5 grid points, 3 classes, 4 yaws) with
covariances of every rank from 0 to full, means that may coincide, and yaw
members planted where the lower bound is tight: equal to a map population,
or with a proportional covariance and the same means. Bundles are those of a
small 7-instance scene, with bits flipped in or the tail cut off one file.
The example sequence is fixed by the `gsfloc` settings profile in conftest.
"""

import dataclasses
import functools
import hashlib
import io
import json
import tempfile
import typing
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.spatial.distance import pdist, squareform
from hypothesis import example, given
from hypothesis import strategies as st

from gsfloc import descriptors, gsf
from gsfloc.config import GridSection, RunConfig
from gsfloc.core import (FormatError, SemanticPointCloud, ValidationError, default_taxonomy,
                         one_hot_logits)
from gsfloc.descriptors import pair_w2
from gsfloc.gsf import (
    GpHyperParams,
    GpPopulation,
    fit_gsf,
    grid_probe,
    matern32_matrix,
    semantic_sparsify,
)
from gsfloc.matching import ConsistencyGraph, Correspondence, brute_force_max_clique, max_clique
from gsfloc.pipeline import (
    BUNDLE_FILES,
    BuildError,
    build_map,
    load_map,
    localize,
    save_map,
    voxel_downsample,
)
from gsfloc.scene_graph import SceneGraph
from gsfloc.synth import (
    BackgroundSpec,
    BenchmarkSpec,
    GenerationError,
    InstanceTemplate,
    QuerySpec,
    SceneSpec,
    generate_scene,
    sample_query_poses,
    simulate_scan,
)
from gsfloc.wasserstein import BOUND_SLACK, w2_lower_bound, w2_squared

from conftest import as_table, dotted_fields, small_scene_spec

GRID = st.integers(1, 5)
CLASSES = st.integers(1, 3)
VALUE = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def covariance(draw, g, definite=False):
    """F F^T for a drawn (g, rank) factor, of any rank (0 included), at a drawn
    scale; plus a ridge when `definite`."""
    rank = draw(st.integers(0, g))
    f = np.array(draw(st.lists(VALUE, min_size=g * rank, max_size=g * rank))).reshape(g, rank)
    scale = draw(st.sampled_from([1e-2, 1.0, 1e2]))
    S = scale * (f @ f.T)
    S = 0.5 * (S + S.T)
    if definite:
        S += draw(st.floats(0.1, 2.0)) * np.eye(g)
    return S


@st.composite
def population(draw, g, d, definite=False):
    mu = np.array(draw(st.lists(VALUE, min_size=g * d, max_size=g * d))).reshape(g, d)
    mu *= draw(st.sampled_from([0.0, 1e-3, 1.0]))
    w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=g, max_size=g)))
    return GpPopulation(np.zeros((g, 3)), mu, draw(covariance(g, definite)), w)


@st.composite
def table(draw):
    """Query yaw stacks and map populations on one grid, with tight members
    planted, as the two tables `pair_w2` reads: (pops_query, pops_map)."""
    g, d = draw(GRID), draw(CLASSES)
    yaws = draw(st.integers(1, 4))
    pops_map = [draw(population(g, d)) for _ in range(draw(st.integers(1, 3)))]
    pops_query = []
    for _ in range(draw(st.integers(1, 3))):
        stack = as_table([draw(population(g, d)) for _ in range(yaws)])
        for _ in range(draw(st.integers(0, 2))):
            y, m = draw(st.integers(0, yaws - 1)), draw(st.sampled_from(list(range(len(pops_map)))))
            scale = draw(st.sampled_from([1.0, 0.0, 0.25, 4.0]))
            b = pops_map[m]
            stack.mu[y], stack.stability_weights[y] = b.mu, b.stability_weights
            stack.Sigma[y] = scale * b.Sigma
        pops_query.append(stack)
    return as_table(pops_query), as_table(pops_map)


def _slack(g: int) -> float:
    return BOUND_SLACK * g ** 1.5


def _all_pairs(pops_query, pops_map):
    qids, mids = np.meshgrid(range(len(pops_query.mu)), range(len(pops_map.mu)), indexing="ij")
    return qids.ravel(), mids.ravel()


@st.composite
def two_populations(draw):
    g, d = draw(GRID), draw(CLASSES)
    definite = draw(st.booleans())
    return draw(population(g, d, definite)), draw(population(g, d, definite)), definite


@given(two_populations(), st.booleans())
def test_w2_nonnegative_zero_on_itself_symmetric(pops, use_stability):
    """W2^2 >= 0; W2^2(A, A) = 0 and W2^2(A, B) = W2^2(B, A), within 1e-9 of
    the pair's scale (mean term + Tr S_A + Tr S_B) when both covariances are
    positive definite. A rank-deficient covariance puts exact zero
    eigenvalues under the clamp at 0, whose rounding the root amplifies, so
    there the tolerance is the rounding slack `w2_lower_bound` takes off."""
    a, b, definite = pops
    g = a.Sigma.shape[0]
    tol = 1e-9 if definite else _slack(g)
    ab, ba, aa = (w2_squared(x, y, use_stability) for x, y in [(a, b), (b, a), (a, a)])
    scale = np.sum((a.mu - b.mu) ** 2) + np.trace(a.Sigma) + np.trace(b.Sigma)
    assert ab >= 0.0 and ba >= 0.0
    assert aa <= tol * 2.0 * np.trace(a.Sigma)
    assert abs(ab - ba) <= tol * scale


@given(two_populations(), st.booleans(), st.floats(-6.0, 8.0))
def test_w2_scales_with_the_square_of_the_scale(pops, use_stability, exponent):
    """Means scaled by c and covariances by c^2 scale W2^2 by c^2, for c from
    1e-6 to 1e8, within the rounding slack of `w2_lower_bound` at the scaled
    pair's scale: its (weighted) mean term plus its (masked) traces. The
    covariances are exactly symmetric, so no scale gets them refused as
    asymmetric."""
    a, b, _ = pops
    c = 10.0 ** exponent
    sa, sb = (GpPopulation(p.grid, c * p.mu, (c * c) * p.Sigma, p.stability_weights)
              for p in (a, b))
    assert np.array_equal(sa.Sigma, sa.Sigma.T) and np.array_equal(sb.Sigma, sb.Sigma.T)
    want = (c * c) * w2_squared(a, b, use_stability)
    got = w2_squared(sa, sb, use_stability)
    w_a, w_b = (p.stability_weights if use_stability else 1.0 for p in (a, b))
    scale = (np.sum(np.sum((sa.mu - sb.mu) ** 2, axis=-1) * np.sqrt(w_a * w_b))
             + np.sum(np.diag(sa.Sigma) * w_a) + np.sum(np.diag(sb.Sigma) * w_b))
    assert abs(got - want) <= _slack(a.Sigma.shape[0]) * scale


@given(table(), st.booleans())
def test_bound_below_value_on_every_member(tab, use_stability):
    """`w2_lower_bound` never exceeds the W2^2 `w2_squared` computes for the
    same (pair, yaw) member."""
    pops_query, pops_map = tab
    qids, mids = _all_pairs(pops_query, pops_map)
    args = (pops_query, pops_map, use_stability, (qids, mids))
    bound, value = w2_lower_bound(*args), w2_squared(*args)
    assert bound.shape == value.shape
    assert np.all(bound <= value)


@given(table(), st.booleans(), st.integers(1, 9))
def test_pair_w2_equals_unpruned_minimum(tab, use_stability, chunk_pairs):
    """`pair_w2` equals the min over yaws of every member's W2^2, bit for bit,
    with the pairs split into chunks of `chunk_pairs`."""
    pops_query, pops_map = tab
    qids, mids = _all_pairs(pops_query, pops_map)
    want = [np.min(w2_squared(pops_query[q], pops_map[m], use_stability))
            for q, m in zip(qids.tolist(), mids.tolist())]
    chunk_bytes = descriptors.W2_CHUNK_BYTES
    descriptors.W2_CHUNK_BYTES = chunk_pairs * pops_query[0].Sigma.nbytes
    try:
        got = pair_w2(qids, mids, pops_query, pops_map, use_stability)
    finally:
        descriptors.W2_CHUNK_BYTES = chunk_bytes
    assert np.array_equal(got, want)


@st.composite
def consistency_graph(draw, most: int, densest: float, weights=(1.0,)):
    """A graph of 1 to `most` nodes, each edge present with a drawn probability
    of at most `densest`, and node weights drawn from `weights`."""
    # sampled, not drawn as numbers, so that sizes and densities spread evenly
    n = draw(st.sampled_from(range(1, most + 1)))
    density = draw(st.sampled_from(np.linspace(0.0, densest, 9).tolist()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = np.triu(rng.random((n, n)) < density, 1)
    omegas = draw(st.lists(st.sampled_from(weights), min_size=n, max_size=n))
    nodes = [Correspondence(i, i, w, 1) for i, w in enumerate(omegas)]
    return ConsistencyGraph(nodes, adj | adj.T, 1.0)


@given(consistency_graph(25, 0.8, weights=(0.25, 0.5, 1.0)))
def test_max_clique_equals_brute_force(graph):
    """`max_clique` picks the clique the exhaustive oracle picks, on up to 25
    nodes. Dyadic weights from three values make size ties common and sum
    ties exact, so the sum and the lexicographic tie-breaks both decide."""
    assert max_clique(graph) == brute_force_max_clique(graph)


@given(consistency_graph(60, 0.7))
def test_max_clique_size_equals_networkx(graph):
    """The clique's size is networkx's maximum clique size, on up to 60 nodes
    at a density of at most 0.7, and it is a clique."""
    import networkx as nx

    got = max_clique(graph)
    g = nx.from_numpy_array(graph.adjacency.astype(np.int64))
    clique, size = nx.max_weight_clique(g, weight=None)
    assert len(got) == size == len(clique)
    assert all(graph.adjacency[a, b] for a in got for b in got if a != b)


@functools.lru_cache(maxsize=1)
def _small_scene():
    """A 7-instance scene (seed 999) and its map under the defaults."""
    spec = SceneSpec(extent=70, templates=[InstanceTemplate("pole", 3, 140),
                                           InstanceTemplate("car", 2, 260),
                                           InstanceTemplate("trunk", 2, 160)], seed=999)
    cloud, _ = generate_scene(spec, default_taxonomy())
    return cloud, build_map(cloud, default_taxonomy())


@functools.lru_cache(maxsize=1)
def _small_bundle() -> tuple[dict[str, bytes], object]:
    """The files of the small scene's map bundle by name, and a scan of that
    scene that localizes on it."""
    cloud, ref = _small_scene()
    scan = simulate_scan(cloud, sample_query_poses(1, seed=4, half=10.0)[0], 40.0, 0.1, 0.02,
                         seed=5)
    with tempfile.TemporaryDirectory() as d:
        save_map(ref, d)
        return {f.name: f.read_bytes() for f in Path(d).iterdir()}, scan


def _load_changed(name: str, raw: bytes):
    """`load_map` of the small bundle with file `name` replaced by `raw` and,
    for any file but the manifest, its new hash in the manifest."""
    files = dict(_small_bundle()[0])
    files[name] = raw
    if name != "manifest.json":
        manifest = json.loads(files["manifest.json"])
        manifest["files"][name] = hashlib.sha256(raw).hexdigest()
        files["manifest.json"] = json.dumps(manifest).encode()
    with tempfile.TemporaryDirectory() as d:
        for n, data in files.items():
            (Path(d) / n).write_bytes(data)
        return load_map(d)


def _sparsify_loop(labels, budget, seed):
    """Semantic sparsification's per-class draw, written out: every class, in
    ascending order, draws round(n_c / m * budget) of its points, at most all,
    from one generator; the kept indices ascending."""
    m = len(labels)
    rng = np.random.default_rng(seed)
    keep = []
    for c in np.unique(labels):
        idx = np.nonzero(labels == c)[0]
        n_c = min(int(np.rint(idx.size / m * budget)), idx.size)
        if n_c == 0:
            continue
        keep.append(rng.choice(idx, size=n_c, replace=False))
    return np.sort(np.concatenate(keep)) if keep else np.zeros(0, dtype=np.int64)


@st.composite
def labelled_points(draw):
    """m labels from 1 to 12 distinct class ids at drawn frequencies."""
    classes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(classes),
                                     max_size=len(classes))))
    m = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(classes)[rng.choice(len(classes), size=m, p=weights / weights.sum())]


@given(labelled_points(), st.integers(1, 600), st.integers(0, 2**31 - 1))
def test_sparsify_equals_per_class_loop(labels, budget, seed):
    """The kept indices are those of the written-out loop, index for index, with
    a budget below, at or above the point count: above, nothing is drawn."""
    got = semantic_sparsify(labels, budget, [seed, 7])
    assert np.array_equal(got, _sparsify_loop(labels, budget, [seed, 7]))


def _flipped(draw, raw: bytes) -> bytes:
    """`raw` with 1 to 8 bits flipped."""
    raw = bytearray(raw)
    for _ in range(draw(st.integers(1, 8))):
        raw[draw(st.integers(0, len(raw) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(raw)


@st.composite
def damaged_file(draw):
    """A bundle file's name and its bytes with 1 to 8 bits flipped, or cut
    short; or map.npz zipped again with bits flipped in one of its members,
    which passes the zip's checksums and reaches the arrays' own checks."""
    name = draw(st.sampled_from(sorted([*BUNDLE_FILES, "manifest.json"])))
    raw = _small_bundle()[0][name]
    if name == "map.npz" and draw(st.booleans()):
        with zipfile.ZipFile(io.BytesIO(raw)) as z:
            members = {n: z.read(n) for n in z.namelist()}
        member = draw(st.sampled_from(sorted(members)))
        members[member] = _flipped(draw, members[member])
        out = io.BytesIO()
        with zipfile.ZipFile(out, "w", zipfile.ZIP_DEFLATED) as z:
            for n, data in members.items():
                z.writestr(n, data)
        return name, out.getvalue()
    if draw(st.booleans()):
        return name, raw[:draw(st.integers(0, len(raw) - 1))]
    return name, _flipped(draw, raw)


def test_small_bundle_localizes():
    files, scan = _small_bundle()
    assert localize(scan, _load_changed("map.npz", files["map.npz"])).status == "success"


@given(damaged_file())
def test_damaged_bundle_refused_or_localizes(damage):
    """A bundle with one file damaged and the manifest hash rewritten is refused
    with a FormatError, or loads a map on which the scan ends in a documented
    status. No other exception escapes."""
    try:
        ref = _load_changed(*damage)
    except FormatError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fewer than 3 instances, fields lacking
        status = localize(_small_bundle()[1], ref).status
    assert status in ("success", "no-match", "degenerate")


@pytest.mark.parametrize("name", ["manifest.json", "config.json"])
def test_bundle_json_not_utf8_refused(name):
    """A 0xff byte, never UTF-8, in a bundle's JSON file is a FormatError naming it."""
    raw = _small_bundle()[0][name]
    half = len(raw) // 2
    with pytest.raises(FormatError, match=rf"{name}: not a JSON document \('utf-8' codec"):
        _load_changed(name, raw[:half] + b"\xff" + raw[half:])


def _rows(cloud, keep) -> SemanticPointCloud:
    return SemanticPointCloud(cloud.points[keep], cloud.labels[keep], cloud.logits[keep])


def _poles_on_a_line(_) -> SemanticPointCloud:
    """Seven poles of one shape, mirrored in y, on the x axis over a road: their
    centroids share y and z bit for bit, so every triangle of them is collinear."""
    taxonomy, rng = default_taxonomy(), np.random.default_rng(5)
    ang, rad = rng.uniform(0, np.pi, 70), 0.15 * np.sqrt(rng.uniform(0, 1, 70))
    shape = np.column_stack([rad * np.cos(ang), rad * np.sin(ang), rng.uniform(0, 4, 70)])
    shape = np.vstack([shape, shape * [1, -1, 1]])
    road = np.column_stack([rng.uniform(-10, 55, 500), rng.uniform(-10, 10, 500), np.zeros(500)])
    points = np.vstack([shape + [x, 0, 0] for x in (0, 6, 13, 21, 28, 36, 45)] + [road])
    labels = np.repeat([taxonomy.id_of("pole"), taxonomy.id_of("road")], [7 * 140, 500])
    return SemanticPointCloud(points, labels, one_hot_logits(labels, taxonomy.num_classes))


def _non_finite(cloud, part: str, value: float) -> SemanticPointCloud:
    points, logits = cloud.points.copy(), cloud.logits.copy()
    (points if part == "points" else logits)[17, 1] = value
    return SemanticPointCloud(points, cloud.labels, logits)


def _first_pole(cloud) -> int:
    return int(np.flatnonzero(cloud.labels == default_taxonomy().id_of("pole"))[0])


# each cloud, made from the small scene's, and what `build_map` and `localize`
# make of it today: the build (a refusal or the map's triangle count), then
# the status of the cloud as a query against the small scene's map and
# against its own map, if it built
_CLOUDS = {
    "empty": (lambda c: _rows(c, []), ["BuildError: map has 0 instances", "no-match"]),
    "single-point": (lambda c: _rows(c, [_first_pole(c)]),
                     ["BuildError: map has 0 instances", "no-match"]),
    "one-location": (lambda c: _rows(c, np.full(300, _first_pole(c))),
                     ["BuildError: map has 1 instances", "no-match"]),
    "background-only": (lambda c: _rows(c, ~np.isin(c.labels,
                                                   default_taxonomy().instantiable_ids())),
                        ["BuildError: map has 0 instances", "no-match"]),
    "duplicated-points": (lambda c: _rows(c, np.repeat(np.arange(c.n), 2)),
                          ["35 triangles", "success", "success"]),
    "collinear-poles": (_poles_on_a_line,
                        ["BuildError: map has no non-degenerate triangle", "no-match"]),
    "shifted-9e5": (lambda c: SemanticPointCloud(c.points + [9e5, -9e5, 0], c.labels, c.logits),
                    ["35 triangles", "success", "success"]),
    "nan-coordinate": (lambda c: _non_finite(c, "points", np.nan),
                       ["ValidationError: point 17 has a non-finite coordinate"]),
    "inf-logit": (lambda c: _non_finite(c, "logits", np.inf),
                  ["ValidationError: point 17 has a non-finite logit"]),
    # finite logits, argmax unchanged, whose W2 table would pass sim.sigma_w's
    # bound (x 1e100) or overflow (x 1e160)
    "logits-x1e100": (lambda c: SemanticPointCloud(c.points, c.labels, c.logits * 1e100),
                      ["ValidationError: point 0 has a logit beyond +-1e+06"]),
    "logits-x1e160": (lambda c: SemanticPointCloud(c.points, c.labels, c.logits * 1e160),
                      ["ValidationError: point 0 has a logit beyond +-1e+06"]),
}


@pytest.mark.parametrize("use_gsf", [True, False], ids=["gsf", "plain"])
@pytest.mark.parametrize("case", list(_CLOUDS))
def test_cloud_builds_or_ends_documented(case, use_gsf):
    """An empty cloud, one point, one location, background classes only,
    duplicated points, collinear poles, a cloud 9e5 m from the origin, a
    non-finite coordinate or logit and logits scaled past their bound: each
    cloud is refused with a
    ValidationError, or `build_map` raises BuildError or builds a map, and as a
    query it ends in a documented status, against the small scene's map and
    against its own. Nothing else is raised, and no RuntimeWarning appears.
    The outcomes are pinned as they are today."""
    make, want = _CLOUDS[case]
    cfg = RunConfig()
    cfg.pipeline.use_gsf_filter = use_gsf
    got = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # fewer than 3 instances, failed fits
        try:
            cloud = make(_small_scene()[0])
        except ValidationError as e:
            got.append(f"ValidationError: {e}")
        else:
            try:
                ref = build_map(cloud, default_taxonomy(), cfg)
                got.append(f"{len(ref.index.table)} triangles")
            except BuildError as e:
                ref = None
                got.append(f"BuildError: {str(e).split(';')[0]}")
            for on in (_small_scene()[1], ref):
                if on is not None:
                    res = localize(cloud, on, cfg)
                    assert res.status in ("success", "no-match", "degenerate")
                    got.append(res.status)
    assert got == want


# a small scene, plain and as mirrored twins, with queries over all of it
_SPECS = [SceneSpec(extent=40.0, seed=3, templates=[InstanceTemplate("pole", 2, 30),
                                                    InstanceTemplate("car", 1, 60)],
                    background=BackgroundSpec(road_points=150, vegetation_blobs=2,
                                              vegetation_points_per_blob=20))]
_SPECS.append(dataclasses.replace(_SPECS[0], symmetry="mirrored-twin", twin_perturbation=0.3))
_ANY = ["x", True, None, 2.5]
_EDGES = {float: [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, 1e308, 1e-308, *_ANY],
          int: [-1, 0, *_ANY], str: _ANY}


def _kind(hint):
    """float, int or str: which of `_EDGES` a field of this type is set to."""
    kind = float if hint is float or float in typing.get_args(hint) else hint
    return kind if kind in (float, int) else str


def _spec_fields():
    """Every field of a scene spec, of its background and of its first instance,
    and of the queries object: (its path in a benchmark spec, its name as the
    reader gives it, and float, int or str for a choice of names)."""
    for cls, at, prefix in [(SceneSpec, ["map"], "map"),
                            (BackgroundSpec, ["map", "background"], "map.background"),
                            (InstanceTemplate, ["map", "instances", 0], "map.instances[0]"),
                            (QuerySpec, ["queries"], "queries")]:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            hint, key = hints[f.name], f.metadata.get("key", f.name)
            if not (dataclasses.is_dataclass(hint) or typing.get_origin(hint) is list):
                yield at + [key], f"{prefix}.{key}", _kind(hint)


@pytest.mark.parametrize("path, name, kind", list(_spec_fields()),
                         ids=[name for _, name, _ in _spec_fields()])
@given(st.data())
def test_spec_field_refused_or_generates(path, name, kind, data):
    """A spec field set to NaN, an infinity, 0, -1, the largest or the smallest
    double, a string, a boolean, null or 2.5 (floats), or to -1 or 0 (integers),
    is refused by the reader with a ValidationError naming it; or the scene
    generates, or raises GenerationError, and every query pose gives a scan.
    Nothing else is raised, and no RuntimeWarning appears."""
    doc = {"map": data.draw(st.sampled_from(_SPECS)).to_dict(), "queries": {"count": 2}}
    functools.reduce(lambda d, k: d[k], path[:-1], doc)[path[-1]] = data.draw(
        st.sampled_from(_EDGES[kind]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            spec = BenchmarkSpec.from_dict(doc)
        except ValidationError as e:
            assert f"benchmark spec field {name} " in str(e)
            return
        try:
            scene, _ = generate_scene(spec.map)
        except GenerationError:
            assert path[0] == "map"
            return
        q = spec.queries
        half = spec.map.extent / 4.0 if q.region_half is None else q.region_half
        for i, pose in enumerate(sample_query_poses(q.count, [spec.map.seed, 1], half=half,
                                                    z=q.z)):
            simulate_scan(scene, pose, q.range_max, q.dropout, q.noise_sigma, seed=i)


# a grid just over the cap: 52 x 5 = 260 points against the default other side
_OVER_CAP = {"gsf.grid.nx": [52], "gsf.grid.ny": [52]}


@functools.lru_cache(maxsize=1)
def _seed31_scene():
    """The small seed-31 scene and one 30 m scan of it, which localizes with an
    8-member clique under the defaults."""
    scene, _ = generate_scene(small_scene_spec(seed=31))
    pose = sample_query_poses(1, seed=7, half=15.0)[0]
    return scene, simulate_scan(scene, pose, 30.0, 0.3, 0.03, seed=42)


_maps, _runs = {}, {}


def _build_and_localize(cfg):
    """Build the seed-31 map under `cfg` and localize the scan on it; the map is
    shared by configs that differ only in query keys, the run by equal configs."""
    doc = cfg.to_dict()
    run_key = json.dumps(doc, sort_keys=True)
    if run_key not in _runs:
        scene, scan = _seed31_scene()
        map_key = json.dumps([doc["gsf"], doc["cluster"], doc["index"], doc["pipeline"]["seed"]],
                             sort_keys=True)
        if map_key not in _maps:
            _maps[map_key] = build_map(scene, default_taxonomy(), cfg)
        ref = _maps[map_key]
        fitted = ref.populations[ref.fitted]
        assert all(np.isfinite(a).all() for a in (fitted.mu, fitted.Sigma,
                                                   fitted.stability_weights))
        res = localize(scan, ref, cfg)
        assert res.status in ("success", "no-match", "degenerate")
        assert res.pose is None or np.isfinite(res.pose.matrix_3x4()).all()
        _runs[run_key] = res.status
    return _runs[run_key]


@pytest.mark.parametrize("key, kind", [(k, _kind(h)) for k, h in dotted_fields(RunConfig)],
                         ids=[k for k, _ in dotted_fields(RunConfig)])
@given(st.data())
def test_config_key_refused_or_localizes(key, kind, data):
    """A config key set to NaN, an infinity, 0, -1, the largest or the smallest
    double, a string, a boolean, null or 2.5 (floats), or to -1 or 0 (integers),
    and nx or ny to 52 (over the grid cap against the other's 5), by `--set` or
    on the object, is refused with a ValidationError naming it: by the reader,
    or by `build_map` or `localize` on entry. Otherwise the small seed-31 scene
    builds with finite populations and weights and the scan localizes to a
    documented status. Nothing else is raised, and no RuntimeWarning appears."""
    value = data.draw(st.sampled_from(_EDGES[kind] + _OVER_CAP.get(key, [])))
    cfg = RunConfig()
    *section, name = key.split(".")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # failed fits, too few triangles
        try:
            if data.draw(st.booleans(), label="by --set"):
                cfg.apply_overrides([f"{key}={json.dumps(value)}"])
            else:
                setattr(functools.reduce(getattr, section, cfg), name, value)
            _build_and_localize(cfg)
        except ValidationError as e:
            assert key in str(e)


@functools.lru_cache(maxsize=1)
def _random_field():
    rng = np.random.default_rng(19)
    return fit_gsf(rng.uniform(-6, 6, (60, 3)), rng.normal(size=(60, 12)),
                   rng.integers(0, 12, 60), GpHyperParams(), 60, 0)


@st.composite
def probe_grid_section(draw):
    """A grid of at most the cap's 256 points."""
    nx = draw(st.integers(1, 256))
    return GridSection(nx, draw(st.integers(1, 256 // nx)),
                       draw(st.sampled_from([0.3, 2.5, 7.0])),
                       draw(st.sampled_from([0.3, 2.5, 7.0])),
                       draw(st.sampled_from(["local-zero", -1.5, 0.4])))


@st.composite
def yaw_set(draw):
    """1 to 8 yaws drawn from up to 4, so that some repeat; right angles,
    multiples of pi/2 from -2 pi to 2 pi, are drawn as often as other yaws."""
    right_angles = st.sampled_from([k * np.pi / 2 for k in range(-4, 5)])
    pool = draw(st.lists(st.one_of(right_angles, st.floats(-2 * np.pi, 2 * np.pi)),
                         min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


@given(probe_grid_section(), yaw_set())
def test_stacked_probe_equals_single_probes(grid, yaws):
    """A yaw stack's members equal the single-yaw probes of their yaws within
    1e-12, as in TestYawReuse, for a grid under the cap."""
    field, taxonomy = _random_field(), default_taxonomy()
    stack = grid_probe(field, taxonomy, grid, yaws)
    singles = {yaw: grid_probe(field, taxonomy, grid, yaw) for yaw in set(yaws)}
    for k, yaw in enumerate(yaws):
        one = singles[yaw]
        for name in ("grid", "mu", "Sigma", "stability_weights"):
            assert np.abs(getattr(stack, name)[k] - getattr(one, name)).max() < 1e-12


# The query path's array idioms against the numpy forms they replaced, each
# written out here as the reference.


@st.composite
def voxel_cloud(draw):
    """1 to 60 points drawn from up to 8 sites on both sides of the origin, so
    that many share a voxel, some a site, and each point's label is its index;
    with the voxel side."""
    sites = draw(st.lists(st.tuples(*[st.floats(-40.0, 40.0)] * 3), min_size=1, max_size=8))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.0, 0.1, 1.0]))
    points = np.array(sites)[rng.integers(0, len(sites), n)] + rng.uniform(-spread, spread,
                                                                          (n, 3))
    return SemanticPointCloud(points, np.arange(n)), draw(st.sampled_from([0.2, 0.5, 3.0]))


@given(voxel_cloud())
@example((SemanticPointCloud(np.array([[-3.7, -0.1, -12.0]]), [0]), 0.5))
def test_voxel_keeps_lowest_index_per_voxel(case):
    """`voxel_downsample` keeps, in index order, each voxel's lowest index, as
    `np.unique`'s stable sort of the voxel keys gives it: duplicate voxels,
    negative coordinates and a single point included."""
    cloud, voxel = case
    cells = np.floor(cloud.points / voxel).astype(np.int64)
    cells -= cells.min(axis=0)
    spans = cells.max(axis=0) + 1
    key = (cells[:, 0] * spans[1] + cells[:, 1]) * spans[2] + cells[:, 2]
    want = np.sort(np.unique(key, return_index=True)[1])
    got = voxel_downsample(cloud, voxel)
    assert np.array_equal(got.labels, want) and np.array_equal(got.points, cloud.points[want])


def _triangulate_axis0(graph, k_neighbors):
    """`descriptors.triangulate` with its rows deduplicated by `np.unique(axis=0)`."""
    dist = squareform(pdist(graph.centroids))
    away = dist.copy()
    np.fill_diagonal(away, np.inf)
    n, k = len(graph), min(k_neighbors, len(graph) - 1)
    nearest = np.argsort(away, axis=1, kind="stable")[:, :k]
    b, c = np.triu_indices(k, 1)
    tris = np.sort(np.column_stack([np.repeat(np.arange(n), b.size), nearest[:, b].ravel(),
                                    nearest[:, c].ravel()]), axis=1)
    tris = tris[np.sort(np.unique(tris, axis=0, return_index=True)[1])]
    verts = tris[:, descriptors.ORDERS]
    sides = dist[verts, tris[:, descriptors._NEXT]]
    fits = descriptors._ascending(sides)
    rows, pick = np.arange(len(tris)), np.argmax(fits, axis=1)
    verts, sides = verts[rows, pick], sides[rows, pick]
    keep = fits[rows, pick] & (sides[:, 0] + sides[:, 1] - sides[:, 2]
                               > descriptors.DEGENERACY_SLACK)
    return verts[keep], graph.labels[verts[keep]], sides[keep]


@st.composite
def lattice_graph(draw):
    """3 to 14 instances on a small integer lattice, so that centroids
    coincide and distances tie, with up to 3 labels; and a neighbour count."""
    n = draw(st.integers(3, 14))
    cells = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 1)),
                          min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    graph = SceneGraph(np.array(cells, dtype=np.float64), np.array(labels, dtype=np.int64),
                       [np.zeros(0, dtype=np.int64)] * n)
    return graph, draw(st.integers(2, 8))


@given(lattice_graph())
def test_triangle_rows_equal_axis0_dedup(case):
    """`triangulate`'s one-int64-key dedup gives the table that deduplicating
    the sorted rows with `np.unique(axis=0)` gives, row for row, with
    coincident centroids and tied distances."""
    graph, k = case
    table = descriptors.triangulate(graph, k)
    for got, want in zip((table.vertex_ids, table.labels, table.sides),
                         _triangulate_axis0(graph, k)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def quarter_metre_tables(draw):
    """A map and a query triangle table, each of 0 to 30 rows, with sides on a
    quarter-metre lattice, so that many sides lie exactly delta_d apart, and
    labels from 0 to 2; with delta_d."""
    def table(rows):
        sides = draw(st.lists(st.tuples(*[st.integers(0, 12)] * 3), min_size=rows,
                              max_size=rows))
        labels = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=rows,
                               max_size=rows))
        return descriptors.TriangleTable(np.zeros((rows, 3), dtype=np.int64),
                                         np.array(labels, dtype=np.int64).reshape(-1, 3),
                                         0.25 * np.array(sides, dtype=np.float64).reshape(-1, 3))
    n_map, n_query = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    return table(n_map), table(n_query), draw(st.sampled_from([0.25, 0.5, 1.0]))


@given(quarter_metre_tables())
def test_query_index_equals_chebyshev_scan(case):
    """The coarse lookup's (row, candidate id) array is the linear scan's: every
    pair within delta_d on each side, the boundary included, whose label
    multisets are equal, sorted by row, then id; empty tables included."""
    mtab, qtab, delta_d = case
    index = descriptors.build_index(mtab, delta_d)
    within = (np.abs(qtab.sides[:, None] - mtab.sides[None]) <= delta_d).all(axis=2)
    same = (np.sort(qtab.labels, axis=1)[:, None] == np.sort(mtab.labels, axis=1)[None]).all(2)
    want = np.argwhere(within & same)
    got = descriptors.query_index(index, qtab)
    assert got.dtype == np.int64 and got.shape == (len(want), 2)
    assert np.array_equal(got, want)


@given(st.integers(1, 40), st.sampled_from([0.0, 0.1]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_fit_below_budget_factor_equals_cho_factor(m, sigma_y, twice, seed):
    """A fit that keeps fewer than `budget` points, its kernel written through a
    block of the module's larger mask, has the factor of `cho_factor` of the
    full K = k(X, X) + (sigma_y^2 + jitter) I in its lower triangle and zeros
    above it; duplicated points with sigma_y 0 need the jitter."""
    gsf._upper(64)  # the shared mask is larger than any fit drawn here
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, (m, 3))
    if twice:
        X[m // 2:] = X[: m - m // 2]
    hyper = GpHyperParams(1.7, sigma_y)
    fld = fit_gsf(X, rng.normal(size=(m, 3)), rng.integers(0, 3, m), hyper, 64, 0)
    K = matern32_matrix(fld.X, fld.X, 1.7)
    K[np.diag_indices_from(K)] += sigma_y**2 + fld.jitter
    with gsf._one_blas_thread:
        want = np.tril(cho_factor(K, lower=True)[0])
    assert fld.m == m and np.array_equal(fld.factor, want)


@st.composite
def non_finite_rows(draw):
    """1 to 40 rows of width 1 to 4 with a non-finite entry in row k and in
    some later rows; returns (array, k)."""
    n, width = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    k = draw(st.integers(0, n - 1))
    a = np.array(draw(st.lists(VALUE, min_size=n * width, max_size=n * width))).reshape(n, width)
    bad = st.sampled_from([np.nan, np.inf, -np.inf])
    a[k, draw(st.integers(0, width - 1))] = draw(bad)
    for row in draw(st.lists(st.integers(k, n - 1), max_size=3)):
        a[row, draw(st.integers(0, width - 1))] = draw(bad)
    return a, k


@given(non_finite_rows())
def test_first_non_finite_row_named(case):
    """A non-finite value in row k, and perhaps in later rows, is reported at
    row k: as a point's coordinate, as its logit, and as a descriptor's side."""
    a, k = case
    n = len(a)
    points = np.zeros((n, 3))
    points[:, :min(3, a.shape[1])] = a[:, :3]
    if not np.isfinite(points[k]).all():
        with pytest.raises(ValidationError, match=f"^point {k} has a non-finite coordinate$"):
            SemanticPointCloud(points, np.zeros(n))
    with pytest.raises(ValidationError, match=f"^point {k} has a non-finite logit$"):
        SemanticPointCloud(np.zeros((n, 3)), np.zeros(n), a)
    sides = np.ones((n, 3))
    sides[:, :min(3, a.shape[1])] = a[:, :3]
    if not np.isfinite(sides[k]).all():
        table = descriptors.TriangleTable(np.zeros((n, 3), dtype=np.int64),
                                          np.zeros((n, 3), dtype=np.int64), sides)
        with pytest.raises(ValidationError, match=f"^descriptor {k}: sides .* must be finite$"):
            descriptors.build_index(table, 0.5)
