"""Oracles as properties: W2, its scale law and the lower-bound cut of the
W2 table; the class-proportional draw of semantic sparsification; and a
damaged map bundle, refused or localizing.

Populations are drawn small (up to 5 grid points, 3 classes, 4 yaws) with
covariances of every rank from 0 to full, means that may coincide, and yaw
members planted where the lower bound is tight: equal to a map population,
or with a proportional covariance and the same means. Bundles are those of a
small 7-instance scene, with bits flipped in or the tail cut off one file.
The example sequence is fixed by the `gsfloc` settings profile in conftest.
"""

import functools
import hashlib
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsfloc import descriptors
from gsfloc.core import FormatError, default_taxonomy
from gsfloc.descriptors import pair_w2
from gsfloc.gsf import GpPopulation, semantic_sparsify
from gsfloc.pipeline import BUNDLE_FILES, build_map, load_map, localize, save_map
from gsfloc.synth import (
    InstanceTemplate,
    SceneSpec,
    generate_scene,
    sample_query_poses,
    simulate_scan,
)
from gsfloc.wasserstein import BOUND_SLACK, w2_lower_bound, w2_squared

from conftest import as_table

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


@functools.lru_cache(maxsize=1)
def _small_bundle() -> tuple[dict[str, bytes], object]:
    """The files of the map bundle of a 7-instance scene (seed 999) by name, and
    a scan of that scene that localizes on it."""
    taxonomy = default_taxonomy()
    spec = SceneSpec(extent=70, templates=[InstanceTemplate("pole", 3, 140),
                                           InstanceTemplate("car", 2, 260),
                                           InstanceTemplate("trunk", 2, 160)], seed=999)
    cloud, _ = generate_scene(spec, taxonomy)
    scan = simulate_scan(cloud, sample_query_poses(1, seed=4, half=10.0)[0], 40.0, 0.1, 0.02,
                         seed=5)
    with tempfile.TemporaryDirectory() as d:
        save_map(build_map(cloud, taxonomy), d)
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


@st.composite
def damaged_file(draw):
    """A bundle file's name and its bytes with 1 to 8 bits flipped, or cut short."""
    name = draw(st.sampled_from(sorted([*BUNDLE_FILES, "manifest.json"])))
    raw = bytearray(_small_bundle()[0][name])
    at = st.integers(0, len(raw) - 1)
    if draw(st.booleans()):
        del raw[draw(at):]
    else:
        for _ in range(draw(st.integers(1, 8))):
            raw[draw(at)] ^= 1 << draw(st.integers(0, 7))
    return name, bytes(raw)


def test_small_bundle_localizes():
    files, scan = _small_bundle()
    assert localize(scan, _load_changed("graph.json", files["graph.json"])).status == "success"


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


@pytest.mark.parametrize("name", ["manifest.json", "graph.json", "config.json"])
def test_bundle_json_not_utf8_refused(name):
    """A 0xff byte, never UTF-8, in a bundle's JSON file is a FormatError naming it."""
    raw = _small_bundle()[0][name]
    half = len(raw) // 2
    with pytest.raises(FormatError, match=rf"{name}: not a JSON document \('utf-8' codec"):
        _load_changed(name, raw[:half] + b"\xff" + raw[half:])
