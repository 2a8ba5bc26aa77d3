import numpy as np
import pytest
from hypothesis import settings

from gsfloc.core import RigidTransform, SemanticPointCloud, default_taxonomy, one_hot_logits, rot_z
from gsfloc.gsf import GpPopulation
from gsfloc.synth import InstanceTemplate, SceneSpec

# property tests: a fixed example sequence and a bounded count keep tier-1
# deterministic and short, and nothing is written to an example database; no
# deadline, since a first call pays numpy's warm-up
settings.register_profile("gsfloc", derandomize=True, max_examples=40, deadline=None,
                          database=None)
settings.load_profile("gsfloc")


def random_rotation(rng) -> np.ndarray:
    """Uniform-ish random rotation via QR with sign fix."""
    A = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1
    return Q


def random_transform(rng, t_scale=10.0) -> RigidTransform:
    return RigidTransform(random_rotation(rng), rng.uniform(-t_scale, t_scale, 3))


def small_scene_spec(seed=11, extent=80.0) -> SceneSpec:
    return SceneSpec(
        extent=extent,
        templates=[
            InstanceTemplate("pole", 6, 140),
            InstanceTemplate("trunk", 4, 160),
            InstanceTemplate("traffic-sign", 3, 120),
            InstanceTemplate("car", 5, 260),
            InstanceTemplate("truck", 2, 320),
        ],
        seed=seed,
    )


def twin_scene_spec(seed, perturbation) -> SceneSpec:
    return SceneSpec(
        extent=100.0,
        templates=[
            InstanceTemplate("pole", 3, 140),
            InstanceTemplate("trunk", 2, 160),
            InstanceTemplate("traffic-sign", 2, 120),
            InstanceTemplate("car", 2, 260),
        ],
        symmetry="mirrored-twin",
        twin_perturbation=perturbation,
        seed=seed,
    )


def pole_line_scene(taxonomy):
    """Six poles on the x axis (150 points each, 0.15 m radius, 4 m tall) over
    3,000 road points, with one-hot logits; and the same cloud moved by yaw
    0.7 rad and (3, -2, 0) m. The pole centroids are collinear up to a spread
    ratio under 0.01, so the rotation about their line is not determined: a
    solve on this draw lands metres off."""
    rng = np.random.default_rng(3)
    chunks, labels = [], []
    for x in (0.0, 7.0, 15.0, 26.0, 34.0, 45.0):
        ang = rng.uniform(0, 2 * np.pi, 150)
        rad = 0.15 * np.sqrt(rng.uniform(0, 1, 150))
        chunks.append(np.column_stack([x + rad * np.cos(ang), rad * np.sin(ang),
                                       rng.uniform(0, 4.0, 150)]))
        labels += [taxonomy.id_of("pole")] * 150
    chunks.append(np.column_stack([rng.uniform(-10, 55, 3000), rng.uniform(-10, 10, 3000),
                                   np.zeros(3000)]))
    labels += [taxonomy.id_of("road")] * 3000
    points, labels = np.vstack(chunks), np.array(labels)
    logits = one_hot_logits(labels, taxonomy.num_classes)
    moved = RigidTransform(rot_z(0.7), np.array([3.0, -2.0, 0.0]))
    return (SemanticPointCloud(points, labels, logits),
            SemanticPointCloud(moved.apply(points), labels, logits))


def as_table(pops) -> GpPopulation:
    """Populations as one table, member i row i, each array stacked along a new
    leading axis; the table shares the first member's grid."""
    return GpPopulation(pops[0].grid, *(np.stack([getattr(p, f) for p in pops])
                                        for f in ("mu", "Sigma", "stability_weights")))


def planted_table(rng, g=25, d=12, yaws=8, rank=None):
    """Three query yaw stacks and four map populations (covariances of rank
    `rank`, full if None), with yaw members planted where the lower bound is
    tight: equal to a map population, and proportional to one with the same
    means. Returns (A table, B table, pairs over every (query, map) pair)."""
    def cov(n):
        f = rng.normal(size=(n, g, g if rank is None else rank))
        S = f @ np.swapaxes(f, -1, -2) / g
        return 0.5 * (S + np.swapaxes(S, -1, -2))

    b = GpPopulation(np.zeros((g, 3)), rng.normal(size=(4, g, d)), cov(4),
                     rng.uniform(0.1, 1.0, (4, g)))
    a = GpPopulation(np.zeros((g, 3)), rng.normal(size=(3, yaws, g, d)),
                     cov(3 * yaws).reshape(3, yaws, g, g), rng.uniform(0.1, 1.0, (3, yaws, g)))
    for q, y, m, c in [(0, 1, 2, 1.0), (1, yaws - 1, 0, 0.25), (2, 0, 3, 4.0), (2, 2, 3, 0.0)]:
        y %= yaws
        a.mu[q, y], a.stability_weights[q, y] = b.mu[m], b.stability_weights[m]
        a.Sigma[q, y] = c * b.Sigma[m]
    ia, ib = (np.ravel(v) for v in np.meshgrid(range(3), range(4), indexing="ij"))
    return a, b, (ia, ib)


@pytest.fixture(scope="session")
def taxonomy():
    return default_taxonomy()
