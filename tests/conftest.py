import numpy as np
import pytest

from gsfloc.core import RigidTransform, default_taxonomy
from gsfloc.gsf import GpPopulation
from gsfloc.synth import InstanceTemplate, SceneSpec


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


def stack_pops(pops) -> GpPopulation:
    """The populations as one stack: every array gains a leading member axis."""
    return GpPopulation(*(np.stack(arrays) for arrays in zip(
        *((p.grid, p.mu, p.Sigma, p.stability_weights) for p in pops))))


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


@pytest.fixture(scope="session")
def taxonomy():
    return default_taxonomy()
