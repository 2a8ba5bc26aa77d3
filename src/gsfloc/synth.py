"""Synthetic labeled-scene generation, scan simulation, and benchmark reporting.

Scenes are deterministic under their seed: instances (poles, trunks, signs,
cars, trucks) are placed with enough separation that ground-truth clustering
is unambiguous, on top of a road plane and vegetation blobs whose class
scores vary smoothly with position. The mirrored-twin mode creates two
congruent sub-areas (related by a 180-degree yaw isometry) whose instantiable
layout is identical and whose background logits differ by a configurable
perturbation magnitude. `SceneSpec` and `BenchmarkSpec`, the `synth` and
`evaluate` spec files, declare each field's type and bound for `core.read`;
`simulate_scan` and `sample_query_poses` hold their numbers to `QuerySpec`'s.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Annotated, Literal

import numpy as np

from .config import RunConfig
from .core import (FAR, Bound, Coordinate, GsflocError, LabelTaxonomy, NonNegative,
                   NonNegativeInt, PositiveInt, RigidTransform, SemanticPointCloud, Size,
                   ValidationError, as_dict, check_fields, default_taxonomy, field_of,
                   one_hot_logits, pose_error, read, rot_z)
from .pipeline import STAGES, build_map, localize

TIMING_KEYS = (*STAGES, "total")


class GenerationError(GsflocError):
    """Instance placement could not satisfy the separation constraint."""


_scene_field = field_of("scene spec")


# footprint xy radius per class, used to derive separation distances
_FOOTPRINT_RADIUS = {
    "pole": 0.2,
    "trunk": 0.4,
    "traffic-sign": 0.5,
    "car": 2.4,
    "truck": 3.9,
}


@dataclass
class InstanceTemplate:
    class_name: Literal[tuple(_FOOTPRINT_RADIUS)] = dc_field(metadata={"key": "class"})
    count: NonNegativeInt
    points_per_instance: PositiveInt = dc_field(default=150, metadata={"key": "points"})


@dataclass
class BackgroundSpec:
    road_points: NonNegativeInt = 4000
    vegetation_blobs: NonNegativeInt = 12
    vegetation_points_per_blob: NonNegativeInt = 350
    # length scale of the smooth class-score field; at 1e-308 its square, the
    # exponent's divisor, underflows to 0
    field_scale: Annotated[float, Bound(least=1e-3, most=FAR)] = 6.0
    # logit modulation on the nature channels
    score_amplitude: Size = 0.25


@dataclass
class SceneSpec:
    extent: Annotated[float, Bound(above=0, most=FAR)] = 80.0  # square, [-extent/2, extent/2]^2
    seed: NonNegativeInt = 0
    symmetry: Literal["none", "mirrored-twin"] = "none"
    # mean |class-score deviation| between twins
    twin_perturbation: Size = 0.0
    # one_hot_logits' range for the 12 classes of the default taxonomy
    confidence: Annotated[float, Bound(above=1 / 12, most=1)] = 0.9
    min_separation: NonNegative | None = None  # centroid spacing; derived when None
    templates: list[InstanceTemplate] = dc_field(default_factory=list,
                                                 metadata={"key": "instances"})
    background: BackgroundSpec = dc_field(default_factory=BackgroundSpec)

    def __post_init__(self):
        check_fields(self, _scene_field)

    def to_dict(self) -> dict:
        return as_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        return read(cls, d, _scene_field)


@dataclass
class QuerySpec:
    """The query scans of a benchmark spec; the scan helpers meet its bounds too."""

    count: Annotated[int, Bound(least=1)] = 20
    range_max: Annotated[float, Bound(above=0, no_limit=True)] = 60.0
    dropout: Annotated[float, Bound(least=0, below=1)] = 0.3
    noise_sigma: Size = 0.03
    # half-size of the square the poses are drawn in; None: a quarter of the extent
    region_half: Size | None = None
    z: Coordinate = 1.8

    def __post_init__(self):
        check_fields(self, field_of("query spec"))


@dataclass
class BenchmarkSpec:
    """An `evaluate` spec: the map scene, its query scans and the config."""

    map: SceneSpec
    queries: QuerySpec = dc_field(default_factory=QuerySpec)
    config: RunConfig = dc_field(default_factory=RunConfig)

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkSpec":
        return read(cls, d, field_of("benchmark spec"))


@dataclass
class GroundTruthInstance:
    label: int
    centroid: np.ndarray
    count: int


@dataclass
class TwinInfo:
    isometry: RigidTransform  # maps twin-1 coordinates onto twin 2
    center_1: np.ndarray
    center_2: np.ndarray
    half: float  # half-size of each twin's square region
    measured_deviation: float  # mean |class-score change| over twin-2 background


def _sample_box_surface(rng, n, lx, ly, lz):
    """n points on the faces of an lx x ly x lz box centred on the origin, each
    face drawn in proportion to its area."""
    dims = np.array([lx, ly, lz])
    areas = np.array([ly * lz, ly * lz, lx * lz, lx * lz, lx * ly, lx * ly])
    face = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=(n, 2))
    axis, row = face // 2, np.arange(n)
    others = np.array([[1, 2], [0, 2], [0, 1]])[axis]  # the two axes spanning each face
    pts = np.zeros((n, 3))
    pts[row, axis] = np.where(face % 2 == 0, 1.0, -1.0) * dims[axis] / 2.0
    pts[row[:, None], others] = u * dims[others]
    return pts


# upright solid cylinders (radius, height) and box shells (length, width,
# height, ground clearance), in meters
_CYLINDERS = {"pole": (0.15, 4.0), "trunk": (0.3, 3.0)}
_BOXES = {"car": (4.2, 1.8, 1.5, 0.3), "truck": (7.0, 2.5, 3.0, 0.4)}


def _cylinder(rng, n, radius, height):
    """n points filling an upright cylinder that stands on z=0 at the origin."""
    ang = rng.uniform(0, 2 * np.pi, n)
    rad = radius * np.sqrt(rng.uniform(0, 1, n))
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang), rng.uniform(0, height, n)])


def _instance_points(rng, class_name: str, n: int) -> np.ndarray:
    """Points of one instance in its own frame, standing on z=0."""
    if class_name in _CYLINDERS:
        return _cylinder(rng, n, *_CYLINDERS[class_name])
    if class_name == "traffic-sign":
        n_pole = max(1, int(0.4 * n))
        pole = _cylinder(rng, n_pole, 0.06, 2.3)
        n_plate = n - n_pole
        plate = np.column_stack([rng.uniform(-0.35, 0.35, n_plate),
                                 rng.uniform(-0.01, 0.01, n_plate),
                                 rng.uniform(2.3, 2.8, n_plate)])
        return np.vstack([pole, plate]) @ rot_z(rng.uniform(0, 2 * np.pi)).T
    if class_name in _BOXES:
        length, width, height, lift = _BOXES[class_name]
        pts = _sample_box_surface(rng, n, length, width, height)
        pts[:, 2] += lift + height / 2.0
        return pts @ rot_z(rng.uniform(0, 2 * np.pi)).T
    raise ValidationError(f"no footprint generator for class {class_name!r}")


def _place_instances(rng, spec: SceneSpec, taxonomy, center, half):
    """Rejection-sampled instance placement inside a square region."""
    max_thresh = 1.0
    placed: list[tuple[np.ndarray, float]] = []  # (xy, footprint radius)
    out = []  # (class id, xy position)
    for tpl in spec.templates:
        cid = taxonomy.id_of(tpl.class_name)
        fr = _FOOTPRINT_RADIUS[tpl.class_name]
        if tpl.count and half < fr:
            raise GenerationError(f"a {tpl.class_name} does not fit in the region; "
                                  f"enlarge the extent")
        if spec.min_separation is not None:
            required = lambda other_fr: spec.min_separation
        else:
            required = lambda other_fr: fr + other_fr + 2.0 * max_thresh + 0.5
        for _ in range(tpl.count):
            for _attempt in range(500):
                xy = center + rng.uniform(-half + fr, half - fr, size=2)
                if all(np.linalg.norm(xy - pxy) >= required(pfr) for pxy, pfr in placed):
                    break
            else:
                raise GenerationError(
                    f"could not place {tpl.class_name} after 500 attempts; "
                    f"reduce counts or enlarge the extent"
                )
            placed.append((xy, fr))
            out.append((cid, xy, tpl.class_name, tpl.points_per_instance))
    return out


def _smooth_field(rng, center, half, scale, n_bumps=8):
    """Random smooth scalar field over a square region: sum of signed bumps."""
    centers = center + rng.uniform(-half, half, size=(n_bumps, 2))
    amps = rng.uniform(0.5, 1.0, n_bumps) * rng.choice([-1.0, 1.0], n_bumps)

    def evaluate(xy: np.ndarray) -> np.ndarray:
        d2 = ((xy[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        return (np.exp(-d2 / (2.0 * scale**2)) * amps).sum(axis=1)

    return evaluate


def _generate_region(rng, spec: SceneSpec, taxonomy, center, half):
    """Points, intended labels, logits, and ground truth for one region."""
    road_id = taxonomy.id_of("road")
    veg_id = taxonomy.id_of("vegetation")
    terrain_id = taxonomy.id_of("terrain")
    d = taxonomy.num_classes

    chunks, labels, gt = [], [], []

    for cid, xy, cname, n_pts in _place_instances(rng, spec, taxonomy, center, half):
        pts = _instance_points(rng, cname, n_pts)
        pts[:, :2] += xy
        chunks.append(pts)
        labels.append(np.full(n_pts, cid))
        gt.append(GroundTruthInstance(cid, pts.mean(axis=0), n_pts))

    bg = spec.background
    if bg.road_points > 0:
        road = np.column_stack(
            [
                center[0] + rng.uniform(-half, half, bg.road_points),
                center[1] + rng.uniform(-half, half, bg.road_points),
                np.zeros(bg.road_points),
            ]
        )
        chunks.append(road)
        labels.append(np.full(bg.road_points, road_id))

    for _ in range(bg.vegetation_blobs):
        c = center + rng.uniform(-half, half, size=2)
        n = bg.vegetation_points_per_blob
        xy = c + rng.normal(0, 2.0, size=(n, 2))
        z = np.clip(np.abs(rng.normal(0, 1.0, n)), 0, 2.5)
        chunks.append(np.column_stack([xy, z]))
        labels.append(np.full(n, veg_id))

    points = np.vstack(chunks) if chunks else np.zeros((0, 3))
    labels = np.concatenate(labels).astype(np.int64) if labels else np.zeros(0, np.int64)
    bg_mask = np.isin(labels, (road_id, veg_id))  # no instance class is a background one

    logits = one_hot_logits(labels, d, spec.confidence) if points.shape[0] else np.zeros((0, d))
    if points.shape[0] and bg.score_amplitude > 0:
        fld = _smooth_field(rng, center, half, bg.field_scale)
        s = fld(points[:, :2])
        logits[:, veg_id] += bg.score_amplitude * s
        logits[:, terrain_id] -= bg.score_amplitude * s
    return points, labels, logits, bg_mask, gt


def generate_scene(
    spec: SceneSpec, taxonomy: LabelTaxonomy | None = None
) -> tuple[SemanticPointCloud, list[GroundTruthInstance]]:
    """Build a labeled scene; dispatches to the mirrored-twin generator."""
    if spec.symmetry == "mirrored-twin":
        cloud, gt, _ = generate_mirrored_twin(spec, taxonomy)
        return cloud, gt
    taxonomy = taxonomy or default_taxonomy()
    rng = np.random.default_rng(spec.seed)
    center = np.zeros(2)
    half = spec.extent / 2.0
    points, labels, logits, _, gt = _generate_region(rng, spec, taxonomy, center, half)
    final_labels = np.argmax(logits, axis=1) if points.shape[0] else labels
    return SemanticPointCloud(points, final_labels, logits), gt


def generate_mirrored_twin(
    spec: SceneSpec, taxonomy: LabelTaxonomy | None = None
) -> tuple[SemanticPointCloud, list[GroundTruthInstance], TwinInfo]:
    """Two congruent sub-areas: twin 2 is twin 1 mapped through a 180-degree
    yaw isometry, with its background class scores perturbed by
    `twin_perturbation` (mean absolute per-point deviation)."""
    if spec.symmetry != "mirrored-twin":
        raise ValidationError("spec.symmetry must be 'mirrored-twin'")
    taxonomy = taxonomy or default_taxonomy()
    veg_id = taxonomy.id_of("vegetation")
    rng = np.random.default_rng(spec.seed)

    half = spec.extent / 4.0  # each twin occupies one half of the scene
    c1 = np.array([-spec.extent / 4.0 - 2.0, 0.0])
    iso = RigidTransform(rot_z(np.pi), np.zeros(3))
    c2 = -c1

    pts1, labels1, logits1, bg1, gt1 = _generate_region(rng, spec, taxonomy, c1, half)
    pts2 = iso.apply(pts1)
    logits2 = logits1.copy()

    measured = 0.0
    if spec.twin_perturbation > 0 and bg1.any():
        pattern_f = _smooth_field(rng, c2, half, scale=4.0, n_bumps=10)
        p = pattern_f(pts2[bg1, :2])
        mean_abs = np.mean(np.abs(p))
        if mean_abs <= 0:
            raise GenerationError("degenerate perturbation pattern")
        p = p / mean_abs
        logits2[bg1, veg_id] += spec.twin_perturbation * p
        measured = float(np.mean(np.abs(spec.twin_perturbation * p)))

    points = np.vstack([pts1, pts2])
    logits = np.vstack([logits1, logits2])
    labels = np.argmax(logits, axis=1)
    gt2 = [
        GroundTruthInstance(g.label, iso.apply(g.centroid.reshape(1, 3))[0], g.count)
        for g in gt1
    ]
    info = TwinInfo(iso, np.append(c1, 0.0), np.append(c2, 0.0), half, measured)
    return SemanticPointCloud(points, labels, logits), gt1 + gt2, info


def simulate_scan(
    scene: SemanticPointCloud,
    sensor_pose: RigidTransform,
    range_max: float,
    dropout_rate: float = 0.0,
    noise_sigma: float = 0.0,
    seed=0,
) -> SemanticPointCloud:
    """Range-limited omnidirectional scan expressed in the sensor frame."""
    QuerySpec(range_max=range_max, dropout=dropout_rate, noise_sigma=noise_sigma)  # checks them
    rng = np.random.default_rng(seed)
    dist = np.linalg.norm(scene.points - sensor_pose.t, axis=1)
    keep = np.nonzero(dist <= range_max)[0]
    if dropout_rate > 0:
        keep = keep[rng.random(keep.size) >= dropout_rate]
    pts = scene.points[keep]
    if noise_sigma > 0:
        pts = pts + rng.normal(0, noise_sigma, size=pts.shape)
    pts = sensor_pose.inverse().apply(pts)
    logits = None if scene.logits is None else scene.logits[keep]
    return SemanticPointCloud(pts, scene.labels[keep], logits)


def sample_query_poses(count: int, seed, center=(0.0, 0.0), half: float = 20.0, z: float = 1.8):
    """Random sensor poses (position + yaw) inside a square region of half-size
    `half` around `center`, two numbers within FAR. `half` must be a number:
    a spec's None, a quarter of the extent, is resolved by the caller."""
    QuerySpec(count=count, region_half=half, z=z)  # checks them
    if half is None:
        raise ValidationError("half must be a number, got None; a spec's None means a quarter "
                              "of the scene extent, which the caller resolves")
    center = read(list[Coordinate], np.asarray(center, dtype=object).tolist(),
                  lambda path: f"center{path}")
    if len(center) != 2:
        raise ValidationError(f"center must be two numbers, got {center}")
    rng = np.random.default_rng(seed)
    poses = []
    for _ in range(count):
        xy = np.asarray(center) + rng.uniform(-half, half, size=2)
        yaw = rng.uniform(0, 2 * np.pi)
        poses.append(RigidTransform(rot_z(yaw), np.array([xy[0], xy[1], z])))
    return poses


# ---------------------------------------------------------------------------
# Benchmark reporting
# ---------------------------------------------------------------------------


@dataclass
class QueryRow:
    index: int
    seed: int
    gt_pose: RigidTransform
    status: str
    est_pose: RigidTransform | None
    trans_err: float  # nan when no pose
    rot_err: float
    success: bool
    clique_size: int
    inlier_count: int
    timings_ms: dict[str, float]


@dataclass
class EvalReport:
    rows: list[QueryRow]
    aggregates: dict

    @staticmethod
    def compute_aggregates(rows: list[QueryRow]) -> dict:
        n = len(rows)
        succ = [r for r in rows if r.success]
        agg = {
            "queries": n,
            "successes": len(succ),
            "success_rate": (len(succ) / n) if n else 0.0,
        }
        if succ:
            te = np.array([r.trans_err for r in succ])
            re = np.array([r.rot_err for r in succ])
            agg.update(
                mean_ate=float(te.mean()),
                mean_are=float(re.mean()),
                p50_ate=float(np.percentile(te, 50)),
                p90_ate=float(np.percentile(te, 90)),
                p50_are=float(np.percentile(re, 50)),
                p90_are=float(np.percentile(re, 90)),
            )
        else:
            agg.update(
                mean_ate=None, mean_are=None, p50_ate=None, p90_ate=None,
                p50_are=None, p90_are=None,
            )
        return agg

    @classmethod
    def from_rows(cls, rows: list[QueryRow]) -> "EvalReport":
        return cls(rows, cls.compute_aggregates(rows))

    def to_csv(self, include_timings: bool = True) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        header = [
            "index", "seed", "status", "success", "trans_err", "rot_err",
            "clique_size", "inlier_count", "gt_pose", "est_pose",
        ]
        if include_timings:
            header += [f"t_{k}_ms" for k in TIMING_KEYS]
        w.writerow(header)
        for r in self.rows:
            row = [
                r.index,
                r.seed,
                r.status,
                int(r.success),
                repr(float(r.trans_err)),
                repr(float(r.rot_err)),
                r.clique_size,
                r.inlier_count,
                " ".join(repr(float(v)) for v in r.gt_pose.matrix_3x4().ravel()),
                (
                    " ".join(repr(float(v)) for v in r.est_pose.matrix_3x4().ravel())
                    if r.est_pose is not None
                    else ""
                ),
            ]
            if include_timings:
                row += [repr(float(r.timings_ms.get(k, 0.0))) for k in TIMING_KEYS]
            w.writerow(row)
        return buf.getvalue()

    def write_csv(self, path, include_timings: bool = True) -> None:
        Path(path).write_text(self.to_csv(include_timings=include_timings))


def run_benchmark(
    map_spec: SceneSpec,
    query_poses: list[RigidTransform],
    config,
    taxonomy: LabelTaxonomy | None = None,
    range_max: float = 60.0,
    dropout_rate: float = 0.3,
    noise_sigma: float = 0.03,
) -> EvalReport:
    """Build the map once, localize one simulated scan per pose."""
    taxonomy = taxonomy or default_taxonomy()
    scene, _ = generate_scene(map_spec, taxonomy)
    ref = build_map(scene, taxonomy, config)

    rows = []
    for i, pose in enumerate(query_poses):
        scan_seed = map_spec.seed * 100003 + i
        scan = simulate_scan(scene, pose, range_max, dropout_rate, noise_sigma, scan_seed)
        t0 = time.perf_counter()
        result = localize(scan, ref, config)
        total_ms = (time.perf_counter() - t0) * 1e3
        timings = dict(result.timings_ms)
        timings["total"] = total_ms
        if result.pose is not None:
            te, re_ = pose_error(result.pose, pose)
        else:
            te, re_ = float("nan"), float("nan")
        success = (
            result.status == "success"
            and te <= config.pipeline.success_trans_m
            and re_ <= config.pipeline.success_rot_deg
        )
        rows.append(
            QueryRow(
                i, scan_seed, pose, result.status, result.pose, te, re_,
                bool(success), result.clique_size, result.inlier_count, timings,
            )
        )
    return EvalReport.from_rows(rows)
