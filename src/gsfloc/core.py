"""Core geometric/semantic types, binary point-cloud IO, and pose-error metrics.

File formats
------------
points  : raw little-endian float32, x,y,z interleaved (12 bytes per point)
labels  : raw little-endian uint32, low 16 bits = class id
logits  : 16-byte header (magic b"GSFL", u32 N, u32 D, u32 reserved) followed
          by N*D little-endian float32, row-major
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LOGITS_MAGIC = b"GSFL"
LABEL_CLASS_MASK = 0xFFFF


class GsflocError(Exception):
    """Base class for all library errors."""


class FormatError(GsflocError):
    """Malformed or truncated input file."""


class ValidationError(GsflocError):
    """Input violates a documented invariant."""


# ---------------------------------------------------------------------------
# Taxonomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassInfo:
    name: str
    instantiable: bool
    stability: float  # in (0, 1]; 0.1 volatile, 0.5 short-term, 1.0 long-term


class LabelTaxonomy:
    """Mapping from class id to (name, instantiable flag, stability value); the
    ids are 0..D-1, the logit columns of a cloud's class scores."""

    def __init__(self, classes: dict[int, ClassInfo]):
        if sorted(classes) != list(range(len(classes))):
            raise ValidationError(
                f"taxonomy class ids must be 0..{len(classes) - 1}, one per logit column; "
                f"got {sorted(classes)}"
            )
        for cid, info in classes.items():
            if not (0.0 < info.stability <= 1.0):
                raise ValidationError(
                    f"stability for class {cid} ({info.name}) must be in (0,1], "
                    f"got {info.stability}"
                )
        self._classes = dict(sorted(classes.items()))
        self._by_name = {info.name: cid for cid, info in self._classes.items()}

    @property
    def num_classes(self) -> int:
        return len(self._classes)

    def ids(self) -> list[int]:
        return list(self._classes.keys())

    def name(self, class_id: int) -> str:
        return self._classes[class_id].name

    def id_of(self, name: str) -> int:
        return self._by_name[name]

    def stability(self, class_id: int) -> float:
        return self._classes[class_id].stability

    def is_instantiable(self, class_id: int) -> bool:
        return self._classes[class_id].instantiable

    def instantiable_ids(self) -> list[int]:
        return [c for c, i in self._classes.items() if i.instantiable]

    def stability_vector(self) -> np.ndarray:
        """Stability value per class id, indexed 0..num_classes-1."""
        return np.array([info.stability for info in self._classes.values()])

    def to_dict(self) -> dict:
        return {
            str(cid): {
                "name": i.name,
                "instantiable": i.instantiable,
                "stability": i.stability,
            }
            for cid, i in self._classes.items()
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LabelTaxonomy":
        """The inverse of `to_dict`; anything else is refused with ValidationError."""
        if not isinstance(d, dict) or not d:
            raise ValidationError("taxonomy must be a non-empty object of class records")
        classes = {}
        for cid, v in d.items():
            rec = v if isinstance(v, dict) else {}
            if not (str(cid).isdecimal() and isinstance(rec.get("name"), str)
                    and isinstance(rec.get("instantiable"), bool)
                    and type(rec.get("stability")) in (int, float)):
                raise ValidationError(
                    f"taxonomy class {cid!r} needs an integer id, a name, "
                    "an instantiable flag and a numeric stability"
                )
            classes[int(cid)] = ClassInfo(rec["name"], rec["instantiable"], float(rec["stability"]))
        return cls(classes)


def default_taxonomy() -> LabelTaxonomy:
    """12-class urban taxonomy used by the synthetic benchmarks.

    Class ids are contiguous 0..11 and double as logit column indices.
    """
    return LabelTaxonomy(
        {
            0: ClassInfo("road", False, 1.0),
            1: ClassInfo("sidewalk", False, 1.0),
            2: ClassInfo("building", False, 1.0),
            3: ClassInfo("fence", False, 1.0),
            4: ClassInfo("vegetation", False, 0.5),
            5: ClassInfo("terrain", False, 0.5),
            6: ClassInfo("trunk", True, 0.5),
            7: ClassInfo("pole", True, 1.0),
            8: ClassInfo("traffic-sign", True, 1.0),
            9: ClassInfo("car", True, 0.5),
            10: ClassInfo("truck", True, 0.1),
            11: ClassInfo("person", False, 0.1),
        }
    )


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------


@dataclass
class SemanticPointCloud:
    """Points with per-point class labels and optional class-score logits.

    Treated as immutable after construction; all operations return new clouds.
    """

    points: np.ndarray  # (N,3) float64, meters
    labels: np.ndarray  # (N,) int32 class ids
    logits: np.ndarray | None = None  # (N,D) float64

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.labels = np.asarray(self.labels, dtype=np.int32).reshape(-1)
        if self.labels.shape[0] != self.points.shape[0]:
            raise ValidationError(
                f"labels count {self.labels.shape[0]} does not match point count "
                f"{self.points.shape[0]}"
            )
        finite = np.isfinite(self.points).all(axis=1)
        if not finite.all():
            raise ValidationError(f"point {int(np.argmin(finite))} has a non-finite coordinate")
        if self.logits is not None:
            self.logits = np.asarray(self.logits, dtype=np.float64)
            if self.logits.ndim != 2 or self.logits.shape[0] != self.points.shape[0]:
                raise ValidationError(
                    f"logits shape {self.logits.shape} does not match point count "
                    f"{self.points.shape[0]}"
                )
            finite = np.isfinite(self.logits).all(axis=1)
            if not finite.all():
                raise ValidationError(f"point {int(np.argmin(finite))} has a non-finite logit")
            if self.n > 0:
                pred = np.argmax(self.logits, axis=1)  # first max = lowest class id
                bad = np.nonzero(pred != self.labels)[0]
                if bad.size:
                    i = int(bad[0])
                    raise ValidationError(
                        f"label/logit argmax mismatch at index {i}: label "
                        f"{int(self.labels[i])}, argmax {int(pred[i])}"
                    )

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def num_classes(self) -> int | None:
        return None if self.logits is None else self.logits.shape[1]


def one_hot_logits(labels: np.ndarray, num_classes: int, confidence: float = 0.9) -> np.ndarray:
    """Synthesize logits with `confidence` on the labeled class, remainder uniform."""
    labels = np.asarray(labels, dtype=np.int64)
    d = int(num_classes)
    if d < 1:
        raise ValidationError("num_classes must be >= 1")
    if labels.size and (labels.min() < 0 or labels.max() >= d):
        raise ValidationError(
            f"label {int(labels.max())} out of range for num_classes={d}"
        )
    if d == 1:
        return np.full((labels.shape[0], 1), confidence)
    if not (1.0 / d < confidence <= 1.0):
        raise ValidationError(
            f"confidence {confidence} must lie in (1/{d}, 1] to keep argmax consistent"
        )
    rest = (1.0 - confidence) / (d - 1)
    out = np.full((labels.shape[0], d), rest)
    out[np.arange(labels.shape[0]), labels] = confidence
    return out


def _read_exact(path, dtype, item_bytes, what):
    p = Path(path)
    if not p.exists():
        raise FormatError(f"{what} file not found: {p}")
    raw = p.read_bytes()
    if len(raw) % item_bytes != 0:
        raise FormatError(
            f"{what} file {p}: expected a multiple of {item_bytes} bytes, got {len(raw)}"
        )
    return np.frombuffer(raw, dtype=dtype)


def read_json(path, what: str, error: type[GsflocError] = FormatError):
    """The JSON document in a UTF-8 file. Text that is not UTF-8 or does not
    parse is `error`, its message led by `what`, which names the file."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except json.JSONDecodeError as e:
        raise error(f"{what} line {e.lineno}: {e.msg} (column {e.colno})") from e
    except (ValueError, RecursionError) as e:  # not UTF-8, too long an integer, too deep
        raise error(f"{what}: not a JSON document ({e})") from e


def sha256_file(path) -> str:
    """Hex sha256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class NpzArrays(dict):
    """The arrays of one .npz file by name; asking for a missing one is a FormatError."""

    def __init__(self, path, arrays: dict):
        super().__init__(arrays)
        self.path = path

    def __missing__(self, key):
        raise FormatError(f"npz file {self.path}: array {key!r} missing")


def load_npz(path) -> NpzArrays:
    """Every array of an .npz file, read at once.

    A file that does not read as an npz archive, whatever numpy's reader
    raises for it, or a float array holding a NaN or an infinity, is a
    FormatError naming the file.
    """
    try:
        with np.load(path) as buf:
            arrays = {k: buf[k] for k in buf.files}
    # a damaged archive raises many kinds: BadZipFile, zlib.error, NotImplementedError
    # (compression method), TokenError and SyntaxError (array header), ...
    except Exception as e:
        raise FormatError(f"npz file {path}: unreadable ({e})") from e
    for k, a in arrays.items():
        if a.dtype.kind == "f" and not np.all(np.isfinite(a)):
            raise FormatError(f"npz file {path}: array {k!r} holds non-finite values")
    return NpzArrays(path, arrays)


def load_cloud(
    points_path,
    labels_path,
    logits_path=None,
    num_classes: int | None = None,
    confidence: float = 0.9,
) -> SemanticPointCloud:
    """Load a semantic cloud from the raw binary formats.

    When `logits_path` is omitted, one-hot logits are synthesized from the
    labels (`num_classes` defaults to max(label)+1).
    """
    pts = _read_exact(points_path, "<f4", 12, "points").reshape(-1, 3).astype(np.float64)
    n = pts.shape[0]

    raw_labels = _read_exact(labels_path, "<u4", 4, "labels")
    if raw_labels.shape[0] != n:
        raise FormatError(
            f"labels file {labels_path}: expected {4 * n} bytes for {n} points, "
            f"got {4 * raw_labels.shape[0]}"
        )
    labels = (raw_labels & LABEL_CLASS_MASK).astype(np.int32)

    if logits_path is not None:
        p = Path(logits_path)
        if not p.exists():
            raise FormatError(f"logits file not found: {p}")
        raw = p.read_bytes()
        if len(raw) < 16:
            raise FormatError(
                f"logits file {p}: expected at least 16 header bytes, got {len(raw)}"
            )
        magic, hn, hd, _ = struct.unpack("<4sIII", raw[:16])
        if magic != LOGITS_MAGIC:
            raise FormatError(f"logits file {p}: bad magic {magic!r}")
        if hn != n:
            raise FormatError(
                f"logits file {p}: header declares N={hn}, points file has N={n}"
            )
        expected = 16 + 4 * hn * hd
        if len(raw) != expected:
            raise FormatError(
                f"logits file {p}: expected {expected} bytes for N={hn}, D={hd}, "
                f"got {len(raw)}"
            )
        logits = (
            np.frombuffer(raw[16:], dtype="<f4").astype(np.float64).reshape(hn, hd)
        )
    else:
        if num_classes is None:
            num_classes = int(labels.max()) + 1 if n > 0 else 0
        logits = one_hot_logits(labels, num_classes, confidence) if n > 0 else np.zeros(
            (0, num_classes)
        )

    return SemanticPointCloud(pts, labels, logits)


def save_cloud(cloud: SemanticPointCloud, points_path, labels_path, logits_path=None) -> None:
    Path(points_path).write_bytes(cloud.points.astype("<f4").tobytes())
    Path(labels_path).write_bytes(
        (cloud.labels.astype(np.uint32) & LABEL_CLASS_MASK).astype("<u4").tobytes()
    )
    if logits_path is not None:
        if cloud.logits is None:
            raise ValidationError("cloud has no logits to save")
        n, d = cloud.logits.shape
        header = struct.pack("<4sIII", LOGITS_MAGIC, n, d, 0)
        Path(logits_path).write_bytes(header + cloud.logits.astype("<f4").tobytes())


# ---------------------------------------------------------------------------
# Rigid transforms
# ---------------------------------------------------------------------------


@dataclass
class RigidTransform:
    """Rotation + translation; R must be a proper rotation to 1e-9."""

    R: np.ndarray  # (3,3)
    t: np.ndarray  # (3,)

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=np.float64).reshape(3, 3)
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)
        err = np.linalg.norm(self.R.T @ self.R - np.eye(3))
        if err > 1e-9:
            raise ValidationError(f"R is not orthonormal: |R^T R - I|_F = {err:.3e}")
        det = np.linalg.det(self.R)
        if abs(det - 1.0) > 1e-9:
            raise ValidationError(f"det(R) = {det:.12f}, expected 1")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.R.T + self.t

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self . other: apply `other` first, then `self`."""
        return RigidTransform(self.R @ other.R, self.R @ other.t + self.t)

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.R.T, -self.R.T @ self.t)

    def matrix_3x4(self) -> np.ndarray:
        return np.hstack([self.R, self.t.reshape(3, 1)])


def rot_z(angle_rad: float) -> np.ndarray:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def transform_cloud(cloud: SemanticPointCloud, T: RigidTransform) -> SemanticPointCloud:
    """Apply x -> Rx + t to every point; labels/logits carried over."""
    return SemanticPointCloud(T.apply(cloud.points), cloud.labels, cloud.logits)


def pose_error(est: RigidTransform, gt: RigidTransform) -> tuple[float, float]:
    """Translation error (meters) and rotation error (degrees)."""
    trans = float(np.linalg.norm(est.t - gt.t))
    rel = gt.R.T @ est.R
    # clamp prevents NaN from floating-point drift
    cos_a = np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0)
    rot = float(np.degrees(np.arccos(cos_a)))
    return trans, rot


def rotation_angle_deg(R_rel: np.ndarray) -> float:
    """Rotation angle of a relative rotation, accurate for tiny angles.

    The arccos form in pose_error has a float64 noise floor near 1e-6 deg;
    this uses |R - I|_F = 2*sqrt(2)*|sin(angle/2)|, which has none.
    """
    s = np.linalg.norm(np.asarray(R_rel) - np.eye(3)) / (2.0 * np.sqrt(2.0))
    return float(np.degrees(2.0 * np.arcsin(np.clip(s, 0.0, 1.0))))

