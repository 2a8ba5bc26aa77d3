"""Core geometric/semantic types, binary point-cloud IO, pose-error metrics,
and `read`, the one reader of the config, the specs and the taxonomy.

File formats
------------
points  : raw little-endian float32, x,y,z interleaved (12 bytes per point)
labels  : raw little-endian uint32, low 16 bits = class id
logits  : 16-byte header (magic b"GSFL", u32 N, u32 D, u32 reserved) followed
          by N*D little-endian float32, row-major
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Annotated, Literal

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
# Settings documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bound:
    """A number's range, declared in its field's annotation: > above, >= least,
    <= most and < below, each where given. A float must also be finite, unless
    `no_limit`, which takes Infinity."""

    above: float | None = None
    least: float | None = None
    most: float | None = None
    below: float | None = None
    no_limit: bool = False


# lengths and heights in meters, and other sizes, are held to this: far beyond
# any street scene, and small enough that their squares stay finite
FAR = 1e6

Positive = Annotated[float, Bound(above=0)]
NonNegative = Annotated[float, Bound(least=0)]
PositiveInt = Annotated[int, Bound(above=0)]
NonNegativeInt = Annotated[int, Bound(least=0)]
NoLimit = Annotated[float, Bound(no_limit=True)]  # any finite number, or Infinity
Size = Annotated[float, Bound(least=0, most=FAR)]
Coordinate = Annotated[float, Bound(least=-FAR, most=FAR)]


def field_of(document: str):
    """`name(path)` for a document's keys, as in "scene spec field
    background.road_points"; the whole document is `document`."""
    return lambda path: f"{document} field {path}" if path else document


def as_dict(obj):
    """A document as JSON values: each dataclass an object under its fields' keys."""
    if is_dataclass(obj):
        return {f.metadata.get("key", f.name): as_dict(getattr(obj, f.name))
                for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: as_dict(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [as_dict(v) for v in obj]
    return obj


def read(kind, value, name, path: str = "", base=None):
    """`value`, JSON, checked against the declared type `kind` of the document
    at `path`, as stored; a ValidationError names the refused key as
    `name(path)`. Unknown keys, missing required fields, values of the wrong
    type or out of bound and non-finite numbers (Infinity only where the bound
    has `no_limit`) are refused, NaN as not finite before any bound. A
    dataclass is read from an object, a field's key its name or its
    `metadata["key"]`, and its `cross_check(name, path)`, a rule across its
    fields, runs once it is built. Given `base`, the keys are set on `base`
    instead (nested objects onto its own), and the rules are left to a later
    `check_fields`. A dataclass already built is `check_fields`ed. Each
    declared type's alternatives are worked out once (`_alternatives`), and a
    refusal's text is formatted only when a value is refused."""
    if is_dataclass(kind):
        if isinstance(value, kind):
            check_fields(value, name, path)
            return value
        return _read_object(kind, value, name, path, base)
    alternatives = _alternatives(kind)
    kind, b = next(((k, b) for k, b in alternatives if _accepts(k, value)), (None, None))
    if kind is None:
        raise ValidationError(f"{name(path)} expects "
                              f"{' or '.join(_describe(k) for k, _ in alternatives)}, "
                              f"got {value!r}")
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is list:
        return [read(args[0], v, name, f"{path}[{i}]") for i, v in enumerate(value)]
    if origin is dict:
        return {k: read(args[1], v, name, _join(path, k)) for k, v in value.items()}
    if kind in (int, float):
        value = kind(value)
    b = b or _NO_BOUND
    ok = (kind is not float or not math.isnan(value),  # NaN fails every bound
          b.above is None or value > b.above,
          b.least is None or value >= b.least,
          b.most is None or value <= b.most,
          b.below is None or value < b.below,
          kind is not float or math.isfinite(value) or b.no_limit and value > 0)
    if not all(ok):  # the refusal names the first test that fails
        finite = "finite or Infinity" if b.no_limit else "finite"
        says = (finite, f"> {b.above}", f">= {b.least}", f"<= {b.most}", f"< {b.below}", finite)
        raise ValidationError(f"{name(path)} must be {says[ok.index(False)]}, got {value}")
    return value


def check_fields(obj, name, path: str = "") -> None:
    """Refuse, as `read` would, a dataclass built in code with a field value,
    its own or a nested dataclass's, that its declared type and bound do not
    take, or whose `cross_check` fails; nothing is converted."""
    for f in fields(obj):
        read(_hints(type(obj))[f.name], getattr(obj, f.name), name,
             _join(path, f.metadata.get("key", f.name)))
    if hasattr(obj, "cross_check"):
        obj.cross_check(name, path)


def _read_object(cls, d, name, path, base):
    if not isinstance(d, dict):
        raise ValidationError(f"{name(path)} expects an object, got {d!r}")
    by_key = {f.metadata.get("key", f.name): f for f in fields(cls)}
    for key in d:
        if key not in by_key:
            raise ValidationError(f"unknown {name(_join(path, key))}")
    for key, f in by_key.items():
        if base is None and key not in d and f.default is MISSING is f.default_factory:
            raise ValidationError(f"{name(_join(path, key))} is required")
    values = {f.name: read(_hints(cls)[f.name], d[key], name, _join(path, key),
                           getattr(base, f.name, None))
              for key, f in by_key.items() if key in d}
    if base is None:
        obj = cls(**values)
        if hasattr(obj, "cross_check"):
            obj.cross_check(name, path)
        return obj
    for attr, value in values.items():
        setattr(base, attr, value)
    return base


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls, include_extras=True)


_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               dict: "an object", list: "a list", type(None): "null"}


def _accepts(kind, value) -> bool:
    if kind is bool or kind is type(None):
        return type(value) is kind
    if isinstance(value, bool):
        return False
    if kind is int:
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if kind is float:
        return isinstance(value, (int, float))
    if typing.get_origin(kind) is Literal:
        return value in typing.get_args(kind)
    return isinstance(value, typing.get_origin(kind) or kind)


def _describe(kind) -> str:
    if typing.get_origin(kind) is Literal:
        return " or ".join(json.dumps(v) for v in typing.get_args(kind))
    return _KIND_NAMES[typing.get_origin(kind) or kind]


def _split(kind) -> tuple:
    """A field type as (the bare type, its Bound or None)."""
    if typing.get_origin(kind) is Annotated:
        return typing.get_args(kind)[0], kind.__metadata__[0]
    return kind, None


_NO_BOUND = Bound()


@functools.cache
def _alternatives(kind) -> tuple:
    """A declared type's alternatives as (bare type, its Bound or None) pairs:
    one for a plain type, one per member of a union. Memoised per type, as
    every record of a kind is read against the same types."""
    union = typing.get_origin(kind) in (typing.Union, types.UnionType)
    return tuple(map(_split, typing.get_args(kind) if union else (kind,)))


# ---------------------------------------------------------------------------
# Taxonomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassInfo:
    name: str
    instantiable: bool
    # 0.1 volatile, 0.5 short-term, 1.0 long-term
    stability: Annotated[float, Bound(above=0, most=1)]

    def __post_init__(self):
        check_fields(self, lambda path: f"class {self.name!r} {path}")


class LabelTaxonomy:
    """Mapping from class id to (name, instantiable flag, stability value); the
    ids are 0..D-1, the logit columns of a cloud's class scores, and each
    class has its own name."""

    def __init__(self, classes: dict[int, ClassInfo]):
        if sorted(classes) != list(range(len(classes))):
            raise ValidationError(
                f"taxonomy class ids must be 0..{len(classes) - 1}, one per logit column; "
                f"got {sorted(classes)}"
            )
        self._classes = dict(sorted(classes.items()))
        self._by_name = {info.name: cid for cid, info in self._classes.items()}
        if len(self._by_name) < len(self._classes):
            names = [info.name for info in self._classes.values()]
            twice = next(n for n in names if names.count(n) > 1)
            raise ValidationError(f"taxonomy class name {twice!r} is used twice")

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
        return {str(cid): as_dict(info) for cid, info in self._classes.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "LabelTaxonomy":
        """The inverse of `to_dict`: each class record under its id, the keys
        "0" to "D-1"; anything else is refused with ValidationError."""
        if not isinstance(d, dict) or not d:
            raise ValidationError("taxonomy must be a non-empty object of class records")
        records = read(dict[str, ClassInfo], d, field_of("taxonomy"))
        if set(records) != {str(c) for c in range(len(records))}:
            raise ValidationError(f"taxonomy class ids must be 0..{len(records) - 1}, one per "
                                  f"logit column, each key its id in decimal; got {list(records)}")
        return cls({int(cid): info for cid, info in records.items()})


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


def check_finite(a: np.ndarray, says: str, most: float | None = None,
                 beyond: str = "") -> None:
    """A ValidationError, `says.format(row=i, values=...)`, for the first row i
    of `a` (N, ...) that holds a NaN or an infinity; given `most`, also for the
    first that holds a value beyond +-most, `beyond` formatted the same way
    when the row is finite. The whole array is tested first, in one pass, and
    the row sought only when there is one."""
    within = np.isfinite(a) if most is None else np.abs(a) <= most  # NaN is not <= most
    if not within.all():
        bad = int(np.argmin(within.reshape(len(a), -1).all(axis=1)))
        row = a[bad]
        says = says if most is None or not np.isfinite(row).all() else beyond
        raise ValidationError(says.format(row=bad, values=tuple(row.ravel().tolist())))


# the magnitude a cloud's logits are held to. The fields interpolate them, and
# W2 squares and sums the differences of their means over the grid points and
# classes; within this bound those sums, and the `sim.sigma_w` self-tuned from
# their median, stay far inside float64 and inside that key's own bound
LOGIT_MOST = FAR


@dataclass
class SemanticPointCloud:
    """Points with per-point class labels and optional class-score logits.

    A cloud refuses a non-finite coordinate, a non-finite logit or one beyond
    +-LOGIT_MOST, each naming the point, and a label that is not its point's
    logit argmax. Treated as immutable after construction; all operations
    return new clouds.
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
        check_finite(self.points, "point {row} has a non-finite coordinate")
        if self.logits is not None:
            self.logits = np.asarray(self.logits, dtype=np.float64)
            if self.logits.ndim != 2 or self.logits.shape[0] != self.points.shape[0]:
                raise ValidationError(
                    f"logits shape {self.logits.shape} does not match point count "
                    f"{self.points.shape[0]}"
                )
            check_finite(self.logits, "point {row} has a non-finite logit", LOGIT_MOST,
                         f"point {{row}} has a logit beyond +-{LOGIT_MOST:g}")
            if self.n > 0:
                pred = np.argmax(self.logits, axis=1)  # first max = lowest class id
                bad = np.nonzero(pred != self.labels)[0]
                if bad.size:
                    i = int(bad[0])
                    raise ValidationError(
                        f"label/logit argmax mismatch at index {i}: label "
                        f"{int(self.labels[i])}, argmax {int(pred[i])}"
                    )

    def rows(self, index) -> "SemanticPointCloud":
        """The cloud of the points at `index` (integer indices or a boolean mask),
        with their labels and logits. Rows of a checked cloud pass every check
        the constructor makes, so none is run again."""
        out = object.__new__(SemanticPointCloud)
        out.points, out.labels = self.points[index], self.labels[index]
        out.logits = None if self.logits is None else self.logits[index]
        return out

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
    raises for it, a member that is not an array, or a float array holding a
    NaN or an infinity, is a FormatError naming the file.
    """
    try:
        with np.load(path) as buf:
            arrays = {k: buf[k] for k in buf.files}
    # a damaged archive raises many kinds: BadZipFile, zlib.error, NotImplementedError
    # (compression method), TokenError and SyntaxError (array header), ...
    except Exception as e:
        raise FormatError(f"npz file {path}: unreadable ({e})") from e
    for k, a in arrays.items():
        if not isinstance(a, np.ndarray):  # numpy reads a member without the npy magic as bytes
            raise FormatError(f"npz file {path}: member {k!r} is not an npy array")
        if a.dtype.kind == "f" and not np.all(np.isfinite(a)):
            raise FormatError(f"npz file {path}: array {k!r} holds non-finite values")
    return NpzArrays(path, arrays)


def describe_array(a: np.ndarray, name: str) -> str:
    """How a refusal names an archive's array: its dtype, shape and, for
    integers, its range."""
    span = f" from {a.min()} to {a.max()}" if a.dtype.kind in "iu" and a.size else ""
    return f"it holds {a.dtype} {name} of shape {a.shape}{span}"


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
    """Rotation + translation, both finite; R must be a proper rotation to 1e-9."""

    R: np.ndarray  # (3,3)
    t: np.ndarray  # (3,)

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=np.float64).reshape(3, 3)
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)
        for name, part in (("R", self.R), ("t", self.t)):
            if not np.isfinite(part).all():  # NaN would pass both tests below
                raise ValidationError(f"{name} must be finite, got {part.tolist()}")
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

