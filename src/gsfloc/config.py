"""Run configuration: every tunable of the pipeline with its default.

`RunConfig` is the one configuration type: the scene graph, map building and
localization all read their settings from it, and a map bundle stores it once,
in config.json. Configs load from JSON files and accept dotted-key overrides
(e.g. "sim.sigma_w=1.5"). Unknown keys, values of the wrong type, values
out of range and non-finite numbers are rejected when they are set; only the
keys in `_NO_LIMIT_KEYS` take Infinity, as "no limit". The keys that size a
query's work have upper limits (`_MOST`, and `GRID_POINTS_MOST` for the probe
grid's nx x ny, checked once a whole dict, file or override list is set, so the
order of the two keys does not matter).
The full effective configuration is echoed into every run manifest.
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Literal

from .core import FormatError, ValidationError, read_json


@dataclass
class GridSection:
    nx: int = 5
    ny: int = 5
    # a fixed 2.5 m, a quarter of the default cluster.neighborhood_radius; it
    # does not follow that radius when the radius is set
    dx: float = 2.5
    dy: float = 2.5
    z_mode: Literal["local-zero"] | float = "local-zero"


@dataclass
class GsfSection:
    kappa: float = 2.0
    sigma_y: float = 0.1
    budget: int = 256
    softmax_targets: bool = False
    grid: GridSection = field(default_factory=GridSection)


@dataclass
class SimSection:
    sigma_w: float | None = None  # None: self-tuned from the candidate median
    accept_threshold: float | None = None  # None: 3x the candidate median
    yaw_samples: int = 8  # query populations probed at this many yaw rotations
    use_stability: bool = True


@dataclass
class SolverSection:
    tau0: float = 1.0
    max_iters: int = 20
    rel_tol: float = 1e-6


@dataclass
class IndexSection:
    delta_d: float = 0.5
    k_neighbors: int = 10


@dataclass
class MatchingSection:
    epsilon: float = 0.6


@dataclass
class ClusterSection:
    min_cluster_size: int = 10
    default_threshold: float = 1.0
    thresholds: dict = field(  # class name -> meters; each value a number > 0
        default_factory=lambda: {"pole": 0.5, "trunk": 0.5, "traffic-sign": 0.5, "car": 1.0}
    )
    neighborhood_radius: float = 10.0


@dataclass
class PipelineSection:
    success_trans_m: float = 5.0
    success_rot_deg: float = 10.0
    query_voxel: float = 0.2  # 0 disables query downsampling
    use_gsf_filter: bool = True
    seed: int = 0


@dataclass
class RunConfig:
    gsf: GsfSection = field(default_factory=GsfSection)
    sim: SimSection = field(default_factory=SimSection)
    solver: SolverSection = field(default_factory=SolverSection)
    index: IndexSection = field(default_factory=IndexSection)
    matching: MatchingSection = field(default_factory=MatchingSection)
    cluster: ClusterSection = field(default_factory=ClusterSection)
    pipeline: PipelineSection = field(default_factory=PipelineSection)

    def to_dict(self) -> dict:
        return _as_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        cfg = cls()
        cfg.update(d)
        return cfg

    def update(self, d: dict) -> None:
        """Set the keys of a (nested, partial) config dict; unknown keys are refused."""
        if not isinstance(d, dict):
            raise ValidationError("config must be an object")
        _apply_dict(self, d, prefix="")
        _check_grid(self.gsf.grid)

    def update_from_file(self, path) -> None:
        """Set the keys of a JSON config file, as `update` does. A file that
        does not parse, or whose top level is not an object, is a FormatError
        naming it."""
        d = read_json(path, f"config file {path}")
        if not isinstance(d, dict):
            raise FormatError(f"config file {path}: top level must be an object")
        self.update(d)

    def apply_overrides(self, overrides: list[str]) -> None:
        """Apply "section.key=value" strings; values parse as JSON when possible."""
        for item in overrides:
            if "=" not in item:
                raise ValidationError(f"override {item!r} is not of the form key=value")
            key, raw = item.split("=", 1)
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            for part in reversed(key.strip().split(".")):
                value = {part: value}
            _apply_dict(self, value, prefix="")
        _check_grid(self.gsf.grid)


def _as_dict(obj):
    if is_dataclass(obj):
        return {f.name: _as_dict(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _as_dict(v) for k, v in obj.items()}
    return obj


def _apply_dict(obj, d: dict, prefix: str) -> None:
    names = {f.name: f for f in fields(obj)}
    for key, value in d.items():
        path = f"{prefix}{key}"
        if key not in names:
            raise ValidationError(f"unknown config key {path!r}")
        current = getattr(obj, key)
        if is_dataclass(current):
            if not isinstance(value, dict):
                raise ValidationError(f"config key {path!r} expects an object")
            _apply_dict(current, value, prefix=f"{path}.")
        else:
            setattr(obj, key, _coerce(obj, key, value, path))


def _check_grid(grid: GridSection) -> None:
    if grid.nx * grid.ny > GRID_POINTS_MOST:
        raise ValidationError(f"config keys 'gsf.grid.nx' x 'gsf.grid.ny' must be <= "
                              f"{GRID_POINTS_MOST}, got {grid.nx} x {grid.ny}")


# keys whose value, unless null, must be > 0
_POSITIVE_KEYS = {"sim.sigma_w", "sim.accept_threshold", "sim.yaw_samples",
                  "solver.tau0", "solver.max_iters", "gsf.grid.dx", "gsf.grid.dy",
                  "gsf.kappa", "index.delta_d"}
# keys whose value must be >= 0: radii, tolerances, sizes
_NON_NEGATIVE_KEYS = {"cluster.neighborhood_radius", "cluster.default_threshold",
                      "cluster.min_cluster_size", "matching.epsilon", "solver.rel_tol",
                      "pipeline.query_voxel", "gsf.sigma_y"}
# sim.sigma_w's range: the similarity divides by its square, which stays a
# normal float64 inside it; one outside it overflows or underflows
SIGMA_W_RANGE = (1e-100, 1e100)
# keys with their least value: grid sides, the GP budget, the two neighbours
# an anchor's triangles need, and sigma_w
_LEAST = {"gsf.grid.nx": 1, "gsf.grid.ny": 1, "gsf.budget": 1, "index.k_neighbors": 2,
          "sim.sigma_w": SIGMA_W_RANGE[0]}
# keys with their greatest value: sigma_w, and integer keys that bound a
# query's work: each GP fit factors a budget x budget kernel matrix, and each
# query instance's probe stack holds yaw_samples x (nx ny)^2 doubles
# (36 x 256^2 x 8 B = 19 MB at the caps); the grid's point count nx x ny is held
# to GRID_POINTS_MOST by `_check_grid`, after every key of an update is set
_MOST = {"gsf.budget": 2048, "sim.yaw_samples": 36, "sim.sigma_w": SIGMA_W_RANGE[1]}
GRID_POINTS_MOST = 256
# float keys where Infinity means "no limit"; every other float value must be finite
_NO_LIMIT_KEYS = {"sim.accept_threshold", "pipeline.success_trans_m",
                  "pipeline.success_rot_deg"}
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               dict: "an object", type(None): "null"}


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
    return isinstance(value, kind)


def _describe(kind) -> str:
    if typing.get_origin(kind) is Literal:
        return " or ".join(json.dumps(v) for v in typing.get_args(kind))
    return _KIND_NAMES[kind]


def checked(kind, value, name: str):
    """`value` as `kind` (bool, int, float or str, as JSON gives them); a value
    of another type is refused with a ValidationError naming `name`."""
    if not _accepts(kind, value):
        raise ValidationError(f"{name} expects {_describe(kind)}, got {value!r}")
    return kind(value)


@functools.cache
def _field_types(section_cls) -> dict:
    return typing.get_type_hints(section_cls)


def _coerce(section, key: str, value, path: str):
    """`value` checked against the declared type of `section.key`, as stored."""
    hint = _field_types(type(section))[key]
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    kinds = typing.get_args(hint) if union else (hint,)
    kind = next((k for k in kinds if _accepts(k, value)), None)
    if kind is None:
        raise ValidationError(f"config key {path!r} expects "
                              f"{' or '.join(map(_describe, kinds))}, got {value!r}")
    if kind in (int, float, dict):
        value = kind(value)
    if value is None:  # null: the self-tuned default of the two keys that take it
        return value
    if path in _POSITIVE_KEYS and not value > 0:
        raise ValidationError(f"config key {path!r} must be > 0, got {value}")
    if path in _NON_NEGATIVE_KEYS and not value >= 0:
        raise ValidationError(f"config key {path!r} must be >= 0, got {value}")
    if path in _LEAST and value < _LEAST[path]:
        raise ValidationError(f"config key {path!r} must be >= {_LEAST[path]}, got {value}")
    if path in _MOST and value > _MOST[path]:
        raise ValidationError(f"config key {path!r} must be <= {_MOST[path]}, got {value}")
    if kind is float and not (math.isfinite(value) or path in _NO_LIMIT_KEYS and value > 0):
        bound = "finite or Infinity" if path in _NO_LIMIT_KEYS else "finite"
        raise ValidationError(f"config key {path!r} must be {bound}, got {value}")
    if path == "cluster.thresholds":
        for name, v in value.items():
            if not (_accepts(float, v) and 0 < v < math.inf):
                raise ValidationError(f"config key {path!r} wants a number > 0 per class, "
                                      f"each finite, got {v!r} for {name!r}")
    return value
