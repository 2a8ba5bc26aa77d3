"""Run configuration, and the one reader of every settings document.

`RunConfig` is the one configuration type: the scene graph, map building and
localization all read their settings from it, and a map bundle stores it once,
in config.json. Configs load from JSON files and accept dotted-key overrides
(e.g. "sim.sigma_w=1.5"); the effective config is echoed into every manifest.

`read` builds a dataclass from a JSON object, `as_dict` writes one back, and
`check_fields` checks one built in code; they serve the config and the scene
and benchmark specs of `synth`. Each field declares its type, and a number's
range as a `Bound` in its annotation. Unknown keys, missing fields, values of
the wrong type or out of bound and non-finite numbers (Infinity only where a
bound has `no_limit`) are refused, naming the key. The probe grid's nx x ny is
held to `GRID_POINTS_MOST` once a whole dict, file or override list is set.
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Annotated, Literal

from .core import FormatError, ValidationError, read_json


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


Positive = Annotated[float, Bound(above=0)]
NonNegative = Annotated[float, Bound(least=0)]
PositiveInt = Annotated[int, Bound(above=0)]
NonNegativeInt = Annotated[int, Bound(least=0)]
NoLimit = Annotated[float, Bound(no_limit=True)]  # any finite number, or Infinity

# sim.sigma_w's range: the similarity divides by its square, which stays a
# normal float64 inside it; one outside it overflows or underflows
SIGMA_W_RANGE = (1e-100, 1e100)
# the query's work is bounded: each GP fit factors a budget x budget kernel
# matrix, and each query instance's probe stack holds yaw_samples x (nx ny)^2
# doubles (36 x 256^2 x 8 B = 19 MB at the caps); the grid's point count nx x ny
# is held to GRID_POINTS_MOST by `_check_grid`, after every key of an update is set
GRID_POINTS_MOST = 256


@dataclass
class GridSection:
    nx: Annotated[int, Bound(least=1)] = 5
    ny: Annotated[int, Bound(least=1)] = 5
    # a fixed 2.5 m, a quarter of the default cluster.neighborhood_radius; it
    # does not follow that radius when the radius is set
    dx: Positive = 2.5
    dy: Positive = 2.5
    z_mode: Literal["local-zero"] | float = "local-zero"


@dataclass
class GsfSection:
    kappa: Positive = 2.0
    sigma_y: NonNegative = 0.1
    budget: Annotated[int, Bound(least=1, most=2048)] = 256
    softmax_targets: bool = False
    grid: GridSection = field(default_factory=GridSection)


@dataclass
class SimSection:
    # None: self-tuned from the candidate median
    sigma_w: Annotated[float, Bound(above=0, least=SIGMA_W_RANGE[0],
                                    most=SIGMA_W_RANGE[1])] | None = None
    # None: 3x the candidate median
    accept_threshold: Annotated[float, Bound(above=0, no_limit=True)] | None = None
    # query populations probed at this many yaw rotations
    yaw_samples: Annotated[int, Bound(above=0, most=36)] = 8
    use_stability: bool = True


@dataclass
class SolverSection:
    tau0: Positive = 1.0
    max_iters: PositiveInt = 20
    rel_tol: NonNegative = 1e-6


@dataclass
class IndexSection:
    delta_d: Positive = 0.5
    # the two neighbours an anchor's triangles need
    k_neighbors: Annotated[int, Bound(least=2)] = 10


@dataclass
class MatchingSection:
    epsilon: NonNegative = 0.6


@dataclass
class ClusterSection:
    min_cluster_size: NonNegativeInt = 10
    default_threshold: NonNegative = 1.0
    thresholds: dict[str, Positive] = field(  # class name -> meters
        default_factory=lambda: {"pole": 0.5, "trunk": 0.5, "traffic-sign": 0.5, "car": 1.0}
    )
    neighborhood_radius: NonNegative = 10.0


@dataclass
class PipelineSection:
    success_trans_m: NoLimit = 5.0
    success_rot_deg: NoLimit = 10.0
    query_voxel: NonNegative = 0.2  # 0 disables query downsampling
    use_gsf_filter: bool = True
    seed: NonNegativeInt = 0


def _config_key(path: str) -> str:
    return f"config key {path!r}" if path else "config"


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
        return as_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        cfg = cls()
        cfg.update(d)
        return cfg

    def update(self, d: dict) -> None:
        """Set the keys of a (nested, partial) config dict; unknown keys are refused."""
        read(RunConfig, d, _config_key, base=self)
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
            read(RunConfig, value, _config_key, base=self)
        _check_grid(self.gsf.grid)


def _check_grid(grid: GridSection) -> None:
    if grid.nx * grid.ny > GRID_POINTS_MOST:
        raise ValidationError(f"config keys 'gsf.grid.nx' x 'gsf.grid.ny' must be <= "
                              f"{GRID_POINTS_MOST}, got {grid.nx} x {grid.ny}")


def field_of(document: str):
    """`name(path)` for a spec document's keys, as in "scene spec field
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


def read(cls, d, name, path: str = "", base=None):
    """A `cls` read from the JSON object `d`, or, given `base`, `base` with the
    keys of `d` set on it (nested objects onto its own). A field's key is its
    name, or its `metadata["key"]`. An unknown key, a missing required field
    or a value the field's declared type and bound do not take is refused
    with a ValidationError naming the key as `name(path)`."""
    if not isinstance(d, dict):
        raise ValidationError(f"{name(path)} expects an object, got {d!r}")
    by_key = {f.metadata.get("key", f.name): f for f in fields(cls)}
    for key in d:
        if key not in by_key:
            raise ValidationError(f"unknown {name(_join(path, key))}")
    for key, f in by_key.items():
        if base is None and key not in d and f.default is MISSING is f.default_factory:
            raise ValidationError(f"{name(_join(path, key))} is required")
    values = {f.name: _coerce(_hints(cls)[f.name], d[key], name, _join(path, key),
                              getattr(base, f.name, None))
              for key, f in by_key.items() if key in d}
    if base is None:
        return cls(**values)
    for attr, value in values.items():
        setattr(base, attr, value)
    return base


def check_fields(obj, name, path: str = "") -> None:
    """Refuse, as `read` would, a dataclass built in code with a field value,
    its own or a nested dataclass's, that its declared type and bound do not
    take; nothing is converted."""
    for f in fields(obj):
        _coerce(_hints(type(obj))[f.name], getattr(obj, f.name), name,
                _join(path, f.metadata.get("key", f.name)))


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


def _coerce(hint, value, name, path: str, base=None):
    """`value` checked against the type hint `hint` of the field at `path`, as
    stored; an object is read onto `base`, the field's value, when given."""
    if is_dataclass(hint):
        if not isinstance(value, hint):
            return read(hint, value, name, path, base)
        check_fields(value, name, path)
        return value
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    bounds = dict(map(_split, typing.get_args(hint) if union else (hint,)))
    kind = next((k for k in bounds if _accepts(k, value)), None)
    if kind is None:
        raise ValidationError(f"{name(path)} expects "
                              f"{' or '.join(map(_describe, bounds))}, got {value!r}")
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is list:
        return [_coerce(args[0], v, name, f"{path}[{i}]") for i, v in enumerate(value)]
    if origin is dict:
        return {k: _coerce(args[1], v, name, f"{path}.{k}") for k, v in value.items()}
    if kind in (int, float):
        value = kind(value)
    b = bounds[kind] or Bound()
    for ok, says in ((b.above is None or value > b.above, f"> {b.above}"),
                     (b.least is None or value >= b.least, f">= {b.least}"),
                     (b.most is None or value <= b.most, f"<= {b.most}"),
                     (b.below is None or value < b.below, f"< {b.below}"),
                     (kind is not float or math.isfinite(value) or b.no_limit and value > 0,
                      "finite or Infinity" if b.no_limit else "finite")):
        if not ok:
            raise ValidationError(f"{name(path)} must be {says}, got {value}")
    return value
