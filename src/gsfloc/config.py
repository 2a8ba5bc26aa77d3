"""Run configuration.

`RunConfig` is the one configuration type: the scene graph, map building and
localization all read their settings from it, and a map bundle stores it once,
in config.json. Configs load from JSON files and accept dotted-key overrides
(e.g. "sim.sigma_w=1.5"); the effective config is echoed into every manifest.

Each field declares its type, and a number's range as a `Bound` in its
annotation, for `core.read` and `core.check_fields`; `GridSection.cross_check`
holds nx x ny to `GRID_POINTS_MOST` once a whole dict, file or override list is
set. `build_map` and `localize` run `check_fields` on the config they are
given, so one built or edited in code meets the same bounds. A refused dict,
file or override list leaves the config as it was.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Annotated, Literal

from .core import (FAR, Bound, Coordinate, FormatError, NoLimit, NonNegative, NonNegativeInt,
                   Positive, PositiveInt, Size, ValidationError, as_dict, check_fields, read,
                   read_json)

# a GP length scale (m): the kernel divides distances by it, and the quotient
# stays finite above 1e-100 for any distance the grid and FAR allow
LengthScale = Annotated[float, Bound(above=0, least=1e-100)]
# sim.sigma_w's range: the similarity divides by its square, which stays a
# normal float64 inside it; one outside it overflows or underflows
SigmaW = Annotated[float, Bound(above=0, least=1e-100, most=1e100)]
Threshold = Annotated[float, Bound(above=0, no_limit=True)]  # > 0, or Infinity: no limit
# the query's work is bounded: each GP fit factors a budget x budget kernel
# matrix, and each query instance's probe stack holds yaw_samples x (nx ny)^2
# doubles (36 x 256^2 x 8 B = 19 MB at the caps)
GRID_POINTS_MOST = 256


@dataclass
class GridSection:
    nx: Annotated[int, Bound(least=1)] = 5
    ny: Annotated[int, Bound(least=1)] = 5
    # a fixed 2.5 m, a quarter of the default cluster.neighborhood_radius; it
    # does not follow that radius when the radius is set
    dx: Annotated[float, Bound(above=0, most=FAR)] = 2.5
    dy: Annotated[float, Bound(above=0, most=FAR)] = 2.5
    z_mode: Literal["local-zero"] | Coordinate = "local-zero"

    def cross_check(self, name, path: str = "") -> None:
        """nx x ny is held to GRID_POINTS_MOST."""
        if self.nx * self.ny > GRID_POINTS_MOST:
            nx, ny = (f"{path}.{key}" if path else key for key in ("nx", "ny"))
            raise ValidationError(f"{name(nx)} x {ny!r} must be <= {GRID_POINTS_MOST}, "
                                  f"got {self.nx} x {self.ny}")


@dataclass
class GsfSection:
    kappa: LengthScale = 2.0
    sigma_y: Size = 0.1
    budget: Annotated[int, Bound(least=1, most=2048)] = 256
    softmax_targets: bool = False
    grid: GridSection = field(default_factory=GridSection)


@dataclass
class SimSection:
    # None: self-tuned from the candidate median
    sigma_w: SigmaW | None = None
    # None: 3x the candidate median
    accept_threshold: Threshold | None = None
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
    neighborhood_radius: Size = 10.0


@dataclass
class PipelineSection:
    success_trans_m: NoLimit = 5.0
    success_rot_deg: NoLimit = 10.0
    query_voxel: NonNegative = 0.2  # 0 disables query downsampling
    use_gsf_filter: bool = True
    seed: NonNegativeInt = 0


def config_key(path: str) -> str:
    """`name(path)` for the config's keys, as in "config key 'sim.sigma_w'"."""
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
        return read(cls, d, config_key)

    def update(self, d: dict) -> None:
        """Set the keys of a (nested, partial) config dict; unknown keys are refused."""
        self._set([d])

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
        docs = []
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
            docs.append(value)
        self._set(docs)

    def _set(self, docs: list) -> None:
        """Read each config dict in turn onto a copy, check the copy's every bound
        and rule once all are set, then take its sections: a refusal changes nothing."""
        trial = copy.deepcopy(self)
        for d in docs:
            read(RunConfig, d, config_key, base=trial)
        check_fields(trial, config_key)
        vars(self).update(vars(trial))
