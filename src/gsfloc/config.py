"""Run configuration: every tunable of the pipeline with its default.

Configs load from JSON files and accept dotted-key overrides
(e.g. "sim.sigma_w=1.5"). Unknown keys are rejected; the full effective
configuration is echoed into every run manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .core import FormatError, LabelTaxonomy, ValidationError
from .gsf import GpHyperParams
from .scene_graph import ClusterParams, GraphBuildConfig


@dataclass
class GridSection:
    nx: int = 5
    ny: int = 5
    dx: float = 2.5  # defaults to neighborhood radius / 4
    dy: float = 2.5
    z_mode: str | float = "local-zero"


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
    thresholds: dict = field(
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

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            d = json.loads(Path(path).read_text())
        except json.JSONDecodeError as e:
            raise FormatError(f"config file {path}: line {e.lineno}: {e.msg}") from e
        if not isinstance(d, dict):
            raise ValidationError(f"config file {path}: top level must be an object")
        return cls.from_dict(d)

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
            _set_dotted(self, key.strip(), value)

    def graph_config(self, taxonomy: LabelTaxonomy) -> GraphBuildConfig:
        """Resolve class-name thresholds to ids and bundle the graph-build knobs."""
        thresholds = {}
        for name, v in self.cluster.thresholds.items():
            try:
                thresholds[taxonomy.id_of(name)] = float(v)
            except KeyError:
                raise ValidationError(f"cluster threshold for unknown class {name!r}")
        return GraphBuildConfig(
            cluster=ClusterParams(
                thresholds=thresholds,
                default_threshold=self.cluster.default_threshold,
                min_cluster_size=self.cluster.min_cluster_size,
            ),
            neighborhood_radius=self.cluster.neighborhood_radius,
            hyper=GpHyperParams(self.gsf.kappa, self.gsf.sigma_y),
            budget=self.gsf.budget,
            seed=self.pipeline.seed,
        )


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
            setattr(obj, key, _coerce(current, value, path))


def _coerce(current, value, path):
    if isinstance(current, bool):
        if not isinstance(value, bool):
            raise ValidationError(f"config key {path!r} expects a boolean")
        return value
    if isinstance(current, int) and not isinstance(current, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"config key {path!r} expects a number")
        return int(value)
    if isinstance(current, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"config key {path!r} expects a number")
        return float(value)
    if isinstance(current, dict):
        if not isinstance(value, dict):
            raise ValidationError(f"config key {path!r} expects an object")
        return dict(value)
    return value  # str | None fields take the value as-is


def _set_dotted(cfg, dotted: str, value) -> None:
    parts = dotted.split(".")
    obj = cfg
    for i, part in enumerate(parts[:-1]):
        names = {f.name for f in fields(obj)}
        if part not in names:
            raise ValidationError(f"unknown config key {'.'.join(parts[: i + 1])!r}")
        obj = getattr(obj, part)
        if not is_dataclass(obj):
            raise ValidationError(f"config key {dotted!r} indexes into a non-section")
    leaf = parts[-1]
    names = {f.name for f in fields(obj)}
    if leaf not in names:
        raise ValidationError(f"unknown config key {dotted!r}")
    setattr(obj, leaf, _coerce(getattr(obj, leaf), value, dotted))
