"""One-shot LiDAR global localization over tri-layer scene graphs whose middle
layer is a set of local Gaussian semantic fields."""

__version__ = "0.1.0"

from .config import RunConfig
from .core import (
    LabelTaxonomy,
    RigidTransform,
    SemanticPointCloud,
    default_taxonomy,
    load_cloud,
    pose_error,
    save_cloud,
    transform_cloud,
)
from .gsf import (
    GaussianSemanticField,
    GpHyperParams,
    GpPopulation,
    fit_gsf,
    grid_probe,
    gsf_predict,
    semantic_sparsify,
)
from .pipeline import LocalizationResult, ReferenceMap, build_map, load_map, localize, save_map
from .pose_solver import WeightedCorrespondenceSet, robust_irls, weighted_kabsch
from .scene_graph import SceneGraph, build_scene_graph, cluster_instances, fit_fields
from .synth import EvalReport, SceneSpec, generate_scene, run_benchmark, simulate_scan
from .wasserstein import psd_sqrt, similarity_weight, w2_squared
