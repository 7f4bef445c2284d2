"""Degradation path modeling with mixed covariates and latent heterogeneity."""

__version__ = "0.1.0"

from .data import (
    BasisFamily,
    DegradationDataset,
    ModelConfig,
    UnitRecord,
    center_baseline,
    load_dataset,
    save_dataset,
)
from .descriptors import (
    DescriptorCurve,
    MicrostructureImage,
    ParticleSet,
    binarize_image,
    compute_rdf,
    compute_tpc,
    extract_particles,
)
from .design import DesignMatrices, ZetaLayout, build_design_matrices
from .estimator import (
    ConvergenceWarning,
    FitResult,
    LatentPosterior,
    NumericalError,
    Parameters,
    fit_em,
)
from .evaluation import (
    Metrics,
    ModelVariant,
    compare_models,
    effect_decomposition,
    information_criteria,
    kfold_cv,
    predict_unit,
    residual_metrics,
    table1_variants,
    temporal_split,
)
from .fpca import FpcaModel, fit_fpca, fit_scores, project_scores, reconstruct, select_k_by_fve
from .simulate import SyntheticSpec, default_spec, generate_dataset

__all__ = [
    "BasisFamily",
    "ConvergenceWarning",
    "DegradationDataset",
    "DescriptorCurve",
    "DesignMatrices",
    "FitResult",
    "FpcaModel",
    "LatentPosterior",
    "Metrics",
    "MicrostructureImage",
    "ModelConfig",
    "ModelVariant",
    "NumericalError",
    "Parameters",
    "ParticleSet",
    "SyntheticSpec",
    "UnitRecord",
    "ZetaLayout",
    "binarize_image",
    "build_design_matrices",
    "center_baseline",
    "compare_models",
    "compute_rdf",
    "compute_tpc",
    "default_spec",
    "effect_decomposition",
    "extract_particles",
    "fit_em",
    "fit_fpca",
    "fit_scores",
    "generate_dataset",
    "information_criteria",
    "kfold_cv",
    "load_dataset",
    "predict_unit",
    "project_scores",
    "reconstruct",
    "residual_metrics",
    "save_dataset",
    "select_k_by_fve",
    "table1_variants",
    "temporal_split",
]
