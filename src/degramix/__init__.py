"""Degradation path modeling with mixed covariates and latent heterogeneity.

The public names load on first use (PEP 562): ``import degramix`` imports
neither numpy nor any submodule, and ``degramix.fit_em`` first imports
``degramix.estimator``.  So ``python -m degramix`` can set the environment
numpy reads before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# each public name, under the submodule that defines it
_PUBLIC = {
    "data": ("BasisFamily", "DegradationDataset", "ModelConfig", "UnitRecord",
             "center_baseline", "load_dataset", "save_dataset"),
    "descriptors": ("DescriptorCurve", "MicrostructureImage", "ParticleSet", "binarize_image",
                    "compute_rdf", "compute_tpc", "extract_particles"),
    "design": ("DesignMatrices", "ZetaLayout", "build_design_matrices"),
    "estimator": ("ConvergenceWarning", "FitResult", "LatentPosterior", "NumericalError",
                  "Parameters", "fit_em"),
    "evaluation": ("Metrics", "ModelVariant", "compare_models", "effect_decomposition",
                   "information_criteria", "kfold_cv", "predict_unit", "residual_metrics",
                   "table1_variants", "temporal_split"),
    "fpca": ("FpcaModel", "fit_fpca", "fit_scores", "project_scores", "reconstruct",
             "select_k_by_fve"),
    "simulate": ("SyntheticSpec", "default_spec", "generate_dataset"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """A public name, from its submodule imported on first use; kept here after."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
