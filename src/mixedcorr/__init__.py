"""Mixed correlation matrices (Pearson, polyserial, polychoric) by iterative GMM."""

from . import errors
from .estimator import (
    COV_CORRECTED,
    COV_PAPER,
    ONE_STEP,
    TWO_STEP,
    Diagnostics,
    EstimationResult,
    FitConfig,
    estimate_thresholds,
    fit,
    fit_batch,
)
from .model import (
    CorrelationParams,
    MixedDataset,
    ThresholdSet,
    VariableSpec,
    ingest,
)
from .moments import (
    CUSTOM,
    MAX_SET,
    MIN_SET,
    EquationSystem,
    WeightMatrix,
    assemble_gradient,
    build_system,
    compute_sigma,
    weight_matrix,
)
from .normal import (
    LegendreOrder,
    binorm_cdf_legendre,
    binorm_pdf,
    norm_cdf,
    norm_pdf,
    norm_quantile,
)
from .simulation import SimDesign, SimReport, generate, run_study

__version__ = "0.1.0"

__all__ = [
    "errors",
    "COV_CORRECTED",
    "COV_PAPER",
    "ONE_STEP",
    "TWO_STEP",
    "Diagnostics",
    "EstimationResult",
    "FitConfig",
    "estimate_thresholds",
    "fit",
    "fit_batch",
    "CorrelationParams",
    "MixedDataset",
    "ThresholdSet",
    "VariableSpec",
    "ingest",
    "CUSTOM",
    "MAX_SET",
    "MIN_SET",
    "EquationSystem",
    "WeightMatrix",
    "assemble_gradient",
    "build_system",
    "compute_sigma",
    "weight_matrix",
    "LegendreOrder",
    "binorm_cdf_legendre",
    "binorm_pdf",
    "norm_cdf",
    "norm_pdf",
    "norm_quantile",
    "SimDesign",
    "SimReport",
    "generate",
    "run_study",
]
