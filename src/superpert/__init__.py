"""Superconvergent perturbation theory for finite Hermitian operators.

Stagewise unitary conjugation doubles the cleared perturbation order at
every step (stage n removes orders up to 2^n - 1), with exact spectral
averaging solving each homological equation.  Rayleigh-Schrodinger
corrections through order 4 and dense exact diagonalization are included
as baselines, plus a batch CLI producing deterministic CSV/JSON reports.
"""

from .averaging import SmallDenominatorError
from .kolmogorov import (
    ConsistencyError,
    KolmogorovState,
    StageInfo,
    SuResult,
    default_n_stages,
    init,
    run,
    step,
)
from .linalg import (
    SpectralData,
    eigh,
    hermitian_part,
    hermiticity_defect,
    max_norm,
    require_hermitian,
)
from .models import (
    BUILTIN_MODELS,
    ModelFormatError,
    ModelSpec,
    build_quartic_oscillator,
    load_model,
    make_model,
    model_from_dict,
)
from .rayleigh_schrodinger import RsCorrections, rs_corrections
from .series import (
    MAX_ORDER,
    OperatorSeries,
    WeightOverflowError,
    eval_series,
    weighted_sum,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_MODELS",
    "ConsistencyError",
    "KolmogorovState",
    "MAX_ORDER",
    "ModelFormatError",
    "ModelSpec",
    "OperatorSeries",
    "RsCorrections",
    "SmallDenominatorError",
    "SpectralData",
    "StageInfo",
    "SuResult",
    "WeightOverflowError",
    "build_quartic_oscillator",
    "default_n_stages",
    "eigh",
    "eval_series",
    "hermitian_part",
    "hermiticity_defect",
    "init",
    "load_model",
    "make_model",
    "max_norm",
    "model_from_dict",
    "require_hermitian",
    "rs_corrections",
    "run",
    "step",
    "weighted_sum",
    "__version__",
]
