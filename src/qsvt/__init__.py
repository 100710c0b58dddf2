"""Quantum singular value thresholding: a dense state-vector simulator
for the full threshold circuit plus the classical rotation-scale theory
that makes its output accurate."""

from .alpha import (
    AlphaSolution,
    SpectrumProfile,
    alpha_intuitive,
    alpha_numeric,
    alpha_taylor2,
    alpha_taylor4,
    fidelity_analytic,
    g_derivative,
    g_objective,
    probability,
)
from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    FullyThresholdedError,
    NormalizationError,
    QsvtError,
    UncomputeResidualError,
    ValidationError,
)
from .pipeline import PipelineConfig, SimulationResult, run_pipeline, verify_against_classical
from .qpe import PhaseEstimationConfig, choose_t0
from .rotation import RotationConfig
from .sim import QuantumState, RegisterLayout, new_state, post_select
from .spectral import SpectralData, classical_svt, decompose, gram, herm_exp, to_state

__version__ = "0.1.0"
