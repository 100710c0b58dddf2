"""Quantum singular value thresholding: a dense state-vector simulator
for the full threshold circuit plus the classical rotation-scale theory
that makes its output accurate."""

from .alpha import AlphaSolution, SpectrumProfile, g_derivative, g_objective
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
from .sim import QuantumState, RegisterLayout, new_state, post_select
from .spectral import SpectralData, classical_svt, decompose, gram, herm_exp, to_state

__version__ = "0.1.0"
