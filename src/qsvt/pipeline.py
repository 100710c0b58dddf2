"""End-to-end run: state preparation, phase estimation, threshold
oracle, rotation cascade, uncompute, post-selection, and comparison of
the simulated output against the classical threshold operator and the
closed-form probability/fidelity."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import alpha as alpha_mod
from . import qpe, rotation, sim, spectral
from .errors import FullyThresholdedError, ValidationError

EXACT_Y_TOL = 1e-12


@dataclass
class PipelineConfig:
    a0: np.ndarray
    tau: float
    t_bits: int | None = None
    m_bits: int = 8
    alpha: float | None = None
    alpha_method: str = "intuitive"
    newton: rotation.NewtonConfig | None = None
    svd_tol: float = spectral.RANK_TOL
    shots: int | None = None
    seed: int = 0


@dataclass
class SimulationResult:
    p_sim: float
    f_sim: float
    p_analytic: float
    f_analytic: float
    alpha: float
    alpha_method: str
    alpha_note: str
    n1: float
    n_alpha: float
    sigma: np.ndarray
    y_exact: np.ndarray
    y_codes: np.ndarray
    labels: np.ndarray
    triple_amplitudes: np.ndarray
    b_state: np.ndarray
    residual_mass: float
    pe_exact: bool
    y_repr_exact: bool
    newton_iterations: int
    t_bits: int
    m_bits: int
    p_shots: float | None = None

    @property
    def exact(self) -> bool:
        """Exact-encoding regime: integer labels and exactly
        representable shrinkage fractions."""
        return self.pe_exact and self.y_repr_exact


def run_pipeline(cfg: PipelineConfig) -> SimulationResult:
    """Execute the full circuit on the simulator and post-select the
    ancilla on 1."""
    spec = spectral.decompose(np.asarray(cfg.a0), cfg.svd_tol)
    spectral.check_threshold(cfg.tau, float(spec.sigma[0]))
    profile = alpha_mod.SpectrumProfile.from_sigma_tau(spec.sigma, cfg.tau)

    note, solution = "", None
    if cfg.alpha is not None:
        alpha_value, method = float(cfg.alpha), "explicit"
    else:
        solution, note = alpha_mod.resolve_alpha(profile, cfg.alpha_method)
        alpha_value, method = solution.alpha, cfg.alpha_method
        if note:
            warnings.warn(note, stacklevel=2)

    lam = spec.sigma.astype(float) ** 2
    pe_cfg = qpe.choose_t0(lam, cfg.t_bits)
    t_bits = pe_cfg.t_bits
    encoding = qpe.encode(lam, pe_cfg)
    ncfg = cfg.newton or rotation.NewtonConfig(m_bits=cfg.m_bits)
    if ncfg.m_bits != cfg.m_bits:
        raise ValidationError("newton config m_bits disagrees with pipeline m_bits")
    oracle = rotation.build_sigma_tau_oracle(encoding, ncfg, cfg.tau)

    du, dv = spectral.pad_dim(spec.p), spectral.pad_dim(spec.q)
    b_bits = (du.bit_length() - 1) + (dv.bit_length() - 1)
    layout = sim.RegisterLayout.standard(ncfg.m_bits, t_bits, b_bits)
    a_pad = np.zeros((du, du), dtype=complex)
    a_pad[: spec.p, : spec.p] = spectral.gram(spec)

    state = sim.new_state(layout)
    sim.load_register(state, layout.reg_B, spectral.to_state(spec, spec.sigma))
    qpe.phase_estimate(state, pe_cfg, layout, a_pad)
    oracle.apply(state, layout)
    rotation.ry_cascade(state, layout, rotation.RotationConfig(alpha_value, ncfg.m_bits))
    # inexact encodings leave real leakage on L/C; report it instead of
    # treating it as a pass mismatch
    residual_tol = rotation.UNCOMPUTE_TOL if pe_cfg.exact else np.inf
    _, residual = rotation.uncompute(state, layout, oracle, pe_cfg, a_pad, tolerance=residual_tol)
    state, p_sim = sim.post_select(state, layout.ancilla, 1)

    dim_b = 1 << b_bits
    base = 1 << (layout.n_qubits - 1)  # ancilla=1, L=0, C=0 slice
    b_state = state.amplitudes[base : base + dim_b].copy()

    target = spectral.to_state(spec, spectral.shrunk_values(spec, cfg.tau))
    f_sim = float(abs(np.vdot(target, b_state)))

    n1 = float(np.sum(spec.sigma**2))
    codes = np.array([oracle.code_for(c) for c in encoding.labels])
    y_codes = codes / (1 << ncfg.m_bits)
    y_exact = np.asarray(profile.y)
    # triple k is <u_k (x) conj(v_k)|b>, the diagonal of U^dagger B V
    grid = b_state.reshape(du, dv)[: spec.p, : spec.q]
    triple_amps = (spec.u.conj() * (grid @ spec.v)).sum(axis=0) * np.sqrt(n1 * p_sim)

    p_shots = None
    if cfg.shots:
        rng = np.random.default_rng(cfg.seed)
        p_shots = float(rng.binomial(cfg.shots, p_sim)) / cfg.shots

    return SimulationResult(
        p_sim=float(p_sim),
        f_sim=f_sim,
        # a resolved alpha carries P and F by the same formulas
        p_analytic=solution.P if solution else alpha_mod.probability(profile, alpha_value),
        f_analytic=solution.F if solution else alpha_mod.fidelity_analytic(profile, alpha_value),
        alpha=alpha_value,
        alpha_method=method,
        alpha_note=note,
        n1=n1,
        n_alpha=float(n1 * p_sim),
        sigma=spec.sigma.copy(),
        y_exact=y_exact,
        y_codes=y_codes,
        labels=np.asarray(encoding.labels),
        triple_amplitudes=triple_amps,
        b_state=b_state,
        residual_mass=residual,
        pe_exact=pe_cfg.exact,
        y_repr_exact=bool(np.all(np.abs(y_codes - y_exact) <= EXACT_Y_TOL)),
        newton_iterations=max(oracle.iterations.values(), default=0),
        t_bits=t_bits,
        m_bits=ncfg.m_bits,
        p_shots=p_shots,
    )


@dataclass
class TripleRow:
    index: int
    sigma: float
    y_exact: float
    y_code: float
    target_weight: float
    sim_amplitude: complex
    analytic_amplitude: float


@dataclass
class VerificationReport:
    f_sim: float
    f_recomputed: float
    delta: float
    rows: list[TripleRow] = field(default_factory=list)


def verify_against_classical(
    result: SimulationResult, spec: spectral.SpectralData, tau: float
) -> VerificationReport:
    """Recompute the fidelity through the classical threshold operator
    (matrix route, independent of the spectral weights) and tabulate
    per-triple amplitudes."""
    s_matrix = spectral.classical_svt(spec, tau)
    du, dv = spectral.pad_dim(spec.p), spectral.pad_dim(spec.q)
    grid = np.zeros((du, dv), dtype=complex)
    grid[: spec.p, : spec.q] = s_matrix
    vec = grid.reshape(-1)
    nrm = np.linalg.norm(vec)
    if nrm <= 0:
        raise FullyThresholdedError("classical threshold output is zero")
    target = vec / nrm
    f_recomputed = float(abs(np.vdot(target, result.b_state)))

    shrunk = spectral.shrunk_values(spec, tau)
    n_alpha = result.n_alpha
    rows = []
    for k in range(spec.rank):
        y_k = float(result.y_exact[k])
        y_hat = float(result.y_codes[k])
        analytic = (
            result.sigma[k] * np.sin(y_hat * result.alpha) / np.sqrt(n_alpha)
            if n_alpha > 0
            else 0.0
        )
        rows.append(
            TripleRow(
                index=k,
                sigma=float(result.sigma[k]),
                y_exact=y_k,
                y_code=y_hat,
                target_weight=float(shrunk[k] / nrm),
                sim_amplitude=complex(result.triple_amplitudes[k] / np.sqrt(n_alpha)),
                analytic_amplitude=float(analytic),
            )
        )
    return VerificationReport(
        f_sim=result.f_sim,
        f_recomputed=f_recomputed,
        delta=abs(result.f_sim - f_recomputed),
        rows=rows,
    )
