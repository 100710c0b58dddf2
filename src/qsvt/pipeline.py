"""End-to-end run: state preparation, phase estimation, threshold
oracle, rotation cascade, uncompute, post-selection, and comparison of
the simulated output against the classical threshold operator and the
closed-form probability/fidelity."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
    shots: int | None = None  # None or 0: no sampling
    seed: int = 0

    def __post_init__(self) -> None:
        # checked against sigma_1 in the run
        self.tau = sim.check_positive("threshold", self.tau)
        if self.shots is not None:
            # Generator.binomial takes an int64 count
            self.shots = sim.check_int("shots", self.shots, 0, np.iinfo(np.int64).max)
        # NumPy rejects a negative seed only when its generator is made, after the run
        self.seed = sim.check_int("seed", self.seed, 0)
        if self.alpha_method not in alpha_mod.METHODS:  # checked even with an explicit alpha
            raise ValidationError(f"unknown alpha method {self.alpha_method!r}")


@dataclass
class SimulationResult:
    p_sim: float
    f_sim: float
    p_analytic: float
    f_analytic: float
    alpha: float
    alpha_method: str
    n_alpha: float
    spec: spectral.SpectralData  # the decomposition the run used
    y_exact: np.ndarray
    y_codes: np.ndarray
    labels: np.ndarray
    triple_amplitudes: np.ndarray
    b_state: np.ndarray
    residual_mass: float
    pe_exact: bool
    exact: bool  # integer labels and exactly representable shrinkage fractions
    newton_iterations: int
    t_bits: int
    m_bits: int
    p_shots: float | None = None

    @property
    def sigma(self) -> np.ndarray:
        return self.spec.sigma


def run_pipeline(cfg: PipelineConfig) -> SimulationResult:
    """Execute the full circuit on the simulator and post-select the
    ancilla on 1.  Every input-derived record (spectrum, alpha, labels,
    oracle, layout) is built and checked before the state, and so is the
    memory that the state and phase estimation's arrays take: E's T x d
    table, the row being folded into it and ``herm_exp``'s temporary.
    Data register B holds the input's Schmidt index k, log2 pad_dim(r)
    qubits but at least one, on which A = A0 A0^dagger is
    diag(sigma_k^2) (:func:`spectral.gram`); ``b_state`` is written back
    in the input's pad(p) x pad(q) layout, as sum_k beta_k u_k (x) conj(v_k).

    Alpha's rules, the single-lobe one y_1 alpha <= pi among them, are
    :func:`alpha.solution`'s, checked first.  The label rule lives here, as
    it needs tau: a singular value above tau needs a label that is not 0
    and holds no other eigenvalue.  Singular values at or below tau may sit
    on label 0 or share a label.  Then sigma_1's L code must not be 0."""
    spec = spectral.decompose(cfg.a0)
    profile = alpha_mod.SpectrumProfile.from_sigma_tau(spec.sigma, cfg.tau)

    if cfg.alpha is not None:
        solution = alpha_mod.solution(profile, "explicit", cfg.alpha)
    else:  # the rule that made alpha: taylor2 where taylor4 fell back
        solution, note = alpha_mod.resolve_alpha(profile, cfg.alpha_method)
        if note:
            warnings.warn(note, stacklevel=2)

    # s * s has the bits of NumPy's sigma**2, which squares as x * x
    pe_cfg = qpe.choose_t0([s * s for s in profile.sigma], cfg.t_bits)
    # label 0 decodes to 0, whose code 0 is the thresholded branch's, and a
    # label that only thresholded eigenvalues share gets the code each gets alone
    for s, c in zip(profile.sigma, pe_cfg.labels):
        if s > cfg.tau and (c == 0 or pe_cfg.labels.count(c) > 1):
            why = "decodes to 0" if c == 0 else "holds another eigenvalue"
            raise ValidationError(f"singular value {s:.6g} above tau rounds to label {c} at"
                                  f" t_bits={pe_cfg.t_bits}, which {why}: raise --t-bits")
    oracle = rotation.build_sigma_tau_oracle(pe_cfg, cfg.m_bits, cfg.tau)
    m_bits = oracle.m_bits  # the width as the oracle checked it: a Python int
    codes = [oracle.y_codes.get(c, 0) for c in pe_cfg.labels]
    # sigma_1's code: the largest an occupied label gets, and its label always holds mass
    if codes[0] == 0:  # post-select would read probability 0
        # the least wider m with 2^-m <= y_1 (labels round sigma_1 too)
        need = max(1 - math.frexp(profile.y[0])[1], m_bits + 1)
        hint = (f"raise --m-bits to at least {need}, where 2^-m <= y_1" if need <= sim.MAX_QUBITS
                else f"no --m-bits up to {sim.MAX_QUBITS} gives sigma_1 a code: lower tau")
        raise FullyThresholdedError(
            f"every L code is 0 (y_1 = 1 - tau/sigma_1 = {profile.y[0]:.4g}, 2^-m ="
            f" {2.0 ** -m_bits:.4g}): no L value rotates the ancilla; {hint}"
        )

    # B is the input's Schmidt index k: the load sum_k sigma_k |k> stands for
    # sum_k sigma_k |u_k>|conj(v_k)>, and every stage commutes with that isometry
    eigenvalues = spectral.gram(spec)
    d = len(eigenvalues)
    b_bits = d.bit_length() - 1
    layout = sim.cached_layout(m_bits, pe_cfg.t_bits, b_bits)
    sim.check_budget(layout, qpe.matrix_bytes(pe_cfg.t_bits, b_bits),
                     f" with E's {1 << pe_cfg.t_bits} x {d} table on the Schmidt index,"
                     f" the row being folded into it and herm_exp's temporary")

    state = sim.new_state(layout)
    load = np.zeros(d)
    load[: spec.rank] = spec.sigma / sim._norm(spec.sigma)
    sim.load_register(state, load)
    # the L = 0 block is all of the state until the oracle
    qpe.phase_estimate(sim.l_zero_block(state), pe_cfg, eigenvalues)
    oracle.apply(state)
    rotation.ry_cascade(state, solution.alpha)
    residual = rotation.uncompute(state, oracle, pe_cfg, eigenvalues)
    p_sim = sim.post_select(state, layout.ancilla, 1)

    # L = 0, C = 0, ancilla = 1: overlap k, <u_k (x) conj(v_k)|b>, is the amplitude of |k>
    overlaps = state.registers[0, 0, 1, : spec.rank] / math.sqrt(p_sim)
    # the target sum_k s_k (u_k (x) conj(v_k)) / |s| lies in their span;
    # s is non-zero, since sigma_1 > tau
    shrunk = spectral.shrunk_values(spec, cfg.tau)
    f_sim = float(abs(shrunk @ overlaps) / sim._norm(shrunk))

    n1 = float(np.sum(spec.sigma**2))
    y_codes = [c / (1 << m_bits) for c in codes]
    triple_amps = overlaps * math.sqrt(n1 * p_sim)

    p_shots = None
    if cfg.shots:
        rng = np.random.default_rng(cfg.seed)
        # p_sim is a sum of squares and can round to just above 1
        p_shots = float(rng.binomial(cfg.shots, min(p_sim, 1.0))) / cfg.shots

    return SimulationResult(
        p_sim=p_sim,
        f_sim=f_sim,
        p_analytic=solution.P,
        f_analytic=solution.F,
        alpha=solution.alpha,
        alpha_method=solution.method,
        n_alpha=n1 * p_sim,
        spec=spec,
        y_exact=np.asarray(profile.y),
        y_codes=np.array(y_codes),
        labels=np.asarray(pe_cfg.labels),
        triple_amplitudes=triple_amps,
        b_state=spectral.embed(spec, overlaps),
        residual_mass=residual,
        pe_exact=pe_cfg.exact,
        exact=pe_cfg.exact and all(abs(c - y) <= EXACT_Y_TOL for c, y in zip(y_codes, profile.y)),
        newton_iterations=max(oracle.iterations.values(), default=0),
        t_bits=pe_cfg.t_bits,
        m_bits=m_bits,
        p_shots=p_shots,
    )


@dataclass
class VerificationReport:
    f_recomputed: float
    delta: float  # |f_sim - f_recomputed|


def verify_against_classical(
    result: SimulationResult, spec: spectral.SpectralData, tau: float
) -> VerificationReport:
    """Recompute the fidelity against the classical threshold operator
    S = sum_k (sigma_k - tau)_+ u_k v_k^dagger written as B's amplitudes,
    the unit vector that :func:`spectral.to_state` builds from the shrunk
    values: its overlap with ``result.b_state``, independent of the
    per-triple overlaps that ``f_sim`` is read from.  ``spec`` must be of
    an input of the run's shape."""
    if (spec.p, spec.q) != (result.spec.p, result.spec.q):
        raise ValidationError(f"a {spec.p} x {spec.q} spectrum cannot recheck the run of a"
                              f" {result.spec.p} x {result.spec.q} input")
    tau = spectral.check_threshold(tau, float(spec.sigma[0]))
    target = spectral.to_state(spec, spectral.shrunk_values(spec, tau))
    f_recomputed = float(abs(np.vdot(target, result.b_state)))
    return VerificationReport(f_recomputed, abs(result.f_sim - f_recomputed))
