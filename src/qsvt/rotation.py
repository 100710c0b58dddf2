"""Threshold oracle and rotation cascade.

The controlled-rotation subroutine splits in two: a basis-state oracle
that writes the m-bit shrinkage fraction y = (1 - tau/sigma)_+ of each
eigenvalue label into register L (computed by a cubic Newton iteration,
XOR-written so the oracle is self-inverse), and a Y rotation controlled
by L that turns the L content theta = 0.t1...td into an ancilla
amplitude sin(theta * alpha).

Fixed-point codes are m-bit binary fractions value = raw / 2**m in
[0, 1).  General float-to-code conversion rounds to nearest, ties up.
The Newton iterator instead truncates each step toward zero: an
iterate that overshoots past 1 is clamped to the top code, and only a
downward-biased rounding lets it walk back off the clamp to the fixed
point (nearest-rounding re-rounds to the clamp forever).  With exact integer
arithmetic over a power-of-two denominator, two runs agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import sim
from .errors import ConvergenceError, UncomputeResidualError, ValidationError
from .qpe import PhaseEstimationConfig, phase_estimate_inverse
from .sim import QuantumState, RegisterLayout

UNCOMPUTE_TOL = 1e-9


@dataclass(frozen=True)
class FixedPointCode:
    """m-bit binary fraction: value = raw / 2**m in [0, 1)."""

    m_bits: int
    raw: int

    def __post_init__(self) -> None:
        if self.m_bits < 1:
            raise ValidationError("m_bits must be at least 1")
        if not 0 <= self.raw < (1 << self.m_bits):
            raise ValidationError(f"raw code {self.raw} out of range for m={self.m_bits}")

    @property
    def value(self) -> float:
        return self.raw / (1 << self.m_bits)

    @classmethod
    def from_float(cls, x: float, m_bits: int) -> "FixedPointCode":
        """Nearest code, ties toward +inf, clamped into [0, 1 - 2**-m]."""
        scale = 1 << m_bits
        p, q = x.as_integer_ratio()  # floor(x scale + 1/2), exactly
        return cls(m_bits, min(max((2 * p * scale + q) // (2 * q), 0), scale - 1))


@dataclass(frozen=True)
class NewtonConfig:
    m_bits: int = 8
    max_iterations: int = 40
    initial: float = 0.5
    divergence_guard: float = 1.25

    def __post_init__(self) -> None:
        sim.check_width("m_bits", self.m_bits)
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")
        if not 0 <= self.initial < 1:
            raise ValidationError("initial value must lie in [0, 1)")
        if self.divergence_guard <= 1:
            raise ValidationError("divergence guard must exceed 1")

    def max_ratio(self) -> float:
        """Largest sigma/tau whose first update from ``initial`` stays
        within the guard: (r^2/2)(1-y0)^3 + 3y0/2 - 1/2 <= guard.  That is
        4 at the defaults, the edge of the tested basin."""
        y0 = FixedPointCode.from_float(self.initial, self.m_bits).value
        return math.sqrt(2 * (self.divergence_guard + 0.5 - 1.5 * y0) / (1 - y0) ** 3)


@dataclass(frozen=True)
class RotationConfig:
    """alpha in radians, finite and positive; theta has as many bits as
    register L, whose width the layout owns.

    The cascade is exact for any theta; the alpha theory's single-lobe
    rule, theta * alpha <= pi on every occupied L value, is checked once
    in the run's set-up by :meth:`check_single_lobe`.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise ValidationError(f"alpha must be finite, got {self.alpha!r}")
        if not self.alpha > 0:
            raise ValidationError("alpha must be positive")

    def check_single_lobe(self, raw: int, m_bits: int) -> None:
        """Reject theta * alpha > pi for theta = raw / 2**m_bits."""
        if raw / (1 << m_bits) * self.alpha > np.pi + 1e-9:
            raise ValidationError(
                "alpha * theta exceeds pi on an occupied L value (sine no longer"
                " single-lobed)"
            )


def _cubic(tau: float, sigma_sq: float, m_bits: int) -> tuple[int, int]:
    """(k, c) = (q a^2 4^m, p b^2) for tau = a/b, sigma_sq = p/q: 2^m times the
    update at y = raw/2^m is k (3 raw - 2^m) - c (raw - 2^m)^3 over 2k."""
    a, b = tau.as_integer_ratio()
    p, q = sigma_sq.as_integer_ratio()
    return (q * a * a) << (2 * m_bits), p * b * b


def _step(raw: int, top: int, k: int, c: int) -> tuple[int, int]:
    """Numerator over 2k of the update at raw/top; next code, floored into [0, top)."""
    e = raw - top
    numerator = k * (3 * raw - top) - c * e * e * e
    return numerator, min(max(numerator // (2 * k), 0), top - 1)


def newton_step(y: FixedPointCode, tau: float, sigma_sq: float) -> FixedPointCode:
    """Apply the cubic update once, truncated to m bits and clamped
    into [0, 1 - 2**-m].  Excursion guarding lives in newton_iterate."""
    if not tau > 0:
        raise ValidationError("tau must be positive")
    k, c = _cubic(tau, sigma_sq, y.m_bits)
    return FixedPointCode(y.m_bits, _step(y.raw, 1 << y.m_bits, k, c)[1])


class NewtonResult(NamedTuple):
    code: FixedPointCode
    iterations: int
    converged: bool


def newton_iterate(cfg: NewtonConfig, tau: float, sigma_sq: float) -> NewtonResult:
    """Iterate the cubic map from cfg.initial until the code is stable.

    sigma <= tau short-circuits to exactly 0 (thresholded branch).
    Convergence means two successive codes agree, or an adjacent pair
    alternates (grid-straddled fixed point; the lower code is taken).
    The guard trips when an unclamped iterate exceeds
    cfg.divergence_guard in magnitude, which from initial 1/2 happens
    exactly when sigma/tau > 4 at the default guard of 1.25.  It runs
    in exact integer arithmetic over a power-of-two denominator.
    """
    return _iterate(cfg, tau, sigma_sq, FixedPointCode.from_float(cfg.initial, cfg.m_bits).raw)


def _iterate(cfg: NewtonConfig, tau: float, sigma_sq: float, raw: int) -> NewtonResult:
    if not tau > 0:
        raise ValidationError("tau must be positive")
    if not sigma_sq > 0:
        raise ValidationError("sigma_sq must be positive")
    m, top = cfg.m_bits, 1 << cfg.m_bits
    if math.sqrt(sigma_sq) <= tau:
        return NewtonResult(FixedPointCode(m, 0), 0, True)
    k, c = _cubic(tau, sigma_sq, m)
    ng, dg = cfg.divergence_guard.as_integer_ratio()
    bound = 2 * k * top * ng  # |numerator / (2k top)| > ng/dg trips the guard
    prev_raw: int | None = None
    for i in range(1, cfg.max_iterations + 1):
        numerator, new = _step(raw, top, k, c)
        if abs(numerator) * dg > bound:
            return NewtonResult(FixedPointCode(m, raw), i, False)
        if new == raw:
            return NewtonResult(FixedPointCode(m, new), i, True)
        if new == prev_raw and abs(new - raw) == 1:
            return NewtonResult(FixedPointCode(m, min(new, raw)), i, True)
        prev_raw, raw = raw, new
    return NewtonResult(FixedPointCode(m, raw), cfg.max_iterations, False)


@dataclass(frozen=True)
class SigmaTauOracle:
    """XOR oracle on (L, C): |l>|c> -> |l XOR y(lam(c))>|c>.

    Labels outside the encoding are untouched (y = 0).  XOR of a
    function of C makes the oracle self-inverse.
    """

    m_bits: int
    t_bits: int
    y_codes: dict[int, int]
    iterations: dict[int, int]

    def code_for(self, label: int) -> int:
        return self.y_codes.get(label, 0)

    def apply(self, state: QuantumState, layout: RegisterLayout) -> QuantumState:
        if len(layout.reg_L) != self.m_bits or len(layout.reg_C) != self.t_bits:
            raise ValidationError("oracle widths do not match layout")
        sim.apply_basis_oracle(state, layout.reg_L, layout.reg_C, self.y_codes)
        sim.check_norm(state)
        return state


def build_sigma_tau_oracle(
    pe_cfg: PhaseEstimationConfig, cfg: NewtonConfig, tau: float
) -> SigmaTauOracle:
    """Run the Newton iteration for every eigenvalue label of ``pe_cfg``.

    Any label that fails to converge aborts the build with a per-label
    diagnostic; non-convergence is never silently written.
    """
    codes: dict[int, int] = {}
    iters: dict[int, int] = {}
    failures: list[str] = []
    initial = FixedPointCode.from_float(cfg.initial, cfg.m_bits).raw
    for label in pe_cfg.labels:
        decoded = pe_cfg.decode(label)
        result = _iterate(cfg, tau, decoded, initial)
        if not result.converged:
            ratio, limit = math.sqrt(decoded) / tau, cfg.max_ratio()
            failures.append(
                f"label {label} (sigma^2={decoded:.6g}, sigma/tau={ratio:.3f}): "
                f"no convergence in {result.iterations} iterations; smallest admissible"
                f" tau is sigma/{limit:.3f} = {math.sqrt(decoded) / limit:.6g}"
            )
            continue
        codes[label] = result.code.raw
        iters[label] = result.iterations
    if failures:
        raise ConvergenceError("; ".join(failures))
    return SigmaTauOracle(cfg.m_bits, pe_cfg.t_bits, codes, iters)


def ry_cascade(
    state: QuantumState, layout: RegisterLayout, cfg: RotationConfig
) -> QuantumState:
    """Rotate the ancilla by the L-register fraction: for L holding
    theta = 0.t1...td the ancilla becomes sin(theta a)|1> + cos(theta a)|0>,
    as one ry(2 theta a) per L label in one controlled pass (the product
    of the paper's ry(2^(1-j) a) on each L qubit j).  Exact for every
    theta; the single-lobe rule is a set-up check."""
    anc_mass = sim.register_mass(state, [layout.ancilla])
    if anc_mass[1] > 1e-12:
        raise ValidationError("ancilla not cleared")
    angles = np.linspace(0.0, 2.0 * cfg.alpha, 1 << len(layout.reg_L), endpoint=False)
    sim.apply_controlled(state, sim.ry(angles), layout.reg_L, [layout.ancilla])
    sim.check_norm(state)
    return state


def uncompute(
    state: QuantumState,
    layout: RegisterLayout,
    oracle: SigmaTauOracle,
    pe_cfg: PhaseEstimationConfig,
    a: np.ndarray,
    tolerance: float = UNCOMPUTE_TOL,
) -> tuple[QuantumState, float]:
    """Reverse the oracle and phase estimation, restoring L and C to 0.

    Returns the state and the residual mass on L/C (uncompute_residual);
    above ``tolerance`` it signals a config mismatch between the forward
    and reverse passes and raises.  Inexact eigenvalue encodings leave
    genuine residual (the rotation entangles leaked labels); callers in
    that regime pass a lax tolerance and report the residual instead.
    """
    oracle.apply(state, layout)
    phase_estimate_inverse(state, pe_cfg, layout, a)
    residual = uncompute_residual(state, layout)
    if residual > tolerance:
        raise UncomputeResidualError(
            f"registers L/C hold residual mass {residual:.3e} after uncompute"
        )
    return state, residual


def uncompute_residual(state: QuantumState, layout: RegisterLayout) -> float:
    """Probability mass with L or C off |0>."""
    qubits = [*layout.reg_L, *layout.reg_C]
    if not qubits:
        return 0.0
    mass = sim.register_mass(state, qubits)
    return float(mass[1:].sum())
