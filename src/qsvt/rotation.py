"""Threshold oracle and rotation cascade.

The controlled-rotation subroutine splits in two: a basis-state oracle
that writes the m-bit shrinkage fraction y = (1 - tau/sigma)_+ of each
eigenvalue label into register L (computed by a cubic Newton iteration,
XOR-written so the oracle is self-inverse), and a cascade of d
single-qubit Y rotations that turns the L content theta = 0.t1...td
into an ancilla amplitude sin(theta * alpha).

Fixed-point codes are m-bit binary fractions value = raw / 2**m in
[0, 1).  General float-to-code conversion rounds to nearest, ties up.
The Newton iterator instead truncates each step toward zero: an
iterate that overshoots past 1 is clamped to the top code, and only a
downward-biased rounding lets it walk back off the clamp to the fixed
point (nearest-rounding re-rounds to the clamp forever).  All Newton
arithmetic is exact rational, so two runs agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import sim
from .errors import ConvergenceError, UncomputeResidualError, ValidationError
from .qpe import EigenEncoding, PhaseEstimationConfig, phase_estimate_inverse
from .sim import QuantumState, RegisterLayout

UNCOMPUTE_TOL = 1e-9
OCCUPIED_TOL = 1e-18


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

    def as_fraction(self) -> Fraction:
        return Fraction(self.raw, 1 << self.m_bits)

    @classmethod
    def from_float(cls, x: float, m_bits: int) -> "FixedPointCode":
        """Nearest code, ties toward +inf, clamped into [0, 1 - 2**-m]."""
        scale = 1 << m_bits
        raw = math.floor(Fraction(x) * scale + Fraction(1, 2))
        return cls(m_bits, min(max(raw, 0), scale - 1))


@dataclass(frozen=True)
class NewtonConfig:
    m_bits: int = 8
    max_iterations: int = 40
    initial: float = 0.5
    divergence_guard: float = 1.25

    def __post_init__(self) -> None:
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
    """alpha in radians; d_bits = width of the theta expansion (= m_bits).

    The cascade requires theta * alpha <= pi on every occupied L value
    (single sine lobe); that is checked against the actual register
    content when the cascade is applied.
    """

    alpha: float
    d_bits: int

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValidationError("alpha must be positive")
        if self.d_bits < 1:
            raise ValidationError("d_bits must be at least 1")


def cubic_map(y: Fraction, tau: Fraction, sigma_sq: Fraction) -> Fraction:
    """One unrounded update: -(s^2/(2 t^2))(y-1)^3 + (3/2)y - 1/2."""
    return (
        -(sigma_sq / (2 * tau * tau)) * (y - 1) ** 3
        + Fraction(3, 2) * y
        - Fraction(1, 2)
    )


def _truncate(value: Fraction, m_bits: int) -> int:
    scale = 1 << m_bits
    return min(max(math.floor(value * scale), 0), scale - 1)


def newton_step(y: FixedPointCode, tau: float, sigma_sq: float) -> FixedPointCode:
    """Apply the cubic update once, truncated to m bits and clamped
    into [0, 1 - 2**-m].  Excursion guarding lives in newton_iterate."""
    if not tau > 0:
        raise ValidationError("tau must be positive")
    value = cubic_map(y.as_fraction(), Fraction(tau), Fraction(sigma_sq))
    return FixedPointCode(y.m_bits, _truncate(value, y.m_bits))


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
    exactly when sigma/tau > 4 at the default guard of 1.25.
    """
    if not tau > 0:
        raise ValidationError("tau must be positive")
    if not sigma_sq > 0:
        raise ValidationError("sigma_sq must be positive")
    m = cfg.m_bits
    if math.sqrt(sigma_sq) <= tau:
        return NewtonResult(FixedPointCode(m, 0), 0, True)
    tau_f = Fraction(tau)
    sig_f = Fraction(sigma_sq)
    guard = Fraction(cfg.divergence_guard)
    y = FixedPointCode.from_float(cfg.initial, m)
    prev_raw: int | None = None
    for i in range(1, cfg.max_iterations + 1):
        value = cubic_map(y.as_fraction(), tau_f, sig_f)
        if abs(value) > guard:
            return NewtonResult(y, i, False)
        raw = _truncate(value, m)
        if raw == y.raw:
            return NewtonResult(FixedPointCode(m, raw), i, True)
        if prev_raw is not None and raw == prev_raw and abs(raw - y.raw) == 1:
            return NewtonResult(FixedPointCode(m, min(raw, y.raw)), i, True)
        prev_raw = y.raw
        y = FixedPointCode(m, raw)
    return NewtonResult(y, cfg.max_iterations, False)


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
    encoding: EigenEncoding, cfg: NewtonConfig, tau: float
) -> SigmaTauOracle:
    """Run the Newton iteration for every encoded label.

    Any label that fails to converge aborts the build with a per-label
    diagnostic; non-convergence is never silently written.
    """
    codes: dict[int, int] = {}
    iters: dict[int, int] = {}
    failures: list[str] = []
    for lam, label in zip(encoding.eigenvalues, encoding.labels):
        decoded = encoding.decode(label)
        result = newton_iterate(cfg, tau, decoded)
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
    return SigmaTauOracle(cfg.m_bits, encoding.t_bits, codes, iters)


def ry_cascade(
    state: QuantumState, layout: RegisterLayout, cfg: RotationConfig
) -> QuantumState:
    """Rotate the ancilla by the L-register fraction: for L holding
    theta = 0.t1...td the ancilla becomes sin(theta a)|1> + cos(theta a)|0>,
    as d rotations ry(2^(1-j) alpha) each controlled on one L qubit."""
    if cfg.d_bits != len(layout.reg_L):
        raise ValidationError("d_bits must equal the width of register L")
    anc_mass = sim.register_mass(state, [layout.ancilla])
    if anc_mass[1] > 1e-12:
        raise ValidationError("ancilla not cleared")
    l_mass = sim.register_mass(state, layout.reg_L)
    occupied = np.flatnonzero(l_mass > OCCUPIED_TOL)
    scale = 1 << cfg.d_bits
    if occupied.size and occupied.max() / scale * cfg.alpha > np.pi + 1e-9:
        raise ValidationError(
            "alpha * theta exceeds pi on an occupied L value (sine no longer"
            " single-lobed)"
        )
    for j, q in enumerate(layout.reg_L, start=1):
        gate = sim.ry(2.0 ** (1 - j) * cfg.alpha)
        sim.apply_controlled(state, gate, q, 1, [layout.ancilla])
    sim.check_norm(state)
    return state


def uncompute(
    state: QuantumState,
    layout: RegisterLayout,
    oracle: SigmaTauOracle,
    pe_cfg: PhaseEstimationConfig,
    a: np.ndarray,
    tolerance: float = UNCOMPUTE_TOL,
) -> QuantumState:
    """Reverse the oracle and phase estimation, restoring L and C to 0.

    Residual mass on L/C above ``tolerance`` signals a config mismatch
    between the forward and reverse passes and raises.  Inexact
    eigenvalue encodings leave genuine residual (the rotation entangles
    leaked labels); callers in that regime pass a lax tolerance and
    report the residual instead.
    """
    oracle.apply(state, layout)
    phase_estimate_inverse(state, pe_cfg, layout, a)
    residual = uncompute_residual(state, layout)
    if residual > tolerance:
        raise UncomputeResidualError(
            f"registers L/C hold residual mass {residual:.3e} after uncompute"
        )
    return state


def uncompute_residual(state: QuantumState, layout: RegisterLayout) -> float:
    """Probability mass with L or C off |0>."""
    qubits = [*layout.reg_L, *layout.reg_C]
    if not qubits:
        return 0.0
    mass = sim.register_mass(state, qubits)
    return float(mass[1:].sum())
