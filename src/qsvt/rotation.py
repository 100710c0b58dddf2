"""Threshold oracle and rotation cascade.

The controlled-rotation subroutine splits in two: a basis-state oracle
that writes the m-bit shrinkage fraction y = (1 - tau/sigma)_+ of each
eigenvalue label into register L (computed by a cubic Newton iteration,
XOR-written so the oracle is self-inverse), and a Y rotation controlled
by L that turns the L content theta = 0.t1...td into an ancilla
amplitude sin(theta * alpha).

:func:`build_sigma_tau_oracle` is the one Newton entry point.  A code
is an m-bit binary fraction raw / 2**m in [0, 1), held as the int raw.
The iteration truncates each step toward zero: an iterate that
overshoots past 1 is clamped to the top code, and only a downward-biased
rounding lets it walk back off the clamp to the fixed point
(nearest-rounding re-rounds to the clamp forever).  With exact integer
arithmetic over a power-of-two denominator, two runs agree bit for bit.

The Newton start is worked out from sigma_1/tau before the circuit runs,
as alpha is: the smallest code at or above 1/2 whose first update stays
within DIVERGENCE_GUARD, found by bisection (on [1/2, 1) the update falls
to the fixed point 1 - tau/sigma, then stays below 1).  Every sigma/tau
<= 4 gets 1/2.  The top code reaches sigma/tau = sqrt((1/2 + 3 * 2**-m)
* 2**(3m)): 4, 8.94, 21.2 and 53.1 at m = 1..4, 2930 at m = 8.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import sim
from .errors import ConvergenceError, UncomputeResidualError, ValidationError
from .qpe import PhaseEstimationConfig, phase_estimate_inverse
from .sim import QuantumState, RegisterLayout

UNCOMPUTE_TOL = 1e-9
MAX_ITERATIONS = 40
DIVERGENCE_GUARD = 1.25  # an update beyond it in magnitude has left the basin


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


def _step(raw: int, top: int, k: int, c: int) -> tuple[bool, int]:
    """Whether the update at raw/top is within DIVERGENCE_GUARD in magnitude
    (numerator over 2k, exact); next code, floored into [0, top)."""
    e = raw - top
    numerator = k * (3 * raw - top) - c * e * e * e
    ng, dg = DIVERGENCE_GUARD.as_integer_ratio()
    return abs(numerator) * dg <= 2 * k * top * ng, min(max(numerator // (2 * k), 0), top - 1)


def _start(m_bits: int, tau: float, sigma_sq: float) -> int:
    """The smallest code at or above 1/2 whose first update stays within
    the guard; 2**m_bits where not even the top code's does."""
    top = 1 << m_bits
    k, c = _cubic(tau, sigma_sq, m_bits)
    codes = range(top >> 1, top)  # fail ... fail pass ... pass
    return codes.start + bisect.bisect_left(codes, True, key=lambda raw: _step(raw, top, k, c)[0])


def _iterate(m_bits: int, tau: float, sigma_sq: float, raw: int) -> tuple[int, int, bool]:
    """(code, iterations, converged) of the cubic map from code ``raw``."""
    top = 1 << m_bits
    if math.sqrt(sigma_sq) <= tau:
        return 0, 0, True
    k, c = _cubic(tau, sigma_sq, m_bits)
    prev_raw: int | None = None
    for i in range(1, MAX_ITERATIONS + 1):
        within, new = _step(raw, top, k, c)
        if not within:
            return raw, i, False
        if new == raw:
            return new, i, True
        if new == prev_raw and abs(new - raw) == 1:
            return min(new, raw), i, True
        prev_raw, raw = raw, new
    return raw, MAX_ITERATIONS, False


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
        # a permutation of the amplitudes: the norm is as it was
        return sim.apply_basis_oracle(state, layout.reg_L, layout.reg_C, self.y_codes)


def build_sigma_tau_oracle(
    pe_cfg: PhaseEstimationConfig, m_bits: int, tau: float
) -> SigmaTauOracle:
    """Run the Newton iteration for every eigenvalue label of ``pe_cfg``,
    each from the start rule's code for the largest label (a smaller
    sigma/tau makes a smaller first update from it).

    sigma <= tau short-circuits to exactly 0 (thresholded branch).
    Convergence means two successive codes agree, or an adjacent pair
    alternates (grid-straddled fixed point; the lower code is taken).
    The guard trips when an unclamped iterate exceeds DIVERGENCE_GUARD
    in magnitude.  Any label that fails to converge aborts the build
    with a per-label diagnostic, and with the reach of m_bits where no
    start exists; non-convergence is never silently written.
    """
    sim.check_width("m_bits", m_bits)
    if not tau > 0:
        raise ValidationError("tau must be positive")
    top, sigma1_sq = 1 << m_bits, pe_cfg.decode(max(pe_cfg.labels, default=0))
    start = _start(m_bits, tau, sigma1_sq)
    codes: dict[int, int] = {}
    iters: dict[int, int] = {}
    failures: list[str] = []
    for label in pe_cfg.labels:
        decoded = pe_cfg.decode(label)
        raw, iterations, converged = _iterate(m_bits, tau, decoded, min(start, top - 1))
        if not converged:
            failures.append(
                f"label {label} (sigma^2={decoded:.6g}, sigma/tau={math.sqrt(decoded) / tau:.3f}):"
                f" no convergence in {iterations} iterations"
            )
            continue
        codes[label] = raw
        iters[label] = iterations
    if start == top:
        reach = math.sqrt(2 * (DIVERGENCE_GUARD - 1 + 1.5 / top) * top**3)
        failures.append(f"no m_bits={m_bits} Newton start reaches sigma/tau above {reach:.2f}:"
                        f" raise --m-bits, or take tau >= {math.sqrt(sigma1_sq) / reach:.6g}")
    if failures:
        raise ConvergenceError("; ".join(failures))
    return SigmaTauOracle(m_bits, pe_cfg.t_bits, codes, iters)


def ry_cascade(
    state: QuantumState, layout: RegisterLayout, cfg: RotationConfig
) -> QuantumState:
    """Rotate the ancilla by the L-register fraction: for L holding
    theta = 0.t1...td the ancilla becomes sin(theta a)|1> + cos(theta a)|0>,
    as one ry(2 theta a) per L label in one controlled pass (the product
    of the paper's ry(2^(1-j) a) on each L qubit j).  Exact for every
    theta; the single-lobe rule is a set-up check."""
    anc_mass = sim.register_mass(state, [layout.ancilla])
    if not anc_mass[1] <= sim.CLEARED_TOL:  # NaN fails too
        raise ValidationError("ancilla not cleared")
    labels = 1 << len(layout.reg_L)
    angles = np.arange(labels) * (2.0 * cfg.alpha / labels)  # = linspace(0, 2a, endpoint=False)
    sim.apply_controlled(state, sim.ry(angles), layout.reg_L, [layout.ancilla])
    sim.check_norm(state)
    return state


def uncompute(
    state: QuantumState,
    layout: RegisterLayout,
    oracle: SigmaTauOracle,
    pe_cfg: PhaseEstimationConfig,
    a: np.ndarray,
) -> tuple[QuantumState, float]:
    """Reverse the oracle and phase estimation, restoring L and C to 0.

    Returns the state and the residual mass on L/C (uncompute_residual).
    With an exact encoding, residual above UNCOMPUTE_TOL signals a config
    mismatch between the forward and reverse passes and raises; an
    inexact one leaves genuine residual (the rotation entangles leaked
    labels), which is returned, not raised.
    """
    oracle.apply(state, layout)
    phase_estimate_inverse(state, pe_cfg, layout, a)
    residual = uncompute_residual(state, layout)
    if not residual <= (UNCOMPUTE_TOL if pe_cfg.exact else math.inf):  # NaN fails too
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
