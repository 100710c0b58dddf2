"""Threshold oracle and rotation cascade.

The controlled-rotation subroutine splits in two: a basis-state oracle
that writes the m-bit shrinkage fraction y = (1 - tau/sigma)_+ of each
eigenvalue label into register L (computed by a cubic Newton iteration,
XOR-written so the oracle is self-inverse), and a Y rotation controlled
by L that turns the L content theta = 0.t1...td into an ancilla
amplitude sin(theta * alpha).  The rotation takes an ancilla whose |1>
half is exactly zero, as nothing before it in a run writes that half, and
writes both halves in place rather than as a gate.

:func:`build_sigma_tau_oracle` is the one Newton entry point.  A code
is an m-bit binary fraction raw / 2**m in [0, 1), held as the int raw;
each step is truncated toward zero and clamped into [0, 2**m).  With
exact integer arithmetic over a power-of-two denominator, two runs agree
bit for bit.  A :class:`SigmaTauOracle` checks its labels and codes once,
when it is made; its gate, :func:`sim.apply_basis_oracle`, checks none.

Every label ends at its floor code s* = floor(2**m y*), y* = 1 - tau/sigma,
from any start.  The map is convex below 1 and flat at y*, so no step
lands below s*; above y* it lies below the identity, so from a code above
s* the step falls strictly.  From s* the step stays put, alternates with
s* + 1, or is clamped to the top code: a jump of two or more codes needs
sigma/tau > 0.56 * 2**m, and then s* is one of the top two codes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sim
from .errors import ConvergenceError, UncomputeResidualError, ValidationError
from .qpe import PhaseEstimationConfig, phase_estimate_inverse
from .sim import QuantumState

UNCOMPUTE_TOL = 1e-9
MAX_ITERATIONS = 64


def _cubic(tau: float, sigma_sq: float, m_bits: int) -> tuple[int, int]:
    """(k, c) = (q a^2 4^m, p b^2) for tau = a/b, sigma_sq = p/q: 2^m times the
    update at y = raw/2^m is k (3 raw - 2^m) - c (raw - 2^m)^3 over 2k."""
    a, b = tau.as_integer_ratio()
    p, q = sigma_sq.as_integer_ratio()
    return (q * a * a) << (2 * m_bits), p * b * b


def _step(raw: int, top: int, k: int, c: int) -> int:
    """The next code after raw/top: the update floored into [0, top)."""
    e = raw - top
    return min(max((k * (3 * raw - top) - c * e * e * e) // (2 * k), 0), top - 1)


def _iterate(m_bits: int, tau: float, sigma_sq: float, raw: int) -> tuple[int, int, bool]:
    """(code, iterations, converged) of the cubic map from code ``raw``."""
    top = 1 << m_bits
    if math.sqrt(sigma_sq) <= tau:
        return 0, 0, True
    k, c = _cubic(tau, sigma_sq, m_bits)
    prev_raw: int | None = None
    for i in range(1, MAX_ITERATIONS + 1):
        new = _step(raw, top, k, c)
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

    def __post_init__(self) -> None:  # the one check: sim.apply_basis_oracle makes none
        for c, y in self.y_codes.items():
            sim.check_int("oracle label", c, 0, (1 << self.t_bits) - 1)
            sim.check_int("oracle code", y, 0, (1 << self.m_bits) - 1)

    def code_for(self, label: int) -> int:
        return self.y_codes.get(label, 0)

    def apply(self, state: QuantumState) -> QuantumState:
        if (state.layout.m_bits, state.layout.t_bits) != (self.m_bits, self.t_bits):
            raise ValidationError("oracle widths do not match layout")
        # a permutation of the amplitudes: the norm is as it was
        return sim.apply_basis_oracle(state, self.y_codes)


def build_sigma_tau_oracle(
    pe_cfg: PhaseEstimationConfig, m_bits: int, tau: float
) -> SigmaTauOracle:
    """Run the Newton iteration for every eigenvalue label of ``pe_cfg``,
    each from sigma_1's own code, min(floor((1 - tau/sigma_1) 2^m), 2^m - 1)
    (0 where sigma_1 <= tau), sigma_1 decoded from the largest label.

    sigma <= tau short-circuits to exactly 0 (thresholded branch).  A label
    converges when two successive codes agree or an adjacent pair alternates
    (the lower code is taken), at its floor code (see the module docstring).
    A label still moving after MAX_ITERATIONS steps aborts the build with a
    per-label diagnostic; non-convergence is never silently written.
    """
    m_bits = sim.check_int("m_bits", m_bits, 1, sim.MAX_QUBITS)
    tau = sim.check_positive("tau", tau)  # a Python float: _cubic takes its exact ratio
    top, sigma1 = 1 << m_bits, math.sqrt(pe_cfg.decode(max(pe_cfg.labels, default=0)))
    start = min(int((1 - tau / sigma1) * top), top - 1) if sigma1 > tau else 0
    codes: dict[int, int] = {}
    iters: dict[int, int] = {}
    failures: list[str] = []
    for label in pe_cfg.labels:
        decoded = pe_cfg.decode(label)
        raw, iterations, converged = _iterate(m_bits, tau, decoded, start)
        if not converged:
            failures.append(
                f"label {label} (sigma^2={decoded:.6g}, sigma/tau={math.sqrt(decoded) / tau:.3f}):"
                f" no convergence in {iterations} iterations"
            )
            continue
        codes[label] = raw
        iters[label] = iterations
    if failures:
        raise ConvergenceError("; ".join(failures))
    return SigmaTauOracle(m_bits, pe_cfg.t_bits, codes, iters)


def ry_cascade(state: QuantumState, alpha: float) -> QuantumState:
    """Rotate the ancilla by the L-register fraction: for L holding
    theta = 0.t1...td the ancilla's |0> becomes cos(theta a)|0> +
    sin(theta a)|1>, ry(2 theta a) per L label (the product of the paper's
    ry(2^(1-j) a) on each L qubit j).  ``alpha`` is the ``alpha`` of an
    AlphaSolution, which checked it, the single-lobe rule included.  Exact
    for every theta.  The ancilla's |1> half must hold mass exactly 0, as
    nothing before the cascade in a run writes it: that half is written as
    sin(theta a) times the |0> half, then the |0> half is scaled by
    cos(theta a), in place.  The read of the ancilla's masses,
    :func:`sim.register_mass`, also checks the incoming state's norm."""
    ancilla = state.layout.ancilla
    anc_mass = sim.register_mass(state, range(ancilla, ancilla + 1))
    if not anc_mass[1] == 0:  # NaN fails too
        raise ValidationError(f"ancilla not cleared: its |1> half holds mass {anc_mass[1]:.3e}")
    labels = 1 << state.layout.m_bits
    half = np.arange(labels) * (alpha / labels)  # theta a, the bits of ry's angle / 2
    x = state.registers.view(np.float64)  # (L, C, ancilla, B), B as float pairs
    np.multiply(x[:, :, 0], np.sin(half)[:, None, None], out=x[:, :, 1])
    x[:, :, 0] *= np.cos(half)[:, None, None]
    return state


def uncompute(
    state: QuantumState, oracle: SigmaTauOracle, pe_cfg: PhaseEstimationConfig, eigenvalues
) -> float:
    """Reverse the oracle and phase estimation of A's ``eigenvalues``,
    restoring L and C to 0.

    The inverse estimation runs on the L = 0 block (:func:`sim.l_zero_block`),
    which holds the whole state once the oracle has cleared L.  Mass that a
    mismatched oracle leaves on L != 0 is left where it is: the estimation
    maps each L block to itself, so that mass, the residual and the
    ancilla's masses are what the estimation of the whole state leaves.

    Returns the residual mass on L/C (uncompute_residual).
    With an exact encoding, residual above UNCOMPUTE_TOL signals a config
    mismatch between the forward and reverse passes and raises; an
    inexact one leaves genuine residual (the rotation entangles leaked
    labels), which is returned, not raised.
    """
    oracle.apply(state)
    phase_estimate_inverse(sim.l_zero_block(state), pe_cfg, eigenvalues)
    residual = uncompute_residual(state)
    if not residual <= (UNCOMPUTE_TOL if pe_cfg.exact else math.inf):  # NaN fails too
        raise UncomputeResidualError(
            f"registers L/C hold residual mass {residual:.3e} after uncompute"
        )
    return residual


def uncompute_residual(state: QuantumState) -> float:
    """Probability mass with L or C off |0>; the read of L and C,
    :func:`sim.register_mass`, also checks the state's norm."""
    if not state.layout.ancilla:  # L and C are qubits 0..ancilla-1
        return 0.0
    mass = sim.register_mass(state, range(state.layout.ancilla))
    return float(mass[1:].sum())
