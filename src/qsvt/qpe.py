"""Quantum Fourier transform, conditional Hamiltonian evolution, and the
full phase-estimation unitary with its exact inverse.

Eigenvalue encoding: :func:`choose_t0` fixes an evolution time-step
``t0`` and the register label of every eigenvalue, and it is the one
place where labels are computed and checked.  The label for eigenvalue
``lam`` is ``c = round(lam * t0 * T / (2 pi))`` with ``T = 2**t_bits``,
decoded by ``lam(c) = c * 2 pi / (t0 * T)``.  The conditional evolution
E applies ``exp(i A c t0)`` on the subspace where register C holds ``c``,
as a uniformly controlled gate on each run of C qubits (one run unless
its stack would outgrow an eighth of the state), the stack built by
doubling from ``t`` matrix exponentials, the powers ``exp(i A 2^w t0)``.

Phase estimation is QFT, E, QFT^-1 on C; its exact adjoint is QFT,
E^-1, QFT^-1.  The paper's Hadamard layers on C give the same numbers:
on a cleared C, QFT|0> = H^t|0>, and <0|QFT^-1 = <0|H^t on the C = 0
projection, the only part of the state that the run reads.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import sim
from .errors import ValidationError
from .sim import QuantumState, RegisterLayout
from .spectral import herm_exp

ENCODING_TOL = 1e-9
CLEARED_TOL = 1e-12


@dataclass(frozen=True)
class PhaseEstimationConfig:
    """Register width, evolution step and, in the spectrum's order, the
    eigenvalue labels that :func:`choose_t0` computed and checked;
    ``exact`` when every eigenvalue sits on its label."""

    t_bits: int
    t0: float
    exact: bool
    labels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        sim.check_width("t_bits", self.t_bits)
        if not self.t0 > 0:
            raise ValidationError("t0 must be positive")

    def decode(self, label: int) -> float:
        """The eigenvalue that ``label`` stands for."""
        return label * 2.0 * np.pi / (self.t0 * (1 << self.t_bits))


def choose_t0(eigenvalues, t_bits: int | None = None) -> PhaseEstimationConfig:
    """Pick the evolution step for a spectrum and label its eigenvalues.

    Integer eigenvalues below 2**t_bits get t0 = 2 pi / 2**t_bits and
    label c = lam exactly.  Anything else is scaled so the largest
    eigenvalue lands on the top label, with the exactness flag computed
    from whether every label is integral.  Without t_bits, an integral
    spectrum gets the bit length of its largest value (so it encodes
    exactly) and any other spectrum gets 6 bits.  A width outside
    1..MAX_QUBITS, a positive eigenvalue that rounds to label 0 (it would
    decode to 0) and two eigenvalues that round to one label are rejected.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or len(lam) == 0:
        raise ValidationError("eigenvalues must be a non-empty vector")
    if np.any(lam <= 0):
        raise ValidationError("eigenvalues must be positive")
    if len(np.unique(lam)) != len(lam):
        raise ValidationError("eigenvalues must be distinct")
    rounded = np.rint(lam)
    integral = np.all(np.abs(lam - rounded) <= ENCODING_TOL * np.maximum(1.0, lam))
    if t_bits is None:
        t_bits = max(1, int(rounded.max()).bit_length()) if integral else 6
    sim.check_width("t_bits", t_bits)
    T = 1 << t_bits
    fits = bool(integral and rounded.max() < T)
    t0 = 2.0 * np.pi / T if fits else 2.0 * np.pi * (1.0 - 2.0**-t_bits) / lam.max()
    raw = lam * t0 * T / (2.0 * np.pi)
    labels = np.rint(raw).astype(int)
    exact = fits or bool(np.all(np.abs(raw - labels) <= ENCODING_TOL) and raw.max() < T)
    cfg = PhaseEstimationConfig(t_bits, t0, exact, tuple(int(c) for c in labels))
    if np.any(labels == 0):
        small = float(lam[labels == 0].max())
        raise ValidationError(
            f"eigenvalue {small:.6g} rounds to label 0 at t_bits={t_bits}:"
            " too fine for the eigenvalue register; raise t_bits"
        )
    if len(np.unique(labels)) != len(labels):
        raise ValidationError("eigenvalue collision after rounding to t_bits precision")
    return cfg


@functools.lru_cache(maxsize=8)
def _dft_matrix(width: int) -> np.ndarray:
    """The 2^width-point DFT, built once per width and shared read-only."""
    size = 1 << width
    j = np.arange(size)
    dft = np.exp(2j * np.pi / size * np.outer(j, j)) / np.sqrt(size)
    dft.flags.writeable = False
    return dft


def qft(state: QuantumState, qubits) -> QuantumState:
    """Forward transform: |c> -> (1/sqrt T) sum_j exp(2 pi i c j / T)|j>."""
    return sim.apply_unitary(state, _dft_matrix(len(qubits)), qubits)


def iqft(state: QuantumState, qubits) -> QuantumState:
    return sim.apply_unitary(state, _dft_matrix(len(qubits)).conj().T, qubits)


def conditional_evolution(
    state: QuantumState,
    cfg: PhaseEstimationConfig,
    reg_C,
    reg_B_left,
    a: np.ndarray,
    inverse: bool = False,
) -> QuantumState:
    """For each C label c, evolve the u-factor of B by exp(i A c t0), as
    one uniformly controlled gate per run of C qubits: all of C, unless
    its stack would outgrow an eighth of the state (a tall input)."""
    t0, t, dim = -cfg.t0 if inverse else cfg.t0, len(reg_C), len(a)
    width = min(t, max(1, state.n_qubits - 3 - 2 * len(reg_B_left)))
    for w0 in range(0, t, width):  # a run's last qubit has bit weight 2^w0
        run = reg_C[max(0, t - w0 - width) : t - w0]
        stack = np.empty(((1 << len(run)) - 1, dim, dim), dtype=complex)  # label y at y - 1
        for j in range(len(run)):  # label 2^j + y is label y times label 2^j
            x = (1 << j) - 1
            stack[x] = herm_exp(a, (1 << (w0 + j)) * t0)
            np.matmul(stack[:x], stack[x], out=stack[x + 1 : 2 * x + 1])
        sim.apply_controlled(state, stack, run, reg_B_left, powers=True)
        del stack  # before the next run's exponentials, not beside them
    return state


def _u_factor_qubits(layout: RegisterLayout, a: np.ndarray) -> list[int]:
    """The leading log2(dim A) qubits of B; an A that does not fit them
    (dim not a power of two, or beyond B) is rejected by the gate."""
    return list(layout.reg_B)[: a.shape[0].bit_length() - 1]


def _phase_estimate(state, cfg, layout, a, inverse: bool) -> QuantumState:
    a = np.asarray(a, dtype=complex)
    qft(state, layout.reg_C)
    conditional_evolution(state, cfg, layout.reg_C, _u_factor_qubits(layout, a), a, inverse)
    iqft(state, layout.reg_C)
    sim.check_norm(state)
    return state


def phase_estimate(
    state: QuantumState, cfg: PhaseEstimationConfig, layout: RegisterLayout, a
) -> QuantumState:
    """Write eigenvalue labels of ``a`` into register C as QFT, E, QFT^-1;
    C must be cleared, where the QFT equals the circuit's Hadamard layer."""
    mass = sim.register_mass(state, layout.reg_C)
    if mass[1:].sum() > CLEARED_TOL:
        raise ValidationError("register C not cleared")
    return _phase_estimate(state, cfg, layout, a, inverse=False)


def phase_estimate_inverse(
    state: QuantumState, cfg: PhaseEstimationConfig, layout: RegisterLayout, a
) -> QuantumState:
    """Exact adjoint of :func:`phase_estimate`: QFT, E^-1, QFT^-1."""
    return _phase_estimate(state, cfg, layout, a, inverse=True)
