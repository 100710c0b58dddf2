"""Quantum Fourier transform, conditional Hamiltonian evolution, and the
full phase-estimation unitary with its exact inverse.

Eigenvalue encoding: :func:`choose_t0` fixes an evolution time-step
``t0`` and the register label of every eigenvalue, the one place where
labels are computed; the record it returns checks them.  The label for
eigenvalue ``lam`` is ``c = round(lam * t0 * T / (2 pi))`` with
``T = 2**t_bits``, decoded by ``lam(c) = c * 2 pi / (t0 * T)``.  The
conditional evolution E applies ``exp(i A c t0)`` on the subspace where
register C holds ``c``, as U^(2^w) = ``exp(i A 2^w t0)`` controlled on
the C qubit of bit weight 2^w: one controlled gate on all of C and all
of B, which holds the input's Schmidt index.  There A is diagonal, given
as its eigenvalues (:func:`spectral.gram`), so each factor is a row of
phases exp(i lam 2^w t0).  :func:`conditional_evolution` folds the t rows
into the T rows exp(i lam c t0) of U^c, one per label c, a T x d table,
and :func:`sim.apply_controlled` multiplies the state by it in place, one
pass: no matrix A, no dense factor and no eigendecomposition is made.  The
QFT on C is the DFT on amplitudes, which :func:`sim.apply_unitary`
computes in place by FFT: no T x T matrix is made either.

Rank-sized work in :func:`choose_t0` (the eigenvalues, their labels and
the checks on them) runs on Python floats and ints, converted once with
``tolist()``; the DFTs, the exponentials and the state stay in NumPy.  ``round``
rounds half to even, as ``np.rint`` does, so the labels are the same.

Forward phase estimation is the paper's Hadamard layer on C, then E,
then QFT^-1.  The layer is written, not applied: its precondition is a
cleared C, which the read of C's masses checks first, and there H^t|0>
gives every C label C = 0's amplitudes times 2^(-t/2), a copy per L
value and one in-place scale, with the factor that ``np.fft`` scales by,
so the numbers are the QFT's (Cleve et al., arXiv:quant-ph/9708016).
The exact adjoint is QFT, E^-1, QFT^-1; <0|QFT^-1 = <0|H^t on the C = 0
projection, the only part of the state that the run reads.  A run makes
three FFTs.  Each direction checks once, before any amplitude moves, that
its state's C is as wide as the config's ``t_bits`` and that B's 2^b
eigenvalues give E a finite largest angle, so each of E's phases is
exp(i theta) of a finite real theta, on the unit circle; E itself,
:func:`conditional_evolution`, checks none of its arguments.

The norm is checked where the state is read, by :func:`sim.register_mass`:
the forward estimation's read of C checks the incoming state, and the
state it writes is checked by the next read, the cascade's read of the
ancilla (the sigma_tau oracle between them permutes amplitudes); the
inverse leaves its state to the uncompute read of L and C.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sim
from .errors import ValidationError
from .sim import QuantumState
from .spectral import herm_exp, real_vector

ENCODING_TOL = 1e-9


@dataclass(frozen=True)
class PhaseEstimationConfig:
    """Register width, evolution step and, in the spectrum's order, the
    eigenvalue labels that :func:`choose_t0` computed, each in
    0..2**t_bits - 1 and any of them shared; ``exact`` when every
    eigenvalue sits on its label.  The top label must decode to a finite
    number.  Which labels a run can use depends on tau, so
    :func:`pipeline.run_pipeline`'s set-up checks them."""

    t_bits: int
    t0: float
    exact: bool
    labels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_bits", sim.check_int("t_bits", self.t_bits, 1, sim.MAX_QUBITS))
        object.__setattr__(self, "t0", sim.check_positive("t0", self.t0))
        top = (1 << self.t_bits) - 1
        if not math.isfinite(self.decode(top)):  # a sigma^2 the oracle cannot take
            raise ValidationError(f"t0 {self.t0!r} too small: label {top} decodes to inf")
        object.__setattr__(self, "labels",
                           tuple(sim.check_int("labels", c, 0, top) for c in self.labels))

    def decode(self, label: int) -> float:
        """The eigenvalue that ``label`` stands for."""
        return label * 2.0 * np.pi / (self.t0 * (1 << self.t_bits))


def choose_t0(eigenvalues, t_bits: int | None = None) -> PhaseEstimationConfig:
    """Pick the evolution step for a spectrum and label its eigenvalues.

    Integer eigenvalues (1, 2, ...) below 2**t_bits get t0 = 2 pi / 2**t_bits
    and label c = lam exactly.  Anything else, an eigenvalue near 0 too,
    is scaled so the largest eigenvalue lands on the top label, with the
    exactness flag computed from whether every label is integral.  Without
    t_bits, an integral spectrum gets the bit length of its largest value
    (so it encodes exactly) and any other spectrum gets 6 bits.  Eigenvalues that are
    not finite and positive and a width outside 1..MAX_QUBITS are rejected.
    A small eigenvalue may round to label 0, which decodes to 0, and two
    eigenvalues may round to one label: only a singular value above tau
    needs a label of its own, which :func:`pipeline.run_pipeline` checks.
    """
    lam = real_vector("eigenvalues", eigenvalues).tolist()
    if not lam:
        raise ValidationError("eigenvalues must be a non-empty vector")
    if not all(math.isfinite(x) and x > 0 for x in lam):
        raise ValidationError(f"eigenvalues must be finite and positive, got {lam}")
    rounded = [round(x) for x in lam]  # half to even, as np.rint
    integral = all(c >= 1 and abs(x - c) <= ENCODING_TOL * max(1.0, x)
                   for x, c in zip(lam, rounded))
    if t_bits is None:
        t_bits = max(1, max(rounded).bit_length()) if integral else 6
    t_bits = sim.check_int("t_bits", t_bits, 1, sim.MAX_QUBITS)
    T = 1 << t_bits
    fits = integral and max(rounded) < T
    t0 = 2.0 * np.pi / T if fits else 2.0 * np.pi * (1.0 - 2.0**-t_bits) / max(lam)
    raw = [x * t0 * T / (2.0 * np.pi) for x in lam]
    labels = [round(x) for x in raw]
    exact = fits or (
        all(abs(x - c) <= ENCODING_TOL for x, c in zip(raw, labels)) and max(raw) < T
    )
    return PhaseEstimationConfig(t_bits, t0, exact, tuple(labels))


def qft(state: QuantumState) -> QuantumState:
    """Forward transform on C: |c> -> (1/sqrt T) sum_j exp(2 pi i c j / T)|j>."""
    return sim.apply_unitary(state)


def iqft(state: QuantumState) -> QuantumState:
    return sim.apply_unitary(state, inverse=True)


def matrix_bytes(t_bits: int, e_bits: int) -> int:
    """Bytes that bound the arrays phase estimation makes beside the
    state: E's 2^t x 2^e_bits table of label products on ``e_bits``
    qubits, the run's Schmidt index, with the row being folded into it and
    :func:`herm_exp`'s temporary, its angles, beside NumPy's buffers, at
    most 128 KiB.  Neither the in-place FFT on C nor the Hadamard write
    makes anything of the state's size."""
    return ((1 << t_bits) + 2) * 16 << e_bits  # complex128


def _check_config(state: QuantumState, cfg: PhaseEstimationConfig, eigenvalues) -> np.ndarray:
    """The state's C has the config's width, its B the eigenvalues' count,
    and E's largest angle, max|lam| 2^(t-1) t0, is finite: the eigenvalues
    as a float vector, before any amplitude moves."""
    if cfg.t_bits != state.layout.t_bits:
        raise ValidationError(f"a {cfg.t_bits}-bit estimation on a {state.layout.t_bits}-qubit C")
    lam, t, b = real_vector("eigenvalues", eigenvalues), cfg.t_bits, state.layout.b_bits
    if len(lam) != 1 << b:
        raise ValidationError(f"a {t}-qubit C on {b} B qubits takes {1 << b} eigenvalues,"
                              f" got {len(lam)}")
    angle = float(np.abs(lam).max()) * (1 << (t - 1)) * cfg.t0
    if not math.isfinite(angle):  # NaN fails too
        raise ValidationError(f"the largest angle, max|eigenvalue| 2^{t - 1} t0, is {angle!r}")
    return lam


def conditional_evolution(
    state: QuantumState, cfg: PhaseEstimationConfig, lam: np.ndarray, inverse: bool = False
) -> QuantumState:
    """For each C label c, evolve B by exp(i A c t0), A diagonal on B and
    given as its eigenvalues ``lam``, as :func:`_check_config` returned
    them: one gate on all of C by the table of the 2^t label products,
    folded by doubling from the rows exp(i A 2^w t0) of U^(2^w), row w
    times the first 2^w products giving the next 2^w."""
    t0 = -cfg.t0 if inverse else cfg.t0
    table = np.empty((1 << cfg.t_bits, 1, len(lam)), dtype=complex)
    table[0] = 1.0
    for w in range(cfg.t_bits):
        np.multiply(table[: 1 << w], herm_exp(lam, (1 << w) * t0), out=table[1 << w : 2 << w])
    return sim.apply_controlled(state, table)


def phase_estimate(state: QuantumState, cfg: PhaseEstimationConfig, eigenvalues) -> QuantumState:
    """Write the labels of A's eigenvalues, A diagonal on B and given as
    them, into C as the circuit's Hadamard layer, E, QFT^-1.  The read of
    C's masses, which also checks the norm, is the layer's precondition:
    C must be cleared, or ``ValidationError`` is raised with the state
    untouched.  On a cleared C the layer sets every C label to C = 0's
    amplitudes times 2^(-t/2): a copy per L value, then an in-place scale.
    Within one L value the C = 0 slice lies before the rest of C, so the
    copy needs no buffer; across L values the two interleave, and NumPy
    would copy through a temporary of the destination's size, as it
    would for a one-call multiply from C = 0 into the whole view."""
    lam = _check_config(state, cfg, eigenvalues)
    mass = sim.register_mass(state, state.layout.reg_C)
    if not mass[1:].sum() <= sim.CLEARED_TOL:  # NaN fails too
        raise ValidationError("register C not cleared")
    view = state.registers
    for block in view:
        block[1:] = block[:1]
    view *= 1.0 / math.sqrt(len(mass))  # np.fft's ortho factor: the same two rounded operations
    conditional_evolution(state, cfg, lam)
    return iqft(state)


def phase_estimate_inverse(
    state: QuantumState, cfg: PhaseEstimationConfig, eigenvalues
) -> QuantumState:
    """Exact adjoint of :func:`phase_estimate`: QFT, E^-1, QFT^-1."""
    lam = _check_config(state, cfg, eigenvalues)
    qft(state)
    conditional_evolution(state, cfg, lam, inverse=True)
    return iqft(state)
