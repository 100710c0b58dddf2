"""Dense state-vector simulation primitives.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a basis-state index.  For an
  ``n``-qubit state, basis index ``x`` assigns qubit ``q`` the bit
  ``(x >> (n - 1 - q)) & 1``.
* Within a register (a ``range`` of qubit indices) the first qubit is
  the most significant bit of the register's value.
* A state carries its :class:`RegisterLayout`, checked against its
  amplitudes once, when it is made; operations mutate the flat
  amplitudes, complex128, in place through
  :attr:`QuantumState.registers`, the one view of them in the qubit
  order L, C, the ancilla, then B.  A gate takes the state alone.  Its
  QFT is the DFT on amplitudes, :func:`apply_unitary`, an FFT along C's
  axis; its E, :func:`apply_controlled`, one multiply of that view by
  the table of every C label's phases.  Neither copies the state; the
  FFT makes only NumPy's buffers, a few hundred KiB at any size.  A
  state has a single writer at a time.
* The DFT is unitary by construction, and so is E's table, where
  :func:`qpe.conditional_evolution` makes it.  Gates do not check the
  norm: every read of the state, the register masses of
  :func:`register_mass` and :func:`post_select`, checks that they sum to
  1 within ``NORM_TOL`` or raises ``NormalizationError``, so no stage
  reads a state off unit norm and no pass is made for the norm alone.
  Post-selection is such a read and writes nothing: the caller divides
  the amplitudes it keeps by the square root of the probability that it
  returns.  Every guard is written so that NaN fails.
* An input is checked where it enters and made a Python number, by
  :func:`check_int` (widths, counts, seeds, shapes, ranks, labels) or
  :func:`check_positive` (real numbers), and a gate's arguments once, by
  their owner: E's eigenvalues by each direction of phase estimation, the
  oracle's codes where a :class:`rotation.SigmaTauOracle` is made, so E
  and the oracle check none.  What an input would allocate is checked
  against ``MEMORY_BYTES`` first, by :func:`check_memory`.
"""
from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FullyThresholdedError, NormalizationError, ValidationError

MAX_QUBITS = 26
NORM_TOL = 1e-10
POST_SELECT_FLOOR = 1e-12
CLEARED_TOL = 1e-12


def _is_int(x) -> bool:
    """An integer, of Python or NumPy, that is not a bool; a Python int
    passes on its type alone."""
    return type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_positive(name: str, value) -> float:
    """A real number as a Python float, so a NumPy scalar does not carry
    its precision into the arithmetic on it: the one check of the
    circuit's real-number inputs (tau, t0, alpha, the tau fraction).  One
    that is not a real number (a bool, a str), not finite, not positive
    or too large for a float is rejected; NaN fails.  A Python float
    passes the type test on its type alone."""
    if type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # 10**400, Fraction(10**400)
            x = math.inf
        if 0 < x < math.inf:  # NaN fails too
            return x
    raise ValidationError(f"{name} must be finite and positive, a real number, got {value!r}")


def check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """An integer in lo..hi (no upper bound when ``hi`` is None) as a
    Python int, so arithmetic on it is exact and a NumPy integer does not
    carry its type on: the one check of the circuit's integer inputs
    (widths, counts, seeds, shapes, ranks, labels).  One that is not an
    integer (a float, a bool, a str) or lies out of range is rejected,
    before anything is sized by it."""
    if _is_int(value) and lo <= value and (hi is None or value <= hi):
        return int(value)
    bound = f"be an integer >= {lo}" if hi is None else f"lie in {lo}..{hi}, an integer"
    raise ValidationError(f"{name} must {bound}, got {value!r}")


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a float or complex array without its
    Python-level wrapper: the same arithmetic (ravel in memory order, the
    dot of the real and imaginary parts), so the same bits."""
    x = x.ravel("K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


@dataclass(frozen=True)
class RegisterLayout:
    """Register widths in the one qubit order: threshold register L
    (``m_bits``), eigenvalue register C (``t_bits``), the ancilla, then
    data register B (``b_bits``).  The amplitudes whose L reads 0 are the
    first 2**(n - m_bits), the state of :func:`l_zero_block`.  L and C may
    be empty; B may not.  C's qubits, the ancilla and the qubit count are
    set once, from the widths; equality, hashing and repr see the widths
    alone."""

    m_bits: int
    t_bits: int
    b_bits: int
    ancilla: int = field(init=False, repr=False, compare=False)
    n_qubits: int = field(init=False, repr=False, compare=False)
    reg_C: range = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, least in (("m_bits", 0), ("t_bits", 0), ("b_bits", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), least))
        m, ancilla = self.m_bits, self.m_bits + self.t_bits
        for name, value in (("ancilla", ancilla), ("n_qubits", ancilla + 1 + self.b_bits),
                            ("reg_C", range(m, ancilla))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)  # a mutable buffer: equality and hash by identity
class QuantumState:
    """The amplitudes of a state on the registers of ``layout``, checked
    against it once, here: a layout of at most ``MAX_QUBITS`` qubits and
    one writable C-contiguous complex128 amplitude per basis state."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.layout, RegisterLayout):
            raise ValidationError(f"a state's layout must be a RegisterLayout, got {self.layout!r}")
        n = check_int("n_qubits", self.layout.n_qubits, 1, MAX_QUBITS)
        amp = self.amplitudes  # the kernels write complex results through views of it
        if np.shape(amp) != (1 << n,):
            raise ValidationError(f"{self.layout!r} of {n} qubits needs 2**{n} amplitudes:"
                                  f" {np.shape(amp)}")
        if not (isinstance(amp, np.ndarray) and amp.dtype == np.complex128
                and amp.flags.c_contiguous and amp.flags.writeable):
            raise ValidationError(f"amplitudes must be a writable C-contiguous complex128"
                                  f" array: {getattr(amp, 'dtype', type(amp))}")

    @property
    def n_qubits(self) -> int:
        return self.layout.n_qubits

    @property
    def registers(self) -> np.ndarray:
        """The amplitudes as (L, C, ancilla, B), of shape
        (2^m, 2^t, 2, 2^b): a view, so a write to it writes the state."""
        layout = self.layout
        return self.amplitudes.reshape(1 << layout.m_bits, 1 << layout.t_bits, 2,
                                       1 << layout.b_bits)

    def copy(self) -> "QuantumState":
        return QuantumState(self.layout, self.amplitudes.copy())

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)


def l_zero_block(state: QuantumState) -> QuantumState:
    """The amplitudes whose L register reads 0, as a state of their own,
    L empty, that shares them (a view, not a copy): as L leads, they are
    the state's first 2**(n - m) amplitudes.  A gate on C and B maps each
    L block to itself, so on the block it does what it does on the state
    wherever L reads 0."""
    layout = state.layout
    return QuantumState(cached_layout(0, layout.t_bits, layout.b_bits),
                        state.amplitudes[: 1 << (layout.n_qubits - layout.m_bits)])


@functools.lru_cache(maxsize=16, typed=True)
def cached_layout(m_bits: int, t_bits: int, b_bits: int) -> RegisterLayout:
    """``RegisterLayout(m_bits, t_bits, b_bits)``, made and checked once
    per widths; keyed on their types too, so a bool or a NumPy integer
    width is checked as it would be on its own."""
    return RegisterLayout(m_bits, t_bits, b_bits)


def _physical_memory() -> int | None:
    """Bytes of physical memory, page size times pages as ``os.sysconf``
    reports them, or None where it cannot tell."""
    try:
        size, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):  # no sysconf, or no such name
        return None
    return size * pages if size > 0 and pages > 0 else None


MEMORY_BYTES = _physical_memory()  # the most a run may take; None: MAX_QUBITS alone


def check_memory(need: int, what: str) -> None:
    """The one memory rule: refuse, before it is allocated, work that
    takes ``need`` bytes (``what``, which the message names) when that
    exceeds ``MEMORY_BYTES``."""
    if MEMORY_BYTES is not None and need > MEMORY_BYTES:
        raise ValidationError(f"memory budget exceeded: {what} takes {need} bytes,"
                              f" the machine has {MEMORY_BYTES}")


def check_budget(layout: RegisterLayout, extra: int = 0, what: str = "") -> None:
    """Refuse, before anything is allocated, a state of more than
    ``MAX_QUBITS`` qubits, or one that with ``extra`` bytes of other
    arrays (``what``, which the message names) exceeds ``MEMORY_BYTES``.
    ``layout`` must be a :class:`RegisterLayout`."""
    if not isinstance(layout, RegisterLayout):
        raise ValidationError(f"a state's budget takes a RegisterLayout, got {layout!r}")
    n = layout.n_qubits
    if n > MAX_QUBITS:
        raise ValidationError(f"qubit budget exceeded: {n} > {MAX_QUBITS}")
    check_memory((16 << n) + extra, f"a {n}-qubit state{what}")  # complex128


def new_state(layout: RegisterLayout) -> QuantumState:
    """All-zeros basis state for the given :class:`RegisterLayout`,
    within :func:`check_budget`, checked before it is allocated."""
    check_budget(layout)
    amp = np.zeros(1 << layout.n_qubits, dtype=complex)
    amp[0] = 1.0
    return QuantumState(layout, amp)


def apply_unitary(state: QuantumState, inverse: bool = False) -> QuantumState:
    """The 2^t-point DFT on C, |c> -> 2^(-t/2) sum_j exp(2 pi i c j / 2^t)|j>,
    or with ``inverse`` its inverse: ``np.fft.ifft`` (``fft``) along C's
    axis of :attr:`QuantumState.registers`, written in place."""
    view = state.registers
    (np.fft.fft if inverse else np.fft.ifft)(view, axis=1, norm="ortho", out=view)
    return state


def apply_controlled(state: QuantumState, table) -> QuantumState:
    """E, diagonal on B and controlled by C: one multiply, in place, of
    :attr:`QuantumState.registers` by ``table``, row c on B where C reads
    c: the complex128 (2^t, 1, 2^b) table that its one maker,
    :func:`qpe.conditional_evolution`, folds at the widths its stage checked."""
    view = state.registers
    view *= table
    return state


def apply_basis_oracle(state: QuantumState, codes) -> QuantumState:
    """XOR oracle |l>|c> -> |l XOR codes[c]>|c> on L and C, self-inverse.
    ``codes`` maps C labels to L codes, as a :class:`rotation.SigmaTauOracle`
    checked them; labels it omits leave L as it is.  Each nonzero code is
    one gather along L's axis of the slice C = c, so nothing the size of
    the state is allocated."""
    view = state.registers
    for c, y in codes.items():
        if y:
            block = view[:, c]
            block[...] = block.take(np.arange(len(view)) ^ y, axis=0)
    return state


def load_register(state: QuantumState, amplitudes) -> QuantumState:
    """Load a unit vector into B; all other qubits must be 0."""
    w = state.layout.b_bits
    try:
        vec = np.asarray(amplitudes, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"register content must hold numbers: {exc}") from None
    if vec.shape != (1 << w,):
        raise ValidationError(f"expected {1 << w} amplitudes, got {vec.shape}")
    if not abs(_norm(vec) - 1.0) <= NORM_TOL:  # NaN fails too
        raise ValidationError("register content must have unit norm")
    on = state.registers[0, 0, 0]  # B where L, C and the ancilla read 0
    if not state.norm() ** 2 - np.vdot(on, on).real <= CLEARED_TOL:
        raise ValidationError("other registers are not in |0>")
    state.amplitudes.fill(0.0)
    on[:] = vec  # the only amplitudes: the state's norm is vec's
    return state


def _mass(amps: np.ndarray, lo: int, w: int) -> np.ndarray:
    """Mass of each label of qubits lo..lo+w-1, one einsum over the float
    view (2**lo, 2**w, rest) without a temporary; its inner loop runs
    along rest, which no read of the run leaves short.  The masses sum to
    the squared norm, so the read is also the unit-norm guard."""
    x = amps.view(np.float64).reshape(1 << lo, 1 << w, -1)
    mass = np.einsum("awr,awr->w", x, x)
    norm = math.sqrt(mass.sum())
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
        raise NormalizationError(f"state norm drifted to {norm!r}")
    return mass


def register_mass(state: QuantumState, register: range) -> np.ndarray:
    """Probability of each label of a register in the form a layout holds
    it: a non-empty ``range`` of step 1 within the state.  A state off
    unit norm raises ``NormalizationError``."""
    if not (type(register) is range and register.step == 1
            and 0 <= register.start < register.stop <= state.n_qubits):
        raise ValidationError(f"register {register!r} must be a non-empty range of step 1"
                              f" in 0..{state.n_qubits - 1}")
    return _mass(state.amplitudes, register.start, len(register))


def post_select(state: QuantumState, qubit: int, value: int) -> float:
    """Probability that ``qubit``, an integer in 0..n-1, reads ``value``,
    an integer 0 or 1, from one read that also checks the norm; the state
    is left as it is.  A probability below ``POST_SELECT_FLOOR`` signals a
    fully thresholded spectrum and raises."""
    qubit = check_int("qubit", qubit, 0, state.n_qubits - 1)
    value = check_int("measurement value", value, 0, 1)
    prob = float(_mass(state.amplitudes, qubit, 1)[value])
    if not prob >= POST_SELECT_FLOOR:  # NaN fails too
        raise FullyThresholdedError(
            f"outcome probability {prob:.3e} below floor {POST_SELECT_FLOOR:.3e}"
        )
    return prob
