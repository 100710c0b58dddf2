"""Dense state-vector simulation primitives.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a basis-state index.  For an
  ``n``-qubit state, basis index ``x`` assigns qubit ``q`` the bit
  ``(x >> (n - 1 - q)) & 1``.
* Within a register (a ``range`` of qubit indices) the first qubit is
  the most significant bit of the register's value.
* Operations mutate the flat amplitudes in place through reshape views
  split at register edges: a gate on qubits lo..lo+k-1 sees
  ``(2**lo, 2**k, rest)``, a control is one more split axis indexed by
  its value, and the one kernel writes ``u @ view`` back once.  Gate
  targets and registers are contiguous ascending qubits; anything else
  raises ``ValidationError`` before the state is touched.  A state has
  a single writer at a time.
* ``apply_unitary`` and ``apply_controlled`` reject a non-unitary matrix.
  Gates do not check the norm: each stage of the circuit calls
  :func:`check_norm` once when it ends.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FullyThresholdedError, NormalizationError, ValidationError

MAX_QUBITS = 26
NORM_TOL = 1e-10
UNITARY_TOL = 1e-10
POST_SELECT_FLOOR = 1e-12


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def pauli_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def ry(angle: float) -> np.ndarray:
    """Rotation about Y: ry(a)|0> = cos(a/2)|0> + sin(a/2)|1>."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit assignment: ancilla a, threshold register L, eigenvalue
    register C, data register B.  Registers must tile 0..n-1; L may be
    empty."""

    ancilla: int
    reg_L: range
    reg_C: range
    reg_B: range

    def __post_init__(self) -> None:
        flat = [self.ancilla, *self.reg_L, *self.reg_C, *self.reg_B]
        if len(set(flat)) != len(flat):
            raise ValidationError("register ranges overlap")
        if sorted(flat) != list(range(len(flat))):
            raise ValidationError("registers must tile qubits 0..n-1 without gaps")
        if len(self.reg_B) == 0:
            raise ValidationError("data register B must be non-empty")

    @property
    def n_qubits(self) -> int:
        return 1 + len(self.reg_L) + len(self.reg_C) + len(self.reg_B)

    @classmethod
    def standard(cls, m_bits: int, t_bits: int, b_bits: int) -> "RegisterLayout":
        """Ancilla at qubit 0, then L, C, B in order."""
        lo_c = 1 + m_bits
        lo_b = lo_c + t_bits
        return cls(0, range(1, lo_c), range(lo_c, lo_b), range(lo_b, lo_b + b_bits))


@dataclass
class QuantumState:
    n_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "QuantumState":
        return QuantumState(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.amplitudes, self.amplitudes).real))


def new_state(layout: RegisterLayout) -> QuantumState:
    """All-zeros basis state for the given layout, of at most
    ``MAX_QUBITS`` qubits."""
    n = layout.n_qubits
    if n > MAX_QUBITS:
        raise ValidationError(f"qubit budget exceeded: {n} > {MAX_QUBITS}")
    amp = np.zeros(1 << n, dtype=complex)
    amp[0] = 1.0
    return QuantumState(n, amp)


def check_norm(state: QuantumState) -> None:
    """Stage-boundary guard: the state must still have unit norm."""
    n = state.norm()
    if abs(n - 1.0) > NORM_TOL:
        raise NormalizationError(f"state norm drifted to {n!r}")


def _require_targets(state: QuantumState, targets: list[int], dim: int) -> None:
    if len(set(targets)) != len(targets):
        raise ValidationError("target qubits must be distinct")
    if any(t < 0 or t >= state.n_qubits for t in targets):
        raise ValidationError("target qubit out of range")
    if dim != (1 << len(targets)):
        raise ValidationError(f"matrix dim {dim} does not match {len(targets)} targets")


def _gate(state: QuantumState, matrix, qubits: list[int], controls: int) -> np.ndarray:
    """``matrix`` as a complex unitary on ``qubits`` less ``controls``."""
    u = np.asarray(matrix, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or len(u) < 2:
        raise ValidationError("gate matrix must be square and act on a qubit")
    _require_targets(state, qubits, u.shape[0] << controls)
    dev = u.conj().T @ u
    dev.reshape(-1)[:: len(u) + 1] -= 1.0
    err = np.abs(dev).max()
    if err > UNITARY_TOL:
        raise ValidationError(f"matrix is not unitary (deviation {err:.3e})")
    return u


@functools.lru_cache(maxsize=256)
def _split(n: int, registers: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shape that cuts qubits 0..n-1 at the edges of the given disjoint,
    non-empty ``(lo, hi)`` qubit ranges, and the axis of each range."""
    edges = sorted({0, n}.union(*registers))
    shape = tuple(1 << (b - a) for a, b in zip(edges, edges[1:]))
    return shape, tuple(edges.index(lo) for lo, _ in registers)


def _contiguous(qubits: list[int]) -> bool:
    return qubits == list(range(qubits[0], qubits[0] + len(qubits)))


def _apply(state: QuantumState, matrix, targets, control=None, value=1) -> QuantumState:
    """Validate the gate, then the kernel: amplitudes <- u on contiguous
    ascending targets lo..lo+k-1 where ``control`` reads ``value``."""
    targets = list(targets)
    front = targets + ([] if control is None else [control])
    u = _gate(state, matrix, front, len(front) - len(targets))
    if not _contiguous(targets):
        raise ValidationError("target qubits must be contiguous ascending")
    lo = targets[0]
    controlled = () if control is None else ((control, control + 1),)
    shape, axes = _split(state.n_qubits, ((lo, lo + len(targets)),) + controlled)
    index = [slice(None)] * len(shape)
    if controlled:
        index[axes[1]] = value
    view = state.amplitudes.reshape(shape)[tuple(index)]
    axis = axes[0] - (control is not None and control < lo)
    if axis == view.ndim - 1:
        view[...] = view @ u.T
    else:
        view = view.swapaxes(axis, -2)
        view[...] = u @ view
    return state


def apply_unitary(state: QuantumState, matrix: np.ndarray, targets) -> QuantumState:
    """Apply ``matrix`` on ``targets`` (first target = most significant
    bit of the gate's label) and identity elsewhere."""
    return _apply(state, matrix, targets)


def apply_controlled(
    state: QuantumState,
    matrix: np.ndarray,
    control_qubit: int,
    control_value: int,
    targets,
) -> QuantumState:
    """Apply ``matrix`` on ``targets`` only where ``control_qubit``
    equals ``control_value``."""
    targets = list(targets)
    if control_qubit in targets:
        raise ValidationError("control qubit overlaps targets")
    if control_value not in (0, 1):
        raise ValidationError("control value must be 0 or 1")
    return _apply(state, matrix, targets, control_qubit, control_value)


def _register(state: QuantumState, reg) -> tuple[int, int]:
    """(first qubit, width) of a non-empty contiguous ascending register."""
    reg = list(reg)
    _require_targets(state, reg, 1 << len(reg))
    if not reg or not _contiguous(reg):
        raise ValidationError("register must be non-empty contiguous ascending qubits")
    return reg[0], len(reg)


def apply_basis_oracle(state: QuantumState, reg_L, reg_C, codes) -> QuantumState:
    """XOR oracle |l>|c> -> |l XOR codes[c]>|c> on registers L and C.

    ``codes`` maps C labels to L codes; labels it omits leave L as it
    is.  The oracle is self-inverse.  Each nonzero code is one gather
    along the L axis of the slice C = c, so nothing the size of the
    state is allocated.
    """
    (l_lo, m), (c_lo, t) = _register(state, reg_L), _register(state, reg_C)
    _require_targets(state, [*reg_L, *reg_C], 1 << (m + t))
    bad = [(c, y) for c, y in codes.items() if not (0 <= c < 1 << t and 0 <= y < 1 << m)]
    if bad:
        raise ValidationError(f"oracle label/code out of range: {bad}")
    shape, (l_axis, c_axis) = _split(state.n_qubits, ((l_lo, l_lo + m), (c_lo, c_lo + t)))
    view = state.amplitudes.reshape(shape)
    index = [slice(None)] * len(shape)
    for c, y in codes.items():
        if y:
            index[c_axis] = c
            block = view[tuple(index)]
            block[...] = np.take(block, np.arange(1 << m) ^ y, axis=l_axis - (c_axis < l_axis))
    return state


def load_register(state: QuantumState, reg, amplitudes) -> QuantumState:
    """Load a unit vector into one register; all other qubits must be 0."""
    lo, w = _register(state, reg)
    vec = np.asarray(amplitudes, dtype=complex)
    if vec.shape != (1 << w,):
        raise ValidationError(f"expected {1 << w} amplitudes, got {vec.shape}")
    if abs(np.linalg.norm(vec) - 1.0) > NORM_TOL:
        raise ValidationError("register content must have unit norm")
    view = state.amplitudes.reshape(1 << lo, 1 << w, -1)
    on = view[0, :, 0]
    if state.norm() ** 2 - np.vdot(on, on).real > 1e-12:
        raise ValidationError("other registers are not in |0>")
    state.amplitudes.fill(0.0)
    view[0, :, 0] = vec
    check_norm(state)
    return state


def _mass(amps: np.ndarray, lo: int, w: int) -> np.ndarray:
    """Mass of each label of qubits lo..lo+w-1, without a temporary."""
    x = amps.view(np.float64).reshape(1 << lo, 1 << w, -1)
    return np.einsum("awr,awr->w", x, x)


def register_mass(state: QuantumState, qubits) -> np.ndarray:
    """Probability of each label of a contiguous ascending register."""
    return _mass(state.amplitudes, *_register(state, qubits))


def post_select(state: QuantumState, qubit: int, value: int) -> tuple[QuantumState, float]:
    """Condition on ``qubit`` reading ``value``.

    Returns the renormalized conditional state and the pre-measurement
    probability of that outcome.  Probability below ``POST_SELECT_FLOOR``
    signals a fully thresholded spectrum and raises.
    """
    if value not in (0, 1):
        raise ValidationError("measurement value must be 0 or 1")
    _require_targets(state, [qubit], 2)
    prob = float(_mass(state.amplitudes, qubit, 1)[value])
    if prob < POST_SELECT_FLOOR:
        raise FullyThresholdedError(
            f"outcome probability {prob:.3e} below floor {POST_SELECT_FLOOR:.3e}"
        )
    state.amplitudes.reshape(1 << qubit, 2, -1)[:, 1 - value] = 0.0
    state.amplitudes /= np.sqrt(prob)
    check_norm(state)
    return state, prob


def overlap(a: QuantumState, b: QuantumState) -> complex:
    """Inner product <a|b>."""
    if a.n_qubits != b.n_qubits:
        raise ValidationError("states have different dimensions")
    return complex(np.vdot(a.amplitudes, b.amplitudes))
