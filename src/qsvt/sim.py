"""Dense state-vector simulation primitives.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a basis-state index.  For an
  ``n``-qubit state, basis index ``x`` assigns qubit ``q`` the bit
  ``(x >> (n - 1 - q)) & 1``.
* Within a register (a ``range`` of qubit indices) the first qubit is
  the most significant bit of the register's value.
* Operations mutate the flat amplitudes in place through reshape views
  split at register edges: a gate on qubits lo..lo+k-1 sees
  ``(2**lo, 2**k, rest)``.  A control is a register, one more split axis
  whose label indexes a stack of matrices; the one kernel writes
  ``stack @ view`` back once (an uncontrolled gate is a one-matrix
  stack).  Targets, controls and registers are non-empty, disjoint,
  contiguous ascending qubits of the state, or ``ValidationError`` is
  raised before the state is touched.  One cached function, ``_split``,
  checks them, once per distinct register set rather than per call.
  A state has a single writer at a time.
* Gates reject a non-unitary matrix, one batched check per call (a
  stack of powers is checked by its factors).  They do not check the
  norm: each stage calls :func:`check_norm` once when it ends.
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


def check_width(name: str, bits: int) -> None:
    """Reject a register width outside 1..MAX_QUBITS, before 2**bits is formed."""
    if not 1 <= bits <= MAX_QUBITS:
        raise ValidationError(f"{name} must lie in 1..{MAX_QUBITS}, got {bits}")


def ry(angle) -> np.ndarray:
    """Rotation about Y: ry(a)|0> = cos(a/2)|0> + sin(a/2)|1>.  An array
    of angles gives the stack of their rotations."""
    c, s = np.cos(np.asarray(angle) / 2.0), np.sin(np.asarray(angle) / 2.0)
    return np.stack([c, -s, s, c], axis=-1).reshape(c.shape + (2, 2)).astype(complex)


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


@functools.lru_cache(maxsize=256)
def _split(n: int, registers: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The one register check: each register, a tuple of qubits, is
    non-empty, distinct, contiguous ascending and in 0..n-1, and no two
    share a qubit.  Returns the shape that cuts qubits 0..n-1 at the
    registers' edges and the axis of each register.  Cached, so a
    register set is checked once; a failed check is not cached."""
    for reg in registers:
        if not (reg and reg == tuple(range(reg[0], reg[-1] + 1)) and 0 <= reg[0] <= reg[-1] < n):
            raise ValidationError(f"register {reg} must be non-empty, distinct, contiguous"
                                  f" ascending qubits in 0..{n - 1}")
    if len(set().union(*registers)) != sum(map(len, registers)):
        raise ValidationError(f"registers overlap: {registers}")
    edges = sorted({0, n}.union(*((r[0], r[-1] + 1) for r in registers)))
    shape = tuple(1 << (b - a) for a, b in zip(edges, edges[1:]))
    return shape, tuple(edges.index(r[0]) for r in registers)


@functools.lru_cache(maxsize=256)
def _gate_view(n: int, registers: tuple) -> tuple[tuple, tuple, bool]:
    """The shape and axis order that view the amplitudes as (..., control,
    targets, rest), or as (..., control, rest, targets) when the targets
    end at the last qubit, and whether they do.  ``registers`` is
    ``(targets,)`` or ``(targets, control)``; with no control, a unit
    axis stands in for it (one label)."""
    shape, axes = _split(n, registers)
    # two leading unit axes: the absent control and a spare batch axis
    t_axis, c_axis, ndim = axes[0] + 2, (axes[1] + 2 if axes[1:] else 0), len(shape) + 2
    last = t_axis == ndim - 1
    rest = [a for a in range(ndim) if a not in (c_axis, t_axis)]
    inner = [rest[-1], t_axis] if last else [t_axis, rest[-1]]
    return (1, 1) + shape, tuple(rest[:-1] + [c_axis] + inner), last


def _apply(state: QuantumState, matrices, registers: tuple, powers=False) -> QuantumState:
    """The kernel: ``matrices[x - powers]`` on the targets wherever the
    control register reads x (from 1 with ``powers``), as one
    ``stack @ view`` written back once."""
    shape, order, last = _gate_view(state.n_qubits, registers)
    targets, width, lo = registers[0], sum(map(len, registers[1:])), int(powers)
    stack = np.asarray(matrices, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValidationError(f"gate matrices must form a stack of square matrices: {stack.shape}")
    if len(stack) != (1 << width) - lo:
        raise ValidationError(f"{len(stack)} matrices for a {width}-qubit control")
    if stack.shape[1] != 1 << len(targets):
        raise ValidationError(f"matrix dim {stack.shape[1]} does not match {len(targets)} targets")
    # a stack of powers is the products of its members at labels 2^j
    factors = stack[[(1 << j) - 1 for j in range(width)]] if powers else stack
    dev = factors.conj().transpose(0, 2, 1) @ factors
    dev.reshape(len(dev), -1)[:, :: dev.shape[1] + 1] -= 1.0
    err = np.abs(dev).max()
    del factors, dev  # before the state-sized temporary below, not beside it
    if err > UNITARY_TOL:
        raise ValidationError(f"matrix is not unitary (deviation {err:.3e})")
    view = state.amplitudes.reshape(shape).transpose(order)[..., lo:, :, :]
    view[...] = view @ stack.transpose(0, 2, 1) if last else stack @ view
    return state


def apply_unitary(state: QuantumState, matrix: np.ndarray, targets) -> QuantumState:
    """Apply ``matrix`` on ``targets`` (first target = most significant
    bit of the gate's label) and identity elsewhere."""
    return _apply(state, np.asarray(matrix, dtype=complex)[None], (tuple(targets),))


def apply_controlled(
    state: QuantumState, matrices, control, targets, powers: bool = False
) -> QuantumState:
    """Uniformly controlled gate: ``matrices[x]`` acts on ``targets``
    wherever the ``control`` register reads x (``[I, U]`` is U controlled
    on 1).  With ``powers``, ``matrices`` are U^1..U^(2^c - 1), each the
    product of the members at the labels 2^j its bits select: label 0 is
    left alone, and only those members are checked for unitarity."""
    return _apply(state, matrices, (tuple(targets), tuple(control)), powers)


def _register(state: QuantumState, reg) -> tuple[int, int]:
    """(first qubit, width) of a register that passes :func:`_split`."""
    reg = tuple(reg)
    _split(state.n_qubits, (reg,))
    return reg[0], len(reg)


def apply_basis_oracle(state: QuantumState, reg_L, reg_C, codes) -> QuantumState:
    """XOR oracle |l>|c> -> |l XOR codes[c]>|c> on registers L and C.

    ``codes`` maps C labels to L codes; labels it omits leave L as it
    is.  The oracle is self-inverse.  Each nonzero code is one gather
    along the L axis of the slice C = c, so nothing the size of the
    state is allocated.
    """
    shape, (l_axis, c_axis) = _split(state.n_qubits, (tuple(reg_L), tuple(reg_C)))
    m, t = len(reg_L), len(reg_C)
    bad = [(c, y) for c, y in codes.items() if not (0 <= c < 1 << t and 0 <= y < 1 << m)]
    if bad:
        raise ValidationError(f"oracle label/code out of range: {bad}")
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
    prob = float(_mass(state.amplitudes, *_register(state, [qubit]))[value])
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
