"""Dense state-vector simulation primitives.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a basis-state index.  For an
  ``n``-qubit state, basis index ``x`` assigns qubit ``q`` the bit
  ``(x >> (n - 1 - q)) & 1``.
* Within a register (a ``range`` of qubit indices) the first qubit is
  the most significant bit of the register's value.
* Operations mutate the flat amplitudes, complex128, in place through
  reshape views split at register edges: a gate on qubits lo..lo+k-1
  sees ``(2**lo, 2**k, rest)``.  A control is a register, one more split
  axis whose label indexes a stack of matrices; the one kernel writes
  ``stack @ block`` back in place, block by block, in blocks of about
  ``BLOCK_AMPLITUDES`` cut along the view's first leading axis longer
  than one, and along the rest axis where that axis is short or absent,
  so no temporary outgrows a block; a state that fits one block is one
  ``stack @ view``.  An uncontrolled gate is a one-matrix stack.
  Targets, controls and registers are non-empty, disjoint, contiguous
  ascending qubits of the state, or ``ValidationError`` is raised before
  the state is touched.  One cached function, ``_split``, checks them,
  once per distinct register set rather than per call, and
  ``_gate_view`` plans the blocks once per register set.  A state has a
  single writer at a time.
* Gates reject a non-unitary matrix, one batched check per call (a
  stack of powers is passed as its factors, each checked, and built in
  the kernel), except that a read-only array, a shared constant such as
  the DFT, is taken to be constant and checked once per array object,
  with no copy or hash of its content; the last 8 to pass are held, so
  no other array takes their ids.  Gates do not check the norm: it is
  checked once per stage boundary, from a read the stage makes anyway
  (:func:`check_norm`, or :func:`check_mass` on the register masses a
  stage reads).  Every guard is written so that NaN fails.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import FullyThresholdedError, NormalizationError, ValidationError

MAX_QUBITS = 26
NORM_TOL = 1e-10
UNITARY_TOL = 1e-10
POST_SELECT_FLOOR = 1e-12
CLEARED_TOL = 1e-12
BLOCK_AMPLITUDES = 1 << 18  # 4 MiB of complex128


def check_width(name: str, bits: int) -> None:
    """Reject a register width outside 1..MAX_QUBITS, before 2**bits is formed."""
    if not 1 <= bits <= MAX_QUBITS:
        raise ValidationError(f"{name} must lie in 1..{MAX_QUBITS}, got {bits}")


def ry(angle) -> np.ndarray:
    """Rotation about Y: ry(a)|0> = cos(a/2)|0> + sin(a/2)|1>.  An array
    of angles gives the stack of their rotations."""
    half = np.asarray(angle) / 2.0
    gate = np.empty(half.shape + (2, 2), dtype=complex)
    c, s = np.cos(half), np.sin(half)
    gate[..., 0, 0] = gate[..., 1, 1] = c
    gate[..., 0, 1], gate[..., 1, 0] = -s, s
    return gate


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
        if sorted(flat) != list(range(len(flat))):
            raise ValidationError("registers must tile qubits 0..n-1 without gaps or overlaps")
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

    def __post_init__(self) -> None:
        n, shape = self.n_qubits, np.shape(self.amplitudes)
        if not (isinstance(n, numbers.Integral) and 0 <= n <= MAX_QUBITS and shape == (1 << n,)):
            raise ValidationError(f"{n!r} qubits in 0..{MAX_QUBITS} need 2**n amplitudes: {shape}")
        amp = self.amplitudes  # the kernels write complex results through views of it
        if not (isinstance(amp, np.ndarray) and amp.dtype == np.complex128
                and amp.flags.c_contiguous):
            raise ValidationError(f"amplitudes must be a C-contiguous complex128 array:"
                                  f" {getattr(amp, 'dtype', type(amp))}")

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


def _check_unit(norm: float) -> None:
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
        raise NormalizationError(f"state norm drifted to {norm!r}")


def check_norm(state: QuantumState) -> None:
    """Stage-boundary guard: the state must still have unit norm."""
    _check_unit(state.norm())


def check_mass(mass: np.ndarray) -> None:
    """:func:`check_norm` from a register's label masses, which sum to
    the squared norm: a stage that reads them anyway needs no other read."""
    _check_unit(math.sqrt(mass.sum()))


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
def _gate_view(n: int, registers: tuple) -> tuple[tuple, tuple, tuple]:
    """The shape and axis order that view the amplitudes as (..., control,
    targets, rest), and the kernel's blocks of that view; ``registers`` is
    ``(targets,)`` or ``(targets, control)``, a unit axis standing in for
    an absent control.  The blocks are index tuples of about
    ``BLOCK_AMPLITUDES`` amplitudes that cut the first leading axis longer
    than one (else rest) and, where one index of that axis holds more,
    rest as well; a state that fits one block is one block, ``...``."""
    shape, axes = _split(n, registers)
    # two leading unit axes: the absent control and a spare batch axis
    shape = (1, 1) + shape
    t_axis, c_axis = axes[0] + 2, (axes[1] + 2 if axes[1:] else 0)
    rest = [a for a in range(len(shape)) if a not in (c_axis, t_axis)]
    order = tuple(rest[:-1] + [c_axis, t_axis, rest[-1]])
    if 1 << n <= BLOCK_AMPLITUDES:
        return shape, order, ((...,),)
    dims, last = [shape[a] for a in order], len(order) - 1

    def chunks(axis: int, per: int) -> list[slice]:
        """Slices of ``axis`` of about BLOCK_AMPLITUDES amplitudes at
        ``per`` amplitudes an index.  Along rest, the matmul's columns, a
        slice keeps at least four: OpenBLAS rounds a one- or two-column
        product differently from a wide one, four and more bit for bit."""
        step = max(4 if axis == last else 1, BLOCK_AMPLITUDES // per)
        return [slice(i, i + step) for i in range(0, dims[axis], step)]

    cut = next((a for a, d in enumerate(dims[:-3]) if d > 1), last)
    per = (1 << n) // dims[cut]  # amplitudes under one index of the cut axis
    blocks = [(slice(None),) * cut + (s,) for s in chunks(cut, per)]
    if per > BLOCK_AMPLITUDES and cut < last:  # a short leading axis: cut rest too
        blocks = [b + (..., s) for b in blocks for s in chunks(last, per // dims[last])]
    return shape, order, tuple(blocks)


def _check_unitary(stack: np.ndarray) -> None:
    """Reject a stack with a non-unitary member, in one batched check."""
    dev = stack.conj().transpose(0, 2, 1) @ stack
    dev.reshape(len(dev), -1)[:, :: dev.shape[1] + 1] -= 1.0
    err = np.abs(dev).max()
    if not err <= UNITARY_TOL:  # NaN fails too
        raise ValidationError(f"matrix is not unitary (deviation {err:.3e})")


_CONSTANTS: dict[int, np.ndarray] = {}  # id -> read-only array that passed; the last 8


def _check_constant(array: np.ndarray, stack: np.ndarray) -> None:
    """:func:`_check_unitary` of ``stack``, a read-only view of ``array``,
    once per array object: the array is held, so no other array takes its
    id while it is remembered; a failed check is not remembered."""
    if _CONSTANTS.get(id(array)) is not array:
        _check_unitary(stack)
        if len(_CONSTANTS) == 8:
            del _CONSTANTS[next(iter(_CONSTANTS))]
        _CONSTANTS[id(array)] = array


def _apply(state: QuantumState, matrices, registers: tuple, powers=False) -> QuantumState:
    """The kernel: ``matrices[x]`` (with ``powers``, the product of the
    factors its bits select) on the targets wherever the control register
    reads x >= powers, or ``matrices``, one matrix, where there is no
    control, as ``stack @ block`` written back in place, one block of
    :func:`_gate_view` at a time."""
    shape, order, blocks = _gate_view(state.n_qubits, registers)
    targets, width, lo = registers[0], sum(map(len, registers[1:])), int(powers)
    array = np.asarray(matrices, dtype=complex)
    stack = array if width else array[None]
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValidationError(f"gate matrices must form a stack of square matrices: {stack.shape}")
    if len(stack) != (width if powers else 1 << width):
        raise ValidationError(f"{len(stack)} matrices for a {width}-qubit control")
    if stack.shape[1] != 1 << len(targets):
        raise ValidationError(f"matrix dim {stack.shape[1]} does not match {len(targets)} targets")
    if stack.flags.writeable:
        _check_unitary(stack)
    else:  # a shared constant, such as the DFT: checked once per array
        _check_constant(array, stack)
    if powers:  # label 2^j + y is label y times label 2^j; label y sits at y - 1
        factors, stack = stack, np.empty(((1 << width) - 1,) + stack.shape[1:], dtype=complex)
        for j, factor in enumerate(factors):
            stack[(1 << j) - 1] = factor
            if j:
                np.matmul(stack[: (1 << j) - 1], factor, out=stack[1 << j : (2 << j) - 1])
    view = state.amplitudes.reshape(shape).transpose(order)[..., lo:, :, :]
    for block in blocks:
        view[block] = stack @ view[block]
    return state


def apply_unitary(state: QuantumState, matrix: np.ndarray, targets) -> QuantumState:
    """Apply ``matrix`` on ``targets`` (first target = most significant
    bit of the gate's label) and identity elsewhere."""
    return _apply(state, matrix, (tuple(targets),))


def apply_controlled(
    state: QuantumState, matrices, control, targets, powers: bool = False
) -> QuantumState:
    """Uniformly controlled gate: ``matrices[x]`` acts on ``targets``
    wherever the ``control`` register reads x (``[I, U]`` is U controlled
    on 1).  With ``powers``, ``matrices`` are the factors U^(2^j) of a
    c-qubit control, j = 0..c-1, each checked for unitarity: label x
    gets the product of those its bits select; label 0 is left alone."""
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
    if not abs(np.linalg.norm(vec) - 1.0) <= NORM_TOL:  # NaN fails too
        raise ValidationError("register content must have unit norm")
    view = state.amplitudes.reshape(1 << lo, 1 << w, -1)
    on = view[0, :, 0]
    if not state.norm() ** 2 - np.vdot(on, on).real <= CLEARED_TOL:
        raise ValidationError("other registers are not in |0>")
    state.amplitudes.fill(0.0)
    view[0, :, 0] = vec  # the only amplitudes: the state's norm is vec's
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
    probability of that outcome, from one read that also checks the
    norm.  Probability below ``POST_SELECT_FLOOR`` signals a fully
    thresholded spectrum and raises.
    """
    if value not in (0, 1):
        raise ValidationError("measurement value must be 0 or 1")
    mass = _mass(state.amplitudes, *_register(state, [qubit]))
    check_mass(mass)
    prob = float(mass[value])
    if not prob >= POST_SELECT_FLOOR:  # NaN fails too
        raise FullyThresholdedError(
            f"outcome probability {prob:.3e} below floor {POST_SELECT_FLOOR:.3e}"
        )
    halves = state.amplitudes.reshape(1 << qubit, 2, -1)
    halves[:, 1 - value] = 0.0
    halves[:, value] /= np.sqrt(prob)
    return state, prob

