"""Gates and gate-level circuits that the package does not need, kept as
references for the tests: one-qubit gates, and the circuit's controlled
stages spelled as one single-qubit-controlled gate per control bit."""
import numpy as np

from qsvt import sim
from qsvt.spectral import herm_exp


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def pauli_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def controlled_on_one(u) -> list:
    """The stack of a gate controlled on one qubit reading 1: [I, U]."""
    return [np.eye(len(u)), u]


def bitwise_conditional_evolution(state, cfg, reg_C, reg_B_left, a, inverse=False):
    """exp(i A c t0) for C label c as exp(i A 2^w t0) controlled on the C
    qubit of bit weight 2^w, one gate per qubit."""
    a = np.asarray(a, dtype=complex)
    sign = -1.0 if inverse else 1.0
    t = len(reg_C)
    for i, q in enumerate(reg_C):
        u = herm_exp(a, sign * (1 << (t - 1 - i)) * cfg.t0)
        sim.apply_controlled(state, controlled_on_one(u), [q], reg_B_left)
    return state


def bitwise_ry_cascade(state, layout, cfg):
    """The paper's cascade: ry(2^(1-j) alpha) on the ancilla controlled on
    the j-th qubit of L, one gate per qubit."""
    for j, q in enumerate(layout.reg_L, start=1):
        gate = sim.ry(2.0 ** (1 - j) * cfg.alpha)
        sim.apply_controlled(state, controlled_on_one(gate), [q], [layout.ancilla])
    sim.check_norm(state)
    return state
