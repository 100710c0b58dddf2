"""Gates and gate-level circuits that the package does not need, kept as
references for the tests: one-qubit gates, exp(i A t) from an
eigendecomposition of the matrix A, the circuit's controlled stages
spelled as one single-qubit-controlled gate per control bit, phase
estimation on the whole state rather than its L = 0 block, and the
random low-rank input built from full QRs of its draws."""
import numpy as np

from qsvt import harness, sim


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def pauli_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def from_eigenpairs(pairs) -> np.ndarray:
    """The matrix V diag(lam) V^dagger of eigenpairs ``(lam, V)``."""
    values, vectors = pairs
    return (vectors * values) @ vectors.conj().T


def eigh_exp(a, t) -> np.ndarray:
    """exp(i A t) of a Hermitian matrix A from ``np.linalg.eigh``."""
    w, v = np.linalg.eigh(a)
    return (v * np.exp(1j * w * t)) @ v.conj().T


def bitwise_conditional_evolution(state, cfg, reg_C, reg_B_left, pairs, inverse=False):
    """exp(i A c t0) for C label c as exp(i A 2^w t0) controlled on the C
    qubit of bit weight 2^w, one gate per qubit, A rebuilt as a matrix
    from its eigenpairs and exponentiated by :func:`eigh_exp`."""
    a = from_eigenpairs(pairs)
    sign = -1.0 if inverse else 1.0
    t = len(reg_C)
    for i, q in enumerate(reg_C):
        u = eigh_exp(a, sign * (1 << (t - 1 - i)) * cfg.t0)
        sim.apply_controlled(state, [u], [q], reg_B_left)
    return state


def whole_state(state, layout):
    """Stands in for ``sim.l_zero_block``: the state and layout as they
    are, so phase estimation and its inverse run on every L block."""
    return state, layout


def ry(angle) -> np.ndarray:
    """Rotation about Y: ry(a)|0> = cos(a/2)|0> + sin(a/2)|1>, a real
    matrix.  An array of angles gives the stack of their rotations."""
    half = np.asarray(angle) / 2.0
    gate = np.empty(half.shape + (2, 2))
    c, s = np.cos(half), np.sin(half)
    gate[..., 0, 0] = gate[..., 1, 1] = c
    gate[..., 0, 1], gate[..., 1, 0] = -s, s
    return gate


def bitwise_ry_cascade(state, layout, alpha):
    """The paper's cascade: ry(2^(1-j) alpha) on the ancilla controlled on
    the j-th qubit of L, one gate per qubit."""
    for j, q in enumerate(layout.reg_L, start=1):
        gate = ry(2.0 ** (1 - j) * alpha)
        sim.apply_controlled(state, [gate], [q], [layout.ancilla])
    return state


def full_qr_lowrank(p, q, r, seed, sigma=None) -> np.ndarray:
    """``harness.random_lowrank`` with each factor the first r columns of
    the sign-fixed Q of a whole p x p (q x q) draw, one QR per draw;
    ``sigma``, when given, is taken as valid."""
    rng = np.random.default_rng(seed)
    if sigma is None:
        values = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(10.0), r)))[::-1]
        values = harness._separate(values)
    else:
        values = np.asarray(sigma, dtype=float)

    def orthogonal(n):
        q, rmat = np.linalg.qr(rng.normal(size=(n, n)))
        return q * np.sign(rmat.diagonal())

    u = orthogonal(p)[:, :r]
    v = orthogonal(q)[:, :r]
    return (u * values) @ v.T
