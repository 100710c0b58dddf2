"""Gates and gate-level circuits that the package does not need, kept as
references for the tests: one-qubit gates, exp(i A t) from an
eigendecomposition of the matrix A, a general matrix gate and a dense
controlled gate written on NumPy alone (the package's one uncontrolled
gate is the DFT and its controlled gate is diagonal), E's label table
folded one label at a time from one row of phases per C qubit, the
circuit's controlled stages spelled as one single-qubit-controlled dense
gate per control bit, phase estimation on the whole state rather than its L = 0
block, the circuit on the full data register B = B_u (x) B_v rather than
the input's Schmidt index, and the random low-rank input built from full
QRs of its draws."""
import math

import numpy as np

from qsvt import qpe, rotation, sim, spectral


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


def unitary(state, matrix, targets):
    """A general matrix gate on NumPy alone, which prepares the tests'
    states: ``matrix`` acts on ``targets``, the first target the most
    significant bit of its label, and identity elsewhere.  Qubits may sit
    anywhere and in any order; nothing is checked."""
    k = len(targets)
    psi = state.amplitudes.reshape((2,) * state.n_qubits)
    moved = np.moveaxis(psi, list(targets), range(k))  # a view
    moved[...] = (np.asarray(matrix) @ moved.reshape(1 << k, -1)).reshape(moved.shape)
    return state


def controlled(state, factors, control, targets):
    """A dense controlled gate on NumPy alone, the reference for
    ``sim.apply_controlled``: factor j, any matrix, acts on ``targets``
    wherever the control qubit of bit weight 2^j, counted from the
    control's last qubit, reads 1, factor 0 first; ``[u]`` is u controlled
    on one qubit.  Qubits may sit anywhere and in any order; nothing is
    checked."""
    k = len(targets)
    psi = state.amplitudes.reshape((2,) * state.n_qubits)
    for j, factor in enumerate(factors):
        moved = np.moveaxis(psi, [control[-1 - j], *targets], range(k + 1))
        half = moved[1]  # a view: the control qubit reads 1
        half[...] = (np.asarray(factor) @ half.reshape(1 << k, -1)).reshape(half.shape)
    return state


def label_table(rows) -> np.ndarray:
    """E's table of one row of phases per C qubit, the argument of
    ``sim.apply_controlled``: label c gets the product of the rows its
    bits select, row j for the bit of weight 2^j, in ascending j, one
    label at a time; shape (2^t, 1, d), complex128."""
    rows = np.asarray(rows, dtype=complex)
    table = np.ones((1 << len(rows), 1, rows.shape[-1]), dtype=complex)
    for c in range(len(table)):
        for j, row in enumerate(rows):
            if c >> j & 1:
                table[c, 0] *= row
    return table


def bitwise_conditional_evolution(state, cfg, a, inverse=False, reg_B=None):
    """exp(i A c t0) for C label c as exp(i A 2^w t0) controlled on the C
    qubit of bit weight 2^w, one dense gate per qubit (:func:`controlled`),
    on ``reg_B``, all of B by default, A a Hermitian matrix or the vector
    of a diagonal one, exponentiated by :func:`eigh_exp`.  It takes
    ``qpe.conditional_evolution``'s arguments, so it can stand in for it."""
    a = np.asarray(a)
    a = np.diag(a) if a.ndim == 1 else a
    layout = state.layout
    reg_B = range(layout.ancilla + 1, layout.n_qubits) if reg_B is None else reg_B
    sign = -1.0 if inverse else 1.0
    t = layout.t_bits
    for i, q in enumerate(layout.reg_C):
        u = eigh_exp(a, sign * (1 << (t - 1 - i)) * cfg.t0)
        controlled(state, [u], [q], reg_B)
    return state


def dense_phase_estimate(state, cfg, a, reg, inverse=False):
    """Phase estimation, or its inverse, with E the dense
    :func:`bitwise_conditional_evolution` of the Hermitian matrix ``a`` on
    the qubits ``reg``: QFT, E, QFT^-1 on C."""
    qpe.qft(state)
    bitwise_conditional_evolution(state, cfg, a, inverse, reg)
    return qpe.iqft(state)


def u_pairs(spec):
    """A = A0 A0^dagger as its eigenpairs on the padded u-register: the
    values sigma_k^2 and u with zero rows below p, pad_dim(p) but at least
    2 rows, so phase estimation has a qubit to act on."""
    vectors = np.zeros((spectral.pad_dim(max(spec.p, 2)), spec.rank), dtype=spec.u.dtype)
    vectors[: spec.p] = spec.u
    return spec.sigma**2, vectors


def full_register_run(cfg, alpha):
    """The circuit of ``pipeline.run_pipeline`` at ``alpha`` with B the
    full data register B_u (x) B_v, loaded with the input itself and E a
    dense gate on B_u (A rebuilt from :func:`u_pairs`), through the same
    oracle, cascade and read-outs.  Returns the result fields that the run
    reads off B."""
    spec = spectral.decompose(cfg.a0)
    pe_cfg = qpe.choose_t0(spec.sigma**2, cfg.t_bits)
    oracle = rotation.build_sigma_tau_oracle(pe_cfg, cfg.m_bits, cfg.tau)
    a = from_eigenpairs(u_pairs(spec))
    du, dp, dv = len(a), spectral.pad_dim(spec.p), spectral.pad_dim(spec.q)
    b_bits = (du * dv).bit_length() - 1
    layout = sim.RegisterLayout(cfg.m_bits, pe_cfg.t_bits, b_bits)
    state = sim.new_state(layout)
    grid = np.zeros((du, dv), dtype=complex)
    grid[:dp] = spectral.to_state(spec, spec.sigma).reshape(dp, dv)
    sim.load_register(state, grid.reshape(-1))
    reg_u = range(layout.ancilla + 1, layout.ancilla + du.bit_length())  # B_u leads B
    dense_phase_estimate(state, pe_cfg, a, reg_u)
    oracle.apply(state)
    rotation.ry_cascade(state, alpha)
    oracle.apply(state)
    dense_phase_estimate(state, pe_cfg, a, reg_u, inverse=True)
    residual = rotation.uncompute_residual(state)
    p_sim = sim.post_select(state, layout.ancilla, 1)
    # L = 0, C = 0, ancilla = 1: the ancilla sits directly ahead of B
    b = state.amplitudes[1 << b_bits : 2 << b_bits].reshape(du, dv) / math.sqrt(p_sim)
    overlaps = (spec.u.conj() * (b[: spec.p, : spec.q] @ spec.v)).sum(axis=0)
    shrunk = spectral.shrunk_values(spec, cfg.tau)
    n1 = float(np.sum(spec.sigma**2))
    return {
        "p_sim": p_sim,
        "f_sim": float(abs(shrunk @ overlaps) / np.linalg.norm(shrunk)),
        "residual_mass": residual,
        "n_alpha": n1 * p_sim,
        "triple_amplitudes": overlaps * math.sqrt(n1 * p_sim),
        "b_state": b[:dp].reshape(-1),
        "labels": list(pe_cfg.labels),
        "newton_iterations": max(oracle.iterations.values(), default=0),
    }


def whole_state(state):
    """Stands in for ``sim.l_zero_block``: the state as it is, so phase
    estimation and its inverse run on every L block."""
    return state


def ry(angle) -> np.ndarray:
    """Rotation about Y: ry(a)|0> = cos(a/2)|0> + sin(a/2)|1>, a real
    matrix.  An array of angles gives the stack of their rotations."""
    half = np.asarray(angle) / 2.0
    gate = np.empty(half.shape + (2, 2))
    c, s = np.cos(half), np.sin(half)
    gate[..., 0, 0] = gate[..., 1, 1] = c
    gate[..., 0, 1], gate[..., 1, 0] = -s, s
    return gate


def bitwise_ry_cascade(state, alpha):
    """The paper's cascade: ry(2^(1-j) alpha) on the ancilla controlled on
    the j-th qubit of L, one dense gate per qubit (:func:`controlled`)."""
    layout = state.layout
    for j, q in enumerate(range(layout.m_bits), start=1):
        controlled(state, [ry(2.0 ** (1 - j) * alpha)], [q], [layout.ancilla])
    return state


def full_qr_lowrank(p, q, r, seed, sigma=None) -> np.ndarray:
    """``harness.random_lowrank`` with each factor the first r columns of
    the sign-fixed Q of a whole p x p (q x q) draw, one QR per draw;
    ``sigma``, when given, is taken as valid.  A drawn sigma is separated
    here on its own array: a value within 1e-6 of the one before it is
    set 1e-4 below that one."""
    rng = np.random.default_rng(seed)
    if sigma is None:
        values = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(10.0), r)))[::-1].copy()
        for i in range(1, r):
            if values[i] > values[i - 1] * (1.0 - 1e-6):
                values[i] = values[i - 1] * (1.0 - 1e-4)
    else:
        values = np.asarray(sigma, dtype=float)

    def orthogonal(n):
        q, rmat = np.linalg.qr(rng.normal(size=(n, n)))
        return q * np.sign(rmat.diagonal())

    u = orthogonal(p)[:, :r]
    v = orthogonal(q)[:, :r]
    return (u * values) @ v.T
