import functools

import numpy as np
import pytest

from qsvt import sim
from qsvt.errors import FullyThresholdedError, ValidationError


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return sim.QuantumState(n, amp / np.linalg.norm(amp))


def test_new_state_two_qubits_all_zeros():
    layout = sim.RegisterLayout(0, range(0, 0), range(0, 0), range(1, 2))
    state = sim.new_state(layout)
    assert np.allclose(state.amplitudes, [1, 0, 0, 0])


def test_new_state_single_qubit():
    layout = sim.RegisterLayout(0, range(0, 0), range(0, 0), range(1, 2))
    state = sim.new_state(layout)
    assert state.amplitudes.shape == (4,)
    layout1 = sim.RegisterLayout.standard(1, 1, 1)
    assert sim.new_state(layout1).amplitudes[0] == 1.0


def test_new_state_seven_qubit_layout_with_folded_l():
    # 1 ancilla + 3 C + 3 B, L folded away (empty range)
    layout = sim.RegisterLayout(0, range(1, 1), range(1, 4), range(4, 7))
    state = sim.new_state(layout)
    assert len(state.amplitudes) == 128
    assert state.amplitudes[0] == 1.0
    assert abs(np.abs(state.amplitudes[1:]).sum()) == 0.0


def test_new_state_qubit_budget():
    layout = sim.RegisterLayout.standard(12, 12, 4)
    with pytest.raises(ValidationError, match="budget"):
        sim.new_state(layout)


def test_layout_rejects_overlap_and_gaps():
    with pytest.raises(ValidationError):
        sim.RegisterLayout(0, range(1, 3), range(2, 4), range(4, 6))
    with pytest.raises(ValidationError):
        sim.RegisterLayout(0, range(1, 3), range(4, 5), range(5, 7))


def test_load_register_identity_case():
    layout = sim.RegisterLayout.standard(1, 1, 2)
    state = sim.new_state(layout)
    vec = np.zeros(4)
    vec[0] = 1.0
    sim.load_register(state, layout.reg_B, vec)
    assert state.amplitudes[0] == 1.0


def test_load_register_uniform_two_qubits():
    layout = sim.RegisterLayout.standard(1, 1, 2)
    state = sim.new_state(layout)
    sim.load_register(state, layout.reg_B, np.full(4, 0.5))
    mass = sim.register_mass(state, layout.reg_B)
    assert np.allclose(mass, 0.25)


def test_load_register_rejects_bad_input():
    layout = sim.RegisterLayout.standard(1, 1, 2)
    state = sim.new_state(layout)
    with pytest.raises(ValidationError, match="unit norm"):
        sim.load_register(state, layout.reg_B, np.full(4, 0.4))
    with pytest.raises(ValidationError, match="4 amplitudes"):
        sim.load_register(state, layout.reg_B, np.full(8, 1 / np.sqrt(8)))


def test_load_register_requires_other_registers_cleared():
    layout = sim.RegisterLayout.standard(1, 1, 2)
    state = sim.new_state(layout)
    sim.apply_unitary(state, sim.pauli_x(), [layout.ancilla])
    vec = np.zeros(4)
    vec[0] = 1.0
    with pytest.raises(ValidationError, match=r"not in \|0>"):
        sim.load_register(state, layout.reg_B, vec)


def test_apply_unitary_identity_noop():
    state = random_state(4, 1)
    before = state.amplitudes.copy()
    sim.apply_unitary(state, np.eye(4), [1, 2])
    assert np.allclose(state.amplitudes, before, atol=1e-14)
    with pytest.raises(ValidationError, match="contiguous"):
        sim.apply_unitary(state, np.eye(4), [1, 3])


def test_apply_unitary_pauli_x_single_qubit():
    layout = sim.RegisterLayout(0, range(0, 0), range(0, 0), range(1, 2))
    state = sim.new_state(layout)
    sim.apply_unitary(state, sim.pauli_x(), [0])
    # qubit 0 is the most significant bit: |10> is index 2
    assert np.allclose(state.amplitudes, [0, 0, 1, 0])


def test_apply_unitary_hadamard_on_zero():
    state = sim.QuantumState(1, np.array([1.0, 0.0], dtype=complex))
    sim.apply_unitary(state, sim.hadamard(), [0])
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_unitary_rejects_non_unitary():
    state = random_state(2, 2)
    with pytest.raises(ValidationError, match="unitary"):
        sim.apply_unitary(state, np.array([[1, 1], [0, 1]]), [0])
    with pytest.raises(ValidationError, match="distinct"):
        sim.apply_unitary(state, np.eye(4), [1, 1])


def test_apply_controlled_inactive_control():
    state = sim.QuantumState(2, np.array([1, 0, 0, 0], dtype=complex))
    sim.apply_controlled(state, sim.pauli_x(), 0, 1, [1])
    assert np.allclose(state.amplitudes, [1, 0, 0, 0])


def test_apply_controlled_cnot():
    state = sim.QuantumState(2, np.array([0, 0, 1, 0], dtype=complex))  # |10>
    sim.apply_controlled(state, sim.pauli_x(), 0, 1, [1])
    assert np.allclose(state.amplitudes, [0, 0, 0, 1])  # |11>


def test_apply_controlled_ry_pi_makes_bell_state():
    state = sim.QuantumState(2, np.array([1, 0, 0, 0], dtype=complex))
    sim.apply_unitary(state, sim.hadamard(), [0])
    sim.apply_controlled(state, sim.ry(np.pi), 0, 1, [1])
    expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_apply_controlled_rejects_overlap():
    state = random_state(2, 3)
    with pytest.raises(ValidationError, match="overlap"):
        sim.apply_controlled(state, sim.pauli_x(), 1, 1, [1])


def test_basis_oracle_identity():
    # zero codes, and no codes at all, leave every amplitude as it is
    state = random_state(5, 4)
    before = state.amplitudes.copy()
    sim.apply_basis_oracle(state, [1, 2], [3, 4], {c: 0 for c in range(4)})
    sim.apply_basis_oracle(state, [1, 2], [3, 4], {})
    assert np.array_equal(state.amplitudes, before)


def test_basis_oracle_partial_map_on_register_c():
    # L = qubits 0-1, C = qubit 2, code 10 on C = 1:
    # (2|01>|1> + |01>|0>)/sqrt(5) -> (2|11>|1> + |01>|0>)/sqrt(5)
    amp = np.zeros(8, dtype=complex)
    amp[0b011] = 2 / np.sqrt(5)
    amp[0b010] = 1 / np.sqrt(5)
    state = sim.QuantumState(3, amp)
    sim.apply_basis_oracle(state, [0, 1], [2], {1: 0b10})
    expected = np.zeros(8, dtype=complex)
    expected[0b111] = 2 / np.sqrt(5)
    expected[0b010] = 1 / np.sqrt(5)
    assert np.array_equal(state.amplitudes, expected)


def test_basis_oracle_inverse_composition():
    # XOR of a function of C is its own inverse, bit for bit
    rng = np.random.default_rng(5)
    codes = {c: int(rng.integers(8)) for c in range(8)}
    state = random_state(7, 6)
    before = state.amplitudes.copy()
    sim.apply_basis_oracle(state, [1, 2, 3], [4, 5, 6], codes)
    assert not np.array_equal(state.amplitudes, before)
    sim.apply_basis_oracle(state, [1, 2, 3], [4, 5, 6], codes)
    assert np.array_equal(state.amplitudes, before)


def test_basis_oracle_rejects_out_of_range_code():
    state = random_state(4, 7)
    with pytest.raises(ValidationError, match="out of range"):
        sim.apply_basis_oracle(state, [0, 1], [2, 3], {0: 4})  # code wider than L
    with pytest.raises(ValidationError, match="out of range"):
        sim.apply_basis_oracle(state, [0, 1], [2, 3], {4: 1})  # label wider than C
    with pytest.raises(ValidationError, match="out of range"):
        sim.apply_basis_oracle(state, [0, 1], [2, 3], {1: -1})
    with pytest.raises(ValidationError, match="contiguous"):
        sim.apply_basis_oracle(state, [0, 2], [3], {1: 1})


def test_basis_oracle_on_register_subset():
    # C = qubits 0-1 ahead of L = qubits 3-4, spectators 2 and 5: only L
    # moves, within each C slice
    state = random_state(6, 8)
    before = state.amplitudes.reshape(4, 2, 4, 2).copy()
    codes = {0: 3, 2: 1, 3: 2}
    sim.apply_basis_oracle(state, [3, 4], [0, 1], codes)
    after = state.amplitudes.reshape(4, 2, 4, 2)
    for c in range(4):
        moved = np.arange(4) ^ codes.get(c, 0)
        assert np.array_equal(after[c], before[c][:, moved])
    assert np.allclose(np.sum(np.abs(after) ** 2, axis=2).reshape(-1),
                       np.sum(np.abs(before) ** 2, axis=2).reshape(-1))
    with pytest.raises(ValidationError, match="contiguous"):
        sim.register_mass(state, [0, 1, 2, 5])


def test_basis_oracle_unlisted_labels_keep_l():
    state = random_state(5, 9)
    before = state.amplitudes.reshape(2, 4, 4).copy()  # (a, L, C)
    sim.apply_basis_oracle(state, [1, 2], [3, 4], {1: 2})
    after = state.amplitudes.reshape(2, 4, 4)
    assert np.array_equal(after[:, :, [0, 2, 3]], before[:, :, [0, 2, 3]])
    assert np.array_equal(after[:, :, 1], before[:, [2, 3, 0, 1], 1])


def test_post_select_deterministic_outcome():
    amp = np.zeros(4, dtype=complex)
    amp[2] = 1.0  # |10>
    state = sim.QuantumState(2, amp)
    state, p = sim.post_select(state, 0, 1)
    assert p == pytest.approx(1.0)
    assert np.allclose(state.amplitudes, amp)


def test_post_select_half_probability():
    phi = np.array([0.6, 0.8])
    amp = np.kron(np.array([1, 1]) / np.sqrt(2), phi)
    state = sim.QuantumState(2, amp.astype(complex))
    state, p = sim.post_select(state, 0, 1)
    assert p == pytest.approx(0.5)
    expected = np.concatenate([np.zeros(2), phi])
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_post_select_probability_matches_mass():
    state = random_state(4, 9)
    mass = sim.register_mass(state, [2])
    _, p = sim.post_select(state.copy(), 2, 0)
    assert p == pytest.approx(mass[0], abs=1e-12)


def test_post_select_floor_error():
    amp = np.zeros(2, dtype=complex)
    amp[0] = 1.0
    state = sim.QuantumState(1, amp)
    with pytest.raises(FullyThresholdedError):
        sim.post_select(state, 0, 1)


def test_overlap_self_is_one():
    state = random_state(3, 10)
    assert sim.overlap(state, state) == pytest.approx(1.0)


def test_overlap_orthogonal_basis_states():
    a = sim.QuantumState(2, np.array([1, 0, 0, 0], dtype=complex))
    b = sim.QuantumState(2, np.array([0, 1, 0, 0], dtype=complex))
    assert sim.overlap(a, b) == 0


def test_overlap_dimension_mismatch():
    a = random_state(2, 11)
    b = random_state(3, 12)
    with pytest.raises(ValidationError):
        sim.overlap(a, b)


def test_norm_preserved_over_random_gate_sequences():
    rng = np.random.default_rng(13)
    state = random_state(5, 13)
    for _ in range(30):
        kind = rng.integers(3)
        if kind == 0:
            q = int(rng.integers(5))
            sim.apply_unitary(state, sim.ry(float(rng.uniform(0, np.pi))), [q])
        elif kind == 1:
            c, t = rng.choice(5, size=2, replace=False)
            sim.apply_controlled(state, sim.hadamard(), int(c), 1, [int(t)])
        else:
            codes = {c: int(rng.integers(4)) for c in range(8)}
            sim.apply_basis_oracle(state, [0, 1], [2, 3, 4], codes)
    assert abs(state.norm() - 1.0) < 1e-10


def test_gate_linearity_on_superpositions():
    rng = np.random.default_rng(14)
    gate = sim.ry(0.7)
    for trial in range(5):
        a = random_state(4, 100 + trial)
        b = random_state(4, 200 + trial)
        c1, c2 = rng.normal(size=2)
        combo = sim.QuantumState(4, c1 * a.amplitudes + c2 * b.amplitudes)
        norm = np.linalg.norm(combo.amplitudes)
        combo.amplitudes /= norm
        sim.apply_unitary(combo, gate, [2])
        sim.apply_unitary(a, gate, [2])
        sim.apply_unitary(b, gate, [2])
        expected = (c1 * a.amplitudes + c2 * b.amplitudes) / norm
        assert np.abs(combo.amplitudes - expected).max() < 1e-12


def test_controlled_identity_is_noop():
    for seed in range(3):
        state = random_state(4, 300 + seed)
        before = state.amplitudes.copy()
        sim.apply_controlled(state, np.eye(2), 0, 1, [3])
        assert np.allclose(state.amplitudes, before, atol=1e-14)


def dense_reference(n, u, targets, control=None, value=1):
    """The gate as a 2^n x 2^n matrix: a Kronecker product with the
    (controlled) gate on the front qubits, conjugated by the qubit
    permutation that brings control and targets to the front."""
    front = list(targets)
    if control is not None:
        proj = np.diag([1.0 - value, float(value)])
        u = np.kron(proj, u) + np.kron(np.eye(2) - proj, np.eye(len(u)))
        front = [control] + front
    op = np.kron(u, np.eye(1 << (n - len(front))))
    order = front + [q for q in range(n) if q not in front]
    x = np.arange(1 << n)
    moved = sum(((x >> (n - 1 - q)) & 1) << (n - 1 - i) for i, q in enumerate(order))
    perm = np.zeros((1 << n, 1 << n))
    perm[moved, x] = 1.0
    return perm.T @ op @ perm


def random_unitary(k, rng):
    z = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_gate_kernel_matches_dense_kronecker_reference():
    rng = np.random.default_rng(15)
    seen = set()
    for trial in range(300):
        n = int(rng.integers(1, 7))
        controlled = n > 1 and bool(rng.integers(2))
        k = int(rng.integers(1, min(3, n - controlled) + 1))
        if rng.integers(2):
            lo = int(rng.integers(n - k + 1))
            qubits = list(range(lo, lo + k))
            free = [q for q in range(n) if q not in qubits]
            control = int(rng.choice(free)) if controlled and free else None
        else:
            picked = [int(q) for q in rng.permutation(n)[: k + controlled]]
            qubits, control = picked[:k], (picked[k] if controlled else None)
        value = int(rng.integers(2))
        u = random_unitary(k, rng)
        state = random_state(n, 1000 + trial)
        before = state.amplitudes.copy()
        contiguous = qubits == list(range(qubits[0], qubits[0] + k))
        if control is None:
            apply = functools.partial(sim.apply_unitary, state, u, qubits)
        else:
            apply = functools.partial(sim.apply_controlled, state, u, control, value, qubits)
        if contiguous:
            apply()
            expected = dense_reference(n, u, qubits, control, value) @ before
            assert np.abs(state.amplitudes - expected).max() < 1e-12, (n, qubits, control, value)
        else:
            # the one kernel takes contiguous ascending targets only
            with pytest.raises(ValidationError, match="contiguous"):
                apply()
            assert np.array_equal(state.amplitudes, before), (n, qubits, control, value)
        if control is None:
            seen.add((contiguous, None))
        else:
            where = ("before" if control < min(qubits) else
                     "after" if control > max(qubits) else "between")
            seen.add((contiguous, where, value))
    wanted = {(c, None) for c in (True, False)}
    wanted |= {(True, w, v) for w in ("before", "after") for v in (0, 1)}
    wanted |= {(False, w, v) for w in ("before", "between", "after") for v in (0, 1)}
    assert wanted <= seen, wanted - seen
