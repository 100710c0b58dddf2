import functools

import numpy as np
import pytest

from qsvt import sim
from qsvt.errors import FullyThresholdedError, ValidationError

from gates import controlled_on_one, hadamard, pauli_x


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
    sim.apply_unitary(state, pauli_x(), [layout.ancilla])
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
    sim.apply_unitary(state, pauli_x(), [0])
    # qubit 0 is the most significant bit: |10> is index 2
    assert np.allclose(state.amplitudes, [0, 0, 1, 0])


def test_apply_unitary_hadamard_on_zero():
    state = sim.QuantumState(1, np.array([1.0, 0.0], dtype=complex))
    sim.apply_unitary(state, hadamard(), [0])
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_unitary_rejects_non_unitary():
    state = random_state(2, 2)
    with pytest.raises(ValidationError, match="unitary"):
        sim.apply_unitary(state, np.array([[1, 1], [0, 1]]), [0])
    with pytest.raises(ValidationError, match="distinct"):
        sim.apply_unitary(state, np.eye(4), [1, 1])


def test_apply_controlled_inactive_control():
    state = sim.QuantumState(2, np.array([1, 0, 0, 0], dtype=complex))
    sim.apply_controlled(state, controlled_on_one(pauli_x()), [0], [1])
    assert np.allclose(state.amplitudes, [1, 0, 0, 0])


def test_apply_controlled_cnot():
    state = sim.QuantumState(2, np.array([0, 0, 1, 0], dtype=complex))  # |10>
    sim.apply_controlled(state, controlled_on_one(pauli_x()), [0], [1])
    assert np.allclose(state.amplitudes, [0, 0, 0, 1])  # |11>


def test_apply_controlled_ry_pi_makes_bell_state():
    state = sim.QuantumState(2, np.array([1, 0, 0, 0], dtype=complex))
    sim.apply_unitary(state, hadamard(), [0])
    sim.apply_controlled(state, controlled_on_one(sim.ry(np.pi)), [0], [1])
    expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_apply_controlled_rejects_overlap():
    state = random_state(2, 3)
    with pytest.raises(ValidationError, match="overlap"):
        sim.apply_controlled(state, controlled_on_one(pauli_x()), [1], [1])


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


# registers that no entry point takes on a 6-qubit state
BAD_REGISTERS = {
    "duplicate": [1, 1],
    "negative": [-1, 0],
    "beyond n": [5, 6],
    "gap": [1, 3],
    "descending": [2, 1],
    "empty": [],
}


def _calls_on(reg):
    """Each entry point with ``reg`` in one register argument; the other
    register, where there is one, is qubit 4, which no bad register uses."""
    dim = 1 << len(reg)
    return {
        "apply_unitary": lambda s: sim.apply_unitary(s, np.eye(dim), reg),
        "apply_controlled targets": lambda s: sim.apply_controlled(s, [np.eye(dim)] * 2, [4], reg),
        "apply_controlled control": lambda s: sim.apply_controlled(s, [np.eye(2)] * dim, reg, [4]),
        "apply_basis_oracle L": lambda s: sim.apply_basis_oracle(s, reg, [4], {}),
        "apply_basis_oracle C": lambda s: sim.apply_basis_oracle(s, [4], reg, {}),
        "register_mass": lambda s: sim.register_mass(s, reg),
        "load_register": lambda s: sim.load_register(s, reg, np.eye(dim)[0]),
    }


REGISTER_CASES = [
    (f"{entry} / {kind}", call, "non-empty, distinct, contiguous")
    for kind, reg in BAD_REGISTERS.items()
    for entry, call in _calls_on(reg).items()
] + [
    ("post_select / negative", lambda s: sim.post_select(s, -1, 1), "in 0..5"),
    ("post_select / beyond n", lambda s: sim.post_select(s, 6, 1), "in 0..5"),
    ("apply_controlled / overlap",
     lambda s: sim.apply_controlled(s, [np.eye(4)] * 4, [1, 2], [2, 3]), "overlap"),
    ("apply_basis_oracle / overlap",
     lambda s: sim.apply_basis_oracle(s, [1, 2], [2, 3], {}), "overlap"),
]


@pytest.mark.parametrize("call, match", [c[1:] for c in REGISTER_CASES],
                         ids=[c[0] for c in REGISTER_CASES])
def test_register_check_rejects_bad_registers_at_every_entry_point(call, match):
    # the one register check raises before the state is touched, and a
    # failed check is not cached: the same bad call raises again
    state = random_state(6, 40)
    before = state.amplitudes.tobytes()
    for _ in range(2):
        with pytest.raises(ValidationError, match=match):
            call(state)
        assert state.amplitudes.tobytes() == before


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
            sim.apply_controlled(state, controlled_on_one(hadamard()), [int(c)], [int(t)])
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
        sim.apply_controlled(state, controlled_on_one(np.eye(2)), [0], [3])
        assert np.allclose(state.amplitudes, before, atol=1e-14)


def dense_reference(n, stack, targets, control=()):
    """The gate as a 2^n x 2^n matrix: a Kronecker product with the block
    diagonal of the stack (one block per control label) on the front
    qubits, conjugated by the qubit permutation that brings control and
    targets to the front."""
    front = list(control) + list(targets)
    d = len(stack[0])
    block = np.zeros((len(stack) * d, len(stack) * d), dtype=complex)
    for x, u in enumerate(stack):
        block[x * d : (x + 1) * d, x * d : (x + 1) * d] = u
    op = np.kron(block, np.eye(1 << (n - len(front))))
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


def _placement(n, k, w, rng):
    """Targets and control: two contiguous blocks in either order with a
    random gap, or the first k and next w qubits of a permutation."""
    if rng.integers(2):
        start = int(rng.integers(n - k - w + 1))
        gap = int(rng.integers(n - k - w - start + 1))
        control_first = bool(rng.integers(2))
        first, second = (w, k) if control_first else (k, w)
        blocks = [list(range(start, start + first)),
                  list(range(start + first + gap, start + first + gap + second))]
        return blocks[::-1] if control_first else blocks
    picked = [int(q) for q in rng.permutation(n)[: k + w]]
    return picked[:k], picked[k:]


def test_gate_kernel_matches_dense_kronecker_reference():
    rng = np.random.default_rng(15)
    seen = set()
    for trial in range(600):
        n = int(rng.integers(1, 8))
        w = int(rng.integers(min(3, n - 1) + 1))  # control width; 0 is apply_unitary
        k = int(rng.integers(1, min(3, n - w) + 1))
        targets, control = _placement(n, k, w, rng)
        value, powers = None, w > 0 and bool(rng.integers(2))
        if powers:
            # powers u^0..u^(2^w - 1) of one unitary, passed without u^0 = I
            u = random_unitary(k, rng)
            stack = [np.linalg.matrix_power(u, x) for x in range(1 << w)]
        elif w == 1 and rng.integers(2):
            # a one-qubit control reading `value`: [U, I] for 0, [I, U] for 1
            value, u = int(rng.integers(2)), random_unitary(k, rng)
            stack = [u, np.eye(1 << k)] if value == 0 else [np.eye(1 << k), u]
        else:
            stack = [random_unitary(k, rng) for _ in range(1 << w)]
        state = random_state(n, 1000 + trial)
        before = state.amplitudes.copy()
        contiguous = all(r == list(range(r[0], r[0] + len(r))) for r in (targets, control) if r)
        if w == 0:
            apply = functools.partial(sim.apply_unitary, state, stack[0], targets)
        else:
            apply = functools.partial(
                sim.apply_controlled, state, stack[powers:], control, targets, powers
            )
        case = (n, targets, control, value, powers)
        if contiguous:
            apply()
            expected = dense_reference(n, stack, targets, control) @ before
            assert np.abs(state.amplitudes - expected).max() < 1e-12, case
        else:
            # the one kernel takes contiguous ascending registers only
            with pytest.raises(ValidationError, match="contiguous"):
                apply()
            assert np.array_equal(state.amplitudes, before), case
        where = (None if w == 0 else "before" if max(control) < min(targets) else
                 "after" if min(control) > max(targets) else "between")
        seen.add((contiguous, w, where))
        if contiguous and targets[-1] == n - 1:
            seen.add(("ends at the last qubit", w > 0))
        if value is not None and contiguous:
            seen.add(("value", value, where))
        if powers and contiguous:
            seen.add(("powers", w, where))
    wanted = {(c, 0, None) for c in (True, False)}
    wanted |= {(True, w, p) for w in (1, 2, 3) for p in ("before", "after")}
    wanted |= {(False, w, p) for w in (1, 2) for p in ("before", "between", "after")}
    wanted |= {("ends at the last qubit", c) for c in (True, False)}
    wanted |= {("value", v, p) for v in (0, 1) for p in ("before", "after")}
    wanted |= {("powers", w, p) for w in (1, 2, 3) for p in ("before", "after")}
    assert wanted <= seen, wanted - seen


def test_controlled_gate_rejects_bad_stacks_and_controls():
    rng = np.random.default_rng(16)
    stack = [random_unitary(1, rng) for _ in range(4)]
    skewed = [*stack[:2], np.array([[1, 1], [0, 1]]), stack[3]]
    bad = [
        ((stack[:3], [0, 1], [2]), "3 matrices for a 2-qubit control"),
        ((stack, [0], [2]), "4 matrices for a 1-qubit control"),
        ((stack, [0, 1], [2], True), "4 matrices for a 2-qubit control"),
        ((skewed, [0, 1], [2]), "unitary"),
        ((skewed[1:], [0, 1], [2], True), "unitary"),  # a factor of a stack of powers
        ((stack, [1, 2], [2]), "overlap"),
        ((stack, [0, 2], [3]), "contiguous"),
        ((stack, [1, 0], [3]), "contiguous"),
        ((stack[0], [0], [2]), "square"),
    ]
    for args, match in bad:
        state = random_state(4, 17)
        before = state.amplitudes.copy()
        with pytest.raises(ValidationError, match=match):
            sim.apply_controlled(state, *args)
        assert np.array_equal(state.amplitudes, before), match
