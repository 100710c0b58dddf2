import functools
import tracemalloc

import numpy as np
import pytest

from qsvt import rotation, sim
from qsvt.errors import FullyThresholdedError, NormalizationError, ValidationError

from gates import bitwise_ry_cascade, controlled_on_one, hadamard, pauli_x


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


def test_load_register_rejects_nan_content():
    layout = sim.RegisterLayout.standard(1, 1, 1)
    state = sim.new_state(layout)
    with pytest.raises(ValidationError, match="unit norm"):
        sim.load_register(state, layout.reg_B, [np.nan, 0])
    assert np.array_equal(state.amplitudes, sim.new_state(layout).amplitudes)


def test_check_norm_rejects_nan():
    with pytest.raises(NormalizationError, match="nan"):
        sim.check_norm(sim.QuantumState(1, np.array([np.nan, 0], dtype=complex)))
    with pytest.raises(NormalizationError, match="nan"):
        sim.check_mass(np.array([np.nan, 0.0]))
    sim.check_mass(np.array([0.25, 0.75]))


def test_state_requires_contiguous_complex128_amplitudes():
    # real storage would drop the imaginary part of every gate's output:
    # Y on a real |0> left [0, 0]
    for amp in (np.array([1.0, 0.0]), [1.0, 0.0], np.array([1, 0], dtype=np.complex64),
                np.eye(4, dtype=complex)[0, ::2]):
        with pytest.raises(ValidationError, match="C-contiguous complex128"):
            sim.QuantumState(1, amp)


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


def test_read_only_non_unitary_is_rejected_on_every_call():
    state = random_state(2, 2)
    before = state.amplitudes.copy()
    for m in (np.array([[1, 1], [0, 1]], dtype=complex), np.full((2, 2), np.nan + 0j)):
        m.flags.writeable = False
        stack = np.stack([np.eye(2, dtype=complex), m])
        stack.flags.writeable = False
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(ValidationError, match="unitary"):
                sim.apply_unitary(state, m, [0])
            with pytest.raises(ValidationError, match="unitary"):
                sim.apply_controlled(state, stack, [0], [1])
        with pytest.raises(ValidationError, match="unitary"):
            sim.apply_unitary(state, m.copy(), [0])  # writable
    assert np.array_equal(state.amplitudes, before)


def test_read_only_arrays_are_held_and_checked_once_each(monkeypatch):
    checked = []
    check = sim._check_unitary
    monkeypatch.setattr(sim, "_check_unitary", lambda m: checked.append(m.shape) or check(m))
    monkeypatch.setattr(sim, "_CONSTANTS", {})
    gates = [sim.ry(angle) for angle in range(9)]
    for gate in gates:
        gate.flags.writeable = False
    state = random_state(2, 4)
    for gate in [*gates, *gates[1:]]:  # the first eight pass, then the ninth evicts the first
        sim.apply_unitary(state, gate, [1])
    assert checked == [(1, 2, 2)] * 9
    assert [sim._CONSTANTS[id(g)] is g for g in gates[1:]] == [True] * 8
    sim.apply_unitary(state, gates[0], [1])
    assert checked == [(1, 2, 2)] * 10


def test_every_factor_of_a_stack_of_powers_is_checked():
    x, five = pauli_x(), 5 * np.eye(2)
    state = random_state(3, 18)
    before = state.amplitudes.copy()
    # a 2-qubit control takes two factors, U and U^2, and checks both
    with pytest.raises(ValidationError, match="3 matrices for a 2-qubit control"):
        sim.apply_controlled(state, [x, x, five], [0, 1], [2], powers=True)
    with pytest.raises(ValidationError, match="unitary"):
        sim.apply_controlled(state, [x, five], [0, 1], [2], powers=True)
    assert np.array_equal(state.amplitudes, before)


def test_state_rejects_amplitudes_that_do_not_fit_its_qubits():
    for n, shape in ((3, (16,)), (3, (4,)), (2, (2, 2)), (-1, (1,)),
                     (sim.MAX_QUBITS + 1, (1,)), (2.0, (4,))):
        with pytest.raises(ValidationError, match="need 2\\*\\*n amplitudes"):
            sim.QuantumState(n, np.zeros(shape, dtype=complex))
    assert sim.QuantumState(0, np.ones(1, dtype=complex)).norm() == 1.0


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


def test_post_select_checks_the_norm_from_its_one_read():
    # a drifted or NaN state fails before it is conditioned
    for amp in (np.array([0.6, 0.8001], dtype=complex), np.array([np.nan, 1.0], dtype=complex)):
        state = sim.QuantumState(1, amp.copy())
        with pytest.raises(NormalizationError, match="drifted"):
            sim.post_select(state, 0, 1)
        assert np.array_equal(state.amplitudes, amp, equal_nan=True)


def test_post_select_floor_error():
    amp = np.zeros(2, dtype=complex)
    amp[0] = 1.0
    state = sim.QuantumState(1, amp)
    with pytest.raises(FullyThresholdedError):
        sim.post_select(state, 0, 1)


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
            # powers u^0..u^(2^w - 1) of one unitary, passed as the factors u^(2^j)
            u = random_unitary(k, rng)
            stack = [np.linalg.matrix_power(u, x) for x in range(1 << w)]
        elif w == 1 and rng.integers(2):
            # a one-qubit control reading `value`: [U, I] for 0, [I, U] for 1
            value, u = int(rng.integers(2)), random_unitary(k, rng)
            stack = [u, np.eye(1 << k)] if value == 0 else [np.eye(1 << k), u]
        else:
            stack = [random_unitary(k, rng) for _ in range(1 << w)]
        given = [stack[1 << j] for j in range(w)] if powers else stack
        state = random_state(n, 1000 + trial)
        before = state.amplitudes.copy()
        contiguous = all(r == list(range(r[0], r[0] + len(r))) for r in (targets, control) if r)
        if w == 0:
            apply = functools.partial(sim.apply_unitary, state, stack[0], targets)
        else:
            apply = functools.partial(
                sim.apply_controlled, state, given, control, targets, powers
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
        (([stack[1], skewed[2]], [0, 1], [2], True), "unitary"),  # a factor of a stack of powers
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


def _one_and_many_blocks(monkeypatch, n, registers, apply, state):
    """``apply`` on copies of ``state`` under the default plan (one block
    at this size) and under blocks of 2^6 amplitudes; returns both
    outputs and the small-block plan."""
    one, many = state.copy(), state.copy()
    assert sim._gate_view(n, registers)[2] == ((...,),)
    apply(one)
    with monkeypatch.context() as patch:
        patch.setattr(sim, "BLOCK_AMPLITUDES", 1 << 6)
        sim._gate_view.cache_clear()
        try:
            plan = sim._gate_view(n, registers)[2]
            apply(many)
        finally:
            sim._gate_view.cache_clear()
    return one.amplitudes, many.amplitudes, plan


def test_blocked_kernel_matches_one_block_on_every_gate_shape(monkeypatch):
    # under blocks of 2^6 amplitudes each gate shape is cut into blocks of
    # that size: along the first leading axis longer than one, also along
    # rest where that axis is short, and along rest alone where every
    # leading axis has length one, in slices of at least four columns (a
    # wide gate on the top qubits takes two blocks of 128); the output is
    # bit-identical to one block and within 1e-12 of a reference
    rng = np.random.default_rng(41)
    u2, u5 = random_unitary(2, rng), random_unitary(5, rng)
    stack = [random_unitary(2, rng) for _ in range(4)]
    powers = [np.linalg.matrix_power(u2, x) for x in range(8)]
    layout = sim.RegisterLayout.standard(2, 1, 4)  # ancilla, L 1-2, C 3, B 4-7
    cfg = rotation.RotationConfig(2.3)
    cascade_in = random_state(8, 44).amplitudes.reshape(2, -1)
    cascade_in[1] = 0.0  # ancilla cleared
    cascade_in /= np.linalg.norm(cascade_in)

    def bitwise_powers(amp):
        # u^(2^w) controlled on the control qubit of bit weight 2^w
        state = sim.QuantumState(9, amp.copy())
        for i, q in enumerate([3, 4, 5]):
            sim.apply_controlled(state, controlled_on_one(powers[1 << (2 - i)]), [q], [6, 7])
        return state.amplitudes

    def bitwise_cascade(amp):
        return bitwise_ry_cascade(sim.QuantumState(8, amp.copy()), layout, cfg).amplitudes

    cases = {  # name: qubits, registers, gate, input, reference, blocks
        "middle register": (
            8, ((3, 4),), lambda s: sim.apply_unitary(s, u2, [3, 4]), random_state(8, 42),
            lambda amp: dense_reference(8, [u2], [3, 4]) @ amp, 4),
        "short leading axis": (
            8, ((1, 2),), lambda s: sim.apply_unitary(s, u2, [1, 2]), random_state(8, 48),
            lambda amp: dense_reference(8, [u2], [1, 2]) @ amp, 4),
        "wide gate on the top qubits": (
            8, ((0, 1, 2, 3, 4),), lambda s: sim.apply_unitary(s, u5, range(5)),
            random_state(8, 49), lambda amp: dense_reference(8, [u5], range(5)) @ amp, 2),
        "controlled": (
            8, ((5, 6), (2, 3)), lambda s: sim.apply_controlled(s, stack, [2, 3], [5, 6]),
            random_state(8, 43), lambda amp: dense_reference(8, stack, [5, 6], [2, 3]) @ amp, 4),
        "powers": (
            9, ((6, 7), (3, 4, 5)),
            lambda s: sim.apply_controlled(s, [powers[1], powers[2], powers[4]], [3, 4, 5],
                                           [6, 7], powers=True),
            random_state(9, 45), bitwise_powers, 8),
        "cascade": (
            8, ((0,), (1, 2)), lambda s: rotation.ry_cascade(s, layout, cfg),
            sim.QuantumState(8, cascade_in.reshape(-1)), bitwise_cascade, 4),
    }
    for name, (n, registers, apply, state, reference, blocks) in cases.items():
        one, many, plan = _one_and_many_blocks(monkeypatch, n, registers, apply, state)
        assert len(plan) == blocks, name
        assert np.array_equal(many, one), name
        assert np.abs(many - reference(state.amplitudes)).max() < 1e-12, name


def test_blocked_kernel_allocates_a_block_not_a_state(monkeypatch):
    n, u2 = 14, random_unitary(2, np.random.default_rng(46))
    state = random_state(n, 47)
    size = state.amplitudes.nbytes

    def peak_of_one_gate():
        tracemalloc.start()
        try:
            sim.apply_unitary(state, u2, [6, 7])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sim.apply_unitary(state, u2, [6, 7])  # the unitarity check and plan, cached
    assert peak_of_one_gate() >= size  # one block: a state-sized product
    monkeypatch.setattr(sim, "BLOCK_AMPLITUDES", 1 << 8)
    sim._gate_view.cache_clear()
    try:
        assert peak_of_one_gate() < size / 16
    finally:
        sim._gate_view.cache_clear()
