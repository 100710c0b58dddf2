import dataclasses
import functools
import itertools
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from qsvt import sim
from qsvt.errors import FullyThresholdedError, NormalizationError, ValidationError

from gates import controlled, hadamard, pauli_x, ry, unitary


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return sim.QuantumState(n, amp / np.linalg.norm(amp))


def test_new_state_two_qubits_all_zeros():
    layout = sim.RegisterLayout(0, 0, 1)
    state = sim.new_state(layout)
    assert np.allclose(state.amplitudes, [1, 0, 0, 0])


def test_new_state_single_qubit():
    layout = sim.RegisterLayout(0, 0, 1)
    state = sim.new_state(layout)
    assert state.amplitudes.shape == (4,)
    layout1 = sim.RegisterLayout(1, 1, 1)
    assert sim.new_state(layout1).amplitudes[0] == 1.0


def test_new_state_seven_qubit_layout_with_folded_l():
    # 3 C, the ancilla and 3 B, L folded away (width 0)
    layout = sim.RegisterLayout(0, 3, 3)
    state = sim.new_state(layout)
    assert len(state.amplitudes) == 128
    assert state.amplitudes[0] == 1.0
    assert abs(np.abs(state.amplitudes[1:]).sum()) == 0.0


def test_new_state_qubit_budget():
    layout = sim.RegisterLayout(12, 12, 4)
    with pytest.raises(ValidationError, match="budget"):
        sim.new_state(layout)


def test_new_state_refuses_a_state_larger_than_memory_before_allocating(monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("state allocated past the memory budget")

    for n, budget in ((10, (16 << 10) - 1), (26, (16 << 26) - 1)):  # 26 qubits: 1 GiB
        monkeypatch.setattr(sim, "MEMORY_BYTES", budget)
        monkeypatch.setattr(np, "zeros", no_alloc)
        with pytest.raises(ValidationError, match=f"^memory budget exceeded: a {n}-qubit state"):
            sim.new_state(sim.RegisterLayout(0, n - 10, 9))
        monkeypatch.undo()
    # a state that fits the budget exactly is made; without one, MAX_QUBITS alone applies
    for budget in (16 << 10, None):
        monkeypatch.setattr(sim, "MEMORY_BYTES", budget)
        assert sim.new_state(sim.RegisterLayout(0, 0, 9)).n_qubits == 10
        with pytest.raises(ValidationError, match="^qubit budget exceeded: 27 > 26"):
            sim.new_state(sim.RegisterLayout(0, 17, 9))


def test_physical_memory_is_page_size_times_pages_where_sysconf_tells(monkeypatch):
    assert sim.MEMORY_BYTES is None or sim.MEMORY_BYTES > 0
    for pages, want in ((1000, 4096 * 1000), (-1, None), (0, None)):
        monkeypatch.setattr(sim.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}.get)
        assert sim._physical_memory() == want

    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(sim.os, "sysconf", unknown)
    assert sim._physical_memory() is None
    monkeypatch.delattr(sim.os, "sysconf")
    assert sim._physical_memory() is None


def test_layout_is_three_integer_widths_in_one_order():
    layout = sim.RegisterLayout(2, 3, np.int64(2))
    assert (layout.reg_L, layout.reg_C, layout.ancilla, layout.reg_B, layout.n_qubits) == (
        range(0, 2), range(2, 5), 5, range(6, 8), 8)
    for args in ((2.0, 3, 2), (2, True, 2), (2, 3, np.bool_(True)), (-1, 3, 2), (2, -1, 2),
                 (2, 3, 0), (2, 3, np.float64(2))):
        with pytest.raises(ValidationError, match="_bits must be an integer >= "):
            sim.RegisterLayout(*args)


def test_layout_sets_its_registers_from_the_widths_alone():
    # the registers and the qubit count are set once, in __post_init__:
    # replace recomputes them, and equality, hashing and repr see the widths
    layout = sim.RegisterLayout(2, 3, 2)
    wider = dataclasses.replace(layout, t_bits=4)
    assert (wider.reg_L, wider.reg_C, wider.ancilla, wider.reg_B, wider.n_qubits) == (
        range(0, 2), range(2, 6), 6, range(7, 9), 9)
    assert dataclasses.replace(wider, t_bits=3) == layout
    assert repr(layout) == "RegisterLayout(m_bits=2, t_bits=3, b_bits=2)"
    assert hash(layout) == hash((2, 3, 2))
    tampered = sim.RegisterLayout(2, 3, 2)
    object.__setattr__(tampered, "n_qubits", 99)
    object.__setattr__(tampered, "reg_B", range(0))
    assert tampered == layout and hash(tampered) == hash(layout)
    assert repr(tampered) == repr(layout)
    for name in ("ancilla", "n_qubits", "reg_L", "reg_C", "reg_B"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(layout, name, getattr(wider, name))
    with pytest.raises(TypeError):
        sim.RegisterLayout(2, 3, 2, 5)  # the derived fields take no argument


def test_load_register_identity_case():
    layout = sim.RegisterLayout(1, 1, 2)
    state = sim.new_state(layout)
    vec = np.zeros(4)
    vec[0] = 1.0
    sim.load_register(state, layout.reg_B, vec)
    assert state.amplitudes[0] == 1.0


def test_load_register_uniform_two_qubits():
    layout = sim.RegisterLayout(1, 1, 2)
    state = sim.new_state(layout)
    sim.load_register(state, layout.reg_B, np.full(4, 0.5))
    mass = sim.register_mass(state, layout.reg_B)
    assert np.allclose(mass, 0.25)


def test_load_register_rejects_bad_input():
    layout = sim.RegisterLayout(1, 1, 2)
    state = sim.new_state(layout)
    with pytest.raises(ValidationError, match="unit norm"):
        sim.load_register(state, layout.reg_B, np.full(4, 0.4))
    with pytest.raises(ValidationError, match="4 amplitudes"):
        sim.load_register(state, layout.reg_B, np.full(8, 1 / np.sqrt(8)))
    for bad in (["a", "b", "c", "d"], [[1.0], [0.0, 0.0], [0.0], [0.0]]):  # not numbers, ragged
        with pytest.raises(ValidationError, match="must hold numbers"):
            sim.load_register(state, layout.reg_B, bad)


def test_load_register_requires_other_registers_cleared():
    layout = sim.RegisterLayout(1, 1, 2)
    state = sim.new_state(layout)
    unitary(state, pauli_x(), [layout.ancilla])
    vec = np.zeros(4)
    vec[0] = 1.0
    with pytest.raises(ValidationError, match=r"not in \|0>"):
        sim.load_register(state, layout.reg_B, vec)


def test_load_register_rejects_nan_content():
    layout = sim.RegisterLayout(1, 1, 1)
    state = sim.new_state(layout)
    with pytest.raises(ValidationError, match="unit norm"):
        sim.load_register(state, layout.reg_B, [np.nan, 0])
    assert np.array_equal(state.amplitudes, sim.new_state(layout).amplitudes)


def test_register_reads_reject_a_state_off_unit_norm():
    # every read of the state checks the norm, on C and on the ancilla, and
    # post-selection too: NaN fails, as does a drift just above NORM_TOL
    layout = sim.RegisterLayout(1, 2, 1)
    reads = (
        lambda state: sim.register_mass(state, layout.reg_C),
        lambda state: sim.register_mass(state, [layout.ancilla]),
        lambda state: sim.post_select(state, layout.ancilla, 0),
    )
    unit = random_state(layout.n_qubits, 5)
    for read in reads:
        read(unit.copy())
        for drift, match in ((np.nan, "nan"), (1 + 1e-9, "drifted")):
            state = unit.copy()
            state.amplitudes *= drift
            with pytest.raises(NormalizationError, match=match):
                read(state)


def test_state_requires_contiguous_complex128_amplitudes():
    # real storage would drop the imaginary part of every gate's output:
    # Y on a real |0> left [0, 0]
    for amp in (np.array([1.0, 0.0]), [1.0, 0.0], np.array([1, 0], dtype=np.complex64),
                np.eye(4, dtype=complex)[0, ::2]):
        with pytest.raises(ValidationError, match="C-contiguous complex128"):
            sim.QuantumState(1, amp)


def dft(k: int, inverse: bool = False) -> np.ndarray:
    """The 2^k-point DFT, |c> -> 2^(-k/2) sum_j exp(2 pi i c j / 2^k)|j>,
    or its inverse, as a dense matrix."""
    j = np.arange(1 << k)
    sign = -1 if inverse else 1
    return np.exp(sign * 2j * np.pi * np.outer(j, j) / (1 << k)) / np.sqrt(1 << k)


def test_apply_unitary_then_its_inverse_is_identity():
    state = random_state(4, 1)
    before = state.amplitudes.copy()
    sim.apply_unitary(state, [1, 2])
    sim.apply_unitary(state, [1, 2], inverse=True)
    assert np.allclose(state.amplitudes, before, atol=1e-14)
    with pytest.raises(ValidationError, match="contiguous"):
        sim.apply_unitary(state, [1, 3])


def test_apply_unitary_single_qubit_is_the_most_significant_bit():
    # qubit 0 is the most significant bit: the one-qubit DFT on it takes
    # |01> to |+1>, indices 1 and 3, and on qubit 1 takes |10> to |1+>
    state = sim.QuantumState(2, np.array([0, 1, 0, 0], dtype=complex))
    sim.apply_unitary(state, [0])
    assert np.allclose(state.amplitudes, [0, 1 / np.sqrt(2), 0, 1 / np.sqrt(2)])
    state = sim.QuantumState(2, np.array([0, 0, 1, 0], dtype=complex))
    sim.apply_unitary(state, [1], inverse=True)
    assert np.allclose(state.amplitudes, [0, 0, 1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_unitary_on_one_qubit_is_the_hadamard():
    state = sim.QuantumState(1, np.array([1.0, 0.0], dtype=complex))
    sim.apply_unitary(state, [0])
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    # |1> goes to |->, in either direction
    for inverse in (False, True):
        state = sim.QuantumState(1, np.array([0.0, 1.0], dtype=complex))
        sim.apply_unitary(state, [0], inverse=inverse)
        assert np.allclose(state.amplitudes, hadamard() @ [0, 1])


def test_apply_unitary_rejects_bad_targets():
    state = random_state(2, 2)
    before = state.amplitudes.copy()
    with pytest.raises(ValidationError, match="distinct"):
        sim.apply_unitary(state, [1, 1])
    with pytest.raises(ValidationError, match="non-empty"):
        sim.apply_unitary(state, [], inverse=True)
    assert np.array_equal(state.amplitudes, before)


def test_read_only_non_unitary_is_rejected_on_every_call():
    state = random_state(3, 2)
    before = state.amplitudes.copy()
    for row in (np.array([1, 2], dtype=complex), np.full(2, np.nan + 0j)):  # off the unit circle
        stack = np.stack([np.ones(2, dtype=complex), row])
        stack.flags.writeable = False
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(ValidationError, match="unitary"):
                sim.apply_controlled(state, stack, [0, 1], [2])
        with pytest.raises(ValidationError, match="unitary"):
            sim.apply_controlled(state, stack.copy(), [0, 1], [2])  # writable
    assert np.array_equal(state.amplitudes, before)


def test_read_only_view_of_a_changed_base_is_rejected():
    # a read-only array is no constant: a writable base can change it
    phases = np.ones((2, 2), dtype=complex)
    phases_view = phases.view()
    phases_view.flags.writeable = False
    state = random_state(3, 4)
    sim.apply_controlled(state, phases_view, [0, 1], [2])
    phases[1, 0] = 5.0
    before = state.amplitudes.copy()
    with pytest.raises(ValidationError, match="unitary"):
        sim.apply_controlled(state, phases_view, [0, 1], [2])
    assert np.array_equal(state.amplitudes, before)


def test_every_factor_of_a_control_is_checked():
    z, five = np.array([1, -1], dtype=complex), np.full(2, 5.0)
    state = random_state(3, 18)
    before = state.amplitudes.copy()
    # a 2-qubit control takes two rows of phases, U and U^2, and checks both
    with pytest.raises(ValidationError, match=r"takes 2 rows of 2 phases, got \(3, 2\)"):
        sim.apply_controlled(state, [z, z, five], [0, 1], [2])
    with pytest.raises(ValidationError, match="unitary"):
        sim.apply_controlled(state, [z, five], [0, 1], [2])
    # a phase off the unit circle by more than UNITARY_TOL, or NaN, is
    # rejected wherever it sits, in every row and at every label
    wide = random_state(5, 19)
    kept = wide.amplitudes.copy()
    for w in (1, 2, 3):
        for j, x in itertools.product(range(w), range(4)):
            for bad in (1.0 + 2 * sim.UNITARY_TOL, 1.0 - 2 * sim.UNITARY_TOL, np.nan):
                rows = np.exp(1j * np.arange(4 * w).reshape(w, 4))
                rows[j, x] *= bad
                with pytest.raises(ValidationError, match="^phases are not unitary"):
                    sim.apply_controlled(wide, rows, range(w), [w, w + 1])
    assert np.array_equal(wide.amplitudes, kept)
    # within the tolerance a phase passes
    rows = np.exp(1j * np.arange(4)).reshape(1, 4) * (1.0 + sim.UNITARY_TOL / 2)
    sim.apply_controlled(state.copy(), rows, [0], [1, 2])
    assert np.array_equal(state.amplitudes, before)


def test_state_rejects_amplitudes_that_do_not_fit_its_qubits():
    for n, shape in ((3, (16,)), (3, (4,)), (2, (2, 2))):
        with pytest.raises(ValidationError, match="need 2\\*\\*n amplitudes"):
            sim.QuantumState(n, np.zeros(shape, dtype=complex))
    for n, shape in ((-1, (1,)), (sim.MAX_QUBITS + 1, (1,)), (2.0, (4,)), (True, (2,)),
                     (np.bool_(True), (2,))):
        with pytest.raises(ValidationError, match="^n_qubits must lie in 0..26, an integer"):
            sim.QuantumState(n, np.zeros(shape, dtype=complex))
    assert sim.QuantumState(0, np.ones(1, dtype=complex)).norm() == 1.0


def test_apply_controlled_inactive_control():
    state = sim.QuantumState(2, np.array([1, 0, 0, 0], dtype=complex))
    sim.apply_controlled(state, [[1j, -1]], [0], [1])
    assert np.array_equal(state.amplitudes, [1, 0, 0, 0])
    # the dense reference leaves it too
    controlled(state, [pauli_x()], [0], [1])
    assert np.array_equal(state.amplitudes, [1, 0, 0, 0])


def test_apply_controlled_controlled_phase():
    # controlled-Z on |+>|+> writes a minus sign on |11> alone, bit for bit
    state = sim.QuantumState(2, np.full(4, 0.5, dtype=complex))
    sim.apply_controlled(state, [[1, -1]], [0], [1])
    assert np.array_equal(state.amplitudes, [0.5, 0.5, 0.5, -0.5])
    # a control after the targets: diag(1, i) on qubit 0 where qubit 1 reads 1
    sim.apply_controlled(state, [[1, 1j]], [1], [0])
    assert np.array_equal(state.amplitudes, [0.5, 0.5, 0.5, -0.5j])


def test_reference_controlled_cnot():
    state = sim.QuantumState(2, np.array([0, 0, 1, 0], dtype=complex))  # |10>
    controlled(state, [pauli_x()], [0], [1])
    assert np.allclose(state.amplitudes, [0, 0, 0, 1])  # |11>


def test_reference_controlled_ry_pi_makes_bell_state():
    state = sim.QuantumState(2, np.array([1, 0, 0, 0], dtype=complex))
    unitary(state, hadamard(), [0])
    controlled(state, [ry(np.pi)], [0], [1])
    expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_apply_controlled_rejects_overlap():
    state = random_state(2, 3)
    with pytest.raises(ValidationError, match="overlap"):
        sim.apply_controlled(state, [[1, -1]], [1], [1])


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
    # labels and codes are integers, not bools, all checked before a label moves
    before = state.amplitudes.copy()
    for codes in ({1.5: 1}, {1: 1.0}, {True: 1}, {1: True}, {1: 1, 2: 1.0}, {1: 1, 2: 1.5}):
        with pytest.raises(ValidationError, match="not an integer or out of range"):
            sim.apply_basis_oracle(state, [0, 1], [2, 3], codes)
        assert np.array_equal(state.amplitudes, before)
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
    # post-selection is a read: it gives the probability and writes nothing
    amp = np.zeros(4, dtype=complex)
    amp[2] = 1.0  # |10>
    state = sim.QuantumState(2, amp.copy())
    assert sim.post_select(state, 0, 1) == 1.0
    assert state.amplitudes.tobytes() == amp.tobytes()


def test_post_select_half_probability():
    phi = np.array([0.6, 0.8])
    amp = np.kron(np.array([1, 1]) / np.sqrt(2), phi)
    state = sim.QuantumState(2, amp.astype(complex))
    before = state.amplitudes.tobytes()
    p = sim.post_select(state, 0, 1)
    assert type(p) is float and p == pytest.approx(0.5)
    assert state.amplitudes.tobytes() == before
    # the branch kept, divided by sqrt(p), is the conditional state
    assert np.allclose(state.amplitudes[2:] / math.sqrt(p), phi, atol=1e-12)


def test_post_select_probability_matches_mass():
    state = random_state(4, 9)
    mass = sim.register_mass(state, [2])
    p = sim.post_select(state.copy(), 2, 0)
    assert p == pytest.approx(mass[0], abs=1e-12)


def test_post_select_checks_the_norm_from_its_one_read():
    # a drifted or NaN state fails before it is conditioned
    for amp in (np.array([0.6, 0.8001], dtype=complex), np.array([np.nan, 1.0], dtype=complex)):
        state = sim.QuantumState(1, amp.copy())
        with pytest.raises(NormalizationError, match="drifted"):
            sim.post_select(state, 0, 1)
        assert np.array_equal(state.amplitudes, amp, equal_nan=True)


def test_post_select_takes_the_integer_zero_or_one():
    # 1.0 indexed the masses with a float, True with a bool
    for value in (1.0, True, np.bool_(True), 2, -1, "1", None):
        state = random_state(3, 10)
        before = state.amplitudes.copy()
        with pytest.raises(ValidationError, match="^measurement value must lie in 0..1, an integer,"):
            sim.post_select(state, 2, value)
        assert np.array_equal(state.amplitudes, before)
    p = sim.post_select(random_state(3, 10), 2, np.int64(1))
    assert p == sim.post_select(random_state(3, 10), 2, 1)


def test_norm_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(51)
    z = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
    cases = [z.real.ravel(), z.ravel(), z.real, z, np.asfortranarray(z.real),
             np.asfortranarray(z), z.T, z[:, ::2]]
    for x in cases:
        assert sim._norm(x) == np.linalg.norm(x)
    for bad in (np.nan, np.inf, -np.inf):
        for x in (z.real.copy(), z.copy(), np.asfortranarray(z)):
            x[2, 3] = bad
            assert np.array_equal(sim._norm(x), np.linalg.norm(x), equal_nan=True)
            assert not math.isfinite(sim._norm(x))


def test_only_sim_refers_to_the_integer_type_test():
    # every other module checks its integers with sim.check_int
    src = pathlib.Path(sim.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "_is_int" in p.read_text()] == ["sim.py"]


def test_width_check_takes_integers_only():
    assert sim.check_int("w", np.int64(3), 1, 26) == 3
    assert type(sim.check_int("w", np.int64(3), 1, 26)) is int
    for bad in (3.0, True, np.float64(3), np.bool_(True), "3", 0, 27):
        match = f"^w must lie in 1..26, an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValidationError, match=match):
            sim.check_int("w", bad, 1, 26)
    # no upper bound when hi is None
    assert sim.check_int("w", 10**30, 0) == 10**30
    for bad in (-1, 2.0, None):
        with pytest.raises(ValidationError, match=f"^w must be an integer >= 0, got {bad!r}$"):
            sim.check_int("w", bad, 0)


def test_l_zero_block_is_a_view_with_l_removed():
    layout = sim.RegisterLayout(2, 3, 2)  # L 0-1, C 2-4, ancilla 5, B 6-7
    state = random_state(layout.n_qubits, 52)
    block, block_layout = sim.l_zero_block(state, layout)
    assert block_layout == sim.RegisterLayout(0, 3, 2)
    assert block.n_qubits == 6 and np.shares_memory(block.amplitudes, state.amplitudes)
    assert np.array_equal(block.amplitudes, state.amplitudes[:64])
    sim.apply_unitary(block, block_layout.reg_C)
    assert np.array_equal(state.amplitudes[:64], block.amplitudes)
    # no L: the block is the state
    no_l = sim.RegisterLayout(0, 5, 2)
    assert sim.l_zero_block(state, no_l)[0].amplitudes.size == 256


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
        "apply_unitary": lambda s: sim.apply_unitary(s, reg),
        "apply_controlled targets": lambda s: sim.apply_controlled(s, [np.ones(dim)], [4], reg),
        "apply_controlled control":
            lambda s: sim.apply_controlled(s, [np.ones(2)] * len(reg), reg, [4]),
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
     lambda s: sim.apply_controlled(s, [np.ones(4)] * 2, [1, 2], [2, 3]), "overlap"),
    ("apply_basis_oracle / overlap",
     lambda s: sim.apply_basis_oracle(s, [1, 2], [2, 3], {}), "overlap"),
] + [  # a range skips the per-qubit type test, not the register check
    (f"{entry} / {kind} range", call, match)
    for kind, reg, match in (("stepped", range(0, 4, 2), "contiguous"),
                             ("empty", range(2, 2), "non-empty"))
    for entry, call in _calls_on(reg).items()
    if entry.startswith(("apply_unitary", "apply_controlled", "register_mass"))
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


def test_register_check_takes_integer_qubits_only():
    # 1.0 and True equal 1 and hash as 1, so a cached check of the int
    # register would pass them: each entry point runs the int register
    # first, then rejects the other forms before it touches the state; a
    # NumPy integer runs as the int
    zero = sim.new_state(sim.RegisterLayout(0, 0, 5))

    def calls(qubit):
        return {**_calls_on([qubit]), "post_select": lambda s: sim.post_select(s, qubit, 0)}

    for entry in calls(1):
        state, wide = zero.copy(), zero.copy()
        out, wide_out = calls(1)[entry](state), calls(np.int64(1))[entry](wide)
        assert np.array_equal(wide.amplitudes, state.amplitudes), entry
        assert np.array_equal(getattr(wide_out, "amplitudes", wide_out),
                              getattr(out, "amplitudes", out)), entry
        for bad in (1.0, np.float64(1.0), True):
            state = zero.copy()
            with pytest.raises(ValidationError, match="must hold integer qubits"):
                calls(bad)[entry](state)
            assert np.array_equal(state.amplitudes, zero.amplitudes), (entry, bad)


def test_norm_preserved_over_random_gate_sequences():
    rng = np.random.default_rng(13)
    state = random_state(5, 13)
    for _ in range(30):
        kind = rng.integers(3)
        if kind == 0:
            lo = int(rng.integers(5))
            targets = range(lo, int(rng.integers(lo, 5)) + 1)
            sim.apply_unitary(state, targets, inverse=bool(rng.integers(2)))
        elif kind == 1:
            c, t = rng.choice(5, size=2, replace=False)
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(1, 2)))
            sim.apply_controlled(state, phases, [int(c)], [int(t)])
        else:
            codes = {c: int(rng.integers(4)) for c in range(8)}
            sim.apply_basis_oracle(state, [0, 1], [2, 3, 4], codes)
    assert abs(state.norm() - 1.0) < 1e-10


def test_gate_linearity_on_superpositions():
    rng = np.random.default_rng(14)
    for trial in range(5):
        a = random_state(4, 100 + trial)
        b = random_state(4, 200 + trial)
        c1, c2 = rng.normal(size=2)
        combo = sim.QuantumState(4, c1 * a.amplitudes + c2 * b.amplitudes)
        norm = np.linalg.norm(combo.amplitudes)
        combo.amplitudes /= norm
        sim.apply_unitary(combo, [1, 2])
        sim.apply_unitary(a, [1, 2])
        sim.apply_unitary(b, [1, 2])
        expected = (c1 * a.amplitudes + c2 * b.amplitudes) / norm
        assert np.abs(combo.amplitudes - expected).max() < 1e-12


def test_controlled_identity_is_noop():
    for seed in range(3):
        state = random_state(4, 300 + seed)
        before = state.amplitudes.copy()
        sim.apply_controlled(state, [np.ones(2)], [0], [3])
        assert np.array_equal(state.amplitudes, before)


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


def label_products(factors):
    """The stack of a controlled gate given one factor per control qubit:
    for label x, the product of the factors its bits select, factor j for
    the bit of weight 2^j, factor 0 applied first."""
    stack = []
    for x in range(1 << len(factors)):
        u = np.eye(len(factors[0]), dtype=complex)
        for j, factor in enumerate(factors):
            if x >> j & 1:
                u = factor @ u
        stack.append(u)
    return stack


def random_phases(k, rng):
    """A random diagonal unitary on k qubits, as its 2^k phases."""
    return np.exp(1j * rng.uniform(0, 2 * np.pi, size=1 << k))


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
        w = int(rng.integers(min(3, n - 1) + 1))  # control width; 0 is the DFT
        k = int(rng.integers(1, min(3, n - w) + 1))
        targets, control = _placement(n, k, w, rng)
        kind = "powers" if w > 0 and rng.integers(2) else "factors"
        if w == 0:
            kind = "inverse" if rng.integers(2) else "forward"
            stack = [dft(k, inverse=kind == "inverse")]
        elif kind == "powers":
            # the phases u^(2^j) of one diagonal unitary: label x gets u^x,
            # as in phase estimation
            u = random_phases(k, rng)
            factors = [u ** (1 << j) for j in range(w)]
            stack = [np.diag(u**x) for x in range(1 << w)]
        else:
            # a row of phases per control qubit: label x gets the product of its rows
            factors = [random_phases(k, rng) for _ in range(w)]
            stack = label_products([np.diag(f) for f in factors])
        state = random_state(n, 1000 + trial)
        before = state.amplitudes.copy()
        contiguous = all(r == list(range(r[0], r[0] + len(r))) for r in (targets, control) if r)
        if w == 0:
            apply = functools.partial(sim.apply_unitary, state, targets, kind == "inverse")
        else:
            apply = functools.partial(sim.apply_controlled, state, factors, control, targets)
        case = (n, targets, control, kind)
        if contiguous:
            apply()
            expected = dense_reference(n, stack, targets, control) @ before
            assert np.abs(state.amplitudes - expected).max() < 1e-12, case
        else:
            # the gates take contiguous ascending registers only
            with pytest.raises(ValidationError, match="contiguous"):
                apply()
            assert np.array_equal(state.amplitudes, before), case
        where = (None if w == 0 else "before" if max(control) < min(targets) else
                 "after" if min(control) > max(targets) else "between")
        seen.add((contiguous, w, where))
        if contiguous and targets[-1] == n - 1:
            seen.add(("ends at the last qubit", w > 0))
        if contiguous:
            seen.add((kind, w, where))
    wanted = {(c, 0, None) for c in (True, False)}
    wanted |= {(False, w, p) for w in (1, 2) for p in ("before", "between", "after")}
    wanted |= {("ends at the last qubit", c) for c in (True, False)}
    wanted |= {(k, 0, None) for k in ("forward", "inverse")}
    wanted |= {(k, w, p) for k in ("powers", "factors") for w in (1, 2, 3)
               for p in ("before", "after")}
    assert wanted <= seen, wanted - seen


def test_reference_controlled_gate_matches_dense_kronecker_reference():
    # the tests' dense controlled gate, on NumPy alone, takes factors that
    # need not commute and registers in any order: label x gets the
    # factors its bits select, factor 0 first
    rng = np.random.default_rng(17)
    for trial in range(200):
        n = int(rng.integers(2, 8))
        w = int(rng.integers(1, min(3, n - 1) + 1))
        k = int(rng.integers(1, min(3, n - w) + 1))
        targets, control = _placement(n, k, w, rng)
        factors = [random_unitary(k, rng) for _ in range(w)]
        state = random_state(n, 2000 + trial)
        before = state.amplitudes.copy()
        controlled(state, factors, control, targets)
        expected = dense_reference(n, label_products(factors), targets, control) @ before
        assert np.abs(state.amplitudes - expected).max() < 1e-12, (n, targets, control)


def test_controlled_gate_rejects_bad_stacks_and_controls():
    rng = np.random.default_rng(16)
    rows = [random_phases(1, rng) for _ in range(3)]
    bad = [
        ((rows, [0, 1], [2]), r"^a 2-qubit control on 1 targets takes 2 rows of 2 phases"),
        ((rows[:2], [0], [2]), r"^a 1-qubit control on 1 targets takes 1 rows of 2 phases"),
        (([rows[0], [1, 2]], [0, 1], [2]), "unitary"),  # each row
        ((rows[:2], [1, 2], [2]), "overlap"),
        ((rows[:2], [0, 2], [3]), "contiguous"),
        ((rows[:2], [1, 0], [3]), "contiguous"),
        ((rows[0], [0], [2]), r"got \(2,\)$"),
        (([pauli_x()], [0], [2]), r"got \(1, 2, 2\)$"),  # a dense matrix is no row of phases
        ((rows[:1], [0], [2, 3]), r"^a 1-qubit control on 2 targets takes 1 rows of 4 phases"),
        (([["a", "b"]], [0], [2]), "must hold numbers"),
    ]
    for args, match in bad:
        state = random_state(4, 17)
        before = state.amplitudes.copy()
        with pytest.raises(ValidationError, match=match):
            sim.apply_controlled(state, *args)
        assert np.array_equal(state.amplitudes, before), match


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_dft_gate_matches_dense_kronecker_reference(inverse):
    # 1 to 5 targets at every placement, the whole state among them, in
    # each direction, against the dense DFT in a Kronecker product
    for n in (5, 6):
        for k in range(1, 6):
            for lo in range(n - k + 1):
                targets = list(range(lo, lo + k))
                state = random_state(n, 100 * n + 10 * k + lo)
                expected = dense_reference(n, [dft(k, inverse)], targets) @ state.amplitudes
                sim.apply_unitary(state, targets, inverse=inverse)
                case = (n, targets, inverse)
                assert np.abs(state.amplitudes - expected).max() < 1e-12, case


def test_dft_gate_runs_in_place():
    # an FFT along the targets' axis, written back into the state: it
    # allocates NumPy's buffers and no copy of the state (a 4 MiB one
    # here), at any placement and in both directions; it matches the
    # reference matrix gate where the dense DFT is small, and the other
    # direction takes it back
    n = 18
    placements = {"top qubits": range(8), "middle": [6, 7, 8], "last qubits": [15, 16, 17],
                  "one qubit": [9], "the whole state": range(n)}
    for (name, targets), inverse in itertools.product(placements.items(), (False, True)):
        state = random_state(n, 54)
        before = state.amplitudes.copy()
        sim.apply_unitary(state.copy(), targets, inverse=inverse)  # the register check, cached
        tracemalloc.start()
        try:
            sim.apply_unitary(state, targets, inverse=inverse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.amplitudes.nbytes / 8, (name, inverse)
        if len(targets) <= 8:
            expected = unitary(sim.QuantumState(n, before.copy()), dft(len(targets), inverse),
                               targets)
            assert np.abs(state.amplitudes - expected.amplitudes).max() < 1e-12, (name, inverse)
        sim.apply_unitary(state, targets, inverse=not inverse)
        assert np.abs(state.amplitudes - before).max() < 1e-12, (name, inverse)


def test_controlled_gate_multiplies_in_place():
    # the diagonal gate multiplies the view by the table of its label
    # products in place, at any placement of the control: it allocates the
    # table and NumPy's iterator buffers, a few hundred KiB, and no copy of
    # the state (a 4 MiB one here); it matches the dense reference, one
    # dense gate per control qubit for the powers of phase estimation
    rng = np.random.default_rng(43)
    rows = np.stack([random_phases(2, rng) for _ in range(2)])
    u = random_phases(2, rng)
    powers = np.stack([u ** (1 << j) for j in range(3)])
    n = 18
    cases = {  # name: rows, control, targets, the reference's factors and controls
        "control ahead of the targets": (rows, [2, 3], [6, 7], [(list(rows), [2, 3])]),
        "control after the targets": (rows, [9, 10], [2, 3], [(list(rows), [9, 10])]),
        "control beside the targets": (rows, [4, 5], [6, 7], [(list(rows), [4, 5])]),
        "targets at the last qubit": (rows, [0, 1], [16, 17], [(list(rows), [0, 1])]),
        "powers, one control qubit each": (
            powers, [3, 4, 5], [6, 7], [([p], [q]) for p, q in zip(powers, [5, 4, 3])]),
    }
    for name, (phases, control, targets, reference) in cases.items():
        state = random_state(n, 53)
        expected = state.copy()
        for factors, qubits in reference:
            controlled(expected, [np.diag(f) for f in factors], qubits, targets)
        sim.apply_controlled(state, phases, control, targets)  # the plan, cached
        state = random_state(n, 53)
        tracemalloc.start()
        try:
            sim.apply_controlled(state, phases, control, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.amplitudes.nbytes / 8, name
        assert np.abs(state.amplitudes - expected.amplitudes).max() < 1e-12, name
