import dataclasses
import functools
import itertools
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from qsvt import qpe, rotation, sim
from qsvt.errors import FullyThresholdedError, NormalizationError, ValidationError

from gates import controlled, hadamard, label_table, pauli_x, ry, unitary


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    n = layout.n_qubits
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return sim.QuantumState(layout, amp / np.linalg.norm(amp))


def flat(n):
    """A layout of ``n`` qubits with L and C empty: the ancilla, then B."""
    return sim.RegisterLayout(0, 0, n - 1)


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
    assert (layout.reg_C, layout.ancilla, layout.n_qubits) == (range(2, 5), 5, 8)
    for args in ((2.0, 3, 2), (2, True, 2), (2, 3, np.bool_(True)), (-1, 3, 2), (2, -1, 2),
                 (2, 3, 0), (2, 3, np.float64(2))):
        with pytest.raises(ValidationError, match="_bits must be an integer >= "):
            sim.RegisterLayout(*args)


def test_layout_sets_its_registers_from_the_widths_alone():
    # C, the ancilla and the qubit count are set once, in __post_init__:
    # replace recomputes them, and equality, hashing and repr see the widths
    layout = sim.RegisterLayout(2, 3, 2)
    wider = dataclasses.replace(layout, t_bits=4)
    assert (wider.reg_C, wider.ancilla, wider.n_qubits) == (range(2, 6), 6, 9)
    assert dataclasses.replace(wider, t_bits=3) == layout
    assert repr(layout) == "RegisterLayout(m_bits=2, t_bits=3, b_bits=2)"
    assert hash(layout) == hash((2, 3, 2))
    tampered = sim.RegisterLayout(2, 3, 2)
    object.__setattr__(tampered, "n_qubits", 99)
    object.__setattr__(tampered, "reg_C", range(0))
    assert tampered == layout and hash(tampered) == hash(layout)
    assert repr(tampered) == repr(layout)
    for name in ("ancilla", "n_qubits", "reg_C"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(layout, name, getattr(wider, name))
    with pytest.raises(TypeError):
        sim.RegisterLayout(2, 3, 2, 5)  # the derived fields take no argument


def test_load_register_identity_case():
    layout = sim.RegisterLayout(1, 1, 2)
    state = sim.new_state(layout)
    vec = np.zeros(4)
    vec[0] = 1.0
    sim.load_register(state, vec)
    assert state.amplitudes[0] == 1.0


def test_load_register_uniform_two_qubits():
    layout = sim.RegisterLayout(1, 1, 2)
    state = sim.new_state(layout)
    sim.load_register(state, np.full(4, 0.5))
    mass = sim.register_mass(state, range(layout.ancilla + 1, layout.n_qubits))
    assert np.allclose(mass, 0.25)


def test_load_register_rejects_bad_input():
    layout = sim.RegisterLayout(1, 1, 2)
    state = sim.new_state(layout)
    with pytest.raises(ValidationError, match="unit norm"):
        sim.load_register(state, np.full(4, 0.4))
    with pytest.raises(ValidationError, match="4 amplitudes"):
        sim.load_register(state, np.full(8, 1 / np.sqrt(8)))
    for bad in (["a", "b", "c", "d"], [[1.0], [0.0, 0.0], [0.0], [0.0]]):  # not numbers, ragged
        with pytest.raises(ValidationError, match="must hold numbers"):
            sim.load_register(state, bad)


def test_load_register_requires_other_registers_cleared():
    layout = sim.RegisterLayout(1, 1, 2)
    state = sim.new_state(layout)
    unitary(state, pauli_x(), [layout.ancilla])
    vec = np.zeros(4)
    vec[0] = 1.0
    with pytest.raises(ValidationError, match=r"not in \|0>"):
        sim.load_register(state, vec)


def test_load_register_rejects_nan_content():
    layout = sim.RegisterLayout(1, 1, 1)
    state = sim.new_state(layout)
    with pytest.raises(ValidationError, match="unit norm"):
        sim.load_register(state, [np.nan, 0])
    assert np.array_equal(state.amplitudes, sim.new_state(layout).amplitudes)


def test_register_reads_reject_a_state_off_unit_norm():
    # every read of the state checks the norm, on C and on the ancilla, and
    # post-selection too: NaN fails, as does a drift just above NORM_TOL
    layout = sim.RegisterLayout(1, 2, 1)
    reads = (
        lambda state: sim.register_mass(state, layout.reg_C),
        lambda state: sim.register_mass(state, range(layout.ancilla, layout.ancilla + 1)),
        lambda state: sim.post_select(state, layout.ancilla, 0),
    )
    unit = random_state(layout, 5)
    for read in reads:
        read(unit.copy())
        for drift, match in ((np.nan, "nan"), (1 + 1e-9, "drifted")):
            state = unit.copy()
            state.amplitudes[:] *= drift
            with pytest.raises(NormalizationError, match=match):
                read(state)


def test_state_requires_writable_contiguous_complex128_amplitudes():
    # real storage would drop the imaginary part of every gate's output:
    # Y on a real |0> left [0, 0]; a read-only array failed at the first
    # in-place gate with NumPy's bare "output array is read-only"
    read_only = np.eye(8, dtype=complex)[0]
    read_only.flags.writeable = False
    for amp in (np.array([1.0, 0.0, 0.0, 0.0]), [1.0, 0.0, 0.0, 0.0],
                np.array([1, 0, 0, 0], dtype=np.complex64), np.eye(8, dtype=complex)[0, ::2],
                read_only):
        with pytest.raises(ValidationError, match="^amplitudes must be a writable C-contiguous"
                                                  " complex128 array"):
            sim.QuantumState(flat(int(np.size(amp)).bit_length() - 1), amp)
    # the same array, writable, is a state the gates write in place
    state = sim.QuantumState(sim.RegisterLayout(0, 1, 1), read_only.copy())
    sim.apply_unitary(state)
    assert np.allclose(state.amplitudes[[0, 4]], 1 / np.sqrt(2))


def test_states_compare_and_hash_by_identity():
    # a state is a mutable buffer: the generated field-wise equality asked
    # NumPy for the truth of an array, and the generated hash hashed one
    state = sim.new_state(sim.RegisterLayout(0, 1, 1))
    twin = state.copy()
    assert state == state and not state == twin and state != twin
    assert len({state, twin}) == 2 and hash(state) == hash(state)


def dft(k: int, inverse: bool = False) -> np.ndarray:
    """The 2^k-point DFT, |c> -> 2^(-k/2) sum_j exp(2 pi i c j / 2^k)|j>,
    or its inverse, as a dense matrix."""
    j = np.arange(1 << k)
    sign = -1 if inverse else 1
    return np.exp(sign * 2j * np.pi * np.outer(j, j) / (1 << k)) / np.sqrt(1 << k)


def test_apply_unitary_then_its_inverse_is_identity():
    layout = sim.RegisterLayout(1, 2, 1)
    state = random_state(layout, 1)
    before = state.amplitudes.copy()
    sim.apply_unitary(state)
    sim.apply_unitary(state, inverse=True)
    assert np.allclose(state.amplitudes, before, atol=1e-14)


def test_apply_unitary_single_qubit_is_the_most_significant_bit():
    # qubit 0 is the most significant bit: the one-qubit DFT on C, qubit 0
    # of the layout (0, 1, 1), takes |001> to |+01>, indices 1 and 5, and
    # on C, qubit 1 of (1, 1, 1), takes |1000> to |1+00>, indices 8 and 12
    state = sim.QuantumState(sim.RegisterLayout(0, 1, 1), np.eye(8, dtype=complex)[1])
    sim.apply_unitary(state)
    assert np.allclose(state.amplitudes, np.eye(8)[[1, 5]].sum(axis=0) / np.sqrt(2))
    state = sim.QuantumState(sim.RegisterLayout(1, 1, 1), np.eye(16, dtype=complex)[8])
    sim.apply_unitary(state, inverse=True)
    assert np.allclose(state.amplitudes, np.eye(16)[[8, 12]].sum(axis=0) / np.sqrt(2))


def test_apply_unitary_on_one_qubit_is_the_hadamard():
    # a one-qubit C, qubit 0: |000> goes to |+00>, and |100> to |-00> in
    # either direction, as the Hadamard on qubit 0 takes them
    layout = sim.RegisterLayout(0, 1, 1)
    state = sim.new_state(layout)
    sim.apply_unitary(state)
    assert np.allclose(state.amplitudes, np.eye(8)[[0, 4]].sum(axis=0) / np.sqrt(2))
    for inverse in (False, True):
        state = sim.QuantumState(layout, np.eye(8, dtype=complex)[4])
        expected = unitary(state.copy(), hadamard(), [0]).amplitudes
        sim.apply_unitary(state, inverse=inverse)
        assert np.allclose(state.amplitudes, expected)
        assert np.allclose(state.amplitudes[[0, 4]], hadamard() @ [0, 1])


def test_every_factor_of_a_control_is_checked():
    # a 2-qubit C takes the table of its 4 labels, folded from 2 rows of
    # phases, U and U^2, each factor applied where its C qubit reads 1, as
    # the dense reference applies them.  The table is its maker's to
    # check: the stages of qpe check the eigenvalues and widths it is
    # folded at
    z = np.array([1, -1], dtype=complex)
    layout = sim.RegisterLayout(0, 2, 1)
    state = random_state(layout, 18)
    before = state.amplitudes.copy()
    sim.apply_controlled(state, label_table([z, z]))
    expected = controlled(sim.QuantumState(layout, before), [np.diag(z)] * 2, layout.reg_C,
                          range(layout.ancilla + 1, layout.n_qubits))
    assert np.array_equal(state.amplitudes, expected.amplitudes)


def test_state_rejects_amplitudes_that_do_not_fit_its_qubits():
    for n, shape in ((3, (16,)), (3, (4,)), (2, (2, 2))):
        with pytest.raises(ValidationError, match=rf"of {n} qubits needs 2\*\*{n} amplitudes"):
            sim.QuantumState(flat(n), np.zeros(shape, dtype=complex))


# what no state takes as the layout of 2^6 amplitudes
BAD_LAYOUTS = {
    "a register": range(2, 4),
    "a tuple of widths": (2, 2, 1),
    "a smaller layout": sim.RegisterLayout(1, 2, 1),
    "a larger layout": sim.RegisterLayout(2, 2, 2),
}


def test_a_state_is_made_on_the_register_layout_of_its_amplitudes():
    # the state's one layout check, where it is made: anything but a layout
    # of its amplitudes' qubit count, or one of more than MAX_QUBITS qubits
    # (checked before the amplitudes), raises; the state stays frozen, and
    # the gates and stages read the layout from it
    amp = random_state(sim.RegisterLayout(2, 2, 1), 40).amplitudes
    for bad in BAD_LAYOUTS.values():
        match = (r" amplitudes: \(64,\)$" if isinstance(bad, sim.RegisterLayout)
                 else "^a state's layout must be a RegisterLayout, got ")
        with pytest.raises(ValidationError, match=match):
            sim.QuantumState(bad, amp)
    with pytest.raises(ValidationError, match="^n_qubits must lie in 1..26, an integer, got 27$"):
        sim.QuantumState(sim.RegisterLayout(0, 17, 9), np.zeros(1, dtype=complex))
    state = sim.QuantumState(sim.RegisterLayout(2, 2, 1), amp)
    assert state.n_qubits == 6 and state.registers.shape == (4, 4, 2, 2)
    assert np.shares_memory(state.registers, amp) and state.copy().layout is state.layout
    for name in ("layout", "amplitudes", "n_qubits"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, name, getattr(state, name))


def test_apply_controlled_inactive_control():
    # C reads 0: E leaves the state as it is, bit for bit
    layout = sim.RegisterLayout(0, 1, 1)
    state = sim.new_state(layout)
    sim.apply_controlled(state, label_table([[1j, -1]]))
    assert np.array_equal(state.amplitudes, np.eye(8)[0])
    # the dense reference leaves it too
    controlled(state, [pauli_x()], [0], [2])
    assert np.array_equal(state.amplitudes, np.eye(8)[0])


def test_apply_controlled_controlled_phase():
    # controlled-Z from C on B, |+>|0>|+> with the ancilla between them:
    # a minus sign on C = 1, B = 1 alone, bit for bit
    layout = sim.RegisterLayout(0, 1, 1)
    amp = np.zeros(8, dtype=complex)
    amp[[0, 1, 4, 5]] = 0.5
    state = sim.QuantumState(layout, amp)
    sim.apply_controlled(state, label_table([[1, -1]]))
    assert np.array_equal(state.amplitudes, [0.5, 0.5, 0, 0, 0.5, -0.5, 0, 0])
    # diag(1, i) on B where C reads 1
    sim.apply_controlled(state, label_table([[1, 1j]]))
    assert np.array_equal(state.amplitudes, [0.5, 0.5, 0, 0, 0.5, -0.5j, 0, 0])


def test_reference_controlled_cnot():
    state = sim.QuantumState(flat(2), np.array([0, 0, 1, 0], dtype=complex))  # |10>
    controlled(state, [pauli_x()], [0], [1])
    assert np.allclose(state.amplitudes, [0, 0, 0, 1])  # |11>


def test_reference_controlled_ry_pi_makes_bell_state():
    state = sim.QuantumState(flat(2), np.array([1, 0, 0, 0], dtype=complex))
    unitary(state, hadamard(), [0])
    controlled(state, [ry(np.pi)], [0], [1])
    expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_basis_oracle_identity():
    # zero codes, and no codes at all, leave every amplitude as it is
    layout = sim.RegisterLayout(2, 2, 1)
    state = random_state(layout, 4)
    before = state.amplitudes.copy()
    sim.apply_basis_oracle(state, {c: 0 for c in range(4)})
    sim.apply_basis_oracle(state, {})
    assert np.array_equal(state.amplitudes, before)


def test_basis_oracle_partial_map_on_register_c():
    # L = qubits 0-1, C = qubit 2, the ancilla and B at 0; code 10 on C = 1:
    # (2|01>|1> + |01>|0>)/sqrt(5) -> (2|11>|1> + |01>|0>)/sqrt(5)
    layout = sim.RegisterLayout(2, 1, 1)
    amp = np.zeros(32, dtype=complex)
    amp[0b011 << 2] = 2 / np.sqrt(5)
    amp[0b010 << 2] = 1 / np.sqrt(5)
    state = sim.QuantumState(layout, amp)
    sim.apply_basis_oracle(state, {1: 0b10})
    expected = np.zeros(32, dtype=complex)
    expected[0b111 << 2] = 2 / np.sqrt(5)
    expected[0b010 << 2] = 1 / np.sqrt(5)
    assert np.array_equal(state.amplitudes, expected)


def test_basis_oracle_inverse_composition():
    # XOR of a function of C is its own inverse, bit for bit
    rng = np.random.default_rng(5)
    codes = {c: int(rng.integers(8)) for c in range(8)}
    layout = sim.RegisterLayout(3, 3, 1)
    state = random_state(layout, 6)
    before = state.amplitudes.copy()
    sim.apply_basis_oracle(state, codes)
    assert not np.array_equal(state.amplitudes, before)
    sim.apply_basis_oracle(state, codes)
    assert np.array_equal(state.amplitudes, before)


def test_basis_oracle_unlisted_labels_keep_l():
    # (L, C, the ancilla and B): only L moves, within the slice C = 1
    layout = sim.RegisterLayout(2, 2, 1)
    state = random_state(layout, 9)
    before = state.amplitudes.reshape(4, 4, 4).copy()
    sim.apply_basis_oracle(state, {1: 2})
    after = state.amplitudes.reshape(4, 4, 4)
    assert np.array_equal(after[:, [0, 2, 3]], before[:, [0, 2, 3]])
    assert np.array_equal(after[:, 1], before[[2, 3, 0, 1], 1])


def test_post_select_deterministic_outcome():
    # post-selection is a read: it gives the probability and writes nothing
    amp = np.zeros(4, dtype=complex)
    amp[2] = 1.0  # |10>
    state = sim.QuantumState(flat(2), amp.copy())
    assert sim.post_select(state, 0, 1) == 1.0
    assert state.amplitudes.tobytes() == amp.tobytes()


def test_post_select_half_probability():
    phi = np.array([0.6, 0.8])
    amp = np.kron(np.array([1, 1]) / np.sqrt(2), phi)
    state = sim.QuantumState(flat(2), amp.astype(complex))
    before = state.amplitudes.tobytes()
    p = sim.post_select(state, 0, 1)
    assert type(p) is float and p == pytest.approx(0.5)
    assert state.amplitudes.tobytes() == before
    # the branch kept, divided by sqrt(p), is the conditional state
    assert np.allclose(state.amplitudes[2:] / math.sqrt(p), phi, atol=1e-12)


def test_post_select_probability_matches_mass():
    state = random_state(flat(4), 9)
    mass = sim.register_mass(state, range(2, 3))
    p = sim.post_select(state.copy(), 2, 0)
    assert p == pytest.approx(mass[0], abs=1e-12)


def test_post_select_checks_the_norm_from_its_one_read():
    # a drifted or NaN state fails before it is conditioned
    for amp in (np.array([0.6, 0, 0.8001, 0], dtype=complex),
                np.array([np.nan, 0, 1.0, 0], dtype=complex)):
        state = sim.QuantumState(sim.RegisterLayout(0, 0, 1), amp.copy())
        with pytest.raises(NormalizationError, match="drifted"):
            sim.post_select(state, 0, 1)
        assert np.array_equal(state.amplitudes, amp, equal_nan=True)


def test_post_select_takes_the_integer_zero_or_one():
    # 1.0 indexed the masses with a float, True with a bool
    for value in (1.0, True, np.bool_(True), 2, -1, "1", None):
        state = random_state(flat(3), 10)
        before = state.amplitudes.copy()
        with pytest.raises(ValidationError, match="^measurement value must lie in 0..1, an integer,"):
            sim.post_select(state, 2, value)
        assert np.array_equal(state.amplitudes, before)
    p = sim.post_select(random_state(flat(3), 10), 2, np.int64(1))
    assert p == sim.post_select(random_state(flat(3), 10), 2, 1)


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
    state = random_state(layout, 52)
    block = sim.l_zero_block(state)
    assert block.layout == sim.RegisterLayout(0, 3, 2)
    assert block.n_qubits == 6 and np.shares_memory(block.amplitudes, state.amplitudes)
    assert np.array_equal(block.amplitudes, state.amplitudes[:64])
    sim.apply_unitary(block)
    assert np.array_equal(state.amplitudes[:64], block.amplitudes)
    # no L: the block is the state
    no_l = sim.QuantumState(sim.RegisterLayout(0, 5, 2), state.amplitudes)
    assert sim.l_zero_block(no_l).amplitudes.size == 256


def test_post_select_floor_error():
    amp = np.zeros(4, dtype=complex)
    amp[0] = 1.0
    state = sim.QuantumState(sim.RegisterLayout(0, 0, 1), amp)
    with pytest.raises(FullyThresholdedError):
        sim.post_select(state, 0, 1)


@pytest.mark.parametrize("entry", [sim.new_state, sim.check_budget],
                         ids=["new_state", "check_budget"])
def test_the_budget_takes_a_register_layout(entry):
    # a tuple of widths raised a bare AttributeError
    with pytest.raises(ValidationError,
                       match=r"^a state's budget takes a RegisterLayout, got \(2, 3, 1\)$"):
        entry((2, 3, 1))


def test_cached_layout_is_made_once_per_widths_and_checks_their_types():
    layout = sim.cached_layout(2, 3, 1)
    assert layout == sim.RegisterLayout(2, 3, 1) and sim.cached_layout(2, 3, 1) is layout
    for bad in (True, 2.0):
        with pytest.raises(ValidationError, match="^m_bits must be an integer >= 0"):
            sim.cached_layout(bad, 3, 1)


@pytest.mark.parametrize("register", [[2, 3], (2, 3), range(0, 4, 2), range(3, 1, -1),
                                      range(2, 2), range(4, 7), range(-1, 1)],
                         ids=["list", "tuple", "stepped range", "descending range",
                              "empty range", "range beyond n", "negative range"])
def test_register_mass_takes_a_range_of_the_state(register):
    # a register in the form a layout holds it: a non-empty range of step
    # 1 within the state; anything else is rejected before the state is read
    state = random_state(flat(6), 41)
    before = state.amplitudes.tobytes()
    for _ in range(2):
        with pytest.raises(ValidationError, match=r"^register .* must be a non-empty range"
                                                  r" of step 1 in 0\.\.5$"):
            sim.register_mass(state, register)
    assert state.amplitudes.tobytes() == before
    by_label = np.abs(state.amplitudes.reshape(4, 4, 4)) ** 2
    assert np.allclose(sim.register_mass(state, range(2, 4)), by_label.sum(axis=(0, 2)))
    assert np.allclose(sim.register_mass(state, range(6)), np.abs(state.amplitudes) ** 2)


@pytest.mark.parametrize("qubit", [True, 1.0, np.float64(1.0), np.bool_(True), -1, 6, "1", None],
                         ids=repr)
def test_post_select_takes_an_integer_qubit_of_the_state(qubit):
    # True and 1.0 equal 1, but a qubit is an integer, and -1 and n lie
    # outside the state; a NumPy integer reads as the int
    state = random_state(flat(6), 42)
    before = state.amplitudes.tobytes()
    with pytest.raises(ValidationError, match="^qubit must lie in 0..5, an integer, got "):
        sim.post_select(state, qubit, 0)
    assert state.amplitudes.tobytes() == before
    assert sim.post_select(state, np.int64(1), 0) == sim.post_select(state, 1, 0)


def test_norm_preserved_over_random_gate_sequences():
    rng = np.random.default_rng(13)
    layout = sim.RegisterLayout(2, 3, 1)
    state = random_state(layout, 13)
    for _ in range(30):
        kind = rng.integers(3)
        if kind == 0:
            sim.apply_unitary(state, inverse=bool(rng.integers(2)))
        elif kind == 1:
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(3, 2)))
            sim.apply_controlled(state, label_table(phases))
        else:
            codes = {c: int(rng.integers(4)) for c in range(8)}
            sim.apply_basis_oracle(state, codes)
    assert abs(state.norm() - 1.0) < 1e-10


def test_gate_linearity_on_superpositions():
    rng = np.random.default_rng(14)
    layout = sim.RegisterLayout(1, 2, 1)
    for trial in range(5):
        a = random_state(layout, 100 + trial)
        b = random_state(layout, 200 + trial)
        c1, c2 = rng.normal(size=2)
        combo = c1 * a.amplitudes + c2 * b.amplitudes
        norm = np.linalg.norm(combo)
        combo = sim.QuantumState(layout, combo / norm)
        sim.apply_unitary(combo)
        sim.apply_unitary(a)
        sim.apply_unitary(b)
        expected = (c1 * a.amplitudes + c2 * b.amplitudes) / norm
        assert np.abs(combo.amplitudes - expected).max() < 1e-12


def test_controlled_identity_is_noop():
    layout = sim.RegisterLayout(0, 1, 2)
    for seed in range(3):
        state = random_state(layout, 300 + seed)
        before = state.amplitudes.copy()
        sim.apply_controlled(state, label_table([np.ones(4)]))
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


def _layouts(max_qubits):
    """Every layout of at most ``max_qubits`` qubits with C and B not empty."""
    return [sim.RegisterLayout(m, t, b) for m in range(max_qubits) for t in range(1, max_qubits)
            for b in range(1, max_qubits) if m + t + 1 + b <= max_qubits]


def _cleared(state, *index):
    """``state`` with its registers' slice ``index`` set to 0, renormalized."""
    state.registers[index] = 0.0
    amp = state.amplitudes
    amp /= np.linalg.norm(amp)
    return state


def _layout_calls(layout, rng):
    """Every gate and stage, as a call on a state of ``layout`` with
    arguments that fit it, beside the state it takes (from a random state)
    and the dense reference of what it does, written on the qubits that
    the widths alone give: L 0..m-1, C m..m+t-1, the ancilla m+t, B the
    rest.  A reference returns what the call's result is compared with."""
    m, t, b = layout.m_bits, layout.t_bits, layout.b_bits
    n = m + t + 1 + b
    reg_L, reg_C, ancilla, reg_B = range(m), range(m, m + t), m + t, range(m + t + 1, n)
    table = np.stack([random_phases(b, rng) for _ in range(t)])
    codes = {c: int(rng.integers(1, 1 << m)) for c in range(1 << t) if c % 2 == 0}
    xor = np.zeros((1 << (m + t),) * 2)  # |l>|c> -> |l ^ codes[c]>|c> on L, C
    for y, c in itertools.product(range(1 << m), range(1 << t)):
        xor[(y ^ codes.get(c, 0)) << t | c, y << t | c] = 1.0
    cfg, lam = qpe.PhaseEstimationConfig(t, 0.7, False), list(rng.uniform(0.5, 3.0, 1 << b))

    def evolution(s, sign=1.0):  # exp(i lam c t0) as one phase factor per C qubit
        return controlled(s, [np.diag(np.exp(sign * 1j * np.multiply(lam, (1 << j) * cfg.t0)))
                              for j in range(t)], reg_C, reg_B)

    def estimation(s, sign=1.0):  # on a cleared C the DFT is the Hadamard layer
        return unitary(evolution(unitary(s, dft(t), reg_C), sign), dft(t, True), reg_C)

    def cascade(s):  # ry(2^(1-j) alpha), alpha 1, on the ancilla for the j-th qubit of L
        for j, q in enumerate(reg_L, start=1):
            controlled(s, [ry(2.0 ** (1 - j))], [q], [ancilla])
        return s

    vec = rng.normal(size=1 << b) + 1j * rng.normal(size=1 << b)
    vec /= np.linalg.norm(vec)
    x = np.arange(1 << n)
    l_zero = x[[all((v >> (n - 1 - q)) & 1 == 0 for q in reg_L) for v in x]]
    lc_zero = x[[all((v >> (n - 1 - q)) & 1 == 0 for q in [*reg_L, *reg_C]) for v in x]]
    oracle = rotation.SigmaTauOracle(m, t, codes, {})
    def same(s):  # a random state as it is
        return s

    return {
        "apply_unitary": (same, sim.apply_unitary,
                          lambda s: unitary(s, dft(t), reg_C).amplitudes),
        "apply_controlled": (same, lambda s: sim.apply_controlled(s, label_table(table)),
                             lambda s: controlled(s, [np.diag(r) for r in table], reg_C,
                                                  reg_B).amplitudes),
        "apply_basis_oracle": (same, lambda s: sim.apply_basis_oracle(s, codes),
                               lambda s: unitary(s, xor, [*reg_L, *reg_C]).amplitudes),
        "load_register": (lambda s: sim.new_state(layout), lambda s: sim.load_register(s, vec),
                          lambda s: np.kron(np.eye(1 << (n - b))[0], vec)),
        "qft": (same, qpe.qft, lambda s: unitary(s, dft(t), reg_C).amplitudes),
        "iqft": (same, qpe.iqft, lambda s: unitary(s, dft(t, True), reg_C).amplitudes),
        "conditional_evolution": (same, lambda s: qpe.conditional_evolution(s, cfg, lam),
                                  lambda s: evolution(s).amplitudes),
        "phase_estimate": (lambda s: _cleared(s, slice(None), slice(1, None)),
                           lambda s: qpe.phase_estimate(s, cfg, lam),
                           lambda s: estimation(s).amplitudes),
        "phase_estimate_inverse": (same, lambda s: qpe.phase_estimate_inverse(s, cfg, lam),
                                   lambda s: estimation(s, -1.0).amplitudes),
        "ry_cascade": (lambda s: _cleared(s, slice(None), slice(None), 1),
                       lambda s: rotation.ry_cascade(s, 1.0), lambda s: cascade(s).amplitudes),
        "SigmaTauOracle.apply": (same, oracle.apply,
                                 lambda s: unitary(s, xor, [*reg_L, *reg_C]).amplitudes),
        "uncompute_residual": (same, rotation.uncompute_residual,
                               lambda s: 1.0 - np.sum(np.abs(s.amplitudes[lc_zero]) ** 2)),
        "l_zero_block": (same, lambda s: sim.l_zero_block(s).amplitudes,
                         lambda s: s.amplitudes[l_zero]),
    }


# four of the five 6-qubit layouts with L and C not empty and B of at most two qubits
SIX_QUBIT_LAYOUTS = [sim.RegisterLayout(*w) for w in ((2, 2, 1), (1, 3, 1), (1, 2, 2), (3, 1, 1))]
LAYOUT_CASES = list(itertools.product(_layout_calls(SIX_QUBIT_LAYOUTS[0], np.random.default_rng(0)),
                                      range(len(SIX_QUBIT_LAYOUTS))))


@pytest.mark.parametrize("entry, k", LAYOUT_CASES, ids=[
    f"{e} / m{SIX_QUBIT_LAYOUTS[k].m_bits} t{SIX_QUBIT_LAYOUTS[k].t_bits}"
    f" b{SIX_QUBIT_LAYOUTS[k].b_bits}" for e, k in LAYOUT_CASES])
def test_every_gate_and_stage_takes_the_layout_of_its_state(entry, k):
    # one 6-qubit amplitude vector read under four layouts: each gate and
    # stage reads its registers from the layout its state carries, so on
    # each layout it does what the dense reference on that layout's qubits
    # does, in place where it writes the state, and a layout is passed
    # nowhere beside the state
    layout = SIX_QUBIT_LAYOUTS[k]
    prepare, call, reference = _layout_calls(layout, np.random.default_rng(60 + k))[entry]
    state = prepare(sim.QuantumState(layout, random_state(SIX_QUBIT_LAYOUTS[0], 40).amplitudes))
    expected = reference(state.copy())
    amplitudes = state.amplitudes
    got = call(state)
    if isinstance(got, sim.QuantumState):
        assert got is state and state.amplitudes is amplitudes and state.layout is layout
        got = state.amplitudes
    assert np.abs(np.asarray(got) - expected).max() < 1e-12


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_gates_match_the_dense_references_at_every_layout(inverse):
    # the DFT on C against the dense DFT of gates.unitary, and E against
    # gates.controlled, one dense gate per C qubit, its rows random or the
    # powers u^(2^j) of phase estimation (conjugated for E^-1): at every
    # layout of up to 6 qubits, on the whole state and on its L = 0 block,
    # which takes what the whole state takes there and leaves the rest
    rng = np.random.default_rng(15)
    layouts = _layouts(6)
    assert len(layouts) == 20
    for i, layout in enumerate(layouts):
        n, t, b = layout.n_qubits, layout.t_bits, layout.b_bits
        u = random_phases(b, rng)
        rows = {"factors": np.stack([random_phases(b, rng) for _ in range(t)]),
                "powers": np.stack([u ** (1 << j) for j in range(t)])}
        cases = {"dft": (functools.partial(sim.apply_unitary, inverse=inverse),
                         lambda s: unitary(s, dft(t, inverse), layout.reg_C))}
        for kind, phases in rows.items():
            phases = phases.conj() if inverse else phases
            cases[kind] = (
                lambda s, p=label_table(phases): sim.apply_controlled(s, p),
                lambda s, p=phases: controlled(s, [np.diag(r) for r in p], layout.reg_C,
                                               range(layout.ancilla + 1, layout.n_qubits)))
        for kind, (gate, reference) in cases.items():
            state = random_state(layout, 1000 + i)
            before = state.amplitudes.copy()
            expected = reference(state.copy()).amplitudes
            gate(state)
            assert np.abs(state.amplitudes - expected).max() < 1e-12, (layout, kind)
            state = sim.QuantumState(layout, before.copy())
            gate(sim.l_zero_block(state))
            size = 1 << (n - layout.m_bits)
            assert np.abs(state.amplitudes[:size] - expected[:size]).max() < 1e-12, (layout, kind)
            assert np.array_equal(state.amplitudes[size:], before[size:]), (layout, kind)


def test_reference_gates_match_dense_kronecker_reference():
    # the tests' dense gates, on NumPy alone, take registers in any order:
    # the controlled gate takes factors that need not commute, label x
    # getting the factors its bits select, factor 0 first, and the matrix
    # gate the DFT on its targets
    rng = np.random.default_rng(17)
    for trial in range(200):
        n = int(rng.integers(2, 8))
        w = int(rng.integers(1, min(3, n - 1) + 1))
        k = int(rng.integers(1, min(3, n - w) + 1))
        targets, control = _placement(n, k, w, rng)
        factors = [random_unitary(k, rng) for _ in range(w)]
        state = random_state(flat(n), 2000 + trial)
        before = state.amplitudes.copy()
        controlled(state, factors, control, targets)
        expected = dense_reference(n, label_products(factors), targets, control) @ before
        assert np.abs(state.amplitudes - expected).max() < 1e-12, (n, targets, control)
        inverse = bool(rng.integers(2))
        state = unitary(sim.QuantumState(flat(n), before.copy()), dft(k, inverse), targets)
        expected = dense_reference(n, [dft(k, inverse)], targets) @ before
        assert np.abs(state.amplitudes - expected).max() < 1e-12, (n, targets, inverse)


def test_dft_gate_runs_in_place():
    # an FFT along C's axis, written back into the state: it allocates
    # NumPy's buffers and no copy of the state (a 4 MiB one here), wherever
    # C sits and in both directions; it matches the reference matrix gate
    # where the dense DFT is small, and the other direction takes it back
    layouts = {"C at the top": (0, 8, 9), "C after L": (6, 3, 8), "B one qubit": (14, 2, 1),
               "C one qubit": (9, 1, 7), "C all but two qubits": (0, 16, 1)}
    for (name, widths), inverse in itertools.product(layouts.items(), (False, True)):
        layout = sim.RegisterLayout(*widths)
        state = random_state(layout, 54)
        before = state.amplitudes.copy()
        sim.apply_unitary(state.copy(), inverse=inverse)  # NumPy's lazy set-up
        tracemalloc.start()
        try:
            sim.apply_unitary(state, inverse=inverse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.amplitudes.nbytes / 8, (name, inverse)
        if layout.t_bits <= 8:
            expected = unitary(sim.QuantumState(layout, before.copy()),
                               dft(layout.t_bits, inverse), layout.reg_C)
            assert np.abs(state.amplitudes - expected.amplitudes).max() < 1e-12, (name, inverse)
        sim.apply_unitary(state, inverse=not inverse)
        assert np.abs(state.amplitudes - before).max() < 1e-12, (name, inverse)


def test_controlled_gate_multiplies_in_place():
    # the diagonal gate multiplies the view by the table of its label
    # products in place, whatever the widths: it allocates NumPy's
    # iterator buffers, a few hundred KiB, and no copy of the state (a
    # 4 MiB one here); it matches the dense reference, one dense gate per
    # C qubit for the powers of phase estimation
    rng = np.random.default_rng(43)
    u = random_phases(2, rng)
    cases = {  # name: widths, rows
        "C after a wide L": ((13, 2, 2), np.stack([random_phases(2, rng) for _ in range(2)])),
        "powers, one C qubit each": ((12, 3, 2), np.stack([u ** (1 << j) for j in range(3)])),
        "B wide": ((8, 1, 8), random_phases(8, rng)[None]),
        "C wide": ((8, 8, 1), np.stack([random_phases(1, rng) for _ in range(8)])),
    }
    for name, (widths, phases) in cases.items():
        layout = sim.RegisterLayout(*widths)
        state = random_state(layout, 53)
        expected = state.copy()
        for q, row in zip(reversed(layout.reg_C), phases):
            controlled(expected, [np.diag(row)], [q], range(layout.ancilla + 1, layout.n_qubits))
        table = label_table(phases)
        sim.apply_controlled(state, table)  # NumPy's lazy set-up
        state = random_state(layout, 53)
        tracemalloc.start()
        try:
            sim.apply_controlled(state, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.amplitudes.nbytes / 8, name
        assert np.abs(state.amplitudes - expected.amplitudes).max() < 1e-12, name
