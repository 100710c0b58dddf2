import numpy as np
import pytest

from qsvt import qpe, sim, spectral
from qsvt.errors import ValidationError
from qsvt.harness import random_lowrank


def reference_setup(m_bits=1, t_bits=3):
    data = spectral.decompose(random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.0)))
    layout = sim.RegisterLayout.standard(m_bits, t_bits, 3)
    a_pad = np.zeros((2, 2), dtype=complex)
    a_pad[: data.p, : data.p] = spectral.gram(data)
    return data, layout, a_pad


def loaded_state(data, layout, weights=None):
    state = sim.new_state(layout)
    w = data.sigma if weights is None else weights
    sim.load_register(state, layout.reg_B, spectral.to_state(data, w))
    return state


def test_choose_t0_integer_eigenvalues():
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    assert cfg.exact
    assert cfg.t0 == pytest.approx(2 * np.pi / 8)
    assert cfg.labels == (4, 1)  # 100 and 001


def test_choose_t0_single_unit_eigenvalue():
    cfg = qpe.choose_t0([1.0], 1)
    assert cfg.exact
    assert cfg.t0 == pytest.approx(np.pi)
    assert cfg.labels == (1,)


def test_choose_t0_inexact_scaled_to_fit():
    cfg = qpe.choose_t0([3.7, 1.2], 5)
    assert not cfg.exact
    assert cfg.t0 == pytest.approx(2 * np.pi * (1 - 2.0**-5) / 3.7)
    assert cfg.labels == (31, 10)  # nearest integers of lam * 31 / 3.7


def test_choose_t0_automatic_t_bits():
    # integral spectra get the bit length of the largest value and encode exactly
    for lam, bits in (([1.0], 1), ([4.0, 1.0], 3), ([7.0, 2.0], 3), ([8.0, 3.0], 4),
                      ([25.0, 1.0], 5), ([4.0 + 1e-10, 1.0], 3)):
        cfg = qpe.choose_t0(lam)
        assert (cfg.t_bits, cfg.exact) == (bits, True)
        assert cfg == qpe.choose_t0(lam, bits)
    # any other spectrum gets 6 bits
    for lam in ([3.7, 1.2], [4.0 + 1e-6, 1.0], [0.5]):
        cfg = qpe.choose_t0(lam)
        assert cfg == qpe.choose_t0(lam, 6)


def test_choose_t0_rejects_label_collision():
    with pytest.raises(ValidationError, match="collision"):
        qpe.choose_t0([5.0, 5.05], 2)


def test_encoding_decode_roundtrip():
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    for lam, label in zip([4.0, 1.0], cfg.labels):
        assert cfg.decode(label) == pytest.approx(lam, abs=1e-9)


def test_choose_t0_labels_on_the_circuit_large_spectrum():
    cfg = qpe.choose_t0([3.1**2, 2.2**2, 1.3**2], 8)
    assert cfg.labels == (255, 128, 45)
    assert not cfg.exact


def test_qft_zero_state_uniform():
    state = sim.QuantumState(3, np.eye(8, dtype=complex)[0])
    qpe.qft(state, [0, 1, 2])
    assert np.allclose(state.amplitudes, np.full(8, 1 / np.sqrt(8)))


def test_qft_basis_state_01():
    state = sim.QuantumState(2, np.eye(4, dtype=complex)[1])
    qpe.qft(state, [0, 1])
    assert np.allclose(state.amplitudes, np.array([1, 1j, -1, -1j]) / 2, atol=1e-12)


def test_iqft_inverts_qft_on_random_states():
    rng = np.random.default_rng(21)
    for _ in range(5):
        amp = rng.normal(size=16) + 1j * rng.normal(size=16)
        amp /= np.linalg.norm(amp)
        state = sim.QuantumState(4, amp.copy())
        qpe.qft(state, [0, 1, 2, 3])
        qpe.iqft(state, [0, 1, 2, 3])
        assert np.abs(state.amplitudes - amp).max() < 1e-12


def test_dft_matrix_is_shared_and_read_only():
    dft = qpe._dft_matrix(3)
    assert qpe._dft_matrix(3) is dft
    assert not dft.flags.writeable
    with pytest.raises(ValueError):
        dft[0, 0] = 0.0
    state = sim.QuantumState(3, np.eye(8, dtype=complex)[5])
    qpe.iqft(qpe.qft(state, [0, 1, 2]), [0, 1, 2])
    assert np.abs(state.amplitudes - np.eye(8)[5]).max() < 1e-12


def test_conditional_evolution_tiny_t0_is_identity():
    data, layout, a_pad = reference_setup()
    cfg = qpe.PhaseEstimationConfig(3, 1e-14, False)
    state = loaded_state(data, layout)
    for q in layout.reg_C:
        sim.apply_unitary(state, sim.hadamard(), [q])
    before = state.amplitudes.copy()
    qpe.conditional_evolution(state, cfg, layout.reg_C, list(layout.reg_B)[:1], a_pad)
    assert np.abs(state.amplitudes - before).max() < 1e-10


def test_conditional_evolution_phases_on_label_one():
    # C fixed at label 1: eigencomponent lam picks up exp(i lam t0)
    data, layout, a_pad = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout)
    last_c = list(layout.reg_C)[-1]
    sim.apply_unitary(state, sim.pauli_x(), [last_c])  # C = 001
    before = state.copy()
    qpe.conditional_evolution(state, cfg, layout.reg_C, list(layout.reg_B)[:1], a_pad)
    for k, lam in enumerate((4.0, 1.0)):
        basis = spectral.to_state(data, np.eye(2)[k])
        full_before = sim.overlap(before, before)  # keep norm sanity
        amp_before = np.vdot(
            _embed(layout, 1, basis), before.amplitudes
        )
        amp_after = np.vdot(_embed(layout, 1, basis), state.amplitudes)
        assert amp_after == pytest.approx(amp_before * np.exp(1j * lam * cfg.t0), abs=1e-12)
    assert full_before == pytest.approx(1.0)


def _embed(layout, c_label, b_vec):
    """Full-state vector with a=0, L=0, C=c_label, B=b_vec."""
    n = layout.n_qubits
    b = len(layout.reg_B)
    full = np.zeros(1 << n, dtype=complex)
    base = c_label << b
    full[base : base + (1 << b)] = b_vec
    return full


def test_conditional_evolution_eigencomponent_pure_phase():
    data, layout, a_pad = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout, weights=[1.0, 0.0])  # u_1 x v_1 only
    for q in layout.reg_C:
        sim.apply_unitary(state, sim.hadamard(), [q])
    probs_before = np.abs(state.amplitudes) ** 2
    qpe.conditional_evolution(state, cfg, layout.reg_C, list(layout.reg_B)[:1], a_pad)
    assert np.abs(np.abs(state.amplitudes) ** 2 - probs_before).max() < 1e-12


def test_phase_estimate_reference_superposition():
    data, layout, a_pad = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout)
    qpe.phase_estimate(state, cfg, layout, a_pad)
    expected = np.zeros(1 << layout.n_qubits, dtype=complex)
    for k, (sig, label) in enumerate(zip((2.0, 1.0), (4, 1))):
        expected += sig / np.sqrt(5) * _embed(layout, label, spectral.to_state(data, np.eye(2)[k]))
    assert np.abs(state.amplitudes - expected).max() < 1e-9


def test_phase_estimate_single_eigenvector_deterministic_label():
    data, layout, a_pad = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout, weights=[1.0, 0.0])
    qpe.phase_estimate(state, cfg, layout, a_pad)
    mass = sim.register_mass(state, layout.reg_C)
    assert mass[4] == pytest.approx(1.0, abs=1e-12)


def test_phase_estimate_requires_cleared_c():
    data, layout, a_pad = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout)
    sim.apply_unitary(state, sim.pauli_x(), [list(layout.reg_C)[0]])
    with pytest.raises(ValidationError, match="not cleared"):
        qpe.phase_estimate(state, cfg, layout, a_pad)


def test_phase_estimate_then_inverse_is_identity():
    data, layout, a_pad = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    rng = np.random.default_rng(22)
    for trial in range(20):
        state = sim.new_state(layout)
        # random content on (a, L, B) with C cleared
        b_dim = 1 << len(layout.reg_B)
        vec = rng.normal(size=b_dim) + 1j * rng.normal(size=b_dim)
        vec /= np.linalg.norm(vec)
        sim.load_register(state, layout.reg_B, vec)
        sim.apply_unitary(state, sim.ry(float(rng.uniform(0, np.pi))), [layout.ancilla])
        for q in layout.reg_L:
            sim.apply_unitary(state, sim.ry(float(rng.uniform(0, np.pi))), [q])
        before = state.amplitudes.copy()
        qpe.phase_estimate(state, cfg, layout, a_pad)
        qpe.phase_estimate_inverse(state, cfg, layout, a_pad)
        assert np.abs(state.amplitudes - before).max() < 1e-10


def test_exact_encoding_mass_sits_on_labels():
    data, layout, a_pad = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout)
    qpe.phase_estimate(state, cfg, layout, a_pad)
    mass = sim.register_mass(state, layout.reg_C)
    assert mass[4] + mass[1] == pytest.approx(1.0, abs=1e-9)
    others = np.delete(mass, [1, 4])
    assert others.max() < 1e-18


def test_c_distribution_independent_of_v_factor():
    data, layout, a_pad = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    masses = []
    for seed in (7, 77):
        other = spectral.decompose(random_lowrank(2, 3, 2, seed=seed, sigma=(2.0, 1.0)))
        # same u/sigma structure, different right vectors
        hybrid = spectral.SpectralData(
            sigma=data.sigma, u=data.u, v=other.v, p=data.p, q=data.q
        )
        state = loaded_state(hybrid, layout)
        qpe.phase_estimate(state, cfg, layout, a_pad)
        masses.append(sim.register_mass(state, layout.reg_C))
    assert np.abs(masses[0] - masses[1]).max() < 1e-12
