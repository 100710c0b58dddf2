import itertools
import math

import numpy as np
import pytest

from qsvt import pipeline, qpe, rotation, sim, spectral
from qsvt.errors import NormalizationError, ValidationError
from qsvt.harness import example_matrix, random_lowrank

from gates import bitwise_conditional_evolution, hadamard, pauli_x


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


@pytest.mark.parametrize("args, match", [
    ((3, math.inf, True, (4, 1)), "t0 must be finite and positive"),
    ((3, math.nan, True, (4, 1)), "t0 must be finite and positive"),
    ((3, 0.7, False, (0, 1)), r"labels must lie in 1\.\.7"),
    ((3, 0.7, False, (8,)), r"labels must lie in 1\.\.7"),
    ((3, 0.7, False, (2, 2)), "collision"),
])
def test_phase_estimation_config_checks_itself(args, match):
    with pytest.raises(ValidationError, match=match):
        qpe.PhaseEstimationConfig(*args)


def test_choose_t0_equal_eigenvalues_collide():
    with pytest.raises(ValidationError, match="collision"):
        qpe.choose_t0([4.0, 4.0], 3)


@pytest.mark.parametrize("t_bits", range(1, 6))
def test_choose_t0_integer_eigenvalues_are_their_own_labels(t_bits):
    top = (1 << t_bits) - 1
    spectra = [(a,) for a in range(1, top + 1)]
    spectra += itertools.permutations(range(1, top + 1), 2)
    for lam in spectra:
        cfg = qpe.choose_t0([float(x) for x in lam], t_bits)
        assert cfg.t0 == 2 * np.pi / (1 << t_bits)
        assert cfg.labels == lam
        assert cfg.exact


@pytest.mark.parametrize("t_bits", [3, None])
@pytest.mark.parametrize("lam", [[math.nan, 1.0], [math.inf, 1.0], [4.0, math.nan], [4.0, -math.inf]])
def test_choose_t0_rejects_non_finite_eigenvalues(lam, t_bits):
    # never a ValueError or OverflowError from rounding NaN or inf
    with pytest.raises(ValidationError, match="^eigenvalues must be finite and positive"):
        qpe.choose_t0(lam, t_bits)


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


def test_dft_pair_is_checked_once_per_width(monkeypatch):
    checked = []
    check = sim._check_unitary
    monkeypatch.setattr(sim, "_check_unitary", lambda m, *a: checked.append(m.shape) or check(m, *a))
    monkeypatch.setattr(sim, "_CONSTANTS", {})
    state = sim.QuantumState(3, np.eye(8, dtype=complex)[5])
    for _ in range(2):
        qpe.iqft(qpe.qft(state, [0, 1, 2]), [0, 1, 2])
    assert checked == [(1, 8, 8)] * 2  # the DFT and its inverse, once each
    assert np.abs(state.amplitudes - np.eye(8)[5]).max() < 1e-12
    idft = qpe._idft_matrix(3)
    assert qpe._idft_matrix(3) is idft and not idft.flags.writeable
    assert np.array_equal(idft, qpe._dft_matrix(3).conj().T)
    # a writable matrix, such as a user gate, is checked on every call
    for _ in range(2):
        sim.apply_unitary(state, hadamard(), [0])
    assert checked == [(1, 8, 8)] * 2 + [(1, 2, 2)] * 2
    # a new read-only array of the same shape is checked, not taken for the DFT
    bad = qpe._dft_matrix(3).copy()
    bad[0, 0] = 2.0
    bad.flags.writeable = False
    with pytest.raises(ValidationError, match="unitary"):
        sim.apply_unitary(state, bad, [0, 1, 2])
    assert checked == [(1, 8, 8)] * 2 + [(1, 2, 2)] * 2 + [(1, 8, 8)]


def test_conditional_evolution_tiny_t0_is_identity():
    data, layout, a_pad = reference_setup()
    cfg = qpe.PhaseEstimationConfig(3, 1e-14, False)
    state = loaded_state(data, layout)
    for q in layout.reg_C:
        sim.apply_unitary(state, hadamard(), [q])
    before = state.amplitudes.copy()
    qpe.conditional_evolution(state, cfg, layout.reg_C, list(layout.reg_B)[:1], a_pad)
    assert np.abs(state.amplitudes - before).max() < 1e-10


def test_conditional_evolution_phases_on_label_one():
    # C fixed at label 1: eigencomponent lam picks up exp(i lam t0)
    data, layout, a_pad = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout)
    last_c = list(layout.reg_C)[-1]
    sim.apply_unitary(state, pauli_x(), [last_c])  # C = 001
    before = state.copy()
    qpe.conditional_evolution(state, cfg, layout.reg_C, list(layout.reg_B)[:1], a_pad)
    for k, lam in enumerate((4.0, 1.0)):
        basis = spectral.to_state(data, np.eye(2)[k])
        full_before = before.norm()  # keep norm sanity
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
        sim.apply_unitary(state, hadamard(), [q])
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
    sim.apply_unitary(state, pauli_x(), [list(layout.reg_C)[0]])
    with pytest.raises(ValidationError, match="not cleared"):
        qpe.phase_estimate(state, cfg, layout, a_pad)


def test_phase_estimate_checks_the_incoming_norm_from_its_c_read():
    # the load leaves the norm to the next stage boundary's read
    data, layout, a_pad = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    for drift in (1.001, np.nan):
        state = loaded_state(data, layout)
        state.amplitudes *= drift
        with pytest.raises(NormalizationError, match="drifted"):
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


def test_conditional_evolution_matches_the_bitwise_controlled_gates():
    # one uniformly controlled gate on C against one controlled power per
    # C qubit, both directions, on random states
    _, _, a_pad = reference_setup()
    rng = np.random.default_rng(24)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for a in (a_pad, z + z.conj().T):
        for t_bits in range(1, 7):
            layout = sim.RegisterLayout.standard(1, t_bits, 3)
            cfg = qpe.PhaseEstimationConfig(t_bits, float(rng.uniform(0.1, 1.0)), False)
            reg_b = qpe._u_factor_qubits(layout, a)
            for inverse in (False, True):
                state = _random_state(rng, layout, clear_c=False)
                reference = bitwise_conditional_evolution(
                    state.copy(), cfg, layout.reg_C, reg_b, a, inverse
                )
                qpe.conditional_evolution(state, cfg, layout.reg_C, reg_b, a, inverse)
                assert np.abs(state.amplitudes - reference.amplitudes).max() < 1e-12


def test_conditional_evolution_cuts_c_into_runs_on_a_tall_input(monkeypatch):
    # an 8x8 u-factor beside one L qubit: the stack of all of C would
    # outgrow the state, so C is cut into runs (least significant first)
    # whose stacks stay within an eighth of the state, and the runs still
    # match one controlled power per C qubit
    rng = np.random.default_rng(25)
    z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    a = z + z.conj().T
    apply_controlled, calls = sim.apply_controlled, []

    def spy(state, matrices, control, targets, **kwargs):
        calls.append(len(control))
        assert np.asarray(matrices).size * 8 <= state.amplitudes.size or len(control) == 1
        return apply_controlled(state, matrices, control, targets, **kwargs)

    runs = {3: [1, 1, 1], 5: [1] * 5, 6: [2, 2, 2], 7: [3, 3, 1], 8: [4, 4]}
    for t_bits, widths in runs.items():
        layout = sim.RegisterLayout.standard(1, t_bits, 3)
        cfg = qpe.PhaseEstimationConfig(t_bits, float(rng.uniform(0.1, 1.0)), False)
        for inverse in (False, True):
            state = _random_state(rng, layout, clear_c=False)
            reference = bitwise_conditional_evolution(
                state.copy(), cfg, layout.reg_C, layout.reg_B, a, inverse
            )
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(sim, "apply_controlled", spy)
                qpe.conditional_evolution(state, cfg, layout.reg_C, layout.reg_B, a, inverse)
            assert calls == widths
            assert np.abs(state.amplitudes - reference.amplitudes).max() < 1e-12
        # a u-factor register that does not fit A is rejected by the gate
        before = state.amplitudes.copy()
        with pytest.raises(ValidationError, match="does not match"):
            qpe.conditional_evolution(state, cfg, layout.reg_C, layout.reg_B[:2], a)
        # the exponentials are checked, as the stack of their products is not
        with monkeypatch.context() as patch:
            patch.setattr(qpe, "herm_exp", lambda a, t: 1.5 * np.eye(len(a)))
            with pytest.raises(ValidationError, match="unitary"):
                qpe.conditional_evolution(state, cfg, layout.reg_C, layout.reg_B, a)
        assert np.array_equal(state.amplitudes, before)


def hadamard_phase_estimate(state, cfg, layout, a):
    """The paper's gate sequence: a Hadamard on each C qubit, E, QFT^-1."""
    for q in layout.reg_C:
        sim.apply_unitary(state, hadamard(), [q])
    qpe.conditional_evolution(state, cfg, layout.reg_C, qpe._u_factor_qubits(layout, a), a)
    qpe.iqft(state, layout.reg_C)
    return state


def hadamard_phase_estimate_inverse(state, cfg, layout, a):
    """Adjoint of :func:`hadamard_phase_estimate`: QFT, E^-1, Hadamards."""
    qpe.qft(state, layout.reg_C)
    qpe.conditional_evolution(
        state, cfg, layout.reg_C, qpe._u_factor_qubits(layout, a), a, inverse=True
    )
    for q in layout.reg_C:
        sim.apply_unitary(state, hadamard(), [q])
    return state


def _by_c(amplitudes, layout):
    """View indexed (ancilla and L, C, B); qubit 0 is the top bit."""
    return amplitudes.reshape(1 << (1 + len(layout.reg_L)), 1 << len(layout.reg_C), -1)


def _random_state(rng, layout, clear_c):
    n = layout.n_qubits
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    if clear_c:
        _by_c(amp, layout)[:, 1:, :] = 0.0
    return sim.QuantumState(n, amp / np.linalg.norm(amp))


def test_qft_phase_estimation_matches_the_hadamard_layer():
    _, _, a_pad = reference_setup()
    rng = np.random.default_rng(23)
    for t_bits in range(1, 6):
        layout = sim.RegisterLayout.standard(2, t_bits, 3)
        cfg = qpe.PhaseEstimationConfig(t_bits, 0.7, False)
        for _ in range(3):
            state = _random_state(rng, layout, clear_c=True)
            reference = hadamard_phase_estimate(state.copy(), cfg, layout, a_pad)
            qpe.phase_estimate(state, cfg, layout, a_pad)
            assert np.abs(state.amplitudes - reference.amplitudes).max() < 1e-12
            # the adjoints agree on C = 0 for any input, cleared or not
            state = _random_state(rng, layout, clear_c=False)
            reference = hadamard_phase_estimate_inverse(state.copy(), cfg, layout, a_pad)
            qpe.phase_estimate_inverse(state, cfg, layout, a_pad)
            diff = _by_c(state.amplitudes - reference.amplitudes, layout)
            assert np.abs(diff[:, 0, :]).max() < 1e-12


@pytest.mark.parametrize(
    "cfg",
    [
        dict(a0=example_matrix(), tau=0.5, t_bits=3, m_bits=2),
        dict(a0=random_lowrank(3, 4, 2, seed=5, sigma=(3.1, 2.2)), tau=0.93, t_bits=5, m_bits=4),
    ],
    ids=["paper", "inexact"],
)
def test_run_matches_the_hadamard_layer_circuit(monkeypatch, cfg):
    run = pipeline.run_pipeline(pipeline.PipelineConfig(**cfg))
    monkeypatch.setattr(qpe, "phase_estimate", hadamard_phase_estimate)
    monkeypatch.setattr(rotation, "phase_estimate_inverse", hadamard_phase_estimate_inverse)
    reference = pipeline.run_pipeline(pipeline.PipelineConfig(**cfg))
    assert run.exact == reference.exact == (cfg["tau"] == 0.5)
    if not run.exact:
        assert run.residual_mass > 1e-2
    for name in ("p_sim", "f_sim", "residual_mass", "triple_amplitudes", "b_state"):
        assert np.abs(getattr(run, name) - getattr(reference, name)).max() < 1e-12, name
