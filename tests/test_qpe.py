import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qsvt import pipeline, qpe, rotation, sim, spectral
from qsvt.errors import NormalizationError, ValidationError
from qsvt.harness import example_matrix, random_lowrank

from gates import (bitwise_conditional_evolution, dense_phase_estimate, from_eigenpairs,
                   hadamard, label_table, pauli_x, ry, u_pairs, unitary)


def reference_setup(m_bits=1, t_bits=3):
    """The paper's spectrum with B its Schmidt index, one qubit, and A's
    eigenvalues there, as the run has them."""
    data = spectral.decompose(random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.0)))
    layout = sim.RegisterLayout(m_bits, t_bits, 1)
    return data, layout, spectral.gram(data)


def loaded_state(data, layout, weights=None):
    """B loaded as the run loads it: sum_k w_k |k> / |w|, w = sigma by default."""
    state = sim.new_state(layout)
    w = np.zeros(1 << layout.b_bits)
    w[: data.rank] = data.sigma if weights is None else weights
    sim.load_register(state, w / np.linalg.norm(w))
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


def test_choose_t0_scales_eigenvalues_near_zero():
    # an eigenvalue within ENCODING_TOL of 0 was taken for the integer 0 and
    # rejected as rounding to label 0, at every width
    for bits in (None, 1, 3, 6, 12):
        cfg = qpe.choose_t0([1e-9], bits)
        assert cfg.labels == ((1 << cfg.t_bits) - 1,)
    small, base = qpe.choose_t0([4e-10, 1e-10]), qpe.choose_t0([0.04, 0.01])
    assert (small.t_bits, small.labels, small.exact) == (base.t_bits, base.labels, base.exact)
    assert small.labels == (63, 16)


def test_labels_may_be_zero_or_shared():
    # qpe only encodes: an eigenvalue rounding to label 0, or two rounding
    # to one label, were rejected here, without the tau that decides
    # whether the run needs that label (the run's set-up checks it now)
    assert qpe.choose_t0([5.0, 5.05], 2).labels == (3, 3)
    assert qpe.choose_t0([4.0, 4.0], 3).labels == (4, 4)
    sigma = spectral.decompose(random_lowrank(8, 8, 3, 1)).sigma
    assert qpe.choose_t0(sigma**2, 8).labels == (255, 4, 0)
    assert qpe.PhaseEstimationConfig(3, 0.7, False, (0, 2, 2)).labels == (0, 2, 2)


@pytest.mark.parametrize("args, match", [
    ((3, math.inf, True, (4, 1)), "t0 must be finite and positive"),
    ((3, math.nan, True, (4, 1)), "t0 must be finite and positive"),
    ((3, "x", True, (4, 1)), "t0 must be finite and positive, a real number"),
    ((3, True, True, (4, 1)), "t0 must be finite and positive, a real number"),
    ((3, 0.7, False, (-1, 1)), r"labels must lie in 0\.\.7"),
    ((3, 0.7, False, (8,)), r"labels must lie in 0\.\.7"),
    ((3, 0.7, False, (1.5,)), r"labels must lie in 0\.\.7, an integer"),
    ((3, 0.7, False, (True,)), r"labels must lie in 0\.\.7, an integer"),
    ((3, 0.7, False, (4, 1.0)), r"labels must lie in 0\.\.7, an integer"),
])
def test_phase_estimation_config_checks_itself(args, match):
    with pytest.raises(ValidationError, match=match):
        qpe.PhaseEstimationConfig(*args)


def test_t0_whose_top_label_decodes_to_inf_is_rejected():
    # the oracle took the exact ratio of an infinite sigma^2: a bare OverflowError
    for args in ((1, 1e-308, True, (1,)), (3, 1e-308, False, ())):
        with pytest.raises(ValidationError, match="^t0 1e-308 too small: label [17] decodes to"):
            qpe.PhaseEstimationConfig(*args)
    cfg = qpe.PhaseEstimationConfig(1, 1e-300, True, (1,))
    assert rotation.build_sigma_tau_oracle(cfg, 2, 0.5).code_for(1) == 3


def test_t0_is_kept_as_a_python_float():
    # a float32 t0 was kept, and decoded in float32: np.float32(1.1219975)
    cfg = qpe.PhaseEstimationConfig(3, np.float32(0.7), False)
    assert type(cfg.t0) is float and cfg.t0 == np.float32(0.7)
    want = qpe.PhaseEstimationConfig(3, float(np.float32(0.7)), False)
    assert type(cfg.decode(1)) is float and cfg.decode(1) == want.decode(1)


def test_widths_are_integers_kept_as_python_ints():
    assert qpe.choose_t0([4.0, 1.0], np.int64(3)) == qpe.choose_t0([4.0, 1.0], 3)
    assert type(qpe.PhaseEstimationConfig(np.int64(3), 0.7, False).t_bits) is int
    for bad in (3.0, True, np.float64(3)):
        with pytest.raises(ValidationError, match="t_bits must lie in 1..26, an integer"):
            qpe.choose_t0([4.0, 1.0], bad)
        with pytest.raises(ValidationError, match="t_bits must lie in 1..26, an integer"):
            qpe.PhaseEstimationConfig(bad, 0.7, False)


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


@pytest.mark.parametrize("lam", [["a"], "4", [[4.0, 1.0]], []])
def test_choose_t0_rejects_eigenvalues_that_are_not_a_vector_of_numbers(lam):
    # a string reached NumPy's bare ValueError
    with pytest.raises(ValidationError, match="^eigenvalues must be a (non-empty )?vector"):
        qpe.choose_t0(lam)


def test_encoding_decode_roundtrip():
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    for lam, label in zip([4.0, 1.0], cfg.labels):
        assert cfg.decode(label) == pytest.approx(lam, abs=1e-9)


def test_choose_t0_labels_on_the_circuit_large_spectrum():
    cfg = qpe.choose_t0([3.1**2, 2.2**2, 1.3**2], 8)
    assert cfg.labels == (255, 128, 45)
    assert not cfg.exact


def test_qft_zero_state_uniform():
    # C of 3 qubits ahead of the ancilla and B, both at 0
    layout = sim.RegisterLayout(0, 3, 1)
    state = sim.new_state(layout)
    qpe.qft(state)
    by_c = state.amplitudes.reshape(8, 4)
    assert np.allclose(by_c[:, 0], np.full(8, 1 / np.sqrt(8)))
    assert not by_c[:, 1:].any()


def test_qft_basis_state_01():
    layout = sim.RegisterLayout(0, 2, 1)
    state = sim.QuantumState(layout, np.eye(16, dtype=complex)[1 << 2])  # C = 01
    qpe.qft(state)
    by_c = state.amplitudes.reshape(4, 4)
    assert np.allclose(by_c[:, 0], np.array([1, 1j, -1, -1j]) / 2, atol=1e-12)
    assert not by_c[:, 1:].any()


def test_iqft_inverts_qft_on_random_states():
    rng = np.random.default_rng(21)
    layout = sim.RegisterLayout(1, 3, 1)
    for _ in range(5):
        amp = rng.normal(size=64) + 1j * rng.normal(size=64)
        amp /= np.linalg.norm(amp)
        state = sim.QuantumState(layout, amp.copy())
        qpe.qft(state)
        qpe.iqft(state)
        assert np.abs(state.amplitudes - amp).max() < 1e-12


def test_a_cold_run_at_t_10_peaks_within_twice_its_state():
    # the DFT pair of a new width was built, checked and held: a cold run
    # at t 10 peaked at 49 MiB and held 32 MiB after it, for a state of
    # 0.25 MiB; the in-place FFT makes and holds nothing of that size
    def run(t_bits):
        return pipeline.run_pipeline(
            pipeline.PipelineConfig(a0=example_matrix(), tau=0.5, t_bits=t_bits, m_bits=2))

    run(3)  # NumPy's lazy imports, so the t 10 run traces the run alone
    n = 2 + 10 + 1 + 1  # L, C, the ancilla and B
    tracemalloc.start()
    try:
        run(10)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (16 << n)
    assert held < 1 << 16


def test_matrix_bytes_is_what_conditional_evolution_allocates():
    # E's table, the row being folded into it and herm_exp's temporary, its
    # angles: the stage's traced peak lies within a row below the count and
    # at most NumPy's 128 KiB iterator buffer, which a fold whose source
    # and destination share the table may use, and a few KiB above it
    for t_bits, b_bits in ((3, 14), (1, 15), (6, 10)):
        layout = sim.RegisterLayout(0, t_bits, b_bits)
        cfg = qpe.PhaseEstimationConfig(t_bits, 0.7, False)
        eigenvalues = np.random.default_rng(30).uniform(0.0, 5.0, size=1 << b_bits)
        state = sim.new_state(layout)
        qpe.conditional_evolution(state, cfg, eigenvalues)  # NumPy's lazy set-up
        tracemalloc.start()
        try:
            qpe.conditional_evolution(state, cfg, eigenvalues)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        need = qpe.matrix_bytes(t_bits, b_bits)
        assert need - (16 << b_bits) < peak <= need + (136 << 10), (t_bits, b_bits)
        assert held < 1 << 12


def test_conditional_evolution_tiny_t0_is_identity():
    data, layout, pairs = reference_setup()
    cfg = qpe.PhaseEstimationConfig(3, 1e-14, False)
    state = loaded_state(data, layout)
    for q in layout.reg_C:
        unitary(state, hadamard(), [q])
    before = state.amplitudes.copy()
    qpe.conditional_evolution(state, cfg, pairs)
    assert np.abs(state.amplitudes - before).max() < 1e-10


def test_conditional_evolution_phases_on_label_one():
    # C fixed at label 1: eigencomponent lam picks up exp(i lam t0)
    data, layout, pairs = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout)
    last_c = list(layout.reg_C)[-1]
    unitary(state, pauli_x(), [last_c])  # C = 001
    before = state.copy()
    qpe.conditional_evolution(state, cfg, pairs)
    for k, lam in enumerate((4.0, 1.0)):
        basis = np.eye(2)[k]  # |k> on the Schmidt index
        full_before = before.norm()  # keep norm sanity
        amp_before = np.vdot(
            _embed(layout, 1, basis), before.amplitudes
        )
        amp_after = np.vdot(_embed(layout, 1, basis), state.amplitudes)
        assert amp_after == pytest.approx(amp_before * np.exp(1j * lam * cfg.t0), abs=1e-12)
    assert full_before == pytest.approx(1.0)


def _embed(layout, c_label, b_vec):
    """Full-state vector with L=0, C=c_label, the ancilla at 0 and B=b_vec:
    the ancilla sits directly ahead of B, so B is one run."""
    n, b = layout.n_qubits, layout.b_bits
    full = np.zeros(1 << n, dtype=complex)
    base = c_label << (b + 1)
    full[base : base + (1 << b)] = b_vec
    return full


def test_conditional_evolution_eigencomponent_pure_phase():
    data, layout, pairs = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout, weights=[1.0, 0.0])  # u_1 x v_1 only
    for q in layout.reg_C:
        unitary(state, hadamard(), [q])
    probs_before = np.abs(state.amplitudes) ** 2
    qpe.conditional_evolution(state, cfg, pairs)
    assert np.abs(np.abs(state.amplitudes) ** 2 - probs_before).max() < 1e-12


def test_phase_estimate_reference_superposition():
    data, layout, pairs = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout)
    qpe.phase_estimate(state, cfg, pairs)
    expected = np.zeros(1 << layout.n_qubits, dtype=complex)
    for k, (sig, label) in enumerate(zip((2.0, 1.0), (4, 1))):
        expected += sig / np.sqrt(5) * _embed(layout, label, np.eye(2)[k])
    assert np.abs(state.amplitudes - expected).max() < 1e-9


def test_phase_estimate_single_eigenvector_deterministic_label():
    data, layout, pairs = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout, weights=[1.0, 0.0])
    qpe.phase_estimate(state, cfg, pairs)
    mass = sim.register_mass(state, layout.reg_C)
    assert mass[4] == pytest.approx(1.0, abs=1e-12)


def test_phase_estimate_requires_cleared_c():
    data, layout, pairs = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout)
    unitary(state, pauli_x(), [list(layout.reg_C)[0]])
    with pytest.raises(ValidationError, match="not cleared"):
        qpe.phase_estimate(state, cfg, pairs)


@pytest.mark.parametrize("cfg_bits, c_bits", [(3, 4), (4, 3)],
                         ids=["config narrower than C", "config wider than C"])
def test_phase_estimation_checks_its_config_against_c(cfg_bits, c_bits):
    # a 3-bit config for sigma^2 = (4, 1) run on a 4-bit C completed and
    # put its mass on labels 2 and 8: each stage rejects a C of another
    # width than the config's before any amplitude moves
    data, layout, pairs = reference_setup(t_bits=c_bits)
    cfg = qpe.choose_t0([4.0, 1.0], cfg_bits)
    state = loaded_state(data, layout)
    before = state.amplitudes.tobytes()
    for stage in (qpe.phase_estimate, qpe.phase_estimate_inverse):
        with pytest.raises(ValidationError,
                           match=f"^a {cfg_bits}-bit estimation on a {c_bits}-qubit C$"):
            stage(state, cfg, pairs)
        assert state.amplitudes.tobytes() == before, stage
    # at the config's width the labels are the encoding's
    _, layout, _ = reference_setup(t_bits=cfg_bits)
    state = loaded_state(data, layout)
    qpe.phase_estimate(state, cfg, pairs)
    mass = sim.register_mass(state, layout.reg_C)
    assert mass[list(cfg.labels)].sum() == pytest.approx(1.0, abs=1e-9)


def test_phase_estimate_checks_the_incoming_norm_from_its_c_read():
    # the load leaves the norm to the next stage's read, and so do phase
    # estimation and the cascade: each stage that reads the state checks
    # the norm of what it reads, on that read
    data, layout, pairs = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    stages = [
        lambda state: qpe.phase_estimate(state, cfg, pairs),
        lambda state: rotation.ry_cascade(state, 1.0),
        lambda state: rotation.uncompute_residual(state),
    ]
    for stage, drift in itertools.product(stages, (1.001, np.nan)):
        state = loaded_state(data, layout)
        state.amplitudes[:] *= drift
        with pytest.raises(NormalizationError, match="drifted"):
            stage(state)


def test_phase_estimate_then_inverse_is_identity():
    data, layout, pairs = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    rng = np.random.default_rng(22)
    for trial in range(20):
        state = sim.new_state(layout)
        # random content on (a, L, B) with C cleared
        b_dim = 1 << layout.b_bits
        vec = rng.normal(size=b_dim) + 1j * rng.normal(size=b_dim)
        vec /= np.linalg.norm(vec)
        sim.load_register(state, vec)
        unitary(state, ry(float(rng.uniform(0, np.pi))), [layout.ancilla])
        for q in range(layout.m_bits):
            unitary(state, ry(float(rng.uniform(0, np.pi))), [q])
        before = state.amplitudes.copy()
        qpe.phase_estimate(state, cfg, pairs)
        qpe.phase_estimate_inverse(state, cfg, pairs)
        assert np.abs(state.amplitudes - before).max() < 1e-10


def test_exact_encoding_mass_sits_on_labels():
    data, layout, pairs = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout)
    qpe.phase_estimate(state, cfg, pairs)
    mass = sim.register_mass(state, layout.reg_C)
    assert mass[4] + mass[1] == pytest.approx(1.0, abs=1e-9)
    others = np.delete(mass, [1, 4])
    assert others.max() < 1e-18


def test_c_distribution_independent_of_v_factor():
    # on the full data register B_u (x) B_v, loaded with the input and E a
    # dense gate on B_u, C's masses do not depend on the right vectors, and
    # they are those of the run's phase estimation on the Schmidt index
    data, layout, pairs = reference_setup()
    cfg = qpe.choose_t0([4.0, 1.0], 3)
    state = loaded_state(data, layout)
    qpe.phase_estimate(state, cfg, pairs)
    masses = [sim.register_mass(state, layout.reg_C)]
    full = sim.RegisterLayout(layout.m_bits, layout.t_bits, 3)  # B_u 1 qubit, B_v 2
    for seed in (7, 77):
        other = spectral.decompose(random_lowrank(2, 3, 2, seed=seed, sigma=(2.0, 1.0)))
        # same u/sigma structure, different right vectors
        hybrid = spectral.SpectralData(
            sigma=data.sigma, u=data.u, v=other.v, p=data.p, q=data.q
        )
        state = sim.new_state(full)
        sim.load_register(state, spectral.to_state(hybrid, hybrid.sigma))
        a = from_eigenpairs(u_pairs(hybrid))
        dense_phase_estimate(state, cfg, a, [full.ancilla + 1])  # B_u leads B
        masses.append(sim.register_mass(state, full.reg_C))
    assert np.abs(masses[1] - masses[2]).max() < 1e-12
    assert np.abs(masses[0] - masses[1]).max() < 1e-12


def test_conditional_evolution_matches_the_bitwise_controlled_gates():
    # one diagonal gate on all of C, a row of phases per C qubit, against
    # one dense gate per C qubit, A exponentiated by eigh, both directions,
    # on random states
    _, _, pairs = reference_setup()
    rng = np.random.default_rng(24)
    for a in (pairs, rng.normal(size=4) * 3.0):
        for t_bits in range(1, 7):
            layout = sim.RegisterLayout(1, t_bits, len(a).bit_length() - 1)
            cfg = qpe.PhaseEstimationConfig(t_bits, float(rng.uniform(0.1, 1.0)), False)
            for inverse in (False, True):
                state = _random_state(rng, layout, clear_c=False)
                reference = bitwise_conditional_evolution(state.copy(), cfg, a, inverse)
                qpe.conditional_evolution(state, cfg, a, inverse)
                assert np.abs(state.amplitudes - reference.amplitudes).max() < 1e-12


def test_conditional_evolution_is_one_gate_on_all_of_c(monkeypatch):
    # A diagonal on 3 qubits: E is one controlled gate per pass, by the
    # table of the 2^t label products, and it matches one dense controlled
    # power per C qubit
    rng = np.random.default_rng(25)
    a = rng.normal(size=8) * 3.0
    apply_controlled, calls = sim.apply_controlled, []

    def spy(state, table):
        calls.append(table.shape)
        return apply_controlled(state, table)

    for t_bits in (1, 3, 8):
        layout = sim.RegisterLayout(1, t_bits, 3)
        cfg = qpe.PhaseEstimationConfig(t_bits, float(rng.uniform(0.1, 1.0)), False)
        for inverse in (False, True):
            state = _random_state(rng, layout, clear_c=False)
            reference = bitwise_conditional_evolution(state.copy(), cfg, a, inverse)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(sim, "apply_controlled", spy)
                qpe.conditional_evolution(state, cfg, a, inverse)
            assert calls == [(1 << t_bits, 1, 8)]
            assert np.abs(state.amplitudes - reference.amplitudes).max() < 1e-12


def test_the_table_is_the_reference_fold_of_the_rows_bit_for_bit(monkeypatch):
    # the stage's doubling fold multiplies the rows in ascending bit order,
    # as the reference fold does one label at a time, so every entry has
    # the same bits; herm_exp runs once per C qubit
    rng = np.random.default_rng(26)
    apply_controlled, herm_exp, tables, exps = sim.apply_controlled, qpe.herm_exp, [], []

    def spy(state, table):
        tables.append(table.copy())
        return apply_controlled(state, table)

    for t_bits, b_bits, inverse in itertools.product((1, 2, 5), (1, 3), (False, True)):
        layout = sim.RegisterLayout(0, t_bits, b_bits)
        cfg = qpe.PhaseEstimationConfig(t_bits, float(rng.uniform(0.1, 1.0)), False)
        a = rng.uniform(0.0, 5.0, size=1 << b_bits)
        t0 = -cfg.t0 if inverse else cfg.t0
        rows = [spectral.herm_exp(a, (1 << w) * t0) for w in range(t_bits)]
        tables.clear()
        exps.clear()
        with monkeypatch.context() as patch:
            patch.setattr(sim, "apply_controlled", spy)
            patch.setattr(qpe, "herm_exp", lambda *args: exps.append(args) or herm_exp(*args))
            qpe.conditional_evolution(_random_state(rng, layout, False), cfg, a, inverse)
        assert len(exps) == t_bits
        assert tables[0].tobytes() == label_table(rows).tobytes()


STAGES = {
    "phase_estimate": qpe.phase_estimate,
    "phase_estimate_inverse": qpe.phase_estimate_inverse,
}
COUNT, ANGLE = ("^a 3-qubit C on 1 B qubits takes 2 eigenvalues, got ",
                r"^the largest angle, max\|eigenvalue\| 2\^2 t0, is ")
BAD_INPUTS = {  # eigenvalues, t0, the message
    "a NaN eigenvalue": ([4.0, np.nan], 0.7, ANGLE + "nan$"),
    "an infinite eigenvalue": ([np.inf, 1.0], 0.7, ANGLE + "inf$"),
    "a negative infinite eigenvalue": ([4.0, -np.inf], 0.7, ANGLE + "inf$"),
    "too few eigenvalues": ([4.0], 0.7, COUNT + "1$"),
    "too many eigenvalues": ([4.0, 1.0, 0.5], 0.7, COUNT + "3$"),
    "a largest angle that overflows": ([4.0, 1.0], 1e308, ANGLE + "inf$"),
}
STAGE_INPUTS = list(itertools.product(STAGES, BAD_INPUTS))


@pytest.mark.parametrize("stage, bad", STAGE_INPUTS, ids=[f"{s} / {b}" for s, b in STAGE_INPUTS])
def test_each_stage_checks_its_eigenvalues_before_any_amplitude_moves(stage, bad):
    # every phase of E is exp(i theta) of a finite real theta, so E checks
    # no phase, nor the eigenvalues it is handed: each direction takes 2^b
    # eigenvalues whose largest angle, max|lam| 2^(t-1) t0, is finite, NaN
    # failing, or raises with the state as it was, on a cleared C too,
    # where the Hadamard write comes first
    eigenvalues, t0, match = BAD_INPUTS[bad]
    data, layout, _ = reference_setup()
    cfg = qpe.PhaseEstimationConfig(3, t0, False)
    state = loaded_state(data, layout)
    before = state.amplitudes.tobytes()
    with pytest.raises(ValidationError, match=match):
        STAGES[stage](state, cfg, eigenvalues)
    assert state.amplitudes.tobytes() == before
    # at t0 1e307 the largest angle, 4 x 4 x 1e307, is finite, and E runs
    STAGES[stage](state, qpe.PhaseEstimationConfig(3, 1e307, False), [4.0, 1.0])


def hadamard_phase_estimate(state, cfg, a):
    """The paper's gate sequence: a Hadamard on each C qubit, E, QFT^-1."""
    for q in state.layout.reg_C:
        unitary(state, hadamard(), [q])
    qpe.conditional_evolution(state, cfg, a)
    qpe.iqft(state)
    return state


def hadamard_phase_estimate_inverse(state, cfg, a):
    """Adjoint of :func:`hadamard_phase_estimate`: QFT, E^-1, Hadamards."""
    qpe.qft(state)
    qpe.conditional_evolution(state, cfg, a, inverse=True)
    for q in state.layout.reg_C:
        unitary(state, hadamard(), [q])
    return state


def _by_c(amplitudes, layout):
    """View indexed (L, C, the ancilla and B); qubit 0 is the top bit."""
    return amplitudes.reshape(1 << layout.m_bits, 1 << layout.t_bits, -1)


def _random_state(rng, layout, clear_c):
    n = layout.n_qubits
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    if clear_c:
        _by_c(amp, layout)[:, 1:, :] = 0.0
    return sim.QuantumState(layout, amp / np.linalg.norm(amp))


def test_qft_phase_estimation_matches_the_hadamard_layer():
    rng = np.random.default_rng(23)
    pairs = rng.uniform(0.0, 5.0, size=8)  # A's eigenvalues on a 3-qubit B
    for t_bits in range(1, 6):
        layout = sim.RegisterLayout(2, t_bits, 3)
        cfg = qpe.PhaseEstimationConfig(t_bits, 0.7, False)
        for _ in range(3):
            state = _random_state(rng, layout, clear_c=True)
            reference = hadamard_phase_estimate(state.copy(), cfg, pairs)
            qpe.phase_estimate(state, cfg, pairs)
            assert np.abs(state.amplitudes - reference.amplitudes).max() < 1e-12
            # the adjoints agree on C = 0 for any input, cleared or not
            state = _random_state(rng, layout, clear_c=False)
            reference = hadamard_phase_estimate_inverse(state.copy(), cfg, pairs)
            qpe.phase_estimate_inverse(state, cfg, pairs)
            diff = _by_c(state.amplitudes - reference.amplitudes, layout)
            assert np.abs(diff[:, 0, :]).max() < 1e-12


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_forward_estimation_is_the_qft_circuit_bit_for_bit(real):
    # the Hadamard write puts C = 0's amplitudes times np.fft's ortho
    # factor on every label, the numbers the QFT makes of a cleared C, so
    # the estimation that follows matches QFT, E, QFT^-1 in every bit
    rng = np.random.default_rng(29)
    for m, t, b in itertools.product(range(5), range(1, 6), range(1, 6)):
        if m + t + 1 + b > 7:
            continue
        layout = sim.RegisterLayout(m, t, b)
        cfg = qpe.PhaseEstimationConfig(t, 0.7, False)
        eigenvalues = rng.uniform(0.0, 5.0, size=1 << b)
        n = layout.n_qubits
        amp = rng.normal(size=1 << n).astype(complex)
        if not real:
            amp += 1j * rng.normal(size=1 << n)
        _by_c(amp, layout)[:, 1:, :] = 0.0
        state = sim.QuantumState(layout, amp / np.linalg.norm(amp))
        reference = state.copy()
        qpe.qft(reference)
        qpe.conditional_evolution(reference, cfg, eigenvalues)
        qpe.iqft(reference)
        qpe.phase_estimate(state, cfg, eigenvalues)
        assert state.amplitudes.tobytes() == reference.amplitudes.tobytes(), (m, t, b)


def test_the_hadamard_write_makes_no_temporary_under_a_non_empty_l():
    # one copy from C = 0 into the rest of C across all L values goes
    # through a buffer the size of its destination, 7/8 of this state
    layout = sim.RegisterLayout(3, 3, 10)
    state = sim.new_state(layout)
    cfg = qpe.PhaseEstimationConfig(3, 0.7, False)
    eigenvalues = np.linspace(0.0, 5.0, 1 << 10)
    tracemalloc.start()
    try:
        qpe.phase_estimate(state, cfg, eigenvalues)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < state.amplitudes.nbytes / 4


def test_phase_estimate_leaves_a_c_that_is_not_cleared_as_it_is():
    # the C read is the Hadamard write's precondition: it runs first, and
    # a C with mass off label 0 is refused before any amplitude is written
    rng = np.random.default_rng(30)
    layout = sim.RegisterLayout(1, 3, 2)
    cfg = qpe.PhaseEstimationConfig(3, 0.7, False)
    state = _random_state(rng, layout, clear_c=False)
    before = state.amplitudes.tobytes()
    with pytest.raises(ValidationError, match="^register C not cleared$"):
        qpe.phase_estimate(state, cfg, rng.uniform(0.0, 5.0, size=4))
    assert state.amplitudes.tobytes() == before


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
