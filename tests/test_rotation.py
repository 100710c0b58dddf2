import dataclasses
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qsvt import qpe, rotation, sim, spectral
from qsvt.errors import ConvergenceError, UncomputeResidualError, ValidationError
from qsvt.harness import random_lowrank

from gates import bitwise_ry_cascade, controlled_on_one, pauli_x


def step(raw, m, tau, sigma_sq):
    """The next m-bit code after ``raw`` under the cubic update."""
    return rotation._step(raw, 1 << m, *rotation._cubic(tau, sigma_sq, m))[1]


def test_newton_step_fixed_point_identity():
    # y* = 1 - tau/sigma exactly representable maps to itself
    for m in (3, 8):
        raw = 3 << (m - 2)  # 0.75
        assert step(raw, m, 0.5, 4.0) == raw
    assert step(8, 4, 0.5, 1.0) == 8  # 0.5


def cubic_map(y: Fraction, tau: Fraction, sigma_sq: Fraction) -> Fraction:
    """Reference update in exact rationals: -(s^2/(2 t^2))(y-1)^3 + (3/2)y - 1/2."""
    return (
        -(sigma_sq / (2 * tau * tau)) * (y - 1) ** 3
        + Fraction(3, 2) * y
        - Fraction(1, 2)
    )


def truncate_reference(value: Fraction, m_bits: int) -> int:
    scale = 1 << m_bits
    return min(max(math.floor(value * scale), 0), scale - 1)


def start_reference(m, tau_f, sig_f, guard):
    """The Newton start by linear scan in Fractions: the first code at or
    above 1/2 whose update is within the guard, else 2**m (none)."""
    top = 1 << m
    for raw in range(top // 2, top):
        if abs(cubic_map(Fraction(raw, top), tau_f, sig_f)) <= guard:
            return raw
    return top


def newton_iterate_reference(m, tau, sigma_sq, raw, exits):
    """The Newton iteration from code ``raw`` in Fraction arithmetic:
    (raw, iterations, converged).  Counts in ``exits`` how it ended and
    how often a step was clamped."""
    if math.sqrt(sigma_sq) <= tau:
        exits["thresholded"] += 1
        return 0, 0, True
    tau_f, sig_f = Fraction(tau), Fraction(sigma_sq)
    guard = Fraction(rotation.DIVERGENCE_GUARD)
    prev = None
    for i in range(1, rotation.MAX_ITERATIONS + 1):
        value = cubic_map(Fraction(raw, 1 << m), tau_f, sig_f)
        if abs(value) > guard:
            exits["guard"] += 1
            return raw, i, False
        new = truncate_reference(value, m)
        if new != math.floor(value * (1 << m)):
            exits["clamp"] += 1
        if new == raw:
            exits["fixed"] += 1
            return new, i, True
        if new == prev and abs(new - raw) == 1:
            exits["pair"] += 1
            return min(new, raw), i, True
        prev, raw = raw, new
    exits["max_iterations"] += 1
    return raw, rotation.MAX_ITERATIONS, False


def test_newton_step_overshoot_clamps_to_top_code():
    # cubic value from y=1/2 at sigma=2, tau=1/2 is
    # -(4/0.5)(-0.125) + 0.75 - 0.5 = 1.25, clamped to 1 - 2^-m
    assert step(128, 8, 0.5, 4.0) == 255
    value = cubic_map(Fraction(128, 256), Fraction(0.5), Fraction(4.0))
    assert value == Fraction(5, 4)


def check_oracle_against_reference(enc, m, tau, exits):
    """build_sigma_tau_oracle on ``enc`` gives every label the code and
    iteration count of the Fraction reference run from sigma_1's start,
    or fails naming exactly the labels that fail there."""
    top = 1 << m
    guard = Fraction(rotation.DIVERGENCE_GUARD)
    start = start_reference(m, Fraction(tau), Fraction(enc.decode(max(enc.labels))), guard)
    expected = {
        c: newton_iterate_reference(m, tau, enc.decode(c), min(start, top - 1), exits)
        for c in enc.labels
    }
    failed = {c: it for c, (_, it, ok) in expected.items() if not ok}
    if start < top and not failed:
        oracle = rotation.build_sigma_tau_oracle(enc, m, tau)
        assert oracle.y_codes == {c: raw for c, (raw, _, _) in expected.items()}
        assert oracle.iterations == {c: it for c, (_, it, _) in expected.items()}
        return
    with pytest.raises(ConvergenceError) as err:
        rotation.build_sigma_tau_oracle(enc, m, tau)
    message = str(err.value)
    for c in enc.labels:
        found = re.search(rf"label {c} \([^)]*\): no convergence in (\d+) iterations", message)
        assert (found and int(found[1])) == failed.get(c), message
    assert ("Newton start reaches" in message) == (start == top)


def test_integer_newton_matches_fraction_reference(monkeypatch):
    # the oracle's Newton path on one- and two-label encodings
    exits = Counter()
    configs = (
        {},
        {"DIVERGENCE_GUARD": 1.6},
        {"MAX_ITERATIONS": 3},
    )
    ratios = [*np.linspace(0.2, 4.6, 23), 5.0, 8.0, 9.5, 30.0]
    for m in range(1, 11):
        for extra in configs:
            with monkeypatch.context() as patch:
                for name, value in extra.items():
                    patch.setattr(rotation, name, value)
                for tau in (0.1, 0.37, 0.93, 1.7):
                    for ratio in ratios:
                        sigma_sq = float((ratio * tau) ** 2)
                        for lam in ([sigma_sq], [sigma_sq, 0.3 * sigma_sq]):
                            check_oracle_against_reference(qpe.choose_t0(lam, 8), m, tau, exits)
        for tau in (0.37, 1.7):
            for ratio in (0.6, 1.3, 2.9, 4.4):
                sigma_sq = float((ratio * tau) ** 2)
                for raw in range(1 << m):
                    expected = cubic_map(Fraction(raw, 1 << m), Fraction(tau), Fraction(sigma_sq))
                    assert step(raw, m, tau, sigma_sq) == truncate_reference(expected, m)
    for kind in ("thresholded", "guard", "clamp", "fixed", "pair", "max_iterations"):
        assert exits[kind] > 0, kind


def test_newton_step_threshold_boundary_fixed_point_zero():
    assert step(0, 6, 0.8, 0.64) == 0


def test_newton_iterate_reference_values():
    raw, _, converged = rotation._iterate(3, 0.5, 4.0, 4)
    assert converged and raw == 6  # 2^3 (1 - tau/sigma_1)
    raw, _, converged = rotation._iterate(3, 0.5, 1.0, 4)
    assert converged and raw == 4  # 2^3 (1 - tau/sigma_2)


def test_newton_iterate_thresholded_branch():
    assert rotation._iterate(3, 0.5, 0.16, 4) == (0, 0, True)  # sigma = 0.4 <= tau


def test_newton_start_is_one_half_up_to_ratio_four():
    # every run that converged from the former fixed start of 1/2 keeps it
    for m in range(1, 13):
        for tau in (0.375, 0.5, 1.75):  # dyadic: ratio 4 is exactly 4
            for ratio in np.linspace(0.05, 4.0, 80):
                assert rotation._start(m, tau, float((ratio * tau) ** 2)) == 1 << (m - 1)
        if m > 1:  # above 4 the first update from 1/2 leaves the guard
            assert rotation._start(m, 0.5, 2.1**2) > 1 << (m - 1)


def test_newton_start_reach_is_the_top_code():
    for m in range(1, 13):
        top = 1 << m
        reach = math.sqrt((0.5 + 3 / top) * top**3)
        assert rotation._start(m, 1.0, (reach * (1 - 1e-9)) ** 2) == top - 1
        assert rotation._start(m, 1.0, (reach * (1 + 1e-9)) ** 2) == top  # none


def test_newton_iterate_converges_above_ratio_four():
    m, tau = 8, 0.5
    for ratio in (4.2, 5.0, 8.0, 100.0):
        enc = qpe.choose_t0([(ratio * tau) ** 2])
        (label,) = enc.labels
        code = rotation.build_sigma_tau_oracle(enc, m, tau).code_for(label)
        assert abs(code - round((1 << m) * (1 - 1 / ratio))) <= 1, ratio
    # exactly ratio 4 (dyadic) proceeds through the clamp and converges
    assert rotation.build_sigma_tau_oracle(qpe.choose_t0([4.0]), m, tau).y_codes == {4: 192}
    # one bit holds no start above 1/2, so m = 1 still stops at 4
    enc = qpe.choose_t0([(4.2 * tau) ** 2])
    with pytest.raises(ConvergenceError, match=r"no convergence in 1 iterations"):
        rotation.build_sigma_tau_oracle(enc, 1, tau)


def test_newton_quadratic_contraction_in_basin():
    for m in (8, 16):
        for ratio in (1.05, 1.3, 1.8, 2.3, 2.8, 3.3):
            for tau in (0.4, 0.9, 1.7):
                sigma = ratio * tau
                y_star = 1.0 - tau / sigma
                contraction = 3.0 * sigma / (2.0 * tau)
                raw = 1 << (m - 1)
                err = abs(raw / (1 << m) - y_star)
                for _ in range(60):
                    if err <= 2.0 ** (1 - m):
                        break
                    raw = step(raw, m, tau, sigma**2)
                    new_err = abs(raw / (1 << m) - y_star)
                    assert new_err <= 2.0 * contraction * err**2 + 2.0**-m + 1e-15
                    err = new_err
                assert err <= 2.0 ** (1 - m)


def test_newton_matches_brute_force_within_one_ulp():
    m = 8
    sigmas = np.linspace(0.55, 8.0, 40)
    ratios = np.linspace(0.85, 3.95, 25)
    checked = 0
    for sigma in sigmas:
        for ratio in ratios:
            tau, sigma_sq = float(sigma / ratio), float(sigma) ** 2
            raw, _, converged = rotation._iterate(
                m, tau, sigma_sq, rotation._start(m, tau, sigma_sq)
            )
            assert converged, (sigma, tau)
            brute = round((1 << m) * max(1.0 - tau / sigma, 0.0))
            brute = min(brute, (1 << m) - 1)
            assert abs(raw - brute) <= 1, (sigma, tau)
            checked += 1
    assert checked == 1000


def reference_encoding(t_bits=3):
    return qpe.choose_t0([4.0, 1.0], t_bits)


def test_oracle_reference_codes():
    enc = reference_encoding()
    oracle = rotation.build_sigma_tau_oracle(enc, 3, 0.5)
    assert oracle.code_for(4) == 6  # |110> in register L
    assert oracle.code_for(1) == 4  # |100>


def test_oracle_writes_codes_into_register_l():
    enc = reference_encoding()
    oracle = rotation.build_sigma_tau_oracle(enc, 3, 0.5)
    layout = sim.RegisterLayout.standard(3, 3, 1)
    state = sim.new_state(layout)
    # occupy C = 100 (label 4) with B = |0>
    sim.apply_unitary(state, pauli_x(), [list(layout.reg_C)[0]])
    oracle.apply(state, layout)
    mass_l = sim.register_mass(state, layout.reg_L)
    assert mass_l[6] == pytest.approx(1.0)
    mass_c = sim.register_mass(state, layout.reg_C)
    assert mass_c[4] == pytest.approx(1.0)  # C untouched


def test_oracle_thresholded_label_leaves_l_zero():
    enc = qpe.choose_t0([4.0, 1.0], 3)
    oracle = rotation.build_sigma_tau_oracle(enc, 3, 1.5)
    assert oracle.code_for(1) == 0  # sigma = 1 <= tau = 1.5
    assert oracle.code_for(4) == 2  # 2^3 (1 - 1.5/2) = 2


def test_oracle_self_inverse():
    enc = reference_encoding()
    oracle = rotation.build_sigma_tau_oracle(enc, 3, 0.5)
    layout = sim.RegisterLayout.standard(3, 3, 1)
    rng = np.random.default_rng(31)
    amp = rng.normal(size=1 << layout.n_qubits) + 1j * rng.normal(size=1 << layout.n_qubits)
    amp /= np.linalg.norm(amp)
    state = sim.QuantumState(layout.n_qubits, amp.copy())
    oracle.apply(state, layout)
    oracle.apply(state, layout)
    assert np.abs(state.amplitudes - amp).max() < 1e-12


def permutation_reference(state, layout, oracle):
    """Reference oracle: the full (L, C) label permutation
    l, c -> l XOR y(c), c, scattered through state-sized index arrays."""
    t, m, n = oracle.t_bits, oracle.m_bits, state.n_qubits
    y = np.zeros(1 << t, dtype=np.int64)
    for c, code in oracle.y_codes.items():
        y[c] = code
    labels = np.arange(1 << (m + t), dtype=np.int64)
    c_part = labels & ((1 << t) - 1)
    perm = (((labels >> t) ^ y[c_part]) << t) | c_part
    qubits = [*layout.reg_L, *layout.reg_C]
    w = len(qubits)
    idx = np.arange(1 << n, dtype=np.int64)
    label = np.zeros_like(idx)
    for i, q in enumerate(qubits):
        label |= ((idx >> (n - 1 - q)) & 1) << (w - 1 - i)
    new_label = perm[label]
    out = idx
    for i, q in enumerate(qubits):
        pos = n - 1 - q
        out = (out & ~(1 << pos)) | (((new_label >> (w - 1 - i)) & 1) << pos)
    new_amp = np.empty_like(state.amplitudes)
    new_amp[out] = state.amplitudes
    return new_amp


def test_oracle_matches_permutation_reference_bit_for_bit():
    rng = np.random.default_rng(32)
    enc = reference_encoding()
    built = rotation.build_sigma_tau_oracle(enc, 3, 0.5)
    drawn = rotation.SigmaTauOracle(3, 4, {c: int(rng.integers(8)) for c in (0, 3, 9, 15)}, {})
    for oracle, layout in ((built, sim.RegisterLayout.standard(3, 3, 2)),
                           (drawn, sim.RegisterLayout.standard(3, 4, 2)),
                           (drawn, sim.RegisterLayout(8, range(0, 3), range(3, 7), range(7, 8)))):
        for _ in range(3):
            size = 1 << layout.n_qubits
            amp = rng.normal(size=size) + 1j * rng.normal(size=size)
            state = sim.QuantumState(layout.n_qubits, amp / np.linalg.norm(amp))
            expected = permutation_reference(state, layout, oracle)
            oracle.apply(state, layout)
            assert np.array_equal(state.amplitudes, expected)


def test_oracle_codes_on_the_circuit_large_spectrum():
    lam = [3.1**2, 2.2**2, 1.3**2]
    enc = qpe.choose_t0(lam, 8)
    oracle = rotation.build_sigma_tau_oracle(enc, 8, 0.93)
    assert oracle.y_codes == {255: 179, 128: 147, 45: 73}
    assert oracle.iterations == {255: 8, 128: 3, 45: 4}


def test_oracle_build_aborts_on_nonconvergent_label(monkeypatch):
    enc = qpe.choose_t0([25.0, 1.0], 5)  # sigma/tau = 10 and 2 at tau = 0.5
    # two bits reach sigma/tau = 8.94; the message names that reach and the width
    reach = r"; no m_bits=2 Newton start reaches sigma/tau above 8\.94: raise --m-bits"
    with pytest.raises(ConvergenceError, match=r"^label 25 .*" + reach):
        rotation.build_sigma_tau_oracle(enc, 2, 0.5)
    oracle = rotation.build_sigma_tau_oracle(enc, 8, 0.5)
    assert oracle.y_codes == {25: 230, 1: 128}  # round(2^8 (1 - tau/sigma))
    # a label the shared start cannot bring in within the cap aborts the build
    enc = qpe.choose_t0([4.0, 1.0], 3)
    monkeypatch.setattr(rotation, "MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match=r"^label 4 .*: no convergence in 1 iterations$"):
        rotation.build_sigma_tau_oracle(enc, 3, 0.5)


def test_oracle_build_checks_width_and_tau():
    enc = reference_encoding()
    for m in (0, -1, 27):
        with pytest.raises(ValidationError, match="m_bits must lie in"):
            rotation.build_sigma_tau_oracle(enc, m, 0.5)
    for tau in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="tau must be positive"):
            rotation.build_sigma_tau_oracle(enc, 3, tau)


def test_ry_cascade_zero_register_keeps_ancilla_zero():
    layout = sim.RegisterLayout.standard(3, 1, 1)
    state = sim.new_state(layout)
    rotation.ry_cascade(state, layout, rotation.RotationConfig(2.0944))
    assert sim.register_mass(state, [layout.ancilla])[1] == 0.0


def _state_with_l_code(layout, raw):
    state = sim.new_state(layout)
    for i, q in enumerate(layout.reg_L):
        if (raw >> (len(layout.reg_L) - 1 - i)) & 1:
            sim.apply_unitary(state, pauli_x(), [q])
    return state


def test_ry_cascade_reference_amplitudes():
    alpha = 2.0944
    layout = sim.RegisterLayout.standard(2, 1, 1)
    state = _state_with_l_code(layout, 3)  # theta = 0.75
    rotation.ry_cascade(state, layout, rotation.RotationConfig(alpha))
    anc = sim.register_mass(state, [layout.ancilla])
    assert np.sqrt(anc[1]) == pytest.approx(np.sin(0.75 * alpha), abs=1e-12)

    state = _state_with_l_code(layout, 2)  # theta = 0.5
    rotation.ry_cascade(state, layout, rotation.RotationConfig(alpha))
    anc = sim.register_mass(state, [layout.ancilla])
    assert np.sqrt(anc[1]) == pytest.approx(0.8660, abs=1e-4)


def test_ry_cascade_requires_cleared_ancilla():
    layout = sim.RegisterLayout.standard(2, 1, 1)
    state = sim.new_state(layout)
    sim.apply_unitary(state, pauli_x(), [layout.ancilla])
    with pytest.raises(ValidationError, match="ancilla"):
        rotation.ry_cascade(state, layout, rotation.RotationConfig(1.0))


def test_ry_cascade_is_exact_beyond_single_lobe():
    # the single-lobe rule is a set-up check of the run, not of the cascade
    layout = sim.RegisterLayout.standard(2, 1, 1)
    state = _state_with_l_code(layout, 3)  # theta = 0.75, theta * alpha > pi
    rotation.ry_cascade(state, layout, rotation.RotationConfig(4.4))
    amp = state.amplitudes.reshape(2, 4, -1)[1, 3, 0]  # ancilla 1, L = 11, C = B = 0
    assert amp == pytest.approx(np.sin(0.75 * 4.4), abs=1e-12)


def test_rotation_config_requires_finite_positive_alpha():
    for alpha, match in ((0.0, "positive"), (-1.0, "positive"), (np.nan, "finite"),
                         (np.inf, "finite"), (-np.inf, "finite")):
        with pytest.raises(ValidationError, match=match):
            rotation.RotationConfig(alpha)
    cfg = rotation.RotationConfig(4.4)
    cfg.check_single_lobe(2, 2)  # 0.5 * 4.4 <= pi
    with pytest.raises(ValidationError, match="single-lobed"):
        cfg.check_single_lobe(3, 2)  # 0.75 * 4.4 > pi


def _controlled_ry_product(alpha, d):
    """Full (1+d)-qubit matrix of the cascade's gate sequence, built
    column by column through the simulator."""
    n = 1 + d
    dim = 1 << n
    op = np.eye(dim, dtype=complex)
    for j in range(1, d + 1):
        gate = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            st = sim.QuantumState(n, np.eye(dim, dtype=complex)[col])
            sim.apply_controlled(st, controlled_on_one(sim.ry(2.0 ** (1 - j) * alpha)), [j], [0])
            gate[:, col] = st.amplitudes
        op = gate @ op
    return op


def test_cascade_equals_monolithic_rotation_operator():
    for d in (2, 4, 6):
        alpha = 2.5
        actual = _controlled_ry_product(alpha, d)
        expected = np.zeros_like(actual)
        for label in range(1 << d):
            theta = label / (1 << d)
            r = sim.ry(2.0 * alpha * theta)
            for a_in in (0, 1):
                for a_out in (0, 1):
                    expected[(a_out << d) | label, (a_in << d) | label] = r[a_out, a_in]
        assert np.abs(actual - expected).max() < 1e-12


def test_ry_cascade_matches_gate_product_on_cleared_ancilla():
    d, alpha = 3, 2.5
    op = _controlled_ry_product(alpha, d)
    layout = sim.RegisterLayout(0, range(1, 1 + d), range(1 + d, 1 + d), range(1 + d, 2 + d))
    for label in range(1 << d):
        state = sim.new_state(layout)
        amp = np.zeros(1 << layout.n_qubits, dtype=complex)
        amp[label << 1] = 1.0  # ancilla 0, B fixed at |0>
        state.amplitudes = amp
        rotation.ry_cascade(state, layout, rotation.RotationConfig(alpha))
        assert np.abs(state.amplitudes[::2] - op[:, label]).max() < 1e-12


def test_ry_cascade_matches_the_bitwise_controlled_rotations():
    # one uniformly controlled ry against the paper's one rotation per L
    # qubit, on random states with the ancilla cleared
    rng = np.random.default_rng(41)
    for m_bits in range(1, 8):
        layout = sim.RegisterLayout.standard(m_bits, 2, 2)
        n = layout.n_qubits
        for alpha in rng.uniform(0.5, 4.4, size=3):
            amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amp[1 << (n - 1) :] = 0.0  # ancilla (qubit 0) reads 0
            state = sim.QuantumState(n, amp / np.linalg.norm(amp))
            cfg = rotation.RotationConfig(float(alpha))
            reference = bitwise_ry_cascade(state.copy(), layout, cfg)
            rotation.ry_cascade(state, layout, cfg)
            assert np.abs(state.amplitudes - reference.amplitudes).max() < 1e-12


def reference_forward_state():
    data = spectral.decompose(random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.0)))
    pe_cfg = reference_encoding()
    oracle = rotation.build_sigma_tau_oracle(pe_cfg, 2, 0.5)
    layout = sim.RegisterLayout.standard(2, 3, 3)
    a_pad = np.zeros((2, 2), dtype=complex)
    a_pad[:2, :2] = spectral.gram(data)
    state = sim.new_state(layout)
    sim.load_register(state, layout.reg_B, spectral.to_state(data, data.sigma))
    qpe.phase_estimate(state, pe_cfg, layout, a_pad)
    oracle.apply(state, layout)
    alpha = np.pi / (2 * 0.75)
    rotation.ry_cascade(state, layout, rotation.RotationConfig(alpha))
    return data, layout, state, oracle, pe_cfg, a_pad, alpha


def test_uncompute_clears_l_and_c():
    _, layout, state, oracle, pe_cfg, a_pad, _ = reference_forward_state()
    out, residual = rotation.uncompute(state, layout, oracle, pe_cfg, a_pad)
    assert out is state
    assert residual == rotation.uncompute_residual(state, layout)
    assert residual < 1e-9


def test_uncompute_leaves_ancilla_entangled_with_b_only():
    data, layout, state, oracle, pe_cfg, a_pad, alpha = reference_forward_state()
    rotation.uncompute(state, layout, oracle, pe_cfg, a_pad)
    n1 = float(np.sum(data.sigma**2))
    expected = np.zeros_like(state.amplitudes)
    b = len(layout.reg_B)
    for k, y in enumerate((0.75, 0.5)):
        triple = spectral.to_state(data, np.eye(2)[k])
        weight = data.sigma[k] / np.sqrt(n1)
        expected[0 : 1 << b] += weight * np.cos(y * alpha) * triple
        base = 1 << (layout.n_qubits - 1)  # ancilla = 1, L = C = 0
        expected[base : base + (1 << b)] += weight * np.sin(y * alpha) * triple
    assert np.abs(state.amplitudes - expected).max() < 1e-9


def test_uncompute_detects_mismatched_tau():
    # forward pass used tau = 0.5; uncompute with a tau = 0.25 oracle
    # (sigma/tau = 8, within the 8.94 that two bits reach)
    _, layout, state, _, pe_cfg, a_pad, _ = reference_forward_state()
    wrong = rotation.build_sigma_tau_oracle(reference_encoding(), 2, 0.25)
    with pytest.raises(UncomputeResidualError):
        rotation.uncompute(state, layout, wrong, pe_cfg, a_pad)
    # the raise comes after the reverse pass: the mass off |0> is left on L/C
    assert rotation.uncompute_residual(state, layout) > 1e-3


def test_uncompute_reports_inexact_residual():
    # an inexact encoding leaves real leakage on L/C: reported, not raised
    _, layout, state, _, pe_cfg, a_pad, _ = reference_forward_state()
    wrong = rotation.build_sigma_tau_oracle(reference_encoding(), 2, 0.25)
    inexact = dataclasses.replace(pe_cfg, exact=False)
    _, residual = rotation.uncompute(state, layout, wrong, inexact, a_pad)
    assert residual > 1e-3
    assert residual == rotation.uncompute_residual(state, layout)
