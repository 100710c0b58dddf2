import dataclasses
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qsvt import qpe, rotation, sim, spectral
from qsvt.errors import (
    ConvergenceError, NormalizationError, UncomputeResidualError, ValidationError
)
from qsvt.harness import random_lowrank

from gates import bitwise_ry_cascade, controlled, pauli_x, ry, unitary, whole_state


def step(raw, m, tau, sigma_sq):
    """The next m-bit code after ``raw`` under the cubic update."""
    return rotation._step(raw, 1 << m, *rotation._cubic(tau, sigma_sq, m))


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


def floor_code(m, tau, sigma_sq):
    """floor(2^m (1 - tau/sigma))_+ in exact integers: for sigma > tau,
    2^m less the least n with n sigma >= 2^m tau."""
    if math.sqrt(sigma_sq) <= tau:
        return 0
    (a, b), (p, q) = tau.as_integer_ratio(), sigma_sq.as_integer_ratio()
    x, y = (a << m) ** 2 * q, p * b * b  # n sigma >= 2^m tau iff n^2 y >= x
    n = math.isqrt(x // y)
    return (1 << m) - n - (n * n * y < x)


def newton_iterate_reference(m, tau, sigma_sq, raw, exits):
    """The Newton iteration from code ``raw`` in Fraction arithmetic:
    (raw, iterations, converged).  Counts in ``exits`` how it ended and
    how often a step was clamped."""
    if math.sqrt(sigma_sq) <= tau:
        exits["thresholded"] += 1
        return 0, 0, True
    tau_f, sig_f = Fraction(tau), Fraction(sigma_sq)
    prev = None
    for i in range(1, rotation.MAX_ITERATIONS + 1):
        value = cubic_map(Fraction(raw, 1 << m), tau_f, sig_f)
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
    iteration count of the Fraction reference run from sigma_1's code (in
    floats, as the oracle rounds it: at times one off the exact floor), or
    fails naming exactly the labels that fail there."""
    top, sigma1 = 1 << m, math.sqrt(enc.decode(max(enc.labels)))
    start = min(int((1 - tau / sigma1) * top), top - 1) if sigma1 > tau else 0
    expected = {
        c: newton_iterate_reference(m, tau, enc.decode(c), start, exits) for c in enc.labels
    }
    failed = {c: it for c, (_, it, ok) in expected.items() if not ok}
    if not failed:
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


def test_integer_newton_matches_fraction_reference(monkeypatch):
    # the oracle's Newton path on one- and two-label encodings; with no
    # guard, convergence rests on the clamp and the adjacent pair
    exits = Counter()
    ratios = [*np.linspace(0.2, 4.6, 23), 5.0, 8.0, 9.5, 30.0]
    for m in range(1, 11):
        for cap in (rotation.MAX_ITERATIONS, 3):
            with monkeypatch.context() as patch:
                patch.setattr(rotation, "MAX_ITERATIONS", cap)
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
    for kind in ("thresholded", "clamp", "fixed", "pair", "max_iterations"):
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


def oracle_and_start(monkeypatch, enc, m, tau):
    """The oracle built on ``enc`` and the one code that every label's
    iteration started from (None without labels)."""
    starts = []
    iterate = rotation._iterate

    def spy(m, tau, sigma_sq, raw):
        starts.append(raw)
        return iterate(m, tau, sigma_sq, raw)

    with monkeypatch.context() as patch:
        patch.setattr(rotation, "_iterate", spy)
        oracle = rotation.build_sigma_tau_oracle(enc, m, tau)
    assert len(starts) == len(enc.labels) and len(set(starts)) <= 1
    return oracle, starts[0] if starts else None


def test_oracle_on_an_encoding_without_labels_is_empty(monkeypatch):
    # sigma_1 decodes to 0, which the start must not divide by
    assert oracle_and_start(monkeypatch, qpe.PhaseEstimationConfig(3, 1.0, True), 3, 0.5) == (
        rotation.SigmaTauOracle(3, 3, {}, {}), None)


def test_newton_start_is_sigma_1s_own_code(monkeypatch):
    # sigma_1 = 2, tau = 0.5: 2^3 (1 - 1/4); label 1 falls to 2^3 (1 - 1/2)
    oracle, raw = oracle_and_start(monkeypatch, reference_encoding(), 3, 0.5)
    assert raw == 6 and oracle.y_codes == {4: 6, 1: 4} and oracle.iterations[4] == 1
    # sigma_1 <= tau: start 0, and every label is thresholded
    oracle, raw = oracle_and_start(monkeypatch, qpe.choose_t0([0.25, 0.09], 4), 4, 0.5)
    assert raw == 0 and set(oracle.y_codes.values()) == {0}


def test_newton_start_that_rounds_to_2_to_the_m_is_the_top_code(monkeypatch):
    # tau/sigma_1 = 1e-17: 1 - tau/sigma_1 rounds to 1
    for m in (1, 8, 26):
        oracle, raw = oracle_and_start(monkeypatch, qpe.choose_t0([1e34], 6), m, 1.0)
        assert raw == (1 << m) - 1 and oracle.y_codes[63] == raw and oracle.iterations[63] == 1
    # extreme ratios raise no OverflowError
    for sigma_sq, tau in ((1e300, 1e-300), (1e-8, 1e-300), (1e300, 5e149)):
        enc = qpe.choose_t0([sigma_sq], 6)
        oracle, _ = oracle_and_start(monkeypatch, enc, 26, tau)
        assert oracle.y_codes == {63: floor_code(26, tau, enc.decode(63))}


def test_newton_iterate_converges_above_ratio_four():
    tau = 0.5
    for m in (1, 2, 8):
        for ratio in (4.2, 5.0, 8.0, 10.0, 100.0):
            enc = qpe.choose_t0([(ratio * tau) ** 2])
            (label,) = enc.labels
            code = rotation.build_sigma_tau_oracle(enc, m, tau).y_codes[label]
            assert code == floor_code(m, tau, enc.decode(label)), (m, ratio)
    # exactly ratio 4 (dyadic) converges at its own code
    assert rotation.build_sigma_tau_oracle(qpe.choose_t0([4.0]), 8, tau).y_codes == {4: 192}


def test_newton_cap_lets_the_oracle_converge_up_to_26_qubits():
    # from the former start 1/2, a sigma/tau above 2 sqrt 3 was clamped to
    # the top code and left it by a factor 1.5 a step: at ratio 4 that took
    # 47 iterations at m 26; from sigma_1's own code, one label takes at most 3
    for ratio in (3.5, 4.0, 50.0, 2900.0):
        enc = qpe.choose_t0([ratio**2], 1)
        for m in range(1, 27):
            oracle = rotation.build_sigma_tau_oracle(enc, m, 1.0)
            assert oracle.y_codes[1] == floor_code(m, 1.0, enc.decode(1))
            assert oracle.iterations[1] <= 3


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


def test_newton_code_is_the_exact_floor():
    # every build on the grid succeeds, and every code is
    # floor(2^m (1 - tau/sigma)) in exact integers
    worst = builds = 0
    for m in range(1, 27):
        for tau in (1.0, 0.3, 0.93):
            for ratio in np.geomspace(1.0001, 1e4, 134):
                sigma1_sq = (ratio * tau) ** 2
                low = max(1e-3 * sigma1_sq, (1.005 * tau) ** 2)
                lam = np.geomspace(sigma1_sq, low, 7) if low < sigma1_sq else [sigma1_sq]
                enc = qpe.choose_t0(lam, 12)
                oracle = rotation.build_sigma_tau_oracle(enc, m, tau)
                assert oracle.y_codes == {c: floor_code(m, tau, enc.decode(c)) for c in enc.labels}
                worst = max(worst, *oracle.iterations.values())
                builds += 1
    assert builds == 10452
    assert worst == 14  # 46 from the former start, where that built


def reference_encoding(t_bits=3):
    return qpe.choose_t0([4.0, 1.0], t_bits)


def test_oracle_reference_codes():
    enc = reference_encoding()
    oracle = rotation.build_sigma_tau_oracle(enc, 3, 0.5)
    assert oracle.y_codes[4] == 6  # |110> in register L
    assert oracle.y_codes[1] == 4  # |100>


def test_oracle_writes_codes_into_register_l():
    enc = reference_encoding()
    oracle = rotation.build_sigma_tau_oracle(enc, 3, 0.5)
    layout = sim.RegisterLayout(3, 3, 1)
    state = sim.new_state(layout)
    # occupy C = 100 (label 4) with B = |0>
    unitary(state, pauli_x(), [list(layout.reg_C)[0]])
    oracle.apply(state)
    mass_l = sim.register_mass(state, range(layout.m_bits))
    assert mass_l[6] == pytest.approx(1.0)
    mass_c = sim.register_mass(state, layout.reg_C)
    assert mass_c[4] == pytest.approx(1.0)  # C untouched


def test_oracle_thresholded_label_leaves_l_zero():
    enc = qpe.choose_t0([4.0, 1.0], 3)
    oracle = rotation.build_sigma_tau_oracle(enc, 3, 1.5)
    assert oracle.y_codes[1] == 0  # sigma = 1 <= tau = 1.5
    assert oracle.y_codes[4] == 2  # 2^3 (1 - 1.5/2) = 2


def test_oracle_self_inverse():
    enc = reference_encoding()
    oracle = rotation.build_sigma_tau_oracle(enc, 3, 0.5)
    layout = sim.RegisterLayout(3, 3, 1)
    rng = np.random.default_rng(31)
    amp = rng.normal(size=1 << layout.n_qubits) + 1j * rng.normal(size=1 << layout.n_qubits)
    amp /= np.linalg.norm(amp)
    state = sim.QuantumState(layout, amp.copy())
    oracle.apply(state)
    oracle.apply(state)
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
    qubits = range(layout.ancilla)  # L, then C
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
    for oracle, layout in ((built, sim.RegisterLayout(3, 3, 2)),
                           (drawn, sim.RegisterLayout(3, 4, 2)),
                           (drawn, sim.RegisterLayout(3, 4, 1))):
        for _ in range(3):
            size = 1 << layout.n_qubits
            amp = rng.normal(size=size) + 1j * rng.normal(size=size)
            state = sim.QuantumState(layout, amp / np.linalg.norm(amp))
            expected = permutation_reference(state, layout, oracle)
            oracle.apply(state)
            assert np.array_equal(state.amplitudes, expected)


# what no oracle on a 2-bit L and a 2-bit C takes as its code map
BAD_CODE_MAPS = {
    "a code wider than L": ({0: 4}, "oracle code must lie in 0..3, an integer, got 4"),
    "a label wider than C": ({4: 1}, "oracle label must lie in 0..3, an integer, got 4"),
    "a negative code": ({1: -1}, "oracle code must lie in 0..3, an integer, got -1"),
    "a float label": ({1.5: 1}, "oracle label must lie in 0..3, an integer, got 1.5"),
    "a float code": ({1: 1.0}, "oracle code must lie in 0..3, an integer, got 1.0"),
    "a bool label": ({True: 1}, "oracle label must lie in 0..3, an integer, got True"),
    "a bool code": ({1: True}, "oracle code must lie in 0..3, an integer, got True"),
    "a float code after a good one": ({1: 1, 2: 1.0},
                                      "oracle code must lie in 0..3, an integer, got 1.0"),
    "a fraction after a good one": ({1: 1, 2: 1.5},
                                    "oracle code must lie in 0..3, an integer, got 1.5"),
}


@pytest.mark.parametrize("codes, message", BAD_CODE_MAPS.values(), ids=BAD_CODE_MAPS.keys())
def test_oracle_refuses_a_bad_code_map_where_it_is_made(codes, message):
    # the code map is checked once, when the oracle is made, before any
    # state exists: labels and codes are integers, not bools, in range;
    # the gate that applies it, sim.apply_basis_oracle, checks none;
    # dataclasses.replace makes a new oracle, so it is checked too
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        rotation.SigmaTauOracle(2, 2, codes, {})
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(rotation.SigmaTauOracle(2, 2, {1: 2}, {}), y_codes=codes)


def test_oracle_checks_its_labels_and_codes_where_it_is_made():
    # the range's ends and NumPy integers pass
    oracle = rotation.SigmaTauOracle(2, 2, {0: 3, np.int64(3): np.int64(0)}, {})
    assert oracle.y_codes == {0: 3, 3: 0}


def test_oracle_maps_are_read_only():
    # a code written after the check moved L = 0 to L = 3 on C = 1 (take
    # wraps a negative index): both maps refuse writes, and a map given to
    # the oracle is copied, so changing it later leaves the oracle as it was
    codes, iterations = {1: 2}, {1: 5}
    oracle = rotation.SigmaTauOracle(2, 2, codes, iterations)
    for held in (oracle.y_codes, oracle.iterations):
        with pytest.raises(TypeError):
            held[1] = -1
        with pytest.raises(TypeError):
            del held[1]
    codes[1], iterations[1] = -1, 6
    assert (oracle.y_codes, oracle.iterations) == ({1: 2}, {1: 5})
    state = sim.new_state(sim.RegisterLayout(2, 2, 1))
    unitary(state, pauli_x(), [3])  # C = 1
    oracle.apply(state)
    assert sim.register_mass(state, range(2))[2] == 1.0  # L = 0 XOR 2


def test_oracle_codes_on_the_circuit_large_spectrum():
    lam = [3.1**2, 2.2**2, 1.3**2]
    enc = qpe.choose_t0(lam, 8)
    oracle = rotation.build_sigma_tau_oracle(enc, 8, 0.93)
    assert oracle.y_codes == {255: 179, 128: 147, 45: 73}
    assert oracle.iterations == {255: 1, 128: 4, 45: 6}


def test_oracle_build_aborts_on_nonconvergent_label(monkeypatch):
    enc = qpe.choose_t0([25.0, 1.0], 5)  # sigma/tau = 10 and 2 at tau = 0.5
    # floor(2^m (1 - tau/sigma)) at every width, two bits too
    assert rotation.build_sigma_tau_oracle(enc, 2, 0.5).y_codes == {25: 3, 1: 2}
    assert rotation.build_sigma_tau_oracle(enc, 8, 0.5).y_codes == {25: 230, 1: 128}
    # a label still moving at the cap aborts the build, and only it is named:
    # sigma_1's label starts at its own code, label 1 falls from there
    enc = qpe.choose_t0([4.0, 1.0], 3)
    monkeypatch.setattr(rotation, "MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match=r"^label 1 .*: no convergence in 1 iterations$"):
        rotation.build_sigma_tau_oracle(enc, 3, 0.5)


def test_oracle_build_checks_width_and_tau():
    enc = reference_encoding()
    for m in (0, -1, 27):
        with pytest.raises(ValidationError, match="m_bits must lie in"):
            rotation.build_sigma_tau_oracle(enc, m, 0.5)
    # "x" was compared with 0 and raised TypeError; inf and 10**400 raised
    # a bare OverflowError, inf from as_integer_ratio and 10**400 from float
    for tau in (0.0, -1.0, math.nan, math.inf, -math.inf, 10**400, Fraction(10**400),
                "x", True, None):
        with pytest.raises(ValidationError, match="^tau must be finite and positive, a real number"):
            rotation.build_sigma_tau_oracle(enc, 3, tau)
    # a NumPy integer runs as its float, which has an exact integer ratio
    assert rotation.build_sigma_tau_oracle(enc, 3, np.int64(1)) == \
        rotation.build_sigma_tau_oracle(enc, 3, 1.0)


@pytest.mark.parametrize("widths", [(2, 3), (3, 2), (4, 4)])
def test_oracle_rejects_a_layout_of_other_widths(widths):
    oracle = rotation.build_sigma_tau_oracle(reference_encoding(), 3, 0.5)
    layout = sim.RegisterLayout(*widths, 1)
    with pytest.raises(ValidationError, match="^oracle widths do not match layout$"):
        oracle.apply(sim.new_state(layout))


def ancilla_mass(state, layout):
    return sim.register_mass(state, range(layout.ancilla, layout.ancilla + 1))


def test_ry_cascade_zero_register_keeps_ancilla_zero():
    layout = sim.RegisterLayout(3, 1, 1)
    state = sim.new_state(layout)
    rotation.ry_cascade(state, 2.0944)
    assert ancilla_mass(state, layout)[1] == 0.0


def _state_with_l_code(layout, raw):
    state = sim.new_state(layout)
    for q in range(layout.m_bits):
        if (raw >> (layout.m_bits - 1 - q)) & 1:
            unitary(state, pauli_x(), [q])
    return state


def test_ry_cascade_reference_amplitudes():
    alpha = 2.0944
    layout = sim.RegisterLayout(2, 1, 1)
    state = _state_with_l_code(layout, 3)  # theta = 0.75
    rotation.ry_cascade(state, alpha)
    anc = ancilla_mass(state, layout)
    assert np.sqrt(anc[1]) == pytest.approx(np.sin(0.75 * alpha), abs=1e-12)

    state = _state_with_l_code(layout, 2)  # theta = 0.5
    rotation.ry_cascade(state, alpha)
    anc = ancilla_mass(state, layout)
    assert np.sqrt(anc[1]) == pytest.approx(0.8660, abs=1e-4)


def test_ry_cascade_requires_cleared_ancilla():
    # the cascade overwrites the ancilla's |1> half, so any mass there, a
    # tiny one or NaN (which the norm check of the same read finds first),
    # is rejected before the state is touched
    layout = sim.RegisterLayout(2, 1, 1)
    flipped = sim.new_state(layout)
    unitary(flipped, pauli_x(), [layout.ancilla])
    tiny = sim.new_state(layout)
    tiny.amplitudes.reshape(8, 2, 2)[0, 1, 0] = 1e-10  # mass 1e-20 on ancilla 1
    nan = sim.new_state(layout)
    nan.amplitudes.reshape(8, 2, 2)[3, 1, 1] = np.nan
    for state, error, match in ((flipped, ValidationError, "ancilla not cleared"),
                                (tiny, ValidationError, "holds mass 1.000e-20"),
                                (nan, NormalizationError, "norm drifted to nan")):
        before = state.amplitudes.tobytes()
        with pytest.raises(error, match=match):
            rotation.ry_cascade(state, 1.0)
        assert state.amplitudes.tobytes() == before


def test_ry_cascade_is_exact_beyond_single_lobe():
    # the single-lobe rule is alpha.solution's, not the cascade's
    layout = sim.RegisterLayout(2, 1, 1)
    state = _state_with_l_code(layout, 3)  # theta = 0.75, theta * alpha > pi
    rotation.ry_cascade(state, 4.4)
    amp = state.amplitudes.reshape(4, 2, 2, 2)[3, 0, 1, 0]  # L = 11, C = 0, ancilla 1, B = 0
    assert amp == pytest.approx(np.sin(0.75 * 4.4), abs=1e-12)


def _controlled_ry_product(alpha, d):
    """Full (d+1)-qubit matrix of the cascade's gate sequence on L (qubits
    0..d-1) and the ancilla (qubit d), built column by column through the
    tests' dense controlled gate."""
    n = d + 1
    dim = 1 << n
    op = np.eye(dim, dtype=complex)
    for j in range(1, d + 1):
        gate = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            st = sim.QuantumState(sim.RegisterLayout(0, 0, d), np.eye(dim, dtype=complex)[col])
            controlled(st, [ry(2.0 ** (1 - j) * alpha)], [j - 1], [d])
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
            r = ry(2.0 * alpha * theta)
            for a_in in (0, 1):
                for a_out in (0, 1):
                    expected[(label << 1) | a_out, (label << 1) | a_in] = r[a_out, a_in]
        assert np.abs(actual - expected).max() < 1e-12


def test_ry_cascade_matches_gate_product_on_cleared_ancilla():
    d, alpha = 3, 2.5
    op = _controlled_ry_product(alpha, d)
    layout = sim.RegisterLayout(d, 0, 1)  # L 0..d-1, the ancilla d, B d+1
    for label in range(1 << d):
        amp = np.zeros(1 << layout.n_qubits, dtype=complex)
        amp[label << 2] = 1.0  # ancilla 0, B fixed at |0>
        state = sim.QuantumState(layout, amp)
        rotation.ry_cascade(state, alpha)
        assert np.abs(state.amplitudes[::2] - op[:, label << 1]).max() < 1e-12
        assert not state.amplitudes[1::2].any()  # B stays |0>


def test_ry_cascade_matches_the_bitwise_controlled_rotations():
    # one uniformly controlled ry against the paper's one rotation per L
    # qubit, on random states with the ancilla cleared
    rng = np.random.default_rng(41)
    for m_bits in range(1, 8):
        layout = sim.RegisterLayout(m_bits, 2, 2)
        n = layout.n_qubits
        for alpha in rng.uniform(0.5, 4.4, size=3):
            amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amp.reshape(1 << (m_bits + 2), 2, -1)[:, 1] = 0.0  # the ancilla reads 0
            state = sim.QuantumState(layout, amp / np.linalg.norm(amp))
            reference = bitwise_ry_cascade(state.copy(), alpha)
            rotation.ry_cascade(state, alpha)
            assert np.abs(state.amplitudes - reference.amplitudes).max() < 1e-12


def reference_forward_state():
    data = spectral.decompose(random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.0)))
    pe_cfg = reference_encoding()
    oracle = rotation.build_sigma_tau_oracle(pe_cfg, 2, 0.5)
    layout = sim.RegisterLayout(2, 3, 1)  # B: the Schmidt index of rank 2
    pairs = spectral.gram(data)
    state = sim.new_state(layout)
    sim.load_register(state, data.sigma / np.linalg.norm(data.sigma))
    qpe.phase_estimate(state, pe_cfg, pairs)
    oracle.apply(state)
    alpha = np.pi / (2 * 0.75)
    rotation.ry_cascade(state, alpha)
    return data, layout, state, oracle, pe_cfg, pairs, alpha


def test_uncompute_clears_l_and_c():
    _, layout, state, oracle, pe_cfg, pairs, _ = reference_forward_state()
    residual = rotation.uncompute(state, oracle, pe_cfg, pairs)
    assert residual == rotation.uncompute_residual(state)
    assert residual < 1e-9


def test_uncompute_residual_of_a_layout_without_l_and_c_is_0():
    layout = sim.RegisterLayout(0, 0, 2)
    assert rotation.uncompute_residual(sim.new_state(layout)) == 0.0


def test_uncompute_leaves_ancilla_entangled_with_b_only():
    data, layout, state, oracle, pe_cfg, pairs, alpha = reference_forward_state()
    rotation.uncompute(state, oracle, pe_cfg, pairs)
    n1 = float(np.sum(data.sigma**2))
    expected = np.zeros_like(state.amplitudes)
    b = layout.b_bits
    for k, y in enumerate((0.75, 0.5)):
        triple = np.eye(2)[k]  # |k> on the Schmidt index
        weight = data.sigma[k] / np.sqrt(n1)
        # L = C = 0, and the ancilla, directly ahead of B, reads 0 or 1
        expected[0 : 1 << b] += weight * np.cos(y * alpha) * triple
        expected[1 << b : 2 << b] += weight * np.sin(y * alpha) * triple
    assert np.abs(state.amplitudes - expected).max() < 1e-9


def test_uncompute_detects_mismatched_tau():
    # forward pass used tau = 0.5; uncompute with a tau = 0.25 oracle
    # (sigma/tau = 8)
    _, layout, state, _, pe_cfg, pairs, _ = reference_forward_state()
    wrong = rotation.build_sigma_tau_oracle(reference_encoding(), 2, 0.25)
    with pytest.raises(UncomputeResidualError):
        rotation.uncompute(state, wrong, pe_cfg, pairs)
    # the raise comes after the reverse pass: the mass off |0> is left on L/C
    assert rotation.uncompute_residual(state) > 1e-3


def test_uncompute_on_the_l_zero_block_matches_the_whole_state(monkeypatch):
    # a mismatched oracle leaves mass on L != 0; the inverse estimation of
    # the whole state moves it only within its L block, so the residual,
    # the ancilla's masses and the L = 0 block are the same without it
    wrong = rotation.build_sigma_tau_oracle(reference_encoding(), 2, 0.25)
    runs = []
    for block in (sim.l_zero_block, whole_state):
        _, layout, state, _, pe_cfg, pairs, _ = reference_forward_state()
        monkeypatch.setattr(sim, "l_zero_block", block)
        residual = rotation.uncompute(
            state, wrong, dataclasses.replace(pe_cfg, exact=False), pairs
        )
        runs.append((state, residual))
    (state, residual), (reference, reference_residual) = runs
    assert residual > 1e-3
    assert abs(residual - reference_residual) <= 1e-12
    anc = [ancilla_mass(s, layout) for s in (state, reference)]
    assert np.abs(anc[0] - anc[1]).max() <= 1e-12
    block = 1 << (layout.n_qubits - layout.m_bits)
    assert np.abs(state.amplitudes[:block] - reference.amplitudes[:block]).max() <= 1e-12


def test_oracle_build_takes_integer_widths_only():
    # an int64 width ran the exact integer Newton arithmetic in int64,
    # which overflowed into a spurious ConvergenceError
    enc = qpe.choose_t0([4.3, 1.1], 6)
    oracle = rotation.build_sigma_tau_oracle(enc, 8, 0.5)
    assert oracle.y_codes == {63: 194, 16: 133}
    wide = rotation.build_sigma_tau_oracle(enc, np.int64(8), 0.5)
    assert wide == oracle and type(wide.m_bits) is int
    for bad in (8.0, True, np.float64(8)):
        with pytest.raises(ValidationError, match="m_bits must lie in 1..26, an integer"):
            rotation.build_sigma_tau_oracle(enc, bad, 0.5)


def test_uncompute_reports_inexact_residual():
    # an inexact encoding leaves real leakage on L/C: reported, not raised
    _, layout, state, _, pe_cfg, pairs, _ = reference_forward_state()
    wrong = rotation.build_sigma_tau_oracle(reference_encoding(), 2, 0.25)
    inexact = dataclasses.replace(pe_cfg, exact=False)
    residual = rotation.uncompute(state, wrong, inexact, pairs)
    assert residual > 1e-3
    assert residual == rotation.uncompute_residual(state)
