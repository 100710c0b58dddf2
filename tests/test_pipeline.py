import collections
import dataclasses
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qsvt import alpha as alpha_mod
from qsvt import harness, pipeline, qpe, rotation, sim, spectral
from qsvt.errors import FullyThresholdedError, ValidationError
from qsvt.harness import SweepConfig, example_matrix, random_lowrank

import gates
from gates import (bitwise_conditional_evolution, bitwise_ry_cascade, full_register_run,
                   whole_state)


def run_reference(**overrides):
    cfg = dict(a0=example_matrix(), tau=0.5, t_bits=3, m_bits=2)
    cfg.update(overrides)
    return pipeline.run_pipeline(pipeline.PipelineConfig(**cfg))


def test_reference_instance_probability_fidelity():
    res = run_reference()
    assert abs(res.p_sim - 0.9499) <= 1e-3
    assert abs(res.f_sim - 0.9962) <= 1e-3
    assert abs(res.n_alpha - 4.7495) <= 1e-3
    assert res.alpha == pytest.approx(2.0944, abs=1e-4)


def test_reference_run_decomposes_a_once(monkeypatch):
    eigh, herm_exp = np.linalg.eigh, qpe.herm_exp
    calls = collections.Counter()
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.update(["eigh"]) or eigh(m))
    monkeypatch.setattr(qpe, "herm_exp", lambda a, t: calls.update(["herm_exp"]) or herm_exp(a, t))
    run_reference()
    # A is decomposed once, by the run's SVD: t rows of phases in each
    # direction from its eigenvalues, and no eigh
    assert calls == {"herm_exp": 6}


def test_reference_instance_triple_amplitudes():
    res = run_reference()
    unnorm = np.abs(res.triple_amplitudes)
    assert abs(unnorm[0] - 1.9999) <= 1e-3
    assert abs(unnorm[1] - 0.8660) <= 1e-3
    assert res.exact and res.pe_exact
    assert res.labels.tolist() == [4, 1]


def test_reference_agreement_in_exact_regime():
    res = run_reference()
    assert abs(res.p_sim - res.p_analytic) < 1e-9
    assert abs(res.f_sim - res.f_analytic) < 1e-9
    assert res.residual_mass < 1e-9


def test_reference_run_passes_over_the_state(monkeypatch):
    # every counted call reads or writes the state it is given once: 6 of
    # them the whole state (the load's norm, the oracle twice, the
    # cascade, its ancilla read and the uncompute read of L and C) and 6
    # the L = 0 block (the C read, three DFTs and E twice); the Hadamard
    # write on the cleared C, a seventh pass over the block, is no call
    counts = collections.Counter()
    calls = [(sim, name) for name in
             ("register_mass", "apply_unitary", "apply_controlled", "apply_basis_oracle")]
    for module, name in [*calls, (rotation, "ry_cascade"), (sim.QuantumState, "norm")]:
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    run_reference()
    # QFT^-1 after the forward E, QFT and QFT^-1 around E^-1, no pass
    # over L in the cascade, and no read for the norm alone: the prep
    # load, the C-cleared read, the cascade's ancilla read, the uncompute
    # read of L and C and post-select each check it from their own read
    # (the oracle only permutes amplitudes)
    assert counts == {"register_mass": 3, "apply_unitary": 3, "apply_controlled": 2,
                      "apply_basis_oracle": 2, "ry_cascade": 1, "norm": 1}


def test_reference_run_checks_e_and_the_oracle_codes_once(monkeypatch):
    # each fact is checked by the stage or record that owns it: E's
    # eigenvalues and widths once per estimation direction, by the stage,
    # and the oracle's labels and codes once, where the oracle is made; E
    # and the oracle's gate check no argument
    inside, checks = [], collections.Counter()

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            if name in ("_check_config", "_is_int"):
                checks[name, tuple(inside)] += 1
            inside.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(module, name, wrapped)

    for module, name in ((qpe, "_check_config"), (sim, "_is_int"), (qpe, "phase_estimate"),
                         (rotation, "phase_estimate_inverse"), (sim, "apply_controlled"),
                         (sim, "apply_basis_oracle"), (rotation, "SigmaTauOracle")):
        spy(module, name)
    run_reference()
    assert {k: n for k, n in checks.items() if k[0] == "_check_config"} == {
        ("_check_config", ("phase_estimate",)): 1,
        ("_check_config", ("phase_estimate_inverse",)): 1}
    # labels 4 and 1 and their codes, each once
    assert checks["_is_int", ("SigmaTauOracle",)] == 4
    assert not [k for k in checks if {"apply_controlled", "apply_basis_oracle"} & set(k[1])]


@pytest.mark.parametrize(
    "cfg",
    [
        dict(a0=example_matrix(), tau=0.5, t_bits=3, m_bits=2),
        dict(a0=random_lowrank(3, 4, 2, seed=5, sigma=(3.1, 2.2)), tau=0.93, t_bits=5, m_bits=4),
        # u-factor 16 wide
        dict(a0=random_lowrank(16, 2, 1, seed=5, sigma=(2.0,)), tau=0.5, t_bits=5, m_bits=2),
    ],
    ids=["paper", "inexact", "tall"],
)
def test_run_matches_the_bitwise_controlled_circuit(monkeypatch, cfg):
    # the controlled evolution and the cascade spelled as one dense
    # single-qubit-controlled gate per control bit, as the paper draws them
    run = pipeline.run_pipeline(pipeline.PipelineConfig(**cfg))
    monkeypatch.setattr(qpe, "conditional_evolution", bitwise_conditional_evolution)
    monkeypatch.setattr(rotation, "ry_cascade", bitwise_ry_cascade)
    calls = collections.Counter()
    controlled = gates.controlled
    monkeypatch.setattr(gates, "controlled", lambda *a: calls.update(["gate"]) or controlled(*a))
    reference = pipeline.run_pipeline(pipeline.PipelineConfig(**cfg))
    assert calls["gate"] == 2 * cfg["t_bits"] + cfg["m_bits"]
    assert run.exact == reference.exact == (cfg["tau"] == 0.5)
    for name in ("p_sim", "f_sim", "residual_mass", "triple_amplitudes", "b_state"):
        assert np.abs(getattr(run, name) - getattr(reference, name)).max() < 1e-12, name


@pytest.mark.parametrize(
    "cfg",
    [
        dict(a0=example_matrix(), tau=0.5, t_bits=3, m_bits=2),
        dict(a0=example_matrix(), tau=0.5, t_bits=3, m_bits=2, alpha_method="numeric"),
        dict(a0=random_lowrank(3, 4, 2, seed=5, sigma=(3.1, 2.2)), tau=0.93, t_bits=5, m_bits=4),
        dict(a0=random_lowrank(16, 2, 2, seed=3, sigma=(2.0, 1.1)), tau=0.6, t_bits=6, m_bits=8),
        dict(a0=random_lowrank(5, 7, 3, seed=13, sigma=(3.0, 2.0, 1.2)), tau=0.9, t_bits=6,
             m_bits=8),
    ],
    ids=["paper", "paper-numeric", "inexact", "16x2", "5x7-r3"],
)
def test_run_on_the_schmidt_index_matches_the_full_data_register(cfg):
    # B holds the input's Schmidt index k; the reference runs the same
    # stages on B = B_u (x) B_v, loaded with the input and E a dense gate
    # on B_u, exponentiated by eigh
    res = pipeline.run_pipeline(pipeline.PipelineConfig(**cfg))
    assert len(res.b_state) == spectral.pad_dim(res.spec.p) * spectral.pad_dim(res.spec.q)
    reference = full_register_run(pipeline.PipelineConfig(**cfg), res.alpha)
    assert list(res.labels) == reference.pop("labels")
    assert res.newton_iterations == reference.pop("newton_iterations")
    for name, want in reference.items():
        assert np.abs(getattr(res, name) - want).max() <= 1e-12, name


def test_layout_leads_with_l_and_puts_the_ancilla_directly_ahead_of_b(monkeypatch):
    # L leads, so the L = 0 block is the state's first 2^(n - m)
    # amplitudes; C follows L; the ancilla sits directly ahead of B, the
    # input's Schmidt index, so the overlaps (L = C = 0, ancilla 1) are one
    # slice, equal to the amplitudes read qubit by qubit from the final
    # state of the whole-state run
    run = run_reference()
    seen = []
    new_state, post_select = sim.new_state, sim.post_select
    monkeypatch.setattr(sim, "new_state", lambda layout: seen.append(layout) or new_state(layout))
    monkeypatch.setattr(sim, "post_select", lambda s, q, v: seen.append(s) or post_select(s, q, v))
    monkeypatch.setattr(sim, "l_zero_block", whole_state)
    reference = run_reference()
    layout, state = seen
    m, t, b, r = layout.m_bits, layout.t_bits, layout.b_bits, reference.spec.rank
    # m + t + 1 + log2 pad(max(r, 2)) qubits
    assert (m, t, 1 << b) == (2, 3, spectral.pad_dim(max(r, 2)))
    assert (layout.reg_C, layout.ancilla, layout.n_qubits) == (range(m, m + t), m + t,
                                                               m + t + 1 + b)
    n = state.n_qubits
    index = [(1 << (n - 1 - layout.ancilla)) + sum(((x >> (b - 1 - i)) & 1) << (n - 1 - q)
                                                   for i, q in enumerate(range(m + t + 1, n)))
             for x in range(1 << b)]
    # post-selection leaves the state as it is: the overlaps are the branch
    # / sqrt(p), and the padded amplitudes of the index are 0
    branch = state.amplitudes[index] / math.sqrt(reference.p_sim)
    assert not branch[r:].any()
    assert np.array_equal(reference.b_state, spectral.embed(reference.spec, branch[:r]))
    assert np.abs(run.b_state - reference.b_state).max() <= 1e-12


@pytest.mark.parametrize(
    "cfg",
    [
        dict(a0=example_matrix(), tau=0.5, t_bits=3, m_bits=2),
        dict(a0=random_lowrank(3, 4, 2, seed=5, sigma=(3.1, 2.2)), tau=0.93, t_bits=5, m_bits=4),
        dict(a0=random_lowrank(16, 2, 2, seed=3, sigma=(2.0, 1.1)), tau=0.6, t_bits=6, m_bits=8),
        dict(a0=random_lowrank(8, 8, 3, seed=11, sigma=(3.0, 2.0, 1.2)), tau=0.9, t_bits=6,
             m_bits=8),
    ],
    ids=["paper", "inexact", "tall", "8x8"],
)
def test_phase_estimation_on_the_l_zero_block_matches_the_whole_state(monkeypatch, cfg):
    # L reads 0 before the forward estimation and again after the
    # oracle's inverse, so the amplitudes of every other L block are 0
    # where either estimation runs
    run = pipeline.run_pipeline(pipeline.PipelineConfig(**cfg))
    monkeypatch.setattr(sim, "l_zero_block", whole_state)
    reference = pipeline.run_pipeline(pipeline.PipelineConfig(**cfg))
    assert run.exact == reference.exact == (cfg["tau"] == 0.5)
    for name in ("labels", "y_codes", "newton_iterations", "alpha"):
        assert np.array_equal(getattr(run, name), getattr(reference, name)), name
    for name in ("p_sim", "f_sim", "residual_mass", "triple_amplitudes", "b_state"):
        assert np.abs(getattr(run, name) - getattr(reference, name)).max() <= 1e-12, name


def test_phase_estimation_passes_over_the_l_zero_block_only(monkeypatch):
    # the paper run: the DFTs and both evolutions see the 2^(n - m)
    # amplitudes whose L reads 0, the oracle and the cascade all 2^n
    sizes, layouts = collections.defaultdict(list), []
    new_state = sim.new_state
    monkeypatch.setattr(sim, "new_state", lambda layout: layouts.append(layout) or new_state(layout))
    calls = [(sim, name) for name in ("apply_unitary", "apply_controlled", "apply_basis_oracle")]
    for module, name in [*calls, (rotation, "ry_cascade")]:
        def spy(state, *args, _real=getattr(module, name), _name=name, **kwargs):
            sizes[_name].append(state.n_qubits)
            return _real(state, *args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    run_reference()
    [layout] = layouts
    n, block = layout.n_qubits, layout.n_qubits - layout.m_bits
    assert sizes == {"apply_unitary": [block] * 3, "apply_controlled": [block, block],
                     "apply_basis_oracle": [n, n], "ry_cascade": [n]}


def test_paper_run_calls_no_numpy_norm_or_take(monkeypatch):
    # at 512 amplitudes a run is bound by call overhead: its norms and the
    # oracle's gathers skip NumPy's Python-level wrappers
    def wrapper(*args, **kwargs):
        raise AssertionError("a NumPy Python-level wrapper on the run path")

    monkeypatch.setattr(np.linalg, "norm", wrapper)
    monkeypatch.setattr(np, "take", wrapper)
    res = run_reference()
    assert abs(res.p_sim - 0.9499) <= 1e-3 and abs(res.f_sim - 0.9962) <= 1e-3


def test_numpy_integer_widths_run_as_python_ints():
    # the Newton codes are exact integer arithmetic: an int64 width made
    # them int64, which overflowed; a float width failed at 1 << 3.0
    a0 = random_lowrank(4, 4, 2, [3, 1])
    base = pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=0.37, t_bits=6, m_bits=8))
    res = pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=a0, tau=0.37, t_bits=np.int64(6), m_bits=np.int64(8))
    )
    assert type(res.t_bits) is int and type(res.m_bits) is int
    for name in ("labels", "y_codes", "newton_iterations", "p_sim", "b_state"):
        assert np.array_equal(getattr(res, name), getattr(base, name)), name
    for name, bad in itertools.product(("t_bits", "m_bits"), (3.0, True, np.float64(3))):
        with pytest.raises(ValidationError, match=f"{name} must lie in 1..26, an integer"):
            pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=0.37, **{name: bad}))


def test_analytic_p_and_f_are_the_resolved_solutions():
    for method in ("intuitive", "taylor2", "taylor4", "numeric"):
        res = run_reference(alpha_method=method)
        profile = alpha_mod.SpectrumProfile.from_sigma_tau(res.sigma, 0.5)
        sol = alpha_mod.solution(profile, "explicit", res.alpha)
        assert (res.p_analytic, res.f_analytic) == (sol.P, sol.F)
    # an explicit alpha goes through the same constructor
    res = run_reference(alpha=1.9403)
    profile = alpha_mod.SpectrumProfile.from_sigma_tau(res.sigma, 0.5)
    sol = alpha_mod.solution(profile, "explicit", 1.9403)
    assert (res.p_analytic, res.f_analytic) == (sol.P, sol.F)


def test_result_keeps_the_decomposition_it_ran_on():
    res = run_reference()
    fresh = spectral.decompose(example_matrix())
    for name in ("sigma", "u", "v"):
        assert np.array_equal(getattr(res.spec, name), getattr(fresh, name))
    assert np.array_equal(res.sigma, fresh.sigma)
    kept = pipeline.verify_against_classical(res, res.spec, 0.5)
    assert kept == pipeline.verify_against_classical(res, fresh, 0.5)


def test_rank_one_peak():
    a0 = random_lowrank(2, 2, 1, seed=20, sigma=(2.0,))
    res = pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=a0, tau=0.9, t_bits=3, m_bits=8)
    )
    # y = 0.55 is inexact at m=8; both metrics sit within the
    # fixed-point envelope of 1
    bound = 4 * res.alpha * 2.0**-8
    assert res.p_sim > 1 - bound
    assert res.f_sim > 1 - bound


def test_tau_between_sigmas_gives_rank_one_target():
    a0 = random_lowrank(3, 3, 2, seed=21, sigma=(2.0, 1.0))
    res = pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=a0, tau=1.2, t_bits=3, m_bits=8)
    )
    spec = spectral.decompose(a0)
    target = spectral.to_state(spec, [1.0, 0.0])
    assert abs(np.vdot(target, res.b_state)) > 0.999
    assert res.f_sim > 0.999


def test_thresholded_triple_amplitude_vanishes():
    a0 = random_lowrank(3, 3, 2, seed=21, sigma=(2.0, 1.0))
    res = pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=a0, tau=1.2, t_bits=3, m_bits=8)
    )
    assert abs(res.triple_amplitudes[1]) < 1e-10


def test_exact_regime_instances_agree_to_1e9():
    cases = [
        ((2.0, 1.0), 0.5, 3, 2),
        ((2.0, 1.0), 0.75, 3, 3),
        ((4.0, 2.0, 1.0), 1.25, 5, 4),
    ]
    for sigma, tau, t_bits, m_bits in cases:
        a0 = random_lowrank(3, 4, len(sigma), seed=23, sigma=sigma)
        res = pipeline.run_pipeline(
            pipeline.PipelineConfig(a0=a0, tau=tau, t_bits=t_bits, m_bits=m_bits)
        )
        assert res.exact, (sigma, tau)
        assert abs(res.p_sim - res.p_analytic) < 1e-9
        assert abs(res.f_sim - res.f_analytic) < 1e-9


def test_fixed_point_errors_decay_with_m():
    # integer eigenvalues, non-dyadic shrinkage fractions
    cases = [
        ((np.sqrt(3.0), 1.0), 0.6),
        ((np.sqrt(5.0), np.sqrt(2.0)), 0.8),
        ((np.sqrt(6.0), np.sqrt(2.0)), 0.9),
    ]
    for sigma, tau in cases:
        errors = {}
        for m_bits in (4, 8, 12):
            a0 = random_lowrank(2, 2, 2, seed=24, sigma=sigma)
            res = pipeline.run_pipeline(
                pipeline.PipelineConfig(a0=a0, tau=tau, m_bits=m_bits)
            )
            assert res.pe_exact
            bound = 4.0 * res.alpha * 2.0**-m_bits
            p_err = abs(res.p_sim - res.p_analytic)
            f_err = abs(res.f_sim - res.f_analytic)
            assert p_err < bound, (sigma, tau, m_bits)
            assert f_err < bound, (sigma, tau, m_bits)
            errors[m_bits] = max(p_err, f_err)
        assert errors[12] <= errors[4] + 1e-12


def test_uncompute_residual_small_on_random_instances():
    for seed in range(5):
        a0 = random_lowrank(3, 3, 2, seed=30 + seed, sigma=(2.0, np.sqrt(2.0)))
        res = pipeline.run_pipeline(
            pipeline.PipelineConfig(a0=a0, tau=0.7, t_bits=4, m_bits=6)
        )
        assert res.pe_exact
        assert res.residual_mass < 1e-9


def test_inexact_encoding_reports_leakage_instead_of_aborting():
    a0 = random_lowrank(3, 3, 2, seed=35, sigma=(2.0, 1.2))
    res = pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=a0, tau=0.7, t_bits=4, m_bits=6)
    )
    assert not res.pe_exact and not res.exact
    assert res.residual_mass > 1e-9  # genuine leakage, reported
    assert 0.0 <= res.p_sim <= 1.0


def test_eigenvalues_near_zero_run_as_the_spectrum_scaled_up():
    # sigma^2 = (4e-10, 1e-10) were taken for the integer 0 and the run was
    # rejected ("rounds to label 0 ... raise --t-bits") at every t_bits
    small = pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=np.array([[2e-5, 0, 0], [0, 1e-5, 0]]), tau=5e-6))
    base = pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=np.array([[0.2, 0, 0], [0, 0.1, 0]]), tau=0.05))
    assert list(small.labels) == list(base.labels) == [63, 16] and not small.exact
    assert np.array_equal(small.y_codes, base.y_codes)
    for name in ("p_sim", "f_sim", "residual_mass"):
        assert abs(getattr(small, name) - getattr(base, name)) < 1e-13, name


def test_p_sim_independent_of_v_factor():
    base = spectral.decompose(example_matrix())
    results = []
    for seed in (7, 99):
        other = spectral.decompose(random_lowrank(2, 3, 2, seed=seed, sigma=(2.0, 1.0)))
        a0 = (base.u * base.sigma) @ other.v.conj().T
        res = pipeline.run_pipeline(
            pipeline.PipelineConfig(a0=a0, tau=0.5, t_bits=3, m_bits=2)
        )
        results.append(res.p_sim)
    assert results[0] == pytest.approx(results[1], abs=1e-12)


def test_one_bit_run_above_ratio_four_completes():
    # sigma_1/tau = 5 on one bit of L ends at the floor code, 2 (1 - 1/5) -> 1
    a0 = random_lowrank(2, 2, 1, seed=31, sigma=(5.0,))
    res = pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=1.0, t_bits=5, m_bits=1))
    assert res.y_codes.tolist() == [0.5] and res.newton_iterations == 1


@pytest.mark.parametrize("tau", [0.45, 0.3, 0.024])
def test_run_above_ratio_four_completes(tau):
    # sigma_1/tau = 4.4, 6.7 and 83: beyond the former fixed start of 1/2
    a0 = random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.2))
    res = pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=tau, t_bits=5, m_bits=8))
    pe_cfg = qpe.choose_t0(res.sigma**2, 5)
    for label, code in zip(res.labels, res.y_codes):
        sigma = np.sqrt(pe_cfg.decode(int(label)))
        assert abs(code * 256 - round(256 * (1 - tau / sigma))) <= 1
    assert pipeline.verify_against_classical(res, res.spec, tau).delta <= 1e-9


def test_explicit_alpha_and_shots():
    res = run_reference(alpha=1.9403, shots=4096, seed=3)
    assert res.alpha_method == "explicit"
    profile = alpha_mod.SpectrumProfile.from_sigma_tau([2.0, 1.0], 0.5)
    assert res.p_analytic == pytest.approx(
        alpha_mod.solution(profile, "explicit", 1.9403).P, abs=1e-9
    )
    assert res.p_shots is not None
    assert abs(res.p_shots - res.p_sim) < 0.05


def printed_rows(tmp_path, capsys, a0, tau, *flags):
    """The per-triple table that ``qsvt pipeline`` prints for ``a0``, one
    dict of its columns per row."""
    path = tmp_path / "a0.txt"
    np.savetxt(path, a0, fmt="%.17g", header=f"{a0.shape[0]} {a0.shape[1]}", comments="")
    assert harness.main(["pipeline", "--matrix", str(path), "--tau", str(tau), *flags]) == 0
    lines = capsys.readouterr().out.splitlines()
    head = next(i for i, line in enumerate(lines) if line.split()[:1] == ["k"])
    names = lines[head].split()
    return [dict(zip(names, map(float, line.split()))) for line in lines[head + 1 :]]


def test_verify_against_classical_reference(tmp_path, capsys):
    res = run_reference()
    spec = spectral.decompose(example_matrix())
    report = pipeline.verify_against_classical(res, spec, 0.5)
    assert report.delta <= 1e-12
    # classical target is (3 u1v1 + u2v2)/sqrt(10)
    target = spectral.to_state(spec, spectral.shrunk_values(spec, 0.5))
    weights = [abs(np.vdot(spectral.to_state(spec, basis), target)) for basis in np.eye(2)]
    assert weights == pytest.approx([3 / np.sqrt(10), 1 / np.sqrt(10)], abs=1e-12)
    assert (res.triple_amplitudes[0] / np.sqrt(res.n_alpha)).real == pytest.approx(
        2.0 / np.sqrt(4.75), abs=1e-9
    )
    # the table prints the same, to its six decimals
    rows = printed_rows(tmp_path, capsys, example_matrix(), 0.5, "--t-bits", "3", "--m-bits", "2")
    assert [row["target"] for row in rows] == [round(w, 6) for w in weights]
    assert rows[0]["sim_amp"] == round(2.0 / np.sqrt(4.75), 6)
    # f_sim, read off the triple overlaps, is the overlap with the matrix
    # route's target on an inexact and a tall run too
    for a0, tau, t_bits, m_bits in [
        (random_lowrank(3, 4, 2, seed=5, sigma=(3.1, 2.2)), 0.93, 5, 4),
        (random_lowrank(16, 2, 1, seed=5, sigma=(2.0,)), 0.5, 5, 2),
    ]:
        res = pipeline.run_pipeline(pipeline.PipelineConfig(a0, tau, t_bits, m_bits))
        assert pipeline.verify_against_classical(res, res.spec, tau).delta <= 1e-12


def test_verify_takes_a_spectrum_of_the_runs_shape_only():
    # a 4 x 4 spectrum raised NumPy's bare "cannot reshape array of size 8
    # into shape (16,)", and a 3 x 2 one, whose padded grid also has 8
    # entries, returned f_recomputed 0.0771 and delta 0.919 without a word
    res = run_reference()
    for p, q in ((4, 4), (3, 2)):
        other = spectral.decompose(random_lowrank(p, q, 2, 1, sigma=(2.0, 1.0)))
        with pytest.raises(ValidationError, match=rf"^a {p} x {q} spectrum cannot recheck the"
                                                  r" run of a 2 x 3 input$"):
            pipeline.verify_against_classical(res, other, 0.5)
    same_shape = spectral.decompose(random_lowrank(2, 3, 2, 1, sigma=(2.0, 1.0)))
    assert pipeline.verify_against_classical(res, same_shape, 0.5).delta >= 0.0


def test_verify_small_tau_target_approaches_input_state():
    a0 = random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.2))
    spec = spectral.decompose(a0)
    res = pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=0.6, t_bits=6, m_bits=8))
    assert pipeline.verify_against_classical(res, spec, 0.6).delta < 1e-10
    psi_a0 = spectral.to_state(spec, spec.sigma)
    overlaps = []
    for tau in (0.6, 0.024):
        target = spectral.to_state(spec, spectral.shrunk_values(spec, tau))
        overlaps.append(abs(np.vdot(psi_a0, target)))
    assert overlaps[1] > overlaps[0]
    assert overlaps[1] > 0.9999


def test_verify_thresholded_rows_have_zero_weight(tmp_path, capsys):
    a0 = random_lowrank(3, 3, 2, seed=21, sigma=(2.0, 1.0))
    res = pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=a0, tau=1.2, t_bits=3, m_bits=8)
    )
    assert spectral.shrunk_values(res.spec, 1.2)[1] == 0.0
    assert abs(res.triple_amplitudes[1] / np.sqrt(res.n_alpha)) < 1e-10
    row = printed_rows(tmp_path, capsys, a0, 1.2, "--t-bits", "3", "--m-bits", "8")[1]
    assert row["target"] == 0.0 and row["sim_amp"] == 0.0


def test_fully_thresholded_rejected_before_simulation():
    a0 = random_lowrank(2, 2, 1, seed=33, sigma=(1.0,))
    with pytest.raises(FullyThresholdedError):
        pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=1.5))


def test_all_zero_oracle_codes_rejected_before_the_state(monkeypatch):
    # sigma_1/tau = 2/1.7: y_1 = 0.15 lies below 2^-2, so every L code is 0
    def no_state(*args, **kwargs):
        raise AssertionError("state allocated for a run that rotates nothing")

    monkeypatch.setattr(sim, "new_state", no_state)
    message = r"every L code is 0 \(y_1 = 1 - tau/sigma_1 = 0\.15, 2\^-m = 0\.25\): .*--m-bits"
    for cfg in ({}, {"alpha_method": "numeric"}, {"alpha": 1.9403}):
        with pytest.raises(FullyThresholdedError, match=message):
            run_reference(tau=1.7, **cfg)


def test_all_zero_code_hint_names_a_width_that_can_help(monkeypatch):
    # y_1 = 0.15 first reaches 2^-m at m 3; y_1 = 2.2e-16 at m 53, past the
    # qubit budget; where codes are 0 at m 8 anyway, only a wider m can help
    for tau, hint in ((1.7, "raise --m-bits to at least 3, where 2^-m <= y_1"),
                      (2.0, f"no --m-bits up to {sim.MAX_QUBITS} gives sigma_1 a code: lower tau")):
        with pytest.raises(FullyThresholdedError, match=f"; {re.escape(hint)}$"):
            run_reference(tau=tau)
    assert run_reference(tau=1.7, m_bits=3).p_sim > 0
    build = rotation.build_sigma_tau_oracle
    monkeypatch.setattr(rotation, "build_sigma_tau_oracle",
                        lambda *args: dataclasses.replace(build(*args), y_codes={}))
    with pytest.raises(FullyThresholdedError, match="; raise --m-bits to at least 9, "):
        run_reference(tau=1.7, m_bits=8)


def test_set_up_rules_read_sigma_1s_code_not_the_largest_code(monkeypatch):
    # tau 1.5: y_1 = 0.25 is exact at m 2 and alpha = 2 pi; a code of
    # 2^m - 1 on a label that holds no eigenvalue is 3/4 * 2 pi past pi,
    # but no amplitude sits there, so neither set-up rule may read it
    want = run_reference(tau=1.5)
    assert want.alpha == pytest.approx(2 * math.pi, rel=1e-12) and want.exact
    build = rotation.build_sigma_tau_oracle
    spares = []

    def with_a_spare_code(pe_cfg, m_bits, tau):
        oracle = build(pe_cfg, m_bits, tau)
        spare = max(set(range(1 << pe_cfg.t_bits)) - set(pe_cfg.labels))
        spares.append(spare)
        return dataclasses.replace(oracle, y_codes={**oracle.y_codes, spare: (1 << m_bits) - 1})

    monkeypatch.setattr(rotation, "build_sigma_tau_oracle", with_a_spare_code)
    got = run_reference(tau=1.5)
    assert len(spares) == 1 and spares[0] not in got.labels
    for name in ("p_sim", "f_sim", "n_alpha", "p_analytic", "f_analytic", "alpha",
                 "residual_mass", "triple_amplitudes", "b_state", "y_codes"):
        assert np.allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12), name


def test_tau_of_any_real_type_runs_as_the_python_float():
    # a float32 tau carried its precision into y and P; a bool ran as tau = 1
    want = run_reference()
    for tau in (np.float32(0.5), np.float16(0.5), np.float64(0.5)):
        got = run_reference(tau=tau)
        assert got.p_sim == want.p_sim and got.f_sim == want.f_sim
        assert got.y_exact.tobytes() == want.y_exact.tobytes()
        assert got.b_state.tobytes() == want.b_state.tobytes()
    with pytest.raises(ValidationError, match="real number"):
        pipeline.PipelineConfig(a0=example_matrix(), tau=True)


# each real-number input where it enters the package, by the name its
# error gives it: what it keeps (the oracle keeps tau only in its codes)
REAL_INPUTS = {
    "threshold": lambda v: pipeline.PipelineConfig(a0=example_matrix(), tau=v).tau,
    "tau": lambda v: rotation.build_sigma_tau_oracle(qpe.choose_t0([4.0, 1.0], 3), 8, v),
    "t0": lambda v: qpe.PhaseEstimationConfig(3, v, False).t0,
    "alpha": lambda v: alpha_mod.solution(
        alpha_mod.SpectrumProfile.from_sigma_tau([2.0, 1.0], 0.5), "explicit", v).alpha,
    "tau fraction": lambda v: SweepConfig(tau_frac=v).tau_frac,
}


@pytest.mark.parametrize("name", REAL_INPUTS)
def test_every_real_number_input_is_one_checked_python_float(name):
    # tau = inf was a FullyThresholdedError, or in the oracle a bare
    # OverflowError, as 10**400 was everywhere; a float32 t0 was kept
    enter = REAL_INPUTS[name]
    want = enter(0.5)
    for value in (np.float32(0.5), np.float64(0.5), Fraction(1, 2)):
        got = enter(value)
        assert got == want and type(got) is type(want)
    for value in (0, -1, math.nan, math.inf, -math.inf, True, "0.5", 10**400, Fraction(10**400)):
        with pytest.raises(ValidationError, match=f"^{name} must be finite and positive, a real"):
            enter(value)


def _state(n):
    return sim.QuantumState(sim.RegisterLayout(0, 0, n - 1),
                            np.full(1 << n, (1 << n) ** -0.5, dtype=complex))


# each integer input where it enters the package: the name its error gives
# it, what it keeps (or, where it keeps nothing, what it makes), a value in
# range, the values out of range, and whether None means a default
INT_INPUTS = {
    "RegisterLayout.m_bits": ("m_bits", lambda v: sim.RegisterLayout(v, 1, 1).m_bits, 2, [-1]),
    "RegisterLayout.t_bits": ("t_bits", lambda v: sim.RegisterLayout(1, v, 1).t_bits, 2, [-1]),
    "RegisterLayout.b_bits": ("b_bits", lambda v: sim.RegisterLayout(1, 1, v).b_bits, 2, [0]),
    "post_select value": ("measurement value", lambda v: sim.post_select(_state(2), 0, v),
                          1, [-1, 2]),
    "random_lowrank p": ("p", lambda v: random_lowrank(v, 3, 1, 0).tobytes(), 2, [0]),
    "random_lowrank q": ("q", lambda v: random_lowrank(3, v, 1, 0).tobytes(), 2, [0]),
    "random_lowrank rank": ("rank", lambda v: random_lowrank(2, 3, v, 0).tobytes(), 2, [0, 3]),
    "random_lowrank seed": ("seed", lambda v: random_lowrank(2, 3, 2, v).tobytes(), 2, [-1]),
    "random_lowrank seed list": ("seed", lambda v: random_lowrank(2, 3, 2, [v, 1]).tobytes(),
                                 2, [-1]),
    "PipelineConfig.shots": ("shots", lambda v: pipeline.PipelineConfig(
        a0=example_matrix(), tau=0.5, shots=v).shots, 2, [-1, 1 << 63], True),
    "PipelineConfig.seed": ("seed", lambda v: pipeline.PipelineConfig(
        a0=example_matrix(), tau=0.5, seed=v).seed, 2, [-1]),
    "choose_t0 t_bits": ("t_bits", lambda v: qpe.choose_t0([4.0, 1.0], v).t_bits, 3, [0, 27],
                         True),
    "PhaseEstimationConfig.t_bits": ("t_bits", lambda v: qpe.PhaseEstimationConfig(
        v, 0.7, False).t_bits, 2, [0, 27]),
    "PhaseEstimationConfig.labels": ("labels", lambda v: qpe.PhaseEstimationConfig(
        3, 0.7, False, (v,)).labels, 2, [-1, 8]),
    "build_sigma_tau_oracle m_bits": ("m_bits", lambda v: rotation.build_sigma_tau_oracle(
        qpe.choose_t0([4.0, 1.0], 3), v, 0.5).m_bits, 2, [0, 27]),
    "SweepConfig.n_instances": ("n_instances", lambda v: SweepConfig(n_instances=v).n_instances,
                                2, [0]),
    "SweepConfig.jobs": ("jobs", lambda v: SweepConfig(jobs=v).jobs, 2, [0]),
    "SweepConfig.seed": ("seed", lambda v: SweepConfig(seed=v).seed, 2, [-1]),
    "SweepConfig.t_bits": ("t_bits", lambda v: SweepConfig(t_bits=v).t_bits, 2, [0, 27]),
    "SweepConfig.m_bits": ("m_bits", lambda v: SweepConfig(m_bits=v).m_bits, 2, [0, 27]),
    "SweepConfig.shape": ("shape", lambda v: SweepConfig(shape=(v, 3)).shape, 2, [0]),
    "SweepConfig.rank": ("rank", lambda v: SweepConfig(rank=v).rank, 2, [0, 7], True),
}


def _types(x):
    return [type(v) for v in x] if isinstance(x, tuple) else type(x)


@pytest.mark.parametrize("entry", INT_INPUTS)
def test_every_integer_input_is_one_checked_python_int(entry):
    # a NumPy integer was kept as one; a float, a bool or a str took one of
    # seven hand-written checks, or none (SweepConfig(shape=5) died in len)
    name, enter, good, out_of_range, *none_is_default = INT_INPUTS[entry]
    want = enter(good)
    got = enter(np.int64(good))
    assert got == want and _types(got) == _types(want)
    bad = [2.0, True, "2", *([] if none_is_default else [None]), *out_of_range]
    for value in bad:
        with pytest.raises(ValidationError, match=f"^{name} must "):
            enter(value)


def test_unknown_alpha_method_is_rejected_where_it_enters():
    # with an explicit alpha the name was never read; without one it failed after the SVD
    for alpha in (1.0, None):
        with pytest.raises(ValidationError, match="unknown alpha method 'bogus'"):
            pipeline.PipelineConfig(a0=example_matrix(), tau=0.5, alpha=alpha, alpha_method="bogus")


def test_missing_tau_rejected_before_simulation():
    with pytest.raises(ValidationError, match="real number"):
        pipeline.run_pipeline(pipeline.PipelineConfig(a0=example_matrix(), tau=None))


@pytest.mark.parametrize("a0, tau, t_bits, match", [
    # sigma = (7.96, 1.056, 0.194): labels (255, 4, 0) at t_bits 8, and
    # sigma_3 above tau 0.1
    (random_lowrank(8, 8, 3, 1), 0.1, 8, r"^singular value 0\.194231 above tau rounds to label 0"
     r" at t_bits=8, which decodes to 0: raise --t-bits$"),
    # sigma^2 = (16, 1.21, 1): labels (15, 1, 1) at t_bits 4, sigma_2 and
    # sigma_3 above tau, then sigma_2 above and sigma_3 below
    (np.diag([4.0, 1.1, 1.0]), 0.5, 4, r"^singular value 1\.1 above tau rounds to label 1"
     r" at t_bits=4, which holds another eigenvalue: raise --t-bits$"),
    (np.diag([4.0, 1.1, 1.0]), 1.05, 4, "label 1 at t_bits=4, which holds another eigenvalue"),
], ids=["live label 0", "live shared label", "live and thresholded shared label"])
def test_a_singular_value_above_tau_needs_a_label_of_its_own(monkeypatch, a0, tau, t_bits, match):
    def no_state(*args, **kwargs):
        raise AssertionError("state allocated before the label check")

    monkeypatch.setattr(sim, "new_state", no_state)
    with pytest.raises(ValidationError, match=match):
        pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=tau, t_bits=t_bits, m_bits=8))


@pytest.mark.parametrize("a0, tau, t_bits, labels", [
    # sigma_3 = 0.194 on label 0 and sigma_2 alone on label 4, both below
    # tau = 0.3 sigma_1 = 2.39; the run was rejected for label 0
    (random_lowrank(8, 8, 3, 1), 0.3 * spectral.decompose(random_lowrank(8, 8, 3, 1)).sigma[0],
     8, [255, 4, 0]),
    # sigma_2 = 1.1 and sigma_3 = 1 share label 1, both below tau
    (np.diag([4.0, 1.1, 1.0]), 1.2, 4, [15, 1, 1]),
], ids=["thresholded label 0", "thresholded shared label"])
def test_thresholded_eigenvalues_run_on_label_0_or_a_shared_label(a0, tau, t_bits, labels):
    res = pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=tau, t_bits=t_bits, m_bits=8))
    assert list(res.labels) == labels and not res.pe_exact
    assert res.y_codes[0] > 0 and list(res.y_codes[1:]) == [0.0, 0.0]
    assert pipeline.verify_against_classical(res, res.spec, tau).delta <= 1e-15


def test_taylor4_fallback_warns_and_runs_at_taylor2s_alpha(monkeypatch):
    def no_root(profile):
        raise ValidationError("taylor4 quartic has a negative discriminant")

    monkeypatch.setattr(alpha_mod, "_RULES", {**alpha_mod._RULES, "taylor4": no_root})
    with pytest.warns(UserWarning, match="^taylor4 discriminant negative; used taylor2$"):
        res = run_reference(alpha_method="taylor4")
    want = run_reference(alpha_method="taylor2")
    assert (res.alpha, res.p_analytic, res.p_sim) == (want.alpha, want.p_analytic, want.p_sim)
    # the result names the rule that made alpha, where it named the one asked for
    assert res.alpha_method == "taylor2"
    assert run_reference(alpha=want.alpha).alpha_method == "explicit"
    # a sweep row keeps the rule it asked for, the key its records are read
    # by, and the sweep warns with the note, as the run does
    cfg = SweepConfig(n_instances=1, methods=("taylor4",), shape=(2, 3), simulate=True)
    with pytest.warns(UserWarning, match="^taylor4 discriminant negative; used taylor2$"):
        [rec] = harness.run_sweep_instance(cfg, 0)
    assert (rec.alpha_method, rec.error) == ("taylor4", "")


def test_bad_alpha_and_shots_rejected_before_the_state(monkeypatch):
    def no_state(*args, **kwargs):
        raise AssertionError("state allocated before the input check")

    monkeypatch.setattr(sim, "new_state", no_state)
    # alpha = 100 puts y_1 = 0.75 far past the first sine lobe; 4.2 just
    # past it (0.75 * 4.2 > pi), while 4.18 stays inside and runs
    for alpha, match in ((-1.0, "positive"), (0.0, "positive"), (np.nan, "finite"),
                         (np.inf, "finite"), (-np.inf, "finite"), (100.0, "single-lobed"),
                         (4.2, "single-lobed"), (True, "real number"), ("1.2", "real number")):
        with pytest.raises(ValidationError, match=match):
            run_reference(alpha=alpha)
    for shots in (-5, 2.5, "10", 10**20):  # 10**20 ran, then overflowed Generator.binomial
        with pytest.raises(ValidationError, match="shots"):
            run_reference(shots=shots)
    monkeypatch.undo()
    assert run_reference(alpha=4.18).alpha == 4.18


def test_memory_budget_counts_e_rows_before_the_state(monkeypatch):
    # the state and the table of E's label products, with the row being
    # folded into it and its exponential's temporary, are counted before
    # the state is made; the FFT on C makes no matrix (a DFT
    # pair of 2^t points was counted, and t 16 died on a bare 32 GiB int64
    # allocation in building it)
    def no_state(*args, **kwargs):
        raise AssertionError("state allocated for a run that does not fit")

    layouts, check_budget = [], sim.check_budget
    monkeypatch.setattr(sim, "check_budget",
                        lambda layout, *args: layouts.append(layout) or check_budget(layout, *args))
    monkeypatch.setattr(sim, "new_state", no_state)
    n = 2 + 8 + 1 + 1  # L, C, the ancilla and B
    # the 256 x 2 table of E's label products and two rows of 2 phases
    need = (16 << n) + (256 + 2) * (16 << 1)
    assert need == (16 << n) + qpe.matrix_bytes(8, 1)
    for budget in (16 << n, need - 1):  # the state alone fits
        monkeypatch.setattr(sim, "MEMORY_BYTES", budget)
        with pytest.raises(ValidationError, match=(
                rf"^memory budget exceeded: a {n}-qubit state with E's 256 x 2 table on the"
                rf" Schmidt index, the row being folded into it and herm_exp's temporary"
                rf" takes {need} bytes,"
                rf" the machine has {budget}$")):
            run_reference(t_bits=8)
    assert [layout.n_qubits for layout in layouts] == [n, n]
    monkeypatch.undo()  # the run that fits its budget exactly is made
    monkeypatch.setattr(sim, "MEMORY_BYTES", need)
    assert run_reference(t_bits=8).t_bits == 8
    # 1024 x 1 at t 3 was refused by 32 MiB, as E's factors were 1024x1024 and
    # four 16 MiB copies of one of them outgrew it; phase estimation now acts
    # on the rank-one Schmidt index, padded to a qubit, so E's rows hold 2
    # phases and it runs
    monkeypatch.setattr(sim, "MEMORY_BYTES", 32 << 20)
    res = pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=np.ones((1024, 1)), tau=0.5, t_bits=3, m_bits=2))
    assert res.b_state.shape == (1024,)
    assert pipeline.verify_against_classical(res, res.spec, 0.5).delta <= 1e-12


@pytest.mark.parametrize("p, q, sigma, t_bits, m_bits", [
    (5, 2, (2.0, 1.1), 6, 5), (16, 2, (2.0, 1.0), 4, 4), (1024, 1, (2.0,), 3, 2)])
def test_a_tall_input_runs_as_its_transpose(p, q, sigma, t_bits, m_bits):
    # A0^T has the same sigma, and its SVT is the transpose of A0's: the run
    # matches A0^T's own run, with b transposed into A0's layout
    a0 = random_lowrank(p, q, len(sigma), seed=11, sigma=sigma)
    cfg = dict(tau=0.5, t_bits=t_bits, m_bits=m_bits)
    res = pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, **cfg))
    ref = pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0.T.copy(), **cfg))
    dp, dq = spectral.pad_dim(p), spectral.pad_dim(q)
    assert res.b_state.shape == (dp * dq,) and res.spec.u.shape == (p, len(sigma))
    b_ref = ref.b_state.reshape(-1, dp)[:dq].T.reshape(-1)
    assert np.abs(res.b_state - b_ref).max() <= 1e-14
    # sigma_k times an overlap: within 1e-14 of sigma_1
    assert np.abs(res.triple_amplitudes - ref.triple_amplitudes).max() <= 1e-14 * sigma[0]
    for name in ("p_sim", "f_sim"):
        assert abs(getattr(res, name) - getattr(ref, name)) <= 1e-14, name
    assert pipeline.verify_against_classical(res, res.spec, 0.5).delta <= 1e-12


@pytest.mark.parametrize("q", [1, 4, 8])
def test_a_single_row_runs(q):
    # one row was rejected: phase estimation acts on the Schmidt index,
    # which holds at least one qubit
    a0 = random_lowrank(1, q, 1, seed=3, sigma=(2.0,))
    res = pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=0.5, t_bits=3, m_bits=4))
    assert pipeline.verify_against_classical(res, res.spec, 0.5).delta <= 1e-12
    assert abs(res.p_sim - res.p_analytic) <= 4 * res.alpha * 2.0**-res.m_bits


def test_e_acts_on_all_of_b_the_padded_rank_never_wider_than_the_shorter_side(monkeypatch):
    # B is the input's Schmidt index, log2 pad(max(r, 2)) qubits, and E acts
    # on all of it: for every p, q <= 64 at ranks 1 to 3 the run's set-up is
    # stopped at its budget check, and E's register is no wider than the
    # input's shorter side, padded to at least 2, where it acted before
    class Stop(Exception):
        pass

    def stop(layout, extra=0, what=""):
        raise Stop(layout.b_bits)

    e_widths = []
    monkeypatch.setattr(qpe, "matrix_bytes", lambda t, e: e_widths.append(e) or 0)
    monkeypatch.setattr(sim, "check_budget", stop)
    for p, q in itertools.product(range(1, 65), repeat=2):
        r = min(p, q, 3)
        a0 = np.zeros((p, q))
        a0[range(r), range(r)] = (3.0, 2.0, 1.0)[:r]
        with pytest.raises(Stop) as stopped:
            pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=0.5, t_bits=4, m_bits=1))
        [b_bits], e_bits = stopped.value.args, e_widths.pop()
        assert e_bits == b_bits and 1 << b_bits == spectral.pad_dim(max(r, 2)), (p, q)
        assert 1 << b_bits <= max(2, min(spectral.pad_dim(p), spectral.pad_dim(q))), (p, q)


def test_a_large_square_input_runs_on_its_schmidt_index():
    # 256 x 256 rank 4 at t 5 and m 8: B took 16 qubits as the full data
    # register, and the run 30, over MAX_QUBITS; the Schmidt index takes 2
    a0 = random_lowrank(256, 256, 4, 0, sigma=(4.0, 3.0, 2.0, 1.0))
    res = pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=1.5))
    assert res.b_state.shape == (256 * 256,) and res.exact
    assert pipeline.verify_against_classical(res, res.spec, 1.5).delta <= 1e-12


def test_a_high_rank_input_counts_and_makes_e_as_rows_of_phases(monkeypatch):
    # 256 x 256 at rank 200, sigma_1 = 10 alone above tau = 5, at t 3 and
    # m 2: E on the 8-qubit Schmidt index was 3 dense 256 x 256 factors and
    # the run's traced peak 13.4 MiB; as 3 rows of 256 phases it is 4.6 MiB
    sigma = np.r_[10.0, np.linspace(4.9, 0.1, 199)]
    a0 = random_lowrank(256, 256, 200, 0, sigma=sigma)
    cfg = pipeline.PipelineConfig(a0=a0, tau=5.0, t_bits=3, m_bits=2)
    pipeline.run_pipeline(cfg)  # a warm run: the register checks cached
    tracemalloc.start()
    try:
        res = pipeline.run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20
    assert pipeline.verify_against_classical(res, res.spec, 5.0).delta <= 1e-12
    # the budget counts the state, the 8 x 256 table of E's label products
    # and two rows of 256 phases, the row being folded and its temporary
    n = 2 + 3 + 1 + 8
    need = (16 << n) + (8 + 2) * (16 << 8)
    assert need == (16 << n) + qpe.matrix_bytes(3, 8)
    monkeypatch.setattr(sim, "MEMORY_BYTES", need - 1)
    with pytest.raises(ValidationError, match=(
            rf"^memory budget exceeded: a {n}-qubit state with E's 8 x 256 table on the"
            rf" Schmidt index, the row being folded into it and herm_exp's temporary"
            rf" takes {need} bytes")):
        pipeline.run_pipeline(cfg)
    monkeypatch.setattr(sim, "MEMORY_BYTES", need)
    assert pipeline.run_pipeline(cfg).p_sim == res.p_sim


def test_single_row_runs_and_ragged_input_is_rejected_before_the_state(monkeypatch):
    # one row was rejected, as phase estimation had no qubit to act on; the
    # Schmidt index holds at least one
    a0 = np.array([[3.0, 1.0, 2.0, 0.5]])
    res = pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=2.0))
    assert pipeline.verify_against_classical(res, spectral.decompose(a0), 2.0).delta <= 1e-12

    def no_state(*args, **kwargs):
        raise AssertionError("state allocated before the shape check")

    monkeypatch.setattr(sim, "new_state", no_state)
    # ragged rows raised NumPy's bare ValueError
    with pytest.raises(ValidationError, match="must be rectangular"):
        pipeline.run_pipeline(pipeline.PipelineConfig(a0=[[1, 2], [3]], tau=0.5))


def test_run_does_not_depend_on_the_scale_of_the_input():
    # A0 and tau scaled together: the same labels, codes, P, F and residual
    a0 = random_lowrank(3, 4, 3, seed=5, sigma=(3.1, 2.2, 1.3))
    cfg = dict(t_bits=5, m_bits=6)
    base = pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=0.93, **cfg))
    for scale in (1e-3, 1e-1, 1e2, 1e4, 1e6):
        res = pipeline.run_pipeline(
            pipeline.PipelineConfig(a0=scale * a0, tau=0.93 * scale, **cfg)
        )
        assert np.array_equal(res.labels, base.labels), scale
        assert np.array_equal(res.y_codes, base.y_codes), scale
        for name in ("p_sim", "f_sim", "residual_mass"):
            assert abs(getattr(res, name) - getattr(base, name)) < 1e-13, (scale, name)


def test_a_spectrum_whose_squares_underflow_is_rejected_before_the_state(monkeypatch):
    # sigma = (2e-150, 1e-150): N1 * N2 underflowed to 0, and alpha.solution
    # divided by it, a bare ZeroDivisionError
    def no_state(*args, **kwargs):
        raise AssertionError("state allocated for a spectrum out of the float range")

    monkeypatch.setattr(sim, "new_state", no_state)
    with pytest.raises(ValidationError, match=r"^sums of sigma\^2 leave the float range.*rescale A"):
        pipeline.run_pipeline(pipeline.PipelineConfig(a0=example_matrix() * 1e-150, tau=5e-151))


def test_shots_sample_a_probability_that_rounds_above_one(monkeypatch):
    # p_sim is a sum of squares and can land just above 1: rank one with
    # y = 1/2 exact at m = 2 and alpha = pi rotates the ancilla fully onto
    # |1>, and on the full data register its sum read 1 + 3 2^-52; on the
    # Schmidt index it reads 1 - 2^-51, so post-select is made to read the
    # float above 1 after its own checks
    post_select = sim.post_select

    def above_one(*args):
        post_select(*args)
        return 1.0 + 2.0**-52

    monkeypatch.setattr(sim, "post_select", above_one)
    a0 = random_lowrank(3, 4, 1, 9)
    tau = 0.5 * spectral.decompose(a0).sigma[0]
    res = pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=a0, tau=tau, t_bits=3, m_bits=2, shots=10)
    )
    assert res.p_sim > 1.0
    assert res.p_shots == 1.0
    assert pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=a0, tau=tau, t_bits=3, m_bits=2, shots=0)
    ).p_shots is None
