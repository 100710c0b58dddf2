import collections

import numpy as np
import pytest

from qsvt import alpha as alpha_mod
from qsvt import pipeline, qpe, rotation, sim, spectral
from qsvt.errors import ConvergenceError, FullyThresholdedError, ValidationError
from qsvt.harness import example_matrix, random_lowrank
from qsvt.rotation import NewtonConfig

from gates import bitwise_conditional_evolution, bitwise_ry_cascade


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


def test_reference_instance_triple_amplitudes():
    res = run_reference()
    unnorm = np.abs(res.triple_amplitudes)
    assert abs(unnorm[0] - 1.9999) <= 1e-3
    assert abs(unnorm[1] - 0.8660) <= 1e-3
    assert res.exact and res.pe_exact and res.y_repr_exact
    assert res.labels.tolist() == [4, 1]


def test_reference_agreement_in_exact_regime():
    res = run_reference()
    assert abs(res.p_sim - res.p_analytic) < 1e-9
    assert abs(res.f_sim - res.f_analytic) < 1e-9
    assert res.residual_mass < 1e-9


def test_reference_run_passes_over_the_state(monkeypatch):
    # every counted function reads or writes the whole state once per call
    counts = collections.Counter()
    for name in ("check_norm", "register_mass", "apply_unitary", "apply_controlled",
                 "apply_basis_oracle"):
        def counted(*args, _real=getattr(sim, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(sim, name, counted)
    run_reference()
    # QFT and QFT^-1 per phase estimation, no Hadamard layers on C, and
    # no pass over L in the cascade
    assert counts == {"check_norm": 7, "register_mass": 3, "apply_unitary": 4,
                      "apply_controlled": 3, "apply_basis_oracle": 2}


@pytest.mark.parametrize(
    "cfg",
    [
        dict(a0=example_matrix(), tau=0.5, t_bits=3, m_bits=2),
        dict(a0=random_lowrank(3, 4, 2, seed=5, sigma=(3.1, 2.2)), tau=0.93, t_bits=5, m_bits=4),
        # u-factor 16 wide: C is cut into runs of 2, 2 and 1 qubits
        dict(a0=random_lowrank(16, 2, 1, seed=5, sigma=(2.0,)), tau=0.5, t_bits=5, m_bits=2),
    ],
    ids=["paper", "inexact", "tall"],
)
def test_run_matches_the_bitwise_controlled_circuit(monkeypatch, cfg):
    # the controlled evolution and the cascade spelled as one
    # single-qubit-controlled gate per control bit, as the paper draws them
    run = pipeline.run_pipeline(pipeline.PipelineConfig(**cfg))
    monkeypatch.setattr(qpe, "conditional_evolution", bitwise_conditional_evolution)
    monkeypatch.setattr(rotation, "ry_cascade", bitwise_ry_cascade)
    calls = collections.Counter()
    apply_controlled = sim.apply_controlled
    monkeypatch.setattr(
        sim, "apply_controlled", lambda *a: calls.update(["gate"]) or apply_controlled(*a)
    )
    reference = pipeline.run_pipeline(pipeline.PipelineConfig(**cfg))
    assert calls["gate"] == 2 * cfg["t_bits"] + cfg["m_bits"]
    assert run.exact == reference.exact == (cfg["tau"] == 0.5)
    for name in ("p_sim", "f_sim", "residual_mass", "triple_amplitudes", "b_state"):
        assert np.abs(getattr(run, name) - getattr(reference, name)).max() < 1e-12, name


def test_analytic_p_and_f_are_the_resolved_solutions():
    for method in ("intuitive", "taylor2", "taylor4", "numeric"):
        res = run_reference(alpha_method=method)
        profile = alpha_mod.SpectrumProfile.from_sigma_tau(res.sigma, 0.5)
        assert res.p_analytic == alpha_mod.probability(profile, res.alpha)
        assert res.f_analytic == alpha_mod.fidelity_analytic(profile, res.alpha)
    # an explicit alpha goes through the same constructor
    res = run_reference(alpha=1.9403)
    profile = alpha_mod.SpectrumProfile.from_sigma_tau(res.sigma, 0.5)
    assert res.p_analytic == alpha_mod.probability(profile, 1.9403)
    assert res.f_analytic == alpha_mod.fidelity_analytic(profile, 1.9403)


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


def test_newton_nonconvergence_aborts_run():
    a0 = random_lowrank(2, 2, 1, seed=31, sigma=(5.0,))
    with pytest.raises(ConvergenceError):
        pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=1.0, t_bits=5))


def test_explicit_alpha_and_shots():
    res = run_reference(alpha=1.9403, shots=4096, seed=3)
    assert res.alpha_method == "explicit"
    assert res.p_analytic == pytest.approx(
        alpha_mod.probability(
            alpha_mod.SpectrumProfile.from_sigma_tau([2.0, 1.0], 0.5), 1.9403
        ),
        abs=1e-9,
    )
    assert res.p_shots is not None
    assert abs(res.p_shots - res.p_sim) < 0.05


def test_verify_against_classical_reference():
    res = run_reference()
    spec = spectral.decompose(example_matrix())
    report = pipeline.verify_against_classical(res, spec, 0.5)
    assert report.delta < 1e-10
    # classical target is (3 u1v1 + u2v2)/sqrt(10)
    assert report.rows[0].target_weight == pytest.approx(3 / np.sqrt(10), abs=1e-12)
    assert report.rows[1].target_weight == pytest.approx(1 / np.sqrt(10), abs=1e-12)
    assert report.rows[0].sim_amplitude.real == pytest.approx(
        2.0 / np.sqrt(4.75), abs=1e-9
    )


def test_verify_small_tau_target_approaches_input_state():
    # small tau needs an initial value near 1 to stay in the Newton basin
    a0 = random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.2))
    spec = spectral.decompose(a0)
    overlaps = []
    for tau in (0.6, 0.024):
        initial = 0.5 if tau == 0.6 else 0.99
        res = pipeline.run_pipeline(
            pipeline.PipelineConfig(
                a0=a0,
                tau=tau,
                t_bits=6,
                m_bits=8,
                newton=NewtonConfig(m_bits=8, initial=initial),
            )
        )
        report = pipeline.verify_against_classical(res, spec, tau)
        assert report.delta < 1e-10
        psi_a0 = spectral.to_state(spec, spec.sigma)
        target = spectral.to_state(spec, spectral.shrunk_values(spec, tau))
        overlaps.append(abs(np.vdot(psi_a0, target)))
    assert overlaps[1] > overlaps[0]
    assert overlaps[1] > 0.9999


def test_verify_thresholded_rows_have_zero_weight():
    a0 = random_lowrank(3, 3, 2, seed=21, sigma=(2.0, 1.0))
    res = pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=a0, tau=1.2, t_bits=3, m_bits=8)
    )
    spec = spectral.decompose(a0)
    report = pipeline.verify_against_classical(res, spec, 1.2)
    assert report.rows[1].target_weight == 0.0
    assert abs(report.rows[1].sim_amplitude) < 1e-10


def test_fully_thresholded_rejected_before_simulation():
    a0 = random_lowrank(2, 2, 1, seed=33, sigma=(1.0,))
    with pytest.raises(FullyThresholdedError):
        pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=1.5))


def test_missing_tau_rejected_before_simulation():
    with pytest.raises(ValidationError, match="real number"):
        pipeline.run_pipeline(pipeline.PipelineConfig(a0=example_matrix(), tau=None))


def test_eigenvalue_rounding_to_label_zero_is_a_resolution_error(monkeypatch):
    # sigma = (7.96, 1.056, 0.194): labels (255, 4, 0) at t_bits 8
    a0 = random_lowrank(8, 8, 3, 1)
    sigma = spectral.decompose(a0).sigma

    def no_state(*args, **kwargs):
        raise AssertionError("state allocated before the resolution check")

    monkeypatch.setattr(sim, "new_state", no_state)
    with pytest.raises(ValidationError, match="label 0 at t_bits=8"):
        qpe.choose_t0(sigma**2, 8)
    with pytest.raises(ValidationError, match="label 0 at t_bits=8"):
        pipeline.run_pipeline(
            pipeline.PipelineConfig(a0=a0, tau=0.3 * sigma[0], t_bits=8, m_bits=8)
        )


def test_bad_alpha_and_shots_rejected_before_the_state(monkeypatch):
    def no_state(*args, **kwargs):
        raise AssertionError("state allocated before the input check")

    monkeypatch.setattr(sim, "new_state", no_state)
    # alpha = 100 puts sigma_1's code 0.75 far past the first sine lobe
    for alpha, match in ((-1.0, "positive"), (0.0, "positive"), (np.nan, "finite"),
                         (np.inf, "finite"), (100.0, "single-lobed")):
        with pytest.raises(ValidationError, match=match):
            run_reference(alpha=alpha)
    for shots in (-5, 2.5, "10"):
        with pytest.raises(ValidationError, match="shots"):
            run_reference(shots=shots)


def test_shots_sample_a_probability_that_rounds_above_one():
    # rank one with y = 1/2 exact at m = 2 and alpha = pi: the ancilla is
    # rotated fully onto |1>, and the sum of squares lands just above 1
    a0 = random_lowrank(3, 4, 1, 0)
    tau = 0.5 * spectral.decompose(a0).sigma[0]
    res = pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=a0, tau=tau, t_bits=3, m_bits=2, shots=10)
    )
    assert res.p_sim > 1.0
    assert res.p_shots == 1.0
    assert pipeline.run_pipeline(
        pipeline.PipelineConfig(a0=a0, tau=tau, t_bits=3, m_bits=2, shots=0)
    ).p_shots is None
