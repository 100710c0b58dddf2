"""The benchmark's workloads: inputs built from a seed, one operation
through qsvt's public API, and a check of every operation's output that
does not trust the simulator.

Why these three:

* circuit_large: the paper's circuit at 23 qubits (a 128 MiB state) in
  the inexact-encoding regime, where C stays dense after phase
  estimation.  Bound by memory bandwidth in ``sim``; the ground for any
  simulator kernel or oracle change.  Not gated in BENCHMARK.json: its
  wall-clock spread on a shared host is too wide (see NOTES.md).
* paper_example: the paper's 9-qubit reference instance in the exact
  regime.  512 amplitudes, so fixed per-call costs (gate set-up,
  validation, Newton, alpha) dominate; a kernel change that adds set-up
  to each gate shows here as a loss.
* analytic_sweep: the paper's alpha-rule comparison over the default
  sweep corpus, simulation off.  ``sim``, ``qpe`` and ``rotation`` are
  never called, so a simulator change must leave it unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from qsvt import harness, pipeline, qpe, spectral

import model
import spans

VERIFY_TOL = 1e-9
G_SLACK = 1e-12

_SIM = [f"sim.{name}" for name in spans.SIM_FUNCTIONS] + ["sim.QuantumState.norm"]
_QPE = [f"qpe.{name}" for name in spans.QPE_FUNCTIONS] + ["qpe.phase_estimate_inverse"]
_ROTATION = [f"rotation.{name}" for name in spans.ROTATION_FUNCTIONS] + [
    "rotation.SigmaTauOracle.apply"
]


@dataclass(frozen=True)
class Circuit:
    """One op is ``run_pipeline`` on a seeded low-rank input with a fixed
    spectrum (u and v vary with the seed), intuitive alpha."""

    name: str
    shape: tuple[int, int]
    sigma: tuple[float, ...]
    tau: float
    t_bits: int
    m_bits: int
    nominal_op_s: float
    trace_ops: int
    expected: dict | None = None
    calibrated: bool = True

    required = tuple(
        _SIM + _QPE + _ROTATION
        + [f"spectral.{name}" for name in ("decompose", "gram", "to_state")]
        + ["alpha.resolve_alpha.intuitive", "pipeline.run_pipeline",
           "pipeline.verify_against_classical", "harness.random_lowrank"]
    )
    forbidden = ()

    def inputs(self, seed: int, n: int) -> list:
        p, q = self.shape
        return [
            harness.random_lowrank(p, q, len(self.sigma), [seed, i], sigma=self.sigma)
            for i in range(n)
        ]

    def run(self, a0):
        return pipeline.run_pipeline(
            pipeline.PipelineConfig(a0=a0, tau=self.tau, t_bits=self.t_bits, m_bits=self.m_bits)
        )

    def check(self, a0, result, quiet) -> list[str]:
        """Model agreement, the classical fidelity recheck and, for the
        paper's instance, its published P, F and N_alpha."""
        p, q = self.shape
        with quiet():
            spec = spectral.decompose(a0)
            t0 = qpe.choose_t0(spec.sigma**2, self.t_bits).t0
        problems = model.mismatches(
            result, spec.u, spec.v, spectral.pad_dim(p), spectral.pad_dim(q), t0
        )
        delta = pipeline.verify_against_classical(result, spec, self.tau).delta
        if not delta <= VERIFY_TOL:
            problems.append(f"fidelity recheck delta {delta:.3e}")
        if self.expected is not None:
            got = {"P": result.p_sim, "F": result.f_sim, "N_alpha": result.n_alpha}
            for key, want in self.expected.items():
                if not abs(got[key] - want) <= harness.EXAMPLE_TOL:
                    problems.append(f"{key} = {got[key]:.6f}, paper {want}")
        return problems


@dataclass(frozen=True)
class Sweep:
    """One op is ``run_sweep_instance`` of the default sweep corpus with
    all four alpha methods; instance i of seed s is corpus index i."""

    name: str
    nominal_op_s: float
    trace_ops: int
    calibrated = True

    required = tuple(
        ["spectral.decompose", "harness.run_sweep_instance", "harness.random_lowrank"]
        + [f"alpha.resolve_alpha.{method}" for method in spans.ALPHA_METHODS]
    )
    forbidden = tuple(_SIM + _QPE + _ROTATION)

    def inputs(self, seed: int, n: int) -> list:
        cfg = harness.SweepConfig(methods=spans.ALPHA_METHODS, seed=seed)
        return [(cfg, i) for i in range(n)]

    def run(self, item):
        return harness.run_sweep_instance(*item)

    def check(self, item, records, quiet) -> list[str]:
        """No record errors, and numeric's G = sqrt(P) F is not below any
        closed-form rule's."""
        problems = [f"{rec.alpha_method}: {rec.error}" for rec in records if rec.error]
        if problems:
            return problems
        g = {rec.alpha_method: math.sqrt(rec.p_analytic) * rec.f_analytic for rec in records}
        if sorted(g) != sorted(spans.ALPHA_METHODS):
            return [f"methods {sorted(g)}"]
        return [
            f"numeric G {g['numeric']:.15f} below {method} G {g[method]:.15f}"
            for method in ("intuitive", "taylor2", "taylor4")
            if g["numeric"] < g[method] - G_SLACK
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Circuit(
            name="circuit_large",
            shape=(8, 8),
            sigma=(3.1, 2.2, 1.3),
            tau=0.3 * 3.1,
            t_bits=8,
            m_bits=8,
            nominal_op_s=14.0,
            trace_ops=1,
            # A 13 s op spans many swings of host speed, which a kernel
            # timed before it cannot follow: reported as wall clock.
            calibrated=False,
        ),
        Circuit(
            name="paper_example",
            shape=(2, 3),
            sigma=(2.0, 1.0),
            tau=0.5,
            t_bits=3,
            m_bits=2,
            nominal_op_s=3.6e-3,
            trace_ops=400,
            expected=harness.EXAMPLE_EXPECTED,
        ),
        Sweep(name="analytic_sweep", nominal_op_s=1.25e-3, trace_ops=2000),
    )
}
