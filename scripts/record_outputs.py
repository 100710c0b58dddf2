"""Write tests/data/outputs.json: the program's outputs on a fixed set of
inputs, which tests/test_outputs.py reruns and compares.

    python3 scripts/record_outputs.py

Run from the root of a source checkout; qsvt is imported from its src/.
Each record holds its own input and the outputs that input gave:

- ``run``: one ``run_pipeline`` of ``random_lowrank(p, q, rank, seed,
  sigma)`` at tau (or tau_frac times sigma_1), t, m, an alpha rule or an
  explicit alpha, and shots with their seed.  Its outputs are the labels,
  codes and Newton iterations, alpha with the analytic P and F, p_sim,
  f_sim, the residual, n_alpha, the triple amplitudes (re, im), the shot
  estimate and ``verify_against_classical``'s f_recomputed; or the
  error's type and message.
- ``rules``: a spectrum (sigma, tau) and, per rule of ``alpha.METHODS``,
  ``resolve_alpha``'s [method, alpha, P, F, G, note], or its error.

The inputs are a grid of runs (shapes 2x3 ... 16x16, ranks 1 and
min(p, q, 8), two seeds, three (t, m) pairs, intuitive and numeric
alpha), the paper instance's runs, inputs that fail, and the rule
records of test_alpha.py's reference spectra and of its beyond-the-lobe
profile.  A scaled-regime run whose 2^m y' sits within 1e-9 of an
integer for some label is refused: its floor code there follows sigma_1's
last bit, which another BLAS may round the other way.

A change that moves an output on purpose regenerates the file and says
which records moved.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "outputs.json"
sys.path.insert(0, str(ROOT / "src"))

from qsvt import alpha as alpha_mod  # noqa: E402
from qsvt import harness, pipeline, qpe, spectral  # noqa: E402
from qsvt.errors import QsvtError  # noqa: E402

# a scaled-regime 2^m y' this close to an integer is refused
GRID_MARGIN = 1e-9

SHAPES = ((2, 3), (3, 2), (1, 5), (9, 2), (4, 4), (8, 8), (16, 16))
SEEDS = ([0, 1], [1, 1])
WIDTHS = ((None, 8), (6, 8), (3, 4))  # (t_bits, m_bits); None: choose_t0's default
GRID_METHODS = ("intuitive", "numeric")
PAPER = {"p": 2, "q": 3, "rank": 2, "seed": 7, "sigma": [2.0, 1.0], "t_bits": 3, "m_bits": 2}


def run_input(p, q, rank, seed, *, sigma=None, tau=None, tau_frac=None, t_bits=None,
              m_bits=8, alpha_method="intuitive", alpha=None, shots=None, shot_seed=0) -> dict:
    """A run's input; exactly one of tau and tau_frac is given."""
    assert (tau is None) != (tau_frac is None)
    return {"kind": "run", "p": p, "q": q, "rank": rank, "seed": seed, "sigma": sigma,
            "tau": tau, "tau_frac": tau_frac, "t_bits": t_bits, "m_bits": m_bits,
            "alpha_method": alpha_method, "alpha": alpha, "shots": shots,
            "shot_seed": shot_seed}


def run_inputs() -> list[tuple[str, dict]]:
    """(name, input) of every run record."""
    runs = []
    grid = itertools.product(SHAPES, SEEDS, WIDTHS, GRID_METHODS)
    for (p, q), seed, (t_bits, m_bits), method in grid:
        for rank in sorted({1, min(p, q, 8)}):
            name = f"run {p}x{q} r{rank} seed {seed} t {t_bits} m {m_bits} {method}"
            runs.append((name, run_input(p, q, rank, seed, tau_frac=0.3, t_bits=t_bits,
                                         m_bits=m_bits, alpha_method=method)))
    runs += [
        ("paper, 1000 shots", run_input(**PAPER, tau=0.5, shots=1000, shot_seed=3)),
        ("sigma (4, 3, 2, 1) at tau 1.5",
         run_input(256, 256, 4, 0, sigma=[4.0, 3.0, 2.0, 1.0], tau=1.5)),
        ("paper, explicit alpha 5.0 at tau 0.6", run_input(**PAPER, tau=0.6, alpha=5.0)),
        # sigma^2 = (16, 1.21, 1) takes labels (15, 1, 1) at t 4
        ("sigma above tau sharing a label",
         run_input(3, 3, 3, [0, 1], sigma=[4.0, 1.1, 1.0], tau=0.6, t_bits=4)),
        ("paper, every L code 0 at tau 1.7", run_input(**PAPER, tau=1.7)),
    ]
    return runs


def rule_inputs() -> list[tuple[str, dict]]:
    """(name, input) of every rule record: test_alpha.py's reference
    spectra and its beyond-the-lobe profile (tau 1)."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_alpha  # here: only writing the file reads the test's spectra

    named = [(f"reference spectrum {i}", sigma, tau)
             for i, (sigma, tau) in enumerate(test_alpha.reference_spectra())]
    named.append(("beyond the lobe", test_alpha.beyond_the_lobe_profile().sigma, 1.0))
    return [(name, {"kind": "rules", "sigma": list(sigma), "tau": tau})
            for name, sigma, tau in named]


def _error(exc: QsvtError) -> dict:
    return {"error": [type(exc).__name__, str(exc)]}


def _matrix(inp: dict):
    return harness.random_lowrank(inp["p"], inp["q"], inp["rank"], inp["seed"], inp["sigma"])


def _tau(inp: dict, a0) -> float:
    if inp["tau"] is not None:
        return inp["tau"]
    return inp["tau_frac"] * float(spectral.decompose(a0).sigma[0])


def run_outputs(inp: dict) -> dict:
    a0 = _matrix(inp)
    tau = _tau(inp, a0)
    cfg = pipeline.PipelineConfig(a0=a0, tau=tau, t_bits=inp["t_bits"], m_bits=inp["m_bits"],
                                  alpha=inp["alpha"], alpha_method=inp["alpha_method"],
                                  shots=inp["shots"], seed=inp["shot_seed"])
    try:
        res = pipeline.run_pipeline(cfg)
        report = pipeline.verify_against_classical(res, res.spec, tau)
    except QsvtError as exc:
        return _error(exc)
    scale = 1 << res.m_bits
    return {
        "labels": res.labels.tolist(),
        "codes": [int(c * scale) for c in res.y_codes.tolist()],
        "newton_iterations": res.newton_iterations,
        "t_bits": res.t_bits,
        "m_bits": res.m_bits,
        "exact": res.exact,
        "alpha_method": res.alpha_method,
        "alpha": res.alpha,
        "p_analytic": res.p_analytic,
        "f_analytic": res.f_analytic,
        "p_sim": res.p_sim,
        "f_sim": res.f_sim,
        "residual_mass": res.residual_mass,
        "n_alpha": res.n_alpha,
        "triple_amplitudes": [[z.real, z.imag] for z in res.triple_amplitudes.tolist()],
        "p_shots": res.p_shots,
        "f_recomputed": report.f_recomputed,
    }


def rule_outputs(inp: dict) -> dict:
    profile = alpha_mod.SpectrumProfile.from_sigma_tau(inp["sigma"], inp["tau"])
    out = {}
    for method in alpha_mod.METHODS:
        try:
            sol, note = alpha_mod.resolve_alpha(profile, method)
        except QsvtError as exc:
            out[method] = _error(exc)
        else:
            out[method] = [sol.method, sol.alpha, sol.P, sol.F, sol.G, note]
    return out


def outputs(inp: dict) -> dict:
    """What the program gives on the record input ``inp``."""
    return run_outputs(inp) if inp["kind"] == "run" else rule_outputs(inp)


def check_portable(inp: dict) -> None:
    """Refuse a scaled-regime run (t0 scaled so lambda_1 lands on the top
    label) where some label's 2^m y' lies within GRID_MARGIN of an integer."""
    a0 = _matrix(inp)
    tau = _tau(inp, a0)
    sigma = spectral.decompose(a0).sigma.tolist()
    try:
        pe_cfg = qpe.choose_t0([s * s for s in sigma], inp["t_bits"])
    except QsvtError:
        return
    if pe_cfg.t0 == 2.0 * math.pi / (1 << pe_cfg.t_bits):  # the integral encoding
        return
    for label in filter(None, pe_cfg.labels):  # label 0 decodes to 0: code 0
        scaled = (1 << inp["m_bits"]) * (1.0 - tau / math.sqrt(pe_cfg.decode(label)))
        if scaled >= -GRID_MARGIN and abs(scaled - round(scaled)) < GRID_MARGIN:
            raise SystemExit(f"label {label} of {inp}: 2^m y' = {scaled!r} is on the code"
                             f" grid, where the code follows sigma_1's last bit")


def main() -> int:
    records = []
    for name, inp in run_inputs() + rule_inputs():
        if inp["kind"] == "run":
            check_portable(inp)
        records.append({"name": name, "input": inp, "output": outputs(inp)})
    OUT.parent.mkdir(parents=True, exist_ok=True)
    lines = ",\n".join(json.dumps(rec, separators=(",", ":")) for rec in records)
    OUT.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {len(records)} records to {OUT.relative_to(ROOT)}"
          f" ({OUT.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
