"""Command-line harness: the reference example, randomized sweeps,
alpha-method comparison tables, single pipeline runs, CSV and SVG
emission.

Exit codes: 0 success, 1 assertion failure in the reference example,
2 invalid input, 3 internal numerical guard tripped.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import alpha as alpha_mod
from . import pipeline as pipeline_mod
from . import spectral
from .errors import FullyThresholdedError, QsvtError, ValidationError

MATRIX_FORMAT_HELP = """\
Matrix file format (plain text):
  first line:  p q
  then p rows of q whitespace-separated decimal numbers.
"""

EXAMPLE_EXPECTED = {"P": 0.9499, "F": 0.9962, "N_alpha": 4.7495}
EXAMPLE_TOL = 1e-3

CSV_SCHEMA = "#schema=1"
CSV_CORPUS_NOTE = "#corpus=synthetic-lowrank-seeded"
CSV_COLUMNS = [
    "instance",
    "seed",
    "p",
    "q",
    "r",
    "tau",
    "alpha_method",
    "alpha",
    "P_analytic",
    "F_analytic",
    "P_sim",
    "F_sim",
    "newton_iterations",
    "t_bits",
    "m_bits",
    "exact",
    "wall_time_s",
    "error",
]

ALPHA_METHODS = ("intuitive", "taylor2", "taylor4", "numeric")

# the default sweep corpus: p, q and the rank are drawn from these, ends included
SWEEP_DIM_RANGE = (2, 6)
SWEEP_RANK_RANGE = (1, 4)

_PALETTE = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad"]


def random_lowrank(p: int, q: int, r: int, seed, sigma=None) -> np.ndarray:
    """Seeded random p x q matrix of rank r.

    Orthogonal factors come from QR of Gaussian draws (sign-fixed for
    determinism); singular values are log-uniform in [0.1, 10] unless
    injected, sorted descending with near-ties pushed apart so the
    decomposition stays non-degenerate.
    """
    if r < 1 or r > min(p, q):
        raise ValidationError(f"rank {r} invalid for shape ({p}, {q})")
    rng = np.random.default_rng(seed)
    if sigma is None:
        values = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(10.0), r)))[::-1]
        values = _separate(values)
    else:
        values = np.asarray(sigma, dtype=float)
        if values.shape != (r,):
            raise ValidationError(f"{values.size} injected sigma values for rank {r}")
        spectral.check_sigma(values.tolist())
    u = _orthogonal(rng, p)[:, :r]
    v = _orthogonal(rng, q)[:, :r]
    return (u * values) @ v.T


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, rmat = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(rmat.diagonal())


def _separate(values: np.ndarray, min_gap: float = 1e-6) -> np.ndarray:
    out = values.copy()
    for i in range(1, len(out)):
        if out[i] > out[i - 1] * (1.0 - min_gap):
            out[i] = out[i - 1] * (1.0 - 1e-4)
    return out


def example_matrix(seed=7) -> np.ndarray:
    """2 x 3 reference instance with sigma = (2, 1)."""
    return random_lowrank(2, 3, 2, seed, sigma=(2.0, 1.0))


@dataclass
class SweepConfig:
    n_instances: int = 120
    tau: float | None = None
    tau_frac: float = 0.3
    methods: tuple[str, ...] = ("intuitive", "taylor2")
    seed: int = 0
    t_bits: int = 6
    m_bits: int = 8
    simulate: bool = False
    shape: tuple[int, int] | None = None
    rank: int | None = None
    sigma: tuple[float, ...] | None = None
    timings: bool = False
    jobs: int = 1

    def __post_init__(self) -> None:
        for name in ("n_instances", "t_bits", "m_bits", "jobs"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1")
        if self.tau is None and not 0 < self.tau_frac < 1:
            raise ValidationError("tau fraction must lie in (0, 1)")
        if self.simulate and (self.t_bits > 8 or (self.rank or 0) > 8):
            raise ValidationError("simulate mode is capped at t_bits <= 8, rank <= 8")
        for m in self.methods:
            if m not in ALPHA_METHODS:
                raise ValidationError(f"unknown alpha method {m!r}")
        if not self.methods or len(set(self.methods)) != len(self.methods):
            raise ValidationError(f"methods must be one or more distinct names: {self.methods}")
        # input that every instance would fail is rejected here, not per record
        if self.shape is not None and min(self.shape) < 1:
            raise ValidationError(f"shape must be positive, got {self.shape}")
        max_rank = min(self.shape) if self.shape is not None else SWEEP_DIM_RANGE[1]
        if self.rank is not None and not 1 <= self.rank <= max_rank:
            raise ValidationError(f"rank must lie in 1..{max_rank}, got {self.rank}")
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float).tolist()
            spectral.check_sigma(s)
            if self.rank is not None and len(s) != self.rank:
                raise ValidationError(f"{len(s)} sigma values for rank {self.rank}")
            if len(s) > max_rank:
                raise ValidationError(f"{len(s)} sigma values above the largest rank {max_rank}")
        if self.tau is not None:
            spectral.check_threshold(self.tau, self.sigma[0] if self.sigma else np.inf)


@dataclass
class ExperimentRecord:
    instance: int
    seed: int
    p: int
    q: int
    r: int
    tau: float
    alpha_method: str
    alpha: float | None = None
    p_analytic: float | None = None
    f_analytic: float | None = None
    p_sim: float | None = None
    f_sim: float | None = None
    newton_iterations: int | None = None
    t_bits: int | None = None
    m_bits: int | None = None
    exact: bool | None = None
    wall_time_s: float | None = None
    error: str = ""

    def to_row(self) -> list[str]:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "1" if x else "0"
            if isinstance(x, float):
                return format(x, ".12g")
            return str(x)

        return [fmt(getattr(self, f.name)) for f in fields(self)]


def _instance_seed(cfg: SweepConfig, index: int) -> int:
    return cfg.seed * 100003 + index


def run_sweep_instance(cfg: SweepConfig, index: int) -> list[ExperimentRecord]:
    """All method records for one sweep instance; per-record errors are
    captured in the error column instead of aborting the sweep.  A
    simulated run with exact phase estimation is flagged when its P
    drifts from the analytic P by 4 alpha 2**-m_bits or more, the most
    that rounding y to m bits explains; an inexact one is not, since
    its phase-estimation leakage has no such bound."""
    iseed = _instance_seed(cfg, index)
    rng = np.random.default_rng([iseed, 0])
    r = cfg.rank if cfg.sigma is None else len(cfg.sigma)  # equal when both are set
    if cfg.shape is not None:
        p, q = cfg.shape
    else:  # a fixed rank draws only shapes that can hold it
        lo = max(SWEEP_DIM_RANGE[0], r or 0)
        p = int(rng.integers(lo, SWEEP_DIM_RANGE[1] + 1))
        q = int(rng.integers(lo, SWEEP_DIM_RANGE[1] + 1))
    if r is None:
        hi = min(p, q, SWEEP_RANK_RANGE[1])
        lo = min(SWEEP_RANK_RANGE[0], hi)
        r = int(rng.integers(lo, hi + 1))
    records = []
    try:
        a0 = random_lowrank(p, q, r, [iseed, 1], sigma=cfg.sigma)
        spec = spectral.decompose(a0)
        tau = cfg.tau if cfg.tau is not None else cfg.tau_frac * float(spec.sigma[0])
        profile = alpha_mod.SpectrumProfile.from_sigma_tau(spec.sigma, tau)
    except QsvtError as exc:
        return [
            ExperimentRecord(index, iseed, p, q, r, cfg.tau or 0.0, m, error=str(exc))
            for m in cfg.methods
        ]
    for method in cfg.methods:
        rec = ExperimentRecord(index, iseed, p, q, spec.rank, tau, method)
        start = time.perf_counter()
        try:
            solution, _note = alpha_mod.resolve_alpha(profile, method)
            rec.alpha = solution.alpha
            rec.p_analytic = solution.P
            rec.f_analytic = solution.F
            rec.t_bits = cfg.t_bits
            rec.m_bits = cfg.m_bits
            if cfg.simulate:
                result = pipeline_mod.run_pipeline(
                    pipeline_mod.PipelineConfig(
                        a0=a0,
                        tau=tau,
                        t_bits=cfg.t_bits,
                        m_bits=cfg.m_bits,
                        alpha=solution.alpha,
                    )
                )
                rec.p_sim = result.p_sim
                rec.f_sim = result.f_sim
                rec.newton_iterations = result.newton_iterations
                rec.exact = result.exact
                bound = 4.0 * solution.alpha * 2.0**-cfg.m_bits
                if result.pe_exact and abs(result.p_sim - result.p_analytic) >= bound:
                    rec.error = "probability drift exceeds fixed-point bound"
        except QsvtError as exc:
            rec.error = str(exc)
        if cfg.timings:
            rec.wall_time_s = time.perf_counter() - start
        records.append(rec)
    return records


def run_sweep(cfg: SweepConfig) -> list[ExperimentRecord]:
    """Execute every instance (in a worker pool when ``jobs`` > 1) and
    return records sorted by instance id and method order.

    The pool starts all its workers at once, so it gets at most one
    worker per instance and per CPU."""
    indices = range(cfg.n_instances)
    workers = min(cfg.jobs, cfg.n_instances, os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_sweep_instance, itertools.repeat(cfg), indices))
    else:
        chunks = [run_sweep_instance(cfg, i) for i in indices]
    records = [rec for chunk in chunks for rec in chunk]
    order = {m: i for i, m in enumerate(cfg.methods)}
    records.sort(key=lambda rec: (rec.instance, order.get(rec.alpha_method, 99)))
    return records


def sweep_summary(records: list[ExperimentRecord], simulate: bool) -> dict:
    """Per-method medians plus the intuitive-vs-taylor2 comparison.

    ``p_comparable`` is the gap of the two P medians against 0.02 and
    ``f_not_worse`` the F margin against -0.005.  When only sigma_1 lies
    above tau, F = 1 for every alpha, intuitive gives P = sigma_1^2 / N1
    and taylor2 (alpha = sqrt(2) / y_1) gives P = (sigma_1^2 / N1)
    sin^2(sqrt(2)), a gap of (sigma_1^2 / N1) cos^2(sqrt(2)) ~ 0.0243
    (sigma_1^2 / N1).  Most instances of the default corpus keep only
    sigma_1, so there the P flag reads DEVIATES by construction, with
    intuitive the higher-P rule.
    """
    values: dict[str, dict[str, list[float]]] = {}
    for rec in records:
        if rec.error:
            continue
        p = rec.p_sim if simulate else rec.p_analytic
        f = rec.f_sim if simulate else rec.f_analytic
        if p is None or f is None:
            continue
        values.setdefault(rec.alpha_method, {"P": [], "F": []})
        values[rec.alpha_method]["P"].append(p)
        values[rec.alpha_method]["F"].append(f)
    medians = {
        m: {"P": float(np.median(v["P"])), "F": float(np.median(v["F"]))}
        for m, v in values.items()
    }
    summary = {"medians": medians, "n_errors": sum(1 for r in records if r.error)}
    if "intuitive" in medians and "taylor2" in medians:
        dp = abs(medians["intuitive"]["P"] - medians["taylor2"]["P"])
        df = medians["intuitive"]["F"] - medians["taylor2"]["F"]
        summary["p_median_gap"] = dp
        summary["f_median_margin"] = df
        summary["p_comparable"] = dp <= 0.02
        summary["f_not_worse"] = df >= -0.005
    return summary


def write_csv(records: list[ExperimentRecord], path) -> None:
    lines = [CSV_SCHEMA, CSV_CORPUS_NOTE, ",".join(CSV_COLUMNS)]
    lines += [",".join(rec.to_row()) for rec in records]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_plot(records: list[ExperimentRecord], path) -> None:
    """Two-panel (probability, fidelity) self-contained SVG: instance
    index on x, one polyline-plus-markers series per method."""
    rows = [r for r in records if not r.error]
    if not rows:
        raise ValidationError("no plottable records")
    methods = []
    for rec in rows:
        if rec.alpha_method not in methods:
            methods.append(rec.alpha_method)
    width, panel_h, margin = 880, 260, 50
    height = 2 * (panel_h + margin) + margin
    xs = sorted({r.instance for r in rows})
    xmap = {v: i for i, v in enumerate(xs)}
    span = max(len(xs) - 1, 1)

    def coords(rec, attr):
        sim_v = getattr(rec, f"{attr.lower()}_sim")
        ana_v = getattr(rec, f"{attr.lower()}_analytic")
        val = sim_v if sim_v is not None else ana_v
        if val is None:
            return None
        x = margin + (width - 2 * margin) * xmap[rec.instance] / span
        return x, val

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        ' font-family="sans-serif" font-size="12">'
    ]
    for panel, attr in enumerate(("P", "F")):
        top = margin + panel * (panel_h + margin)
        title = "probability" if attr == "P" else "fidelity"
        parts.append(f'<g class="panel" data-metric="{title}">')
        parts.append(
            f'<rect x="{margin}" y="{top}" width="{width - 2 * margin}"'
            f' height="{panel_h}" fill="none" stroke="#333"/>'
        )
        parts.append(f'<text x="{margin}" y="{top - 8}">{title}</text>')
        for tick in (0.0, 0.5, 1.0):
            y = top + panel_h * (1.0 - tick)
            parts.append(
                f'<text x="{margin - 34}" y="{y + 4:.1f}">{tick:.1f}</text>'
            )
        for mi, method in enumerate(methods):
            color = _PALETTE[mi % len(_PALETTE)]
            pts = []
            for rec in rows:
                if rec.alpha_method != method:
                    continue
                c = coords(rec, attr)
                if c is None:
                    continue
                y = top + panel_h * (1.0 - min(max(c[1], 0.0), 1.0))
                pts.append((c[0], y))
            if not pts:
                continue
            poly = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            parts.append(f'<g class="series" data-method="{method}">')
            parts.append(
                f'<polyline points="{poly}" fill="none" stroke="{color}"'
                ' stroke-width="1"/>'
            )
            for x, y in pts:
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{color}"/>')
            parts.append("</g>")
            parts.append(
                f'<text x="{width - margin - 100}" y="{top + 16 + 14 * mi}"'
                f' fill="{color}">{method}</text>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _run(args, a0: np.ndarray) -> pipeline_mod.SimulationResult:
    """One circuit run of ``a0`` with the flags that ``example`` and
    ``pipeline`` share."""
    return pipeline_mod.run_pipeline(
        pipeline_mod.PipelineConfig(
            a0=a0,
            tau=args.tau,
            t_bits=args.t_bits,
            m_bits=args.m_bits,
            alpha=args.alpha,
            alpha_method=args.alpha_method,
            shots=args.shots,
            seed=args.seed,
        )
    )


def cmd_example(args) -> int:
    result = _run(args, example_matrix(args.seed))
    unnorm = np.abs(result.triple_amplitudes)
    print(f"alpha          = {result.alpha:.6f} ({result.alpha_method})")
    print(f"P (simulated)  = {result.p_sim:.6f}   P (analytic) = {result.p_analytic:.6f}")
    print(f"F (simulated)  = {result.f_sim:.6f}   F (analytic) = {result.f_analytic:.6f}")
    print(f"N_alpha        = {result.n_alpha:.6f}")
    print("triple weights =", " ".join(f"{x:.4f}" for x in unnorm))
    if result.p_shots is not None:
        print(f"P ({args.shots} shots) = {result.p_shots:.6f}")
    reference_run = (
        args.alpha is None
        and args.alpha_method == "intuitive"
        and args.tau == 0.5
        and args.t_bits == 3
        and args.m_bits == 2
    )
    if not reference_run:
        print("reporting mode: reference assertions skipped")
        return 0
    checks = {
        "P": (result.p_sim, EXAMPLE_EXPECTED["P"]),
        "F": (result.f_sim, EXAMPLE_EXPECTED["F"]),
        "N_alpha": (result.n_alpha, EXAMPLE_EXPECTED["N_alpha"]),
    }
    status = 0
    for name, (got, want) in checks.items():
        ok = abs(got - want) <= EXAMPLE_TOL
        print(f"check {name}: got {got:.6f}, expected {want} +/- {EXAMPLE_TOL}: "
              + ("PASS" if ok else "FAIL"))
        if not ok:
            status = 1
    return status


def cmd_sweep(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    cfg = SweepConfig(
        n_instances=args.n,
        tau=args.tau,
        tau_frac=args.tau_frac,
        methods=methods,
        seed=args.seed,
        t_bits=args.t_bits,
        m_bits=args.m_bits,
        simulate=bool(args.simulate),
        shape=_parse_shape(args.shape),
        rank=args.rank,
        sigma=_parse_sigma(args.sigma),
        timings=bool(args.timings),
        jobs=args.jobs,
    )
    records = run_sweep(cfg)
    write_csv(records, args.out)
    summary = sweep_summary(records, cfg.simulate)
    print(f"wrote {len(records)} records to {args.out}")
    for method, med in summary["medians"].items():
        print(f"median[{method}]: P = {med['P']:.6f}, F = {med['F']:.6f}")
    if "p_median_gap" in summary:
        print(
            f"median P gap (intuitive vs taylor2) = {summary['p_median_gap']:.6f}"
            f" (tolerance 0.02): "
            + ("comparable" if summary["p_comparable"] else "DEVIATES")
        )
        print(
            f"median F margin (intuitive - taylor2) = "
            f"{round(summary['f_median_margin'], 6) + 0.0:.6f}"
            f" (floor -0.005): "
            + ("intuitive not worse" if summary["f_not_worse"] else "DEVIATES")
        )
    if summary["n_errors"]:
        print(f"{summary['n_errors']} record(s) carry per-instance errors")
    if args.plot:
        plot_path = os.path.splitext(args.out)[0] + ".svg" if args.plot == "auto" else args.plot
        emit_plot(records, plot_path)
        print(f"wrote plot to {plot_path}")
    return 0


def cmd_alpha(args) -> int:
    if (args.sigma is None) == (args.matrix is None):
        raise ValidationError("provide exactly one of --sigma or --matrix")
    if args.sigma is not None:
        sigma = np.asarray(_parse_sigma(args.sigma), dtype=float)
    else:
        sigma = spectral.decompose(spectral.load_matrix_text(args.matrix)).sigma
    profile = alpha_mod.SpectrumProfile.from_sigma_tau(sigma, args.tau)
    print(f"sigma = {np.array2string(np.asarray(sigma), precision=6)}  tau = {args.tau}")
    print(f"{'method':<10} {'alpha':>12} {'P':>10} {'F':>10} {'G':>10}")
    for method in ALPHA_METHODS:
        solution, note = alpha_mod.resolve_alpha(profile, method)
        suffix = f"  [{note}]" if note else ""
        print(
            f"{method:<10} {solution.alpha:>12.6f} {solution.P:>10.6f}"
            f" {solution.F:>10.6f} {solution.G:>10.6f}{suffix}"
        )
    return 0


def _tiny(x: float) -> str:
    """``x`` as ``%.3e``, or ``< 1e-12`` for round-off, whose digits
    differ between correct builds."""
    return "< 1e-12" if abs(x) < 1e-12 else f"{x:.3e}"


def cmd_pipeline(args) -> int:
    result = _run(args, spectral.load_matrix_text(args.matrix))
    report = pipeline_mod.verify_against_classical(result, result.spec, args.tau)
    print(f"alpha = {result.alpha:.8f} ({result.alpha_method})")
    print(f"P_sim = {result.p_sim:.10f}   P_analytic = {result.p_analytic:.10f}")
    print(f"F_sim = {result.f_sim:.10f}   F_analytic = {result.f_analytic:.10f}")
    print(f"uncompute residual = {_tiny(result.residual_mass)}, exact = {result.exact}")
    print(f"fidelity recheck via threshold matrix: {report.f_recomputed:.10f}"
          f" (delta {_tiny(report.delta)})")
    if result.p_shots is not None:
        print(f"P ({args.shots} shots) = {result.p_shots:.6f}")
    print(f"{'k':>3} {'sigma':>10} {'y':>8} {'y_code':>8} {'target':>9} "
          f"{'sim_amp':>10} {'analytic':>10}")
    for row in report.rows:
        print(
            f"{row.index:>3} {row.sigma:>10.6f} {row.y_exact:>8.5f}"
            f" {row.y_code:>8.5f} {row.target_weight:>9.6f}"
            f" {row.sim_amplitude.real:>10.6f} {row.analytic_amplitude:>10.6f}"
        )
    return 0


def _parse_shape(text):
    if text is None:
        return None
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"shape must be P,Q with integers, got {text!r}") from None
    return (p, q)


def _parse_sigma(text):
    if text is None:
        return None
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"sigma must be comma-separated numbers, got {text!r}") from None


def _exit_code(exc: QsvtError) -> int:
    """2 for invalid input, 3 for a numerical guard."""
    return 2 if isinstance(exc, (ValidationError, FullyThresholdedError)) else 3


_CONFIGURABLE = {
    "tau": float,
    "tau_frac": float,
    "alpha": float,
    "alpha_method": str,
    "t_bits": int,
    "m_bits": int,
    "seed": int,
    "n": int,
    "jobs": int,
    "out": str,
    "methods": str,
    "shots": int,
}


def _load_config(path) -> dict:
    """Flat key=value file mirroring the CLI flags; CLI values win."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIGURABLE:
                raise ValidationError(f"unknown config key: {key!r}")
            try:
                out[key] = _CONFIGURABLE[key](value)
            except ValueError:
                raise ValidationError(f"config value {key}={value!r} does not parse") from None
    return out


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI; ``config`` values replace the subcommands' defaults, so
    flags given explicitly still win."""
    parser = argparse.ArgumentParser(
        prog="qsvt",
        description="Singular value thresholding on a simulated quantum register",
        epilog=MATRIX_FORMAT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cmd, tau_default=None):
        p.set_defaults(func=cmd)
        p.add_argument("--config", help="key=value defaults file; CLI flags override")
        p.add_argument("--tau", type=float, default=tau_default)
        p.add_argument("--seed", type=int, default=7)

    def run_flags(p, t_bits, m_bits, alpha_help=None):
        """The circuit-run flags of ``example`` and ``pipeline``."""
        p.add_argument("--alpha", type=float, default=None, help=alpha_help)
        p.add_argument("--alpha-method", default="intuitive", choices=ALPHA_METHODS)
        p.add_argument("--t-bits", type=int, default=t_bits)
        p.add_argument("--m-bits", type=int, default=m_bits)
        p.add_argument("--shots", type=int, default=None)

    ex = sub.add_parser("example", help="run the 2x3 sigma=(2,1) reference instance")
    common(ex, cmd_example, tau_default=0.5)
    run_flags(ex, 3, 2, alpha_help="explicit alpha (reporting mode, no assertions)")

    sw = sub.add_parser("sweep", help="randomized low-rank instance sweep")
    common(sw, cmd_sweep)
    sw.add_argument("--n", type=int, default=120)
    sw.add_argument("--tau-frac", type=float, default=0.3,
                    help="tau as a fraction of sigma_1 (ignored when --tau is set)")
    sw.add_argument("--methods", default="intuitive,taylor2")
    sw.add_argument("--t-bits", type=int, default=6)
    sw.add_argument("--m-bits", type=int, default=8)
    sw.add_argument("--simulate", action="store_true",
                    help="run the full circuit per instance (slow path)")
    sw.add_argument("--shape", default=None, help="fix instance shape as P,Q")
    sw.add_argument("--rank", type=int, default=None)
    sw.add_argument("--sigma", default=None, help="inject singular values (CSV)")
    sw.add_argument("--timings", action="store_true",
                    help="record wall times (breaks byte-for-byte determinism)")
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--out", default="sweep.csv")
    sw.add_argument("--plot", nargs="?", const="auto", default=None,
                    help="emit an SVG next to the CSV (or at the given path)")

    al = sub.add_parser("alpha", help="alpha-method comparison table")
    common(al, cmd_alpha)
    al.add_argument("--sigma", default=None, help="singular values (CSV)")
    al.add_argument("--matrix", default=None, help="matrix file (see format below)")

    pl = sub.add_parser("pipeline", help="single run from a matrix file")
    common(pl, cmd_pipeline)
    pl.add_argument("--matrix", required=True)
    run_flags(pl, None, 8)
    for p in (ex, sw, al, pl):
        p.set_defaults(**(config or {}))
    return parser


def main(argv=None) -> int:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
        args = build_parser(_load_config(path) if path else None).parse_args(argv)
        return args.func(args)
    except QsvtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
