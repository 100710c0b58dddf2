"""Command-line harness: the reference example, randomized sweeps,
alpha-method comparison tables, single pipeline runs, CSV and SVG
emission.

Exit codes: 0 success, 1 assertion failure in the reference example,
2 invalid input, 3 internal numerical guard tripped.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
import warnings
from collections.abc import Collection, Set
from dataclasses import dataclass, fields

import numpy as np

from . import alpha as alpha_mod
from . import pipeline as pipeline_mod
from . import sim, spectral
from .errors import FullyThresholdedError, QsvtError, ValidationError

MATRIX_FORMAT_HELP = """\
Matrix file format (plain text):
  first line:  p q
  then p rows of q whitespace-separated decimal numbers.
"""

# the --config help; the epilog prints it as written, hence the indents
CONFIG_HELP = """\
file of flags: each key=value line is read as --key value ahead of the
  command line's flags, which so win; the key is a long flag of the
  subcommand without --, written with _ or - (t_bits or t-bits); a line
  starting with # is a comment; flags that take no value (--simulate,
  --timings) cannot be set from the file"""

# the paper's reference run of the example instance, the flag defaults
# of ``example``; on this run cmd_example checks P, F and N_alpha
EXAMPLE_RUN = {"tau": 0.5, "t_bits": 3, "m_bits": 2, "alpha": None, "alpha_method": "intuitive"}
EXAMPLE_EXPECTED = {"P": 0.9499, "F": 0.9962, "N_alpha": 4.7495}
EXAMPLE_TOL = 1e-3

CSV_SCHEMA = "#schema=1"
CSV_CORPUS_NOTE = "#corpus=synthetic-lowrank-seeded"

# the default sweep corpus: p, q and the rank are drawn from these, ends included
SWEEP_DIM_RANGE = (2, 6)
SWEEP_RANK_RANGE = (1, 4)
# the ends of random_lowrank's log-uniform sigma range, [0.1, 10]
_LOG_SIGMA_LO, _LOG_SIGMA_HI = float(np.log(0.1)), float(np.log(10.0))

# the variables that set a BLAS's thread count: OpenBLAS, OpenMP, MKL
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_PALETTE = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad"]


def random_lowrank(p: int, q: int, r: int, seed, sigma=None) -> np.ndarray:
    """Seeded random p x q matrix of rank r; ``seed`` is a non-negative
    integer or a list or tuple of them, as ``np.random.default_rng`` takes.

    Each factor is the Q of the first r columns of a p x p (q x q)
    Gaussian draw, sign-fixed so R has a non-negative diagonal: the first
    r columns of the draw's Haar orthogonal matrix.  Both come from one
    batched QR, and the two frames' sign fixes, the signs of R's diagonal
    taken on Python floats, fold into sigma, where a sign flip is exact,
    so no pass over the frames is made for them.
    Singular values are log-uniform in [0.1, 10] unless injected, sorted
    descending with near-ties pushed apart so the decomposition stays
    non-degenerate; they are drawn, separated and checked on Python
    floats.
    """
    p, q = sim.check_int("p", p, 1), sim.check_int("q", q, 1)
    r = sim.check_int("rank", r, 1, min(p, q))
    _check_draws(p, q)
    seed = ([sim.check_int("seed", s, 0) for s in seed] if isinstance(seed, (list, tuple))
            else sim.check_int("seed", seed, 0))
    rng = np.random.default_rng(seed)
    if sigma is None:
        drawn = np.exp(rng.uniform(_LOG_SIGMA_LO, _LOG_SIGMA_HI, r)).tolist()
        values = _separate(sorted(drawn, reverse=True))
    else:
        values = spectral.real_vector("sigma", sigma).tolist()
        if len(values) != r:
            raise ValidationError(f"{len(values)} injected sigma values for rank {r}")
        spectral.check_sigma(values)
    # the whole n x n draws keep the stream; zero rows under the shorter
    # factor stay zero in Q, so each frame's Q is its draw's reduced Q
    draws = np.zeros((2, max(p, q), r))
    draws[0, :p] = rng.normal(size=(p, p))[:, :r]
    draws[1, :q] = rng.normal(size=(q, q))[:, :r]
    qs, rs = np.linalg.qr(draws)
    d_u, d_v = rs.diagonal(0, 1, 2).tolist()
    signed = [_sign(a) * _sign(b) * s for a, b, s in zip(d_u, d_v, values)]
    return (qs[0, :p] * signed) @ qs[1, :q].T


def _sign(x: float) -> float:
    """``np.sign`` of a Python float that is not NaN: 1.0, -1.0, or 0.0
    for a zero of either sign."""
    return 1.0 if x > 0 else -1.0 if x < 0 else 0.0


def _check_draws(p: int, q: int) -> None:
    """Refuse, before they are drawn, p x p and q x q Gaussian draws that
    exceed ``sim.MEMORY_BYTES``."""
    sim.check_memory(8 * (p * p + q * q), f"drawing a {p}x{q} input")


def _separate(values: list[float], min_gap: float = 1e-6) -> list[float]:
    """Descending ``values`` with each near-tie, a value within
    ``min_gap`` of the one before it, pushed to 1e-4 below that one."""
    out = list(values)
    for i in range(1, len(out)):
        if out[i] > out[i - 1] * (1.0 - min_gap):
            out[i] = out[i - 1] * (1.0 - 1e-4)
    return out


def example_matrix(seed=7) -> np.ndarray:
    """2 x 3 reference instance with sigma = (2, 1)."""
    return random_lowrank(2, 3, 2, seed, sigma=(2.0, 1.0))


def _ordered(value) -> bool:
    """A collection in an order of its own: not a str, which would be read
    letter by letter, nor a set, whose order follows the hash seed."""
    return isinstance(value, Collection) and not isinstance(value, (str, Set))


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
        for name, lo, hi in (("n_instances", 1, None), ("jobs", 1, None), ("seed", 0, None),
                             ("t_bits", 1, sim.MAX_QUBITS), ("m_bits", 1, sim.MAX_QUBITS)):
            setattr(self, name, sim.check_int(name, getattr(self, name), lo, hi))
        self.tau_frac = sim.check_positive("tau fraction", self.tau_frac)
        if self.tau is None and not self.tau_frac < 1:
            raise ValidationError("tau fraction must lie in (0, 1)")
        names = self.methods
        if not _ordered(names):
            names = ()  # None names no method
        for m in names:
            if m not in alpha_mod.METHODS:
                raise ValidationError(f"unknown alpha method {m!r}")
        if not names or len(set(names)) != len(names):
            raise ValidationError(f"methods must be one or more distinct names, in order:"
                                  f" {self.methods!r}")
        self.methods = tuple(names)
        # input that every instance would fail is rejected here, not per record
        if self.shape is not None:
            if not (_ordered(self.shape) and len(self.shape) == 2):
                raise ValidationError(f"shape must be a pair of integers, got {self.shape!r}")
            self.shape = tuple(sim.check_int("shape", d, 1) for d in self.shape)
            _check_draws(*self.shape)
        max_rank = min(self.shape) if self.shape is not None else SWEEP_DIM_RANGE[1]
        if self.rank is not None:
            self.rank = sim.check_int("rank", self.rank, 1, max_rank)
        if self.sigma is not None:
            s = spectral.real_vector("sigma", self.sigma).tolist()
            spectral.check_sigma(s)
            spectral.check_gaps(s)
            if self.rank is not None and len(s) != self.rank:
                raise ValidationError(f"{len(s)} sigma values for rank {self.rank}")
            if len(s) > max_rank:
                raise ValidationError(f"{len(s)} sigma values above the largest rank {max_rank}")
            self.sigma, self.rank = tuple(s), len(s)
        if self.simulate and (self.t_bits > 8 or (self.rank or 0) > 8):
            raise ValidationError("simulate mode is capped at t_bits <= 8, rank <= 8")
        n = self.m_bits + self.t_bits + 2  # L, C, the ancilla and at least one qubit of B
        if self.simulate and n > sim.MAX_QUBITS:
            raise ValidationError(f"simulate mode needs m_bits + t_bits + 2 <= {sim.MAX_QUBITS}"
                                  f" qubits, got m_bits {self.m_bits} + t_bits {self.t_bits}"
                                  f" + 2 = {n}")
        if self.tau is not None:  # against sigma_1 in the profile below, or in each instance's
            self.tau = sim.check_positive("threshold", self.tau)
        if self.sigma is not None:  # the profile that every instance builds from them
            tau = self.tau if self.tau is not None else self.tau_frac * self.sigma[0]
            alpha_mod.SpectrumProfile.from_sigma_tau(self.sigma, tau)


@dataclass
class ExperimentRecord:
    instance: int
    seed: int
    p: int
    q: int
    r: int
    tau: float | None  # None: a fraction of sigma_1 that set-up never derived
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


# the record's fields in order, P and F capitalised as the paper writes them
CSV_COLUMNS = [
    f.name.capitalize() if f.name[:2] in ("p_", "f_") else f.name
    for f in fields(ExperimentRecord)
]


def run_sweep_instance(cfg: SweepConfig, index: int) -> list[ExperimentRecord]:
    """All method records for one sweep instance; per-record errors are
    captured in the error column instead of aborting the sweep.  A
    simulated run with exact phase estimation is flagged when its P
    drifts from the analytic P by 4 alpha 2**-m_bits or more, the most
    that rounding y to m bits explains; an inexact one is not, since
    its phase-estimation leakage has no such bound."""
    iseed = cfg.seed * 100003 + index
    rng = np.random.default_rng([iseed, 0])
    r = cfg.rank
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
            ExperimentRecord(index, iseed, p, q, r, cfg.tau, m, error=str(exc))
            for m in cfg.methods
        ]
    for method in cfg.methods:
        rec = ExperimentRecord(index, iseed, p, q, spec.rank, tau, method)
        start = time.perf_counter() if cfg.timings else 0.0
        try:
            solution, note = alpha_mod.resolve_alpha(profile, method)
            if note:
                warnings.warn(note, stacklevel=2)
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
    return the records by instance, then in ``cfg.methods`` order.

    The pool starts all its workers at once, so it gets at most one
    worker per instance and per CPU, and each worker's BLAS runs one
    thread: the variables that set it are 1 while the pool runs, then as
    they were.  The workers are spawned, not forked: NumPy's BLAS has
    started threads in this process, and a fork copies their locks but
    not the threads."""
    indices = range(cfg.n_instances)
    workers = min(cfg.jobs, cfg.n_instances, os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures  # here, not at the top: only a pool uses them
        import multiprocessing
        spawn = multiprocessing.get_context("spawn")
        saved = {var: os.environ.get(var) for var in BLAS_THREADS}
        os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))  # a spawned worker reads them
        try:
            with concurrent.futures.ProcessPoolExecutor(workers, mp_context=spawn) as pool:
                chunks = list(pool.map(run_sweep_instance, itertools.repeat(cfg), indices))
        finally:
            for var, value in saved.items():
                if value is None:
                    del os.environ[var]
                else:
                    os.environ[var] = value
    else:
        chunks = [run_sweep_instance(cfg, i) for i in indices]
    return [rec for chunk in chunks for rec in chunk]


def _reported(rec: ExperimentRecord, attr: str) -> float:
    """The P or F (``attr``) that a record without an error reports: the
    simulated one where its run simulated, the analytic one otherwise."""
    value = getattr(rec, f"{attr.lower()}_sim")
    return value if value is not None else getattr(rec, f"{attr.lower()}_analytic")


def sweep_summary(records: list[ExperimentRecord]) -> dict:
    """Per-method medians of the P and F each record reports
    (:func:`_reported`), plus the intuitive-vs-taylor2 comparison.

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
        by_metric = values.setdefault(rec.alpha_method, {"P": [], "F": []})
        for attr, vals in by_metric.items():
            vals.append(_reported(rec, attr))
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


def write_csv(records: list[ExperimentRecord], out) -> None:
    """``records`` as quoted CSV to the open text file ``out``: a field that
    holds a comma is quoted, so each row reads back as one field per column."""
    import csv  # here, not at the top: only the sweep writes CSV

    out.write(f"{CSV_SCHEMA}\n{CSV_CORPUS_NOTE}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rec.to_row() for rec in records)


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
            pts = [
                (margin + (width - 2 * margin) * xmap[rec.instance] / span,
                 top + panel_h * (1.0 - min(max(_reported(rec, attr), 0.0), 1.0)))
                for rec in rows if rec.alpha_method == method
            ]
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


def _tau(args) -> float:
    """``--tau``, which ``alpha`` and ``pipeline`` have no default for."""
    if args.tau is None:
        raise ValidationError("no threshold: give --tau, or tau= in the --config file")
    return args.tau


def _config(cls, args, **given):
    """A ``cls`` config from the flags whose dests are its field names,
    with ``given`` in place of the flags of those fields."""
    flags = {f.name: getattr(args, f.name) for f in fields(cls) if f.name not in given}
    return cls(**flags, **given)


def _run(args, a0: np.ndarray) -> pipeline_mod.SimulationResult:
    """One circuit run of ``a0`` with the flags that ``example`` and
    ``pipeline`` share."""
    return pipeline_mod.run_pipeline(
        _config(pipeline_mod.PipelineConfig, args, a0=a0, tau=_tau(args))
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
    if any(getattr(args, key) != value for key, value in EXAMPLE_RUN.items()):
        print("reporting mode: reference assertions skipped")
        return 0
    got = {"P": result.p_sim, "F": result.f_sim, "N_alpha": result.n_alpha}
    status = 0
    for name, want in EXAMPLE_EXPECTED.items():
        ok = abs(got[name] - want) <= EXAMPLE_TOL
        print(f"check {name}: got {got[name]:.6f}, expected {want} +/- {EXAMPLE_TOL}: "
              + ("PASS" if ok else "FAIL"))
        if not ok:
            status = 1
    return status


def cmd_sweep(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    cfg = _config(SweepConfig, args, methods=methods, shape=_numbers("shape", args.shape, int),
                  sigma=_numbers("sigma", args.sigma))
    plot_path = None
    if args.plot:
        plot_path = os.path.splitext(args.out)[0] + ".svg" if args.plot == "auto" else args.plot
        if os.path.realpath(plot_path) == os.path.realpath(args.out):
            raise ValidationError(f"--plot {plot_path} would overwrite --out {args.out}")
    # an unwritable path fails before the sweep runs, and takes with it a
    # file that this check made; "a" truncates neither existing file
    made = []
    try:
        for path in filter(None, (args.out, plot_path)):
            try:
                open(path, "x").close()
                made.append(path)
            except FileExistsError:
                open(path, "a").close()
    except OSError:
        for path in made:
            os.remove(path)
        raise
    records = run_sweep(cfg)
    with open(args.out, "w") as out:
        write_csv(records, out)
    summary = sweep_summary(records)
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
    if plot_path:
        try:
            emit_plot(records, plot_path)
        except ValidationError as exc:  # the sweep itself finished: exit 0
            if plot_path in made:  # a file that was there stays as it was
                os.remove(plot_path)
            print(f"{exc}: no plot written")
        else:
            print(f"wrote plot to {plot_path}")
    return 0


def cmd_alpha(args) -> int:
    if (args.sigma is None) == (args.matrix is None):
        raise ValidationError("provide exactly one of --sigma or --matrix")
    if args.sigma is not None:
        sigma = np.asarray(_numbers("sigma", args.sigma), dtype=float)
    else:
        sigma = spectral.decompose(spectral.load_matrix_text(args.matrix)).sigma
    tau = _tau(args)
    profile = alpha_mod.SpectrumProfile.from_sigma_tau(sigma, tau)
    print(f"sigma = {np.array2string(np.asarray(sigma), precision=6)}  tau = {tau}")
    print(f"{'method':<10} {'alpha':>12} {'P':>10} {'F':>10} {'G':>10}")
    for method in alpha_mod.METHODS:
        try:
            solution, note = alpha_mod.resolve_alpha(profile, method)
        except ValidationError as exc:  # a refused rule keeps its row
            print(f"{method:<10} {'-':>12} {'-':>10} {'-':>10} {'-':>10}  [{exc}]")
            continue
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
    # per triple: the threshold operator's weight, normalised, and B's
    # amplitude as simulated and as sin(y_code alpha) predicts it
    shrunk = spectral.shrunk_values(result.spec, args.tau)
    scale = np.sqrt(result.n_alpha)  # p_sim > 0: post-selection checked it
    columns = zip(result.sigma, result.y_exact, result.y_codes, shrunk / np.linalg.norm(shrunk),
                  (result.triple_amplitudes / scale).real,
                  result.sigma * np.sin(result.y_codes * result.alpha) / scale)
    for k, (sigma, y, y_code, target, amp, analytic) in enumerate(columns):
        print(f"{k:>3} {sigma:>10.6f} {y:>8.5f} {y_code:>8.5f} {target:>9.6f}"
              f" {amp:>10.6f} {analytic:>10.6f}")
    return 0


def _numbers(name: str, text, kind=float):
    """The comma-separated ``text`` of ``--name`` as a tuple of ``kind``,
    or None for no flag; the caller checks how many there are."""
    if text is None:
        return None
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"{name} must be {kind.__name__} values separated by commas,"
                              f" got {text!r}") from None


def _exit_code(exc: QsvtError) -> int:
    """2 for invalid input, 3 for a numerical guard."""
    return 2 if isinstance(exc, (ValidationError, FullyThresholdedError)) else 3


def _config_flags(path) -> list[str]:
    """The flags a ``--config`` file names, one ``--key value`` pair per
    ``key=value`` line, for the subcommand's own parser to check."""
    flags = []
    with open(path) as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config file is not text: {exc}") from None
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not (sep and key):
                raise ValidationError(f"bad config line: {line!r}")
            flag = "--" + key.replace("_", "-")
            if "--config".startswith(flag):  # the flag or an abbreviation of it
                raise ValidationError(f"bad config line: {line!r} (config files do not nest)")
            flags += [flag, value]
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsvt",
        description="Singular value thresholding on a simulated quantum register",
        epilog=f"{MATRIX_FORMAT_HELP}\nConfig file format (--config):\n  {CONFIG_HELP}.\n",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cmd, seeds=None):  # seeds: what --seed seeds; alpha draws nothing
        p.set_defaults(func=cmd)
        p.add_argument("--config", help=CONFIG_HELP)
        p.add_argument("--tau", type=float, default=None)
        if seeds:
            p.add_argument("--seed", type=int, default=7, help=(
                f"seed of {seeds} (default %(default)s, where SweepConfig() and"
                " PipelineConfig() default to 0)"))

    def run_flags(p, alpha_help=None):
        """The circuit-run flags of ``example`` and ``pipeline``, at the
        defaults of ``PipelineConfig``."""
        run = pipeline_mod.PipelineConfig
        p.add_argument("--alpha", type=float, default=run.alpha, help=alpha_help)
        p.add_argument("--alpha-method", default=run.alpha_method, choices=alpha_mod.METHODS)
        p.add_argument("--t-bits", type=int, default=run.t_bits)
        p.add_argument("--m-bits", type=int, default=run.m_bits)
        p.add_argument("--shots", type=int, default=run.shots)

    ex = sub.add_parser("example", help="run the 2x3 sigma=(2,1) reference instance")
    common(ex, cmd_example, seeds="the example matrix and of --shots sampling")
    run_flags(ex, alpha_help="explicit alpha (reporting mode, no assertions)")
    ex.set_defaults(**EXAMPLE_RUN)

    sw = sub.add_parser("sweep", help="randomized low-rank instance sweep")
    common(sw, cmd_sweep, seeds="the corpus: each instance's shape, rank and draws")
    sw.add_argument("--n", type=int, dest="n_instances", default=SweepConfig.n_instances)
    sw.add_argument("--tau-frac", type=float, default=SweepConfig.tau_frac,
                    help="tau as a fraction of sigma_1 (checked, but unused when --tau is set)")
    sw.add_argument("--methods", default=",".join(SweepConfig.methods))
    sw.add_argument("--t-bits", type=int, default=SweepConfig.t_bits)
    sw.add_argument("--m-bits", type=int, default=SweepConfig.m_bits)
    sw.add_argument("--simulate", action="store_true",
                    help="run the full circuit per instance (slow path)")
    sw.add_argument("--shape", default=None, help="fix instance shape as P,Q")
    sw.add_argument("--rank", type=int, default=None)
    sw.add_argument("--sigma", default=None, help="inject singular values (CSV)")
    sw.add_argument("--timings", action="store_true",
                    help="record wall times (breaks byte-for-byte determinism)")
    sw.add_argument("--jobs", type=int, default=SweepConfig.jobs)
    sw.add_argument("--out", default="sweep.csv")
    sw.add_argument("--plot", nargs="?", const="auto", default=None,
                    help="emit an SVG next to the CSV (or at the given path)")

    al = sub.add_parser("alpha", help="alpha-method comparison table")
    common(al, cmd_alpha)
    al.add_argument("--sigma", default=None, help="singular values (CSV)")
    al.add_argument("--matrix", default=None, help="matrix file (see format below)")

    pl = sub.add_parser("pipeline", help="single run from a matrix file")
    common(pl, cmd_pipeline, seeds="--shots sampling")
    pl.add_argument("--matrix", required=True)
    run_flags(pl)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False)
    # optional value: a --config without a path is the subcommand parser's error
    pre.add_argument("--config", nargs="?")
    try:
        path = pre.parse_known_args(argv)[0].config
        if path and not argv[0].startswith("-"):  # --config only follows a subcommand
            argv[1:1] = _config_flags(path)  # ahead of its flags, so they win
        args = build_parser().parse_args(argv)
        return args.func(args)
    except QsvtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
