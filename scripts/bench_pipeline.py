"""Append one entry to BENCH_pipeline.json: the wall time and peak memory
of ``run_pipeline`` at fixed qubit counts, and of the default analytic
sweep with all four alpha rules, as perfbench's analytic_sweep runs it.
A case's name starts with the qubits of the state that its run makes:
m + t + 1 + log2 pad(max(r, 2)), the registers L, C, the ancilla and B,
which holds the input's Schmidt index; then the input's shape and rank
and the widths t (and m where it is not 8).  The 256 x 256 cases at
t 8 and m 8 make states of 19, 21, 23 and 25 qubits, one per rank.

    python3 scripts/bench_pipeline.py --label TEXT [--out FILE] [--parent DIR]
    python3 scripts/bench_pipeline.py --label TEXT --case NAME

Run from the root of a source checkout; qsvt is imported from its src/.
With ``--parent DIR``, a checkout of the commit to compare against (a
``git clone`` or a ``git archive`` of it), each case runs REPEATS times
on DIR's src/ and on this checkout's, each time in a fresh process per
side, back to back, which side goes first alternating from run to run,
so the box's drift over minutes falls on both sides alike; a side's
record of the case is the repeat whose median wall time is the median
of its repeats, and it keeps every repeat's record under ``repeats``.
The run appends two entries, DIR's and then this checkout's.
``--case NAME`` runs one case and prints its record as JSON, appending
nothing; it exits 1 when a stage of ``stages_s`` reads 0 s, which is
how a renamed or re-signed stage function that no span matches shows.
Each case runs in a fresh process with one BLAS thread, pinned to the
last CPU this process may use.  A case records the median, the lower
and upper quartiles and the minimum of the wall times of its runs (RUNS,
or PAPER_RUNS for the paper's instance, whose runs take about half a
millisecond); on a shared box the minimum is the least disturbed run.
It also records the process's ``ru_maxrss``, which includes the
interpreter and NumPy (about 40 MiB), and as ``setup_s`` the seconds that
making its input takes: ``random_lowrank`` and the ``decompose`` that
sets tau.  A circuit case records the probability and fidelity its last
timed run reached, simulated and analytic, and the mass left on L and C
after uncomputation (FIDELITY), so an entry shows what its times bought.
A case then times one more warm run through perfbench's span tracer
(this checkout's ``perfbench/spans.py``, used as it is, on either side
of a ``--parent`` run) and records under ``stages_s`` the inclusive
seconds of each stage: the sweep's draw, decompose and each alpha rule
(SWEEP_STAGES), or a circuit's stages (STAGES).  A circuit case also
records under ``state_mib`` the size of the state the tracer saw made; then, as
``peak_traced_mib``, the ``tracemalloc`` peak of one more warm run, and as
``peak_over_state`` that peak over the state's size: the north star's
"peak memory is about one state" as a number.  The state holds the
input's Schmidt index, so where it is small the ratio mostly reads the
arrays beside it, and the peak in MiB tells the two apart.
An entry records the git SHA of its checkout, whether its src/ differs
from that commit (null outside a git checkout), and the box.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before anything loads NumPy; children inherit it

ROOT = Path(__file__).resolve().parent.parent

# name: (p, q, rank, t_bits, m_bits); random_lowrank(p, q, rank, [3, 1]),
# tau = 0.3 sigma_1, intuitive alpha
CIRCUITS = {
    "16q 4x4 r2 t6": (4, 4, 2, 6, 8),
    "17q 8x8 r3 t6": (8, 8, 3, 6, 8),
    "19q 8x8 r3 t8": (8, 8, 3, 8, 8),
    "19q 16x16 r4 t8": (16, 16, 4, 8, 8),
    "tall 12q 1024x1 r1 t8 m2": (1024, 1, 1, 8, 2),
}
# name: (rank, t_bits, m_bits); random_lowrank(256, 256, rank, [3, 1]) with
# SIGMA_ABOVE above tau = 1 and the rest of its sigma spread evenly over
# 0.9 ... 0.01, intuitive alpha
SCHMIDT = {
    "19q 256x256 r4 t8": (4, 8, 8),
    "21q 256x256 r16 t8": (16, 8, 8),
    "23q 256x256 r64 t8": (64, 8, 8),
    "25q 256x256 r256 t8": (256, 8, 8),
    "25q 256x256 r256 t12 m4": (256, 12, 4),
}
SIGMA_ABOVE = (4.0, 3.3, 2.6, 1.9)
# the paper's instance: sigma = (2, 1), tau = 0.5; fixed per-call costs
# dominate its runs, as in perfbench's paper_example
PAPER = "paper 7q 2x3 r2 t3 m2"
SWEEP = "sweep 120 analytic"
RUNS = 7
PAPER_RUNS = 3000
REPEATS = 3  # processes per case and side with --parent
# the fields of a circuit case's SimulationResult that its record keeps
FIDELITY = ("p_sim", "p_analytic", "f_sim", "f_analytic", "residual_mass")

# alpha.resolve_alpha's spans, one name per rule of alpha.METHODS
RESOLVE = tuple(f"alpha.resolve_alpha.{rule}"
                for rule in ("intuitive", "taylor2", "taylor4", "numeric"))
# the stages of a run, in run order, by the spans each sums; the oracle
# and its inverse are the first and second SigmaTauOracle.apply spans
STAGES = {
    "setup": ("spectral.decompose", *RESOLVE, "qpe.choose_t0",
              "rotation.build_sigma_tau_oracle"),
    "prep": ("sim.new_state", "sim.load_register"),
    "qpe": ("qpe.phase_estimate",),
    "oracle": (),
    "cascade": ("rotation.ry_cascade",),
    "oracle_inverse": (),
    "qpe_inverse": ("qpe.phase_estimate_inverse",),
    "residual": ("rotation.uncompute_residual",),
    "post_select": ("sim.post_select",),
}
ORACLE = "rotation.SigmaTauOracle.apply"
# the stages of the analytic sweep, summed over its instances: each draw,
# each SVD and each rule
SWEEP_STAGES = {"draw": ("harness.random_lowrank",), "decompose": ("spectral.decompose",),
                **{name: (name,) for name in RESOLVE}}


def _stages(work, cfg, stages: dict) -> tuple[dict, int]:
    """Inclusive seconds of each of ``stages``, by the spans each sums, in
    one traced run of ``work(cfg)``, and the bytes of the state it made."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        work(cfg)
    finally:
        tracer.uninstall()
    stage_of = {name: stage for stage, names in stages.items() for name in names}
    oracles = iter(("oracle", "oracle_inverse"))
    seconds = dict.fromkeys(stages, 0.0)
    for name, start, end, _parent, _op in tracer.spans:
        stage = next(oracles) if name == ORACLE else stage_of.get(name)
        if stage:
            seconds[stage] += end - start
    return seconds, tracer.state_bytes


def _case(name: str, src: Path) -> dict:
    """Run one case in this process on qsvt from ``src``; its wall times
    and peak RSS."""
    sys.path.insert(0, str(src))
    import numpy as np
    from qsvt import alpha, harness, pipeline, spectral

    if Path(pipeline.__file__).parent != src / "qsvt":
        raise ImportError(f"qsvt imported from {pipeline.__file__}, not from {src}")
    runs = RUNS
    start = time.perf_counter()
    if name == SWEEP:
        work, cfg = harness.run_sweep, harness.SweepConfig(methods=alpha.METHODS)
    elif name == PAPER:
        a0 = harness.random_lowrank(2, 3, 2, [3, 1], sigma=(2.0, 1.0))
        work, runs = pipeline.run_pipeline, PAPER_RUNS
        cfg = pipeline.PipelineConfig(a0=a0, tau=0.5, t_bits=3, m_bits=2)
    else:
        if name in SCHMIDT:
            r, t_bits, m_bits = SCHMIDT[name]
            sigma = np.r_[SIGMA_ABOVE, np.linspace(0.9, 0.01, r - len(SIGMA_ABOVE))]
            a0, tau = harness.random_lowrank(256, 256, r, [3, 1], sigma=sigma), 1.0
        else:
            p, q, r, t_bits, m_bits = CIRCUITS[name]
            a0 = harness.random_lowrank(p, q, r, [3, 1])
            tau = 0.3 * float(spectral.decompose(a0).sigma[0])
        work = pipeline.run_pipeline
        cfg = pipeline.PipelineConfig(a0=a0, tau=tau, t_bits=t_bits, m_bits=m_bits)
    setup = time.perf_counter() - start
    walls = []
    for _ in range(runs):
        start = time.perf_counter()
        result = work(cfg)
        walls.append(time.perf_counter() - start)
    out = {
        "runs": runs,
        "setup_s": setup,
        "wall_s_median": statistics.median(walls),
        "wall_s_quartiles": statistics.quantiles(walls, n=4)[::2],
        "wall_min_s": min(walls),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # after the peak RSS: the tracer and tracemalloc are not the run's
    if name == SWEEP:  # no state: no state size or tracemalloc peak
        out["stages_s"] = _stages(work, cfg, SWEEP_STAGES)[0]
        return out
    out.update({key: float(getattr(result, key)) for key in FIDELITY})
    out["stages_s"], state_bytes = _stages(work, cfg, STAGES)
    out["state_mib"] = state_bytes / 2**20
    tracemalloc.start()
    work(cfg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out["peak_traced_mib"] = peak / 2**20
    out["peak_over_state"] = peak / state_bytes
    return out


def _src_differs(root: Path) -> bool | None:
    done = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                          capture_output=True, text=True)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def _run_case(name: str, label: str, root: Path) -> dict:
    """One case in a fresh process, on ``root``'s src/."""
    done = subprocess.run([sys.executable, __file__, "--label", label, "--case", name,
                           "--src", str(root / "src")],
                          stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="what the entry measures")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_pipeline.json")
    parser.add_argument("--parent", type=Path,
                        help="a checkout to run case by case beside this one")
    parser.add_argument("--case", help="run this one case alone and print its record")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    args = parser.parse_args()
    cpu = max(os.sched_getaffinity(0))
    if args.case:
        os.sched_setaffinity(0, {cpu})
        out = _case(args.case, args.src.resolve())
        print(json.dumps(out))
        idle = [stage for stage, secs in out.get("stages_s", {}).items() if not secs > 0]
        if idle:
            sys.exit(f"no span matched the stages {idle} of {args.case!r}")
        return

    sys.path.insert(0, str(ROOT / "perfbench"))
    import envinfo

    sides = [(args.label, ROOT)]
    if args.parent:
        sides.insert(0, (f"parent, case by case beside the next entry: {args.label}",
                         args.parent.resolve()))
    cases: list[dict] = [{} for _ in sides]
    repeats = REPEATS if args.parent else 1
    turn = 0  # which side goes first flips at every run of a case
    for name in [PAPER, *CIRCUITS, *SCHMIDT, SWEEP]:
        runs: list[list[dict]] = [[] for _ in sides]
        for _ in range(repeats):
            order = range(len(sides)) if turn % 2 == 0 else reversed(range(len(sides)))
            turn += 1
            for side in order:
                out = _run_case(name, args.label, sides[side][1])
                runs[side].append(out)
                tag = "parent " if args.parent and side == 0 else ""
                print(f"{tag}{name:28s} {out['setup_s']:9.6f} s {out['wall_s_median']:11.6f} s"
                      f" {out['peak_rss_mib']:7.1f} MiB", flush=True)
        for side, outs in enumerate(runs):
            median = sorted(outs, key=lambda out: out["wall_s_median"])[len(outs) // 2]
            cases[side][name] = {**median, "repeats": outs} if args.parent else median
    bench = json.loads(args.out.read_text()) if args.out.exists() else {"entries": []}
    for (label, root), side_cases in zip(sides, cases):
        bench["entries"].append({
            "label": label,
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "src_differs_from_sha": _src_differs(root),
            "box": envinfo.environment(root, 1, cpu),
            "cases": side_cases,
        })
    args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
