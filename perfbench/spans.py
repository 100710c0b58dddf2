"""Spans around calls into qsvt's public functions, recorded from outside
the package, and the per-layer metrics computed from them.

Each callable is wrapped where its caller looks it up: ``qpe`` binds its
own ``herm_exp`` and ``rotation`` its own ``phase_estimate_inverse``, so
those names are wrapped there.  Span names equal the public names, so
spans emitted by the package itself can later replace these wrappers
without renaming any metric.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

from qsvt import alpha, harness, pipeline, qpe, rotation, sim, spectral

SIM_FUNCTIONS = (
    "apply_unitary",
    "apply_controlled",
    "apply_basis_oracle",
    "register_mass",
    "new_state",
    "load_register",
    "post_select",
)
QPE_FUNCTIONS = ("phase_estimate", "conditional_evolution", "qft", "iqft", "choose_t0", "herm_exp")
ROTATION_FUNCTIONS = ("build_sigma_tau_oracle", "ry_cascade", "uncompute", "uncompute_residual")
ALPHA_METHODS = ("intuitive", "taylor2", "taylor4", "numeric")

# Calls that each read (and mostly rewrite) the whole state vector once:
# the basis of the computed sim.bytes_moved_gib.
STATE_PASSES = (
    "sim.apply_unitary",
    "sim.apply_controlled",
    "sim.apply_basis_oracle",
    "sim.register_mass",
    "sim.QuantumState.norm",
)

_S, _N = "s", "count"
PER_LAYER = (
    [(f"{name}.calls", _N) for name in STATE_PASSES]
    + [(f"{name}.self_s", _S) for name in STATE_PASSES]
    + [(f"sim.{name}.self_s", _S) for name in ("new_state", "load_register", "post_select")]
    + [
        ("sim.state_mib", "MiB"),
        ("sim.bytes_moved_gib", "GiB"),
        ("sim.peak_traced_mib", "MiB"),
        ("sim.peak_over_state", "ratio"),
    ]
    + [(f"qpe.{name}.self_s", _S) for name in QPE_FUNCTIONS]
    + [("qpe.herm_exp.calls", _N), ("qpe.phase_estimate_inverse.self_s", _S)]
    + [(f"rotation.{name}.self_s", _S) for name in ROTATION_FUNCTIONS]
    + [("rotation.SigmaTauOracle.apply.self_s", _S), ("rotation.newton_iterations", _N)]
    + [(f"spectral.{name}.{kind}", unit) for name in ("decompose", "gram", "to_state")
       for kind, unit in (("calls", _N), ("self_s", _S))]
    + [(f"alpha.resolve_alpha.{method}.self_s", _S) for method in ALPHA_METHODS]
    + [("alpha.taylor4_fallbacks", _N)]
    + [(f"pipeline.{name}.self_s", _S) for name in ("run_pipeline", "verify_against_classical")]
    + [(f"harness.{name}.self_s", _S) for name in ("run_sweep_instance", "random_lowrank")]
    + [("trace.overhead_pct", "%")]
)


class Tracer:
    """Keeps spans in memory as [name, start, end, parent index, op id].

    ``op`` is set by the caller before each operation; spans recorded
    while building inputs carry op id -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.state_bytes = 0
        self.op = -1
        self._stack: list[int] = []
        self._paused = False
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            record = [label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[label] += 1
                raise
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, name, after=None) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after))

    def install(self) -> None:
        for fn in SIM_FUNCTIONS:
            self._patch(sim, fn, f"sim.{fn}", self._on_new_state if fn == "new_state" else None)
        self._patch(sim.QuantumState, "norm", "sim.QuantumState.norm")
        for fn in QPE_FUNCTIONS:
            self._patch(qpe, fn, f"qpe.{fn}")
        self._patch(rotation, "phase_estimate_inverse", "qpe.phase_estimate_inverse")
        for fn in ROTATION_FUNCTIONS:
            after = self._on_oracle if fn == "build_sigma_tau_oracle" else None
            self._patch(rotation, fn, f"rotation.{fn}", after)
        self._patch(rotation.SigmaTauOracle, "apply", "rotation.SigmaTauOracle.apply")
        for fn in ("decompose", "gram", "to_state"):
            self._patch(spectral, fn, f"spectral.{fn}")
        self._patch(alpha, "resolve_alpha", _alpha_span, self._on_alpha)
        for fn in ("run_pipeline", "verify_against_classical"):
            self._patch(pipeline, fn, f"pipeline.{fn}")
        for fn in ("run_sweep_instance", "random_lowrank"):
            self._patch(harness, fn, f"harness.{fn}")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _on_new_state(self, args, kwargs, state) -> None:
        self.state_bytes = max(self.state_bytes, state.amplitudes.nbytes)

    def _on_oracle(self, args, kwargs, oracle) -> None:
        self.counts["rotation.newton_iterations"] += sum(oracle.iterations.values())

    def _on_alpha(self, args, kwargs, out) -> None:
        if _alpha_method(args, kwargs) == "taylor4" and out[1]:
            self.counts["alpha.taylor4_fallbacks"] += 1

    def totals(self) -> tuple[Counter, dict]:
        """Calls and self time (span minus its direct children) per name."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
        return calls, self_s

    def metrics(self, ops: int, peak_traced_bytes: int, overhead_pct: float) -> dict:
        """Every PER_LAYER metric as a total per operation."""
        calls, self_s = self.totals()
        state_mib = self.state_bytes / 2**20
        peak_mib = peak_traced_bytes / 2**20
        computed = {
            "sim.state_mib": state_mib,
            "sim.bytes_moved_gib": self.state_bytes
            * sum(calls[name] for name in STATE_PASSES) / ops / 2**30,
            "sim.peak_traced_mib": peak_mib,
            "sim.peak_over_state": peak_mib / state_mib if state_mib else 0.0,
            "trace.overhead_pct": overhead_pct,
        }
        out = {}
        for metric, unit in PER_LAYER:
            if metric in computed:
                value = computed[metric]
            elif metric.endswith(".calls"):
                value = calls[metric[: -len(".calls")]] / ops
            elif metric.endswith(".self_s"):
                value = self_s[metric[: -len(".self_s")]] / ops
            else:
                value = self.counts[metric] / ops
            out[metric] = {"value": value, "unit": unit}
        return out


def _alpha_method(args, kwargs) -> str:
    return kwargs["method"] if "method" in kwargs else args[1]


def _alpha_span(args, kwargs) -> str:
    return f"alpha.resolve_alpha.{_alpha_method(args, kwargs)}"
