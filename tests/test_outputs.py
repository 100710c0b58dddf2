"""The program's outputs against the checked-in record of them,
tests/data/outputs.json, which scripts/record_outputs.py writes: each
record's input is rerun and its outputs compared, integers, flags and
text exactly, floats to RTOL relative with an absolute floor of ATOL for
round-off-sized values such as the exact regime's ~1e-31 residual.  A
change below RTOL relative is not seen here."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RTOL, ATOL = 1e-13, 1e-15

_spec = importlib.util.spec_from_file_location("record_outputs",
                                               ROOT / "scripts" / "record_outputs.py")
record_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_outputs)

RECORDS = json.loads(record_outputs.OUT.read_text())


def mismatches(want, got, where=""):
    """The paths at which ``got`` differs from the record ``want``."""
    if isinstance(want, float) and type(got) is float:
        return [] if abs(got - want) <= max(RTOL * abs(want), ATOL) else [f"{where}: {got!r}"]
    if type(want) is not type(got):
        return [f"{where}: {got!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(got)}"]
        return [m for key in want for m in mismatches(want[key], got[key], f"{where}.{key}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: {got!r}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, f"{where}[{i}]")]
    return [] if want == got else [f"{where}: {got!r}"]


def moved(kind):
    """Each record of ``kind`` whose rerun differs, with where it differs."""
    out = {}
    for rec in RECORDS:
        if rec["input"]["kind"] == kind:
            found = mismatches(rec["output"], record_outputs.outputs(rec["input"]))
            if found:
                out[rec["name"]] = found
    return out


def test_the_record_covers_runs_rules_and_failures():
    kinds = [rec["input"]["kind"] for rec in RECORDS]
    assert kinds.count("run") >= 150 and kinds.count("rules") >= 250
    errors = {rec["output"]["error"][0] for rec in RECORDS if "error" in rec["output"]}
    assert {"ValidationError", "FullyThresholdedError"} <= errors
    assert len({rec["name"] for rec in RECORDS}) == len(RECORDS)


def test_runs_match_the_record():
    assert moved("run") == {}


def test_alpha_rules_match_the_record():
    assert moved("rules") == {}
