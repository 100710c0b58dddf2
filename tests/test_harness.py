import concurrent.futures
import csv
import dataclasses
import itertools
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qsvt import alpha as alpha_mod
from qsvt import harness, pipeline, qpe, rotation, sim, spectral
from qsvt.errors import DegenerateSpectrumError, ValidationError

from gates import full_qr_lowrank


def csv_rows(path):
    """The sweep CSV at ``path`` as ``csv.reader`` reads it, one list per line."""
    return list(csv.reader(path.read_text().splitlines()))


def test_random_lowrank_deterministic():
    a = harness.random_lowrank(4, 5, 2, seed=42)
    b = harness.random_lowrank(4, 5, 2, seed=42)
    assert np.array_equal(a, b)
    c = harness.random_lowrank(4, 5, 2, seed=43)
    assert not np.array_equal(a, c)


def test_separate_pushes_a_near_tie_below_the_value_before_it():
    # a value within 1e-6 of the one before it goes 1e-4 below that one;
    # values already apart come back as they were
    assert harness._separate([2.0, 2.0 * (1 - 1e-7), 1.0]) == [2.0, 2.0 * (1 - 1e-4), 1.0]
    for apart in ([2.0, 1.0, 0.5], [2.0, 2.0 * (1 - 1e-5)], [3.0]):
        assert harness._separate(apart) == apart


def test_random_lowrank_rank_one():
    a = harness.random_lowrank(4, 4, 1, seed=1)
    data = spectral.decompose(a)
    assert data.rank == 1


def test_random_lowrank_sigma_injection():
    a = harness.random_lowrank(3, 4, 3, seed=2, sigma=(3.0, 2.0, 1.0))
    data = spectral.decompose(a)
    assert np.abs(data.sigma - np.array([3.0, 2.0, 1.0])).max() < 1e-9


def test_random_lowrank_matches_the_full_qr_reference():
    # each factor is the reduced QR of its draw's first r columns: LAPACK
    # does the same arithmetic as on the whole draw for sides up to 7, and
    # blocks the whole draw's factorisation differently from side 8 on
    for p, q in itertools.product(range(1, 8), repeat=2):
        for r, seed in itertools.product(range(1, min(p, q) + 1), range(3)):
            for sigma in (None, tuple(np.linspace(2.0, 1.0, r))):
                got = harness.random_lowrank(p, q, r, [seed, 1], sigma=sigma)
                assert np.array_equal(got, full_qr_lowrank(p, q, r, [seed, 1], sigma=sigma))
    for (p, q, r), seed in itertools.product(((8, 8, 3), (16, 16, 4), (33, 40, 5)), range(3)):
        want = full_qr_lowrank(p, q, r, [seed, 1])
        got = harness.random_lowrank(p, q, r, [seed, 1])
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("d_u, d_v", [
    ((-2.0, 1.5, 0.0), (0.5, -3.0, -1.0)),
    ((0.0, -0.0, 2.0), (-0.0, 0.0, -2.0)),
    ((-1.0, -1.0, -1.0), (0.0, 0.0, 0.0)),
])
def test_random_lowrank_folds_the_signs_of_r_as_np_sign_does(monkeypatch, d_u, d_v):
    # R's diagonal is positive for a Gaussian draw; these are set by hand
    real_qr, seen = np.linalg.qr, []

    def qr_with_diagonals(draws):
        qs, rs = real_qr(draws)
        rs[0][np.diag_indices(3)], rs[1][np.diag_indices(3)] = d_u, d_v
        seen.append(qs)
        return qs, rs

    monkeypatch.setattr(np.linalg, "qr", qr_with_diagonals)
    values = (3.0, 2.0, 1.0)
    got = harness.random_lowrank(4, 5, 3, [1, 1], sigma=values)
    [qs] = seen
    folded = np.sign(np.array(d_u)) * np.sign(np.array(d_v)) * np.array(values)
    want = (qs[0, :4] * folded) @ qs[1, :5].T
    assert got.tobytes() == want.tobytes()
    for x in d_u + d_v + (5e-324, -5e-324, math.inf, -math.inf):
        assert repr(harness._sign(x)) == repr(float(np.sign(x)))


def test_random_lowrank_refuses_draws_over_the_memory_budget_before_drawing(monkeypatch):
    # 200000 x 2 died on a bare 298 GiB _ArrayMemoryError in the p x p draw
    need = 8 * (100 * 100 + 3 * 3)  # the 100 x 100 and 3 x 3 Gaussian draws
    monkeypatch.setattr(sim, "MEMORY_BYTES", need - 1)
    monkeypatch.setattr(np.random, "default_rng", None)  # nothing is drawn
    with pytest.raises(ValidationError, match=(
            rf"^memory budget exceeded: drawing a 100x3 input takes {need} bytes,"
            rf" the machine has {need - 1}$")):
        harness.random_lowrank(100, 3, 1, 0)
    monkeypatch.undo()  # draws that fit the budget exactly are made
    monkeypatch.setattr(sim, "MEMORY_BYTES", need)
    assert harness.random_lowrank(100, 3, 1, 0).shape == (100, 3)


def test_sweep_with_a_shape_whose_draws_do_not_fit_is_rejected_at_config(monkeypatch, capsys,
                                                                      tmp_path):
    # every instance would fail, so the config fails, as the CLI's exit 2
    monkeypatch.setattr(sim, "MEMORY_BYTES", 8 * (100 * 100 + 3 * 3) - 1)
    with pytest.raises(ValidationError, match="^memory budget exceeded: drawing a 100x3 input"):
        harness.SweepConfig(shape=(100, 3))
    assert harness.SweepConfig(shape=(99, 3)).shape == (99, 3)
    monkeypatch.undo()
    monkeypatch.setattr(sim, "MEMORY_BYTES", 8 << 30)
    out = tmp_path / "s.csv"
    assert harness.main(["sweep", "--n", "1", "--shape", "200000,2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: memory budget exceeded: drawing a 200000x2 input takes 320000000032 bytes")


def test_random_lowrank_rejects_bad_rank():
    with pytest.raises(ValidationError, match=r"^rank must lie in 1\.\.2, an integer, got 3"):
        harness.random_lowrank(2, 2, 3, seed=0)
    # a float or bool shape or rank is not an integer: at the parent the
    # float ones died in NumPy with a bare TypeError
    for args, match in (((2.0, 3, 1), "p must be an integer >= 1"),
                        ((2, 3.0, 1), "q must be an integer >= 1"),
                        ((2, 3, 1.0), r"rank must lie in 1\.\.2, an integer"),
                        ((2, 3, True), r"rank must lie in 1\.\.2, an integer")):
        with pytest.raises(ValidationError, match=f"^{match}, got "):
            harness.random_lowrank(*args, 0)


@pytest.mark.parametrize("sigma", [(math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan)])
def test_random_lowrank_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValidationError, match="^sigma must be non-empty, finite"):
        harness.random_lowrank(2, 3, 2, 0, sigma=sigma)


def test_seeds_are_non_negative_integers_at_every_boundary():
    # NumPy's generator rejects a negative seed only when it draws: for a
    # pipeline run with shots, after the circuit; floats and bools are not
    # seeds either, and each boundary rejects them before any work
    a0 = harness.example_matrix()
    boundaries = (
        lambda s: harness.random_lowrank(2, 3, 2, s),
        lambda s: harness.random_lowrank(2, 3, 2, [s, 1]),
        lambda s: harness.SweepConfig(seed=s),
        lambda s: pipeline.PipelineConfig(a0=a0, tau=0.5, shots=10, seed=s),
    )
    for make, bad in itertools.product(boundaries, (-1, True, 2.0, np.float64(2), "3")):
        with pytest.raises(ValidationError, match="^seed must be an integer >= 0, got "):
            make(bad)
    # a NumPy integer seeds as the int, and so does a list of them
    assert np.array_equal(harness.random_lowrank(2, 3, 2, np.int64(3)),
                          harness.random_lowrank(2, 3, 2, 3))
    assert np.array_equal(harness.random_lowrank(2, 3, 2, [np.int64(3), 1]),
                          harness.random_lowrank(2, 3, 2, [3, 1]))


def test_cmd_example_passes(capsys):
    rc = harness.main(["example"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_cmd_example_that_misses_the_paper_exits_1(monkeypatch, capsys):
    # the documented exit 1: a value off its reference by more than the
    # tolerance fails its check, and the others still run
    monkeypatch.setitem(harness.EXAMPLE_EXPECTED, "F", 0.5)
    assert harness.main(["example"]) == 1
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert "check F: got 0.996228, expected 0.5 +/- 0.001: FAIL\n" in out


def test_cmd_example_prints_its_shots_line_and_runs_the_checks(capsys):
    assert harness.main(["example", "--shots", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[5] == "P (1000 shots) = 0.942000"  # at the default seed, 7
    assert [line.split(":")[0] for line in lines[6:]] == ["check P", "check F", "check N_alpha"]
    assert all(line.endswith(": PASS") for line in lines[6:])


def test_cmd_pipeline_prints_its_shots_line_after_the_recheck(tmp_path, capsys):
    path = tmp_path / "a0.txt"
    a = harness.example_matrix()
    np.savetxt(path, a, fmt="%.17g", header=f"{a.shape[0]} {a.shape[1]}", comments="")
    argv = ["pipeline", "--matrix", str(path), "--tau", "0.5"]
    assert harness.main(argv) == 0
    plain = capsys.readouterr().out.splitlines()
    assert harness.main([*argv, "--shots", "1000", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert plain[4].startswith("fidelity recheck via threshold matrix: ")
    assert plain[5].split() == ["k", "sigma", "y", "y_code", "target", "sim_amp", "analytic"]
    assert lines == [*plain[:5], "P (1000 shots) = 0.942000", *plain[5:]]


def test_cmd_example_alpha_override_reports_only(capsys):
    rc = harness.main(["example", "--alpha", "1.9403"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reporting mode" in out
    assert "check" not in out


def test_cmd_example_rejects_zero_tau(capsys):
    rc = harness.main(["example", "--tau", "0.0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "positive" in err


def test_cmd_example_rejects_a_tau_too_large_for_a_float(capsys):
    # argparse reads 1e400 as inf, which was "threshold inf >= largest singular value inf"
    assert harness.main(["example", "--tau", "1e400"]) == 2
    assert capsys.readouterr().err == \
        "error: threshold must be finite and positive, a real number, got inf\n"


def budget_layouts(monkeypatch) -> list:
    """The layouts that the run's budget checks see, from here on."""
    seen, check_budget = [], sim.check_budget
    monkeypatch.setattr(sim, "check_budget",
                        lambda layout, *args: seen.append(layout) or check_budget(layout, *args))
    return seen


def test_cmd_example_over_the_memory_budget_exits_2(monkeypatch, capsys):
    seen = budget_layouts(monkeypatch)
    assert harness.main(["example"]) == 0
    n = seen[0].n_qubits
    monkeypatch.setattr(harness.sim, "MEMORY_BYTES", (16 << n) - 1)  # the state alone
    assert harness.main(["example"]) == 2
    assert capsys.readouterr().err.startswith(f"error: memory budget exceeded: a {n}-qubit state")


def test_cmd_example_at_t_16_runs_within_a_budget_of_the_state_and_e_rows(monkeypatch):
    # t 16 exited 2: the budget counted DFTs of 64 GiB each beside a state
    # of at most 64 MiB; the FFT on C makes no matrix, so the budget sees
    # the state and the 2^16 x 2 table of E's label products, with the row
    # being folded into it and its exponential's temporary, alone
    extras = []
    check_budget = sim.check_budget
    monkeypatch.setattr(sim, "check_budget", lambda layout, extra=0, what="":
                        extras.append((layout, extra)) or check_budget(layout, extra, what))
    assert harness.main(["example", "--t-bits", "16"]) == 0
    [(layout, extra), in_new_state] = extras
    assert in_new_state == (layout, 0)  # new_state checks the state alone
    assert layout.t_bits == 16
    assert extra == qpe.matrix_bytes(16, layout.b_bits) == ((1 << 16) + 2) * 32


def test_cmd_example_at_t_16_over_the_memory_budget_exits_2(monkeypatch, capsys):
    # a budget a byte short of the state, E's table, the row folded into it
    # and its temporary, or one that holds the state and the two rows but
    # not the table, is refused before the state
    def no_state(*args, **kwargs):
        raise AssertionError("state allocated for a run over its budget")

    seen = budget_layouts(monkeypatch)
    assert harness.main(["example", "--t-bits", "16"]) == 0
    layout = seen[0]
    need = (16 << layout.n_qubits) + qpe.matrix_bytes(16, layout.b_bits)
    monkeypatch.setattr(sim, "new_state", no_state)
    for budget in (need - 1, (16 << layout.n_qubits) + 2 * (16 << layout.b_bits)):
        monkeypatch.setattr(sim, "MEMORY_BYTES", budget)
        capsys.readouterr()
        assert harness.main(["example", "--t-bits", "16"]) == 2
        assert capsys.readouterr().err == (
            f"error: memory budget exceeded: a {layout.n_qubits}-qubit state with E's 65536 x 2"
            f" table on the Schmidt index, the row being folded into it and herm_exp's temporary"
            f" takes {need} bytes,"
            f" the machine has {budget}\n")


def test_cmd_example_all_zero_codes_fail_in_set_up(capsys):
    # y_1 = 1 - 1.7/2 = 0.15 lies below 2^-2: every L code is 0
    rc = harness.main(["example", "--tau", "1.7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: every L code is 0") and "--m-bits to at least 3" in err
    assert harness.main(["example", "--tau", "1.7", "--m-bits", "3"]) == 0
    # y_1 = 1 - 2/2 rounds to 2.2e-16: no width in the qubit budget helps
    assert harness.main(["example", "--tau", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: every L code is 0 (y_1 = 1 - tau/sigma_1 = 2.22e-16")
    assert err.endswith("; no --m-bits up to 26 gives sigma_1 a code: lower tau\n")


def test_cmd_example_refuses_an_explicit_alpha_past_the_lobe(capsys, monkeypatch):
    # y_1 = 1 - 0.6/2 = 0.7 and 0.7 * 5 > pi; sigma_1's code at m 2 is 0.5,
    # on which the run once took alpha 5, printing F (analytic) = -0.369852
    monkeypatch.setattr(sim, "new_state", lambda *args: pytest.fail("state made"))
    assert harness.main(["example", "--tau", "0.6", "--alpha", "5.0"]) == 2
    lobe = "error: alpha * y_1 = {} exceeds pi (sine no longer single-lobed)\n"
    assert capsys.readouterr() == ("", lobe.format(3.5))
    # y_1 = 0.15 has code 0 at m 2 too: the lobe, alpha's rule, is named first
    assert harness.main(["example", "--tau", "1.7", "--alpha", "30"]) == 2
    assert capsys.readouterr() == ("", lobe.format(4.5))


def test_cmd_example_refuses_an_alpha_below_the_post_selection_floor(capsys, monkeypatch):
    # P = 5e-15: the run once made the state and was refused at post-select
    monkeypatch.setattr(sim, "new_state", lambda *args: pytest.fail("state made"))
    assert harness.main(["example", "--alpha", "1e-7"]) == 2
    assert capsys.readouterr() == ("", "error: post-selection probability 5.000e-15 below"
                                       " floor 1.000e-12 at this alpha\n")


def test_sweep_all_zero_code_records_carry_the_set_up_error():
    # instances 1 and 4 carried "rounds to label 0 ... raise --t-bits" for a
    # thresholded eigenvalue; now every record meets the all-zero codes
    cfg = harness.SweepConfig(
        n_instances=6, seed=0, tau_frac=0.85, simulate=True, m_bits=2, t_bits=4
    )
    errors = [rec.error for rec in harness.run_sweep(cfg)]
    assert len(errors) == 12
    assert all(e.startswith("every L code is 0") and "raise --m-bits" in e for e in errors)


def test_sweep_records_of_a_live_shared_label_carry_the_set_up_error():
    # sigma/tau = (3.33, 1.048, 0.702) on labels (15, 1, 1): sigma_2 shares its label
    cfg = harness.SweepConfig(n_instances=63, seed=0, simulate=True, t_bits=4)
    errors = [rec.error for rec in harness.run_sweep_instance(cfg, 62)]
    assert errors == 2 * ["singular value 2.9227 above tau rounds to label 1 at t_bits=4,"
                          " which holds another eigenvalue: raise --t-bits"]


def test_alpha_method_names_come_from_the_rule_table():
    parser = harness.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    for name in ("example", "pipeline"):
        action = next(a for a in commands[name]._actions if a.dest == "alpha_method")
        assert action.choices is alpha_mod.METHODS


# the matrix and config files the rows name; written as latin-1, each
# character its one byte, so \xff is the byte 0xff, which UTF-8 text never holds
INPUT_FILES = {
    "small.txt": "2 3\n1 0 0\n0 0.5 0\n",
    "header_not_int.txt": "2 x\n1 0 0\n0 0.5 0\n",
    "header_one_field.txt": "2\n1 0 0\n0 0.5 0\n",
    "not_utf8.txt": "2 2\xff\n1 0\n0 1\n",
    "not_utf8.cfg": "tau=0.5\xff\n",
}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["pipeline", "--matrix", "small.txt"], 2),  # no --tau
        (["pipeline", "--matrix", "header_not_int.txt", "--tau", "0.1"], 2),
        (["pipeline", "--matrix", "header_one_field.txt", "--tau", "0.1"], 2),
        (["pipeline", "--matrix", "not_utf8.txt", "--tau", "0.5"], 2),
        (["alpha", "--matrix", "not_utf8.txt", "--tau", "0.5"], 2),
        (["example", "--config", "not_utf8.cfg"], 2),
        (["alpha", "--sigma", "2,1"], 2),  # no --tau
        (["alpha", "--tau", "0.5"], 2),
        (["alpha", "--sigma", "2,1", "--matrix", "small.txt", "--tau", "0.5"], 2),
        (["sweep", "--tau-frac", "1.5", "--n", "2"], 2),
        (["sweep", "--shape", "3", "--n", "2"], 2),
        # the simulate cap: rank <= 8
        (["sweep", "--simulate", "--shape", "9,9", "--rank", "9", "--n", "2"], 2),
        (["sweep", "--simulate", "--shape", "9,9", "--sigma", "9,8,7,6,5,4,3,2,1", "--n", "2"], 2),
        (["example", "--alpha", "-1"], 2),
        (["example", "--shots", "-5"], 2),
        # a negative seed fails before the work it seeds
        (["example", "--seed", "-1"], 2),
        (["sweep", "--n", "2", "--seed", "-1"], 2),
        (["pipeline", "--matrix", "small.txt", "--tau", "0.3", "--shots", "5", "--seed", "-2"], 2),
        (["alpha", "--sigma", "2,x", "--tau", "0.5"], 2),
        (["alpha", "--sigma", "nan,1", "--tau", "0.5"], 2),
        (["alpha", "--sigma", "inf,1", "--tau", "0.5"], 2),
        # sigma^2 sums that leave the float range: N1 * N2 underflows (a bare
        # ZeroDivisionError), N1 overflows (P, F, G printed as nan), N1 underflows
        (["alpha", "--sigma", "2e-150,1e-150", "--tau", "5e-151"], 2),
        (["alpha", "--sigma", "1e160,1e159", "--tau", "1e158"], 2),
        (["alpha", "--sigma", "1e-170,1e-171", "--tau", "1e-172"], 2),
        (["sweep", "--shape", "3,x", "--n", "1"], 2),
        (["sweep", "--n", "2", "--t-bits", "0", "--simulate"], 2),
        (["sweep", "--n", "2", "--m-bits", "0"], 2),
        (["sweep", "--n", "2", "--jobs", "0"], 2),
        (["sweep", "--n", "2", "--jobs", "-3"], 2),
        (["sweep", "--n", "2", "--methods", ","], 2),  # no method
        (["sweep", "--n", "2", "--methods", "numeric,numeric"], 2),
        # register widths are checked before 2**width is formed
        (["example", "--t-bits", "-1"], 2),
        (["example", "--m-bits", "-1"], 2),
        (["example", "--t-bits", "2000"], 2),
        (["example", "--m-bits", "2000"], 2),
        (["sweep", "--n", "2", "--methods", "intuitive,taylor3"], 2),
        # sweep input that every instance would fail is rejected up front
        (["sweep", "--tau", "-1", "--n", "2"], 2),
        (["sweep", "--tau", "0", "--n", "2"], 2),
        (["sweep", "--tau", "nan", "--n", "2"], 2),
        (["sweep", "--shape", "0,3", "--n", "2"], 2),
        (["sweep", "--shape", "3,3", "--rank", "5", "--n", "2"], 2),
        (["sweep", "--rank", "0", "--n", "2"], 2),
        (["sweep", "--rank", "7", "--n", "2"], 2),  # above the corpus's largest dim
        (["sweep", "--sigma", "1,2", "--rank", "2", "--n", "2"], 2),
        (["sweep", "--sigma", "2,-1", "--rank", "2", "--n", "2"], 2),
        (["sweep", "--sigma", "nan,1", "--rank", "2", "--n", "2"], 2),
        (["sweep", "--sigma", "3,2,1", "--rank", "2", "--n", "2"], 2),
        (["sweep", "--sigma", "2,1", "--tau", "3", "--rank", "2", "--n", "2"], 2),
        (["sweep", "--sigma", "7,6,5,4,3,2,1", "--n", "2"], 2),  # no instance has rank 7
        (["sweep", "--sigma", "1,0.9999999999", "--n", "2"], 2),  # near-equal values
        # one row: phase estimation acts on its padded qubit, and the run succeeds
        (["sweep", "--shape", "1,3", "--simulate", "--n", "2"], 0),
        # injected sigma whose squares leave the float range: every record failed
        (["sweep", "--n", "2", "--sigma", "1e200,1e199"], 2),
        (["sweep", "--n", "2", "--sigma", "2e-170,1e-170"], 2),
    ],
)
def test_cli_exit_code_contract(tmp_path, monkeypatch, capsys, argv, code):
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text, encoding="latin-1")
    monkeypatch.chdir(tmp_path)
    rc = harness.main(argv)
    err = capsys.readouterr().err
    assert rc == code
    if code == 0:  # the CSV is written, every record without an error
        assert err == ""
        header, *records = [row for row in csv_rows(tmp_path / "sweep.csv") if row[0][0] != "#"]
        assert records and all(row[header.index("error")] == "" for row in records)
        return
    assert err.startswith("error:")
    if argv[0] in ("alpha", "pipeline") and "--tau" not in argv:  # the "no --tau" rows
        assert err == "error: no threshold: give --tau, or tau= in the --config file\n"
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_newton_cap_exits_3_before_the_state(monkeypatch, capsys):
    # label 1 falls from sigma_1's code 3 to its own, 2: one step is too few
    def no_state(*args, **kwargs):
        raise AssertionError("state allocated for a run whose oracle failed")

    monkeypatch.setattr(rotation, "MAX_ITERATIONS", 1)
    monkeypatch.setattr(sim, "new_state", no_state)
    assert harness.main(["example"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: label 1 (") and "no convergence in 1 iterations" in err


def test_each_flag_takes_its_config_field_name_and_default():
    # cmd_sweep and _run build their configs by field name: each field is
    # the dest of a flag at the field's default, but for --seed, whose 7
    # seeds the example matrix, and the comma-separated --methods
    commands = next(a for a in harness.build_parser()._actions if a.dest == "command").choices
    for name, cls, given in (("sweep", harness.SweepConfig, ()),
                             ("pipeline", pipeline.PipelineConfig, ("a0", "tau"))):
        defaults = {a.dest: a.default for a in commands[name]._actions}
        for f in dataclasses.fields(cls):
            if f.name in given:  # the matrix file, and --tau, which has no default here
                continue
            want = 7 if f.name == "seed" else f.default
            if f.name == "methods":
                want = ",".join(want)
            assert defaults[f.name] == want, (name, f.name)


def test_alpha_takes_no_seed(capsys):
    # alpha draws nothing, so it has no --seed for a run to be misled by
    with pytest.raises(SystemExit) as exc:
        harness.main(["alpha", "--sigma", "2,1", "--tau", "0.5", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_alpha_names_tau_over_sigma_when_y_rounds_to_one(capsys):
    # y_1 = 1 - 1e-50 is 1.0, which was reported as a fraction outside [0, 1)
    assert harness.main(["alpha", "--sigma", "1e200,1e199", "--tau", "1e150"]) == 2
    assert capsys.readouterr().err == (
        "error: tau / sigma_1 = 1e-50 is below float resolution:"
        " y_1 = 1 - tau / sigma_1 rounds to 1\n")


def test_sweep_config_accepts_the_largest_rank_an_instance_can_hold():
    harness.SweepConfig(rank=harness.SWEEP_DIM_RANGE[1])
    harness.SweepConfig(shape=(2, 3), rank=2, sigma=(2.0, 1.0), tau=1.5)
    harness.SweepConfig(shape=(1, 1), rank=1, sigma=(2.0,))


def test_sweep_config_takes_integer_counts_widths_shape_and_rank():
    # each of these passed a bare "< 1" check and ended in a bare TypeError
    # in run_sweep, or in a width error written into every record
    bad = {
        "n_instances must be an integer >= 1": [dict(n_instances=2.5), dict(n_instances=True),
                                                dict(n_instances=0)],
        "jobs must be an integer >= 1": [dict(jobs=1.5)],
        "t_bits must lie in 1..26, an integer": [dict(t_bits=6.0, simulate=True),
                                                 dict(t_bits=np.float64(6))],
        "m_bits must lie in 1..26, an integer": [dict(m_bits=8.0), dict(m_bits=0)],
        "rank must lie in": [dict(rank=2.0, n_instances=1), dict(rank=True)],
        "shape must be an integer >= 1": [dict(shape=(2.0, 3), n_instances=1),
                                          dict(shape=(2, 0))],
        "shape must be a pair of integers": [dict(shape=(2, 3, 4)), dict(shape=5)],
    }
    for match, cases in bad.items():
        for kwargs in cases:
            with pytest.raises(ValidationError, match=match):
                harness.SweepConfig(**kwargs)
    cfg = harness.SweepConfig(n_instances=np.int64(2), jobs=np.int64(1), t_bits=np.int64(6),
                              shape=(np.int64(2), 3), rank=np.int64(2), methods=("intuitive",))
    assert [rec.error for rec in harness.run_sweep(cfg)] == [""] * 2


def test_sweep_sigma_and_tau_must_be_real_numbers():
    # sigma that NumPy cannot read as floats raised its bare ValueError; a
    # bool tau ran as tau = 1
    for make in (lambda s: harness.random_lowrank(2, 3, 1, 0, sigma=s),
                 lambda s: harness.SweepConfig(sigma=s)):
        for sigma in (("a",), ((2.0, 1.0),)):
            with pytest.raises(ValidationError, match="^sigma must be a vector of real numbers"):
                make(sigma)
    with pytest.raises(ValidationError, match="^threshold must be finite and positive, a real number"):
        harness.SweepConfig(tau=True)
    tau = harness.SweepConfig(tau=np.float32(0.5)).tau
    assert type(tau) is float and tau == 0.5
    # a str tau fraction raised a bare TypeError, a float32 one computed tau
    # in float32 and the CSV wrote it through str
    for frac in ("x", True, None, 0.3j, math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValidationError, match="^tau fraction must be finite and positive"):
            harness.SweepConfig(tau_frac=frac)
        # an explicit tau leaves the fraction unused, but not unchecked
        with pytest.raises(ValidationError, match="^tau fraction must be finite and positive"):
            harness.SweepConfig(tau=0.5, tau_frac=frac)
    for frac in (1.0, np.float32(1.5)):
        with pytest.raises(ValidationError, match=r"^tau fraction must lie in \(0, 1\)"):
            harness.SweepConfig(tau_frac=frac)
        assert harness.SweepConfig(tau=0.5, tau_frac=frac).tau_frac == frac
    cfg = harness.SweepConfig(n_instances=1, tau_frac=np.float32(0.25))
    assert type(cfg.tau_frac) is float and cfg.tau_frac == 0.25
    assert type(harness.run_sweep(cfg)[0].tau) is float
    # a NumPy sigma with a tau met the array's ambiguous truth value
    harness.SweepConfig(sigma=np.array([2.0, 1.0]), tau=1.5)


def test_sweep_out_that_cannot_be_opened_fails_before_the_sweep(tmp_path, monkeypatch, capsys):
    def no_sweep(cfg):
        raise AssertionError("sweep ran before its output was opened")

    monkeypatch.setattr(harness, "run_sweep", no_sweep)
    out = tmp_path / "missing" / "s.csv"
    assert harness.main(["sweep", "--n", "60", "--simulate", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("i/o error:")
    # an unwritable --plot path failed only after the sweep, and then, checked
    # before it, still truncated --out: neither path's failure changes the
    # other's file now
    kept = {tmp_path / "s.csv": b"an earlier sweep\n", tmp_path / "p.svg": b"<svg/>\n"}
    for path, data in kept.items():
        path.write_bytes(data)
    for out, plot in ((tmp_path / "s.csv", tmp_path / "missing" / "p.svg"),
                      (tmp_path / "missing" / "s.csv", tmp_path / "p.svg")):
        assert harness.main(["sweep", "--n", "60", "--out", str(out), "--plot", str(plot)]) == 2
        assert capsys.readouterr().err.startswith("i/o error:")
        assert {path: path.read_bytes() for path in kept} == kept
    # and a file that the check made itself is removed again
    fresh = tmp_path / "fresh.csv"
    assert harness.main(["sweep", "--n", "60", "--out", str(fresh),
                         "--plot", str(tmp_path / "missing" / "p.svg")]) == 2
    assert capsys.readouterr().err.startswith("i/o error:")
    assert not fresh.exists()
    # a plot path that is the CSV path, auto or spelled another way, would overwrite it
    out = tmp_path / "r.svg"
    for plot in ([], [str(tmp_path / "." / "r.svg")]):
        assert harness.main(["sweep", "--n", "60", "--out", str(out), "--plot", *plot]) == 2
        assert "would overwrite --out" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_set_up_failure_writes_the_configured_tau(tmp_path, monkeypatch, capsys):
    # a tau from the fraction was never derived: it read 0, a tau never given
    def degenerate(a0):
        raise DegenerateSpectrumError("near-equal singular values")

    monkeypatch.setattr(spectral, "decompose", degenerate)
    for tau, written in ((None, ""), (0.25, "0.25")):
        records = harness.run_sweep(harness.SweepConfig(n_instances=2, tau=tau))
        assert [(rec.tau, rec.error) for rec in records] == [(tau, "near-equal singular values")] * 4
        argv = ["sweep", "--n", "2", "--out", str(tmp_path / "s.csv")]
        assert harness.main(argv + (["--tau", str(tau)] if tau else [])) == 0
        idx = harness.CSV_COLUMNS.index("tau")
        assert {row[idx] for row in csv_rows(tmp_path / "s.csv")[3:]} == {written}
    capsys.readouterr()


def test_sweep_config_rejects_an_empty_sigma():
    # every record would fail with "rank 0 invalid for shape"
    with pytest.raises(ValidationError, match="^sigma must be non-empty"):
        harness.SweepConfig(n_instances=3, sigma=())


def test_sweep_config_rejects_empty_or_repeated_methods():
    # none would write no record; a repeat would write its records twice;
    # None raised a bare TypeError, and a str was read letter by letter
    # ("unknown alpha method 'i'")
    for methods in ((), ("numeric", "numeric"), ("intuitive", "taylor2", "intuitive"), None,
                    "intuitive", "", 3):
        with pytest.raises(ValidationError, match="^methods must be one or more distinct"):
            harness.SweepConfig(methods=methods)


def test_sweep_config_keeps_methods_shape_and_sigma_in_order():
    # a set of methods wrote its records in an order that followed
    # PYTHONHASHSEED; a set shape would read (4, 3) as (3, 4)
    for names in ({"intuitive", "taylor2", "numeric"}, frozenset({"numeric"}),
                  {"intuitive": 1}.keys()):
        with pytest.raises(ValidationError, match="^methods must be one or more distinct names"):
            harness.SweepConfig(methods=names)
    with pytest.raises(ValidationError, match="^shape must be a pair of integers"):
        harness.SweepConfig(shape={4, 3})
    cfg = harness.SweepConfig(n_instances=1, methods=["numeric", "intuitive"], shape=[3, 3],
                              sigma=np.array([2.0, 1.1], dtype=np.float32))
    assert cfg.methods == ("numeric", "intuitive")
    assert type(cfg.sigma) is tuple and [type(s) for s in cfg.sigma] == [float, float]
    assert cfg.sigma == (2.0, float(np.float32(1.1)))
    assert [rec.alpha_method for rec in harness.run_sweep(cfg)] == ["numeric", "intuitive"]


def test_sweep_sigma_without_rank_sets_the_rank():
    records = harness.run_sweep(
        harness.SweepConfig(n_instances=10, sigma=(2.0, 1.0), methods=("intuitive",))
    )
    assert len(records) == 10
    assert [rec.error for rec in records] == [""] * 10
    assert {rec.r for rec in records} == {2}
    with pytest.raises(ValidationError, match="3 injected sigma values for rank 2"):
        harness.random_lowrank(3, 3, 2, 0, sigma=(3.0, 2.0, 1.0))


def test_sweep_fixed_rank_draws_shapes_that_hold_it():
    for fixed in ({"rank": 5}, {"sigma": (5.0, 4.0, 3.0, 2.0, 1.0)}):
        records = harness.run_sweep(harness.SweepConfig(n_instances=10, **fixed))
        assert len(records) == 20
        assert [rec.error for rec in records] == [""] * 20
        assert {rec.r for rec in records} == {5}
        assert min(min(rec.p, rec.q) for rec in records) >= 5


def test_config_value_that_does_not_parse_names_key_and_value(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("# defaults\nt-bits = 3.5\n")
    with pytest.raises(SystemExit) as exc:
        harness.main(["example", "--config", str(path)])
    assert exc.value.code == 2
    assert "argument --t-bits: invalid int value: '3.5'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flags, message",
    [
        # a key the subcommand has no flag for
        (["alpha", "--sigma", "3,2"], ["--seed", "3", "--tau", "0.9"],
         "unrecognized arguments: --seed 3"),
        (["example"], ["--jobs", "4"], "unrecognized arguments: --jobs 4"),
        (["example"], ["--methods", "numeric"], "unrecognized arguments: --methods numeric"),
        # a value the flag's type or choices reject
        (["example"], ["--tau", "abc"], "argument --tau: invalid float value: 'abc'"),
        (["example"], ["--alpha-method", "taylor3"],
         "argument --alpha-method: invalid choice: 'taylor3'"),
    ],
)
def test_config_line_fails_as_the_flag_it_names(tmp_path, capsys, argv, flags, message):
    path = tmp_path / "run.cfg"
    keys = [flag[2:].replace("-", "_") for flag in flags[::2]]
    path.write_text("".join(f"{k}={v}\n" for k, v in zip(keys, flags[1::2])))
    errors = []
    for run in (argv + ["--config", str(path)], argv + flags):
        with pytest.raises(SystemExit) as exc:
            harness.main(run)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert message in errors[0]
    assert errors[0] == errors[1]


def test_config_file_sets_any_valued_flag(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("shape=2,3\nrank=2\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert harness.main(["sweep", "--n", "4", "--config", str(path), "--out", str(a)]) == 0
    assert harness.main(["sweep", "--n", "4", "--shape", "2,3", "--rank", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert {tuple(row[2:5]) for row in csv_rows(a)[3:]} == {("2", "3", "2")}  # p, q, r


def test_config_rejects_lines_that_name_no_flag(tmp_path, capsys):
    # a config= line, or an abbreviation of it, would be stored and ignored
    path = tmp_path / "run.cfg"
    for line in ("tau 0.5", "=0.5", "config=other.cfg", "conf=other.cfg"):
        path.write_text(f"{line}\n")
        assert harness.main(["example", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad config line: {line!r}")


def test_config_without_a_path_is_the_subcommand_usage_error(capsys):
    for argv in (["example", "--config"], ["example", "--config", "--tau", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            harness.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qsvt example")
        assert "argument --config: expected one argument" in err


def test_sweep_warns_with_the_taylor4_fallback_note(monkeypatch):
    # the sweep dropped the note that run_pipeline warns with; unpatched,
    # the instance does not fall back, and a warning would fail the test
    cfg = harness.SweepConfig(n_instances=1, methods=("taylor2", "taylor4"))
    assert harness.run_sweep_instance(cfg, 0)[1].alpha_method == "taylor4"

    def no_root(profile):
        raise ValidationError("taylor4 quartic has a negative discriminant")

    monkeypatch.setattr(alpha_mod, "_RULES", {**alpha_mod._RULES, "taylor4": no_root})
    with pytest.warns(UserWarning, match="^taylor4 discriminant negative; used taylor2$"):
        taylor2, taylor4 = harness.run_sweep_instance(cfg, 0)
    assert (taylor4.alpha_method, taylor4.error) == ("taylor4", "")
    assert (taylor4.alpha, taylor4.p_analytic) == (taylor2.alpha, taylor2.p_analytic)


def test_sweep_record_of_a_method_does_not_depend_on_the_others():
    # the rules of one instance share its profile
    both = harness.SweepConfig(methods=alpha_mod.METHODS)
    for index in range(both.n_instances):
        records = harness.run_sweep_instance(both, index)
        for method, rec in zip(alpha_mod.METHODS, records):
            alone = harness.SweepConfig(methods=(method,))
            assert repr(harness.run_sweep_instance(alone, index)) == repr([rec]), (index, method)


def test_run_sweep_caps_workers_at_instances_and_cpus(monkeypatch):
    started, methods, envs = [], set(), []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records max_workers, the
        start method and the BLAS variables a spawned worker would see,
        maps here."""

        def __init__(self, max_workers, mp_context):
            started.append(max_workers)
            methods.add(mp_context.get_start_method())
            envs.append({var: os.environ.get(var) for var in harness.BLAS_THREADS})

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    parent = {var: os.environ.get(var) for var in harness.BLAS_THREADS}
    serial = harness.run_sweep(harness.SweepConfig(n_instances=6))
    for n, jobs, workers in ((3, 1000, 3), (6, 1000, 4), (6, 2, 2)):
        records = harness.run_sweep(harness.SweepConfig(n_instances=n, jobs=jobs))
        assert records == serial[: 2 * n]
        assert started[-1] == workers
    # one instance or one CPU runs in this process, with no pool
    harness.run_sweep(harness.SweepConfig(n_instances=1, jobs=1000))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    harness.run_sweep(harness.SweepConfig(n_instances=6, jobs=1000))
    assert started == [3, 4, 2]
    assert methods == {"spawn"}  # a fork of a process with BLAS threads can deadlock
    # each worker's BLAS runs one thread (each had one per core, and two
    # workers took 5-7 s where one took 2-3); this process keeps its own
    assert envs == [dict.fromkeys(harness.BLAS_THREADS, "1")] * 3
    assert {var: os.environ.get(var) for var in harness.BLAS_THREADS} == parent
    # a worker that fails restores them too
    monkeypatch.setattr(harness, "run_sweep_instance", lambda cfg, i: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        harness.run_sweep(harness.SweepConfig(n_instances=2, jobs=2))
    assert {var: os.environ.get(var) for var in harness.BLAS_THREADS} == parent


def test_cmd_sweep_byte_identical_reruns(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--n", "6", "--seed", "11"]
    assert harness.main(args + ["--out", str(out1)]) == 0
    assert harness.main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_cmd_sweep_csv_schema(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert harness.main(["sweep", "--n", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "#schema=1"
    assert lines[1].startswith("#corpus=")
    assert lines[2] == ",".join(harness.CSV_COLUMNS)
    assert len(lines) == 3 + 3 * 2  # two methods per instance
    # each row is the record's fields in declaration order
    names = [f.name for f in dataclasses.fields(harness.ExperimentRecord)]
    assert [c.lower() for c in harness.CSV_COLUMNS] == names


def test_cmd_sweep_plot_next_to_a_non_csv_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert harness.main(["sweep", "--n", "2", "--out", "s.txt", "--plot"]) == 0
    capsys.readouterr()
    assert (tmp_path / "s.txt").read_text().startswith("#schema=1")
    assert (tmp_path / "s.svg").read_text().startswith("<svg")
    # every record carries an error: the sweep still finished, so exit 0
    argv = ["sweep", "--n", "3", "--simulate", "--tau-frac", "0.85", "--m-bits", "2",
            "--t-bits", "4", "--out", "e.csv", "--plot"]
    assert harness.main(argv) == 0
    assert "no plottable records: no plot written" in capsys.readouterr().out
    assert not (tmp_path / "e.svg").exists()
    # an error that holds a comma shifted every column after it
    rows = csv_rows(tmp_path / "e.csv")
    assert rows[0] == ["#schema=1"]
    cfg = harness.SweepConfig(n_instances=3, simulate=True, tau_frac=0.85, m_bits=2, t_bits=4,
                              seed=7)
    errors = [rec.error for rec in harness.run_sweep(cfg)]
    assert all(errors) and any("," in e for e in errors)
    assert [len(row) for row in rows[2:]] == [len(harness.CSV_COLUMNS)] * (1 + len(errors))
    assert [row[-1] for row in rows[3:]] == errors


def test_cmd_sweep_without_a_plot_keeps_a_plot_file_it_did_not_make(tmp_path, monkeypatch,
                                                                    capsys):
    # tau lies above every sigma_1, so every record errors and no plot is
    # written: the sweep removed the named plot file, though its pre-open
    # had promised to truncate neither file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mine.svg").write_text("<svg/>\n")
    argv = ["sweep", "--n", "2", "--shape", "2,2", "--tau", "50", "--plot", "mine.svg",
            "--out", "out.csv"]
    assert harness.main(argv) == 0
    assert "no plottable records: no plot written" in capsys.readouterr().out
    assert (tmp_path / "mine.svg").read_text() == "<svg/>\n"


def test_cmd_sweep_reference_spectrum_matches_example(tmp_path, capsys):
    out = tmp_path / "ref.csv"
    rc = harness.main(
        [
            "sweep", "--n", "1", "--shape", "2,3", "--rank", "2",
            "--sigma", "2,1", "--tau", "0.5", "--t-bits", "3", "--m-bits", "2",
            "--methods", "intuitive", "--simulate", "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    row = csv_rows(out)[3]
    cols = {name: row[i] for i, name in enumerate(harness.CSV_COLUMNS)}
    assert cols["error"] == ""
    assert abs(float(cols["P_sim"]) - 0.9499) <= 1e-3
    assert abs(float(cols["F_sim"]) - 0.9962) <= 1e-3
    assert cols["exact"] == "1"


def test_sweep_full_comparison_medians():
    # On the default corpus (sigma log-uniform on [0.1, 10], tau = 0.3
    # sigma_1) most instances keep only sigma_1 above tau.  There F = 1
    # for every alpha, intuitive (alpha = pi / (2 y_1)) gives P = share
    # = sigma_1^2 / N1 and taylor2 (alpha = sqrt(2) / y_1) gives
    # P = share * sin^2(sqrt(2)): a gap of share * cos^2(sqrt(2)) ~ 0.0243
    # share, above 0.02 once share > 0.82.  So the P flag reads False by
    # construction, with intuitive the higher-P rule; the two-sided 0.02
    # claim is checked where it holds, in test_alpha.py's
    # test_intuitive_vs_taylor2_medians_over_profiles.
    cfg = harness.SweepConfig(n_instances=120, seed=5)
    records = harness.run_sweep(cfg)
    assert len(records) == 240
    summary = harness.sweep_summary(records)
    assert summary["n_errors"] == 0
    assert summary["f_not_worse"]

    by_method = {m: [r for r in records if r.alpha_method == m] for m in cfg.methods}
    medians = {
        m: {
            "P": float(np.median([r.p_analytic for r in recs])),
            "F": float(np.median([r.f_analytic for r in recs])),
        }
        for m, recs in by_method.items()
    }
    gap = abs(medians["intuitive"]["P"] - medians["taylor2"]["P"])
    assert summary["medians"] == medians
    assert summary["p_median_gap"] == gap
    assert summary["p_comparable"] == (gap <= 0.02)

    # the single-survivor law, from each record's own spectrum
    sin2 = np.sin(np.sqrt(2.0)) ** 2
    single = 0
    for rec_i, rec_t in zip(by_method["intuitive"], by_method["taylor2"]):
        assert rec_i.instance == rec_t.instance
        a0 = harness.random_lowrank(rec_i.p, rec_i.q, rec_i.r, [rec_i.seed, 1])
        sigma = spectral.decompose(a0).sigma
        assert rec_i.tau == cfg.tau_frac * float(sigma[0])  # same spectrum
        if len(sigma) > 1 and sigma[1] > rec_i.tau:
            continue
        single += 1
        share = sigma[0] ** 2 / np.sum(sigma**2)
        assert rec_i.p_analytic == pytest.approx(share, rel=0, abs=1e-12)
        assert rec_t.p_analytic == pytest.approx(share * sin2, rel=0, abs=1e-12)
        assert rec_i.f_analytic == pytest.approx(1.0, rel=0, abs=1e-12)
        assert rec_t.f_analytic == pytest.approx(1.0, rel=0, abs=1e-12)
    assert single > cfg.n_instances / 2
    assert medians["intuitive"]["P"] >= medians["taylor2"]["P"]


def test_sweep_simulate_refuses_widths_that_no_instance_can_run(tmp_path, capsys):
    # a run's state has m + t + 2 qubits at least, as B has one: every
    # record read "qubit budget exceeded: 36 > 26" and the sweep exited 0
    out = tmp_path / "s.csv"
    assert harness.main(["sweep", "--n", "2", "--methods", "numeric", "--simulate",
                         "--t-bits", "8", "--m-bits", "26", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: simulate mode needs m_bits + t_bits + 2 <= {sim.MAX_QUBITS} qubits,"
        " got m_bits 26 + t_bits 8 + 2 = 36\n")
    assert not out.exists()
    # the widest widths still run, and without --simulate the widths are free
    assert harness.SweepConfig(simulate=True, t_bits=8, m_bits=sim.MAX_QUBITS - 10).simulate
    with pytest.raises(ValidationError, match=r"^simulate mode needs m_bits \+ t_bits \+ 2"):
        harness.SweepConfig(simulate=True, t_bits=8, m_bits=sim.MAX_QUBITS - 9)
    assert harness.SweepConfig(t_bits=8, m_bits=sim.MAX_QUBITS).m_bits == sim.MAX_QUBITS


def test_sweep_simulate_respects_fixed_point_bound():
    cfg = harness.SweepConfig(
        n_instances=4,
        seed=9,
        simulate=True,
        t_bits=5,
        m_bits=6,
        shape=(3, 3),
        rank=2,
        sigma=(2.0, np.sqrt(2.0)),
        tau=0.7,
    )
    records = harness.run_sweep(cfg)
    for rec in records:
        assert rec.error == ""
        bound = 4.0 * rec.alpha * 2.0**-cfg.m_bits
        assert abs(rec.p_sim - rec.p_analytic) < bound


def test_sweep_drift_bound_applies_to_exact_phase_estimation_only(monkeypatch):
    results = []
    run = harness.pipeline_mod.run_pipeline
    monkeypatch.setattr(harness.pipeline_mod, "run_pipeline",
                        lambda c: results.append(run(c)) or results[-1])
    # instance 4 of `sweep --simulate --tau-frac 0.1` at the CLI's seed 7:
    # phase-estimation leakage, not code rounding, moves P_sim far off
    cfg = harness.SweepConfig(tau_frac=0.1, seed=7, simulate=True)
    records = harness.run_sweep_instance(cfg, 4)
    assert [res.pe_exact for res in results] == [False, False]
    assert [rec.error for rec in records] == ["", ""]
    assert all(rec.p_analytic - rec.p_sim > 0.15 for rec in records)
    # an exact run pushed past the bound is still flagged
    cfg = harness.SweepConfig(n_instances=1, seed=9, simulate=True, t_bits=5, m_bits=6,
                              shape=(3, 3), sigma=(2.0, np.sqrt(2.0)), tau=0.7,
                              methods=("intuitive",))
    for factor, error in ((0.99, ""), (1.01, "probability drift exceeds fixed-point bound")):
        def pushed(c):
            res = run(c)
            results.append(res)
            drift = factor * 4.0 * res.alpha * 2.0**-c.m_bits
            return dataclasses.replace(res, p_sim=res.p_analytic - drift)

        monkeypatch.setattr(harness.pipeline_mod, "run_pipeline", pushed)
        (rec,) = harness.run_sweep_instance(cfg, 0)
        assert results[-1].pe_exact and rec.error == error


def test_sweep_jobs_pool_matches_serial():
    base = harness.SweepConfig(n_instances=6, seed=3)
    serial = harness.run_sweep(base)
    pooled = harness.run_sweep(harness.SweepConfig(n_instances=6, seed=3, jobs=2))
    assert [r.to_row() for r in serial] == [r.to_row() for r in pooled]


def test_cmd_alpha_table(capsys):
    rc = harness.main(["alpha", "--sigma", "2,1", "--tau", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2.094395" in out
    assert "1.940285" in out
    for method in ("intuitive", "taylor2", "taylor4", "numeric"):
        assert method in out


def test_cmd_alpha_rank_one_all_methods_agree(capsys):
    rc = harness.main(["alpha", "--sigma", "3", "--tau", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0
    alphas = []
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] in ("intuitive", "taylor2", "taylor4", "numeric"):
            alphas.append(float(parts[1]))
    ref = np.pi / (2 * (1 - 1.0 / 3.0))
    assert len(alphas) == 4
    # the series truncations are approximations; the peak solvers agree tightly
    assert abs(alphas[0] - ref) < 1e-6
    assert abs(alphas[3] - ref) < 1e-6
    assert all(abs(a - ref) / ref < 0.15 for a in alphas)


def test_cmd_alpha_fully_thresholded_errors(capsys):
    rc = harness.main(["alpha", "--sigma", "2,1", "--tau", "2.5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error" in captured.err


def test_cmd_pipeline_from_matrix_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a0.txt"
    a = harness.example_matrix()
    np.savetxt(path, a, fmt="%.17g", header=f"{a.shape[0]} {a.shape[1]}", comments="")
    calls = []
    decompose = spectral.decompose
    monkeypatch.setattr(spectral, "decompose", lambda *a: calls.append(a) or decompose(*a))
    rc = harness.main(["pipeline", "--matrix", str(path), "--tau", "0.5",
                       "--t-bits", "3", "--m-bits", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert len(calls) == 1  # the run and the classical recheck share one SVD
    assert "P_sim = 0.95" in out
    assert "delta" in out


@pytest.mark.parametrize(
    "sigma, tau", [((2.0, 1.0), "0.5"), ((3.0, 2.0, 1.0), "0.9")], ids=["diag21", "diag321"]
)
def test_cmd_pipeline_prints_round_off_as_below_1e_12(tmp_path, capsys, sigma, tau):
    # exact-regime residual and recheck delta are round-off, whose digits
    # depend on the order of the arithmetic; stdout must not carry them
    path = tmp_path / "diag.txt"
    np.savetxt(path, np.diag(sigma), fmt="%.17g", header=f"{len(sigma)} {len(sigma)}",
               comments="")
    outs = []
    for _ in range(2):
        assert harness.main(["pipeline", "--matrix", str(path), "--tau", tau]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "uncompute residual = < 1e-12, exact = " in outs[0]
    assert "(delta < 1e-12)" in outs[0]
    assert harness._tiny(2.5e-12) == "2.500e-12"


def test_cmd_sweep_margin_never_prints_negative_zero(tmp_path, monkeypatch, capsys):
    summary = harness.sweep_summary
    monkeypatch.setattr(
        harness, "sweep_summary", lambda *a: {**summary(*a), "f_median_margin": -1e-17}
    )
    assert harness.main(["sweep", "--n", "2", "--out", str(tmp_path / "s.csv")]) == 0
    out = capsys.readouterr().out
    assert "median F margin (intuitive - taylor2) = 0.000000 (floor" in out
    assert "-0.000000" not in out


def test_emit_plot_structure(tmp_path):
    records = harness.run_sweep(harness.SweepConfig(n_instances=4, seed=2))
    path = tmp_path / "plot.svg"
    harness.emit_plot(records, path)
    tree = ET.parse(path)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    panels = tree.findall(".//svg:g[@class='panel']", ns)
    assert len(panels) == 2
    for panel in panels:
        series = panel.findall("svg:g[@class='series']", ns)
        assert {s.get("data-method") for s in series} == {"intuitive", "taylor2"}
        assert all(s.find("svg:polyline", ns) is not None for s in series)


def test_emit_plot_two_records_one_method(tmp_path):
    records = harness.run_sweep(
        harness.SweepConfig(n_instances=2, seed=2, methods=("intuitive",))
    )
    path = tmp_path / "two.svg"
    harness.emit_plot(records, path)
    tree = ET.parse(path)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    circles = tree.findall(".//svg:circle", ns)
    assert len(circles) == 4  # 2 points per panel


def test_emit_plot_refuses_empty(tmp_path):
    with pytest.raises(ValidationError):
        harness.emit_plot([], tmp_path / "never.svg")


def test_emit_plot_deterministic(tmp_path):
    records = harness.run_sweep(harness.SweepConfig(n_instances=3, seed=4))
    p1, p2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
    harness.emit_plot(records, p1)
    harness.emit_plot(records, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_config_file_defaults_and_cli_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("tau=0.6\nseed=7\n")
    rc = harness.main(["example", "--config", str(cfgfile), "--tau", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0  # CLI tau=0.5 wins, reference assertions hold
    assert out.count("PASS") == 3
    rc = harness.main(["example", "--config", str(cfgfile)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reporting mode" in out  # config tau=0.6 is not the reference run


def test_config_file_explicit_flag_wins(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("tau=0.4\n")
    rc = harness.main(["example", "--config", str(cfgfile), "--tau", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 3


def test_cmd_example_at_ratio_twenty_runs_on_two_bits(monkeypatch, capsys):
    # sigma/tau = 20 and 10 on two bits of L: both floor codes are 3
    oracles = []
    build = rotation.build_sigma_tau_oracle
    monkeypatch.setattr(rotation, "build_sigma_tau_oracle",
                        lambda *args: oracles.append(build(*args)) or oracles[-1])
    rc = harness.main(["example", "--tau", "0.1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reporting mode" in out
    assert [oracle.y_codes for oracle in oracles] == [{4: 3, 1: 3}]


@pytest.mark.parametrize("argv", [["--tau", "0.4"], ["--tau", "0.1", "--m-bits", "8"]])
def test_cmd_example_runs_above_ratio_four(capsys, argv):
    # sigma_1/tau = 5 and 20
    rc = harness.main(["example", *argv])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reporting mode" in out


@pytest.mark.parametrize("m_bits, reference", [("2", True), ("1", False), ("8", False)])
def test_cmd_example_reference_run_needs_two_m_bits(capsys, m_bits, reference):
    # at one bit, L cannot hold y_1 = 0.75: not the reference run, so no checks
    rc = harness.main(["example", "--m-bits", m_bits])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == (3 if reference else 0)
    assert ("reporting mode" in out) is not reference
    assert "FAIL" not in out


def test_sweep_simulate_converges_above_ratio_four(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["sweep", "--simulate", "--tau-frac", "0.1", "--n", "6", "--out", str(out)]
    assert harness.main(argv) == 0
    capsys.readouterr()
    text = out.read_text()
    assert len(text.splitlines()) == 3 + 12
    assert "no convergence" not in text
    assert "Newton start" not in text


def test_wall_time_blank_by_default(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert harness.main(["sweep", "--n", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    idx = harness.CSV_COLUMNS.index("wall_time_s")
    for row in csv_rows(out)[3:]:
        assert row[idx] == ""


def test_sweep_timings_fill_only_the_wall_time(tmp_path, capsys):
    argv = ["sweep", "--n", "4", "--methods", "intuitive,numeric", "--simulate"]
    untimed, timed = tmp_path / "u.csv", tmp_path / "t.csv"
    assert harness.main(argv + ["--out", str(untimed)]) == 0
    assert harness.main(argv + ["--timings", "--out", str(timed)]) == 0
    capsys.readouterr()
    idx = harness.CSV_COLUMNS.index("wall_time_s")
    rows = [csv_rows(path) for path in (untimed, timed)]
    assert rows[0][:3] == rows[1][:3]  # schema, corpus and header lines
    assert len(rows[1]) == 3 + 4 * 2
    for plain, clocked in zip(rows[0][3:], rows[1][3:]):
        assert float(clocked[idx]) > 0.0
        assert plain[:idx] + plain[idx + 1:] == clocked[:idx] + clocked[idx + 1:]
