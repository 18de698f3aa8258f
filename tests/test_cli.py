"""The command-line front door: subcommands, report files, exit codes."""

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from ginlab import cli, groebner, segments
from ginlab.cli import run
from ginlab.experiments import ExperimentReport


def test_points_subcommand_writes_deterministic_report(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["points", "--s", "3", "--r", "2", "--seed", "4"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["passed"] is True
    assert "gin_lex" in report["outputs"]


def test_exit_code_2_on_expectation_mismatch(monkeypatch):
    def points_with_failed_check(*args, **kwargs):
        report = ExperimentReport("points", {})
        report.check("regularity", 5, 3)
        return report

    monkeypatch.setattr(cli, "experiment_points", points_with_failed_check)
    code = run(["points", "--s", "3", "--r", "2", "--seed", "4"])
    assert code == 2


def test_exit_code_3_on_degree_cap(tmp_path):
    code = run(["points", "--s", "5", "--r", "2", "--seed", "4",
                "--degree-cap", "3"])
    assert code == 3


def test_exit_code_3_on_resource_guard(capsys):
    # Syl_1 of a (2, 12) pair has more columns than the minors guard allows
    assert run(["sylvester", "--a", "2", "--b", "12", "--p", "1"]) == 3
    assert "computation failed: resource guard" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["points", "--s", "3", "--r", "2", "--bogus"],  # unknown flag
    ["points", "--s", "three", "--r", "2"],  # not an int
    [],  # no subcommand
])
def test_exit_code_4_on_usage_error(argv, capsys):
    assert run(argv) == 4
    assert "usage:" in capsys.readouterr().err


def test_exit_code_4_on_bad_input(capsys):
    assert run(["points", "--s", "3", "--r", "2", "--field", "fp:4"]) == 4
    assert "bad input: modulus 4 is not prime" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--s", "2", "--r", "0"], "random points need r >= 1, got r = 0"),
    (["--s", "8", "--r", "1", "--field", "fp:7"],
     "cannot draw 8 distinct points of P^1 with last coordinate 1 over F_7: only 7 exist"),
])
def test_exit_code_4_when_too_few_points_have_last_coordinate_1(argv, message, capsys):
    # over F_p only p^r points have last coordinate 1; drawing more used to
    # redraw forever
    assert run(["points", *argv, "--seed", "1"]) == 4
    assert f"bad input: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("coefficient, field", [("1/7", "fp:7"), ("1/0", "qq")])
def test_exit_code_4_on_a_zero_denominator(coefficient, field, tmp_path, capsys):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text(f"x0^2 + {coefficient}*x1^2\nx1^3\n")
    assert run(["gin", "--in", str(ideal), "--field", field]) == 4
    assert (f"bad input: coefficient '{coefficient}' has a denominator that is zero "
            f"in {field}") in capsys.readouterr().err


def test_exit_code_4_on_degree_cap_below_generator_degree(capsys):
    # rejected when the ideal is built, before any gin trial is drawn
    assert run(["curve", "--a", "3", "--b", "3", "--degree-cap", "2", "--seed", "1"]) == 4
    assert "bad input: degree cap 2 is below generator degree 3" in capsys.readouterr().err


#: Stands for the path of a two-generator ideal file in 3 variables.
IDEAL = "<ideal file>"


@pytest.mark.parametrize("argv, code", [
    (["curve", "--a", "0", "--b", "3", "--seed", "1"], 4),
    (["curve", "--a", "3", "--b", "3", "--field", "fp:1", "--seed", "1"], 4),
    (["curve", "--a", "3", "--b", "3", "--field", "fp:4", "--seed", "1"], 4),
    (["curve", "--a", "3", "--b", "3", "--degree-cap", "0", "--seed", "1"], 4),
    (["points", "--s", "0", "--r", "2", "--seed", "1"], 4),
    (["points", "--s", "3", "--r", "0", "--seed", "1"], 4),
    (["points", "--s", "5", "--r", "2", "--field", "fp:2", "--seed", "1"], 4),
    (["sylvester", "--a", "0", "--b", "4", "--p", "1", "--seed", "1"], 4),
    (["sylvester", "--a", "3", "--b", "4", "--p", "5", "--seed", "1"], 4),
    (["segment", "--hf", "1,3,5", "--nvars", "0"], 4),
    (["curve", "--a", "3", "--b", "3", "--field", "fp:2", "--seed", "1"], 3),
    (["gin", "--in", IDEAL, "--trials", "1"], 4),
    (["gin", "--in", IDEAL, "--nvars", "0"], 4),
    (["gin", "--in", IDEAL, "--degree-cap", "0"], 4),
    (["pei", "--in", IDEAL, "--nvars", "1", "--pmax", "1"], 4),
    (["nonsmooth", "--degree-cap", "0", "--seed", "1"], 4),
    (["nonsmooth", "--degree-cap", "5", "--seed", "1"], 3),
    (["nonsmooth", "--field", "fp:2", "--seed", "1"], 3),
])
def test_degenerate_numbers_end_in_an_exit_code_not_a_traceback(argv, code, tmp_path, capsys):
    # an exception that escaped ``run`` (a ZeroDivisionError, say) would fail
    # the call itself; each of these ends in one line naming the failure
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("x0^2 + x1*x2 + x2^2\nx1^3 + x0*x2^2 + x0^3\n")
    assert run([str(ideal) if arg == IDEAL else arg for arg in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("bad input: " if code == 4 else "computation failed: ")
    assert err.count("\n") == 1


def test_points_takes_a_weight_order(tmp_path):
    # the commas inside a weight vector do not split the order list
    out = tmp_path / "points.json"
    assert run(["points", "--s", "6", "--r", "2", "--orders", "lex,weight:3,2,1",
                "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["inputs"]["orders"] == ["lex", "weight:3,2,1"]
    checks = {c["name"]: c["passed"] for c in report["checks"]}
    assert checks["weight:3,2,1_gin_equals_segment"] is True


def test_exit_code_4_on_unknown_point_order(capsys):
    # an unknown name must not run under another order's label
    assert run(["points", "--s", "6", "--r", "2", "--orders", "lex,foo", "--seed", "1"]) == 4
    assert "bad input: unknown order 'foo'" in capsys.readouterr().err


@pytest.mark.parametrize("orders, name", [("lex,lex", "lex"), ("revlex,lex,Revlex", "Revlex")])
def test_exit_code_4_on_a_repeated_point_order(capsys, orders, name):
    # one gin per order: a repeated name would run its gin twice and
    # report its checks twice under one name
    assert run(["points", "--s", "6", "--r", "2", "--orders", orders, "--seed", "1"]) == 4
    assert f"bad input: order '{name}' is listed twice" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert run(["points", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_exit_code_5_on_failed_self_check(tmp_path, monkeypatch, capsys):
    ideal = tmp_path / "J.txt"
    ideal.write_text("x0^3\nx0^2*x1\nx0*x1^2\nx1^4\n")  # a revlex segment
    monkeypatch.setattr(segments, "verify_weight_witness", lambda *args: False)
    assert run(["segment", "--witness-in", str(ideal), "--nvars", "3"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("self-check failed: weight vector")
    assert err.count("\n") == 1  # one line, no traceback


def test_curve_subcommand(tmp_path):
    out = tmp_path / "curve.json"
    assert run(["curve", "--a", "2", "--b", "2", "--seed", "1",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    regs = [c for c in report["checks"] if c["name"] == "regularity"]
    assert regs and regs[0]["got"] == 4


def test_gin_subcommand_reads_ideal_file(tmp_path):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("# a complete intersection\nx0^2 - x1*x3\nx1^2 - x0*x2\n")
    out = tmp_path / "gin.json"
    assert run(["gin", "--in", str(ideal), "--order", "lex", "--seed", "2",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["outputs"]["borel_fixed"] is True
    assert report["outputs"]["gin_generators"]


@pytest.mark.parametrize("argv", [
    ["gin", "--in", "{ideal}", "--order", "revlex"],
    ["pei", "--in", "{ideal}", "--pmax", "1"],
    ["segment", "--hf", "1,3,3,3", "--stable", "3", "--bound", "3"],
    ["segment", "--witness-in", "{ideal}", "--nvars", "4"],
])
def test_summary_reports_the_elapsed_time(argv, tmp_path, monkeypatch, capsys):
    ideal = tmp_path / "ci.txt"
    ideal.write_text("x0^2\nx1^2\n")
    ticks = iter([100.0, 102.5])
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    assert run([a.format(ideal=ideal) for a in argv]) == 0
    assert "PASS (2.50s)" in capsys.readouterr().out.splitlines()[0]


def test_pei_subcommand(tmp_path):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("x0^2\nx0*x1\n")
    out = tmp_path / "pei.json"
    assert run(["pei", "--in", str(ideal), "--nvars", "3", "--pmax", "2",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["outputs"]["k1_basis"] == ["x1"]
    assert report["outputs"]["k2_basis"] == ["1"]


def test_exit_code_4_on_a_negative_pmax(tmp_path, monkeypatch, capsys):
    # a tower with no level is an input error, caught before any Groebner run
    ideal = tmp_path / "ci.txt"
    ideal.write_text("x0^2+x1*x2+x2^2\nx1^3+x0*x2^2+x0^3\n")

    def no_run(*args, **kwargs):
        raise AssertionError("buchberger ran on an invalid p_max")

    monkeypatch.setattr(groebner, "buchberger", no_run)
    assert run(["pei", "--in", str(ideal), "--pmax", "-1"]) == 4
    assert "bad input: p_max must be at least 0, got -1" in capsys.readouterr().err


def test_exit_code_4_on_a_negative_segment_bound(capsys):
    # no degree lies below a negative bound, so there are no segments to report
    assert run(["segment", "--hf", "1,3,5", "--nvars", "3", "--bound", "-1"]) == 4
    assert "bad input: segment bound must be at least 0, got -1" in capsys.readouterr().err


def test_segment_subcommand_hf(tmp_path):
    out = tmp_path / "seg.json"
    assert run(["segment", "--hf", "1,3,3,3,3,3", "--stable", "3",
                "--nvars", "3", "--order", "lex", "--bound", "4",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["outputs"]["is_ideal"] is True
    assert report["outputs"]["minimal_generators"] == [
        "x0^2", "x0*x1", "x0*x2", "x1^3"
    ]


def test_segment_witness_subcommand(tmp_path):
    ideal = tmp_path / "J.txt"
    ideal.write_text("x0^3\nx0^2*x1\nx0^2*x2\nx0*x1^3\nx1^4\n")
    out = tmp_path / "wit.json"
    assert run(["segment", "--witness-in", str(ideal), "--nvars", "3",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["outputs"]["feasible"] is False


def _witness_ideal(tmp_path):
    ideal = tmp_path / "J.txt"
    ideal.write_text("x0^2\nx0*x1\nx1^3\n")
    return ideal


def test_segment_witness_degree_range(tmp_path):
    out = tmp_path / "wit.json"
    assert run(["segment", "--witness-in", str(_witness_ideal(tmp_path)), "--nvars", "3",
                "--degree-range", "1:3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["outputs"]["feasible"] is True
    assert report["outputs"]["certified_degrees"] == [1, 3]


@pytest.mark.parametrize("degree_range", ["5:2", "1-3", "5", "1:2:3", "a:b"])
def test_exit_code_4_on_bad_degree_range(degree_range, tmp_path, capsys):
    # an inverted range has no degrees to certify, so it must not pass
    assert run(["segment", "--witness-in", str(_witness_ideal(tmp_path)), "--nvars", "3",
                "--degree-range", degree_range]) == 4
    err = capsys.readouterr().err
    assert "bad input:" in err
    assert "lo:hi" in err


def test_sylvester_subcommand(tmp_path):
    out = tmp_path / "syl.json"
    assert run(["sylvester", "--a", "2", "--b", "2", "--p", "1",
                "--seed", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True


def test_borel_census_subcommand(tmp_path):
    out = tmp_path / "census.json"
    assert run(["borel-census", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["outputs"]["census"]) == 8


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ginlab.cli", "points", "--s", "3", "--r", "2",
         "--seed", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_exit_code_3_on_too_small_characteristic(tmp_path, capsys):
    ideal = tmp_path / "squares.txt"
    ideal.write_text("x0^2\nx1^2\n")  # over F_2 its gin is 2-Borel, not Borel-fixed
    assert run(["gin", "--in", str(ideal), "--order", "revlex", "--field", "fp:2"]) == 3
    err = capsys.readouterr().err
    assert err == (
        "computation failed: gin over F_2 is only p-Borel: "
        "p = 2 does not exceed its largest generator degree 2\n"
    )


def test_exit_code_3_on_non_generic_gin_trials(tmp_path, capsys):
    ideal = tmp_path / "squares.txt"
    ideal.write_text("x0^2\nx1^2\n")  # over F_3 both seeded changes keep span(x0^2, x1^2)
    assert run(["gin", "--in", str(ideal), "--order", "revlex", "--field", "fp:3"]) == 3
    err = capsys.readouterr().err
    assert err == (
        "computation failed: gin trials over F_3 agreed on an ideal that is not "
        "Borel-fixed, so their coordinate changes were not generic\n"
    )


@pytest.mark.parametrize("seed", [1, 5])
def test_gin_under_a_weight_order_is_borel_fixed_for_its_variable_ranking(tmp_path, seed):
    # weight:1,2,3 ranks x2 > x1 > x0, so its gin is Borel-fixed for that
    # ranking, not for x0 > x1 > x2; here it is weight:3,2,1's gin with x0
    # and x2 swapped
    ideal = tmp_path / "ci.txt"
    ideal.write_text("x0^2+x1*x2+x2^2\nx1^3+x0*x2^2+x0^3\n")
    gins = {}
    for order in ("weight:1,2,3", "weight:3,2,1"):
        out = tmp_path / f"{order}.json"
        assert run(["gin", "--in", str(ideal), "--order", order, "--seed", str(seed),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] and report["outputs"]["borel_fixed"] is True
        gins[order] = report["outputs"]["gin_generators"]
    assert gins["weight:3,2,1"] == ["x0^2", "x0*x1^2", "x1^4"]
    assert gins["weight:1,2,3"] == ["x2^2", "x1^2*x2", "x1^4"]


def test_repeated_runs_in_one_process_match_fresh_runs(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; runs that share it, usage errors
    # and --help in between, give what a freshly built parser gives
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    out = tmp_path / "out.json"
    argvs = [
        (["points", "--s", "3", "--r", "2", "--seed", "4", "--out", str(out)], 0),
        (["points", "--s", "3", "--r", "2", "--bogus"], 4),
        (["--help"], 0),
        (["segment", "--hf", "1,3,3,3", "--stable", "3", "--bound", "3", "--out", str(out)], 0),
        (["points", "--s", "three", "--r", "2"], 4),
        (["points", "--help"], 0),
        (["sylvester", "--a", "2", "--b", "2", "--p", "1", "--seed", "3", "--out", str(out)], 0),
        (["points", "--s", "3", "--r", "2", "--seed", "4", "--out", str(out)], 0),
    ]

    def outcome(argv):
        out.unlink(missing_ok=True)
        code = run(argv)
        printed = capsys.readouterr()
        return code, printed.out, printed.err, out.read_bytes() if out.exists() else None

    shared = [outcome(argv) for argv, _ in argvs * 2]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv, _ in argvs:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, *_ in shared] == [code for _, code in argvs] * 2
    assert shared == fresh * 2
