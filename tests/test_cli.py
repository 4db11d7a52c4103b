import csv
import io
import json
from fractions import Fraction

import pytest

from thetagw.cli import main
from thetagw.verify import REQUIRED_OPS, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_text(capsys):
    code, out, _ = run_cli(
        capsys, "invariant", "--degree", "2", "--genus", "3", "--parity", "even",
        "--alphas", "1",
    )
    assert code == 0
    assert "value=-8/3" in out
    assert "chi=-5" in out


def test_invariant_sign_flip(capsys):
    code, out, _ = run_cli(
        capsys, "invariant", "--degree", "1", "--genus", "5", "--parity", "odd",
        "--alphas", "1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["value"] == "1/12"


def test_invariant_empty_alphas(capsys):
    code, out, _ = run_cli(
        capsys, "invariant", "--degree", "2", "--genus", "0", "--parity", "even",
        "--alphas", "", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "1/2"
    assert record["alphas"] == []


def test_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "invariant", "--degree", "2", "--genus", "4", "--parity", "odd",
        "--alphas", "1,2", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"degree", "h", "parity", "alphas", "chi", "value"}
    value = Fraction(record["value"])
    from thetagw.invariants import InvariantQuery, degree2

    assert value == degree2(InvariantQuery(2, 4, 1, (1, 2)))


def test_float_flag_adds_column_keeps_exact(capsys):
    code, out, _ = run_cli(
        capsys, "invariant", "--degree", "2", "--genus", "3", "--parity", "even",
        "--alphas", "1", "--format", "json", "--float",
    )
    record = json.loads(out)
    assert record["value"] == "-8/3"
    assert record["value_float"] == pytest.approx(-8 / 3)


def test_table_csv_header_and_rows(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--degree", "2", "--hmax", "2", "--parity", "even",
        "--alpha-budget", "1",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["degree", "h", "parity", "alphas", "chi", "value"]
    assert ["2", "0", "even", "1", "1", "-1/3"] in rows
    # every h appears with the empty, [0] and [1] insertion sets
    assert len(rows) == 1 + 3 * 3


def test_table_degree1_single_zero(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--degree", "1", "--hmax", "1", "--parity", "odd",
        "--alpha-budget", "1", "--format", "json",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    zero_rows = [r for r in records if r["alphas"] == [0]]
    assert zero_rows and all(r["value"] == "-1" for r in zero_rows)


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["invariant", "--degree", "5", "--genus", "1", "--parity", "even"])
    assert err.value.code == 2
    assert "error" in json.loads(capsys.readouterr().err)

    code, _, errtext = run_cli(
        capsys, "invariant", "--degree", "1", "--genus", "-2", "--parity", "even",
    )
    assert code == 2
    assert "error" in json.loads(errtext)

    code, _, errtext = run_cli(
        capsys, "invariant", "--degree", "1", "--genus", "2", "--parity", "even",
        "--alphas", "1,x",
    )
    assert code == 2
    assert "error" in json.loads(errtext)


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "parity", "--hmax", "6")
    assert code == 0
    assert "failures=0" in out
    assert all(line.startswith(("PASS", "suite=", "coverage")) for line in out.splitlines())


def test_verify_torsion_full_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "torsion", "--hmax", "50")
    assert code == 0


def test_verify_hankel(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "hankel", "--kmax", "8")
    assert code == 0


def test_verify_all_json_and_coverage(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "coverage/all-operations-exercised" in names
    for module, ops in REQUIRED_OPS.items():
        assert set(payload["coverage"][module]) >= set(ops)


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "etale", "--hmax", "3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "passed", "lhs", "rhs"]
    assert all(row[1] == "True" for row in rows[1:])


def test_verify_bad_bounds(capsys):
    code, _, errtext = run_cli(capsys, "verify", "--suite", "parity", "--hmax", "0")
    assert code == 2
    assert "error" in json.loads(errtext)


def test_verify_rejects_bounds_no_selected_suite_takes(capsys):
    for argv in (
        ("--suite", "degeneration", "--kmax", "3"),
        ("--suite", "hankel", "--hmax", "3"),
        ("--suite", "parity", "--alpha-budget", "2"),
    ):
        code, out, errtext = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert "does not apply" in json.loads(errtext)["error"]
    code, _, _ = run_cli(
        capsys, "verify", "--suite", "all", "--hmax", "2", "--kmax", "2",
        "--alpha-budget", "2",
    )
    assert code == 0


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_failing_check_reports_both_values_and_exit_1(capsys, monkeypatch):
    from thetagw import cli as cli_mod
    from thetagw.verify import Check, Report

    fake = Report(
        suite="parity",
        checks=[Check("parity/fake", False, "1/2", "1/3")],
        coverage={},
    )
    monkeypatch.setattr(cli_mod, "run_suite", lambda *a, **k: fake)
    code, out, _ = run_cli(capsys, "verify", "--suite", "parity")
    assert code == 1
    assert "FAIL parity/fake lhs=1/2 rhs=1/3" in out
    assert "failures=1" in out


def test_report_failure_shape():
    report = run_suite("parity", hmax=4)
    assert report.passed
    assert report.failures == []
    assert all(c.lhs and c.rhs for c in report.checks)
