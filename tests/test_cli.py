import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest

from thetagw import cli, verify
from thetagw.cli import MAX_EXPONENT, MAX_GENUS, MAX_KMAX, main
from thetagw.core import OPS, descendant_multisets, required_chi, unlimited_digits
from thetagw.invariants import InvariantQuery, degree2, evaluate, value_table
from thetagw.verify import run_suite

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_process(*argv) -> subprocess.Popen:
    """A fresh ``python -m thetagw.cli`` process of this checkout, with its
    stdout and stderr piped as text."""
    return subprocess.Popen(
        [sys.executable, "-m", "thetagw.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("with_float", [False, True])
def test_table_is_the_concatenated_invariant_rows(capsys, fmt, with_float):
    flag = ["--float"] if with_float else []
    for degree, parity in (("1", "odd"), ("2", "even")):
        code, table, _ = run_cli(
            capsys, "table", "--degree", degree, "--hmax", "2", "--parity", parity,
            "--alpha-budget", "2", "--format", fmt, *flag,
        )
        assert code == 0
        header, rows = "", []
        for h in range(3):
            for alphas in descendant_multisets(2, 2):
                _, out, _ = run_cli(
                    capsys, "invariant", "--degree", degree, "--genus", str(h),
                    "--parity", parity, "--alphas", ",".join(map(str, alphas)),
                    "--format", fmt, *flag,
                )
                if fmt == "csv":
                    header, out = out.split("\r\n", 1)
                    header += "\r\n"
                rows.append(out)
        assert len(rows) == 3 * 8
        assert table == header + "".join(rows)


def oracle_output(degree, parity, rows, fmt, with_float):
    """The record route: each row as a dict, printed through json.dumps,
    csv.writer.writerow or the text join."""
    out = io.StringIO()
    header = ["degree", "h", "parity", "alphas", "chi", "value"]
    if with_float:
        header.append("value_float")
    writer = csv.writer(out)
    if fmt == "csv":
        writer.writerow(header)
    for h, alphas, value in rows:
        with unlimited_digits():
            text = str(Fraction(value))
        record = {"degree": degree, "h": h, "parity": parity, "alphas": list(alphas),
                  "chi": required_chi(degree, h, alphas), "value": text}
        if with_float:
            try:
                record["value_float"] = float(value)
            except OverflowError:
                record["value_float"] = math.inf if value > 0 else -math.inf
        joined = ",".join(map(str, alphas))
        if fmt == "json":
            out.write(json.dumps(record) + "\n")
        elif fmt == "csv":
            writer.writerow([joined if k == "alphas" else record[k] for k in header])
        else:
            out.write(" ".join(
                f"{k}={joined if k == 'alphas' else record[k]}" for k in header
            ) + "\n")
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("with_float", [False, True])
def test_table_matches_the_record_oracle(capsys, fmt, with_float):
    flag = ["--float"] if with_float else []
    # budget 2 holds the empty, single and multi-insertion multisets; at
    # hmax 1030 the degree-2 float column overflows to both infinities
    for degree, hmax, budget in ((1, 3, 2), (2, 3, 2), (2, 1030, 1)):
        for parity in ("even", "odd"):
            code, out, err = run_cli(
                capsys, "table", "--degree", str(degree), "--hmax", str(hmax),
                "--parity", parity, "--alpha-budget", str(budget), "--format", fmt, *flag,
            )
            assert (code, err) == (0, "")
            rows = [
                (h, alphas, evaluate(InvariantQuery(degree, h, int(parity == "odd"), alphas)))
                for h, alphas in itertools.product(range(hmax + 1), descendant_multisets(budget, budget))
            ]
            assert out == oracle_output(degree, parity, rows, fmt, with_float)


def test_table_chi_follows_required_chi(capsys, monkeypatch):
    # a genus term of h^2 - 1 in place of h - 1: every printed chi follows it
    def other_chi(d, h, alphas):
        return -(d * (h * h - 1) + sum(alphas))

    monkeypatch.setattr(cli, "required_chi", other_chi)
    for degree in ("1", "2"):
        code, out, _ = run_cli(
            capsys, "table", "--degree", degree, "--hmax", "4", "--parity", "odd",
            "--alpha-budget", "3", "--format", "json",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 5 * len(list(descendant_multisets(3, 3)))
        assert all(row["chi"] == other_chi(row["degree"], row["h"], row["alphas"]) for row in rows)
    code, out, _ = run_cli(capsys, "invariant", "--degree", "2", "--genus", "3", "--parity", "even")
    assert "chi=-16 " in out


# sha256 of the stdout of small tables, pinned from the output of the
# per-row Fraction renderer that the integer-row renderer replaced
TABLE_DIGESTS = {
    ("1", "even", "60", "6", "csv", False):
        "6e2103ee96406a537d791ce7bf8b2c8eba7cf71480a4365b170bf059af2b1827",
    ("1", "odd", "40", "5", "json", False):
        "cec346ee157c7b36f9d9207062a6029a85e376410fbb0d33a4d79ae55c894c15",
    ("2", "odd", "50", "4", "csv", True):
        "f278e992716b42aca92196701f3708d2c9f775d8ae8b894e712c2884b41f2a01",
    ("2", "even", "60", "5", "json", False):
        "a1fb12e5f0affb6204cfe26ac90acbccca8937a26e00e2168790d8b23f22dbcc",
    ("1", "even", "148", "8", "json", False):
        "e41523f32aa50a175ee5c918926456dfb0f38c169bc1037033867ce46d7df96f",
    ("2", "odd", "200", "7", "csv", True):
        "181fb97680e217f7b795f36801188d971c160943f3e2680d7b8cfccc193b10da",
}


@pytest.mark.parametrize(
    "shape, digest", TABLE_DIGESTS.items(),
    ids=["d1-csv", "d1-json", "d2-csv-float", "d2-json", "d1-json-large", "d2-csv-float-large"],
)
def test_table_output_bytes_are_pinned(capsys, shape, digest):
    degree, parity, hmax, budget, fmt, with_float = shape
    code, out, err = run_cli(
        capsys, "table", "--degree", degree, "--hmax", hmax, "--parity", parity,
        "--alpha-budget", budget, "--format", fmt, *(["--float"] if with_float else []),
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _Stdout:
    """A stdout that keeps each write, or with keep=False only their count
    and total length."""

    def __init__(self, keep: bool = True):
        self.keep, self.writes, self.count, self.size = keep, [], 0, 0

    def write(self, text: str) -> int:
        if self.keep:
            self.writes.append(text)
        self.count += 1
        self.size += len(text)
        return len(text)


@pytest.mark.parametrize("degree, fmt, header", [("1", "json", 0), ("2", "csv", 1)])
def test_table_writes_once_per_genus(monkeypatch, degree, fmt, header):
    out = _Stdout()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["table", "--degree", degree, "--hmax", "30", "--parity", "odd",
            "--alpha-budget", "3", "--format", fmt, "--float"]
    assert main(argv) == 0
    assert len(out.writes) == header + 31
    for h, text in enumerate(out.writes[header:]):
        lines = text.splitlines()
        assert len(lines) == len(list(descendant_multisets(3, 3)))
        if fmt == "json":
            assert {json.loads(line)["h"] for line in lines} == {h}
        else:
            assert {int(line.split(",")[1]) for line in lines} == {h}


@pytest.mark.parametrize("degree, hmax, budget, formatted", [
    (2, 30, 4, 398), (2, 200, 7, 9229), (1, 30, 4, 12),
])
def test_a_table_formats_each_distinct_value_once(monkeypatch, degree, hmax, budget, formatted):
    calls = []
    to_float = cli._to_float

    def counted(num, den):
        calls.append((num, den))
        return to_float(num, den)

    monkeypatch.setattr(cli, "_to_float", counted)
    monkeypatch.setattr(sys, "stdout", _Stdout(keep=False))
    argv = ["table", "--degree", str(degree), "--hmax", str(hmax), "--parity", "even",
            "--alpha-budget", str(budget), "--float"]
    assert main(argv) == 0
    distinct = {(num, den) for _, rows in value_table(degree, 0, hmax, budget)
                for _, num, den in rows}
    assert set(calls) == distinct and len(calls) == len(distinct) == formatted


def test_a_long_table_streams_in_bounded_memory(monkeypatch):
    out = _Stdout(keep=False)
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["table", "--degree", "2", "--hmax", "3000", "--parity", "even",
            "--alpha-budget", "2", "--format", "csv", "--float"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.count == 1 + 3001 and out.size > 10 * 2**20
    assert peak < 2**20


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_invariant_matches_the_record_oracle(capsys, fmt):
    for h, parity, alphas, flag in (
        (1100, "even", (), ["--float"]),
        (1100, "odd", (0, 1), ["--float"]),
        (20000, "odd", (1, 2, 3), []),
        (3, "even", (1,), ["--float"]),
    ):
        code, out, err = run_cli(
            capsys, "invariant", "--degree", "2", "--genus", str(h), "--parity", parity,
            "--alphas", ",".join(map(str, alphas)), "--format", fmt, *flag,
        )
        assert (code, err) == (0, "")
        value = evaluate(InvariantQuery(2, h, int(parity == "odd"), alphas))
        assert out == oracle_output(2, parity, [(h, alphas, value)], fmt, bool(flag))


def test_usage_errors_exit_2(capsys):
    code, _, errtext = run_cli(
        capsys, "invariant", "--degree", "5", "--genus", "1", "--parity", "even",
    )
    assert code == 2
    assert "error" in json.loads(errtext)

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

    code, _, errtext = run_cli(
        capsys, "invariant", "--degree", "1", "--genus", "2", "--parity", "even",
        "--alphas", "1,-1",
    )
    assert code == 2
    assert json.loads(errtext) == {"error": "descendant exponents must be >= 0"}


# argparse's own errors, each with the message main prints
ARGPARSE_ERRORS = {
    "bad-choice": (["invariant", "--degree", "3", "--genus", "1", "--parity", "even"],
                   "argument --degree: invalid choice: 3 (choose from 1, 2)"),
    "missing-option": (["invariant", "--degree", "1", "--genus", "1"],
                       "the following arguments are required: --parity"),
    "unknown-option": (["table", "--degree", "1", "--hmax", "2", "--parity", "even", "--bogus"],
                       "unrecognized arguments: --bogus"),
    "no-subcommand": ([], "the following arguments are required: command"),
    "unknown-subcommand": (["nope"], "argument command: invalid choice: 'nope' "
                                     "(choose from 'invariant', 'verify', 'table')"),
    "unknown-suite": (["verify", "--suite", "nope"], "argument --suite: invalid choice: 'nope' "
                      "(choose from 'degeneration', 'hankel', 'torsion', 'parity', 'etale', 'all')"),
    "non-integer": (["invariant", "--degree", "1", "--genus", "x", "--parity", "even"],
                    "argument --genus: invalid int value: 'x'"),
}


@pytest.mark.parametrize("case", ARGPARSE_ERRORS)
def test_argparse_errors_return_2_through_main(capsys, case):
    argv, message = ARGPARSE_ERRORS[case]
    assert run_cli(capsys, *argv) == (2, "", json.dumps({"error": message}) + "\n")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["invariant", "--help"])
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: thetagw invariant") and err == ""


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
    names = [c["name"] for c in payload["checks"]]
    assert len(set(names)) == len(names)
    assert "coverage/all-operations-exercised" in names
    covered = {f"{m}.{op}" for m, ops in payload["coverage"].items() for op in ops}
    assert covered == OPS


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
    # the bounds a suite takes are its parameters, and "all" runs the suites in this order
    assert verify.SUITE_NAMES == ("degeneration", "hankel", "torsion", "parity", "etale", "all")
    assert {s: verify.suite_bounds(s) for s in verify.SUITE_NAMES} == {
        "degeneration": {"hmax", "alpha_budget"},
        "hankel": {"kmax"},
        "torsion": {"hmax"},
        "parity": {"hmax"},
        "etale": {"hmax"},
        "all": {"hmax", "kmax", "alpha_budget"},
    }
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


def test_verify_all_at_the_smallest_bounds(capsys):
    # the h >= 2 sweeps still reach h = 2, so every operation runs
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--hmax", "1", "--kmax", "1",
        "--alpha-budget", "1",
    )
    assert code == 0
    assert "PASS coverage/all-operations-exercised" in out.splitlines()


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_failing_check_reports_both_values_and_exit_1(capsys, monkeypatch):
    from thetagw.verify import Check, Report

    fake = Report(
        suite="parity",
        checks=[Check("parity/fake", False, "1/2", "1/3")],
        coverage={},
    )
    monkeypatch.setattr(verify, "run_suite", lambda *a, **k: fake)
    code, out, _ = run_cli(capsys, "verify", "--suite", "parity")
    assert code == 1
    assert "FAIL parity/fake lhs=1/2 rhs=1/3" in out
    assert "failures=1" in out


def test_report_failure_shape():
    report = run_suite("parity", hmax=4)
    assert report.passed
    assert report.failures == []
    assert all(c.lhs and c.rhs for c in report.checks)


def test_coverage_fails_when_a_suite_stops_calling_an_op(monkeypatch):
    monkeypatch.setitem(verify._SUITE_FUNCS, "parity", lambda hmax=12: [])
    report = run_suite("all", hmax=3, kmax=2, alpha_budget=2)
    [coverage] = [c for c in report.checks if c.name == "coverage/all-operations-exercised"]
    assert not coverage.passed
    assert coverage.lhs == "missing: spin.arf_census_bruteforce"
    assert not any(c.name.startswith("parity/") for c in report.checks)


def _check_names(text: str, skipped: tuple[str, ...] = ()) -> list[str]:
    """The names of the checks of a text report, in order, but those that
    start with a ``skipped`` prefix."""
    return [
        line.split(" ")[1] for line in text.splitlines()
        if line.startswith(("PASS ", "FAIL ")) and not line.split(" ")[1].startswith(skipped)
    ]


def test_suite_that_raises_does_not_abort_the_report(capsys, monkeypatch):
    bounds = ("--hmax", "3", "--kmax", "2", "--alpha-budget", "2")
    _, clean, _ = run_cli(capsys, "verify", "--suite", "all", *bounds)

    def broken(k, shift):
        raise ArithmeticError("determinant went astray")

    monkeypatch.setattr("thetagw.hankel.hankel_det", broken)
    code, out, err = run_cli(capsys, "verify", "--suite", "all", *bounds)
    assert code == 1
    assert "Traceback" not in out + err
    lines = out.splitlines()
    assert (
        "FAIL hankel/det_closed_form[k<=2] lhs=ArithmeticError: determinant went astray "
        "after 0 cases rhs=no exception"
    ) in lines
    # the later hankel checks still run and pass, and no check goes missing
    first, *later = [line for line in clean.splitlines() if line.startswith("PASS hankel/")]
    assert first == "PASS hankel/det_closed_form[k<=2]"
    assert len(later) >= 5 and set(later) <= set(lines)
    assert _check_names(out) == _check_names(clean)


# each shared input of the suites as verify calls it, by the module verify
# reads it from (None: imported by name), and exactly the checks that read it
SHARED_INPUTS = {
    "build_ledger": ("torsion", {
        "torsion/ledger[h=2]", "torsion/ledger[h=3]", "torsion/ledger[h=4]",
        "torsion/a_closed_forms[r<=30]", "torsion/b_two_routes[j<=60]",
    }),
    "parity_census": ("spin", {
        "parity/census[h<=1]", "parity/census_gap[h<=3]", "parity/census_splits[h1+h2<=3]",
        "parity/arf_oracle[h<=3]",
    }),
    "descendant_multisets": (None, {
        "degeneration/genus_scaling_grid[hmax=3,n<=4,sum<=2]",
        "degeneration/bubble_factorizes[n<=4,sum<=2]",
        "degeneration/bubble_unit_insertion[n<=3,sum<=4]",
        "degeneration/degree_ratio[h=0,1,5,n<=3,sum<=6]",
        "degeneration/kernel_vs_blocks[n<=4,sum<=2]",
        "degeneration/value_table[hmax=3,sum<=2]",
        "degeneration/row_set[sum<=2]",
        "degeneration/chi_from_vdim[hmax=3,n<=4,sum<=2]",
        "coverage/all-operations-exercised",
    }),
    "solve_branch_system": ("hankel", {
        "hankel/leading_coefficient[k<=2]", "hankel/substitution[k<=2]", "hankel/residual[k<=2]",
        "hankel/decisions_vs_residual[k<=5]", "hankel/torsion_exponent[i<=5]",
        "coverage/all-operations-exercised",
    }),
    "degree2_tau1_decomposition": ("invariants", {
        "torsion/grand_total[h<=3]", "torsion/etale_total[h<=3]", "torsion/branched_total[h<=3]",
        "coverage/all-operations-exercised",
    }),
    "partitions_of": (None, {"degeneration/channel_coefficients"}),
}


@pytest.mark.parametrize("name", SHARED_INPUTS)
def test_a_shared_input_that_raises_fails_exactly_its_readers(capsys, monkeypatch, name):
    module, readers = SHARED_INPUTS[name]

    def broken(*args):
        raise ArithmeticError(f"{name} went astray")

    if module is None:
        monkeypatch.setattr(verify, name, broken)
    else:
        # verify's view of the module alone, so the library's own calls still run
        view = types.SimpleNamespace(**{**vars(getattr(verify, module)), name: broken})
        monkeypatch.setattr(verify, module, view)
    bounds = ("--hmax", "3", "--kmax", "2", "--alpha-budget", "2")
    code, out, err = run_cli(capsys, "verify", "--suite", "all", *bounds)
    assert code == 1
    assert "Traceback" not in out + err
    reported = [line for line in out.splitlines() if line.startswith(("PASS ", "FAIL "))]
    verdicts = {line.split(" ")[1]: line for line in reported}
    assert len(reported) == len(verdicts) == 50
    # every other check passes, and each reader fails on the exception
    assert {check for check, line in verdicts.items() if line.startswith("FAIL ")} == readers
    for check in readers - {"coverage/all-operations-exercised"}:
        assert verdicts[check].startswith(f"FAIL {check} lhs=ArithmeticError: {name} went astray")


def test_invariant_prints_values_past_the_int_str_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(
        capsys, "invariant", "--degree", "2", "--genus", "20000", "--parity", "odd",
        "--alphas", "1,2,3",
    )
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    printed = dict(token.split("=") for token in out.split())["value"]
    assert len(printed) > 4300
    with unlimited_digits():
        assert Fraction(printed) == degree2(InvariantQuery(2, 20000, 1, (1, 2, 3)))


def test_genus_and_exponent_limits_are_usage_errors(capsys):
    for argv in (
        ("invariant", "--degree", "2", "--genus", str(MAX_GENUS + 1), "--parity", "even"),
        ("invariant", "--degree", "1", "--genus", "1", "--parity", "even",
         "--alphas", f"1,{MAX_EXPONENT + 1}"),
        ("table", "--degree", "2", "--hmax", str(MAX_GENUS + 1), "--parity", "odd"),
        ("verify", "--suite", "torsion", "--hmax", str(MAX_GENUS + 1)),
    ):
        code, out, errtext = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "must be <=" in json.loads(errtext)["error"]
    code, out, _ = run_cli(
        capsys, "invariant", "--degree", "1", "--genus", "1", "--parity", "even",
        "--alphas", str(MAX_EXPONENT), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["alphas"] == [MAX_EXPONENT]


def test_float_column_overflows_to_a_signed_infinity(capsys):
    for parity, sign in (("even", 1), ("odd", -1)):
        code, out, _ = run_cli(
            capsys, "invariant", "--degree", "2", "--genus", "1100", "--parity", parity,
            "--float", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert Fraction(record["value"]) == degree2(InvariantQuery(2, 1100, int(parity == "odd"), ()))
        assert record["value_float"] == sign * math.inf
    code, out, _ = run_cli(
        capsys, "table", "--degree", "2", "--hmax", "1030", "--parity", "even",
        "--alpha-budget", "1", "--float",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    for row in rows:
        value = Fraction(row[5])
        if abs(value) < sys.float_info.max:
            assert float(row[6]) == float(value)
        else:
            assert float(row[6]) == (math.inf if value > 0 else -math.inf)
    assert {row[6] for row in rows} >= {"inf", "-inf"}


def test_unexpected_exception_exits_3_with_json(capsys, monkeypatch):
    from thetagw import cli as cli_mod

    def boom(query):
        raise RuntimeError("evaluator exploded")

    monkeypatch.setattr(cli_mod, "evaluate", boom)
    code, out, errtext = run_cli(
        capsys, "invariant", "--degree", "1", "--genus", "2", "--parity", "even",
    )
    assert (code, out) == (3, "")
    assert json.loads(errtext) == {"error": "RuntimeError: evaluator exploded"}


def test_a_closed_stdout_ends_the_process_with_141_and_no_message():
    # about 1 MB of rows, more than a pipe holds, so a write meets the closed end
    with cli_process("table", "--degree", "2", "--hmax", "200", "--alpha-budget", "8",
                     "--parity", "even") as proc:
        assert proc.stdout.readline() == "degree,h,parity,alphas,chi,value\n"
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait(timeout=60)) == ("", 141)


def test_ctrl_c_ends_the_process_with_130_and_one_json_line():
    # a table that would run for hours; the header shows that main has begun
    with cli_process("table", "--degree", "1", "--hmax", str(MAX_GENUS), "--alpha-budget", "3",
                     "--parity", "odd") as proc:
        assert proc.stdout.readline() == "degree,h,parity,alphas,chi,value\n"
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (130, json.dumps({"error": "KeyboardInterrupt"}) + "\n")


def test_the_greatest_kmax_runs_within_its_budget():
    # the README states under 1 s on a 2-core machine; 5 s, ten times the
    # 0.48 s measured there, leaves room for a busy one
    start = time.perf_counter()
    with cli_process("verify", "--suite", "hankel", "--kmax", str(MAX_KMAX)) as proc:
        out, err = proc.communicate(timeout=60)
    wall = time.perf_counter() - start
    assert (proc.returncode, err) == (0, "")
    assert not [line for line in out.splitlines() if line.startswith("FAIL")]
    assert "suite=hankel checks=6 failures=0" in out
    assert wall < 5


# each bounded option: its argv, where "{}" stands for the value, the
# attribute it parses to, the name its range errors give, and its least and
# greatest value (None: no upper end)
BOUNDED = {
    "invariant-genus": (("invariant", "--degree", "1", "--parity", "even", "--genus", "{}"),
                        "genus", "genus", 0, MAX_GENUS),
    "invariant-alphas": (("invariant", "--degree", "1", "--genus", "1", "--parity", "even",
                          "--alphas", "{}"), "alphas", "descendant exponents", 0, MAX_EXPONENT),
    "table-hmax": (("table", "--degree", "1", "--parity", "even", "--hmax", "{}"),
                   "hmax", "hmax", 1, MAX_GENUS),
    "table-alpha-budget": (("table", "--degree", "1", "--parity", "even", "--hmax", "1",
                            "--alpha-budget", "{}"), "alpha_budget", "alpha-budget", 1, None),
    "verify-hmax": (("verify", "--suite", "torsion", "--hmax", "{}"),
                    "hmax", "hmax", 1, MAX_GENUS),
    "verify-kmax": (("verify", "--suite", "hankel", "--kmax", "{}"), "kmax", "kmax", 1, MAX_KMAX),
    "verify-alpha-budget": (("verify", "--suite", "degeneration", "--hmax", "1",
                             "--alpha-budget", "{}"), "alpha_budget", "alpha-budget", 1, None),
}


def _argv(template, value) -> list[str]:
    return [token.replace("{}", str(value)) for token in template]


@pytest.mark.parametrize("option", BOUNDED)
def test_each_bounded_option_rejects_one_past_either_end(capsys, option):
    template, _, name, least, greatest = BOUNDED[option]
    past = [(least - 1, f"{name} must be >= {least}")]
    if greatest is not None:
        past.append((greatest + 1, f"{name} must be <= {greatest}"))
    for value, message in past:
        assert run_cli(capsys, *_argv(template, value)) == (
            2, "", json.dumps({"error": message}) + "\n"
        )


@pytest.mark.parametrize("option", BOUNDED)
def test_each_bounded_option_accepts_both_ends(capsys, option):
    template, dest, _, least, greatest = BOUNDED[option]
    code, out, err = run_cli(capsys, *_argv(template, least))
    assert (code, err) == (0, "") and out
    # the greatest value (a large one where there is none) is only parsed,
    # so no huge run starts, but for the degree-1 genus, which runs at once
    top = 10**9 if greatest is None else greatest
    parsed = getattr(cli.build_parser().parse_args(_argv(template, top)), dest)
    assert parsed == ((top,) if dest == "alphas" else top)
    if option == "invariant-genus":
        code, out, err = run_cli(capsys, *_argv(template, top), "--format", "json")
        assert (code, err) == (0, "") and json.loads(out)["h"] == top


@pytest.mark.parametrize("option", [o for o in BOUNDED if o != "invariant-alphas"])
def test_a_non_integer_bound_keeps_argparses_message(capsys, option):
    template, *_ = BOUNDED[option]
    flag = template[-2]
    for text in ("x", "", "1,,2"):
        assert main(_argv(template, text)) == 2
        message = json.dumps({"error": f"argument {flag}: invalid int value: {text!r}"})
        assert capsys.readouterr() == ("", message + "\n")


def test_no_subcommand_option_is_a_bare_int():
    (subcommands,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for name, parser in subcommands.choices.items():
        for action in parser._actions:
            assert action.type is not int or action.choices, (name, action.option_strings)


def _fuzz_argv(rng: random.Random) -> list[str]:
    """One argv for a random subcommand.  Each value is valid and small
    enough to run at once, or now and then malformed text or an integer just
    past an end of its range; a required option is left out now and then,
    and a verify bound that the suite does not take is given now and then."""
    junk = ("x", "", "1,,2", "2.0", "-1")

    def pick(valid, *ends):
        return rng.choice(junk + ends) if rng.random() < 0.12 else rng.choice(valid)

    def numbers(low, high, *more):
        return [str(n) for n in range(low, high + 1)] + list(more)

    command = rng.choice(("invariant", "table", "verify"))
    over = str(MAX_GENUS + 1)
    if command == "invariant":
        degree = pick(["1", "2"], "3")
        # the greatest genus runs at once in degree 1 alone
        top = [str(MAX_GENUS - 1), str(MAX_GENUS)] if degree == "1" else []
        exponents = numbers(0, 4, "1_0")
        parts = [pick(exponents, str(MAX_EXPONENT + 1)) for _ in range(rng.randrange(4))]
        if rng.random() < 0.02:
            parts.append(rng.choice((str(MAX_EXPONENT - 1), str(MAX_EXPONENT))))
        options = {"--degree": degree, "--genus": pick(numbers(0, 20, "1_0", *top), over),
                   "--parity": pick(["even", "odd"]), "--alphas": ",".join(parts)}
    elif command == "table":
        options = {"--degree": pick(["1", "2"]), "--hmax": pick(numbers(1, 20, "1_0"), "0", over),
                   "--parity": pick(["even", "odd"]), "--alpha-budget": pick(numbers(1, 4), "0"),
                   "--format": pick(["csv", "json"])}
    else:
        suite = pick(list(verify.SUITE_NAMES))
        taken = verify.suite_bounds(suite) if suite in verify.SUITE_NAMES else set()
        bounds = {"hmax": pick(numbers(1, 6, "1_0"), "0", over),
                  "kmax": pick(numbers(1, 4, str(MAX_KMAX)), "0", str(MAX_KMAX + 1)),
                  "alpha_budget": pick(numbers(1, 4), "0")}
        options = {"--suite": suite, "--format": pick(["text", "json", "csv"])}
        for name, value in bounds.items():
            if rng.random() < (0.95 if name in taken else 0.08):
                options["--" + name.replace("_", "-")] = value
    argv = [command]
    for flag, value in options.items():
        if rng.random() < 0.97:
            argv += [flag, value]
    if command != "verify" and rng.random() < 0.3:
        argv.append("--float")
    return argv


def test_fuzzed_argv_exits_0_or_2_and_never_with_a_traceback(capsys):
    rng = random.Random(2026)
    seen = set()
    for _ in range(500):
        argv = _fuzz_argv(rng)
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 2), argv
        assert "Traceback" not in captured.err, argv
        if code == 2:
            assert (captured.out, captured.err.count("\n")) == ("", 1), argv
            assert isinstance(json.loads(captured.err)["error"], str), argv
        else:
            assert captured.err == "", argv
        seen.add((argv[0], code))
    assert seen == set(itertools.product(("invariant", "table", "verify"), (0, 2)))
