"""Check one op's output against the benchmark's own references.

An op *fails* on a wrong exact value, a wrong exit code, a traceback, a
FAIL line or a timeout.  Of those, a wrong value or a FAIL verdict is also
*wrong*: the program answered and the answer contradicts the reference.
A run is correct when no op was wrong; failures are counted separately.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction

import refs


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool = False
    reason: str = ""
    checks: int = 0  # checks the program reported as passed (verify ops)


OK = Verdict(True)


def _failed(reason: str) -> Verdict:
    return Verdict(False, False, reason)


def _wrong(reason: str) -> Verdict:
    return Verdict(False, True, reason)


def check_cli(op: dict, returncode: int | None, out: str, err: str,
              timed_out: bool = False) -> Verdict:
    if timed_out:
        return _failed("timeout")
    if "Traceback" in err:
        lines = err.strip().splitlines()
        return _failed(f"traceback, exit {returncode}: {lines[-1][:200]}")
    return _CLI_CHECKS[op["check"]](op["params"], returncode, out, err)


def cached_check(memo: dict, index: int, op: dict, returncode: int | None,
                 out: str, err: str, timed_out: bool) -> Verdict:
    """check_cli, computed once per distinct output of an op: a later pass
    that prints the same bytes gets the verdict of the first."""
    key = (index, returncode, timed_out, hashlib.sha256(out.encode()).digest(),
           hashlib.sha256(err.encode()).digest())
    if key not in memo:
        memo[key] = check_cli(op, returncode, out, err, timed_out)
    return memo[key]


_SUMMARY = re.compile(r"^suite=\S+ checks=(\d+) failures=(\d+)")


def _check_verify(params: dict, rc: int, out: str, err: str) -> Verdict:
    if params["format"] == "json":
        try:
            payload = json.loads(out)
            checks = payload["checks"]
            names = [c["name"] for c in checks]
            failing = [c["name"] for c in checks if c["passed"] is not True]
        except (ValueError, KeyError, TypeError) as exc:
            return _wrong(f"malformed JSON report: {exc!r}")
        if not failing and payload.get("passed") is not True:
            return _wrong("report says passed=false without a failing check")
    else:
        lines = out.splitlines()
        names = [line.split()[1] for line in lines if line.startswith(("PASS ", "FAIL "))]
        failing = [line.split()[1] for line in lines if line.startswith("FAIL ")]
        summary = [m for m in map(_SUMMARY.match, lines) if m]
        if len(summary) != 1:
            return _wrong("no single summary line")
        if (int(summary[0][1]), int(summary[0][2])) != (len(names), len(failing)):
            return _wrong(f"summary {summary[0][0]!r} disagrees with "
                          f"{len(names)} check lines, {len(failing)} FAIL")
    if failing:
        return _wrong(f"FAIL {failing[0]}")
    if rc != 0:
        return _failed(f"exit {rc} with every check passing")
    missing = set(params["suites"]) - {name.split("/")[0] for name in names}
    if missing:
        return _wrong(f"no checks reported for suite(s) {sorted(missing)}")
    return Verdict(True, checks=len(names))


def _float_matches(field, expected: Fraction) -> bool:
    try:
        want = float(expected)
    except OverflowError:
        return True  # no finite double to compare against; the exact value decides
    try:
        return float(field) == want
    except (TypeError, ValueError):
        return False


def _table_rows(params: dict):
    """Expected (h, alphas, chi, value) rows of a table op, in output order."""
    degree, parity = params["degree"], int(params["parity"] == "odd")
    bases = [(alphas, refs.invariant(degree, 0, parity, alphas))
             for alphas in refs.multisets(params["budget"])]
    for h in range(params["hmax"] + 1):
        scale = 2 ** h if degree == 2 else 1
        for alphas, base in bases:
            yield h, alphas, refs.chi(degree, h, alphas), base * scale


def _check_table(params: dict, rc: int, out: str, err: str) -> Verdict:
    if rc != 0:
        return _failed(f"exit {rc}")
    lines = out.splitlines()
    header = ["degree", "h", "parity", "alphas", "chi", "value"]
    if params["float"]:
        header.append("value_float")
    if params["format"] == "csv":
        rows = csv.reader(lines)
        if next(rows, None) != header:
            return _wrong("wrong CSV header")
    else:
        rows = lines
    count = 0
    for count, (row, (h, alphas, chi, value)) in enumerate(
        zip(rows, _table_rows(params)), start=1
    ):
        if params["format"] == "json":
            try:
                record = json.loads(row)
                got = [record[key] for key in header]
            except (ValueError, KeyError, TypeError):
                return _wrong(f"row {count}: malformed record {row[:120]!r}")
            want = [params["degree"], h, params["parity"], list(alphas), chi]
        else:
            got = row
            want = [str(params["degree"]), str(h), params["parity"],
                    ",".join(map(str, alphas)), str(chi)]
        if len(got) != len(header):
            return _wrong(f"row {count}: {len(got)} fields, want {len(header)}")
        want.append(refs.exact_str(value))
        if got[:6] != want or (params["float"] and not _float_matches(got[6], value)):
            return _wrong(f"row {count} (h={h}, alphas={list(alphas)}): "
                          f"got {got!r:.160}, want value {refs.short(value)}")
    expected = (params["hmax"] + 1) * sum(1 for _ in refs.multisets(params["budget"]))
    if count != expected or len(lines) != expected + (params["format"] == "csv"):
        return _wrong(f"{len(lines)} output lines for {expected} rows")
    return OK


def _check_invariant(params: dict, rc: int, out: str, err: str) -> Verdict:
    if rc != 0:
        return _failed(f"exit {rc}")
    fields = dict(token.split("=", 1) for token in out.split() if "=" in token)
    parity = int(params["parity"] == "odd")
    alphas = params["alphas"]
    value = refs.invariant(params["degree"], params["h"], parity, alphas)
    if fields.get("value") != refs.exact_str(value):
        return _wrong(f"value {fields.get('value', '<missing>')[:60]!r}, "
                      f"want {refs.short(value)}")
    if fields.get("chi") != str(refs.chi(params["degree"], params["h"], alphas)):
        return _wrong(f"chi {fields.get('chi')!r}")
    if params["float"] and not _float_matches(fields.get("value_float"), value):
        return _wrong(f"value_float {fields.get('value_float')!r}")
    return OK


def _check_usage(params: dict, rc: int, out: str, err: str) -> Verdict:
    if rc != 2:
        return _failed(f"exit {rc}, want usage error 2")
    try:
        message = json.loads(err.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return _wrong("usage error without a JSON message on stderr")
    if not isinstance(message, dict) or "error" not in message:
        return _wrong(f"stderr JSON has no 'error': {message!r:.120}")
    return OK


_CLI_CHECKS = {
    "verify": _check_verify,
    "table": _check_table,
    "invariant": _check_invariant,
    "usage": _check_usage,
}


def _monomial(value) -> tuple[Fraction, int]:
    if hasattr(value, "coeff") and hasattr(value, "exp"):
        return value.coeff, value.exp
    coeff, exp = value
    return coeff, exp


def check_call(op: dict, result) -> Verdict:
    """Check the return value of one library call op."""
    fn, args = op["fn"], op["args"]
    try:
        if fn == "hankel.max_solvable_order":
            want = refs.max_solvable_order(args[0])
            good = result == want
        elif fn == "hankel.hankel_det":
            want = refs.hankel_det(*args)
            good = _monomial(result) == want
        elif fn == "hankel.solve_branch_system":
            k = args[0]
            terms = {j: _monomial(result.b(j)) for j in range(1, k + 1)}
            want = f"B_k = {refs.branch_leading(k)} and the system solved"
            good = (all(exp == j for j, (_, exp) in terms.items())
                    and terms[k][0] == refs.branch_leading(k)
                    and refs.branch_residuals_vanish(
                        k, {j: c for j, (c, _) in terms.items()}))
        elif fn == "torsion.branched_cover_identity":
            want = True
            good = result is True
        elif fn == "degeneration.bubble_channel_11":
            want = refs.bubble_11(args[0])
            good = result == want
        else:
            raise KeyError(fn)
    except (TypeError, ValueError, AttributeError) as exc:
        return _wrong(f"unexpected result {result!r:.120}: {exc!r}")
    if good:
        return OK
    with refs.unlimited_digits():
        return _wrong(f"got {result!r:.120}, want {want!r:.120}")
