"""Command-line front end: evaluate invariants, run verification suites,
emit value tables.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 any other
error (with {"error": "<ExcType>: <message>"} on stderr), so a crash never
reads as a verification failure; 130 on Ctrl-C (with {"error":
"KeyboardInterrupt"}), and 141, silently, when the reader closes stdout
early, as in ``thetagw table ... | head``.  All values are printed as exact
rational strings "num/den" in lowest terms ("num" when den is 1), however
many digits they have; --float adds a decimal convenience column (IEEE
overflow to +-inf past the double range) without ever replacing the exact
field.

Only ``verify`` loads the verification suites (and the series, Hankel and
degeneration modules they check); ``invariant`` and ``table`` load the
evaluators alone, since each call is a fresh process whose time is mostly
start-up.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from .core import SUITE_NAMES, rational_str, required_chi, unlimited_digits
from .invariants import InvariantQuery, evaluate, value_table


# Largest genus (--genus, --hmax), descendant exponent and Hankel size
# (verify --kmax) the CLI accepts.
MAX_GENUS = 10**6
MAX_EXPONENT = 10**4
MAX_KMAX = 40

_PARITY = {"even": 0, "odd": 1}


class UsageError(Exception):
    """A usage error, argparse's own included; main prints it and returns 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _bounded(name: str, low: int, high: int | None = None):
    """An argparse ``type`` for an int in [low, high] (no upper end when high
    is None); a value out of range is a UsageError naming ``name``."""

    def parse(text) -> int:
        value = int(text)
        if value < low:
            raise UsageError(f"{name} must be >= {low}")
        if high is not None and value > high:
            raise UsageError(f"{name} must be <= {high}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _parse_alphas(text: str) -> tuple[int, ...]:
    """The argparse ``type`` of --alphas: a comma list of exponents, each in
    [0, MAX_EXPONENT]."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(map(_bounded("descendant exponents", 0, MAX_EXPONENT), text.split(",")))
    except ValueError:
        raise UsageError(f"alphas must be a comma list of integers, got {text!r}")


def _to_float(num: int, den: int) -> float:
    """Nearest double to num/den (den > 0), or an infinity of its sign past
    the double range (IEEE overflow)."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _csv_fields(*fields) -> str:
    """The fields as one csv record, without its line terminator."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


def _fixed_fields(fmt: str, parity: str, alphas: tuple[int, ...]) -> str:
    """The row text between h and chi, which depends only on the multiset."""
    joined = ",".join(map(str, alphas))
    if fmt == "json":
        return f', "parity": {json.dumps(parity)}, "alphas": {json.dumps(list(alphas))}, "chi": '
    if fmt == "csv":
        return f",{_csv_fields(parity, joined)},"
    return f" parity={parity} alphas={joined} chi="


def _write_rows(degree: int, parity: str, blocks, fmt: str, with_float: bool) -> None:
    """Print each (h, rows) block of the iterable as it arrives, in one write
    per genus; rows is a tuple of (alphas, num, den), the value num/den in
    lowest terms with den > 0.

    Every block lists the same multisets in the same order, so each row's
    head, the fields fixed by its multiset and chi0 = chi at h = 0, is built
    once, from the first block, and a block that is the previous block (a
    degree-1 table yields one rows tuple for every genus) reuses its value
    texts.  Each distinct value is formatted once, and at most two genera of
    texts are kept: a degree-2 value recurs one genus later, at the multiset
    with one 0 less."""
    if fmt == "json":
        lead = f'{{"degree": {degree}, "h": '
        value_open, value_close, end = ', "value": "', '"', "}\n"
        float_open, float_text = ', "value_float": ', json.dumps
    elif fmt == "csv":
        header = ["degree", "h", "parity", "alphas", "chi", "value"]
        if with_float:
            header.append("value_float")
        sys.stdout.write(_csv_fields(*header) + "\r\n")
        lead, value_open, value_close, end = f"{degree},", ",", "", "\r\n"
        float_open, float_text = ",", repr
    else:
        lead, value_open, value_close, end = f"degree={degree} h=", " value=", "", "\n"
        float_open, float_text = " value_float=", repr

    def value_text(num: int, den: int) -> str:
        tail = f"{float_open}{float_text(_to_float(num, den))}" if with_float else ""
        return f"{value_open}{rational_str(num, den)}{value_close}{tail}{end}"

    heads = rows = None
    for h, block in blocks:
        if heads is None:
            base = required_chi(degree, 0, ())
            heads = [
                (_fixed_fields(fmt, parity, alphas), required_chi(degree, 0, alphas))
                for alphas, _, _ in block
            ]
            value_text = functools.lru_cache(maxsize=2 * len(block))(value_text)
        if block is not rows:
            rows = block
            values = [value_text(num, den) for _, num, den in rows]
        start, shift = f"{lead}{h}", base - required_chi(degree, h, ())
        sys.stdout.write("".join([
            f"{start}{fixed}{chi0 - shift}{text}" for (fixed, chi0), text in zip(heads, values)
        ]))


def _cmd_invariant(args) -> int:
    value = evaluate(InvariantQuery(args.degree, args.genus, _PARITY[args.parity], args.alphas))
    block = (args.genus, ((args.alphas, value.numerator, value.denominator),))
    _write_rows(args.degree, args.parity, [block], args.format, args.float)
    return 0


def _cmd_table(args) -> int:
    blocks = value_table(args.degree, _PARITY[args.parity], args.hmax, args.alpha_budget)
    _write_rows(args.degree, args.parity, blocks, args.format, args.float)
    return 0


def _render_report(report, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "suite": report.suite,
            "passed": report.passed,
            "checks": [c._asdict() for c in report.checks],
            "coverage": {m: sorted(ops) for m, ops in sorted(report.coverage.items())},
        }
        print(json.dumps(payload))
        return
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["name", "passed", "lhs", "rhs"])
        writer.writerows(report.checks)
        return
    for c in report.checks:
        if c.passed:
            print(f"PASS {c.name}")
        else:
            print(f"FAIL {c.name} lhs={c.lhs} rhs={c.rhs}")
    print(
        f"suite={report.suite} checks={len(report.checks)} "
        f"failures={len(report.failures)}"
    )
    for module, ops in sorted(report.coverage.items()):
        print(f"coverage {module}: {', '.join(sorted(ops))}")


def _cmd_verify(args) -> int:
    from .verify import run_suite, suite_bounds

    taken = suite_bounds(args.suite)
    for name in ("hmax", "kmax", "alpha_budget"):
        if getattr(args, name) is not None and name not in taken:
            raise UsageError(f"--{name.replace('_', '-')} does not apply to suite {args.suite!r}")
    report = run_suite(
        args.suite, hmax=args.hmax, kmax=args.kmax, alpha_budget=args.alpha_budget
    )
    _render_report(report, args.format)
    return 0 if report.passed else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="thetagw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    hmax, budget = _bounded("hmax", 1, MAX_GENUS), _bounded("alpha-budget", 1)

    inv = sub.add_parser("invariant", help="evaluate one invariant")
    inv.add_argument("--degree", type=int, choices=(1, 2), required=True)
    inv.add_argument("--genus", type=_bounded("genus", 0, MAX_GENUS), required=True,
                     help="genus h of the base curve")
    inv.add_argument("--parity", choices=_PARITY, required=True)
    inv.add_argument("--alphas", type=_parse_alphas, default="",
                     help="comma list of descendant exponents")
    inv.add_argument("--format", choices=("text", "json", "csv"), default="text")
    inv.add_argument("--float", action="store_true", help="add a decimal column")
    inv.set_defaults(func=_cmd_invariant)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=SUITE_NAMES, required=True)
    ver.add_argument("--hmax", type=hmax, default=None)
    ver.add_argument("--kmax", type=_bounded("kmax", 1, MAX_KMAX), default=None)
    ver.add_argument("--alpha-budget", dest="alpha_budget", type=budget, default=None)
    ver.add_argument("--format", choices=("text", "json", "csv"), default="text")
    ver.set_defaults(func=_cmd_verify)

    tab = sub.add_parser("table", help="emit a grid of invariant values")
    tab.add_argument("--degree", type=int, choices=(1, 2), required=True)
    tab.add_argument("--hmax", type=hmax, required=True)
    tab.add_argument("--parity", choices=_PARITY, required=True)
    tab.add_argument("--alpha-budget", dest="alpha_budget", type=budget, default=2)
    tab.add_argument("--format", choices=("csv", "json"), default="csv")
    tab.add_argument("--float", action="store_true")
    tab.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    try:
        with unlimited_digits():
            args = build_parser().parse_args(argv)
            return args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so that the flush at
        # exit does not fail again (the Python docs' note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        print(json.dumps({"error": "KeyboardInterrupt"}), file=sys.stderr)
        return 130
    except Exception as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
