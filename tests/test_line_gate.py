"""Every library line runs under the system's own uses.

A fresh interpreter traces each line of ``src/thetagw`` that runs, from
before ``import thetagw`` on, so import-time lines such as the ``@op``
registry count.  Under the trace it makes the package import the README
shows, runs ``run_suite("all")`` and a fixed list of CLI calls, and runs
``verify`` under a few hand mutants patched in here, never in the library,
so that the failure reports run too.  A line that none of this runs is kept
alive only by its own unit tests, and the test names it by file and line.

Lines that run only on an error are exempted by their syntax: a ``raise``
statement, an ``except`` handler, a ``return NotImplemented``, the
``__main__`` guard, and docstrings.  Any other exemption is named in
``NAMED`` with its reason.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thetagw"

# (file, source text of the line): why the system never runs the statement
# that starts there
NAMED = {
    ("series.py", "return None"):
        "the residuals whose valuation verify reads are never zero",
    ("verify.py", 'return Check(name, False, "no cases", "at least one case")'):
        "every suite floors its bounds, so no sweep is empty",
    ("core.py", "return 0"):
        "no caller asks for a binomial with k < 0",
}

SCRIPT = r'''
import contextlib
import io
import json
import sys
from fractions import Fraction
from unittest import mock

package, out = sys.argv[1], sys.argv[2]
ran = set()


def lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return lines


def calls(frame, event, arg):
    if frame.f_code.co_filename.startswith(package):
        return lines
    return None


sys.settrace(calls)

from thetagw import degree1  # the README's import

from thetagw import cli, degeneration, hankel, spin, verify
from thetagw.series import TruncatedSeries, ZMonomial

verify.run_suite("all")


def main(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


codes = [
    main("invariant", "--degree", "1", "--genus", "3", "--parity", "odd"),
    main("invariant", "--degree", "2", "--genus", "2", "--parity", "even",
         "--alphas", "1,2", "--format", "csv"),
    main("invariant", "--degree", "2", "--genus", "2", "--parity", "odd",
         "--alphas", "0,3", "--format", "json"),
    main("table", "--degree", "1", "--hmax", "2", "--parity", "even", "--format", "csv", "--float"),
    # 2^1100 is past the double range
    main("table", "--degree", "2", "--hmax", "1100", "--parity", "odd", "--alpha-budget", "1",
         "--format", "json", "--float"),
    main("table", "--degree", "1", "--hmax", "0", "--parity", "even"),
    main("invariant", "--degree", "3", "--genus", "1", "--parity", "even"),
]

bubble = degeneration.bubble_channel_11
residual = verify._branch_residual


def raising(*args):
    raise ArithmeticError("determinant went astray")


mutants = [
    # a sweep whose value has the wrong type
    (mock.patch.object(degeneration, "bubble_channel_11", lambda a: ZMonomial(bubble(a), 0)),
     ["--suite", "degeneration", "--hmax", "1", "--alpha-budget", "1"]),
    # constant and z terms in the k = 1 residual
    (mock.patch.object(verify, "_branch_residual",
                       lambda k, coeffs: residual(k, coeffs) + TruncatedSeries([1, 1], 4)
                       if k == 1 else residual(k, coeffs)),
     ["--suite", "hankel", "--kmax", "1", "--format", "json"]),
    (mock.patch.object(hankel, "hankel_det", raising),
     ["--suite", "hankel", "--kmax", "1", "--format", "csv"]),
    (mock.patch.object(spin, "signed_double_cover_sum", lambda h, p, v: Fraction(1, 2)),
     ["--suite", "etale", "--hmax", "1"]),
]
for patch, argv in mutants:
    with patch:
        codes.append(main("verify", *argv))

sys.settrace(None)
with open(out, "w") as f:
    json.dump({"codes": codes, "ran": sorted(ran)}, f)
'''


def _code_lines(code) -> set[int]:
    """Lines that hold bytecode in ``code`` and the code nested in it (a
    module's code starts with an instruction at line 0)."""
    found = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            found |= _code_lines(const)
    return found


def _span(node) -> set[int]:
    return set(range(node.lineno, node.end_lineno + 1))


def _exempt_by_syntax(tree: ast.Module) -> set[int]:
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            exempt |= _span(node)
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Name) and (
            node.value.id == "NotImplemented"
        ):
            exempt |= _span(node)
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            exempt |= _span(node)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
            exempt |= _span(node.body[0])
    return exempt


def _exempt_by_name(name: str, source: str, tree: ast.Module) -> set[int]:
    lines = source.splitlines()
    exempt = set()
    for file, text in NAMED:
        if file != name:
            continue
        starts = [i + 1 for i, line in enumerate(lines) if line.strip() == text]
        assert len(starts) == 1, f"{file}: {text!r} names {len(starts)} lines, not one"
        (start,) = starts
        (node,) = [n for n in ast.walk(tree) if isinstance(n, ast.stmt) and n.lineno == start]
        exempt |= _span(node)
    return exempt


def test_every_library_line_runs_under_the_systems_own_uses(tmp_path):
    out = tmp_path / "ran.json"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PACKAGE), str(out)],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    # seven CLI calls (two usage errors last), then four failing verifies
    assert result["codes"] == [0, 0, 0, 0, 0, 2, 2, 1, 1, 1, 1]
    ran = {(file, line) for file, line in result["ran"]}

    paths = sorted(PACKAGE.glob("*.py"))
    assert {file for file, _ in NAMED} <= {path.name for path in paths}
    unrun = []
    for path in paths:
        source = path.read_text()
        tree = ast.parse(source)
        wanted = _code_lines(compile(source, str(path), "exec"))
        wanted -= _exempt_by_syntax(tree) | _exempt_by_name(path.name, source, tree)
        unrun += [
            f"{path.name}:{line}: {source.splitlines()[line - 1].strip()}"
            for line in sorted(wanted)
            if (str(path), line) not in ran
        ]
    assert unrun == [], "library lines no system use runs:\n" + "\n".join(unrun)
