"""Run thetagw ops inside this process and check them.

Started by run.py as ``python bench/worker.py <mode> <ops.json> <result.json>
<seconds> <min_passes> <deadline_s> [<spans file>]``:

* ``timed``: repeated untraced passes until --seconds (the deep-sweep
  workload, where the library is called directly);
* ``trace``: one untraced pass, one traced pass (spans) and one pass under
  tracemalloc, then per-function statistics.  CLI ops go through
  ``thetagw.cli.main(argv)`` with stdout and stderr captured.

The interpreter's int->str digit limit stays at its default here; only the
reference code lifts it, around its own conversions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import resource
import signal
import sys
import time
import traceback
import tracemalloc
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import thetagw  # noqa: E402
import thetagw.cli  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class OpTimeout(BaseException):
    """Raised by the interval timer inside an op that ran too long."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextlib.contextmanager
def _time_limit(seconds: float):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class InProcess:
    """Executes ops in this process; ``tracer.op`` is set per op when traced."""

    def __init__(self):
        self.tracer: spans.Tracer | None = None
        self._verdicts: dict[tuple, checks.Verdict] = {}

    def __call__(self, index: int, op: dict, timeout: float) -> workloads.Sample:
        if self.tracer is not None:
            self.tracer.op = index
        if op["kind"] == "call":
            return self._call(index, op, timeout)
        return self._cli(index, op, timeout)

    def _call(self, index: int, op: dict, timeout: float) -> workloads.Sample:
        module, _, name = op["fn"].partition(".")
        fn = getattr(importlib.import_module(f"thetagw.{module}"), name)
        args = [tuple(a) if isinstance(a, list) else a for a in op["args"]]
        began = time.perf_counter()
        try:
            with _time_limit(timeout):
                result = fn(*args)
        except OpTimeout:
            verdict = checks.Verdict(False, reason="timeout")
        except Exception as exc:  # the op failed; record it and go on
            verdict = checks.Verdict(False, reason=f"{type(exc).__name__}: {exc}"[:200])
        else:
            verdict = None
        latency = time.perf_counter() - began
        if verdict is None:
            verdict = checks.check_call(op, result)
        return workloads.Sample(0, index, latency, verdict.ok, verdict.wrong, verdict.reason)

    def _cli(self, index: int, op: dict, timeout: float) -> workloads.Sample:
        out, err = io.StringIO(), io.StringIO()
        timed_out = False
        began = time.perf_counter()
        try:
            with _time_limit(timeout), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = thetagw.cli.main(list(op["argv"]))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except OpTimeout:
            code, timed_out = None, True
        except Exception:  # what the interpreter would print, and its exit code
            traceback.print_exc(file=err)
            code = 1
        latency = time.perf_counter() - began
        text = out.getvalue()
        verdict = checks.cached_check(self._verdicts, index, op, code, text,
                                      err.getvalue(), timed_out)
        return workloads.Sample(0, index, latency, verdict.ok, verdict.wrong,
                                verdict.reason, verdict.checks,
                                out_bytes=len(text.encode()))


class Compact:
    """Samples of library calls in flat arrays, so that the memory a run
    holds for them stays negligible however many passes a fast program
    fits into --seconds (peak RSS is one of the measured metrics)."""

    def __init__(self):
        self.pass_no, self.op, self.latency = array("i"), array("i"), array("d")
        self.failures: list = []  # [sample index, wrong, reason]

    def __call__(self, s: workloads.Sample) -> None:
        if not s.ok:
            self.failures.append([len(self.op), s.wrong, s.reason])
        self.pass_no.append(s.pass_no)
        self.op.append(s.op)
        self.latency.append(s.latency_s)


def _timed(ops, seconds, min_passes, deadline) -> dict:
    kept = Compact()
    pass_walls = workloads.run_passes(ops, InProcess(), kept, seconds, min_passes, deadline)
    # Peak RSS of the measured passes, read before the result is serialised.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"pass_no": kept.pass_no.tolist(), "op": kept.op.tolist(),
            "latency": kept.latency.tolist(), "failures": kept.failures,
            "pass_walls": pass_walls, "rss_kb": rss_kb}


def _one_pass(ops, execute, deadline) -> tuple[list, float]:
    samples: list[workloads.Sample] = []
    walls = workloads.run_passes(ops, execute, samples.append, 0, 1, deadline)
    return samples, (walls[0] if walls else float("nan"))


def _trace(ops, deadline, spans_path) -> dict:
    execute = InProcess()
    untraced, untraced_wall = _one_pass(ops, execute, deadline)

    tracer = spans.Tracer()
    tracer.install(thetagw)
    execute.tracer = tracer
    try:
        traced, traced_wall = _one_pass(ops, execute, deadline)
    finally:
        tracer.uninstall()
        execute.tracer = None

    tracemalloc.start()
    try:
        malloc, _ = _one_pass(ops, execute, deadline)
        peak_alloc = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    stats = tracer.stats()
    edges = tracer.edges()
    tracer.dump(spans_path)
    return {
        "samples": [dataclasses.astuple(s) for s in untraced + traced + malloc],
        "untraced": [[s.op, s.latency_s] for s in untraced],
        "untraced_wall": untraced_wall,
        "traced_wall": traced_wall,
        "peak_alloc_bytes": peak_alloc,
        "stats": stats,
        "edges": [[child, parent, n] for (child, parent), n in edges.items()],
        "spans": len(tracer.start),
    }


def main(argv: list[str]) -> int:
    mode, ops_path, result_path, seconds, min_passes, deadline_s = argv[:6]
    ops = json.loads(Path(ops_path).read_text())
    deadline = time.perf_counter() + float(deadline_s)
    if mode == "timed":
        result = _timed(ops, float(seconds), int(min_passes), deadline)
    else:
        result = _trace(ops, deadline, argv[6])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
