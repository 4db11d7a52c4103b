"""thetagw benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout (the package is taken from ``src/``)::

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Workloads (why each exists is recorded in BENCHMARK.json):

* ``verify-all``: fresh ``python -m thetagw.cli verify --suite all``
  processes at default bounds, alternating text and JSON reports;
* ``table-grid``: fresh ``table`` processes over seeded degrees, parities,
  genus ranges, exponent budgets and formats, plus three fixed robustness
  probes (single ``invariant`` processes);
* ``deep-sweep``: one worker process calling the library directly over size
  sweeps past the default bounds.

With ``--trace 0`` the run measures, with tracing off: ``setup_s`` (median
of fresh interpreters importing ``thetagw.cli``), ``wall_s`` (median over
passes of one pass's summed op latencies), ``op_p50_ms``, ``op_tail_ms`` (at
a percentile fixed per workload, leaving at least ten samples beyond it),
``ops_per_s`` (ops that passed their check, per second of op latency),
``fail_frac``, ``peak_rss_mb`` (largest peak RSS of a process doing ops: as
wait4 reports it for a CLI process; as the deep-sweep worker reads its own
getrusage at the end of its passes) and ``checks_per_s`` (checks a verify report passed, per
second; verify ops only).  ``fail_frac`` and ``checks_per_s`` are printed
but not gated: they are zero or undefined on some workloads.

With ``--trace 1`` it runs the op list once as processes and then, in one
worker process, once untraced, once with every thetagw function wrapped in
spans (see spans.py) and once under tracemalloc, and reports per-layer
metrics named ``<module>.<function>.<stat>``.

Every output is checked against references the benchmark computes itself
(refs.py).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of BENCHMARK.json.  A fuller record, with the machine, the
op-list digest and the first failing input, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Sample  # noqa: E402

# Fresh interpreters timed for setup_s, half before the passes and half
# after them, so that a burst of load on the machine moves the median less
# (after one untimed warm-up that writes the bytecode caches).
SETUP_SAMPLES = 16

# A run starts no op after this long, so that it exits well inside 180 s.
RUN_LIMIT_S = 150.0

# Units of the end-to-end metrics that BENCHMARK.json does not gate.
UNGATED_UNITS = {"fail_frac": "ratio", "checks_per_s": "1/s"}

# Per-layer metrics not of the form <function key>.<stat>:
# ratios of (child spans under a parent span) to (parent calls).
CHILD_RATIOS = {
    "degeneration.descendant_block_per_bubble":
        ("invariants.descendant_block", "degeneration.bubble_channel_11"),
    "hankel.branch_identity_holds.calls_per_order":
        ("hankel.branch_identity_holds", "hankel.max_solvable_order"),
}
STATS = {"calls": "calls", "errors": "errors", "self_s": "self_s", "s": "incl_s"}


@dataclasses.dataclass
class Proc:
    code: int
    out: bytes
    err: bytes
    wall_s: float
    rss_kb: int
    timed_out: bool


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's src first on
    PYTHONPATH and the interpreter's default int->str digit limit."""
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(argv: list[str], timeout: float, scratch: Path) -> Proc:
    """Run one child to completion (killing it after ``timeout`` seconds) and
    return its exit code, output, wall time and peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=scratch) as out, \
            tempfile.TemporaryFile(dir=scratch) as err:
        began = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=child_env())
        reaped = {}

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.update(end=time.perf_counter(), status=status, usage=usage)

        waiter = threading.Thread(target=reap, daemon=True)
        waiter.start()
        waiter.join(max(timeout, 0.0))
        timed_out = waiter.is_alive()
        if timed_out:
            proc.kill()
            waiter.join()
        proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, out.read(), err.read(), reaped["end"] - began,
                    reaped["usage"].ru_maxrss, timed_out)


class Subprocess:
    """Executes CLI ops as ``sys.executable -m thetagw.cli`` processes."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self._verdicts: dict = {}

    def __call__(self, index: int, op: dict, timeout: float) -> Sample:
        p = spawn([sys.executable, "-m", "thetagw.cli", *op["argv"]], timeout, self.scratch)
        verdict = checks.cached_check(
            self._verdicts, index, op, p.code, p.out.decode(errors="replace"),
            p.err.decode(errors="replace"), p.timed_out)
        return Sample(0, index, p.wall_s, verdict.ok, verdict.wrong, verdict.reason,
                      verdict.checks, p.rss_kb, len(p.out))


def run_worker(mode: str, ops: list[dict], seconds: float, min_passes: int,
               deadline: float, scratch: Path, spans_path: Path | None = None):
    """Run worker.py over ``ops`` and return its result."""
    ops_path, result_path = scratch / f"ops-{mode}.json", scratch / f"result-{mode}.json"
    ops_path.write_text(json.dumps(ops))
    result_path.unlink(missing_ok=True)
    remaining = deadline - time.perf_counter()
    argv = [sys.executable, str(BENCH / "worker.py"), mode, str(ops_path),
            str(result_path), str(seconds), str(min_passes), str(remaining)]
    if spans_path is not None:
        argv.append(str(spans_path))
    proc = spawn(argv, remaining + 20, scratch)
    if proc.code != 0 or not result_path.exists():
        raise RuntimeError(f"worker {mode} exited {proc.code}: "
                           f"{proc.err.decode(errors='replace')[-2000:]}")
    return json.loads(result_path.read_text())


def measure_setup(count: int, scratch: Path) -> list[float]:
    """Wall times of ``count`` fresh interpreters importing thetagw.cli."""
    walls = []
    for _ in range(count):
        p = spawn([sys.executable, "-c", "import thetagw.cli"], 60, scratch)
        if p.code != 0:
            raise RuntimeError(f"import thetagw.cli failed: {p.err.decode()[-2000:]}")
        walls.append(p.wall_s)
    return walls


def _samples(rows) -> list[Sample]:
    return [Sample(*row) for row in rows]


def _compact_samples(result: dict) -> list[Sample]:
    failures = {i: (wrong, reason) for i, wrong, reason in result["failures"]}
    return [
        Sample(pass_no, op, latency, i not in failures, *failures.get(i, (False, "")))
        for i, (pass_no, op, latency) in enumerate(
            zip(result["pass_no"], result["op"], result["latency"]))
    ]


def _first_failure(ops: list[dict], samples: list[Sample]) -> dict | None:
    for s in samples:
        if not s.ok:
            return {"op": s.op, "pass": s.pass_no, "input": workloads.describe(ops[s.op]),
                    "wrong": s.wrong, "reason": s.reason}
    return None


def _sweeps(ops: list[dict], samples: list[Sample]) -> dict:
    """Per swept function: median latency at each size, median time of the
    whole sweep in a pass, and the fitted growth exponent."""
    points: dict[str, dict[int, list[float]]] = {}
    totals: dict[str, dict[int, float]] = {}
    for s in samples:
        op = ops[s.op]
        points.setdefault(op["fn"], {}).setdefault(op["size"], []).append(s.latency_s)
        per_pass = totals.setdefault(op["fn"], {})
        per_pass[s.pass_no] = per_pass.get(s.pass_no, 0.0) + s.latency_s
    return {
        fn: {"growth": spans.fit_growth(by_size),
             "sweep_s": statistics.median(totals[fn].values()),
             "median_s": {size: statistics.median(t) for size, t in sorted(by_size.items())}}
        for fn, by_size in points.items()
    }


def end_to_end(workload: str, ops: list[dict], seconds: float, min_passes: int,
               scratch: Path) -> dict:
    began = time.perf_counter()
    deadline = began + RUN_LIMIT_S
    measure_setup(1, scratch)
    setup = measure_setup(SETUP_SAMPLES // 2, scratch)
    if all(op["kind"] == "call" for op in ops):
        result = run_worker("timed", ops, seconds, min_passes, deadline, scratch)
        samples, pass_walls = _compact_samples(result), result["pass_walls"]
        rss_kb = result["rss_kb"]
    else:
        samples = []
        pass_walls = workloads.run_passes(ops, Subprocess(scratch), samples.append,
                                          seconds, min_passes, deadline)
        rss_kb = max(s.rss_kb for s in samples)
    setup += measure_setup(SETUP_SAMPLES - len(setup), scratch)
    latencies = sorted(s.latency_s for s in samples)
    busy = sum(latencies)
    passed = [s for s in samples if s.ok]
    tail = workloads.tail_fraction(min_passes * len(ops))
    verify_ops = any(op.get("check") == "verify" for op in ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_walls),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * latencies[max(0, math.ceil(tail * len(latencies)) - 1)],
        "ops_per_s": len(passed) / busy,
        "fail_frac": (len(samples) - len(passed)) / len(samples),
        "peak_rss_mb": rss_kb / 1024,
        "checks_per_s": sum(s.checks for s in passed) / busy if verify_ops else None,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"median of {len(pass_walls)} passes of {len(ops)} ops",
        "op_p50_ms": f"{len(latencies)} samples",
        "op_tail_ms": f"p{round(100 * tail)} of {len(latencies)} samples, "
                      f"{len(latencies) - math.ceil(tail * len(latencies))} beyond",
        "ops_per_s": "closed loop, one client",
        "fail_frac": f"{len(samples) - len(passed)}/{len(samples)}",
    }
    by_op: dict[int, list[float]] = {}
    for s in samples:
        by_op.setdefault(s.op, []).append(s.latency_s)
    record = {"samples": samples, "metrics": metrics, "notes": notes,
              "op_median_ms": [[workloads.describe(ops[i]), 1000 * statistics.median(t)]
                               for i, t in sorted(by_op.items())],
              "setup_samples_s": setup, "pass_walls_s": pass_walls,
              "passes": len(pass_walls), "tail_percentile": 100 * tail,
              "elapsed_s": time.perf_counter() - began}
    if ops[0]["kind"] == "call":
        record["sweeps"] = _sweeps(ops, samples)
    return record


def layers(names: list[str], ops: list[dict], scratch: Path, spans_path: Path) -> dict:
    began = time.perf_counter()
    deadline = began + RUN_LIMIT_S
    process = []
    if any(op["kind"] == "cli" for op in ops):
        workloads.run_passes(ops, Subprocess(scratch), process.append, 0, 1, deadline)
    result = run_worker("trace", ops, 0, 1, deadline, scratch, spans_path)
    stats = result["stats"]
    edges = {(child, parent): n for child, parent, n in result["edges"]}
    inproc = dict((op, latency) for op, latency in result["untraced"])

    def calls(key: str) -> int:
        return stats.get(key, {}).get("calls", 0)

    derived = {
        "verify.checks": max((s.checks for s in process), default=0),
        "cli.output_bytes": sum(s.out_bytes for s in process),
        "cli.startup_s": statistics.median(
            [s.latency_s - inproc[s.op] for s in process if s.op in inproc]
        ) if process else 0.0,
        "trace.overhead_frac": result["traced_wall"] / result["untraced_wall"],
        "trace.peak_alloc_mb": result["peak_alloc_bytes"] / 2**20,
    }
    for name, (child, parent) in CHILD_RATIOS.items():
        derived[name] = edges.get((child, parent), 0) / calls(parent) if calls(parent) else 0.0

    absent = sorted({name.rpartition(".")[0] for name in names
                     if name not in derived and name.rpartition(".")[0] not in stats})
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
            continue
        key, _, stat = name.rpartition(".")
        if stat not in STATS and stat != "growth":
            raise ValueError(f"per-layer metric {name!r} has no known stat")
        entry = stats.get(key)
        if stat == "growth":
            points = {int(size): t for size, t in (entry or {}).get("sizes", {}).items()}
            metrics[name] = spans.fit_growth(points) or 0.0
        else:
            metrics[name] = entry[STATS[stat]] if entry else 0
    return {
        "samples": process + _samples(result["samples"]),
        "metrics": metrics,
        "absent": absent,
        "spans": result["spans"],
        "elapsed_s": time.perf_counter() - began,
    }


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "executable": sys.executable, "platform": platform.platform()}


def run(workload: str, ops: list[dict], seed: int, seconds: float, trace: bool,
        min_passes: int, spec: dict, out_dir: Path) -> dict:
    """Run one workload over ``ops``; returns the full record, whose "result"
    is the contract's JSON object."""
    scratch = out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        record = layers(names, ops, scratch, out_dir / f"{workload}.spans")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | UNGATED_UNITS
        names = [m["name"] for m in spec["end_to_end"]]
        record = end_to_end(workload, ops, seconds, min_passes, scratch)
    shown = record["metrics"]
    samples = record.pop("samples")
    wrong = sum(s.wrong for s in samples)
    failed = sum(not s.ok for s in samples)
    record.update(
        workload=workload, seed=seed, trace=int(trace), seconds=seconds,
        machine=machine(), ops=len(ops), oplist_sha256=workloads.digest(ops),
        why=next((w["why"] for w in spec["workloads"] if w["name"] == workload), ""),
        attempted=len(samples), failed=failed, wrong=wrong,
        first_failure=_first_failure(ops, samples),
        units={name: units[name] for name in shown},
        result={
            "correct": wrong == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {name: {"value": shown[name], "unit": units[name]} for name in names},
        },
    )
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1, default=str))
    return record


def report(record: dict) -> list[str]:
    """Human-readable lines for one run."""
    m = record["machine"]
    lines = [
        f"# thetagw benchmark workload={record['workload']} seed={record['seed']} "
        f"trace={record['trace']} seconds={record['seconds']}",
        f"# machine: {m['cpu']}, nproc={m['nproc']}, python {m['python']} ({m['executable']})",
        f"# op list: {record['ops']} ops per pass, sha256 {record['oplist_sha256'][:16]}",
        f"# why: {record['why']}",
        f"# attempted={record['attempted']} failed={record['failed']} wrong={record['wrong']}",
    ]
    notes = record.get("notes", {})
    for name, value in record["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:48s} {shown:>12s} {record['units'][name]}{note}")
    for fn, sweep in record.get("sweeps", {}).items():
        sizes = sweep["median_s"]
        top = max(sizes)
        growth = "n/a" if sweep["growth"] is None else f"{sweep['growth']:.3f}"
        lines.append(f"# sweep {fn}: growth {growth} over sizes {min(sizes)}..{top}, "
                     f"{1000 * sizes[top]:.3f} ms at {top}, "
                     f"{1000 * sweep['sweep_s']:.1f} ms for the whole sweep")
    if record.get("absent"):
        lines.append(f"# absent (reported as 0): {', '.join(record['absent'])}")
    if record["first_failure"]:
        f = record["first_failure"]
        lines.append(f"# first failure: op {f['op']} pass {f['pass']}: {f['input']}: "
                     f"{f['reason']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thetagw" / "cli.py").is_file():
        print(f"thetagw sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        record = run(name, workloads.build_ops(name, args.seed), args.seed, seconds,
                     bool(args.trace), workloads.MIN_PASSES[name], spec, BENCH / "out")
        print("\n".join(report(record)), flush=True)
        results.append(record["result"])
        if len(names) > 1:
            print(json.dumps(record["result"]), flush=True)
    if len(names) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
