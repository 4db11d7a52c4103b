"""The benchmark's workloads: seeded op lists and the closed-loop pass rule.

Every workload is a closed loop with one client: the next op starts only
after the previous one has finished and been checked.  A pass is one run
over the workload's op list.  The seed picks the inputs (formats, parities,
exact sizes, op order), while the set of op shapes is fixed, so the work in
a pass stays nearly the same from seed to seed.  Why each workload exists
is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass

WORKLOADS = ("verify-all", "table-grid", "deep-sweep")

# Passes a run makes even when --seconds is shorter, so that every run has
# enough op samples for a fixed tail percentile (see tail_fraction).
MIN_PASSES = {"verify-all": 4, "table-grid": 4, "deep-sweep": 2}

# No pass starts this long after the run began, whatever MIN_PASSES says;
# together with per-op timeouts this keeps a run inside its time limit.
HARD_LIMIT_S = 120.0

SUITES = ("parity", "etale", "hankel", "degeneration", "torsion")

# (hmax, alpha budget) of the table ops, by rising row count.  With the
# three probes a pass has 9 ops, so the median op sits in the middle of the
# second shape's samples, which is far (x3.4, x1.7) from its neighbours:
# the median does not jump between shapes from seed to seed.
TABLE_SHAPES = ((50, 6), (100, 7), (100, 8), (200, 7), (150, 8), (200, 8))
TABLE_FLOAT_SHAPES = (0, 3)

PROBES = (
    # Exact value past Python's 4300-digit int->str limit.
    {"argv": ["invariant", "--degree", "2", "--genus", "20000", "--parity", "odd",
              "--alphas", "1,2,3"],
     "check": "invariant", "params": {"degree": 2, "h": 20000, "parity": "odd",
                                      "alphas": [1, 2, 3], "float": False}},
    # The --float column of a value beyond the double range.
    {"argv": ["invariant", "--degree", "2", "--genus", "1100", "--parity", "even",
              "--float"],
     "check": "invariant", "params": {"degree": 2, "h": 1100, "parity": "even",
                                      "alphas": [], "float": True}},
    # A usage error: exit 2 with a JSON message on stderr.
    {"argv": ["invariant", "--degree", "1", "--genus", "-1", "--parity", "even"],
     "check": "usage", "params": {}},
)


def verify_op(fmt: str, suite: str = "all", extra=()) -> dict:
    argv = ["verify", "--suite", suite, *extra]
    if fmt != "text":
        argv += ["--format", fmt]
    suites = list(SUITES) if suite == "all" else [suite]
    return {"kind": "cli", "argv": argv, "check": "verify",
            "params": {"format": fmt, "suites": suites}}


def table_op(degree: int, hmax: int, parity: str, budget: int, fmt: str,
             with_float: bool) -> dict:
    argv = ["table", "--degree", str(degree), "--hmax", str(hmax), "--parity", parity,
            "--alpha-budget", str(budget), "--format", fmt]
    if with_float:
        argv.append("--float")
    return {"kind": "cli", "argv": argv, "check": "table",
            "params": {"degree": degree, "hmax": hmax, "parity": parity,
                       "budget": budget, "format": fmt, "float": with_float}}


def call_op(fn: str, *args, size: int) -> dict:
    return {"kind": "call", "fn": fn, "args": list(args), "size": size}


def _verify_all(rng: random.Random) -> list[dict]:
    first = rng.randrange(2)
    return [verify_op(("text", "json")[(i + first) % 2]) for i in range(8)]


def _table_grid(rng: random.Random) -> list[dict]:
    ops = []
    for i, (base, budget) in enumerate(TABLE_SHAPES):
        ops.append(table_op(
            degree=1 + (i // 2) % 2,
            hmax=base - rng.randrange(3),
            parity=rng.choice(("even", "odd")),
            budget=budget,
            fmt=("json", "csv")[i % 2],
            with_float=i in TABLE_FLOAT_SHAPES,
        ))
    ops.extend({"kind": "cli", **probe} for probe in PROBES)
    rng.shuffle(ops)
    return ops


def _deep_sweep(rng: random.Random) -> list[dict]:
    ops = [call_op("hankel.max_solvable_order", k, size=k) for k in range(1, 10)]
    ops += [call_op("hankel.hankel_det", k, shift, size=k)
            for k in range(1, 33) for shift in (1, 2)]
    ops += [call_op("hankel.solve_branch_system", k, size=k) for k in range(1, 13)]
    ops += [call_op("torsion.branched_cover_identity", h, size=h) for h in range(2, 401)]
    ops += [call_op("degeneration.bubble_channel_11",
                    [rng.randrange(5) for _ in range(n)], size=n)
            for n in range(1, 15)]
    return ops


_BUILDERS = {"verify-all": _verify_all, "table-grid": _table_grid,
             "deep-sweep": _deep_sweep}


def build_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one pass; the same seed always gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def digest(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def describe(op: dict) -> str:
    if op["kind"] == "cli":
        return "thetagw " + " ".join(op["argv"])
    return f"{op['fn']}({', '.join(map(str, op['args']))})"


def another_pass(passes: int, elapsed: float, pass_walls: list[float],
                 seconds: float, min_passes: int) -> bool:
    """Start another pass while the minimum is not met, or while a pass of
    median length still ends inside --seconds."""
    if passes < min_passes:
        return elapsed < HARD_LIMIT_S
    return elapsed + statistics.median(pass_walls) <= seconds


def tail_fraction(min_samples: int) -> float:
    """The tail percentile (as a fraction, floored to a whole percent) that
    leaves at least ten samples beyond it in every run; a run takes at least
    ``min_samples`` samples, so the percentile is the same on every commit."""
    if min_samples <= 10:
        return 1.0
    return (100 * (min_samples - 10) // min_samples) / 100


# Longest a single op may take before it is stopped and counted as failed.
OP_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Sample:
    """One attempted op: its latency and verdict, and what the process
    doing it reported (peak RSS in KiB, stdout bytes)."""

    pass_no: int
    op: int
    latency_s: float
    ok: bool
    wrong: bool
    reason: str
    checks: int = 0
    rss_kb: int = 0
    out_bytes: int = 0


def run_passes(ops: list[dict], execute, keep, seconds: float, min_passes: int,
               deadline: float) -> list[float]:
    """Closed loop with one client over repeated passes of ``ops``.

    ``execute(index, op, timeout)`` runs and checks one op and returns its
    Sample (with pass_no left 0); ``keep(sample)`` stores it.  Returns, per
    complete pass, the sum of its op latencies.  Checking is not part of a
    latency.
    """
    pass_walls: list[float] = []
    clock_walls: list[float] = []
    began = time.perf_counter()
    while another_pass(len(clock_walls), time.perf_counter() - began, clock_walls,
                       seconds, min_passes):
        pass_began = time.perf_counter()
        done = []
        for index, op in enumerate(ops):
            timeout = min(OP_TIMEOUT_S, deadline - time.perf_counter())
            if timeout <= 0:
                break
            done.append(dataclasses.replace(execute(index, op, timeout),
                                            pass_no=len(clock_walls)))
        for sample in done:
            keep(sample)
        if len(done) < len(ops):
            break
        pass_walls.append(sum(s.latency_s for s in done))
        clock_walls.append(time.perf_counter() - pass_began)
    return pass_walls
