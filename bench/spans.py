"""In-memory span tracing of thetagw, from outside the package.

:meth:`Tracer.install` wraps every public function of every thetagw module,
and the public methods and arithmetic operators of its classes.  Each
wrapper replaces the original under every name that binds it in any thetagw
module, so a cross-module call such as ``degeneration.descendant_block``
or ``cli.evaluate`` is one span, named after the defining module
(``invariants.descendant_block``).  Nothing under ``src/`` changes.

A span records its name, start, end, parent span and op id.  Spans stay in
compact arrays in memory and are written out by :meth:`Tracer.dump` when
the run ends.  A generator function gets one span per resumption, so its
self time is the time spent inside it; its call count is counted once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import statistics
import time
from array import array
from collections import Counter

# Operator methods wrapped besides public ones.
OPERATORS = frozenset({"__add__", "__sub__", "__mul__", "__rmul__", "__neg__"})

# Functions whose spans also record a size (their first argument, or its
# length when it is a sequence), for the fitted growth exponents.
SIZED = frozenset(
    {
        "degeneration.bubble_channel_11",
        "hankel.max_solvable_order",
        "hankel.hankel_det",
        "hankel.solve_branch_system",
        "torsion.branched_cover_identity",
    }
)


def _size_of(args) -> int:
    try:
        first = args[0]
        return len(first) if isinstance(first, (tuple, list)) else int(first)
    except (IndexError, TypeError, ValueError):
        return -1


def thetagw_modules(package) -> list:
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.keys: list[str] = []
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.sizes: dict[int, int] = {}
        self.stack = [-1]
        self.op = -1
        self._undo: list = []

    # -- wrapping -----------------------------------------------------

    def _new_key(self, key: str) -> int:
        self.keys.append(key)
        self.calls.append(0)
        self.errors.append(0)
        return len(self.keys) - 1

    def _wrap(self, fn, key: str):
        idx = self._new_key(key)
        sized = key in SIZED
        calls, errors, stack = self.calls, self.errors, self.stack
        start, end, name, parent, op_of = (
            self.start, self.end, self.name, self.parent, self.op_of)
        sizes, clock, tracer = self.sizes, time.perf_counter_ns, self

        def open_span() -> int:
            i = len(start)
            name.append(idx)
            parent.append(stack[-1])
            op_of.append(tracer.op)
            end.append(0)
            stack.append(i)
            start.append(clock())
            return i

        def close_span(i: int) -> None:
            end[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[idx] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        errors[idx] += 1
                        raise
                    finally:
                        close_span(i)
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[idx] += 1
                i = open_span()
                if sized:
                    sizes[i] = _size_of(args)
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    errors[idx] += 1
                    raise
                finally:
                    close_span(i)
        return wrapper

    def install(self, package) -> None:
        """Wrap the package's public functions and methods in place."""
        modules = thetagw_modules(package)
        wrappers: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._install_methods(obj, layer)
        for owner in [package, *modules]:
            for name, obj in list(vars(owner).items()):
                if id(obj) in wrappers:
                    self._undo.append(functools.partial(setattr, owner, name, obj))
                    setattr(owner, name, wrappers[id(obj)])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    self._install_in_table(obj, wrappers)

    def _install_in_table(self, table: dict, wrappers: dict[int, object]) -> None:
        """Rebind functions held as values of a module-level dict, or inside
        tuple values (dispatch tables such as verify's suite table)."""
        for key, value in list(table.items()):
            if isinstance(value, tuple):
                new = tuple(wrappers.get(id(v), v) for v in value)
                changed = any(a is not b for a, b in zip(new, value))
            else:
                new = wrappers.get(id(value), value)
                changed = new is not value
            if changed:
                self._undo.append(functools.partial(table.__setitem__, key, value))
                table[key] = new

    def _install_methods(self, cls, layer: str) -> None:
        done: dict[int, object] = {}
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            binder = type(attr) if isinstance(attr, (classmethod, staticmethod)) else None
            fn = attr.__func__ if binder else attr
            if not inspect.isfunction(fn):
                continue
            if id(fn) not in done:
                done[id(fn)] = self._wrap(fn, f"{layer}.{fn.__qualname__}")
            self._undo.append(functools.partial(setattr, cls, name, attr))
            setattr(cls, name, binder(done[id(fn)]) if binder else done[id(fn)])

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- results ------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        """Per function: calls, errors, self_s, incl_s, and size
        points {size: [inclusive seconds, ...]} for sized functions."""
        selfs = self_times(self.start, self.end, self.parent)
        out = {key: {"calls": self.calls[i], "errors": self.errors[i],
                     "self_s": 0.0, "incl_s": 0.0, "sizes": {}}
               for i, key in enumerate(self.keys)}
        for i, idx in enumerate(self.name):
            entry = out[self.keys[idx]]
            entry["self_s"] += selfs[i] / 1e9
            entry["incl_s"] += (self.end[i] - self.start[i]) / 1e9
        for i, size in self.sizes.items():
            entry = out[self.keys[self.name[i]]]
            entry["sizes"].setdefault(size, []).append((self.end[i] - self.start[i]) / 1e9)
        return out

    def edges(self) -> Counter:
        """Span counts per (function, function of the direct parent span)."""
        keys, name = self.keys, self.name
        return Counter(
            (keys[idx], keys[name[p]]) for idx, p in zip(name, self.parent) if p >= 0
        )

    def dump(self, path) -> None:
        """Write the spans: one JSON header line, then the raw int arrays
        named in the header's "columns", in that order."""
        columns = [("start_ns", self.start), ("end_ns", self.end),
                   ("name", self.name), ("parent", self.parent), ("op", self.op_of)]
        header = {
            "names": self.keys,
            "count": len(self.start),
            "columns": [[label, arr.typecode, arr.itemsize] for label, arr in columns],
            "sizes": sorted(self.sizes.items()),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(fh)


def self_times(start, end, parent) -> list[int]:
    """Span duration minus the durations of its direct children.

    Spans come from one thread and nest, so the children of a span cover
    disjoint parts of its interval; a parent index is always smaller than
    its children's.
    """
    child = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(len(start))]


def fit_growth(points: dict[int, list[float]]) -> float | None:
    """Least-squares slope of log(median time) against log(size), over the
    larger half of the sizes seen (small sizes show fixed costs, not
    growth).  None when fewer than two positive sizes were seen."""
    sizes = sorted(s for s, times in points.items() if s > 0 and times)
    if len(sizes) >= 4:
        sizes = sizes[len(sizes) // 2:]
    if len(sizes) < 2:
        return None
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(statistics.median(points[s]), 1e-9)) for s in sizes]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
