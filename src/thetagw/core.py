"""Exact scalars, binomials, and partition combinatorics.

Every value in this package is an exact rational, a `fractions.Fraction`
or an int.  Nothing here (or anywhere downstream) rounds.

The operations the verify suites must exercise are marked with :func:`op`;
:func:`recording_ops` measures which of them actually run.

The package's records (:class:`Partition` here, the results and queries of
the other modules, and the checks and reports of `verify`) are
`collections.namedtuple` types with ``__slots__ = ()``.  The standard
library's frozen-record decorator would import `inspect`, which costs more
start-up than everything a ``table`` or ``invariant`` process computes for
a small query.  A record is a tuple: it equals the plain tuple of its
fields, iterates over them, and prints in a verify report as that tuple.
A record that checks its fields does so in ``__new__``, when it is
constructed; ``_replace`` does not check them again.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, namedtuple
from collections.abc import Iterator
from contextlib import contextmanager

# "module.name" of every function marked with @op.
OPS: set[str] = set()

# The verify suites, in the order "all" runs them, then "all".  The CLI takes
# its choices from here without loading verify, whose suite table is keyed
# by these names.
SUITE_NAMES = ("degeneration", "hankel", "torsion", "parity", "etale", "all")

# The set each op call notes its name in; recording_ops swaps in its own.
_ran: set[str] = set()


def op(fn):
    """Register ``fn`` as an operation the verify suites must exercise, and
    note each call to it in the set :func:`recording_ops` has swapped in."""
    name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
    OPS.add(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _ran.add(name)
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def recording_ops():
    """Yield the set of registered op names that run inside the block.  The
    set in use before is put back on exit, missing the block's ops."""
    global _ran
    outer, _ran = _ran, set()
    try:
        yield _ran
    finally:
        _ran = outer


@contextmanager
def unlimited_digits():
    """Lift the interpreter's int->str digit limit, if it has one, inside the block."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def rational_str(num: int, den: int) -> str:
    """Canonical text of num/den, given in lowest terms with den > 0:
    "num/den", or "num" when den == 1."""
    return f"{num}/{den}" if den != 1 else str(num)


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0:
        return 0
    return math.comb(n, k)


class Partition(namedtuple("Partition", "parts")):
    """Weakly increasing positive parts, with the gluing-formula bookkeeping.

    ``weight`` is the product of the parts and ``aut`` the order of the
    subgroup of part permutations fixing the partition; the gluing formula
    weighs the channel indexed by a partition with weight/aut.
    """

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]):
        if any(p <= 0 for p in parts):
            raise ValueError("partition parts must be positive")
        if list(parts) != sorted(parts):
            raise ValueError("partition parts must be weakly increasing")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return math.prod(self.parts)

    @property
    def aut(self) -> int:
        return math.prod(
            math.factorial(m) for m in Counter(self.parts).values()
        )


def partitions_of(d: int) -> list[Partition]:
    """All partitions of ``d`` in lexicographic order of their part tuples."""
    if d < 1:
        raise ValueError("partitions_of requires d >= 1")
    def rec(remaining: int, lo: int):
        if remaining == 0:
            yield ()
            return
        for p in range(lo, remaining + 1):
            for rest in rec(remaining - p, p):
                yield (p,) + rest

    return [Partition(parts) for parts in rec(d, 1)]


def required_chi(d: int, h: int, alphas) -> int:
    """Euler characteristic forced by degree d, base genus h and descendant
    exponents: chi = -(d*(h-1) + sum(alphas)).

    This is chi(O) = 1 - g of a genus-g domain, from the dimension count.
    On Y = Tot(L), c_1(T_Y).[C] = (2 - 2h) + (h - 1) = 1 - h, so
    vdim M_{g,n}(Y, d[C]) = g - 1 + d(1 - h) + n.  Each tau_a inserts the
    pullback to Y of the point class of C, of degree a + 1, and the
    insertions cut the dimension to zero when 1 - g = -(d(h-1) + sum a).
    (With the point class of Y, of degree a + 2, it would read
    -(d(h-1) + sum a + n).)  PAPER.md holds only the paper's abstract, so
    which convention the paper states is an open question."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    if h < 0:
        raise ValueError("genus must be >= 0")
    return -(d * (h - 1) + sum(alphas))


def descendant_multisets(max_len: int, max_total: int) -> Iterator[tuple[int, ...]]:
    """Weakly increasing exponent tuples with length <= max_len and sum
    <= max_total, ordered by length then lexicographically."""
    def rec(n: int, lo: int, budget: int):
        if n == 0:
            yield ()
            return
        for p in range(lo, budget + 1):
            for rest in rec(n - 1, p, budget - p):
                yield (p,) + rest

    for n in range(max_len + 1):
        yield from rec(n, 0, max_total)
