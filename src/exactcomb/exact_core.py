"""Exact arithmetic shared by every other module.

Integers are plain Python ints (arbitrary precision, so nothing here can
overflow); rationals are `fractions.Fraction`, which is normalized at
construction: always reduced, denominator strictly positive.  The two
aliases below exist so that signatures elsewhere can say what they mean.

The cross-check contract lives here: where independent routes compute one
value, `agree` compares them, and where an exact division must come out
whole, `exact_quotient` divides.  A mismatch or a remainder raises
ArithmeticError, with a short message for values of any size, and never
returns a value.  No other module raises ArithmeticError itself.
Every cap on the size of a request is checked by `guard`, which raises
SizeGuardError (a ValueError) before the work starts.
"""

from __future__ import annotations

import math
import re
import threading
from fractions import Fraction
from typing import Callable

ExactInt = int
ExactRat = Fraction

_INT_RE = re.compile(r"[+-]?\d+\Z")

# maxsize of every lru_cache in the library: well above the working set of a
# long session, yet bounded, so no cache grows without limit
CACHE_SIZE = 1 << 15


class RowTable:
    """Rows 0, 1, 2, ... of a recursion, each built once under the table's lock.

    ``step(rows, m)`` returns row m from the finished rows 0..m-1; the lock does
    not re-enter, so a step must not index its own table.  Finished rows are
    read without the lock: the list only grows and ``append`` is atomic."""

    def __init__(self, first, step: Callable[[list, int], object]):
        self._rows = [first]
        self._step = step
        self._lock = threading.Lock()

    def __getitem__(self, n: int):
        rows = self._rows
        if n >= len(rows):
            with self._lock:
                while len(rows) <= n:
                    rows.append(self._step(rows, len(rows)))
        return rows[n]


def _show(value) -> str:
    """repr for an error message, cut at 300 characters per sequence, each int
    over 200 bits given by its size: converting a wide int to decimal is slow,
    and refused beyond CPython's digit limit."""
    if isinstance(value, (list, tuple)):
        text = ", ".join(map(_show, value))
        if len(text) > 300:
            text = text[:297] + "..."
        return f"[{text}]" if isinstance(value, list) else f"({text})"
    if isinstance(value, Fraction):
        return f"{_show(value.numerator)}/{_show(value.denominator)}"
    if isinstance(value, int) and value.bit_length() > 200:
        return f"<{value.bit_length()}-bit int>"
    return repr(value)


def agree(label: str, *values):
    """The common value of two or more routes; ArithmeticError if any differ."""
    first = values[0]
    for v in values[1:]:
        if v != first:
            raise ArithmeticError(
                f"internal inconsistency in {label}: routes gave {_show(values)}"
            )
    return first


def exact_quotient(label: str, num: int, den: int) -> int:
    """num // den, which must divide exactly; ArithmeticError otherwise."""
    value, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(
            f"internal inconsistency: {label} is non-integer {_show(Fraction(num, den))}"
        )
    return value


class SizeGuardError(ValueError):
    """A request past one of the library's caps on size."""


def guard(ok: bool, what: str) -> None:
    """Raise SizeGuardError naming `what` unless `ok`."""
    if not ok:
        raise SizeGuardError(f"size guard exceeded: {what}")


def integer_form(values) -> tuple[list[int], int]:
    """(numerators, d): values[i] == numerators[i] / d for ints and Fractions,
    d the lcm of the denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def factorial(n: int) -> int:
    """n! as an exact integer, by plain iterated product (0! = 1)."""
    if n < 0:
        raise ValueError(f"factorial is undefined for negative n (got {n})")
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def gcd(a: int, b: int) -> int:
    """Nonnegative greatest common divisor.  gcd(0, 0) is rejected."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def parse_int(text: str) -> int:
    """Parse a decimal integer string (optional sign, digits only)."""
    text = text.strip()
    if not _INT_RE.match(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer) into a reduced Fraction."""
    text = text.strip()
    num, sep, den = text.partition("/")
    if sep:
        q = parse_int(den)
        if q == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(parse_int(num), q)
    return Fraction(parse_int(text))


def format_rational(q: Fraction) -> str:
    """Render as "p/q", or just "p" when the value is an integer."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
