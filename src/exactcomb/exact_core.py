"""Exact arithmetic shared by every other module.

Integers are plain Python ints (arbitrary precision, so nothing here can
overflow); rationals are `fractions.Fraction`, which is normalized at
construction: always reduced, denominator strictly positive.  `counting`
and `parse_rational` make theirs through `fraction`, which binds the class
on its first call, so a command that makes none never loads `fractions`
(nor the `decimal` and `numbers` modules it imports); `series` and
`poset_mobius` import it only where a Fraction is read or made.

The cross-check contract lives here: where independent routes compute one
value, `agree` compares them, and where an exact division must come out
whole, `exact_quotient` divides.  A mismatch or a remainder raises
ArithmeticError, with a short message for values of any size, and never
returns a value.  Each names its check by a label: a string, or a tuple
(name, *args) that is formatted only when the check fails.  No other
module raises ArithmeticError itself.

`falling_factorial` is the one product of consecutive integers, by two
branches chosen by measurement.  For n below `FACTORIAL_TABLE_SIZE` it is a
quotient of two entries of one table of 0!, 1!, ...; above the bound, and
for negative n, a balanced product tree.  `factorial` reads the table below
the bound and agrees the tree with `math.factorial` above it.  The table is
built once, on first use, and certified by one agreement of its last entry
with `math.factorial`: that covers every entry, not the index a caller
reads, which the callers' own cross-checks cover.

Every cap on the size of a request is checked by `guard`, which raises
SizeGuardError (a ValueError) before the work starts.  A `RowTable`'s rows
and each `once` field are built once, under the table's or object's lock;
a table's optional check runs there too, once per extension.
"""

from __future__ import annotations

import math
import re
import threading
from itertools import accumulate
from operator import attrgetter, mul
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from fractions import Fraction

_INT_RE = re.compile(r"[+-]?\d+\Z")

# maxsize of every lru_cache of answers: well above the working set of a long
# session, yet bounded (`counting._gentile_table` keeps tables, under its own cap)
CACHE_SIZE = 1 << 15


class RowTable:
    """Rows 0, 1, 2, ... of a recursion whose every row answers many requests
    (a triangle's row, a matrix row), each built once under the table's lock.

    ``step(prev, m)`` returns row m from row m-1.  A request past the top
    row extends the table: the new rows are built in a local list, and
    ``check(row, n)``, if given, is called once on the new top row n (it
    raises ArithmeticError, by `agree` or `exact_quotient`, on a wrong row).
    The new rows are added only when every step and the check return, in one
    atomic extend, so a failed extension keeps none of them and the next
    request builds and checks them again.  Both run under the table's lock,
    which does not re-enter, so neither the step nor the check may index its
    own table.  Finished rows are read without the lock: the list only
    grows."""

    def __init__(self, first, step: Callable[[object, int], object],
                 check: Callable[[object, int], None] | None = None):
        self._rows = [first]
        self._step = step
        self._check = check
        self._lock = threading.Lock()

    def __getitem__(self, n: int):
        rows = self._rows
        if n >= len(rows):
            with self._lock:
                if n >= len(rows):
                    new = [rows[-1]]
                    for m in range(len(rows), n + 1):
                        new.append(self._step(new[-1], m))
                    if self._check is not None:
                        self._check(new[-1], n)
                    rows += new[1:]
        return rows[n]


class once:
    """A field computed on its object's first read, under a re-entrant lock
    made once per object, and kept in the object's ``__dict__``: racing
    threads compute it once and no read waits on another object.  Deadlock
    is impossible while a field reads only fields of its object or of those
    it was built from (a product's factors), never of one built from it."""

    def __init__(self, func: Callable):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        fields = instance.__dict__
        with fields.get("_once_lock") or fields.setdefault("_once_lock", threading.RLock()):
            if self.name not in fields:
                fields[self.name] = self.func(instance)
        return fields[self.name]


class Record:
    """Base of the library's small immutable value classes, written out by
    hand so that no command pays at start-up for a generated-class builder
    and the `inspect` and `ast` modules it imports.

    The fields are the subclass's ``__slots__``, in order; its ``__init__``
    validates and then passes their values to ``Record.__init__``.  Equality
    (against the same class only), hashing and repr go by the fields, and
    assigning or deleting an attribute raises AttributeError, so a record
    can be neither pickled nor copied."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields by one C-level getter: a record that keys a memo cache
        # is hashed on every call and compared on every hit
        get = attrgetter(*cls.__slots__)
        cls._values = lambda self: get(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _show(value) -> str:
    """repr for an error message, cut at 300 characters per sequence, each int
    over 200 bits given by its size: converting a wide int to decimal is slow,
    and refused beyond CPython's digit limit."""
    if isinstance(value, (list, tuple)):
        text = ", ".join(map(_show, value))
        if len(text) > 300:
            text = text[:297] + "..."
        return f"[{text}]" if isinstance(value, list) else f"({text})"
    from fractions import Fraction

    if isinstance(value, Fraction):
        return f"{_show(value.numerator)}/{_show(value.denominator)}"
    if isinstance(value, int) and value.bit_length() > 200:
        return f"<{value.bit_length()}-bit int>"
    return repr(value)


def _label(label: str | tuple) -> str:
    """A check's label as text; a tuple (name, *args) reads "name(a,b)"."""
    if isinstance(label, tuple):
        return f"{label[0]}({','.join(map(str, label[1:]))})"
    return label


def agree(label: str | tuple, *values):
    """The common value of two or more routes; ArithmeticError if any differ."""
    first = values[0]
    for v in values[1:]:
        if v != first:
            raise ArithmeticError(
                f"internal inconsistency in {_label(label)}: routes gave {_show(values)}"
            )
    return first


def exact_quotient(label: str | tuple, num: int, den: int) -> int:
    """num // den, which must divide exactly; ArithmeticError otherwise."""
    value, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"internal inconsistency: {_label(label)} is non-integer "
                              f"{_show(fraction(num, den))}")
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


# 0!, 1!, ..., (FACTORIAL_TABLE_SIZE - 1)!, 34 KB with its list: empty until
# the first call that reads it, then certified and stored in one assignment.
# `counting.binomial` takes its falling route for every n below this bound,
# where it is a quotient of entries: retune `counting._FALLING_MAX_SQUARE_OVER_N`
# and that module's docstring with it
FACTORIAL_TABLE_SIZE = 256
_FACTORIALS: list[int] = []

# a product of at most this many consecutive integers is one math.prod, and
# a longer one is split in halves down to such leaves; of leaves of 8 to 128
# terms, 64 measured fastest from 10^3 to 10^5 terms (CPython 3.11, x86-64)
_PRODUCT_LEAF = 64


def _factorial_table() -> list[int]:
    """The factorial table, built by running products and certified by one
    agreement of its last entry with math.factorial: every entry divides the
    last, so one wrong step changes the last.  Built in a local list and
    then stored, as `counting._SIEVE` is, so racing threads may each build
    it and a failed certificate stores nothing."""
    global _FACTORIALS
    table = list(accumulate(range(1, FACTORIAL_TABLE_SIZE), mul, initial=1))
    top = FACTORIAL_TABLE_SIZE - 1
    agree(("factorial table", top), table[top], math.factorial(top))
    _FACTORIALS = table
    return table


def _product(lo: int, hi: int) -> int:
    """lo (lo+1) ... (hi-1), by halves down to leaves of `_PRODUCT_LEAF`
    terms, so the large multiplications pair operands of equal size."""
    if hi - lo <= _PRODUCT_LEAF:
        return math.prod(range(lo, hi))
    mid = (lo + hi) // 2
    return _product(lo, mid) * _product(mid, hi)


def falling_factorial(n: int, k: int) -> int:
    """(n)_k = n (n-1) ... (n-k+1), for any integer n; the empty product is 1.
    The one product of consecutive integers: factorials and rising
    factorials are computed here."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > n >= 0:
        return 0  # the range holds 0
    if 0 <= n < FACTORIAL_TABLE_SIZE:
        table = _FACTORIALS or _factorial_table()
        return table[n] // table[n - k]
    return _product(n - k + 1, n + 1)


def factorial(n: int) -> int:
    """n! = (n)_n as an exact integer (0! = 1): read from the certified table
    below its bound, else the product tree agreed with math.factorial."""
    if n < 0:
        raise ValueError(f"factorial is undefined for negative n (got {n})")
    if n < FACTORIAL_TABLE_SIZE:
        return (_FACTORIALS or _factorial_table())[n]
    return agree(("factorial", n), falling_factorial(n, n), math.factorial(n))


def gcd(a: int, b: int) -> int:
    """Nonnegative greatest common divisor.  gcd(0, 0) is rejected."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


_Fraction = None  # fractions.Fraction, once `fraction` has been called


def fraction(num: int, den: int = 1) -> Fraction:
    """Fraction(num, den), the class imported on the first call and then kept."""
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    return _Fraction(num, den)


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
        return fraction(parse_int(num), q)
    return fraction(parse_int(text))


def format_rational(q: int | Fraction) -> str:
    """Render an int or Fraction as "p/q", or just "p" when it is an integer."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
