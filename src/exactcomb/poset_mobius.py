"""Finite posets, their Mobius functions, inversion, and sieve counting.

A `FinitePoset` is an explicit element list plus an order relation that
is validated eagerly (reflexive closure is applied for convenience, but
antisymmetry and transitivity violations are reported with a witness).
The order is stored as int bitsets over element indices: one up-mask and
one down-mask per element, so an interval [x, y] is one AND and the
order-reversed poset swaps the two lists.  `up`, `down` and `interval`
build frozensets from the masks when asked.

The Mobius function is computed by the interval recursion along a linear
extension.  For a fixed x, the values mu(x, y) found so far are kept as
bit planes: for each binary digit k of |mu|, one mask of the y with that
digit set and mu(x, y) > 0 and one for mu(x, y) < 0.  The sum over an
interval I is then sum_k 2^k (popcount(I & pos_k) - popcount(I & neg_k)).
`delta_check` runs the same kernel down the columns.  `_mobius_reference`
keeps the plain recursion over frozensets as the second route, which the
tests and `verify` compare against.  Dual inversion reuses the same code
on the reversed order, so there is a single proof obligation.

Sieve counting (Sylvester's alternating sum and Jordan's exactly-m
formula) lives here too, over explicit subset families.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Hashable, Iterable, Mapping, Sequence, Union

from .counting import binomial
from .number_theory import divisors

Element = Hashable
Rational = Union[int, Fraction]

# boolean_lattice(12) plus its Mobius table takes about 2 s and 100 MB
# (CPython 3.11, one x86-64 core); each further atom costs about 4x the
# time and 3x the memory, so n = 13 already needs 8 s and 310 MB
MAX_BOOLEAN_GROUND = 12
MAX_DIVISOR_COUNT = 10**4


class PosetError(ValueError):
    """The given relation is not a partial order; carries a witness."""

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, lowest first."""
    digits = bin(mask)[:1:-1]  # the binary digits, least significant first
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


class FinitePoset:
    """Explicit finite poset: elements plus a reflexive, antisymmetric,
    transitive relation (checked at construction)."""

    def __init__(
        self,
        elements: Sequence[Element],
        relation: Iterable[tuple[Element, Element]],
        _trusted: bool = False,
    ):
        self.elements: tuple[Element, ...] = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")
        # bit j of _up[i] (and bit i of _down[j]) says elements[i] <= elements[j]
        self._up = [1 << i for i in range(len(self.elements))]
        self._down = self._up.copy()
        for x, y in relation:
            if x not in self._index or y not in self._index:
                raise ValueError(f"relation pair ({x!r}, {y!r}) outside element set")
            i, j = self._index[x], self._index[y]
            self._up[i] |= 1 << j
            self._down[j] |= 1 << i
        if not _trusted:
            self._validate()
        self._sort_extension()

    @classmethod
    def _from_masks(cls, elements: tuple, index: dict, up: list[int],
                    down: list[int]) -> "FinitePoset":
        """A poset over already-closed masks, with no validation."""
        P = cls.__new__(cls)
        P.elements, P._index, P._up, P._down = elements, index, up, down
        P._sort_extension()
        return P

    def _sort_extension(self):
        # any order sorted by down-set size is a linear extension,
        # since x < y forces down(x) to be strictly inside down(y)
        order = sorted(range(len(self.elements)),
                       key=lambda i: (self._down[i].bit_count(), i))
        self._extension = tuple(self.elements[i] for i in order)
        self._rank = [0] * len(order)
        for position, i in enumerate(order):
            self._rank[i] = position

    def _validate(self):
        up, name = self._up, self.elements
        for i, x in enumerate(name):
            for j in _bits(up[i]):
                y = name[j]
                if j != i and up[j] >> i & 1:
                    raise PosetError(
                        f"antisymmetry violated: {x!r} <= {y!r} and {y!r} <= {x!r}",
                        (x, y),
                    )
                missing = up[j] & ~up[i]
                if missing:
                    z = name[(missing & -missing).bit_length() - 1]
                    raise PosetError(
                        f"transitivity violated: {x!r} <= {y!r} <= {z!r} "
                        f"but not {x!r} <= {z!r}",
                        (x, y, z),
                    )

    def _members(self, mask: int) -> list[Element]:
        return [self.elements[i] for i in _bits(mask)]

    # -- queries -------------------------------------------------------

    def leq(self, x: Element, y: Element) -> bool:
        up = self._up[self._index[x]]
        j = self._index.get(y)
        return j is not None and bool(up >> j & 1)

    def up(self, x: Element) -> frozenset[Element]:
        return frozenset(self._members(self._up[self._index[x]]))

    def down(self, y: Element) -> frozenset[Element]:
        return frozenset(self._members(self._down[self._index[y]]))

    def interval(self, x: Element, y: Element) -> frozenset[Element]:
        mask = self._up[self._index[x]] & self._down[self._index[y]]
        return frozenset(self._members(mask))

    def linear_extension(self) -> tuple[Element, ...]:
        return self._extension

    def reversed(self) -> "FinitePoset":
        return FinitePoset._from_masks(self.elements, self._index, self._down, self._up)

    def __len__(self) -> int:
        return len(self.elements)

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> str:
        pairs = sorted(
            ((x, y) for i, x in enumerate(self.elements)
             for y in self._members(self._up[i] & ~(1 << i))),
            key=lambda p: (str(p[0]), str(p[1])),
        )
        return json.dumps({"elements": list(self.elements), "leq": pairs})

    @classmethod
    def from_json(cls, text: str) -> "FinitePoset":
        data = _json_object(text)
        elements, leq = data["elements"], data.get("leq", [])
        if not isinstance(elements, list) or not all(map(_is_scalar, elements)):
            raise ValueError("elements must be a list of strings or numbers")
        if not isinstance(leq, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and all(map(_is_scalar, pair))
            for pair in leq
        ):
            raise ValueError("leq must be a list of [x, y] pairs of elements")
        return cls(elements, [tuple(pair) for pair in leq])


def _json_object(text: str) -> dict:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    return data


def _is_scalar(value) -> bool:
    """A JSON string or number, so hashable and usable as an element."""
    return isinstance(value, (str, int, float))


# ---------------------------------------------------------------------------
# incidence functions
# ---------------------------------------------------------------------------


class IncidenceFunction:
    """A function on comparable pairs of a poset; incomparable pairs
    evaluate to 0 (as for zeta, delta and the Mobius function)."""

    def __init__(self, poset: FinitePoset, table: Mapping[tuple, Rational]):
        self.poset = poset
        self.table = dict(table)

    def __call__(self, x: Element, y: Element) -> Rational:
        return self.table.get((x, y), 0)

    def items(self):
        return self.table.items()


def _plane_add(planes: list[list[int]], bit: int, value: int) -> None:
    """Record `value` at the index whose mask is `bit`: set that bit in the
    positive (or negative) plane of each binary digit of |value|."""
    side, size = (0, value) if value > 0 else (1, -value)
    for k in range(size.bit_length()):
        if k == len(planes):
            planes.append([0, 0])
        if size >> k & 1:
            planes[k][side] |= bit


def _plane_sum(mask: int, planes: list[list[int]]) -> int:
    """The sum of the recorded values over the indices in `mask`."""
    total = 0
    for k, (pos, neg) in enumerate(planes):
        total += ((mask & pos).bit_count() - (mask & neg).bit_count()) << k
    return total


def mobius(P: FinitePoset) -> IncidenceFunction:
    """The Mobius function: mu(x,x) = 1 and, below y, the values on
    [x, y) sum to -mu(x,y); evaluated along a linear extension, with the
    row of values for x kept as bit planes."""
    elements, up, down, rank = P.elements, P._up, P._down, P._rank
    table: dict[tuple, int] = {}
    for i, x in enumerate(elements):
        table[(x, x)] = 1
        planes = [[1 << i, 0]]
        for j in sorted(_bits(up[i] ^ 1 << i), key=rank.__getitem__):
            # the planes hold only elements above x, and none is y yet,
            # so the AND with down(y) alone picks out [x, y)
            value = -_plane_sum(down[j], planes)
            if value == 1:  # the common case in lattices, done inline
                planes[0][0] |= 1 << j
            elif value == -1:
                planes[0][1] |= 1 << j
            elif value:
                _plane_add(planes, 1 << j, value)
            table[(x, elements[j])] = value
    return IncidenceFunction(P, table)


def _mobius_reference(P: FinitePoset) -> IncidenceFunction:
    """The same recursion as `mobius`, summed over frozenset intervals:
    the reference route that tests and `verify` compare it with."""
    rank = {e: i for i, e in enumerate(P.linear_extension())}
    table: dict[tuple, int] = {}
    for x in P.elements:
        row: dict[Element, int] = {x: 1}
        table[(x, x)] = 1
        for y in sorted(P.up(x) - {x}, key=rank.__getitem__):
            value = -sum(row[z] for z in P.interval(x, y) if z != y)
            row[y] = value
            table[(x, y)] = value
    return IncidenceFunction(P, table)


def zeta(P: FinitePoset) -> IncidenceFunction:
    return IncidenceFunction(
        P, {(x, y): 1 for x in P.elements for y in P.up(x)}
    )


def delta(P: FinitePoset) -> IncidenceFunction:
    return IncidenceFunction(P, {(x, x): 1 for x in P.elements})


def delta_check(P: FinitePoset) -> bool:
    """Verify sum_{x: z <= x <= y} mu(x, y) = delta(z, y) on all
    comparable pairs (the zeta * mu = delta identity), with the column
    of values below y kept as bit planes."""
    mu = mobius(P).table
    elements, up, down = P.elements, P._up, P._down
    for j, y in enumerate(elements):
        planes: list[list[int]] = []
        for i in _bits(down[j]):
            _plane_add(planes, 1 << i, mu[(elements[i], y)])
        for i in _bits(down[j]):
            if _plane_sum(up[i] & down[j], planes) != (1 if i == j else 0):
                return False
    return True


def accumulate(P: FinitePoset, f: Mapping[Element, Rational]) -> dict:
    """g(y) = sum_{x <= y} f(x)."""
    return {
        y: sum(f[x] for x in P._members(P._down[j]))
        for j, y in enumerate(P.elements)
    }


def invert(P: FinitePoset, g: Mapping[Element, Rational]) -> dict:
    """The unique f with sum_{x <= y} f(x) = g(y), via
    f(y) = sum_{x <= y} mu(x, y) g(x)."""
    mu = mobius(P).table
    return {
        y: sum(mu[(x, y)] * g[x] for x in P._members(P._down[j]))
        for j, y in enumerate(P.elements)
    }


def accumulate_dual(P: FinitePoset, f: Mapping[Element, Rational]) -> dict:
    """g(y) = sum_{x >= y} f(x)."""
    return accumulate(P.reversed(), f)


def invert_dual(P: FinitePoset, g: Mapping[Element, Rational]) -> dict:
    """The unique f with sum_{x >= y} f(x) = g(y); this is plain
    inversion on the order-reversed poset."""
    return invert(P.reversed(), g)


# ---------------------------------------------------------------------------
# the two concrete lattices
# ---------------------------------------------------------------------------


def boolean_lattice(n: int) -> FinitePoset:
    """Subsets of {1..n} ordered by inclusion, smaller subsets first."""
    if not 0 <= n <= MAX_BOOLEAN_GROUND:
        raise ValueError(f"boolean lattice capped at n <= {MAX_BOOLEAN_GROUND}")
    subsets = [c for size in range(n + 1) for c in combinations(range(n), size)]
    elements = tuple(frozenset(i + 1 for i in c) for c in subsets)
    masks = [sum(1 << i for i in c) for c in subsets]
    position = [0] * len(masks)  # subset mask -> element index
    for index, a in enumerate(masks):
        position[a] = index
    full = (1 << n) - 1
    up = [0] * len(masks)
    down = [0] * len(masks)
    for i, a in enumerate(masks):
        b = a
        while True:  # every superset b of a, in increasing order
            j = position[b]
            up[i] |= 1 << j
            down[j] |= 1 << i
            if b == full:
                break
            b = (b + 1) | a
    index = {e: i for i, e in enumerate(elements)}
    return FinitePoset._from_masks(elements, index, up, down)


def divisor_poset(n: int) -> FinitePoset:
    """The divisors of n ordered by divisibility (the interval [1, n])."""
    divs = divisors(n)
    if len(divs) > MAX_DIVISOR_COUNT:
        raise ValueError("too many divisors")
    pairs = [(a, b) for a in divs for b in divs if b % a == 0]
    return FinitePoset(divs, pairs, _trusted=True)


# ---------------------------------------------------------------------------
# sieve counting over explicit families
# ---------------------------------------------------------------------------

MAX_FAMILY_SETS = 20
MAX_FAMILY_UNIVERSE = 10**5


@dataclass(frozen=True)
class SubsetFamily:
    """Subsets A_1..A_n of the universe {0 .. universe-1}."""

    universe: int
    sets: tuple[frozenset[int], ...]

    def __init__(self, universe: int, sets: Iterable[Iterable[int]]):
        sets = tuple(frozenset(s) for s in sets)
        if universe < 0 or universe > MAX_FAMILY_UNIVERSE:
            raise ValueError("universe size out of range")
        if len(sets) > MAX_FAMILY_SETS:
            raise ValueError(f"at most {MAX_FAMILY_SETS} sets supported")
        full = range(universe)
        for s in sets:
            if not all(x in full for x in s):
                raise ValueError("set member outside the universe")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "sets", sets)

    def to_json(self) -> str:
        return json.dumps(
            {"universe": self.universe, "sets": [sorted(s) for s in self.sets]}
        )

    @classmethod
    def from_json(cls, text: str) -> "SubsetFamily":
        data = _json_object(text)
        universe, sets = data["universe"], data["sets"]
        if not isinstance(universe, int):
            raise ValueError("universe must be an integer")
        if not isinstance(sets, list) or not all(
            isinstance(s, list) and all(isinstance(x, int) for x in s) for s in sets
        ):
            raise ValueError("sets must be a list of lists of integers")
        return cls(universe, sets)


def sylvester_numbers(fam: SubsetFamily) -> list[int]:
    """S_k = sum over k-element index sets of the intersection sizes;
    S_0 is the universe size."""
    n = len(fam.sets)
    out = [0] * (n + 1)
    out[0] = fam.universe

    def rec(start: int, current: frozenset[int], depth: int):
        for i in range(start, n):
            nxt = current & fam.sets[i]
            out[depth + 1] += len(nxt)
            if nxt:  # empty intersections only breed empty ones
                rec(i + 1, nxt, depth + 1)

    rec(0, frozenset(range(fam.universe)), 0)
    return out


def sylvester_count(fam: SubsetFamily) -> int:
    """|universe minus the union| by the alternating Sylvester sum: e_0 of
    `sieve_counts`, checked there against a direct membership scan."""
    return sieve_counts(fam)[1][0]


def sieve_counts(fam: SubsetFamily) -> tuple[list[int], list[int]]:
    """The Sylvester numbers S_k and the Jordan counts e_m (universe
    elements lying in exactly m of the sets), from one computation of the
    S_k.  The e_m must sum to the universe size, and e_0, which is term
    for term the alternating Sylvester sum, must agree with a direct
    membership scan."""
    n = len(fam.sets)
    s = sylvester_numbers(fam)
    out = []
    for m in range(n + 1):
        e = 0
        for k in range(m, n + 1):
            term = binomial(k, m) * s[k]
            e += -term if (k - m) % 2 else term
        out.append(e)
    if sum(out) != fam.universe:
        raise ArithmeticError("internal inconsistency in Jordan counts")
    union = frozenset().union(*fam.sets) if fam.sets else frozenset()
    direct = fam.universe - len(union)
    if out[0] != direct:
        raise ArithmeticError(
            f"internal inconsistency: sieve gave {out[0]}, scan gave {direct}"
        )
    return s, out


def jordan_counts(fam: SubsetFamily) -> list[int]:
    """e_m = number of universe elements lying in exactly m of the sets,
    checked as in `sieve_counts`."""
    return sieve_counts(fam)[1]
