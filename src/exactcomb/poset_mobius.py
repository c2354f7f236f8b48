"""Finite posets, their Mobius functions, inversion, and sieve counting.

A `FinitePoset` is an explicit element list plus an order relation that
is validated eagerly (reflexive closure is applied for convenience, but
antisymmetry and transitivity violations are reported with a witness).
The Mobius function is computed by the interval recursion along a linear
extension; dual inversion reuses the same code on the reversed order, so
there is a single proof obligation.

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

MAX_BOOLEAN_GROUND = 16
MAX_DIVISOR_COUNT = 10**4


class PosetError(ValueError):
    """The given relation is not a partial order; carries a witness."""

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


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
        index = {e: i for i, e in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise ValueError("duplicate elements")
        up: dict[Element, set[Element]] = {e: {e} for e in self.elements}
        for x, y in relation:
            if x not in index or y not in index:
                raise ValueError(f"relation pair ({x!r}, {y!r}) outside element set")
            up[x].add(y)
        self._up: dict[Element, frozenset[Element]] = {
            e: frozenset(s) for e, s in up.items()
        }
        down: dict[Element, set[Element]] = {e: set() for e in self.elements}
        for x, s in self._up.items():
            for y in s:
                down[y].add(x)
        self._down: dict[Element, frozenset[Element]] = {
            e: frozenset(s) for e, s in down.items()
        }
        if not _trusted:
            self._validate()
        # any order sorted by down-set size is a linear extension,
        # since x < y forces down(x) to be strictly inside down(y)
        self._extension: tuple[Element, ...] = tuple(
            sorted(self.elements, key=lambda e: (len(self._down[e]), index[e]))
        )
        self._ext_rank = {e: i for i, e in enumerate(self._extension)}

    def _validate(self):
        for x in self.elements:
            for y in self._up[x]:
                if y != x and x in self._up[y]:
                    raise PosetError(
                        f"antisymmetry violated: {x!r} <= {y!r} and {y!r} <= {x!r}",
                        (x, y),
                    )
                if not self._up[y] <= self._up[x]:
                    z = next(iter(self._up[y] - self._up[x]))
                    raise PosetError(
                        f"transitivity violated: {x!r} <= {y!r} <= {z!r} "
                        f"but not {x!r} <= {z!r}",
                        (x, y, z),
                    )

    # -- queries -------------------------------------------------------

    def leq(self, x: Element, y: Element) -> bool:
        return y in self._up[x]

    def up(self, x: Element) -> frozenset[Element]:
        return self._up[x]

    def down(self, y: Element) -> frozenset[Element]:
        return self._down[y]

    def interval(self, x: Element, y: Element) -> frozenset[Element]:
        return self._up[x] & self._down[y]

    def linear_extension(self) -> tuple[Element, ...]:
        return self._extension

    def reversed(self) -> "FinitePoset":
        pairs = [(y, x) for x in self.elements for y in self._up[x]]
        return FinitePoset(self.elements, pairs, _trusted=True)

    def __len__(self) -> int:
        return len(self.elements)

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> str:
        pairs = sorted(
            ((x, y) for x in self.elements for y in self._up[x] if x != y),
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


def mobius(P: FinitePoset) -> IncidenceFunction:
    """The Mobius function: mu(x,x) = 1 and, below y, the values on
    [x, y) sum to -mu(x,y); evaluated along a linear extension."""
    rank = P._ext_rank
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
    comparable pairs (the zeta * mu = delta identity)."""
    mu = mobius(P)
    for z in P.elements:
        for y in P.up(z):
            s = sum(mu(x, y) for x in P.interval(z, y))
            if s != (1 if z == y else 0):
                return False
    return True


def accumulate(P: FinitePoset, f: Mapping[Element, Rational]) -> dict:
    """g(y) = sum_{x <= y} f(x)."""
    return {y: sum(f[x] for x in P.down(y)) for y in P.elements}


def invert(P: FinitePoset, g: Mapping[Element, Rational]) -> dict:
    """The unique f with sum_{x <= y} f(x) = g(y), via
    f(y) = sum_{x <= y} mu(x, y) g(x)."""
    mu = mobius(P)
    return {
        y: sum(mu(x, y) * g[x] for x in P.down(y)) for y in P.elements
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
    """Subsets of {1..n} ordered by inclusion."""
    if not 0 <= n <= MAX_BOOLEAN_GROUND:
        raise ValueError(f"boolean lattice capped at n <= {MAX_BOOLEAN_GROUND}")
    ground = range(1, n + 1)
    elements = [
        frozenset(c) for size in range(n + 1) for c in combinations(ground, size)
    ]
    pairs = []
    for a in elements:
        rest = [x for x in ground if x not in a]
        for size in range(len(rest) + 1):
            for extra in combinations(rest, size):
                pairs.append((a, a | frozenset(extra)))
    return FinitePoset(elements, pairs, _trusted=True)


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
