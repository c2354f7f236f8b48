"""The "mobius" suite: Mobius functions and inversion of `poset_mobius`
against closed forms, the interval recursion and `Fraction` sums, and
the random posets they run on."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .. import number_theory as nt
from .. import poset_mobius as pm
from . import Range, Thunk


def boolean_mobius_failure(size: int) -> Optional[tuple]:
    """First (a, b) on fewer than `size` atoms: mu(a, b) != (-1)^|b - a|."""
    for n in range(size):
        lat = pm.boolean_lattice(n)
        mu = pm.mobius(lat)
        for a in lat.elements:
            for b in lat.up(a):
                if mu(a, b) != (-1) ** (len(b) - len(a)):
                    return a, b
    return None


def divisor_mobius_failure(top: int) -> Optional[int]:
    """First n <= top: mu(1, n) on the divisors != classical mu(n)."""
    return next(
        (n for n in range(1, top + 1)
         if pm.mobius(pm.divisor_poset(n))(1, n) != nt.mobius_classical(n)),
        None,
    )


def inversion_failure(seed: int, trials: int, max_size: int) -> Optional[int]:
    """First of `trials` posets that fails zeta*mu = delta or a roundtrip of
    inversion or dual inversion.  Trials alternate between random posets (at
    most `max_size` elements) and layered ones (at most `max_size` levels),
    whose Mobius values of absolute value 2 or more `delta_check` adds as
    bit planes."""
    rng = random.Random(seed)
    for trial in range(trials):
        size = rng.randint(1, max_size)
        P = layered_poset(rng, size) if trial % 2 else random_poset(rng, size)
        f = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for e in P.elements}
        if (not pm.delta_check(P) or pm.invert(P, pm.accumulate(P, f)) != f
                or pm.invert_dual(P, pm.accumulate_dual(P, f)) != f):
            return trial
    return None


def mobius_route_failure(seed: int, trials: int, max_size: int) -> Optional[int]:
    """First of `trials` posets where the bit-plane `mobius` differs from the
    frozenset interval recursion.  Trials alternate between random posets (at
    most `max_size` elements) and layered ones (at most `max_size` levels),
    whose values span several bit planes of both signs."""
    rng = random.Random(seed)
    for trial in range(trials):
        size = rng.randint(1, max_size)
        P = layered_poset(rng, size) if trial % 2 else random_poset(rng, size)
        if pm.mobius(P) != pm._mobius_reference(P):
            return trial
    return None


def product_route_failure(seed: int, trials: int, max_size: int) -> Optional[tuple]:
    """First poset whose product-theorem Mobius table differs from the
    bit-plane recursion: ("product", trial) for `trials` products of two or
    three random or layered factors (at most `max_size` elements or levels
    each), then ("boolean", n) for n <= 6 and ("divisor", n) for n <= 200."""
    rng = random.Random(seed)

    def factor() -> pm.FinitePoset:
        size = rng.randint(1, max_size)
        return layered_poset(rng, size) if rng.random() < 0.5 else random_poset(rng, size)

    def cases():
        for trial in range(trials):
            P = pm.product_poset(factor(), factor())
            if trial % 2:
                P = pm.product_poset(P, factor())
            yield ("product", trial), P
        for n in range(7):
            yield ("boolean", n), pm.boolean_lattice(n)
        for n in range(1, 201):
            yield ("divisor", n), pm.divisor_poset(n)

    return next((case for case, P in cases() if pm.mobius(P) != pm._mobius_bitplane(P)), None)


def integer_inversion_failure(seed: int, trials: int, max_size: int) -> Optional[int]:
    """First of `trials` posets (random ones, every other one times a random
    poset of at most 3 elements) where accumulation or the integer inversion
    kernel, plain or dual, differs from the `Fraction` sums for values mixing
    ints and Fractions, or integer values give a non-integer result.  The
    dual reference is plain inversion on the poset rebuilt with its order
    reversed."""
    rng = random.Random(seed)
    for trial in range(trials):
        P = random_poset(rng, rng.randint(1, max_size))
        if trial % 2:
            P = pm.product_poset(P, random_poset(rng, rng.randint(1, 3)))
        mixed = {e: rng.choice((rng.randint(-9, 9),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
                 for e in P.elements}
        ints = {e: rng.randint(-9, 9) for e in P.elements}
        R = opposite_poset(P)
        for g in (mixed, ints):
            got = [pm.invert(P, g), pm.invert_dual(P, g), pm.accumulate(P, g)]
            want = [pm._invert_reference(P, g), pm._invert_reference(R, g),
                    {y: sum(g[x] for x in P.down(y)) for y in P.elements}]
            if got != want or g is ints and any(
                    type(v) is not int for f in got for v in f.values()):
                return trial
    return None


def random_poset(rng: random.Random, size: int) -> pm.FinitePoset:
    """A random poset on 0..size-1: random edges upward, then the
    transitive closure (which is automatically antisymmetric)."""
    up = {i: {i} for i in range(size)}
    for i in range(size - 1, -1, -1):
        for j in range(i + 1, size):
            if rng.random() < 0.35:
                up[i] |= up[j]
    pairs = [(i, j) for i in range(size) for j in up[i]]
    return pm.FinitePoset(list(range(size)), pairs)


def opposite_poset(P: pm.FinitePoset) -> pm.FinitePoset:
    """P with its order reversed, built from P's up-sets by the validating
    constructor: an independent reference for the dual functions."""
    return pm.FinitePoset(P.elements, [(y, x) for x in P.elements for y in P.up(x)])


def layered_poset(rng: random.Random, levels: int) -> pm.FinitePoset:
    """A random ordinal sum of antichains: `levels` levels of 1 to 4
    elements, each element below every element of the later levels.  The
    Mobius function from the bottom level to the top one is, up to sign, the
    product of (size - 1) over the levels between, so it grows geometrically."""
    elements: list[int] = []
    pairs = []
    for _ in range(levels):
        level = range(len(elements), len(elements) + rng.randint(1, 4))
        pairs += [(x, y) for x in elements for y in level]
        elements += level
    return pm.FinitePoset(elements, pairs)


CHECKS: list[tuple[str, Thunk]] = [
    ("boolean lattice closed form to n=6", Range(boolean_mobius_failure, (7,), (11,))),
    ("divisor poset matches classical mu to 200", Range(divisor_mobius_failure, (200,), (500,))),
    ("zeta*mu = delta and inversion roundtrips",
     Range(inversion_failure, (5, 12, 8), (77, 50, 10))),
    ("bit-plane Mobius matches the interval recursion",
     Range(mobius_route_failure, (6, 12, 10), (78, 50, 14))),
    ("product-theorem Mobius matches the bit-plane recursion",
     Range(product_route_failure, (7, 8, 3), (71, 40, 4))),
    ("integer inversion matches the Fraction sum",
     Range(integer_inversion_failure, (8, 12, 8), (72, 50, 10))),
]
