"""The three benchmark workloads, generated from a seed.

A workload is an endless stream of `Op`s, made by `MAKERS[name](seed, tmp,
stats)`: generated files go in the directory tmp, and the workload may
leave measurements of its own in the dict stats.  `Op.run(rec)` makes the calls
into the library through the recorder `rec` (see tracing.py), and is the
only part that is timed; `Op.check(answer)` compares the answer with a
stdlib-only oracle after the timing ends.  An op that is a single library
call also carries it as `Op.direct = (fn, args)`, so an untraced pass
times `fn(*args)` alone, with no harness call around it.

Every size is drawn from its own Kronecker sequence (a seeded offset plus
multiples of a fixed irrational step), so each seed gets different
arguments but the same spread of sizes.  Discrete choices rotate from a
fixed start, so every seed makes the same choices in the same deck slots.
That keeps runs with different seeds comparable, which the benchmark's
bounds rely on.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Any, Callable, Iterator

import oracles as orc

@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]
    label: str
    direct: tuple[Callable, tuple] | None = None


def _primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(limit + 1) if sieve[p]]


_STEPS = [math.sqrt(p) % 1.0 for p in _primes(1000)]


class Spread:
    """Named streams of evenly spread numbers in [0, 1), seeded per stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.streams: dict[str, list[float]] = {}

    def u(self, name: str) -> float:
        st = self.streams.get(name)
        if st is None:
            step = _STEPS[len(self.streams) % len(_STEPS)]
            st = self.streams[name] = [self.rng.random(), step]
        st[0] = (st[0] + st[1]) % 1.0
        return st[0]

    def int(self, name: str, lo: int, hi: int) -> int:
        """Integer in lo..hi inclusive."""
        return lo + min(int(self.u(name) * (hi - lo + 1)), hi - lo)

    def pareto(self, name: str, xm: float, cap: int, alpha: float = 1.3) -> int:
        """Pareto(xm, alpha) size truncated to cap: small sizes dominate
        and recur, a heavy tail reaches the cap."""
        return min(cap, int(xm / (1.0 - self.u(name)) ** (1.0 / alpha)))

    def choice(self, name: str, items):
        """Items in rotation from the first, whatever the seed, so each is
        used equally and the n-th choice is the same in every run."""
        st = self.streams.setdefault(name, [0, 0])
        st[0] += 1
        return items[(st[0] - 1) % len(items)]


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _type_vector(sp: Spread, name: str, n: int) -> list[int]:
    """Multiplicities nu_1..nu_max of a seeded integer partition of n."""
    sizes, rest = [], n
    while rest:
        part = sp.int(name, 1, min(rest, max(1, n // 3)))
        sizes.append(part)
        rest -= part
    nu = [0] * max(sizes)
    for s in sizes:
        nu[s - 1] += 1
    return nu


# ---------------------------------------------------------------------------
# coeff-session: one long-lived process making many counting calls
# ---------------------------------------------------------------------------

# one deck of family slots, shuffled per deck; binomial dominates as in
# real use, and every family that leans on binomial follows it
SESSION_DECK = (
    ["binomial"] * 6 + ["multiset_coeff"] * 2 + ["gentile_coeff"] * 2
    + ["stirling2", "cycle_count", "bell", "touchard", "derangement_fixed",
       "surjection_count", "gergonne", "alternating_convolution", "graph_count"]
)

GRAPH_KINDS = ("graph", "digraph", "loopless_digraph", "multigraph",
               "multidigraph", "loopless_multidigraph")


def _session_call(fam: str, sp: Spread, ct):
    """(library args, oracle thunk) for one seeded call of `fam`."""
    P = sp.pareto
    if fam == "binomial":
        n = P("binomial.n", 8, 1000)
        k = sp.int("binomial.k", 0, n)
        return (n, k), lambda: math.comb(n, k)
    if fam == "multiset_coeff":
        n, k = P("multiset.n", 3, 300), P("multiset.k", 3, 300)
        return (n, k), lambda: orc.multiset(n, k)
    if fam == "gentile_coeff":
        p = sp.int("gentile.p", 2, 5)
        n = P("gentile.n", 4, 120)
        k = sp.int("gentile.k", 0, n * p)
        return (p, n, k), lambda: orc.gentile(p, n, k)
    if fam == "stirling2":
        n = P("stirling2.n", 6, 400)
        k = sp.int("stirling2.k", 0, n)
        return (n, k), lambda: orc.stirling2(n, k)
    if fam == "cycle_count":
        n = P("cycles.n", 6, 400)
        k = sp.int("cycles.k", 0, n)
        return (n, k), lambda: orc.cycles(n, k)
    if fam == "bell":
        n = P("bell.n", 4, 80)
        return (n,), lambda: orc.bell(n)
    if fam == "touchard":
        n = 2 + P("touchard.n", 3, 98)
        return (n,), lambda: orc.touchard(n)
    if fam == "derangement_fixed":
        n = P("dnk.n", 5, 300)
        k = sp.int("dnk.k", 0, n)
        return (n, k), lambda: orc.derangement_fixed(n, k)
    if fam == "surjection_count":
        k = P("surj.k", 5, 120)
        n = sp.int("surj.n", 0, k)
        return (k, n), lambda: orc.surjections(k, n)
    if fam == "gergonne":
        n = P("gergonne.n", 6, 500)
        circular = n % 2 == 0 and n >= 2 and sp.u("gergonne.circ") < 0.25
        m = 1 if circular else sp.int("gergonne.m", 0, 3)
        k = sp.int("gergonne.k", 0, n // (m + 1) + 1)
        return (ct.GergonneQuery(n, k, m, circular),), lambda: orc.gergonne(n, k, m, circular)
    if fam == "alternating_convolution":
        n, m, k = P("alt.n", 3, 60), P("alt.m", 3, 60), P("alt.k", 3, 60)
        return (n, m, k), lambda: orc.alternating_convolution(n, m, k)
    if fam == "graph_count":
        kind = sp.choice("graph.kind", GRAPH_KINDS)
        n = P("graph.n", 3, 24)
        if "multi" in kind:
            k = P("graph.k", 2, 40)
        else:
            slots = {"graph": n * (n - 1) // 2, "digraph": n * n}.get(kind, n * (n - 1))
            k = None if sp.u("graph.none") < 0.5 else sp.int("graph.k", 0, slots)
        return (kind, n, k), lambda: orc.graph(kind, n, k)
    raise ValueError(fam)


def coeff_session(seed: int, tmp: str, stats: dict) -> Iterator[Op]:
    from exactcomb import counting as ct

    rng = random.Random(seed)
    sp = Spread(rng)
    while True:
        deck = list(SESSION_DECK)
        rng.shuffle(deck)
        for fam in deck:
            args, oracle = _session_call(fam, sp, ct)
            fn = getattr(ct, fam)
            name = "counting." + fam
            yield Op(
                name,
                lambda rec, fn=fn, args=args, name=name: rec.call(name, fn, *args),
                lambda got, oracle=oracle: got == oracle(),
                f"{fam}{args}",
                (fn, args),
            )


# ---------------------------------------------------------------------------
# struct-ops: fresh series, recursive matrices, posets and sieves
# ---------------------------------------------------------------------------

# One deck: boolean_lattice at each of the sizes 6..10 once and every other
# operation kind once or twice, so every seed and every run does the same
# mix of work.  One enumeration and one verify suite per deck time those
# layers in-process, at a small share of the deck's work.
STRUCT_DECK = ("boolean", "binomial_table", "pow", "boolean", "divisor",
               "multiset_table", "boolean", "mul", "sieve", "enumerate", "boolean",
               "gentile_table", "compose", "boolean", "boolean_invert", "sieve", "verify")
# the cheap suites, in rotation; `numbers` alone costs as much as the rest
VERIFY_ROTATION = ("core", "series", "matrix", "counting", "oracles", "faa", "stirling",
                   "mobius", "sieve", "gergonne", "menage", "birthday", "surjections",
                   "errata")


def _divisor_rich(sp: Spread, name: str) -> int:
    """A seeded number with many divisors: a product of small primes."""
    n = 1
    for p, top in ((2, 5), (3, 3), (5, 1), (7, 1), (11, 1)):
        n *= p ** sp.int(f"{name}.{p}", 1 if p == 2 else 0, top)
    return n


def _seeded_values(rng: random.Random, elements) -> dict:
    return {e: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for e in elements}


def _struct_op(kind: str, sp: Spread, rng: random.Random, lib) -> Op:
    series, rm, pm, en, vf = lib
    if kind.endswith("_table"):
        fam = kind[: -len("_table")]
        if fam == "binomial":
            rows, cols = sp.int("matrix.b.rows", 100, 120), sp.int("matrix.b.cols", 100, 120)
            build, oracle = (lambda: rm.binomial_matrix(cols - 1)), math.comb
        elif fam == "multiset":
            rows, cols = sp.int("matrix.m.rows", 30, 36), sp.int("matrix.m.cols", 30, 36)
            build, oracle = (lambda: rm.multiset_matrix(cols - 1)), orc.multiset
        else:
            # p = 3 and one more column than rows, as gentile_matrix(3, 400)
            # in the ROADMAP's baseline table
            p = 3
            rows = sp.int("matrix.g.rows", 70, 80)
            cols = rows + 1
            build = lambda: rm.gentile_matrix(p, cols - 1)
            oracle = lambda n, k: orc.gentile(p, n, k)

        def run(rec):
            M = rec.call("recursive_matrix.build", build)
            table = rec.call("recursive_matrix.table", M.table, rows, cols)
            rec.add("recursive_matrix.table.entries", rows * cols)
            return table

        def check(table):
            return len(table) == rows and all(
                table[n] == [oracle(n, k) for k in range(cols)] for n in range(rows))

        return Op(kind, run, check, f"{fam} {rows}x{cols}")

    if kind == "pow":
        order, power = sp.int("pow.order", 38, 42), sp.int("pow.power", 16, 20)

        def run(rec):
            s = rec.call("series.build", series.exp_series, order)
            return rec.call("series.pow", s.__pow__, power)

        return Op("pow", run, lambda got: list(got.coeffs) == orc.exp_power(order, power),
                  f"exp_series({order})**{power}")

    if kind == "mul":
        order = sp.int("mul.order", 100, 120)

        def run(rec):
            a = rec.call("series.build", series.exp_series, order)
            b = rec.call("series.build", series.geometric_series, order)
            return rec.call("series.mul", a.__mul__, b)

        return Op("mul", run, lambda got: list(got.coeffs) == orc.exp_times_geometric(order),
                  f"exp*geometric({order})")

    if kind == "compose":
        order = sp.int("compose.order", 24, 28)
        outer_exp = sp.choice("compose.kind", (False, True))

        def run(rec):
            e = rec.call("series.build", series.exp_series, order)
            g = rec.call("series.build", series.geometric_series, order)
            one = rec.call("series.build", series.FormalSeries.one, order)
            if outer_exp:
                return rec.call("series.compose", e.compose, g - one)
            return rec.call("series.compose", g.compose, e - one)

        want = orc.exp_of_geometric if outer_exp else orc.geometric_of_exp
        return Op("compose", run, lambda got: list(got.coeffs) == want(order),
                  f"compose order {order} exp-outer={outer_exp}")

    if kind == "boolean":
        n = sp.choice("boolean.n", (6, 7, 8, 9, 10))

        def run(rec):
            P = rec.call("poset_mobius.build", pm.boolean_lattice, n)
            mu = rec.call("poset_mobius.mobius", pm.mobius, P)
            rec.add("poset_mobius.mobius.pairs", len(mu.table))
            return mu

        def check(mu):
            return len(mu.table) == 3**n and all(
                v == (-1) ** len(y - x) and x <= y for (x, y), v in mu.items())

        return Op("boolean", run, check, f"boolean_lattice({n})")

    if kind == "boolean_invert":
        n = sp.choice("boolean_invert.n", (5, 6, 7, 8))
        subsets = [frozenset(i + 1 for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
        f = _seeded_values(rng, subsets)
        g = {y: sum(f[x] for x in subsets if x <= y) for y in subsets}
        g_dual = {y: sum(f[x] for x in subsets if x >= y) for y in subsets}

        def run(rec):
            P = rec.call("poset_mobius.build", pm.boolean_lattice, n)
            return (rec.call("poset_mobius.invert", pm.invert, P, g),
                    rec.call("poset_mobius.invert", pm.invert_dual, P, g_dual),
                    rec.call("poset_mobius.delta_check", pm.delta_check, P))

        return Op("boolean_invert", run, lambda got: got == (f, f, True),
                  f"boolean_lattice({n}) invert")

    if kind == "divisor":
        N = sp.choice("divisor.n", (840, 1260, 2520))
        divs = sorted(d for d in range(1, N + 1) if N % d == 0)
        f = _seeded_values(rng, divs)
        g = {y: sum(f[x] for x in divs if y % x == 0) for y in divs}
        g_dual = {y: sum(f[x] for x in divs if x % y == 0) for y in divs}

        def run(rec):
            P = rec.call("poset_mobius.build", pm.divisor_poset, N)
            mu = rec.call("poset_mobius.mobius", pm.mobius, P)
            rec.add("poset_mobius.mobius.pairs", len(mu.table))
            return (mu,
                    rec.call("poset_mobius.invert", pm.invert, P, g),
                    rec.call("poset_mobius.invert", pm.invert_dual, P, g_dual),
                    rec.call("poset_mobius.delta_check", pm.delta_check, P))

        def check(got):
            mu, inv, inv_dual, delta_ok = got
            pairs_ok = all(y % x == 0 and v == orc.mobius_classical(y // x)
                           for (x, y), v in mu.items())
            count = sum(1 for x in divs for y in divs if y % x == 0)
            return pairs_ok and len(mu.table) == count and inv == f and inv_dual == f and delta_ok

        return Op("divisor", run, check, f"divisor_poset({N})")

    if kind == "sieve":
        menage = sp.choice("sieve.kind", (False, True))
        n = sp.int("sieve.menage.n", 5, 7) if menage else sp.int("sieve.n", 6, 8)
        universe = list(permutations(range(1, n + 1)))
        size = len(universe)
        sets = []
        for i in range(1, n + 1):
            sets.append([idx for idx, f in enumerate(universe) if f[i - 1] == i])
            if menage:
                nxt = i % n + 1
                sets.append([idx for idx, f in enumerate(universe) if f[i - 1] == nxt])
        del universe

        def run(rec):
            fam = rec.call("poset_mobius.build", pm.SubsetFamily, size, sets)
            return (rec.call("poset_mobius.sieve", pm.sylvester_count, fam),
                    rec.call("poset_mobius.sieve", pm.jordan_counts, fam))

        def check(got):
            survivors, jordan = got
            _, exactly = orc.sylvester(size, sets)
            want0 = orc.touchard(n) if menage else orc.derangement(n)
            return survivors == exactly[0] == want0 and jordan == exactly

        return Op("sieve", run, check, f"{'menage' if menage else 'derangement'} family {n}")

    if kind == "enumerate":
        fam = sp.choice("enum.kind", ("derangements", "partitions", "menage", "cycles"))
        if fam == "derangements":
            n = 8
            gen, kwargs, lines = en.enumerate_permutations, {"derangement_only": True}, orc.derangement(n)
        elif fam == "cycles":
            n, k = 7, sp.int("enum.cycles.k", 1, 7)
            gen, kwargs, lines = en.enumerate_permutations, {"cycles": k}, orc.cycles(n, k)
        elif fam == "partitions":
            n, k = 9, sp.int("enum.blocks.k", 1, 9)
            gen, kwargs, lines = en.enumerate_set_partitions, {"k": k}, orc.stirling2(n, k)
        else:
            n = 7
            gen, kwargs, lines = en.enumerate_menage, {}, orc.touchard(n)

        def run(rec):
            items = rec.call("enumeration.enumerate", lambda: list(gen(n, **kwargs)))
            rec.add("enumeration.lines", len(items))
            return items

        return Op("enumerate", run, lambda got: len(got) == len(set(got)) == lines,
                  f"enumerate {fam} {n} {kwargs}")

    if kind == "verify":
        suite = sp.choice("verify.suite", VERIFY_ROTATION)

        def run(rec):
            results = rec.call("verify.run_suites", vf.run_suites, [suite])
            rec.add("verify.checks", len(results))
            return results

        return Op("verify", run, lambda got: bool(got) and all(c.ok for _, c in got),
                  f"verify {suite}")

    raise ValueError(kind)


def struct_ops(seed: int, tmp: str, stats: dict) -> Iterator[Op]:
    from exactcomb import enumeration, poset_mobius, recursive_matrix, series, verify

    lib = (series, recursive_matrix, poset_mobius, enumeration, verify)
    rng = random.Random(seed)
    sp = Spread(rng)
    while True:
        for kind in STRUCT_DECK:
            yield _struct_op(kind, sp, rng, lib)


# ---------------------------------------------------------------------------
# cli-oneshot: one `python -m exactcomb` subprocess per operation
# ---------------------------------------------------------------------------

COEFF_FAMILIES = (
    "binomial", "multiset", "gentile", "multinomial", "stirling1", "stirling2",
    "cycles", "bell", "faa", "cauchy", "derangement", "dnk", "surjections",
    "gergonne", "touchard", "menage", "phi", "mobius", "birthday", "graph",
)
VERIFY_SUITES = (
    "core", "series", "matrix", "counting", "oracles", "faa", "stirling",
    "mobius", "sieve", "gergonne", "menage", "numbers", "birthday",
    "surjections", "errata", "all",
)
# One deck: every coeff family once, with the other commands interleaved.
# Heavy commands have a fixed place in the deck, so every seed and every
# run sees the same mix and only the arguments change.
_CLI_EXTRAS = ("table:binomial", "poset", "enumerate:permutations", "verify",
               "table:gentile", "poset", "enumerate:partitions", "rsa",
               "table:small", "enumerate:menage")
CLI_DECK = tuple(
    slot
    for i, fam in enumerate(COEFF_FAMILIES)
    for slot in ("coeff:" + fam,) + ((_CLI_EXTRAS[i // 2],) if i % 2 else ())
)
COMMAND_TIMEOUT_S = 20

_PASSED = re.compile(r"(\d+)/(\d+) checks passed\Z")


def _coeff_args(fam: str, sp: Spread) -> tuple[list[str], str]:
    """argv after `coeff <fam>`, and the expected stdout line."""
    I = sp.int
    if fam == "binomial":
        n = I("c.binomial.n", 1900, 2100)
        k = I("c.binomial.k", n // 2 - 200, n // 2 + 200)
        return [n, k], math.comb(n, k)
    if fam == "multiset":
        n, k = I("c.multiset.n", 20, 200), I("c.multiset.k", 20, 200)
        return [n, k], orc.multiset(n, k)
    if fam == "gentile":
        p, n = I("c.gentile.p", 2, 5), I("c.gentile.n", 20, 150)
        k = I("c.gentile.k", 0, n * p)
        return [p, n, k], orc.gentile(p, n, k)
    if fam == "multinomial":
        n = I("c.multinomial.n", 20, 200)
        cuts = sorted(I("c.multinomial.cut", 0, n) for _ in range(I("c.multinomial.parts", 1, 5)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        return [n, *parts], orc.multinomial(n, parts)
    if fam in ("stirling1", "stirling2", "cycles"):
        # the whole row table up to n stays in memory: keep it below the
        # deck's JSON binomial table, which sets the peak
        n = I(f"c.{fam}.n", 100, 160)
        k = I(f"c.{fam}.k", 1, n)
        fn = {"stirling1": orc.stirling1_signed, "stirling2": orc.stirling2, "cycles": orc.cycles}[fam]
        return [n, k], fn(n, k)
    if fam == "bell":
        n = I("c.bell.n", 70, 80)
        return [n], orc.bell(n)
    if fam in ("faa", "cauchy"):
        n = I(f"c.{fam}.n", 10, 60)
        nu = _type_vector(sp, f"c.{fam}.part", n)
        return [n, *nu], (orc.faa if fam == "faa" else orc.cauchy)(n, nu)
    if fam == "derangement":
        n = I("c.derangement.n", 50, 500)
        return [n], orc.derangement(n)
    if fam == "dnk":
        n = I("c.dnk.n", 50, 300)
        k = I("c.dnk.k", 0, n)
        return [n, k], orc.derangement_fixed(n, k)
    if fam == "surjections":
        k = I("c.surjections.k", 50, 200)
        n = I("c.surjections.n", 5, 60)
        return [k, n], orc.surjections(k, n)
    if fam == "gergonne":
        n = I("c.gergonne.n", 25, 250) * 2
        if sp.choice("c.gergonne.circ", (False, True, False)):
            k = I("c.gergonne.k", 0, n // 2)
            count, prob = orc.gergonne(n, k, 1, True)
            return [n, k, 1, "--circular"], f"{count} {fmt(prob)}"
        m = I("c.gergonne.m", 0, 3)
        k = I("c.gergonne.k", 0, n // (m + 1))
        count, prob = orc.gergonne(n, k, m, False)
        return [n, k, m], f"{count} {fmt(prob)}"
    if fam == "touchard":
        n = I("c.touchard.n", 120, 130)
        return [n], orc.touchard(n)
    if fam == "menage":
        n = I("c.menage.n", 20, 100)
        return [n], orc.menage(n)
    if fam in ("phi", "mobius"):
        n = int(10 ** (3 + 6 * sp.u(f"c.{fam}.n")))
        return [n], (orc.phi if fam == "phi" else orc.mobius_classical)(n)
    if fam == "birthday":
        k, days = I("c.birthday.k", 10, 100), I("c.birthday.days", 100, 1000)
        return [k, "--days", days], fmt(orc.birthday(k, days))
    if fam == "graph":
        kind = sp.choice("c.graph.kind", GRAPH_KINDS)
        n = I("c.graph.n", 5, 60)
        if "multi" in kind or sp.choice("c.graph.withk", (True, False)):
            k = I("c.graph.k", 0, 40)
            return [kind, n, k], orc.graph(kind, n, k)
        return [kind, n], orc.graph(kind, n, None)
    raise ValueError(fam)


def _table_command(fam: str, sp: Spread):
    """`table` argv for one family ("small" rotates over the cheap ones)
    and a check of every cell against the oracle."""
    extra = []
    if fam == "small":
        fam = sp.choice("t.small", ("stirling2", "stirling1", "cycles", "multiset"))
    if fam == "binomial":
        rows, cols = sp.int("t.b.rows", 120, 130), sp.int("t.b.cols", 120, 130)
        cell = math.comb
    elif fam == "gentile":
        p = 3
        rows, cols = sp.int("t.g.rows", 80, 100), sp.int("t.g.cols", 80, 100)
        extra = ["--p", str(p)]
        cell = lambda n, k: orc.gentile(p, n, k)
    else:
        rows, cols = sp.int("t.s.rows", 50, 200), sp.int("t.s.cols", 10, 30)
        cell = {"stirling1": orc.stirling1_signed, "stirling2": orc.stirling2,
                "cycles": orc.cycles, "multiset": orc.multiset}[fam]
    # the JSON binomial table is the largest output of a deck, so it sets
    # the deck's peak memory whatever the seed picks for the other commands
    fmt_ = "json" if fam == "binomial" else sp.choice("t.format", ("csv", "json"))
    argv = ["table", fam, "--rows", str(rows), "--cols", str(cols), "--format", fmt_, *extra]

    def check(out: str) -> bool:
        if fmt_ == "json":
            grid = [[int(v) for v in row] for row in json.loads(out)["rows"]]
        else:
            grid = [[int(v) for v in line.split(",")] for line in out.splitlines()]
        return grid == [[cell(n, k) for k in range(cols)] for n in range(rows)]

    return argv, check


def _enumerate_command(fam: str, sp: Spread):
    """`enumerate` argv near the family's size guard, and the line count
    the output must have."""
    if fam == "permutations":
        n = 8
        variant = sp.choice("e.perm.variant", ("all", "cycles", "derangements"))
        if variant == "all":
            argv, lines = [], math.factorial(n)
        elif variant == "cycles":
            k = sp.int("e.perm.k", 1, n)
            argv, lines = ["--cycles", str(k)], orc.cycles(n, k)
        else:
            argv, lines = ["--derangements"], orc.derangement(n)
    elif fam == "partitions":
        n = 9
        if sp.choice("e.part.blocks", (False, True)):
            k = sp.int("e.part.k", 1, n)
            argv, lines = ["--blocks", str(k)], orc.stirling2(n, k)
        else:
            argv, lines = [], orc.bell(n)
    else:
        n = 7
        limit = sp.int("e.menage.limit", 0, 2 * orc.touchard(n))
        argv = ["--limit", str(limit)] if limit else []
        lines = orc.touchard(n) if not limit or limit >= orc.touchard(n) else limit + 1
    return ["enumerate", fam, str(n), *argv], lines


def _poset_files(sp: Spread, rng: random.Random, tmp: str, serial: int):
    """Write a generated poset to a JSON file; return its path, elements,
    the order test and the expected Mobius function."""
    path = os.path.join(tmp, f"poset{serial}.json")
    if sp.choice("p.kind", (True, False)):
        n = sp.int("p.boolean.n", 4, 8)
        elements = list(range(1 << n))
        leq = lambda x, y: x & y == x
        mu = lambda x, y: (-1) ** bin(x ^ y).count("1")
    else:
        N = _divisor_rich(sp, "p.divisor")
        elements = [d for d in range(1, N + 1) if N % d == 0]
        leq = lambda x, y: y % x == 0
        mu = lambda x, y: orc.mobius_classical(y // x)
    pairs = [[x, y] for x in elements for y in elements if x != y and leq(x, y)]
    rng.shuffle(pairs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"elements": elements, "leq": pairs}, fh)
    return path, elements, leq, mu


def _poset_command(sp: Spread, rng: random.Random, tmp: str, serial: int):
    sub = sp.choice("p.sub", ("mobius", "invert", "sieve"))
    if sub == "sieve":
        path = os.path.join(tmp, f"family{serial}.json")
        if sp.choice("p.sieve.kind", (True, False)):
            n = sp.int("p.sieve.n", 4, 6)
            universe = list(permutations(range(1, n + 1)))
            sets = [[i for i, f in enumerate(universe) if f[j - 1] == j] for j in range(1, n + 1)]
            size = len(universe)
        else:
            size = sp.int("p.sieve.universe", 200, 3000)
            sets = [sorted(rng.sample(range(size), rng.randint(0, size)))
                    for _ in range(sp.int("p.sieve.sets", 3, 10))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"universe": size, "sets": sets}, fh)
        numbers, exactly = orc.sylvester(size, sets)
        want = {"sylvester": [str(v) for v in numbers], "survivors": str(exactly[0]),
                "exactly": [str(v) for v in exactly]}
        return ["poset", "sieve", path], lambda out: json.loads(out) == want

    path, elements, leq, mu = _poset_files(sp, rng, tmp, serial)
    if sub == "mobius":
        fmt_ = sp.choice("p.format", ("csv", "json"))
        want = sorted((x, y, mu(x, y)) for x in elements for y in elements if leq(x, y))

        def check(out: str) -> bool:
            if fmt_ == "json":
                triples = [(int(x), int(y), int(v)) for x, y, v in json.loads(out)["mobius"]]
            else:
                triples = [tuple(int(t) for t in line.split(",")) for line in out.splitlines()]
            return sorted(triples) == want

        return ["poset", "mobius", path, "--format", fmt_], check

    dual = sp.choice("p.dual", (False, True))
    f = _seeded_values(rng, elements)
    if dual:
        g = {y: sum(f[x] for x in elements if leq(y, x)) for y in elements}
    else:
        g = {y: sum(f[x] for x in elements if leq(x, y)) for y in elements}
    values = os.path.join(tmp, f"values{serial}.json")
    with open(values, "w", encoding="utf-8") as fh:
        json.dump({str(e): fmt(v) for e, v in g.items()}, fh)
    want = {str(e): fmt(v) for e, v in f.items()}
    argv = ["poset", "invert", path, values] + (["--dual"] if dual else [])
    return argv, lambda out: json.loads(out) == want


_RSA_PRIMES = [p for p in _primes(5000) if p > 100]


def _rsa_command(sp: Spread):
    p = _RSA_PRIMES[sp.int("r.p", 0, len(_RSA_PRIMES) - 1)]
    q = _RSA_PRIMES[sp.int("r.q", 0, len(_RSA_PRIMES) - 1)]
    if q == p:
        q = _RSA_PRIMES[(_RSA_PRIMES.index(p) + 1) % len(_RSA_PRIMES)]
    n, phi = p * q, (p - 1) * (q - 1)
    e = sp.int("r.e", 3, 999) | 1
    while math.gcd(e, phi) != 1:
        e += 2
    d = pow(e, -1, phi)
    sub = sp.choice("r.sub", ("keygen", "encrypt", "decrypt"))
    if sub == "keygen":
        want = {"p": p, "q": q, "n": n, "phi": phi, "e": e, "d": d}

        def check(out: str) -> bool:
            got = json.loads(out)
            return all(int(got[key]) == v for key, v in want.items())

        return ["rsa", "keygen", "--p", str(p), "--q", str(q), "--e", str(e)], check
    m = sp.int("r.m", 2, n - 1)
    if sub == "encrypt":
        return (["rsa", "encrypt", "--n", str(n), "--e", str(e), "--m", str(m)],
                lambda out: out == str(pow(m, e, n)))
    c = pow(m, e, n)
    return (["rsa", "decrypt", "--n", str(n), "--d", str(d), "--c", str(c)],
            lambda out: out == str(m))


class Launcher:
    """Starts the commands through launcher.py, a small process of its own,
    and keeps the peak memory of the largest command in stats."""

    def __init__(self, stats: dict):
        self.stats = stats
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__), "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str]) -> tuple[int | None, str]:
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": COMMAND_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.stats["children_rss_kb"] = reply["maxrss_kb"]
        return reply["code"], reply["stdout"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)


def _cli_op(launcher: Launcher, kind: str, argv: list, check_out: Callable[[str], bool]) -> Op:
    argv = [str(a) for a in argv]
    cmd = [sys.executable, "-m", "exactcomb", *argv]

    def run(rec):
        code, out = rec.call("cli." + kind, launcher.run, cmd)
        rec.add("cli.stdout_bytes", len(out.encode()))
        return code, out

    def check(answer) -> bool:
        code, out = answer
        return code == 0 and check_out(out.rstrip("\n"))

    return Op("cli." + kind, run, check, " ".join(argv))


def _verify_ok(out: str) -> bool:
    """Every check passed: the summary line reads "N/N checks passed"."""
    m = _PASSED.search(out)
    return bool(m) and m.group(1) == m.group(2) != "0"


def cli_oneshot(seed: int, tmp: str, stats: dict) -> Iterator[Op]:
    rng = random.Random(seed)
    sp = Spread(rng)
    launcher = Launcher(stats)
    serial = 0
    try:
        while True:
            for slot in CLI_DECK:
                kind, _, fam = slot.partition(":")
                if kind == "coeff":
                    args, want = _coeff_args(fam, sp)
                    yield _cli_op(launcher, "coeff", ["coeff", fam, *args],
                                  lambda out, w=str(want): out == w)
                elif kind == "table":
                    argv, check = _table_command(fam, sp)
                    yield _cli_op(launcher, "table", argv, check)
                elif kind == "enumerate":
                    argv, lines = _enumerate_command(fam, sp)
                    yield _cli_op(launcher, "enumerate", argv,
                                  lambda out, n=lines: out.count("\n") + 1 == n)
                elif kind == "verify":
                    suite = sp.choice("v.suite", VERIFY_SUITES)
                    yield _cli_op(launcher, "verify", ["verify", suite], _verify_ok)
                elif kind == "poset":
                    serial += 1
                    argv, check = _poset_command(sp, rng, tmp, serial)
                    yield _cli_op(launcher, "poset", argv, check)
                else:
                    argv, check = _rsa_command(sp)
                    yield _cli_op(launcher, "rsa", argv, check)
    finally:
        launcher.close()


MAKERS = {"cli-oneshot": cli_oneshot, "coeff-session": coeff_session, "struct-ops": struct_ops}
WORKLOADS = tuple(MAKERS)
DECK_LEN = {"cli-oneshot": len(CLI_DECK), "coeff-session": len(SESSION_DECK),
            "struct-ops": len(STRUCT_DECK)}
