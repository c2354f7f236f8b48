"""Posets: construction, Mobius/delta, inversion, lattices, sieve."""

import json
import math
import operator
import random
import sys
import threading
import tracemalloc
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactcomb.counting as ct
import exactcomb.enumeration as en
import exactcomb.number_theory as nt
import exactcomb.poset_mobius as pm
from exactcomb.exact_core import factorial
from exactcomb.verify import run_suites
from exactcomb.verify.mobius import layered_poset, opposite_poset, random_poset
from exactcomb.verify.sieve import derangement_family, menage_family

# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def chain(n):
    return pm.FinitePoset(range(n), [(i, j) for i in range(n) for j in range(i, n)])


def test_reflexive_closure_applied():
    P = pm.FinitePoset(["a", "b"], [("a", "b")])
    assert "a" in P.up("a") and "b" in P.up("b") and "b" in P.up("a")
    assert "a" not in P.up("b")


def test_antisymmetry_violation():
    with pytest.raises(pm.PosetError) as err:
        pm.FinitePoset([1, 2], [(1, 2), (2, 1)])
    assert set(err.value.witness) == {1, 2}


def test_transitivity_violation():
    with pytest.raises(pm.PosetError) as err:
        pm.FinitePoset([1, 2, 3], [(1, 2), (2, 3)])
    assert len(err.value.witness) == 3


def test_duplicate_elements_rejected():
    with pytest.raises(ValueError):
        pm.FinitePoset([1, 1], [])


def _label(i):
    """Mixed int and str element labels."""
    return i if i % 2 else f"e{i}"


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8),
)))
@settings(deadline=None)
def test_validation_matches_brute_force(case):
    n, relation = case
    closure = relation | {(i, i) for i in range(n)}
    antisymmetry = {(x, y) for x, y in closure if x != y and (y, x) in closure}
    transitivity = {(x, y, z) for x, y in closure for w, z in closure
                    if w == y and (x, z) not in closure}
    labelled = [(_label(x), _label(y)) for x, y in relation]
    if not antisymmetry and not transitivity:
        P = pm.FinitePoset(map(_label, range(n)), labelled)
        assert all((_label(y) in P.up(_label(x))) == ((x, y) in closure)
                   for x in range(n) for y in range(n))
        return
    with pytest.raises(pm.PosetError) as err:
        pm.FinitePoset(map(_label, range(n)), labelled)
    index = {_label(i): i for i in range(n)}
    witness = tuple(index[e] for e in err.value.witness)
    if len(witness) == 2:
        x, y = err.value.witness
        assert witness in antisymmetry
        assert str(err.value) == f"antisymmetry violated: {x!r} <= {y!r} and {y!r} <= {x!r}"
    else:
        x, y, z = err.value.witness
        assert witness in transitivity
        assert str(err.value) == (f"transitivity violated: {x!r} <= {y!r} <= {z!r} "
                                  f"but not {x!r} <= {z!r}")


def _relabelled(P, rng):
    """P with its element order shuffled and mixed int and str labels."""
    elements = [_label(e) for e in P.elements]
    rng.shuffle(elements)
    pairs = [(_label(x), _label(y)) for x in P.elements for y in P.up(x)]
    rng.shuffle(pairs)
    return pm.FinitePoset(elements, pairs)


@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.booleans())
@settings(deadline=None)
def test_bitset_mobius_matches_reference(seed, size, layered):
    rng = random.Random(seed)
    base = layered_poset(rng, size // 2) if layered else random_poset(rng, size)
    P = _relabelled(base, rng)
    assert pm.mobius(P) == pm._mobius_reference(P)
    assert pm.delta_check(P)
    f = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for e in P.elements}
    assert pm.invert(P, pm.accumulate(P, f)) == f
    assert pm.invert_dual(P, pm.accumulate_dual(P, f)) == f
    R = opposite_poset(P)
    assert pm.accumulate(P, f) == {y: sum(f[x] for x in P.down(y)) for y in P.elements}
    assert pm.accumulate_dual(P, f) == {y: sum(f[x] for x in P.up(y)) for y in P.elements}
    assert all(R.up(e) == P.down(e) and R.down(e) == P.up(e) for e in P.elements)
    ext = R.linear_extension()
    assert len(ext) == len(P) and set(ext) == set(P.elements)
    pos = {e: i for i, e in enumerate(ext)}
    assert all(pos[x] <= pos[y] for x in P.elements for y in R.up(x))


def _factor(rng, size, layered):
    return _relabelled(layered_poset(rng, (size + 1) // 2) if layered
                       else random_poset(rng, size), rng)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 3), st.booleans())
@settings(deadline=None, max_examples=60)
def test_product_poset_matches_brute_force(seed, m, n, third, layered):
    rng = random.Random(seed)
    A, B = _factor(rng, m, layered), _factor(rng, n, not layered)
    P = pm.product_poset(A, B)
    assert P.elements == tuple((a, b) for a in A.elements for b in B.elements)
    if third:  # nested products: (A x B) x C
        C = _factor(rng, third, layered)
        P = pm.product_poset(P, C)
        leq = lambda p, q: (q[0][0] in A.up(p[0][0]) and q[0][1] in B.up(p[0][1])
                            and q[1] in C.up(p[1]))
    else:
        leq = lambda p, q: q[0] in A.up(p[0]) and q[1] in B.up(p[1])
    assert all((q in P.up(p)) == leq(p, q) for p in P.elements for q in P.elements)
    rebuilt = pm.FinitePoset(P.elements, [(p, q) for p in P.elements for q in P.up(p)])
    assert (rebuilt._up, rebuilt._down) == (P._up, P._down)
    assert rebuilt.linear_extension() == P.linear_extension()

    mu = pm.mobius(P)
    assert mu == pm._mobius_reference(P) == pm._mobius_bitplane(P)
    R = opposite_poset(P)
    assert pm.mobius(R) == pm._mobius_reference(R)
    assert pm.delta_check(P) and pm.delta_check(R)
    f = {e: rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
         for e in P.elements}
    assert pm.invert(P, pm.accumulate(P, f)) == f
    assert pm.accumulate(P, pm.invert(P, f)) == f
    assert pm.invert_dual(P, pm.accumulate_dual(P, f)) == f
    assert pm.accumulate_dual(P, pm.invert_dual(P, f)) == f
    assert pm.invert(P, f) == pm._invert_reference(P, f)
    assert pm.accumulate(P, f) == {y: sum(f[x] for x in P.down(y)) for y in P.elements}
    assert pm.accumulate_dual(P, f) == {y: sum(f[x] for x in P.up(y)) for y in P.elements}


@given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "layered", "nested", "divisor"]),
       st.booleans())
@settings(deadline=None, max_examples=80)
def test_dual_functions_match_the_opposite_poset(seed, kind, ints):
    # invert_dual reads P's Mobius rows and accumulate_dual its up-masks;
    # the opposite poset is rebuilt from pairs, with its own table and masks
    rng = random.Random(seed)
    if kind == "random":
        P = random_poset(rng, rng.randint(1, 12))
    elif kind == "layered":
        P = layered_poset(rng, rng.randint(1, 6))
    elif kind == "nested":
        A, B = _factor(rng, rng.randint(1, 4), False), _factor(rng, rng.randint(1, 4), True)
        P = pm.product_poset(pm.product_poset(A, B), _factor(rng, rng.randint(1, 3), False))
    else:
        P = pm.divisor_poset(rng.randint(1, 5000))
    g = {e: rng.randint(-9, 9) if ints or rng.random() < 0.5
         else Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for e in P.elements}
    got = pm.invert_dual(P, g), pm.accumulate_dual(P, g)
    R = opposite_poset(P)
    assert got == (pm.invert(R, g), pm.accumulate(R, g))
    assert all(list(f) == list(P.elements) for f in got)
    if ints:
        assert all(type(v) is int for f in got for v in f.values())
    mu, mu_opposite = pm.mobius(P), pm.mobius(R)
    assert all(mu_opposite(y, x) == mu(x, y) for x in P.elements for y in P.elements)


def _three_atoms():
    """A bottom, three atoms and a top: mu(bottom, top) = 2."""
    return pm.FinitePoset("0abc1", [("0", x) for x in "abc1"] + [(x, "1") for x in "abc"])


def _maps(table):
    """Each element's row (or column) as {index: value}."""
    return [dict(zip(cols, vals)) for cols, vals in table]


@pytest.mark.parametrize("make", [
    lambda: pm.product_poset(_three_atoms(), _three_atoms()),
    lambda: pm.product_poset(pm.product_poset(_three_atoms(), chain(3)), _three_atoms()),
    lambda: pm.product_poset(_three_atoms(),
                             pm.product_poset(pm.boolean_lattice(2), _three_atoms())),
    lambda: pm.divisor_poset(720720),
], ids=["square", "nested-left", "nested-right", "divisors-720720"])
@pytest.mark.parametrize("reverse", [False, True], ids=["product", "reversed"])
def test_product_columns_match_transposed_rows(make, reverse):
    # the product route builds rows and columns separately from the
    # factors' blocks; each must hold the bit-plane recursion's values, as
    # must the explicit opposite poset's, which gets both by recursion
    P = opposite_poset(make()) if reverse else make()
    columns, rows = P._mobius_columns, P._mobius_rows
    plane_rows = pm._plane_rows(P)
    assert _maps(rows) == _maps(plane_rows)
    assert _maps(columns) == _maps(pm._transpose(rows)) == _maps(pm._transpose(plane_rows))
    values = {v for _, vals in rows for v in vals}
    if isinstance(P.elements[0], tuple):  # mu(bottom, top) = 2 in each diamond factor
        assert {2, 4} <= values
    else:  # 2^4 and 3^2 divide 720720
        assert values == {-1, 0, 1}


def test_product_rows_share_one_value_list_per_pair_of_factor_rows():
    # the values of row (a, b) are A's row a times B's row b, so they depend
    # only on the two value sequences; boolean_lattice(10) is the product
    # of two 5-atom lattices, whose rows (and columns) take 6 sequences each
    B = pm.boolean_lattice(10)
    for table in (B._mobius_rows, B._mobius_columns):
        assert len({id(vals) for _, vals in table}) <= 36
        assert len({id(cols) for cols, _ in table}) == len(B) == 1024


def _entries(table):
    """Each row (or column) as the lengths of its two lists and its sorted
    (index, value) pairs, so a list grown or changed in any place shows."""
    return [(len(cols), len(vals), sorted(zip(cols, vals))) for cols, vals in table]


@pytest.mark.parametrize("make", [
    lambda: pm.boolean_lattice(6),
    lambda: pm.divisor_poset(720720),
    lambda: pm.product_poset(pm.product_poset(random_poset(random.Random(6), 6),
                                              layered_poset(random.Random(7), 3)),
                             random_poset(random.Random(8), 5)),
], ids=["boolean-6", "divisors-720720", "nested-random-layered"])
def test_no_reader_changes_a_shared_row(make):
    # a product's rows share their value lists with each other and with
    # every IncidenceFunction made from the poset, so every reader must
    # leave them as built: the bit-plane recursion's entries
    P = make()
    mu = pm.mobius(P)
    g = {e: i % 5 - 2 for i, e in enumerate(P.elements)}
    pairs = list(mu.items())
    assert all(mu(x, y) == mu[(x, y)] == value for (x, y), value in pairs)
    assert mu == pm.mobius(P) == dict(pairs)
    pm.invert(P, g), pm.invert_dual(P, g), pm.accumulate(P, g)
    assert pm.delta_check(P)
    plane_rows = pm._plane_rows(P)
    assert _entries(P._mobius_rows) == _entries(plane_rows)
    assert _entries(P._mobius_columns) == _entries(pm._transpose(plane_rows))


def test_boolean_lattice_table_memory_is_bounded():
    # 8.0 MiB on CPython 3.11, building the lattice included, against
    # 12.5 MiB with a value list of its own in each of the 4096 rows
    tracemalloc.start()
    try:
        pm.mobius(pm.boolean_lattice(12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_mobius_is_computed_once_per_poset(monkeypatch):
    calls = []
    plane_rows = pm._plane_rows
    monkeypatch.setattr(pm, "_plane_rows", lambda P: calls.append(P) or plane_rows(P))
    P = random_poset(random.Random(4), 9)
    g = {e: Fraction(e, 3) for e in P.elements}
    assert pm.mobius(P) == pm.mobius(P)
    pm.invert(P, g), pm.invert_dual(P, g), pm.delta_check(P)
    assert calls == [P]
    # a product needs only its factors' tables: boolean_lattice(6) is a
    # product of six 2-chains, and each gets its rows by recursion once
    B = pm.boolean_lattice(6)
    calls.clear()
    g = {e: len(e) for e in B.elements}
    pm.mobius(B), pm.invert(B, g), pm.invert_dual(B, g), pm.delta_check(B)
    assert len(calls) == len(set(map(id, calls))) == 6
    assert all(len(Q) == 2 for Q in calls)


def test_incidence_table_is_a_read_only_mapping():
    P = pm.divisor_poset(12)
    mu = pm.mobius(P)
    want = {(x, y): nt.mobius_classical(y // x)
            for x in P.elements for y in P.elements if y % x == 0}
    # perfbench/workloads.py reads a Mobius function's pairs as `mu.table`
    assert mu.table is mu and isinstance(mu, Mapping) and len(mu) == len(want) == 18
    assert mu == want and want == mu and not mu != want
    assert mu == pm._mobius_reference(P)
    assert mu != {**want, (1, 2): 5} and mu != dict(list(want.items())[1:])
    assert sorted(mu) == sorted(want) and dict(mu.items()) == want
    assert len(list(mu.items())) == len(want) == len(list(mu.values()))
    assert mu[(2, 12)] == 1 == mu(2, 12) and mu.get((1, 12)) == 0
    for key in ((4, 6), (5, 12), (1,), "ab", (1, 2, 3)):
        assert key not in mu and mu.get(key) is None
        with pytest.raises(KeyError):
            mu[key]
    assert mu(4, 6) == mu(5, 12) == 0
    with pytest.raises(TypeError):
        mu[(1, 2)] = 0
    copy = dict(mu)
    copy[(1, 2)] = 0
    assert mu(1, 2) == -1
    # iteration goes x by x in element order and, for each x, along the
    # linear extension, as the recursion visits the pairs; items() follows
    # it, on products, explicit posets and an opposite poset alike
    products = (pm.boolean_lattice(4), pm.product_poset(pm.divisor_poset(12),
                                                        random_poset(random.Random(3), 5)))
    for Q in (P, *products, random_poset(random.Random(5), 8),
              opposite_poset(pm.divisor_poset(360))):
        rank = {e: i for i, e in enumerate(Q.linear_extension())}
        order = [(x, y) for x in Q.elements for y in sorted(Q.up(x), key=rank.get)]
        mu_q, reference = pm.mobius(Q), pm._mobius_reference(Q)
        assert isinstance(mu_q, Mapping) and mu_q == reference
        assert list(mu_q) == order == list(reference)
        assert list(mu_q.items()) == [(k, mu_q[k]) for k in mu_q]
    # a function can also come from a mapping, on pairs x <= y only
    f = pm.IncidenceFunction(P, {(1, 2): 3, (2, 2): Fraction(1, 2)})
    assert f(1, 2) == 3 and f(2, 2) == Fraction(1, 2) and f(1, 4) == 0
    assert dict(f.items()) == {(1, 2): 3, (2, 2): Fraction(1, 2)}
    for pair in ((2, 1), (4, 6)):
        with pytest.raises(ValueError, match=rf"^value on \({pair[0]}, {pair[1]}\)"):
            pm.IncidenceFunction(P, {(1, 2): 3, pair: 5})


def test_integer_inversion_keeps_types():
    P = pm.divisor_poset(360)
    ints = {e: e % 7 - 3 for e in P.elements}
    for f in (pm.invert(P, ints), pm.invert_dual(P, ints), pm.accumulate(P, ints)):
        assert all(type(v) is int for v in f.values())
    assert pm.invert(P, ints) == pm._invert_reference(P, ints)
    halves = {e: Fraction(v, 2) for e, v in ints.items()}
    got = pm.invert(P, halves)
    assert all(type(v) is Fraction for v in got.values())
    assert got == pm._invert_reference(P, halves) == {e: Fraction(v, 2) for e, v in
                                                     pm.invert(P, ints).items()}
    with pytest.raises(TypeError, match="ints or Fractions"):
        pm.invert(P, {**ints, 1: 0.5})


def test_bit_planes_carry_large_values():
    # a bottom, three antichains of 4 and a top: mu(bottom, top) = -(1-4)^3
    levels = [[0], [1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13]]
    pairs = [(x, y) for i, low in enumerate(levels)
             for high in levels[i + 1:] for x in low for y in high]
    P = pm.FinitePoset(range(14), pairs)
    mu = pm.mobius(P)
    assert mu(0, 13) == 27 and mu(1, 13) == -9 and mu(0, 9) == -9
    assert mu == pm._mobius_reference(P)
    assert pm.delta_check(P)


def test_linear_extension_respects_order():
    rng = random.Random(2)
    for _ in range(20):
        P = random_poset(rng, rng.randint(1, 9))
        ext = P.linear_extension()
        pos = {e: i for i, e in enumerate(ext)}
        for x in P.elements:
            for y in P.up(x):
                assert pos[x] <= pos[y]


def test_json_roundtrip():
    P = pm.boolean_lattice(0)
    text = json.dumps({"elements": [0, 1, 2], "leq": [[0, 1], [0, 2], [1, 2]]})
    Q = pm.FinitePoset.from_json(text)
    assert set(Q.elements) == {0, 1, 2}
    assert 2 in Q.up(0)
    assert len(P) == 1


# ---------------------------------------------------------------------------
# Mobius function
# ---------------------------------------------------------------------------


def test_mobius_two_chain():
    P = chain(2)
    mu = pm.mobius(P)
    assert mu(0, 0) == mu(1, 1) == 1
    assert mu(0, 1) == -1
    assert mu(1, 0) == 0  # incomparable direction


def test_mobius_boolean_closed_form():
    b2 = pm.boolean_lattice(2)
    assert pm.mobius(b2)(frozenset(), frozenset({1, 2})) == 1


def test_mobius_divisor_examples():
    assert pm.mobius(pm.divisor_poset(12))(1, 12) == 0  # squared prime factor
    mu30 = pm.mobius(pm.divisor_poset(30))
    assert mu30(1, 30) == -1  # three primes
    mu12 = pm.mobius(pm.divisor_poset(12))
    assert mu12(2, 12) == mu12(1, 6) == 1


def test_mobius_divisor_five_rules_to_10000():
    for n in range(1, 10_001):
        P = pm.divisor_poset(n)
        mu = pm.mobius(P)
        for d in P.elements:
            assert mu(1, d) == nt.mobius_classical(d)
    # rule: mu(m, n) only depends on the quotient
    for n in (12, 60, 360, 9240):
        P = pm.divisor_poset(n)
        mu = pm.mobius(P)
        for m in P.elements:
            for d in P.up(m):
                assert mu(m, d) == nt.mobius_classical(d // m)


def test_mobius_interval_rule_both_sides():
    # the defining sum over [x, y) and its mirror over (x, y] agree
    rng = random.Random(8)
    for _ in range(15):
        P = random_poset(rng, rng.randint(2, 9))
        mu = pm.mobius(P)
        for x in P.elements:
            for y in P.up(x):
                if x == y:
                    continue
                left = -sum(mu(x, z) for z in P.interval(x, y) if z != y)
                right = -sum(mu(z, y) for z in P.interval(x, y) if z != x)
                assert mu(x, y) == left == right


def test_delta_check():
    rng = random.Random(9)
    for _ in range(20):
        P = random_poset(rng, rng.randint(1, 8))
        assert pm.delta_check(P)
    assert pm.delta_check(pm.boolean_lattice(3))


def test_delta_check_fails_on_a_corrupted_table():
    # one value of the last column off by one, on a product and on a poset
    # whose table comes from the bit-plane recursion
    for P in (pm.boolean_lattice(3), pm.divisor_poset(12), random_poset(random.Random(5), 8)):
        xs, vals = P._mobius_columns[-1]
        P._mobius_columns[-1] = (xs, [vals[0] + 1, *vals[1:]])
        assert not pm.delta_check(P)


def test_verify_reaches_the_bit_planes_of_delta_check(monkeypatch):
    # values with |mu| >= 2 go through _plane_add; off by one there, and
    # only there, `verify mobius` must fail its inversion check
    plane_add = pm._plane_add

    def off_by_one_in_delta_check(planes, bit, value):
        if sys._getframe(1).f_code is pm.delta_check.__code__:
            value += 1
        plane_add(planes, bit, value)

    monkeypatch.setattr(pm, "_plane_add", off_by_one_in_delta_check)
    failed = [check.name for _, check in run_suites(["mobius"]) if not check.ok]
    assert failed == ["zeta*mu = delta and inversion roundtrips"]


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def test_inversion_roundtrip():
    rng = random.Random(10)
    for _ in range(25):
        P = random_poset(rng, rng.randint(1, 10))
        f = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for e in P.elements}
        assert pm.invert(P, pm.accumulate(P, f)) == f
        assert pm.accumulate(P, pm.invert(P, f)) == f
        assert pm.invert_dual(P, pm.accumulate_dual(P, f)) == f
        assert pm.accumulate_dual(P, pm.invert_dual(P, f)) == f


def test_delta_roundtrips_through_bottom():
    P = chain(4)
    f = {e: Fraction(1 if e == 0 else 0) for e in P.elements}
    g = pm.accumulate(P, f)  # constant 1
    assert all(v == 1 for v in g.values())
    assert pm.invert(P, g) == f


def test_derangements_via_dual_inversion():
    # g(A) = (4-|A|)! counts permutations fixing at least A; dual
    # inversion gives permutations fixing exactly B
    lat = pm.boolean_lattice(4)
    g = {a: Fraction(factorial(4 - len(a))) for a in lat.elements}
    f = pm.invert_dual(lat, g)
    assert f[frozenset({1})] == 2 == ct.derangement(3)
    exact1 = [
        p
        for p in en.enumerate_permutations(4)
        if en.fixed_points(p) == (1,)
    ]
    assert f[frozenset({1})] == len(exact1)
    for b in lat.elements:
        assert f[b] == ct.derangement(4 - len(b))


def test_dual_inversion_on_chain_telescopes():
    P = chain(3)
    g = {e: Fraction(5) for e in P.elements}  # constant on a chain
    f = pm.invert_dual(P, g)
    # sum over x >= y of f(x) = 5 forces f = 5 at the top, 0 below
    assert f == {0: 0, 1: 0, 2: Fraction(5)}


# ---------------------------------------------------------------------------
# lattice builders
# ---------------------------------------------------------------------------


def test_boolean_lattice_shape():
    lat = pm.boolean_lattice(3)
    assert len(lat) == 8
    assert sum(1 for a in lat.elements for _ in lat.up(a)) == 3**3
    with pytest.raises(ValueError):
        pm.boolean_lattice(17)


def test_boolean_lattice_cap_rejects_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            pm.boolean_lattice(pm.MAX_BOOLEAN_GROUND + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the smallest lattice past the cap would hold 16384 frozensets, megabytes
    assert peak < 64 * 1024


def divisors(n):
    """The positive divisors of n, ascending, by trial division up to
    isqrt(n): the reference for divisor_poset's elements, which come from
    the factorization instead."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return tuple(low + [n // d for d in reversed(low) if d * d != n])


def test_divisor_poset_lists_the_divisors():
    assert divisors(1) == (1,) and divisors(12) == (1, 2, 3, 4, 6, 12)
    for n in range(1, 500):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0), n
        assert pm.divisor_poset(n).elements == divisors(n), n


def test_divisor_cap_rejects_before_allocating(monkeypatch):
    # no n that factorize accepts has more divisors than 963761198400, so
    # the cap is lowered below its count to see where the check runs
    n = 963761198400
    count = len(divisors(n))
    assert count == pm.MAX_DIVISOR_COUNT
    monkeypatch.setattr(pm, "MAX_DIVISOR_COUNT", count - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too many divisors"):
            pm.divisor_poset(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # its 6720 divisors alone would be over 64 KB, its masks megabytes
    assert peak < 64 * 1024


def _boolean_by_pairs(n):
    """The boolean lattice from its full list of pairs, validated."""
    subsets = [frozenset(c) for size in range(n + 1)
               for c in combinations(range(1, n + 1), size)]
    return pm.FinitePoset(subsets, [(a, b) for a in subsets for b in subsets if a <= b])


def _divisors_by_pairs(n):
    """The divisor lattice from its full list of pairs, validated."""
    divs = divisors(n)
    return pm.FinitePoset(divs, [(a, b) for a in divs for b in divs if b % a == 0])


@pytest.mark.parametrize("kind, n", [("boolean", n) for n in range(11)]
                         + [("divisor", n) for n in (1, 7, 840, 1260, 2520, 720720, 2**10,
                                                     75600, 9699690)])
def test_lattices_match_pair_list_construction(kind, n):
    if kind == "boolean":
        P, Q = pm.boolean_lattice(n), _boolean_by_pairs(n)
    else:
        P, Q = pm.divisor_poset(n), _divisors_by_pairs(n)
    assert P.elements == Q.elements
    # the extension and the Mobius table come from the factors, before any
    # mask of the product is built
    assert P.linear_extension() == Q.linear_extension()
    assert pm.mobius(P) == pm.mobius(Q)
    assert (P._up, P._down) == (Q._up, Q._down)
    assert [P.up(x) for x in P.elements] == [Q.up(x) for x in Q.elements]


@pytest.mark.parametrize("make", [lambda: pm.boolean_lattice(10), lambda: pm.divisor_poset(720720)],
                         ids=["boolean-10", "divisors-720720"])
@pytest.mark.parametrize("query", [
    lambda P, x, g: P.up(x),
    lambda P, x, g: P.interval(x, x),
    lambda P, x, g: pm.delta_check(P),
    lambda P, x, g: pm.accumulate(P, g),
], ids=["up", "interval", "delta_check", "accumulate"])
def test_product_masks_are_built_by_the_first_query_that_reads_them(make, query):
    P = make()
    g = {e: i % 7 - 3 for i, e in enumerate(P.elements)}
    mu = pm.mobius(P)
    assert pm.invert(P, g) == pm._invert_reference(make(), g)
    assert pm.invert_dual(P, g) == pm._invert_reference(opposite_poset(make()), g)
    assert "_masks" not in vars(P) and "_masks" not in vars(P._factors[0])
    query(P, P.elements[0], g)
    assert "_masks" in vars(P)
    assert mu == pm._mobius_bitplane(P)


def _by_size_then_atoms(atoms):
    subsets = [frozenset(c) for size in range(len(atoms) + 1) for c in combinations(atoms, size)]
    return tuple(sorted(subsets, key=lambda s: (len(s), sorted(s))))


@pytest.mark.parametrize("n", range(14))
def test_boolean_lattice_lists_subsets_by_size_then_atoms(n):
    # a union's int sort key is the sum of its parts' keys, which holds for
    # either way an odd number of atoms splits
    assert pm.boolean_lattice(n).elements == _by_size_then_atoms(range(1, n + 1))


@pytest.mark.parametrize("atoms", [tuple(range(6, 11)), (2, 3, 5, 7, 11, 13)],
                         ids=["6-to-10", "primes-to-13"])
def test_subset_factor_keys_hold_for_atoms_past_one(atoms):
    # a factor's keys shift each atom by its distance from the largest one
    assert pm._subset_lattice(atoms).elements == _by_size_then_atoms(atoms)


def test_largest_divisor_lattice_is_a_product():
    P = pm.divisor_poset(963761198400)
    assert P.elements == divisors(963761198400)
    low, high = P._factors  # split where the divisor count passes sqrt(6720)
    assert low.elements[-1] == 2**6 * 3**4 * 5**2
    assert high.elements[-1] == 7 * 11 * 13 * 17 * 19 * 23
    assert 963761198400 in P.up(1) and 12 in P.up(6) and 18 not in P.up(12)
    mu, top = pm.mobius(P), 963761198400 // 23
    for d in (1, 2, 4, 30, 210, 2310, top):
        assert mu(d, top) == nt.mobius_classical(top // d)


def test_shared_poset_tables_under_threads():
    # 8 threads, switching often, fill one poset's Mobius rows and columns
    # while inverting on it; each must see whole tables and the same answers
    # on the two products the threads' delta_check builds the masks first
    for make, by_pairs in ((lambda: pm.boolean_lattice(7), lambda: _boolean_by_pairs(7)),
                           (lambda: pm.divisor_poset(720720), lambda: _divisors_by_pairs(720720)),
                           (lambda: random_poset(random.Random(11), 40), None)):
        P = make()
        assert ("_masks" not in vars(P)) == (by_pairs is not None)
        rng = random.Random(len(P))
        g = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for e in P.elements}
        fresh = make()
        want = (pm._invert_reference(fresh, g), pm._invert_reference(opposite_poset(fresh), g),
                True)
        start = threading.Barrier(8, timeout=60)

        def work(_):
            start.wait()
            return pm.invert(P, g), pm.invert_dual(P, g), pm.delta_check(P)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(work, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(answer == want for answer in got)
        if by_pairs:
            Q = by_pairs()
            assert P._masks == (Q._up, Q._down)


def test_mobius_on_a_product_reads_no_order_or_mask():
    # the product theorem needs only the factors' tables, so the top
    # product gets no linear extension and no mask
    P = pm.boolean_lattice(10)
    pm.mobius(P)
    assert "_mobius_rows" in vars(P)
    assert not {"_order", "_rank", "_down_sizes", "_masks"} & vars(P).keys()


def test_fields_under_threads_on_shared_and_fresh_products():
    # 4 threads read the fields of one shared product and of fresh nested
    # ones at once; every first read of a field takes its poset's lock, and
    # a product's fields take its factors' locks inside it, so a wait in a
    # cycle would hang here, and each thread is joined with a timeout
    # instead.  The fresh divisor lattice is that of 2^4 3^2 5 7 11 13 17
    # (480 divisors): four fresh copies of the 6720 divisors' tables took
    # 400 MB
    shared = pm.boolean_lattice(9)

    def answers(P):
        g = {e: i % 7 - 3 for i, e in enumerate(P.elements)}
        return (pm.mobius(P)._rows, pm.invert(P, g), pm.invert_dual(P, g), pm.delta_check(P),
                P.linear_extension())

    def run(P9):
        return [answers(P) for P in (P9, pm.boolean_lattice(10), pm.divisor_poset(12252240))]

    want = run(pm.boolean_lattice(9))
    start = threading.Barrier(4, timeout=60)
    got = [None] * 4

    def work(i):
        start.wait()
        got[i] = run(shared)

    threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [want] * 4
    assert all(checked is True for _, _, _, checked, _ in want)


@pytest.mark.parametrize("field", ["_mobius_rows", "_order"])
def test_explicit_mobius_waits_on_no_product_build(monkeypatch, parking, field):
    # an explicit poset's Mobius table is built while a product's build of
    # `field` is held, in the outer product or in the down-set sizes
    product = pm.boolean_lattice(4)
    kind = type(product)
    monkeypatch.setattr(pm, "_outer", parking.wrap(product, pm._outer))
    monkeypatch.setattr(kind, "_down_sizes",
                        property(parking.wrap(product, kind._down_sizes.func)))
    chain3 = pm.FinitePoset(range(3), [(0, 1), (0, 2), (1, 2)])
    waited, got = parking.read_beside(lambda: getattr(product, field),
                                      lambda: dict(pm.mobius(chain3)))
    assert not waited, "the explicit poset's mobius waited for the product's build"
    assert got == [{(0, 0): 1, (0, 1): -1, (0, 2): 0, (1, 1): 1, (1, 2): -1, (2, 2): 1}]


@pytest.mark.parametrize("kind", ["explicit", "product"])
def test_first_mobius_waits_on_no_other_poset(monkeypatch, parking, kind):
    # a first `mobius` of one poset while the same field of another poset of
    # its class is held inside its computation
    if kind == "explicit":
        make, held = lambda: random_poset(random.Random(5), 12), chain(4)
        compute = "_plane_rows"
    else:
        make, held = lambda: pm.divisor_poset(12), pm.boolean_lattice(4)
        compute = "_outer"
    other = make()
    assert type(other) is type(held)
    monkeypatch.setattr(pm, compute, parking.wrap(held, getattr(pm, compute)))
    waited, got = parking.read_beside(lambda: pm.mobius(held), lambda: dict(pm.mobius(other)))
    assert not waited, f"the {kind} poset's mobius waited for another's build"
    assert got == [dict(pm._mobius_reference(make()))]


def test_racing_first_reads_compute_once(monkeypatch):
    # 8 threads read `mobius` of one fresh product and of one fresh explicit
    # poset at once: each poset's table (and each factor's) is computed by
    # one call, and every thread gets the same rows
    calls = []
    for name in ("_outer", "_plane_rows"):
        monkeypatch.setattr(pm, name, lambda P, *args, compute=getattr(pm, name):
                            calls.append(P) or compute(P, *args))
    product, explicit = pm.boolean_lattice(10), random_poset(random.Random(7), 60)
    start = threading.Barrier(8, timeout=60)

    def work(_):
        start.wait()
        return pm.mobius(product)._rows, pm.mobius(explicit)._rows

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(work, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(rows is got[0][0] for rows, _ in got)
    assert all(rows is got[0][1] for _, rows in got)
    # boolean_lattice(10): 9 products over 10 two-element chains
    assert len(calls) == len(set(map(id, calls))) == 20
    assert product in calls and explicit in calls


def test_divisor_poset_shape():
    P = pm.divisor_poset(12)
    assert P.elements == (1, 2, 3, 4, 6, 12)
    assert 12 in P.up(2) and 6 not in P.up(4)


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------


def test_subset_family_validation():
    with pytest.raises(ValueError):
        pm.SubsetFamily(3, [[0, 5]])
    fam = pm.SubsetFamily(4, [[0, 1], []])
    assert fam.masks == (0b11, 0)
    back = pm.SubsetFamily.from_json(json.dumps({"universe": 4, "sets": [[0, 1], []]}))
    assert back == fam


@pytest.mark.parametrize("member", [-1, 4, 1.0, "0", None, True])
def test_subset_family_rejects_members_outside_range(member):
    with pytest.raises(ValueError, match="outside the universe"):
        pm.SubsetFamily(4, [[0], [1, member]])


def test_subset_family_keeps_bitsets():
    fam = pm.SubsetFamily(6, [[0, 2, 5], (), {3, 2}])
    assert fam.masks == (0b100101, 0, 0b001100)
    same = pm.SubsetFamily(6, [{5, 2, 0}, [], [2, 3, 3]])
    assert same == fam and hash(same) == hash(fam)
    assert pm.SubsetFamily(7, [[0, 2, 5], (), {3, 2}]) != fam
    assert pm.SubsetFamily(0, [[], []]).masks == (0, 0)


def test_sieve_builds_no_sets():
    fam = derangement_family(7)  # 5040 permutations, 720 fixing each point
    tracemalloc.start()
    try:
        assert pm.jordan_counts(fam) == [ct.derangement_fixed(7, k) for k in range(8)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a frozenset of the 5040-element universe alone is over 200 KB
    assert peak < 32 * 1024


def test_sylvester_empty_family():
    fam = pm.SubsetFamily(9, [])
    assert pm.sylvester_numbers(fam) == [9]
    assert pm.sylvester_count(fam) == 9
    assert pm.jordan_counts(fam) == [9]


def test_sylvester_three_set_inclusion_exclusion():
    fam = pm.SubsetFamily(10, [{0, 1, 2, 3}, {2, 3, 4}, {3, 4, 5, 6}])
    a, b, c = ({x for x in range(fam.universe) if mask >> x & 1} for mask in fam.masks)
    s = pm.sylvester_numbers(fam)
    assert s[0] == 10
    assert s[1] == len(a) + len(b) + len(c)
    assert s[2] == len(a & b) + len(a & c) + len(b & c)
    assert s[3] == len(a & b & c)
    assert pm.sylvester_count(fam) == 10 - len(a | b | c)


def test_derangement_families():
    fam4 = derangement_family(4)
    assert pm.sylvester_numbers(fam4)[1] == 4 * factorial(3) == 24
    assert pm.sylvester_count(fam4) == 9 == ct.derangement(4)
    assert pm.jordan_counts(fam4)[1] == 8 == ct.derangement_fixed(4, 1)
    fam5 = derangement_family(5)
    assert pm.jordan_counts(fam5) == [
        ct.derangement_fixed(5, k) for k in range(6)
    ]


def test_menage_family():
    fam = menage_family(3)
    assert pm.sylvester_count(fam) == 1 == ct.touchard(3)
    fam4 = menage_family(4)
    assert pm.sylvester_count(fam4) == 2 == ct.touchard(4)


@st.composite
def families(draw):
    """Up to 20 sets over a small universe, sparse, about half full, about
    three quarters full or full, so counts reach 16 (the fifth bit plane)."""
    universe, n = draw(st.integers(0, 40)), draw(st.integers(0, 20))
    full = (1 << universe) - 1
    half = st.integers(0, full)
    masks = draw(st.lists(st.one_of(half, st.builds(operator.and_, half, half),
                                    st.builds(operator.or_, half, half), st.just(full)),
                          min_size=n, max_size=n))
    return universe, [frozenset(x for x in range(universe) if mask >> x & 1) for mask in masks]


@given(families())
@settings(deadline=None, max_examples=150)
def test_sieve_counts_match_membership_and_index_subsets(drawn):
    universe, sets = drawn
    fam = pm.SubsetFamily(universe, sets)
    counts = [sum(x in s for s in sets) for x in range(universe)]
    assert pm.jordan_counts(fam) == [counts.count(m) for m in range(len(sets) + 1)]
    if len(sets) <= 8:
        everything = frozenset(range(universe))
        assert pm.sylvester_numbers(fam) == [
            sum(len(everything.intersection(*chosen)) for chosen in combinations(sets, k))
            for k in range(len(sets) + 1)
        ]
