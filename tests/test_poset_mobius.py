"""Posets: construction, Mobius/zeta/delta, inversion, lattices, sieve."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactcomb.counting as ct
import exactcomb.enumeration as en
import exactcomb.number_theory as nt
import exactcomb.poset_mobius as pm
from exactcomb.exact_core import factorial
import exactcomb.verify as vf
from exactcomb.verify import derangement_family, layered_poset, menage_family, random_poset

# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def chain(n):
    return pm.FinitePoset(range(n), [(i, j) for i in range(n) for j in range(i, n)])


def test_reflexive_closure_applied():
    P = pm.FinitePoset(["a", "b"], [("a", "b")])
    assert P.leq("a", "a") and P.leq("b", "b") and P.leq("a", "b")
    assert not P.leq("b", "a")


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
        assert all(P.leq(_label(x), _label(y)) == ((x, y) in closure)
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
    assert pm.mobius(P).table == pm._mobius_reference(P).table
    assert pm.delta_check(P)
    f = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for e in P.elements}
    assert pm.invert(P, pm.accumulate(P, f)) == f
    assert pm.invert_dual(P, pm.accumulate_dual(P, f)) == f
    R = P.reversed()
    Q = pm.FinitePoset(P.elements, [(y, x) for x in P.elements for y in P.up(x)])
    assert all(R.up(e) == Q.up(e) and R.down(e) == Q.down(e) for e in P.elements)
    ext = R.linear_extension()
    assert len(ext) == len(P) and set(ext) == set(P.elements)
    pos = {e: i for i, e in enumerate(ext)}
    assert all(pos[x] <= pos[y] for x in P.elements for y in R.up(x))


def test_bit_planes_carry_large_values():
    # a bottom, three antichains of 4 and a top: mu(bottom, top) = -(1-4)^3
    levels = [[0], [1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13]]
    pairs = [(x, y) for i, low in enumerate(levels)
             for high in levels[i + 1:] for x in low for y in high]
    P = pm.FinitePoset(range(14), pairs)
    mu = pm.mobius(P)
    assert mu(0, 13) == 27 and mu(1, 13) == -9 and mu(0, 9) == -9
    assert mu.table == pm._mobius_reference(P).table
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
    Q = pm.FinitePoset.from_json(chain(3).to_json())
    assert set(Q.elements) == {0, 1, 2}
    assert Q.leq(0, 2)
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
    assert vf.boolean_mobius_failure(7) is None
    b2 = pm.boolean_lattice(2)
    assert pm.mobius(b2)(frozenset(), frozenset({1, 2})) == 1


def test_mobius_divisor_examples():
    assert pm.mobius(pm.divisor_poset(12))(1, 12) == 0  # squared prime factor
    mu30 = pm.mobius(pm.divisor_poset(30))
    assert mu30(1, 30) == -1  # three primes
    mu12 = pm.mobius(pm.divisor_poset(12))
    assert mu12(2, 12) == mu12(1, 6) == 1


def test_mobius_divisor_matches_classical():
    assert vf.divisor_mobius_failure(500) is None


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


def test_zeta_and_delta_check():
    rng = random.Random(9)
    for _ in range(20):
        P = random_poset(rng, rng.randint(1, 8))
        z = pm.zeta(P)
        assert all(z(x, x) == 1 for x in P.elements)
        assert pm.delta_check(P)
    assert pm.delta_check(pm.boolean_lattice(3))


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


def test_surjections_via_inversion():
    # g(B) = |B|^k counts functions landing inside B; inverting on the
    # subset lattice leaves exactly the surjections at the top
    assert vf.surjection_inversion_failure(5, 6) is None


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
    # the smallest lattice past the cap would hold 8192 frozensets, megabytes
    assert peak < 64 * 1024


def test_divisor_poset_shape():
    P = pm.divisor_poset(12)
    assert P.elements == (1, 2, 3, 4, 6, 12)
    assert P.leq(2, 12) and not P.leq(4, 6)


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------


def test_subset_family_validation():
    with pytest.raises(ValueError):
        pm.SubsetFamily(3, [[0, 5]])
    fam = pm.SubsetFamily(4, [[0, 1], []])
    assert fam.sets == (frozenset({0, 1}), frozenset())
    back = pm.SubsetFamily.from_json(fam.to_json())
    assert back == fam


def test_sylvester_empty_family():
    fam = pm.SubsetFamily(9, [])
    assert pm.sylvester_numbers(fam) == [9]
    assert pm.sylvester_count(fam) == 9
    assert pm.jordan_counts(fam) == [9]


def test_sylvester_three_set_inclusion_exclusion():
    fam = pm.SubsetFamily(10, [{0, 1, 2, 3}, {2, 3, 4}, {3, 4, 5, 6}])
    a, b, c = (set(s) for s in fam.sets)
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


def test_jordan_on_random_families():
    # jordan_counts itself raises unless its counts sum to the universe size
    assert vf.random_sieve_failure(
        seed=31, trials=15, max_universe=400, max_sets=7
    ) is None
