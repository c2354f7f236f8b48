"""The generators themselves: canonical forms, counts, guards, structure maps."""

import argparse
import tracemalloc
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactcomb.cli as cli
import exactcomb.counting as ct
import exactcomb.enumeration as en
import exactcomb.number_theory as nt
import exactcomb.poly_identities as pi
import exactcomb.poset_mobius as pm
from exactcomb.exact_core import SizeGuardError, factorial


def test_function_words():
    funcs = list(en.enumerate_functions(4, 3))
    assert len(funcs) == 3**4
    assert (1, 3, 1, 2) in funcs
    assert en.as_word((1, 3, 1, 2)) == "1312"
    assert en.as_word((10, 2)) == "10,2"  # two-digit letters cannot concatenate


def _word_by_str(values):
    """The word built one str per letter, as as_word once did."""
    if all(0 <= v <= 9 for v in values):
        return "".join(str(v) for v in values)
    return ",".join(str(v) for v in values)


@given(st.one_of(st.lists(st.integers(0, 9), max_size=40),
                 st.lists(st.integers(0, 10**6), max_size=40)))
@settings(max_examples=200)
def test_as_word_matches_the_str_per_letter_route(values):
    assert en.as_word(values) == en.as_word(tuple(values)) == _word_by_str(values)


@given(st.lists(st.integers(0, 4), max_size=14))
@settings(max_examples=200)
def test_multiset_word_matches_its_letters(rho):
    letters = [i for i, count in enumerate(rho, start=1) for _ in range(count)]
    assert en.multiset_word(rho) == _word_by_str(letters)


def test_function_modes():
    assert len(list(en.enumerate_functions(2, 3, "injective"))) == 6
    assert len(list(en.enumerate_functions(3, 2, "surjective"))) == 6
    assert list(en.enumerate_functions(0, 3)) == [()]
    with pytest.raises(ValueError):
        list(en.enumerate_functions(2, 2, "bijective"))


def test_subsets():
    assert len(list(en.enumerate_subsets(3))) == 8
    assert (1, 3, 4) in list(en.enumerate_subsets(5, 3))  # the word a1 a3 a4
    assert len(list(en.enumerate_subsets(6, 3))) == 20 == ct.binomial(6, 3)
    # increasing words are unique and sorted
    words = [en.as_word(s) for s in en.enumerate_subsets(5, 2)]
    assert len(words) == len(set(words))
    assert all(tuple(s) == tuple(sorted(s)) for s in en.enumerate_subsets(5))


def test_multisets():
    vectors = list(en.enumerate_multisets(3, 6))
    assert (2, 1, 3) in vectors
    assert en.multiset_word((2, 1, 3)) == "112333"
    assert list(en.enumerate_multisets(4, 0)) == [(0, 0, 0, 0)]
    assert len(list(en.enumerate_multisets(3, 2))) == 6 == ct.multiset_coeff(3, 2)
    # nondecreasing-word forms are exactly the sorted words
    for rho in en.enumerate_multisets(3, 4):
        word = en.multiset_word(rho)
        assert word == "".join(sorted(word))
    # every n-tuple of sum k, in ascending lexicographic order
    for n in range(6):
        for k in range(6):
            assert list(en.enumerate_multisets(n, k)) == [
                rho for rho in product(range(k + 1), repeat=n) if sum(rho) == k]


def test_set_partitions():
    assert len(list(en.enumerate_set_partitions(4))) == 15
    assert len(list(en.enumerate_set_partitions(4, k=2))) == 7
    # canonical form: blocks ascend, ordered by minimum, and cover 1..n
    for part in en.enumerate_set_partitions(5):
        flat = sorted(x for b in part for x in b)
        assert flat == list(range(1, 6))
        assert [b[0] for b in part] == sorted(b[0] for b in part)
        assert all(list(b) == sorted(b) for b in part)


def test_permutation_filters():
    assert len(list(en.enumerate_permutations(3, cycles=1))) == 2
    assert len(list(en.enumerate_permutations(3, derangement_only=True))) == 2
    for n in range(7):
        perms = list(en.enumerate_permutations(n))
        assert len(perms) == factorial(n)


def test_cycle_decompose_golden():
    sigma = (5, 7, 4, 6, 1, 3, 8, 2)
    assert en.cycle_decompose(sigma) == ((1, 5), (2, 7, 8), (3, 4, 6))
    identity = tuple(range(1, 6))
    assert en.cycle_decompose(identity) == ((1,), (2,), (3,), (4,), (5,))
    # tau: 1->3, 3->2, 2->4, 4->1 is a single 4-cycle
    tau = (3, 4, 2, 1)
    decomp = en.cycle_decompose(tau)
    assert decomp == ((1, 3, 2, 4),)
    assert set(en.cycle_words(decomp[0])) == {"3241", "2413", "4132", "1324"}


def test_cycle_words_are_distinct():
    for perm in en.enumerate_permutations(6):
        for cyc in en.cycle_decompose(perm):
            words = en.cycle_words(cyc)
            assert len(set(words)) == len(cyc)


def test_cycle_recompose_roundtrip():
    for n in range(1, 9):
        for perm in en.enumerate_permutations(n):
            # each cycle (a b ... z) sends a to b, ..., z back to a
            image = [0] * n
            for cyc in en.cycle_decompose(perm):
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    image[a - 1] = b
            assert tuple(image) == perm


def test_cycle_decompose_rejects_non_permutation():
    with pytest.raises(ValueError):
        en.cycle_decompose((1, 1, 3))


def test_kernel_partition_validates_power_identity():
    # classify all functions n -> m by kernel: each k-block kernel admits
    # (m)_k injective factor maps, giving m^n = sum_k S(n,k) (m)_k; the
    # kernel has one block per value taken, so k is the image size
    for n in range(1, 6):
        for m in range(1, 6):
            by_blocks: dict[int, int] = {}
            for f in en.enumerate_functions(n, m):
                k = len(set(f))
                by_blocks[k] = by_blocks.get(k, 0) + 1
            for k, count in by_blocks.items():
                assert count == ct.stirling2(n, k) * ct.falling_factorial(m, k)
            assert sum(by_blocks.values()) == m**n


def test_gergonne_enumeration():
    q = ct.GergonneQuery(5, 2, 1)
    assert list(en.enumerate_gergonne(q)) == [
        (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5),
    ]
    singles = list(en.enumerate_gergonne(ct.GergonneQuery(6, 1, 3)))
    assert singles == [(i,) for i in range(1, 7)]
    circ = list(en.enumerate_gergonne(ct.GergonneQuery(8, 3, 1, circular=True)))
    assert len(circ) == 16


def test_menage_enumeration():
    assert list(en.enumerate_menage(3)) == [(3, 1, 2)]
    assert len(list(en.enumerate_menage(4))) == 2
    assert list(en.enumerate_menage(2)) == []


# The walks below build only what they admit.  Each test writes out the
# definition the walk replaced, a filter over every object, and requires
# the same list, so the order is checked too: every n <= 7, and the sizes
# the benchmark enumerates and the CLI corpus pins.


def _filtered_permutations(n, bad):
    return [f for f in permutations(range(1, n + 1))
            if not any(bad(i, f[i - 1]) for i in range(1, n + 1))]


@pytest.mark.parametrize("n", range(10))
def test_derangements_match_the_filtered_permutations(n):
    assert list(en.enumerate_permutations(n, derangement_only=True)) == \
        _filtered_permutations(n, lambda i, v: v == i)


@pytest.mark.parametrize("n", range(9))
def test_menage_seatings_match_the_filtered_permutations(n):
    assert list(en.enumerate_menage(n)) == \
        _filtered_permutations(n, lambda i, v: v == i or v == i % n + 1)


@pytest.mark.parametrize("n", range(8))
def test_cycle_filters_match_cycle_decompose(n):
    perms = list(permutations(range(1, n + 1)))
    cycles = {f: len(en.cycle_decompose(f)) for f in perms}
    for k in range(n + 2):
        assert list(en.enumerate_permutations(n, cycles=k)) == \
            [f for f in perms if cycles[f] == k]
        assert list(en.enumerate_permutations(n, cycles=k, derangement_only=True)) == \
            [f for f in perms if cycles[f] == k and not en.fixed_points(f)]


def _all_partitions(n):
    """Every set partition of {1..n}: i joins each block in turn, then opens one."""
    def rec(i, blocks):
        if i > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    return list(rec(1, []))


@pytest.mark.parametrize("n", [*range(8), 9])
def test_k_block_partitions_match_the_filtered_partitions(n):
    every = _all_partitions(n)
    assert list(en.enumerate_set_partitions(n)) == every
    for k in range(n + 2):
        assert list(en.enumerate_set_partitions(n, k=k)) == \
            [part for part in every if len(part) == k]


def _filtered_surjections(k, n):
    return [f for f in product(range(1, n + 1), repeat=k) if set(f) == set(range(1, n + 1))]


@pytest.mark.parametrize("k", range(8))
def test_surjections_match_the_filtered_words(k):
    for n in range(7):
        assert list(en.enumerate_functions(k, n, "surjective")) == _filtered_surjections(k, n)


def _side_by_side(*walks):
    """The objects of each walk, taken one from each in turn until all end."""
    got = [[] for _ in walks]
    live = [(out, iter(walk)) for out, walk in zip(got, walks)]
    while live:
        for pair in list(live):
            out, walk = pair
            try:
                out.append(next(walk))
            except StopIteration:
                live.remove(pair)
    return got


# walks of different sizes consumed alternately give the lists each gives
# alone, and those of the filters they replaced, which no table shared
# between calls could keep up
SIDE_BY_SIDE = {
    "derangements": (lambda n: en.enumerate_permutations(n, derangement_only=True),
                     lambda n: _filtered_permutations(n, lambda i, v: v == i), (5, 6, 7, 4)),
    "menage": (en.enumerate_menage,
               lambda n: _filtered_permutations(n, lambda i, v: v == i or v == i % n + 1),
               (5, 6, 7, 4)),
    "partitions": (lambda k: en.enumerate_set_partitions(7, k),
                   lambda k: [part for part in _all_partitions(7) if len(part) == k],
                   (3, 4, 2, 5)),
    "surjections": (lambda n: en.enumerate_functions(7, n, "surjective"),
                    lambda n: _filtered_surjections(7, n), (3, 4, 5, 2)),
}


@pytest.mark.parametrize("walk, filtered, sizes", SIDE_BY_SIDE.values(), ids=list(SIDE_BY_SIDE))
def test_walks_consumed_alternately_share_nothing(walk, filtered, sizes):
    assert _side_by_side(*map(walk, sizes)) == [list(walk(size)) for size in sizes] == \
        [filtered(size) for size in sizes]


def _gergonne_queries(n):
    for k in range(n + 2):
        for m in range(4):
            yield ct.GergonneQuery(n, k, m)
        if n % 2 == 0 and n >= 2:
            yield ct.GergonneQuery(n, k, 1, circular=True)


@pytest.mark.parametrize("q", [q for n in range(8) for q in _gergonne_queries(n)], ids=repr)
def test_gergonne_draws_match_the_filtered_subsets(q):
    def wins(s):
        gaps = [b - a for a, b in zip(s, s[1:])]
        if q.circular and q.k >= 2:
            gaps.append(s[0] + q.n - s[-1])
        return all(gap >= q.m + 1 for gap in gaps)

    assert list(en.enumerate_gergonne(q)) == \
        [s for s in combinations(range(1, q.n + 1), q.k) if wins(s)]


# one over-cap request per size guard in the library, each raising on the
# first object asked for
OVER_CAP = {
    "injective functions": lambda: next(en.enumerate_functions(10, 30, "injective")),
    "functions": lambda: next(en.enumerate_functions(30, 10)),
    "subsets": lambda: next(en.enumerate_subsets(20)),
    "multisets": lambda: next(en.enumerate_multisets(40, 40)),
    "multiset letters": lambda: next(en.enumerate_multisets(10**6, 1)),
    "partitions": lambda: next(en.enumerate_set_partitions(12)),
    "permutations": lambda: next(en.enumerate_permutations(10)),
    "gergonne": lambda: next(en.enumerate_gergonne(ct.GergonneQuery(40, 20, 0))),
    "gergonne letters": lambda: next(
        en.enumerate_gergonne(ct.GergonneQuery(10**6, 10**6 - 1, 0))),
    "menage": lambda: next(en.enumerate_menage(10)),
    "table": lambda: cli._cmd_table(argparse.Namespace(
        family="binomial", rows=2001, cols=3, p=None, format="csv")),
    "is_prime": lambda: nt.is_prime(nt.TRIAL_DIVISION_BOUND + 1),
    "factorize": lambda: nt.factorize(nt.TRIAL_DIVISION_BOUND + 1),
    "stirling inverse": lambda: pi.stirling_inverse_check(31),
    "boolean lattice": lambda: pm.boolean_lattice(pm.MAX_BOOLEAN_GROUND + 1),
    # no n that factorize accepts has more divisors than 963761198400
    "divisor count": lambda: pm.divisor_poset(963761198400),
    "family universe": lambda: pm.SubsetFamily(pm.MAX_FAMILY_UNIVERSE + 1, []),
    "family sets": lambda: pm.SubsetFamily(3, [[]] * (pm.MAX_FAMILY_SETS + 1)),
}


def test_guards(monkeypatch):
    monkeypatch.setattr(pm, "MAX_DIVISOR_COUNT", pm.MAX_DIVISOR_COUNT - 1)
    assert en.SizeGuardError is SizeGuardError
    for name, request in OVER_CAP.items():
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError, match="^size guard exceeded: "):
                request()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (name, peak)


# per family, the last request the cost model admits and the first it
# refuses: at most MAX_OBJECTS objects visited and MAX_LETTERS letters built
BOUNDARY = {
    "functions": (en.enumerate_functions, (1, 10**6), (1, 10**6 + 1)),
    "functions k=7": (en.enumerate_functions, (7, 7), (7, 8)),
    "one-letter words": (en.enumerate_functions, (10**7, 1), (10**7 + 1, 1)),
    "injective functions": (en.enumerate_functions, (9, 9, "injective"),
                            (9, 10, "injective")),
    "subsets": (en.enumerate_subsets, (19,), (20,)),
    "2-subsets": (en.enumerate_subsets, (1414, 2), (1415, 2)),
    "multisets": (en.enumerate_multisets, (3, 269), (3, 270)),
    "multiset letters": (en.enumerate_multisets, (1, 10**7 - 1), (1, 10**7)),
    "partitions": (en.enumerate_set_partitions, (11,), (12,)),
    "permutations": (en.enumerate_permutations, (9,), (10,)),
    "gergonne": (en.enumerate_gergonne, (ct.GergonneQuery(1414, 2, 0),),
                 (ct.GergonneQuery(1415, 2, 0),)),
    "gergonne letters": (en.enumerate_gergonne, (ct.GergonneQuery(3162, 3161, 0),),
                         (ct.GergonneQuery(3163, 3162, 0),)),
    "menage": (en.enumerate_menage, (9,), (10,)),
}


@pytest.mark.parametrize("family", list(BOUNDARY))
def test_cost_model_boundary(family):
    walk, admitted, refused = BOUNDARY[family]
    assert next(walk(*admitted)) is not None
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="^size guard exceeded: "):
            next(walk(*refused))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("mode, count", [("all", 10**5), ("surjective", 0)])
def test_one_letter_words_build_no_pool(mode, count):
    # one word at a time, and no surjection onto more letters than a word
    # has, without the tuple of all letters that itertools.product builds
    tracemalloc.start()
    try:
        assert sum(1 for _ in en.enumerate_functions(1, 10**5, mode)) == count
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_two_caps():
    caps = {name: value for name, value in vars(en).items() if name.startswith("MAX_")}
    assert caps == {"MAX_OBJECTS": 10**6, "MAX_LETTERS": 10**7}


def test_negative_ground_set_is_an_input_error():
    for walk in (en.enumerate_subsets, en.enumerate_set_partitions,
                 en.enumerate_permutations, en.enumerate_menage):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            next(walk(-1))


@pytest.mark.parametrize("argv, message", [
    (["subsets", "5", "-1"], "k must be >= 0"),
    (["partitions", "4", "--blocks", "-1"], "k must be >= 0"),
    (["permutations", "4", "--cycles", "-2"], "cycles must be >= 0"),
])
def test_negative_counts_are_input_errors(argv, message):
    assert cli.run(["enumerate", *argv], list) == (2, f"error: {message}")


def test_words_over_fewer_than_two_letters():
    for argv, words in ((["20", "1"], ["1" * 20]), (["1000000000", "0"], [])):
        lines = []
        assert cli.run(["enumerate", "functions", *argv], lines.extend) == (0, "")
        assert lines == words
    assert list(en.enumerate_functions(0, 0)) == [()]
    assert list(en.enumerate_functions(3, 1, "surjective")) == [(1, 1, 1)]
    assert list(en.enumerate_functions(0, 1, "surjective")) == []
    assert list(en.enumerate_functions(2, 0, "surjective")) == []


def test_bell_bound_follows_aitkens_triangle():
    for n in range(16):
        for cap in (ct.bell(n) - 1, ct.bell(n)):
            assert en._bell_within(n, cap) is (ct.bell(n) <= cap), (n, cap)


def test_huge_k_allocates_nothing():
    # k past n leaves nothing to enumerate, no word has k >= 1 letters over
    # none, and one word over one letter is refused past the letter cap;
    # itertools would still allocate 8 bytes per unit of k
    k = 10**6
    tracemalloc.start()
    try:
        assert list(en.enumerate_subsets(5, k)) == []
        assert list(en.enumerate_gergonne(ct.GergonneQuery(5, k, 1))) == []
        assert list(en.enumerate_functions(k, 3, "injective")) == []
        assert list(en.enumerate_functions(1000 * k, 0)) == []
        with pytest.raises(SizeGuardError):
            next(en.enumerate_functions(en.MAX_LETTERS + 1, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_generators_are_deterministic():
    a = list(en.enumerate_set_partitions(5))
    b = list(en.enumerate_set_partitions(5))
    assert a == b
    vectors = list(en.enumerate_multisets(3, 3))
    assert vectors == sorted(vectors)  # ascending lexicographic
