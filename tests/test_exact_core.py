import ast
import copy
import math
import operator
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactcomb import counting, exact_core
from exactcomb.exact_core import (
    CACHE_SIZE,
    Record,
    RowTable,
    agree,
    exact_quotient,
    SizeGuardError,
    factorial,
    falling_factorial,
    format_rational,
    gcd,
    guard,
    parse_int,
    parse_rational,
)
from exactcomb.number_theory import euler_phi, rsa_keygen
from exactcomb.poset_mobius import SubsetFamily
from exactcomb.recursive_matrix import binomial_matrix
from exactcomb.verify import Check


def test_factorial_golden():
    assert factorial(0) == 1  # empty product
    assert factorial(4) == 24
    # independent route: the C-implemented library factorial
    assert factorial(12) == math.factorial(12) == 479001600


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


# n crosses the factorial table's bound (256), below which the product is a
# quotient of table entries and above which it is a product tree
@given(st.integers(-60, 700).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, abs(n) + 1))))
@example((255, 1)).via("the shortest quotient of table entries at the bound")
@example((255, 255)).via("the last factorial in the table")
@example((256, 256)).via("the first factorial above the table")
@settings(deadline=None)
def test_one_product_of_consecutive_integers(case):
    n, k = case
    product = 1
    for i in range(k):  # the definition: n (n-1) ... (n-k+1), for negative n too
        product *= n - i
    assert falling_factorial(n, k) == product
    if n >= 0:
        assert product == math.perm(n, k)  # 0 when k > n
        assert factorial(n) == math.factorial(n)
    if n >= 1:
        assert counting.rising_factorial(n, k) == math.perm(n + k - 1, k)


def test_large_factorials_agree_with_math():
    assert factorial(5000) == math.factorial(5000)
    assert falling_factorial(100000, 1581) == math.perm(100000, 1581)


def test_a_wrong_table_step_raises_and_stores_nothing(monkeypatch):
    monkeypatch.setattr(exact_core, "_FACTORIALS", [])
    monkeypatch.setattr(exact_core, "mul", lambda prev, m: prev * m + (m == 200))
    for first in (lambda: factorial(3), lambda: falling_factorial(120, 60)):
        with pytest.raises(ArithmeticError, match=r"factorial table\(255\)"):
            first()
        assert exact_core._FACTORIALS == []
    monkeypatch.setattr(exact_core, "mul", operator.mul)
    assert factorial(3) == 6
    assert exact_core._FACTORIALS == [math.factorial(m) for m in range(256)]


def test_the_table_is_built_once(monkeypatch):
    builds = []
    build = exact_core._factorial_table
    monkeypatch.setattr(exact_core, "_FACTORIALS", [])
    monkeypatch.setattr(exact_core, "_factorial_table", lambda: builds.append(1) or build())
    assert [factorial(m) for m in range(300)] == [math.factorial(m) for m in range(300)]
    assert falling_factorial(200, 150) == math.perm(200, 150)
    assert builds == [1]


def test_first_calls_from_two_threads_agree(monkeypatch):
    monkeypatch.setattr(exact_core, "_FACTORIALS", [])
    start = threading.Barrier(2)

    def first(n):
        start.wait(timeout=10)
        return [falling_factorial(n, k) for k in range(n + 1)] + [factorial(m) for m in range(n)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            answers = [f.result(timeout=60) for f in [pool.submit(first, 255) for _ in range(2)]]
    finally:
        sys.setswitchinterval(interval)
    assert answers[0] == answers[1]
    assert answers[0][:256] == [math.perm(255, k) for k in range(256)]
    assert exact_core._FACTORIALS == [math.factorial(m) for m in range(256)]


def _gcd_by_factorization(a, b):
    # common prime powers, the schoolbook definition
    from exactcomb.number_theory import factorize

    fa = dict(factorize(abs(a)))
    fb = dict(factorize(abs(b)))
    out = 1
    for p in fa:
        if p in fb:
            out *= p ** min(fa[p], fb[p])
    return out


def test_gcd_golden():
    assert gcd(3, 20) == 1
    assert gcd(7, 0) == 7
    assert gcd(-7, 0) == 7
    assert gcd(30, 210) == 30 == _gcd_by_factorization(30, 210)


def test_gcd_rejects_double_zero():
    with pytest.raises(ValueError):
        gcd(0, 0)


def test_gcd_properties():
    import random

    rng = random.Random(3)
    for _ in range(300):
        a = rng.randint(-400, 400)
        b = rng.randint(-400, 400)
        if a == b == 0:
            continue
        g = gcd(a, b)
        assert g == gcd(b, a) > 0
        assert a % g == 0 and b % g == 0
        if a and b:
            assert g == _gcd_by_factorization(a, b)


def test_fraction_invariants():
    import random

    rng = random.Random(4)
    for _ in range(200):
        p = rng.randint(-100, 100)
        q = rng.randint(1, 100)
        r = Fraction(p, q)
        assert r.denominator > 0
        assert math.gcd(abs(r.numerator), r.denominator) == 1


def test_int_parse_print_roundtrip():
    for n in (0, 7, -7, 10**30, -(10**30)):
        assert parse_int(str(n)) == n
    with pytest.raises(ValueError):
        parse_int("12.5")
    with pytest.raises(ValueError):
        parse_int("abc")


def test_rational_parse_print_roundtrip():
    for r in (Fraction(0), Fraction(3, 7), Fraction(-22, 12), Fraction(5)):
        assert parse_rational(format_rational(r)) == r
    assert format_rational(Fraction(4, 2)) == "2"
    assert parse_rational("-6/4") == Fraction(-3, 2)
    # a bad input, not a disagreement between routes (ZeroDivisionError)
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        parse_rational("1/0")


def test_caches_are_bounded():
    for cached in (counting.binomial, counting.multiset_coeff, euler_phi):
        assert cached.cache_parameters()["maxsize"] == CACHE_SIZE


def test_row_table_builds_each_row_once_under_threads():
    # thread i asks for rows i, i+8, ... from the top down, so the 8 threads
    # race to build the same rows of one table and of one matrix
    built = []

    def counted(step):
        def step_once(prev, m):
            built.append((step, m))
            return step(prev, m)
        return step_once

    table = RowTable([1], counted(counting._stirling2_row))
    matrix = binomial_matrix(24)
    matrix._table._step = counted(matrix._table._step)

    def ask(i):
        return [(n, table[n], matrix.row_series(n)) for n in range(152 + i, -1, -8)]

    with ThreadPoolExecutor(8) as pool:
        answers = [answer for rows in pool.map(ask, range(8)) for answer in rows]
    assert sorted(n for n, _, _ in answers) == list(range(160))
    serial = binomial_matrix(24)
    for n, row, series in answers:
        assert row == [counting.stirling2(n, k) for k in range(n + 1)]
        assert series == serial.row_series(n)
    assert len(built) == len(set(built)) == 2 * 159


def test_agree_returns_the_common_value():
    assert agree("one", 7, 7, 7) == 7
    assert agree("rows", [1, -2], [1, -2]) == [1, -2]
    with pytest.raises(ArithmeticError) as info:
        agree("binomial(9,4)", 126, 126, 0)
    assert str(info.value) == (
        "internal inconsistency in binomial(9,4): routes gave (126, 126, 0)")


def test_exact_quotient_divides_or_raises():
    assert exact_quotient("q", 12, 4) == 3
    assert exact_quotient("q", -12, 4) == -3
    for num, den, shown in ((11, 12, "11/12"), (-7, 2, "-7/2"), (22, 24, "11/12")):
        with pytest.raises(ArithmeticError) as info:
            exact_quotient("entry (2,2)", num, den)
        assert str(info.value) == f"internal inconsistency: entry (2,2) is non-integer {shown}"


@pytest.mark.parametrize("limit", [4300, 0])
def test_inconsistency_message_is_short_for_any_size(limit, digit_limit):
    # 10**5000 is past CPython's default limit of 4300 digits for int-to-str
    wide = 10**5000
    cases = [
        lambda: agree("wide", wide, wide + 1),
        lambda: agree("wide rows", [1, wide, 3], [1, wide, 4]),
        lambda: agree("long rows", list(range(2000)), list(range(1, 2001))),
        lambda: exact_quotient("wide", wide + 1, 3 * wide),
    ]
    digit_limit(limit)
    messages = []
    for case in cases:
        with pytest.raises(ArithmeticError) as info:
            case()
        messages.append(str(info.value))
    assert all(m.startswith("internal inconsistency") and len(m) < 500 for m in messages)
    assert messages[0] == (
        "internal inconsistency in wide: routes gave (<16610-bit int>, <16610-bit int>)")
    assert messages[1].endswith("([1, <16610-bit int>, 3], [1, <16610-bit int>, 4])")


def test_only_exact_core_raises_arithmetic_error():
    package = Path(counting.__file__).parent
    raisers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ArithmeticError":
                    raisers.add(path.name)
    assert raisers == {"exact_core.py"}
    assert not hasattr(counting, "_agree")


def test_guard_passes_or_raises_size_guard_error():
    assert guard(True, "anything") is None
    with pytest.raises(SizeGuardError) as info:
        guard(False, "n=7 past the cap")
    assert isinstance(info.value, ValueError)  # so the CLI exits 2
    assert str(info.value) == "size guard exceeded: n=7 past the cap"


# the guard calls of each module: one per cap, and one for both caps of
# the enumeration cost model
GUARD_CALLS = {"commands.py": 1, "enumeration.py": 1, "number_theory.py": 1,
               "poly_identities.py": 1, "poset_mobius.py": 4}


def test_size_guards_are_one_mechanism():
    package = Path(counting.__file__).parent
    definers, calls = set(), {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        definers |= {path.name for node in nodes
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                     and node.name in ("SizeGuardError", "guard")}
        guards = [node for node in nodes if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "guard"]
        if guards:
            calls[path.name] = len(guards)
        # every cap is read inside a guard call, and only there, but for the
        # enumeration count helpers, which stop counting once past
        # MAX_OBJECTS and decide nothing: `_guard_walk` refuses
        counters = [node for node in nodes if path.name == "enumeration.py"
                    and isinstance(node, ast.FunctionDef) and node.name.endswith("_upto")]
        assert [node.name for node in counters] == (
            ["_product_upto", "_choose_upto", "_bell_upto"] if path.name == "enumeration.py"
            else [])
        in_guard = {id(n) for g in guards + counters for n in ast.walk(g)}
        cap_reads = [node for node in nodes if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load)
                     and (node.id.startswith("MAX_") or node.id == "TRIAL_DIVISION_BOUND")]
        assert all(id(node) in in_guard for node in cap_reads), (
            path.name, [node.lineno for node in cap_reads if id(node) not in in_guard])
        if path.name == "enumeration.py":
            # the oracle for counting's formulas calls none of them
            imported = {(node.module, a.name) for node in nodes
                        if isinstance(node, ast.ImportFrom) for a in node.names}
            assert {name for module, name in imported if module == "counting"} == {
                "TypeVector", "GergonneQuery"}
            assert (None, "counting") not in imported
    assert definers == {"exact_core.py"}
    assert calls == GUARD_CALLS


# the library's value classes: (build, repr, field values)
RECORDS = {
    "TypeVector": (lambda: counting.TypeVector(4, [0, 2, 0]),
                   "TypeVector(n=4, nu=(0, 2))", (4, (0, 2))),
    "GergonneQuery": (lambda: counting.GergonneQuery(5, 2, 1),
                      "GergonneQuery(n=5, k=2, m=1, circular=False)", (5, 2, 1, False)),
    "GergonneQuery circular": (lambda: counting.GergonneQuery(8, 3, 1, circular=True),
                               "GergonneQuery(n=8, k=3, m=1, circular=True)", (8, 3, 1, True)),
    "RsaKeyPair": (lambda: rsa_keygen(5, 11, 3),
                   "RsaKeyPair(p=5, q=11, n=55, phi=40, e=3, d=27)", (5, 11, 55, 40, 3, 27)),
    "SubsetFamily": (lambda: SubsetFamily(6, [[0, 2, 5], (), {3, 2}]),
                     "SubsetFamily(universe=6, masks=(37, 0, 12))", (6, (37, 0, 12))),
    "Check": (lambda: Check("gcd golden", False, "first failure 3"),
              "Check(name='gcd golden', ok=False, detail='first failure 3')",
              ("gcd golden", False, "first failure 3")),
}


@pytest.mark.parametrize("case", RECORDS)
def test_record_repr_equality_hash_and_immutability(case):
    build, text, values = RECORDS[case]
    record = build()
    assert isinstance(record, Record) and repr(record) == text
    assert record._values() == values
    # equal only to a record of the same class with the same fields
    assert record == build() and not record != build()
    assert record != values and values != record
    assert record != type("Other", (Record,), {"__slots__": record.__slots__})(*values)
    assert hash(record) == hash(build()) == hash(values)
    for name in (record.__slots__[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, record.__slots__[0])
    assert record._values() == values
    # nothing restores the slots past __setattr__, so a record has no copy
    for twin in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        with pytest.raises(AttributeError):
            twin(record)


def test_a_one_field_record_keeps_a_tuple_of_values():
    class Box(Record):
        __slots__ = ("item",)

        def __init__(self, item):
            super().__init__(item)

    box = Box((1, 2))
    assert box._values() == ((1, 2),) and hash(box) == hash(((1, 2),))
    assert box == Box((1, 2)) and box != Box((1, 3))
