"""Input checks and edge branches: each rejected call, its exception type and
its message, and the few branches that only an unusual input reaches."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

import exactcomb.counting as ct
import exactcomb.enumeration as en
import exactcomb.number_theory as nt
import exactcomb.poly_identities as pi
import exactcomb.poset_mobius as pm
import exactcomb.recursive_matrix as rm
from exactcomb.cli import run
from exactcomb.exact_core import SizeGuardError
from exactcomb.series import FormalSeries, exp_series, geometric_series

# (call, exception type, the whole message)
REJECTED = [
    (lambda: ct.binomial(-1, 0), ValueError, "n must be >= 0"),
    (lambda: ct.falling_factorial(3, -1), ValueError, "k must be >= 0"),
    (lambda: ct.rising_factorial(3, -1), ValueError, "k must be >= 0"),
    (lambda: ct.multiset_coeff(-1, 2), ValueError, "n and k must be >= 0"),
    (lambda: ct.gentile_coeff(2, -1, 3), ValueError, "n and k must be >= 0"),
    (lambda: ct.stirling2(2, -1), ValueError, "n and k must be >= 0"),
    (lambda: ct.cycle_count(2, -1), ValueError, "n and k must be >= 0"),
    (lambda: ct.bell(-1), ValueError, "n must be >= 0"),
    (lambda: ct.derangement(-1), ValueError, "n must be >= 0"),
    (lambda: ct.derangement_fixed(-1, 0), ValueError, "n and k must be >= 0"),
    (lambda: ct.surjection_count(2, -1), ValueError, "k and n must be >= 0"),
    (lambda: ct.graph_count("graph", -1), ValueError, "n must be >= 0"),
    (lambda: ct.graph_count("graph", 3, -1), ValueError, "k must be >= 0"),
    (lambda: ct.graph_count("multidigraph", 3, -1), ValueError, "k must be >= 0"),
    (lambda: ct.alternating_convolution(1, 1, -1), ValueError, "n, m, k must be >= 0"),
    (lambda: ct.lower_bound_solutions(0, 3, []), ValueError, "need at least one variable"),
    (lambda: ct.lower_bound_solutions(2, 3, [1, -1]), ValueError,
     "bounds must be nonnegative"),
    (lambda: nt.factorize(0), ValueError, "n must be >= 1"),
    (lambda: nt.factorize(10**13), SizeGuardError,
     "size guard exceeded: n=10000000000000 exceeds the trial-division bound"),
    (lambda: nt.phi_scan(0), ValueError, "n must be >= 1"),
    (lambda: nt.euler_phi(0), ValueError, "n must be >= 1"),
    (lambda: nt.mod_inverse(3, 1), ValueError, "modulus must be >= 2"),
    (lambda: nt.mod_inverse(0, 7), ValueError, "need 0 < x < n, got x=0, n=7"),
    (lambda: nt.mod_pow(2, -1, 7), ValueError, "exponent must be >= 0"),
    (lambda: nt.mod_pow(2, 3, 0), ValueError, "modulus must be >= 1"),
    (lambda: nt.fermat_exponent_check(2, -1, 1, 5), ValueError, "exponents must be >= 0"),
    (lambda: pi.rising_poly(-1), ValueError, "n must be >= 0"),
    (lambda: pi.falling_poly(-1), ValueError, "n must be >= 0"),
    (lambda: pi.power_to_falling(-1), ValueError, "n must be >= 0"),
    (lambda: pi.stirling_inverse_check(-1), ValueError, "n_max must be >= 0"),
    (lambda: pm.FinitePoset([1, 2], [(1, 3)]), ValueError,
     "relation pair (1, 3) outside element set"),
    (lambda: pm.FinitePoset.from_json("[1]"), ValueError, "expected a JSON object"),
    (lambda: pm.FinitePoset.from_json('{"elements": [1, 2], "leq": [[1]]}'), ValueError,
     "leq must be a list of [x, y] pairs of elements"),
    (lambda: pm.SubsetFamily.from_json('{"universe": 3, "sets": [[0, "a"]]}'), ValueError,
     "sets must be a list of lists of integers"),
    # JSON true and false are bools, which Python counts as ints
    (lambda: pm.SubsetFamily.from_json('{"universe": true, "sets": []}'), ValueError,
     "universe must be an integer"),
    (lambda: pm.SubsetFamily.from_json('{"universe": 3, "sets": [[true, 0]]}'), ValueError,
     "sets must be a list of lists of integers"),
    (lambda: pm.FinitePoset.from_json('{"elements": [1, false]}'), ValueError,
     "elements must be a list of strings or numbers"),
    (lambda: pm.FinitePoset.from_json('{"elements": [1, 2], "leq": [[1, true]]}'), ValueError,
     "leq must be a list of [x, y] pairs of elements"),
    (lambda: pm.FinitePoset.from_json('{"elements": [1, "1", 2], "leq": [[1, 2], ["1", 2]]}'),
     ValueError, "two elements have the text '1'"),
    (lambda: pm.FinitePoset.from_json('{"leq": []}'), ValueError,
     "missing key 'elements' in a poset file"),
    (lambda: pm.SubsetFamily.from_json('{"sets": []}'), ValueError,
     "missing key 'universe' in a subset family file"),
    (lambda: pm.SubsetFamily.from_json('{"universe": 3}'), ValueError,
     "missing key 'sets' in a subset family file"),
    (lambda: rm.RecursiveMatrix(FormalSeries([1, 1]), -1), ValueError,
     "order must be >= 0"),
    (lambda: rm.RecursiveMatrix(FormalSeries([1, Fraction(1, 2)]), 1), ValueError,
     "a recursive matrix needs an integer rule up to its order"),
    (lambda: rm.binomial_matrix(3).entry(-1, 0), ValueError, "row index must be >= 0"),
    (lambda: rm.binomial_matrix(3).vandermonde_convolve(1, 1, 4), IndexError,
     "column 4 out of range (order 3)"),
    (lambda: FormalSeries([]), ValueError,
     "a series needs at least its constant coefficient"),
    (lambda: FormalSeries([1, 2]).truncate(-1), ValueError, "order must be >= 0"),
    (lambda: FormalSeries([1, 2]) ** -1, ValueError, "series power needs n >= 0"),
    (lambda: geometric_series(-1), ValueError, "order must be >= 0"),
    (lambda: exp_series(-1), ValueError, "a series needs at least its constant coefficient"),
    (lambda: FormalSeries.zero(-1), ValueError,
     "a series needs at least its constant coefficient"),
    (lambda: next(en.enumerate_functions(-1, 2)), ValueError, "k and n must be >= 0"),
    (lambda: next(en.enumerate_multisets(-1, 2)), ValueError, "n and k must be >= 0"),
]


def _call_texts() -> list[str]:
    """The text of each REJECTED row's call, as this file writes it: a row's
    test id, so adding or deleting a row renames no other row's test."""
    source = Path(__file__).read_text()
    rows = next(node.value for node in ast.parse(source).body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "REJECTED")
    return [ast.get_source_segment(source, row.elts[0].body) for row in rows.elts]


REJECTED_IDS = _call_texts()
assert len(set(REJECTED_IDS)) == len(REJECTED_IDS) == len(REJECTED), "REJECTED ids must be unique"


@pytest.mark.parametrize("call, kind, message", REJECTED, ids=REJECTED_IDS)
def test_rejected_input(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


def test_edge_branches():
    a, b = FormalSeries([1, Fraction(1, 2), 3]), FormalSeries([2, 1])
    assert a - b == FormalSeries([-1, Fraction(-1, 2)])
    assert b.__eq__([2, 1]) is NotImplemented
    assert repr(b) == "FormalSeries([Fraction(2, 1), Fraction(1, 1)])"
    assert pi.poly_mul((), (1, 2)) == pi.poly_mul((1, 2), ()) == ()


@pytest.mark.parametrize("argv, message", [
    (["coeff", "multinomial"], "multinomial expects: n h1 [h2 ...]"),
    (["coeff", "graph", "graph"], "graph expects: kind n [k]"),
])
def test_cli_usage_errors(argv, message):
    assert run(argv, list) == (2, f"error: {message}")


def test_verbose_verify_prints_its_time(monkeypatch, capsys):
    monkeypatch.setenv("EXACTCOMB_VERBOSE", "1")
    assert run(["verify", "core"], list).code == 0
    assert re.fullmatch(r"ran \d+ checks in \d+\.\d\ds\n", capsys.readouterr().err)


def test_poset_invert_missing_value(tmp_path):
    poset, values = tmp_path / "chain.json", tmp_path / "g.json"
    poset.write_text('{"elements": [0, 1], "leq": [[0, 1]]}')
    values.write_text('{"0": "1"}')
    assert run(["poset", "invert", str(poset), str(values)], list) == (
        2, "error: missing value for element '1'")
