"""The import surface: a lazy package `__init__` and per-command imports.

Each CLI command runs in a fresh interpreter, as `python -m exactcomb`
does, and reports which modules it loaded.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exactcomb

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC.parent / "tests" / "data"

# the package surface before its imports became lazy: each home module and
# the names it exports, in the order of __all__
EXPORTS = {
    "exact_core": ["factorial", "gcd"],
    "series": ["FormalSeries", "geometric_series", "exp_series"],
    "recursive_matrix": ["RecursiveMatrix", "binomial_matrix", "multiset_matrix",
                         "gentile_matrix"],
    "counting": [
        "TypeVector", "GergonneQuery", "binomial", "falling_factorial",
        "rising_factorial", "multiset_coeff", "gentile_coeff", "multinomial",
        "stirling2", "bell", "faa_di_bruno", "cycle_count", "stirling1_signed",
        "cauchy_count", "derangement", "derangement_fixed", "surjection_count",
        "lower_bound_solutions", "gergonne", "touchard", "menage_count",
        "birthday_probability", "graph_count", "alternating_convolution",
        "iter_type_vectors",
    ],
    "poset_mobius": [
        "FinitePoset", "IncidenceFunction", "PosetError", "SubsetFamily", "mobius",
        "delta_check", "accumulate", "accumulate_dual", "invert", "invert_dual",
        "boolean_lattice", "divisor_poset", "product_poset",
        "sylvester_numbers", "sylvester_count", "jordan_counts", "sieve_counts",
    ],
}
ALL = [name for names in EXPORTS.values() for name in names]
DUNDERS = ["__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
           "__name__", "__package__", "__path__", "__spec__", "__version__"]
MODULES = ["counting", "exact_core", "number_theory", "poset_mobius", "recursive_matrix",
           "series"]
DIR = sorted(ALL + DUNDERS + MODULES)

# runs `python -m exactcomb <args>` in this interpreter, then prints the exit
# code and every module it loaded as one JSON line; `json` is imported only
# once that list is taken
PROBE = """
import runpy, sys
try:
    runpy.run_module("exactcomb", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
modules = sorted(sys.modules)
import json
print(json.dumps([code, modules]))
"""

HEAVY = {"exactcomb.verify", "exactcomb.enumeration", "exactcomb.poset_mobius"}
# standard-library modules that no command needs: `dataclasses` alone
# imports `inspect`, `ast`, `dis` and `tokenize`, about 10 ms of start-up
START_UP = {"dataclasses", "inspect"}
# stands for the path of a small subset-family JSON file in argv
FAMILY = "<family.json>"


def fresh(*code_and_args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", *code_and_args], capture_output=True,
                          text=True, env=env, timeout=120)


def command(*argv: str) -> tuple[int, list[str], subprocess.CompletedProcess]:
    proc = fresh(PROBE, *argv)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, modules, proc


@pytest.mark.parametrize("argv, absent", [
    (["coeff", "binomial", "6", "3"], HEAVY | {"exactcomb.recursive_matrix", "exactcomb.series"}),
    (["coeff", "phi", "360"], HEAVY | {"exactcomb.recursive_matrix", "exactcomb.series"}),
    (["table", "binomial", "--rows", "5", "--cols", "5"], HEAVY),
    (["rsa", "encrypt", "--n", "25", "--e", "3", "--m", "14"], HEAVY),
])
def test_command_loads_only_its_modules(argv, absent):
    code, modules, proc = command(*argv)
    assert code == 0, proc.stderr
    assert not (absent | START_UP) & set(modules), modules


@pytest.mark.parametrize("argv, loaded", [
    (["enumerate", "subsets", "3"], "exactcomb.enumeration"),
    (["verify", "--list"], "exactcomb.verify"),
    (["table", "stirling2", "--rows", "3", "--cols", "3"], "exactcomb.counting"),
    (["verify", "numbers"], "exactcomb.verify"),
    (["poset", "sieve", FAMILY], "exactcomb.poset_mobius"),
    (["enumerate", "partitions", "4"], "exactcomb.enumeration"),
])
def test_command_loads_its_own_module(argv, loaded, tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"universe": 4, "sets": [[0, 1], [1, 2]]}))
    code, modules, proc = command(*(str(family) if a == FAMILY else a for a in argv))
    assert code == 0, proc.stderr
    assert loaded in modules
    assert not START_UP & set(modules), modules
    if argv[0] == "table":  # rows read from the coeff table need no matrix
        assert "exactcomb.recursive_matrix" not in modules


@pytest.mark.parametrize("argv, loads_json", [
    (["table", "binomial", "--rows", "5", "--cols", "5", "--format", "csv"], False),
    (["verify", "core"], False),
    (["coeff", "binomial", "6", "3"], False),
    (["enumerate", "subsets", "3"], False),
    (["table", "binomial", "--rows", "2", "--cols", "2", "--format", "json"], True),
])
def test_only_json_commands_load_json(argv, loads_json):
    code, modules, proc = command(*argv)
    assert code == 0, proc.stderr
    assert ("json" in modules) is loads_json and "csv" not in modules, modules


# `fractions` imports `decimal`: a command loads both (it reads or makes a
# fraction) or neither
FRACTIONS = {"fractions", "decimal"}


@pytest.mark.parametrize("argv, fractions, number_theory", [
    (["coeff", "binomial", "6", "3"], False, False),
    (["coeff", "stirling2", "9", "4"], False, False),
    (["enumerate", "subsets", "3"], False, False),
    (["table", "stirling2", "--rows", "3", "--cols", "3"], False, False),
    # the commands that factor
    (["coeff", "phi", "360"], False, True),
    (["coeff", "mobius", "30"], False, True),
    (["rsa", "encrypt", "--n", "25", "--e", "3", "--m", "14"], False, True),
    (["rsa", "keygen", "--p", "61", "--q", "53", "--e", "17"], False, True),
    # the commands that make or read a fraction
    (["coeff", "gergonne", "12", "4", "1", "--circular"], True, False),
    (["coeff", "birthday", "23"], True, False),
    (["poset", "invert", str(DATA / "boolean3.json"), str(DATA / "boolean3_values.json")],
     True, False),
    # the commands that print only integers, though their modules hold fractions
    (["poset", "mobius", str(DATA / "boolean3.json")], False, False),
    (["poset", "sieve", str(DATA / "family.json")], False, False),
    (["table", "binomial", "--rows", "3", "--cols", "3"], False, False),
    (["table", "gentile", "--rows", "3", "--cols", "3", "--p", "2"], False, False),
])
def test_fractions_and_number_theory_load_only_where_used(argv, fractions, number_theory):
    code, modules, proc = command(*argv)
    assert code == 0, proc.stderr
    assert FRACTIONS & set(modules) == (FRACTIONS if fractions else set()), modules
    assert ("exactcomb.number_theory" in modules) is number_theory, modules


@pytest.mark.parametrize("argv", [
    ["-h"],
    ["coeff", "-h"],
    ["coeff", "stirling2", "9", "4"],
    ["coeff", "gergonne", "12", "4", "1", "--circular"],
    ["table", "stirling2", "--rows", "3", "--cols", "3"],
    ["enumerate", "menage", "4"],
    ["verify", "--list"],
    ["poset", "mobius", str(DATA / "boolean3.json")],
    ["rsa", "keygen", "--p", "61", "--q", "53", "--e", "17"],
])
def test_only_the_other_commands_load_their_handler_module(argv):
    code, modules, proc = command(*argv)
    assert code == 0, proc.stderr
    other = argv[0] in {"table", "enumerate", "verify", "poset", "rsa"}
    assert ("exactcomb.commands" in modules) is other, modules


# each run in a fresh interpreter, on whose first error path `fractions` is
# loaded; prints what it saw as one JSON line
QUOTIENT_FIRST = """
import json, sys
from exactcomb import exact_core as ec
seen = ["fractions" in sys.modules, ec.format_rational(0), ec.format_rational(-12)]
seen.append("fractions" in sys.modules)
try:
    ec.exact_quotient(("step", 4), 7, 3)
except ArithmeticError as exc:
    seen.append(str(exc))
print(json.dumps(seen))
"""
AGREE_FIRST = """
import json, sys
from exactcomb import exact_core as ec
seen = ["fractions" in sys.modules]
from fractions import Fraction
try:
    ec.agree("routes", Fraction(1, 2), Fraction(-7, 3), 5)
except ArithmeticError as exc:
    seen.append(str(exc))
seen += [ec.format_rational(Fraction(4, 1)), ec.format_rational(Fraction(-7, 3))]
seen += [[type(q).__name__, str(q)] for q in map(ec.parse_rational, ["3", "6/4"])]
print(json.dumps(seen))
"""


def test_error_paths_format_fractions_in_a_fresh_interpreter():
    proc = fresh(QUOTIENT_FIRST)
    assert json.loads(proc.stdout) == [
        False, "0", "-12", False, "internal inconsistency: step(4) is non-integer 7/3"]
    proc = fresh(AGREE_FIRST)
    assert json.loads(proc.stdout) == [
        False, "internal inconsistency in routes: routes gave (1/2, -7/3, 5)",
        "4", "-7/3", ["Fraction", "3"], ["Fraction", "3/2"]]


def test_poset_error_in_fresh_process(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"elements": [1, 2, 3], "leq": [[1, 2], [2, 3]]}))
    code, modules, proc = command("poset", "mobius", str(bad))
    assert code == 2 and "exactcomb.poset_mobius" in modules
    assert proc.stderr == ("error: not a partial order: transitivity violated: "
                           "1 <= 2 <= 3 but not 1 <= 3 (witness (1, 2, 3))\n")
    # other ValueErrors keep the plain message
    code, _, proc = command("coeff", "binomial", "-1", "0")
    assert code == 2 and proc.stderr == "error: n must be >= 0\n"


# runs `python -m exactcomb.cli <args>` in this interpreter and prints the
# exit code, how many times cli.py was executed, and the name of the module
# registered as exactcomb.cli
RUN_CLI = """
import json, runpy, sys
runs = []
sys.addaudithook(lambda event, args: event == "exec"
                 and args[0].co_filename.endswith("cli.py") and runs.append(1))
sys.argv[0] = "exactcomb.cli"
try:
    runpy.run_module("exactcomb.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, len(runs), sys.modules["exactcomb.cli"].__name__]))
"""


def test_cli_module_run_as_main_is_loaded_once():
    # `commands` imports from `exactcomb.cli`, which is the running module
    proc = fresh(RUN_CLI, "table", "binomial", "--rows", "2", "--cols", "2")
    assert proc.stdout.splitlines() == ["1,0", "1,1", json.dumps([0, 1, "__main__"])]


def test_importtime_lists_a_submodule_loaded_through_the_package():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "from exactcomb import counting"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert [line.split("|")[-1].strip() for line in proc.stderr.splitlines()
            if "exactcomb" in line] == ["exactcomb", "exactcomb.exact_core",
                                        "exactcomb.counting"]


def test_import_exactcomb_loads_no_module_and_keeps_dir():
    proc = fresh("import exactcomb, json, sys; print(json.dumps([exactcomb.__all__, "
                 "dir(exactcomb), sorted(m for m in sys.modules if 'exactcomb' in m)]))")
    names, listing, modules = json.loads(proc.stdout)
    assert names == ALL
    assert listing == DIR
    assert modules == ["exactcomb"]


def test_every_name_resolves_to_its_home_object():
    assert exactcomb.__all__ == ALL and exactcomb.__version__ == "0.1.0"
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"exactcomb.{module}")
        for name in names:
            assert getattr(exactcomb, name) is getattr(home, name), name
    for module in MODULES:
        assert getattr(exactcomb, module) is importlib.import_module(f"exactcomb.{module}")
    assert set(DIR) <= set(dir(exactcomb))
    namespace: dict = {}
    exec("from exactcomb import *", namespace)
    assert {n: namespace[n] for n in ALL} == {n: getattr(exactcomb, n) for n in ALL}
    from exactcomb import binomial, boolean_lattice  # noqa: F401
    assert binomial(6, 3) == 20


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        exactcomb.no_such_name
    with pytest.raises(ImportError):
        from exactcomb import no_such_name  # noqa: F401
