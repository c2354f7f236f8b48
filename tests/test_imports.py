"""The import surface: a lazy package `__init__` and per-command imports.

Each CLI command runs in a fresh interpreter, as `python -m exactcomb`
does, and reports which modules it loaded.
"""

import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exactcomb
from exactcomb.verify import SUITES

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

# the standard-library modules whose loading the table below pins down:
# `fractions` imports `decimal`, so a command loads both (it reads or makes a
# fraction) or neither; `dataclasses` alone imports `inspect`, `ast`, `dis`
# and `tokenize`, about 10 ms of start-up, and no command needs it
WATCHED = {"json", "csv", "fractions", "decimal", "dataclasses", "inspect"}

# the exactcomb.* modules of a command: `coeff` and the help texts need the
# root parser alone; the other commands build theirs from `commands`
COEFF = "cli counting exact_core"
HANDLER = COEFF + " commands"
MATRIX = HANDLER + " recursive_matrix series"
VERIFY = HANDLER + " verify"
# a full `verify` loads every module of the library and every suite's module
EVERY = " ".join([MATRIX, "enumeration number_theory poly_identities poset_mobius verify",
                  *(f"verify.{suite}" for suite in SUITES)])
BOOLEAN3 = str(DATA / "boolean3.json")

# (argv, every exactcomb.* module it loads, the modules of WATCHED it loads)
LOADS = [
    (["-h"], COEFF, ""),
    (["coeff", "-h"], COEFF, ""),
    (["coeff", "binomial", "6", "3"], COEFF, ""),
    (["coeff", "stirling2", "9", "4"], COEFF, ""),
    # gentile's rows are built by series.convolve; with k <= p there is no row
    (["coeff", "gentile", "2", "3", "3"], COEFF + " series", ""),
    (["coeff", "gentile", "5", "3", "2"], COEFF, ""),
    # the commands that factor
    (["coeff", "phi", "360"], COEFF + " number_theory", ""),
    (["coeff", "mobius", "30"], COEFF + " number_theory", ""),
    # the commands that make a fraction
    (["coeff", "gergonne", "12", "4", "1", "--circular"], COEFF, "fractions decimal"),
    (["coeff", "birthday", "23"], COEFF, "fractions decimal"),
    # a CSV table is written without `csv`, and only a JSON one loads `json`
    (["table", "binomial", "--rows", "3", "--cols", "3"], MATRIX, ""),
    (["table", "binomial", "--rows", "5", "--cols", "5", "--format", "csv"], MATRIX, ""),
    (["table", "binomial", "--rows", "2", "--cols", "2", "--format", "json"], MATRIX, "json"),
    (["table", "gentile", "--rows", "3", "--cols", "3", "--p", "2"], MATRIX, ""),
    # rows read from the coeff table need no matrix
    (["table", "stirling2", "--rows", "3", "--cols", "3"], HANDLER, ""),
    (["enumerate", "subsets", "3"], HANDLER + " enumeration", ""),
    (["enumerate", "partitions", "4"], HANDLER + " enumeration", ""),
    (["enumerate", "menage", "4"], HANDLER + " enumeration", ""),
    # `verify` with suites named loads their modules and what they call, and
    # `--list` no suite's module
    (["verify", "--list"], VERIFY, ""),
    (["verify", "core"], VERIFY + " verify.core", ""),
    (["verify", "numbers"], VERIFY + " number_theory verify.numbers", ""),
    (["verify", "series"], VERIFY + " series verify.series", "fractions decimal"),
    (["verify", "mobius"], VERIFY + " number_theory poset_mobius verify.mobius",
     "fractions decimal"),
    (["verify"], EVERY, "fractions decimal"),
    # poset files are JSON; mobius and sieve print only integers, though
    # poset_mobius holds fractions, and invert reads them
    (["poset", "mobius", BOOLEAN3], HANDLER + " poset_mobius", "json"),
    (["poset", "invert", BOOLEAN3, str(DATA / "boolean3_values.json")],
     HANDLER + " poset_mobius", "json fractions decimal"),
    (["poset", "sieve", str(DATA / "family.json")], HANDLER + " poset_mobius", "json"),
    (["rsa", "encrypt", "--n", "25", "--e", "3", "--m", "14"], HANDLER + " number_theory", ""),
    (["rsa", "keygen", "--p", "61", "--q", "53", "--e", "17"], HANDLER + " number_theory", "json"),
]


def fresh(*code_and_args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", *code_and_args], capture_output=True,
                          text=True, env=env, timeout=120)


def command(*argv: str) -> tuple[int, list[str], subprocess.CompletedProcess]:
    proc = fresh(PROBE, *argv)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, modules, proc


@functools.cache
def loads(argv: tuple[str, ...]) -> frozenset[str]:
    """The modules that `argv` loads, from one fresh interpreter per argv."""
    code, modules, proc = command(*argv)
    assert code == 0, proc.stderr
    return frozenset(modules)


LOAD_IDS = [" ".join(argv).replace(f"{DATA}/", "") for argv, _, _ in LOADS]


# each row of LOADS is checked by the two tests below, one per side; both
# read the same probe run
@pytest.mark.parametrize("argv, ours, watched", LOADS, ids=LOAD_IDS)
def test_command_loads_exactly_its_modules(argv, ours, watched):
    modules = loads(tuple(argv))
    assert sorted(m for m in modules if m.startswith("exactcomb.")) == sorted(
        f"exactcomb.{m}" for m in ours.split()), sorted(modules)


@pytest.mark.parametrize("argv, ours, watched", LOADS, ids=LOAD_IDS)
def test_command_loads_exactly_its_watched_stdlib_modules(argv, ours, watched):
    modules = loads(tuple(argv))
    assert WATCHED & modules == set(watched.split()), sorted(modules)


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
