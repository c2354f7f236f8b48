import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import exactcomb.counting as ct
import exactcomb.number_theory as nt
import exactcomb.poset_mobius as pm
import exactcomb.verify as vf
import exactcomb.verify.core as verify_core
from exactcomb import cli, commands
from exactcomb.cli import main, run
from exactcomb.exact_core import parse_int, parse_rational


def out(argv):
    lines = []
    assert run(argv, lines.extend) == (0, "")
    return "\n".join(lines)


def test_coeff_golden():
    assert out(["coeff", "binomial", "3", "2"]) == "3"
    assert out(["coeff", "bell", "0"]) == "1"
    assert out(["coeff", "phi", "210"]) == "48"
    assert out(["coeff", "stirling2", "4", "2"]) == "7"
    assert out(["coeff", "stirling1", "3", "2"]) == "-3"
    assert out(["coeff", "cycles", "4", "2"]) == "11"
    assert out(["coeff", "derangement", "4"]) == "9"
    assert out(["coeff", "dnk", "4", "1"]) == "8"
    assert out(["coeff", "multiset", "3", "4"]) == "15"
    assert out(["coeff", "gentile", "2", "3", "3"]) == "7"
    assert out(["coeff", "multinomial", "4", "2", "1", "1"]) == "12"
    assert out(["coeff", "faa", "4", "0", "2"]) == "3"
    assert out(["coeff", "cauchy", "3", "0", "0", "1"]) == "2"
    assert out(["coeff", "surjections", "4", "2"]) == "14"
    assert out(["coeff", "touchard", "5"]) == "13"
    assert out(["coeff", "menage", "3"]) == "12"
    assert out(["coeff", "mobius", "30"]) == "-1"
    assert out(["coeff", "graph", "graph", "3"]) == "8"
    assert out(["coeff", "graph", "multigraph", "3", "2"]) == "6"


def test_coeff_gergonne_and_birthday():
    assert out(["coeff", "gergonne", "5", "2", "1"]) == "6 3/5"
    assert out(["coeff", "gergonne", "4", "2", "1", "--circular"]).startswith("2 ")
    p23 = parse_rational(out(["coeff", "birthday", "23"]))
    p22 = parse_rational(out(["coeff", "birthday", "22"]))
    assert p22 < parse_rational("1/2") < p23
    assert out(["coeff", "birthday", "3", "--days", "4"]) == "5/8"


def test_coeff_usage_errors():
    assert run(["coeff", "binomial", "3"], list).code == 2
    assert run(["coeff", "binomial", "x", "y"], list).code == 2
    assert run(["coeff", "unknown-family", "1"], list).code == 2
    assert run(["coeff", "graph", "multigraph", "3"], list).code == 2  # k required


def test_numeric_roundtrip():
    for argv in (
        ["coeff", "binomial", "40", "20"],
        ["coeff", "bell", "25"],
        ["coeff", "derangement", "30"],
    ):
        text = out(argv)
        assert str(parse_int(text)) == text
    frac = out(["coeff", "birthday", "10"])
    r = parse_rational(frac)
    assert f"{r.numerator}/{r.denominator}" == frac


def test_table_csv_and_json():
    csv_text = out(["table", "binomial", "--rows", "4", "--cols", "5"])
    assert csv_text.splitlines() == [
        "1,0,0,0,0", "1,1,0,0,0", "1,2,1,0,0", "1,3,3,1,0",
    ]
    gent = out(["table", "gentile", "--p", "2", "--rows", "4", "--cols", "7"])
    assert gent.splitlines()[3] == "1,3,6,7,6,3,1"
    multi = out(["table", "multiset", "--rows", "4", "--cols", "5"])
    assert multi.splitlines()[3] == "1,3,6,10,15"
    stir = out(["table", "stirling2", "--rows", "5", "--cols", "5"])
    assert stir.splitlines()[4] == "0,1,7,6,1"
    data = json.loads(
        out(["table", "cycles", "--rows", "5", "--cols", "5", "--format", "json"])
    )
    assert data["rows"][4] == ["0", "6", "11", "6", "1"]
    assert data["rows"][3] == ["0", "2", "3", "1", "0"]


@pytest.mark.parametrize("family", list(commands.TABLE))
def test_table_json_is_the_whole_document_dumped(family):
    # written row by row, the JSON keeps the bytes of one json.dumps of the
    # whole table, whose entries are those of the CSV
    argv = ["table", family, "--rows", "7", "--cols", "5", "--p", "2"]
    rows = [line.split(",") for line in out(argv).splitlines()]
    assert out([*argv, "--format", "json"]) == json.dumps({"family": family, "rows": rows})


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("family, rows, cols, cell", [
    ("binomial", 120, 130, ct.binomial),
    ("multiset", 36, 36, ct.multiset_coeff),
    ("gentile", 100, 101, lambda n, k: ct.gentile_coeff(3, n, k)),
], ids=["binomial", "multiset", "gentile"])
def test_matrix_tables_match_counting_routes(family, rows, cols, cell, fmt):
    # benchmark-sized tables from the RecursiveMatrix rows, cell by cell
    # against the counting functions, which never use recursive_matrix
    argv = ["table", family, "--rows", str(rows), "--cols", str(cols), "--format", fmt]
    text = out(argv + (["--p", "3"] if family == "gentile" else []))
    if fmt == "json":
        data = json.loads(text)
        assert data["family"] == family
        grid = data["rows"]
    else:
        grid = [line.split(",") for line in text.split("\n")]
    assert grid == [[str(cell(n, k)) for k in range(cols)] for n in range(rows)]


def test_table_usage_errors():
    assert run(["table", "gentile", "--rows", "3", "--cols", "3"], list).code == 2  # no --p
    assert run(["table", "binomial", "--rows", "0", "--cols", "3"], list).code == 2
    assert run(["table", "binomial", "--rows", "9999", "--cols", "3"], list).code == 2


def test_enumerate():
    words = out(["enumerate", "functions", "2", "2"]).splitlines()
    assert words == ["11", "12", "21", "22"]
    assert out(["enumerate", "menage", "3"]) == "312"
    lines = out(["enumerate", "partitions", "3"]).splitlines()
    assert "{1,2,3}" in lines and "{1}|{2}|{3}" in lines
    limited = out(["enumerate", "subsets", "5", "--limit", "3"]).splitlines()
    assert len(limited) == 4 and limited[-1] == "..."
    derang = out(["enumerate", "permutations", "3", "--derangements"]).splitlines()
    assert derang == ["231", "312"]
    assert run(["enumerate", "permutations", "11"], list).code == 2  # size guard
    # one vector per line, built without a stack frame per slot
    assert len(out(["enumerate", "multisets", "2000", "1"]).splitlines()) == 2000
    assert run(["enumerate", "subsets", "3", "--limit", "-1"], list).code == 2


@pytest.mark.parametrize("argv", [
    ["multisets", "1", "100000000"],
    ["multisets", "2", "300000"],
    ["gergonne", "2000000", "1000000", "0"],
    ["functions", "30000000", "10"],
])
def test_oversized_enumeration_is_refused_at_once(argv):
    # each of these once spent a minute or more deciding its size guard
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "exactcomb", "enumerate", *argv],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: size guard exceeded: ")


def test_verify_suites():
    errata = out(["verify", "errata"])
    assert "pass" in errata.lower()
    # both the computed value and the guarded misprint are reported
    assert "computed 9" in errata and "misprint 6" in errata
    assert run(["verify", "stirling"], list).code == 0
    assert "U3=1 U4=2 U5=13" in out(["verify", "menage"])
    listing = out(["verify", "--list"]).splitlines()
    assert "mobius" in listing and "menage" in listing
    assert run(["verify", "not-a-suite"], list).code == 2


def test_poset_mobius_command(tmp_path):
    poset = tmp_path / "b2.json"
    poset.write_text(
        json.dumps(
            {
                "elements": ["0", "1", "2", "12"],
                "leq": [
                    ["0", "1"], ["0", "2"], ["0", "12"], ["1", "12"], ["2", "12"],
                ],
            }
        )
    )
    lines = out(["poset", "mobius", str(poset)]).splitlines()
    assert "0,12,1" in lines  # mu(bottom, top) = +1 on the 2-set lattice
    assert "0,1,-1" in lines
    data = json.loads(out(["poset", "mobius", str(poset), "--format", "json"]))
    assert ["0", "12", "1"] in data["mobius"]


def test_poset_malformed_reports_witness(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"elements": [1, 2, 3], "leq": [[1, 2], [2, 3]]})
    )
    result = run(["poset", "mobius", str(bad)], list)
    assert result.code == 2
    assert "transitivity" in result.error and "witness" in result.error
    for subcmd, data in (
        ("sieve", {"universe": "10", "sets": []}),
        ("mobius", {"elements": [[1], [2]], "leq": []}),
        ("mobius", {"elements": 5}),
        ("sieve", {"universe": True, "sets": []}),
        ("mobius", {"elements": [1, "1", 2], "leq": [[1, 2], ["1", 2]]}),
    ):
        bad.write_text(json.dumps(data))
        result = run(["poset", subcmd, str(bad)], list)
        assert result.code == 2 and result.error.startswith("error: "), data


def test_poset_invert_command(tmp_path):
    poset = tmp_path / "chain.json"
    poset.write_text(
        json.dumps({"elements": [0, 1, 2], "leq": [[0, 1], [0, 2], [1, 2]]})
    )
    values = tmp_path / "g.json"
    # g = accumulated sums of f = (1, 2, 3)
    values.write_text(json.dumps({"0": "1", "1": "3", "2": "6"}))
    data = json.loads(out(["poset", "invert", str(poset), str(values)]))
    assert data == {"0": "1", "1": "2", "2": "3"}
    dual = json.loads(
        out(["poset", "invert", str(poset), str(values), "--dual"])
    )
    assert dual == {"0": "-2", "1": "-3", "2": "6"}
    values.write_text("5")
    assert run(["poset", "invert", str(poset), str(values)], list).code == 2
    values.write_text(json.dumps({"0": "1/0", "1": "3", "2": "6"}))
    assert run(["poset", "invert", str(poset), str(values)], list) == (
        2, "error: zero denominator in '1/0'"
    )


def test_poset_sieve_command(tmp_path):
    family = tmp_path / "family.json"
    family.write_text(
        json.dumps({"universe": 10, "sets": [[0, 1, 2, 3], [2, 3, 4]]})
    )
    data = json.loads(out(["poset", "sieve", str(family)]))
    assert data["sylvester"] == ["10", "7", "2"]
    assert data["survivors"] == "5"
    assert data["exactly"] == ["5", "3", "2"]


def test_poset_sieve_fixed_point_family(tmp_path):
    from exactcomb.verify.sieve import derangement_family

    family = tmp_path / "derangement4.json"
    fam = derangement_family(4)
    sets = [[x for x in range(fam.universe) if mask >> x & 1] for mask in fam.masks]
    family.write_text(json.dumps({"universe": fam.universe, "sets": sets}))
    data = json.loads(out(["poset", "sieve", str(family)]))
    assert data["survivors"] == "9"
    assert data["exactly"] == ["9", "8", "6", "0", "1"]


def test_rsa_commands():
    key = json.loads(out(["rsa", "keygen", "--p", "5", "--q", "11", "--e", "3"]))
    assert key["d"] == "27" and key["n"] == "55"
    assert out(["rsa", "encrypt", "--n", "25", "--e", "3", "--m", "14"]) == "19"
    assert out(["rsa", "decrypt", "--n", "25", "--d", "7", "--c", "19"]) == "14"
    assert run(["rsa", "keygen", "--p", "5", "--q", "5", "--e", "3"], list).code == 2
    assert run(["rsa", "encrypt", "--n", "25", "--e", "3", "--m", "1"], list).code == 2


def test_route_disagreement_exits_1(monkeypatch, capsys):
    binomial = pm.binomial
    # S_1 overcounted: it no longer matches the sum of the set sizes
    monkeypatch.setattr(pm, "binomial", lambda n, k: binomial(n, k) + (k == 1))
    lines = []
    assert run(["verify", "sieve", "errata"], lines.extend) == (1, "")
    # each sieve check fails on its own line; the errata checks still run
    assert lines[0].startswith("FAIL  sieve: derangement families via sieve  "
                               "[raised ArithmeticError: internal inconsistency in sieve")
    assert lines[1].startswith("FAIL  sieve: random families: exactly-m counts by scan  "
                               "[raised ArithmeticError: ")
    assert all(line.startswith("PASS  errata: ") for line in lines[2:-1])
    assert lines[-1] == f"{len(lines) - 3}/{len(lines) - 1} checks passed, 2 FAILED"

    # C(9, 4) has j = 4, so its second route is the falling factorial
    monkeypatch.setattr(ct, "_binomial_falling", lambda n, j: 0)
    ct.binomial.cache_clear()
    assert main(["coeff", "binomial", "9", "4"]) == 1
    assert capsys.readouterr() == (
        "", "error: internal inconsistency in binomial(9,4): routes gave (126, 0)\n"
    )


@pytest.mark.parametrize("wrong", [1, 2, 4])
def test_multinomial_catches_a_wrong_factorial(monkeypatch, capsys, wrong):
    # 4!/(2! 1! 1!) against C(2, 2) C(3, 1) C(4, 1): one factorial off by one
    # leaves a quotient that is not whole, or one the binomials disagree with
    factorial = ct.factorial
    monkeypatch.setattr(ct, "factorial", lambda n: factorial(n) + (n == wrong))
    ct.binomial.cache_clear()
    assert main(["coeff", "multinomial", "4", "2", "1", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: internal inconsistency")
    ct.binomial.cache_clear()


def test_coeff_binomial_runs_the_legendre_route(monkeypatch, capsys):
    # a one-shot C(2000, 1000) takes the Legendre route, and a wrong
    # Legendre product makes it exit 1
    calls = []
    legendre = ct._binomial_legendre
    monkeypatch.setattr(ct, "_binomial_legendre",
                        lambda n, k: calls.append((n, k)) or legendre(n, k))
    ct.binomial.cache_clear()
    assert main(["coeff", "binomial", "2000", "1000"]) == 0
    assert calls == [(2000, 1000)]
    assert capsys.readouterr().out.strip() == str(math.comb(2000, 1000))
    monkeypatch.setattr(ct, "_binomial_legendre", lambda n, k: legendre(n, k) + 1)
    ct.binomial.cache_clear()
    assert main(["coeff", "binomial", "2000", "1000"]) == 1
    assert capsys.readouterr().err.startswith("error: internal inconsistency")
    ct.binomial.cache_clear()


def test_coeff_gentile_catches_a_wrong_product(monkeypatch, capsys):
    # gentile's rows are built by convolve, each up to its middle; one made 1
    # too large at column 3 of rows 3 and up (row 3's middle, since p = 2)
    # fails Miller's check of the top row, and the table keeps none of the
    # rows that extension built
    import exactcomb.series as series

    convolve = series.convolve

    def wrong(a, b):
        row = convolve(a, b)
        if len(row) > 3:
            row[3] += 1
        return row

    monkeypatch.setattr(series, "convolve", wrong)
    ct._gentile_table.cache_clear()
    try:
        assert main(["coeff", "gentile", "2", "3", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: internal inconsistency")
        assert "gentile row(2,3)" in err
        assert ct._gentile_table(2)._rows == [[1]]
    finally:
        ct._gentile_table.cache_clear()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("family, builder, options", [
    ("binomial", "binomial_matrix", []), ("multiset", "multiset_matrix", []),
    ("gentile", "gentile_matrix", ["--p", "3"])])
def test_table_catches_a_wrong_product(monkeypatch, capsys, family, builder, options, fmt):
    # every matrix row is a convolve product; one made 1 too large at column 5
    # fails Miller's check of the top row, so the command exits 1 with nothing
    # on stdout, and the matrix keeps only its row 0
    import exactcomb.recursive_matrix as rm

    convolve, build, built = rm.convolve, getattr(rm, builder), []

    def wrong(a, b):
        row = convolve(a, b)
        if len(row) > 6:
            row[5] += 1
        return row

    monkeypatch.setattr(rm, "convolve", wrong)
    monkeypatch.setattr(rm, builder, lambda *args: built.append(build(*args)) or built[-1])
    argv = ["table", family, "--rows", "9", "--cols", "8", "--format", fmt, *options]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal inconsistency")
    assert "matrix row(" in captured.err
    [matrix] = built
    assert matrix._table._rows == [[1] + [0] * 7]


def test_console_entry_point(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "exactcomb", "coeff", "binomial", "6", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "20"
    bad = subprocess.run(
        [sys.executable, "-m", "exactcomb", "coeff", "binomial", "6"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2


def test_wide_disagreement_exits_1(monkeypatch, capsys):
    # C(10^6, 1500) has about 4900 digits, past CPython's default limit for
    # int-to-str conversion; the message names it by size and stays short
    monkeypatch.setattr(ct, "_binomial_falling", lambda n, j: 0)
    ct.binomial.cache_clear()
    expected = (
        "error: internal inconsistency in binomial(1000000,1500): "
        f"routes gave (<{math.comb(10**6, 1500).bit_length()}-bit int>, 0)"
    )
    assert run(["coeff", "binomial", "1000000", "1500"], list) == (1, expected)
    assert main(["coeff", "binomial", "1000000", "1500"]) == 1
    assert capsys.readouterr() == ("", expected + "\n")
    ct.binomial.cache_clear()


def test_main_lifts_the_digit_limit_only_while_it_runs(capsys, digit_limit):
    # run() keeps the caller's limit; main() prints answers of any length
    digit_limit(4300)
    assert run(["coeff", "graph", "graph", "200"], list).code == 2
    assert main(["coeff", "graph", "graph", "200"]) == 0
    assert sys.get_int_max_str_digits() == 4300
    printed = capsys.readouterr().out
    digit_limit(0)
    assert printed == f"{2**19900}\n"


def test_answers_past_the_digit_limit_print_in_full(digit_limit):
    def derangements(m):  # d_m = m d_{m-1} + (-1)^m
        d = 1
        for i in range(1, m + 1):
            d = i * d + (-1) ** i
        return d

    expected = {
        ("binomial", "20000", "10000"): math.comb(20000, 10000),
        ("graph", "graph", "200"): 2**19900,
        ("dnk", "2000", "3"): math.comb(2000, 3) * derangements(1997),
    }
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    procs = {
        args: subprocess.Popen([sys.executable, "-m", "exactcomb", "coeff", *args], env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for args in expected
    }
    digit_limit(0)
    for args, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=60)
        assert (proc.returncode, stderr) == (0, ""), args
        assert len(stdout) > 4300 and stdout == f"{expected[args]}\n", args


def test_poset_mobius_rows_follow_a_linear_extension(tmp_path):
    # the divisors of 12, listed downwards: neither the element list nor
    # numeric order is a linear extension, and mu(1, 4) = mu(1, 12) = 0
    divisors = [12, 6, 4, 3, 2, 1]
    poset = tmp_path / "d12.json"
    poset.write_text(json.dumps({
        "elements": divisors,
        "leq": [[a, b] for a in divisors for b in divisors if a != b and b % a == 0],
    }))
    # x in element order, the y of each x in linear-extension order
    expected = [
        "12,12,1", "6,6,1", "6,12,-1", "4,4,1", "4,12,-1", "3,3,1", "3,6,-1",
        "3,12,0", "2,2,1", "2,4,-1", "2,6,-1", "2,12,1", "1,1,1", "1,3,-1",
        "1,2,-1", "1,4,0", "1,6,1", "1,12,0",
    ]
    assert out(["poset", "mobius", str(poset)]).splitlines() == expected
    data = json.loads(out(["poset", "mobius", str(poset), "--format", "json"]))
    assert [",".join(map(str, t)) for t in data["mobius"]] == expected


def _raises(exc):
    def fail(*args):
        raise exc
    return fail


@pytest.mark.parametrize("module, name, exc, affected", [
    (ct, "touchard", ValueError("boom"), "menage"),
    # a KeyError from a check is that check's failure, not an unknown suite
    (ct, "touchard", KeyError("d(9)"), "menage"),
    (nt, "euler_phi", ZeroDivisionError("division by zero"), "numbers"),
], ids=["ValueError", "KeyError", "ZeroDivisionError"])
def test_a_raising_check_fails_alone(monkeypatch, capsys, verify_rows, module, name, exc,
                                     affected):
    monkeypatch.setattr(module, name, _raises(exc))
    assert main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    # every check of the run prints, in table order, and the summary counts them all
    assert [line[6:].split("  [")[0] for line in lines[:-1]] == [
        f"{suite}: {check}" for suite, check, _ in verify_rows]
    failed = [line for line in lines if line.startswith("FAIL  ")]
    expected = {
        "menage": ["U3=1 U4=2 U5=13", "formula matches exhaustive seating",
                   "full count is 2 n! U_n"],
        "numbers": ["totient golden",
                    "product formula vs divisor-classification count to 2000",
                    "product formula vs literal scan to 600"],
    }[affected]
    detail = f"[raised {type(exc).__name__}: {exc}]"
    assert failed == [f"FAIL  {affected}: {check}  {detail}" for check in expected]
    total = len(verify_rows)
    assert lines[-1] == f"{total - 3}/{total} checks passed, 3 FAILED"
    assert "unknown suite" not in out


@pytest.mark.parametrize("suites", [["not-a-suite", "core"], ["core", "not-a-suite"]])
def test_unknown_suite_exits_2_before_any_check(monkeypatch, suites):
    calls = []
    # run_suites reads a suite's rows from the suite's module
    monkeypatch.setattr(verify_core, "CHECKS", [
        (check, lambda: calls.append(1) or (True, "")) for check, _ in verify_core.CHECKS])
    assert run(["verify", *suites], list) == (
        2, f"error: unknown suite 'not-a-suite'; available: all, {', '.join(vf.SUITES)}")
    assert calls == []
    assert run(["verify", "core"], list).code == 0 and len(calls) == 4


def test_out_of_memory_exits_2(monkeypatch, capsys):
    parse = cli.COEFF["bell"][0]
    monkeypatch.setitem(cli.COEFF, "bell", (parse, _raises(MemoryError())))
    expected = ("error: out of memory: coeff needs more memory than this process "
                "could allocate")
    assert run(["coeff", "bell", "5"], list) == (2, expected)
    assert main(["coeff", "bell", "5"]) == 2
    assert capsys.readouterr() == ("", expected + "\n")


# one small request per coeff family; `graph` appears with and without an
# edge count, because the two take different routes
ROUTE_CASES = [
    ["binomial", "9", "4"], ["multiset", "3", "4"], ["gentile", "2", "3", "3"],
    ["multinomial", "4", "2", "1", "1"], ["stirling1", "7", "3"], ["stirling2", "9", "4"],
    ["cycles", "6", "2"], ["bell", "12"], ["faa", "4", "0", "2"], ["cauchy", "5", "1", "2"],
    ["derangement", "9"], ["dnk", "6", "2"], ["surjections", "7", "3"],
    ["gergonne", "9", "3", "1"], ["touchard", "7"], ["menage", "6"], ["phi", "210"],
    ["mobius", "30"], ["birthday", "23"], ["graph", "graph", "4", "3"],
    ["graph", "graph", "4"], ["gentile", "5", "3", "2"],
]

# requests whose answer no second route checks at call time (ROADMAP item 2);
# a request leaves this list when its family gains such a route
ONE_ROUTE = {
    ("stirling1",): "the signed cycle-count row",
    ("stirling2",): "read from its row table",
    ("cycles",): "read from its row table",
    ("derangement",): "one recurrence",
    ("surjections",): "one alternating sum",
    ("menage",): "2 n! times touchard",
    ("mobius",): "read off the factorization",
    ("birthday",): "one quotient of a falling factorial by a power",
    ("graph", "graph", "4"): "2**slots, with the slots checked but not the power",
}


def test_every_coeff_answer_comes_from_a_checked_route(monkeypatch):
    """The printed answer of each request is a value that `agree` or
    `exact_quotient` returned while it ran, unless the request is listed in
    ONE_ROUTE; a listed request must still be unchecked, so the list shrinks."""
    assert {case[0] for case in ROUTE_CASES} == set(cli.COEFF)
    returned = []

    def recording(fn):
        def wrapped(*args):
            value = fn(*args)
            returned.append(value)
            return value
        return wrapped

    # every loaded module of the package that binds either check by name, so
    # a check that moves to another module is still recorded; `series`, whose
    # power-row check gentile's table imports on first use, is loaded first
    import exactcomb.series  # noqa: F401

    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] != "exactcomb":
            continue
        for name in ("agree", "exact_quotient"):
            if name in vars(module):
                monkeypatch.setattr(module, name, recording(vars(module)[name]))
    for case in ROUTE_CASES:
        for module in (ct, nt):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
        returned.clear()
        # gergonne prints (count, probability); the probability is the count
        # over C(n, k)
        answer = parse_rational(out(["coeff", *case]).split()[0])
        listed = tuple(case) in ONE_ROUTE or (case[0],) in ONE_ROUTE
        assert (answer in returned) != listed, (case, answer, returned)


# ---------------------------------------------------------------------------
# the output stream: lines written as they are made, errors on stderr
# ---------------------------------------------------------------------------


def test_an_error_after_output_keeps_the_lines_made_before_it(monkeypatch, capsys):
    def three_lines_then_a_disagreement(n):
        yield from ["a", "b", "c"]
        raise ArithmeticError("internal inconsistency after three lines")

    parse = commands.ENUMERATE["menage"][0]
    monkeypatch.setitem(commands.ENUMERATE, "menage", (parse, three_lines_then_a_disagreement))
    assert main(["enumerate", "menage", "4"]) == 1
    assert capsys.readouterr() == (
        "a\nb\nc\n", "error: internal inconsistency after three lines\n")
    # run() hands the writer the lines and returns the error alone
    lines = []
    assert run(["enumerate", "menage", "4"], lines.extend) == (
        1, "error: internal inconsistency after three lines")
    assert lines == ["a", "b", "c"]


def test_output_that_reads_like_an_error_stays_on_stdout(tmp_path, capsys):
    poset = tmp_path / "named.json"
    poset.write_text(json.dumps({"elements": ["error: a", "b"], "leq": [["error: a", "b"]]}))
    assert main(["poset", "mobius", str(poset)]) == 0
    assert capsys.readouterr() == ("error: a,error: a,1\nerror: a,b,-1\nb,b,1\n", "")


def test_a_closed_stdout_ends_the_command_quietly():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    # 40320 lines, far more than a pipe buffers
    proc = subprocess.Popen([sys.executable, "-m", "exactcomb", "enumerate", "permutations", "8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"12345678\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)

    def flush(self):
        pass


def test_enumeration_output_is_not_held_whole(monkeypatch):
    import exactcomb.enumeration  # noqa: F401 (its import is not the command's cost)

    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["enumerate", "permutations", "8"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars == 9 * 40320
    # 0.8 MB measured, against 3.3 MB when the whole output was one string
    assert peak < 1.5 * 2**20, peak


# one integer per command line that int() accepts and parse_int refuses
@pytest.mark.parametrize("argv, bad", [
    (["table", "binomial", "--rows", "1_0", "--cols", "2"], "1_0"),
    (["table", "binomial", "--rows", "3", "--cols", "2_0"], "2_0"),
    (["table", "gentile", "--rows", "3", "--cols", "3", "--p", "2_0"], "2_0"),
    (["coeff", "birthday", "3", "--days", "3_65"], "3_65"),
    (["enumerate", "subsets", "4", "--limit", "1_0"], "1_0"),
    (["enumerate", "partitions", "4", "--blocks", "0_2"], "0_2"),
    (["enumerate", "permutations", "4", "--cycles", "0_1"], "0_1"),
    (["rsa", "keygen", "--p", "61", "--q", "53", "--e", "1_7"], "1_7"),
    (["rsa", "encrypt", "--n", "3_233", "--e", "17", "--m", "65"], "3_233"),
    (["rsa", "decrypt", "--n", "3233", "--d", "2753", "--c", "2_790"], "2_790"),
    (["coeff", "binomial", "1_0", "2"], "1_0"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_every_cli_integer_is_a_plain_decimal(argv, bad, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and repr(bad) in err
