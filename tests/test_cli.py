import json
import subprocess
import sys
from pathlib import Path

import pytest

import exactcomb.counting as ct
import exactcomb.poset_mobius as pm
from exactcomb.cli import main, run
from exactcomb.exact_core import parse_int, parse_rational


def out(argv):
    result = run(argv)
    assert result.code == 0, result.payload
    return result.payload


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
    assert run(["coeff", "binomial", "3"]).code == 2
    assert run(["coeff", "binomial", "x", "y"]).code == 2
    assert run(["coeff", "unknown-family", "1"]).code == 2
    assert run(["coeff", "graph", "multigraph", "3"]).code == 2  # k required


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
    assert run(["table", "gentile", "--rows", "3", "--cols", "3"]).code == 2  # no --p
    assert run(["table", "binomial", "--rows", "0", "--cols", "3"]).code == 2
    assert run(["table", "binomial", "--rows", "9999", "--cols", "3"]).code == 2


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
    assert run(["enumerate", "permutations", "11"]).code == 2  # size guard
    assert run(["enumerate", "subsets", "3", "--limit", "-1"]).code == 2


def test_verify_suites():
    result = run(["verify", "errata"])
    assert result.code == 0
    assert "pass" in result.payload.lower()
    # both the computed value and the guarded misprint are reported
    assert "computed 9" in result.payload and "misprint 6" in result.payload
    assert run(["verify", "stirling"]).code == 0
    menage = run(["verify", "menage"])
    assert menage.code == 0 and "U3=1 U4=2 U5=13" in menage.payload
    listing = out(["verify", "--list"]).splitlines()
    assert "mobius" in listing and "menage" in listing
    assert run(["verify", "not-a-suite"]).code == 2


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
    result = run(["poset", "mobius", str(bad)])
    assert result.code == 2
    assert "transitivity" in result.payload and "witness" in result.payload
    for subcmd, data in (
        ("sieve", {"universe": "10", "sets": []}),
        ("mobius", {"elements": [[1], [2]], "leq": []}),
        ("mobius", {"elements": 5}),
    ):
        bad.write_text(json.dumps(data))
        result = run(["poset", subcmd, str(bad)])
        assert result.code == 2 and result.payload.startswith("error: "), data


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
    assert run(["poset", "invert", str(poset), str(values)]).code == 2
    values.write_text(json.dumps({"0": "1/0", "1": "3", "2": "6"}))
    assert run(["poset", "invert", str(poset), str(values)]) == (
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
    from exactcomb.verify import derangement_family

    family = tmp_path / "derangement4.json"
    family.write_text(derangement_family(4).to_json())
    data = json.loads(out(["poset", "sieve", str(family)]))
    assert data["survivors"] == "9"
    assert data["exactly"] == ["9", "8", "6", "0", "1"]


def test_rsa_commands():
    key = json.loads(out(["rsa", "keygen", "--p", "5", "--q", "11", "--e", "3"]))
    assert key["d"] == "27" and key["n"] == "55"
    assert out(["rsa", "encrypt", "--n", "25", "--e", "3", "--m", "14"]) == "19"
    assert out(["rsa", "decrypt", "--n", "25", "--d", "7", "--c", "19"]) == "14"
    assert run(["rsa", "keygen", "--p", "5", "--q", "5", "--e", "3"]).code == 2
    assert run(["rsa", "encrypt", "--n", "25", "--e", "3", "--m", "1"]).code == 2


def test_route_disagreement_exits_1(monkeypatch, capsys):
    sylvester_numbers = pm.sylvester_numbers
    # S_3 overcounted: the Jordan counts no longer match the membership scan
    monkeypatch.setattr(pm, "sylvester_numbers", lambda fam: [
        v + (k == 3) for k, v in enumerate(sylvester_numbers(fam))
    ])
    result = run(["verify", "sieve", "errata"])
    lines = result.payload.splitlines()
    assert result.code == 1
    assert lines[0].startswith("FAIL  sieve: raised ArithmeticError  [internal")
    assert all(line.startswith("PASS  errata: ") for line in lines[1:-1])
    assert lines[-1] == f"{len(lines) - 2}/{len(lines) - 1} checks passed, 1 FAILED"

    # C(9, 4) has j = 4, so its second route is the falling factorial
    monkeypatch.setattr(ct, "_binomial_falling", lambda n, j: 0)
    ct.binomial.cache_clear()
    assert main(["coeff", "binomial", "9", "4"]) == 1
    assert capsys.readouterr() == (
        "", "error: internal inconsistency in binomial(9,4): routes gave (126, 0)\n"
    )


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
