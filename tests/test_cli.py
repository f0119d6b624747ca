"""End-to-end tests of the command line interface."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bkpnpoint import affine, cli, fock, lemma, npoint
from bkpnpoint.cli import main
from bkpnpoint.sampling import random_series_pair_spec
from reference import lemma_side


def write_coords(path, rows):
    path.write_text(json.dumps(rows) + "\n")
    return str(path)


@pytest.fixture
def one_entry_coords(tmp_path):
    return write_coords(tmp_path / "coords.json", [[1, 0, "1"]])


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_npoint_frozen_one_point(capsys, one_entry_coords):
    code, doc = run_json(capsys, [
        "npoint", "--coords", one_entry_coords, "--n", "1",
        "--max-weight", "5",
    ])
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["agree"] is True
    assert doc["first_difference"] is None
    expected = [
        {"indices": [1], "value": "-1"},
        {"indices": [3], "value": "0"},
        {"indices": [5], "value": "0"},
    ]
    assert set(doc["tables"]) == {"wangyang", "embedded", "oracle"}
    for route in doc["tables"]:
        assert doc["tables"][route] == expected


def test_npoint_zero_coords_all_routes(capsys, tmp_path):
    coords = write_coords(tmp_path / "zero.json", [])
    code, doc = run_json(capsys, [
        "npoint", "--coords", coords, "--n", "2", "--max-weight", "6",
    ])
    assert code == 0
    for route, records in doc["tables"].items():
        assert records, route
        assert all(r["value"] == "0" for r in records)


def test_npoint_single_route_and_window_cap(capsys, one_entry_coords):
    argv = ["npoint", "--coords", one_entry_coords, "--n", "2",
            "--max-weight", "5", "--formula", "wangyang"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert list(doc["tables"]) == ["wangyang"]
    assert doc["agree"] is True
    # the window follows from the weight: there is no cap to set
    with pytest.raises(SystemExit) as err:
        main(argv + ["--window-cap", "4"])
    assert err.value.code == 2
    capsys.readouterr()


def test_npoint_csv_output(capsys, one_entry_coords):
    code = main([
        "npoint", "--coords", one_entry_coords, "--n", "1",
        "--max-weight", "3", "--formula", "oracle", "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "formula,indices,value"
    assert lines[1] == "oracle,1,-1"
    assert lines[2] == "oracle,3,0"


def test_npoint_deterministic_bytes(tmp_path, one_entry_coords):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main([
            "npoint", "--coords", one_entry_coords, "--n", "2",
            "--max-weight", "5", "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_npoint_input_errors(capsys, tmp_path, one_entry_coords):
    missing = str(tmp_path / "nope.json")
    assert main(["npoint", "--coords", missing, "--n", "1",
                 "--max-weight", "3"]) == 2
    assert main(["npoint", "--coords", one_entry_coords, "--n", "0",
                 "--max-weight", "3"]) == 2
    assert main(["npoint", "--coords", one_entry_coords, "--n", "3",
                 "--max-weight", "2"]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("not json")
    assert main(["npoint", "--coords", str(broken), "--n", "1",
                 "--max-weight", "3"]) == 2
    conflict = write_coords(tmp_path / "conflict.json",
                            [[1, 0, "1"], [0, 1, "1"]])
    assert main(["npoint", "--coords", conflict, "--n", "1",
                 "--max-weight", "3"]) == 2
    capsys.readouterr()


def test_npoint_large_n_refused_up_front(capsys, one_entry_coords, monkeypatch):
    # the work estimate is checked before any factor table is built
    def build(*args):
        raise AssertionError("factor table built")

    monkeypatch.setattr(npoint, "_factor_table", build)
    code = main(["npoint", "--coords", one_entry_coords, "--n", "16",
                 "--max-weight", "16"])
    assert code == 2
    limit = f"above the limit of {npoint.MAX_CYCLE_WORK}"
    assert limit in capsys.readouterr().err


GOLDEN_COORDS = str(
    Path(__file__).resolve().parent / "golden" / "coords.json")


def test_npoint_other_arithmetic_errors_propagate(monkeypatch,
                                                  one_entry_coords):
    def divide(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(npoint, "npoint_table", divide)
    with pytest.raises(ZeroDivisionError):
        main(["npoint", "--coords", one_entry_coords, "--n", "1",
              "--max-weight", "3"])


def test_npoint_oracle_has_no_cycle_limit(capsys, one_entry_coords):
    code, doc = run_json(capsys, [
        "npoint", "--coords", one_entry_coords, "--n", "8",
        "--max-weight", "10", "--formula", "oracle",
    ])
    assert code == 0
    indices = [r["indices"] for r in doc["tables"]["oracle"]]
    assert indices == [[1] * 8, [1] * 7 + [3]]


def test_npoint_disagreement_exit_code(capsys, one_entry_coords, monkeypatch):
    # corrupt one route to exercise the comparison failure path
    def tampered(b, n, max_weight):
        return {(1,): Fraction(-1), (3,): Fraction(99), (5,): Fraction(0)}

    monkeypatch.setattr(fock, "oracle_npoint_table", tampered)
    code, doc = run_json(capsys, [
        "npoint", "--coords", one_entry_coords, "--n", "1",
        "--max-weight", "5",
    ])
    assert code == 1
    assert doc["agree"] is False
    assert doc["first_difference"]["indices"] == [3]
    assert doc["first_difference"]["values"]["oracle"] == "99"
    assert doc["first_difference"]["values"]["wangyang"] == "0"


def test_convert_frozen(capsys, one_entry_coords):
    assert main(["convert", "--coords", one_entry_coords]) == 0
    assert capsys.readouterr().out == '[[0, 0, "-2"], [0, 1, "2"]]\n'


def test_convert_empty_and_file_output(capsys, tmp_path):
    coords = write_coords(tmp_path / "zero.json", [])
    out = tmp_path / "kp.json"
    assert main(["convert", "--coords", coords, "--out", str(out)]) == 0
    assert out.read_text() == "[]\n"
    # triangle-only input converts after antisymmetric completion
    coords = write_coords(tmp_path / "tri.json", [[0, 1, "-1"]])
    assert main(["convert", "--coords", coords]) == 0
    assert capsys.readouterr().out == '[[0, 0, "-2"], [0, 1, "2"]]\n'


def test_verify_each_check_small(capsys):
    argv_common = ["--seed", "3", "--count", "1"]
    for check, extra in [
        ("gs", ["--weight", "5"]),
        ("square", ["--weight", "5"]),
        ("state", ["--weight", "5"]),
        ("formulas", ["--weight", "5", "--n", "2"]),
        ("lemma", ["--k", "2", "--window-cap", "5"]),
    ]:
        code, doc = run_json(
            capsys, ["verify", "--check", check] + argv_common + extra)
        assert code == 0, check
        assert doc["passed"] is True
        assert doc["checks"][0]["name"] == check
        assert doc["checks"][0]["params"]["instances"] == 1


def test_verify_coords_instance(capsys, one_entry_coords):
    code, doc = run_json(capsys, [
        "verify", "--check", "gs", "--coords", one_entry_coords,
    ])
    assert code == 0
    assert doc["checks"][0]["params"]["instances"] == 1
    # lemma check instantiates the coordinate file
    code, doc = run_json(capsys, [
        "verify", "--check", "lemma", "--coords", one_entry_coords,
        "--k", "2", "--window-cap", "4",
    ])
    assert code == 0


def test_verify_lemma_huge_index_runs_at_once(capsys, tmp_path):
    # the dense conversion would visit 10^8 index pairs
    coords = write_coords(tmp_path / "huge.json",
                          [[10**4, 0, "1"], [10**4, 3, "1/2"], [2, 1, "1"]])
    code, doc = run_json(capsys, [
        "verify", "--check", "lemma", "--coords", coords, "--k", "2",
    ])
    assert code == 0
    assert doc["passed"] is True


def test_verify_suite_small(capsys):
    code, doc = run_json(capsys, [
        "verify", "--suite", "full", "--seed", "5", "--count", "1",
        "--weight", "5", "--k", "2",
    ])
    assert code == 0
    assert [c["name"] for c in doc["checks"]] == [
        "gs", "square", "state", "formulas", "lemma"]
    assert doc["passed"] is True


def test_verify_failure_reported(capsys, monkeypatch):
    monkeypatch.setattr(affine, "check_gs_relation", lambda b, depth: False)
    code, doc = run_json(capsys, [
        "verify", "--check", "gs", "--count", "2",
    ])
    assert code == 1
    assert doc["passed"] is False
    assert "instance 0" in doc["checks"][0]["detail"]


def test_verify_formulas_failure_names_entry(capsys, monkeypatch):
    def tampered(b, n, max_weight):
        return npoint.FormulaComparison(
            n, max_weight, {}, {}, False, True,
            ((1, 1), Fraction(0), Fraction(1, 3)))

    monkeypatch.setattr(npoint, "compare_formulas", tampered)
    code, doc = run_json(capsys, [
        "verify", "--check", "formulas", "--count", "1", "--n", "2",
    ])
    assert code == 1
    assert doc["checks"][0]["detail"] == (
        "instance 0 n 2: tables differ at [1, 1] (embedded 0, wangyang 1/3)")


def _break_lemma_g(monkeypatch):
    # g built from another spec breaks the identity
    other = lemma.validate_pair_spec({(1, 3): 1}, {2: Fraction(1, 2)})
    factor = lemma._factor
    monkeypatch.setattr(
        lemma, "_factor",
        lambda which, spec, d, w: factor(
            which, other if which == "RHS" else spec, d, w))


def test_verify_lemma_failure_names_monomial(capsys, monkeypatch):
    _break_lemma_g(monkeypatch)
    code, doc = run_json(capsys, [
        "verify", "--check", "lemma", "--count", "1", "--k", "2",
    ])
    assert code == 1
    assert doc["passed"] is False
    spec = random_series_pair_spec(0)
    lhs = lemma_side("LHS", 2, spec, 6)
    rhs = lemma_side("RHS", 2, spec, 6)
    exps = min(lhs.sub(rhs).coeffs)
    assert doc["checks"][0]["detail"] == (
        f"instance 0 k 2: sides differ at {list(exps)} "
        f"({lhs.coefficient(exps)} vs {rhs.coefficient(exps)})"
    )


def test_verify_lemma_cost_limit_refused_up_front(capsys, monkeypatch):
    def build(*args):
        raise AssertionError("factor table built")

    monkeypatch.setattr(lemma, "_factor", build)
    code = main(["verify", "--check", "lemma", "--k", "4",
                 "--window-cap", "20"])
    assert code == 2
    assert "limit of" in capsys.readouterr().err


def test_verify_csv_output(capsys):
    code = main([
        "verify", "--check", "lemma", "--count", "1", "--k", "1",
        "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "check,passed,detail"
    assert lines[1] == "lemma,true,"


def test_verify_csv_keeps_a_failing_detail_in_one_field(capsys, monkeypatch):
    # the lemma failure's detail holds commas
    _break_lemma_g(monkeypatch)
    argv = ["verify", "--check", "lemma", "--count", "1", "--k", "2"]
    _, doc = run_json(capsys, argv)
    assert "," in doc["checks"][0]["detail"]
    assert main(argv + ["--format", "csv"]) == 1
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [["check", "passed", "detail"],
                    ["lemma", "false", doc["checks"][0]["detail"]]]


def test_argparse_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["npoint", "--n", "1", "--max-weight", "3"])  # no coords
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify"])  # neither --check nor --suite
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["npoint", "--coords", "x", "--n", "1", "--max-weight", "3",
              "--formula", "bogus"])
    assert err.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--check", "gs", "--count", "0"],
    ["--check", "square", "--count", "-2"],
    ["--check", "formulas", "--n", "0"],
    ["--check", "lemma", "--k", "0"],
    ["--check", "gs", "--weight", "0"],
    ["--check", "gs", "--weight", "-3"],
    ["--check", "lemma", "--window-cap", "-1"],
    ["--check", "formulas", "--n", "4", "--weight", "3"],
    ["--check", "formulas", "--weight", "2"],  # below the default n = 3
    ["--suite", "full", "--weight", "2"],
])
def test_verify_refuses_bad_sizes_before_any_check(capsys, monkeypatch, argv):
    def run(*args):
        raise AssertionError("a check ran")

    for module, name in ((affine, "check_gs_relation"),
                         (fock, "check_square_relation"),
                         (fock, "check_state_equality"),
                         (npoint, "compare_formulas"),
                         (lemma, "first_lemma_difference")):
        monkeypatch.setattr(module, name, run)
    assert main(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_lemma_window_zero_is_honoured(capsys):
    code, doc = run_json(capsys, [
        "verify", "--check", "lemma", "--k", "1", "--count", "1",
        "--window-cap", "0",
    ])
    assert code == 0
    assert doc["checks"][0]["params"]["window"] == 0
    assert doc["passed"] is True


def test_verify_lemma_window_and_its_old_name_agree(capsys):
    docs = []
    for flag in ("--window", "--window-cap"):
        code, doc = run_json(capsys, [
            "verify", "--check", "lemma", "--k", "2", "--count", "1",
            flag, "3",
        ])
        assert code == 0
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["checks"][0]["params"]["window"] == 3


def test_verify_lemma_huge_k_refused_up_front(capsys):
    assert main(["verify", "--check", "lemma", "--k", "1000000"]) == 2
    assert "limit of" in capsys.readouterr().err


def test_cli_paths_load_no_series():
    # a fresh interpreter: this process has imported bkpnpoint.series for
    # the test references
    root = Path(__file__).resolve().parent.parent
    coords = str(root / "tests" / "golden" / "coords.json")
    argvs = [
        ["npoint", "--coords", coords, "--n", "2", "--max-weight", "9"],
        ["verify", "--check", "lemma", "--k", "2", "--count", "1"],
        ["convert", "--coords", coords],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from bkpnpoint import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "assert codes == [0, 0, 0], codes\n"
        "assert 'bkpnpoint.series' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _modules_loaded_by(argv):
    """The modules that ``import bkpnpoint`` and then, unless ``argv`` is
    None, one CLI call on ``argv`` load in a fresh interpreter."""
    root = Path(__file__).resolve().parent.parent
    script = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "import bkpnpoint\n"
        + ("" if argv is None else
           "from bkpnpoint import cli\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           f"    assert cli.main({argv!r}) == 0\n")
        + "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def test_each_command_loads_only_its_layers():
    def layers(*names):
        return {f"bkpnpoint.{name}" for name in names}

    loaded = _modules_loaded_by(None)
    assert not [m for m in loaded if m.startswith("bkpnpoint.")], loaded
    loaded = _modules_loaded_by(["convert", "--coords", GOLDEN_COORDS])
    assert not loaded & (layers("npoint", "fock", "lemma", "chain",
                                "sampling", "series")
                         | {"dataclasses", "inspect"}), loaded
    loaded = _modules_loaded_by(["npoint", "--coords", GOLDEN_COORDS, "--n",
                                 "2", "--max-weight", "9", "--formula", "all"])
    assert not loaded & layers("lemma", "sampling", "series"), loaded
    loaded = _modules_loaded_by(["verify", "--check", "lemma", "--k", "2",
                                 "--count", "1"])
    assert not loaded & layers("fock", "npoint", "series"), loaded
    loaded = _modules_loaded_by(["verify", "--check", "gs", "--count", "1"])
    assert not loaded & layers("lemma", "chain", "fock", "npoint",
                               "series"), loaded
    loaded = _modules_loaded_by(["verify", "--check", "formulas", "--n", "2",
                                 "--count", "1"])
    assert not loaded & layers("lemma", "series"), loaded
