"""Byte-for-byte CLI outputs pinned against committed golden files.

Each case runs one command through `cli.main` from inside
``tests/golden`` (so the coordinate path in the output stays relative)
and compares stdout, stderr and the exit code with the stored files.
To regenerate after a deliberate output change, run this file as a
script: ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from bkpnpoint.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> argv; every command reads the committed ``coords.json``
CASES = {
    "verify-suite-seed0.json": ["verify", "--suite", "full", "--seed", "0"],
    "verify-suite-seed1.csv": ["verify", "--suite", "full", "--seed", "1",
                               "--format", "csv"],
    "npoint-n1.json": ["npoint", "--coords", "coords.json", "--n", "1",
                       "--max-weight", "9", "--formula", "all"],
    "npoint-n2.json": ["npoint", "--coords", "coords.json", "--n", "2",
                       "--max-weight", "9", "--formula", "all"],
    "npoint-n3.json": ["npoint", "--coords", "coords.json", "--n", "3",
                       "--max-weight", "9", "--formula", "all"],
    "npoint-n1-embedded-cap4.csv": [
        "npoint", "--coords", "coords.json", "--n", "1", "--max-weight", "9",
        "--formula", "embedded", "--format", "csv", "--window-cap", "4"],
    "convert.json": ["convert", "--coords", "coords.json"],
}


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out, err = run(CASES[name])
    assert code == 0
    assert err == ""
    assert out.encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, argv in CASES.items():
        code, out, err = run(argv)
        assert code == 0 and err == "", (name, code, err)
        (GOLDEN / name).write_bytes(out.encode())
        print(f"wrote {name}")
