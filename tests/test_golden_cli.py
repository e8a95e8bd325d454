"""Golden CLI outputs: exit code, stderr, headers and row counts exactly, numbers to 1e-10.

``tests/golden/cli.json`` holds one record per invocation.  Regenerate it
(only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden_cli.py

Numeric fields are compared to a relative 1e-10 rather than byte-exact,
because the last digits can move under another BLAS; fields at the
floating-point noise floor (deviations of order 1e-16) get an absolute
1e-14, four decades below the 1e-10 the CLI itself checks against.
"""

import contextlib
import io
import json
import math
import pathlib

import pytest

from dualrail.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"

CONFIGS = {  # "{name}" in an argv stands for the path of config file <name>.conf
    "grid": "grid-start=0.01\ngrid-stop=0.5\ngrid-count=4  # comment\n",
    "linear": "spacing=linear\nlam=0.25\n",
}

CASES = {
    "truthtable": ["truthtable"],
    "truthtable-json": ["truthtable", "--format", "json"],
    "lossy-gate": ["lossy-gate"],
    "lossy-gate-json": ["lossy-gate", "--gamma", "0.3", "--format", "json"],
    "sweep-loss": ["sweep-loss"],
    "sweep-loss-linear-json": ["sweep-loss", "--grid-start", "0.01", "--grid-stop", "2",
                               "--grid-count", "9", "--linear", "--format", "json"],
    "sweep-loss-underflow": ["sweep-loss", "--grid-start", "1", "--grid-stop", "8.5",
                             "--grid-count", "7"],
    "sweep-dephasing": ["sweep-dephasing"],
    "sweep-dephasing-linear": ["sweep-dephasing", "--grid-start", "0.001", "--grid-stop", "1",
                               "--grid-count", "13", "--linear"],
    "mc-validate": ["mc-validate"],
    "mc-validate-seeded": ["mc-validate", "--samples", "20000", "--seed", "71", "--lam", "0.2"],
    "lambda-physical": ["lambda-physical", "--omega", "1e15", "--intensity", "1e16"],
    "lambda-physical-zero-intensity": ["lambda-physical", "--omega", "1", "--intensity", "0"],
    "lambda-physical-missing": ["lambda-physical"],
    "sweep-loss-log-zero-start": ["sweep-loss", "--grid-start", "0", "--log"],
    "sweep-loss-zero-count": ["sweep-loss", "--grid-count", "0"],
    "sweep-loss-config": ["sweep-loss", "--config", "{grid}"],
    "sweep-loss-config-override": ["sweep-loss", "--config", "{grid}",
                                   "--grid-count", "3"],
    "sweep-dephasing-config": ["sweep-dephasing", "--config", "{linear}"],
    "mc-validate-config": ["mc-validate", "--samples", "5000", "--config", "{linear}"],
    "missing-config": ["sweep-loss", "--config", "/nonexistent/x.conf"],
}


def invoke(argv, config_dir: pathlib.Path):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    paths = {name: config_dir / f"{name}.conf" for name in CONFIGS}
    for name, text in CONFIGS.items():
        paths[name].write_text(text)
    argv = [a.format_map(paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _close(want, got) -> bool:
    return math.isclose(want, got, rel_tol=1e-10, abs_tol=1e-14)


def _same_field(want: str, got: str) -> bool:
    try:
        return _close(float(want), float(got))
    except ValueError:
        return want == got


def _same_json(want, got) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and want.keys() == got.keys() and all(
            _same_json(want[k], got[k]) for k in want)
    if isinstance(want, list):
        return (isinstance(got, list) and len(want) == len(got)
                and all(_same_json(w, g) for w, g in zip(want, got)))
    if isinstance(want, float) and isinstance(got, (int, float)):
        return _close(want, got)
    return type(want) is type(got) and want == got


def _assert_same_stdout(want: str, got: str):
    if want.startswith("{"):
        assert _same_json(json.loads(want), json.loads(got))
        return
    want_lines, got_lines = want.splitlines(), got.splitlines()
    assert len(got_lines) == len(want_lines)
    if want_lines:
        assert got_lines[0] == want_lines[0]
    for want_row, got_row in zip(want_lines[1:], got_lines[1:]):
        want_fields, got_fields = want_row.split(","), got_row.split(",")
        assert len(got_fields) == len(want_fields)
        assert all(_same_field(w, g) for w, g in zip(want_fields, got_fields)), got_row
    assert got.endswith("\n") == want.endswith("\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())[name]
    assert golden["argv"] == CASES[name]
    code, out, err = invoke(CASES[name], tmp_path)
    assert code == golden["exit"]
    assert err == golden["stderr"]
    _assert_same_stdout(golden["stdout"], out)


if __name__ == "__main__":
    import tempfile

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in CASES.items():
            code, out, err = invoke(argv, pathlib.Path(tmp))
            records[case] = {"argv": argv, "exit": code, "stdout": out, "stderr": err}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
