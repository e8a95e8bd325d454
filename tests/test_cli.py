import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from dualrail.cli import EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, build_parser, main

SMALL_GRID = ["--grid-start", "0.01", "--grid-stop", "0.5", "--grid-count", "5"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_truthtable_exits_clean(capsys):
    code, out, _ = run_cli(["truthtable"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "input,output,amplitude_re,amplitude_im"
    assert len(lines) == 9
    row = lines[6].split(",")
    assert row[:2] == ["101", "011"]
    assert float(row[2]) == pytest.approx(1.0, abs=1e-12)
    assert abs(float(row[3])) < 1e-12


def test_lossy_gate_exits_clean(capsys):
    code, out, _ = run_cli(["lossy-gate", "--gamma", "0.3"], capsys)
    assert code == EXIT_OK
    assert out.splitlines()[0] == "input,placement,gamma,max_abs_dev,trace_dev"


def test_sweep_loss_columns_and_exit(capsys):
    code, out, _ = run_cli(["sweep-loss", *SMALL_GRID], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == ("gamma,loss_db,p_noec_sim,p_noec_closed,"
                        "p_ec_sim,p_ec_closed,p_balanced_ec")
    assert len(lines) == 6


def test_sweep_loss_deep_grid_completes(capsys):
    # past gamma ~ 8.1 the balanced legal mass e^-4gamma drops below 1e-14
    code, out, err = run_cli(["sweep-loss", "--grid-start", "1", "--grid-stop", "40",
                              "--grid-count", "8"], capsys)
    assert (code, err) == (EXIT_OK, "")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 8
    assert float(rows[-1][0]) == 40.0
    assert all(float(row[-1]) == 0.0 for row in rows)
    # at gamma = 180 the legal mass e^-720 is subnormal and shares of it overflow to inf
    code, out, err = run_cli(["sweep-loss", "--grid-start", "180", "--grid-count", "1"], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1].endswith(",0")


def test_sweep_dephasing_columns_and_fit_report(capsys):
    code, out, err = run_cli(["sweep-dephasing", "--grid-start", "0.005",
                              "--grid-stop", "0.05", "--grid-count", "5"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,damping_db,p_plain,p_projective,p_accept_projective"
    assert "small-lambda fit" in err


def test_sweep_dephasing_noise_free_points_pass(capsys):
    code, out, err = run_cli(["sweep-dephasing", "--grid-start", "0", "--grid-stop", "0.1",
                              "--grid-count", "3", "--linear"], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1] == "0,0,0,0,1"
    # an all-zero grid long enough for the small-lambda fit, which skips lambda = 0
    code, out, err = run_cli(["sweep-dephasing", "--grid-start", "0", "--grid-stop", "0",
                              "--grid-count", "5", "--linear"], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1:] == ["0,0,0,0,1"] * 5
    # a tiny positive lambda rounds both errors to 0, under the 1e-12 noise floor
    code, out, err = run_cli(["sweep-dephasing", "--grid-start", "1e-16", "--grid-count", "1"],
                             capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1] == "1e-16,4.34294481903e-16,0,0,1"


def test_sweep_dephasing_fits_distinct_lambdas_only(capsys):
    # four copies of one lambda are one fit point, too few for the fit, which is skipped
    code, out, err = run_cli(["sweep-dephasing", "--grid-start", "0.01", "--grid-stop", "0.01",
                              "--grid-count", "4"], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert len(out.splitlines()) == 5  # the header and four rows


def test_mc_validate_passes_with_seed(capsys):
    code, out, _ = run_cli(["mc-validate", "--samples", "20000", "--seed", "5",
                            "--lam", "0.1"], capsys)
    assert code == EXIT_OK
    assert all(line.endswith("pass") for line in out.strip().splitlines()[1:])


def test_lambda_physical_values(capsys):
    code, out, _ = run_cli(["lambda-physical", "--omega", "1e15",
                            "--intensity", "1e16"], capsys)
    assert code == EXIT_OK
    row = out.strip().splitlines()[1].split(",")
    assert float(row[2]) == pytest.approx(0.3141592653589793, rel=1e-11)


def test_lambda_physical_rejects_bad_intensity(capsys):
    code, _, err = run_cli(["lambda-physical", "--omega", "1.0",
                            "--intensity", "0"], capsys)
    assert code == EXIT_USAGE
    assert "intensity" in err


def test_log_grid_with_zero_start_is_usage_error(capsys):
    code, _, err = run_cli(["sweep-loss", "--grid-start", "0", "--log"], capsys)
    assert code == EXIT_USAGE
    assert "log spacing" in err


@pytest.mark.parametrize("command", ["sweep-loss", "sweep-dephasing"])
def test_log_grid_overflowing_the_float_range_is_usage_error(capsys, command):
    # finite bounds whose log grid's last point rounds past the largest float
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli([command, "--grid-start", "1", "--grid-stop",
                                  "1.7976931348623157e308", "--grid-count", "5"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"{command}: the grid from 1.0 to 1.7976931348623157e+308 overflows " \
                  "to a non-finite point\n"
    assert caught == []


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_json_format(capsys):
    code, out, _ = run_cli(["sweep-loss", *SMALL_GRID, "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["columns"][0] == "gamma"
    assert len(payload["records"]) == 5
    assert payload["records"][0]["gamma"] == 0.01


@pytest.mark.parametrize("argv", [
    ["lambda-physical", "--omega", "-0.0", "--intensity", "1"],
    ["lossy-gate", "--gamma", "-0.0"],
    ["mc-validate", "--lam", "-0.0", "--samples", "10"],
], ids=["lambda-physical", "lossy-gate", "mc-validate"])
def test_negative_zero_input_prints_as_zero(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    assert "-0" not in [field for line in out.splitlines() for field in line.split(",")]
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == EXIT_OK
    values = [v for rec in json.loads(out)["records"] for v in rec.values()]
    assert not any(v == 0 and math.copysign(1.0, v) < 0 for v in values if isinstance(v, float))


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("argv, column", [
    (["lambda-physical", "--omega", "1e308", "--intensity", "1e-300"], "damping_db"),
    (["sweep-dephasing", "--grid-start", "5e307", "--grid-stop", "5e307",
      "--grid-count", "1"], "damping_db"),
    (["sweep-dephasing", "--grid-start", "1e308", "--grid-stop", "1e308",
      "--grid-count", "1"], "damping_db"),
])
def test_json_format_is_strict_for_non_finite_values(argv, column, capsys):
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["records"][0][column] is None


def test_output_file_and_byte_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep-loss", *SMALL_GRID, "--out", str(out1)]) == EXIT_OK
    assert main(["sweep-loss", *SMALL_GRID, "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_mc_validate_byte_determinism(tmp_path, capsys):
    args = ["mc-validate", "--samples", "20000", "--seed", "71", "--lam", "0.2"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "--out", str(out1)]) == EXIT_OK
    assert main([*args, "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("grid-start=0.01\ngrid-stop=0.5\ngrid-count=4  # comment\n")
    code, out, _ = run_cli(["sweep-loss", "--config", str(config)], capsys)
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 5  # header + 4 rows from the file
    code, out, _ = run_cli(["sweep-loss", "--config", str(config),
                            "--grid-count", "3"], capsys)
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 4  # flag overrides the file


def test_missing_config_file_is_usage_error(capsys):
    code, _, err = run_cli(["sweep-loss", "--config", "/nonexistent/x.conf"], capsys)
    assert code == EXIT_USAGE
    assert "config" in err


def test_console_script_entry_point():
    # the child imports dualrail from wherever this process does (installed or src/)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "dualrail.cli", "truthtable"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("input,output")


def test_cli_imports_without_scipy():
    # numpy is the only runtime dependency
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import dualrail.cli, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def run_any(argv):
    """(exit code, stdout, stderr), counting argparse's SystemExit as an exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("line,command,message", [
    ("grid-count=abc", "sweep-loss", "invalid int value: 'abc'"),
    ("format=xml", "truthtable", "unknown format 'xml'"),
    ("spacing=bogus", "sweep-loss", "unknown spacing 'bogus'"),
])
def test_malformed_config_value_is_usage_error(tmp_path, line, command, message):
    config = tmp_path / "run.conf"
    config.write_text(line + "\n")
    code, out, err = run_any([command, "--config", str(config)])
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_config_keys_of_other_subcommands_are_ignored(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("func=oops\ngamma=abc\nsamples=1e5\nlam=abc\ngrid-count=2\n")
    code, out, _ = run_any(["sweep-loss", "--config", str(config)])
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize("argv", [
    ["truthtable", "--grid-start", "1"],
    ["lossy-gate", "--samples", "5"],
    ["sweep-loss", "--samples", "10"],
    ["sweep-dephasing", "--samples", "3"],
    ["mc-validate", "--grid-count", "3"],
    ["lambda-physical", "--grid-count", "2"],
    ["sweep-dephasing", "--seed", "7"],
], ids=lambda argv: argv[0] + argv[1])
def test_flags_of_other_subcommands_are_usage_errors(argv):
    code, out, err = run_any(argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "unrecognized arguments" in err
    assert "Traceback" not in err


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


_SMALL_ARGV = {
    "truthtable": [],
    "lossy-gate": [],
    "sweep-loss": ["--grid-count", "2"],
    "sweep-dephasing": ["--grid-count", "2"],
    "mc-validate": ["--samples", "100"],
    "lambda-physical": ["--omega", "1", "--intensity", "1"],
}


@pytest.mark.parametrize("command", sorted(_SMALL_ARGV))
def test_every_declared_option_is_read(command, capsys):
    # sweep-loss keeps --seed, unread, because the seeded determinism check passes it
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    declared = {a.dest for a in subparsers.choices[command]._actions} - {"help", "config"}
    if command == "sweep-loss":
        declared.discard("seed")
    args = _ReadRecorder(_reads=set())
    parser.parse_args([command, *_SMALL_ARGV[command]], namespace=args)
    args._reads.clear()  # argparse reads while it parses
    assert args.func(args) == []
    capsys.readouterr()
    assert declared - args._reads == set()


@pytest.mark.parametrize("argv,message", [
    (["lambda-physical", "--omega", "nan", "--intensity", "1e16"], "finite"),
    (["lambda-physical", "--omega", "1e15", "--intensity", "inf"], "finite"),
    (["sweep-loss", *SMALL_GRID, "--out", "/nonexistent-dir/x.csv"], "cannot write output"),
    (["sweep-loss", "--grid-start=nan"], "finite"),
    (["sweep-loss", "--grid-stop=inf"], "finite"),
    (["sweep-loss", "--grid-start=-0.5", "--linear"], "finite and >= 0"),
    (["sweep-dephasing", "--grid-stop=-1"], "finite and >= 0"),
    (["sweep-loss", "--grid-stop=0", "--grid-count=2"], "positive grid stop"),
    (["mc-validate", "--samples", "0"], "n_samples must be >= 1"),
    (["mc-validate", "--seed=-1", "--samples", "10"], "seed must be >= 0"),
    (["mc-validate", "--lam=1e308", "--samples", "10"], "lam must be >= 0"),
    (["lossy-gate", "--gamma", "nan"], "gamma must be finite"),
    # 10**16 elements exceed any address space, so the allocation is refused at once
    (["mc-validate", "--samples", str(10**16)], "mc-validate: not enough memory"),
    (["sweep-loss", "--grid-count", str(10**16)], "sweep-loss: not enough memory"),
])
def test_bad_values_are_usage_errors(argv, message):
    code, _, err = run_any(argv)
    assert code == EXIT_USAGE
    assert message in err
    assert "Traceback" not in err


_FLOAT_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "-0", "1e-300", "0.3", "9", "1e308", "abc", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_SIZES = {"grid-count": st.integers(-1, 3), "samples": st.integers(-1, 2000)}
_OPTION_VALUES = {
    "grid-start": _FLOAT_VALUES, "grid-stop": _FLOAT_VALUES, "gamma": _FLOAT_VALUES,
    "lam": _FLOAT_VALUES, "omega": _FLOAT_VALUES, "intensity": _FLOAT_VALUES,
    "seed": st.one_of(st.integers(-3, 2**40).map(str), st.sampled_from(["x", "1.5"])),
    "format": st.sampled_from(["csv", "json", "xml", ""]),
    "spacing": st.sampled_from(["log", "linear", "bogus"]),
    **_SIZES,
}
_GRID = ("grid-start", "grid-stop", "grid-count", "spacing")
_OWN_OPTIONS = {  # besides format, which every subcommand reads
    "truthtable": (), "lossy-gate": ("gamma",), "sweep-loss": (*_GRID, "seed"),
    "sweep-dephasing": _GRID, "mc-validate": ("lam", "samples", "seed"),
    "lambda-physical": ("omega", "intensity"),
}


@st.composite
def _invocations(draw):
    """A subcommand with drawn flags and config lines, mostly its own options.

    At most one key belongs to another subcommand.  Grid and sample sizes
    stay small: a subcommand that reads one always gets it.
    """
    command = draw(st.sampled_from(sorted(_OWN_OPTIONS)))
    own = {"format", *_OWN_OPTIONS[command]}
    argv, lines = [command], []
    keys = draw(st.lists(st.sampled_from(sorted(own - set(_SIZES))), max_size=5))
    keys += draw(st.lists(st.sampled_from(sorted(set(_OPTION_VALUES) - own)), max_size=1))
    for key in keys + [key for key in _SIZES if key in own]:
        entry = f"{key}={draw(_OPTION_VALUES[key])}"
        if draw(st.booleans()):
            lines.append(entry)
        elif key != "spacing":  # spacing has no flag of its own, only --log/--linear
            argv.append("--" + entry)
    lines += draw(st.lists(st.sampled_from(["junk", "=", "# note", "func=x", "grid_count=9"]),
                           max_size=2))
    if "spacing" in own:
        argv.append(draw(st.sampled_from(["", "--log", "--linear"])))
    return [a for a in argv if a], lines


@settings(max_examples=100, deadline=None)
@given(_invocations())
@example((["sweep-dephasing", "--grid-start=1e-300", "--grid-count=1"], []))
def test_cli_fuzz_exit_codes(tmp_path_factory, invocation):
    # an exception escaping main() fails the test outright, like a traceback would
    argv, lines = invocation
    config = tmp_path_factory.mktemp("fuzz") / "run.conf"
    config.write_text("\n".join(lines) + "\n")
    code, _, err = run_any([*argv, "--config", str(config)])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_USAGE)
    # the dephasing sweep is exact on every legal grid, so it never fails validation;
    # the loss sweep fails only where the balanced acceptance underflows (gamma >~ 186)
    assert not (argv[0] == "sweep-dephasing" and code == EXIT_VALIDATION)
    if argv[0] == "sweep-loss" and code == EXIT_VALIDATION:
        assert err == "dualrail: dual-rail post-selection accepted zero mass\n"
    assert "Traceback" not in err
