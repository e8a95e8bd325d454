"""Command-line interface: gate checks, noise sweeps, oracle validation.

Subcommands
-----------
truthtable        print and verify the Fredkin gate action on the 3-mode basis
lossy-gate        verify the lossy gate decomposition on |101><101| / |011><011|
sweep-loss        error curves vs photon loss, with and without correction
sweep-dephasing   error curves vs dephasing, plain and projectively corrected
mc-validate       Monte-Carlo dephasing oracle vs the analytic channel
lambda-physical   convert medium parameters to a dephasing strength

Each subcommand declares only the options it reads, except that sweep-loss
also accepts an unused --seed.  Numbers are serialized with 12 significant
digits; identical flags and seed produce byte-identical output.  Exit codes:
0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .channels import (
    NoiseParams,
    decibels,
    dephased_fredkin_channel,
    lambda_from_physical,
    lossy_fredkin_channel,
    phase_average_stack,
    sampled_phi,
)
from .correction import (
    fit_series,
    lossy_gate_output_101,
    p_accept_projective_closed,
    p_ec_closed,
    p_noec_closed,
    p_plain_closed,
    p_projective_closed,
)
from .fock import (
    DensityOperator,
    FockError,
    FockSpace,
    basis_density,
    check_strength,
    index_of,
    occupation_label,
)
from .gates import fredkin_unitary
from .machine import MachineConfig, readout_error, run_many, which_path_error

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
FORMATS = ("csv", "json")

_TRUTH_TABLE_SPACE = FockSpace(3)
_KNOWN_ROWS = {
    (0, 0, 0): (0, 0, 0),
    (1, 0, 0): (1, 0, 0),
    (0, 1, 0): (0, 1, 0),
    (1, 0, 1): (0, 1, 1),
    (0, 1, 1): (1, 0, 1),
}


class UsageError(Exception):
    """A malformed option value; reported as ``<subcommand>: <message>``, exit 2."""


def _grid(args: argparse.Namespace) -> list[float]:
    """The sweep grid the grid options describe, as finite Python floats."""
    start, stop, count = args.grid_start, args.grid_stop, args.grid_count
    if count < 1:
        raise UsageError("grid count must be >= 1")
    if args.spacing not in ("log", "linear"):
        raise UsageError(f"unknown spacing {args.spacing!r}")
    if not all(math.isfinite(v) and v >= 0 for v in (start, stop)):
        raise UsageError(f"grid start and stop must be finite and >= 0, got {start} and {stop}")
    for name, value in (("start", start), ("stop", stop)):
        if args.spacing == "log" and value <= 0:
            raise UsageError(f"log spacing requires a positive grid {name}")
    if count == 1:
        return [start]
    if args.spacing == "log":
        with np.errstate(over="ignore"):  # a point past the float range is reported below
            grid = np.logspace(math.log10(start), math.log10(stop), count).tolist()
    else:
        grid = np.linspace(start, stop, count).tolist()
    if not all(map(math.isfinite, grid)):
        raise UsageError(f"the grid from {start} to {stop} overflows to a non-finite point")
    return grid


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value + 0.0:.12g}"  # + 0.0 turns -0.0 into 0.0
    return str(value)


def _json_value(value):
    """A float rounded as the CSV prints it, or null when it is not finite (RFC 8259)."""
    if not isinstance(value, float):
        return value
    value = float(_fmt(value))
    return value if math.isfinite(value) else None


def _emit(records: list[dict], args: argparse.Namespace):
    """Write the records, whose keys in order are the output columns."""
    columns = list(records[0])
    if args.format == "csv":
        rows = ([_fmt(rec[c]) for c in columns] for rec in records)
        text = "".join(",".join(row) + "\n" for row in [columns, *rows])
    else:
        rounded = [{c: _json_value(rec[c]) for c in columns} for rec in records]
        text = json.dumps({"columns": columns, "records": rounded}, indent=2,
                          allow_nan=False) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output: {exc}") from None


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FockError(f"config line {raw.rstrip()!r} is not key=value")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def _set_config_defaults(parser: argparse.ArgumentParser, command: str,
                         values: dict[str, str]):
    """Make config entries defaults of ``command``'s own options; explicit flags still win."""
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    sub = subparsers.choices[command]
    dests = {a.dest.replace("_", "-"): a.dest for a in sub._actions
             if a.dest not in ("help", "config")}
    sub.set_defaults(**{dests[k]: v for k, v in values.items() if k in dests})


def cmd_truthtable(args) -> list[str]:
    f = fredkin_unitary(_TRUTH_TABLE_SPACE, 0, 1, 2).matrix
    occupations = list(_TRUTH_TABLE_SPACE.occupations())
    records, failures = [], []
    for occ, col in zip(occupations, f.T):
        j = int(np.argmax(np.abs(col)))
        amp = col[j]
        target = occupations[j]
        # permutation-with-phase structure: one unit-modulus entry per column
        off = np.abs(col).sum() - abs(amp)
        if off > 1e-12 or abs(abs(amp) - 1.0) > 1e-12:
            failures.append(f"column {occupation_label(occ)} is not a pure relabeling")
        if occ in _KNOWN_ROWS:
            want = _KNOWN_ROWS[occ]
            if target != want or abs(amp - 1.0) > 1e-12:
                failures.append(f"row {occupation_label(occ)} -> {occupation_label(target)}"
                                f" (amp {amp:.3g}) differs from {occupation_label(want)}")
        records.append({
            "input": occupation_label(occ),
            "output": occupation_label(target),
            "amplitude_re": float(amp.real),
            "amplitude_im": float(amp.imag),
        })
    _emit(records, args)
    return failures


def cmd_lossy_gate(args) -> list[str]:
    gamma = args.gamma
    try:
        check_strength(gamma, "gamma")
    except FockError as exc:
        raise UsageError(exc) from None
    sp = _TRUTH_TABLE_SPACE
    swapped = [index_of(sp, (b, a, c)) for a, b, c in sp.occupations()]  # a <-> b, an involution
    ref101 = lossy_gate_output_101(gamma)
    ref011 = ref101[np.ix_(swapped, swapped)]
    records, ok = [], True
    for placement in ("after-kerr", "before-kerr", "split"):
        chan = lossy_fredkin_channel(sp, 0, 1, 2, gamma, placement)
        for label, occ, ref in (("101", (1, 0, 1), ref101), ("011", (0, 1, 1), ref011)):
            out = chan.apply(basis_density(sp, occ)).matrix
            dev = float(np.max(np.abs(out - ref)))
            tr_dev = float(abs(np.trace(out).real - 1.0))
            ok = ok and dev <= 1e-12 and tr_dev <= 1e-12
            records.append({"input": label, "placement": placement,
                            "gamma": float(gamma), "max_abs_dev": dev,
                            "trace_dev": tr_dev})
    _emit(records, args)
    return [] if ok else ["output deviates from the closed-form decomposition"]


def cmd_sweep_loss(args) -> list[str]:
    grid = _grid(args)
    runs = [run_many(MachineConfig(k1=1, noise=NoiseParams(gamma=g), noise_model=model)
                     for g in grid) for model in ("loss", "balanced-loss")]
    records, ok = [], True
    for g, plain, balanced in zip(grid, *runs):
        row = {
            "gamma": g,
            "loss_db": decibels(g),
            "p_noec_sim": readout_error(plain)[0],
            "p_noec_closed": p_noec_closed(g),
            "p_ec_sim": readout_error(plain, postselect=True)[0],
            "p_ec_closed": p_ec_closed(g),
            "p_balanced_ec": readout_error(balanced, postselect=True)[0],
        }
        ok = ok and abs(row["p_noec_sim"] - row["p_noec_closed"]) <= 1e-10
        ok = ok and abs(row["p_ec_sim"] - row["p_ec_closed"]) <= 1e-10
        ok = ok and row["p_balanced_ec"] <= 1e-12
        records.append(row)
    _emit(records, args)
    return [] if ok else ["simulated errors deviate from the closed forms"]


def cmd_sweep_dephasing(args) -> list[str]:
    grid = _grid(args)
    plain_runs = run_many(MachineConfig(k1=1, noise=NoiseParams(lam=lam), noise_model="dephasing")
                          for lam in grid)
    proj_runs = run_many(MachineConfig(k1=0, noise=NoiseParams(lam=lam), noise_model="dephasing",
                                       projective_ec=True) for lam in grid)
    records, ok = [], True
    fit_points = {}  # lambda -> p_projective, so each lambda is fitted once
    for lam, plain, proj in zip(grid, plain_runs, proj_runs):
        row = {
            "lambda": lam,
            "damping_db": decibels(lam),
            "p_plain": readout_error(plain)[0],
            "p_projective": which_path_error(proj),
            "p_accept_projective": proj.p_accept,
        }
        ok = ok and abs(row["p_plain"] - p_plain_closed(lam)) <= 1e-10
        ok = ok and abs(row["p_projective"] - p_projective_closed(lam)) <= 1e-10
        ok = ok and abs(row["p_accept_projective"] - p_accept_projective_closed(lam)) <= 1e-10
        if row["p_plain"] <= 1e-12:  # at the noise floor: nothing to improve, both vanish
            ok = ok and row["p_projective"] <= 1e-12
        elif lam <= 0.1:
            ok = ok and row["p_projective"] < row["p_plain"]
            if lam <= 0.05:
                fit_points[lam] = row["p_projective"]
        elif row["p_projective"] >= row["p_plain"]:
            print(f"sweep-dephasing: no improvement at lambda={lam:.6g} (reported only)",
                  file=sys.stderr)
        records.append(row)
    _emit(records, args)
    if len(fit_points) >= 4:
        fit = fit_series(list(fit_points.items()))
        print(f"sweep-dephasing: projective small-lambda fit c1={fit.c1:.6f} "
              f"c2={fit.c2:.6f} (series targets 11/18={11/18:.6f}, "
              f"-47/162={-47/162:.6f}; exact quadratic is -41/108={-41/108:.6f})",
              file=sys.stderr)
    return [] if ok else ["validation failed"]


def cmd_mc_validate(args) -> list[str]:
    lam, samples, seed = args.lam, args.samples, args.seed
    sp = _TRUTH_TABLE_SPACE
    try:
        oracle = phase_average_stack(sp, 0, 1, 2, sampled_phi(lam, samples, seed)[None])
    except FockError as exc:
        raise UsageError(exc) from None
    analytic = dephased_fredkin_channel(sp, 0, 1, 2, lam)
    bound = 5.0 / math.sqrt(samples)
    records, ok = [], True
    for occ in _KNOWN_ROWS:
        rho = basis_density(sp, occ)
        sampled = DensityOperator(sp, oracle(rho.matrix[None])[0])  # validated like a run's states
        err = float(np.max(np.abs(sampled.matrix - analytic.apply(rho).matrix)))
        passed = err <= bound
        ok = ok and passed
        records.append({"input": occupation_label(occ), "lambda": float(lam),
                        "samples": samples, "seed": seed,
                        "max_abs_error": err, "bound": bound,
                        "status": "pass" if passed else "fail"})
    _emit(records, args)
    return [] if ok else ["Monte-Carlo estimate outside the statistical bound"]


def cmd_lambda_physical(args) -> list[str]:
    omega, intensity = args.omega, args.intensity
    if omega is None or intensity is None:
        raise UsageError("--omega and --intensity are required")
    try:
        lam = lambda_from_physical(omega, intensity)
    except FockError as exc:
        raise UsageError(exc) from None
    records = [{"omega": float(omega), "intensity": float(intensity),
                "lambda": lam, "damping_db": decibels(lam)}]
    _emit(records, args)
    return []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualrail",
        description="Density-matrix simulator for lossy, decohering single-photon logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        """A subparser with the options every subcommand accepts."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=FORMATS, default="csv")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--config", default=None, help="key=value defaults file")
        p.set_defaults(func=func)
        return p

    def sweep(name, func, help):
        p = command(name, func, help)
        p.add_argument("--grid-start", type=float, default=1e-3)
        p.add_argument("--grid-stop", type=float, default=1.0)
        p.add_argument("--grid-count", type=int, default=61)
        spacing = p.add_mutually_exclusive_group()
        spacing.add_argument("--log", dest="spacing", action="store_const", const="log",
                             default="log", help="log-spaced grid (default)")
        spacing.add_argument("--linear", dest="spacing", action="store_const",
                             const="linear", help="linearly spaced grid")
        return p

    command("truthtable", cmd_truthtable, "verify the Fredkin gate truth table")
    p = command("lossy-gate", cmd_lossy_gate, "verify the lossy gate decomposition")
    p.add_argument("--gamma", type=float, default=0.1)
    p = sweep("sweep-loss", cmd_sweep_loss, "error vs photon loss (Fig.-5-style data)")
    p.add_argument("--seed", type=int, default=12345, help="unused; the sweep is deterministic")
    sweep("sweep-dephasing", cmd_sweep_dephasing, "error vs dephasing (Fig.-6-style data)")
    p = command("mc-validate", cmd_mc_validate, "Monte-Carlo oracle vs analytic channel")
    p.add_argument("--lam", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=12345)
    p = command("lambda-physical", cmd_lambda_physical,
                "dephasing strength from medium parameters")
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--intensity", type=float, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            values = _load_config_file(args.config)
        except (OSError, UnicodeDecodeError, FockError) as exc:
            print(f"dualrail: cannot read config file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        _set_config_defaults(parser, args.command, values)
        args = parser.parse_args(argv)
    try:
        if args.format not in FORMATS:
            raise UsageError(f"unknown format {args.format!r}")
        failures = args.func(args)  # each cmd_* returns its validation failures
    except UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # a grid or sample count too large to allocate
        print(f"{args.command}: not enough memory for this request", file=sys.stderr)
        return EXIT_USAGE
    except FockError as exc:
        print(f"dualrail: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    for msg in failures:
        print(f"{args.command}: {msg}", file=sys.stderr)
    return EXIT_VALIDATION if failures else EXIT_OK


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
