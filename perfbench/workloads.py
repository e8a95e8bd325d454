"""The benchmark workloads: seeded inputs, one timed operation, its check.

Each workload draws its operation inputs in blocks from a numpy Generator
seeded by the benchmark seed, so a seed fixes the input sequence.  The
program only ever sees the drawn inputs (grid bounds, lambda values, Monte
Carlo seeds).  ``execute`` is the timed call into the program; ``check``
runs afterwards, untimed, and classifies the operation:

* ``ok``: the output is correct;
* ``known-defect``: a deep-loss sweep stopped with the documented
  post-selection underflow (ROADMAP Open item 3).  It counts as failed, but
  not as a wrong output;
* ``wrong``: any other nonzero exit, exception or incorrect output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from dualrail import cli, machine
from dualrail.channels import NoiseParams
from dualrail.correction import p_accept_projective_closed, p_projective_closed
from dualrail.machine import MachineConfig

GRID_COUNT = 61
TRACE_OPS = 10  # operations in a traced run; a whole number of blocks
OK, KNOWN_DEFECT, WRONG = "ok", "known-defect", "wrong"


@dataclass(frozen=True)
class Verdict:
    status: str
    points: int = 0
    detail: str = ""


def _cli(argv: list[str]) -> tuple[int | None, str, str]:
    """Run ``dualrail`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # a traceback is a failed operation, not a benchmark crash
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _grid(op: dict) -> np.ndarray:
    """The log grid ``dualrail`` builds from the sweep flags below."""
    return np.logspace(math.log10(op["start"]), math.log10(op["stop"]), GRID_COUNT)


class _Sweep:
    """A CLI sweep subcommand run in-process on a 61-point log grid."""

    command: str
    columns: tuple[str, ...]

    def execute(self, op: dict):
        return _cli([self.command, "--grid-start", repr(op["start"]),
                     "--grid-stop", repr(op["stop"]), "--grid-count", str(GRID_COUNT), "--log"])

    def rows(self, op: dict, result) -> tuple[list[dict[str, float]] | None, str]:
        """Parsed CSV rows of a sweep that exited 0 on the requested grid, else a reason."""
        code, out, _ = result
        if code != 0:
            return None, f"exit code {code}"
        reader = csv.DictReader(io.StringIO(out))
        if tuple(reader.fieldnames or ()) != self.columns:
            return None, f"columns {reader.fieldnames}"
        try:
            rows = [{k: float(v) for k, v in row.items()} for row in reader]
        except (TypeError, ValueError):
            return None, "unparsable row"
        if len(rows) != GRID_COUNT:
            return None, f"{len(rows)} rows, expected {GRID_COUNT}"
        grid_column = self.columns[0]
        got = np.array([row[grid_column] for row in rows])
        if not np.allclose(got, _grid(op), rtol=1e-11, atol=0.0):
            return None, f"{grid_column} column differs from the requested grid"
        if not all(math.isfinite(v) for row in rows for v in row.values()):
            return None, "non-finite value"
        return rows, ""

    def output_bytes(self, result) -> int:
        return len(result[1].encode())


class LossSweep(_Sweep):
    """``dualrail sweep-loss`` on a 61-point log gamma grid.

    Each block of ten sweeps holds exactly one deep sweep whose stop lies past
    gamma = 8.06 (35 dB), where the balanced dual-rail post-selection
    underflows today; the other nine stop below 6.
    """

    name = "loss-sweep"
    command = "sweep-loss"
    block = 10
    columns = ("gamma", "loss_db", "p_noec_sim", "p_noec_closed", "p_ec_sim",
               "p_ec_closed", "p_balanced_ec")
    underflow_gamma = 8.0  # grids stopping at or below this run through today
    underflow_message = "dual-rail post-selection accepted zero mass"

    def draw(self, rng: np.random.Generator) -> list[dict]:
        deep = int(rng.integers(self.block))
        ops = []
        for i in range(self.block):
            start = _log_uniform(rng, 1e-4, 1e-2)
            stop = float(rng.uniform(8.5, 12.0)) if i == deep else _log_uniform(rng, 0.3, 6.0)
            ops.append({"start": start, "stop": stop})
        return ops

    def check(self, op: dict, result) -> Verdict:
        code, _, err = result
        rows, why = self.rows(op, result)
        if rows is not None:
            return Verdict(OK, GRID_COUNT)
        if code == 1 and self.underflow_message in err and op["stop"] > self.underflow_gamma:
            return Verdict(KNOWN_DEFECT, 0, self.underflow_message)
        return Verdict(WRONG, 0, f"{why}: {err.strip()[-300:]}")


class DephasingSweep(_Sweep):
    """``dualrail sweep-dephasing`` on a 61-point log lambda grid in [1e-4, 1].

    The projective columns are checked against the closed forms in
    ``dualrail.correction``, which the CLI itself does not compare.
    """

    name = "dephasing-sweep"
    command = "sweep-dephasing"
    block = 1
    columns = ("lambda", "damping_db", "p_plain", "p_projective", "p_accept_projective")
    tolerance = 1e-10

    def draw(self, rng: np.random.Generator) -> list[dict]:
        return [{"start": _log_uniform(rng, 1e-4, 1e-2), "stop": _log_uniform(rng, 0.1, 1.0)}]

    def check(self, op: dict, result) -> Verdict:
        rows, why = self.rows(op, result)
        if rows is None:
            return Verdict(WRONG, 0, f"{why}: {result[2].strip()[-300:]}")
        for lam, row in zip(_grid(op), rows):
            for column, closed in (("p_projective", p_projective_closed),
                                   ("p_accept_projective", p_accept_projective_closed)):
                dev = abs(row[column] - closed(float(lam)))
                if dev > self.tolerance:
                    return Verdict(WRONG, 0, f"{column} at lambda={lam:.6g} off by {dev:.2e}")
        return Verdict(OK, GRID_COUNT)


class McOracle:
    """Monte-Carlo ``machine.run`` for k1=1 and for k1=0 with projective correction.

    Both runs share one lambda and one MC seed; each final state must agree
    with the analytic run entrywise within 5/sqrt(n), the bound
    ``dualrail mc-validate`` uses.
    """

    name = "mc-oracle"
    block = 1
    samples = 100_000

    @staticmethod
    def configs(lam: float) -> tuple[MachineConfig, MachineConfig]:
        noise = NoiseParams(lam=lam)
        return (MachineConfig(k1=1, noise=noise, noise_model="dephasing"),
                MachineConfig(k1=0, noise=noise, noise_model="dephasing", projective_ec=True))

    def draw(self, rng: np.random.Generator) -> list[dict]:
        return [{"lam": _log_uniform(rng, 1e-2, 1.0), "mc_seed": int(rng.integers(2**31))}]

    def execute(self, op: dict):
        return [machine.run(config, mc_samples=self.samples, mc_seed=op["mc_seed"])
                for config in self.configs(op["lam"])]

    def check(self, op: dict, result) -> Verdict:
        bound = 5.0 / math.sqrt(self.samples)
        for config, mc in zip(self.configs(op["lam"]), result):
            exact = machine.run(config).output_state.matrix
            err = float(np.max(np.abs(mc.output_state.matrix - exact)))
            if not err <= bound:
                return Verdict(WRONG, 0, f"k1={config.k1}: MC deviates by {err:.3e} > {bound:.3e}")
        return Verdict(OK, len(result))

    def output_bytes(self, result) -> int:
        return 0


WORKLOADS = {w.name: w for w in (LossSweep(), DephasingSweep(), McOracle())}


class Harness:
    """Runs one workload's operations and records time, CPU and verdicts."""

    def __init__(self, name: str, seed: int):
        self.wl = WORKLOADS[name]
        self.rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
        self.records: list[dict] = []

    def next_block(self) -> list[dict]:
        return self.wl.draw(self.rng)

    def measure(self, op: dict, tracer=None) -> dict:
        op_id = len(self.records)
        span = tracer.operation(op_id) if tracer is not None else contextlib.nullcontext()
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with span:
                result = self.wl.execute(op)
        except Exception:  # an exception from the program is a failed operation
            error = traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if error is None:
            verdict, out_bytes = self.wl.check(op, result), self.wl.output_bytes(result)
        else:
            verdict, out_bytes = Verdict(WRONG, 0, error), 0
        rec = {"op": op_id, "wall": wall, "cpu": cpu, "status": verdict.status,
               "points": verdict.points, "detail": verdict.detail, "bytes": out_bytes}
        self.records.append(rec)
        return rec

    def summary(self) -> tuple[bool, int, int]:
        """(no wrong output, operations attempted, operations failed); reports failures."""
        for r in self.records:
            if r["status"] != OK:
                print(f"# op {r['op']}: {r['status']}: {r['detail'].strip()}", file=sys.stderr)
        correct = all(r["status"] != WRONG for r in self.records)
        failed = sum(r["status"] != OK for r in self.records)
        return correct, len(self.records), failed
