"""Mutation census: the test suite must fail with each listed one-line mutant of src/.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

It copies src/, tests/, README.md and pyproject.toml to a temporary
directory and first checks that the unmutated suite passes there with the
three by-design acceptance failures deselected.  Then it applies each mutant
in turn, reruns the suite (stopping at its first failure) and restores the
file.  A mutant is killed when the suite fails.  The census exits 1 if any
mutant survives, and 2 if a mutant's old text does not occur exactly once or
the unmutated suite fails.  Its name does not match test_*.py, so the suite
does not collect it.  A check added to src/ adds its mutant here.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")
BY_DESIGN = ("test_criterion_04_balanced_loss", "test_criterion_06_dephasing_k1_table",
             "test_criterion_07_series_improvement")
FOCK, CLI, MACHINE, CHANNELS = (f"src/dualrail/{name}.py"
                                for name in ("fock", "cli", "machine", "channels"))

# (file, old text, new text, what the mutant breaks); each old text occurs exactly once
MUTANTS = [
    (FOCK, "HERMITICITY_TOL = 1e-12", "HERMITICITY_TOL = 1e-11",
     "check_densities' Hermiticity bound loosened x10"),
    (FOCK, "TRACE_TOL = 1e-10", "TRACE_TOL = 1e-9",
     "check_densities' trace bound loosened x10"),
    (FOCK, "EIGENVALUE_FLOOR = -1e-10", "EIGENVALUE_FLOOR = -1e-9",
     "check_densities' eigenvalue floor loosened x10"),
    (CLI, "ok = ok and dev <= 1e-12", "ok = ok and dev <= 1e-11",
     "lossy-gate's deviation bound loosened x10"),
    (CLI, "and tr_dev <= 1e-12", "and tr_dev <= 1e-11",
     "lossy-gate's trace bound loosened x10"),
    (CLI, "if off > 1e-12 or", "if off > 1e-11 or",
     "truthtable's off-support bound loosened x10"),
    (CLI, "abs(abs(amp) - 1.0) > 1e-12", "abs(abs(amp) - 1.0) > 1e-11",
     "truthtable's unit-modulus bound loosened x10"),
    (CLI, "abs(amp - 1.0) > 1e-12", "abs(amp - 1.0) > 1e-11",
     "truthtable's known-row amplitude bound loosened x10"),
    (CLI, 'row["p_noec_closed"]) <= 1e-10', 'row["p_noec_closed"]) <= 1e-9',
     "sweep-loss's uncorrected column check loosened x10"),
    (CLI, 'row["p_ec_closed"]) <= 1e-10', 'row["p_ec_closed"]) <= 1e-9',
     "sweep-loss's post-selected column check loosened x10"),
    (CLI, 'row["p_balanced_ec"] <= 1e-12', 'row["p_balanced_ec"] <= 1e-11',
     "sweep-loss's balanced bound loosened x10"),
    (CLI, "p_plain_closed(lam)) <= 1e-10", "p_plain_closed(lam)) <= 1e-9",
     "sweep-dephasing's plain column check loosened x10"),
    (CLI, "- p_projective_closed(lam)) <= 1e-10", "- p_projective_closed(lam)) <= 1e-9",
     "sweep-dephasing's corrected column check loosened x10"),
    (CLI, "p_accept_projective_closed(lam)) <= 1e-10", "p_accept_projective_closed(lam)) <= 1e-9",
     "sweep-dephasing's acceptance column check loosened x10"),
    (CLI, 'if row["p_plain"] <= 1e-12:', 'if row["p_plain"] <= 1e-11:',
     "sweep-dephasing's noise floor raised x10"),
    (CLI, 'ok = ok and row["p_projective"] <= 1e-12', 'ok = ok and row["p_projective"] <= 1e-11',
     "sweep-dephasing's corrected bound at the noise floor loosened x10"),
    (MACHINE, "share > PROB_OMIT_THRESHOLD", "share >= PROB_OMIT_THRESHOLD",
     "an outcome at the omit threshold counted"),
    (MACHINE, "if not isinstance(self.noise_model, str) or ", "if ",
     "an unhashable noise model reaches the table lookup"),
    (MACHINE, 'check_integer(k1, "k1", 0, 1)\n    table', 'k1\n    table',
     "readout_errors reads an unchecked k1"),
    (MACHINE, "if rows.imag.any():", "if False:",
     "complex outcomes scored by their real part"),
    (MACHINE, "for m in _GATE_MODES[k1][1:]], gamma)", "for m in _GATE_MODES[k1][1:2]], gamma)",
     "the loss row damps b only, not the second Kerr-cell mode"),
    (MACHINE, "for m in RAIL_MODES], gamma)", "for m in RAIL_MODES[:3]], gamma)",
     "the balanced-loss row drops rail d"),
    (CHANNELS, "np.arange(1.0, 3.0) ** 2 *", "np.arange(1.0, 3.0) *",
     "the dephasing row's Gaussian phase law exp(-k^2 lam) read as exp(-k lam)"),
]


def suite_passes(root: pathlib.Path) -> bool:
    """Whether the suite in ``root`` passes with the by-design failures deselected."""
    deselect = [f"--deselect=tests/test_acceptance.py::{name}" for name in BY_DESIGN]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *deselect]
    return subprocess.run(command, cwd=root, env=env, capture_output=True).returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, root / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            else:
                shutil.copy2(ROOT / name, root / name)
        for path, old, _, reason in MUTANTS:
            if (count := (root / path).read_text().count(old)) != 1:
                print(f"{path}: {old!r} occurs {count} times ({reason})")
                return 2
        start = time.perf_counter()
        if not suite_passes(root):
            print("the unmutated suite fails")
            return 2
        print(f"unmutated suite passes ({time.perf_counter() - start:.1f} s)")
        survivors = []
        for path, old, new, reason in MUTANTS:
            target, start = root / path, time.perf_counter()
            original = target.read_text()
            target.write_text(original.replace(old, new))
            try:
                killed = not suite_passes(root)
            finally:
                target.write_text(original)
            print(f"{'killed  ' if killed else 'SURVIVED'} {time.perf_counter() - start:5.1f} s"
                  f"  {path}: {reason}")
            if not killed:
                survivors.append(reason)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
