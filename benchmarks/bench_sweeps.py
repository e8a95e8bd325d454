"""Wall time of the two CLI sweeps, in-process, on the default 61-point log grid.

The file name does not match ``test_*.py``, so the test suite does not collect
it.  Run it on a source tree with pytest-benchmark:

    python -m pytest benchmarks/bench_sweeps.py --benchmark-json=bench.json

The ``BENCH_<n>.json`` files at the repository root hold its results on a
change and on its parent, measured on one host.
"""

import contextlib
import io

import pytest

from dualrail import cli

GRID = ["--grid-start", "1e-3", "--grid-stop", "1", "--grid-count", "61", "--log"]


@pytest.mark.parametrize("command", ["sweep-loss", "sweep-dephasing"])
def test_sweep(benchmark, command):
    def sweep():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main([command, *GRID])

    assert benchmark.pedantic(sweep, rounds=40, warmup_rounds=2) == 0
