"""Wall time of the two CLI sweeps, of one Monte-Carlo oracle check and of the state check.

The sweeps run on the default 61-point log grid.  The Monte-Carlo case is
the ``mc-oracle`` operation: one seeded ``machine.run`` for k1 = 1 and one
for k1 = 0 with projective correction, sharing lambda, sample count and seed.
The state-check case times ``fock.check_densities`` on a
(STACK_HEIGHT, 16, 16) stack of plain-loss machine outputs, one ``run`` per
config, cut to the reachable basis ``photon_basis(SPACE, PHOTONS)``: the
check ``run_grid`` makes on one full stack after each noisy gate and the
projection, since it folds STACK_HEIGHT points at a time on that basis.

The file name does not match ``test_*.py``, so the test suite does not collect
it.  Run it on a source tree with pytest-benchmark:

    python -m pytest benchmarks/bench_sweeps.py --benchmark-json=bench.json

The ``BENCH_<n>.json`` files at the repository root hold its results on a
change and on its parent, measured on one host.
"""

import contextlib
import io
import itertools

import numpy as np
import pytest

from dualrail import MachineConfig, NoiseParams, cli, run
from dualrail.fock import check_densities, photon_basis
from dualrail.machine import PHOTONS, SPACE, STACK_HEIGHT

GRID = ["--grid-start", "1e-3", "--grid-stop", "1", "--grid-count", "61", "--log"]
MC_SAMPLES = 100_000


@pytest.mark.parametrize("command", ["sweep-loss", "sweep-dephasing"])
def test_sweep(benchmark, command):
    def sweep():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main([command, *GRID])

    assert benchmark.pedantic(sweep, rounds=40, warmup_rounds=2) == 0


def test_mc_oracle(benchmark):
    noise = NoiseParams(lam=0.1)
    configs = (MachineConfig(k1=1, noise=noise, noise_model="dephasing"),
               MachineConfig(k1=0, noise=noise, noise_model="dephasing", projective_ec=True))
    seeds = itertools.count()  # a fresh seed per round, as each mc-oracle operation draws one

    def oracle():
        seed = next(seeds)
        return [run(config, mc_samples=MC_SAMPLES, mc_seed=seed) for config in configs]

    assert len(benchmark.pedantic(oracle, rounds=40, warmup_rounds=2)) == 2


def test_state_check(benchmark):
    configs = [MachineConfig(k1=1, noise=NoiseParams(gamma=g), noise_model="loss")
               for g in np.geomspace(0.01, 1.0, STACK_HEIGHT)]
    keep = photon_basis(SPACE, PHOTONS)
    stack = np.stack([run(config).output_state.matrix[np.ix_(keep, keep)] for config in configs])
    assert stack.shape == (STACK_HEIGHT, 16, 16)
    assert benchmark.pedantic(check_densities, (stack,), rounds=200, warmup_rounds=5) is None
