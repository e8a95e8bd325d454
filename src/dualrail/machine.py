"""The two-switch single-photon interferometer machine and its noisy runs.

Five optical modes a, b, c, d, e (indices 0..4), SPACE; input INPUT = |01010>.
``stages`` is the one statement of the pipeline order: B_cd, gate 0,
[projective correction], S_a(pi), gate 1, B_cd^dag.  Both gates are
Fredkin gates acting on (a, b, e) for switch k1 = 0 and on (a, b, c) for
k1 = 1; only a gate that NOISE_PLACEMENT makes noisy is built per stack.
Noise-free, the machine ends in |0101> for k1 = 0 and |0110> for k1 = 1,
and the function class is read from the mode-d detector: a click answers
for k1 = 0, no click for k1 = 1.

``run_many`` folds ``stages`` over a stack of runs that share one stage
list, up to STACK_HEIGHT grid points at once, on the reachable basis: no
stage raises INPUT's PHOTONS = 2 photons, so only the 16 basis states with
at most two hold weight, and each output is embedded into SPACE as it is
yielded.
It checks the output of each noisy gate and of the projection: a checked
unitary keeps a state a state.  ``run`` is its one-config case.  A run
yields its output state and its a-d outcomes, which the fold reads off the
stack's diagonal once; both error figures read those outcomes.
``readout_error`` scores the mode-d readout against the correct class;
without post-selection it additionally charges half of the probability of
lone-photon outcomes left on the noisy gate's Kerr-cell rails, since a run
that lost its partner photon inside the cell carries no which-rail
information.  With this scoring the uncorrected lossy machine reproduces the
closed form (1 + e^-g - 2 e^(-3g/2))/4 exactly, and the same state scored
with dual-rail post-selection gives (1 - sech(g/2))/2.
``which_path_error`` instead scores the a/b interferometer, the figure the
dephasing experiments and the projective correction act on for k1 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .channels import (
    NoiseParams,
    StackMap,
    _cell_gate,
    _damping,
    _gaussian_phis,
    _phase_mask,
    sampled_phi,
)
from .correction import ZeroAcceptanceError, legal_mask, projective_ec_stack
from .fock import (
    PROB_OMIT_THRESHOLD,
    DensityOperator,
    FockError,
    FockSpace,
    LinearOperator,
    basis_pure,
    check_densities,
    check_integer,
    checked_densities,
    marginal_distribution,
    occupation_table,
    photon_basis,
)
from .gates import beamsplitter_unitary, fredkin_unitary, phase_shift_unitary

MODE_A, MODE_B, MODE_C, MODE_D, MODE_E = range(5)
SPACE = FockSpace(5)
INPUT = basis_pure(SPACE, (0, 1, 0, 1, 0))
_INPUT_DENSITY = INPUT.density()  # validated, the start of every fold
PHOTONS = 2  # INPUT's photon number
_REACHABLE = photon_basis(SPACE, PHOTONS)  # the basis the fold works on
RAIL_MODES = (MODE_A, MODE_B, MODE_C, MODE_D)
RAILS = FockSpace(len(RAIL_MODES))  # the space of the a-d outcomes every figure is read from
PROJECTION = "projective-ec"  # the stage of ``stages`` that projects onto the legal span
# Grid points folded through the pipeline at once.  A taller stack saves
# per-stack overhead but holds more intermediates.  On a 2-core host, the best
# of 40 61-point sweep-loss runs took 16.7-17.5 ms at height 4, 11.2-11.4 ms
# at 16 and 11.3-11.6 ms at 64; the benchmark's loss-sweep peak RSS read
# 40.7-40.8 MB at 4, 40.8-41.0 MB at 16 and 42.0-42.1 MB at 64.
STACK_HEIGHT = 16


def gate_modes(k1: int) -> tuple[int, int, int]:
    """Fredkin modes for a switch setting: (a, b, e) for k1=0, (a, b, c) for k1=1."""
    return (MODE_A, MODE_B, MODE_C) if k1 == 1 else (MODE_A, MODE_B, MODE_E)


# Noise placement, the one statement of it: noise model -> (noisy gate slots,
# 0 = first and 1 = second, and for the loss models the modes each noisy gate
# damps, as a function of k1).  Plain loss hits the Kerr cell of the second
# gate only; the balanced design damps the four rails a-d equally in both
# gates, the bystander the gate does not touch included, which is what makes
# the post-selected outcomes error-free; dephasing hits both Kerr cells.
NOISE_PLACEMENT = {
    "none": ((), None),
    "loss": ((1,), lambda k1: gate_modes(k1)[1:]),
    "balanced-loss": ((0, 1), lambda k1: RAIL_MODES),
    "dephasing": ((0, 1), None),
}
NOISE_MODELS = tuple(NOISE_PLACEMENT)


def _read_strength(noise_model: str) -> str | None:
    """The NoiseParams field a model reads: gamma if it damps, lam if it dephases, else None."""
    slots, damped = NOISE_PLACEMENT[noise_model]
    return "gamma" if damped is not None else "lam" if slots else None


@dataclass(frozen=True)
class MachineConfig:
    """Switch settings, noise model, and correction strategy for one run."""

    k1: int
    noise: NoiseParams = field(default_factory=NoiseParams)
    noise_model: str = "none"
    projective_ec: bool = False

    def __post_init__(self):
        check_integer(self.k1, "k1", 0, 1)
        if not (isinstance(self.noise, NoiseParams) and isinstance(self.projective_ec, bool)):
            raise FockError("noise must be a NoiseParams and projective_ec a bool")
        if self.noise_model not in NOISE_MODELS:
            raise FockError(f"noise_model must be one of {NOISE_MODELS}")
        read = _read_strength(self.noise_model)
        if self.projective_ec and read == "gamma":
            raise FockError("projective correction requires a photon-number-preserving run")
        for name in ("gamma", "lam"):
            if name != read and getattr(self.noise, name) != 0:
                raise FockError(f"noise model {self.noise_model!r} does not read {name}")


@dataclass(frozen=True, eq=False)
class RunResult:
    """Final state of one machine run; ``readout_error`` and ``which_path_error`` score it.

    ``p_accept`` is the acceptance of the projective correction, 1 for a run
    without it.  ``outcomes`` is the read-only a-d distribution of the output
    state over RAILS, the marginal the figures read: the fold supplies it from
    its stack, and a result built without it derives it from ``output_state``.
    """

    config: MachineConfig
    output_state: DensityOperator
    p_accept: float
    outcomes: np.ndarray | None = None

    def __post_init__(self):
        if self.outcomes is None:
            outcomes = marginal_distribution(self.output_state, RAIL_MODES)
            outcomes.flags.writeable = False
            object.__setattr__(self, "outcomes", outcomes)


def _conditional(probs: np.ndarray, legal: np.ndarray | None,
                 event: np.ndarray) -> tuple[float, float]:
    """(P(event), acceptance) from a-d outcome masks, conditioned on ``legal`` unless None.

    An outcome counts when its share of the acceptance exceeds
    PROB_OMIT_THRESHOLD, so a tiny legal mass is still scored.  The sums add
    sequentially in index order, which fixes the last digits the CLI prints.
    """
    accepted = 1.0
    if legal is not None:
        event = event & legal
        accepted = sum(probs[legal].tolist())
        if accepted <= 0.0:
            raise ZeroAcceptanceError("dual-rail post-selection accepted zero mass")
    with np.errstate(over="ignore"):  # a share of a subnormal acceptance may overflow to inf
        share = probs / accepted
    hit = sum(probs[event & (share > PROB_OMIT_THRESHOLD)].tolist())
    return hit / accepted, accepted


def _gate_stack(configs: Sequence[MachineConfig], slot: int, mc_samples: int | None,
                mc_seed: int) -> StackMap:
    """Noisy gate slot 0 or 1 on a reachable-basis stack of runs that share k1 and noise model.

    Lossy slots damp their modes in the Kerr-cell frame; dephased slots apply
    the phase average there, with the Gaussian phi analytically and the
    sampled phi under ``mc_samples``.  Point g reads the strength of configs[g].
    """
    config = configs[0]
    modes = gate_modes(config.k1)
    damped = NOISE_PLACEMENT[config.noise_model][1]
    if damped is not None:
        noise = _damping(SPACE, damped(config.k1), [c.noise.gamma for c in configs], PHOTONS)
    else:
        lam = [c.noise.lam for c in configs]
        noise = _phase_mask(SPACE, *modes, _gaussian_phis(lam) if mc_samples is None else
                            [sampled_phi(x, mc_samples, [mc_seed, slot]) for x in lam], PHOTONS)
    return _cell_gate(SPACE, *modes, noise, PHOTONS)


def stages(config: MachineConfig) -> list[LinearOperator | int | str]:
    """The pipeline in order: unitaries, the gates in slots 0 and 1, and PROJECTION if corrected.

    A gate slot NOISE_PLACEMENT leaves noise-free holds the Fredkin unitary;
    a noisy one holds its int, 0 or 1, and ``_gate_stack`` builds its map.
    """
    bcd, noisy = beamsplitter_unitary(SPACE, MODE_C, MODE_D), NOISE_PLACEMENT[config.noise_model][0]
    g0, g1 = [s if s in noisy else fredkin_unitary(SPACE, *gate_modes(config.k1)) for s in (0, 1)]
    projection = [PROJECTION] if config.projective_ec else []
    return [bcd, g0, *projection, phase_shift_unitary(SPACE, MODE_A, math.pi), g1, bcd.dagger]


@lru_cache(maxsize=None)  # only the input and the memoized unitaries of ``stages`` arrive
def _reachable_block(op: DensityOperator | LinearOperator) -> np.ndarray:
    """The block of the input or of a stage unitary on the reachable basis, cut once."""
    return op.matrix[np.ix_(_REACHABLE, _REACHABLE)]


def _fold(configs: Sequence[MachineConfig], mc_samples: int | None,
          mc_seed: int) -> Iterator[RunResult]:
    """Fold one stack over ``stages`` on the reachable basis, checking only non-unitary stages.

    The stack's a-d outcomes are read off its diagonal in one step, the same
    additions ``marginal_distribution`` makes; each point is embedded into
    SPACE as it is yielded.
    """
    height, keep = len(configs), _REACHABLE
    rho = np.broadcast_to(_reachable_block(_INPUT_DENSITY), (height, len(keep), len(keep)))
    p_accept = np.ones(height)
    for stage in stages(configs[0]):
        if isinstance(stage, LinearOperator):  # checked unitary: U rho U^dag stays a state
            u = _reachable_block(stage)
            rho = u @ rho @ u.conj().T
            continue
        if stage == PROJECTION:
            rho, p_accept = projective_ec_stack(SPACE, rho, PHOTONS)
        else:
            rho = _gate_stack(configs, stage, mc_samples, mc_seed)(rho)
        check_densities(rho)

    probs = np.zeros((height, SPACE.dim))  # the diagonal in SPACE; RAIL_MODES are all but e
    probs[:, keep] = rho.diagonal(axis1=1, axis2=2).real
    outcomes = probs.reshape(height, *(2,) * SPACE.n_modes).sum(axis=1 + MODE_E)
    outcomes = outcomes.reshape(height, RAILS.dim)
    outcomes.flags.writeable = False
    for config, block, point, accepted in zip(configs, rho, outcomes, p_accept.tolist()):
        out = np.zeros((1, SPACE.dim, SPACE.dim), dtype=complex)
        out[0, keep[:, None], keep] = block
        [state] = checked_densities(SPACE, out)
        yield RunResult(config, state, accepted, point)


def run_many(configs: Iterable[MachineConfig], mc_samples: int | None = None,
             mc_seed: int = 0) -> Iterator[RunResult]:
    """Run the machine for each configuration, in order, folding stacks of STACK_HEIGHT.

    The configurations must share k1, noise model and projection, so that
    one stage list serves them all; they differ only in noise strength.
    Results are yielded as each stack finishes, so a caller that scores them
    as they come holds one stack at a time.  ``mc_samples`` and ``mc_seed``
    are those of ``run``, applied to every configuration.
    """
    configs = list(configs)
    if not all(isinstance(c, MachineConfig) for c in configs):
        raise FockError("run_many needs MachineConfig values")
    if len({(c.k1, c.noise_model, c.projective_ec) for c in configs}) > 1:
        raise FockError("run_many needs configurations that share k1, noise model "
                        "and projection")
    mc_seed = check_integer(mc_seed, "mc_seed", 0)
    if mc_samples is not None:
        mc_samples = check_integer(mc_samples, "mc_samples", 1)
        if any(_read_strength(c.noise_model) != "lam" for c in configs):
            raise FockError("mc_samples requires the dephasing noise model")
    return (result for start in range(0, len(configs), STACK_HEIGHT)
            for result in _fold(configs[start:start + STACK_HEIGHT], mc_samples, mc_seed))


def run(config: MachineConfig, mc_samples: int | None = None,
        mc_seed: int = 0) -> RunResult:
    """Run the machine pipeline for one configuration: ``run_many`` with one config.

    Passing ``mc_samples`` (dephasing model only) replaces the Gaussian phi
    of the dephased gates with the seeded Monte-Carlo oracle's, seeded
    ``[mc_seed, slot]`` per gate.
    """
    return next(run_many([config], mc_samples, mc_seed))


def readout_error(result: RunResult, postselect: bool = False) -> tuple[float, float]:
    """(Error probability, dual-rail acceptance) of the mode-d class readout of a run.

    With ``postselect`` the error is conditioned on one photon per rail pair
    and the acceptance is the legal mass; raises ZeroAcceptanceError
    when none remains.  Without it the acceptance is 1.
    """
    probs = result.outcomes
    table, legal = occupation_table(RAILS), legal_mask(RAILS)
    k1 = result.config.k1
    # correct readout: mode d clicks for k1 = 0, stays dark for k1 = 1
    wrong = legal & (table[:, MODE_D] == k1)
    if postselect:
        return _conditional(probs, legal, wrong)
    arms = [m for m in gate_modes(k1)[1:] if m in RAIL_MODES]  # the Kerr-cell rails
    lone = (table.sum(axis=1) == 1) & (table[:, arms] == 1).any(axis=1)
    return _conditional(probs, None, wrong)[0] + 0.5 * _conditional(probs, None, lone)[0], 1.0


def which_path_error(result: RunResult) -> float:
    """Probability that the a/b interferometer released its photon in mode a, unconditioned.

    This is the phase-noise figure of merit: for k1 = 0 the mode-d readout
    never errs, and what decoherence damages is the which-path purity of the
    a/b pair; the projective correction improves exactly this quantity, from
    the uncorrected (1 - e^-2lam)/2 to (1 - q)(6 + 5q)/(6(2 + q)), q = e^-lam.
    """
    return _conditional(result.outcomes, None, occupation_table(RAILS)[:, MODE_A] == 1)[0]

