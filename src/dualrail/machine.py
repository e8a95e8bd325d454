"""The two-switch single-photon interferometer machine and its noisy runs.

Five optical modes a, b, c, d, e (indices 0..4); input |abcde> = |01010>.
The pipeline, applied left to right, is

    B_cd  ->  gate 1  ->  [projective correction]  ->  S_a(pi)  ->  gate 2  ->  B_cd^dag

where both gates are Fredkin gates acting on (a, b, e) for switch k1 = 0 and
on (a, b, c) for k1 = 1.  Noise-free, the machine ends in |0101> for k1 = 0
and |0110> for k1 = 1, and the function class is read from the mode-d
detector: a click answers for k1 = 0, no click for k1 = 1.

Two error figures are exposed.  ``RunResult.p_error`` scores the mode-d
readout against the correct class; without post-selection it additionally
charges half of the probability of lone-photon outcomes left on the noisy
gate's Kerr-cell rails, since a run that lost its partner photon inside the
cell carries no which-rail information.  With this scoring the uncorrected
lossy machine reproduces the closed form (1 + e^-g - 2 e^(-3g/2))/4 exactly.
``which_path_error`` instead scores the a/b interferometer (a photon exiting
in mode a took the wrong path); for k1 = 0, where every valid outcome clicks
d and the readout is uninformative, this is the figure the dephasing
experiments and the projective correction act on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import (
    DensityMap,
    NoiseParams,
    balanced_lossy_fredkin_channel,
    dephased_fredkin_channel,
    dephased_fredkin_mc,
)
from .correction import ZeroAcceptanceError, legal_mask, projective_ec_step
from .fock import (
    PROB_OMIT_THRESHOLD,
    DensityOperator,
    FockError,
    FockSpace,
    OccupationVector,
    PureState,
    apply_unitary,
    basis_pure,
    marginal_distribution,
    occupation_table,
)
from .gates import (
    beamsplitter_unitary,
    fredkin_unitary,
    phase_shift_unitary,
)

MODE_A, MODE_B, MODE_C, MODE_D, MODE_E = range(5)
RAIL_MODES = (MODE_A, MODE_B, MODE_C, MODE_D)


def machine_space() -> FockSpace:
    return FockSpace(5, 1)


def machine_input(space: FockSpace) -> PureState:
    return basis_pure(space, (0, 1, 0, 1, 0) + (0,) * (space.n_modes - 5))


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


@dataclass(frozen=True)
class MachineConfig:
    """Switch settings, noise model, and correction strategy for one run."""

    k1: int
    noise: NoiseParams = field(default_factory=NoiseParams)
    noise_model: str = "none"
    projective_ec: bool = False
    dualrail_postselect: bool = False

    def __post_init__(self):
        if self.k1 not in (0, 1):
            raise FockError("k1 must be 0 or 1")
        if self.noise_model not in NOISE_MODELS:
            raise FockError(f"noise_model must be one of {NOISE_MODELS}")
        if self.projective_ec and NOISE_PLACEMENT[self.noise_model][1] is not None:
            raise FockError("projective correction requires a photon-number-preserving run")


@dataclass(frozen=True, eq=False)
class RunResult:
    """Final state and scored statistics of one machine run.

    ``output_state`` and ``outcome_distribution`` describe the machine output
    before any post-selection (the distribution over modes a-d sums to 1 and
    omits entries below PROB_OMIT_THRESHOLD); ``p_accept`` and ``p_error``
    carry the post-selected statistics, scored from the full diagonal.
    """

    config: MachineConfig
    output_state: DensityOperator
    outcome_distribution: tuple[tuple[OccupationVector, float], ...]
    p_accept: float
    p_error: float
    intermediate_states: tuple[PureState, ...] | None = None


def _rail_outcomes(rho: DensityOperator) -> tuple[np.ndarray, FockSpace]:
    """The full outcome diagonal over the rail modes a-d, tiny entries included, and their space."""
    return marginal_distribution(rho, RAIL_MODES), FockSpace(len(RAIL_MODES), rho.space.cutoff)


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
    hit = sum(probs[event & (probs / accepted > PROB_OMIT_THRESHOLD)].tolist())
    return hit / accepted, accepted


def _score(probs: np.ndarray, rails: FockSpace, config: MachineConfig) -> tuple[float, float]:
    """(p_error, dual-rail acceptance) for the full a-d outcome diagonal of a run."""
    table, legal = occupation_table(rails), legal_mask(rails)
    # correct readout: mode d clicks for k1 = 0, stays dark for k1 = 1
    wrong = legal & (table[:, MODE_D] == config.k1)
    if config.dualrail_postselect:
        return _conditional(probs, legal, wrong)
    arms = [m for m in gate_modes(config.k1)[1:] if m in RAIL_MODES]  # the Kerr-cell rails
    lone = (table.sum(axis=1) == 1) & (table[:, arms] == 1).any(axis=1)
    return _conditional(probs, None, wrong)[0] + 0.5 * _conditional(probs, None, lone)[0], 1.0


def _gate_channel(space: FockSpace, config: MachineConfig, slot: int,
                  mc_samples: int | None, mc_seed: int) -> DensityMap:
    """Channel (or Monte-Carlo map) implementing gate slot 0 or 1."""
    modes = gate_modes(config.k1)
    noisy_slots, damped = NOISE_PLACEMENT[config.noise_model]
    if slot not in noisy_slots:
        fredkin = fredkin_unitary(space, *modes)
        return lambda rho: apply_unitary(rho, fredkin)
    if damped is not None:
        return balanced_lossy_fredkin_channel(space, *modes, damped(config.k1),
                                              config.noise.gamma).apply
    if mc_samples is not None:
        return dephased_fredkin_mc(space, *modes, config.noise.lam, mc_samples,
                                   [mc_seed, slot])
    return dephased_fredkin_channel(space, *modes, config.noise.lam).apply


def run(config: MachineConfig, mc_samples: int | None = None,
        mc_seed: int = 0) -> RunResult:
    """Run the machine pipeline for one configuration.

    Passing ``mc_samples`` replaces the analytic dephasing channels with the
    seeded Monte-Carlo oracle, with one phase stream per gate: seed
    ``[mc_seed, 0]`` for the first gate and ``[mc_seed, 1]`` for the second.
    """
    space = machine_space()
    bcd = beamsplitter_unitary(space, MODE_C, MODE_D)
    s_a = phase_shift_unitary(space, MODE_A, math.pi)

    rho = machine_input(space).density()
    rho = apply_unitary(rho, bcd)
    rho = _gate_channel(space, config, 0, mc_samples, mc_seed)(rho)
    p_accept = 1.0
    if config.projective_ec:
        rho, p_accept = projective_ec_step(rho)
    rho = apply_unitary(rho, s_a)
    rho = _gate_channel(space, config, 1, mc_samples, mc_seed)(rho)
    rho = apply_unitary(rho, bcd.dagger)

    probs, rails = _rail_outcomes(rho)
    p_error, dualrail_acc = _score(probs, rails, config)
    p_accept *= dualrail_acc
    dist4 = tuple((occ, p) for occ, p in zip(rails.occupations(), probs.tolist())
                  if p > PROB_OMIT_THRESHOLD)
    return RunResult(config, rho, dist4, p_accept, p_error)


def ideal_run(k1: int) -> RunResult:
    """Noise-free reference run, recording the pure intermediate states."""
    space = machine_space()
    psi1 = beamsplitter_unitary(space, MODE_C, MODE_D).matrix @ machine_input(space).amplitudes
    psi2 = fredkin_unitary(space, *gate_modes(k1)).matrix @ psi1
    psi3 = phase_shift_unitary(space, MODE_A, math.pi).matrix @ psi2
    states = tuple(PureState(space, v) for v in (psi1, psi2, psi3))
    return replace(run(MachineConfig(k1=k1)), intermediate_states=states)


def which_path_error(result: RunResult) -> float:
    """Probability that the a/b interferometer released its photon in mode a.

    Conditioned on dual-rail acceptance when the run post-selects.  This is
    the phase-noise figure of merit: for k1 = 0 the mode-d readout never
    errs, and what decoherence damages is the which-path purity of the a/b
    pair; the projective correction improves exactly this quantity, from the
    uncorrected (1 - e^-2lam)/2 to (1 - q)(6 + 5q)/(6(2 + q)), q = e^-lam.
    """
    probs, rails = _rail_outcomes(result.output_state)
    legal = legal_mask(rails) if result.config.dualrail_postselect else None
    p_wrong_path, _ = _conditional(probs, legal, occupation_table(rails)[:, MODE_A] == 1)
    return p_wrong_path

