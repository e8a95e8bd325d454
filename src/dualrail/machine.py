"""The two-switch single-photon interferometer machine and its noisy runs.

Five optical modes a, b, c, d, e (indices 0..4); input |abcde> = |01010>.
``stages`` is the one statement of the pipeline order: B_cd, gate slot 0,
[projective correction], S_a(pi), gate slot 1, B_cd^dag.  Both gates are
Fredkin gates acting on (a, b, e) for switch k1 = 0 and on (a, b, c) for
k1 = 1.  Noise-free, the machine ends in |0101> for k1 = 0 and |0110> for
k1 = 1, and the function class is read from the mode-d detector: a click
answers for k1 = 0, no click for k1 = 1.

A run yields its output state; both error figures are read from it.
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

import numpy as np

from .channels import (
    DensityMap,
    NoiseParams,
    balanced_lossy_fredkin_channel,
    dephased_fredkin_apply,
    dephased_fredkin_mc,
)
from .correction import ZeroAcceptanceError, legal_mask, projective_ec_step
from .fock import (
    PROB_OMIT_THRESHOLD,
    DensityOperator,
    FockError,
    FockSpace,
    LinearOperator,
    OccupationVector,
    PureState,
    apply_unitary,
    basis_pure,
    marginal_distribution,
    occupation_table,
)
from .gates import beamsplitter_unitary, fredkin_unitary, phase_shift_unitary

MODE_A, MODE_B, MODE_C, MODE_D, MODE_E = range(5)
RAIL_MODES = (MODE_A, MODE_B, MODE_C, MODE_D)
PROJECTION = "projective-ec"  # the stage of ``stages`` that projects onto the legal span


def machine_space() -> FockSpace:
    return FockSpace(5)


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
        if self.k1 not in (0, 1):
            raise FockError("k1 must be 0 or 1")
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

    ``outcome_distribution`` is the output over modes a-d (it sums to 1 and
    omits entries below PROB_OMIT_THRESHOLD); ``p_accept`` is the acceptance
    of the projective correction, 1 for a run without it.
    """

    config: MachineConfig
    output_state: DensityOperator
    outcome_distribution: tuple[tuple[OccupationVector, float], ...]
    p_accept: float


def _rail_outcomes(rho: DensityOperator) -> tuple[np.ndarray, FockSpace]:
    """The full outcome diagonal over the rail modes a-d, tiny entries included, and their space."""
    return marginal_distribution(rho, RAIL_MODES), FockSpace(len(RAIL_MODES))


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


def _gate_channel(space: FockSpace, config: MachineConfig, slot: int,
                  mc_samples: int | None, mc_seed: int) -> DensityMap:
    """The map of gate slot 0 or 1: the Fredkin unitary, or the gate with cell-frame noise.

    Lossy slots damp their modes in the Kerr-cell frame; dephased slots
    apply the phase average there, with the Gaussian phi analytically and
    the sampled phi under ``mc_samples``.
    """
    modes = gate_modes(config.k1)
    noisy_slots, damped = NOISE_PLACEMENT[config.noise_model]
    if slot not in noisy_slots:
        fredkin = fredkin_unitary(space, *modes)
        return lambda rho: apply_unitary(rho, fredkin)
    if damped is not None:
        return balanced_lossy_fredkin_channel(space, *modes, damped(config.k1),
                                              config.noise.gamma)
    if mc_samples is not None:
        return dephased_fredkin_mc(space, *modes, config.noise.lam, mc_samples,
                                   [mc_seed, slot])
    return lambda rho: dephased_fredkin_apply(space, *modes, config.noise.lam, rho)


def stages(config: MachineConfig) -> list[LinearOperator | int | str]:
    """The pipeline in order: unitaries, gate slots 0 and 1, and PROJECTION if corrected."""
    space = machine_space()
    bcd = beamsplitter_unitary(space, MODE_C, MODE_D)
    projection = [PROJECTION] if config.projective_ec else []
    return [bcd, 0, *projection, phase_shift_unitary(space, MODE_A, math.pi), 1, bcd.dagger]


def run(config: MachineConfig, mc_samples: int | None = None,
        mc_seed: int = 0) -> RunResult:
    """Run the machine pipeline for one configuration, folding the input over ``stages``.

    Passing ``mc_samples`` (dephasing model only) replaces the Gaussian phi
    of the dephased gates with the seeded Monte-Carlo oracle's, seeded
    ``[mc_seed, slot]`` per gate.
    """
    if mc_samples is not None and _read_strength(config.noise_model) != "lam":
        raise FockError("mc_samples requires the dephasing noise model")
    space = machine_space()
    rho, p_accept = machine_input(space).density(), 1.0
    for stage in stages(config):
        if isinstance(stage, LinearOperator):
            rho = apply_unitary(rho, stage)
        elif stage == PROJECTION:
            rho, p_accept = projective_ec_step(rho)
        else:
            rho = _gate_channel(space, config, stage, mc_samples, mc_seed)(rho)

    probs, rails = _rail_outcomes(rho)
    dist4 = tuple((occ, p) for occ, p in zip(rails.occupations(), probs.tolist())
                  if p > PROB_OMIT_THRESHOLD)
    return RunResult(config, rho, dist4, p_accept)


def readout_error(result: RunResult, postselect: bool = False) -> tuple[float, float]:
    """(Error probability, dual-rail acceptance) of the mode-d class readout of a run.

    With ``postselect`` the error is conditioned on one photon per rail pair
    and the acceptance is the legal mass; raises ZeroAcceptanceError
    when none remains.  Without it the acceptance is 1.
    """
    probs, rails = _rail_outcomes(result.output_state)
    table, legal = occupation_table(rails), legal_mask(rails)
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
    probs, rails = _rail_outcomes(result.output_state)
    return _conditional(probs, None, occupation_table(rails)[:, MODE_A] == 1)[0]

