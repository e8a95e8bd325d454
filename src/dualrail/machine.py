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
from typing import Sequence

import numpy as np

from .channels import (
    NoiseParams,
    balanced_lossy_fredkin_channel,
    dephased_fredkin_channel,
    dephased_fredkin_mc,
    fredkin_channel,
    lossy_fredkin_channel,
)
from .correction import (
    ZeroAcceptanceError,
    _legal_occupation,
    legal_subspace,
    project_onto,
    projective_ec_step,
)
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
)
from .gates import (
    beamsplitter_unitary,
    fredkin_unitary,
    phase_shift_unitary,
)

MODE_A, MODE_B, MODE_C, MODE_D, MODE_E = range(5)

NOISE_MODELS = ("none", "loss", "balanced-loss", "dephasing")
GATE_TAGS = ("first", "second")


def machine_space(cutoff: int = 1) -> FockSpace:
    return FockSpace(5, cutoff)


def machine_input(space: FockSpace) -> PureState:
    return basis_pure(space, (0, 1, 0, 1, 0) + (0,) * (space.n_modes - 5))


def gate_modes(k1: int) -> tuple[int, int, int]:
    """Fredkin modes for a switch setting: (a, b, e) for k1=0, (a, b, c) for k1=1."""
    return (MODE_A, MODE_B, MODE_C) if k1 == 1 else (MODE_A, MODE_B, MODE_E)


@dataclass(frozen=True)
class MachineConfig:
    """Switch settings, noise model, and correction strategy for one run."""

    k1: int
    noise: NoiseParams = field(default_factory=NoiseParams)
    noise_model: str = "none"
    noisy_gates: tuple[str, ...] | None = None
    loss_placement: str = "after-kerr"
    projective_ec: bool = False
    projective_ec_both: bool = False
    dualrail_postselect: bool = False

    def __post_init__(self):
        if self.k1 not in (0, 1):
            raise FockError("k1 must be 0 or 1")
        if self.noise_model not in NOISE_MODELS:
            raise FockError(f"noise_model must be one of {NOISE_MODELS}")
        if self.noisy_gates is not None:
            bad = set(self.noisy_gates) - set(GATE_TAGS)
            if bad:
                raise FockError(f"unknown gate tags {sorted(bad)}")
        if self.projective_ec and self.noise_model in ("loss", "balanced-loss"):
            raise FockError("projective correction requires a photon-number-preserving run")
        if self.projective_ec_both and not self.projective_ec:
            raise FockError("projective_ec_both requires projective_ec")

    def resolved_noisy_gates(self) -> tuple[str, ...]:
        """Default noise placement.

        Plain loss hits the second gate only; dephasing hits both gates; the
        balanced design damps every rail in both gates (that is what makes
        the two-photon weights come out as powers of e^-2gamma).
        """
        if self.noise_model == "none":
            return ()
        if self.noisy_gates is not None:
            return self.noisy_gates
        if self.noise_model == "loss":
            return ("second",)
        return ("first", "second")


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


@dataclass(frozen=True)
class SweepRecord:
    """Per-grid-point error and acceptance probabilities, one entry per strategy."""

    parameter: str
    value: float
    p_error: dict[str, float]
    p_accept: dict[str, float]


def _wrong_outcome(occ4: Sequence[int], k1: int) -> bool:
    # correct readout: mode d clicks for k1 = 0, stays dark for k1 = 1
    return occ4[MODE_D] == 1 if k1 == 1 else occ4[MODE_D] == 0


def _rail_diagonal(rho: DensityOperator) -> list[tuple[OccupationVector, float]]:
    """The full outcome diagonal over the rail modes a-d, tiny entries included."""
    rails = (MODE_A, MODE_B, MODE_C, MODE_D)
    probs = marginal_distribution(rho, rails)
    return list(zip(FockSpace(len(rails), rho.space.cutoff).occupations(), probs.tolist()))


def _conditional(diag4, postselect: bool, event) -> tuple[float, float]:
    """(P(event), acceptance), conditioned on dual-rail legality when ``postselect``.

    ``diag4`` is the full a-d diagonal; an outcome counts when its share of the
    acceptance exceeds PROB_OMIT_THRESHOLD, so a tiny legal mass is still scored.
    """
    accepted = 1.0
    if postselect:
        diag4 = [(occ, p) for occ, p in diag4 if _legal_occupation(occ)]
        accepted = sum(p for _, p in diag4)
        if accepted <= 0.0:
            raise ZeroAcceptanceError("dual-rail post-selection accepted zero mass")
    hit = sum(p for occ, p in diag4 if p / accepted > PROB_OMIT_THRESHOLD and event(occ))
    return hit / accepted, accepted


def _score(diag4, config: MachineConfig) -> tuple[float, float]:
    """(p_error, dual-rail acceptance) for the full a-d outcome diagonal of a run."""
    wrong, accepted = _conditional(
        diag4, config.dualrail_postselect,
        lambda occ: _legal_occupation(occ) and _wrong_outcome(occ, config.k1))
    if config.dualrail_postselect:
        return wrong, accepted
    arms = [m for m in gate_modes(config.k1)[1:] if m < 4]  # the Kerr-cell rails
    lone, _ = _conditional(diag4, False,
                           lambda occ: sum(occ) == 1 and any(occ[m] == 1 for m in arms))
    return wrong + 0.5 * lone, accepted


def _gate_channel(space: FockSpace, config: MachineConfig, tag: str,
                  mc_samples: int | None, mc_seed: int | None):
    """Channel (or Monte-Carlo map) implementing one gate slot."""
    modes = gate_modes(config.k1)
    noisy = tag in config.resolved_noisy_gates()
    if not noisy:
        return fredkin_channel(space, *modes).apply
    model = config.noise_model
    if model == "loss":
        return lossy_fredkin_channel(space, *modes, config.noise.gamma,
                                     config.loss_placement).apply
    if model == "balanced-loss":
        # for either switch setting the balanced design damps the four rail
        # modes a-d equally, including the bystander the gate does not touch
        return balanced_lossy_fredkin_channel(space, *modes,
                                              (MODE_A, MODE_B, MODE_C, MODE_D),
                                              config.noise.gamma).apply
    if model == "dephasing":
        if mc_samples is not None:
            gate_index = GATE_TAGS.index(tag)
            seed = [0 if mc_seed is None else mc_seed, gate_index]
            return dephased_fredkin_mc(space, *modes, config.noise.lam,
                                       mc_samples, seed)
        return dephased_fredkin_channel(space, *modes, config.noise.lam).apply
    raise FockError(f"unhandled noise model {model!r}")


def _propagated_legal_projector(space: FockSpace, config: MachineConfig) -> np.ndarray:
    """Legal span pushed through the ideal S_a and second gate (for late correction)."""
    s = phase_shift_unitary(space, MODE_A, math.pi).matrix
    u = fredkin_unitary(space, *gate_modes(config.k1)).matrix @ s
    return u @ legal_subspace(space).projector @ u.conj().T


def run(config: MachineConfig, mc_samples: int | None = None,
        mc_seed: int | None = None) -> RunResult:
    """Run the machine pipeline for one configuration.

    Passing ``mc_samples`` replaces the analytic dephasing channels with the
    seeded Monte-Carlo oracle (one independent phase stream per gate).
    """
    space = machine_space()
    bcd = beamsplitter_unitary(space, MODE_C, MODE_D)
    s_a = phase_shift_unitary(space, MODE_A, math.pi)
    sub = legal_subspace(space)

    rho = machine_input(space).density()
    rho = apply_unitary(rho, bcd)
    rho = _gate_channel(space, config, "first", mc_samples, mc_seed)(rho)
    p_accept = 1.0
    if config.projective_ec:
        rho, acc = projective_ec_step(rho, sub)
        p_accept *= acc
    rho = apply_unitary(rho, s_a)
    rho = _gate_channel(space, config, "second", mc_samples, mc_seed)(rho)
    if config.projective_ec_both:
        rho, acc = project_onto(rho, _propagated_legal_projector(space, config))
        p_accept *= acc
    rho = apply_unitary(rho, bcd.dagger)

    diag4 = _rail_diagonal(rho)
    p_error, dualrail_acc = _score(diag4, config)
    p_accept *= dualrail_acc
    dist4 = tuple((occ, p) for occ, p in diag4 if p > PROB_OMIT_THRESHOLD)
    return RunResult(config, rho, dist4, p_accept, p_error)


def ideal_run(k1: int) -> RunResult:
    """Noise-free reference run, recording the pure intermediate states."""
    space = machine_space()
    psi1 = beamsplitter_unitary(space, MODE_C, MODE_D).matrix @ machine_input(space).amplitudes
    psi2 = fredkin_unitary(space, *gate_modes(k1)).matrix @ psi1
    psi3 = phase_shift_unitary(space, MODE_A, math.pi).matrix @ psi2
    states = tuple(PureState(space, v) for v in (psi1, psi2, psi3))
    return replace(run(MachineConfig(k1=k1)), intermediate_states=states)


def error_probability(result: RunResult, k1: int | None = None) -> float:
    """Mode-d readout error of a run, conditioned on any active post-selection.

    See the module docstring for the lone-photon charge applied to
    unpost-selected loss runs.  Raises ZeroAcceptanceError when
    post-selection accepts nothing.
    """
    config = result.config if k1 is None else replace(result.config, k1=k1)
    p_error, _ = _score(_rail_diagonal(result.output_state), config)
    return p_error


def which_path_error(result: RunResult) -> float:
    """Probability that the a/b interferometer released its photon in mode a.

    Conditioned on dual-rail acceptance when the run post-selects.  This is
    the phase-noise figure of merit: for k1 = 0 the mode-d readout never
    errs, and what decoherence damages is the which-path purity of the a/b
    pair; the projective correction improves exactly this quantity, from the
    uncorrected (1 - e^-2lam)/2 to (1 - q)(6 + 5q)/(6(2 + q)), q = e^-lam.
    """
    p_wrong_path, _ = _conditional(_rail_diagonal(result.output_state),
                                   result.config.dualrail_postselect,
                                   lambda occ: occ[MODE_A] == 1)
    return p_wrong_path


STRATEGY_FLAGS = {
    "none": dict(dualrail_postselect=False, projective_ec=False, projective_ec_both=False),
    "dualrail": dict(dualrail_postselect=True, projective_ec=False, projective_ec_both=False),
    "projective": dict(dualrail_postselect=False, projective_ec=True, projective_ec_both=False),
    "projective-both": dict(dualrail_postselect=False, projective_ec=True, projective_ec_both=True),
}


def sweep(template: MachineConfig, parameter: str, grid: Sequence[float],
          strategies: Sequence[str] = ("none",)) -> list[SweepRecord]:
    """Run the machine over a noise grid, once per correction strategy.

    ``parameter`` is "gamma" or "lam"; records are returned in grid order.
    """
    if parameter not in ("gamma", "lam"):
        raise FockError(f"unknown sweep parameter {parameter!r}")
    if len(grid) == 0:
        raise FockError("sweep grid is empty")
    unknown = set(strategies) - set(STRATEGY_FLAGS)
    if unknown:
        raise FockError(f"unknown strategies {sorted(unknown)}")
    records = []
    for value in grid:
        if value < 0:
            raise FockError(f"grid values must be >= 0, got {value}")
        noise = NoiseParams(gamma=value) if parameter == "gamma" else NoiseParams(lam=value)
        errors, accepts = {}, {}
        for name in strategies:
            config = replace(template, noise=noise, **STRATEGY_FLAGS[name])
            result = run(config)
            errors[name] = result.p_error
            accepts[name] = result.p_accept
        records.append(SweepRecord(parameter, float(value), errors, accepts))
    return records
