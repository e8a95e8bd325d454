"""The two-switch single-photon interferometer machine and its noisy runs.

Five optical modes a, b, c, d, e (indices 0..4), SPACE; input INPUT = |01010>.
``stages`` is the one statement of the pipeline order: B_cd, gate 0,
[projective correction], S_a(pi), gate 1, B_cd^dag.  Both gates are
Fredkin gates acting on (a, b, e) for switch k1 = 0 and on (a, b, c) for
k1 = 1.  NOISE_MODELS holds each noise model as one row: the gate slots it
makes noisy, the strengths it reads and the Kerr-cell noise it builds; only
a noisy slot's gate is built per stack.
Noise-free, the machine ends in |0101> for k1 = 0 and |0110> for k1 = 1,
and the function class is read from the mode-d detector: a click answers
for k1 = 0, no click for k1 = 1.

The machine answers one point or one grid.  Both fold ``stages`` over a
stack of runs on the reachable basis: no stage raises INPUT's PHOTONS = 2
photons, so only the 16 basis states with at most two hold weight, and this
module alone cuts to them.  The fold checks each noisy gate's and the
projection's output (a checked unitary keeps a state a state) and reads the
a-d outcomes off the stack's diagonal.  ``run`` embeds its one output state
into SPACE; ``run_grid`` keeps only outcomes and acceptances, from which the
array scorers read every figure.
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
from typing import Iterable, Sequence

import numpy as np

from . import correction
from .channels import (
    NoiseParams,
    StackMap,
    _cell_frame,
    _cell_gate,
    _damping,
    _gaussian_phis,
    _phase_mask,
    sampled_phi,
)
from .fock import (
    EIGENVALUE_FLOOR,
    PROB_OMIT_THRESHOLD,
    TRACE_TOL,
    DensityOperator,
    FockError,
    FockSpace,
    LinearOperator,
    _readonly,
    annihilation_operator,
    basis_pure,
    check_array,
    check_densities,
    check_integer,
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
_CUT = np.ix_(_REACHABLE, _REACHABLE)  # matrix[_CUT] is a full-space matrix's block on it
# Mode m's n_m and (lowered, raised) position pairs of a_m on it; a lowered state stays in it
_LOWERINGS = [(occupation_table(SPACE)[_REACHABLE, m],
               *np.nonzero(annihilation_operator(SPACE, m)[_CUT])) for m in range(SPACE.n_modes)]
RAIL_MODES = (MODE_A, MODE_B, MODE_C, MODE_D)
RAILS = FockSpace(len(RAIL_MODES))  # the space of the a-d outcomes every figure is read from
PROJECTION = "projective-ec"  # the stage of ``stages`` that projects onto the legal span
# Grid points ``run_grid`` folds at once.  A taller stack saves per-stack overhead but holds
# more intermediates; README's Performance section has the times and peak RSS at 4, 16 and 64.
STACK_HEIGHT = 16
_GATE_MODES = {0: (MODE_A, MODE_B, MODE_E), 1: (MODE_A, MODE_B, MODE_C)}  # checked k1 -> modes


def gate_modes(k1: int) -> tuple[int, int, int]:
    """Fredkin modes for a switch setting: (a, b, e) for k1=0, (a, b, c) for k1=1."""
    return _GATE_MODES[check_integer(k1, "k1", 0, 1)]


# Each noise model as one row: name -> (its noisy gate slots, 0 = first and 1 = second; the
# NoiseParams fields it reads; its Kerr-cell-frame noise on a reachable-basis stack, from k1,
# the phase law phis(lam) -> (G, 3) and each read field's point strengths).  Plain loss damps
# the second gate's Kerr cell only; balanced loss damps the four rails a-d equally in both
# gates, the bystander the gate does not touch included, which is what makes the post-selected
# outcomes error-free; dephasing hits both Kerr cells.
NOISE_MODELS = {
    "none": ((), (), lambda k1, phis: lambda mid: mid),
    "loss": ((1,), ("gamma",), lambda k1, phis, gamma: _damping(
        [_LOWERINGS[m] for m in _GATE_MODES[k1][1:]], gamma)),
    "balanced-loss": ((0, 1), ("gamma",), lambda k1, phis, gamma: _damping(
        [_LOWERINGS[m] for m in RAIL_MODES], gamma)),
    "dephasing": ((0, 1), ("lam",), lambda k1, phis, lam: _phase_mask(
        _reachable_frame(k1)[2], np.array(phis(lam), dtype=complex))),
}


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
        if not isinstance(self.noise_model, str) or self.noise_model not in NOISE_MODELS:
            raise FockError(f"noise_model must be one of {tuple(NOISE_MODELS)}")
        reads = NOISE_MODELS[self.noise_model][1]
        if self.projective_ec and "gamma" in reads:
            raise FockError("projective correction requires a photon-number-preserving run")
        for name in ("gamma", "lam"):
            if name not in reads and getattr(self.noise, name) != 0:
                raise FockError(f"noise model {self.noise_model!r} does not read {name}")


@dataclass(frozen=True, eq=False)
class RunResult:
    """Final state of one machine run; ``readout_error`` and ``which_path_error`` score it.

    ``p_accept`` is the acceptance of the projective correction, 1 for a run
    without it.  ``outcomes`` is the a-d distribution of the output state over
    RAILS, the marginal the figures read.
    """

    config: MachineConfig
    output_state: DensityOperator
    p_accept: float
    outcomes: np.ndarray


def _masked_sums(probs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each row's sum of ``probs`` where ``mask``, bit for bit a Python left fold from 0.0.

    A cumulative sum from a leading 0.0 column, masked-out terms +0.0, makes the
    fold's additions, signed zeros included; ``np.sum`` would add in pairs.
    """
    terms = np.zeros((len(probs), 1 + probs.shape[1]))
    np.copyto(terms[:, 1:], probs, where=mask)
    return np.cumsum(terms, axis=1)[:, -1]


def _conditional(probs: np.ndarray, legal: np.ndarray | None,
                 event: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(event), acceptance) per row of (G, 16) a-d outcomes, conditioned on ``legal`` unless None.

    An outcome counts when its share of its row's acceptance exceeds
    PROB_OMIT_THRESHOLD, so a tiny legal mass is still scored.  Any row whose
    legal mass is not positive raises ZeroAcceptanceError.
    """
    accepted = np.ones(len(probs))
    if legal is not None:
        event = event & legal
        accepted = _masked_sums(probs, legal)
        if (accepted <= 0.0).any():
            raise correction.ZeroAcceptanceError("dual-rail post-selection accepted zero mass")
    with np.errstate(over="ignore"):  # a share of a subnormal acceptance may overflow to inf
        share = probs / accepted[:, None]
    return _masked_sums(probs, event & (share > PROB_OMIT_THRESHOLD)) / accepted, accepted


def _gate_stack(configs: Sequence[MachineConfig], slot: int, mc_samples: int | None,
                mc_seed: int) -> StackMap:
    """Noisy gate slot 0 or 1 on a reachable-basis stack of runs that share k1 and noise model.

    The model's row builds the Kerr-cell-frame noise from each point's strengths,
    with the Gaussian phi analytically and the sampled phi under ``mc_samples``.
    """
    k1, (_, reads, noise) = configs[0].k1, NOISE_MODELS[configs[0].noise_model]
    phis = _gaussian_phis if mc_samples is None else lambda lam: [
        sampled_phi(x, mc_samples, [mc_seed, slot]) for x in lam]
    strengths = [[getattr(c.noise, name) for c in configs] for name in reads]
    return _cell_gate(*_reachable_frame(k1)[:2], noise(k1, phis, *strengths))


def stages(config: MachineConfig) -> list[LinearOperator | int | str]:
    """The pipeline in order: unitaries, the gates in slots 0 and 1, and PROJECTION if corrected.

    A gate slot the model's NOISE_MODELS row leaves noise-free holds the Fredkin
    unitary; a noisy one holds its int, 0 or 1, and ``_gate_stack`` builds its map.
    """
    if not isinstance(config, MachineConfig):
        raise FockError(f"stages needs a MachineConfig, got {type(config).__name__}")
    bcd, noisy = beamsplitter_unitary(SPACE, MODE_C, MODE_D), NOISE_MODELS[config.noise_model][0]
    g0, g1 = [s if s in noisy else fredkin_unitary(SPACE, *_GATE_MODES[config.k1]) for s in (0, 1)]
    projection = [PROJECTION] if config.projective_ec else []
    return [bcd, g0, *projection, phase_shift_unitary(SPACE, MODE_A, math.pi), g1, bcd.dagger]


@lru_cache(maxsize=None)  # only the input and the memoized unitaries of ``stages`` arrive
def _reachable_block(op: DensityOperator | LinearOperator) -> np.ndarray:
    """The block of the input or of a stage unitary on the reachable basis, cut once."""
    return op.matrix[_CUT]


@lru_cache(maxsize=None)
def _reachable_frame(k1: int) -> tuple:
    """Switch k1's gate frame B, K B and cell photon numbers on the reachable basis, cut once."""
    b, kb, n = _cell_frame(SPACE, *_GATE_MODES[k1])
    return b[_CUT], kb[_CUT], n[_REACHABLE]


def _fold(configs: Sequence[MachineConfig], mc_samples: int | None,
          mc_seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold one stack over ``stages`` on the reachable basis, checking only non-unitary stages.

    Returns the stack's output on the reachable basis, its read-only a-d
    outcomes and its acceptances.  The outcomes are read off the stack's
    diagonal in one step, the same additions ``marginal_distribution`` makes.
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
            rho, p_accept = correction._project(rho, correction.legal_projector(SPACE)[_CUT])
        else:
            rho = _gate_stack(configs, stage, mc_samples, mc_seed)(rho)
        check_densities(rho)

    probs = np.zeros((height, SPACE.dim))  # the diagonal in SPACE; RAIL_MODES are all but e
    probs[:, keep] = rho.diagonal(axis1=1, axis2=2).real
    outcomes = probs.reshape(height, *(2,) * SPACE.n_modes).sum(axis=1 + MODE_E)
    return rho, _readonly(outcomes.reshape(height, RAILS.dim)), p_accept


def _checked(configs: Iterable[MachineConfig]) -> list[MachineConfig]:
    """The configurations as a non-empty list of MachineConfigs that share one stage list."""
    configs = list(configs)
    if not configs or not all(isinstance(c, MachineConfig) for c in configs):
        raise FockError("the machine runs at least one configuration, each a MachineConfig")
    if len({(c.k1, c.noise_model, c.projective_ec) for c in configs}) > 1:
        raise FockError("a grid needs configurations that share k1, noise model and projection")
    return configs


def run_grid(configs: Iterable[MachineConfig]) -> tuple[np.ndarray, np.ndarray]:
    """The (G, 16) a-d outcomes and (G,) acceptances of a grid of runs, in order, read-only.

    The configurations share k1, noise model and projection, so one stage list
    serves them all.  Each stack keeps only its outcomes and acceptances.
    """
    configs = _checked(configs)
    outcomes, p_accept = zip(*(_fold(configs[start:start + STACK_HEIGHT], None, 0)[1:]
                               for start in range(0, len(configs), STACK_HEIGHT)))
    return _readonly(np.concatenate(outcomes)), _readonly(np.concatenate(p_accept))


def run(config: MachineConfig, mc_samples: int | None = None, mc_seed: int = 0) -> RunResult:
    """Run the machine pipeline for one configuration: a stack of one, embedded into SPACE.

    Passing ``mc_samples`` (dephasing model only) replaces the Gaussian phi
    of the dephased gates with the seeded Monte-Carlo oracle's, seeded
    ``[mc_seed, slot]`` per gate.
    """
    [config] = _checked([config])
    mc_seed = check_integer(mc_seed, "mc_seed", 0)
    if mc_samples is not None:
        mc_samples = check_integer(mc_samples, "mc_samples", 1)
        if "lam" not in NOISE_MODELS[config.noise_model][1]:
            raise FockError("mc_samples requires the dephasing noise model")
    block, outcomes, p_accept = _fold([config], mc_samples, mc_seed)
    out = np.zeros((SPACE.dim, SPACE.dim), dtype=complex)
    out[_CUT] = block[0]
    return RunResult(config, DensityOperator(SPACE, out), p_accept.item(), outcomes[0])


def _outcome_rows(outcomes) -> np.ndarray:
    """``outcomes`` as read-only real (G, 16) a-d distributions, to EIGENVALUE_FLOOR, TRACE_TOL."""
    rows = check_array(outcomes, (None, RAILS.dim), "outcomes")
    if rows.imag.any():
        raise FockError("outcomes must be real")
    rows, sums = rows.real, rows.real.sum(axis=1)
    if (rows < EIGENVALUE_FLOOR).any() or (abs(sums - 1.0) > TRACE_TOL).any():
        raise FockError(f"outcome rows must be distributions: least entry {rows.min():.2e}, "
                        f"row sum {sums[np.argmax(abs(sums - 1.0))]!r}")
    return rows


def readout_errors(outcomes: np.ndarray, k1: int,
                   postselect: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(Errors, acceptances) of the mode-d class readout of each row of switch k1's outcomes.

    With ``postselect`` the error is conditioned on one photon per rail pair
    and the acceptance is the legal mass; raises ZeroAcceptanceError
    when a row has none.  Without it the acceptance is 1.
    """
    outcomes, k1 = _outcome_rows(outcomes), check_integer(k1, "k1", 0, 1)
    table, legal = occupation_table(RAILS), correction.legal_mask(RAILS)
    # correct readout: mode d clicks for k1 = 0, stays dark for k1 = 1
    wrong = legal & (table[:, MODE_D] == k1)
    if postselect:
        return _conditional(outcomes, legal, wrong)
    arms = [m for m in _GATE_MODES[k1][1:] if m in RAIL_MODES]  # the Kerr-cell rails
    lone = (table.sum(axis=1) == 1) & (table[:, arms] == 1).any(axis=1)
    return (_conditional(outcomes, None, wrong)[0]
            + 0.5 * _conditional(outcomes, None, lone)[0], np.ones(len(outcomes)))


def which_path_errors(outcomes: np.ndarray) -> np.ndarray:
    """Probability that the a/b interferometer released its photon in mode a, for each row.

    This is the phase-noise figure of merit: for k1 = 0 the mode-d readout
    never errs, and what decoherence damages is the which-path purity of the
    a/b pair; the projective correction improves exactly this quantity, from
    the uncorrected (1 - e^-2lam)/2 to (1 - q)(6 + 5q)/(6(2 + q)), q = e^-lam.
    """
    return _conditional(_outcome_rows(outcomes), None, occupation_table(RAILS)[:, MODE_A] == 1)[0]


def readout_error(result: RunResult, postselect: bool = False) -> tuple[float, float]:
    """``readout_errors`` of one run, scored as one row."""
    error, accepted = readout_errors(result.outcomes[None], result.config.k1, postselect)
    return error.item(), accepted.item()


def which_path_error(result: RunResult) -> float:
    """``which_path_errors`` of one run, scored as one row."""
    return which_path_errors(result.outcomes[None]).item()
