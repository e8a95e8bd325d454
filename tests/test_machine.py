import math
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualrail import (
    DensityOperator,
    FockError,
    LinearOperator,
    MachineConfig,
    NoiseParams,
    RunResult,
    basis_pure,
    beamsplitter_unitary,
    dephased_fredkin_channel,
    fredkin_unitary,
    gate_modes,
    index_of,
    marginal_distribution,
    p_ec_closed,
    p_noec_closed,
    phase_shift_unitary,
    readout_error,
    run,
    run_grid,
    stages,
    which_path_error,
)
from dualrail import channels, cli, correction, fock, machine
from dualrail.channels import (
    KrausChannel,
    gaussian_phi,
    lossy_gate_stack,
    phase_average_stack,
    sampled_phi,
)
from dualrail.correction import ZeroAcceptanceError
from dualrail.fock import (
    EIGENVALUE_FLOOR,
    PROB_OMIT_THRESHOLD,
    TRACE_TOL,
    occupation_table,
    photon_basis,
)
from dualrail.machine import (
    INPUT,
    NOISE_MODELS,
    PHOTONS,
    PROJECTION,
    RAIL_MODES,
    RAILS,
    SPACE,
    STACK_HEIGHT,
    readout_errors,
    which_path_errors,
)
from dualrail.cli import main
from conftest import assert_bit_equal, outcome_distribution
from oracles import MODELS, apply_stack, fold_stages, product_form_output, sampled_phi_exponential

SQ2 = math.sqrt(2)


def ket5(occ4):
    return basis_pure(SPACE, occ4 + (0,)).amplitudes


def cfg(k1, model="none", gamma=0.0, lam=0.0, **kw):
    return MachineConfig(k1=k1, noise=NoiseParams(gamma=gamma, lam=lam),
                         noise_model=model, **kw)


def full_space_gate(config, height=1, mc_samples=None, seed=None):
    """A noisy gate of ``config`` as its full-space stack map, all ``height`` points alike.

    With ``mc_samples`` a dephased gate reads the phi sampled under ``seed``.
    """
    modes = gate_modes(config.k1)
    damped = MODELS[config.noise_model][1]
    lam = config.noise.lam
    if damped is not None:
        return lossy_gate_stack(SPACE, *modes, damped[config.k1], [config.noise.gamma] * height)
    phi = gaussian_phi(lam) if mc_samples is None else sampled_phi(lam, mc_samples, seed)
    return phase_average_stack(SPACE, *modes, np.tile(phi, (height, 1)))


def gate_map(config, mc_samples=None, seed=None):
    """A noisy gate of ``config`` as a map of one state: its stack map at G = 1."""
    gate = full_space_gate(config, 1, mc_samples, seed)
    return lambda rho: apply_stack(gate, rho)


# ---------------------------------------------------------------- stages

STRENGTHS = {"none": {}, "loss": {"gamma": 0.3}, "balanced-loss": {"gamma": 0.3},
             "dephasing": {"lam": 0.3}}
STAGE_CASES = [(model, k1, ec) for model in NOISE_MODELS for k1 in (0, 1)
               for ec in (False, True) if not (ec and "gamma" in STRENGTHS[model])]


@pytest.mark.parametrize("model, k1, projective_ec", STAGE_CASES,
                         ids=[f"{m}-k1={k}-ec={e}" for m, k, e in STAGE_CASES])
def test_stages_list_the_pipeline_that_run_folds(model, k1, projective_ec):
    config = cfg(k1, model, projective_ec=projective_ec, **STRENGTHS[model])
    steps = stages(config)
    kinds = ["unitary" if isinstance(s, LinearOperator) else s for s in steps]
    projection = [PROJECTION] if projective_ec else []
    # a noise-free gate slot holds the Fredkin unitary, a noisy one its int
    gates = [slot if slot in MODELS[model][0] else "unitary" for slot in (0, 1)]
    assert kinds == ["unitary", gates[0], *projection, "unitary", gates[1], "unitary"]
    assert np.array_equal(steps[-1].matrix, steps[0].matrix.conj().T)
    fredkin = fredkin_unitary(SPACE, *gate_modes(k1)).matrix
    assert all(np.array_equal(steps[i].matrix, fredkin) for i in (1, -2) if kinds[i] == "unitary")
    # the stacked fold at G = 1 is bit for bit the gate maps folded one state at a time
    folded = fold_stages(config, lambda slot: gate_map(config))
    assert np.array_equal(folded.matrix, run(config).output_state.matrix)


# ---------------------------------------------------------------- noise-free

def test_ideal_run_intermediate_chain():
    # the k1 = 1 noise-free pipeline composed gate by gate on the machine input
    bcd = beamsplitter_unitary(SPACE, 2, 3)
    fredkin = fredkin_unitary(SPACE, *gate_modes(1))
    psi1 = bcd.matrix @ INPUT.amplitudes
    psi2 = fredkin.matrix @ psi1
    psi3 = phase_shift_unitary(SPACE, 0, math.pi).matrix @ psi2
    exp1 = (ket5((0, 1, 0, 1)) + ket5((0, 1, 1, 0))) / SQ2
    exp2 = (ket5((0, 1, 0, 1)) + ket5((1, 0, 1, 0))) / SQ2
    exp3 = (ket5((0, 1, 0, 1)) - ket5((1, 0, 1, 0))) / SQ2
    assert np.max(np.abs(psi1 - exp1)) < 1e-12
    assert np.max(np.abs(psi2 - exp2)) < 1e-12
    assert np.max(np.abs(psi3 - exp3)) < 1e-12
    out = bcd.dagger.matrix @ fredkin.matrix @ psi3
    assert np.max(np.abs(run(cfg(1)).output_state.matrix - np.outer(out, out.conj()))) < 1e-12


def test_ideal_run_outcomes():
    r1 = run(cfg(1))
    assert outcome_distribution(r1) == {(0, 1, 1, 0): pytest.approx(1.0, abs=1e-12)}
    assert readout_error(r1) == pytest.approx((0.0, 1.0), abs=1e-12)
    r0 = run(cfg(0))
    assert outcome_distribution(r0) == {(0, 1, 0, 1): pytest.approx(1.0, abs=1e-12)}
    assert readout_error(r0) == pytest.approx((0.0, 1.0), abs=1e-12)
    # the class readout: the mode-d marginal is deterministic on both settings
    assert marginal_distribution(r0.output_state, (3,))[1] == pytest.approx(1.0, abs=1e-12)
    assert marginal_distribution(r1.output_state, (3,))[0] == pytest.approx(1.0, abs=1e-12)


def test_mode_e_stays_vacuum_and_carries_no_content():
    result = run(cfg(0))
    full = outcome_distribution(result)
    diagonal = np.real(np.diag(result.output_state.matrix))
    for occ4, p in full.items():
        assert diagonal[index_of(SPACE, occ4 + (0,))] == pytest.approx(p, abs=1e-12)
    assert marginal_distribution(result.output_state, (4,))[0] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- loss

@pytest.mark.parametrize("gamma", [1e-3, 0.05, 0.3, 1.0])
def test_lossy_machine_matches_closed_forms(gamma):
    plain = run(cfg(1, "loss", gamma=gamma))
    assert readout_error(plain)[0] == pytest.approx(p_noec_closed(gamma), abs=1e-10)
    p_error, acceptance = readout_error(plain, postselect=True)
    assert p_error == pytest.approx(p_ec_closed(gamma), abs=1e-10)
    assert 0 < acceptance <= 1


def test_lossy_k0_outcomes_and_postselected_error():
    gamma = 0.4
    result = run(cfg(0, "loss", gamma=gamma))
    got = outcome_distribution(result)
    # dominant channel: either the answer survives or only the d photon remains
    u = math.exp(-gamma / 2)
    expected = {
        (0, 1, 0, 1): (1 + u) ** 2 / 4,
        (0, 0, 0, 1): (1 - u**2) / 2,   # single-photon heralded failure
        (1, 0, 0, 1): (1 - u) ** 2 / 4,  # O(gamma^2) interferometer imbalance
    }
    assert set(got) == set(expected)
    for occ, weight in expected.items():
        assert got[occ] == pytest.approx(weight, abs=1e-12)
    # every outcome keeps the d photon, so the class readout never errs
    assert readout_error(result)[0] == pytest.approx(0.0, abs=1e-12)
    assert readout_error(result, postselect=True)[0] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- balanced loss

@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.5])
def test_balanced_loss_diagonal(gamma):
    result = run(cfg(1, "balanced-loss", gamma=gamma))
    e2, e4 = math.exp(-2 * gamma), math.exp(-4 * gamma)
    got = outcome_distribution(result)
    singles = [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]
    assert set(got) == {(0, 1, 1, 0), (0, 0, 0, 0), *singles}
    # two-photon and zero-photon weights: every rail damped in both gates
    assert got[(0, 1, 1, 0)] == pytest.approx(e4, abs=1e-12)
    assert got[(0, 0, 0, 0)] == pytest.approx(1 + e4 - 2 * e2, abs=1e-12)
    # the lone-photon mass totals 2(e^-2g - e^-4g); the survivor's exit mode
    # keeps interferometric structure, so it is rail-twinned, not uniform
    assert got[(0, 0, 1, 0)] == pytest.approx(got[(0, 1, 0, 0)], abs=1e-12)
    assert got[(0, 0, 0, 1)] == pytest.approx(got[(1, 0, 0, 0)], abs=1e-12)
    assert sum(got[s] for s in singles) == pytest.approx(2 * (e2 - e4), abs=1e-12)
    uniform = (e2 - e4) / 2
    print(f"gamma={gamma}: lone-photon weights {sorted(set(round(got[s], 9) for s in singles))} "
          f"vs uniform reference {uniform:.9f}")
    # sanity: the quoted six-term expression is itself normalized
    assert e4 + (1 + e4 - 2 * e2) + 4 * uniform == pytest.approx(1.0, abs=1e-12)


def test_balanced_loss_postselected_error_is_zero():
    for gamma in np.linspace(0.0, 2.0, 9):
        for k1 in (0, 1):
            result = run(cfg(k1, "balanced-loss", gamma=gamma))
            assert readout_error(result, postselect=True)[0] <= 1e-12


def test_deep_balanced_loss_is_scored_not_rejected():
    # the legal mass e^-4gamma (e^-48 at gamma = 12) lies far below the display
    # threshold 1e-14; up to gamma = 170 it is still a normal float
    for gamma in (8.5, 12.0, 50.0, 170.0):
        p_error, acceptance = readout_error(run(cfg(1, "balanced-loss", gamma=gamma)),
                                            postselect=True)
        assert p_error == 0.0
        assert acceptance == pytest.approx(math.exp(-4 * gamma), rel=1e-9)


@pytest.mark.parametrize("model", ["loss", "balanced-loss"])
@pytest.mark.parametrize("k1", [0, 1])
def test_loss_run_damps_mode_by_mode(monkeypatch, model, k1):
    # a loss run builds no Kraus list longer than one mode's damping pair,
    # never a product list, and its output equals the product form
    built = []
    validate = KrausChannel.__post_init__
    monkeypatch.setattr(KrausChannel, "__post_init__",
                        lambda chan: built.append(chan) or validate(chan))
    for gamma in (0.0, 1e-3, 0.5, 8.5, 50.0, 185.0):
        built.clear()
        result = run(cfg(k1, model, gamma=gamma))
        assert all(len(chan.kraus_ops) <= 2 for chan in built)
        assert np.max(np.abs(result.output_state.matrix - product_form_output(result.config))) < 1e-12
        if model == "balanced-loss":
            assert readout_error(result, postselect=True)[0] == 0.0


# ---------------------------------------------------------------- dephasing

def test_dephasing_k0_diagonal():
    lam = 0.23
    result = run(cfg(0, "dephasing", lam=lam))
    e2 = math.exp(-2 * lam)
    got = outcome_distribution(result)
    assert got[(0, 1, 0, 1)] == pytest.approx((1 + e2) / 2, abs=1e-12)
    assert got[(1, 0, 0, 1)] == pytest.approx((1 - e2) / 2, abs=1e-12)
    assert set(got) == {(0, 1, 0, 1), (1, 0, 0, 1)}
    # both outcomes click d, so the readout never errs; the damage is which-path
    assert readout_error(result)[0] == pytest.approx(0.0, abs=1e-12)
    assert which_path_error(result) == pytest.approx((1 - e2) / 2, abs=1e-12)


def test_dephasing_k1_diagonal():
    """Exact Gaussian-average diagonal of the doubly dephased k1 = 1 machine.

    With q2 = e^-2lam and q4 = e^-4lam (the first and second phase moments
    squared), the four weights are (1-q4)/4, (1-q4)/4, ((1+q2)/2)^2 and
    ((1-q2)/2)^2.  The Monte-Carlo and quadrature oracles confirm these; a
    first-moment-only average would give (1-q2)/4, (1-q2)/4, (1+3 q2)/4
    instead, which is not consistent with a Gaussian phase.
    """
    lam = 0.4
    result = run(cfg(1, "dephasing", lam=lam))
    q2, q4 = math.exp(-2 * lam), math.exp(-4 * lam)
    got = outcome_distribution(result)
    assert set(got) == {(0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)}
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-10)
    assert got[(0, 1, 0, 1)] == pytest.approx((1 - q4) / 4, abs=1e-12)
    assert got[(1, 0, 1, 0)] == pytest.approx((1 - q4) / 4, abs=1e-12)
    assert got[(0, 1, 1, 0)] == pytest.approx(((1 + q2) / 2) ** 2, abs=1e-12)
    assert got[(1, 0, 0, 1)] == pytest.approx(((1 - q2) / 2) ** 2, abs=1e-12)
    # the readout error is insensitive to the second moment
    assert got[(0, 1, 0, 1)] + got[(1, 0, 0, 1)] == pytest.approx((1 - q2) / 2, abs=1e-12)
    print(f"first-moment-only reference weights: {(1 - q2) / 4:.9f}, {(1 - q2) / 4:.9f}, "
          f"{(1 + 3 * q2) / 4:.9f}, {(1 - q2) ** 2 / 4:.9f} (last one matches)")


def test_dephasing_error_value_and_postselection_does_not_help():
    lam = 0.15
    e2 = math.exp(-2 * lam)
    plain = run(cfg(1, "dephasing", lam=lam))
    assert readout_error(plain)[0] == pytest.approx((1 - e2) / 2, abs=1e-12)
    p_error, acceptance = readout_error(plain, postselect=True)
    assert acceptance == pytest.approx(1.0, abs=1e-10)
    assert p_error == pytest.approx(readout_error(plain)[0], abs=1e-12)


# ---------------------------------------------------------------- generic invariants

CONFIGS = [
    cfg(0), cfg(1),
    cfg(1, "loss", gamma=0.2), cfg(0, "loss", gamma=0.7),
    cfg(1, "balanced-loss", gamma=0.4), cfg(0, "balanced-loss", gamma=0.4),
    cfg(1, "dephasing", lam=0.3), cfg(0, "dephasing", lam=0.3),
    cfg(1, "dephasing", lam=0.3, projective_ec=True),
    cfg(0, "dephasing", lam=0.3, projective_ec=True),
]


@pytest.mark.parametrize("config", CONFIGS, ids=range(len(CONFIGS)))
def test_outcome_distribution_sums_to_one_pre_selection(config):
    result = run(config)
    total = sum(outcome_distribution(result).values())
    assert total == pytest.approx(1.0, abs=1e-10)
    assert 0.0 <= readout_error(result)[0] <= 1.0
    assert 0.0 < result.p_accept <= 1.0


def test_error_monotone_in_noise_strength():
    gammas = np.logspace(-3, 0, 25)
    noec = [readout_error(run(cfg(1, "loss", gamma=g)))[0] for g in gammas]
    assert all(b >= a - 1e-12 for a, b in zip(noec, noec[1:]))
    lams = np.logspace(-3, 0, 25)
    plain = [readout_error(run(cfg(1, "dephasing", lam=l)))[0] for l in lams]
    assert all(b >= a - 1e-12 for a, b in zip(plain, plain[1:]))


def test_mc_pipeline_agrees_with_analytic():
    n = 10**5
    config = cfg(1, "dephasing", lam=0.1)
    analytic = run(config)
    sampled = run(config, mc_samples=n, mc_seed=31415)
    tol = 5.0 / math.sqrt(n)
    assert abs(readout_error(sampled)[0] - readout_error(analytic)[0]) < tol
    da, ds = outcome_distribution(analytic), outcome_distribution(sampled)
    for occ in set(da) | set(ds):
        assert abs(da.get(occ, 0.0) - ds.get(occ, 0.0)) < tol


def test_mc_run_seeds_gate_streams_from_mc_seed():
    # run keys gate slot s's phase stream as [mc_seed, s]; the default seed is 0
    n, lam = 2000, 0.2
    config = cfg(1, "dephasing", lam=lam)
    rho = fold_stages(config, lambda slot: lambda state: apply_stack(
        phase_average_stack(SPACE, *gate_modes(1), sampled_phi(lam, n, [5, slot])[None]), state))
    assert np.array_equal(run(config, mc_samples=n, mc_seed=5).output_state.matrix, rho.matrix)
    assert np.array_equal(run(config, mc_samples=n).output_state.matrix,
                          run(config, mc_samples=n, mc_seed=0).output_state.matrix)


def test_mc_runs_sharing_a_seed_draw_each_slot_once():
    # gate slot s draws from [mc_seed, s] whatever k1 is, so the two runs share both draws
    channels._sampled_phi.cache_clear()
    configs = [cfg(1, "dephasing", lam=0.1), cfg(0, "dephasing", lam=0.1, projective_ec=True)]
    first = [run(config, mc_samples=5000, mc_seed=271828) for config in configs]
    info = channels._sampled_phi.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    again = [run(config, mc_samples=5000, mc_seed=271828) for config in configs]
    for a, b in zip(first, again):
        assert np.array_equal(a.output_state.matrix, b.output_state.matrix)


@pytest.mark.parametrize("k1, projective_ec", [(0, False), (0, True), (1, False), (1, True)])
@pytest.mark.parametrize("lam", [0.01, 0.3, 1.0], ids=str)
def test_mc_run_stays_within_1e_15_of_the_exponential_phase_law(lam, k1, projective_ec):
    # squaring the phasor rounds phi(2) apart from the mean of exp(2 i eps); outputs move < 2e-17
    n, seed = 10**5, 1729
    config = cfg(k1, "dephasing", lam=lam, projective_ec=projective_ec)

    def gate(slot):
        phi = sampled_phi_exponential(lam, n, [seed, slot])
        phi[0] = 1.0  # as sampled_phi sets it
        return lambda state: apply_stack(phase_average_stack(SPACE, *gate_modes(k1), phi[None]),
                                         state)

    reference = fold_stages(config, gate).matrix
    sampled = run(config, mc_samples=n, mc_seed=seed).output_state.matrix
    assert np.max(np.abs(sampled - reference)) <= 1e-15


@pytest.mark.parametrize("mc_seed", [-1, 1.5])
def test_mc_seed_must_be_a_non_negative_integer(mc_seed):
    config = cfg(1, "dephasing", lam=0.1)
    with pytest.raises(FockError, match="mc_seed must be"):
        run(config, mc_samples=10, mc_seed=mc_seed)
    with pytest.raises(FockError, match="mc_seed must be"):
        run(config, mc_seed=mc_seed)


@pytest.mark.parametrize("mc_samples", [0, 2.5, True], ids=str)
def test_mc_samples_must_be_a_positive_integer(mc_samples):
    with pytest.raises(FockError, match="mc_samples must be"):
        run(cfg(1, "dephasing", lam=0.1), mc_samples=mc_samples)


@pytest.mark.parametrize("k1, projective_ec", [(0, False), (0, True), (1, False), (1, True)])
@pytest.mark.parametrize("lam", [0.0, 0.3, 50.0, math.inf], ids=str)
def test_dephased_run_applies_the_phase_average(monkeypatch, lam, k1, projective_ec):
    # a dephasing run builds no Kraus list, and its gates equal the eigen-Kraus form
    config = cfg(k1, "dephasing", lam=lam, projective_ec=projective_ec)
    built = []
    validate = KrausChannel.__post_init__
    monkeypatch.setattr(KrausChannel, "__post_init__",
                        lambda chan: built.append(chan) or validate(chan))
    phase_average = run(config).output_state.matrix
    assert built == []
    kraus = fold_stages(config, lambda slot: dephased_fredkin_channel(
        SPACE, *gate_modes(k1), lam).apply).matrix
    assert len(built) == 2  # the reference did go through the Kraus form
    assert np.max(np.abs(phase_average - kraus)) < 1e-12


# ---------------------------------------------------------------- stacked runs

STACK_STRENGTHS = {"none": lambda x: {}, "loss": lambda x: {"gamma": 3 * x},
                   "balanced-loss": lambda x: {"gamma": 3 * x}, "dephasing": lambda x: {"lam": x}}
STACK_CASES = [(model, k1, ec) for model in NOISE_MODELS for k1 in (0, 1) for ec in (False, True)
               if not (ec and model in ("loss", "balanced-loss"))]


@pytest.mark.parametrize("height", [1, 3, 4, 5, 61])
@pytest.mark.parametrize("model, k1, projective_ec", STACK_CASES,
                         ids=[f"{m}-k1={k}-ec={e}" for m, k, e in STACK_CASES])
def test_run_many_matches_the_product_form(model, k1, projective_ec, height):
    # each run's state, and each row of the grid, is the product form's; heights 5 and 61
    # cross the stack boundary of run_grid, and every point keeps its own strength
    strengths = np.linspace(0.0, 2.0, height) if height > 1 else [0.4]
    configs = [cfg(k1, model, projective_ec=projective_ec, **STACK_STRENGTHS[model](x))
               for x in strengths]
    outcomes, _ = run_grid(configs)
    assert outcomes.shape == (height, RAILS.dim)
    for config, row in zip(configs, outcomes):
        want = DensityOperator(SPACE, product_form_output(config))
        assert np.max(np.abs(run(config).output_state.matrix - want.matrix)) < 1e-12
        assert np.max(np.abs(row - marginal_distribution(want, RAIL_MODES))) < 1e-12


def test_run_grid_folds_stacks_of_at_most_sixteen(monkeypatch):
    heights = []
    check = fock.check_densities
    monkeypatch.setattr(machine, "check_densities",
                        lambda stack: heights.append(len(stack)) or check(stack))
    configs = [cfg(1, "loss", gamma=g) for g in np.linspace(0.1, 1.7, 17)]
    outcomes, p_accept = run_grid(configs)
    n_checked = sum(not isinstance(s, LinearOperator) for s in stages(configs[0]))
    assert STACK_HEIGHT == 16 and n_checked == 1  # each stack's one noisy gate is checked
    assert heights == [16] * n_checked + [1] * n_checked
    assert outcomes.shape == (17, RAILS.dim) and p_accept.shape == (17,)


@pytest.mark.parametrize("height", [1, 16, 17, 61])
@pytest.mark.parametrize("model, k1, projective_ec", STACK_CASES,
                         ids=[f"{m}-k1={k}-ec={e}" for m, k, e in STACK_CASES])
def test_run_grid_rows_are_the_runs_bit_for_bit(model, k1, projective_ec, height):
    # a stack of one and a point of a taller stack fold to the same bits
    configs = [cfg(k1, model, projective_ec=projective_ec, **STACK_STRENGTHS[model](x))
               for x in np.linspace(0.0, 2.0, height)]
    outcomes, p_accept = run_grid(configs)
    results = [run(config) for config in configs]
    assert_bit_equal(outcomes, np.array([r.outcomes for r in results]))
    assert hexes(p_accept.tolist()) == hexes(r.p_accept for r in results)


# checks per stack: one per noisy gate slot, plus one for the projection
CHECKS = {"none": 0, "loss": 1, "balanced-loss": 2, "dephasing": 2}


@pytest.mark.parametrize("model, k1, projective_ec", STAGE_CASES,
                         ids=[f"{m}-k1={k}-ec={e}" for m, k, e in STAGE_CASES])
def test_run_many_checks_the_output_of_each_non_unitary_stage(monkeypatch, model, k1,
                                                              projective_ec):
    # a checked unitary keeps a checked state a state, so only noisy gates and the
    # projection are followed by the state check, on the fold's 16-state reachable basis
    shapes = []
    check = fock.check_densities
    monkeypatch.setattr(machine, "check_densities",
                        lambda stack: shapes.append(stack.shape) or check(stack))
    configs = [cfg(k1, model, projective_ec=projective_ec, **STACK_STRENGTHS[model](x))
               for x in (0.1, 0.2, 0.3)]
    run_grid(configs)
    n_checked = sum(not isinstance(s, LinearOperator) for s in stages(configs[0]))
    assert n_checked == CHECKS[model] + projective_ec
    assert shapes == [(3, 16, 16)] * n_checked


@pytest.mark.parametrize("first, other", [
    (cfg(1, "loss", gamma=0.2), cfg(0, "loss", gamma=0.1)),
    (cfg(1, "loss", gamma=0.2), cfg(1, "balanced-loss", gamma=0.2)),
    (cfg(1, "loss", gamma=0.2), cfg(1)),
    (cfg(1, "dephasing", lam=0.1), cfg(1, "dephasing", lam=0.1, projective_ec=True)),
], ids=["k1", "noise-model", "noise-free", "projection"])
def test_run_many_rejects_mixed_stage_lists(first, other):
    # the check is eager: it raises before any result is asked for
    with pytest.raises(FockError, match="share k1, noise model and projection"):
        run_grid([first, first, other])


def _replace_with_bad_state(out):
    out[1] = 0
    out[1, 0, 0], out[1, 1, 1] = 1.5, -0.5  # Hermitian, unit trace, eigenvalue -0.5


def _add_dark_block(out):
    # +0.5 at |00000>, -0.5 at |00001>: outside the legal span, so the projection removes it
    out[1, 0, 0] += 0.5
    out[1, 1, 1] -= 0.5


# case -> (model, k1, projective_ec, how point 1 of gate slot 0's output is spoilt)
INJECTIONS = {model: (model, 1, False, _replace_with_bad_state) for model in NOISE_MODELS}
INJECTIONS.update({f"dephasing-projective-k1={k1}": ("dephasing", k1, True, _add_dark_block)
                   for k1 in (0, 1)})


@pytest.mark.parametrize("model, k1, projective_ec, spoil", INJECTIONS.values(),
                         ids=INJECTIONS.keys())
def test_non_positive_gate_in_the_middle_of_a_stack_raises(monkeypatch, model, k1,
                                                           projective_ec, spoil):
    # every noisy gate's output is checked: a non-positive state from gate slot 0
    # for one point of a stack raises, though every later stage is trace preserving
    # and the projection would discard the negative block
    stage_list, gate_stack = machine.stages, machine._gate_stack

    def slot_0_built_per_stack(config):  # so that every model routes slot 0 through inject
        steps = stage_list(config)
        steps[1] = 0
        return steps

    def inject(configs, slot, mc_samples, mc_seed):
        gate = gate_stack(configs, slot, mc_samples, mc_seed)
        if slot != 0:
            return gate

        def apply(stack):
            out = gate(stack).copy()
            spoil(out)
            return out

        return apply

    monkeypatch.setattr(machine, "stages", slot_0_built_per_stack)
    monkeypatch.setattr(machine, "_gate_stack", inject)
    configs = [cfg(k1, model, projective_ec=projective_ec, **STACK_STRENGTHS[model](x))
               for x in (0.1, 0.2, 0.3)]
    with pytest.raises(FockError, match="negative eigenvalue"):
        run_grid(configs)


@pytest.mark.parametrize("model, slots", [
    ("none", []), ("loss", [1]), ("balanced-loss", [0, 1]), ("dephasing", [0, 1]),
])
def test_only_noisy_gates_are_built_per_stack(monkeypatch, model, slots):
    # a noise-free gate is a fixed unitary of ``stages``; only noisy slots reach _gate_stack
    built = []
    gate_stack = machine._gate_stack
    monkeypatch.setattr(machine, "_gate_stack", lambda configs, slot, *mc: built.append(slot)
                        or gate_stack(configs, slot, *mc))
    for k1 in (0, 1):
        run_grid([cfg(k1, model, **STACK_STRENGTHS[model](x)) for x in (0.1, 0.2)])
        assert built == slots
        built.clear()


# ---------------------------------------------------------------- the reachable basis

REACHABLE = photon_basis(SPACE, PHOTONS)
UNREACHABLE = np.setdiff1d(np.arange(SPACE.dim), REACHABLE)


def off_the_reachable_basis(matrix):
    """Whether a (..., dim, dim) array has a nonzero entry in a row or column off REACHABLE."""
    return matrix[..., UNREACHABLE, :].any() or matrix[..., :, UNREACHABLE].any()


def test_the_reachable_basis_holds_at_most_the_input_photons_in_index_order():
    numbers = occupation_table(SPACE).sum(axis=1)
    assert np.abs(INPUT.amplitudes) ** 2 @ numbers == PHOTONS == 2
    numbers = numbers[REACHABLE]
    assert len(REACHABLE) == 16 and np.bincount(numbers).tolist() == [1, 5, 10]
    assert REACHABLE.tolist() == sorted(REACHABLE.tolist())
    assert REACHABLE[:2].tolist() == [index_of(SPACE, (0,) * 5), index_of(SPACE, (0, 0, 0, 0, 1))]


@pytest.mark.parametrize("model, k1, projective_ec", STAGE_CASES,
                         ids=[f"{m}-k1={k}-ec={e}" for m, k, e in STAGE_CASES])
def test_no_stage_couples_the_reachable_basis_to_the_rest(model, k1, projective_ec):
    # the restriction of the fold is exact: each fixed unitary and the projector have zero
    # blocks between reachable and unreachable states, and each noisy gate's full-space
    # map sends every matrix unit on the reachable basis to a matrix on it
    config = cfg(k1, model, projective_ec=projective_ec, **STRENGTHS[model])
    steps = stages(config)
    for u in (stage.matrix for stage in steps if isinstance(stage, LinearOperator)):
        assert not u[np.ix_(UNREACHABLE, REACHABLE)].any()
        assert not u[np.ix_(REACHABLE, UNREACHABLE)].any()
    assert not off_the_reachable_basis(correction.legal_projector(SPACE))
    if any(isinstance(stage, int) for stage in steps):  # both slots build the same gate
        d = len(REACHABLE)
        units = np.zeros((d * d, SPACE.dim, SPACE.dim), dtype=complex)
        units[np.arange(d * d), np.repeat(REACHABLE, d), np.tile(REACHABLE, d)] = 1
        assert not off_the_reachable_basis(full_space_gate(config, d * d)(units))


@pytest.mark.parametrize("model, k1, projective_ec", STACK_CASES,
                         ids=[f"{m}-k1={k}-ec={e}" for m, k, e in STACK_CASES])
def test_run_many_output_is_the_full_space_fold_on_the_reachable_basis(model, k1, projective_ec):
    configs = [cfg(k1, model, projective_ec=projective_ec, **STACK_STRENGTHS[model](x))
               for x in (0.0, 0.05, 0.4, 1.0, 3.0)]
    draws = [None, 700] if model == "dephasing" else [None]
    for mc_samples in draws:
        for result in (run(config, mc_samples, mc_seed=11) for config in configs):
            out = result.output_state.matrix
            assert not off_the_reachable_basis(out)  # every entry off it is exactly 0.0
            want = fold_stages(result.config,
                               lambda slot: gate_map(result.config, mc_samples, [11, slot]))
            assert np.max(np.abs(out - want.matrix)) <= 1e-15


# ---------------------------------------------------------------- config validation

def test_config_rejects_projective_ec_with_loss():
    for model in ("loss", "balanced-loss"):
        with pytest.raises(FockError, match="^projective correction requires a "
                                            "photon-number-preserving run$"):
            cfg(1, model, gamma=0.1, projective_ec=True)


def test_config_rejects_bad_values():
    for k1 in (2, True, 1.0, 10**5000):
        with pytest.raises(FockError):
            MachineConfig(k1=k1)
    for model in ("thermal", ["loss"], {}):  # an unhashable model is no key of the table either
        with pytest.raises(FockError, match=r"^noise_model must be one of \('none', 'loss', "
                                            r"'balanced-loss', 'dephasing'\)$"):
            cfg(1, model)
    for noise in (None, 0.1):
        with pytest.raises(FockError):
            MachineConfig(k1=1, noise=noise)
    with pytest.raises(FockError):
        cfg(0, "dephasing", lam=0.1, projective_ec="no")
    with pytest.raises(FockError):
        run(None)
    with pytest.raises(FockError):
        run_grid([cfg(1), None])  # raised before any stack is folded


@pytest.mark.parametrize("k1", [2, -1, "1", "0", True, 1.0, None, 10**5000],
                         ids=["2", "-1", "str-1", "str-0", "True", "1.0", "None", "huge-int"])
def test_gate_modes_rejects_a_bad_switch(k1):
    with pytest.raises(FockError, match="k1"):
        gate_modes(k1)


@pytest.mark.parametrize("config", ["x", None, 1, NoiseParams()],
                         ids=["str", "None", "int", "noise-params"])
def test_stages_rejects_what_is_not_a_config(config):
    with pytest.raises(FockError, match="MachineConfig"):
        stages(config)


def test_the_fold_and_the_figures_read_the_gate_modes_of_the_checked_k1(monkeypatch):
    # a config's k1 is checked when it is built, so the fold and the scores look its
    # modes up without going through the checking gate_modes
    assert [gate_modes(k1) for k1 in (0, 1)] == [(0, 1, 4), (0, 1, 2)]
    want = [(run(config), config) for config in CONFIGS]
    monkeypatch.setattr(machine, "gate_modes", None)
    for result, config in want:
        got = run(config)
        assert np.array_equal(got.output_state.matrix, result.output_state.matrix)
        assert readout_error(got) == readout_error(result)


def test_conditional_sums_fold_left_to_right():
    # Python 3.12's sum() of floats is compensated and np.sum adds in pairs; math.fsum
    # stands in for both here, and the acceptance must still be the left-to-right fold
    # that fixes the printed digits
    mass = [9.893121214389579e-08, 0.9987420645647754, 9.782282202823861e-15,
            9.893121216560644e-08]
    folded = 0.0
    for p in mass:
        folded += p
    assert folded == 0.9987422624272094 != math.fsum(mass)
    legal = correction.legal_mask(machine.RAILS)
    probs = np.zeros((2, machine.RAILS.dim))
    probs[:, legal] = mass
    assert machine._conditional(probs, legal, legal)[1].tolist() == [folded, folded]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e-17, 0.1, 1 / 3,
                                           0.7, 1e-14, 2.5e-14]), st.booleans()),
                min_size=16, max_size=16).map(lambda row: list(zip(*row))))
@example([(-0.0,) * 16, (True,) * 16])  # the fold's leading 0.0 turns an all -0.0 sum into +0.0
def test_masked_sums_are_the_left_fold_bit_for_bit(row):
    # a cumulative sum from a leading 0.0 adds exactly what reduce(add, ..., 0.0) adds,
    # a -0.0 term and an all-masked-out row included
    values, mask = np.array(row[0]), np.array(row[1])
    want = reduce(operator.add, values[mask].tolist(), 0.0)
    [got] = machine._masked_sums(values[None], mask).tolist()
    assert got.hex() == want.hex()


@pytest.mark.parametrize("model, strengths", [
    ("none", {"gamma": 0.3}), ("none", {"lam": 0.3}),
    ("loss", {"lam": 0.1}), ("balanced-loss", {"lam": math.inf}),
    ("dephasing", {"gamma": 0.2}),
])
def test_config_rejects_strengths_its_model_does_not_read(model, strengths):
    [name] = strengths
    with pytest.raises(FockError, match=f"^noise model '{model}' does not read {name}$"):
        MachineConfig(k1=1, noise=NoiseParams(**strengths), noise_model=model)


@pytest.mark.parametrize("config", [cfg(1, "loss", gamma=0.1), cfg(0)], ids=["loss", "none"])
def test_mc_samples_require_the_dephasing_model(config):
    with pytest.raises(FockError, match="^mc_samples requires the dephasing noise model$"):
        run(config, mc_samples=100)


def test_default_noisy_gates_resolution(monkeypatch):
    # each row of machine.NOISE_MODELS against the tests' own table: its noisy slots, the
    # fields it reads and the modes its noise damps, in order; loss damps the second
    # gate's Kerr cell, (b, e) for k1 = 0 and (b, c) for k1 = 1, and none leaves it alone
    assert list(NOISE_MODELS) == ["none", "loss", "balanced-loss", "dephasing"] == list(MODELS)
    reads = {"none": (), "loss": ("gamma",), "balanced-loss": ("gamma",), "dephasing": ("lam",)}
    mode_of = {id(lowering): m for m, lowering in enumerate(machine._LOWERINGS)}
    damped, stack = [], np.ones((1, len(REACHABLE), len(REACHABLE)), dtype=complex)
    monkeypatch.setattr(machine, "_damping", lambda lowerings, gamma: damped.extend(
        mode_of[id(lowering)] for lowering in lowerings))
    for model, (slots, fields, noise) in NOISE_MODELS.items():
        assert (slots, fields) == (MODELS[model][0], reads[model])
        for k1 in (0, 1):
            built = noise(k1, machine._gaussian_phis, *[[0.1]] * len(fields))
            assert damped == list(MODELS[model][1][k1] if MODELS[model][1] else ())
            assert model != "none" or built(stack) is stack
            damped.clear()


def test_only_projective_runs_read_the_legal_span(monkeypatch):
    spaces = []
    build = correction.legal_projector
    monkeypatch.setattr(correction, "legal_projector", lambda space: spaces.append(space)
                        or build(space))
    for config in CONFIGS:
        run(config)
        assert len(spaces) == config.projective_ec
        spaces.clear()


OUTCOME_CASES = [(*case, None) for case in STAGE_CASES] + [
    (*case, 500) for case in STAGE_CASES if case[0] == "dephasing"]


@pytest.mark.parametrize("model, k1, projective_ec, mc_samples", OUTCOME_CASES,
                         ids=[f"{m}-k1={k}-ec={e}-mc={n}" for m, k, e, n in OUTCOME_CASES])
def test_run_outcomes_are_the_marginal_of_the_output_state(model, k1, projective_ec, mc_samples):
    # the fold reads a run's a-d outcomes off its diagonal with the additions of
    # marginal_distribution, so they, and every figure read from them, keep their bits
    def figures(result):
        return np.array([*readout_error(result), *readout_error(result, postselect=True),
                         which_path_error(result)])

    for x in np.linspace(0.05, 2.0, 17):
        config = cfg(k1, model, projective_ec=projective_ec, **STACK_STRENGTHS[model](x))
        result = run(config, mc_samples, mc_seed=5)
        marginal = marginal_distribution(result.output_state, RAIL_MODES)
        assert_bit_equal(result.outcomes, marginal)
        with pytest.raises(ValueError):
            result.outcomes[0] = 1.0
        hand_built = RunResult(config, result.output_state, result.p_accept, marginal)
        assert_bit_equal(figures(hand_built), figures(result))


# ---------------------------------------------------------------- grid scoring

def hexes(values):
    return [v.hex() for v in values]


def one_row_figures(results):
    """Each run's readout errors and acceptances (plain, post-selected) and which-path error."""
    rows = []
    for result in results:
        try:
            ec = readout_error(result, postselect=True)
        except ZeroAcceptanceError:
            ec = None
        rows.append((readout_error(result), ec, which_path_error(result)))
    return rows


def assert_grid_scores_as_its_rows(configs, mc_samples=None, mc_seed=0):
    # every figure of a grid's outcome rows is the figure of its run scored on its own;
    # analytic rows come from run_grid, which keeps each run's outcomes and acceptances bit
    # for bit, and Monte-Carlo rows, which only run draws, are stacked from the runs
    results = [run(config, mc_samples, mc_seed) for config in configs]
    outcomes = np.array([r.outcomes for r in results])
    if mc_samples is None:
        grid, p_accept = run_grid(configs)
        assert_bit_equal(grid, outcomes)
        assert hexes(p_accept.tolist()) == hexes(r.p_accept for r in results)
        assert not grid.flags.writeable and not p_accept.flags.writeable
    rows, k1 = one_row_figures(results), configs[0].k1
    errors, accepted = readout_errors(outcomes, k1)
    assert hexes(errors.tolist()) == hexes(row[0][0] for row in rows)
    assert accepted.tolist() == [row[0][1] for row in rows] == [1.0] * len(rows)
    assert hexes(which_path_errors(outcomes).tolist()) == hexes(row[2] for row in rows)
    if any(row[1] is None for row in rows):
        with pytest.raises(ZeroAcceptanceError, match="dual-rail post-selection accepted zero"):
            readout_errors(outcomes, k1, postselect=True)
    else:
        errors, accepted = readout_errors(outcomes, k1, postselect=True)
        assert hexes(errors.tolist()) == hexes(row[1][0] for row in rows)
        assert hexes(accepted.tolist()) == hexes(row[1][1] for row in rows)


@pytest.mark.parametrize("model, k1, projective_ec, mc_samples", OUTCOME_CASES,
                         ids=[f"{m}-k1={k}-ec={e}-mc={n}" for m, k, e, n in OUTCOME_CASES])
def test_grid_figures_are_the_one_row_figures(model, k1, projective_ec, mc_samples):
    rng = np.random.default_rng(36)
    grids = [np.logspace(-3, 0, 61), np.logspace(-4, 1, 200), rng.uniform(0, 50, 17),
             [0.0, 1e-300, 5e-324, 1e-12], [60.0]]  # the loss models read gamma = 3 x
    for strengths in grids[:2] + grids[4:] if mc_samples else grids:
        configs = [cfg(k1, model, projective_ec=projective_ec, **STACK_STRENGTHS[model](x))
                   for x in strengths]
        assert_grid_scores_as_its_rows(configs, mc_samples, mc_seed=9)


@pytest.mark.parametrize("model", ["loss", "balanced-loss"])
def test_grid_figures_keep_a_subnormal_acceptance(model):
    # at gamma = 180 the balanced legal mass is subnormal and its shares overflow to inf
    assert_grid_scores_as_its_rows([cfg(1, model, gamma=g) for g in (0.5, 180.0, 1.0)])


def test_a_grid_whose_last_point_accepts_nothing_raises():
    # gamma = 190 leaves the balanced machine no legal mass; the grid's scores are all or none
    outcomes, _ = run_grid([cfg(1, "balanced-loss", gamma=g) for g in (1.0, 2.0, 190.0)])
    legal = correction.legal_mask(RAILS)
    assert outcomes[:2, legal].sum(axis=1).min() > 0 and outcomes[2, legal].sum() <= 0.0
    with pytest.raises(ZeroAcceptanceError, match="^dual-rail post-selection accepted zero mass$"):
        readout_errors(outcomes, 1, postselect=True)
    assert readout_errors(outcomes, 1)[1].tolist() == [1.0] * 3  # no post-selection, no raise


def test_run_grid_checks_its_configurations():
    with pytest.raises(FockError, match="at least one"):
        run_grid([])
    with pytest.raises(FockError, match="share k1, noise model and projection"):
        run_grid([cfg(1, "loss", gamma=0.1), cfg(0, "loss", gamma=0.1)])
    with pytest.raises(FockError, match="MachineConfig"):
        run_grid([cfg(1), None])
    with pytest.raises(TypeError):  # only run samples phases, one point at a time
        run_grid([cfg(1, "dephasing", lam=0.1)], mc_samples=10)


SCORER_REJECTIONS = {
    "postselected-k1=2": (lambda rows: readout_errors(rows, 2, postselect=True), "k1 must be"),
    "k1=True": (lambda rows: readout_errors(rows, True), "k1 must be an integer"),
    "k1=2": (lambda rows: readout_errors(rows, 2), "k1 must be in"),
    "readout-1-D-row": (lambda rows: readout_errors(rows[0], 1), "outcomes has shape"),
    "which-path-1-D-row": (lambda rows: which_path_errors(rows[0]), "outcomes has shape"),
    "8-columns": (lambda rows: readout_errors(rows[:, :8], 1), "outcomes has shape"),
    "nan": (lambda rows: which_path_errors(np.where(rows > 0, rows, math.nan)), "non-finite"),
    "complex": (lambda rows: readout_errors(rows + 1e-3j, 1, True), "outcomes must be real"),
    "strings": (lambda rows: which_path_errors([["x"] * RAILS.dim]), "not an array of numbers"),
}


@pytest.mark.parametrize("score, message", SCORER_REJECTIONS.values(),
                         ids=SCORER_REJECTIONS.keys())
def test_array_scorers_reject_bad_input(score, message):
    rows = run_grid([cfg(1, "loss", gamma=g) for g in (0.1, 0.2)])[0]
    with pytest.raises(FockError, match=message):
        score(rows)


def test_the_one_row_figures_call_the_array_scorer(monkeypatch):
    shapes = []
    conditional = machine._conditional
    monkeypatch.setattr(machine, "_conditional", lambda probs, legal, event:
                        shapes.append(probs.shape) or conditional(probs, legal, event))
    result = run(cfg(1, "loss", gamma=0.3))
    readout_error(result)
    readout_error(result, postselect=True)
    which_path_error(result)
    assert shapes == [(1, RAILS.dim)] * 4


def rail_index(occ4):
    return index_of(RAILS, occ4)


# the next float up from the threshold: its share is counted, the threshold's own is not
ABOVE_THRESHOLD = float(np.nextafter(PROB_OMIT_THRESHOLD, 1.0))


@pytest.mark.parametrize("postselect", [False, True])
def test_an_outcome_whose_share_is_the_omit_threshold_is_dropped(postselect):
    # k1 = 1 reads a click on d as the wrong class; the correct |0110> holds the rest, so the
    # legal mass folds to exactly 1.0 and each outcome's share is its probability
    rows = np.zeros((2, RAILS.dim))
    for row, p in zip(rows, (PROB_OMIT_THRESHOLD, ABOVE_THRESHOLD)):
        row[rail_index((0, 1, 0, 1))], row[rail_index((0, 1, 1, 0))] = p, 1.0 - p
    errors, accepted = readout_errors(rows, 1, postselect)
    assert accepted.tolist() == [1.0, 1.0]
    assert errors.tolist() == [0.0, ABOVE_THRESHOLD]
    for row, want in zip(rows, errors.tolist()):
        result = RunResult(cfg(1), INPUT.density(), 1.0, row)
        assert readout_error(result, postselect) == (want, 1.0)


def test_a_which_path_outcome_at_the_omit_threshold_is_dropped():
    rows = np.zeros((2, RAILS.dim))
    for row, p in zip(rows, (PROB_OMIT_THRESHOLD, ABOVE_THRESHOLD)):
        row[rail_index((1, 0, 0, 1))], row[rail_index((0, 1, 0, 1))] = p, 1.0 - p
    assert which_path_errors(rows).tolist() == [0.0, ABOVE_THRESHOLD]
    assert [which_path_error(RunResult(cfg(0), INPUT.density(), 1.0, row))
            for row in rows] == [0.0, ABOVE_THRESHOLD]


def distribution_row(entry, total):
    """One a-d row holding ``entry`` on |1001> and the rest of ``total`` on the legal |0110>."""
    row = np.zeros((1, RAILS.dim))
    row[0, rail_index((1, 0, 0, 1))], row[0, rail_index((0, 1, 1, 0))] = entry, total - entry
    return row


ARRAY_SCORERS = {"readout": lambda rows: readout_errors(rows, 1),
                 "postselected": lambda rows: readout_errors(rows, 0, postselect=True),
                 "which-path": which_path_errors}


@pytest.mark.parametrize("score", ARRAY_SCORERS.values(), ids=ARRAY_SCORERS.keys())
def test_array_scorers_reject_rows_that_are_no_distribution(score):
    # an entry just below EIGENVALUE_FLOOR, or a row sum just past TRACE_TOL from 1, raises;
    # an entry at the floor and sums just inside the tolerance are scored
    for row in (distribution_row(EIGENVALUE_FLOOR, 1.0),
                distribution_row(0.0, 1 + 0.99 * TRACE_TOL),
                distribution_row(0.0, 1 - 0.99 * TRACE_TOL)):
        score(row)
    for row in (distribution_row(1.01 * EIGENVALUE_FLOOR, 1.0),
                distribution_row(0.0, 1 + 1.01 * TRACE_TOL),
                distribution_row(0.0, 1 - 1.01 * TRACE_TOL),
                -np.ones((1, RAILS.dim)), np.full((1, RAILS.dim), 5.0)):
        with pytest.raises(FockError, match="^outcome rows must be distributions: "):
            score(np.vstack([distribution_row(0.0, 1.0), row]))



# ---------------------------------------------------------------- sweeps

def sweep_loss_rows(capsys, *grid_args):
    """Rows of ``dualrail sweep-loss`` as {column: float} dicts."""
    assert main(["sweep-loss", *grid_args]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    return [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]


def test_sweep_loss_columns_match_closed_forms(capsys):
    rows = sweep_loss_rows(capsys, "--grid-start", "0.01", "--grid-stop", "0.5",
                           "--grid-count", "3")
    assert [r["gamma"] for r in rows] == pytest.approx([0.01, 0.01 * 50 ** 0.5, 0.5], rel=1e-11)
    for r in rows:
        assert r["p_noec_sim"] == pytest.approx(p_noec_closed(r["gamma"]), abs=1e-10)
        assert r["p_ec_sim"] == pytest.approx(p_ec_closed(r["gamma"]), abs=1e-10)


def test_sweep_without_noise_is_error_free(capsys):
    rows = sweep_loss_rows(capsys, "--grid-start", "0", "--grid-stop", "0",
                           "--grid-count", "3", "--linear")
    assert len(rows) == 3
    for r in rows:
        assert r["p_noec_sim"] == pytest.approx(0.0, abs=1e-12)
        assert r["p_ec_sim"] == pytest.approx(0.0, abs=1e-12)
        assert r["p_balanced_ec"] == pytest.approx(0.0, abs=1e-12)


def test_sweep_loss_runs_each_lossy_machine_once(monkeypatch, capsys):
    # both loss columns are scored from one plain-loss run per grid point:
    # one run_grid per model, holding the whole grid
    calls = []
    monkeypatch.setattr(cli, "run_grid", lambda configs: calls.append(list(configs))
                        or run_grid(calls[-1]))
    rows = sweep_loss_rows(capsys, "--grid-count", "5")
    assert [[c.noise_model for c in configs] for configs in calls] == [
        ["loss"] * 5, ["balanced-loss"] * 5]
    for configs in calls:
        assert [c.noise.gamma for c in configs] == pytest.approx([r["gamma"] for r in rows],
                                                                rel=1e-11)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_sweeps_build_no_per_point_states(monkeypatch, capsys, fmt):
    # the sweeps score their grids from outcome arrays: no state is embedded into the
    # 32-state space and no RunResult is built, and the bytes are those of a free run
    want = []
    for command in ("sweep-loss", "sweep-dephasing"):
        want.append((main([command, "--format", fmt]), capsys.readouterr()))

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep built a per-point state")

    monkeypatch.setattr(machine, "DensityOperator", refuse)
    monkeypatch.setattr(machine, "RunResult", refuse)
    for command, (code, captured) in zip(("sweep-loss", "sweep-dephasing"), want):
        assert code == 0
        assert (main([command, "--format", fmt]), capsys.readouterr()) == (code, captured)
