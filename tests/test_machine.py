import math

import numpy as np
import pytest

from dualrail import (
    FockError,
    LinearOperator,
    MachineConfig,
    NoiseParams,
    apply_unitary,
    basis_pure,
    beamsplitter_unitary,
    dephased_fredkin_channel,
    fredkin_unitary,
    gate_modes,
    index_of,
    machine_input,
    machine_space,
    marginal_distribution,
    p_ec_closed,
    p_noec_closed,
    phase_shift_unitary,
    readout_error,
    run,
    run_many,
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
from dualrail.machine import (
    NOISE_MODELS,
    NOISE_PLACEMENT,
    PROJECTION,
    RAIL_MODES,
    STACK_HEIGHT,
)
from dualrail.cli import main
from conftest import outcome_distribution
from oracles import apply_stack, fold_stages, product_form_output

SPACE = machine_space()
SQ2 = math.sqrt(2)


def ket5(occ4):
    return basis_pure(SPACE, occ4 + (0,)).amplitudes


def cfg(k1, model="none", gamma=0.0, lam=0.0, **kw):
    return MachineConfig(k1=k1, noise=NoiseParams(gamma=gamma, lam=lam),
                         noise_model=model, **kw)


def gate_map(config, slot):
    """Gate slot ``slot`` as a map of one state: the Fredkin unitary or its noisy stack map."""
    modes = gate_modes(config.k1)
    noisy_slots, damped = NOISE_PLACEMENT[config.noise_model]
    if slot not in noisy_slots:
        return lambda rho: apply_unitary(rho, fredkin_unitary(SPACE, *modes))
    if damped is not None:
        gate = lossy_gate_stack(SPACE, *modes, damped(config.k1), [config.noise.gamma])
    else:
        gate = phase_average_stack(SPACE, *modes, gaussian_phi(config.noise.lam)[None])
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
    assert kinds == ["unitary", 0, *projection, "unitary", 1, "unitary"]
    assert np.array_equal(steps[-1].matrix, steps[0].matrix.conj().T)
    # the stacked fold at G = 1 is bit for bit the gate maps folded one state at a time
    folded = fold_stages(config, lambda slot: gate_map(config, slot))
    assert np.array_equal(folded.matrix, run(config).output_state.matrix)


# ---------------------------------------------------------------- noise-free

def test_ideal_run_intermediate_chain():
    # the k1 = 1 noise-free pipeline composed gate by gate on the machine input
    bcd = beamsplitter_unitary(SPACE, 2, 3)
    fredkin = fredkin_unitary(SPACE, *gate_modes(1))
    psi1 = bcd.matrix @ machine_input(SPACE).amplitudes
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


@pytest.mark.parametrize("mc_seed", [-1, 1.5])
def test_mc_seed_must_be_a_non_negative_integer(mc_seed):
    with pytest.raises(FockError, match="seed entries must be"):
        run(cfg(1, "dephasing", lam=0.1), mc_samples=10, mc_seed=mc_seed)


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
    # heights 5 and 61 cross the stack boundary; every point keeps its own strength
    strengths = np.linspace(0.0, 2.0, height) if height > 1 else [0.4]
    configs = [cfg(k1, model, projective_ec=projective_ec, **STACK_STRENGTHS[model](x))
               for x in strengths]
    results = list(run_many(configs))
    assert [r.config for r in results] == configs
    for result in results:
        want = product_form_output(result.config)
        assert np.max(np.abs(result.output_state.matrix - want)) < 1e-12


def test_run_many_folds_stacks_of_at_most_four_as_they_are_consumed(monkeypatch):
    heights = []
    check = fock.check_densities
    monkeypatch.setattr(machine, "check_densities",
                        lambda stack: heights.append(len(stack)) or check(stack))
    configs = [cfg(1, "loss", gamma=g) for g in (0.1, 0.2, 0.3, 0.4, 0.5)]
    results = run_many(configs)
    assert heights == []  # nothing runs before the first result is asked for
    first = next(results)
    n_stages = len(stages(configs[0]))
    assert STACK_HEIGHT == 4 and heights == [4] * n_stages  # every stage checked, one stack
    rest = list(results)
    assert heights == [4] * n_stages + [1] * n_stages
    assert [r.config for r in [first, *rest]] == configs
    for result in [first, *rest]:
        assert np.array_equal(result.output_state.matrix, run(result.config).output_state.matrix)


@pytest.mark.parametrize("first, other", [
    (cfg(1, "loss", gamma=0.2), cfg(0, "loss", gamma=0.1)),
    (cfg(1, "loss", gamma=0.2), cfg(1, "balanced-loss", gamma=0.2)),
    (cfg(1, "loss", gamma=0.2), cfg(1)),
    (cfg(1, "dephasing", lam=0.1), cfg(1, "dephasing", lam=0.1, projective_ec=True)),
], ids=["k1", "noise-model", "noise-free", "projection"])
def test_run_many_rejects_mixed_stage_lists(first, other):
    # the check is eager: it raises before any result is asked for
    with pytest.raises(FockError, match="share k1, noise model and projection"):
        run_many([first, first, other])


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_non_positive_gate_in_the_middle_of_a_stack_raises(monkeypatch, model):
    # every stage output is checked: a non-positive state from gate slot 0 for
    # one point of a stack raises, though every later stage is trace preserving
    bad = np.zeros((SPACE.dim, SPACE.dim), dtype=complex)
    bad[0, 0], bad[1, 1] = 1.5, -0.5  # Hermitian, unit trace, eigenvalue -0.5
    gate_stack = machine._gate_stack

    def inject(space, configs, slot, mc_samples, mc_seed):
        gate = gate_stack(space, configs, slot, mc_samples, mc_seed)
        if slot != 0:
            return gate

        def apply(stack):
            out = gate(stack).copy()
            out[1] = bad
            return out

        return apply

    monkeypatch.setattr(machine, "_gate_stack", inject)
    configs = [cfg(1, model, **STACK_STRENGTHS[model](x)) for x in (0.1, 0.2, 0.3)]
    with pytest.raises(FockError, match="negative eigenvalue"):
        list(run_many(configs))


# ---------------------------------------------------------------- config validation

def test_config_rejects_projective_ec_with_loss():
    with pytest.raises(FockError):
        cfg(1, "loss", gamma=0.1, projective_ec=True)
    with pytest.raises(FockError):
        cfg(1, "balanced-loss", gamma=0.1, projective_ec=True)


def test_config_rejects_bad_values():
    for k1 in (2, True, 1.0):
        with pytest.raises(FockError):
            MachineConfig(k1=k1)
    with pytest.raises(FockError):
        cfg(1, "thermal")


@pytest.mark.parametrize("model, strengths", [
    ("none", {"gamma": 0.3}), ("none", {"lam": 0.3}),
    ("loss", {"lam": 0.1}), ("balanced-loss", {"lam": math.inf}),
    ("dephasing", {"gamma": 0.2}),
])
def test_config_rejects_strengths_its_model_does_not_read(model, strengths):
    with pytest.raises(FockError, match="does not read"):
        MachineConfig(k1=1, noise=NoiseParams(**strengths), noise_model=model)


@pytest.mark.parametrize("config", [cfg(1, "loss", gamma=0.1), cfg(0)], ids=["loss", "none"])
def test_mc_samples_require_the_dephasing_model(config):
    with pytest.raises(FockError, match="mc_samples"):
        run(config, mc_samples=100)


def test_default_noisy_gates_resolution():
    # noise model -> (noisy gate slots, damped modes for k1): loss damps the
    # second gate's Kerr cell, (b, c) for k1 = 1 and (b, e) for k1 = 0
    slots = {model: placement[0] for model, placement in NOISE_PLACEMENT.items()}
    assert slots == {"none": (), "loss": (1,), "balanced-loss": (0, 1), "dephasing": (0, 1)}
    damped = {model: placement[1] for model, placement in NOISE_PLACEMENT.items()}
    assert damped["none"] is None and damped["dephasing"] is None
    assert [damped["loss"](k1) for k1 in (0, 1)] == [(1, 4), (1, 2)]
    assert [damped["balanced-loss"](k1) for k1 in (0, 1)] == [RAIL_MODES, RAIL_MODES]


def test_only_projective_runs_read_the_legal_span(monkeypatch):
    spaces = []
    build = correction.legal_projector
    monkeypatch.setattr(correction, "legal_projector", lambda space: spaces.append(space)
                        or build(space))
    for config in CONFIGS:
        run(config)
        assert len(spaces) == config.projective_ec
        spaces.clear()


def test_runs_read_no_outcomes_and_each_figure_reads_one_marginal(monkeypatch):
    reads = []
    marginal = machine.marginal_distribution
    monkeypatch.setattr(machine, "marginal_distribution", lambda rho, modes: reads.append(modes)
                        or marginal(rho, modes))
    for config in CONFIGS:
        [result] = list(run_many([config]))
        assert reads == []
        for score in (readout_error, lambda r: readout_error(r, postselect=True),
                      which_path_error):
            score(result)
            assert reads == [RAIL_MODES]
            reads.clear()


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
    # one run_many per model, holding the whole grid
    calls = []
    monkeypatch.setattr(cli, "run_many", lambda configs: calls.append(list(configs))
                        or run_many(calls[-1]))
    rows = sweep_loss_rows(capsys, "--grid-count", "5")
    assert [[c.noise_model for c in configs] for configs in calls] == [
        ["loss"] * 5, ["balanced-loss"] * 5]
    for configs in calls:
        assert [c.noise.gamma for c in configs] == pytest.approx([r["gamma"] for r in rows],
                                                                rel=1e-11)
