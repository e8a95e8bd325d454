import math

import numpy as np
import pytest

from dualrail import (
    FockError,
    MachineConfig,
    NoiseParams,
    apply_unitary,
    basis_pure,
    beamsplitter_unitary,
    dephased_fredkin_mc,
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
    which_path_error,
)
from dualrail import cli, correction
from dualrail.machine import NOISE_PLACEMENT, RAIL_MODES
from dualrail.cli import main

SPACE = machine_space()
SQ2 = math.sqrt(2)


def ket5(occ4):
    return basis_pure(SPACE, occ4 + (0,)).amplitudes


def cfg(k1, model="none", gamma=0.0, lam=0.0, **kw):
    return MachineConfig(k1=k1, noise=NoiseParams(gamma=gamma, lam=lam),
                         noise_model=model, **kw)


def dist_dict(result):
    return {occ: p for occ, p in result.outcome_distribution}


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
    assert dist_dict(r1) == {(0, 1, 1, 0): pytest.approx(1.0, abs=1e-12)}
    assert readout_error(r1) == pytest.approx((0.0, 1.0), abs=1e-12)
    r0 = run(cfg(0))
    assert dist_dict(r0) == {(0, 1, 0, 1): pytest.approx(1.0, abs=1e-12)}
    assert readout_error(r0) == pytest.approx((0.0, 1.0), abs=1e-12)
    # the class readout: the mode-d marginal is deterministic on both settings
    assert marginal_distribution(r0.output_state, (3,))[1] == pytest.approx(1.0, abs=1e-12)
    assert marginal_distribution(r1.output_state, (3,))[0] == pytest.approx(1.0, abs=1e-12)


def test_mode_e_stays_vacuum_and_carries_no_content():
    result = run(cfg(0))
    full = dist_dict(result)
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
    got = dist_dict(result)
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
    got = dist_dict(result)
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
    # the legal mass e^-4gamma = e^-48 lies far below the display threshold 1e-14
    gamma = 12.0
    p_error, acceptance = readout_error(run(cfg(1, "balanced-loss", gamma=gamma)),
                                        postselect=True)
    assert p_error == 0.0
    assert acceptance == pytest.approx(math.exp(-4 * gamma), rel=1e-9)


# ---------------------------------------------------------------- dephasing

def test_dephasing_k0_diagonal():
    lam = 0.23
    result = run(cfg(0, "dephasing", lam=lam))
    e2 = math.exp(-2 * lam)
    got = dist_dict(result)
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
    got = dist_dict(result)
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
    total = sum(p for _, p in result.outcome_distribution)
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
    da, ds = dist_dict(analytic), dist_dict(sampled)
    for occ in set(da) | set(ds):
        assert abs(da.get(occ, 0.0) - ds.get(occ, 0.0)) < tol


def test_mc_run_seeds_gate_streams_from_mc_seed():
    # run keys gate g's phase stream as [mc_seed, g]; the default seed is 0
    n, lam = 2000, 0.2
    config = cfg(1, "dephasing", lam=lam)
    space = machine_space()
    bcd = beamsplitter_unitary(space, 2, 3)
    rho = apply_unitary(machine_input(space).density(), bcd)
    rho = dephased_fredkin_mc(space, *gate_modes(1), lam, n, seed=[5, 0])(rho)
    rho = apply_unitary(rho, phase_shift_unitary(space, 0, math.pi))
    rho = dephased_fredkin_mc(space, *gate_modes(1), lam, n, seed=[5, 1])(rho)
    rho = apply_unitary(rho, bcd.dagger)
    assert np.array_equal(run(config, mc_samples=n, mc_seed=5).output_state.matrix, rho.matrix)
    assert np.array_equal(run(config, mc_samples=n).output_state.matrix,
                          run(config, mc_samples=n, mc_seed=0).output_state.matrix)


# ---------------------------------------------------------------- config validation

def test_config_rejects_projective_ec_with_loss():
    with pytest.raises(FockError):
        cfg(1, "loss", gamma=0.1, projective_ec=True)
    with pytest.raises(FockError):
        cfg(1, "balanced-loss", gamma=0.1, projective_ec=True)


def test_config_rejects_bad_values():
    with pytest.raises(FockError):
        MachineConfig(k1=2)
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
    # both loss columns are scored from one plain-loss run per grid point
    models = []
    monkeypatch.setattr(cli, "run", lambda config: models.append(config.noise_model)
                        or run(config))
    sweep_loss_rows(capsys, "--grid-count", "5")
    assert models == ["loss", "balanced-loss"] * 5
