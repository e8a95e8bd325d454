import math

import mpmath
import numpy as np
import pytest

from dualrail import (
    DensityOperator,
    FockError,
    FockSpace,
    MachineConfig,
    NoiseParams,
    RunResult,
    ZeroAcceptanceError,
    basis_density,
    basis_pure,
    fit_series,
    legal_basis,
    legal_mask,
    legal_projector,
    machine_space,
    p_accept_projective_closed,
    p_ec_closed,
    p_noec_closed,
    p_projective_closed,
    projective_ec_step,
    projective_ec_step_via_unitary,
    readout_error,
    restore_unitary,
    run,
    which_path_error,
)
from dualrail.correction import p_plain_closed
from dualrail.fock import occupation_table
from conftest import random_density, random_reachable_state, space_id

SPACE = machine_space()
SQ2, SQ6 = math.sqrt(2), math.sqrt(6)


def ket5(occ4):
    return basis_pure(SPACE, occ4 + (0,)).amplitudes


def reachable_vectors():
    return [ket5(o) for o in ((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1))]


# ---------------------------------------------------------------- dual rail

def postselected(rho, k1=1):
    """(p_error, acceptance) of a run that ended in ``rho``, post-selected on dual-rail legality."""
    return readout_error(RunResult(MachineConfig(k1=k1), rho, 1.0), postselect=True)


def test_dualrail_accepts_legal_state():
    # |0110> is the correct k1 = 1 answer
    assert postselected(basis_density(SPACE, (0, 1, 1, 0, 0))) == pytest.approx((0.0, 1.0),
                                                                                abs=1e-12)


def test_dualrail_filters_illegal_mass():
    m = (0.3 * basis_density(SPACE, (0, 0, 0, 0, 0)).matrix
         + 0.7 * basis_density(SPACE, (0, 1, 0, 1, 0)).matrix)
    rho = DensityOperator(SPACE, m)
    # the accepted mass is all |0101>: the correct k1 = 0 answer, the wrong k1 = 1 one
    assert postselected(rho, k1=0) == pytest.approx((0.0, 0.7), abs=1e-12)
    assert postselected(rho, k1=1) == pytest.approx((1.0, 0.7), abs=1e-12)


def test_dualrail_zero_acceptance_is_distinct():
    with pytest.raises(ZeroAcceptanceError):
        postselected(basis_density(SPACE, (0, 0, 0, 0, 0)))


def test_dualrail_mass_accounting_on_random_states():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho = random_density(SPACE, rng)
        p_error, p = postselected(rho)
        assert 0 < p <= 1 + 1e-12
        assert 0 <= p_error <= 1
        # the acceptance is the legal mass of the full diagonal
        legal_mass = np.real(np.diag(rho.matrix))[legal_mask(SPACE)].sum()
        assert p == pytest.approx(legal_mass, abs=1e-12)


# ---------------------------------------------------------------- legal span

@pytest.mark.parametrize("space", [FockSpace(4), FockSpace(5)], ids=space_id)
def test_legal_mask_is_one_photon_per_rail_pair(space):
    rule = [occ[0] + occ[1] == 1 and occ[2] + occ[3] == 1 for occ in space.occupations()]
    assert legal_mask(space).tolist() == rule


def test_legal_subspace_is_orthonormal_rank_two():
    psi0, psi1 = legal_basis(SPACE)
    projector = legal_projector(SPACE)
    assert abs(np.vdot(psi0, psi1)) < 1e-12
    assert np.linalg.norm(psi0) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(psi1) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.matrix_rank(projector) == 2
    assert np.max(np.abs(projector @ projector - projector)) < 1e-12
    assert np.max(np.abs(projector - projector.conj().T)) < 1e-12
    assert legal_projector(SPACE) is projector
    with pytest.raises(ValueError):
        projector[0, 0] = 1


def test_legal_subspace_contains_both_ideal_candidates():
    psi0, psi1 = legal_basis(SPACE)
    projector = legal_projector(SPACE)
    cand_swap = (ket5((0, 1, 0, 1)) + ket5((1, 0, 1, 0))) / SQ2
    cand_pass = (ket5((0, 1, 0, 1)) + ket5((0, 1, 1, 0))) / SQ2
    # inner-product expansion: cand_pass = psi0/2 + sqrt(3)/2 psi1
    assert np.vdot(psi0, cand_pass) == pytest.approx(0.5, abs=1e-12)
    assert np.vdot(psi1, cand_pass) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    recon = 0.5 * psi0 + math.sqrt(3) / 2 * psi1
    assert np.max(np.abs(recon - cand_pass)) < 1e-12
    assert np.max(np.abs(projector @ cand_swap - cand_swap)) < 1e-12
    assert np.max(np.abs(projector @ cand_pass - cand_pass)) < 1e-12


# ---------------------------------------------------------------- projective step

def test_projective_step_keeps_in_span_state():
    psi0, _ = legal_basis(SPACE)
    rho = DensityOperator(SPACE, np.outer(psi0, psi0.conj()))
    corrected, p = projective_ec_step(rho)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(corrected.matrix - rho.matrix)) < 1e-12


def test_projective_step_filters_orthogonal_component():
    # (|0101> - |1010>)/sqrt(2) is orthogonal to psi0 but not to psi1
    psi0, _ = legal_basis(SPACE)
    odd = (ket5((0, 1, 0, 1)) - ket5((1, 0, 1, 0))) / SQ2
    m = 0.5 * np.outer(psi0, psi0.conj()) + 0.5 * np.outer(odd, odd.conj())
    corrected, p = projective_ec_step(DensityOperator(SPACE, m))
    proj_odd = legal_projector(SPACE) @ odd
    expected_acc = 0.5 + 0.5 * np.vdot(proj_odd, proj_odd).real
    assert p == pytest.approx(expected_acc, abs=1e-12)
    expected = (0.5 * np.outer(psi0, psi0.conj())
                + 0.5 * np.outer(proj_odd, proj_odd.conj())) / expected_acc
    assert np.max(np.abs(corrected.matrix - expected)) < 1e-12


def test_projective_step_is_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = random_density(SPACE, rng)
        once, _ = projective_ec_step(rho)
        twice, p2 = projective_ec_step(once)
        assert p2 == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-12


def test_projector_and_measurement_realizations_agree():
    rng = np.random.default_rng(123)
    vecs = reachable_vectors()
    for _ in range(50):
        rho = random_reachable_state(SPACE, vecs, rng)
        via_proj, p1 = projective_ec_step(rho)
        via_meas, p2 = projective_ec_step_via_unitary(rho)
        assert p1 == pytest.approx(p2, abs=1e-12)
        assert np.max(np.abs(via_proj.matrix - via_meas.matrix)) < 1e-12


def test_restore_unitary_images():
    u = restore_unitary(SPACE).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(SPACE.dim))) < 1e-12
    psi0, psi1 = legal_basis(SPACE)
    assert np.max(np.abs(u @ psi0 - ket5((0, 1, 0, 1)))) < 1e-12
    assert np.max(np.abs(u @ psi1 - ket5((1, 0, 0, 1)))) < 1e-12
    # complement of the legal span inside the reachable states lands on cd = 10
    comp = (ket5((0, 1, 0, 1)) - ket5((1, 0, 1, 0)) - ket5((0, 1, 1, 0))) / math.sqrt(3)
    image = u @ comp
    for idx in np.flatnonzero(np.abs(image) > 1e-12):
        assert occupation_table(SPACE)[idx, 2:4].tolist() == [1, 0]


def test_projective_step_zero_acceptance():
    comp = DensityOperator(SPACE, np.outer(ket5((1, 0, 0, 1)), ket5((1, 0, 0, 1)).conj()))
    with pytest.raises(ZeroAcceptanceError):
        projective_ec_step(comp)


# ---------------------------------------------------------------- closed forms

def test_loss_closed_forms_values():
    assert p_noec_closed(0.0) == 0.0
    assert p_ec_closed(0.0) == 0.0
    # independent arithmetic: (1 + e^-0.1 - 2 e^-0.15)/4 and (1 - 1/cosh(0.05))/2
    assert p_noec_closed(0.1) == pytest.approx(0.045855366, abs=5e-10)
    assert p_ec_closed(0.1) == pytest.approx(
        (1 - 2 / (math.exp(0.05) + math.exp(-0.05))) / 2, abs=1e-15)
    assert p_ec_closed(0.1) == pytest.approx(0.000624350, abs=5e-10)
    # past gamma ~ 1420, where cosh overflows, the error is 1/2 to double precision
    assert p_ec_closed(1500.0) == 0.5


def test_loss_closed_forms_small_gamma_asymptotics():
    gamma = 1e-3
    assert p_noec_closed(gamma) / gamma == pytest.approx(0.5, rel=0.01)
    assert p_ec_closed(gamma) / gamma**2 == pytest.approx(1 / 16, rel=0.01)


EXACT_CLOSED_FORMS = {  # float closed form: the same expression in mpmath, as written
    p_noec_closed: lambda x: (1 + mpmath.exp(-x) - 2 * mpmath.exp(-3 * x / 2)) / 4,
    p_ec_closed: lambda x: (1 - mpmath.sech(x / 2)) / 2,
    p_plain_closed: lambda x: (1 - mpmath.exp(-2 * x)) / 2,
    p_projective_closed: lambda x: ((1 - mpmath.exp(-x)) * (6 + 5 * mpmath.exp(-x))
                                    / (6 * (2 + mpmath.exp(-x)))),
}


@pytest.mark.parametrize("closed_form", EXACT_CLOSED_FORMS, ids=lambda f: f.__name__)
def test_closed_forms_have_no_cancellation(closed_form):
    # 650 digits resolve 1 - sech(x/2) ~ x^2/8 at x = 1e-300.  Below the normal
    # range (p_ec under gamma ~ 6e-154) a double has no relative precision
    # left, so the comparison also allows one subnormal step.
    exact = EXACT_CLOSED_FORMS[closed_form]
    with mpmath.workdps(650):
        for x in np.logspace(-300, math.log10(50), 301).tolist():
            want = float(exact(mpmath.mpf(x)))
            assert math.isclose(closed_form(x), want, rel_tol=1e-13, abs_tol=math.ulp(0.0)), x
    assert p_ec_closed(1e-8) == pytest.approx(6.25e-18, rel=1e-13)


@pytest.mark.parametrize("closed_form", [p_noec_closed, p_ec_closed, p_plain_closed,
                                         p_projective_closed, p_accept_projective_closed],
                         ids=lambda f: f.__name__)
def test_closed_forms_reject_nan_and_accept_inf(closed_form):
    with pytest.raises(FockError):
        closed_form(math.nan)
    with pytest.raises(FockError):
        closed_form(-0.1)
    assert math.isfinite(closed_form(math.inf))


@pytest.mark.parametrize("lam", [0.01, 0.1, 0.5, 1.0])
def test_projective_closed_forms_match_pipeline(lam):
    result = run(MachineConfig(k1=0, noise=NoiseParams(lam=lam),
                               noise_model="dephasing", projective_ec=True))
    assert which_path_error(result) == pytest.approx(p_projective_closed(lam), abs=1e-12)
    assert result.p_accept == pytest.approx(p_accept_projective_closed(lam), abs=1e-12)


@pytest.mark.parametrize("lam", [0.01, 0.5, 2.0])
def test_plain_dephasing_closed_form_matches_pipeline(lam):
    result = run(MachineConfig(k1=1, noise=NoiseParams(lam=lam), noise_model="dephasing"))
    assert readout_error(result)[0] == pytest.approx(p_plain_closed(lam), abs=1e-12)


# ---------------------------------------------------------------- series fitting

def test_fit_series_recovers_exact_quadratic():
    grid = [0.005, 0.01, 0.02, 0.03, 0.05]
    fit = fit_series([(x, x - x**2) for x in grid])
    assert fit.c1 == pytest.approx(1.0, abs=1e-6)
    assert fit.c2 == pytest.approx(-1.0, abs=1e-4)
    assert fit.max_rel_residual < 1e-10


def test_fit_series_rejects_degenerate_grids():
    with pytest.raises(FockError):
        fit_series([(0.01, 0.01)] * 4)
    with pytest.raises(FockError):
        fit_series([(0.01, 0.01), (0.02, 0.02)])
    with pytest.raises(FockError):
        fit_series([(0.0, 0.0), (0.01, 0.01), (0.02, 0.02), (0.03, 0.03)])


FIT_GRID = [0.005, 0.01, 0.02, 0.03, 0.05]


def _pipeline_series(projective):
    points = []
    for lam in FIT_GRID:
        config = MachineConfig(k1=0 if projective else 1, noise=NoiseParams(lam=lam),
                               noise_model="dephasing", projective_ec=projective)
        result = run(config)
        points.append((lam, which_path_error(result) if projective
                       else readout_error(result)[0]))
    return fit_series(points)


def test_uncorrected_dephasing_series():
    fit = _pipeline_series(projective=False)
    assert fit.c1 == pytest.approx(1.0, rel=0.02)
    assert fit.c2 == pytest.approx(-1.0, rel=0.05)
    assert fit.max_rel_residual < 1e-3


def test_projective_series_linear_coefficient():
    fit = _pipeline_series(projective=True)
    assert fit.c1 == pytest.approx(11 / 18, rel=0.02)
    # exact expansion of (1-q)(6+5q)/(6(2+q)) gives -41/108 for the quadratic;
    # the fitted value carries a little cubic contamination from the grid
    assert fit.c2 == pytest.approx(-41 / 108, rel=0.05)
    assert fit.max_rel_residual < 1e-3  # coefficients trustworthy on this grid


def test_balanced_loss_with_dualrail_is_error_free_over_gamma_range():
    for gamma in np.linspace(0.0, 2.0, 11):
        result = run(MachineConfig(k1=1, noise=NoiseParams(gamma=gamma),
                                   noise_model="balanced-loss"))
        assert readout_error(result, postselect=True)[0] <= 1e-12
