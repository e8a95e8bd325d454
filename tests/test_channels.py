import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrail import (
    DensityOperator,
    FockError,
    FockSpace,
    NoiseParams,
    apply_unitary,
    basis_density,
    basis_pure,
    beamsplitter_unitary,
    decibels,
    dephased_fredkin_channel,
    fredkin_unitary,
    index_of,
    kerr_unitary,
    lambda_from_physical,
    lossy_fredkin_channel,
)
from dualrail.channels import (
    LOSS_PLACEMENTS,
    KrausChannel,
    _damping,
    _damping_kraus,
    _frame_conjugate,
    _gate_sandwich,
    _gaussian_phis,
    _phase_correlation,
    gaussian_phi,
    lossy_gate_stack,
    phase_average_stack,
    sampled_phi,
)
from dualrail.correction import lossy_gate_output_101, projective_ec_stack
from dualrail.fock import occupation_table
from conftest import (
    assert_bit_equal,
    digits_of,
    index_from_digits,
    random_density,
    space_id,
)
from oracles import (
    apply_stack,
    dephased_fredkin_ghq,
    noisy_fredkin_sample,
    sampled_phi_exponential,
    sampled_phi_outer,
)

SPACE3 = FockSpace(3)
REACHABLE = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1))


def ket(occ, space=SPACE3):
    return basis_pure(space, occ).amplitudes


def apply_raw(channel, matrix):
    out = np.zeros_like(matrix, dtype=complex)
    for k in channel.kraus_ops:
        out += k @ matrix @ k.conj().T
    return out


def dephased(lam, rho):
    """The analytic dephased gate on modes (0, 1, 2) of SPACE3, applied to one state."""
    return apply_stack(phase_average_stack(SPACE3, 0, 1, 2, gaussian_phi(lam)[None]), rho)


def sampled(lam, n, seed):
    """The Monte-Carlo dephased gate on modes (0, 1, 2) of SPACE3, as a map of one state."""
    gate = phase_average_stack(SPACE3, 0, 1, 2, sampled_phi(lam, n, seed)[None])
    return lambda rho: apply_stack(gate, rho)


def damping(space, mode, gamma):
    """Photon loss on one mode, as the machine applies it, as a map of one state."""
    return lambda rho: apply_stack(_damping(space, [mode], [gamma]), rho)


def lossy_reference_101(gamma):
    """Independent construction of the lossy gate output on |101><101|."""
    surv, half = math.exp(-gamma), math.exp(-gamma / 2)
    phi01 = (1 + half) * ket((0, 1, 0)) + (1 - half) * ket((1, 0, 0))
    phi10 = (1 + half) * ket((0, 1, 1)) + (1 - half) * ket((1, 0, 1))
    out = (1 - surv) ** 2 / 2 * np.outer(ket((0, 0, 0)), ket((0, 0, 0)))
    out = out + surv * (1 - surv) / 2 * np.outer(ket((0, 0, 1)), ket((0, 0, 1)))
    out = out + (1 - surv) / 4 * np.outer(phi01, phi01)
    out = out + surv / 4 * np.outer(phi10, phi10)
    return out.astype(complex)


# ---------------------------------------------------------------- damping

def test_amplitude_damping_populations():
    space = FockSpace(1)
    gamma = 0.37
    out = damping(space, 0, gamma)(basis_density(space, (1,))).matrix
    assert out[0, 0] == pytest.approx(1 - math.exp(-gamma), abs=1e-14)
    assert out[1, 1] == pytest.approx(math.exp(-gamma), abs=1e-14)


def test_amplitude_damping_zero_is_identity():
    space = FockSpace(2)
    rho = random_density(space, np.random.default_rng(3))
    assert np.max(np.abs(damping(space, 1, 0.0)(rho).matrix - rho.matrix)) < 1e-14


def test_amplitude_damping_coherence_decay():
    space = FockSpace(1)
    gamma = 0.2
    plus = DensityOperator(space, np.full((2, 2), 0.5, dtype=complex))
    out = damping(space, 0, gamma)(plus).matrix
    assert out[0, 1] == pytest.approx(0.5 * math.exp(-0.1), abs=1e-14)


def loop_damping_kraus(space, mode, gamma):
    """The no-jump and jump operators built entry by entry over the basis indices."""
    surv = math.exp(-gamma)
    keep = np.zeros((space.dim, space.dim), dtype=complex)
    jump = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(space.dim):
        occ = digits_of(space, i)
        if occ[mode] == 0:
            keep[i, i] = 1.0
        else:
            keep[i, i] = surv ** 0.5
            occ[mode] = 0
            jump[index_from_digits(space, occ), i] = (1 - surv) ** 0.5
    return [op for op in (keep, jump) if np.any(op != 0)]


@pytest.mark.parametrize("gamma", [0.0, 1e-20, 0.3, 5.0, 185.0, 800.0, 1e300])
@pytest.mark.parametrize("space", [FockSpace(n) for n in range(1, 6)], ids=space_id)
def test_damping_kraus_matches_index_loop(space, gamma):
    # e^-gamma rounds to 1 at 1e-20 (no jump) and underflows to 0 from about 745
    for mode in range(space.n_modes):
        ops = _damping_kraus(space, mode, gamma)
        ref = loop_damping_kraus(space, mode, gamma)
        assert len(ops) == len(ref) == (1 if math.exp(-gamma) == 1.0 else 2)
        for op, want in zip(ops, ref):
            assert_bit_equal(op, want)


def test_noise_params_validation():
    with pytest.raises(FockError):
        NoiseParams(gamma=-0.1)
    with pytest.raises(FockError):
        NoiseParams(lam=-0.1)
    for strengths in ({"gamma": "0.1"}, {"lam": None}, {"gamma": 1j}, {"gamma": True},
                      {"lam": True}, {"lam": "inf"}, {"gamma": 10**400},
                      {"lam": 10**5000}, {"gamma": -10**5000}):
        with pytest.raises(FockError):
            NoiseParams(**strengths)
    # an int above the float range is no strength, though inf is
    with pytest.raises(FockError, match=r"^lam must be >= 0 and <= 1\.7976931348623157e\+308, or inf"):
        NoiseParams(lam=10**400)
    NoiseParams(lam=math.inf)  # fully dephasing limit is allowed


# ---------------------------------------------------------------- composition

@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1),
       g1=st.floats(0.0, 1.5), g2=st.floats(0.0, 1.5))
def test_damping_semigroup(seed, g1, g2):
    space = FockSpace(2)
    rho = random_density(space, np.random.default_rng(seed))
    stepwise = damping(space, 0, g2)(damping(space, 0, g1)(rho))
    direct = damping(space, 0, g1 + g2)(rho)
    assert np.max(np.abs(stepwise.matrix - direct.matrix)) < 1e-12


# ---------------------------------------------------------------- lossy gate

@pytest.mark.parametrize("gamma", [0.01, 0.1, 0.5, 1.0])
def test_lossy_fredkin_matches_reference_decomposition(gamma):
    chan = lossy_fredkin_channel(SPACE3, 0, 1, 2, gamma)
    out = chan.apply(basis_density(SPACE3, (1, 0, 1))).matrix
    ref = lossy_reference_101(gamma)
    assert np.max(np.abs(out - ref)) < 1e-12
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert abs(np.trace(ref).real - 1.0) < 1e-12  # reference itself is normalized


@pytest.mark.parametrize("gamma", [0.0, 0.3, 2.0])
def test_library_lossy_gate_closed_form_matches_reference(gamma):
    assert np.max(np.abs(lossy_gate_output_101(gamma) - lossy_reference_101(gamma))) < 1e-15


@pytest.mark.parametrize("gamma", [0.1, 0.7])
def test_lossy_fredkin_interchange_symmetry(gamma):
    swap = np.zeros((SPACE3.dim, SPACE3.dim))
    for i in range(SPACE3.dim):
        a, b, c = np.unravel_index(i, (2, 2, 2))
        swap[index_of(SPACE3, (b, a, c)), i] = 1.0
    chan = lossy_fredkin_channel(SPACE3, 0, 1, 2, gamma)
    out011 = chan.apply(basis_density(SPACE3, (0, 1, 1))).matrix
    expected = swap @ lossy_reference_101(gamma) @ swap.T
    assert np.max(np.abs(out011 - expected)) < 1e-12


def test_lossy_fredkin_zero_loss_is_fredkin():
    chan = lossy_fredkin_channel(SPACE3, 0, 1, 2, 0.0)
    f = fredkin_unitary(SPACE3, 0, 1, 2)
    rho = random_density(SPACE3, np.random.default_rng(5))
    assert np.max(np.abs(chan.apply(rho).matrix - apply_unitary(rho, f).matrix)) < 1e-12


def test_lossy_fredkin_rejects_bad_placement():
    with pytest.raises(FockError):
        lossy_fredkin_channel(SPACE3, 0, 1, 2, 0.1, "inside")


@pytest.mark.parametrize("placement", LOSS_PLACEMENTS)
@pytest.mark.parametrize("gamma", [True, math.nan, -1, math.inf, 10**400],
                         ids=["bool", "nan", "negative", "inf", "huge-int"])
def test_lossy_fredkin_rejects_a_bad_gamma_under_every_placement(gamma, placement):
    # gamma is checked whole, before any placement takes its share of it
    with pytest.raises(FockError):
        lossy_fredkin_channel(SPACE3, 0, 1, 2, gamma, placement)


def hand_written_stages(space, gamma, placement):
    """Each placement's stage list written out by hand, jumps before K referred past it."""
    k = kerr_unitary(space, 1, 2).matrix

    def before(mode, g):
        return _frame_conjugate(_damping_kraus(space, mode, g), k)

    if placement == "after-kerr":
        return [[k], _damping_kraus(space, 1, gamma), _damping_kraus(space, 2, gamma)]
    if placement == "before-kerr":
        return [before(1, gamma), before(2, gamma), [k]]
    half = gamma / 2
    return [before(1, half), before(2, half), [k],
            _damping_kraus(space, 1, half), _damping_kraus(space, 2, half)]


@pytest.mark.parametrize("placement", LOSS_PLACEMENTS)
@pytest.mark.parametrize("gamma", [0, 0.3, 5])
def test_a_loss_placement_is_the_share_of_gamma_taken_before_the_cross_phase(gamma, placement):
    assert list(LOSS_PLACEMENTS.items()) == [("after-kerr", 0), ("before-kerr", 1), ("split", 0.5)]
    for space in (SPACE3, FockSpace(5)):
        got = lossy_fredkin_channel(space, 0, 1, 2, gamma, placement).kraus_ops
        want = _gate_sandwich(space, 0, 1, hand_written_stages(space, gamma, placement)).kraus_ops
        assert len(got) == len(want)
        for op, ref in zip(got, want):
            assert_bit_equal(op, ref)


@pytest.mark.parametrize("lam", [0, 0.37, math.inf])
def test_dephased_kraus_reference_is_the_eigen_diagonal_sandwich(lam):
    # one operator B^dag diag(sqrt(w) v[N]) K B per kept eigenpair of C, in eigh order
    for space, modes in ((SPACE3, (0, 1, 2)), (FockSpace(5), (3, 1, 4))):
        evals, evecs = np.linalg.eigh(_phase_correlation(gaussian_phi(lam), np.arange(3)))
        n = occupation_table(space)[:, modes[1]] + occupation_table(space)[:, modes[2]]
        diagonals = [np.diag(math.sqrt(w) * v[n]) for w, v in zip(evals, evecs.T) if w >= 1e-14]
        stages = [[kerr_unitary(space, *modes[1:]).matrix], diagonals]
        want = _gate_sandwich(space, *modes[:2], stages).kraus_ops
        got = dephased_fredkin_channel(space, *modes, lam).kraus_ops
        assert len(got) == len(want)
        for op, ref in zip(got, want):
            assert_bit_equal(op, ref)


@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
def test_loss_placement_equivalence_on_reachable_inputs(gamma):
    chans = [lossy_fredkin_channel(SPACE3, 0, 1, 2, gamma, p)
             for p in ("after-kerr", "before-kerr", "split")]
    worst = 0.0
    for occ1 in REACHABLE:
        for occ2 in REACHABLE:
            unit = np.outer(ket(occ1), ket(occ2).conj())
            outs = [apply_raw(c, unit) for c in chans]
            worst = max(worst,
                        np.max(np.abs(outs[0] - outs[1])),
                        np.max(np.abs(outs[0] - outs[2])))
    assert worst < 1e-12


def test_loss_placement_general_case_report():
    """Without the output-frame correction, loss before the cross-phase would be a
    different channel: on the diagonal matrix units it deviates from the canonical
    one by exactly (1 - e^-gamma) e^(-gamma/2), which is why ``_frame_conjugate`` exists."""
    b = beamsplitter_unitary(SPACE3, 0, 1).matrix
    k = kerr_unitary(SPACE3, 1, 2).matrix
    for gamma in (0.01, 0.1, 0.3, 1.0):
        ops = [b]  # the product list B^dag K D_c D_b B, jumps not referred to the output frame
        for mode in (1, 2):
            ops = [d @ o for d in _damping_kraus(SPACE3, mode, gamma) for o in ops]
        naive_before = KrausChannel(SPACE3, tuple(b.conj().T @ k @ o for o in ops))
        canonical = lossy_fredkin_channel(SPACE3, 0, 1, 2, gamma, "after-kerr")
        worst = 0.0
        for i in range(SPACE3.dim):
            unit = np.zeros((SPACE3.dim, SPACE3.dim), dtype=complex)
            unit[i, i] = 1.0
            worst = max(worst, np.max(np.abs(apply_raw(canonical, unit)
                                             - apply_raw(naive_before, unit))))
        assert worst == pytest.approx(-math.expm1(-gamma) * math.exp(-gamma / 2), abs=1e-12)


# ---------------------------------------------------------------- balanced loss

def test_balanced_lossy_zero_loss_is_fredkin():
    space = FockSpace(4)
    gate = lossy_gate_stack(space, 0, 1, 2, (0, 1, 2, 3), [0.0])
    f = fredkin_unitary(space, 0, 1, 2)
    rho = random_density(space, np.random.default_rng(8))
    assert np.max(np.abs(apply_stack(gate, rho).matrix - apply_unitary(rho, f).matrix)) < 1e-12


def test_an_empty_strength_list_is_a_zero_height_stack():
    empty = np.zeros((0, SPACE3.dim, SPACE3.dim), dtype=complex)
    for gate in (lossy_gate_stack(SPACE3, 0, 1, 2, (1, 2), []),
                 phase_average_stack(SPACE3, 0, 1, 2, np.zeros((0, 3)))):
        assert gate(empty).shape == empty.shape


def test_balanced_lossy_rejects_mode_collision():
    with pytest.raises(FockError):
        lossy_gate_stack(FockSpace(4), 0, 1, 2, (0, 1, 2, 2), [0.1])


def test_balanced_lossy_rejects_out_of_range_mode():
    with pytest.raises(FockError):
        lossy_gate_stack(FockSpace(4), 0, 1, 2, (0, 1, 2, 4), [0.1])


NOISY_FREDKIN_GATES = {  # name -> (space, modes) -> the gate: a stack map or a Kraus channel
    "balanced-loss": lambda space, modes: lossy_gate_stack(space, *modes, (0, 1, 2), [0.1]),
    "lossy-kraus": lambda space, modes: lossy_fredkin_channel(space, *modes, 0.1),
    "dephased-apply": lambda space, modes: phase_average_stack(space, *modes,
                                                               gaussian_phi(0.1)[None]),
    "dephased-mc": lambda space, modes: phase_average_stack(space, *modes,
                                                            sampled_phi(0.1, 10, 0)[None]),
    "dephased-kraus": lambda space, modes: dephased_fredkin_channel(space, *modes, 0.1),
}


@pytest.mark.parametrize("name", sorted(NOISY_FREDKIN_GATES))
def test_noisy_fredkin_gates_follow_the_mode_and_space_rules(name):
    # the rules fredkin_unitary and KrausChannel.apply enforce: three distinct in-range
    # modes, and a state on the gate's own space; a stack map takes a bare array, which
    # carries no space, so only the Kraus channels check the second rule
    build = NOISY_FREDKIN_GATES[name]
    rho = basis_density(SPACE3, (1, 0, 1))
    for modes in ((0, 1, 0), (0, 1, 3), (-1, 1, 2)):
        with pytest.raises(FockError):
            build(SPACE3, modes)
    gate = build(SPACE3, (0, 1, 2))
    if isinstance(gate, KrausChannel):
        with pytest.raises(FockError):
            gate.apply(basis_density(FockSpace(4), (1, 0, 1, 0)))
        out = gate.apply(rho)
    else:
        out = apply_stack(gate, rho)
    assert np.max(np.abs(out.matrix)) > 0


def test_balanced_lossy_k0_gate_matches_composed_channel():
    # the k1 = 0 gate couples (a, b, e) while the loss hits the rails a-d
    space, gamma = FockSpace(5), 0.35
    gate = lossy_gate_stack(space, 0, 1, 4, (0, 1, 2, 3), [gamma])
    b = beamsplitter_unitary(space, 0, 1)
    rng = np.random.default_rng(21)
    for _ in range(3):
        rho = random_density(space, rng)
        ref = apply_unitary(apply_unitary(rho, b), kerr_unitary(space, 1, 4))
        for m in (0, 1, 2, 3):
            ref = KrausChannel(space, tuple(_damping_kraus(space, m, gamma))).apply(ref)
        ref = apply_unitary(ref, b.dagger)
        assert np.max(np.abs(apply_stack(gate, rho).matrix - ref.matrix)) < 1e-12


def test_balanced_lossy_gate_is_trace_preserving_and_positive():
    space = FockSpace(4)
    gate = lossy_gate_stack(space, 0, 1, 2, (0, 1, 2, 3), [0.2])
    rng = np.random.default_rng(17)
    for _ in range(100):
        out = apply_stack(gate, random_density(space, rng))
        # DensityOperator construction re-validates Hermiticity, trace, positivity
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-10


# ---------------------------------------------------------------- dephasing

@pytest.mark.parametrize("lam", [0.05, 0.37, 1.5])
def test_dephased_gate_two_state_mixture(lam):
    out = dephased(lam, basis_density(SPACE3, (1, 0, 1))).matrix
    q = math.exp(-lam)
    expected = ((1 + q) / 2 * np.outer(ket((0, 1, 1)), ket((0, 1, 1)))
                + (1 - q) / 2 * np.outer(ket((1, 0, 1)), ket((1, 0, 1)))).astype(complex)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_dephased_gate_mirrored_input(lam=0.37):
    out = dephased(lam, basis_density(SPACE3, (0, 1, 1))).matrix
    q = math.exp(-lam)
    expected = ((1 + q) / 2 * np.outer(ket((1, 0, 1)), ket((1, 0, 1)))
                + (1 - q) / 2 * np.outer(ket((0, 1, 1)), ket((0, 1, 1)))).astype(complex)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_dephased_gate_zero_strength_is_fredkin():
    f = fredkin_unitary(SPACE3, 0, 1, 2)
    rho = random_density(SPACE3, np.random.default_rng(21))
    out = dephased(0.0, rho)
    assert np.max(np.abs(out.matrix - apply_unitary(rho, f).matrix)) < 1e-12


@pytest.mark.parametrize("lam", [0.05, 0.4, 2.0, math.inf], ids=str)
def test_dephased_suppression_and_kraus_forms_agree(lam):
    rng = np.random.default_rng(33)
    chan = dephased_fredkin_channel(SPACE3, 0, 1, 2, lam)
    for _ in range(10):
        rho = random_density(SPACE3, rng)
        a = dephased(lam, rho).matrix
        b = chan.apply(rho).matrix
        assert np.max(np.abs(a - b)) < 1e-12


def test_fully_dephasing_limit():
    rng = np.random.default_rng(12)
    rho = random_density(SPACE3, rng)
    once = dephased(math.inf, rho)
    twice = dephased(math.inf, once)
    assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-12
    # in the interferometer frame nothing connects different cell photon numbers
    b = beamsplitter_unitary(SPACE3, 0, 1).matrix
    frame = b @ once.matrix @ b.conj().T
    table = occupation_table(SPACE3)
    n = table[:, 1] + table[:, 2]
    for i in range(SPACE3.dim):
        for j in range(SPACE3.dim):
            if n[i] != n[j]:
                assert abs(frame[i, j]) < 1e-12


@pytest.mark.parametrize("lam", [0.01, 0.1, 0.5])
def test_gauss_hermite_oracle_matches_analytic(lam):
    quad = dephased_fredkin_ghq(SPACE3, 0, 1, 2, lam)
    worst = 0.0
    for occ in REACHABLE:
        rho = basis_density(SPACE3, occ)
        a = dephased(lam, rho).matrix
        assert np.max(np.abs(apply_stack(quad, rho).matrix - a)) < 1e-10
    rho = random_density(SPACE3, np.random.default_rng(4))
    a = dephased(lam, rho).matrix
    assert np.max(np.abs(apply_stack(quad, rho).matrix - a)) < 1e-10


# ---------------------------------------------------------------- Monte Carlo

def _literal_phase_average(space, rho, eps_values, weights):
    """sum_j w_j V(eps_j) rho V(eps_j)^dag, built sample by sample."""
    out = np.zeros_like(rho.matrix)
    for eps, w in zip(eps_values, weights):
        v = noisy_fredkin_sample(space, 0, 1, 2, eps).matrix
        out += w * (v @ rho.matrix @ v.conj().T)
    return out


def test_mc_oracle_is_the_literal_sample_mean():
    lam, n, seed = 0.3, 200, 606
    rho = random_density(SPACE3, np.random.default_rng(8))
    eps = np.random.default_rng(seed).normal(0.0, math.sqrt(2 * lam), size=n)
    literal = _literal_phase_average(SPACE3, rho, eps, np.full(n, 1.0 / n))
    oracle = sampled(lam, n, seed)
    assert np.max(np.abs(oracle(rho).matrix - literal)) < 1e-13


def test_quadrature_oracle_is_the_literal_node_sum():
    lam = 0.3
    rho = random_density(SPACE3, np.random.default_rng(9))
    x, w = np.polynomial.hermite.hermgauss(40)
    literal = _literal_phase_average(SPACE3, rho, 2 * math.sqrt(lam) * x, w / math.sqrt(math.pi))
    quad = dephased_fredkin_ghq(SPACE3, 0, 1, 2, lam)
    assert np.max(np.abs(apply_stack(quad, rho).matrix - literal)) < 1e-13


def test_mc_zero_strength_exact():
    f = fredkin_unitary(SPACE3, 0, 1, 2)
    rho = basis_density(SPACE3, (1, 0, 1))
    for lam in (0.0, -0.0):  # a negative zero passes the lam >= 0 rule
        oracle = sampled(lam, 100, 0)
        assert np.max(np.abs(oracle(rho).matrix - apply_unitary(rho, f).matrix)) < 1e-12


def test_mc_diagonal_weights_within_three_sigma():
    lam, n = 0.1, 10**5
    oracle = sampled(lam, n, 20240)
    out = oracle(basis_density(SPACE3, (1, 0, 1))).matrix
    q = math.exp(-lam)
    # per-sample weight (1 -+ cos eps)/2, so Var = ((1 + e^-4lam)/2 - e^-2lam)/4
    sigma = math.sqrt(((1 + math.exp(-4 * lam)) / 2 - math.exp(-2 * lam)) / 4 / n)
    i101, i011 = index_of(SPACE3, (1, 0, 1)), index_of(SPACE3, (0, 1, 1))
    assert abs(out[i101, i101].real - (1 - q) / 2) <= 3 * sigma
    assert abs(out[i011, i011].real - (1 + q) / 2) <= 3 * sigma


def test_mc_error_shrinks_like_inverse_sqrt_n():
    lam = 0.1
    rho = basis_density(SPACE3, (1, 0, 1))
    exact = dephased(lam, rho).matrix
    sizes = [10**3, 10**4, 10**5]
    mean_errs = []
    for n in sizes:
        errs = []
        for seed in range(8):
            oracle = sampled(lam, n, [seed, n])
            errs.append(np.max(np.abs(oracle(rho).matrix - exact)))
        mean_errs.append(np.mean(errs))
    slope = np.polyfit(np.log(sizes), np.log(mean_errs), 1)[0]
    assert -0.75 < slope < -0.25


def test_mc_is_deterministic_per_seed():
    oracle1 = sampled(0.2, 5000, 77)
    oracle2 = sampled(0.2, 5000, 77)
    rho = basis_density(SPACE3, (0, 1, 1))
    assert np.array_equal(oracle1(rho).matrix, oracle2(rho).matrix)


def pointwise_gaussian_phi(lam):
    """phi(0) = 1, then exp(-k^2 lam) for k = 1, 2, for one lambda."""
    with np.errstate(over="ignore"):
        return np.concatenate(([1.0], np.exp(-np.arange(1, 3, dtype=float) ** 2 * lam)))


@pytest.mark.parametrize("height", [1, 4, 61])
def test_gaussian_phi_of_a_stack_is_the_pointwise_law_bit_for_bit(height):
    lams = [*np.logspace(-8, 3, 997).tolist(), 0.0, 5e-324, 1e300, math.inf, 10**300]
    for start in range(0, len(lams), height):
        chunk = lams[start:start + height]
        want = np.array([pointwise_gaussian_phi(lam) for lam in chunk])
        assert_bit_equal(_gaussian_phis(chunk), want)
        assert all(gaussian_phi(lam).tobytes() == row.tobytes() for lam, row in zip(chunk, want))


@pytest.mark.parametrize("seed", [0, [424242, 1]], ids=["int", "list"])
@pytest.mark.parametrize("n", [1, 17, 5000, 100000])
@pytest.mark.parametrize("lam", [0.0, 1e-6, 0.1, 1.0, 1e4], ids=str)
def test_sampled_phi_matches_the_outer_form_bit_for_bit(lam, n, seed):
    phi, reference = sampled_phi(lam, n, seed), sampled_phi_outer(lam, n, seed)
    assert phi.dtype == reference.dtype
    assert phi[1:].tobytes() == reference[1:].tobytes()


@pytest.mark.parametrize("seed", [0, [424242, 1]], ids=["int", "list"])
@pytest.mark.parametrize("n", [1, 17, 5000, 100000])
@pytest.mark.parametrize("lam", [0.0, 1e-6, 0.1, 1.0, 1e4], ids=str)
def test_sampled_phi_rounds_like_the_exponential_form(lam, n, seed):
    # squaring the phasor rounds phi(2) apart from exp(2 i eps) by at most 2^-52 on these draws
    phi, reference = sampled_phi(lam, n, seed), sampled_phi_exponential(lam, n, seed)
    assert phi[:2].tobytes() == reference[:2].tobytes()
    assert abs(phi[2] - reference[2]) <= 2.0 ** -51


@pytest.mark.parametrize("n", [1, 49, 98, 250001, 100000])
def test_sampled_phi_zero_is_exactly_one(n):
    # the mean of n ones rounds below 1 at n = 49, 98 and 250001
    phi = sampled_phi(0.1, n, 0)
    assert phi[0].tobytes() == np.complex128(1.0).tobytes()


@pytest.mark.parametrize("lam, n_samples, seed", [
    (0.1, 2.5, 0), (0.1, True, 0), (0.1, 0, 0), (0.1, 10, -1), (0.1, 10, 1.5), (0.1, 10, True),
    (0.1, 10, None), (0.1, 10, [0, -1]), (0.1, 10, [0, 1.5]),
    (0.1, 10, np.random.default_rng(0)), (None, 10, 0), ("x", 10, 0), (10**400, 10, 0),
    (10**5000, 10, 0),
], ids=["float-n", "bool-n", "zero-n", "negative-seed", "float-seed", "bool-seed",
        "none-seed", "negative-word", "float-word", "generator-seed", "none-lam", "string-lam",
        "huge-int-lam", "unprintable-int-lam"])
def test_sampled_phi_rejects_malformed_draws(lam, n_samples, seed):
    with pytest.raises(FockError, match="must be (an integer|>= )"):
        sampled_phi(lam, n_samples, seed)


def test_sampled_phi_is_read_only():
    phi = sampled_phi(0.1, 100, 3)
    with pytest.raises(ValueError, match="read-only"):
        phi[1] = 0.0


def test_sampled_phi_copies_a_list_seed():
    seed = [7, 0]
    first = sampled_phi(0.1, 100, seed)
    seed[1] = 1
    assert sampled_phi(0.1, 100, seed).tobytes() == sampled_phi_outer(0.1, 100, [7, 1]).tobytes()
    assert sampled_phi(0.1, 100, [7, 0]).tobytes() == first.tobytes()


def test_kraus_channel_rejects_non_finite_operators():
    with pytest.raises(FockError, match="non-finite"):
        KrausChannel(SPACE3, (np.full((SPACE3.dim, SPACE3.dim), math.nan),))
    for bad in (None, 5, np.eye(SPACE3.dim)):  # not a list or tuple of operators
        with pytest.raises(FockError, match="must be a list or tuple"):
            KrausChannel(SPACE3, bad)
    with pytest.raises(FockError, match="Kraus operator is not an array of numbers"):
        KrausChannel(SPACE3, ("x",))


# ---------------------------------------------------------------- CPTP properties

def _channel_zoo():
    return [
        ("amp-damp", SPACE3, KrausChannel(SPACE3, tuple(_damping_kraus(SPACE3, 1, 0.3)))),
        ("lossy-fredkin", SPACE3, lossy_fredkin_channel(SPACE3, 0, 1, 2, 0.2)),
        ("lossy-split", SPACE3, lossy_fredkin_channel(SPACE3, 0, 1, 2, 0.6, "split")),
        ("dephased", SPACE3, dephased_fredkin_channel(SPACE3, 0, 1, 2, 0.3)),
        ("unitary", SPACE3, KrausChannel(SPACE3, (fredkin_unitary(SPACE3, 0, 1, 2).matrix,))),
    ]


@pytest.mark.parametrize("name,space,chan", _channel_zoo(), ids=lambda v: v if isinstance(v, str) else "")
def test_channels_are_trace_preserving_and_positive(name, space, chan):
    total = sum(k.conj().T @ k for k in chan.kraus_ops)
    assert np.max(np.abs(total - np.eye(space.dim))) < 1e-10
    rng = np.random.default_rng(17)
    for _ in range(100):
        out = chan.apply(random_density(space, rng))
        # DensityOperator construction re-validates Hermiticity, trace, positivity
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-10


# ---------------------------------------------------------------- conversions

def test_lambda_from_physical():
    assert lambda_from_physical(0.0, 5.0) == 0.0
    intensity = 2.7
    assert lambda_from_physical(intensity / math.pi, intensity) == pytest.approx(1.0, abs=1e-15)
    assert lambda_from_physical(1e15, 1e16) == pytest.approx(math.pi / 10, abs=1e-15)
    with pytest.raises(FockError):
        lambda_from_physical(1.0, 0.0)
    with pytest.raises(FockError):
        lambda_from_physical(-1.0, 1.0)
    for omega, intensity in (("1", 1.0), (None, 1.0), (1j, 1.0), (True, 1.0), (1.0, True)):
        with pytest.raises(FockError):
            lambda_from_physical(omega, intensity)


def test_decibels():
    assert decibels(1.0) == pytest.approx(10 * math.log10(math.e))
    assert decibels(0.0) == 0.0


@pytest.mark.parametrize("call", [
    lambda: gaussian_phi(-1.0), lambda: gaussian_phi(math.nan), lambda: gaussian_phi(None),
    lambda: gaussian_phi(10**400),
    lambda: lossy_gate_output_101(-1.0), lambda: lossy_gate_output_101(math.inf),
    lambda: projective_ec_stack(FockSpace(5), np.zeros((1, 32, 32)), "x"),
    lambda: projective_ec_stack(FockSpace(5), np.zeros((1, 32, 32)), math.nan),
    lambda: decibels(None), lambda: decibels(-1.0), lambda: decibels(10**400),
    lambda: decibels(-10**5000),
    lambda: lossy_gate_stack(SPACE3, 0, 1, 2, [1.0], [0.1]),
    lambda: lossy_gate_stack(SPACE3, 0, 1, 2, (1, 2), 0.1),
    lambda: lossy_gate_stack(SPACE3, 0, 1, 2, (1, 2), np.array(0.1)),
    lambda: phase_average_stack(SPACE3, 0, 1, 2, np.array([[1.0, math.nan, 0.5]])),
    lambda: phase_average_stack(SPACE3, 0, 1, 2, gaussian_phi(0.1)),  # phi is (G, 3)
    lambda: phase_average_stack(SPACE3, 0, 1, 2, [[1, 0.5, 0.2], [1, 0.5]]),
    lambda: phase_average_stack(SPACE3, [0], 1, 2, gaussian_phi(0.1)[None]),  # unhashable mode
    lambda: lossy_gate_stack(SPACE3, [0], 1, 2, (1, 2), [0.1]),
], ids=["phi-negative", "phi-nan", "phi-none", "phi-huge-int", "101-negative", "101-inf",
        "ec-stack-str-n-max", "ec-stack-nan-n-max",
        "db-none", "db-negative", "db-huge-int", "db-unprintable-int", "stack-float-mode",
        "stack-scalar-gamma", "stack-0d-gamma", "stack-nan-phi", "stack-1d-phi",
        "stack-ragged-phi", "stack-list-mode", "loss-stack-list-mode"])
def test_entry_points_reject_bad_strengths_and_modes(call):
    with pytest.raises(FockError):
        call()
