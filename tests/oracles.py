"""Independent references for the noisy gates and the machine, used only by the tests.

``noisy_fredkin_sample`` builds one random-phase realization of the gate
operator by operator; ``dephased_fredkin_ghq`` integrates the Gaussian phase
average by Gauss-Hermite quadrature.  The package's analytic and Monte-Carlo
gates are checked against both; ``apply_stack`` applies a gate's stack map to
one density operator.  ``product_form_output`` runs the machine one
state at a time with every noisy gate as one product Kraus list, the
reference for the stacked fold of ``machine.run_many``; it places the noise
by ``MODELS``, the tests' own statement of each model.  ``sampled_phi_outer``
is the Monte-Carlo phase law as one (3, n) array of phasor powers z^k,
z = exp(i eps), the bit-for-bit reference for ``sampled_phi``'s two 1-D
means; ``sampled_phi_exponential`` is the same estimator with rows
exp(i k eps), which rounds phi(2) differently.
"""

import math

import numpy as np

from dualrail import (
    DensityOperator,
    FockError,
    FockSpace,
    LinearOperator,
    apply_unitary,
    beamsplitter_unitary,
    dephased_fredkin_channel,
    gate_modes,
    kerr_unitary,
    projective_ec_step,
    stages,
)
from dualrail.channels import StackMap, _damping_kraus, _gate_sandwich, phase_average_stack
from dualrail.fock import check_modes, check_strength, occupation_table
from dualrail.machine import INPUT, PROJECTION, SPACE

GHQ_NODES = 40  # Gauss-Hermite abscissas of the quadrature oracle
# The noise models as the paper places them, stated apart from ``machine.NOISE_MODELS``:
# model -> (noisy gate slots, 0 = first and 1 = second, and the modes each noisy gate
# damps for k1 = 0 and k1 = 1, None for a model without loss).  Plain loss damps the Kerr
# cell of the second gate, (b, e) for k1 = 0 and (b, c) for k1 = 1; balanced loss damps
# the rails a-d in both gates; dephasing hits both Kerr cells.
MODELS = {
    "none": ((), None),
    "loss": ((1,), ((1, 4), (1, 2))),
    "balanced-loss": ((0, 1), ((0, 1, 2, 3), (0, 1, 2, 3))),
    "dephasing": ((0, 1), None),
}


def apply_stack(gate: StackMap, rho: DensityOperator) -> DensityOperator:
    """A stack map applied to one density operator: a stack of height 1, validated."""
    return DensityOperator(rho.space, gate(rho.matrix[None])[0])


def noisy_fredkin_sample(space: FockSpace, m_a: int, m_b: int, m_c: int,
                         epsilon: float) -> LinearOperator:
    """One random-phase realization of the Fredkin gate.

    The Kerr cell imprints an extra phase exp[i eps (n_b + n_c)] on the modes
    passing through it, between the cross-phase interaction and the closing
    beamsplitter:  V(eps) = B^dag exp[i eps (n_b + n_c)] K B.  V(0) = F.
    """
    check_modes(space, m_a, m_b, m_c)
    if not math.isfinite(epsilon):
        raise FockError(f"epsilon must be finite, got {epsilon}")
    b = beamsplitter_unitary(space, m_a, m_b)
    k = kerr_unitary(space, m_b, m_c)
    table = occupation_table(space)
    n_pair = table[:, m_b] + table[:, m_c]
    phase = np.exp(1j * epsilon * n_pair)
    v = b.matrix.conj().T @ (phase[:, None] * (k.matrix @ b.matrix))
    return LinearOperator(space, v)


def dephased_fredkin_ghq(space: FockSpace, m_a: int, m_b: int, m_c: int,
                         lam: float) -> StackMap:
    """Gauss-Hermite quadrature oracle for the Gaussian phase average.

    Integrates V(eps) rho V(eps)^dag against the Normal(0, 2 lam) weight with
    GHQ_NODES abscissas, through the node-weighted mean for phi(k); a second,
    independent check on the analytic channel.  The mean is divided by its
    k = 0 entry, the sum of the weights, so phi(0) is exactly 1.
    """
    check_strength(lam, "lam")
    x, w = np.polynomial.hermite.hermgauss(GHQ_NODES)
    phi = np.exp(1j * np.outer(np.arange(3), 2.0 * math.sqrt(lam) * x)) @ w
    return phase_average_stack(space, m_a, m_b, m_c, (phi / phi[0])[None])


def _sampled_eps(lam: float, n_samples: int, seed) -> np.ndarray:
    """The Normal(0, 2 lam) phases ``sampled_phi`` draws."""
    return np.random.default_rng(seed).normal(0.0, abs(math.sqrt(2 * lam)), size=n_samples)


def sampled_phi_outer(lam: float, n_samples: int, seed) -> np.ndarray:
    """The empirical phi(k), k = 0, 1, 2, as the row means of z_j^k over a (3, n) array.

    z = exp(i eps) on the draw of ``sampled_phi``; the rows are ones, z and
    z * z.  phi(0) is the mean of n ones, which numpy's complex division
    need not round to exactly 1.
    """
    z = np.exp(1j * _sampled_eps(lam, n_samples, seed))
    return np.stack([np.ones_like(z), z, z * z]).mean(axis=1)


def sampled_phi_exponential(lam: float, n_samples: int, seed) -> np.ndarray:
    """The empirical phi(k) as the row means of exp(i k eps_j) over a (3, n) array.

    The same estimator as ``sampled_phi_outer`` with each power its own
    complex exponential: phi(0) and phi(1) hold the same bits, phi(2) rounds
    differently.
    """
    eps = _sampled_eps(lam, n_samples, seed)
    return np.exp(1j * np.outer(np.arange(3), eps)).mean(axis=1)


def fold_stages(config, gate):
    """The machine input folded over ``stages(config)``, one state at a time.

    Unitaries conjugate the state, the projection applies
    ``projective_ec_step``, and noisy gate slot s applies the map ``gate(s)``.
    """
    rho = INPUT.density()
    for stage in stages(config):
        if isinstance(stage, LinearOperator):
            rho = apply_unitary(rho, stage)
        elif stage == PROJECTION:
            rho = projective_ec_step(rho)[0]
        else:
            rho = gate(stage)(rho)
    return rho


def product_form_output(config) -> np.ndarray:
    """The machine output with each noisy gate as one product Kraus list.

    Lossy gates are B^dag D_m .. D_m' K B over the damped modes' Kraus pairs,
    dephased gates the eigen-Kraus form ``dephased_fredkin_channel``;
    ``stages`` holds the Fredkin unitary of each noise-free gate.
    """
    space = SPACE
    modes = gate_modes(config.k1)
    slots, damped = MODELS[config.noise_model]
    if damped is not None:
        kraus = [[kerr_unitary(space, *modes[1:]).matrix]]
        kraus += [_damping_kraus(space, m, config.noise.gamma) for m in damped[config.k1]]
        noisy = _gate_sandwich(space, *modes[:2], kraus)
    elif slots:
        noisy = dephased_fredkin_channel(space, *modes, config.noise.lam)
    return fold_stages(config, lambda slot: noisy.apply).matrix
