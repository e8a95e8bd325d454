"""Independent references for the dephased Fredkin gate, used only by the tests.

``noisy_fredkin_sample`` builds one random-phase realization of the gate
operator by operator; ``dephased_fredkin_ghq`` integrates the Gaussian phase
average by Gauss-Hermite quadrature.  The package's analytic and Monte-Carlo
gates are checked against both.
"""

import math

import numpy as np

from dualrail import FockError, FockSpace, LinearOperator, beamsplitter_unitary, kerr_unitary
from dualrail.channels import DensityMap, _phase_average
from dualrail.fock import check_modes, occupation_table

GHQ_NODES = 40  # Gauss-Hermite abscissas of the quadrature oracle


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
                         lam: float) -> DensityMap:
    """Gauss-Hermite quadrature oracle for the Gaussian phase average.

    Integrates V(eps) rho V(eps)^dag against the Normal(0, 2 lam) weight with
    GHQ_NODES abscissas, through the node-weighted mean for phi(k); a second,
    independent check on the analytic channel.  The mean is divided by its
    k = 0 entry, the sum of the weights, so phi(0) is exactly 1.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise FockError(f"lam must be finite and >= 0, got {lam}")
    x, w = np.polynomial.hermite.hermgauss(GHQ_NODES)
    phi = np.exp(1j * np.outer(np.arange(3), 2.0 * math.sqrt(lam) * x)) @ w
    return _phase_average(space, m_a, m_b, m_c, phi / phi[0])
