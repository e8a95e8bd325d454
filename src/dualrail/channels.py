"""Trace-preserving noise channels and the noisy Fredkin-gate superoperators.

Two noise families:

* amplitude damping (photon loss): per photon, survival amplitude
  exp(-gamma/2), population decay exp(-gamma), with the lost photon handed
  to an unobserved environment;
* Kerr dephasing: a random phase eps imprinted on everything passing
  through the Kerr cell, Gaussian with <exp(i k eps)> = exp(-k^2 lambda),
  which suppresses coherences between photon-number sectors of the cell.

Channels are explicit Kraus lists so they compose generically; the
dephasing map also has an exact element-wise suppression form, and both
representations agree to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fock import (
    KRAUS_COMPLETENESS_TOL,
    DensityOperator,
    FockError,
    FockSpace,
    LinearOperator,
    mode_operator,
    occupation_table,
)
from .gates import beamsplitter_unitary, kerr_unitary

LOSS_PLACEMENTS = ("before-kerr", "after-kerr", "split")
GHQ_NODES = 40  # Gauss-Hermite abscissas of the quadrature oracle


@dataclass(frozen=True)
class NoiseParams:
    """Noise strengths: gamma for loss, lam for dephasing (both in nats)."""

    gamma: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise FockError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (self.lam >= 0):  # lam = inf is the fully dephasing limit
            raise FockError(f"lam must be >= 0, got {self.lam}")


def decibels(value: float) -> float:
    """Convert a damping exponent in nats to dB: 10 * value * log10(e)."""
    return 10.0 * value * math.log10(math.e)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map given by a finite Kraus list."""

    space: FockSpace
    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        d = self.space.dim
        ops = []
        for k in self.kraus_ops:
            k = np.asarray(k, dtype=complex)
            if k.shape != (d, d):
                raise FockError(f"Kraus operator has shape {k.shape}, expected ({d}, {d})")
            ops.append(k)
        total = sum(k.conj().T @ k for k in ops)
        dev = np.max(np.abs(total - np.eye(d)))
        if dev > KRAUS_COMPLETENESS_TOL:
            raise FockError(f"sum K^dag K deviates from identity by {dev:.2e}")
        object.__setattr__(self, "kraus_ops", tuple(ops))

    def apply(self, rho: DensityOperator) -> DensityOperator:
        if rho.space != self.space:
            raise FockError("channel and state live on different spaces")
        out = np.zeros_like(rho.matrix)
        for k in self.kraus_ops:
            out = out + k @ rho.matrix @ k.conj().T
        return DensityOperator(self.space, out)


def unitary_channel(u: LinearOperator) -> KrausChannel:
    """Wrap a unitary as a single-Kraus channel."""
    return KrausChannel(u.space, (u.matrix,))


def compose(second: KrausChannel, first: KrausChannel) -> KrausChannel:
    """Channel applying ``first`` then ``second``; Kraus list is the product set."""
    if second.space != first.space:
        raise FockError("channels live on different spaces")
    ops = tuple(k2 @ k1 for k2 in second.kraus_ops for k1 in first.kraus_ops)
    return KrausChannel(first.space, ops)


def _damping_kraus(space: FockSpace, mode: int, gamma: float) -> list[np.ndarray]:
    """Kraus family for photon loss on one mode.

    The k-photon jump operator has amplitudes
    sqrt(C(n, k)) * exp(-gamma (n - k)/2) * (1 - exp(-gamma))^(k/2)
    from |n> to |n-k>; for cutoff 1 this is the familiar pair
    diag(1, e^(-gamma/2)) and sqrt(1 - e^(-gamma)) * lowering.
    """
    if not (math.isfinite(gamma) and gamma >= 0):
        raise FockError(f"gamma must be finite and >= 0, got {gamma}")
    surv = math.exp(-gamma)
    ops = []
    for k in range(space.cutoff + 1):
        jump = np.zeros((space.cutoff + 1,) * 2, dtype=complex)
        for n in range(k, space.cutoff + 1):
            amp = math.sqrt(math.comb(n, k)) * surv ** ((n - k) / 2) * (1 - surv) ** (k / 2)
            jump[n - k, n] = amp
        if np.any(jump != 0):
            ops.append(mode_operator(space, mode, jump))
    return ops


def amplitude_damping_channel(space: FockSpace, mode: int, gamma: float) -> KrausChannel:
    """Photon loss of strength gamma on a single mode."""
    return KrausChannel(space, tuple(_damping_kraus(space, mode, gamma)))


def _frame_conjugate(ops: Sequence[np.ndarray], remaining: np.ndarray) -> list[np.ndarray]:
    """Refer loss operators to the gate output frame.

    A loss event occurring before (part of) the cross-phase propagation is
    described by the jump operator commuted through the remaining Kerr
    unitary, L -> K_rem^dag L K_rem.  With this convention the loss commutes
    exactly with the phase accumulation, which is what makes the channel
    independent of where along the cell the damping is inserted.
    """
    return [remaining.conj().T @ op @ remaining for op in ops]


def _gate_sandwich(space: FockSpace, m_a: int, m_b: int,
                   stages: list[list[np.ndarray]]) -> KrausChannel:
    """B^dag (stages, applied in list order) B on the interferometer (m_a, m_b)."""
    b = beamsplitter_unitary(space, m_a, m_b).matrix
    ops = [b]
    for stage in stages:
        ops = [s @ o for s in stage for o in ops]
    ops = [b.conj().T @ o for o in ops]
    return KrausChannel(space, tuple(ops))


def lossy_fredkin_channel(space: FockSpace, m_a: int, m_b: int, m_c: int,
                          gamma: float, placement: str = "after-kerr") -> KrausChannel:
    """Fredkin gate with photon loss on the two Kerr-cell modes (m_b, m_c).

    ``placement`` selects where along the cell the loss acts: entirely after
    the cross-phase interaction, entirely before it, or split half/half.
    Loss operators are referred to the gate output frame (see
    ``_frame_conjugate``), so all three placements realize the identical
    channel; gamma is the total damping either way.
    """
    if placement not in LOSS_PLACEMENTS:
        raise FockError(f"placement must be one of {LOSS_PLACEMENTS}, got {placement!r}")
    if placement == "after-kerr":
        return balanced_lossy_fredkin_channel(space, m_a, m_b, m_c, (m_b, m_c), gamma)
    k = kerr_unitary(space, m_b, m_c).matrix
    if placement == "before-kerr":
        stages = [
            _frame_conjugate(_damping_kraus(space, m_b, gamma), k),
            _frame_conjugate(_damping_kraus(space, m_c, gamma), k),
            [k],
        ]
    else:  # split
        stages = [
            _frame_conjugate(_damping_kraus(space, m_b, gamma / 2), k),
            _frame_conjugate(_damping_kraus(space, m_c, gamma / 2), k),
            [k],
            _damping_kraus(space, m_b, gamma / 2),
            _damping_kraus(space, m_c, gamma / 2),
        ]
    return _gate_sandwich(space, m_a, m_b, stages)


def balanced_lossy_fredkin_channel(space: FockSpace, m_a: int, m_b: int, m_c: int,
                                   damped: Sequence[int], gamma: float) -> KrausChannel:
    """Fredkin gate with equal loss, after the Kerr cell, on every mode in ``damped``.

    The gate itself acts on (m_a, m_b, m_c) as usual.  Damping (m_b, m_c) is
    the plain lossy gate; damping the rail modes beyond the gate's own
    restores the interferometric symmetry that makes post-selected outcomes
    error-free.
    """
    if len(set(damped)) != len(damped):
        raise FockError(f"damped modes {damped} must be distinct")
    k = kerr_unitary(space, m_b, m_c).matrix
    stages = [[k]]
    for m in damped:
        stages.append(_damping_kraus(space, m, gamma))
    return _gate_sandwich(space, m_a, m_b, stages)


DensityMap = Callable[[DensityOperator], DensityOperator]


def _gaussian_phi(space: FockSpace, lam: float) -> np.ndarray:
    """phi(k) = <exp(i k eps)> = exp(-k^2 lam), k = 0 .. 2 cutoff; safe at lam = inf."""
    k = np.arange(1, 2 * space.cutoff + 1, dtype=float)
    with np.errstate(over="ignore"):  # a huge finite lam overflows to the lam = inf limit
        return np.concatenate(([1.0], np.exp(-k ** 2 * lam)))


def _sampled_phi(space: FockSpace, eps: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted mean of exp(i k eps_j) over the phases eps_j, k = 0 .. 2 cutoff.

    Divided by its k = 0 entry, the sum of the weights, so phi(0) is exactly
    1 and coherences within one cell photon-number sector pass unchanged.
    """
    k = np.arange(2 * space.cutoff + 1)
    phi = np.exp(1j * np.outer(k, eps)) @ weights
    return phi / phi[0]


def _phase_correlation(phi: np.ndarray, n: np.ndarray) -> np.ndarray:
    """C[i, j] = phi(n_i - n_j), reading phi(-k) as conj phi(k)."""
    d = n[:, None] - n[None, :]
    c = phi[np.abs(d)]
    return np.where(d < 0, c.conj(), c)


def _cell_photon_numbers(space: FockSpace, m_b: int, m_c: int) -> np.ndarray:
    """N = n_b + n_c, the photon number in the Kerr cell, per basis state."""
    table = occupation_table(space)
    return table[:, m_b] + table[:, m_c]


def _phase_average(space: FockSpace, m_a: int, m_b: int, m_c: int,
                   phi: np.ndarray) -> DensityMap:
    """The phase-averaged gate rho -> E[V(eps) rho V(eps)^dag] for <exp(i k eps)> = phi[k].

    V(eps) = B^dag exp(i eps N) K B, so the random phase multiplies the
    coherence between cell photon numbers N and N' by exp(i eps (N - N'))
    and the average is B^dag [(K B rho B^dag K^dag) o C] B with
    C[i, j] = phi(N_i - N_j).  The phase law enters only through phi.
    """
    b = beamsplitter_unitary(space, m_a, m_b).matrix
    kb = kerr_unitary(space, m_b, m_c).matrix @ b
    corr = _phase_correlation(phi, _cell_photon_numbers(space, m_b, m_c))

    def apply(rho: DensityOperator) -> DensityOperator:
        mid = kb @ rho.matrix @ kb.conj().T
        return DensityOperator(space, b.conj().T @ (mid * corr) @ b)

    return apply


def dephased_fredkin_apply(space: FockSpace, m_a: int, m_b: int, m_c: int,
                           lam: float, rho: DensityOperator) -> DensityOperator:
    """Dephased Fredkin gate in element-wise suppression form.

    Applies B and K, multiplies each coherence between cell photon-number
    sectors N and N' by exp(-(N - N')^2 lam), then applies B^dag.  Exact
    Gaussian average of V(eps) rho V(eps)^dag; lam = inf keeps only the
    block-diagonal part.
    """
    if not lam >= 0:
        raise FockError(f"lam must be >= 0, got {lam}")
    return _phase_average(space, m_a, m_b, m_c, _gaussian_phi(space, lam))(rho)


def dephased_fredkin_channel(space: FockSpace, m_a: int, m_b: int, m_c: int,
                             lam: float) -> KrausChannel:
    """Kraus form of the dephased Fredkin gate.

    The suppression map acts only through the cell photon number
    N in {0, .., 2 cutoff}, so diagonalizing the (positive semidefinite)
    correlation matrix C[N, N'] = exp(-(N - N')^2 lam) yields one Kraus
    operator per nonzero eigenvalue, each of the form
    B^dag diag(w) K B.  Agrees with ``dephased_fredkin_apply`` to 1e-12.
    """
    if not lam >= 0:
        raise FockError(f"lam must be >= 0, got {lam}")
    phi = _gaussian_phi(space, lam)
    evals, evecs = np.linalg.eigh(_phase_correlation(phi, np.arange(len(phi))))
    n = _cell_photon_numbers(space, m_b, m_c)
    diagonals = [np.diag(math.sqrt(w) * v[n]) for w, v in zip(evals, evecs.T) if w >= 1e-14]
    return _gate_sandwich(space, m_a, m_b, [[kerr_unitary(space, m_b, m_c).matrix], diagonals])


def dephased_fredkin_mc(space: FockSpace, m_a: int, m_b: int, m_c: int, lam: float,
                        n_samples: int, seed: int | Sequence[int]) -> DensityMap:
    """Monte-Carlo oracle for the dephased gate.

    Draws eps_i ~ Normal(0, 2 lam), so E[exp(i eps)] = exp(-lam), and returns
    the map rho -> (1/n) sum_i V(eps_i) rho V(eps_i)^dag.  The sum is
    evaluated through the empirical characteristic function
    phi(k) = (1/n) sum_i exp(i k eps_i), k = 0 .. 2 cutoff, which is the
    literal sample mean rewritten.  ``seed`` is an int or a sequence of ints,
    as ``numpy.random.default_rng`` accepts (the machine passes
    ``[mc_seed, gate]``); results are bit-reproducible for a fixed seed.
    Entrywise standard error scales as 1/sqrt(n_samples).
    """
    if n_samples < 1:
        raise FockError(f"n_samples must be >= 1, got {n_samples}")
    if not (math.isfinite(2 * lam) and lam >= 0):  # the phase variance is 2 lam
        raise FockError(f"lam must be >= 0 with 2 lam finite, got {lam}")
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, math.sqrt(2 * lam), size=n_samples)
    return _phase_average(space, m_a, m_b, m_c, _sampled_phi(space, eps, np.ones(n_samples)))


def dephased_fredkin_ghq(space: FockSpace, m_a: int, m_b: int, m_c: int,
                         lam: float) -> DensityMap:
    """Gauss-Hermite quadrature oracle for the Gaussian phase average.

    Integrates V(eps) rho V(eps)^dag against the Normal(0, 2 lam) weight with
    GHQ_NODES abscissas, through the node sum for phi(k); a second,
    independent check on the analytic channel.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise FockError(f"lam must be finite and >= 0, got {lam}")
    x, w = np.polynomial.hermite.hermgauss(GHQ_NODES)
    return _phase_average(space, m_a, m_b, m_c, _sampled_phi(space, 2.0 * math.sqrt(lam) * x, w))


def lambda_from_physical(omega: float, intensity: float) -> float:
    """Dephasing strength for a pi cross-phase shift: lam = pi * omega / intensity.

    ``omega`` is the medium resonant frequency [1/s]; ``intensity`` the pulse
    intensity [photons/s].
    """
    if not (math.isfinite(omega) and math.isfinite(intensity)):
        raise FockError(f"omega and intensity must be finite, got {omega} and {intensity}")
    if intensity <= 0:
        raise FockError(f"intensity must be positive, got {intensity}")
    if omega < 0:
        raise FockError(f"omega must be >= 0, got {omega}")
    return math.pi * omega / intensity
