"""Trace-preserving noise channels and the noisy Fredkin-gate superoperators.

Two noise families:

* amplitude damping (photon loss): per photon, survival amplitude
  exp(-gamma/2), population decay exp(-gamma), with the lost photon handed
  to an unobserved environment;
* Kerr dephasing: a random phase eps imprinted on everything passing
  through the Kerr cell, Gaussian with <exp(i k eps)> = exp(-k^2 lambda),
  which suppresses coherences between photon-number sectors of the cell.

Every noisy gate the machine runs is B^dag N(K B rho B^dag K^dag) B, the
noise N acting in the Kerr-cell frame: loss damps the listed modes one after
another, dephasing multiplies by the phase correlation C.  Its one form is a
map of a stack, one noise strength per point, over every basis state
(``lossy_gate_stack``, ``phase_average_stack``) or, in the machine's fold,
over those with at most n photons.  Product Kraus lists remain only in
``lossy_fredkin_channel`` (each loss placement a share of gamma before the
cross-phase) and ``dephased_fredkin_channel`` (the phase average's reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .fock import (
    KRAUS_COMPLETENESS_TOL,
    DensityOperator,
    FockError,
    FockSpace,
    annihilation_operator,
    check_array,
    check_integer,
    check_modes,
    check_strength,
    occupation_table,
    photon_basis,
)
from .gates import beamsplitter_unitary, kerr_unitary

# Loss placement -> the share of gamma taken before the cross-phase, in ``lossy-gate`` order.
LOSS_PLACEMENTS = {"after-kerr": 0.0, "before-kerr": 1.0, "split": 0.5}


@dataclass(frozen=True)
class NoiseParams:
    """Noise strengths: gamma for loss, lam for dephasing (both in nats)."""

    gamma: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        check_strength(self.gamma, "gamma")
        check_strength(self.lam, "lam", finite=False)  # lam = inf is the fully dephasing limit


def decibels(value: float) -> float:
    """Convert a damping exponent in nats to dB: 10 * value * log10(e)."""
    check_strength(value, "damping exponent", finite=False)
    return 10.0 * value * math.log10(math.e)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map given by a finite Kraus list."""

    space: FockSpace
    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not isinstance(self.kraus_ops, (list, tuple)):
            raise FockError("Kraus operators must be a list or tuple of arrays")
        ops = [check_array(k, (self.space.dim,) * 2, "Kraus operator") for k in self.kraus_ops]
        total = sum(k.conj().T @ k for k in ops)
        dev = np.max(np.abs(total - np.eye(self.space.dim)))
        if dev > KRAUS_COMPLETENESS_TOL:
            raise FockError(f"sum K^dag K deviates from identity by {dev:.2e}")
        object.__setattr__(self, "kraus_ops", tuple(ops))

    def apply(self, rho: DensityOperator) -> DensityOperator:
        if rho.space != self.space:
            raise FockError("channel and state live on different spaces")
        m = rho.matrix
        return DensityOperator(self.space, sum(k @ m @ k.conj().T for k in self.kraus_ops))


def _damping_kraus(space: FockSpace, mode: int, gamma: float) -> list[np.ndarray]:
    """Kraus pair for photon loss on one mode.

    The no-jump operator diag(e^(-gamma n_m / 2)), read off the occupation
    column of the mode, and the jump sqrt(1 - e^(-gamma)) * lowering; the
    jump vanishes at gamma = 0 and is then left out.
    """
    check_strength(gamma, "gamma")
    check_modes(space, mode)
    surv = math.exp(-gamma)
    ops = [np.diag((surv ** 0.5) ** occupation_table(space)[:, mode]).astype(complex)]
    if surv < 1:
        ops.append((1 - surv) ** 0.5 * annihilation_operator(space, mode))
    return ops


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
    """Fredkin gate with photon loss on the two Kerr-cell modes (m_b, m_c), as a Kraus list.

    ``placement`` names the share of gamma that damps m_b and m_c before the
    cross-phase (``LOSS_PLACEMENTS``): none, all, or half; the rest damps them
    after it.  Loss before it is referred to the gate output frame (see
    ``_frame_conjugate``), so all three placements realize the identical
    channel; gamma is the total damping either way.
    """
    check_modes(space, m_a, m_b, m_c)
    check_strength(gamma, "gamma")
    if placement not in LOSS_PLACEMENTS:
        raise FockError(f"placement must be one of {tuple(LOSS_PLACEMENTS)}, got {placement!r}")
    share, k = LOSS_PLACEMENTS[placement], kerr_unitary(space, m_b, m_c).matrix
    before = [_frame_conjugate(_damping_kraus(space, m, gamma * share), k)
              for m in (m_b, m_c) if share > 0]
    after = [_damping_kraus(space, m, gamma * (1 - share)) for m in (m_b, m_c) if share < 1]
    return _gate_sandwich(space, m_a, m_b, [*before, [k], *after])


# A map of a (G, dim, dim) stack of matrices, one grid point per leading index.
StackMap = Callable[[np.ndarray], np.ndarray]


def _cell_frame(space: FockSpace, m_a: int, m_b: int, m_c: int, n_max: float) -> tuple:
    """B, K B and the cell photon numbers n_b + n_c, cut once to ``photon_basis(space, n_max)``."""
    check_modes(space, m_a, m_b, m_c)  # before the cache, which needs hashable modes
    return _cut_cell_frame(space, m_a, m_b, m_c, n_max)


@lru_cache(maxsize=None)
def _cut_cell_frame(space: FockSpace, m_a: int, m_b: int, m_c: int, n_max: float) -> tuple:
    keep, table = photon_basis(space, n_max), occupation_table(space)
    b = beamsplitter_unitary(space, m_a, m_b).matrix
    kb = kerr_unitary(space, m_b, m_c).matrix @ b
    return b[np.ix_(keep, keep)], kb[np.ix_(keep, keep)], table[keep, m_b] + table[keep, m_c]


def _cell_gate(space: FockSpace, m_a: int, m_b: int, m_c: int, noise: StackMap,
               n_max: float = math.inf) -> StackMap:
    """The noisy Fredkin gate rho -> B^dag noise(K B rho B^dag K^dag) B on a stack.

    The stack holds the rows and columns of ``photon_basis(space, n_max)``, all
    of them by default.  ``noise`` maps it in the Kerr-cell frame, between the
    cross-phase interaction and the closing beamsplitter.  The map does not
    validate what it returns: ``machine.run_many`` checks each noisy gate's output.
    """
    b, kb, _ = _cell_frame(space, m_a, m_b, m_c, n_max)
    return lambda stack: b.conj().T @ noise(kb @ stack @ kb.conj().T) @ b


@lru_cache(maxsize=None)
def _lowering(space: FockSpace, mode: int, n_max: float) -> tuple:
    """n_mode and the (lowered, raised) position pairs of a_mode, cut to ``photon_basis``."""
    keep = photon_basis(space, n_max)
    pairs = np.nonzero(annihilation_operator(space, mode)[np.ix_(keep, keep)])
    return occupation_table(space)[keep, mode], *pairs


def _damping(space: FockSpace, damped: Sequence[int], gamma: Sequence[float],
             n_max: float = math.inf) -> StackMap:
    """Photon loss of strength gamma[g] on point g of a stack, mode by mode in ``damped`` order.

    Mode m's Kraus pair (``_damping_kraus``) acts without a matrix product on
    the stack of ``photon_basis(space, n_max)``: the no-jump diag(s ** n_m),
    s = e^(-gamma/2), scales the rows and columns with n_m = 1, and the jump
    sqrt(1 - e^-gamma) a_m gathers their block into that of their lowered
    states, which hold fewer photons and so stay in the basis (``_lowering``).
    Every product is taken in the Kraus sum's order, so the bits agree.
    """
    check_modes(space, *damped)
    if not isinstance(gamma, (list, tuple)) and np.ndim(gamma) != 1:  # or a 1-D array
        raise FockError(f"gamma must be a sequence of strengths, got type {type(gamma).__name__}")
    for g in gamma:
        check_strength(g, "gamma")
    surv = [math.exp(-g) for g in gamma]
    keep = np.array([s ** 0.5 for s in surv])[:, None]
    jump = np.array([(1 - s) ** 0.5 for s in surv])[:, None, None]
    steps = [(np.where(n == 1, keep, 1.0), zero, one)
             for n, zero, one in (_lowering(space, m, n_max) for m in damped)]

    def damp(mid: np.ndarray) -> np.ndarray:
        for scale, zero, one in steps:
            out = scale[:, :, None] * mid * scale[:, None, :]
            out[:, zero[:, None], zero] += jump * mid[:, one[:, None], one] * jump
            mid = out
        return mid

    return damp


def lossy_gate_stack(space: FockSpace, m_a: int, m_b: int, m_c: int,
                     damped: Sequence[int], gamma: Sequence[float]) -> StackMap:
    """The Fredkin gate on a stack with loss gamma[g] on point g, on each mode in ``damped``."""
    return _cell_gate(space, m_a, m_b, m_c, _damping(space, damped, gamma))


def gaussian_phi(lam: float) -> np.ndarray:
    """phi(k) = <exp(i k eps)> = exp(-k^2 lam), k = 0, 1, 2; safe at lam = inf."""
    check_strength(lam, "lam", finite=False)
    return _gaussian_phis([lam])[0]


def _gaussian_phis(lam: Sequence[float]) -> np.ndarray:
    """``gaussian_phi`` of each checked lam[g], as the rows of one (G, 3) array."""
    with np.errstate(over="ignore"):  # a huge finite lam overflows to the lam = inf limit
        tail = np.exp(-np.arange(1.0, 3.0) ** 2 * np.array(lam, dtype=float)[:, None])
    return np.hstack((np.ones((len(tail), 1)), tail))


# ``run`` draws one phi per dephased slot, so the k1 = 1 and k1 = 0 runs of one lambda and seed
# share both draws; ``cli.cmd_mc_validate`` draws directly.  A draw is three numbers.
MC_DRAWS_KEPT = 16


@lru_cache(maxsize=MC_DRAWS_KEPT)
def _sampled_phi(lam: float, n_samples: int, seed: int | tuple[int, ...]) -> np.ndarray:
    """``sampled_phi`` on checked, hashable arguments, drawn once per key and read-only.

    One phasor z = exp(i eps) per sample: phi(1) is the mean of z and phi(2)
    the mean of z * z, the same ufuncs on the same values as the rows of a
    (3, n) array of ones, z and z * z, so the bits agree; phi(0) is set.
    """
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, abs(math.sqrt(2 * lam)), size=n_samples)  # numpy rejects scale -0.0
    z = np.exp(1j * eps)
    phi = np.array([1.0, z.mean(), (z * z).mean()])
    phi.flags.writeable = False
    return phi


def sampled_phi(lam: float, n_samples: int, seed: int | Sequence[int]) -> np.ndarray:
    """The empirical phi(k) = (1/n) sum_i z_i^k, z_i = exp(i eps_i), k = 0, 1, 2, read-only.

    Draws eps_i ~ Normal(0, 2 lam), so E[exp(i eps)] = exp(-lam).  phi(2)
    squares each phasor: the mean of exp(2 i eps_i), rounded differently.
    ``seed`` is an int >= 0 or a list or tuple of them, a seed
    ``numpy.random.default_rng`` accepts; phi is bit-reproducible for a fixed
    seed, and phi(0) is exactly 1.  The last MC_DRAWS_KEPT draws are kept,
    keyed on (lam, n_samples, seed), so the gates of runs that share a seed
    draw once.
    """
    n_samples = check_integer(n_samples, "n_samples", 1)
    check_strength(lam, "lam", finite=False)
    if not math.isfinite(2 * lam):  # the phase variance is 2 lam
        raise FockError(f"lam must be >= 0 with 2 lam finite, got {lam!r}")
    if isinstance(seed, (list, tuple)):
        key = tuple(check_integer(word, "seed entries", 0) for word in seed)
    else:
        key = check_integer(seed, "seed", 0)
    return _sampled_phi(float(lam), n_samples, key)


def _phase_correlation(phi: np.ndarray, n: np.ndarray) -> np.ndarray:
    """C[..., i, j] = phi[..., n_i - n_j], reading phi(-k) as conj phi(k)."""
    d = n[:, None] - n[None, :]
    c = phi[..., np.abs(d)]
    return np.where(d < 0, c.conj(), c)


def _phase_mask(space: FockSpace, m_a: int, m_b: int, m_c: int, phi: np.ndarray,
                n_max: float = math.inf) -> StackMap:
    """Cell-frame phase noise on ``photon_basis``: the product with C[i, j] = phi(N_i - N_j)."""
    corr = _phase_correlation(check_array(phi, (None, 3), "phi"),
                              _cell_frame(space, m_a, m_b, m_c, n_max)[2])
    return lambda mid: mid * corr


def phase_average_stack(space: FockSpace, m_a: int, m_b: int, m_c: int,
                        phi: np.ndarray) -> StackMap:
    """The phase-averaged gate rho -> E[V(eps) rho V(eps)^dag] on a stack.

    Point g's phase law has <exp(i k eps)> = phi[g, k], phi finite with shape
    (G, 3).  V(eps) = B^dag exp(i eps N) K B, so the random phase multiplies
    the coherence between cell photon numbers N and N' by exp(i eps (N - N')):
    the cell-frame noise is the element-wise product with C[i, j] =
    phi(N_i - N_j).  The phase law enters only through phi.
    """
    return _cell_gate(space, m_a, m_b, m_c, _phase_mask(space, m_a, m_b, m_c, phi))


def dephased_fredkin_channel(space: FockSpace, m_a: int, m_b: int, m_c: int,
                             lam: float) -> KrausChannel:
    """Kraus form of the dephased Fredkin gate.

    The suppression map acts only through the cell photon number
    N in {0, 1, 2}, so diagonalizing the (positive semidefinite)
    correlation matrix C[N, N'] = exp(-(N - N')^2 lam) yields one Kraus
    operator per nonzero eigenvalue, each of the form
    B^dag diag(w) K B.  Agrees with ``phase_average_stack`` at
    ``gaussian_phi(lam)`` to 1e-12.
    """
    evals, evecs = np.linalg.eigh(_phase_correlation(gaussian_phi(lam), np.arange(3)))
    b, kb, n = _cell_frame(space, m_a, m_b, m_c, math.inf)
    return KrausChannel(space, tuple(b.conj().T @ (np.diag(math.sqrt(w) * v[n]) @ kb)
                                     for w, v in zip(evals, evecs.T) if w >= 1e-14))


def lambda_from_physical(omega: float, intensity: float) -> float:
    """Dephasing strength for a pi cross-phase shift: lam = pi * omega / intensity.

    ``omega`` is the medium resonant frequency [1/s]; ``intensity`` the pulse
    intensity [photons/s]; each must be a finite strength, and the intensity nonzero.
    """
    check_strength(omega, "omega")
    check_strength(intensity, "intensity")
    if intensity == 0:
        raise FockError(f"intensity must be positive, got {intensity}")
    return math.pi * omega / intensity
