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
map of a (G, dim, dim) stack, one noise strength per point
(``lossy_gate_stack``, ``phase_average_stack``).  Product Kraus lists remain
only in ``lossy_fredkin_channel`` (the loss placements) and
``dephased_fredkin_channel`` (the phase average's independent reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np

from .fock import (
    KRAUS_COMPLETENESS_TOL,
    DensityOperator,
    FockError,
    FockSpace,
    annihilation_operator,
    check_finite,
    check_modes,
    occupation_table,
)
from .gates import beamsplitter_unitary, kerr_unitary

LOSS_PLACEMENTS = ("before-kerr", "after-kerr", "split")


def _real(value) -> bool:
    """Whether a noise strength is a real number: a bool, a string or a complex is not."""
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class NoiseParams:
    """Noise strengths: gamma for loss, lam for dephasing (both in nats)."""

    gamma: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if not (_real(self.gamma) and math.isfinite(self.gamma) and self.gamma >= 0):
            raise FockError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if not (_real(self.lam) and self.lam >= 0):  # lam = inf is the fully dephasing limit
            raise FockError(f"lam must be >= 0, got {self.lam!r}")


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
            check_finite(k, "Kraus operator")
            ops.append(k)
        total = sum(k.conj().T @ k for k in ops)
        dev = np.max(np.abs(total - np.eye(d)))
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
    NoiseParams(gamma=gamma)  # raises FockError unless gamma is finite and >= 0
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

    ``placement`` selects where along the cell the loss acts: entirely after
    the cross-phase interaction, entirely before it, or split half/half.
    Loss operators are referred to the gate output frame (see
    ``_frame_conjugate``), so all three placements realize the identical
    channel; gamma is the total damping either way.
    """
    check_modes(space, m_a, m_b, m_c)
    if placement not in LOSS_PLACEMENTS:
        raise FockError(f"placement must be one of {LOSS_PLACEMENTS}, got {placement!r}")
    k = kerr_unitary(space, m_b, m_c).matrix
    if placement == "after-kerr":
        stages = [[k], *(_damping_kraus(space, m, gamma) for m in (m_b, m_c))]
    elif placement == "before-kerr":
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


# A map of a (G, dim, dim) stack of matrices, one grid point per leading index.
StackMap = Callable[[np.ndarray], np.ndarray]


def _cell_gate(space: FockSpace, m_a: int, m_b: int, m_c: int, noise: StackMap) -> StackMap:
    """The noisy Fredkin gate rho -> B^dag noise(K B rho B^dag K^dag) B on a stack.

    ``noise`` maps the stack in the Kerr-cell frame, between the cross-phase
    interaction and the closing beamsplitter.  The map does not validate what
    it returns: ``machine.run_many`` does after every stage.
    """
    check_modes(space, m_a, m_b, m_c)
    b = beamsplitter_unitary(space, m_a, m_b).matrix
    kb = kerr_unitary(space, m_b, m_c).matrix @ b
    return lambda stack: b.conj().T @ noise(kb @ stack @ kb.conj().T) @ b


def _damping(space: FockSpace, damped: Sequence[int], gamma: Sequence[float]) -> StackMap:
    """Photon loss of strength gamma[g] on point g of a stack, mode by mode in ``damped`` order.

    Mode m's Kraus pair (``_damping_kraus``) acts without a matrix product:
    the no-jump diag(s ** n_m), s = e^(-gamma/2), scales the rows and then
    the columns with n_m = 1, and the jump sqrt(1 - e^-gamma) a_m gathers the
    block of rows and columns with n_m = 1 into the block with n_m = 0, both
    row sets read off the occupation table as ``annihilation_operator`` does.
    Every product is taken in the Kraus sum's order, so the bits agree.
    """
    check_modes(space, *damped)
    for g in gamma:
        NoiseParams(gamma=g)  # raises FockError unless gamma is finite and >= 0
    surv = [math.exp(-g) for g in gamma]
    keep = np.array([s ** 0.5 for s in surv])[:, None]
    jump = np.array([(1 - s) ** 0.5 for s in surv])[:, None, None]
    steps = [(np.where(n == 1, keep, 1.0), np.flatnonzero(n == 0), np.flatnonzero(n == 1))
             for n in occupation_table(space)[:, list(damped)].T]

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
    k = np.arange(1, 3, dtype=float)
    with np.errstate(over="ignore"):  # a huge finite lam overflows to the lam = inf limit
        return np.concatenate(([1.0], np.exp(-k ** 2 * lam)))


# Each draw is three numbers.  A stack of four runs draws eight, one per point and
# dephased slot, so the k1 = 1 and k1 = 0 stacks of one grid and seed both fit.
MC_DRAWS_KEPT = 16


def _integer(value, what: str, least: int) -> int:
    """``value`` as a Python int >= ``least``; a bool, a float or a non-number raises FockError."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise FockError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise FockError(f"{what} must be >= {least}, got {value}")
    return int(value)


@lru_cache(maxsize=MC_DRAWS_KEPT)
def _sampled_phi(lam: float, n_samples: int, seed: int | tuple[int, ...]) -> np.ndarray:
    """``sampled_phi`` on checked, hashable arguments, drawn once per key and read-only.

    phi(k) for k = 1, 2 is the mean of exp(i k eps) over one 1-D array, the
    same ufuncs on the same values as each row of the (3, n) outer form, so
    the bits agree; phi(0) is set, not summed.
    """
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, abs(math.sqrt(2 * lam)), size=n_samples)  # numpy rejects scale -0.0
    phi = np.array([1.0, *(np.exp(1j * (k * eps)).mean() for k in (1, 2))])
    phi.flags.writeable = False
    return phi


def sampled_phi(lam: float, n_samples: int, seed: int | Sequence[int]) -> np.ndarray:
    """The empirical phi(k) = (1/n) sum_i exp(i k eps_i), k = 0, 1, 2, as a read-only array.

    Draws eps_i ~ Normal(0, 2 lam), so E[exp(i eps)] = exp(-lam).  ``seed``
    is an int >= 0 or a list or tuple of them, a seed
    ``numpy.random.default_rng`` accepts; phi is bit-reproducible for a fixed
    seed, and phi(0) is exactly 1.  The last MC_DRAWS_KEPT draws are kept,
    keyed on (lam, n_samples, seed), so the gates of runs that share a seed
    draw once.
    """
    n_samples = _integer(n_samples, "n_samples", 1)
    if not (_real(lam) and math.isfinite(2 * lam) and lam >= 0):  # the phase variance is 2 lam
        raise FockError(f"lam must be >= 0 with 2 lam finite, got {lam!r}")
    if isinstance(seed, (list, tuple)):
        key = tuple(_integer(word, "seed entries", 0) for word in seed)
    else:
        key = _integer(seed, "seed", 0)
    return _sampled_phi(float(lam), n_samples, key)


def _phase_correlation(phi: np.ndarray, n: np.ndarray) -> np.ndarray:
    """C[..., i, j] = phi[..., n_i - n_j], reading phi(-k) as conj phi(k)."""
    d = n[:, None] - n[None, :]
    c = phi[..., np.abs(d)]
    return np.where(d < 0, c.conj(), c)


def _cell_photon_numbers(space: FockSpace, m_b: int, m_c: int) -> np.ndarray:
    """N = n_b + n_c, the photon number in the Kerr cell, per basis state."""
    check_modes(space, m_b, m_c)
    table = occupation_table(space)
    return table[:, m_b] + table[:, m_c]


def phase_average_stack(space: FockSpace, m_a: int, m_b: int, m_c: int,
                        phi: np.ndarray) -> StackMap:
    """The phase-averaged gate rho -> E[V(eps) rho V(eps)^dag] on a stack.

    Point g's phase law has <exp(i k eps)> = phi[g, k].  V(eps) = B^dag
    exp(i eps N) K B, so the random phase multiplies the coherence between
    cell photon numbers N and N' by exp(i eps (N - N')): the cell-frame noise
    is the element-wise product with C[i, j] = phi(N_i - N_j).  The phase law
    enters only through phi.
    """
    corr = _phase_correlation(phi, _cell_photon_numbers(space, m_b, m_c))
    return _cell_gate(space, m_a, m_b, m_c, lambda mid: mid * corr)


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
    check_modes(space, m_a, m_b, m_c)
    NoiseParams(lam=lam)  # raises FockError unless lam >= 0 (inf allowed)
    phi = gaussian_phi(lam)
    evals, evecs = np.linalg.eigh(_phase_correlation(phi, np.arange(len(phi))))
    n = _cell_photon_numbers(space, m_b, m_c)
    diagonals = [np.diag(math.sqrt(w) * v[n]) for w, v in zip(evals, evecs.T) if w >= 1e-14]
    return _gate_sandwich(space, m_a, m_b, [[kerr_unitary(space, m_b, m_c).matrix], diagonals])


def lambda_from_physical(omega: float, intensity: float) -> float:
    """Dephasing strength for a pi cross-phase shift: lam = pi * omega / intensity.

    ``omega`` is the medium resonant frequency [1/s]; ``intensity`` the pulse
    intensity [photons/s]; each must be a real number, not a bool.
    """
    if not all(_real(v) and math.isfinite(v) for v in (omega, intensity)):
        raise FockError(f"omega and intensity must be finite, got {omega!r} and {intensity!r}")
    if intensity <= 0:
        raise FockError(f"intensity must be positive, got {intensity}")
    if omega < 0:
        raise FockError(f"omega must be >= 0, got {omega}")
    return math.pi * omega / intensity
