"""Optical gate unitaries: beamsplitter, Kerr cross-phase, phase shift, Fredkin.

All constructors return operators on the full space (identity on untouched
modes) so they compose freely; nothing acts in place.  Everything returned
is immutable, so the beamsplitter (the only constructor that pays for an
eigendecomposition) is memoized.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fock import (
    FockError,
    FockSpace,
    LinearOperator,
    mode_operator,
    occupation_table,
)


def annihilation_operator(space: FockSpace, mode: int) -> np.ndarray:
    """Truncated annihilation operator for one mode, embedded in the full space."""
    lowering = np.diag(np.sqrt(np.arange(1, space.cutoff + 1)), 1).astype(complex)
    return mode_operator(space, mode, lowering)


def number_operator_diagonal(space: FockSpace, mode: int) -> np.ndarray:
    """Diagonal of the photon-number operator for one mode."""
    return occupation_table(space)[:, mode].astype(float)


def _check_distinct(space: FockSpace, *modes: int):
    if len(set(modes)) != len(modes):
        raise FockError(f"modes {modes} must be distinct")
    for m in modes:
        if not 0 <= m < space.n_modes:
            raise FockError(f"mode {m} outside [0, {space.n_modes})")


@lru_cache(maxsize=None)
def beamsplitter_unitary(space: FockSpace, mode_i: int, mode_j: int,
                         theta: float = math.pi / 4) -> LinearOperator:
    """50/50 beamsplitter B = exp[theta (a_i^dag a_j - a_j^dag a_i)] at theta = pi/4.

    Orientation: B|01> = (|01> + |10>)/sqrt(2) and B|10> = (|10> - |01>)/sqrt(2)
    on the two coupled modes.  Photon number in the pair is conserved, but the
    action on states with more total photons than ``cutoff`` allows per mode is
    truncated; use cutoff >= total pair occupation for exact two-photon physics.
    """
    _check_distinct(space, mode_i, mode_j)
    if not math.isfinite(theta):
        raise FockError(f"theta must be finite, got {theta}")
    ai = annihilation_operator(space, mode_i)
    aj = annihilation_operator(space, mode_j)
    gen = theta * (ai.conj().T @ aj - aj.conj().T @ ai)
    # gen is anti-Hermitian, so exp(gen) = V exp(-i w) V^dag from the eigenpairs of i gen
    w, v = np.linalg.eigh(1j * gen)
    return LinearOperator(space, (v * np.exp(-1j * w)) @ v.conj().T, unitary=True)


def kerr_unitary(space: FockSpace, mode_i: int, mode_j: int,
                 chi: float = math.pi) -> LinearOperator:
    """Cross-phase modulation K = exp[i chi n_i n_j]; chi = pi gives the sign flip."""
    _check_distinct(space, mode_i, mode_j)
    ni = number_operator_diagonal(space, mode_i)
    nj = number_operator_diagonal(space, mode_j)
    return LinearOperator(space, np.diag(np.exp(1j * chi * ni * nj)), unitary=True)


def phase_shift_unitary(space: FockSpace, mode: int, phi: float) -> LinearOperator:
    """Single-mode phase shift exp[i phi n_mode]."""
    if not 0 <= mode < space.n_modes:
        raise FockError(f"mode {mode} outside [0, {space.n_modes})")
    n = number_operator_diagonal(space, mode)
    return LinearOperator(space, np.diag(np.exp(1j * phi * n)), unitary=True)


def fredkin_unitary(space: FockSpace, m_a: int, m_b: int, m_c: int) -> LinearOperator:
    """Optical Fredkin gate F = B^dag K B.

    The beamsplitters couple (m_a, m_b); the pi Kerr cell couples (m_b, m_c).
    On single-photon occupations this swaps modes m_a and m_b conditioned on a
    photon in m_c.  F is Hermitian, so F is its own inverse.
    """
    _check_distinct(space, m_a, m_b, m_c)
    b = beamsplitter_unitary(space, m_a, m_b)
    k = kerr_unitary(space, m_b, m_c)
    f = b.matrix.conj().T @ k.matrix @ b.matrix
    return LinearOperator(space, f, unitary=True)


def noisy_fredkin_sample(space: FockSpace, m_a: int, m_b: int, m_c: int,
                         epsilon: float) -> LinearOperator:
    """One random-phase realization of the Fredkin gate.

    The Kerr cell imprints an extra phase exp[i eps (n_b + n_c)] on the modes
    passing through it, between the cross-phase interaction and the closing
    beamsplitter:  V(eps) = B^dag exp[i eps (n_b + n_c)] K B.  V(0) = F.
    """
    _check_distinct(space, m_a, m_b, m_c)
    if not math.isfinite(epsilon):
        raise FockError(f"epsilon must be finite, got {epsilon}")
    b = beamsplitter_unitary(space, m_a, m_b)
    k = kerr_unitary(space, m_b, m_c)
    n_pair = number_operator_diagonal(space, m_b) + number_operator_diagonal(space, m_c)
    phase = np.exp(1j * epsilon * n_pair)
    v = b.matrix.conj().T @ (phase[:, None] * (k.matrix @ b.matrix))
    return LinearOperator(space, v, unitary=True)
