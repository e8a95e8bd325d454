"""Optical gate unitaries: beamsplitter, Kerr cross-phase, phase shift, Fredkin.

All constructors return operators on the full space (identity on untouched
modes) so they compose freely; nothing acts in place.  Everything returned
is immutable, so every constructor is memoized: a sweep builds and validates
each fixed gate once, the beamsplitter's eigendecomposition included.  The
caches are typed, so a bool or float mode (True == 1) misses and is rejected.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache, wraps
from numbers import Real

import numpy as np

from .fock import (
    FockError,
    FockSpace,
    LinearOperator,
    _shown,
    annihilation_operator,
    check_modes,
    occupation_table,
)


def _modes_checked(gate):
    """``gate`` memoized, with its modes checked before the cache sees them.

    ``cache_info`` and ``cache_clear`` are the cache's own.
    """
    cached = lru_cache(maxsize=None, typed=True)(gate)

    @wraps(gate)
    def checked(space: FockSpace, *modes: int) -> LinearOperator:
        check_modes(space, *modes)
        return cached(space, *modes)

    checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
    return checked


@_modes_checked
def beamsplitter_unitary(space: FockSpace, mode_i: int, mode_j: int) -> LinearOperator:
    """50/50 beamsplitter B = exp[theta (a_i^dag a_j - a_j^dag a_i)] at theta = pi/4.

    Orientation: B|01> = (|01> + |10>)/sqrt(2) and B|10> = (|10> - |01>)/sqrt(2)
    on the two coupled modes.  Photon number in the pair is conserved.  With
    one photon per mode the bunched states |20> and |02> lie outside the
    space, so the truncated B leaves |11> unchanged.
    """
    ai = annihilation_operator(space, mode_i)
    aj = annihilation_operator(space, mode_j)
    gen = math.pi / 4 * (ai.conj().T @ aj - aj.conj().T @ ai)
    # gen is anti-Hermitian, so exp(gen) = V exp(-i w) V^dag from the eigenpairs of i gen
    w, v = np.linalg.eigh(1j * gen)
    return LinearOperator(space, (v * np.exp(-1j * w)) @ v.conj().T)


@_modes_checked
def kerr_unitary(space: FockSpace, mode_i: int, mode_j: int) -> LinearOperator:
    """Cross-phase modulation K = exp[i pi n_i n_j], the sign flip on |11>."""
    n = occupation_table(space)
    return LinearOperator(space, np.diag(np.exp(1j * math.pi * n[:, mode_i] * n[:, mode_j])))


def phase_shift_unitary(space: FockSpace, mode: int, phi: float) -> LinearOperator:
    """Single-mode phase shift exp[i phi n_mode], for a finite real phi that is not a bool."""
    if isinstance(phi, bool) or not isinstance(phi, Real) or not abs(phi) <= sys.float_info.max:
        raise FockError(f"phase must be a finite real number, got {_shown(phi)}")
    check_modes(space, mode)
    return _phase_shift_unitary(space, mode, phi)


@lru_cache(maxsize=128, typed=True)  # phi is continuous, so the cache is bounded
def _phase_shift_unitary(space: FockSpace, mode: int, phi: float) -> LinearOperator:
    return LinearOperator(space, np.diag(np.exp(1j * phi * occupation_table(space)[:, mode])))


@_modes_checked
def fredkin_unitary(space: FockSpace, m_a: int, m_b: int, m_c: int) -> LinearOperator:
    """Optical Fredkin gate F = B^dag K B.

    The beamsplitters couple (m_a, m_b); the pi Kerr cell couples (m_b, m_c).
    On single-photon occupations this swaps modes m_a and m_b conditioned on a
    photon in m_c.  F is Hermitian, so F is its own inverse.
    """
    b = beamsplitter_unitary(space, m_a, m_b).matrix
    return LinearOperator(space, b.conj().T @ kerr_unitary(space, m_b, m_c).matrix @ b)

