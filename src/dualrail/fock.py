"""Multimode truncated Fock space, states, and dense linear-operator helpers.

Basis convention: a basis state is labeled by per-mode photon counts
``(n_0, .., n_{M-1})`` with each count in ``[0, cutoff]``.  Mode 0 is the
most significant digit of the basis index:

    index = sum_m n_m * (cutoff + 1)**(M - 1 - m)

so for five modes at cutoff 1 the occupation reads like a binary string.
This convention is normative for all file output produced by the CLI.
Only this module relies on it: other modules get occupations, embedded
single-mode operators and marginals from ``occupation_table``,
``mode_operator`` and ``marginal_distribution``.

Everything here is immutable after construction and all operations are
pure functions, so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

# Central numerical tolerances.  Tests import these, do not inline the values.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
UNITARITY_TOL = 1e-12
NORM_TOL = 1e-12
KRAUS_COMPLETENESS_TOL = 1e-10
PROB_OMIT_THRESHOLD = 1e-14

OccupationVector = tuple[int, ...]


class FockError(ValueError):
    """Rejected input: occupation, index, or operator outside the space."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FockSpace:
    """A register of ``n_modes`` bosonic modes truncated at ``cutoff`` photons each."""

    n_modes: int
    cutoff: int = 1

    def __post_init__(self):
        if not all(isinstance(v, Integral) for v in (self.n_modes, self.cutoff)):
            raise FockError(f"n_modes and cutoff must be integers, got {self.n_modes!r}, "
                            f"{self.cutoff!r}")
        if self.n_modes < 1:
            raise FockError(f"n_modes must be positive, got {self.n_modes}")
        if self.cutoff < 1:
            raise FockError(f"cutoff must be >= 1, got {self.cutoff}")

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.n_modes

    def occupations(self) -> Iterable[OccupationVector]:
        """All basis occupations in index order."""
        return map(tuple, occupation_table(self).tolist())


@lru_cache(maxsize=None)
def occupation_table(space: FockSpace) -> np.ndarray:
    """Read-only int array of shape (dim, n_modes): row i is the occupation of index i.

    The single definition of the basis convention: C order over one axis of
    length cutoff + 1 per mode, so mode 0 is the most significant digit.
    """
    shape = (space.cutoff + 1,) * space.n_modes
    return _readonly(np.indices(shape).reshape(space.n_modes, -1).T)


def mode_operator(space: FockSpace, mode: int, single: np.ndarray) -> np.ndarray:
    """Embed a (cutoff + 1)-square single-mode matrix on ``mode``, identity elsewhere."""
    if not 0 <= mode < space.n_modes:
        raise FockError(f"mode {mode} outside [0, {space.n_modes})")
    base = space.cutoff + 1
    before, after = np.eye(base ** mode), np.eye(base ** (space.n_modes - 1 - mode))
    return np.kron(np.kron(before, single), after)


def index_of(space: FockSpace, occ: Sequence[int]) -> int:
    """Basis index of an occupation vector (mode 0 most significant)."""
    occ = tuple(occ)
    if len(occ) != space.n_modes:
        raise FockError(f"expected {space.n_modes} modes, got {len(occ)}")
    index = 0
    for n in occ:
        if not (isinstance(n, Integral) and 0 <= n <= space.cutoff):
            raise FockError(f"occupation {occ} is not an integer in [0, {space.cutoff}]")
        index = index * (space.cutoff + 1) + int(n)
    return index


def occupation_of(space: FockSpace, index: int) -> OccupationVector:
    """Inverse of :func:`index_of`."""
    if not 0 <= index < space.dim:
        raise FockError(f"index {index} outside [0, {space.dim})")
    return tuple(occupation_table(space)[index].tolist())


def occupation_label(occ: Sequence[int]) -> str:
    """Compact ket label, e.g. (0,1,0,1,0) -> '01010'."""
    return "".join(str(n) for n in occ)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over the Fock basis."""

    space: FockSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dim,):
            raise FockError(f"amplitude vector has shape {amps.shape}, expected ({self.space.dim},)")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise FockError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    def density(self) -> "DensityOperator":
        return DensityOperator(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive, unit-trace matrix over the Fock basis."""

    space: FockSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.space.dim
        if m.shape != (d, d):
            raise FockError(f"matrix has shape {m.shape}, expected ({d}, {d})")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > HERMITICITY_TOL:
            raise FockError(f"Hermiticity violated by {herm:.2e}")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise FockError(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
        lo = np.linalg.eigvalsh((m + m.conj().T) / 2).min()
        if lo < EIGENVALUE_FLOOR:
            raise FockError(f"negative eigenvalue {lo:.2e} below floor {EIGENVALUE_FLOOR}")
        object.__setattr__(self, "matrix", _readonly(m))


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Dense unitary operator on the full space; U^dag U = I is enforced."""

    space: FockSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.space.dim
        if m.shape != (d, d):
            raise FockError(f"matrix has shape {m.shape}, expected ({d}, {d})")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(d)))
        if dev > UNITARITY_TOL:
            raise FockError(f"unitarity violated by {dev:.2e}")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dagger(self) -> "LinearOperator":
        return LinearOperator(self.space, self.matrix.conj().T)


def basis_pure(space: FockSpace, occ: Sequence[int]) -> PureState:
    """Basis ket |occ> as a pure state."""
    amps = np.zeros(space.dim, dtype=complex)
    amps[index_of(space, occ)] = 1.0
    return PureState(space, amps)


def basis_density(space: FockSpace, occ: Sequence[int]) -> DensityOperator:
    return basis_pure(space, occ).density()


def apply_unitary(rho: DensityOperator, u: LinearOperator) -> DensityOperator:
    """Conjugate a density operator: rho -> U rho U^dag."""
    if u.space != rho.space:
        raise FockError("operator and state live on different spaces")
    m = u.matrix
    return DensityOperator(rho.space, m @ rho.matrix @ m.conj().T)


def marginal_distribution(rho: DensityOperator, modes: Sequence[int]) -> np.ndarray:
    """Diagonal of ``rho`` summed over every mode not in ``modes``.

    Entry i is the probability of occupation i of the kept modes, taken in
    ascending mode order as a space of their own.
    """
    space = rho.space
    if any(not 0 <= m < space.n_modes for m in modes):
        raise FockError(f"modes {tuple(modes)} outside [0, {space.n_modes})")
    probs = np.real(np.diag(rho.matrix)).reshape((space.cutoff + 1,) * space.n_modes)
    traced = tuple(m for m in range(space.n_modes) if m not in modes)
    return probs.sum(axis=traced).ravel()

