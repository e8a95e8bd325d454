"""Registers of single-photon modes, states, and dense linear-operator helpers.

Every mode holds 0 or 1 photon: the dual-rail logic never puts two photons
in one mode.  Basis convention: a basis state is labeled by per-mode photon
counts ``(n_0, .., n_{M-1})``, each 0 or 1.  Mode 0 is the most significant
bit of the basis index:

    index = sum_m n_m * 2**(M - 1 - m)

so the occupation reads like a binary string.
This convention is normative for all file output produced by the CLI.
Only this module relies on it: other modules get occupations, photon-number
sectors and marginals from ``occupation_table``, ``photon_basis`` and
``marginal_distribution``, and every single-mode operator is a function of one
table column (number, phase, damping) or of ``annihilation_operator``.

Inputs obey one rule per kind: ``check_integer``, ``check_strength`` and
``check_array``, which gives each state and operator its own read-only copy.
So values are immutable and functions pure: share them freely between threads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral, Real
from typing import Iterable, Sequence

import numpy as np

# Central numerical tolerances, stated only here: every reader, a test too, imports the name.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
UNITARITY_TOL = 1e-12
NORM_TOL = 1e-12
KRAUS_COMPLETENESS_TOL = 1e-10
PROB_OMIT_THRESHOLD = 1e-14

OccupationVector = tuple[int, ...]


class FockError(ValueError):
    """Rejected input: a mode, occupation, count, seed, strength, state or operator out of range."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FockSpace:
    """A register of ``n_modes`` bosonic modes that hold 0 or 1 photon each."""

    n_modes: int

    def __post_init__(self):
        check_integer(self.n_modes, "n_modes", 1)

    @property
    def dim(self) -> int:
        return 2 ** self.n_modes

    def occupations(self) -> Iterable[OccupationVector]:
        """All basis occupations in index order."""
        return map(tuple, occupation_table(self).tolist())


@lru_cache(maxsize=None)
def occupation_table(space: FockSpace) -> np.ndarray:
    """Read-only int array of shape (dim, n_modes): row i is the occupation of index i.

    The single definition of the basis convention: C order over one axis of
    length 2 per mode, so mode 0 is the most significant bit.
    """
    return _readonly(np.indices((2,) * space.n_modes).reshape(space.n_modes, -1).T)


def photon_basis(space: FockSpace, n_max: float) -> np.ndarray:
    """Read-only indices, in index order, of the basis states holding at most ``n_max`` photons."""
    check_strength(n_max, "n_max", finite=False)  # before the cache, which needs a hashable n_max
    return _photon_basis(space, n_max)


@lru_cache(maxsize=None)
def _photon_basis(space: FockSpace, n_max: float) -> np.ndarray:
    return _readonly(np.flatnonzero(occupation_table(space).sum(axis=1) <= n_max))


def _shown(value) -> str:
    """``repr(value)``, or its type where that refuses, as for an int of over 4300 digits."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def check_integer(value, what: str, low: int, high: int | None = None) -> int:
    """``value`` as a Python int in [low, high]; a bool or a float, 1.0 too, is not an integer."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise FockError(f"{what} must be an integer, got {_shown(value)}")
    if value < low or high is not None and value > high:
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise FockError(f"{what} must be {bounds}, got {_shown(value)}")
    return int(value)


def check_strength(value, what: str, finite: bool = True):
    """Reject a strength unless it is a real number in [0, largest float], not a bool.

    Unless ``finite``, inf is a strength too; an int above the float range is not.
    """
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not (0 <= value <= sys.float_info.max or not finite and value == float("inf"))):
        bound = "finite and >= 0" if finite else f">= 0 and <= {sys.float_info.max!r}, or inf"
        raise FockError(f"{what} must be {bound}, got {_shown(value)}")


def check_finite(a: np.ndarray, what: str):
    """Reject an array with a NaN or infinite entry, which every tolerance comparison would pass."""
    if not np.isfinite(a).all():
        raise FockError(f"{what} has non-finite entries")


def check_array(value, shape: tuple[int | None, ...], what: str) -> np.ndarray:
    """``value`` as its own read-only complex copy of ``shape`` (None: any length), finite."""
    try:
        a = np.array(value, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise FockError(f"{what} is not an array of numbers") from None
    if a.ndim != len(shape) or any(want not in (n, None) for n, want in zip(a.shape, shape)):
        raise FockError(f"{what} has shape {a.shape}, expected {shape}")
    check_finite(a, what)
    return _readonly(a)


def check_densities(matrices: np.ndarray):
    """Reject a (G, dim, dim) stack unless every matrix in it is a density operator.

    The one implementation of the state checks, in order: finite entries,
    Hermitian to HERMITICITY_TOL, unit trace to TRACE_TOL, and eigenvalues
    above EIGENVALUE_FLOOR from one batched ``eigvalsh``.  A failing check
    reports the worst matrix of the stack.
    """
    check_finite(matrices, "density matrix")
    adjoint = matrices.conj().swapaxes(-1, -2)
    herm = np.max(np.abs(matrices - adjoint))
    if herm > HERMITICITY_TOL:
        raise FockError(f"Hermiticity violated by {herm:.2e}")
    traces = np.trace(matrices, axis1=-2, axis2=-1).real
    tr = traces[np.argmax(np.abs(traces - 1.0))]
    if abs(tr - 1.0) > TRACE_TOL:
        raise FockError(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
    lo = np.linalg.eigvalsh((matrices + adjoint) * 0.5).min()
    if lo < EIGENVALUE_FLOOR:
        raise FockError(f"negative eigenvalue {lo:.2e} below floor {EIGENVALUE_FLOOR}")


def check_modes(space: FockSpace, *modes: int):
    """Reject a mode index that is not an integer in [0, n_modes), or a repeated one."""
    for m in modes:
        check_integer(m, "mode", 0, space.n_modes - 1)
    if len(set(modes)) != len(modes):
        raise FockError(f"modes {modes} must be distinct")


def annihilation_operator(space: FockSpace, mode: int) -> np.ndarray:
    """Lowering operator of one single-photon mode: |..1_m..> -> |..0_m..>.

    A row map on the occupation table.  The rows with n_m = 0 and the rows
    with n_m = 1 each list the other modes' occupations in the same index
    order, so the k-th row of one set is the k-th of the other with n_m flipped.
    """
    check_modes(space, mode)
    n = occupation_table(space)[:, mode]
    a = np.zeros((space.dim, space.dim), dtype=complex)
    a[np.flatnonzero(n == 0), np.flatnonzero(n == 1)] = 1
    return a


def index_of(space: FockSpace, occ: Sequence[int]) -> int:
    """Basis index of an occupation vector (mode 0 most significant)."""
    occ = tuple(occ)
    if len(occ) != space.n_modes:
        raise FockError(f"expected {space.n_modes} modes, got {len(occ)}")
    what, index = f"entries of occupation {_shown(occ)}", 0
    for n in occ:
        index = index * 2 + check_integer(n, what, 0, 1)
    return index


def occupation_label(occ: Sequence[int]) -> str:
    """Compact ket label, e.g. (0,1,0,1,0) -> '01010'."""
    return "".join(str(n) for n in occ)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over the Fock basis."""

    space: FockSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = check_array(self.amplitudes, (self.space.dim,), "amplitude vector")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise FockError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> "DensityOperator":
        return DensityOperator(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive, unit-trace matrix over the Fock basis."""

    space: FockSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = check_array(self.matrix, (self.space.dim,) * 2, "density matrix")
        check_densities(m[None])
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Dense unitary operator on the full space; U^dag U = I is enforced."""

    space: FockSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = check_array(self.matrix, (self.space.dim,) * 2, "operator matrix")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(self.space.dim)))
        if dev > UNITARITY_TOL:
            raise FockError(f"unitarity violated by {dev:.2e}")
        object.__setattr__(self, "matrix", m)

    @cached_property
    def dagger(self) -> "LinearOperator":
        return LinearOperator(self.space, self.matrix.conj().T)


def checked_densities(space: FockSpace, matrices: np.ndarray) -> list[DensityOperator]:
    """The matrices of a (G, dim, dim) stack of density operators, as states, unchecked.

    The caller vouches for the stack: it passed ``check_densities``, or came
    from checked states through checked unitaries only.
    """
    states = []
    for m in matrices:
        state = object.__new__(DensityOperator)
        object.__setattr__(state, "space", space)
        object.__setattr__(state, "matrix", _readonly(m))
        states.append(state)
    return states


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
    check_modes(space, *modes)
    probs = np.real(np.diag(rho.matrix)).reshape((2,) * space.n_modes)
    traced = tuple(m for m in range(space.n_modes) if m not in modes)
    return probs.sum(axis=traced).ravel()

