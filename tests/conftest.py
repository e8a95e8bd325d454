import numpy as np
import pytest

from dualrail import DensityOperator, FockSpace


@pytest.fixture
def space3():
    return FockSpace(3)


@pytest.fixture
def space5():
    return FockSpace(5)


def random_density(space: FockSpace, rng: np.random.Generator) -> DensityOperator:
    """Haar-ish random full-rank density operator."""
    a = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    m = a @ a.conj().T
    return DensityOperator(space, m / np.trace(m))


def random_reachable_state(space: FockSpace, basis_vectors, rng: np.random.Generator):
    """Random density operator supported on the span of the given vectors."""
    k = len(basis_vectors)
    a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    m = a @ a.conj().T
    m /= np.trace(m)
    vecs = np.column_stack(basis_vectors)
    return DensityOperator(space, vecs @ m @ vecs.conj().T)


def digits_of(space: FockSpace, index: int) -> list[int]:
    """Occupation of a basis index by positional arithmetic, mode 0 most significant.

    Independent of ``fock.occupation_table``; the reference loops below use it.
    """
    return [index // 2 ** (space.n_modes - 1 - m) % 2 for m in range(space.n_modes)]


def index_from_digits(space: FockSpace, occ) -> int:
    index = 0
    for n in occ:
        index = index * 2 + n
    return index


def space_id(space: FockSpace) -> str:
    """Test id of a register: its modes, each truncated at one photon (Fock cutoff 1)."""
    return f"FockSpace(n_modes={space.n_modes}, cutoff=1)"


def assert_bit_equal(a: np.ndarray, b: np.ndarray):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()
