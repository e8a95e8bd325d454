import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualrail import (
    DensityOperator,
    FockError,
    FockSpace,
    LinearOperator,
    PureState,
    apply_unitary,
    basis_density,
    basis_pure,
    diagonal_distribution,
    index_of,
    marginal_mode_distribution,
    matrix_exponential,
    occupation_of,
    partial_trace,
)
from dualrail.fock import marginal_distribution, occupation_table
from dualrail.gates import annihilation_operator
from conftest import assert_bit_equal, digits_of, index_from_digits, random_density

ROUND_TRIP_SPACES = [FockSpace(3, 1), FockSpace(4, 1), FockSpace(5, 1), FockSpace(3, 2)]


def test_dim():
    assert FockSpace(5, 1).dim == 32
    assert FockSpace(3, 2).dim == 27


def test_index_of_examples():
    assert index_of(FockSpace(5, 1), (0, 0, 0, 0, 0)) == 0
    assert index_of(FockSpace(5, 1), (0, 1, 0, 1, 0)) == 10
    assert index_of(FockSpace(3, 2), (1, 2, 0)) == 15


def test_occupation_of_examples():
    assert occupation_of(FockSpace(5, 1), 0) == (0, 0, 0, 0, 0)
    assert occupation_of(FockSpace(5, 1), 10) == (0, 1, 0, 1, 0)


@pytest.mark.parametrize("space", ROUND_TRIP_SPACES, ids=str)
def test_index_round_trip_full_basis(space):
    seen = set()
    for i in range(space.dim):
        occ = occupation_of(space, i)
        assert index_of(space, occ) == i
        seen.add(occ)
    assert len(seen) == space.dim


@pytest.mark.parametrize("space", ROUND_TRIP_SPACES, ids=str)
def test_occupation_table_rows_round_trip(space):
    table = occupation_table(space)
    assert table.shape == (space.dim, space.n_modes)
    assert [index_of(space, row) for row in table] == list(range(space.dim))
    assert list(space.occupations()) == [tuple(digits_of(space, i)) for i in range(space.dim)]
    assert occupation_table(space) is table
    with pytest.raises(ValueError):
        table[0, 0] = 1


def loop_annihilation(space, mode):
    """The annihilation operator built entry by entry over the basis indices."""
    a = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(space.dim):
        occ = digits_of(space, i)
        n = occ[mode]
        if n > 0:
            occ[mode] = n - 1
            a[index_from_digits(space, occ), i] = math.sqrt(n)
    return a


@pytest.mark.parametrize("space", [FockSpace(3, 1), FockSpace(5, 1), FockSpace(3, 2)], ids=str)
def test_annihilation_operator_matches_index_loop(space):
    for mode in range(space.n_modes):
        assert_bit_equal(annihilation_operator(space, mode), loop_annihilation(space, mode))
    for mode in (-1, space.n_modes):
        with pytest.raises(FockError):
            annihilation_operator(space, mode)


@given(data=st.data())
def test_index_round_trip_random_occupations(data):
    space = data.draw(st.sampled_from(ROUND_TRIP_SPACES))
    occ = tuple(data.draw(st.integers(0, space.cutoff)) for _ in range(space.n_modes))
    assert occupation_of(space, index_of(space, occ)) == occ


def test_index_rejects_bad_occupations():
    space = FockSpace(3, 1)
    with pytest.raises(FockError):
        index_of(space, (0, 2, 0))
    with pytest.raises(FockError):
        index_of(space, (0, 0))
    with pytest.raises(FockError):
        occupation_of(space, 8)
    with pytest.raises(FockError):
        occupation_of(space, -1)


def test_basis_pure():
    state = basis_pure(FockSpace(4, 1), (0, 1, 0, 1))
    assert state.amplitudes[5] == 1.0
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)
    dist = diagonal_distribution(state.density())
    assert dist == [((0, 1, 0, 1), pytest.approx(1.0))]


def test_matrix_exponential_identity_and_diagonal():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3), atol=1e-14)
    got = matrix_exponential(1j * math.pi * np.diag([0.0, 1.0]))
    assert np.allclose(got, np.diag([1.0, -1.0]), atol=1e-12)


def test_matrix_exponential_rotation_closed_form():
    # independent oracle: exp(theta G) with G = [[0, 1], [-1, 0]] is a rotation
    theta = math.pi / 4
    gen = theta * np.array([[0.0, 1.0], [-1.0, 0.0]])
    expected = np.array([[math.cos(theta), math.sin(theta)],
                         [-math.sin(theta), math.cos(theta)]])
    assert np.max(np.abs(matrix_exponential(gen) - expected)) < 1e-12


def test_matrix_exponential_rejects_bad_input():
    with pytest.raises(FockError):
        matrix_exponential(np.array([[np.inf, 0], [0, 0]]))
    with pytest.raises(FockError):
        matrix_exponential(np.zeros((2, 3)))


def _random_unitary(space, rng):
    g = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    g = g - g.conj().T
    return LinearOperator(space, matrix_exponential(g), unitary=True)


def test_apply_unitary_identity():
    space = FockSpace(3, 1)
    rho = basis_density(space, (1, 0, 1))
    ident = LinearOperator(space, np.eye(space.dim), unitary=True)
    assert np.array_equal(apply_unitary(rho, ident).matrix, rho.matrix)


@given(seed=st.integers(0, 2**32 - 1))
def test_apply_unitary_preserves_trace_purity_spectrum(seed):
    rng = np.random.default_rng(seed)
    space = FockSpace(3, 1)
    rho = random_density(space, rng)
    u = _random_unitary(space, rng)
    out = apply_unitary(rho, u)
    assert abs(np.trace(out.matrix) - 1.0) < 1e-12
    purity_in = np.trace(rho.matrix @ rho.matrix).real
    purity_out = np.trace(out.matrix @ out.matrix).real
    assert abs(purity_in - purity_out) < 1e-10
    ev_in = np.sort(np.linalg.eigvalsh(rho.matrix))
    ev_out = np.sort(np.linalg.eigvalsh(out.matrix))
    assert np.max(np.abs(ev_in - ev_out)) < 1e-10


def test_diagonal_distribution_mixture():
    space = FockSpace(2, 1)
    m = 0.5 * (basis_density(space, (0, 0)).matrix + basis_density(space, (1, 1)).matrix)
    dist = dict(diagonal_distribution(DensityOperator(space, m)))
    assert dist == {(0, 0): pytest.approx(0.5), (1, 1): pytest.approx(0.5)}
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)


def test_marginal_mode_distribution():
    space = FockSpace(4, 1)
    assert marginal_mode_distribution(basis_density(space, (0, 1, 0, 1)), 3)[1] == pytest.approx(1.0)
    m = 0.5 * (basis_density(space, (0, 1, 0, 1)).matrix
               + basis_density(space, (0, 1, 1, 0)).matrix)
    marg = marginal_mode_distribution(DensityOperator(space, m), 3)
    assert marg == pytest.approx([0.5, 0.5])
    with pytest.raises(FockError):
        marginal_mode_distribution(basis_density(space, (0, 1, 0, 1)), 4)


@pytest.mark.parametrize("space", [FockSpace(5, 1), FockSpace(3, 2)], ids=str)
def test_marginal_distribution_is_the_partial_trace_diagonal(space):
    rho = random_density(space, np.random.default_rng(7))
    for keep in ((0,), (space.n_modes - 1,), (0, 2), tuple(range(space.n_modes - 1))):
        reduced = np.real(np.diag(partial_trace(rho, keep).matrix))
        assert np.max(np.abs(marginal_distribution(rho, keep) - reduced)) < 1e-15


def test_partial_trace_product_state():
    space = FockSpace(3, 1)
    rho = basis_density(space, (1, 0, 1))
    reduced = partial_trace(rho, (0, 2))
    assert np.max(np.abs(reduced.matrix - basis_density(FockSpace(2, 1), (1, 1)).matrix)) < 1e-14


def test_partial_trace_bell_pair_is_maximally_mixed():
    space = FockSpace(2, 1)
    amps = np.zeros(4, dtype=complex)
    amps[index_of(space, (0, 1))] = 1 / math.sqrt(2)
    amps[index_of(space, (1, 0))] = 1 / math.sqrt(2)
    rho = PureState(space, amps).density()
    reduced = partial_trace(rho, (0,))
    assert np.max(np.abs(reduced.matrix - np.diag([0.5, 0.5]))) < 1e-12


def test_partial_trace_rejects_empty_keep_set():
    with pytest.raises(FockError):
        partial_trace(basis_density(FockSpace(2, 1), (0, 1)), ())


@given(seed=st.integers(0, 2**32 - 1))
def test_partial_trace_preserves_trace_and_hermiticity(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(FockSpace(3, 1), rng)
    reduced = partial_trace(rho, (1,))
    assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12
    assert np.max(np.abs(reduced.matrix - reduced.matrix.conj().T)) < 1e-12


def test_density_operator_validation():
    space = FockSpace(1, 1)
    with pytest.raises(FockError):
        DensityOperator(space, np.array([[0.5, 0.5], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(FockError):
        DensityOperator(space, np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(FockError):
        DensityOperator(space, np.diag([1.5, -0.5]))  # negative eigenvalue


def test_pure_state_validation():
    space = FockSpace(1, 1)
    with pytest.raises(FockError):
        PureState(space, np.array([1.0, 1.0]))


def test_linear_operator_unitarity_check():
    space = FockSpace(1, 1)
    with pytest.raises(FockError):
        LinearOperator(space, np.diag([1.0, 2.0]), unitary=True)
    LinearOperator(space, np.diag([1.0, 2.0]))  # fine when not flagged unitary
