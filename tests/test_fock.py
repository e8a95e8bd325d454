import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualrail import (
    DensityOperator,
    FockError,
    FockSpace,
    KrausChannel,
    LinearOperator,
    PureState,
    apply_unitary,
    basis_density,
    basis_pure,
    index_of,
    marginal_distribution,
)
from dualrail.fock import annihilation_operator, check_densities, occupation_table, photon_basis
from conftest import (
    assert_bit_equal,
    digits_of,
    index_from_digits,
    random_density,
    space_id,
)

ROUND_TRIP_SPACES = [FockSpace(3), FockSpace(4), FockSpace(5)]


def test_dim():
    assert FockSpace(5).dim == 32
    assert [f.name for f in dataclasses.fields(FockSpace)] == ["n_modes"]  # the one setting


@pytest.mark.parametrize("n_modes", [0, 2.0, "2", True],
                         ids=["no-modes", "float-modes", "string-modes", "bool-modes"])
def test_fock_space_validation(n_modes):
    with pytest.raises(FockError):
        FockSpace(n_modes)


def test_index_of_examples():
    assert index_of(FockSpace(5), (0, 0, 0, 0, 0)) == 0
    assert index_of(FockSpace(5), (0, 1, 0, 1, 0)) == 10


def test_occupation_of_examples():
    table = occupation_table(FockSpace(5))
    assert tuple(table[0].tolist()) == (0, 0, 0, 0, 0)
    assert tuple(table[10].tolist()) == (0, 1, 0, 1, 0)


@pytest.mark.parametrize("space", ROUND_TRIP_SPACES, ids=space_id)
def test_index_round_trip_full_basis(space):
    seen = set()
    for i, occ in enumerate(space.occupations()):
        assert index_of(space, occ) == i
        seen.add(occ)
    assert len(seen) == space.dim


@pytest.mark.parametrize("space", ROUND_TRIP_SPACES, ids=space_id)
def test_occupation_table_rows_round_trip(space):
    table = occupation_table(space)
    assert table.shape == (space.dim, space.n_modes)
    assert [index_of(space, row) for row in table] == list(range(space.dim))
    assert list(space.occupations()) == [tuple(digits_of(space, i)) for i in range(space.dim)]
    assert occupation_table(space) is table
    with pytest.raises(ValueError):
        table[0, 0] = 1


@pytest.mark.parametrize("space", ROUND_TRIP_SPACES, ids=space_id)
def test_photon_basis_lists_the_states_of_at_most_n_photons_in_index_order(space):
    for n_max in (0, 1, 2, space.n_modes, math.inf):
        want = [i for i in range(space.dim) if sum(digits_of(space, i)) <= n_max]
        assert photon_basis(space, n_max).tolist() == want
    assert len(photon_basis(space, 2)) == sum(math.comb(space.n_modes, n) for n in range(3))
    with pytest.raises(ValueError):
        photon_basis(space, 2)[0] = 1


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


@pytest.mark.parametrize("space", [FockSpace(n) for n in range(1, 6)], ids=space_id)
def test_annihilation_operator_matches_index_loop(space):
    for mode in range(space.n_modes):
        assert_bit_equal(annihilation_operator(space, mode), loop_annihilation(space, mode))
    for mode in (-1, space.n_modes):
        with pytest.raises(FockError):
            annihilation_operator(space, mode)


@given(data=st.data())
def test_index_round_trip_random_occupations(data):
    space = data.draw(st.sampled_from(ROUND_TRIP_SPACES))
    occ = tuple(data.draw(st.integers(0, 1)) for _ in range(space.n_modes))
    assert tuple(occupation_table(space)[index_of(space, occ)].tolist()) == occ


def test_index_rejects_bad_occupations():
    space = FockSpace(3)
    with pytest.raises(FockError):
        index_of(space, (0, 2, 0))
    with pytest.raises(FockError):
        index_of(space, (0, 0))
    for occ in ((0.9, 1), (1.7, 0), (1.0, 0), (True, 0), (0, 10**5000)):
        with pytest.raises(FockError):
            index_of(FockSpace(2), occ)


def test_basis_pure():
    state = basis_pure(FockSpace(4), (0, 1, 0, 1))
    assert state.amplitudes[5] == 1.0
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)
    assert marginal_distribution(state.density(), range(4)).tolist() == np.eye(16)[5].tolist()


def _random_unitary(space, rng):
    g = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    q, _ = np.linalg.qr(g)
    return LinearOperator(space, q)


def test_apply_unitary_identity():
    space = FockSpace(3)
    rho = basis_density(space, (1, 0, 1))
    ident = LinearOperator(space, np.eye(space.dim))
    assert np.array_equal(apply_unitary(rho, ident).matrix, rho.matrix)


@given(seed=st.integers(0, 2**32 - 1))
def test_apply_unitary_preserves_trace_purity_spectrum(seed):
    rng = np.random.default_rng(seed)
    space = FockSpace(3)
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
    space = FockSpace(2)
    m = 0.5 * (basis_density(space, (0, 0)).matrix + basis_density(space, (1, 1)).matrix)
    dist = marginal_distribution(DensityOperator(space, m), (0, 1))
    assert dist == pytest.approx([0.5, 0.0, 0.0, 0.5])
    assert sum(dist) == pytest.approx(1.0, abs=1e-10)


def test_marginal_mode_distribution():
    space = FockSpace(4)
    assert marginal_distribution(basis_density(space, (0, 1, 0, 1)), (3,))[1] == pytest.approx(1.0)
    m = 0.5 * (basis_density(space, (0, 1, 0, 1)).matrix
               + basis_density(space, (0, 1, 1, 0)).matrix)
    marg = marginal_distribution(DensityOperator(space, m), (3,))
    assert marg == pytest.approx([0.5, 0.5])
    with pytest.raises(FockError):
        marginal_distribution(basis_density(space, (0, 1, 0, 1)), (4,))
    with pytest.raises(FockError):  # a repeated mode is not a marginal
        marginal_distribution(basis_density(space, (0, 1, 0, 1)), (0, 0))


@pytest.mark.parametrize("space", [FockSpace(3), FockSpace(5)], ids=space_id)
def test_marginal_distribution_is_the_partial_trace_diagonal(space):
    rho = random_density(space, np.random.default_rng(7))
    diagonal = np.real(np.diag(rho.matrix))
    for keep in ((0,), (space.n_modes - 1,), (0, 2), tuple(range(space.n_modes - 1))):
        # the kept-mode occupation of each basis row, as an index of the kept-mode space
        kept = FockSpace(len(keep))
        rows = [index_of(kept, occ) for occ in occupation_table(space)[:, keep]]
        reduced = np.bincount(rows, weights=diagonal, minlength=kept.dim)
        assert np.max(np.abs(marginal_distribution(rho, keep) - reduced)) < 1e-15


def test_density_operator_validation():
    space = FockSpace(1)
    with pytest.raises(FockError):
        DensityOperator(space, np.array([[0.5, 0.5], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(FockError):
        DensityOperator(space, np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(FockError):
        DensityOperator(space, np.diag([1.5, -0.5]))  # negative eigenvalue
    for bad in ("x", {"a": 1}, [[1, 0], [0]]):  # a string, a dict, a ragged list
        with pytest.raises(FockError, match="density matrix is not an array of numbers"):
            DensityOperator(space, bad)


@pytest.mark.parametrize("matrix", [
    np.diag([math.nan, 1.0, 0.0, 0.0]),  # every comparison with nan is False
    np.full((4, 4), math.nan),  # eigvalsh would raise numpy's LinAlgError
    np.diag([math.inf, 1.0, 0.0, 0.0]),
], ids=["nan-diagonal", "all-nan", "inf-diagonal"])
def test_density_operator_rejects_non_finite_entries(matrix):
    with pytest.raises(FockError, match="non-finite"):
        DensityOperator(FockSpace(2), matrix)


def test_density_checks_are_batched_and_report_the_worst_point():
    space = FockSpace(2)
    rng = np.random.default_rng(3)
    good = [random_density(space, rng).matrix for _ in range(3)]
    check_densities(np.stack(good))  # a stack of density operators passes
    cases = {
        "non-finite": np.diag([math.nan, 1.0, 0.0, 0.0]),
        "Hermiticity": good[0] + 1e-9 * np.triu(np.ones((4, 4)), 1),
        "trace": np.diag([0.6, 0.6, 0.0, 0.0]),
        "negative eigenvalue": np.diag([1.5, -0.5, 0.0, 0.0]),
    }
    for what, bad in cases.items():
        stack = np.stack([good[0], bad, good[1]])  # one bad point in the middle
        with pytest.raises(FockError, match=what):
            check_densities(stack)
        with pytest.raises(FockError, match=what):  # the single-matrix check is the same code
            DensityOperator(space, bad)


def test_pure_state_validation():
    space = FockSpace(1)
    with pytest.raises(FockError):
        PureState(space, np.array([1.0, 1.0]))
    for bad in ([[1], [0, 1]], ["1", "x"], [10 ** 5000, 0]):  # ragged, a string, past the floats
        with pytest.raises(FockError, match="amplitude vector is not an array of numbers"):
            PureState(space, bad)


def test_pure_state_rejects_non_finite_amplitudes():
    with pytest.raises(FockError, match="non-finite"):
        PureState(FockSpace(1), np.array([math.nan, 1.0]))


def test_linear_operator_unitarity_check():
    space = FockSpace(1)
    with pytest.raises(FockError):
        LinearOperator(space, np.diag([1.0, 2.0]))


def test_linear_operator_rejects_non_finite_entries():
    with pytest.raises(FockError, match="non-finite"):
        LinearOperator(FockSpace(1), np.full((2, 2), math.nan))
    for bad in ({"a": 1}, [[1, 0], "x"]):
        with pytest.raises(FockError, match="operator matrix is not an array of numbers"):
            LinearOperator(FockSpace(1), bad)


# kind -> (build from the caller's arrays, the arrays the value stores, the caller's
# arrays).  They are complex, so a value could keep a reference to them.
OWNED = {
    "pure-state": (lambda a: PureState(FockSpace(1), a), lambda v: [v.amplitudes],
                   [np.array([0.6, 0.8j])]),
    "density-operator": (lambda a: DensityOperator(FockSpace(1), a), lambda v: [v.matrix],
                         [np.diag([0.25, 0.75]).astype(complex)]),
    "linear-operator": (lambda a: LinearOperator(FockSpace(1), a), lambda v: [v.matrix],
                        [np.array([[0.0, 1.0], [1j, 0.0]])]),
    "kraus-channel": (lambda *ks: KrausChannel(FockSpace(1), ks), lambda v: list(v.kraus_ops),
                      [np.diag([1.0, 0.5 ** 0.5]).astype(complex),
                       np.array([[0.0, 0.5 ** 0.5], [0.0, 0.0]], dtype=complex)]),
}


@pytest.mark.parametrize("build, stored, arrays", OWNED.values(), ids=OWNED.keys())
def test_values_own_read_only_copies_of_their_arrays(build, stored, arrays):
    value = build(*arrays)
    before = [a.copy() for a in stored(value)]
    for a in arrays:
        assert a.flags.writeable  # the caller's array is left as it was
        a[...] = math.nan
    assert all(np.array_equal(a, b) for a, b in zip(stored(value), before))
    for a in stored(value):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_dagger_is_built_once():
    u = LinearOperator(FockSpace(1), np.array([[0.0, 1.0], [1j, 0.0]]))
    assert u.dagger is u.dagger
    assert np.array_equal(u.dagger.matrix, u.matrix.conj().T)
