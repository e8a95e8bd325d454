import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualrail import (
    FockError,
    FockSpace,
    basis_pure,
    beamsplitter_unitary,
    fredkin_unitary,
    index_of,
    kerr_unitary,
    phase_shift_unitary,
)
from oracles import noisy_fredkin_sample

SQ2 = math.sqrt(2)


def ket(space, occ):
    return basis_pure(space, occ).amplitudes


def test_beamsplitter_single_photon_action():
    space = FockSpace(2)
    b = beamsplitter_unitary(space, 0, 1).matrix
    out01 = b @ ket(space, (0, 1))
    assert np.max(np.abs(out01 - (ket(space, (0, 1)) + ket(space, (1, 0))) / SQ2)) < 1e-12
    assert np.max(np.abs(b @ ket(space, (0, 0)) - ket(space, (0, 0)))) < 1e-12


def test_beamsplitter_against_rotation_closed_form():
    # independent oracle: the single-photon sector is a 2x2 rotation by theta = pi/4
    space = FockSpace(2)
    theta = math.pi / 4
    b = beamsplitter_unitary(space, 0, 1).matrix
    out10 = b @ ket(space, (1, 0))
    expected = math.cos(theta) * ket(space, (1, 0)) - math.sin(theta) * ket(space, (0, 1))
    assert np.max(np.abs(out10 - expected)) < 1e-12


def test_beamsplitter_truncates_two_photon_input():
    # with one photon per mode the bunched terms |20>, |02> do not exist: |11> is left alone
    space = FockSpace(2)
    b = beamsplitter_unitary(space, 0, 1).matrix
    assert np.max(np.abs(b @ ket(space, (1, 1)) - ket(space, (1, 1)))) < 1e-12


def test_beamsplitter_rejects_mode_collision():
    with pytest.raises(FockError):
        beamsplitter_unitary(FockSpace(2), 0, 0)


def test_number_diagonal_rejects_out_of_range_modes():
    # a negative mode would otherwise index the occupation table from the end, and a
    # bool or a float one would index it as a mask or fail; the gates on the in-range
    # modes are cached first, so a cache entry equal to the bad key cannot skip the check
    space = FockSpace(2)
    phase_shift_unitary(space, 1, 0.1)
    kerr_unitary(space, 0, 1)
    beamsplitter_unitary(space, 0, 1)
    for mode in (-1, 2, True, 1.0):
        with pytest.raises(FockError):
            phase_shift_unitary(space, mode, 0.1)
        with pytest.raises(FockError):
            kerr_unitary(space, 0, mode)
        with pytest.raises(FockError):
            beamsplitter_unitary(space, 0, mode)


def test_fixed_gates_are_built_once():
    space = FockSpace(5)
    for build, args in ((beamsplitter_unitary, (2, 3)), (kerr_unitary, (1, 2)),
                        (phase_shift_unitary, (0, math.pi)), (fredkin_unitary, (0, 1, 2))):
        assert build(space, *args) is build(FockSpace(5), *args)
        assert not build(space, *args).matrix.flags.writeable


def test_kerr_phases():
    space = FockSpace(2)
    k = kerr_unitary(space, 0, 1).matrix
    assert k[3, 3] == pytest.approx(-1.0)
    for occ in ((0, 0), (0, 1), (1, 0)):
        i = index_of(space, occ)
        assert k[i, i] == pytest.approx(1.0)


def test_phase_shift():
    space = FockSpace(4)
    s = phase_shift_unitary(space, 0, math.pi).matrix
    assert (s @ ket(space, (1, 0, 1, 0)))[index_of(space, (1, 0, 1, 0))] == pytest.approx(-1.0)
    assert (s @ ket(space, (0, 1, 0, 1)))[index_of(space, (0, 1, 0, 1))] == pytest.approx(1.0)
    assert np.max(np.abs(phase_shift_unitary(space, 0, 0.0).matrix - np.eye(space.dim))) < 1e-14
    assert np.max(np.abs(s @ s - np.eye(space.dim))) < 1e-12


@pytest.mark.parametrize("phi", [[1.0], "x", None, 1j, 10**400, -10**400, 10**5000, True,
                                 np.bool_(False), math.nan, math.inf, -math.inf],
                         ids=["list", "str", "None", "complex", "huge-int", "huge-negative-int",
                              "unprintable-int", "True", "numpy-bool", "nan", "inf", "-inf"])
def test_phase_shift_rejects_a_phase_that_is_not_a_finite_real(phi):
    with pytest.raises(FockError, match="phase"):
        phase_shift_unitary(FockSpace(2), 0, phi)


@pytest.mark.parametrize("phi", [0, 0.0, -0.0, -math.pi / 2, -3, np.float64(-1e300), 1e300])
def test_phase_shift_takes_any_finite_real_phase(phi):
    n = np.array([0, 1, 0, 1])  # n_1 of FockSpace(2), index by index
    assert np.array_equal(phase_shift_unitary(FockSpace(2), 1, phi).matrix,
                          np.diag(np.exp(1j * phi * n)))


FREDKIN_ROWS = {
    (0, 0, 0): (0, 0, 0),
    (1, 0, 0): (1, 0, 0),
    (0, 1, 0): (0, 1, 0),
    (1, 0, 1): (0, 1, 1),
    (0, 1, 1): (1, 0, 1),
}


def test_fredkin_truth_table():
    space = FockSpace(3)
    f = fredkin_unitary(space, 0, 1, 2).matrix
    for src, dst in FREDKIN_ROWS.items():
        out = f @ ket(space, src)
        assert np.max(np.abs(out - ket(space, dst))) < 1e-12


def test_fredkin_hermitian_involution():
    space = FockSpace(3)
    f = fredkin_unitary(space, 0, 1, 2).matrix
    assert np.max(np.abs(f - f.conj().T)) < 1e-12
    assert np.max(np.abs(f @ f - np.eye(space.dim))) < 1e-12


def test_fredkin_is_permutation_with_phases_and_matches_composition():
    space = FockSpace(3)
    f = fredkin_unitary(space, 0, 1, 2).matrix
    b = beamsplitter_unitary(space, 0, 1).matrix
    k = kerr_unitary(space, 1, 2).matrix
    assert np.max(np.abs(f - b.conj().T @ k @ b)) < 1e-12
    for col in range(space.dim):
        mags = np.abs(f[:, col])
        assert abs(mags.max() - 1.0) < 1e-12
        assert mags.sum() - mags.max() < 1e-12  # single target per column


def test_noisy_fredkin_zero_phase_equals_fredkin():
    space = FockSpace(3)
    f = fredkin_unitary(space, 0, 1, 2).matrix
    v0 = noisy_fredkin_sample(space, 0, 1, 2, 0.0).matrix
    assert np.max(np.abs(f - v0)) < 1e-12


@pytest.mark.parametrize("eps", [0.7, -1.3, 2.9])
def test_noisy_fredkin_rows_with_phases(eps):
    space = FockSpace(3)
    v = noisy_fredkin_sample(space, 0, 1, 2, eps).matrix
    e = np.exp(1j * eps)
    expected_rows = {
        (0, 0, 0): {(0, 0, 0): 1.0},
        (1, 0, 0): {(1, 0, 0): (1 + e) / 2, (0, 1, 0): (1 - e) / 2},
        (0, 1, 0): {(1, 0, 0): (1 - e) / 2, (0, 1, 0): (1 + e) / 2},
        (1, 0, 1): {(1, 0, 1): e * (1 - e) / 2, (0, 1, 1): e * (1 + e) / 2},
        (0, 1, 1): {(1, 0, 1): e * (1 + e) / 2, (0, 1, 1): e * (1 - e) / 2},
    }
    for src, amps in expected_rows.items():
        expected = np.zeros(space.dim, dtype=complex)
        for occ, a in amps.items():
            expected[index_of(space, occ)] = a
        assert np.max(np.abs(v @ ket(space, src) - expected)) < 1e-12


@given(eps=st.floats(-6.0, 6.0, allow_nan=False))
def test_noisy_fredkin_unitary_for_any_phase(eps):
    space = FockSpace(3)
    v = noisy_fredkin_sample(space, 0, 1, 2, eps).matrix
    assert np.max(np.abs(v.conj().T @ v - np.eye(space.dim))) < 1e-12

