"""Exact density-matrix simulation of lossy, decohering single-photon logic.

Dual-rail photonic qubits, an optical Fredkin gate built from beamsplitters
and a pi cross-phase Kerr cell, amplitude-damping and Kerr-dephasing noise
channels, the two-switch interferometer machine for the one-bit Deutsch
problem, and the error-correction strategies that go with it.
"""

from .channels import (
    KrausChannel,
    NoiseParams,
    decibels,
    dephased_fredkin_channel,
    lambda_from_physical,
    lossy_fredkin_channel,
)
from .correction import (
    SeriesFit,
    ZeroAcceptanceError,
    fit_series,
    legal_basis,
    legal_mask,
    legal_projector,
    p_accept_projective_closed,
    p_ec_closed,
    p_noec_closed,
    p_projective_closed,
    projective_ec_step,
    projective_ec_step_via_unitary,
    restore_unitary,
)
from .fock import (
    DensityOperator,
    FockError,
    FockSpace,
    LinearOperator,
    OccupationVector,
    PureState,
    apply_unitary,
    basis_density,
    basis_pure,
    index_of,
    marginal_distribution,
    occupation_label,
)
from .gates import (
    beamsplitter_unitary,
    fredkin_unitary,
    kerr_unitary,
    phase_shift_unitary,
)
from .machine import (
    MachineConfig,
    RunResult,
    gate_modes,
    readout_error,
    run,
    run_grid,
    stages,
    which_path_error,
)

__version__ = "0.1.0"
