"""Error-correction strategies: dual-rail legality and projective correction.

Dual-rail legality: each rail pair carries exactly one photon, so |01> and
|10> per pair are legal while |00>/|11> herald a lost or doubled photon.

Projective correction exploits a priori knowledge of the mid-computation
state: right after the first gate the noise-free machine is, for either
switch setting, inside the two-dimensional span of

    psi0 = (|0101> + |1010>)/sqrt(2)
    psi1 = (|0101> + 2|0110> - |1010>)/sqrt(6)

(labels are modes a, b, c, d; a fifth vacuum mode may trail).  Projecting
onto that span and renormalizing discards detectable phase errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    DensityOperator,
    FockError,
    FockSpace,
    LinearOperator,
    apply_unitary,
    basis_pure,
    check_strength,
    index_of,
    occupation_table,
)

DUAL_RAIL_PAIRS = ((0, 1), (2, 3))


class ZeroAcceptanceError(FockError):
    """Post-selection accepted zero probability mass; conditional stats undefined."""


@lru_cache(maxsize=None)
def legal_mask(space: FockSpace) -> np.ndarray:
    """Read-only boolean per basis index: True where each rail pair holds one photon.

    The one definition of dual-rail legality; ``machine.readout_error``
    post-selects on it.
    """
    if space.n_modes < 4:
        raise FockError("dual-rail legality needs at least the four rail modes")
    table = occupation_table(space)
    legal = np.ones(space.dim, dtype=bool)
    for i, j in DUAL_RAIL_PAIRS:
        legal &= table[:, i] + table[:, j] == 1
    legal.setflags(write=False)
    return legal


def _embed(space: FockSpace, weights: dict[tuple[int, ...], float]) -> np.ndarray:
    """Amplitude vector for a combination of a-d occupations, vacuum elsewhere."""
    amps = np.zeros(space.dim, dtype=complex)
    pad = (0,) * (space.n_modes - 4)
    for occ4, w in weights.items():
        amps[index_of(space, occ4 + pad)] = w
    return amps


def legal_basis(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal basis (psi0, psi1) of the legal span, embedded in ``space``."""
    if space.n_modes < 4:
        raise FockError("legal subspace needs at least the four rail modes")
    psi0 = _embed(space, {(0, 1, 0, 1): 1 / math.sqrt(2), (1, 0, 1, 0): 1 / math.sqrt(2)})
    psi1 = _embed(space, {(0, 1, 0, 1): 1 / math.sqrt(6), (0, 1, 1, 0): 2 / math.sqrt(6),
                          (1, 0, 1, 0): -1 / math.sqrt(6)})
    return psi0, psi1


@lru_cache(maxsize=None)
def legal_projector(space: FockSpace) -> np.ndarray:
    """Read-only projector onto the two-dimensional legal span."""
    psi0, psi1 = legal_basis(space)
    proj = np.outer(psi0, psi0.conj()) + np.outer(psi1, psi1.conj())
    proj.setflags(write=False)
    return proj


def _project(matrices: np.ndarray, projector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project each matrix of a (G, dim, dim) stack, renormalize, and report the acceptances."""
    out = projector @ matrices @ projector.conj().T
    p_accept = np.trace(out, axis1=-2, axis2=-1).real
    if (p_accept <= 0.0).any():
        raise ZeroAcceptanceError("projection accepted zero mass")
    return out / p_accept[:, None, None], p_accept


def project_onto(rho: DensityOperator, projector: np.ndarray) -> tuple[DensityOperator, float]:
    """Project, renormalize, and report the acceptance probability."""
    out, p_accept = _project(rho.matrix[None], projector)
    return DensityOperator(rho.space, out[0]), float(p_accept[0])


def projective_ec_step(rho: DensityOperator) -> tuple[DensityOperator, float]:
    """Project the mid-computation state onto the legal span and renormalize.

    Only meaningful in a photon-number-preserving (no-loss) context.
    Public as the projection the tests check the fold with (oracles.fold_stages, test_correction).
    """
    return project_onto(rho, legal_projector(rho.space))


def restore_unitary(space: FockSpace) -> LinearOperator:
    """Explicit unitary realization of the legal-span measurement.

    Maps psi0 -> |0101> and psi1 -> |1001> (both carry |01> on the last two
    rail modes), and sends the two orthogonal complement directions of the
    reachable four-state span to kets whose last two labels read |10>.
    Identity elsewhere.  Measuring modes c, d after this unitary and keeping
    outcome (0, 1), then undoing it, reproduces ``projective_ec_step`` on
    reachable states: the measurement cannot distinguish the two accepted
    images, so coherence inside the legal span survives.
    """
    psi0, psi1 = legal_basis(space)
    # Orthogonal complement of the legal span inside the reachable 4-space.
    comp_a = _embed(space, {(0, 1, 0, 1): 1 / math.sqrt(3), (1, 0, 1, 0): -1 / math.sqrt(3),
                            (0, 1, 1, 0): -1 / math.sqrt(3)})
    comp_b = _embed(space, {(1, 0, 0, 1): 1.0})
    targets = [
        _embed(space, {(0, 1, 0, 1): 1.0}),   # cd = 01, accepted
        _embed(space, {(1, 0, 0, 1): 1.0}),   # cd = 01, accepted
        _embed(space, {(0, 1, 1, 0): 1.0}),   # cd = 10, rejected
        _embed(space, {(1, 0, 1, 0): 1.0}),   # cd = 10, rejected
    ]
    sources = [psi0, psi1, comp_a, comp_b]
    u = np.eye(space.dim, dtype=complex)
    # Replace the action on the 4-space: U = sum |target><source| + identity outside.
    span_proj = sum(np.outer(s, s.conj()) for s in sources)
    u = u - span_proj + sum(np.outer(t, s.conj()) for t, s in zip(targets, sources))
    return LinearOperator(space, u)


def projective_ec_step_via_unitary(rho: DensityOperator) -> tuple[DensityOperator, float]:
    """Measurement-based realization: apply U, keep last-two-labels = (0, 1), undo U.

    Channel-identical to ``projective_ec_step`` on states supported in the
    reachable span (asserted by the test suite).
    """
    u = restore_unitary(rho.space)
    table = occupation_table(rho.space)
    keep = np.diag(((table[:, 2] == 0) & (table[:, 3] == 1)).astype(float))
    kept, p_accept = project_onto(apply_unitary(rho, u), keep)
    return apply_unitary(kept, u.dagger), p_accept


def p_noec_closed(gamma: float) -> float:
    """Closed-form wrong-answer probability of the uncorrected lossy machine.

    (1 + e^-gamma - 2 e^(-3 gamma / 2)) / 4; grows as gamma/2 for small loss.
    Written with expm1 as (expm1(-gamma) - 2 expm1(-3 gamma / 2)) / 4, so
    small gamma loses no digits to cancellation.
    """
    check_strength(gamma, "gamma", finite=False)
    return (math.expm1(-gamma) - 2.0 * math.expm1(-1.5 * gamma)) / 4.0


def p_ec_closed(gamma: float) -> float:
    """Closed-form error after dual-rail post-selection.

    (1 - sech(gamma/2)) / 2; grows as gamma^2/16 for small loss.  Written
    without cancellation as sinh^2(gamma/4) / cosh(gamma/2), divided through
    by cosh^2(gamma/4): t^2 / (1 + t^2) with t = tanh(gamma/4), which cannot
    overflow and is exactly 1/2 once tanh rounds to 1.
    """
    check_strength(gamma, "gamma", finite=False)
    t2 = math.tanh(gamma / 4.0) ** 2
    return t2 / (1.0 + t2)


def p_plain_closed(lam: float) -> float:
    """Exact which-path error of the uncorrected dephasing machine: (1 - e^-2lam)/2, via expm1."""
    check_strength(lam, "lam", finite=False)
    return abs(math.expm1(-2 * lam)) / 2  # abs keeps lam = 0 at +0.0


def p_projective_closed(lam: float) -> float:
    """Exact error of the projectively corrected dephasing machine.

    With q = e^-lam:  (1 - q)(6 + 5q) / (6 (2 + q)), whose small-lam series
    starts 11 lam / 18 - 41 lam^2 / 108.  1 - q is taken as |expm1(-lam)|.
    """
    check_strength(lam, "lam", finite=False)
    q = math.exp(-lam)
    return abs(math.expm1(-lam)) * (6.0 + 5.0 * q) / (6.0 * (2.0 + q))


def p_accept_projective_closed(lam: float) -> float:
    """Exact acceptance probability of the projective correction step: (2 + e^-lam)/3."""
    check_strength(lam, "lam", finite=False)
    return (2.0 + math.exp(-lam)) / 3.0


def lossy_gate_output_101(gamma: float) -> np.ndarray:
    """Closed-form output of the lossy gate on |101><101| (modes a, b, c, loss on b, c)."""
    check_strength(gamma, "gamma")
    sp = FockSpace(3)
    surv = math.exp(-gamma)
    half = math.exp(-gamma / 2)

    def ket(occ):
        return basis_pure(sp, occ).amplitudes

    phi01 = (1 + half) * ket((0, 1, 0)) + (1 - half) * ket((1, 0, 0))
    phi10 = (1 + half) * ket((0, 1, 1)) + (1 - half) * ket((1, 0, 1))
    out = (1 - surv) ** 2 / 2 * np.outer(ket((0, 0, 0)), ket((0, 0, 0)).conj())
    out += surv * (1 - surv) / 2 * np.outer(ket((0, 0, 1)), ket((0, 0, 1)).conj())
    out += (1 - surv) / 4 * np.outer(phi01, phi01.conj())
    out += surv / 4 * np.outer(phi10, phi10.conj())
    return out


@dataclass(frozen=True)
class SeriesFit:
    """Quadratic-through-origin fit p = c1 x + c2 x^2 with residual diagnostics."""

    c1: float
    c2: float
    max_rel_residual: float


def fit_series(points: list[tuple[float, float]]) -> SeriesFit:
    """Least-squares fit p = c1 x + c2 x^2 through the origin.

    Intended for small-parameter grids (x <= 0.05) where cubic contamination
    is negligible; ``max_rel_residual`` reports the worst relative misfit so
    callers can decide whether to trust the coefficients.
    """
    if len(points) < 4:
        raise FockError("need at least 4 grid points for a stable quadratic fit")
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    if not np.isfinite([x, y]).all() or np.any(x <= 0) or len(np.unique(x)) < len(x):
        raise FockError("points must be finite and grid values positive and distinct")
    design = np.vstack([x, x ** 2]).T
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coeffs
    scale = np.maximum(np.abs(y), np.finfo(float).tiny)
    max_rel = float(np.max(np.abs(fitted - y) / scale))
    return SeriesFit(float(coeffs[0]), float(coeffs[1]), max_rel)
