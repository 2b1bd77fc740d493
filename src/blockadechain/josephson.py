"""Capacitively coupled charge-qubit arrays as effective Ising chains.

An array of identical Cooper-pair boxes with gate capacitance C_g,
junction capacitance C_J, and inter-box coupling capacitance C_c has a
tridiagonal capacitance matrix whose inverse decays exponentially off
the diagonal.  Expanding the charging energy
H = (2e)^2 / 2 * (n - n_g)^T C^{-1} (n - n_g) with n_i = (1 + Z_i)/2
turns each inverse entry into an always-on Ising coupling of the
matching range; at the degeneracy point n_g = 1/2 no linear fields
survive.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

import numpy as np

from . import InvariantViolation, _Frozen
from .chain import ChainSpec

#: Cooper-pair charge squared, (2e)^2 in coulombs^2, for SI-mode energies.
COOPER_PAIR_CHARGE_SQ = (2.0 * 1.602176634e-19) ** 2

#: epsilon above which the exponential-decay analysis is out of regime.
DECAY_REGIME_EPS = 0.1


class JosephsonArraySpec(_Frozen):
    """Identical-box array parameters; capacitances in arbitrary units
    (set c_g + c_j = 1 for reduced units, farads for SI mode)."""

    __slots__ = ("n_boxes", "c_g", "c_j", "c_c", "gate_charges")

    def __init__(self, n_boxes: int, c_g: float, c_j: float, c_c: float, gate_charges: tuple | None = None) -> None:
        if n_boxes < 2:
            raise ValueError("need at least two boxes")
        if c_g <= 0 or c_j <= 0:
            raise ValueError("on-site capacitances must be positive")
        if c_c < 0:
            raise ValueError("coupling capacitance must be nonnegative")
        if gate_charges is not None:
            gate_charges = tuple(float(v) for v in gate_charges)
            if len(gate_charges) != n_boxes:
                raise ValueError("gate_charges length must equal n_boxes")
        epsilon = c_c / (c_g + c_j)  # as the epsilon property computes it
        if epsilon >= 1.0:
            raise ValueError("coupling capacitance must stay below the on-site capacitance")
        if epsilon > DECAY_REGIME_EPS:
            warnings.warn(
                f"epsilon = {epsilon:.3g} exceeds {DECAY_REGIME_EPS}; "
                "the exponential-decay analysis assumes epsilon << 1",
                stacklevel=2,
            )
        self._set(n_boxes, c_g, c_j, c_c, gate_charges)

    @property
    def c0(self) -> float:
        return self.c_g + self.c_j

    @property
    def epsilon(self) -> float:
        return self.c_c / self.c0

    def gate_charge_vector(self) -> np.ndarray:
        if self.gate_charges is None:
            return np.full(self.n_boxes, 0.5)
        return np.asarray(self.gate_charges, dtype=float)


class CouplingReport(namedtuple(
    "CouplingReport",
    "couplings_by_order decay_ratios decay_in_band decay_in_regime effective_chain "
    "residual_bound zz_matrix linear_coeffs constant",
)):
    """Inverse-capacitance couplings of an array, by order and by pair.

    Energies are in units of (2e)^2 / C_0 (reduced mode, the default)
    or joules (SI mode).  ``zz_matrix[i, j]`` is the Z_i Z_j coefficient
    for i < j; ``couplings_by_order`` picks the central-row
    representative per order; ``residual_bound`` is the largest coupling
    of order >= 3, the part no width-2 blockade cancels.
    """

    __slots__ = ()


def build_capacitance_matrix(spec: JosephsonArraySpec) -> np.ndarray:
    """Tridiagonal capacitance matrix with edge-corrected diagonals.

    Interior diagonal C_0 (1 + 2 eps), edges C_0 (1 + eps), off-diagonal
    -C_0 eps; symmetric positive definite for eps < 1.
    """
    n = spec.n_boxes
    c0, eps = spec.c0, spec.epsilon
    c = np.zeros((n, n))
    np.fill_diagonal(c, c0 * (1.0 + 2.0 * eps))
    c[0, 0] = c[n - 1, n - 1] = c0 * (1.0 + eps)
    idx = np.arange(n - 1)
    c[idx, idx + 1] = c[idx + 1, idx] = -c0 * eps
    return c


def invert_capacitance(c: np.ndarray) -> np.ndarray:
    """Symmetric inverse with a residual certificate C C^{-1} = I to 1e-12.

    Malformed or singular input raises ``ValueError``; a failed residual
    certificate raises ``InvariantViolation``.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("capacitance matrix must be square")
    if np.max(np.abs(c - c.T)) > 1e-12:
        raise ValueError("capacitance matrix must be symmetric")
    try:
        inv = np.linalg.inv(c)
    except np.linalg.LinAlgError as exc:
        raise ValueError("capacitance matrix is singular") from exc
    inv = (inv + inv.T) / 2.0
    r = c @ inv
    r.flat[:: c.shape[0] + 1] -= 1.0  # C C^{-1} - I in place, one n x n temporary
    residual = np.max(np.abs(r, out=r))
    if residual > 1e-12:
        raise InvariantViolation(f"inversion residual {residual:.3e} exceeds 1e-12 (ill-conditioned input)")
    return inv


def decay_check(c_inv: np.ndarray, eps: float) -> tuple[tuple, bool]:
    """Consecutive off-diagonal ratios of the central row against eps.

    Returns the ratios |C^{-1}[i0, i0+k+1] / C^{-1}[i0, i0+k]| and
    whether each lies in the band [(1 - 5 eps) eps, (1 + 5 eps) eps].
    Edge rows are asymmetric and excluded by construction.
    """
    n = c_inv.shape[0]
    if n < 5:
        raise ValueError("decay check needs at least five boxes")
    i0 = (n - 1) // 2  # central row, 0-based
    scale = abs(c_inv[i0, i0])
    ratios = []
    for k in range(0, n - 1 - i0):
        denom = c_inv[i0, i0 + k]
        numer = c_inv[i0, i0 + k + 1]
        if abs(denom) < 1e3 * np.finfo(float).tiny or abs(denom) < 1e-15 * scale:
            break
        ratios.append(abs(numer / denom))
    lo, hi = (1.0 - 5.0 * eps) * eps, (1.0 + 5.0 * eps) * eps
    in_band = all(lo <= r <= hi for r in ratios)
    return tuple(ratios), in_band


def extract_couplings(
    spec: JosephsonArraySpec, c_inv: np.ndarray, units: str = "reduced"
) -> CouplingReport:
    """Ising couplings from the charging-energy quadratic form.

    With n_i = (1 + Z_i)/2 the pair (i, j) term collects the (i, j) and
    (j, i) entries into (2e)^2 C^{-1}_{ij} / 4 * Z_i Z_j; gate charges
    away from 1/2 additionally produce linear fields
    (2e)^2 / 2 * [C^{-1} (1/2 - n_g)]_i.  The emitted chain takes the
    central-row nearest and next-nearest couplings and reuses |J1| as
    the nominal XY tuning range of the coupling elements.
    """
    if units == "reduced":
        e2 = spec.c0  # makes (2e)^2 / C_0 the energy unit
    elif units == "si":
        e2 = COOPER_PAIR_CHARGE_SQ
    else:
        raise ValueError("units must be 'reduced' or 'si'")
    n = spec.n_boxes
    c_inv = np.asarray(c_inv, dtype=float)
    if c_inv.shape != (n, n):
        raise ValueError("inverse matrix size does not match the array")

    zz = e2 * np.triu(c_inv, 1) / 4.0
    d = 0.5 - spec.gate_charge_vector()
    # numpy's own row sums, not a BLAS product, whose sums depend on its thread count
    linear = e2 / 2.0 * np.add.reduce(c_inv * d, axis=1)
    constant = float(e2 / 8.0 * np.trace(c_inv) + e2 / 2.0 * d @ c_inv @ d)

    by_order = {}
    for k in range(1, n):
        i0 = (n - k - 1) // 2  # centers the representative pair
        by_order[k] = float(zz[i0, i0 + k])
    residual = max((abs(v) for o, v in by_order.items() if o >= 3), default=0.0)

    if n >= 5:
        ratios, in_band = decay_check(c_inv, spec.epsilon)
    else:
        ratios, in_band = (), True
    j1 = by_order.get(1, 0.0)
    chain = ChainSpec(n_spins=n, j1=j1, j2=by_order.get(2, 0.0), x1_max=abs(j1))
    return CouplingReport(
        couplings_by_order=by_order,
        decay_ratios=ratios,
        decay_in_band=in_band,
        decay_in_regime=spec.epsilon <= DECAY_REGIME_EPS,
        effective_chain=chain,
        residual_bound=float(residual),
        zz_matrix=zz,
        linear_coeffs=linear,
        constant=constant,
    )
