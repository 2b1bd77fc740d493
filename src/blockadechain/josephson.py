"""Capacitively coupled charge-qubit arrays as effective Ising chains.

An array of identical Cooper-pair boxes with gate capacitance C_g,
junction capacitance C_J, and inter-box coupling capacitance C_c has a
tridiagonal capacitance matrix whose inverse decays exponentially off
the diagonal.  Expanding the charging energy
H = (2e)^2 / 2 * (n - n_g)^T C^{-1} (n - n_g) with n_i = (1 + Z_i)/2
turns each inverse entry into an always-on Ising coupling of the
matching range; at the degeneracy point n_g = 1/2 no linear fields
survive.  C is held as its diagonal and off-diagonal, and C^{-1} as the
O(n) factors of its closed form from two pivot recurrences (``_inverse``),
which make each row when it is read, so the module runs on the standard
library alone and holds no n x n array.
"""

from __future__ import annotations

import math
import sys
import warnings
from array import array
from collections import namedtuple
from decimal import Decimal, localcontext

from . import InvariantViolation, _Frozen, _float, _is_int, _isfinite
from ._inverse import _DECIMAL, CapacitanceInverse, _closed_form, _pivots, _residual
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
        if not _is_int(n_boxes):
            raise ValueError("n_boxes must be an integer")
        if n_boxes < 2:
            raise ValueError("need at least two boxes")
        for name, value in (("c_g", c_g), ("c_j", c_j), ("c_c", c_c)):
            if not _isfinite(value):
                raise ValueError(f"{name} must be finite")
        if c_g <= 0 or c_j <= 0:
            raise ValueError("on-site capacitances must be positive")
        if 1.0 / (c_g + c_j) == math.inf:  # 1 / C_0 bounds every |C^-1_ij|
            raise ValueError(f"c_g + c_j = {c_g + c_j!r} is too small: its reciprocal overflows")
        if c_c < 0:
            raise ValueError("coupling capacitance must be nonnegative")
        if gate_charges is not None:
            gate_charges = tuple(map(_float, gate_charges))
            if len(gate_charges) != n_boxes:
                raise ValueError("gate_charges length must equal n_boxes")
            if not all(map(math.isfinite, gate_charges)):
                raise ValueError("gate_charges must be finite")
        epsilon = c_c / (c_g + c_j)  # as the epsilon property computes it
        if epsilon >= 1.0:
            raise ValueError("coupling capacitance must stay below the on-site capacitance")
        if not math.isfinite((c_g + c_j) * (1.0 + 2.0 * epsilon)):  # C's largest entry, its interior diagonal
            raise ValueError(f"c_g + c_j = {c_g + c_j!r} is too large: C's diagonal C_0 (1 + 2 epsilon) overflows")
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

    def gate_charge_vector(self) -> tuple:
        if self.gate_charges is None:
            return (0.5,) * self.n_boxes
        return self.gate_charges


class CouplingReport(namedtuple(
    "CouplingReport",
    "couplings_by_order decay_ratios decay_in_band decay_in_regime effective_chain "
    "residual_bound linear_coeffs",
)):
    """Inverse-capacitance couplings of an array, by order, and its linear fields.

    Energies are in units of (2e)^2 / C_0 (reduced mode, the default)
    or joules (SI mode).  The Z_i Z_j coefficient of boxes i < j is
    (2e)^2 C^{-1}_ij / 4; ``couplings_by_order`` picks the central-row
    representative per order; ``residual_bound`` is the largest coupling
    of order >= 3, the part no width-2 blockade cancels;
    ``linear_coeffs`` holds the Z_i fields as an ``array('d')``.
    """

    __slots__ = ()


def build_capacitance_matrix(spec: JosephsonArraySpec) -> tuple[array, array]:
    """Tridiagonal capacitance matrix with edge-corrected diagonals, as its
    diagonal and off-diagonal, two ``array('d')``.

    Interior diagonal C_0 (1 + 2 eps), edges C_0 (1 + eps), off-diagonal
    -C_0 eps; symmetric positive definite for eps < 1.
    """
    n = spec.n_boxes
    c0, eps = spec.c0, spec.epsilon
    diag = array("d", [c0 * (1.0 + 2.0 * eps)]) * n
    diag[0] = diag[n - 1] = c0 * (1.0 + eps)
    return diag, array("d", [-c0 * eps]) * (n - 1)


def invert_capacitance(c: tuple) -> CapacitanceInverse:
    """C^{-1} of a symmetric tridiagonal C = (diagonal, off-diagonal) as a
    ``CapacitanceInverse``: O(n) factors that make each row when it is read, with a
    residual certificate C C^{-1} = I to 1e-12 kept as its ``residual``.

    Each entry is in closed form from the forward pivots delta and the
    backward pivots d (G. Meurant, SIAM J. Matrix Anal. Appl. 13(3), 1992):
    the diagonal entry is 1 / (a_i - b_{i-1}^2 / delta_{i-1} - b_i^2 / d_{i+1}),
    and row i right of it is that entry times the running product of the
    ratios r_j = -b_{j-1} / d_j, up to the first zero ratio.  The pivots, the
    diagonal and the prefix products P_j = r_1 ... r_j are computed in
    40-digit decimal arithmetic, and entry (i, j) is one float product of
    C^{-1}_ii / P_i and P_j, each rounded once, scaled by a power of two: it
    lies within 1.5 ulp of the exact inverse however far it is from the
    diagonal, and the diagonal itself is rounded once.  The lower triangle is
    read from the upper one, so C^{-1} is exactly symmetric.  The certificate
    takes every entry of C C^{-1} from C's three diagonals, three rows of
    C^{-1} at a time, so no n x n array is held.

    Malformed input, or a zero pivot, as a singular C has, raises
    ``ValueError``; a failed residual certificate raises ``InvariantViolation``.
    """
    diag, off = c
    n = len(diag)
    if n == 0 or len(off) != n - 1:
        raise ValueError("capacitance matrix must be square")
    try:
        factors = _closed_form(diag, off)
    except ArithmeticError:
        raise ValueError("capacitance matrix is singular") from None
    inv = CapacitanceInverse(*factors)
    residual = _residual(diag, off, inv)
    if not residual <= 1e-12:
        raise InvariantViolation(f"inversion residual {residual:.3e} exceeds 1e-12 (ill-conditioned input)")
    inv.residual = residual
    return inv


def decay_check(c_inv: CapacitanceInverse, eps: float) -> tuple[tuple, bool]:
    """Consecutive off-diagonal ratios of the central row against eps.

    Takes C^{-1} as ``invert_capacitance`` returns it and reads its central
    row.  Returns the ratios |C^{-1}[i0, i0+k+1] / C^{-1}[i0, i0+k]| and
    whether each lies in the band [(1 - 5 eps) eps, (1 + 5 eps) eps].  Edge
    rows are asymmetric and excluded by construction.
    """
    n = c_inv.n
    if n < 5:
        raise ValueError("decay check needs at least five boxes")
    i0 = (n - 1) // 2  # central row, 0-based
    row = c_inv.row(i0)
    scale = abs(row[i0])
    ratios = []
    for k in range(0, n - 1 - i0):
        denom = row[i0 + k]
        numer = row[i0 + k + 1]
        if abs(denom) < 1e3 * sys.float_info.min or abs(denom) < 1e-15 * scale:
            break
        ratios.append(abs(numer / denom))
    lo, hi = (1.0 - 5.0 * eps) * eps, (1.0 + 5.0 * eps) * eps
    in_band = all(lo <= r <= hi for r in ratios)
    return tuple(ratios), in_band


def extract_couplings(spec: JosephsonArraySpec, c_inv: CapacitanceInverse, units: str = "reduced") -> CouplingReport:
    """Ising couplings from the charging-energy quadratic form.

    With n_i = (1 + Z_i)/2 the pair (i, j) term collects the (i, j) and
    (j, i) entries of C^{-1} (as ``invert_capacitance`` returns it, read
    one ``entry`` per order and the central ``row`` for the decay check)
    into (2e)^2 C^{-1}_{ij} / 4 * Z_i Z_j; gate charges away from 1/2
    additionally produce linear fields (2e)^2 / 2 * [C^{-1} (1/2 - n_g)]_i,
    which come from an O(n) tridiagonal solve on C's forward pivots.  The
    emitted chain takes the central-row nearest and next-nearest couplings
    and reuses |J1| as the nominal XY tuning range of the coupling elements.
    """
    if units == "reduced":
        e2 = spec.c0  # makes (2e)^2 / C_0 the energy unit
    elif units == "si":
        e2 = COOPER_PAIR_CHARGE_SQ
    else:
        raise ValueError("units must be 'reduced' or 'si'")
    n = spec.n_boxes
    if c_inv.n != n:
        raise ValueError("inverse matrix size does not match the array")

    # C x = 1/2 - n_g by elimination with the forward pivots, then back substitution
    with localcontext(_DECIMAL):
        b, forward, _ = _pivots(*build_capacitance_matrix(spec))
        x = [Decimal(0.5 - q) for q in spec.gate_charge_vector()]
        for i in range(1, n):
            x[i] -= b[i - 1] / forward[i - 1] * x[i - 1]
        x[-1] /= forward[-1]
        for i in range(n - 2, -1, -1):
            x[i] = (x[i] - b[i] * x[i + 1]) / forward[i]
        linear = array("d", [float(Decimal(e2) / 2 * v) for v in x])

    by_order = {}
    for k in range(1, n):
        i0 = (n - k - 1) // 2  # centers the representative pair
        by_order[k] = e2 * c_inv.entry(i0, i0 + k) / 4.0
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
        residual_bound=residual,
        linear_coeffs=linear,
    )
