"""Capacitively coupled charge-qubit arrays as effective Ising chains.

An array of identical Cooper-pair boxes with gate capacitance C_g,
junction capacitance C_J, and inter-box coupling capacitance C_c has a
tridiagonal capacitance matrix whose inverse decays exponentially off
the diagonal.  Expanding the charging energy
H = (2e)^2 / 2 * (n - n_g)^T C^{-1} (n - n_g) with n_i = (1 + Z_i)/2
turns each inverse entry into an always-on Ising coupling of the
matching range; at the degeneracy point n_g = 1/2 no linear fields
survive.  C is held as its diagonal and off-diagonal, and every entry
of C^{-1} comes in closed form from two O(n) pivot recurrences, so the
module runs on the standard library alone.
"""

from __future__ import annotations

import math
import sys
import warnings
from array import array
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from itertools import accumulate, repeat
from operator import add, mul

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
        for name, value in (("c_g", c_g), ("c_j", c_j), ("c_c", c_c)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if c_g <= 0 or c_j <= 0:
            raise ValueError("on-site capacitances must be positive")
        if 1.0 / (c_g + c_j) == math.inf:  # 1 / C_0 bounds every |C^-1_ij|
            raise ValueError(f"c_g + c_j = {c_g + c_j!r} is too small: its reciprocal overflows")
        if c_c < 0:
            raise ValueError("coupling capacitance must be nonnegative")
        if gate_charges is not None:
            gate_charges = tuple(float(v) for v in gate_charges)
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


#: The decimal arithmetic of the pivots: 40 digits (about 133 bits), so that each float
#: taken from it is rounded once, from a value good far past its last bit, and an exponent
#: range that no product of ratios leaves.
_DECIMAL = Context(prec=40, Emin=MIN_EMIN, Emax=MAX_EMAX)


def _pivots(diag, off) -> tuple:
    """The off-diagonal b of a symmetric tridiagonal matrix with diagonal a, as
    decimals, and its forward pivots delta_0 = a_0, delta_i = a_i - b_{i-1}^2 /
    delta_{i-1} and backward pivots d_{n-1} = a_{n-1}, d_i = a_i - b_i^2 / d_{i+1},
    in the current decimal context.  A zero pivot, as a singular matrix has,
    raises ``ArithmeticError``."""
    a, b = [Decimal(v) for v in diag], [Decimal(v) for v in off]
    forward = [a[0]]
    for ai, bi in zip(a[1:], b):
        forward.append(ai - bi * bi / forward[-1])
    backward = [a[-1]]
    for ai, bi in zip(a[-2::-1], b[::-1]):
        backward.append(ai - bi * bi / backward[-1])
    return b, forward, backward[::-1]


def _split(d: Decimal) -> tuple[float, int]:
    """A nonzero decimal as m * 2**e with 0.5 <= |m| < 1, m a float: no float range limits it."""
    e = int(d.adjusted() * 3.321928094887362)  # about log2 |d|
    m, k = math.frexp(float(d / Decimal(2) ** e))
    return m, e + k


def _restart(product: Decimal, ratio: Decimal) -> Decimal:
    # a zero ratio ends a block of C (a zero coupling); the product starts again after it
    return product * ratio if ratio else Decimal(1)


def _closed_form(diag, off) -> tuple:
    """The floats that entry (i, j >= i) of C^{-1} is built from: C^{-1}_ii, the
    split C^{-1}_ii / P_i and P_j, and the end of row i's block."""
    n = len(diag)
    with localcontext(_DECIMAL):
        b, forward, backward = _pivots(diag, off)
        diagonal = [1 / (p - bi * bi / d) for p, bi, d in zip(forward, b, backward[1:])]
        diagonal.append(1 / forward[-1])
        ratios = [-bi / d for bi, d in zip(b, backward[1:])]
        prefix = list(accumulate(ratios, _restart, initial=Decimal(1)))
        mantissas, exponents = zip(*map(_split, prefix))
        scales = [_split(x / p) for x, p in zip(diagonal, prefix)]
        ends = [n]  # ends[i]: the first column past row i's block
        for m in range(n - 1, 0, -1):
            ends.append(m if not ratios[m - 1] else ends[-1])
        return [float(x) for x in diagonal], scales, mantissas, exponents, ends[::-1]


def invert_capacitance(c: tuple) -> array:
    """C^{-1} of a symmetric tridiagonal C = (diagonal, off-diagonal) as one
    row-major ``array('d')`` of n^2 entries, with a residual certificate
    C C^{-1} = I to 1e-12.

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
    copied from the upper one, so C^{-1} is exactly symmetric.  The
    certificate takes every entry of C C^{-1} from C's three diagonals.

    Malformed input, or a zero pivot, as a singular C has, raises
    ``ValueError``; a failed residual certificate raises ``InvariantViolation``.
    """
    diag, off = c
    n = len(diag)
    if n == 0 or len(off) != n - 1:
        raise ValueError("capacitance matrix must be square")
    try:
        diagonal, scales, mantissas, exponents, ends = _closed_form(diag, off)
    except ArithmeticError:
        raise ValueError("capacitance matrix is singular") from None
    inv = array("d", [0.0]) * (n * n)
    for i, ((m, e), end) in enumerate(zip(scales, ends)):
        row = array("d", map(math.ldexp, map(mul, repeat(m), mantissas[i + 1 : end]),
                             map(add, repeat(e), exponents[i + 1 : end])))
        inv[i * n + i] = diagonal[i]
        inv[i * n + i + 1 : i * n + end] = row
        inv[(i + 1) * n + i : end * n : n] = row  # column i below the diagonal
    residual = _residual(diag, off, inv)
    if not residual <= 1e-12:
        raise InvariantViolation(f"inversion residual {residual:.3e} exceeds 1e-12 (ill-conditioned input)")
    return inv


def _residual(diag, off, inv) -> float:
    """max |C C^{-1} - I| over all n^2 entries, row i of C C^{-1} being
    b_{i-1} C^{-1}[i-1] + a_i C^{-1}[i] + b_i C^{-1}[i+1]; nan if any entry is."""
    n = len(diag)
    zero = array("d", [0.0]) * n
    coupling = [0.0, *off, 0.0]
    above, here = zero, inv[:n]
    worst = 0.0
    for i in range(n):
        below = inv[(i + 1) * n : (i + 2) * n] or zero
        p, a, q = coupling[i], diag[i], coupling[i + 1]
        row = [p * x + a * y + q * z for x, y, z in zip(above, here, below)]
        row[i] -= 1.0
        if math.isnan(sum(row)):  # max() passes over a nan
            return math.nan
        worst = max(worst, max(map(abs, row)))
        above, here = here, below
    return worst


def decay_check(c_inv: array, eps: float) -> tuple[tuple, bool]:
    """Consecutive off-diagonal ratios of the central row against eps.

    Takes C^{-1} row-major, as ``invert_capacitance`` returns it.  Returns
    the ratios |C^{-1}[i0, i0+k+1] / C^{-1}[i0, i0+k]| and whether each
    lies in the band [(1 - 5 eps) eps, (1 + 5 eps) eps].  Edge rows are
    asymmetric and excluded by construction.
    """
    n = math.isqrt(len(c_inv))
    if n < 5:
        raise ValueError("decay check needs at least five boxes")
    i0 = (n - 1) // 2  # central row, 0-based
    row = c_inv[i0 * n : (i0 + 1) * n]
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


def extract_couplings(spec: JosephsonArraySpec, c_inv: array, units: str = "reduced") -> CouplingReport:
    """Ising couplings from the charging-energy quadratic form.

    With n_i = (1 + Z_i)/2 the pair (i, j) term collects the (i, j) and
    (j, i) entries of C^{-1} (row-major, as ``invert_capacitance`` returns
    it) into (2e)^2 C^{-1}_{ij} / 4 * Z_i Z_j; gate charges away from 1/2
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
    if len(c_inv) != n * n:
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
        by_order[k] = e2 * c_inv[i0 * n + i0 + k] / 4.0
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
