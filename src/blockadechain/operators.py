"""Pauli-string operators, unitary propagators, and spectral-norm distances.

Basis convention used across the package: site 1 is the most significant
bit of the basis index, ``|1>`` is the ``sigma^z = +1`` eigenstate and
``|0>`` the ``-1`` eigenstate, so the occupation operator is
``n = (1 + sigma^z) / 2``.  All energies are in units with hbar = 1.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

#: Largest register realized as a dense 2^N x 2^N matrix.
DIMENSION_CAP = 14
#: Largest number of spins whose sigma^z patterns are enumerated (2**20 rows).
PATTERN_CAP = 20

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10

# i**k for the number k of Y letters in a Pauli string, exact in both parts
_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def spin_patterns(n: int) -> np.ndarray:
    """sigma^z of every site for all 2^n basis codes, shape (2^n, n), int8.

    Row c holds the pattern of basis index c: site 1 is the most
    significant bit and a set bit is ``sigma^z = +1``.
    """
    if n > PATTERN_CAP:
        raise ValueError(f"2**{n} patterns exceed the enumeration cap of 2**{PATTERN_CAP}")
    codes = np.arange(2**n, dtype=np.int64)
    s = np.empty((codes.size, n), dtype=np.int8, order="F")
    for j in range(n):
        s[:, j] = 2 * ((codes >> (n - 1 - j)) & 1) - 1
    return s


def order_sums(s: np.ndarray, k: int) -> np.ndarray:
    """Integer Ising order-k sum ``sum_i s_i s_{i+k}`` of every pattern row."""
    out = np.zeros(s.shape[0], dtype=np.int64)
    for i in range(s.shape[1] - k):
        out += s[:, i] * s[:, i + k]
    return out


def pattern_index(s: np.ndarray) -> np.ndarray:
    """Basis index of every sigma^z pattern row (site 1 most significant)."""
    idx = np.zeros(s.shape[0], dtype=np.int64)
    for j in range(s.shape[1]):
        idx <<= 1
        idx |= s[:, j] > 0
    return idx


class InvariantViolation(RuntimeError):
    """A numerical invariant (unitarity, hermiticity, bound dominance) failed."""


@dataclass(frozen=True)
class PauliTerm:
    """One term ``coefficient * prod_i sigma_i^letter`` of a spin operator.

    ``letters`` maps 1-based site indices to ``'X' | 'Y' | 'Z'``; absent
    sites act as identity.  Coefficients are real so that every term is
    Hermitian.
    """

    coefficient: float
    letters: tuple

    def __init__(self, coefficient: float, letters) -> None:
        coefficient = float(coefficient)
        if not np.isfinite(coefficient):
            raise ValueError("coefficient must be finite")
        if isinstance(letters, Mapping):
            items = letters.items()
        else:
            items = letters
        norm = tuple(sorted((int(s), str(p).upper()) for s, p in items))
        for site, pauli in norm:
            if site < 1:
                raise ValueError(f"site index {site} out of range (sites are 1-based)")
            if pauli not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli letter {pauli!r}")
        if len({s for s, _ in norm}) != len(norm):
            raise ValueError("duplicate site index in Pauli term")
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "letters", norm)

    @property
    def max_site(self) -> int:
        return self.letters[-1][0] if self.letters else 0


@dataclass(frozen=True)
class OperatorSum:
    """Sum of Pauli terms on an N-spin register; always Hermitian."""

    terms: tuple
    n_spins: int

    def __init__(self, terms, n_spins: int) -> None:
        terms = tuple(terms)
        n_spins = int(n_spins)
        if n_spins < 1:
            raise ValueError("n_spins must be positive")
        for term in terms:
            if term.max_site > n_spins:
                raise ValueError(
                    f"term touches site {term.max_site} beyond register size {n_spins}"
                )
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "n_spins", n_spins)

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        if other.n_spins != self.n_spins:
            raise ValueError("cannot add operators on different registers")
        return OperatorSum(self.terms + other.terms, self.n_spins)


@dataclass(frozen=True)
class Propagator:
    """Unitary on the full register, with a certificate check at construction."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("propagator must be a square matrix")
        defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
        if defect > UNITARITY_TOL:
            raise InvariantViolation(f"unitarity defect {defect:.3e} exceeds {UNITARITY_TOL}")
        object.__setattr__(self, "matrix", u)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def realize(op: OperatorSum) -> np.ndarray:
    """Dense Hermitian matrix of an operator sum.

    Each Pauli string maps basis index c to ``c ^ flip`` (X and Y flip
    their bits) with amplitude ``coefficient * i**#Y`` times the sigma^z
    value of every Z and Y site, so no tensor products are formed.
    """
    if op.n_spins > DIMENSION_CAP:
        raise ValueError(
            f"register of {op.n_spins} spins exceeds the dense dimension cap {DIMENSION_CAP}"
        )
    n = op.n_spins
    dim = 2**n
    s = spin_patterns(n)
    cols = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for term in op.terms:
        flip = 0
        sign = np.ones(dim, dtype=np.int8)
        for site, pauli in term.letters:
            if pauli != "Z":
                flip |= 1 << (n - site)
            if pauli != "X":
                sign *= s[:, site - 1]
        n_y = sum(p == "Y" for _, p in term.letters)
        out[cols ^ flip, cols] += term.coefficient * _I_POWERS[n_y % 4] * sign
    defect = np.max(np.abs(out - out.conj().T)) if dim else 0.0
    if defect > 1e-14:
        raise InvariantViolation(f"realized matrix hermiticity defect {defect:.3e}")
    return out


def expm_unitary(h: np.ndarray, t: float) -> Propagator:
    """``exp(-i t H)`` for Hermitian H via eigendecomposition.

    Uses a phase-only path for diagonal H and a real symmetric
    eigensolver when H has no imaginary part.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("H must be a square matrix")
    if not np.all(np.isfinite(h)):
        raise ValueError("H has non-finite entries")
    defect = np.max(np.abs(h - h.conj().T))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"H is not Hermitian (defect {defect:.3e})")

    offdiag = h - np.diag(np.diag(h))
    if not offdiag.any():
        u = np.diag(np.exp(-1j * t * np.real(np.diag(h))))
        return Propagator(u)
    if not h.imag.any():
        w, v = np.linalg.eigh(h.real)
    else:
        w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * t * w)) @ v.conj().T
    return Propagator(u)


def spectral_norm(a) -> float:
    """Largest singular value (the operator 2-norm)."""
    a = a.matrix if isinstance(a, Propagator) else np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.norm(a, ord=2))


def phase_set_distance(phases) -> tuple:
    """Optimal global phase against a set of unit-circle points.

    For diagonal unitaries ``V = diag(e^{i theta_k})`` this returns
    ``(phi*, d*)`` with ``d* = min_phi max_k |1 - e^{i(phi + theta_k)}|``,
    located exactly through the largest circular gap of the phase set.
    A 2-D array holds one phase set per row; ``phi*`` and ``d*`` are
    then arrays with one entry per row, each equal to the call on its row.
    """
    phases = np.asarray(phases, dtype=float)
    p = np.sort(np.mod(np.atleast_2d(phases), 2.0 * np.pi), axis=1)
    if p.shape[1] == 0:
        raise ValueError("empty phase set")
    gaps = np.diff(np.concatenate([p, p[:, :1] + 2.0 * np.pi], axis=1), axis=1)
    g = np.argmax(gaps, axis=1)
    rows = np.arange(p.shape[0])
    width = 2.0 * np.pi - gaps[rows, g]
    start = p[rows, (g + 1) % p.shape[1]]
    centre = start + width / 2.0
    dist = 2.0 * np.sin(width / 4.0)
    phi = (-centre) % (2.0 * np.pi)
    if phases.ndim < 2:
        return float(phi[0]), float(dist[0])
    return phi, dist


def phase_optimized_distance(u, v) -> tuple[float, float]:
    """Minimize ``|| U - e^{i phi} V ||`` over the global phase of V.

    Coarse 512-point grid over [0, 2pi) followed by window refinement
    until the window is narrower than 1e-12.  Returns
    ``(phi*, d*)``; the phase multiplies V, matching the freedom of
    choosing an energy zero point for the realistic evolution.
    """
    u = u.matrix if isinstance(u, Propagator) else np.asarray(u, dtype=complex)
    v = v.matrix if isinstance(v, Propagator) else np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch between U and V")

    def objective(phi: float) -> float:
        return float(np.linalg.norm(u - np.exp(1j * phi) * v, ord=2))

    phis = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    vals = np.array([objective(p) for p in phis])
    best = int(np.argmin(vals))
    step = phis[1] - phis[0]
    lo, hi = phis[best] - step, phis[best] + step
    best_phi, best_val = phis[best], vals[best]
    while hi - lo > 1e-12:
        phis = np.linspace(lo, hi, 33)
        vals = np.array([objective(p) for p in phis])
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best_phi = vals[k], phis[k]
        step = phis[1] - phis[0]
        lo, hi = phis[k] - step, phis[k] + step
    return float(best_phi % (2.0 * np.pi)), float(best_val)
