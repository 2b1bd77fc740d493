"""sigma^z patterns, their integer Ising sums, and phase-set distances.

Basis convention used across the package: site 1 is the most significant
bit of the basis index, ``|1>`` is the ``sigma^z = +1`` eigenstate and
``|0>`` the ``-1`` eigenstate, so the occupation operator is
``n = (1 + sigma^z) / 2``.  All energies are in units with hbar = 1.
The dense Pauli algebra these closed forms replace is in ``oracles``.
"""

from __future__ import annotations

import numpy as np

#: Largest number of spins whose sigma^z patterns are enumerated (2**20 rows).
PATTERN_CAP = 20


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
