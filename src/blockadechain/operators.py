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
#: Bytes one blockade-residual check may spend: on its layout's sites
#: (``gates.layout_bytes``) and on the states and sums ``reachable_order_sums`` holds.
LAYOUT_BYTES_CAP = 2**26
#: Bytes ``reachable_order_sums`` charges per state (key tuple, set, dict slot;
#: plus 8 per spin of the key) and per sum (packed int in a set; plus 8 per
#: order and 4 per 30 bits of the int): 1.6-3.2x the peak tracemalloc bytes on
#: the ten layouts with 4-38 orders whose peak passed 1 MiB (CPython 3.11).
STATE_BYTES = 384
SUM_BYTES = 128
#: Steps ``reachable_order_sums`` may take over a whole chain: one per sum
#: carried into a site and per spin of its state (115-363 ns a step measured
#: on a 2-core x86-64 VM, so at most about 6 s).
SUMS_WORK_CAP = 2**24


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


def reachable_order_sums(values, orders) -> np.ndarray:
    """Sorted distinct integer Ising sums (m_k for k in orders) a chain can reach, as int64 rows.

    ``values[i]`` lists the sigma^z choices of site i + 1, or is None to
    force the negation of the site before it.  A dynamic program along the
    sites: the state is the sigma^z of the last max(orders) sites, mapped
    to its reachable partial sums, each tuple packed into one int (base
    2N + 1 per order, offset N, first order most significant, so the ints
    sort as the tuples).  Raises ``ValueError`` past ``LAYOUT_BYTES_CAP``
    bytes or ``SUMS_WORK_CAP`` steps.
    """
    n, width = len(values), max(orders)
    base = 2 * n + 1
    weights = [base ** (len(orders) - 1 - i) for i in range(len(orders))]
    state_bytes = STATE_BYTES + 8 * width
    sum_bytes = SUM_BYTES + 8 * len(orders) + (base ** len(orders)).bit_length() // 7
    states = {(0,) * width: {n * sum(weights)}}  # zero spins before site 1
    held, work = 1, 0
    for choices in values:
        nxt: dict = {}
        new = 0
        for state, sums in states.items():
            field = sum(w * state[-k] for k, w in zip(orders, weights))
            for c in choices or (-state[-1],):
                target = nxt.setdefault(state[1:] + (c,), set())
                new -= len(target)
                target.update([x + c * field for x in sums])
                new += len(target)
                work += len(sums) + width
            if (len(states) + len(nxt)) * state_bytes + (held + new) * sum_bytes > LAYOUT_BYTES_CAP:
                raise ValueError(f"the reachable sums exceed the budget of {LAYOUT_BYTES_CAP} bytes")
            if work > SUMS_WORK_CAP:
                raise ValueError(f"the reachable sums exceed the budget of {SUMS_WORK_CAP} steps")
        states, held = nxt, new
    packed = sorted(set().union(*states.values()))
    out = np.empty((len(packed), len(orders)), dtype=np.int64)
    for i, w in enumerate(weights):
        out[:, i] = [p // w % base - n for p in packed]
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
