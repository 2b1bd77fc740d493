"""Logical-qubit layouts on the chain and their blockade-cancellation residual.

A layout assigns each chain site to a logical qubit (one spin, or a
pair with |0>_L = |01> and |1>_L = |10>) or to a blockade frozen in a
fixed state.  The residual of a layout is computed exactly on Python
integers, so this module needs only the standard library and the
``blockade-check`` subcommand runs without numpy.
"""

from __future__ import annotations

import math
import operator

from . import LAYOUT_BYTES_CAP, _Frozen

#: Peak bytes of the Python tuples that describe one site of a built layout;
#: each builder charges them against ``LAYOUT_BYTES_CAP`` before it builds.
SITE_BYTES = 160
#: Bytes ``verify_blockade_cancellation`` charges per held state (key tuple,
#: dict slot, pair of extreme sums; plus 8 per spin of the key and 8 per 30
#: bits of the sums): 1.3-2.1x the peak tracemalloc bytes on the checks with
#: 24-30 orders that held 512-32768 states (CPython 3.11).
STATE_BYTES = 384
#: Steps ``verify_blockade_cancellation`` may take over a whole chain: one per
#: order of each state carried into a site (140-290 ns each for 12-26 orders
#: on a 2-core x86-64 VM, so about 5 s at most; 1-3 orders, up to 1.7 us a
#: step, are bounded first by their sites).
STEPS_CAP = 2**24


class LogicalLayout(_Frozen):
    """Assignment of chain sites to logical qubits and frozen blockades.

    ``qubit_sites`` holds one tuple per logical qubit (two sites for the
    pair encoding, one for the single-spin encoding); ``blockade_sites``
    holds (site, frozen_bit) entries.  Together they partition 1..N.
    """

    __slots__ = ("n_logical", "m", "qubit_sites", "blockade_sites")

    def __init__(self, n_logical: int, m: int, qubit_sites: tuple, blockade_sites: tuple) -> None:
        sites = [s for pair in qubit_sites for s in pair]
        sites.extend(s for s, _ in blockade_sites)
        sites.sort()  # in place: a copy would pass the builders' SITE_BYTES
        if not sites or any(map(operator.ne, sites, range(1, len(sites) + 1))):
            raise ValueError("qubit and blockade sites must partition 1..N")
        if len(qubit_sites) != n_logical:
            raise ValueError("qubit_sites length must equal n_logical")
        if any(bit not in (0, 1) for _, bit in blockade_sites):
            raise ValueError("frozen states must be 0 or 1")
        self._set(n_logical, m, qubit_sites, blockade_sites)

    @property
    def n_sites(self) -> int:
        return len(self.blockade_sites) + sum(len(p) for p in self.qubit_sites)


def _charge_sites(n_sites: int) -> None:
    if n_sites * SITE_BYTES > LAYOUT_BYTES_CAP:
        raise ValueError(f"a layout of {n_sites} sites exceeds the budget of {LAYOUT_BYTES_CAP} bytes")


def single_spin_layout(n_logical: int) -> LogicalLayout:
    """Single-spin qubits on even sites, alternating frozen blockades.

    The alternating |0>,|1> pattern makes the nearest-neighbor Ising
    field on every qubit vanish; width-1 blocks leave all longer-range
    couplings untouched.
    """
    if n_logical < 1:
        raise ValueError("need at least one logical qubit")
    _charge_sites(2 * n_logical + 1)
    qubits = tuple((2 * i,) for i in range(1, n_logical + 1))
    blockades = tuple((2 * k - 1, 0 if k % 2 == 1 else 1) for k in range(1, n_logical + 2))
    return LogicalLayout(n_logical, 1, qubits, blockades)


def pair_encoded_layout(n_logical: int, m: int = 2) -> LogicalLayout:
    """Pair-encoded qubits separated by blocks of m blockades, all |0>.

    Width-m blocks cancel every Ising order up to m on the logical
    subspace; m = 2 with two qubits reproduces the canonical ten-spin
    verification chain with pairs on sites (3,4) and (7,8).
    """
    if n_logical < 1 or m < 1:
        raise ValueError("need n_logical >= 1 and m >= 1")
    _charge_sites((n_logical + 1) * m + 2 * n_logical)
    qubits = []
    blockades = []
    site = 1
    for _ in range(m):
        blockades.append((site, 0))
        site += 1
    for _ in range(n_logical):
        qubits.append((site, site + 1))
        site += 2
        for _ in range(m):
            blockades.append((site, 0))
            site += 1
    return LogicalLayout(n_logical, m, tuple(qubits), tuple(blockades))


def layout_choices(layout: LogicalLayout) -> list:
    """Per-site sigma^z choices of the logical basis patterns; a pair's second
    site is None, the negation of its first (|0>_L = |01>)."""
    values = [(-1, 1)] * layout.n_sites
    for site, bit in layout.blockade_sites:
        values[site - 1] = (2 * bit - 1,)
    for pair in layout.qubit_sites:
        if len(pair) == 2:
            values[pair[1] - 1] = None
    return values


def state_counts(layout: LogicalLayout, width: int) -> list:
    """States the residual walk holds after each site, for a window of
    ``width`` >= 1 sites: 2^(logical qubits with a site among the last
    ``width`` sites), since each such qubit doubles the window's sigma^z
    patterns and nothing else varies in it."""
    owner = [None] * layout.n_sites
    for q, sites in enumerate(layout.qubit_sites):
        for site in sites:
            owner[site - 1] = q
    inside: dict = {}  # qubit -> its sites in the window
    counts = []
    for i, q in enumerate(owner):
        if q is not None:
            inside[q] = inside.get(q, 0) + 1
        if i >= width and owner[i - width] is not None:  # site i - width leaves
            gone = owner[i - width]
            inside[gone] -= 1
            if not inside[gone]:
                del inside[gone]
        counts.append(1 << len(inside))
    return counts


def check_residual_budget(layout: LogicalLayout, couplings) -> tuple[list, int]:
    """Check a residual walk against ``LAYOUT_BYTES_CAP`` and ``STEPS_CAP``
    before it runs, from its ``state_counts``; raises ``ValueError`` past
    either budget and for empty or non-finite couplings.

    Returns the integer weights of the walk, J_K first for a window of
    K = min(len(couplings), n_sites - 1) sites (at least 1), and the one
    power-of-two denominator that scales the couplings to them.
    """
    couplings = [float(j) for j in couplings]
    if not couplings:
        raise ValueError("need at least one coupling order")
    if not all(map(math.isfinite, couplings)):
        raise ValueError("couplings must be finite")
    width = max(1, min(len(couplings), layout.n_sites - 1))  # longer orders pair no sites
    ratios = [j.as_integer_ratio() for j in couplings[:width][::-1]]  # J_K first, as the state
    den = max(d for _, d in ratios)
    weights = [p * (den // d) for p, d in ratios]
    state_bytes = STATE_BYTES + 8 * width + (layout.n_sites * sum(map(abs, weights))).bit_length() // 30 * 8
    held, steps = 1, 0  # the zero state before site 1
    for count in state_counts(layout, width):
        if (held + count) * state_bytes > LAYOUT_BYTES_CAP:
            raise ValueError(f"the reachable states exceed the budget of {LAYOUT_BYTES_CAP} bytes")
        steps += held * width
        if steps > STEPS_CAP:
            raise ValueError(f"the reachable states exceed the budget of {STEPS_CAP} steps")
        held = count
    return weights, den


def _walk(layout: LogicalLayout, weights: list):
    """Yield the walk's states after each site: for each sigma^z of the last
    ``len(weights)`` sites, the largest and smallest energy reaching it."""
    states = {(0,) * len(weights): (0, 0)}  # zero spins before site 1
    for choices in layout_choices(layout):
        nxt: dict = {}
        for state, (hi, lo) in states.items():
            field = sum(map(operator.mul, weights, state))
            head = state[1:]
            for c in choices or (-state[-1],):
                key = head + (c,)
                e = c * field
                old = nxt.get(key)
                nxt[key] = (hi + e, lo + e) if old is None else (max(old[0], hi + e), min(old[1], lo + e))
        states = nxt
        yield states


def verify_blockade_cancellation(layout: LogicalLayout, couplings) -> float:
    """Residual uncancelled Ising energy on the logical subspace.

    ``couplings`` lists J_k by order (J_1 nearest-neighbor, J_2
    next-nearest, ...).  The residual is half the spread of the frozen
    energy sum_k J_k sum_i s_i s_{i+k} over the logical basis patterns (the
    norm of the restricted operator after removing the best constant),
    rounded once from exact integers: the couplings are scaled by one
    power-of-two denominator, and a walk along the sites keeps, for each
    sigma^z of the last K sites, the largest and smallest energy reaching
    it.  Canonical layouts, which cancel all orders up to the block width,
    give exactly 0.0.  Raises ``ValueError`` before the walk when it would
    pass ``LAYOUT_BYTES_CAP`` bytes or ``STEPS_CAP`` steps
    (``check_residual_budget``), and when the residual overflows.
    """
    weights, den = check_residual_budget(layout, couplings)
    for states in _walk(layout, weights):
        pass  # only the states after the last site are needed
    hi = max(h for h, _ in states.values())
    lo = min(low for _, low in states.values())
    try:
        return (hi - lo) / (2 * den)
    except OverflowError:
        raise ValueError("the couplings overflow the residual") from None
