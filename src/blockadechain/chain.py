"""Chain Hamiltonians and piecewise-constant control evolution.

The model is a 1-D spin-1/2 chain with tunable site fields and bond XY
couplings, a constant nearest-neighbor Ising coupling J1, and an
always-on next-nearest-neighbor Ising coupling J2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .operators import OperatorSum, PauliTerm, Propagator, expm_unitary, realize


@dataclass(frozen=True)
class ChainSpec:
    """Static chain parameters.

    ``x1_max`` is the largest reachable XY matrix element between
    adjacent spins, i.e. twice the largest tunable bond strength.
    """

    n_spins: int
    j1: float
    j2: float
    x1_max: float = 0.0

    def __post_init__(self) -> None:
        if self.n_spins < 2:
            raise ValueError("a chain needs at least two spins")
        for name in ("j1", "j2", "x1_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.x1_max < 0:
            raise ValueError("x1_max must be nonnegative")
        if self.j2 != 0.0 and abs(self.j2) >= abs(self.j1):
            warnings.warn(
                "next-nearest coupling |j2| >= |j1|; outside the weak long-range regime",
                stacklevel=2,
            )


def _as_floats(values, length: int, name: str) -> tuple:
    out = tuple(float(v) for v in values)
    if len(out) != length:
        raise ValueError(f"{name} must have length {length}, got {len(out)}")
    if not all(np.isfinite(out)):
        raise ValueError(f"{name} has non-finite entries")
    return out


@dataclass(frozen=True)
class ControlSegment:
    """One piecewise-constant slice of the controls.

    ``bx``/``bz`` are per-site fields (length N); ``jxy`` holds the bond
    XY strengths J_{i,i+1} (length N-1).
    """

    duration: float
    bx: tuple
    bz: tuple
    jxy: tuple

    def __init__(self, duration: float, bx, bz, jxy) -> None:
        duration = float(duration)
        if not (np.isfinite(duration) and duration > 0):
            raise ValueError("segment duration must be positive and finite")
        bx = tuple(float(v) for v in bx)
        n = len(bx)
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "bx", bx)
        object.__setattr__(self, "bz", _as_floats(bz, n, "bz"))
        object.__setattr__(self, "jxy", _as_floats(jxy, n - 1, "jxy"))
        if not all(np.isfinite(bx)):
            raise ValueError("bx has non-finite entries")

    @property
    def n_spins(self) -> int:
        return len(self.bx)

    @classmethod
    def idle(cls, n_spins: int, duration: float) -> "ControlSegment":
        """All controls off for the given time."""
        return cls(duration, (0.0,) * n_spins, (0.0,) * n_spins, (0.0,) * (n_spins - 1))

    @classmethod
    def bond_pulse(cls, n_spins: int, bond: int, strength: float, duration: float) -> "ControlSegment":
        """Single XY bond J_{bond, bond+1} on, everything else off."""
        if not 1 <= bond <= n_spins - 1:
            raise ValueError(f"bond {bond} out of range for {n_spins} spins")
        jxy = [0.0] * (n_spins - 1)
        jxy[bond - 1] = strength
        return cls(duration, (0.0,) * n_spins, (0.0,) * n_spins, jxy)


@dataclass(frozen=True)
class ControlSchedule:
    """Ordered control segments; the first segment is applied first."""

    segments: tuple

    def __init__(self, segments) -> None:
        segments = tuple(segments)
        if not segments:
            raise ValueError("schedule must contain at least one segment")
        n = segments[0].n_spins
        if any(s.n_spins != n for s in segments):
            raise ValueError("segments act on different register sizes")
        object.__setattr__(self, "segments", segments)

    @property
    def n_spins(self) -> int:
        return self.segments[0].n_spins

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)

    def __add__(self, other: "ControlSchedule") -> "ControlSchedule":
        return ControlSchedule(self.segments + other.segments)

    def to_payload(self) -> list:
        """JSON-compatible interchange form: one object per segment with
        the duration and named control arrays."""
        return [
            {
                "duration": seg.duration,
                "bx": list(seg.bx),
                "bz": list(seg.bz),
                "jxy": list(seg.jxy),
            }
            for seg in self.segments
        ]

    @classmethod
    def from_payload(cls, payload) -> "ControlSchedule":
        return cls(
            ControlSegment(item["duration"], item["bx"], item["bz"], item["jxy"])
            for item in payload
        )


def build_h_ideal(spec: ChainSpec, seg: ControlSegment) -> OperatorSum:
    """Controlled fields plus XXZ bonds: the long-range-free Hamiltonian.

    H = sum_i (bx_i X_i + bz_i Z_i)
      + sum_i [jxy_i (X_i X_{i+1} + Y_i Y_{i+1}) + J1 Z_i Z_{i+1}]
    """
    if seg.n_spins != spec.n_spins:
        raise ValueError(
            f"segment is for {seg.n_spins} spins but chain has {spec.n_spins}"
        )
    terms = []
    for i in range(1, spec.n_spins + 1):
        if seg.bx[i - 1]:
            terms.append(PauliTerm(seg.bx[i - 1], {i: "X"}))
        if seg.bz[i - 1]:
            terms.append(PauliTerm(seg.bz[i - 1], {i: "Z"}))
    for i in range(1, spec.n_spins):
        j = seg.jxy[i - 1]
        if j:
            terms.append(PauliTerm(j, {i: "X", i + 1: "X"}))
            terms.append(PauliTerm(j, {i: "Y", i + 1: "Y"}))
        if spec.j1:
            terms.append(PauliTerm(spec.j1, {i: "Z", i + 1: "Z"}))
    return OperatorSum(terms, spec.n_spins)


def build_h_long_range(spec: ChainSpec) -> OperatorSum:
    """Always-on next-nearest-neighbor Ising part J2 sum_i Z_i Z_{i+2}.

    Chains with fewer than three spins have no next-nearest pairs and
    yield the zero operator.
    """
    terms = []
    if spec.j2:
        for i in range(1, spec.n_spins - 1):
            terms.append(PauliTerm(spec.j2, {i: "Z", i + 2: "Z"}))
    return OperatorSum(terms, spec.n_spins)


def build_h_model(spec: ChainSpec, seg: ControlSegment) -> OperatorSum:
    """Full model Hamiltonian including the long-range coupling."""
    return build_h_ideal(spec, seg) + build_h_long_range(spec)


def evolve(spec: ChainSpec, schedule: ControlSchedule) -> Propagator:
    """Time-ordered propagator U = U_K ... U_2 U_1 of a control schedule.

    Segment k contributes U_k = exp(-i * duration_k * H_k); the first
    segment acts first (rightmost in the product).
    """
    if schedule.n_spins != spec.n_spins:
        raise ValueError("schedule register size does not match the chain")
    dim = 2**spec.n_spins
    u = np.eye(dim, dtype=complex)
    for seg in schedule.segments:
        u = expm_unitary(realize(build_h_model(spec, seg)), seg.duration).matrix @ u
    return Propagator(u)
