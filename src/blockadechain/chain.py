"""Chain parameters and piecewise-constant control schedules.

The model is a 1-D spin-1/2 chain with tunable site fields and bond XY
couplings, a constant nearest-neighbor Ising coupling J1, and an
always-on next-nearest-neighbor Ising coupling J2.  Its dense
Hamiltonians and time-ordered evolution are in ``oracles``.
"""

from __future__ import annotations

import math
import warnings

from . import _Frozen, _float, _is_int, _isfinite


class ChainSpec(_Frozen):
    """Static chain parameters.

    ``x1_max`` is an XY matrix element between adjacent spins, twice a
    bond strength: that of the x-rotation pulse and of the outer pulses of
    each composite transfer the CPHASE compiler emits.  It is not a cap:
    the composite's middle pulse has x2 = (x1^2 - delta^2) / (2 x1), which
    exceeds x1_max in magnitude once the tilt delta passes sqrt(3) x1_max.
    """

    __slots__ = ("n_spins", "j1", "j2", "x1_max")

    def __init__(self, n_spins: int, j1: float, j2: float, x1_max: float = 0.0) -> None:
        if not _is_int(n_spins):
            raise ValueError("n_spins must be an integer")
        if n_spins < 2:
            raise ValueError("a chain needs at least two spins")
        for name, value in (("j1", j1), ("j2", j2), ("x1_max", x1_max)):
            if not _isfinite(value):
                raise ValueError(f"{name} must be finite")
        if x1_max < 0:
            raise ValueError("x1_max must be nonnegative")
        if j2 != 0.0 and abs(j2) >= abs(j1):
            warnings.warn("next-nearest coupling |j2| >= |j1|; outside the weak long-range regime", stacklevel=2)
        self._set(n_spins, j1, j2, x1_max)


def _as_floats(values, length: int, name: str) -> tuple:
    out = tuple(map(_float, values))
    if len(out) != length:
        raise ValueError(f"{name} must have length {length}, got {len(out)}")
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{name} has non-finite entries")
    return out


class ControlSegment(_Frozen):
    """One piecewise-constant slice of the controls.

    ``bx``/``bz`` are per-site fields (length N); ``jxy`` holds the bond
    XY strengths J_{i,i+1} (length N-1).
    """

    __slots__ = ("duration", "bx", "bz", "jxy")

    def __init__(self, duration: float, bx, bz, jxy) -> None:
        duration = _float(duration)
        if not (math.isfinite(duration) and duration > 0):
            raise ValueError("segment duration must be positive and finite")
        bx = tuple(map(_float, bx))
        n = len(bx)
        bz = _as_floats(bz, n, "bz")
        jxy = _as_floats(jxy, n - 1, "jxy")
        if not all(map(math.isfinite, bx)):
            raise ValueError("bx has non-finite entries")
        self._set(duration, bx, bz, jxy)

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


class ControlSchedule(_Frozen):
    """Ordered control segments; the first segment is applied first."""

    __slots__ = ("segments",)

    def __init__(self, segments) -> None:
        segments = tuple(segments)
        if not segments:
            raise ValueError("schedule must contain at least one segment")
        n = segments[0].n_spins
        if any(s.n_spins != n for s in segments):
            raise ValueError("segments act on different register sizes")
        self._set(segments)

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
