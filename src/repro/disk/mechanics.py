"""Mechanical timing models: seek curve and rotational position.

The seek model follows the standard three-point characterization used by
disk simulators (and by [Worthington95]'s extracted parameter sets): a
fixed settle cost plus a square-root region for short seeks (the arm is
accelerating the whole time) and a linear region for long seeks (the arm
spends most of the seek at full speed).  The paper leans on two facts
this model reproduces:

- "Seeking a single cylinder ... generally costs a full millisecond, and
  this cost rises quickly for slightly longer seek distances"
  [Worthington95], and
- per-request positioning costs (milliseconds) dwarf per-byte transfer
  costs (microseconds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SeekCurve:
    """Seek time as a function of cylinder distance.

    ``seek(d) = settle + a*sqrt(d-1) + b*(d-1)`` for ``d >= 1``; 0 for
    ``d == 0``; so a single-cylinder seek costs exactly the settle time.

    Instances are normally built with :meth:`from_three_points`, which
    fits ``a`` and ``b`` to the published single-cylinder, average and
    full-stroke seek times of a drive.
    """

    settle_s: float
    sqrt_coeff: float
    linear_coeff: float

    @classmethod
    def from_three_points(
        cls,
        single_cyl_ms: float,
        average_ms: float,
        full_stroke_ms: float,
        cylinders: int,
    ) -> "SeekCurve":
        """Fit the curve to three published data points.

        The average seek time of a drive corresponds (for a uniform
        random workload) to a seek of roughly one third of the total
        cylinder span; the full-stroke time corresponds to a seek across
        all cylinders.
        """
        if cylinders < 3:
            raise ValueError("need at least 3 cylinders to fit a seek curve")
        if not 0 < single_cyl_ms <= average_ms <= full_stroke_ms:
            raise ValueError(
                "seek points must satisfy 0 < single <= average <= full"
            )
        settle = single_cyl_ms * 1e-3
        d_avg = max(2.0, cylinders / 3.0)
        d_full = float(cylinders - 1)
        y_avg = average_ms * 1e-3 - settle
        y_full = full_stroke_ms * 1e-3 - settle

        # Solve for a, b in a*sqrt(d-1) + b*(d-1) at the two points.
        s1, l1 = math.sqrt(d_avg - 1), d_avg - 1
        s2, l2 = math.sqrt(d_full - 1), d_full - 1
        det = s1 * l2 - s2 * l1
        a = (y_avg * l2 - y_full * l1) / det
        b = (s1 * y_full - s2 * y_avg) / det
        if a < 0.0 or b < 0.0:
            # Degenerate published numbers; fall back to a pure sqrt fit
            # through the average point (keeps the curve monotone).
            a = y_avg / s1 if s1 > 0 else 0.0
            b = 0.0
        return cls(settle_s=settle, sqrt_coeff=a, linear_coeff=b)

    def seek_time(self, distance_cylinders: int) -> float:
        """Seconds to move the arm ``distance_cylinders`` cylinders."""
        d = abs(int(distance_cylinders))
        if d == 0:
            return 0.0
        return (
            self.settle_s
            + self.sqrt_coeff * math.sqrt(d - 1)
            + self.linear_coeff * (d - 1)
        )


@dataclass(frozen=True)
class RotationModel:
    """Angular position of the platter as a function of time.

    The platter spins continuously; angle is expressed as a fraction of
    a revolution in [0, 1).  Sector ``s`` of a track with ``spt`` sectors
    begins passing under the head at angle ``s / spt``.
    """

    rpm: float
    #: Seconds per revolution, computed once.
    period_s: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "period_s", 60.0 / self.rpm)

    def angle_at(self, time_s: float) -> float:
        """Platter angle (fraction of a revolution) at an absolute time."""
        return (time_s / self.period_s) % 1.0

    def wait_for_sector(self, time_s: float, sector: int, spt: int) -> float:
        """Seconds from ``time_s`` until sector ``sector`` reaches the head."""
        target = (sector % spt) / spt
        angle = self.angle_at(time_s)
        delta = (target - angle) % 1.0
        return delta * self.period_s

    def sector_time(self, spt: int) -> float:
        """Seconds for one sector of a track with ``spt`` sectors to pass."""
        return self.period_s / spt
