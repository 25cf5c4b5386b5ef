"""Pure measurement helpers: percentiles, operation tallies and metric
names.  Nothing here imports the program under test."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that, the tail value is one or two unlucky samples.
MIN_SAMPLES_BEYOND = 10

_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError.

    A name starts with a letter or digit and has at most 64 characters
    from ``[A-Za-z0-9_.-]``.
    """
    if not isinstance(name, str) or not _METRIC_NAME.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def percentile(samples: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank ``p``-th percentile of ``samples``, or ``None``.

    ``None`` unless at least :data:`MIN_SAMPLES_BEYOND` samples lie
    strictly beyond the rank that gives the percentile, so a p90 needs
    100 samples and a p50 needs 20.
    """
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        return None
    return sorted(samples)[rank - 1]


@dataclass
class Tally:
    """Attempted and failed operations of one run.

    An operation fails when it raises, gets an error or ``429``
    response, or fails its correctness check; only the last kind makes
    the run's output incorrect.
    """

    attempted: int = 0
    failed: int = 0
    check_failures: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, error: Optional[str] = None, check: bool = False) -> None:
        """Count one operation; ``error`` is None when it succeeded."""
        self.attempted += 1
        if error is None:
            return
        self.failed += 1
        if check:
            self.check_failures += 1
        self.reasons.append(error)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.check_failures == 0
