"""Shared plumbing of the experiment harness.

Experiments return :class:`ExperimentResult` — a titled table of rows
plus free-form notes — which renders to aligned monospace text.  The
benchmarks and the CLI only differ in the
:class:`ExperimentConfig` they pass (replication counts, horizon).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from repro.errors import ValidationError
from repro.observability import instrumentation as _obs
from repro.observability.logging_setup import get_logger, kv
from repro.stats.confidence import ConfidenceInterval

__all__ = ["ExperimentConfig", "ExperimentResult", "format_ci", "timed_run"]

logger = get_logger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    ``quick()`` returns a configuration scaled down for smoke tests and
    benchmark runs; headline numbers in EXPERIMENTS.md use the default.

    ``kernel`` is passed to every study the experiments request:
    ``"auto"`` (the default) lets the study runner route each study to
    the lockstep kernel where it is eligible (see
    :meth:`repro.studies.StudyRunner.resolve`); ``"object"`` keeps every
    study on the event-loop reference engine.
    """

    n_runs: int = 2000
    horizon: float = 50.0
    seed: int = 2016
    confidence: float = 0.95
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ValidationError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.horizon <= 0.0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        if self.kernel not in ("auto", "object"):
            raise ValidationError(
                f"kernel must be 'auto' or 'object', got {self.kernel!r}"
            )

    def quick(self) -> "ExperimentConfig":
        """A cheap variant for smoke tests (same seed, never more runs).

        Scales the replication count down 20x with a floor of 100, but
        never *above* the configured count: a config that already asks
        for fewer than 100 runs stays put (``max(100, ...)`` alone
        would silently make "quick" slower than the real run).
        """
        return replace(
            self, n_runs=min(self.n_runs, max(100, self.n_runs // 20))
        )


@dataclass
class ExperimentResult:
    """A rendered experiment: table + notes.

    ``rows`` hold already-formatted strings so rendering is trivial and
    the benchmarks can assert on exact cell contents.
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        """Append a row; cells are str()-ed."""
        row = [str(cell) for cell in cells]
        if len(row) != len(self.headers):
            raise ValidationError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def column(self, header: str) -> List[str]:
        """All cells of one column (for assertions in tests/benches)."""
        try:
            index = self.headers.index(header)
        except ValueError as exc:
            raise ValidationError(f"no column {header!r}") from exc
        return [row[index] for row in self.rows]

    def to_text(self) -> str:
        """Render as an aligned monospace table."""
        widths = [len(header) for header in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(
            "  ".join(header.ljust(widths[i]) for i, header in enumerate(self.headers))
        )
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()


def timed_run(
    runner: Callable[[ExperimentConfig], ExperimentResult],
    config: ExperimentConfig,
    experiment_id: Optional[str] = None,
    instrumentation: Optional["_obs.Instrumentation"] = None,
) -> ExperimentResult:
    """Run one experiment with wall-clock timing.

    The elapsed time always goes to the log (INFO); when an
    instrumentation is active — passed explicitly or ambient via
    :func:`repro.observability.use` — it is also recorded on the
    ``experiment.<id>.seconds`` timer and appended to the result's
    notes, which is how ``--profile`` surfaces per-experiment timings.
    Output is otherwise identical to calling ``runner(config)``.
    """
    start = time.perf_counter()
    result = runner(config)
    elapsed = time.perf_counter() - start
    key = experiment_id if experiment_id is not None else result.experiment_id
    logger.info(kv("experiment done", experiment=key, seconds=elapsed))
    instr = instrumentation if instrumentation is not None else _obs.current()
    if instr is not None:
        instr.observe(f"experiment.{key}.seconds", elapsed)
        result.notes.append(f"wall time: {elapsed:.3f} s")
    return result


def format_ci(interval: ConfidenceInterval, digits: int = 4) -> str:
    """Compact ``estimate ±half-width`` rendering of an interval.

    Degenerate intervals (a single replication yields infinite t-bounds)
    render their half-width as ``n/a`` rather than ``±inf``.
    """
    half = interval.half_width
    half_text = (
        f"{half:.{max(2, digits - 1)}g}" if math.isfinite(half) else "n/a"
    )
    return f"{interval.estimate:.{digits}g} ±{half_text}"
