"""Percentiles with tail accounting, and per-operation outcome tallies."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from workloads import OP_KINDS

#: a tail percentile is trusted only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10

#: failure kinds, per operation type
UNCOMMITTED = "uncommitted"
UNKNOWN_OBJECT = "unknown_object"
SIMULATION_ERROR = "simulation_error"
SKIPPED = "skipped"
FAILURE_KINDS = (UNCOMMITTED, UNKNOWN_OBJECT, SIMULATION_ERROR, SKIPPED)


@dataclass(frozen=True)
class Percentile:
    value: float
    #: samples the percentile was taken over
    count: int
    #: samples strictly above the percentile value
    beyond: int

    @property
    def trusted(self) -> bool:
        """Whether enough samples lie beyond the percentile to pin it."""
        return self.beyond >= MIN_TAIL_SAMPLES


def percentile(values: list[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile of ``values`` (0 < q <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = len(ordered) - rank
    while beyond and ordered[len(ordered) - beyond] == value:
        beyond -= 1
    return Percentile(value, len(ordered), beyond)


@dataclass
class Outcomes:
    """Attempted and failed operations by type, failures by kind."""

    attempted: dict[str, int] = field(default_factory=lambda: dict.fromkeys(OP_KINDS, 0))
    failed: dict[str, dict[str, int]] = field(
        default_factory=lambda: {k: dict.fromkeys(FAILURE_KINDS, 0) for k in OP_KINDS}
    )

    def ok(self, kind: str) -> None:
        self.attempted[kind] += 1

    def fail(self, kind: str, why: str) -> None:
        self.attempted[kind] += 1
        self.failed[kind][why] += 1

    def failures(self, kind: str | None = None) -> int:
        kinds = OP_KINDS if kind is None else (kind,)
        return sum(sum(self.failed[k].values()) for k in kinds)

    def total(self) -> int:
        return sum(self.attempted.values())

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed}

    @classmethod
    def from_json(cls, data: dict) -> "Outcomes":
        return cls(dict(data["attempted"]), {k: dict(v) for k, v in data["failed"].items()})


class EventBudget:
    """A kernel-event allowance for a timed phase.

    Before each operation the caller asks :meth:`admit` with the events
    executed so far.  Once the allowance is spent every later operation
    is refused: it is never issued, and counts as a failure.
    """

    def __init__(self, limit: int | None) -> None:
        self.limit = limit

    def remaining(self, used: int) -> int | None:
        return None if self.limit is None else max(0, self.limit - used)

    def admit(self, used: int) -> bool:
        return self.limit is None or used < self.limit
