"""Shared helpers: statistics, memory, the host probe and the result line."""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class ShapeError(RuntimeError):
    """A run's input shape differs from the stated one."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`ShapeError` unless *condition* holds (kept under -O)."""
    if not condition:
        raise ShapeError(message)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_quantile(n: int, beyond: int = 10) -> float:
    """The highest quantile with at least *beyond* of *n* samples above it.

    Runs fix their sample counts, so this is the same quantile on every
    run of a workload.
    """
    if n <= beyond:
        raise ValueError("need more than {} samples".format(beyond))
    return 1.0 - beyond / n


def median(values: Iterable[float]) -> float:
    return percentile(list(values), 0.5)


def host_ref_ms() -> float:
    """A fixed pure-Python loop, timed: tells host drift from program change.

    Printed before and after each run; never used to scale a metric,
    because real waits (batch delay, arrival schedule, fsync) do not
    speed up with the host.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    path = "/proc/{}/status".format(pid if pid is not None else "self")
    try:
        with open(path) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
) -> None:
    """Print the result object as the last line of standard output."""
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def note(label: str, payload) -> None:
    """One informational line (shape, routes, host probe) before the result."""
    print("{}: {}".format(label, json.dumps(payload, sort_keys=True)), flush=True)


def latency_metrics(blocks: List[List[float]]) -> Dict[str, Tuple[float, str]]:
    """``p50_ms`` over every sample; ``tail_ms`` per block, median over blocks.

    Each block's tail is its highest percentile with ten samples beyond
    it; blocks have fixed sizes, so it is the same percentile on every
    run, and the median over blocks keeps one host stall from deciding
    the run.  A workload measured in one block reports the plain tail.
    """
    samples = [x for block in blocks for x in block]
    tails = [percentile(b, tail_quantile(len(b))) for b in blocks]
    return {
        "p50_ms": (percentile(samples, 0.5) * 1000.0, "ms"),
        "tail_ms": (median(tails) * 1000.0, "ms"),
    }
