"""Experiment utilities: timing, text tables, engine throughput probes."""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


def time_call(fn: Callable[[], T], repeats: int = 1) -> Tuple[T, float]:
    """Run *fn* *repeats* times; return ``(last_result, best_seconds)``."""
    best = float("inf")
    result: T = None  # type: ignore[assignment]
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return result, best


class Table:
    """A fixed-column text table (for example scripts and EXPERIMENTS.md).

    >>> t = Table(["query", "class"])
    >>> t.add_row(["RRX", "NL-complete"])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    query | class
    ----- | -----------
    RRX   | NL-complete
    """

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, values: Sequence[object]) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                "expected {} values, got {}".format(len(self.columns), len(values))
            )
        self.rows.append([str(v) for v in values])

    def render(self, markdown: bool = False) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells: Sequence[str]) -> str:
            return " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip()

        lines = [fmt(self.columns)]
        separator = " | ".join("-" * w for w in widths)
        if markdown:
            lines[0] = "| " + fmt(self.columns) + " |"
            lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
            lines += ["| " + fmt(row) + " |" for row in self.rows]
            return "\n".join(lines)
        lines.append(separator)
        lines += [fmt(row) for row in self.rows]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def per_call_reference(db, query, method: str = "auto"):
    """The pre-engine ``certain_answer``: re-classify and dispatch per call.

    Kept as the measurable baseline for the compile-once benchmarks: every
    call compiles a fresh :class:`~repro.engine.plan.CompiledQuery` --
    the Theorem 3 classification, the Figure 5 tables and the SAT
    skeleton -- and then routes exactly as the engine does, so the two
    paths differ only in the per-query work.
    """
    from repro.engine.plan import CompiledQuery

    return CompiledQuery(query).solve(db, method)


def throughput_comparison(
    queries: Sequence[object],
    instances: Sequence[object],
    repeats: int = 3,
    method: str = "auto",
    workers: Optional[int] = None,
    engine=None,
) -> Dict[str, object]:
    """Per-call baseline vs compile-once engine on the ``queries x
    instances`` grid.

    Returns the pair count, best-of-*repeats* wall times for both paths, the
    speedup ratio, and whether every answer agreed -- the measurement behind
    ``benchmarks/test_bench_engine.py`` and the scaling reports.
    """
    from repro.engine import CertaintyEngine

    pairs = [(db, q) for q in queries for db in instances]
    baseline, per_call_seconds = time_call(
        lambda: [per_call_reference(db, q, method=method) for db, q in pairs],
        repeats=repeats,
    )
    engine = engine if engine is not None else CertaintyEngine()
    for q in queries:
        engine.compile(q)
    batched, engine_seconds = time_call(
        lambda: engine.solve_batch(pairs, method=method, workers=workers),
        repeats=repeats,
    )
    return {
        "pairs": len(pairs),
        "per_call_seconds": per_call_seconds,
        "engine_seconds": engine_seconds,
        "speedup": per_call_seconds / engine_seconds if engine_seconds else float("inf"),
        "agrees": all(
            b.answer == e.answer for b, e in zip(baseline, batched)
        ),
    }
