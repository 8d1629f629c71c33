"""Spans recorded from outside the program, around its public functions.

The traced run wraps functions *where the program looks them up* (a
module global such as ``repro.engine.plan.certain_answer_fixpoint``, or
a class attribute such as ``FixpointState.apply_delta``), so no file of
the program changes.  Spans live in memory -- ``(id, name, start, end,
parent id, label, size)`` tuples -- and are summarised when the run ends;
a process shard writes its own summary to a file on exit (see
:func:`child_engine`).  Untraced runs install nothing.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

perf = time.perf_counter

Span = Tuple[int, str, float, float, Optional[int], Optional[str], float]


class Tracer:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Attached to every span recorded while set (e.g. the route class
        #: of the item being solved).
        self.label: Optional[str] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def patch(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` by ``make(original_function)``."""
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        wrapper = functools.wraps(fn)(make(fn))
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attr, raw))

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        when: Optional[Callable] = None,
        size: Optional[Callable] = None,
    ) -> None:
        """Record a span *name* around every call of ``owner.attr``.

        *when(args)* filters the calls that get a span; *size(args)*
        stores a number with the span (e.g. a batch length).
        """
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if when is not None and not when(args):
                    return fn(*args, **kwargs)
                with tracer.span(name, size(args) if size else 0.0):
                    return fn(*args, **kwargs)

            return wrapper

        self.patch(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- recording ------------------------------------------------------

    def span(self, name: str, size: float = 0.0) -> "_SpanContext":
        return _SpanContext(self, name, size)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- summaries ------------------------------------------------------

    def select(
        self, name: str, label: Optional[str] = None
    ) -> List[Span]:
        return [
            s for s in self.spans
            if s[1] == name and (label is None or s[5] == label)
        ]

    def durations_ms(self, name: str, label: Optional[str] = None) -> List[float]:
        return [(s[3] - s[2]) * 1000.0 for s in self.select(name, label)]

    def self_ms(self, name: str) -> List[float]:
        """Each *name* span's duration minus its direct children's."""
        children: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]] += s[3] - s[2]
        return [
            (s[3] - s[2] - children.get(s[0], 0.0)) * 1000.0
            for s in self.select(name)
        ]

    def summary(self) -> Dict[str, dict]:
        """Per span name: durations (ms) and sizes, for shipping as JSON."""
        out: Dict[str, dict] = {}
        for s in self.spans:
            entry = out.setdefault(s[1], {"ms": [], "size": []})
            entry["ms"].append((s[3] - s[2]) * 1000.0)
            entry["size"].append(s[6])
        return out


class _SpanContext:
    __slots__ = ("tracer", "name", "size", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, size: float) -> None:
        self.tracer = tracer
        self.name = name
        self.size = size

    def __enter__(self) -> "_SpanContext":
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.id = next(self.tracer._ids)
        stack.append(self.id)
        self.start = perf()
        return self

    def __exit__(self, *exc) -> None:
        end = perf()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.id, self.name, self.start, end, self.parent,
             self.tracer.label, self.size)
        )


class GcWatch:
    """Durations (ms) of the process's generation-2 collections."""

    def __init__(self) -> None:
        self.pauses: List[float] = []
        self._start: Optional[float] = None

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._start = perf()
        elif self._start is not None:
            self.pauses.append((perf() - self._start) * 1000.0)
            self._start = None

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)

    def layers(self) -> Dict[str, float]:
        pauses = sorted(self.pauses)
        return {
            "gc.gen2_ms": pauses[len(pauses) // 2] if pauses else 0.0,
            "gc.gen2_count": len(pauses),
        }


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


# ----------------------------------------------------------------------
# Wrapping plans, shared by the in-process and the shard-process side
# ----------------------------------------------------------------------


def wrap_engine_layers(tracer: Tracer) -> None:
    """Spans on the engine, its routes, the data plane and the state layer."""
    from repro.db.compact import CompactInstance
    from repro.db.delta import DeltaInstance
    from repro.db.instance import DatabaseInstance
    from repro.engine import engine as engine_mod
    from repro.engine import plan
    from repro.solvers.fixpoint import FixpointState
    from repro.solvers.sat_encoding import IncrementalSatContext

    tracer.wrap(engine_mod.CertaintyEngine, "solve", "engine.solve")
    tracer.wrap(engine_mod.CertaintyEngine, "solve_delta", "engine.solve_delta")
    tracer.wrap(engine_mod.CertaintyEngine, "compile", "engine.compile")
    tracer.wrap(plan, "certain_answer_fo", "solvers.fo")
    tracer.wrap(plan, "certain_answer_nl", "solvers.nl")
    tracer.wrap(plan, "certain_answer_fixpoint", "solvers.fixpoint")
    tracer.wrap(plan, "conp_solve", "solvers.conp")
    tracer.wrap(plan, "certain_answer_sat", "solvers.sat")
    tracer.wrap(IncrementalSatContext, "solve", "solvers.sat")
    tracer.wrap(FixpointState, "compute", "solvers.state_compute")
    tracer.wrap(FixpointState, "apply_delta", "solvers.apply_delta")
    tracer.wrap(CompactInstance, "build", "db.compact_view")
    tracer.wrap(CompactInstance, "patched", "db.compact_patch")
    tracer.wrap(DeltaInstance, "commit", "db.commit")
    # Only the first hash of an instance walks its facts; later calls
    # read the cached value and get no span.
    tracer.wrap(
        DatabaseInstance, "__hash__", "db.hash",
        when=lambda args: args[0]._hash is None,
    )


def child_engine(out_path: str):
    """Engine factory for a traced process shard.

    Runs inside the shard process: wraps the shard core and the engine
    layers there, and writes the span summary to *out_path* when the
    process exits.  Passed to the server as
    ``functools.partial(child_engine, path)``.
    """
    from multiprocessing import util

    from repro.engine import CertaintyEngine
    from repro.serving.shard import ShardCore

    tracer = Tracer()
    tracer.wrap(ShardCore, "run_batch", "shard.core", size=lambda a: len(a[1]))
    wrap_engine_layers(tracer)
    watch = GcWatch().__enter__()

    def dump() -> None:
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.summary(), "gc": watch.layers()}, fh)

    util.Finalize(None, dump, exitpriority=10)
    return CertaintyEngine()
