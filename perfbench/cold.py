"""``solve-cold``: the library caller solving fresh instances per class.

One closed-loop caller runs ``CertaintyEngine.solve(db, q)`` over the
paper catalog (``PAPER_QUERY_CLASSES``: 2 FO, 4 NL, 4 PTIME and 2 coNP
queries), one "no" and one "yes" item per query.  Each round builds a
fresh engine, compiles the catalog and builds a fresh
``DatabaseInstance`` per item (the round's set-up), then solves every
item once, the classes interleaved.  No instance object is ever solved
twice, so every ``compact()`` view is built cold.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from typing import Dict, List, Tuple

from common import check, latency_metrics, median, note, percentile, vm_hwm_mb
from inputs import Triple, chain, gadget
from spans import GcWatch, Tracer, wrap_engine_layers

from repro.classification.classifier import ComplexityClass
from repro.db.instance import DatabaseInstance
from repro.engine import CertaintyEngine
from repro.scenarios.oracle import reference_answer
from repro.workloads.queries import PAPER_QUERY_CLASSES

#: One stated instance size (facts, within one query length) per class.
#: NL stays small: its auto route runs the quadratic Claim 5 program.
CLASS_FACTS = {
    ComplexityClass.FO: 1000,
    ComplexityClass.NL_COMPLETE: 120,
    ComplexityClass.PTIME_COMPLETE: 1000,
    ComplexityClass.CONP_COMPLETE: 1000,
}

#: Short labels, used in span labels and printed shapes.
CLASS_LABEL = {
    ComplexityClass.FO: "fo",
    ComplexityClass.NL_COMPLETE: "nl",
    ComplexityClass.PTIME_COMPLETE: "ptime",
    ComplexityClass.CONP_COMPLETE: "conp",
}

#: Rounds per requested minute (a round takes ~0.35 s on a 2-core x86 VM).
ROUNDS_PER_MINUTE = 144

#: ``tail_ms`` is taken per block of this many rounds, median over blocks.
#: Two rounds are 48 solves, so the tail is their p79.2: past the eight
#: coNP solves, inside the tight cluster of the four heaviest NL items.
#: Longer blocks put it between the coNP items, where the count of
#: GC-hit solves per block decides which item it lands on.
ROUNDS_PER_BLOCK = 2

Item = Tuple[str, str, bool, List[Triple]]  # (class label, query, yes, triples)


def build_items(seed: int) -> List[Item]:
    """Two items per catalog query, classes interleaved within the round."""
    rng = random.Random(seed)
    per_class: Dict[str, List[Item]] = {}
    for query, cls in PAPER_QUERY_CLASSES.items():
        for yes in (False, True):
            make = gadget if cls is ComplexityClass.CONP_COMPLETE else chain
            triples = make(query, CLASS_FACTS[cls], yes).relabel(rng)
            per_class.setdefault(CLASS_LABEL[cls], []).append(
                (CLASS_LABEL[cls], query, yes, triples)
            )
    columns = list(per_class.values())
    return [
        column[i]
        for i in range(max(map(len, columns)))
        for column in columns
        if i < len(column)
    ]


def shape_of(items: List[Item], rounds: int) -> dict:
    by_class: Dict[str, List[int]] = {}
    for label, _, _, triples in items:
        by_class.setdefault(label, []).append(len(triples))
    for cls, target in CLASS_FACTS.items():
        sizes = by_class[CLASS_LABEL[cls]]
        check(
            all(abs(n - target) <= 0.1 * target for n in sizes),
            "{} items are not at their stated size".format(cls),
        )
    return {
        "rounds": rounds,
        "items_per_round": len(items),
        "facts": by_class,
        "stated_facts": {CLASS_LABEL[c]: n for c, n in CLASS_FACTS.items()},
    }


def run(seed: int, seconds: int, trace: bool) -> dict:
    if not trace:
        return _run(seed, seconds, False)
    with GcWatch() as watch:
        result = _run(seed, seconds, True)
    result["layers"].update(watch.layers())
    return result


def _run(seed: int, seconds: int, trace: bool) -> dict:
    items = build_items(seed)
    rounds = ROUNDS_PER_BLOCK * max(1, seconds * ROUNDS_PER_MINUTE // 60 // ROUNDS_PER_BLOCK)
    note("shape", shape_of(items, rounds))

    tracer = Tracer() if trace else None
    setups: List[float] = []
    latencies: List[float] = []
    round_solve_s: Dict[bool, List[float]] = {False: [], True: []}
    unaccounted: List[float] = []
    build_ms: List[float] = []
    answers: Dict[int, set] = {i: set() for i in range(len(items))}
    routes: Counter = Counter()
    catalog = list(PAPER_QUERY_CLASSES)

    for round_no in range(rounds):
        # The traced run alternates traced and untraced rounds, so the
        # tracing overhead is measured under the same host conditions.
        traced = trace and round_no % 2 == 1
        if traced:
            wrap_engine_layers(tracer)
            tracer.label = "setup"
        start = time.perf_counter()
        engine = CertaintyEngine()
        for query in catalog:
            engine.compile(query)
        built = time.perf_counter()
        dbs = [DatabaseInstance.from_triples(item[3]) for item in items]
        end = time.perf_counter()
        setups.append(end - start)
        if traced:
            build_ms.append((end - built) * 1000.0)

        solve_total = 0.0
        for index, (item, db) in enumerate(zip(items, dbs)):
            if traced:
                tracer.label = item[0]
                mark = len(tracer.spans)
            t0 = time.perf_counter()
            result = engine.solve(db, item[1])
            elapsed = time.perf_counter() - t0
            solve_total += elapsed
            latencies.append(elapsed)
            answers[index].add(result.answer)
            if traced:
                roots = [s for s in tracer.spans[mark:] if s[4] is None]
                unaccounted.append(
                    (elapsed - sum(s[3] - s[2] for s in roots)) * 1000.0
                )
        round_solve_s[traced].append(solve_total)
        routes.update(engine.stats.method_counts)
        if traced:
            tracer.label = None
            tracer.restore()
    peak = vm_hwm_mb()

    # Untimed: every distinct (instance, query) against the oracle.
    mismatches = []
    for index, (label, query, yes, triples) in enumerate(items):
        want = reference_answer(DatabaseInstance.from_triples(triples), query)
        if answers[index] != {want}:
            mismatches.append((query, yes, sorted(answers[index]), want))
    yes_share = {}
    for label in CLASS_LABEL.values():
        picked = [answers[i] == {True} for i, it in enumerate(items) if it[0] == label]
        yes_share[label] = sum(picked) / len(picked)
    note("routes", {"route_counts": dict(routes), "yes_share": yes_share})

    result = {
        "correct": not mismatches,
        "mismatches": mismatches,
        "attempted": len(latencies),
        "failed": 0,
    }
    if not trace:
        metrics = {
            "setup_s": (median(setups), "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "peak_rss_mb": (peak, "MB"),
        }
        per_block = ROUNDS_PER_BLOCK * len(items)
        metrics.update(latency_metrics(
            [latencies[i:i + per_block] for i in range(0, len(latencies), per_block)]
        ))
        result["metrics"] = metrics
        return result

    def p50(values: List[float]) -> float:
        return percentile(values, 0.5) if values else 0.0

    conp_calls = len(tracer.select("solvers.conp"))
    layers = {
        "engine.compile_ms": sum(tracer.durations_ms("engine.compile", "setup"))
        / len(build_ms),
        "db.instance_build_ms": sum(build_ms) / len(build_ms),
        "db.compact_view_ms": sum(tracer.durations_ms("db.compact_view"))
        / len(unaccounted),
        "solvers.fo_ms": p50(tracer.durations_ms("solvers.fo", "fo")),
        "solvers.nl_ms": p50(tracer.durations_ms("solvers.nl", "nl")),
        "solvers.fixpoint_ms": p50(
            tracer.durations_ms("solvers.fixpoint", "ptime")
        ),
        "solvers.sat_ms": p50(tracer.durations_ms("solvers.sat", "conp")),
        "solvers.conp_prefilter_ratio": len(
            tracer.select("solvers.sat", "conp")
        ) / max(1, conp_calls),
        "engine.self_ms": p50(tracer.self_ms("engine.solve")),
        "trace.overhead_ratio": median(round_solve_s[True])
        / median(round_solve_s[False]),
        "trace.unaccounted_ms": sum(unaccounted) / len(unaccounted),
    }
    for method, count in routes.items():
        layers["engine.route_counts." + method] = count
    result["layers"] = layers
    return result
