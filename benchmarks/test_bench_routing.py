"""Routing: ``auto`` costs no more than the Figure 5 fixpoint on C3 queries.

For every C3 query (FO, NL-complete, PTIME-complete) the Figure 5
relation ``N`` decides CERTAINTY(q) exactly, so ``method="fixpoint"`` is
always available as an exact route.  ``auto`` must never pick a route
that is slower: for each FO, NL and PTIME catalog query, the ``auto``
time summed over chain and planted instances at two sizes is gated at
<= 1.2x the ``fixpoint`` time on the same instances, with the answers
asserted equal.  NL and PTIME queries run the fixpoint under ``auto``
too; FO queries run the FO solver's Lemma 12 recursion.

Timing protocol: every timed call solves a freshly built
:class:`~repro.db.instance.DatabaseInstance` (construction is outside
the timer), so each route pays for the per-instance structures it builds
lazily -- the compact view for the fixpoint, the sorted domain for the
FO solver -- as a one-shot caller of ``CompiledQuery.solve`` does.  Each arm takes
the best of three calls per instance, and the order of the two arms
alternates between calls.  The collector is run before and paused during
each timed call, so a collection triggered by one arm's garbage is not
billed to whichever arm happens to run next.  Host noise only ever adds
seconds, so a ratio over the ceiling is re-measured (up to
``MAX_PASSES`` passes, keeping each arm's minimum over all of them)
before the gate fails: a route that is really slower stays slower in
its minimum.  Sizes are ~1k and ~20k facts (~1k and ~5k under
``REPRO_BENCH_QUICK=1``).  CI records the per-class solve timings as
``BENCH_routing.json``.
"""

import gc
import os
import random
import time

import pytest

from repro.classification.classifier import ComplexityClass
from repro.db.instance import DatabaseInstance
from repro.engine import CompiledQuery
from repro.workloads.generators import chain_instance, planted_instance
from repro.workloads.queries import PAPER_QUERY_CLASSES

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: ``auto`` over ``fixpoint``, summed over one query's instances.
ROUTING_CEILING = 1.2

SIZES = (1_000, 5_000) if QUICK else (1_000, 20_000)
REPEATS = 3
MAX_PASSES = 5

C3_QUERIES = [
    (query, str(cls))
    for query, cls in PAPER_QUERY_CLASSES.items()
    if cls is not ComplexityClass.CONP_COMPLETE
]


def _chain(query, n_facts):
    # conflict_every=4 adds one dead-end fact per four path facts.
    repetitions = max(1, round(n_facts / (1.25 * len(query))))
    return chain_instance(query, repetitions=repetitions, conflict_every=4)


def _planted(query, n_facts):
    rng = random.Random(n_facts * 31 + sum(map(ord, query)))
    return planted_instance(
        rng,
        query,
        n_constants=n_facts // 4,
        n_paths=n_facts // (2 * len(query)),
        n_noise_facts=n_facts // 2,
        conflict_rate=0.4,
    )


def _fact_sets(query):
    """The facts of every gated instance of *query*."""
    return [
        tuple(make(query, n_facts).facts)
        for make in (_chain, _planted)
        for n_facts in SIZES
    ]


def _cold_solve(plan, facts, method):
    """Seconds for one solve of a freshly built instance, and the result."""
    db = DatabaseInstance(facts)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = plan.solve(db, method)
        return time.perf_counter() - start, result
    finally:
        gc.enable()


@pytest.mark.parametrize("query,complexity", C3_QUERIES)
def test_bench_routing_auto_within_fixpoint(query, complexity):
    """auto <= 1.2x fixpoint for every FO / NL / PTIME catalog query."""
    plan = CompiledQuery(query)
    assert str(plan.complexity) == complexity
    fact_sets = _fact_sets(query)
    arms = ("auto", "fixpoint")
    best = [dict.fromkeys(arms, float("inf")) for _ in fact_sets]
    for _pass in range(MAX_PASSES):
        for cell, facts in zip(best, fact_sets):
            for repeat in range(REPEATS):
                answers = set()
                for method in arms[::-1] if repeat % 2 else arms:
                    seconds, result = _cold_solve(plan, facts, method)
                    cell[method] = min(cell[method], seconds)
                    answers.add(result.answer)
                assert len(answers) == 1, (
                    "auto and fixpoint disagree on {} ({} facts)".format(
                        query, len(facts)
                    )
                )
        totals = {m: sum(cell[m] for cell in best) for m in arms}
        ratio = totals["auto"] / totals["fixpoint"]
        if ratio <= ROUTING_CEILING:
            break
    assert ratio <= ROUTING_CEILING, (
        "auto took {:.2f}x the fixpoint on {} ({}): {:.4f}s vs {:.4f}s "
        "over sizes {}".format(
            ratio, query, complexity, totals["auto"], totals["fixpoint"],
            SIZES,
        )
    )


#: One catalog query per C3 class, for the recorded per-solve timings.
RECORDED = ["RXRX", "RRX", "RXRYRY"]


@pytest.mark.parametrize("query", RECORDED)
@pytest.mark.parametrize("method", ["auto", "fixpoint"])
def test_bench_routing_cold_solve(benchmark, query, method):
    """Per-solve cost of each arm on a fresh ~1k-fact chain instance."""
    plan = CompiledQuery(query)
    facts = tuple(_chain(query, SIZES[0]).facts)
    expected = plan.solve(DatabaseInstance(facts), "fixpoint").answer
    result = benchmark.pedantic(
        plan.solve,
        setup=lambda: ((DatabaseInstance(facts), method), {}),
        rounds=20 if QUICK else 50,
    )
    assert result.answer == expected
