"""``serve-read`` and ``serve-write``: the async server under two traffic mixes.

``serve-read`` -- independent readers against warm residents on one
process shard (``transport="process"``, default batching, no journal):
one client process plus one shard process.  Residents come in two kinds
(chain and planted), each kind isomorphic across its residents, asked
one query per tetrachotomy class.  There are more (resident, query)
pairs than the shard's state-cache entries, and readers pick residents
by seeded Zipf popularity, so hits, misses and evictions all occur.
Blocks alternate a closed loop with a fixed number of outstanding
requests (capacity) and an open loop of seeded Poisson arrivals at one
fixed rate, each read timed from its due time.

``serve-write`` -- one closed-loop writer sending single-fact
``solve_delta`` updates for one PTIME query to one large resident on a
thread shard with a sqlite journal (sqlite at its defaults: rollback
journal ``delete`` mode, ``synchronous=FULL``, so every append commits
with fsync).  The stream only inserts fresh facts and removes original
ones, so the resident never returns to an earlier value, and the write
count is a multiple of the journal's 64-delta compaction interval.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import os
import random
import shutil
import sqlite3
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from common import check, latency_metrics, median, note, percentile, vm_hwm_mb
from inputs import Structure, chain, poisson_arrivals, union, zipf_weights
from spans import GcWatch, Tracer, child_engine, covered, wrap_engine_layers

from repro.db.delta import Delta
from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance
from repro.engine import DEFAULT_STATE_CACHE_SIZE, CertaintyEngine
from repro.scenarios.oracle import reference_answer
from repro.serving import AsyncCertaintyServer
from repro.serving.journal import SqliteJournalStore
from repro.serving.shard import ShardWorker
from repro.serving.transport import ProcessTransport, ThreadTransport
from repro.workloads.generators import planted_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fresh servers built per run; ``setup_s`` is their median set-up time.
SETUPS = 5

# -- serve-read shape ---------------------------------------------------

#: One query per tetrachotomy class.
READ_QUERIES = {"fo": "RXRX", "nl": "RRX", "ptime": "RXRYRY", "conp": "ARRX"}
RESIDENTS_PER_KIND = 12
#: Facts per class part of a resident (4 parts per resident).
PART_FACTS = 150
OUTSTANDING = 32
#: Closed-loop reads per requested second of run (capacity is ~4500
#: reads/s on a 2-core x86 VM).
CLOSED_READS_PER_SECOND = 1200
#: The open-loop rate.  Open-loop batches are small, and their latency
#: starts to climb near 1000 reads/s on a 2-core x86 VM; 300/s keeps the
#: queue bounded while batching still happens.
OPEN_RATE = 300.0
#: Open-loop arrivals per requested second of run.
OPEN_READS_PER_SECOND = 150
#: Closed and open phases alternate in this many blocks.
BLOCKS = 20

# -- serve-write shape --------------------------------------------------

WRITE_QUERY = "RXRYRY"
RESIDENT_FACTS = 24000
COMPACT_EVERY = 64
#: Writes per requested second, rounded to whole compaction intervals.
WRITES_PER_SECOND = 48
ORACLE_SAMPLES = 3

#: The request record of the client coroutine currently calling the server.
CURRENT: contextvars.ContextVar = contextvars.ContextVar("request", default=None)


class Scratch:
    """A private temp directory inside the checkout, removed on exit."""

    def __enter__(self) -> str:
        self.path = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
        os.makedirs(self.path, exist_ok=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass


# ----------------------------------------------------------------------
# Server-side request tracing (parent process)
# ----------------------------------------------------------------------


class RequestTrace:
    """Per-request stamps at the admission, queue and transport boundaries."""

    def __init__(self, tracer: Tracer) -> None:
        self.pending: Dict[int, dict] = {}
        self.batches: List[int] = []

        def make_submit(fn):
            def submit(worker, request):
                record = CURRENT.get()
                if record is not None:
                    self.pending[id(request)] = record
                fn(worker, request)
                if record is not None:
                    record["admitted"] = time.perf_counter()

            return submit

        def make_execute(fn):
            def execute(worker, batch):
                start = time.perf_counter()
                records = [self.pending.pop(id(r), None) for r in batch]
                try:
                    return fn(worker, batch)
                finally:
                    end = time.perf_counter()
                    self.batches.append(len(batch))
                    for record in records:
                        if record is not None:
                            record["exec"] = (start, end)

            return execute

        tracer.patch(ShardWorker, "submit", make_submit)
        tracer.patch(ShardWorker, "execute", make_execute)
        tracer.wrap(ProcessTransport, "execute", "transport.execute")
        tracer.wrap(ThreadTransport, "execute", "transport.execute")

    @staticmethod
    def breakdown(records: List[dict]) -> Dict[str, float]:
        admit, wait, unaccounted = [], [], []
        for r in records:
            if "exec" not in r:
                continue
            start, end = r["exec"]
            admit.append((r["admitted"] - r["call"]) * 1000.0)
            wait.append((start - r["admitted"]) * 1000.0)
            spans = [(r["call"], r["admitted"]), (r["admitted"], start), (start, end)]
            total = r["done"] - r["call"]
            unaccounted.append(
                (total - covered(spans, r["call"], r["done"])) * 1000.0
            )
        return {
            "server.admit_ms": percentile(admit, 0.5),
            "shard.queue_wait_ms": percentile(wait, 0.5),
            "trace.unaccounted_ms": sum(unaccounted) / len(unaccounted),
        }


class Answers:
    """Answers per (resident, class) and routes per answered request.

    Routes are counted per request, not per engine call: coalescing
    merges a timing-dependent share of reads into one engine call.
    """

    def __init__(self) -> None:
        self.seen: Dict[Tuple[str, str], set] = {}
        self.routes: Counter = Counter()

    def add(self, key: Tuple[str, str], result) -> None:
        self.seen.setdefault(key, set()).add(result.answer)
        self.routes[result.method] += 1

    def yes_share(self) -> Dict[str, float]:
        out = {}
        for label in sorted({key[1] for key in self.seen}):
            picked = [got == {True} for key, got in self.seen.items() if key[1] == label]
            out[label] = sum(picked) / len(picked)
        return out


async def call(coro_fn, records: Optional[List[dict]]):
    """Run one request, stamping its record when tracing."""
    if records is None:
        return await coro_fn()
    record = {"call": time.perf_counter()}
    token = CURRENT.set(record)
    try:
        return await coro_fn()
    finally:
        CURRENT.reset(token)
        record["done"] = time.perf_counter()
        records.append(record)


# ----------------------------------------------------------------------
# serve-read
# ----------------------------------------------------------------------


def read_structures() -> Dict[str, Structure]:
    """The two resident kinds; fixed, so every seed asks the same thing.

    Every coNP part is a pre-filter "no", so warm reads never run SAT.
    """
    chains = union([
        chain(query, PART_FACTS, yes=label in ("fo", "ptime"))
        for label, query in READ_QUERIES.items()
    ])
    planted = []
    fixed = random.Random(20210621)
    for query in READ_QUERIES.values():
        db = planted_instance(
            fixed, query, n_constants=PART_FACTS // 3, n_paths=4,
            n_noise_facts=PART_FACTS - 4 * len(query), conflict_rate=0.8,
        )
        part = Structure()
        part.nodes = PART_FACTS // 3
        part.triples = sorted(f.as_triple() for f in db.facts)
        planted.append(part)
    return {"chain": chains, "planted": union(planted)}


class ReadPlan:
    """Residents, their isomorphic relabellings, and the read schedule."""

    def __init__(self, seed: int, seconds: int) -> None:
        rng = random.Random(seed)
        self.instances: Dict[str, List] = {}
        for kind, structure in read_structures().items():
            for i in range(RESIDENTS_PER_KIND):
                self.instances["{}-{:02d}".format(kind, i)] = structure.relabel(rng)
        self.kinds = sorted({name.split("-")[0] for name in self.instances})
        # Zipf popularity over fixed ranks: the seed only decides which
        # (isomorphic) resident holds each rank within its kind.
        self.ranked = {
            kind: rng.sample(
                [n for n in self.instances if n.startswith(kind)],
                RESIDENTS_PER_KIND,
            )
            for kind in self.kinds
        }
        self.weights = zipf_weights(RESIDENTS_PER_KIND)
        n_closed = seconds * CLOSED_READS_PER_SECOND // BLOCKS
        n_open = max(20, seconds * OPEN_READS_PER_SECOND // BLOCKS)
        self.blocks = [
            (
                self.schedule(rng, n_closed),
                self.schedule(rng, n_open),
                poisson_arrivals(rng, OPEN_RATE, n_open),
            )
            for _ in range(BLOCKS)
        ]

    def schedule(self, rng: random.Random, n: int) -> List[Tuple[str, str]]:
        """Read *i* asks class ``i mod 4`` of kind ``(i // 4) mod 2``."""
        labels = list(READ_QUERIES)
        out = []
        for i in range(n):
            kind = self.kinds[(i // len(labels)) % len(self.kinds)]
            name = rng.choices(self.ranked[kind], self.weights)[0]
            out.append((name, labels[i % len(labels)]))
        return out

    def pairs(self) -> List[Tuple[str, str]]:
        return [(n, label) for n in sorted(self.instances) for label in READ_QUERIES]


async def start_read_server(plan: ReadPlan, factory) -> Tuple[AsyncCertaintyServer, float]:
    """Start a fresh server, register every resident, solve every pair once."""
    dbs = {n: DatabaseInstance.from_triples(t) for n, t in plan.instances.items()}
    start = time.perf_counter()
    server = AsyncCertaintyServer(
        num_shards=1, transport="process", engine_factory=factory
    )
    server.start()
    await asyncio.gather(*(server.register(n, db) for n, db in dbs.items()))
    await server.solve_many(
        [(n, READ_QUERIES[label]) for n, label in plan.pairs()]
    )
    return server, time.perf_counter() - start


async def closed_loop(server, reads, answers, records=None) -> Tuple[float, int]:
    """*reads* through :data:`OUTSTANDING` closed-loop clients; wall seconds."""
    counter = itertools.count()
    failed = 0

    async def client() -> None:
        nonlocal failed
        for i in counter:
            if i >= len(reads):
                return
            name, label = reads[i]
            try:
                result = await call(
                    functools.partial(server.solve, name, READ_QUERIES[label]),
                    records,
                )
                answers.add((name, label), result)
            except Exception:  # noqa: BLE001 - counted, the run goes on
                failed += 1

    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(OUTSTANDING)))
    return time.perf_counter() - start, failed


async def open_loop(server, reads, arrivals, answers, records=None):
    """Seeded arrivals, each read timed from its due time."""
    latencies: List[float] = []
    lags: List[float] = []
    failed = 0
    loop = asyncio.get_running_loop()

    async def one(due: float, name: str, label: str) -> None:
        nonlocal failed
        lags.append(time.perf_counter() - due)
        try:
            result = await call(
                functools.partial(server.solve, name, READ_QUERIES[label]),
                records,
            )
            answers.add((name, label), result)
            latencies.append(time.perf_counter() - due)
        except Exception:  # noqa: BLE001 - counted, the run goes on
            failed += 1

    tasks = []
    origin = time.perf_counter() + 0.005
    for offset, (name, label) in zip(arrivals, reads):
        due = origin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(due, name, label)))
    await asyncio.gather(*tasks)
    return latencies, lags, failed


async def read_blocks(server, plan: ReadPlan, answers, records=None) -> dict:
    """Closed and open blocks, interleaved so host drift hits both alike."""
    out = {"closed_s": [], "closed_rates": [], "latencies": [], "lags": [], "failed": 0}
    for closed, open_, arrivals in plan.blocks:
        elapsed, failed = await closed_loop(server, closed, answers)
        out["closed_s"].append(elapsed)
        out["closed_rates"].append(len(closed) / elapsed)
        latencies, lags, failed_open = await open_loop(
            server, open_, arrivals, answers, records
        )
        out["latencies"].append(latencies)
        out["lags"].extend(lags)
        out["failed"] += failed + failed_open
    return out


def cache_counters(server) -> Dict[str, int]:
    shard = server.stats()["shards"][0]
    cache = shard["state_cache"]
    return {
        "hits": cache.get("hits", 0),
        "misses": cache.get("misses", 0),
        "evictions": cache.get("evictions", 0),
        "requests": shard["requests"],
        "coalesced": shard["coalesced"],
    }


def read_shape(plan: ReadPlan) -> dict:
    pairs = len(plan.pairs())
    check(pairs > DEFAULT_STATE_CACHE_SIZE, "working set fits the state cache")
    facts = {n: len(t) for n, t in plan.instances.items()}
    per_kind = {k: sorted({v for n, v in facts.items() if n.startswith(k)}) for k in plan.kinds}
    check(all(len(v) == 1 for v in per_kind.values()), "residents of a kind differ in size")
    return {
        "residents": len(plan.instances),
        "facts_per_resident": {k: v[0] for k, v in per_kind.items()},
        "pairs": pairs,
        "state_cache_entries": DEFAULT_STATE_CACHE_SIZE,
        "blocks": BLOCKS,
        "closed_reads_per_block": len(plan.blocks[0][0]),
        "outstanding": OUTSTANDING,
        "open_reads_per_block": len(plan.blocks[0][1]),
        "open_rate_per_s": OPEN_RATE,
    }


def n_reads(plan: ReadPlan) -> int:
    return sum(len(c) + len(o) for c, o, _ in plan.blocks)


def check_reads(plan: ReadPlan, answers) -> list:
    mismatches = []
    for (name, label), got in sorted(answers.seen.items()):
        db = DatabaseInstance.from_triples(plan.instances[name])
        want = reference_answer(db, READ_QUERIES[label])
        if got != {want}:
            mismatches.append((name, label, sorted(got), want))
    return mismatches


def run_read(seed: int, seconds: int, trace: bool) -> dict:
    plan = ReadPlan(seed, seconds)
    note("shape", read_shape(plan))
    try:
        with Scratch() as scratch:
            return asyncio.run(
                _traced_read(plan, scratch) if trace else _read(plan)
            )
    finally:
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop, and wait for, the tracker process that spawning a shard starts.

    Every shard process is joined by ``server.close()``; multiprocessing's
    resource tracker would otherwise outlive the run by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


async def _read(plan: ReadPlan) -> dict:
    setups = []
    server = None
    for _ in range(SETUPS):
        if server is not None:
            server.close()
        server, elapsed = await start_read_server(plan, CertaintyEngine)
        setups.append(elapsed)
    answers = Answers()
    try:
        out = await read_blocks(server, plan, answers)
        child = server.workers[0].transport.process.pid
        peak = vm_hwm_mb() + vm_hwm_mb(child)
        engine = server.stats()["shards"][0]["engine"]
    finally:
        server.close()
    note("routes", {"route_counts": dict(answers.routes), "yes_share": answers.yes_share()})
    note("engine", {"method_counts": engine["method_counts"], "solves": engine["solves"]})
    note("open_loop", {"send_lag_p50_ms": percentile(out["lags"], 0.5) * 1000.0})
    mismatches = check_reads(plan, answers)
    metrics = {
        "setup_s": (median(setups), "s"),
        "ops_per_s": (median(out["closed_rates"]), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    metrics.update(latency_metrics(out["latencies"]))
    return {
        "correct": not mismatches,
        "mismatches": mismatches,
        "attempted": n_reads(plan),
        "failed": out["failed"],
        "metrics": metrics,
    }


async def _traced_read(plan: ReadPlan, scratch: str) -> dict:
    answers = Answers()
    # Untraced reference for the overhead ratio: the closed blocks on a
    # plain server.
    server, _ = await start_read_server(plan, CertaintyEngine)
    try:
        plain_s, failed = 0.0, 0
        for closed, _, _ in plan.blocks:
            elapsed, f = await closed_loop(server, closed, answers)
            plain_s += elapsed
            failed += f
    finally:
        server.close()

    tracer = Tracer()
    requests = RequestTrace(tracer)
    child_out = os.path.join(scratch, "child-spans.json")
    try:
        server, _ = await start_read_server(
            plan, functools.partial(child_engine, child_out)
        )
        try:
            setup_batches = len(requests.batches)
            before = cache_counters(server)
            snapshot = server.stats()["shards"][0]["transport"]
            records: List[dict] = []
            out = await read_blocks(server, plan, answers, records)
            after = cache_counters(server)
            routes = server.stats()["shards"][0]["engine"]["method_counts"]
        finally:
            server.close()
    finally:
        tracer.restore()
    with open(child_out) as fh:
        dumped = json.load(fh)
    child = dumped["spans"]
    note("routes", {"route_counts": dict(answers.routes), "yes_share": answers.yes_share()})
    mismatches = check_reads(plan, answers)

    def child_ms(name: str) -> List[float]:
        return child.get(name, {}).get("ms", [])

    core_ms = sum(child_ms("shard.core"))
    core_ops = sum(child.get("shard.core", {}).get("size", [])) or 1
    transport_ms = sum(tracer.durations_ms("transport.execute"))
    diff = {k: after[k] - before[k] for k in after}
    lookups = diff["hits"] + diff["misses"]
    phase_batches = requests.batches[setup_batches:]
    layers = {
        "transport.snapshot_bytes": snapshot["snapshot_bytes"],
        "transport.snapshot_shm": snapshot["snapshot_shm"],
        "shard.batch_size": sum(phase_batches) / len(phase_batches),
        "shard.coalesced_ratio": diff["coalesced"] / max(1, diff["requests"]),
        "shard.core_ms_per_op": core_ms / core_ops,
        "engine.warm_read_ms": percentile(child_ms("engine.solve_delta"), 0.5),
        "transport.round_trip_ms": (transport_ms - core_ms)
        / len(requests.batches),
        "client.send_lag_ms": sum(out["lags"]) / len(out["lags"]) * 1000.0,
        "state_cache.hit_ratio": diff["hits"] / max(1, lookups),
        "state_cache.evictions": diff["evictions"],
        "solvers.state_compute_ms": percentile(child_ms("solvers.state_compute"), 0.5),
        "solvers.state_computes": diff["misses"],
        "trace.overhead_ratio": sum(out["closed_s"]) / plain_s,
    }
    layers.update(RequestTrace.breakdown(records))
    layers.update(dumped["gc"])
    for method, count in routes.items():
        layers["engine.route_counts." + method] = count
    closed_total = sum(len(c) for c, _, _ in plan.blocks)
    return {
        "correct": not mismatches,
        "mismatches": mismatches,
        "attempted": n_reads(plan) + closed_total,
        "failed": failed + out["failed"],
        "layers": layers,
    }


# ----------------------------------------------------------------------
# serve-write
# ----------------------------------------------------------------------


class WritePlan:
    """One large resident and a seeded single-fact write stream."""

    def __init__(self, seed: int, seconds: int) -> None:
        rng = random.Random(seed)
        body = chain(WRITE_QUERY, RESIDENT_FACTS, yes=False)
        straight = Structure()
        straight.path(WRITE_QUERY, straight.node())
        structure = union([body, straight])
        self.triples = structure.relabel(rng)
        # The straight path holds the largest labels and is never written,
        # so every answer is "yes".
        labels = sorted({c for t in self.triples for c in t[1:]})
        removable = [t for t in self.triples if t[1] < labels[body.nodes]]
        rng.shuffle(removable)
        keys = sorted({t[1] for t in removable})
        intervals = max(2, round(seconds * WRITES_PER_SECOND / COMPACT_EVERY))
        self.n_writes = intervals * COMPACT_EVERY
        # Inserts are fresh ten-digit constants, removals originals never
        # re-added: the resident never returns to an earlier value.
        self.writes: List[Tuple[bool, Tuple[str, int, int]]] = []
        fresh = itertools.count(10 ** 9)
        for i in range(self.n_writes):
            if i % 2 == 0:
                relation = rng.choice(WRITE_QUERY)
                self.writes.append((True, (relation, rng.choice(keys), next(fresh))))
            else:
                self.writes.append((False, removable[i // 2]))
        self.samples = set(rng.sample(range(self.n_writes), ORACLE_SAMPLES))


def write_shape(plan: WritePlan) -> dict:
    check(plan.n_writes % COMPACT_EVERY == 0, "writes are not whole compaction intervals")
    return {
        "resident_facts": len(plan.triples),
        "writes": plan.n_writes,
        "compact_every": COMPACT_EVERY,
        "expected_compactions": plan.n_writes // COMPACT_EVERY,
        "inserts": sum(1 for ins, _ in plan.writes if ins),
    }


async def start_write_server(plan: WritePlan, path: str) -> Tuple[AsyncCertaintyServer, float]:
    db = DatabaseInstance.from_triples(plan.triples)
    start = time.perf_counter()
    store = SqliteJournalStore(path)
    check(store.compact_every == COMPACT_EVERY, "journal compaction interval changed")
    server = AsyncCertaintyServer(num_shards=1, transport="thread", journal_store=store)
    server.start()
    await server.register("resident", db)
    await server.solve("resident", WRITE_QUERY)
    return server, time.perf_counter() - start


def sqlite_policy(path: str) -> dict:
    conn = sqlite3.connect(path)
    try:
        return {
            "journal_mode": conn.execute("PRAGMA journal_mode").fetchone()[0],
            "synchronous": conn.execute("PRAGMA synchronous").fetchone()[0],
        }
    finally:
        conn.close()


def run_write(seed: int, seconds: int, trace: bool) -> dict:
    plan = WritePlan(seed, seconds)
    note("shape", write_shape(plan))
    with Scratch() as scratch:
        return asyncio.run(_write(plan, scratch, trace))


async def _write(plan: WritePlan, scratch: str, trace: bool) -> dict:
    if not trace:
        return await _write_watched(plan, scratch, False)
    with GcWatch() as watch:
        result = await _write_watched(plan, scratch, True)
    result["layers"].update(watch.layers())
    return result


async def _write_watched(plan: WritePlan, scratch: str, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    if trace:
        wrap_engine_layers(tracer)
        wrap_journal(tracer)
        RequestTrace(tracer)
    setups = []
    server = store = None
    try:
        for k in range(SETUPS):
            if server is not None:
                server.close()
                store.close()
            path = os.path.join(scratch, "journal-{}.sqlite".format(k))
            server, elapsed = await start_write_server(plan, path)
            store = server.journal_store
            setups.append(elapsed)
        note("journal", dict(sqlite_policy(path), compact_every=COMPACT_EVERY))
        compactions_before = store.health()["compactions"]
        setup_spans = len(tracer.spans) if trace else 0

        live = set(plan.triples)
        samples: Dict[int, Tuple[frozenset, bool]] = {}
        latencies: List[float] = []
        block_ms: Dict[bool, List[float]] = {False: [], True: []}
        records: List[dict] = []
        answers = set()
        failed = 0
        for i, (insert, triple) in enumerate(plan.writes):
            if trace and i % COMPACT_EVERY == 0:
                # Alternate traced and untraced compaction intervals.
                traced = (i // COMPACT_EVERY) % 2 == 1
                tracer.restore()
                if traced:
                    wrap_engine_layers(tracer)
                    wrap_journal(tracer)
                    RequestTrace(tracer)
            fact = Fact(*triple)
            delta = Delta.inserting(fact) if insert else Delta.removing(fact)
            t0 = time.perf_counter()
            try:
                result = await call(
                    functools.partial(server.solve_delta, "resident", delta, WRITE_QUERY),
                    records if trace and traced else None,
                )
            except Exception:  # noqa: BLE001 - counted, the run goes on
                failed += 1
                continue
            elapsed = time.perf_counter() - t0
            latencies.append(elapsed)
            if trace:
                block_ms[traced].append(elapsed * 1000.0)
            answers.add(result.answer)
            if insert:
                live.add(triple)
            else:
                live.discard(triple)
            if i in plan.samples:
                samples[i] = (frozenset(live), result.answer)
        peak = vm_hwm_mb()
        final = await server.get_instance("resident")
        health = store.health()
        routes = server.stats()["shards"][0]["engine"]["method_counts"]
    finally:
        if trace:
            tracer.restore()
        if server is not None:
            server.close()
            store.close()

    compactions = health["compactions"] - compactions_before
    check(compactions == plan.n_writes // COMPACT_EVERY, "compaction count drifted")
    note("routes", {
        "route_counts": routes,
        "yes_share": {"ptime": sum(answers) / len(answers)},
        "compactions": compactions,
    })
    mismatches = []
    if {f.as_triple() for f in final.facts} != live:
        mismatches.append("final resident differs from the client-side replay")
    for i, (facts, got) in sorted(samples.items()):
        want = reference_answer(DatabaseInstance.from_triples(facts), WRITE_QUERY)
        if got != want:
            mismatches.append((i, got, want))
    result = {
        "correct": not mismatches,
        "mismatches": mismatches,
        "attempted": plan.n_writes,
        "failed": failed,
    }
    if not trace:
        metrics = {
            "setup_s": (median(setups), "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "peak_rss_mb": (peak, "MB"),
        }
        metrics.update(latency_metrics([latencies]))
        result["metrics"] = metrics
        return result

    traced_writes = len(block_ms[True])
    setup, writes = tracer.spans[:setup_spans], tracer.spans[setup_spans:]

    def per_write(name: str) -> float:
        return sum(s[3] - s[2] for s in writes if s[1] == name) * 1000.0 / traced_writes

    appends = tracer.durations_ms("journal.append")
    compaction = tracer.durations_ms("journal.compaction")
    layers = {
        "journal.register_ms": _mean_ms(setup, "journal.register"),
        "solvers.state_compute_ms": _mean_ms(setup, "solvers.state_compute"),
        "solvers.state_computes": sum(1 for s in setup if s[1] == "solvers.state_compute"),
        "db.commit_ms": per_write("db.commit"),
        "db.hash_ms": per_write("db.hash"),
        "db.compact_patch_ms": per_write("db.compact_patch"),
        "journal.append_ms": percentile(appends, 0.5),
        "solvers.apply_delta_ms": percentile(tracer.durations_ms("solvers.apply_delta"), 0.5),
        "journal.compaction_ms": sum(compaction) / max(1, len(compaction)),
        "journal.compactions": compactions,
        "trace.overhead_ratio": median(block_ms[True]) / median(block_ms[False]),
    }
    layers.update(RequestTrace.breakdown(records))
    for method, count in routes.items():
        layers["engine.route_counts." + method] = count
    result["layers"] = layers
    return result


def _mean_ms(spans, name: str) -> float:
    picked = [(s[3] - s[2]) * 1000.0 for s in spans if s[1] == name]
    return sum(picked) / len(picked) if picked else 0.0


def wrap_journal(tracer: Tracer) -> None:
    tracer.wrap(SqliteJournalStore, "register", "journal.register")
    tracer.wrap(SqliteJournalStore, "delta", "journal.append")
    tracer.wrap(SqliteJournalStore, "_compact_resident", "journal.compaction")
