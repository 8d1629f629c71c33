"""Contract suite for the durable journal tier.

Every :class:`~repro.serving.journal.JournalStore` backend must agree on
the seam's semantics -- append, fold, replay ordering, idempotent
redelivery, concurrent shard writers -- so the suite is parametrized
over the memory, sqlite, kv (both backends), and replicated stores.
Sqlite-only tests cover what makes that backend the durable one:
reopening a path restores the state, compaction bounds the log without
changing it, and torn-tail recovery truncates a damaged log at the
first bad record while counting the loss.  A differential suite pins
the lazily folded view every store shares against an eager commit
chain, and pins appends to O(delta): no commit until a read or a
compaction folds the tail.
"""

import pickle
import random
import sqlite3
import sys
import threading

import pytest

from repro.db.delta import Delta, DeltaInstance
from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance
from repro.serving.journal import (
    SPEC_GRAMMAR,
    JournalStore,
    MemoryJournalStore,
    SqliteJournalStore,
    make_journal_store,
    pack_record,
)
from repro.serving.replication import (
    FileKV,
    KVJournalStore,
    MemoryKV,
    ReplicatedJournalStore,
)


def _db(*triples):
    return DatabaseInstance.from_triples(list(triples))


def _delta(inserts=(), removes=()):
    return Delta(
        removes=tuple(Fact(*t) for t in removes),
        inserts=tuple(Fact(*t) for t in inserts),
    )


@pytest.fixture(
    params=["memory", "sqlite", "kv-memory", "kv-file", "replicated"]
)
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryJournalStore()
    elif request.param == "sqlite":
        s = SqliteJournalStore(tmp_path / "journal.db")
        yield s
        s.close()
    elif request.param == "kv-memory":
        yield KVJournalStore(MemoryKV())
    elif request.param == "kv-file":
        s = KVJournalStore(FileKV(tmp_path / "kv"))
        yield s
        s.close()
    else:
        # Mixed topology: durable primary, two in-memory read replicas.
        s = ReplicatedJournalStore(
            "sqlite:{}".format(tmp_path / "primary.db"),
            ("memory", "memory"),
        )
        yield s
        s.close()


class TestJournalContract:
    def test_register_then_get(self, store):
        db = _db(("R", 0, 1))
        store.register(0, "toy", db, seq=1)
        assert store.get(0, "toy") == db
        assert store.get(0, "missing") is None
        assert store.get(1, "toy") is None  # shards are disjoint

    def test_residents_returns_folded_copies(self, store):
        store.register(0, "a", _db(("R", 0, 1)), seq=1)
        store.register(0, "b", _db(("S", 0, 1)), seq=2)
        residents = store.residents(0)
        assert sorted(residents) == ["a", "b"]
        residents["c"] = None  # a copy: mutating it must not leak back
        assert sorted(store.residents(0)) == ["a", "b"]

    def test_delta_folds_against_current_snapshot(self, store):
        store.register(0, "toy", _db(("R", 0, 1), ("R", 1, 2)), seq=1)
        store.delta(0, "toy", _delta(inserts=[("X", 2, 3)]), seq=2)
        store.delta(0, "toy", _delta(removes=[("R", 1, 2)]), seq=3)
        expected = _db(("R", 0, 1), ("X", 2, 3))
        assert store.get(0, "toy") == expected

    def test_replay_ordering_interleaved_names(self, store):
        # Ops against different names interleave in one shard log; each
        # name folds its own subsequence, in order.
        store.register(0, "a", _db(("R", 0, 1)), seq=1)
        store.register(0, "b", _db(("S", 0, 1)), seq=2)
        store.delta(0, "a", _delta(inserts=[("R", 1, 2)]), seq=3)
        store.delta(0, "b", _delta(removes=[("S", 0, 1)]), seq=4)
        store.delta(0, "a", _delta(removes=[("R", 0, 1)]), seq=5)
        assert store.get(0, "a") == _db(("R", 1, 2))
        assert store.get(0, "b") == _db()

    def test_delta_on_unknown_name_raises(self, store):
        with pytest.raises(KeyError):
            store.delta(0, "ghost", _delta(inserts=[("R", 0, 1)]), seq=1)

    def test_last_seq_high_water(self, store):
        assert store.last_seq(0) == 0
        store.register(0, "toy", _db(("R", 0, 1)), seq=5)
        assert store.last_seq(0) == 5
        assert store.last_seq(1) == 0  # per shard

    def test_redelivered_seq_is_ignored(self, store):
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        store.delta(0, "toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        before = store.get(0, "toy")
        # A transport retry redelivers already-journaled writes.
        store.register(0, "toy", _db(("R", 9, 9)), seq=1)
        store.delta(0, "toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        assert store.get(0, "toy") == before
        assert store.last_seq(0) == 2

    def test_unstamped_writes_always_apply(self, store):
        store.register(0, "toy", _db(("R", 0, 1)), seq=3)
        store.register(0, "toy", _db(("R", 9, 9)))  # seq=0: not protected
        assert store.get(0, "toy") == _db(("R", 9, 9))
        assert store.last_seq(0) == 3

    def test_reregistration_supersedes_history(self, store):
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        store.delta(0, "toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        store.register(0, "toy", _db(("S", 0, 1)), seq=3)
        assert store.get(0, "toy") == _db(("S", 0, 1))

    def test_placements_span_shards(self, store):
        store.register(2, "orders", _db(("R", 0, 1)), seq=1)
        store.register(0, "users", _db(("S", 0, 1)), seq=1)
        assert store.placements() == {"orders": 2, "users": 0}

    def test_shard_view_binds_the_shard(self, store):
        journal = store.shard(3)
        assert journal.kind == store.kind
        journal.register("toy", _db(("R", 0, 1)), seq=1)
        journal.delta("toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        assert journal.get("toy") == _db(("R", 0, 1), ("X", 1, 2))
        assert journal.last_seq() == 2
        assert sorted(journal.residents()) == ["toy"]
        assert store.get(3, "toy") == journal.get("toy")
        assert store.last_seq(0) == 0

    def test_concurrent_shard_writers(self, store):
        # One writer thread per shard, each appending its own op stream
        # -- the real concurrency shape: ShardWorker threads share the
        # store but never share a shard.
        shards, writes = 4, 25
        errors = []

        def writer(shard_id):
            try:
                journal = store.shard(shard_id)
                journal.register(
                    "res-{}".format(shard_id), _db(("R", 0, 1)), seq=1
                )
                for i in range(writes):
                    journal.delta(
                        "res-{}".format(shard_id),
                        _delta(inserts=[("X", i, i + 1)]),
                        seq=2 + i,
                    )
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(s,)) for s in range(shards)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        for shard_id in range(shards):
            db = store.get(shard_id, "res-{}".format(shard_id))
            assert len(db.facts) == 1 + writes
            assert store.last_seq(shard_id) == 1 + writes

    def test_has_checks_presence(self, store):
        assert not store.has(0, "toy")
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        assert store.has(0, "toy")
        assert not store.has(1, "toy")
        assert store.shard(0).has("toy")

    def test_failed_delta_creates_no_shard(self, store):
        with pytest.raises(KeyError):
            store.delta(0, "ghost", _delta(inserts=[("R", 0, 1)]), seq=1)
        health = store.health()
        assert (health["shards"], health["residents"]) == (0, 0)
        assert store.placements() == {}
        assert store.last_seq(0) == 0

    def test_folds_drop_the_compact_view(self, store):
        # On the thread transport the journal holds the core's own
        # instance, whose compact view the core built; the journal never
        # runs kernels, so its folds must not patch that view forward.
        db = _db(("R", 0, 1), ("R", 1, 2))
        view = db.compact()
        store.register(0, "toy", db, seq=1)
        store.delta(0, "toy", _delta(inserts=[("X", 2, 3)]), seq=2)
        folded = store.get(0, "toy")
        assert folded == _db(("R", 0, 1), ("R", 1, 2), ("X", 2, 3))
        assert folded._compact is None
        assert db._compact is view  # the registered instance is untouched

    def test_reads_fold_while_writers_append(self, store):
        # Reads fold tails in place, so readers and writers of one shard
        # contend for the same residents; the store lock must keep every
        # append.  A short switch interval forces interleavings.
        writes, errors = 40, []
        names = ["w-0", "w-1"]
        for name in names:
            store.register(0, name, _db(("R", 0, 1)), seq=0)
        done = threading.Event()

        def writer(name):
            try:
                for i in range(writes):
                    store.delta(0, name, _delta(inserts=[("X", i, i + 1)]))
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)

        def reader():
            try:
                while not done.is_set():
                    store.residents(0)
                    store.get(0, names[0])
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=reader) for _ in range(2)]
            writers = [threading.Thread(target=writer, args=(n,)) for n in names]
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join(timeout=60)
            done.set()
            for t in readers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + writers)
        assert errors == []
        for name in names:
            assert len(store.get(0, name).facts) == 1 + writes

    def test_health_is_plain_data(self, store):
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        health = store.health()
        assert health["store"] == store.kind
        assert health["residents"] == 1
        assert health["ops"] >= 1


class TestSqliteDurability:
    def test_reopen_restores_everything(self, tmp_path):
        path = tmp_path / "journal.db"
        store = SqliteJournalStore(path)
        store.register(0, "a", _db(("R", 0, 1), ("R", 1, 2)), seq=1)
        store.delta(0, "a", _delta(inserts=[("X", 2, 3)]), seq=2)
        store.register(1, "b", _db(("S", 0, 1)), seq=1)
        expected_a = store.get(0, "a")
        store.close()

        reopened = SqliteJournalStore(path)
        try:
            assert reopened.get(0, "a") == expected_a
            assert reopened.get(1, "b") == _db(("S", 0, 1))
            assert reopened.last_seq(0) == 2
            assert reopened.last_seq(1) == 1
            assert reopened.placements() == {"a": 0, "b": 1}
            # Redelivery protection survives the reopen too.
            reopened.delta(0, "a", _delta(removes=[("X", 2, 3)]), seq=2)
            assert reopened.get(0, "a") == expected_a
        finally:
            reopened.close()

    def test_compaction_bounds_the_log(self, tmp_path):
        store = SqliteJournalStore(tmp_path / "journal.db", compact_every=4)
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        for i in range(10):
            store.delta(0, "toy", _delta(inserts=[("X", i, i + 1)]), seq=2 + i)
        health = store.health()
        assert health["compactions"] == 2  # after deltas 4 and 8
        # 10 deltas, but the log holds one snapshot + the post-compaction
        # tail -- never compact_every rows or more for one resident.
        assert health["log_rows"] < 4 + 1
        expected = store.get(0, "toy")
        assert len(expected.facts) == 11
        store.close()
        reopened = SqliteJournalStore(tmp_path / "journal.db")
        try:
            assert reopened.get(0, "toy") == expected
            assert reopened.last_seq(0) == 11
        finally:
            reopened.close()

    def test_manual_compact(self, tmp_path):
        store = SqliteJournalStore(tmp_path / "journal.db", compact_every=100)
        store.register(0, "a", _db(("R", 0, 1)), seq=1)
        store.delta(0, "a", _delta(inserts=[("X", 1, 2)]), seq=2)
        store.register(1, "b", _db(("S", 0, 1)), seq=1)
        assert store.compact() == 1  # only "a" has pending delta rows
        assert store.compact() == 0  # idempotent
        assert store.health()["log_rows"] == 2  # one snapshot row each
        assert store.get(0, "a") == _db(("R", 0, 1), ("X", 1, 2))
        store.close()

    def test_default_pickled_snapshots_still_load(self, tmp_path):
        # Snapshot rows are written as fact columns; a row holding a
        # default-pickled instance (an older log) must replay as well.
        path = tmp_path / "journal.db"
        store = SqliteJournalStore(path)
        store.register(0, "columns", _db(("S", 0, 1)), seq=1)
        store.close()
        conn = sqlite3.connect(str(path))
        conn.execute(
            "INSERT INTO journal (shard, seq, name, kind, payload) "
            "VALUES (0, 2, 'default', 'snapshot', ?)",
            (pack_record(pickle.dumps(_db(("R", 0, 1), ("R", 1, 2)))),),
        )
        conn.commit()
        conn.close()
        reopened = SqliteJournalStore(path)
        try:
            assert reopened.get(0, "columns") == _db(("S", 0, 1))
            assert reopened.get(0, "default") == _db(("R", 0, 1), ("R", 1, 2))
            assert reopened.last_seq(0) == 2
        finally:
            reopened.close()

    def test_compact_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            SqliteJournalStore(tmp_path / "journal.db", compact_every=0)


class TestTornTailRecovery:
    """Damaged sqlite logs fold their intact prefix and count the loss."""

    def _seed(self, path, residents=5):
        store = SqliteJournalStore(path)
        originals = {}
        for i in range(residents):
            name = "res-{}".format(i)
            db = _db(("R", i, i + 1), ("S", i, i + 2))
            store.register(0, name, db, seq=i + 1)
            originals[name] = db
        store.close()
        return originals

    def test_corrupt_record_drops_exact_tail(self, tmp_path):
        path = tmp_path / "journal.db"
        originals = self._seed(path, residents=5)
        conn = sqlite3.connect(str(path))
        # Smash the 3rd record's payload: frame intact, crc mismatched.
        conn.execute(
            "UPDATE journal SET payload = X'00000000DEADBEEF' WHERE id ="
            " (SELECT id FROM journal ORDER BY id LIMIT 1 OFFSET 2)"
        )
        conn.commit()
        conn.close()
        reopened = SqliteJournalStore(path)
        try:
            # Records 3, 4, 5 are gone -- the count is exact.
            assert reopened.health()["truncated_ops"] == 3
            assert sorted(reopened.residents(0)) == ["res-0", "res-1"]
            for name in ("res-0", "res-1"):
                assert reopened.get(0, name) == originals[name]
            assert reopened.last_seq(0) == 2
        finally:
            reopened.close()

    def test_single_bit_flip_detected(self, tmp_path):
        path = tmp_path / "journal.db"
        originals = self._seed(path, residents=4)
        conn = sqlite3.connect(str(path))
        (row_id, payload) = conn.execute(
            "SELECT id, payload FROM journal ORDER BY id LIMIT 1 OFFSET 1"
        ).fetchone()
        flipped = bytearray(payload)
        flipped[-1] ^= 0x01
        conn.execute(
            "UPDATE journal SET payload = ? WHERE id = ?",
            (bytes(flipped), row_id),
        )
        conn.commit()
        conn.close()
        reopened = SqliteJournalStore(path)
        try:
            assert reopened.health()["truncated_ops"] == 3
            assert sorted(reopened.residents(0)) == ["res-0"]
            assert reopened.get(0, "res-0") == originals["res-0"]
            assert reopened.last_seq(0) == 1
        finally:
            reopened.close()

    @pytest.mark.parametrize("fraction", [2, 3, 4])
    def test_truncated_file_recovers_intact_prefix(self, tmp_path, fraction):
        # A crash mid-append can cut the file at any byte.  Sqlite loses
        # whole pages, so the recoverable prefix may be empty -- the
        # contract is that reopen *survives*, keeps only intact
        # records, counts at least the floor of the loss, and takes
        # appends cleanly afterwards.
        path = tmp_path / "journal.db"
        originals = self._seed(path, residents=6)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) * (fraction - 1) // fraction])
        reopened = SqliteJournalStore(path)
        try:
            assert reopened.health()["truncated_ops"] >= 1
            for name, db in reopened.residents(0).items():
                assert db == originals[name]
            assert reopened.last_seq(0) <= 6
            # The rebuilt log must take appends cleanly afterwards.
            seq = reopened.last_seq(0) + 1
            reopened.register(0, "after", _db(("T", 0, 1)), seq=seq)
            assert reopened.get(0, "after") == _db(("T", 0, 1))
            assert reopened.last_seq(0) == seq
        finally:
            reopened.close()

    def test_tear_hook_then_reopen(self, tmp_path):
        path = tmp_path / "journal.db"
        store = SqliteJournalStore(path)
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        store.tear(0)
        store.close()
        reopened = SqliteJournalStore(path)
        try:
            assert reopened.health()["truncated_ops"] == 1
            assert reopened.get(0, "toy") == _db(("R", 0, 1))
            assert reopened.last_seq(0) == 1
        finally:
            reopened.close()

    def test_unreadable_file_recovers_empty_but_usable(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"this is not a sqlite database at all")
        store = SqliteJournalStore(path)
        try:
            assert store.health()["truncated_ops"] >= 1
            assert store.residents(0) == {}
            store.register(0, "toy", _db(("R", 0, 1)), seq=1)
            assert store.get(0, "toy") == _db(("R", 0, 1))
        finally:
            store.close()


# ---------------------------------------------------------------------------
# The lazy fold, differentially: every read equals an eager commit chain.
# ---------------------------------------------------------------------------

#: A small compaction interval so the interleavings cross it often.
COMPACT_EVERY = 3

LAZY_KINDS = ["memory", "sqlite", "kv", "replicated"]


def _open(kind, tmp_path):
    """``(store, reopen)``: *reopen(store)* closes the store and returns
    one replayed from the same durable state -- a restart.  A memory
    store has no durable state and survives its "restart" unchanged."""
    if kind == "memory":
        return MemoryJournalStore(), lambda s: s
    if kind == "sqlite":
        path = tmp_path / "lazy.db"

        def reopen(s):
            s.close()
            return SqliteJournalStore(path, compact_every=COMPACT_EVERY)

        return SqliteJournalStore(path, compact_every=COMPACT_EVERY), reopen
    if kind == "kv":
        backend = MemoryKV()
        return (
            KVJournalStore(backend, compact_every=COMPACT_EVERY),
            lambda s: KVJournalStore(backend, compact_every=COMPACT_EVERY),
        )
    path = tmp_path / "primary.db"

    def replicated():
        # Store instances are not owned: reopen closes the primary itself.
        return ReplicatedJournalStore(
            SqliteJournalStore(path, compact_every=COMPACT_EVERY),
            (MemoryJournalStore(),),
            ship_every=2,
        )

    def reopen(s):
        s.close()
        s.primary.close()
        return replicated()

    return replicated(), reopen


class _EagerModel:
    """The reference: every delta committed at once, one per append."""

    NAMES = ("a", "b", "c")
    SHARDS = (0, 1)

    def __init__(self, rng):
        self.rng = rng
        self.dbs = {shard_id: {} for shard_id in self.SHARDS}
        self.seqs = {shard_id: 0 for shard_id in self.SHARDS}

    def random_db(self):
        return _db(*(self.random_triple() for _ in range(self.rng.randint(0, 4))))

    def random_triple(self):
        rng = self.rng
        return (rng.choice("RSX"), rng.randint(0, 4), rng.randint(0, 4))

    def random_delta(self, db):
        rng = self.rng
        present = sorted(db.facts)
        removes = rng.sample(present, min(len(present), rng.randint(0, 2)))
        inserts = [Fact(*self.random_triple()) for _ in range(rng.randint(0, 2))]
        return Delta(tuple(removes), tuple(inserts))

    def check(self, store):
        for shard_id in self.SHARDS:
            expected = self.dbs[shard_id]
            assert store.last_seq(shard_id) == self.seqs[shard_id]
            assert store.residents(shard_id) == expected
            for name in self.NAMES:
                assert store.has(shard_id, name) == (name in expected)
                assert store.get(shard_id, name) == expected.get(name)
                assert store.read_snapshot(shard_id, name) == expected.get(name)
        assert store.placements() == {
            name: shard_id
            for shard_id, dbs in self.dbs.items()
            for name in dbs
        }
        health = store.health()
        assert health["residents"] == sum(map(len, self.dbs.values()))
        assert health["shards"] == sum(1 for dbs in self.dbs.values() if dbs)


def _run_interleaving(kind, seed, tmp_path):
    rng = random.Random(seed)
    store, reopen = _open(kind, tmp_path)
    model = _EagerModel(rng)
    try:
        for _step in range(40):
            shard_id = rng.choice(model.SHARDS)
            name = rng.choice(model.NAMES)
            dbs = model.dbs[shard_id]
            op = rng.choice(
                ["register", "deltas", "deltas", "deltas", "compact",
                 "reopen", "tear", "redeliver"]
            )
            seq = model.seqs[shard_id] + 1
            if op == "register" or (op == "deltas" and name not in dbs):
                db = model.random_db()
                store.register(shard_id, name, db, seq=seq)
                dbs[name] = db
                model.seqs[shard_id] = seq
            elif op == "deltas":
                # A burst of appends with no read in between grows the
                # pending tails past the compaction interval.
                for _ in range(rng.randint(1, 2 * COMPACT_EVERY + 1)):
                    target = rng.choice(sorted(dbs))
                    delta = model.random_delta(dbs[target])
                    store.delta(shard_id, target, delta, seq=seq)
                    dbs[target] = delta.apply_to(dbs[target]).commit()
                    model.seqs[shard_id] = seq
                    seq += 1
            elif op == "compact":
                store.compact(rng.choice([None, shard_id]))
            elif op == "reopen":
                store = reopen(store)
            elif op == "tear":
                # A crash mid-append: the torn record is the last one,
                # so the restart drops it and loses nothing committed.
                store.tear(shard_id)
                store = reopen(store)
            elif seq > 1:  # redeliver: a retried, already-journaled op
                store.delta(
                    shard_id, name, _delta(inserts=[("R", 9, 9)]), seq=seq - 1
                )
                store.register(shard_id, name, _db(("R", 8, 8)), seq=seq - 1)
            if name not in dbs:
                with pytest.raises(KeyError):
                    store.delta(shard_id, name, _delta(), seq=seq + 100)
            model.check(store)
    finally:
        store.close()


class TestLazyFold:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", LAZY_KINDS)
    def test_reads_match_an_eager_commit_chain(self, kind, seed, tmp_path):
        _run_interleaving(kind, seed, tmp_path)

    @pytest.fixture
    def commits(self, monkeypatch):
        """Every overlay committed while the test runs."""
        committed = []
        real_commit = DeltaInstance.commit
        monkeypatch.setattr(
            DeltaInstance,
            "commit",
            lambda overlay: committed.append(overlay) or real_commit(overlay),
        )
        return committed

    @pytest.mark.parametrize("kind", LAZY_KINDS)
    def test_appends_make_no_commits(self, kind, tmp_path, commits):
        store, _reopen = _open(kind, tmp_path)
        every = getattr(store, "primary", store).compact_every
        try:
            store.register(0, "toy", _db(("R", 0, 1)), seq=1)
            for i in range(every - 1):
                store.delta(0, "toy", _delta(inserts=[("X", i, i)]), seq=2 + i)
                assert store.has(0, "toy")
            assert commits == []
            # The first read folds the whole tail: one overlay, one commit.
            assert len(store.get(0, "toy").facts) == every
            assert len(commits) == 1
            assert store.get(0, "toy") is store.get(0, "toy")
            assert len(commits) == 1
        finally:
            store.close()

    @pytest.mark.parametrize("kind", LAZY_KINDS)
    def test_the_interval_append_folds_once(self, kind, tmp_path, commits):
        store, _reopen = _open(kind, tmp_path)
        every = getattr(store, "primary", store).compact_every
        try:
            store.register(0, "toy", _db(("R", 0, 1)), seq=1)
            for i in range(every):
                store.delta(0, "toy", _delta(inserts=[("X", i, i)]), seq=2 + i)
            # Compaction (or the memory store's tail bound) folded the
            # tail in one commit; the read after it has nothing to fold.
            assert len(commits) == 1
            assert len(store.get(0, "toy").facts) == every + 1
            assert len(commits) == 1
        finally:
            store.close()


class TestMakeJournalStore:
    def test_none_passthrough(self):
        assert make_journal_store(None) is None

    def test_instance_passthrough(self):
        store = MemoryJournalStore()
        assert make_journal_store(store) is store

    def test_memory_by_name(self):
        store = make_journal_store("memory")
        assert isinstance(store, MemoryJournalStore)

    def test_sqlite_by_spec(self, tmp_path):
        store = make_journal_store("sqlite:{}".format(tmp_path / "j.db"))
        assert isinstance(store, SqliteJournalStore)
        assert isinstance(store, JournalStore)
        store.close()

    def test_kv_by_spec(self, tmp_path):
        memory = make_journal_store("kv:memory")
        assert isinstance(memory, KVJournalStore)
        assert memory.backend.kind == "memory"
        filed = make_journal_store("kv:{}".format(tmp_path / "kvdir"))
        assert filed.backend.kind == "file"
        filed.close()

    def test_replicated_by_spec(self, tmp_path):
        store = make_journal_store(
            "replicated:sqlite:{};memory,memory".format(tmp_path / "p.db")
        )
        assert isinstance(store, ReplicatedJournalStore)
        assert store.primary.kind == "sqlite"
        assert [f.kind for f in store.followers] == ["memory", "memory"]
        store.close()

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            make_journal_store("parchment")
        # The rejection names the full supported grammar.
        assert SPEC_GRAMMAR in str(excinfo.value)
        with pytest.raises(ValueError):
            make_journal_store("sqlite:")
        with pytest.raises(ValueError):
            make_journal_store("kv:")
        with pytest.raises(ValueError):
            make_journal_store("replicated:memory")  # no follower
        with pytest.raises(ValueError):
            make_journal_store("replicated:;memory")  # no primary
        with pytest.raises(TypeError):
            make_journal_store(42)
