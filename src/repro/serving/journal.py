"""The durable journal tier: resident state that outlives the server.

PR 5 gave every :class:`~repro.serving.transport.ProcessTransport` a
router-side **journal** -- the current facts-only snapshot of each
resident, advanced by every forwarded delta -- used for crash replay and
for rehydrating stripped lazy certificates.  That journal was an ad-hoc
in-memory dict: a child crash was survivable, a *server* restart lost
everything (ROADMAP open item 3).

This module turns the journal into a seam:

* :class:`JournalStore` -- the abstract store.  Per shard it records
  registrations (facts-only snapshots) and forwarded
  :class:`~repro.db.delta.Delta`\\ s, each stamped with the transport's
  per-shard monotonic **sequence number**, and answers the questions the
  serving layer asks: the current folded snapshot of a resident
  (:meth:`~JournalStore.get`), everything a fresh child must replay
  (:meth:`~JournalStore.residents`), the shard's high-water sequence
  (:meth:`~JournalStore.last_seq`), and where every durable resident
  lives (:meth:`~JournalStore.placements` -- the server's cold-start
  routing table).  The store also keeps the RAM view every backend
  shares: per resident the last folded snapshot plus a pending tail of
  deltas.  An append only pushes onto the tail -- O(delta), no commit --
  and the tail is folded into the snapshot, as one overlay with one
  commit, by the first read or by compaction.  Write paths check
  presence with :meth:`~JournalStore.has`, which never folds; callers
  guard :meth:`~JournalStore.delta` with it.
* :class:`MemoryJournalStore` -- the status quo, behind the seam: the
  shared view, no durability, no serialization.
* :class:`SqliteJournalStore` -- an append-only op log in a single
  sqlite file (stdlib :mod:`sqlite3`, no new dependencies).  Snapshots
  (as fact columns, see :func:`_dumps_payload`) and deltas are appended
  as pickled rows; the shared view keeps reads off the disk path.  Every *compact_every* delta rows per resident the log is
  **compacted**: the resident's tail is folded and its rows are
  replaced by one snapshot row holding the folded instance, so the log
  stays proportional to the resident set, not to history.

Appends are **idempotent**: a row whose sequence number is at or below
the shard's high-water mark is a redelivery (the transport retried a
batch whose first attempt already reached the journal) and is dropped.
Together with the child-side skip in
:meth:`repro.serving.shard.ShardCore.run_batch` this gives the serving
layer at-least-once delivery with exactly-once effect.

Persistent log records are **checksummed and length-prefixed**
(:func:`pack_record` / :func:`unpack_record`): every payload carries a
little-endian ``(length, crc32)`` header, so a torn write -- a crash
mid-append, a truncated file, a flipped byte -- is *detected* on reopen
instead of replayed as garbage.  Recovery truncates the log at the
first corrupt or incomplete record, re-derives ``last_seq`` from the
intact prefix, and counts the dropped tail as ``truncated_ops`` in
:meth:`~JournalStore.health`.

Two more backends live in :mod:`repro.serving.replication` (imported
lazily by :func:`make_journal_store`): ``kv:`` journals over a minimal
get/set/append key-value interface, and ``replicated:`` -- one primary
plus follower replicas that tail the primary's op log, with promotion
on primary failure.

>>> blob = pack_record(b"payload")
>>> unpack_record(blob)
(b'payload', 15)
>>> try:
...     unpack_record(blob[:-2])
... except CorruptRecord as torn:
...     print(torn)
record payload truncated (5 of 7 bytes)

>>> store = MemoryJournalStore()
>>> journal = store.shard(0)
>>> from repro.db.instance import DatabaseInstance
>>> journal.register("toy", DatabaseInstance.from_triples([("R", 0, 1)]), seq=1)
>>> sorted(journal.residents())
['toy']
>>> journal.has("toy"), journal.has("ghost")
(True, False)
>>> journal.last_seq()
1
>>> make_journal_store("memory").kind
'memory'
"""

from __future__ import annotations

import copyreg
import io
import os
import pickle
import sqlite3
import struct
import threading
import zlib
from typing import Dict, List, Optional, Tuple, Union

from repro.db.delta import Delta, DeltaInstance
from repro.db.instance import DatabaseInstance

#: Record header: little-endian payload length + crc32 of the payload.
_FRAME = struct.Struct("<II")


class CorruptRecord(ValueError):
    """A log record failed its length or checksum check (torn tail)."""


def pack_record(data: bytes) -> bytes:
    """Frame *data* with the length + crc32 header for durable logs."""
    return _FRAME.pack(len(data), zlib.crc32(data)) + data


def unpack_record(buffer: bytes, offset: int = 0) -> Tuple[bytes, int]:
    """Read the framed record at *offset*; returns ``(data, end)``.

    *end* is the offset one past the record, so concatenated frames (the
    file-backed kv log) iterate by feeding it back in.  Raises
    :class:`CorruptRecord` when the header or payload is incomplete or
    the checksum does not match -- the torn-tail signal.
    """
    header_end = offset + _FRAME.size
    if len(buffer) < header_end:
        raise CorruptRecord(
            "record header truncated ({} of {} bytes)".format(
                len(buffer) - offset, _FRAME.size
            )
        )
    length, crc = _FRAME.unpack_from(buffer, offset)
    end = header_end + length
    if len(buffer) < end:
        raise CorruptRecord(
            "record payload truncated ({} of {} bytes)".format(
                len(buffer) - header_end, length
            )
        )
    data = bytes(buffer[header_end:end])
    if zlib.crc32(data) != crc:
        raise CorruptRecord("record checksum mismatch")
    return data, end


def _dumps_payload(obj) -> bytes:
    """Pickle a log payload, with every snapshot as three fact columns.

    The default pickle of a :class:`DatabaseInstance` reduces each
    :class:`~repro.db.facts.Fact` object in turn; its relations, keys
    and values as plain lists pickle several times faster and smaller.
    Loading rebuilds the instance through :func:`_from_columns`, and
    rows holding default-pickled instances still load.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = _PAYLOAD_REDUCERS
    pickler.dump(obj)
    return buffer.getvalue()


def _columns(db: DatabaseInstance):
    facts = db.facts
    return (
        _from_columns,
        (
            [fact.relation for fact in facts],
            [fact.key for fact in facts],
            [fact.value for fact in facts],
        ),
    )


def _from_columns(relations, keys, values) -> DatabaseInstance:
    return DatabaseInstance.from_triples(zip(relations, keys, values))


_PAYLOAD_REDUCERS = copyreg.dispatch_table.copy()
_PAYLOAD_REDUCERS[DatabaseInstance] = _columns


class _Resident:
    """One resident in the shared RAM view: its last folded snapshot plus
    the pending tail of :class:`~repro.db.delta.Delta`\\ s appended since.

    Appends only push onto the tail (O(delta)); :meth:`fold` turns the
    tail into one overlay with one commit, on the first read or at
    compaction.
    """

    __slots__ = ("snapshot", "tail", "logged")

    def __init__(self, snapshot: DatabaseInstance) -> None:
        self.snapshot = snapshot
        self.tail: List[Delta] = []
        #: Delta records in the durable log since the resident's last
        #: snapshot record -- the compaction trigger.
        self.logged = 0

    def push(self, delta: Delta) -> None:
        self.tail.append(delta)
        self.logged += 1

    def fold(self) -> DatabaseInstance:
        """The current snapshot, folding the pending tail first.

        The overlay goes over a compact-free twin of the snapshot: on the
        thread transport the snapshot may be the core's own instance,
        whose compact view a commit would otherwise patch and keep alive
        -- and the journal never runs kernels.
        """
        if self.tail:
            base = self.snapshot
            if base._compact is not None:
                base = DatabaseInstance._from_parts(
                    base._facts,
                    base._blocks,
                    base._adom,
                    base._out_index,
                    base._refcounts,
                )
            overlay = DeltaInstance(base)
            for delta in self.tail:
                overlay.apply(delta)
            self.snapshot = overlay.commit()
            self.tail = []
        return self.snapshot


class JournalStore:
    """The seam between the serving layer and resident durability.

    One store serves every shard of a server; all methods take the shard
    id explicitly and must be safe to call from concurrent shard-worker
    threads.  Transports hold a :class:`ShardJournal` view bound to
    their shard (see :meth:`shard`).

    Write methods take the op's per-shard sequence number (``seq=0``
    means unstamped: always applied, never replay-protected).  A stamped
    append with ``seq <= last_seq(shard)`` is a redelivery and must be
    ignored.

    The base class keeps the RAM view every backend shares -- per
    resident the last folded snapshot plus a pending tail of deltas (see
    :class:`_Resident`), per shard the high-water mark -- with the write
    path and the reads over it.  A backend adds only its durable append
    (:meth:`_log`), its replay, and its compaction
    (:meth:`_compact_resident`, due every *compact_every* appends to one
    resident).  Appends never commit; the tail is folded into the
    snapshot by the first read (:meth:`get`, :meth:`residents`,
    :meth:`read_snapshot`) or by compaction.
    """

    #: Short name surfaced in stats (``"memory"``, ``"sqlite"``).
    kind = "abstract"

    #: Appends to one resident between compactions.
    compact_every = 64

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._views: Dict[int, Dict[str, _Resident]] = {}
        self._seqs: Dict[int, int] = {}
        self._ops = 0
        self._compactions = 0
        #: Ops dropped by torn-tail recovery on this open.
        self._truncated_ops = 0

    def shard(self, shard_id: int) -> "ShardJournal":
        """A view of this store bound to one shard."""
        return ShardJournal(self, shard_id)

    # -- backend hooks (called under ``_lock``) -----------------------

    def _log(self, shard_id, seq, name, kind, obj) -> None:
        """Make one op durable: *kind* is ``snapshot`` (*obj* an
        instance), ``delta`` (*obj* a delta) or ``seal`` (no *obj*).
        The memory store keeps nothing."""

    def _compact_resident(self, shard_id: int, name: str) -> None:
        """Fold the resident's tail and reset its ``logged`` count; a
        durable backend also rewrites its log rows as one snapshot."""
        resident = self._views[shard_id][name]
        resident.fold()
        resident.logged = 0

    def _log_rows(self) -> int:
        return 0

    # -- the shared view -----------------------------------------------

    def _replayed(self, shard_id, seq, name, kind, obj) -> None:
        """Apply one op a backend read back from its log: a snapshot
        becomes the resident, a delta goes onto its tail (no commit), a
        seal only moves the high-water."""
        if kind == "snapshot":
            self._views.setdefault(shard_id, {})[name] = _Resident(obj)
        elif kind == "delta":
            self._views[shard_id][name].push(obj)
        if seq > self._seqs.get(shard_id, 0):
            self._seqs[shard_id] = seq

    def _redelivered(self, shard_id: int, seq: int) -> bool:
        return bool(seq) and seq <= self._seqs.get(shard_id, 0)

    def _bump(self, shard_id: int, seq: int) -> None:
        self._ops += 1
        if seq > self._seqs.get(shard_id, 0):
            self._seqs[shard_id] = seq

    # -- writes --------------------------------------------------------

    def register(
        self,
        shard_id: int,
        name: str,
        db: DatabaseInstance,
        seq: int = 0,
    ) -> None:
        """Record a registration: *db* becomes *name*'s snapshot,
        superseding any earlier ops for the name."""
        with self._lock:
            if self._redelivered(shard_id, seq):
                return
            self._log(shard_id, seq, name, "snapshot", db)
            self._views.setdefault(shard_id, {})[name] = _Resident(db)
            self._bump(shard_id, seq)

    def delta(
        self, shard_id: int, name: str, delta: Delta, seq: int = 0
    ) -> None:
        """Append a forwarded delta against *name*'s current snapshot.

        Raises :class:`KeyError` if the name was never registered on the
        shard -- callers guard with :meth:`has`.  A failed append leaves
        no trace, not even an empty shard.
        """
        with self._lock:
            if self._redelivered(shard_id, seq):
                return
            resident = self._views.get(shard_id, {}).get(name)
            if resident is None:
                raise KeyError(
                    "shard {} journal has no resident {!r}".format(
                        shard_id, name
                    )
                )
            self._log(shard_id, seq, name, "delta", delta)
            resident.push(delta)
            self._bump(shard_id, seq)
            if resident.logged >= self.compact_every:
                self._compact_resident(shard_id, name)

    def seal(self, shard_id: int, seq: int) -> None:
        """Advance the shard's high-water mark to *seq* without an op.

        The replication tier uses this after snapshot-shipping a
        follower: the shipped snapshots already contain every write up
        to the primary's high-water, so the follower's ``last_seq`` must
        jump there in one step (stamping each snapshot would trip the
        redelivery guard after the first).  A seal at or below the
        current high-water is a no-op.
        """
        with self._lock:
            if seq > self._seqs.get(shard_id, 0):
                self._log(shard_id, seq, "", "seal", None)
                self._seqs[shard_id] = seq

    # -- reads ---------------------------------------------------------

    def has(self, shard_id: int, name: str) -> bool:
        """Whether *name* is a resident of the shard.  Unlike :meth:`get`
        this never folds, so a write path can check presence per op."""
        with self._lock:
            return name in self._views.get(shard_id, {})

    def get(self, shard_id: int, name: str) -> Optional[DatabaseInstance]:
        """The current folded snapshot of *name*, or ``None``."""
        with self._lock:
            resident = self._views.get(shard_id, {}).get(name)
            return resident.fold() if resident is not None else None

    def residents(self, shard_id: int) -> Dict[str, DatabaseInstance]:
        """Every resident of the shard with its folded snapshot (a copy)."""
        with self._lock:
            return {
                name: resident.fold()
                for name, resident in self._views.get(shard_id, {}).items()
            }

    def last_seq(self, shard_id: int) -> int:
        """The shard's high-water sequence number (0 when empty)."""
        with self._lock:
            return self._seqs.get(shard_id, 0)

    def placements(self) -> Dict[str, int]:
        """name -> shard for every durable resident: the cold-start
        routing table a reopened server pins before serving."""
        with self._lock:
            return {
                name: shard_id
                for shard_id, shard in sorted(self._views.items())
                for name in shard
            }

    def read_snapshot(
        self, shard_id: int, name: str
    ) -> Optional[DatabaseInstance]:
        """The freshest *available* snapshot of *name* -- the degraded-read
        path.  The default is :meth:`get`; the replicated store overrides
        it to fall back to the freshest caught-up replica when the
        primary cannot answer."""
        return self.get(shard_id, name)

    # -- maintenance ---------------------------------------------------

    def compact(self, shard_id: Optional[int] = None) -> int:
        """Compact every resident with appends since its last compaction
        (on *shard_id* only, when given); returns how many there were."""
        with self._lock:
            targets = [
                (sid, name)
                for sid, shard in self._views.items()
                if shard_id is None or sid == shard_id
                for name, resident in shard.items()
                if resident.logged > 0
            ]
            for sid, name in targets:
                # A backend may compact a whole shard at once, which
                # resets the shard's other targets too.
                if self._views[sid][name].logged > 0:
                    self._compact_resident(sid, name)
            return len(targets)

    def close(self) -> None:
        """Release resources; further writes may fail."""

    def tear(self, shard_id: int = 0) -> None:
        """Chaos hook: corrupt the tail of the shard's persistent log,
        as a crash mid-append would.  Durable backends append a record
        that fails its checksum; in-memory stores have no torn-tail
        surface, so the default is a no-op.  Used by the ``torn_write``
        journal fault (see :mod:`repro.serving.faults`)."""

    def health(self) -> dict:
        """Plain-data vitals for ``stats()`` / ``serve --stats``."""
        with self._lock:
            return {
                "store": self.kind,
                "residents": sum(map(len, self._views.values())),
                "shards": len(self._views),
                "ops": self._ops,
                "log_rows": self._log_rows(),
                "compactions": self._compactions,
                "truncated_ops": self._truncated_ops,
            }


class ShardJournal:
    """A :class:`JournalStore` view bound to one shard.

    This is what a transport holds: the same store API minus the shard
    id, so transport code reads like the PR 5 dict it replaced.
    """

    __slots__ = ("store", "shard_id")

    def __init__(self, store: JournalStore, shard_id: int) -> None:
        self.store = store
        self.shard_id = shard_id

    @property
    def kind(self) -> str:
        return self.store.kind

    def register(self, name: str, db: DatabaseInstance, seq: int = 0) -> None:
        self.store.register(self.shard_id, name, db, seq)

    def delta(self, name: str, delta: Delta, seq: int = 0) -> None:
        self.store.delta(self.shard_id, name, delta, seq)

    def seal(self, seq: int) -> None:
        self.store.seal(self.shard_id, seq)

    def has(self, name: str) -> bool:
        return self.store.has(self.shard_id, name)

    def get(self, name: str) -> Optional[DatabaseInstance]:
        return self.store.get(self.shard_id, name)

    def read(self, name: str) -> Optional[DatabaseInstance]:
        """The freshest available snapshot (degraded reads); see
        :meth:`JournalStore.read_snapshot`."""
        return self.store.read_snapshot(self.shard_id, name)

    def residents(self) -> Dict[str, DatabaseInstance]:
        return self.store.residents(self.shard_id)

    def last_seq(self) -> int:
        return self.store.last_seq(self.shard_id)


class MemoryJournalStore(JournalStore):
    """The PR 5 journal behind the seam: the shared RAM view alone.

    No durability -- a server restart starts empty -- but also no
    serialization and no disk in the write path, which keeps the default
    transports exactly as cheap as before the seam existed.  With no log
    to compact, "compaction" every *compact_every* appends to a resident
    only folds its tail, which bounds the tail.
    """

    kind = "memory"


class SqliteJournalStore(JournalStore):
    """An append-only op log in one sqlite file, with compaction.

    Log format (table ``journal``): one row per op, in append order
    (``id`` is the rowid), each carrying the shard, the op's sequence
    number, the resident name, the row kind, and a **framed** payload --
    the pickled object (:func:`_dumps_payload`) wrapped by
    :func:`pack_record`, so every row carries its own length and crc32:

    * ``kind='snapshot'`` -- a facts-only
      :class:`~repro.db.instance.DatabaseInstance` (a registration, or
      the folded result of compaction);
    * ``kind='delta'`` -- a forwarded :class:`~repro.db.delta.Delta`;
    * ``kind='seal'`` -- a high-water advance with no payload (see
      :meth:`JournalStore.seal`).

    Reopening a path replays the log in append order to rebuild the
    shared RAM view -- snapshot rows become snapshots, delta rows are
    pushed onto their resident's tail -- and reads (:meth:`get`,
    :meth:`residents`) never touch the disk after that.  Replay is
    **defensive**: a record that fails its checksum, a row sqlite cannot
    read back (a truncated file loses whole pages), or an unreadable
    schema truncates the log at the first bad record -- the intact
    prefix is kept (rewritten to a fresh file when the old one is
    damaged), ``last_seq`` is re-derived from it, and the dropped tail
    is counted as ``truncated_ops`` in :meth:`health`.  A registration
    deletes the name's earlier rows (the snapshot supersedes them), and
    after *compact_every* delta rows against one resident the
    resident's tail is folded and its rows are replaced by a single
    snapshot row stamped with the shard's high-water sequence, so log
    length tracks the resident set, not history.  All methods serialize
    on one lock around one connection (``check_same_thread=False``),
    which is plenty for per-shard append traffic.
    """

    kind = "sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS journal (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            shard INTEGER NOT NULL,
            seq INTEGER NOT NULL,
            name TEXT NOT NULL,
            kind TEXT NOT NULL,
            payload BLOB NOT NULL
        );
        CREATE INDEX IF NOT EXISTS journal_shard_name
            ON journal (shard, name);
    """

    # The write path is the base class's, bound in this class's own
    # namespace too, so instrumentation that wraps methods by class
    # ``__dict__`` (timing sqlite appends, say) finds them here.
    register = JournalStore.register
    delta = JournalStore.delta

    def __init__(self, path, compact_every: int = 64) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        super().__init__()
        self.path = str(path)
        self.compact_every = compact_every
        self._conn = None
        try:
            self._conn = sqlite3.connect(self.path, check_same_thread=False)
            self._conn.executescript(self._SCHEMA)
        except sqlite3.DatabaseError:
            # The file's header or schema pages are unreadable: nothing
            # row-wise can be salvaged, the whole log is the torn tail.
            self._truncated_ops = 1
            self._rebuild([])
        self._replay()

    def _replay(self) -> None:
        """Rebuild the RAM view from the log, in append order.

        Recovery contract: the log is replayed up to the first record
        that cannot be read back intact (checksum mismatch, torn frame,
        unreadable row pages); everything from that record on is dropped
        and counted, and a damaged file is rewritten from the intact
        prefix so the next append lands on a sound log.
        """
        rows, dropped, damaged = self._scan_log()
        if damaged:
            self._truncated_ops += dropped
            self._rebuild(rows)
        for shard_id, seq, name, kind, obj, _data in rows:
            self._replayed(shard_id, seq, name, kind, obj)

    def _scan_log(self):
        """Read back every intact record: ``(rows, dropped, damaged)``.

        *rows* are ``(shard, seq, name, kind, obj, data)`` tuples for
        the intact prefix; *dropped* counts the records lost to the torn
        tail (exact when sqlite can still enumerate the remaining rows,
        a floor of 1 when it cannot); *damaged* says whether the file
        needs rebuilding.
        """
        rows: List[tuple] = []
        try:
            cursor = self._conn.execute(
                "SELECT shard, seq, name, kind, payload "
                "FROM journal ORDER BY id"
            )
        except sqlite3.DatabaseError:
            return rows, 1, True
        while True:
            try:
                fetched = cursor.fetchone()
            except sqlite3.DatabaseError:
                # The row's pages are gone (truncated file).  The btree
                # may still know the total row count; fall back to "at
                # least one" when it does not.
                return rows, max(1, self._count_rows() - len(rows)), True
            if fetched is None:
                return rows, 0, False
            shard_id, seq, name, kind, payload = fetched
            try:
                data, end = unpack_record(payload)
                if end != len(payload):
                    raise CorruptRecord("trailing bytes after record")
                obj = pickle.loads(data) if kind != "seal" else None
            except Exception:
                # First corrupt record: drop it and everything after.
                dropped = 1
                while True:
                    try:
                        if cursor.fetchone() is None:
                            break
                    except sqlite3.DatabaseError:
                        break
                    dropped += 1
                return rows, dropped, True
            rows.append((shard_id, seq, name, kind, obj, data))

    def _count_rows(self) -> int:
        try:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM journal"
            ).fetchone()
            return count
        except sqlite3.DatabaseError:
            return 0

    def _rebuild(self, rows) -> None:
        """Rewrite the log file from the intact prefix *rows*."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - best effort
                pass
        for suffix in ("", "-journal", "-wal", "-shm"):
            try:
                os.remove(self.path + suffix)
            except OSError:
                pass
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.executescript(self._SCHEMA)
        self._conn.executemany(
            "INSERT INTO journal (shard, seq, name, kind, payload) "
            "VALUES (?, ?, ?, ?, ?)",
            [
                (shard_id, seq, name, kind, pack_record(data))
                for shard_id, seq, name, kind, _obj, data in rows
            ],
        )
        self._conn.commit()

    # -- the backend hooks ---------------------------------------------

    def _log(self, shard_id, seq, name, kind, obj):
        if kind == "snapshot":
            # The snapshot supersedes every earlier row for the name.
            self._conn.execute(
                "DELETE FROM journal WHERE shard = ? AND name = ?",
                (shard_id, name),
            )
        payload = b"" if obj is None else _dumps_payload(obj)
        self._insert(shard_id, seq, name, kind, pack_record(payload))
        self._conn.commit()

    def _insert(self, shard_id, seq, name, kind, payload) -> None:
        self._conn.execute(
            "INSERT INTO journal (shard, seq, name, kind, payload) "
            "VALUES (?, ?, ?, ?, ?)",
            (shard_id, seq, name, kind, payload),
        )

    def _compact_resident(self, shard_id: int, name: str) -> None:
        """Fold the resident's tail and replace its log rows with one
        snapshot row.

        The snapshot row is stamped with the shard's high-water sequence
        -- the folded state is exactly the state "as of" that sequence,
        and reopening the log must recover the same :meth:`last_seq`.
        """
        resident = self._views[shard_id][name]
        self._log(
            shard_id,
            self._seqs.get(shard_id, 0),
            name,
            "snapshot",
            resident.fold(),
        )
        resident.logged = 0
        self._compactions += 1

    def _log_rows(self) -> int:
        (count,) = self._conn.execute("SELECT COUNT(*) FROM journal").fetchone()
        return count

    # -- maintenance ---------------------------------------------------

    def close(self):
        with self._lock:
            self._conn.commit()
            self._conn.close()

    def tear(self, shard_id=0):
        """Append a record that fails its checksum (chaos hook): the
        next reopen of this path exercises torn-tail recovery for real."""
        with self._lock:
            self._insert(
                shard_id, 0, "", "delta", _FRAME.pack(2 ** 20, 0) + b"torn"
            )
            self._conn.commit()

    def health(self):
        return dict(super().health(), path=self.path)


#: Built-in stores selectable by name (CLI ``serve --journal``).  The
#: replication module registers ``kv`` and ``replicated`` on import.
JOURNAL_STORES = {
    "memory": MemoryJournalStore,
    "sqlite": SqliteJournalStore,
}

#: The full ``--journal`` spec grammar, quoted by rejection errors.
SPEC_GRAMMAR = (
    "memory | sqlite:PATH | kv:memory | kv:DIR | "
    "replicated:PRIMARY;FOLLOWER[,FOLLOWER...]"
)


def make_journal_store(
    spec: Union[None, str, JournalStore],
) -> Optional[JournalStore]:
    """Resolve *spec* to a store: ``None``, a store instance, or a spec
    string from the grammar ``memory | sqlite:PATH | kv:memory | kv:DIR
    | replicated:PRIMARY;FOLLOWER[,FOLLOWER...]`` (the ``replicated:``
    sub-specs recurse through this same grammar).

    >>> make_journal_store(None) is None
    True
    >>> make_journal_store("memory").kind
    'memory'
    >>> make_journal_store("parchment")
    Traceback (most recent call last):
        ...
    ValueError: unknown journal store spec 'parchment' (grammar: memory | \
sqlite:PATH | kv:memory | kv:DIR | replicated:PRIMARY;FOLLOWER[,FOLLOWER...])
    """
    if spec is None or isinstance(spec, JournalStore):
        return spec
    if isinstance(spec, str):
        if spec == "memory":
            return MemoryJournalStore()
        if spec.startswith("sqlite:"):
            path = spec[len("sqlite:"):]
            if not path:
                raise ValueError(
                    "sqlite journal spec needs a path: sqlite:PATH"
                )
            return SqliteJournalStore(path)
        if spec.startswith("kv:"):
            from repro.serving.replication import make_kv_journal_store

            return make_kv_journal_store(spec[len("kv:"):])
        if spec.startswith("replicated:"):
            from repro.serving.replication import (
                make_replicated_journal_store,
            )

            return make_replicated_journal_store(spec[len("replicated:"):])
        raise ValueError(
            "unknown journal store spec {!r} (grammar: {})".format(
                spec, SPEC_GRAMMAR
            )
        )
    raise TypeError(
        "journal store spec must be None, a spec string, or a "
        "JournalStore; got {!r}".format(spec)
    )
