"""The replicated journal tier: kv backends, log shipping, and failover.

PR 6 cut the :class:`~repro.serving.journal.JournalStore` seam and PR 7
made one store the safety net for supervised restarts and degraded
reads -- but a single store is a single point of failure: one corrupt
sqlite file or one dead primary and every durable resident is gone.
This module is the step from "durable on one store" to "survives the
store", in two layers:

* :class:`KVJournalStore` -- a third backend that journals over a
  **minimal key-value interface** (:class:`KVBackend`: get / set /
  append / keys / delete).  Two implementations ship, neither adding a
  dependency: :class:`MemoryKV` (a dict of byte strings) and
  :class:`FileKV` (a directory of per-key files with atomic ``set``).
  Remote stores -- redis, s3, a network block device -- slot in later by
  implementing the same five methods.  The journal itself is one
  append-only log per shard (key ``shard-N.log``) of checksummed,
  length-prefixed records (:func:`~repro.serving.journal.pack_record`),
  so a torn tail is detected and truncated on replay exactly as in the
  sqlite backend.

* :class:`ReplicatedJournalStore` -- one **primary** plus N
  **followers**, each any journal store (memory, sqlite, kv, mixed).
  Every committed primary write is recorded in an in-RAM op log and
  **shipped** to the followers in batches of *ship_every* ops; a
  follower therefore warms by tailing the primary's op log, and
  ``health()`` reports each replica's **lag** (committed seqs it has
  not yet applied).  Shipping reuses the stores' own idempotent-append
  contract: a redelivered op is dropped by the follower's sequence
  guard, so tailing is safe under at-least-once delivery.

**Failover.**  When a primary write raises -- a real fault, or one
injected through the journal-fault kinds of
:mod:`repro.serving.faults` (``write_error`` / ``torn_write`` /
``stall``, armed via :meth:`ReplicatedJournalStore.arm`) -- the store
ships the committed op log to the survivors, asks its
:class:`~repro.serving.supervision.FailoverGuard` for promotion budget,
promotes the **most-caught-up** follower (highest summed ``last_seq``,
ties to the lowest index), and retries the failed write on the new
primary.  The caller never sees the fault and no committed write is
lost: an op enters the op log only after the primary applied it, and
the op log is shipped before promotion.  When no follower is left (or
the guard refuses), writes raise :class:`JournalUnavailable`.  Degraded
reads (:meth:`~repro.serving.journal.JournalStore.read_snapshot`) never
promote: they fall back to the freshest caught-up replica that can
answer.

>>> from repro.db.instance import DatabaseInstance
>>> db = DatabaseInstance.from_triples([("R", 0, 1)])
>>> kv = KVJournalStore(MemoryKV())
>>> kv.register(0, "toy", db, seq=1)
>>> reopened = KVJournalStore(kv.backend)      # replay from the same kv
>>> sorted(reopened.residents(0)), reopened.last_seq(0)
(['toy'], 1)
>>> kv.tear(0)                                 # crash mid-append
>>> torn = KVJournalStore(kv.backend)
>>> torn.health()["truncated_ops"], torn.last_seq(0)
(1, 1)

>>> store = make_replicated_journal_store("memory;memory,memory")
>>> store.register(0, "toy", db, seq=1)
>>> store.flush()                              # ship the op log
>>> store.health()["replication"]["replicas"]
[{'kind': 'memory', 'lag': 0}, {'kind': 'memory', 'lag': 0}]
>>> store.arm("write_error:times=1")           # next primary write fails
>>> store.register(0, "toy2", db, seq=2)       # -> failover, then retry
>>> h = store.health()["replication"]
>>> h["failovers"], h["primary"], len(h["replicas"])
(1, 'memory', 1)
>>> store.get(0, "toy2") is not None
True
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from typing import Dict, List, Optional, Tuple, Union

from repro.serving.faults import FaultPlan, make_fault_plan
from repro.serving.journal import (
    _FRAME,
    JOURNAL_STORES,
    JournalStore,
    _dumps_payload,
    make_journal_store,
    pack_record,
    unpack_record,
)
from repro.serving.supervision import FailoverGuard, RestartPolicy


class JournalFault(RuntimeError):
    """An injected journal fault (see ``JOURNAL_FAULT_KINDS``)."""


class JournalUnavailable(RuntimeError):
    """The primary failed and no follower could be promoted."""


# ---------------------------------------------------------------------------
# The minimal kv interface and its two built-in implementations.
# ---------------------------------------------------------------------------


class KVBackend:
    """The five-method contract :class:`KVJournalStore` journals over.

    Values are byte strings; keys are short names (``shard-0.log``).
    ``get`` returns ``None`` for a missing key; ``append`` creates the
    key when absent.  Implementations must be safe to call from
    concurrent shard-worker threads.
    """

    #: Short name surfaced in ``health()["backend"]``.
    kind = "abstract"

    def get(self, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def set(self, key: str, data: bytes) -> None:
        raise NotImplementedError

    def append(self, key: str, data: bytes) -> None:
        raise NotImplementedError

    def keys(self) -> List[str]:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class MemoryKV(KVBackend):
    """The kv contract over a dict of bytearrays (no durability)."""

    kind = "memory"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: Dict[str, bytearray] = {}

    def get(self, key):
        with self._lock:
            value = self._data.get(key)
            return bytes(value) if value is not None else None

    def set(self, key, data):
        with self._lock:
            self._data[key] = bytearray(data)

    def append(self, key, data):
        with self._lock:
            self._data.setdefault(key, bytearray()).extend(data)

    def keys(self):
        with self._lock:
            return sorted(self._data)

    def delete(self, key):
        with self._lock:
            self._data.pop(key, None)


class FileKV(KVBackend):
    """The kv contract over a directory of per-key files.

    ``set`` is atomic (write to a temp file, then :func:`os.replace`),
    so a crash mid-``set`` leaves the old value intact; ``append`` is a
    plain ``"ab"`` write, so a crash mid-``append`` leaves a torn tail
    -- exactly the failure :func:`~repro.serving.journal.unpack_record`
    detects on replay.
    """

    kind = "file"

    def __init__(self, root) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key)

    def get(self, key):
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def set(self, key, data):
        with self._lock:
            tmp = self._path(key) + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, self._path(key))

    def append(self, key, data):
        with self._lock:
            with open(self._path(key), "ab") as handle:
                handle.write(data)

    def keys(self):
        return sorted(
            name
            for name in os.listdir(self.root)
            if not name.endswith(".tmp")
        )

    def delete(self, key):
        try:
            os.remove(self._path(key))
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------------
# The kv-backed journal store.
# ---------------------------------------------------------------------------


class KVJournalStore(JournalStore):
    """A journal store over a :class:`KVBackend`: one log per shard.

    Key ``shard-N.log`` holds shard *N*'s op log -- concatenated framed
    records (:func:`~repro.serving.journal.pack_record`), each framing a
    pickled ``(seq, name, kind, obj)`` tuple with the same three kinds
    as the sqlite log (``snapshot`` / ``delta`` / ``seal``).  Replay
    reads each log front to back into the shared RAM view (delta
    records go onto their resident's pending tail); the first record
    that fails its checksum or frame truncates the log there (the
    intact prefix is written back with ``set``) and counts one
    ``truncated_ops`` -- a byte stream cannot enumerate what the torn
    tail destroyed, so the count is a floor.  After *compact_every*
    delta records against one resident the shard's residents are
    folded and its log is rewritten as one snapshot record per
    resident, stamped with the shard's high-water sequence.
    """

    kind = "kv"

    def __init__(self, backend: KVBackend, compact_every: int = 64) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        super().__init__()
        self.backend = backend
        self.compact_every = compact_every
        self._rows: Dict[int, int] = {}
        self._replay()

    @staticmethod
    def _key(shard_id: int) -> str:
        return "shard-{}.log".format(shard_id)

    def _replay(self) -> None:
        for key in self.backend.keys():
            if not key.startswith("shard-") or not key.endswith(".log"):
                continue
            try:
                shard_id = int(key[len("shard-"):-len(".log")])
            except ValueError:
                continue
            buffer = self.backend.get(key) or b""
            offset = 0
            while offset < len(buffer):
                try:
                    data, end = unpack_record(buffer, offset)
                    seq, name, kind, obj = pickle.loads(data)
                except Exception:
                    # Torn tail: keep the intact prefix, drop the rest.
                    self.backend.set(key, buffer[:offset])
                    self._truncated_ops += 1
                    break
                self._replayed(shard_id, seq, name, kind, obj)
                self._rows[shard_id] = self._rows.get(shard_id, 0) + 1
                offset = end

    # -- the backend hooks ---------------------------------------------

    def _log(self, shard_id, seq, name, kind, obj):
        data = _dumps_payload((seq, name, kind, obj))
        self.backend.append(self._key(shard_id), pack_record(data))
        self._rows[shard_id] = self._rows.get(shard_id, 0) + 1

    def _compact_resident(self, shard_id: int, name: str) -> None:
        """Fold every resident of the shard and rewrite the shard's log
        as one snapshot record each, stamped with its high-water seq."""
        seq = self._seqs.get(shard_id, 0)
        residents = self._views[shard_id]
        frames = [
            pack_record(_dumps_payload((seq, name, "snapshot", r.fold())))
            for name, r in residents.items()
        ]
        self.backend.set(self._key(shard_id), b"".join(frames))
        self._rows[shard_id] = len(frames)
        for resident in residents.values():
            resident.logged = 0
        self._compactions += 1

    def _log_rows(self) -> int:
        return sum(self._rows.values())

    # -- maintenance ---------------------------------------------------

    def close(self):
        self.backend.close()

    def tear(self, shard_id=0):
        """Append a record that fails its checksum (chaos hook): the
        next replay of this backend exercises torn-tail recovery."""
        with self._lock:
            self.backend.append(
                self._key(shard_id), _FRAME.pack(2 ** 20, 0) + b"torn"
            )

    def health(self):
        return dict(super().health(), backend=self.backend.kind)


# ---------------------------------------------------------------------------
# The replicated store: primary + followers, log shipping, failover.
# ---------------------------------------------------------------------------


class ReplicatedJournalStore(JournalStore):
    """One primary plus N follower journal stores, with failover.

    Sub-stores are given as spec strings (resolved through
    :func:`~repro.serving.journal.make_journal_store` and **owned** --
    closed by :meth:`close` and on promotion of a replacement) or as
    ready store instances (not owned).  Every committed primary write is
    recorded in an in-RAM per-shard op log; followers tail it in
    shipments of *ship_every* ops (:meth:`flush` ships immediately).
    The op log is trimmed at the slowest follower's cursor, so its
    length is bounded by the worst replica lag.

    Writes retry through failover (see the module docstring); reads
    (:meth:`has` / :meth:`get` / :meth:`residents` / :meth:`last_seq` /
    :meth:`placements`) do the same, so a dead primary is transparent
    to the serving layer while any follower survives.
    :meth:`read_snapshot` -- the PR 7 degraded-read path -- instead
    falls back to the **freshest caught-up replica** without promoting.

    A :class:`~repro.serving.supervision.FailoverGuard` budgets
    promotions per rolling window, so a flapping primary cannot burn
    the whole replica set in seconds.
    """

    kind = "replicated"

    def __init__(
        self,
        primary: Union[str, JournalStore],
        followers: Tuple[Union[str, JournalStore], ...] = (),
        ship_every: int = 8,
        guard: Optional[FailoverGuard] = None,
    ) -> None:
        if ship_every < 1:
            raise ValueError("ship_every must be >= 1")
        self._owned_ids: set = set()
        self.primary = self._resolve(primary)
        self.followers = [self._resolve(f) for f in followers]
        if not self.followers:
            raise ValueError(
                "replicated journal store needs at least one follower"
            )
        self.ship_every = ship_every
        self.guard = guard or FailoverGuard(
            RestartPolicy(max_restarts=8, window=30.0)
        )
        self._lock = threading.RLock()
        #: Per-shard op log of committed primary writes:
        #: ``(seq, name, kind, obj)`` in apply order.
        self._oplog: Dict[int, List[tuple]] = {}
        #: Absolute index of ``_oplog[shard][0]`` (the log is trimmed).
        self._bases: Dict[int, int] = {}
        #: Per follower: shard -> absolute index consumed.
        self._cursors: List[Dict[int, int]] = [{} for _ in self.followers]
        self._shards = set(self.primary.placements().values())
        self._ops = 0
        self._unshipped = 0
        self._failovers = 0
        self._followers_lost = 0
        self._faults: Optional[FaultPlan] = None
        for follower in self.followers:
            self._sync_follower(follower)

    def _resolve(self, spec) -> JournalStore:
        store = make_journal_store(spec)
        if store is None:
            raise ValueError("replicated journal sub-spec must not be None")
        if isinstance(spec, str):
            self._owned_ids.add(id(store))
        return store

    def _sync_follower(self, follower: JournalStore) -> None:
        """Snapshot-ship the primary's current state to a follower.

        Registrations go **unstamped** (stamping several with the same
        seq would trip the follower's redelivery guard after the first)
        and one :meth:`~repro.serving.journal.JournalStore.seal` jumps
        the follower's high-water to the primary's -- the PR 6
        consistent replay point.
        """
        for shard_id in sorted(self._shards):
            for name, db in self.primary.residents(shard_id).items():
                follower.register(shard_id, name, db, seq=0)
            follower.seal(shard_id, self.primary.last_seq(shard_id))

    # -- fault injection ----------------------------------------------

    def arm(self, faults) -> None:
        """Arm (or disarm with ``None``) a journal-fault plan; primary
        writes consult it once each (see :mod:`repro.serving.faults`)."""
        with self._lock:
            self._faults = make_fault_plan(faults)

    def _inject(self, actions, shard_id: int) -> None:
        for action in actions:
            if action.kind == "stall":
                time.sleep(action.seconds)
            elif action.kind == "torn_write":
                try:
                    self.primary.tear(shard_id)
                except Exception:
                    pass
                raise JournalFault("injected torn_write on primary journal")
            elif action.kind == "write_error":
                raise JournalFault("injected write_error on primary journal")
            # Transport kinds in a journal plan are ignored.

    # -- log shipping --------------------------------------------------

    def _ship_follower(self, index: int) -> None:
        follower = self.followers[index]
        cursor = self._cursors[index]
        for shard_id, ops in self._oplog.items():
            base = self._bases.get(shard_id, 0)
            start = max(cursor.get(shard_id, 0) - base, 0)
            for seq, name, kind, obj in ops[start:]:
                if kind == "register":
                    follower.register(shard_id, name, obj, seq)
                elif kind == "delta":
                    follower.delta(shard_id, name, obj, seq)
                else:  # "seal"
                    follower.seal(shard_id, seq)
            cursor[shard_id] = base + len(ops)

    def _ship(self) -> None:
        """Apply every unshipped op to every follower; drop (and close,
        when owned) a follower whose own store raises; trim the log."""
        dead = []
        for index in range(len(self.followers)):
            try:
                self._ship_follower(index)
            except Exception:
                dead.append(index)
        for index in reversed(dead):
            follower = self.followers.pop(index)
            self._cursors.pop(index)
            self._followers_lost += 1
            self._close_store(follower)
        self._trim()
        self._unshipped = 0

    def _trim(self) -> None:
        for shard_id, ops in self._oplog.items():
            base = self._bases.get(shard_id, 0)
            end = base + len(ops)
            if self.followers:
                low = min(
                    cursor.get(shard_id, 0) for cursor in self._cursors
                )
            else:
                low = end
            if low > base:
                del ops[: low - base]
                self._bases[shard_id] = low

    def flush(self) -> None:
        """Ship the op log to every follower now (lag drops to 0)."""
        with self._lock:
            self._ship()

    # -- failover ------------------------------------------------------

    def _failover(self, cause: BaseException) -> None:
        """Ship, then promote the most-caught-up follower to primary.

        Raises :class:`JournalUnavailable` when no follower is left or
        the guard refuses the promotion budget.
        """
        self._ship()
        if not self.followers:
            raise JournalUnavailable(
                "primary journal failed and no follower is available: "
                "{!r}".format(cause)
            )
        if not self.guard.allow():
            raise JournalUnavailable(
                "primary journal failed and the failover guard refused "
                "promotion (budget exhausted): {!r}".format(cause)
            )
        scores = []
        for follower in self.followers:
            try:
                scores.append(
                    sum(
                        follower.last_seq(shard_id)
                        for shard_id in self._shards
                    )
                )
            except Exception:
                scores.append(-1)
        index = max(range(len(scores)), key=lambda i: (scores[i], -i))
        old = self.primary
        self.primary = self.followers.pop(index)
        self._cursors.pop(index)
        self.guard.record()
        self._failovers += 1
        self._close_store(old)

    def _close_store(self, store: JournalStore) -> None:
        if id(store) in self._owned_ids:
            try:
                store.close()
            except Exception:
                pass

    # -- writes --------------------------------------------------------

    def _apply(self, kind, shard_id, name, obj, seq) -> None:
        with self._lock:
            self._shards.add(shard_id)
            pending = (
                self._faults.draw(shard_id, [kind]) if self._faults else []
            )
            while True:
                try:
                    if pending:
                        actions, pending = pending, []
                        self._inject(actions, shard_id)
                    if kind == "register":
                        self.primary.register(shard_id, name, obj, seq)
                    elif kind == "delta":
                        self.primary.delta(shard_id, name, obj, seq)
                    else:  # "seal"
                        self.primary.seal(shard_id, seq)
                except KeyError:
                    # Unknown resident is the caller's bug, not a store
                    # failure -- surfacing it must not burn a replica.
                    raise
                except Exception as exc:
                    self._failover(exc)
                    continue
                break
            self._oplog.setdefault(shard_id, []).append(
                (seq, name, kind, obj)
            )
            self._bases.setdefault(shard_id, 0)
            self._ops += 1
            self._unshipped += 1
            if self._unshipped >= self.ship_every:
                self._ship()

    def register(self, shard_id, name, db, seq=0):
        self._apply("register", shard_id, name, db, seq)

    def delta(self, shard_id, name, delta, seq=0):
        self._apply("delta", shard_id, name, delta, seq)

    def seal(self, shard_id, seq):
        self._apply("seal", shard_id, "", None, seq)

    # -- reads ---------------------------------------------------------

    def _read(self, fn):
        with self._lock:
            while True:
                try:
                    return fn(self.primary)
                except KeyError:
                    raise
                except Exception as exc:
                    self._failover(exc)

    def has(self, shard_id, name):
        return self._read(lambda store: store.has(shard_id, name))

    def get(self, shard_id, name):
        return self._read(lambda store: store.get(shard_id, name))

    def residents(self, shard_id):
        return self._read(lambda store: store.residents(shard_id))

    def last_seq(self, shard_id):
        return self._read(lambda store: store.last_seq(shard_id))

    def placements(self):
        return self._read(lambda store: store.placements())

    def read_snapshot(self, shard_id, name):
        """Degraded read: the primary if it answers, else the freshest
        caught-up replica that does.  Never promotes."""
        with self._lock:
            try:
                db = self.primary.get(shard_id, name)
                if db is not None:
                    return db
            except Exception:
                pass
            try:
                self._ship()
            except Exception:
                pass
            best, best_seq = None, -1
            for follower in self.followers:
                try:
                    db = follower.get(shard_id, name)
                    seq = follower.last_seq(shard_id)
                except Exception:
                    continue
                if db is not None and seq > best_seq:
                    best, best_seq = db, seq
            return best

    # -- maintenance ---------------------------------------------------

    def compact(self, shard_id=None):
        return self._read(lambda store: store.compact(shard_id))

    def tear(self, shard_id=0):
        with self._lock:
            self.primary.tear(shard_id)

    def close(self):
        with self._lock:
            try:
                self._ship()
            except Exception:
                pass
            self._close_store(self.primary)
            for follower in self.followers:
                self._close_store(follower)

    def health(self):
        with self._lock:
            try:
                merged = dict(self.primary.health())
            except Exception:
                merged = {}
            merged["store"] = self.kind
            replicas = []
            for follower in self.followers:
                try:
                    lag = sum(
                        max(
                            0,
                            self.primary.last_seq(shard_id)
                            - follower.last_seq(shard_id),
                        )
                        for shard_id in self._shards
                    )
                except Exception:
                    lag = -1
                replicas.append({"kind": follower.kind, "lag": lag})
            merged["replication"] = {
                "primary": self.primary.kind,
                "failovers": self._failovers,
                "followers_lost": self._followers_lost,
                "ship_every": self.ship_every,
                "promotions_in_window": self.guard.snapshot()[
                    "promotions_in_window"
                ],
                "replicas": replicas,
            }
            return merged


# ---------------------------------------------------------------------------
# Spec-string factories (the ``kv:`` / ``replicated:`` grammar arms).
# ---------------------------------------------------------------------------


def make_kv_journal_store(spec: str) -> KVJournalStore:
    """Resolve the tail of a ``kv:`` spec: ``memory`` or a directory.

    >>> make_kv_journal_store("memory").backend.kind
    'memory'
    """
    if not spec:
        raise ValueError(
            "kv journal spec needs a backend: kv:memory | kv:DIR"
        )
    if spec == "memory":
        return KVJournalStore(MemoryKV())
    return KVJournalStore(FileKV(spec))


def make_replicated_journal_store(spec: str) -> ReplicatedJournalStore:
    """Resolve the tail of a ``replicated:`` spec:
    ``PRIMARY;FOLLOWER[,FOLLOWER...]`` -- each side any journal spec.

    >>> store = make_replicated_journal_store("memory;memory")
    >>> store.kind, store.primary.kind, len(store.followers)
    ('replicated', 'memory', 1)
    """
    primary, sep, tail = spec.partition(";")
    followers = [part.strip() for part in tail.split(",") if part.strip()]
    if not primary.strip() or not sep or not followers:
        raise ValueError(
            "replicated journal spec needs a primary and at least one "
            "follower: replicated:PRIMARY;FOLLOWER[,FOLLOWER...]"
        )
    return ReplicatedJournalStore(primary.strip(), tuple(followers))


JOURNAL_STORES["kv"] = KVJournalStore
JOURNAL_STORES["replicated"] = ReplicatedJournalStore
