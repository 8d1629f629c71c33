"""DeltaInstance invariants: the overlay and its commits must be
indistinguishable from freshly built instances.

The copy-on-write overlay patches blocks, adom refcounts and the
outgoing-edge index in place; these tests pin every patched structure
against a from-scratch :class:`DatabaseInstance` across randomized
insert/remove/commit sequences, including edge cases (emptying blocks,
constants leaving and re-entering the domain, insert/remove round-trips).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.delta import Delta, DeltaInstance
from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance
from repro.serving.transport import _decode_snapshot, _encode_snapshot

ALPHABET = ["R", "S", "X"]


def random_fact(rng, n_constants=6):
    return Fact(
        rng.choice(ALPHABET),
        rng.randint(0, n_constants - 1),
        rng.randint(0, n_constants - 1),
    )


def assert_equivalent(committed: DatabaseInstance, fresh: DatabaseInstance):
    """Every observable structure of *committed* matches *fresh*."""
    assert committed == fresh
    assert committed.adom() == fresh.adom()
    assert committed.sorted_adom() == fresh.sorted_adom()
    assert committed.adom_refcounts() == fresh.adom_refcounts()
    assert {b.block_id: b.facts for b in committed.blocks()} == {
        b.block_id: b.facts for b in fresh.blocks()
    }
    assert committed._out_index == fresh._out_index
    assert committed.is_consistent() == fresh.is_consistent()
    assert list(committed) == list(fresh)


class TestDeltaInstanceBasics:
    def test_insert_and_commit(self):
        base = DatabaseInstance.from_triples([("R", 0, 1)])
        overlay = DeltaInstance(base)
        assert overlay.insert_fact(Fact("R", 0, 2))
        assert Fact("R", 0, 2) in overlay
        assert len(overlay) == 2
        committed = overlay.commit()
        assert_equivalent(
            committed,
            DatabaseInstance.from_triples([("R", 0, 1), ("R", 0, 2)]),
        )
        # The base is untouched (copy-on-write).
        assert len(base) == 1
        assert base.block("R", 0).facts == (Fact("R", 0, 1),)

    def test_insert_existing_is_noop(self):
        base = DatabaseInstance.from_triples([("R", 0, 1)])
        overlay = DeltaInstance(base)
        assert not overlay.insert_fact(Fact("R", 0, 1))
        assert overlay.added_facts == frozenset()
        assert overlay.commit() is base

    def test_remove_missing_is_noop(self):
        base = DatabaseInstance.from_triples([("R", 0, 1)])
        overlay = DeltaInstance(base)
        assert not overlay.remove_fact(Fact("R", 5, 5))
        assert overlay.removed_facts == frozenset()

    def test_remove_empties_block_and_adom(self):
        base = DatabaseInstance.from_triples([("R", 0, 1), ("S", 7, 8)])
        overlay = DeltaInstance(base)
        assert overlay.remove_fact(Fact("S", 7, 8))
        assert overlay.block("S", 7) is None
        assert overlay.adom() == frozenset({0, 1})
        assert_equivalent(
            overlay.commit(), DatabaseInstance.from_triples([("R", 0, 1)])
        )

    def test_insert_remove_round_trip_cancels(self):
        base = DatabaseInstance.from_triples([("R", 0, 1)])
        overlay = DeltaInstance(base)
        overlay.insert_fact(Fact("X", 3, 4))
        overlay.remove_fact(Fact("X", 3, 4))
        assert overlay.added_facts == frozenset()
        assert overlay.removed_facts == frozenset()
        assert overlay.adom() == base.adom()
        assert_equivalent(overlay.commit(), base)

    def test_remove_insert_round_trip_cancels(self):
        base = DatabaseInstance.from_triples([("R", 0, 1)])
        overlay = DeltaInstance(base)
        overlay.remove_fact(Fact("R", 0, 1))
        overlay.insert_fact(Fact("R", 0, 1))
        assert overlay.added_facts == frozenset()
        assert overlay.removed_facts == frozenset()
        assert_equivalent(overlay.commit(), base)

    def test_overlay_reads_match_fresh(self):
        base = DatabaseInstance.from_triples(
            [("R", 0, 1), ("R", 0, 2), ("S", 1, 0)]
        )
        overlay = DeltaInstance(base)
        overlay.remove_fact(Fact("R", 0, 2))
        overlay.insert_fact(Fact("S", 2, 0))
        fresh = DatabaseInstance.from_triples(
            [("R", 0, 1), ("S", 1, 0), ("S", 2, 0)]
        )
        assert overlay.facts == fresh.facts
        assert overlay.adom() == fresh.adom()
        assert overlay.sorted_adom() == fresh.sorted_adom()
        assert len(overlay) == len(fresh)
        assert list(overlay) == list(fresh)
        assert overlay.out_facts(0, "R") == fresh.out_facts(0, "R")
        assert overlay.out_facts(0, "S") == fresh.out_facts(0, "S")
        assert {b.block_id for b in overlay.blocks()} == {
            b.block_id for b in fresh.blocks()
        }
        assert overlay.is_consistent() == fresh.is_consistent()


class TestDelta:
    def test_coercion_and_order(self):
        delta = Delta.removing(("R", 0, 1)).then_inserting(("R", 0, 2))
        assert delta.removes == (Fact("R", 0, 1),)
        assert delta.inserts == (Fact("R", 0, 2),)
        assert len(delta) == 2

    def test_apply_to_removes_before_inserts(self):
        base = DatabaseInstance.from_triples([("R", 0, 1)])
        delta = Delta(
            removes=(Fact("R", 0, 1),), inserts=(Fact("R", 0, 1),)
        )
        overlay = delta.apply_to(base)
        assert_equivalent(overlay.commit(), base)


class TestRandomizedInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_sequences_match_fresh(self, seed):
        rng = random.Random(0xDE17A + seed)
        triples = [
            (rng.choice(ALPHABET), rng.randint(0, 5), rng.randint(0, 5))
            for _ in range(rng.randint(0, 18))
        ]
        base = DatabaseInstance.from_triples(triples)
        current = set(base.facts)
        for _round in range(6):
            overlay = DeltaInstance(base)
            for _ in range(rng.randint(1, 8)):
                fact = random_fact(rng)
                if rng.random() < 0.5:
                    changed = overlay.insert_fact(fact)
                    assert changed == (fact not in current)
                    current.add(fact)
                else:
                    changed = overlay.remove_fact(fact)
                    assert changed == (fact in current)
                    current.discard(fact)
            fresh = DatabaseInstance(current)
            assert overlay.facts == fresh.facts
            assert overlay.adom() == fresh.adom()
            committed = overlay.commit()
            assert_equivalent(committed, fresh)
            base = committed  # chain commits: each commit is the next base

    @pytest.mark.parametrize("seed", range(4))
    def test_chained_commits_keep_refcounts_exact(self, seed):
        """Refcounts survive arbitrarily long commit chains."""
        rng = random.Random(0xC4A1 + seed)
        db = DatabaseInstance.empty()
        current = set()
        for _ in range(20):
            overlay = DeltaInstance(db)
            fact = random_fact(rng, n_constants=3)
            if fact in current and rng.random() < 0.5:
                overlay.remove_fact(fact)
                current.discard(fact)
            else:
                overlay.insert_fact(fact)
                current.add(fact)
            db = overlay.commit()
            assert db.adom_refcounts() == DatabaseInstance(
                current
            ).adom_refcounts()
        assert_equivalent(db, DatabaseInstance(current))


class TestCommitIdentity:
    """The PR 3 contract: memoized commits and base-identity fast paths."""

    def _base(self):
        return DatabaseInstance.from_triples([("R", 0, 1), ("R", 1, 2)])

    def test_commit_is_memoized_until_next_edit(self):
        overlay = DeltaInstance(self._base())
        overlay.insert_fact(Fact("R", 0, 9))
        first = overlay.commit()
        assert overlay.commit() is first  # same object, no re-copy
        overlay.insert_fact(Fact("R", 5, 6))
        second = overlay.commit()
        assert second is not first
        assert Fact("R", 5, 6) in second

    def test_untouched_overlay_commits_to_base(self):
        base = self._base()
        assert DeltaInstance(base).commit() is base

    def test_round_trip_commits_to_base(self):
        """Insert-then-remove cancels out: commit returns the base itself."""
        base = self._base()
        overlay = DeltaInstance(base)
        overlay.insert_fact(Fact("R", 0, 9))
        overlay.remove_fact(Fact("R", 0, 9))
        assert not overlay.added_facts and not overlay.removed_facts
        assert overlay.commit() is base

    def test_remove_then_reinsert_commits_to_base(self):
        base = self._base()
        overlay = DeltaInstance(base)
        overlay.remove_fact(Fact("R", 0, 1))
        overlay.insert_fact(Fact("R", 0, 1))
        assert overlay.commit() is base


# ---------------------------------------------------------------------------
# Hypothesis properties: commits build no domain, yet read like fresh ones.
# ---------------------------------------------------------------------------

facts_strategy = st.builds(
    Fact,
    st.sampled_from(ALPHABET),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)

deltas_strategy = st.builds(
    lambda removes, inserts: Delta(tuple(removes), tuple(inserts)),
    st.lists(facts_strategy, max_size=4),
    st.lists(facts_strategy, max_size=4),
)


def assert_reads_like(db: DatabaseInstance, fresh: DatabaseInstance):
    """The lazily derived domain and the rest of the public surface of
    *db* match *fresh*; ``sorted_adom`` is asked first so it, not
    ``adom``, is what derives the domain."""
    assert db.sorted_adom() == fresh.sorted_adom()
    assert db.adom() == fresh.adom()
    assert db.adom_refcounts() == fresh.adom_refcounts()
    assert db.facts == fresh.facts
    assert hash(db) == hash(fresh)
    assert db == fresh


class TestLazyDomainProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(facts_strategy, max_size=12),
        st.lists(deltas_strategy, min_size=1, max_size=8),
    )
    def test_committed_stream_matches_fresh(self, initial, deltas):
        db = DatabaseInstance(initial)
        current = set(initial)
        for delta in deltas:
            db = delta.apply_to(db).commit()
            current = (current - set(delta.removes)) | set(delta.inserts)
            assert_reads_like(db, DatabaseInstance(current))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(facts_strategy, max_size=12), st.booleans())
    def test_from_parts_without_adom(self, facts, with_refcounts):
        fresh = DatabaseInstance(facts)
        rebuilt = DatabaseInstance._from_parts(
            fresh.facts,
            dict(fresh._blocks),
            None,
            dict(fresh._out_index),
            dict(fresh.adom_refcounts()) if with_refcounts else None,
        )
        assert_reads_like(rebuilt, fresh)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(facts_strategy, max_size=12),
        st.lists(deltas_strategy, max_size=4),
    )
    def test_decoded_snapshot_matches_fresh(self, initial, deltas):
        db = DatabaseInstance(initial)
        for delta in deltas:
            db = delta.apply_to(db).commit()
        decoded = _decode_snapshot(_encode_snapshot(db))
        assert_reads_like(decoded, DatabaseInstance(db.facts))
