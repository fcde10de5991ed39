"""Unit tests for partial-result stores (the transition machinery)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchedulerError
from repro.core.partials import (
    MERGE_FANOUT,
    PairStore,
    PartialStore,
    merge_levels,
)

from conftest import cover_bound
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT


def bundle(value):
    return {"flow": BAT.from_values([value], Atom.INT)}


class TestPartialStore:
    def test_add_and_live(self):
        store = PartialStore(capacity=3)
        for i in range(3):
            assert store.add(bundle(i)) == i
        assert [seq for seq, __ in store.live()] == [0, 1, 2]

    def test_eviction_is_the_transition(self):
        """Adding past capacity drops the oldest — Algorithm 2 lines 20-21."""
        store = PartialStore(capacity=3)
        for i in range(5):
            store.add(bundle(i))
        live = store.live()
        assert [seq for seq, __ in live] == [2, 3, 4]
        assert [b["flow"].to_list()[0] for __, b in live] == [2, 3, 4]

    def test_unbounded(self):
        store = PartialStore(capacity=0)
        for i in range(10):
            store.add(bundle(i))
        assert len(store) == 10

    def test_bundle_lookup(self):
        store = PartialStore(capacity=2)
        store.add(bundle(0))
        store.add(bundle(1))
        assert store.bundle(1)["flow"].to_list() == [1]
        store.add(bundle(2))
        with pytest.raises(SchedulerError):
            store.bundle(0)

    def test_replace_all_keeps_newest_seq(self):
        store = PartialStore(capacity=0)
        store.add(bundle(0))
        store.add(bundle(1))
        store.replace_all(bundle(99))
        assert len(store) == 1
        assert store.newest_seq == 1
        next_seq = store.add(bundle(2))
        assert next_seq == 2

    def test_replace_all_empty_raises(self):
        with pytest.raises(SchedulerError):
            PartialStore(capacity=1).replace_all(bundle(0))

    def test_newest_seq_empty(self):
        assert PartialStore(capacity=1).newest_seq is None


# ----------------------------------------------------------------------
# merge tree (DESIGN.md §17)
# ----------------------------------------------------------------------
def span_bundle(seq):
    """A stand-in bundle that only remembers the seq range it covers."""
    return {"lo": seq, "hi": seq}


def span_fold(children):
    """Fold for span bundles: children must be adjacent and in order."""
    for left, right in zip(children, children[1:]):
        assert left["hi"] + 1 == right["lo"], children
    return {"lo": children[0]["lo"], "hi": children[-1]["hi"]}


class TestMergeTree:
    def test_levels_follow_the_quarter_window_rule(self):
        K = MERGE_FANOUT
        assert [merge_levels(n) for n in (0, 1, 4 * K - 1)] == [0, 0, 0]
        assert merge_levels(4 * K) == 1
        assert merge_levels(4 * K * K - 1) == 1
        assert merge_levels(4 * K * K) == 2

    def test_flat_store_covers_with_its_singles(self):
        store = PartialStore(capacity=100)
        for i in range(150):
            store.add(span_bundle(i))
        cover = store.cover()
        assert [b["lo"] for b in cover] == list(range(50, 150))
        assert store.cover_len == 100
        assert store.nodes_sealed == store.nodes_live == 0

    def test_cover_packs_logarithmically_few_bundles(self):
        store = PartialStore(capacity=512, levels=merge_levels(512))
        for i in range(512 + 300):
            store.add(span_bundle(i))
            if i >= 511:
                assert len(store.cover(span_fold)) <= cover_bound(512) == 36
        assert store.nodes_live <= 512 // (MERGE_FANOUT - 1)

    def test_sealed_levels_need_a_fold(self):
        store = PartialStore(capacity=32, levels=1)
        store.add(span_bundle(0))
        with pytest.raises(SchedulerError):
            store.cover()

    @given(
        n=st.integers(1, 700),
        offset=st.integers(0, 2 * MERGE_FANOUT**2),
        slides=st.integers(0, 200),
    )
    def test_cover_tiles_the_live_range_exactly(self, n, offset, slides):
        """For any window depth, alignment of the first full window and
        slide count: the cover is a contiguous, oldest-first tiling of
        exactly the live seqs by aligned nodes, within the size bound."""
        store = PartialStore(capacity=n, levels=merge_levels(n))
        spans = {MERGE_FANOUT**level for level in range(store.levels + 1)}
        seq = -1
        for __ in range(offset):  # shift where the first full window starts
            seq = store.add(span_bundle(seq + 1))
        for __ in range(n - 1):
            seq = store.add(span_bundle(seq + 1))
        for __ in range(slides + 1):
            seq = store.add(span_bundle(seq + 1))
            live = store.live_seqs()
            cover = store.cover(span_fold)
            assert cover[0]["lo"] == live[0]  # never an expired seq
            assert cover[-1]["hi"] == live[-1] == seq
            for left, right in zip(cover, cover[1:]):
                assert left["hi"] + 1 == right["lo"]
            for node in cover:
                span = node["hi"] - node["lo"] + 1
                assert node["lo"] % span == 0  # aligned
                assert span in spans
            assert len(cover) == store.cover_len <= cover_bound(n)
            assert store.nodes_live <= n // (MERGE_FANOUT - 1)

    def test_nodes_are_rebuilt_identically_after_restore(self):
        """Nodes are not snapshotted; a restored store tiles the window
        the way the uninterrupted one does (same aligned ranges)."""
        store = PartialStore(capacity=64, levels=merge_levels(64))
        for i in range(100):
            store.add(span_bundle(i))
        before = store.cover(span_fold)
        state = store.snapshot_state()
        assert set(state) == {"next_seq", "bundles"}
        twin = PartialStore(capacity=64, levels=merge_levels(64))
        twin.restore_state(state)
        assert twin.nodes_live == 0
        assert twin.cover(span_fold) == before
        for i in range(100, 140):
            store.add(span_bundle(i))
            twin.add(span_bundle(i))
            assert twin.cover(span_fold) == store.cover(span_fold)


class TestPairStore:
    def test_expire_either_side(self):
        store = PairStore(left_capacity=2, right_capacity=2)
        for left in range(3):
            for right in range(3):
                store.add(left, right, bundle(left * 10 + right))
        store.expire(newest_left=2, newest_right=2)
        live_keys = [key for key, __ in store.live()]
        assert live_keys == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_unbounded_side_never_expires(self):
        store = PairStore(left_capacity=2, right_capacity=0)
        store.add(0, 0, bundle(0))
        store.add(5, 0, bundle(1))
        store.expire(newest_left=5, newest_right=0)
        assert [key for key, __ in store.live()] == [(5, 0)]

    def test_live_sorted(self):
        store = PairStore(left_capacity=0, right_capacity=0)
        store.add(1, 0, bundle(0))
        store.add(0, 1, bundle(1))
        assert [key for key, __ in store.live()] == [(0, 1), (1, 0)]

    def test_replace_all(self):
        store = PairStore(left_capacity=0, right_capacity=0)
        store.add(0, 0, bundle(1))
        store.add(0, 1, bundle(2))
        store.replace_all(bundle(9), key=(0, 1))
        assert len(store) == 1
        assert store.live()[0][0] == (0, 1)
