"""Bounded-memory landmark spill (DESIGN.md §16).

Three layers of coverage:

* unit tests on :class:`repro.core.landmark.SpillingStore` — fold
  ordering, run consolidation, reset/replace_all hygiene, snapshot
  round-trips — no engine involved;
* engine-level differential tests asserting a spilling query's
  emissions are byte-identical to an unbounded baseline while its
  retained memory stays flat;
* a kill-anywhere crash sweep over the spill hook points
  (``spill.run.torn``, ``spill.manifest_written``, ``spill.pagein``)
  interleaved with the durability hooks, recovering each time and
  asserting exactly-once emissions.

CI runs this file as a dedicated leg: ``pytest -m landmark_spill``.
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import pytest

from repro.core.engine import DataCellEngine
from repro.core.landmark import (
    HOOK_SPILL_MANIFEST_WRITTEN,
    HOOK_SPILL_PAGEIN,
    HOOK_SPILL_RUN_TORN,
    HOOK_SPILL_RUN_WRITTEN,
    MAX_RUNS,
    SPILL_MANIFEST_NAME,
    SpillingStore,
    bundle_bytes,
)
from repro.errors import ReproError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.testing.faults import CrashPoint, InjectedCrash

pytestmark = pytest.mark.landmark_spill

#: Small enough that a handful of int64 bundles overflows it.
TINY_BUDGET = 64


def bundle(values):
    return {"v": BAT.from_values(values, Atom.INT)}


def concat_fold(bundles):
    tails = [b["v"].tail for b in bundles]
    return {"v": BAT.from_array(np.concatenate(tails), Atom.INT)}


def flatten(store):
    """Every live value in merge order, paging spilled runs back in."""
    out = []
    for __, b in store.live():
        out.extend(int(v) for v in b["v"].tail)
    return out


def disk_files(spill_dir):
    return sorted(os.listdir(spill_dir)) if os.path.isdir(spill_dir) else []


# ----------------------------------------------------------------------
# SpillingStore unit tests
# ----------------------------------------------------------------------
class TestSpillingStore:
    def test_spills_cold_prefix_preserving_merge_order(self, tmp_path):
        store = SpillingStore(str(tmp_path / "q"), TINY_BUDGET, concat_fold)
        expected = []
        for i in range(40):
            chunk = [i * 3, i * 3 + 1, i * 3 + 2]
            store.add(bundle(chunk))
            expected.extend(chunk)
        stats = store.stats()
        assert stats["runs"] > 0 and stats["disk_bytes"] > 0
        assert stats["hot_bytes"] <= TINY_BUDGET + 3 * 8  # one bundle of slack
        before = store.stats()["pageins"]
        assert flatten(store) == expected
        # flatten() paged every live run back in exactly once, uncached.
        assert store.stats()["pageins"] - before == stats["runs"]

    def test_consolidates_runs_at_max(self, tmp_path):
        store = SpillingStore(str(tmp_path / "q"), TINY_BUDGET, concat_fold)
        expected = []
        for i in range(30 * MAX_RUNS):
            store.add(bundle([i]))
            expected.append(i)
        assert store.stats()["runs"] <= MAX_RUNS
        # File count stays bounded too: live runs + the manifest.
        files = disk_files(store.spill_dir)
        assert len(files) <= MAX_RUNS + 1, files
        assert SPILL_MANIFEST_NAME in files
        assert flatten(store) == expected

    def test_replace_all_collapses_disk_runs(self, tmp_path):
        store = SpillingStore(str(tmp_path / "q"), TINY_BUDGET, concat_fold)
        for i in range(40):
            seq = store.add(bundle([i]))
        assert store.stats()["runs"] > 0
        store.replace_all(bundle([999]))
        assert store.newest_seq == seq
        assert flatten(store) == [999]
        stats = store.stats()
        assert stats["runs"] == 0 and stats["disk_bytes"] == 0
        assert disk_files(store.spill_dir) in ([], [SPILL_MANIFEST_NAME])

    def test_reset_drops_disk_and_restarts_seqs(self, tmp_path):
        store = SpillingStore(str(tmp_path / "q"), TINY_BUDGET, concat_fold)
        for i in range(40):
            store.add(bundle([i]))
        first_files = disk_files(store.spill_dir)
        store.reset()
        assert len(store) == 0 and store.newest_seq is None
        assert store.stats()["runs"] == 0 and store.stats()["disk_bytes"] == 0
        assert store.add(bundle([7])) == 0  # seq numbering restarts
        for i in range(40):
            store.add(bundle([i]))
        # Run file names stay monotonic across the reset: a pre-reset
        # name is never reused for post-reset content.
        reused = set(first_files) & set(disk_files(store.spill_dir))
        assert reused <= {SPILL_MANIFEST_NAME}, reused

    def test_snapshot_restore_round_trip(self, tmp_path):
        store = SpillingStore(str(tmp_path / "q"), TINY_BUDGET, concat_fold)
        expected = []
        for i in range(40):
            store.add(bundle([i]))
            expected.append(i)
        state = store.snapshot_state()
        assert "spill" in state

        clone = SpillingStore(store.spill_dir, TINY_BUDGET, concat_fold)
        clone.restore_state(state)
        assert flatten(clone) == expected
        # Restoring again after dropping a run from the manifest prunes
        # the now-unreferenced file instead of leaking it.
        orphan = os.path.join(store.spill_dir, "run-99999999.bin")
        with open(orphan, "wb") as fh:
            fh.write(b"orphan")
        leftover = os.path.join(store.spill_dir, "run-00000005.bin.tmp")
        with open(leftover, "wb") as fh:
            fh.write(b"half")
        clone.restore_state(state)
        files = disk_files(store.spill_dir)
        assert "run-99999999.bin" not in files
        assert not any(f.endswith(".tmp") for f in files)
        assert flatten(clone) == expected

    def test_restore_tolerates_plain_partial_store_snapshot(self, tmp_path):
        """Snapshots taken before spilling existed have no "spill" key."""
        store = SpillingStore(str(tmp_path / "q"), TINY_BUDGET, concat_fold)
        plain = {
            "next_seq": 2,
            "bundles": [[0, bundle([1, 2])], [1, bundle([3])]],
        }
        store.restore_state(plain)
        assert flatten(store) == [1, 2, 3]
        assert store.stats()["runs"] == 0

    def test_rejects_missing_run_file_on_page_in(self, tmp_path):
        store = SpillingStore(str(tmp_path / "q"), TINY_BUDGET, concat_fold)
        for i in range(40):
            store.add(bundle([i]))
        victim = [f for f in disk_files(store.spill_dir) if f.endswith(".bin")][0]
        os.unlink(os.path.join(store.spill_dir, victim))
        with pytest.raises(ReproError):
            store.live()


# ----------------------------------------------------------------------
# engine-level differential tests
# ----------------------------------------------------------------------
SELECT_ONLY = "SELECT x1 FROM s [LANDMARK SLIDE 8] WHERE x1 > 10"


def _feed_rounds(engine, rounds=6, per_round=32, seed=0):
    rng = np.random.default_rng(seed)
    for __ in range(rounds):
        engine.feed(
            "s",
            columns={"x1": rng.integers(0, 100, per_round).astype(np.int64)},
        )
        engine.run_until_idle()
        yield


class TestEngineSpill:
    def _engine(self, **kwargs):
        engine = DataCellEngine(**kwargs)
        engine.create_stream("s", [("x1", "int")])
        return engine

    def test_emissions_byte_identical_to_unbounded_baseline(self):
        results = {}
        for label, spill in (("base", None), ("spill", 0.0001)):
            engine = self._engine(landmark_spill_mb=spill)
            try:
                handle = engine.submit(SELECT_ONLY, name="q")
                for __ in _feed_rounds(engine):
                    pass
                results[label] = handle.result_rows()
                if spill is not None:
                    stats = engine.landmark_spill_stats()["q"]
                    assert stats["runs"] > 0 and stats["pageins"] > 0
            finally:
                engine.close()
        assert results["base"] == results["spill"]

    def test_retained_memory_flat_while_baseline_grows(self):
        """The headline property: hot bytes plateau under the budget
        while the unbounded store's footprint grows with every round."""
        budget = 4096
        spill_hot, base_bytes = [], []
        base = self._engine()
        spill = self._engine(landmark_spill_mb=budget / 2**20)
        try:
            bh = base.submit(SELECT_ONLY, name="q")
            spill.submit(SELECT_ONLY, name="q")
            rounds = zip(_feed_rounds(base), _feed_rounds(spill))
            for __ in rounds:
                store = bh.factory._store
                base_bytes.append(
                    sum(bundle_bytes(b) for __, b in store.live())
                )
                spill_hot.append(
                    spill.landmark_spill_stats()["q"]["hot_bytes"]
                )
        finally:
            base.close()
            spill.close()
        assert base_bytes[-1] > base_bytes[0]  # unbounded: grows
        slack = 8 * 32  # at most one freshly-added bundle over budget
        assert max(spill_hot) <= budget + slack, spill_hot

    def test_static_bound_turns_finite_with_a_spill_note(self):
        """The resource analyzer agrees: the same query is unbounded
        without a spill budget, and bounded in memory with a
        `spilled-landmark` note under one."""
        seen = {}
        for label, spill in (("base", None), ("spill", 0.0001)):
            engine = self._engine(landmark_spill_mb=spill)
            try:
                resources = engine.submit(SELECT_ONLY, name="q").resources
                codes = {d.code for d in resources.report.diagnostics}
                seen[label] = (resources.bounded, codes)
            finally:
                engine.close()
        assert seen["base"][0] is False and "unbounded-landmark" in seen["base"][1]
        assert seen["spill"][0] is True and "spilled-landmark" in seen["spill"][1]
        assert "unbounded-landmark" not in seen["spill"][1]

    def test_compacting_aggregate_unaffected_by_spill(self):
        sql = "SELECT max(x1), count(*) FROM s [LANDMARK SLIDE 8]"
        results = {}
        for label, spill in (("base", None), ("spill", 0.0001)):
            engine = self._engine(landmark_spill_mb=spill)
            try:
                handle = engine.submit(sql, name="q")
                for __ in _feed_rounds(engine, seed=3):
                    pass
                results[label] = handle.result_rows()
            finally:
                engine.close()
        assert results["base"] == results["spill"]

    def test_reset_landmark_drops_spilled_history(self):
        engine = self._engine(landmark_spill_mb=0.0001)
        try:
            handle = engine.submit(SELECT_ONLY, name="q")
            rng = np.random.default_rng(5)
            engine.feed(
                "s", columns={"x1": rng.integers(0, 100, 64).astype(np.int64)}
            )
            engine.run_until_idle()
            assert engine.landmark_spill_stats()["q"]["runs"] > 0
            engine.reset_landmark("q")
            stats = engine.landmark_spill_stats()["q"]
            assert stats["runs"] == 0 and stats["disk_bytes"] == 0
            before = len(handle.results())
            post = rng.integers(0, 100, 16).astype(np.int64)
            engine.feed("s", columns={"x1": post})
            engine.run_until_idle()
            windows = [batch.rows() for batch in handle.results()][before:]
            # Post-reset windows cover only post-reset tuples.
            assert windows[-1] == [(int(v),) for v in post if v > 10]
        finally:
            engine.close()

    def test_spill_knob_validation(self):
        with pytest.raises(ReproError):
            DataCellEngine(landmark_spill_mb=0)
        with pytest.raises(ReproError):
            DataCellEngine(landmark_spill_mb=-1)

    def test_ephemeral_spill_root_removed_on_close(self):
        engine = self._engine(landmark_spill_mb=0.0001)
        engine.submit(SELECT_ONLY, name="q")
        rng = np.random.default_rng(6)
        engine.feed(
            "s", columns={"x1": rng.integers(0, 100, 64).astype(np.int64)}
        )
        engine.run_until_idle()
        root = engine._spill_root
        assert root is not None and os.path.isdir(root)
        engine.close()
        assert not os.path.exists(root)

    def test_remove_query_drops_spill_dir(self, tmp_path):
        engine = DataCellEngine(
            data_dir=str(tmp_path / "dd"), landmark_spill_mb=0.0001
        )
        try:
            engine.create_stream("s", [("x1", "int")])
            engine.submit(SELECT_ONLY, name="q")
            rng = np.random.default_rng(7)
            engine.feed(
                "s", columns={"x1": rng.integers(0, 100, 64).astype(np.int64)}
            )
            engine.run_until_idle()
            spill_dir = os.path.join(str(tmp_path / "dd"), "spill", "q")
            assert os.path.isdir(spill_dir) and disk_files(spill_dir)
            engine.remove("q")
            assert not os.path.exists(spill_dir)
        finally:
            engine.close()

    def test_metrics_expose_spill_families(self):
        from repro.obs.metrics import collect_metrics, render_prometheus

        engine = self._engine(landmark_spill_mb=0.0001)
        try:
            engine.submit(SELECT_ONLY, name="q")
            rng = np.random.default_rng(8)
            engine.feed(
                "s", columns={"x1": rng.integers(0, 100, 64).astype(np.int64)}
            )
            engine.run_until_idle()
            metrics = collect_metrics(engine)
            assert metrics["landmark_spill"]["q"]["runs"] > 0
            text = render_prometheus(metrics, obs=engine.obs)
            for family in (
                "repro_landmark_spill_runs_total",
                "repro_landmark_spill_bytes_total",
                "repro_landmark_spill_pageins_total",
                "repro_landmark_spill_pagein_bytes_total",
                "repro_landmark_spill_hot_bytes",
                "repro_landmark_spill_budget_bytes",
                "repro_landmark_spill_disk_bytes",
                "repro_landmark_spill_run_files",
            ):
                assert family in text, family
        finally:
            engine.close()


# ----------------------------------------------------------------------
# kill-anywhere sweep over the spill hook points
# ----------------------------------------------------------------------
SWEEP_SQL = "SELECT v FROM s [LANDMARK SLIDE 4] WHERE v >= 0"
SWEEP_VALUES = np.arange(36, dtype=np.int64)
SWEEP_CHUNK = 9
SWEEP_SPILL_MB = 0.0001


def _sweep_drive(engine) -> None:
    total = len(SWEEP_VALUES)
    round_no = 0
    while True:
        lo = engine._stream_fed.get("s", 0)
        if lo >= total:
            break
        hi = min(lo + SWEEP_CHUNK, total)
        engine.feed("s", columns={"v": SWEEP_VALUES[lo:hi]})
        engine.run_until_idle()
        if round_no == 1:
            engine.checkpoint()  # snapshot references live spill runs
        round_no += 1
    engine.run_until_idle()


def _sweep_expected(tmp_path):
    engine = DataCellEngine(
        data_dir=str(tmp_path / "ref"), landmark_spill_mb=SWEEP_SPILL_MB
    )
    try:
        engine.create_stream("s", [("v", "int")])
        handle = engine.submit(SWEEP_SQL, name="q")
        _sweep_drive(engine)
        assert engine.landmark_spill_stats()["q"]["runs"] > 0
        return [batch.rows() for batch in handle.results()]
    finally:
        engine.close()


def test_hook_sequence_covers_spill_points(tmp_path):
    """The sweep below only means something if spill hooks actually
    appear in the ordinal sequence — record one clean run and check."""
    seen = []
    engine = DataCellEngine(
        data_dir=str(tmp_path / "dd"), landmark_spill_mb=SWEEP_SPILL_MB
    )
    try:
        engine.create_stream("s", [("v", "int")])
        engine.submit(SWEEP_SQL, name="q")
        engine.install_fault_hook(seen.append)
        _sweep_drive(engine)
    finally:
        engine.close()
    for point in (
        HOOK_SPILL_RUN_TORN,
        HOOK_SPILL_RUN_WRITTEN,
        HOOK_SPILL_MANIFEST_WRITTEN,
        HOOK_SPILL_PAGEIN,
    ):
        assert point in seen, (point, sorted(set(seen)))


def test_kill_anywhere_with_spill(tmp_path):
    """Crash at every hook ordinal — durability *and* spill points —
    restore, finish the workload, and demand exactly-once emissions."""
    expected = _sweep_expected(tmp_path)
    assert len(expected) == len(SWEEP_VALUES) // 4

    fired_points = 0
    for at in itertools.count():
        data_dir = tmp_path / f"dd-{at}"
        engine = DataCellEngine(
            data_dir=str(data_dir), landmark_spill_mb=SWEEP_SPILL_MB
        )
        engine.create_stream("s", [("v", "int")])
        handle = engine.submit(SWEEP_SQL, name="q")
        crash = CrashPoint(at)
        engine.install_fault_hook(crash)
        try:
            try:
                _sweep_drive(engine)
            except InjectedCrash:
                engine.abandon()  # die without flushing, like SIGKILL
                engine = DataCellEngine.restore(str(data_dir))
                engine.run_until_idle()
                handle = engine.query("q")
                _sweep_drive(engine)
            got = [batch.rows() for batch in handle.results()]
        finally:
            engine.close()
        assert got == expected, f"ordinal {at}"
        if not crash.fired:
            break
        fired_points += 1
    assert fired_points >= 20, fired_points
