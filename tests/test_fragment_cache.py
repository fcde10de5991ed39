"""Tests for cross-query fragment sharing.

Covers the three layers: canonical fragment fingerprints
(:mod:`repro.core.rewriter.canonical`), the engine-wide
:class:`~repro.core.partials.FragmentCache`, and the end-to-end sharing
semantics wired up by :class:`~repro.core.engine.DataCellEngine`.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import DataCellEngine
from repro.core.partials import FragmentCache
from repro.core.rewriter.canonical import canonical_text, fragment_fingerprint
from repro.errors import SchedulerError
from repro.kernel.execution.profiler import Profiler
from repro.kernel.execution.program import Lit, Program, Ref


def _program(prefix: str, alias: str, threshold: object) -> tuple[Program, dict]:
    """A small select+sum fragment with namespaced slots."""
    program = Program(inputs=(f"{alias}__x1", f"{alias}__x2"))
    program.emit(
        "algebra.thetaselect",
        [Ref(f"{alias}__x1"), Lit(">"), Lit(threshold)],
        [f"{prefix}0_sel"],
    )
    program.emit(
        "algebra.projection",
        [Ref(f"{prefix}0_sel"), Ref(f"{alias}__x2")],
        [f"{prefix}1_vals"],
    )
    program.emit("aggr.sum", [Ref(f"{prefix}1_vals")], [f"{prefix}2_sum"])
    program.outputs = (f"{prefix}2_sum",)
    names = {f"{alias}__x1": "x1", f"{alias}__x2": "x2"}
    return program, names


class TestFingerprint:
    def test_alpha_renamed_programs_hash_equal(self):
        a, names_a = _program("f", "s", 10)
        b, names_b = _program("zz", "other_alias", 10)
        assert fragment_fingerprint(a, names_a) == fragment_fingerprint(b, names_b)

    def test_different_constants_hash_apart(self):
        a, names_a = _program("f", "s", 10)
        b, names_b = _program("f", "s", 11)
        assert fragment_fingerprint(a, names_a) != fragment_fingerprint(b, names_b)

    def test_constant_type_matters(self):
        a, names_a = _program("f", "s", 10)
        b, names_b = _program("f", "s", 10.0)
        assert fragment_fingerprint(a, names_a) != fragment_fingerprint(b, names_b)

    def test_column_binding_matters(self):
        a, names_a = _program("f", "s", 10)
        b, _ = _program("f", "s", 10)
        # Same program text, but the slots bind swapped stream columns.
        swapped = {"s__x1": "x2", "s__x2": "x1"}
        assert fragment_fingerprint(a, names_a) != fragment_fingerprint(b, swapped)

    def test_opcode_matters(self):
        a, names = _program("f", "s", 10)
        b = Program(inputs=a.inputs, outputs=a.outputs)
        for instr in a.instructions:
            opcode = "aggr.min" if instr.opcode == "aggr.sum" else instr.opcode
            b.emit(opcode, instr.args, instr.outs)
        assert fragment_fingerprint(a, names) != fragment_fingerprint(b, names)

    def test_canonical_text_strips_aliases(self):
        a, names = _program("f", "sensors", 10)
        text = canonical_text(a, names)
        assert "sensors" not in text
        assert "in:x1" in text and "in:x2" in text

    def test_undefined_slot_rejected(self):
        program = Program(inputs=("s__x1",), outputs=("out",))
        program.emit("bat.id", [Ref("nowhere")], ["out"])
        with pytest.raises(ValueError):
            fragment_fingerprint(program, {"s__x1": "x1"})


class TestFragmentCache:
    def test_compute_once_then_hit(self):
        cache = FragmentCache()
        cache.register("k", capacity=4)
        calls = []
        make = lambda: calls.append(1) or {"flow": "bundle"}
        first = cache.get_or_compute("k", (0, 10), make)
        second = cache.get_or_compute("k", (0, 10), make)
        assert first is second
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_distinct_spans_do_not_collide(self):
        cache = FragmentCache()
        cache.register("k", capacity=4)
        a = cache.get_or_compute("k", (0, 10), lambda: {"v": "a"})
        b = cache.get_or_compute("k", (10, 10), lambda: {"v": "b"})
        assert a["v"] == "a" and b["v"] == "b"

    def test_seq_expiry_mirrors_partial_store(self):
        cache = FragmentCache()
        cache.register("k", capacity=2)
        for start in range(4):
            cache.get_or_compute("k", (start, 1), lambda s=start: {"v": s})
        assert cache.stats()["entries"] == 2
        # The evicted span recomputes (a miss), the live ones hit.
        recomputed = []
        cache.get_or_compute("k", (0, 1), lambda: recomputed.append(1) or {"v": 0})
        assert recomputed
        cache.get_or_compute("k", (3, 1), lambda: recomputed.append(2) or {})
        assert len(recomputed) == 1

    def test_register_widens_capacity(self):
        cache = FragmentCache()
        cache.register("k", capacity=1)
        cache.register("k", capacity=3)
        for start in range(3):
            cache.get_or_compute("k", (start, 1), lambda s=start: {"v": s})
        assert cache.stats()["entries"] == 3

    def test_unregistered_key_rejected(self):
        cache = FragmentCache()
        with pytest.raises(SchedulerError):
            cache.get_or_compute("nope", (0, 1), dict)

    def test_profiler_counters(self):
        cache = FragmentCache()
        cache.register("k", capacity=2)
        profiler = Profiler()
        cache.get_or_compute("k", (0, 1), dict, profiler)
        cache.get_or_compute("k", (0, 1), dict, profiler)
        assert profiler.counter("fragment_cache_misses") == 1
        assert profiler.counter("fragment_cache_hits") == 1
        assert profiler.snapshot()["counters"]["fragment_cache_hits"] == 1

    @given(
        capacity=st.integers(1, 6),
        held=st.lists(st.integers(0, 9), max_size=8),
        spans=st.lists(st.integers(0, 9), min_size=1, max_size=12),
    )
    def test_run_lookup_replays_one_by_one_lookups(self, capacity, held, spans):
        """A run of lookups with one batched compute (none if all hit)
        counts, returns and keeps what the same lookups made one by one
        do — also when a span repeats, or when the run's own misses evict
        a span it needs."""
        caches, profilers = [FragmentCache(), FragmentCache()], [Profiler(), Profiler()]
        for cache in caches:
            cache.register("k", capacity)
            for start in held:
                cache.get_or_compute("k", (start, 1), lambda s=start: {"v": ("old", s)})
        run = [(start, 1) for start in spans]
        before = caches[0].stats()["misses"]
        one_by_one = [
            caches[0].get_or_compute("k", span, lambda s=span: {"v": ("new", s)}, profilers[0])
            for span in run
        ]
        computed = []

        def compute(indices):
            computed.append(indices)
            return [{"v": ("new", run[i])} for i in indices]

        batched = caches[1].get_or_compute_run("k", run, compute, profilers[1])
        assert len(computed) == (1 if caches[0].stats()["misses"] > before else 0)
        assert [b["v"] for b in batched] == [b["v"] for b in one_by_one]
        assert caches[1].stats() == caches[0].stats()
        assert caches[1].snapshot_state() == caches[0].snapshot_state()
        assert profilers[1].counters == profilers[0].counters

    def test_run_lookup_records_nothing_when_compute_raises(self):
        cache = FragmentCache()
        cache.register("k", capacity=4)
        cache.get_or_compute("k", (0, 1), lambda: {"v": 0})

        def boom(indices):
            raise RuntimeError("fragment failed")

        with pytest.raises(RuntimeError):
            cache.get_or_compute_run("k", [(0, 1), (1, 1)], boom)
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 0
        assert cache.stats()["entries"] == 1

    @pytest.mark.concurrency
    def test_concurrent_lookups_compute_once(self):
        cache = FragmentCache()
        cache.register("k", capacity=4)
        calls = []
        gate = threading.Barrier(8)

        def compute():
            calls.append(1)
            return {"v": "shared"}

        results = []

        def lookup():
            gate.wait()
            results.append(cache.get_or_compute("k", (0, 100), compute))

        threads = [threading.Thread(target=lookup) for __ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert all(r is results[0] for r in results)
        assert cache.stats()["hits"] == 7


def _feed(engine, count, seed=0, stream="s"):
    rng = np.random.default_rng(seed)
    engine.feed(
        stream,
        columns={
            "x1": rng.integers(0, 10, count),
            "x2": rng.integers(0, 50, count),
        },
    )


def _engine(**kwargs):
    engine = DataCellEngine(**kwargs)
    engine.create_stream("s", [("x1", "int"), ("x2", "int")])
    return engine


SQL = "SELECT x1, sum(x2) FROM s [RANGE 40 SLIDE 20] WHERE x1 > 3 GROUP BY x1"


class TestEngineSharing:
    def test_identical_queries_share(self):
        """Identical queries share the whole factory, so each basic
        window runs the fragment once without a cache lookup hitting."""
        engine = _engine()
        queries = [engine.submit(SQL) for __ in range(4)]
        _feed(engine, 200)
        engine.run_until_idle()
        assert all(q.factory is queries[0].factory for q in queries)
        stats = engine.fragment_cache.stats()
        assert stats["misses"] == 10  # one per basic window
        assert stats["hits"] == 0  # one factory, no second lookup
        rows = [q.result_rows() for q in queries]
        assert rows[0] and all(r == rows[0] for r in rows)

    def test_same_step_queries_share_every_fragment(self):
        """Four factories whose windows differ in size only (same step)
        compute each basic window's fragment once between them."""
        sqls = [SQL.replace("RANGE 40", f"RANGE {size}") for size in (40, 60, 80, 100)]
        engine = _engine()
        queries = [engine.submit(sql) for sql in sqls]
        _feed(engine, 200)
        engine.run_until_idle()
        assert len({id(q.factory) for q in queries}) == 4
        stats = engine.fragment_cache.stats()
        assert stats["misses"] == 10  # one per basic window
        assert stats["hits"] == 30  # three sharers per basic window
        plain = _engine(fragment_sharing=False)
        alone = [plain.submit(sql) for sql in sqls]
        _feed(plain, 200)
        plain.run_until_idle()
        assert [q.result_rows() for q in queries] == [q.result_rows() for q in alone]

    def test_sharing_matches_unshared_results(self):
        shared = _engine(fragment_sharing=True)
        unshared = _engine(fragment_sharing=False)
        for engine in (shared, unshared):
            for __ in range(3):
                engine.submit(SQL)
            _feed(engine, 300, seed=3)
            engine.run_until_idle()
        assert unshared.fragment_cache.stats()["misses"] == 0
        for name in ("q1", "q2", "q3"):
            assert shared.query(name).result_rows() == unshared.query(name).result_rows()

    def test_different_constants_do_not_share(self):
        engine = _engine()
        engine.submit(SQL)
        engine.submit(SQL.replace("x1 > 3", "x1 > 4"))
        _feed(engine, 100)
        engine.run_until_idle()
        assert engine.fragment_cache.stats()["hits"] == 0

    def test_different_window_same_step_shares(self):
        engine = _engine()
        small = engine.submit("SELECT sum(x2) FROM s [RANGE 40 SLIDE 20]")
        large = engine.submit("SELECT sum(x2) FROM s [RANGE 80 SLIDE 20]")
        _feed(engine, 160, seed=9)
        engine.run_until_idle()
        assert engine.fragment_cache.stats()["hits"] > 0
        # Cross-check against unshared execution.
        plain = _engine(fragment_sharing=False)
        q1 = plain.submit("SELECT sum(x2) FROM s [RANGE 40 SLIDE 20]")
        q2 = plain.submit("SELECT sum(x2) FROM s [RANGE 80 SLIDE 20]")
        _feed(plain, 160, seed=9)
        plain.run_until_idle()
        assert small.result_rows() == q1.result_rows()
        assert large.result_rows() == q2.result_rows()

    def test_late_submission_spans_stay_aligned(self):
        """A query submitted mid-stream shares only truly identical slices."""
        engine = _engine()
        first = engine.submit(SQL)
        _feed(engine, 50, seed=1)  # 2 basic windows consumed + 10 leftover
        engine.run_until_idle()
        second = engine.submit(SQL)
        _feed(engine, 150, seed=2)
        engine.run_until_idle()
        # Verify against an unshared engine fed identically.
        plain = _engine(fragment_sharing=False)
        p1 = plain.submit(SQL)
        _feed(plain, 50, seed=1)
        plain.run_until_idle()
        p2 = plain.submit(SQL)
        _feed(plain, 150, seed=2)
        plain.run_until_idle()
        assert first.result_rows() == p1.result_rows()
        assert second.result_rows() == p2.result_rows()

    def test_misaligned_late_submission_never_hits(self):
        """Offset by a non-multiple of the step: spans must not collide."""
        engine = _engine()
        engine.submit(SQL)
        _feed(engine, 30, seed=4)  # not a multiple of the 20-tuple step
        engine.run_until_idle()
        engine.submit(SQL)
        _feed(engine, 170, seed=5)
        engine.run_until_idle()
        assert engine.fragment_cache.stats()["hits"] == 0

    def test_receptor_feeds_every_sharer(self):
        """A receptor feeds the stream, not one query: sharers stay
        aligned and keep sharing."""
        engine = _engine()
        sqls = [SQL, SQL.replace("RANGE 40", "RANGE 60")]
        queries = [engine.submit(sql) for sql in sqls]
        receptor = engine.receptor("s")
        receptor.push_rows([(i % 7, i) for i in range(100)])
        engine.run_until_idle()
        assert all(q.factory.shares_fragments for q in queries)
        assert engine.fragment_cache.stats()["hits"] > 0
        plain = _engine(fragment_sharing=False)
        alone = [plain.submit(sql) for sql in sqls]
        plain.feed("s", rows=[(i % 7, i) for i in range(100)])
        plain.run_until_idle()
        assert [q.result_rows() for q in queries] == [q.result_rows() for q in alone]
        assert queries[0].result_rows()

    def test_landmark_queries_share(self):
        """A landmark and a sliding window at the same step share every
        fragment; two identical landmarks share their factory."""
        landmark = "SELECT max(x1), sum(x2) FROM s [LANDMARK SLIDE 25]"
        sliding = "SELECT max(x1), sum(x2) FROM s [RANGE 50 SLIDE 25]"
        engine = _engine()
        queries = [engine.submit(sql) for sql in (landmark, sliding, landmark)]
        _feed(engine, 100, seed=6)
        engine.run_until_idle()
        assert queries[2].factory is queries[0].factory
        assert engine.fragment_cache.stats()["hits"] == 4
        plain = _engine(fragment_sharing=False)
        alone = [plain.submit(sql) for sql in (landmark, sliding)]
        _feed(plain, 100, seed=6)
        plain.run_until_idle()
        assert [q.result_rows() for q in queries] == [
            q.result_rows() for q in (*alone, alone[0])
        ]

    def test_join_queries_do_not_register(self):
        engine = _engine()
        engine.create_stream("s2", [("x1", "int"), ("x2", "int")])
        engine.submit(
            "SELECT max(a.x1) FROM s a [RANGE 40 SLIDE 20], "
            "s2 b [RANGE 40 SLIDE 20] WHERE a.x2 = b.x2"
        )
        assert engine.fragment_cache.stats()["groups"] == 0
