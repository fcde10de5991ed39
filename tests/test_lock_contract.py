"""Lock contract: a method that takes its owner's lock waits for it.

Each row is a method of ``Basket``, ``Cursor``, ``CollectingEmitter``,
``DurabilityManager`` or ``Scheduler`` whose body takes the lock that
guards its object (a cursor's is its basket's).  The test thread holds
that lock while the method runs on a second thread: the method must not
finish within ``HOLD`` seconds, must finish once the lock is released,
and must have taken the lock in its own body.  That last check matters
for a method that first calls another locked method (``len``,
``timestamps``): it would wait even without its own ``with``.  A method
that takes the lock cannot finish early, so no row can flake.

Not rows, each with its own test below: ``replaying`` takes the
durability lock on entry and again on exit, so the two halves are probed
apart; and the background loop in ``Scheduler.start`` stores a failed
scan's error right after the scan released the scan lock, when no other
thread can be holding it, so that store is checked from inside.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.basket import Basket, Cursor
from repro.core.durability import DurabilityManager
from repro.core.emitter import CollectingEmitter
from repro.core.factory import ResultBatch
from repro.core.scheduler import Scheduler
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.storage import Schema

HOLD = 0.05


def basket(tmp_path, defer, capacity=None):
    log = Basket("s", Schema.of(("a", Atom.INT)), capacity=capacity)
    log.append_rows([(1,), (2,)])
    return log


def bounded_basket(tmp_path, defer):
    return basket(tmp_path, defer, capacity=8)


def cursor(tmp_path, defer):
    log = basket(tmp_path, defer)
    reader = log.cursor()
    log.append_rows([(3,), (4,)])
    return reader


def result():
    return ResultBatch(["a"], {"a": BAT(np.array([1]), Atom.INT)}, 0, 0.0)


def emitter(tmp_path, defer):
    sink = CollectingEmitter()
    sink("q", result())
    return sink


def durability(tmp_path, defer):
    dur = DurabilityManager(str(tmp_path / "data"))
    defer(dur.close)
    return dur


def checkpointed(tmp_path, defer):
    dur = durability(tmp_path, defer)
    dur.write_checkpoint({"a": 1})
    return dur


class Idle:
    """A registered factory that is never ready."""

    def __init__(self, name):
        self.name = name

    def ready(self):
        return False

    def baskets(self):
        return []


def scheduler(tmp_path, defer):
    sched = Scheduler()
    sched.register(Idle("f"))
    defer(sched.stop)
    return sched


def snapshot(owner):
    return (owner.snapshot_state(),)


READERS = [
    ("__len__", ()),
    ("head_slice", (1, ["a"])),
    ("timestamps", ()),
    ("count_before", (1,)),
    ("max_timestamp", ()),
    ("take_consumed_arrival", ()),
    ("delete_head", (1,)),
]

#: id -> (owner factory, method, args or a function of the owner giving them)
ROWS = {
    **{f"Basket.{name}": (basket, name, args) for name, args in READERS},
    **{f"Cursor.{name}": (cursor, name, args) for name, args in READERS},
    "Cursor.close": (cursor, "close", ()),
    "Basket.hseq": (basket, "hseq", ()),
    "Basket.appended_total": (basket, "appended_total", ()),
    "Basket.cursor": (basket, "cursor", ()),
    "Basket.readers": (basket, "readers", ()),
    "Basket.enable_arrival_tracking": (basket, "enable_arrival_tracking", ()),
    "Basket.abort_waiters": (basket, "abort_waiters", ("stopping",)),
    "Basket.overflow_stats": (basket, "overflow_stats", ()),
    "Basket.append_rows": (basket, "append_rows", ([(5,)],)),
    "Basket.append_rows[bounded]": (bounded_basket, "append_rows", ([(5,)],)),
    "Basket.append_columns": (basket, "append_columns", ({"a": [5]},)),
    "Basket.column": (basket, "column", ("a",)),
    "Basket.advance_watermark": (basket, "advance_watermark", (9,)),
    "Basket.admit_times": (basket, "admit_times", (np.array([9], dtype=np.int64), 1)),
    "Basket.note_times": (basket, "note_times", (None, 1)),
    "Basket.snapshot_state": (basket, "snapshot_state", ()),
    "Basket.restore_state": (basket, "restore_state", snapshot),
    "CollectingEmitter.__call__": (emitter, "__call__", lambda sink: ("q", result())),
    "CollectingEmitter.batches": (emitter, "batches", ()),
    "CollectingEmitter.last": (emitter, "last", ()),
    "CollectingEmitter.clear": (emitter, "clear", ()),
    "CollectingEmitter.drain": (emitter, "drain", ()),
    "CollectingEmitter.snapshot_state": (emitter, "snapshot_state", ()),
    "CollectingEmitter.restore_state": (emitter, "restore_state", snapshot),
    "DurabilityManager.seq": (durability, "seq", ()),
    "DurabilityManager.journal": (durability, "journal", ("feed", {"a": 2})),
    "DurabilityManager.journal_bytes": (durability, "journal_bytes", ()),
    "DurabilityManager.stats": (durability, "stats", ()),
    "DurabilityManager.write_checkpoint": (durability, "write_checkpoint", ({"a": 1},)),
    "DurabilityManager.load": (checkpointed, "load", ()),
    "DurabilityManager.resume": (durability, "resume", (5,)),
    "DurabilityManager.close": (durability, "close", ()),
    "Scheduler.register": (scheduler, "register", (Idle("g"),)),
    "Scheduler.unregister": (scheduler, "unregister", ("f",)),
    "Scheduler.attach": (scheduler, "attach", ("h", "f", print)),
    "Scheduler.move": (scheduler, "move", ("f", Idle("g"))),
    "Scheduler.add_sink": (scheduler, "add_sink", ("f", print)),
    "Scheduler.factories": (scheduler, "factories", ()),
    "Scheduler.factory_stats": (scheduler, "factory_stats", ()),
    "Scheduler.scan_boundary": (scheduler, "scan_boundary", ()),
    "Scheduler.run_once": (scheduler, "run_once", ()),
    "Scheduler.start": (scheduler, "start", ()),
    "Scheduler.stop": (scheduler, "stop", ()),
    "Scheduler._abort_parked": (scheduler, "_abort_parked", ("stopping",)),
    "Scheduler.quiesced": (scheduler, "quiesced", ()),
    "Scheduler.steps_snapshot": (scheduler, "steps_snapshot", ()),
    "Scheduler.restore_steps": (scheduler, "restore_steps", ("f", 3)),
    "Scheduler.wrap_sinks": (scheduler, "wrap_sinks", ("f", lambda sink: sink)),
    "Scheduler._raise_worker_error": (scheduler, "_raise_worker_error", ()),
}

LOCK_ATTR = {
    Basket: "_lock",
    CollectingEmitter: "_lock",
    DurabilityManager: "lock",
    Scheduler: "_scan_lock",
}


class Taken:
    """An owner's lock that notes (function, self) of each frame taking it."""

    def __init__(self, raw):
        self.raw, self.takers = raw, []

    def __enter__(self):
        frame = sys._getframe(1)
        self.takers.append((frame.f_code.co_name, frame.f_locals.get("self")))
        self.raw.acquire()

    def __exit__(self, *exc):
        self.raw.release()


def probe(owner, call, taker):
    """Run ``call`` on a second thread while holding ``owner``'s lock."""
    holder = owner.basket if isinstance(owner, Cursor) else owner
    attr = LOCK_ATTR[type(holder)]
    lock = Taken(getattr(holder, attr))
    setattr(holder, attr, lock)
    done, errors = threading.Event(), []

    def run():
        try:
            call()
        except BaseException as exc:  # re-raised on the test thread
            errors.append(exc)
        finally:
            done.set()

    thread = threading.Thread(target=run, daemon=True)
    with lock.raw:
        thread.start()
        early = done.wait(HOLD)
    thread.join(timeout=10)
    setattr(holder, attr, lock.raw)
    assert not thread.is_alive(), f"{taker} did not finish after the lock was released"
    if errors:
        raise errors[0]
    assert not early, f"{taker} finished while another thread held its owner's lock"
    assert any(name == taker and me is owner for name, me in lock.takers), lock.takers


def invoke(owner, method, args):
    value = getattr(owner, method)  # a property's body runs here
    result = value(*args) if callable(value) else value
    if hasattr(result, "__enter__"):  # scan_boundary, quiesced
        with result:
            pass


@pytest.mark.parametrize("row", ROWS)
def test_method_waits_for_its_owners_lock(row, tmp_path, request):
    make, method, args = ROWS[row]
    owner = make(tmp_path, request.addfinalizer)
    args = args(owner) if callable(args) else args
    probe(owner, lambda: invoke(owner, method, args), method)


def test_replaying_takes_the_lock_on_entry_and_on_exit(tmp_path, request):
    dur = durability(tmp_path, request.addfinalizer)
    context = dur.replaying()
    probe(dur, context.__enter__, "replaying")
    probe(dur, lambda: context.__exit__(None, None, None), "replaying")


def test_loop_stores_its_error_under_the_scan_lock():
    owned = []

    class Watched(Scheduler):
        def __setattr__(self, name, value):
            if name == "_worker_error" and value is not None:
                owned.append(self._scan_lock._is_owned())
            super().__setattr__(name, value)

    class Failing(Idle):
        def ready(self):
            return True

        def step(self, profiler):
            raise RuntimeError("firing failed")

    sched = Watched()
    sched.register(Failing("f"))
    sched.start()
    loop = sched._thread
    loop.join(timeout=10)
    assert not loop.is_alive()
    assert owned == [True]
    with pytest.raises(RuntimeError, match="firing failed"):
        sched.stop()
