"""Bounded-memory landmark store: hot partial suffix + cold spill runs.

Landmark windows (paper §3 "Landmark Window Queries") accumulate state
from the landmark forward and are the engine's one infinite-state shape:
for a non-compacting combine (plain selection, concatenating flows) the
cumulative bundle grows with every arriving tuple.  This module bounds
the *retained* memory of such a query by keeping only a hot in-memory
suffix of landmark partials and spilling cold history to CRC-framed run
files on disk, paged back transparently whenever the factory re-merges
or the landmark is reset.

The spill discipline leans on one algebraic fact the factory already
relies on for landmark compaction: the combine program is an associative
n-ary merge — it runs over a varying number of live bundles each firing,
and compaction feeds its own output back as a later input.  Folding any
*prefix* of the bundle sequence through combine therefore preserves the
final merged result, which is exactly the DBSP view of aggregate state
as mergeable partial batches (PAPERS.md): cold prefixes become sorted,
immutable runs that can be re-merged out of core — or, under partitioned
execution, shipped and merged across workers.

On-disk layout (one directory per spilling query)::

    <spill_dir>/run-00000001.bin   one CRC frame: header {kind, seq,
    <spill_dir>/run-00000002.bin   state} + column blobs (the snapshot
    <spill_dir>/SPILL.json         codec of core/durability.py)

Runs are strictly seq-ordered and non-overlapping; ``SPILL.json`` is the
run manifest, rewritten atomically after every run commit.  Crash safety
mirrors the checkpoint protocol: a run file is fully durable (written to
a temp name, fsynced, renamed) *before* the manifest references it, so
the manifest only ever points at valid runs; orphan runs and temp files
left by a crash are pruned on restore and regenerated deterministically
by journal replay.

Thread-safety: like :class:`~repro.core.partials.PartialStore`, the
store is confined to its owning factory — the scheduler's scan lock
serializes all access.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Callable, Optional

from repro.core.durability import (
    DurabilityError,
    FaultHook,
    _fsync_dir,
    atomic_write,
    encode_frame,
    iter_frames,
    pack_state,
    unpack_state,
)
from repro.core.partials import Bundle
from repro.errors import SchedulerError
from repro.kernel.execution.profiler import (
    COUNTER_LANDMARK_PAGEIN_BYTES,
    COUNTER_LANDMARK_PAGEINS,
    COUNTER_LANDMARK_SPILL_BYTES,
    COUNTER_LANDMARK_SPILL_RUNS,
    Profiler,
)

#: Fault-injection hook points on the spill paths (see
#: :mod:`repro.testing.faults`); same contract as the durability hooks —
#: the hook fires *after* the named partial effect is on disk, so a
#: crash raised there leaves exactly the state the point describes.
HOOK_SPILL_RUN_BEFORE = "spill.run.before"
HOOK_SPILL_RUN_TORN = "spill.run.torn"
HOOK_SPILL_RUN_WRITTEN = "spill.run.written"
HOOK_SPILL_MANIFEST_WRITTEN = "spill.manifest_written"
HOOK_SPILL_PAGEIN = "spill.pagein"

SPILL_MANIFEST_NAME = "SPILL.json"

#: Fold the hot suffix once this many bundles accumulate even when the
#: byte budget is not exceeded — keeps per-firing packing cost bounded
#: for compacting combines that never need the disk at all.
HOT_FOLD_BUNDLES = 64

#: Consolidate all runs into one before exceeding this count, so a
#: firing pages in at most MAX_RUNS frames and the directory cannot
#: accumulate unbounded file-count even if bytes are bounded.
MAX_RUNS = 8


def run_name(index: int) -> str:
    return f"run-{index:08d}.bin"


def bundle_bytes(bundle: Bundle) -> int:
    """Approximate retained bytes of one bundle's columns."""
    total = 0
    for bat in bundle.values():
        tail = bat.tail
        if tail.dtype == object:  # strings: utf-8 payload + length prefix
            total += 4 * len(tail)
            for value in tail:
                total += len(value) if isinstance(value, str) else 8
        else:
            total += tail.nbytes
    return total


class SpillingStore:
    """Drop-in landmark replacement for :class:`PartialStore`.

    Presents the same interface (``add``/``live``/``bundle``/
    ``replace_all``/``newest_seq``/``snapshot_state``/...) but bounds
    retained memory: when the hot suffix exceeds ``budget_bytes`` the
    cold prefix is folded through ``fold`` (the factory's combine
    program) and, if still over budget, written out as one immutable
    run.  ``live()`` pages runs back in oldest-first, so the factory's
    pack-and-combine merge sees the exact bundle sequence an unbounded
    store would hold — emissions are byte-identical.
    """

    #: PartialStore-compatible marker: landmark stores are "unbounded"
    #: from the expiry machinery's point of view.
    capacity = 0

    def __init__(
        self,
        spill_dir: str,
        budget_bytes: int,
        fold: Callable[[list[Bundle]], Bundle],
        fault_hook: Optional[FaultHook] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.spill_dir = spill_dir
        self.budget_bytes = budget_bytes
        self._fold = fold
        #: Test seam, same contract as DurabilityManager.fault_hook.
        self.fault_hook = fault_hook
        self._profiler = profiler
        self._bundles: "OrderedDict[int, Bundle]" = OrderedDict()
        self._sizes: dict[int, int] = {}
        self._hot_bytes = 0
        self._next_seq = 0
        #: Committed runs, oldest first: {"name", "seq", "bytes"} where
        #: ``seq`` is the newest basic-window seq the run covers.
        self._runs: list[dict] = []
        self._next_run = 1
        self.spill_count = 0
        self.pagein_count = 0
        self.pagein_bytes = 0

    # -- PartialStore interface -----------------------------------------
    def add(self, bundle: Bundle) -> int:
        """Store the newest bundle; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        self._bundles[seq] = bundle
        size = bundle_bytes(bundle)
        self._sizes[seq] = size
        self._hot_bytes += size
        self._maybe_spill()
        return seq

    def live(self) -> list[tuple[int, Bundle]]:
        """Live bundles oldest first — spilled runs paged back in, then
        the hot suffix.  Paged bundles are not cached: the merge consumes
        them immediately and retained memory stays at the hot budget."""
        out = [(run["seq"], self._page_in(run)) for run in self._runs]
        out.extend(self._bundles.items())
        return out

    def live_seqs(self) -> list[int]:
        return [run["seq"] for run in self._runs] + list(self._bundles)

    def bundle(self, seq: int) -> Bundle:
        try:
            return self._bundles[seq]
        except KeyError:
            raise SchedulerError(
                f"partial for basic window {seq} expired or spilled"
            ) from None

    def replace_all(self, bundle: Bundle) -> None:
        """Collapse everything — disk runs included — to one hot bundle."""
        newest = self.newest_seq
        if newest is None:
            raise SchedulerError("cannot compact an empty partial store")
        self._drop_runs()
        self._bundles.clear()
        self._sizes.clear()
        self._bundles[newest] = bundle
        self._sizes[newest] = bundle_bytes(bundle)
        self._hot_bytes = self._sizes[newest]

    @property
    def newest_seq(self) -> Optional[int]:
        if self._bundles:
            return next(reversed(self._bundles))
        if self._runs:
            return self._runs[-1]["seq"]
        return None

    def __len__(self) -> int:
        return len(self._runs) + len(self._bundles)

    # -- spill machinery ------------------------------------------------
    def _maybe_spill(self) -> None:
        over_budget = self._hot_bytes > self.budget_bytes
        if not over_budget and len(self._bundles) <= HOT_FOLD_BUNDLES:
            return
        if len(self._bundles) < 2:
            return  # a lone partial cannot shrink further; budget is soft
        # Fold the cold prefix (all hot bundles but the newest) into one
        # cumulative bundle keyed at the prefix's newest seq.  For a
        # compacting combine this alone re-bounds memory; otherwise the
        # folded prefix goes to disk.
        seqs = list(self._bundles)
        prefix, newest = seqs[:-1], seqs[-1]
        folded = self._fold([self._bundles[seq] for seq in prefix])
        for seq in prefix:
            self._hot_bytes -= self._sizes.pop(seq)
            del self._bundles[seq]
        fold_seq = prefix[-1]
        newest_bundle = self._bundles.pop(newest)
        self._bundles[fold_seq] = folded
        self._sizes[fold_seq] = bundle_bytes(folded)
        self._hot_bytes += self._sizes[fold_seq]
        self._bundles[newest] = newest_bundle
        if self._hot_bytes > self.budget_bytes:
            self._spill(fold_seq)

    def _spill(self, seq: int) -> None:
        bundle = self._bundles[seq]
        superseded: list[dict] = []
        if len(self._runs) + 1 > MAX_RUNS:
            # Consolidate: merge every existing run with the new bundle
            # into a single covering run (seq order is preserved).
            paged = [self._page_in(run) for run in self._runs]
            bundle = self._fold(paged + [bundle])
            superseded = self._runs
            self._runs = []
        name = run_name(self._next_run)
        self._next_run += 1
        size = self._write_run(name, seq, bundle)
        self._runs.append({"name": name, "seq": seq, "bytes": size})
        self._write_manifest()
        # Superseded runs are unlinked only after the manifest stopped
        # referencing them; a crash in between leaves orphans that the
        # restore path prunes.
        for run in superseded:
            self._unlink(run["name"])
        self._hot_bytes -= self._sizes.pop(seq)
        del self._bundles[seq]
        self.spill_count += 1
        if self._profiler is not None:
            self._profiler.count(COUNTER_LANDMARK_SPILL_RUNS)
            self._profiler.count(COUNTER_LANDMARK_SPILL_BYTES, size)

    def _write_run(self, name: str, seq: int, bundle: Bundle) -> int:
        os.makedirs(self.spill_dir, exist_ok=True)
        skeleton, blobs = pack_state(dict(bundle))
        frame = encode_frame(
            {"kind": "spill-run", "seq": seq, "state": skeleton}, blobs
        )
        path = os.path.join(self.spill_dir, name)
        hook = self.fault_hook
        if hook is not None:
            hook(HOOK_SPILL_RUN_BEFORE)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            if hook is not None:
                # Same torn-write seam as SegmentWriter.append: leave a
                # half frame durable so a crash there is a real torn run.
                half = max(1, len(frame) // 2)
                fh.write(frame[:half])
                fh.flush()
                os.fsync(fh.fileno())
                hook(HOOK_SPILL_RUN_TORN)
                fh.write(frame[half:])
            else:
                fh.write(frame)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(self.spill_dir)
        if hook is not None:
            hook(HOOK_SPILL_RUN_WRITTEN)
        return len(frame)

    def _write_manifest(self) -> None:
        os.makedirs(self.spill_dir, exist_ok=True)
        manifest = {
            "version": 1,
            "next_run": self._next_run,
            "runs": [dict(run) for run in self._runs],
        }
        atomic_write(
            os.path.join(self.spill_dir, SPILL_MANIFEST_NAME),
            json.dumps(manifest, indent=2).encode("utf-8"),
        )
        hook = self.fault_hook
        if hook is not None:
            hook(HOOK_SPILL_MANIFEST_WRITTEN)

    def _page_in(self, run: dict) -> Bundle:
        hook = self.fault_hook
        if hook is not None:
            hook(HOOK_SPILL_PAGEIN)
        path = os.path.join(self.spill_dir, run["name"])
        frames = list(iter_frames(path))
        if len(frames) != 1:
            # The manifest only ever references fully-durable runs, so a
            # torn run here is corruption, not a crash artifact.
            raise DurabilityError(f"spill run {path} is torn or corrupt")
        header, blobs = frames[0]
        self.pagein_count += 1
        self.pagein_bytes += run["bytes"]
        if self._profiler is not None:
            self._profiler.count(COUNTER_LANDMARK_PAGEINS)
            self._profiler.count(COUNTER_LANDMARK_PAGEIN_BYTES, run["bytes"])
        return unpack_state(header["state"], blobs)

    def _unlink(self, name: str) -> None:
        try:
            os.unlink(os.path.join(self.spill_dir, name))
        except OSError:  # pragma: no cover - defensive
            pass

    def _drop_runs(self) -> None:
        had_runs = bool(self._runs)
        for run in self._runs:
            self._unlink(run["name"])
        self._runs = []
        if had_runs:
            self._write_manifest()

    # -- landmark reset -------------------------------------------------
    def reset(self) -> None:
        """Discard all state, hot and spilled (factory.reset_landmark).

        Mirrors swapping in a fresh PartialStore: the seq counter starts
        over (replay-deterministic), while run numbering stays monotonic
        so a pre-reset run name is never reused.
        """
        self._drop_runs()
        self._bundles.clear()
        self._sizes.clear()
        self._hot_bytes = 0
        self._next_seq = 0

    # -- durability (checkpoint/restore) --------------------------------
    def snapshot_state(self) -> dict:
        """PartialStore-shaped image plus the spill-run manifest.

        Run files are fsynced before the manifest (and hence any
        checkpoint) references them, so a snapshot's run list always
        points at durable files; post-snapshot spills are regenerated
        deterministically by journal replay.
        """
        return {
            "next_seq": self._next_seq,
            "bundles": [
                [seq, dict(bundle)] for seq, bundle in self._bundles.items()
            ],
            "spill": {
                "next_run": self._next_run,
                "runs": [dict(run) for run in self._runs],
            },
        }

    def restore_state(self, state: dict) -> None:
        self._next_seq = int(state["next_seq"])
        self._bundles = OrderedDict(
            (int(seq), bundle) for seq, bundle in state["bundles"]
        )
        self._sizes = {
            seq: bundle_bytes(bundle) for seq, bundle in self._bundles.items()
        }
        self._hot_bytes = sum(self._sizes.values())
        # Tolerate snapshots taken by a plain PartialStore (spill enabled
        # after the checkpoint) — they simply have no runs yet.
        spill = state.get("spill") or {"next_run": 1, "runs": []}
        self._next_run = int(spill["next_run"])
        self._runs = [
            {"name": r["name"], "seq": int(r["seq"]), "bytes": int(r["bytes"])}
            for r in spill["runs"]
        ]
        self._prune_unreferenced()

    def _prune_unreferenced(self) -> None:
        """Delete orphan runs and temp files; re-commit the manifest.

        A crash can leave (a) a fully-written run the checkpoint never
        referenced, (b) a half-written ``.tmp``, or (c) a manifest ahead
        of the restored snapshot.  The adopted snapshot is authoritative;
        journal replay regenerates any post-snapshot spill byte-for-byte
        under the same run names.
        """
        try:
            names = os.listdir(self.spill_dir)
        except FileNotFoundError:
            names = []
        keep = {run["name"] for run in self._runs}
        for name in names:
            if name == SPILL_MANIFEST_NAME or name in keep:
                continue
            self._unlink(name)
        if self._runs or SPILL_MANIFEST_NAME in names:
            self._write_manifest()

    # -- observability ---------------------------------------------------
    def stats(self) -> dict:
        """Gauges for metrics/console (see docs/METRICS.md)."""
        return {
            "budget_bytes": self.budget_bytes,
            "hot_bytes": self._hot_bytes,
            "hot_bundles": len(self._bundles),
            "disk_bytes": sum(run["bytes"] for run in self._runs),
            "runs": len(self._runs),
            "spills": self.spill_count,
            "pageins": self.pagein_count,
            "pagein_bytes": self.pagein_bytes,
        }
