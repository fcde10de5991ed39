"""Durability: the input journal, consistent snapshots, and recovery.

The DataCell engine keeps all stream state in memory (paper Figure 1);
this module makes a restart survivable (ROADMAP item 2).  The design is
the classic snapshot + log-replay pair used by DBSP-style incremental
engines (PAPERS.md):

* **Journal** — an append-only command log under ``<data_dir>/segments/``.
  Every state-changing engine call (``create_stream``, ``submit``,
  ``feed`` — receptors included, they feed through it — ``advance_time``,
  ...) appends one CRC-framed record carrying a monotonically increasing
  sequence number.
  Records are fsynced before the in-memory effect is applied (write-ahead
  under :attr:`DurabilityManager.lock`), so a crash at any instant loses
  at most in-memory effects the log can reproduce.

* **Snapshot** — a periodic consistent image of the whole engine: one
  basket per stream plus each query's cursor positions, factory partial
  stores and window slicers, emitter buffers,
  scheduler span-seq counters, fragment-cache entries, and the shard
  coordinator's routing state.  Written atomically (temp file + fsync +
  rename) and committed by rewriting ``MANIFEST.json`` the same way; the
  manifest points at the live snapshot and the journal *horizon* — the
  last record sequence the snapshot covers.

* **Recovery** — :meth:`repro.core.engine.DataCellEngine.restore` loads
  the manifest's snapshot, replays every journal record past the horizon
  through the normal ingest path, and resumes journaling on a fresh
  segment.  Replayed firings regenerate exactly the windows the snapshot
  had not yet emitted (factory ``window_index`` and scheduler step
  counters are part of the snapshot), so recovery is exactly-once from
  the emitter's point of view; a dedup sink drops any window at or below
  the snapshot watermark as defense in depth.

* **Format** — one number, :data:`DATA_FORMAT`, in the engine meta.
  Restore checks it before applying anything and refuses a dir written
  in any other format.

Frame format (shared by segments and snapshots)::

    MAGIC "RDC1" | u64 payload length | u32 crc32(payload) | payload
    payload = u32 header length | header JSON (utf-8) | blob bytes...

Fixed-width atoms serialize via ``ndarray.tobytes``; strings are
length-prefixed utf-8 with ``0xFFFFFFFF`` marking NULL.  A truncated
tail or corrupted CRC ends the readable prefix of a segment — recovery
resumes from the last valid record (tested property, not best effort).

Lock order: ``DurabilityManager.lock`` is the engine's outermost lock —
it is held around journal-write + state-mutation pairs and across the
whole checkpoint (which then quiesces the scheduler), so a snapshot can
never observe a state the journal horizon does not describe.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.overflow import OverflowPolicy, parse_overflow_spec
from repro.errors import ReproError
from repro.kernel.atoms import Atom, atom_of_dtype, numpy_dtype
from repro.kernel.bat import BAT
from repro.kernel.execution.profiler import (
    COUNTER_CHECKPOINT_BYTES,
    COUNTER_CHECKPOINTS,
    COUNTER_JOURNAL_BYTES,
    COUNTER_JOURNAL_RECORDS,
)


class DurabilityError(ReproError):
    """A data directory the engine cannot recover from as asked."""


MAGIC = b"RDC1"

#: The data-dir format the engine writes and restores: the ``"format"``
#: of its meta, which is the journal's first record and every snapshot's
#: ``meta``.  ``DataCellEngine.restore`` refuses a dir with any other (or
#: none).  The frame ``MAGIC`` stays: a frame it does not match reads as
#: a torn journal tail, not as a foreign format.
DATA_FORMAT = 5

_FIXED = struct.Struct("<4sQI")  # magic, payload length, crc32
_U32 = struct.Struct("<I")
_NULL_STR = 0xFFFFFFFF

#: Upper bound on one frame's payload; anything larger in a segment
#: header is treated as corruption, not an allocation request.
MAX_PAYLOAD = 1 << 40

MANIFEST_NAME = "MANIFEST.json"
SEGMENT_DIR = "segments"
SNAPSHOT_DIR = "snapshots"

#: Fault-injection hook points (see :mod:`repro.testing.faults`).  The
#: hook runs *after* the named partial effect is durable, so a crash
#: raised there leaves exactly the on-disk state the point describes.
HOOK_APPEND_BEFORE = "segment.append.before"
HOOK_APPEND_TORN = "segment.append.torn"
HOOK_APPEND_AFTER = "segment.append.after"
HOOK_CHECKPOINT_BEGIN = "checkpoint.begin"
HOOK_SNAPSHOT_WRITTEN = "checkpoint.snapshot_written"
HOOK_MANIFEST_WRITTEN = "checkpoint.manifest_written"
HOOK_CHECKPOINT_END = "checkpoint.end"

FaultHook = Callable[[str], None]


# ----------------------------------------------------------------------
# column codec
# ----------------------------------------------------------------------
def encode_array(values: np.ndarray, atom: Atom) -> bytes:
    """One typed column as bytes (length-prefixed utf-8 for strings)."""
    if atom is Atom.STR:
        parts: list[bytes] = []
        for value in values:
            if value is None:
                parts.append(_U32.pack(_NULL_STR))
            else:
                raw = str(value).encode("utf-8")
                parts.append(_U32.pack(len(raw)))
                parts.append(raw)
        return b"".join(parts)
    return np.ascontiguousarray(values, dtype=numpy_dtype(atom)).tobytes()


def decode_array(blob: bytes, atom: Atom, count: int) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    if atom is Atom.STR:
        out = np.empty(count, dtype=object)
        offset = 0
        for i in range(count):
            (length,) = _U32.unpack_from(blob, offset)
            offset += _U32.size
            if length == _NULL_STR:
                out[i] = None
            else:
                out[i] = blob[offset : offset + length].decode("utf-8")
                offset += length
        return out
    dtype = numpy_dtype(atom)
    expected = count * dtype.itemsize
    if len(blob) != expected:
        raise DurabilityError(
            f"column blob holds {len(blob)} bytes, expected {expected}"
        )
    # Copy: frombuffer views are read-only and would pin the frame bytes.
    return np.frombuffer(blob, dtype=dtype).copy()


def typed_values(values, atom: Atom) -> np.ndarray:
    """One offered column as the typed array its atom dictates.

    Used on the journaling path to normalize arbitrary sequences (lists,
    numpy arrays, generators already materialized) before framing.
    """
    if atom is Atom.STR:
        materialized = list(values)
        out = np.empty(len(materialized), dtype=object)
        for i, value in enumerate(materialized):
            out[i] = None if value is None else str(value)
        return out
    return np.asarray(values, dtype=numpy_dtype(atom))


def declared_policy(spec: Optional[str]) -> Optional[OverflowPolicy]:
    """The overflow policy a journal record or snapshot declares for a
    stream (``None``: unbounded, or the basket's default).  A spec naming
    a policy this engine does not offer refuses the data dir with
    :class:`DurabilityError` before anything is applied to it."""
    if not spec:
        return None
    try:
        return parse_overflow_spec(spec)
    except ReproError as exc:
        raise DurabilityError(f"cannot restore a stream declaration: {exc}") from None


def pack_state(value) -> tuple[object, list[bytes]]:
    """A state tree as (JSON-able skeleton, column blobs).

    Leaves may be BATs (``{"__bat__": ...}`` placeholders), numpy arrays
    (``{"__arr__": ...}``), numpy scalars, or plain JSON scalars.  Dicts
    must be string-keyed — integer-keyed stores serialize as pair lists.
    """
    blobs: list[bytes] = []

    def walk(node):
        if isinstance(node, BAT):
            index = len(blobs)
            blobs.append(encode_array(node.tail, node.atom))
            return {
                "__bat__": [index, node.atom.value, int(node.hseq), len(node.tail)]
            }
        if isinstance(node, np.ndarray):
            atom = atom_of_dtype(node.dtype)
            index = len(blobs)
            blobs.append(encode_array(node, atom))
            return {"__arr__": [index, atom.value, len(node)]}
        if isinstance(node, dict):
            out = {}
            for key, item in node.items():
                if not isinstance(key, str):
                    raise DurabilityError(
                        f"state dict key {key!r} is not a string"
                    )
                if key in ("__bat__", "__arr__"):
                    raise DurabilityError(f"reserved state key {key!r}")
                out[key] = walk(item)
            return out
        if isinstance(node, (list, tuple)):
            return [walk(item) for item in node]
        if isinstance(node, (np.integer, np.bool_)):
            return int(node)
        if isinstance(node, np.floating):
            return float(node)
        if node is None or isinstance(node, (bool, int, float, str)):
            return node
        raise DurabilityError(f"unserializable state leaf {type(node).__name__}")

    return walk(value), blobs


def unpack_state(skeleton, blobs: list[bytes]):
    """Inverse of :func:`pack_state`; BAT/array leaves are rebuilt."""

    def walk(node):
        if isinstance(node, dict):
            if "__bat__" in node:
                index, atom_value, hseq, count = node["__bat__"]
                atom = Atom(atom_value)
                return BAT(decode_array(blobs[index], atom, count), atom, hseq)
            if "__arr__" in node:
                index, atom_value, count = node["__arr__"]
                atom = Atom(atom_value)
                return decode_array(blobs[index], atom, count)
            return {key: walk(item) for key, item in node.items()}
        if isinstance(node, list):
            return [walk(item) for item in node]
        return node

    return walk(skeleton)


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def encode_frame(header: dict, blobs: list[bytes]) -> bytes:
    """One CRC-framed record: header JSON + concatenated column blobs."""
    header = dict(header)
    header["__blobs__"] = [len(blob) for blob in blobs]
    header_raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload = b"".join([_U32.pack(len(header_raw)), header_raw, *blobs])
    return _FIXED.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> tuple[dict, list[bytes]]:
    (header_len,) = _U32.unpack_from(payload, 0)
    start = _U32.size
    header = json.loads(payload[start : start + header_len].decode("utf-8"))
    offset = start + header_len
    blobs: list[bytes] = []
    for length in header.pop("__blobs__", []):
        blobs.append(payload[offset : offset + length])
        offset += length
    return header, blobs


def iter_frames(path: str) -> Iterator[tuple[dict, list[bytes]]]:
    """Valid frames of one file, stopping at the first torn or corrupt one.

    A truncated tail (crash mid-append) or a CRC mismatch ends the
    iteration cleanly — everything before the damage is still served, so
    recovery resumes from the last valid record.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return
    offset = 0
    while offset + _FIXED.size <= len(data):
        magic, length, crc = _FIXED.unpack_from(data, offset)
        if magic != MAGIC or length > MAX_PAYLOAD:
            return
        start = offset + _FIXED.size
        end = start + length
        if end > len(data):
            return  # torn tail
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return  # corrupted record
        try:
            yield decode_payload(payload)
        except (ValueError, KeyError, struct.error):
            return
        offset = end


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` durably: temp file in the same dir + fsync + rename."""
    directory = os.path.dirname(path) or "."
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(directory)


# ----------------------------------------------------------------------
# segments
# ----------------------------------------------------------------------
def segment_name(index: int) -> str:
    return f"segment-{index:08d}.log"


def snapshot_name(snapshot_id: int) -> str:
    return f"snapshot-{snapshot_id:08d}.bin"


class SegmentWriter:
    """Appends framed records to one journal segment, fsyncing each."""

    def __init__(self, path: str, fault_hook: Optional[FaultHook] = None) -> None:
        self.path = path
        self._fh = open(path, "ab")
        self.bytes_written = os.path.getsize(path)
        self.fault_hook = fault_hook

    def append(self, header: dict, blobs: list[bytes]) -> int:
        """Durably append one record; returns its encoded size."""
        hook = self.fault_hook
        frame = encode_frame(header, blobs)
        if hook is not None:
            hook(HOOK_APPEND_BEFORE)
            # Split the write so a torn-append crash point leaves a half
            # frame *on disk* — the exact state a power cut produces.
            half = max(1, len(frame) // 2)
            self._fh.write(frame[:half])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            hook(HOOK_APPEND_TORN)
            self._fh.write(frame[half:])
        else:
            self._fh.write(frame)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.bytes_written += len(frame)
        if hook is not None:
            hook(HOOK_APPEND_AFTER)
        return len(frame)

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - defensive
            pass


def list_segments(data_dir: str) -> list[tuple[int, str]]:
    """(index, path) of every segment file, ascending."""
    directory = os.path.join(data_dir, SEGMENT_DIR)
    out: list[tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return out
    for name in names:
        if name.startswith("segment-") and name.endswith(".log"):
            try:
                index = int(name[len("segment-") : -len(".log")])
            except ValueError:
                continue
            out.append((index, os.path.join(directory, name)))
    out.sort()
    return out


def iter_journal(data_dir: str, after_seq: int = 0) -> Iterator[tuple[dict, list[bytes]]]:
    """Journal records with ``seq > after_seq``, across all segments.

    Segments are read in index order; within each, iteration stops at the
    first invalid frame (the written prefix is always a valid replay).
    """
    for __, path in list_segments(data_dir):
        for header, blobs in iter_frames(path):
            if header.get("seq", 0) > after_seq:
                yield header, blobs


# ----------------------------------------------------------------------
# manifest + snapshots
# ----------------------------------------------------------------------
def read_manifest(data_dir: str) -> Optional[dict]:
    """The committed manifest, or None for a fresh/never-checkpointed dir."""
    path = os.path.join(data_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise DurabilityError(f"unreadable manifest {path}: {exc}") from exc
    if manifest.get("version") != 1:
        raise DurabilityError(
            f"unsupported manifest version {manifest.get('version')!r}"
        )
    return manifest


def read_snapshot(path: str):
    """The state tree of one committed snapshot file."""
    frames = list(iter_frames(path))
    if len(frames) != 1:
        raise DurabilityError(f"snapshot {path} is torn or corrupt")
    header, blobs = frames[0]
    return unpack_state(header["state"], blobs)


def has_data(data_dir: str) -> bool:
    """True if the directory holds a manifest or any journal segment."""
    if read_manifest(data_dir) is not None:
        return True
    return bool(list_segments(data_dir))


# ----------------------------------------------------------------------
# the manager
# ----------------------------------------------------------------------
class DurabilityManager:
    """Owns a data directory: journal sequencing, checkpoints, recovery.

    The manager's lock is the engine's *outermost* lock (DESIGN.md §6):
    state-changing engine calls hold it around journal-append plus the
    in-memory mutation, and :meth:`write_checkpoint` holds it across
    snapshot + manifest commit, which is what makes the pair
    ``(horizon, snapshot)`` consistent.  The journal and checkpoint
    counters live here too, written under the lock; :meth:`counters`
    copies them without it (a dict copy is atomic under the GIL), so a
    metrics reader never waits for a checkpoint.
    """

    def __init__(self, data_dir: str) -> None:
        self.data_dir = data_dir
        os.makedirs(os.path.join(data_dir, SEGMENT_DIR), exist_ok=True)
        os.makedirs(os.path.join(data_dir, SNAPSHOT_DIR), exist_ok=True)
        self._remove_stale_tmp()
        self.lock = threading.RLock()
        #: Test seam: called at every HOOK_* point (may raise to simulate
        #: a crash at exactly that durability state).
        self.fault_hook: Optional[FaultHook] = None
        # Written under lock, read lock-free by counters().
        self._counters = dict.fromkeys(
            (COUNTER_JOURNAL_RECORDS, COUNTER_JOURNAL_BYTES,
             COUNTER_CHECKPOINTS, COUNTER_CHECKPOINT_BYTES),
            0,
        )
        self._seq = 0  # guarded-by: lock — last assigned record seq
        self._segment_index = 0  # guarded-by: lock
        self._snapshot_id = 0  # guarded-by: lock
        self._writer: Optional[SegmentWriter] = None  # guarded-by: lock
        self._replaying = False  # guarded-by: lock
        self._closed = False  # guarded-by: lock
        self.last_checkpoint: dict = {}  # guarded-by: lock

    # -- bookkeeping ----------------------------------------------------
    def _remove_stale_tmp(self) -> None:
        """Drop temp files a crashed writer left behind (never committed)."""
        for root in (
            self.data_dir,
            os.path.join(self.data_dir, SEGMENT_DIR),
            os.path.join(self.data_dir, SNAPSHOT_DIR),
        ):
            try:
                names = os.listdir(root)
            except FileNotFoundError:
                continue
            for name in names:
                if name.endswith(".tmp"):
                    try:
                        os.unlink(os.path.join(root, name))
                    except OSError:  # pragma: no cover - defensive
                        pass

    @property
    def seq(self) -> int:
        with self.lock:
            return self._seq

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.data_dir, SEGMENT_DIR, segment_name(index))

    def _snapshot_path(self, snapshot_id: int) -> str:
        return os.path.join(self.data_dir, SNAPSHOT_DIR, snapshot_name(snapshot_id))

    def _ensure_writer(self) -> SegmentWriter:  # guarded-by: lock
        if self._writer is None:
            self._writer = SegmentWriter(
                self._segment_path(self._segment_index),
                fault_hook=self._call_hook if self.fault_hook else None,
            )
        return self._writer

    def _call_hook(self, point: str) -> None:
        hook = self.fault_hook
        if hook is not None:
            hook(point)

    def _count(self, name: str, value: int = 1) -> None:  # guarded-by: lock
        self._counters[name] += value

    def counters(self) -> dict[str, int]:
        """Journal records/bytes and checkpoints/bytes written so far."""
        return dict(self._counters)

    # -- journaling -----------------------------------------------------
    @contextmanager
    def replaying(self):
        """Suppress journaling while the journal itself drives the engine."""
        with self.lock:
            self._replaying = True
        try:
            yield
        finally:
            with self.lock:
                self._replaying = False

    def journal(self, kind: str, payload) -> Optional[int]:
        """Durably append one command record; returns its seq (or None
        while replaying or after close)."""
        with self.lock:
            if self._replaying or self._closed:
                return None
            skeleton, blobs = pack_state(payload)
            self._seq += 1
            header = {"kind": kind, "seq": self._seq, "state": skeleton}
            size = self._ensure_writer().append(header, blobs)
            self._count(COUNTER_JOURNAL_RECORDS)
            self._count(COUNTER_JOURNAL_BYTES, size)
            return self._seq

    def journal_bytes(self) -> int:
        """Bytes written to the current (post-horizon) segment."""
        with self.lock:
            if self._writer is None:
                return 0
            return self._writer.bytes_written

    def stats(self) -> dict:
        """Gauges for :meth:`DataCellEngine.durability_stats` / metrics."""
        with self.lock:
            journal_bytes = (
                self._writer.bytes_written if self._writer is not None else 0
            )
            return {
                "data_dir": self.data_dir,
                "seq": self._seq,
                "snapshot_id": self._snapshot_id,
                "journal_bytes": journal_bytes,
                "last_checkpoint": dict(self.last_checkpoint),
            }

    # -- checkpointing --------------------------------------------------
    def write_checkpoint(self, state: dict) -> dict:
        """Commit one consistent snapshot; returns checkpoint stats.

        The caller gathers ``state`` while holding :attr:`lock` (and with
        the scheduler quiesced), so the snapshot matches :attr:`seq`
        exactly.  Commit order: snapshot file durable → journal rotated →
        manifest rename (the commit point) → covered segments and stale
        snapshots deleted.  A crash before the manifest rename leaves the
        previous checkpoint fully intact.
        """
        start = time.perf_counter()
        with self.lock:
            self._call_hook(HOOK_CHECKPOINT_BEGIN)
            horizon = self._seq
            self._snapshot_id += 1
            snapshot_id = self._snapshot_id
            skeleton, blobs = pack_state(state)
            frame = encode_frame(
                {"kind": "snapshot", "snapshot_id": snapshot_id,
                 "horizon": horizon, "state": skeleton},
                blobs,
            )
            atomic_write(self._snapshot_path(snapshot_id), frame)
            self._call_hook(HOOK_SNAPSHOT_WRITTEN)
            # Rotate: records after the horizon start a fresh segment, so
            # every older segment is fully covered by this snapshot.
            if self._writer is not None:
                self._writer.close()
                self._writer = None
            self._segment_index += 1
            manifest = {
                "version": 1,
                "snapshot": snapshot_name(snapshot_id),
                "snapshot_id": snapshot_id,
                "horizon": horizon,
                "segment_index": self._segment_index,
            }
            atomic_write(
                os.path.join(self.data_dir, MANIFEST_NAME),
                json.dumps(manifest, indent=2).encode("utf-8"),
            )
            self._call_hook(HOOK_MANIFEST_WRITTEN)
            self._collect_garbage(snapshot_id)
            seconds = time.perf_counter() - start
            stats = {
                "snapshot_id": snapshot_id,
                "horizon": horizon,
                "bytes": len(frame),
                "seconds": seconds,
            }
            self.last_checkpoint = stats
            self._count(COUNTER_CHECKPOINTS)
            self._count(COUNTER_CHECKPOINT_BYTES, len(frame))
            self._call_hook(HOOK_CHECKPOINT_END)
            return dict(stats)

    def _collect_garbage(self, live_snapshot_id: int) -> None:  # guarded-by: lock
        """Delete segments below the rotation point and stale snapshots."""
        for index, path in list_segments(self.data_dir):
            if index < self._segment_index:
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - defensive
                    pass
        snapshot_root = os.path.join(self.data_dir, SNAPSHOT_DIR)
        for name in os.listdir(snapshot_root):
            if name.startswith("snapshot-") and name != snapshot_name(
                live_snapshot_id
            ):
                try:
                    os.unlink(os.path.join(snapshot_root, name))
                except OSError:  # pragma: no cover - defensive
                    pass

    # -- recovery -------------------------------------------------------
    def load(self) -> tuple[Optional[dict], int]:
        """(snapshot state or None, horizon) committed in this data dir."""
        manifest = read_manifest(self.data_dir)
        if manifest is None:
            return None, 0
        with self.lock:
            self._snapshot_id = manifest["snapshot_id"]
            self._segment_index = manifest["segment_index"]
        snapshot = read_snapshot(
            os.path.join(self.data_dir, SNAPSHOT_DIR, manifest["snapshot"])
        )
        return snapshot, manifest["horizon"]

    def replay_records(self, horizon: int) -> Iterator[tuple[int, str, object]]:
        """(seq, kind, payload) of every journal record past ``horizon``."""
        for header, blobs in iter_journal(self.data_dir, after_seq=horizon):
            yield (
                header["seq"],
                header["kind"],
                unpack_state(header.get("state"), blobs),
            )

    def resume(self, seq: int) -> None:
        """Arm journaling after a restore: continue at ``seq``, on a fresh
        segment (never append after a possibly-torn tail)."""
        with self.lock:
            self._seq = max(self._seq, seq)
            existing = list_segments(self.data_dir)
            if existing:
                self._segment_index = max(
                    self._segment_index, existing[-1][0] + 1
                )
            self._writer = None

    def close(self) -> None:
        with self.lock:
            self._closed = True
            if self._writer is not None:
                self._writer.close()
                self._writer = None
