"""Property tests for the durability codec (segments + snapshots).

Three layers, each with a round-trip law and a corruption law:

* column codec — :func:`encode_array`/:func:`decode_array` are inverses
  for every atom, including NaN/inf floats, empty columns, unicode and
  NULL strings;
* state codec — :func:`pack_state`/:func:`unpack_state` rebuild BAT and
  ndarray leaves inside arbitrary JSON-shaped trees;
* frame codec — :func:`encode_frame`/:func:`iter_frames` round-trip a
  record sequence, and *any* torn tail or flipped payload byte ends
  iteration cleanly at the last valid record (the recovery guarantee:
  replay resumes from the longest valid prefix, never raises).

Hypothesis profiles come from ``tests/conftest.py`` (derandomized under
``HYPOTHESIS_PROFILE=ci``).  Tests that need files build their own
temporary directories per example — function-scoped pytest fixtures do
not mix with ``@given``.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.durability import (
    DurabilityError,
    DurabilityManager,
    decode_array,
    encode_array,
    encode_frame,
    iter_frames,
    list_segments,
    pack_state,
    typed_values,
    unpack_state,
)
from repro.kernel.atoms import Atom, numpy_dtype
from repro.kernel.bat import BAT

pytestmark = pytest.mark.recovery

_FIXED_ATOMS = (Atom.OID, Atom.INT, Atom.BIT, Atom.TIMESTAMP)

ints = st.integers(min_value=-(2**62), max_value=2**62)
floats = st.floats(allow_nan=True, allow_infinity=True, width=64)
texts = st.one_of(st.none(), st.text(max_size=40))


def _columns_equal(left: np.ndarray, right: np.ndarray, atom: Atom) -> bool:
    if len(left) != len(right):
        return False
    if atom is Atom.STR:
        return all(a == b for a, b in zip(left, right))
    if atom is Atom.FLT:
        return bool(np.array_equal(left, right, equal_nan=True))
    return bool(np.array_equal(left, right))


@given(values=st.lists(ints, max_size=50), atom=st.sampled_from(_FIXED_ATOMS))
def test_fixed_atom_round_trip(values, atom):
    column = typed_values(values, atom)
    blob = encode_array(column, atom)
    back = decode_array(blob, atom, len(column))
    assert back.dtype == numpy_dtype(atom)
    assert _columns_equal(column, back, atom)


@given(values=st.lists(floats, max_size=50))
def test_float_round_trip_bitwise(values):
    """Floats survive bit-exactly — NaN payloads and signed zeros too."""
    column = typed_values(values, Atom.FLT)
    back = decode_array(encode_array(column, Atom.FLT), Atom.FLT, len(column))
    assert column.tobytes() == back.tobytes()
    for original, decoded in zip(column, back):
        assert math.isnan(original) == math.isnan(decoded)


@given(values=st.lists(texts, max_size=30))
def test_str_round_trip_unicode_and_null(values):
    column = typed_values(values, Atom.STR)
    back = decode_array(encode_array(column, Atom.STR), Atom.STR, len(column))
    assert _columns_equal(column, back, Atom.STR)
    # NULL (None) and empty string are distinct on the wire.
    assert [v is None for v in column] == [v is None for v in back]


def test_empty_columns_round_trip():
    for atom in Atom:
        column = typed_values([], atom)
        assert len(decode_array(encode_array(column, atom), atom, 0)) == 0


def test_short_blob_detected():
    blob = encode_array(typed_values([1, 2, 3], Atom.INT), Atom.INT)
    with pytest.raises(DurabilityError):
        decode_array(blob[:-1], Atom.INT, 3)


# ----------------------------------------------------------------------
# state codec
# ----------------------------------------------------------------------
_leaf = st.one_of(
    st.none(), st.booleans(), ints, floats, st.text(max_size=20)
)
_state = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.text(max_size=8).filter(lambda k: k not in ("__bat__", "__arr__")),
            children,
            max_size=4,
        ),
    ),
    max_leaves=20,
)


@given(state=_state)
def test_pack_state_round_trip_plain(state):
    skeleton, blobs = pack_state(state)
    back = unpack_state(skeleton, blobs)

    def canon(node):
        if isinstance(node, tuple):
            return [canon(x) for x in node]
        if isinstance(node, list):
            return [canon(x) for x in node]
        if isinstance(node, dict):
            return {k: canon(v) for k, v in node.items()}
        if isinstance(node, float) and math.isnan(node):
            return "nan"
        return node

    assert canon(back) == canon(state)


@given(
    tail=st.lists(ints, max_size=20),
    hseq=st.integers(min_value=0, max_value=2**32),
    extra=st.lists(floats, max_size=10),
)
def test_pack_state_round_trip_bat_and_array(tail, hseq, extra):
    state = {
        "window": BAT(typed_values(tail, Atom.INT), Atom.INT, hseq),
        "partials": typed_values(extra, Atom.FLT),
        "count": np.int64(len(tail)),
    }
    back = unpack_state(*pack_state(state))
    bat = back["window"]
    assert isinstance(bat, BAT)
    assert bat.atom is Atom.INT and bat.hseq == hseq
    assert _columns_equal(bat.tail, state["window"].tail, Atom.INT)
    assert _columns_equal(back["partials"], state["partials"], Atom.FLT)
    assert back["count"] == len(tail) and isinstance(back["count"], int)


def test_pack_state_rejects_non_string_keys_and_reserved():
    with pytest.raises(DurabilityError):
        pack_state({1: "x"})
    with pytest.raises(DurabilityError):
        pack_state({"__bat__": []})
    with pytest.raises(DurabilityError):
        pack_state({"x": object()})


# ----------------------------------------------------------------------
# frame codec: torn tails and corruption
# ----------------------------------------------------------------------
_frame_payloads = st.lists(
    st.lists(st.binary(max_size=12), max_size=3), min_size=1, max_size=6
)


def _write_frames(path: str, payloads) -> list[int]:
    """Write one frame per payload list; returns cumulative end offsets."""
    ends: list[int] = []
    offset = 0
    with open(path, "wb") as fh:
        for seq, blobs in enumerate(payloads):
            frame = encode_frame({"seq": seq, "kind": "feed"}, list(blobs))
            fh.write(frame)
            offset += len(frame)
            ends.append(offset)
    return ends


@given(payloads=_frame_payloads)
def test_frame_round_trip(payloads):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seg.log")
        _write_frames(path, payloads)
        decoded = list(iter_frames(path))
    assert len(decoded) == len(payloads)
    for seq, ((header, blobs), expected) in enumerate(zip(decoded, payloads)):
        assert header["seq"] == seq
        assert blobs == list(expected)


@given(payloads=_frame_payloads, data=st.data())
def test_truncated_tail_yields_longest_valid_prefix(payloads, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seg.log")
        ends = _write_frames(path, payloads)
        cut = data.draw(st.integers(min_value=0, max_value=ends[-1] - 1))
        with open(path, "r+b") as fh:
            fh.truncate(cut)
        decoded = list(iter_frames(path))
    # Exactly the frames wholly inside the first `cut` bytes survive.
    expected = sum(1 for end in ends if end <= cut)
    assert len(decoded) == expected


@given(payloads=_frame_payloads, data=st.data())
def test_flipped_byte_stops_at_corrupt_frame(payloads, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seg.log")
        ends = _write_frames(path, payloads)
        victim = data.draw(
            st.integers(min_value=0, max_value=len(payloads) - 1)
        )
        start = ends[victim - 1] if victim else 0
        # Flip one payload byte (past the 16-byte fixed header, so the
        # frame still *parses* — only its CRC gives the damage away).
        position = data.draw(
            st.integers(min_value=start + 16, max_value=ends[victim] - 1)
        )
        with open(path, "r+b") as fh:
            fh.seek(position)
            byte = fh.read(1)
            fh.seek(position)
            fh.write(bytes([byte[0] ^ 0x5A]))
        decoded = list(iter_frames(path))
    # Iteration serves everything before the corrupt frame, then stops.
    assert len(decoded) == victim


@settings(max_examples=25)
@given(count=st.integers(min_value=1, max_value=6), data=st.data())
def test_journal_replay_resumes_from_last_valid_record(count, data):
    """A torn append to the live segment never loses earlier records."""
    with tempfile.TemporaryDirectory() as tmp:
        dur = DurabilityManager(tmp)
        dur.resume(0)
        seqs = [
            dur.journal("feed", {"stream": "s", "rows": list(range(i))})
            for i in range(count)
        ]
        dur.close()
        assert seqs == list(range(1, count + 1))
        # Tear the tail: half of a valid frame, as a crashed append leaves.
        torn = encode_frame({"kind": "feed", "seq": count + 1}, [b"oops"])
        cut = data.draw(st.integers(min_value=1, max_value=len(torn) - 1))
        __, path = list_segments(tmp)[-1]
        with open(path, "ab") as fh:
            fh.write(torn[:cut])
        reader = DurabilityManager(tmp)
        replayed = list(reader.replay_records(0))
        reader.close()
    assert [seq for seq, __, __ in replayed] == seqs
    assert all(kind == "feed" for __, kind, __ in replayed)
    payloads = [payload for __, __, payload in replayed]
    assert payloads[-1]["rows"] == list(range(count - 1))


def test_reading_a_checkpointed_dir_closes_every_file(tmp_path):
    """Restore reads the snapshot and the journal segments after it, and
    closes each file it opens: no ResourceWarning."""
    import gc
    import warnings

    from repro import DataCellEngine

    data_dir = str(tmp_path / "data")
    engine = DataCellEngine(data_dir=data_dir)
    engine.create_stream("s", [("x", "int")])
    engine.submit("SELECT sum(x) AS t FROM s [RANGE 4 SLIDE 2]", name="q")
    engine.feed("s", [(i,) for i in range(6)])
    engine.run_until_idle()
    engine.checkpoint()
    engine.feed("s", [(i,) for i in range(4)])
    engine.run_until_idle()
    engine.close()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        restored = DataCellEngine.restore(data_dir)
        restored.close()
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
