"""Independent recomputation of query windows from the generated input.

Shares no code with the engine: a window is located by its geometry
(:meth:`perf.workloads.Window.bounds`), gathered from the input buffer and
reduced with plain numpy — ``bincount`` for grouped sums, mask reductions
for the global aggregates, key histograms for the equi-join.  The driver
hands over the batches it kept (:func:`sample_indices`) and counts every
mismatch or gap as a failed operation.
"""

from __future__ import annotations

import numpy as np

from perf.workloads import Data, Query

#: Relative tolerance for float outputs (avg); integers compare exactly.
RTOL = 1e-9


def sample_indices(total: int, every: int = 250) -> set[int]:
    """1-based window indexes to verify: first 2, every 250th, the last."""
    picked = {1, 2, total} | set(range(every, total + 1, every))
    return {k for k in picked if 1 <= k <= total}


def reference(query: Query, data: Data, k: int) -> list[np.ndarray]:
    """Expected output columns of window ``k`` (0-based), in select-list
    order; grouped results are ordered by key."""
    lo, hi = query.window.bounds(k)
    if query.shape == "join":
        return _join_reference(query, data, lo, hi)
    stream = query.streams[0]
    val = data.gather(stream, query.val, lo, hi)
    if query.shape == "gsum":
        key = data.gather(stream, query.key, lo, hi)
    if query.threshold is not None:
        mask = data.gather(stream, query.filter, lo, hi) > query.threshold
        val = val[mask]
        if query.shape == "gsum":
            key = key[mask]
    if query.shape == "gsum":
        counts = np.bincount(key)
        sums = np.bincount(key, weights=val)  # exact below 2**53
        present = np.flatnonzero(counts)
        return [present, sums[present]]
    if query.shape == "cntavg":
        return [np.array([len(val)]), np.array([val.mean()])]
    if query.shape == "minmax":
        return [np.array([val.min()]), np.array([val.max()])]
    raise ValueError(f"unknown query shape {query.shape!r}")


def _join_reference(query: Query, data: Data, lo: int, hi: int) -> list[np.ndarray]:
    """Q2 ``max(left.val), avg(right.val)`` over ``left.key = right.key``:
    a right tuple appears once per matching left tuple, so the average
    weights it by the left key histogram."""
    left, right = query.streams
    lk = data.gather(left, query.key, lo, hi)
    rk = data.gather(right, query.key, lo, hi)
    lv = data.gather(left, query.val, lo, hi)
    rv = data.gather(right, query.val, lo, hi)
    domain = int(max(lk.max(), rk.max())) + 1
    left_hist = np.bincount(lk, minlength=domain)
    right_hist = np.bincount(rk, minlength=domain)
    pairs = int((left_hist * right_hist).sum())
    matched_left = lv[right_hist[lk] > 0]
    weighted = float((rv * left_hist[rk]).sum())
    return [np.array([matched_left.max()]), np.array([weighted / pairs])]


def matches(query: Query, expected: list[np.ndarray], batch) -> bool:
    """Does one emitted ResultBatch equal the reference columns?"""
    got = [np.asarray(batch.columns[name].tail) for name in batch.names]
    if len(got) != len(expected):
        return False
    if query.shape == "gsum":
        order = np.argsort(got[0], kind="stable")
        got = [column[order] for column in got]
    for have, want in zip(got, expected):
        if len(have) != len(want):
            return False
        if not np.allclose(
            have.astype(np.float64), want.astype(np.float64), rtol=RTOL, atol=0.0
        ):
            return False
    return True


def failed_windows(queries, data: Data, kept: dict, expected_total: dict) -> list[str]:
    """Verify every kept batch and every expected sample.

    ``kept`` maps ``(query name, 1-based window index)`` to the emitted
    batch; ``expected_total`` maps query name to the window count its
    geometry predicts.  Returns one message per failed window: a sample
    that never arrived, or one whose values differ from the reference.
    """
    failures: list[str] = []
    for query in queries:
        for index in sorted(sample_indices(expected_total[query.name])):
            batch = kept.get((query.name, index))
            if batch is None:
                failures.append(f"{query.name} window {index}: missing")
            elif not matches(query, reference(query, data, index - 1), batch):
                failures.append(f"{query.name} window {index}: value mismatch")
    return failures
