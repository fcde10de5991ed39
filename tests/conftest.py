"""Shared fixtures and plain-Python reference implementations.

The reference functions are deliberately naive (dict/loop based): every
engine path (kernel programs, incremental factories, re-evaluation,
SystemX) is checked against them in the equivalence tests.
"""

from __future__ import annotations

import collections
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Hypothesis profiles: `ci` is derandomized (reproducible runs, bounded
# example counts, a hard deadline) for the pipeline; `dev` explores more
# examples with fresh entropy locally.  Select with HYPOTHESIS_PROFILE.
settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=30,
    deadline=2000,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", max_examples=100, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.storage import Catalog, Schema


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def catalog() -> Catalog:
    """A catalog with the paper's streams s / s2 and a small table."""
    cat = Catalog()
    cat.create_stream("s", Schema.of(("x1", Atom.INT), ("x2", Atom.INT)))
    cat.create_stream("s2", Schema.of(("x1", Atom.INT), ("x2", Atom.INT)))
    cat.create_stream(
        "t", Schema.of(("k", Atom.INT), ("v", Atom.FLT), ("tag", Atom.STR))
    )
    table = cat.create_table(
        "ref", Schema.of(("x2", Atom.INT), ("label", Atom.STR))
    )
    table.append_rows([(i, f"label{i % 5}") for i in range(50)])
    return cat


def int_bat(values, hseq: int = 0) -> BAT:
    return BAT.from_values(values, Atom.INT, hseq)


def flt_bat(values, hseq: int = 0) -> BAT:
    return BAT.from_values(values, Atom.FLT, hseq)


def str_bat(values, hseq: int = 0) -> BAT:
    return BAT.from_values(values, Atom.STR, hseq)


# ----------------------------------------------------------------------
# reference implementations
# ----------------------------------------------------------------------
def ref_q1(x1, x2, threshold):
    """SELECT x1, sum(x2) WHERE x1 > threshold GROUP BY x1 ORDER BY x1."""
    sums: dict = collections.defaultdict(int)
    for a, b in zip(x1, x2):
        if a > threshold:
            sums[int(a)] += int(b)
    return sorted(sums.items())


def ref_q2(a1, a2, b1, b2, threshold):
    """SELECT max(s1.x1), avg(s2.x1) WHERE s1.x2 = s2.x2 AND s1.x1 > t."""
    matches_left = []
    matches_right = []
    right = collections.defaultdict(list)
    for w, z in zip(b1, b2):
        right[int(z)].append(int(w))
    for u, v in zip(a1, a2):
        if u > threshold:
            for w in right.get(int(v), ()):
                matches_left.append(int(u))
                matches_right.append(w)
    if not matches_left:
        return []
    return [(max(matches_left), sum(matches_right) / len(matches_right))]


def ref_q3(x1, x2, threshold):
    """SELECT max(x1), sum(x2) WHERE x1 > threshold (landmark body)."""
    sel = [(int(a), int(b)) for a, b in zip(x1, x2) if a > threshold]
    if not sel:
        return []
    return [(max(a for a, __ in sel), sum(b for __, b in sel))]


def assert_rows_equal(got, expected, float_tol: float = 1e-9):
    """Compare row lists with float tolerance."""
    assert len(got) == len(expected), (got, expected)
    for g, e in zip(got, expected):
        assert len(g) == len(e), (g, e)
        for gv, ev in zip(g, e):
            if isinstance(ev, float) or isinstance(gv, float):
                assert gv == pytest.approx(ev, abs=float_tol), (got, expected)
            else:
                assert gv == ev, (got, expected)
