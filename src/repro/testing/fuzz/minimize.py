"""Shrinking reducer and the ``.repro.json`` replay format.

A fuzz divergence is only actionable if it is small and replayable.  On
failure the runner wraps the offending (query, feed, config, check) into
a :class:`ReproCase`, greedily shrinks it — feed truncation first (rows
dominate readability), then clause-level query simplification — and
writes a versioned JSON file that ``repro fuzz --replay`` re-executes
deterministically.

Shrinking is *validity-preserving*: every candidate is re-planned before
re-evaluation and a candidate whose divergence degenerates into an
engine error (when the original was a genuine result mismatch) is
rejected, so the reducer cannot "simplify" a correctness bug into an
unrelated crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from repro.errors import ReproError
from repro.testing.fuzz.generator import Feed, FuzzQuery
from repro.testing.fuzz.metamorphic import check_relation
from repro.testing.fuzz.oracle import Divergence, OracleConfig, run_oracle
from repro.testing.fuzz.reference import ReferenceOracle

#: Reproducer format.  In version 2 the config holds exactly the current
#: axes, and a (seed, iteration) draws them without the draws of the
#: removed ``workers``, ``lockcheck`` and execution-path axes.
FORMAT = "repro-fuzz/2"


@dataclass
class ReproCase:
    """Everything needed to re-execute one fuzz failure deterministically."""

    query: FuzzQuery
    feed: Feed
    config: OracleConfig
    check: str = "oracle"  # "oracle" or a metamorphic relation name
    relation_seed: int = 0
    seed: int = 0
    iteration: int = 0
    divergence: Optional[Divergence] = None

    def to_json(self) -> dict:
        return {
            "format": FORMAT,
            "seed": self.seed,
            "iteration": self.iteration,
            "check": self.check,
            "relation_seed": self.relation_seed,
            "sql": self.query.sql,
            "query": self.query.to_json(),
            "feed": self.feed.to_json(),
            "config": self.config.to_json(),
            "divergence": self.divergence.to_json() if self.divergence else None,
        }

    @staticmethod
    def from_json(data: dict) -> "ReproCase":
        if data.get("format") != FORMAT:
            raise ReproError(
                f"unsupported repro format {data.get('format')!r} "
                f"(expected {FORMAT!r})"
            )
        divergence = data.get("divergence")
        return ReproCase(
            query=FuzzQuery.from_json(data["query"]),
            feed=Feed.from_json(data["feed"]),
            config=OracleConfig.from_json(data["config"]),
            check=data.get("check", "oracle"),
            relation_seed=data.get("relation_seed", 0),
            seed=data.get("seed", 0),
            iteration=data.get("iteration", 0),
            divergence=Divergence(**divergence) if divergence else None,
        )


def write_case(case: ReproCase, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(case.to_json(), indent=2) + "\n")
    return path


def load_case(path: str | Path) -> ReproCase:
    return ReproCase.from_json(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def evaluate_case(case: ReproCase) -> Optional[Divergence]:
    """Re-run the case's check; the divergence if it still reproduces."""
    if case.check == "oracle":
        return run_oracle(case.query, case.feed, case.config).divergence
    return check_relation(
        case.check,
        case.query,
        case.feed,
        case.relation_seed,
        case.config.float_tol,
    )


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
class _Budget:
    def __init__(self, runs: int) -> None:
        self.remaining = runs

    def spend(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


def _plans(query: FuzzQuery) -> bool:
    try:
        ReferenceOracle(query)
    except ReproError:
        return False
    return True


def _still_fails(
    case: ReproCase, candidate: ReproCase, budget: _Budget
) -> Optional[Divergence]:
    if not budget.spend():
        return None
    try:
        divergence = evaluate_case(candidate)
    except ReproError:
        return None
    if divergence is None:
        return None
    # don't let a genuine mismatch degrade into an unrelated crash
    original_kind = case.divergence.kind if case.divergence else None
    if original_kind not in (None, "error") and divergence.kind == "error":
        return None
    return divergence


def _truncated_feed(feed: Feed, stream: str, keep: int, drop_head: int = 0) -> Feed:
    columns = {s: dict(cols) for s, cols in feed.columns.items()}
    timestamps = dict(feed.timestamps)
    columns[stream] = {
        col: values[drop_head : drop_head + keep]
        for col, values in feed.columns[stream].items()
    }
    ts = feed.timestamps.get(stream)
    if ts is not None:
        timestamps[stream] = ts[drop_head : drop_head + keep]
    return Feed(columns=columns, timestamps=timestamps, punctuate=dict(feed.punctuate))


def _shrink_feed(case: ReproCase, budget: _Budget) -> ReproCase:
    changed = True
    while changed and budget.remaining > 0:
        changed = False
        for stream in list(case.query.streams):
            total = case.feed.row_count(stream)
            step = case.query.windows[stream].step if not case.query.windows[
                stream
            ].time_based else 0
            candidates: list[tuple[int, int]] = []  # (keep, drop_head)
            if total > 1:
                candidates.append((total // 2, 0))
            if step and total > step:
                candidates.append((total - step, 0))
                candidates.append((total - step, step))
            if total > 1:
                candidates.append((total - 1, 0))
            for keep, drop in candidates:
                if keep <= 0 or keep >= total:
                    continue
                trimmed = replace(
                    case, feed=_truncated_feed(case.feed, stream, keep, drop)
                )
                divergence = _still_fails(case, trimmed, budget)
                if divergence is not None:
                    case = replace(trimmed, divergence=divergence)
                    changed = True
                    break
    return case


def _query_edits(query: FuzzQuery):
    """Candidate clause-level simplifications, most aggressive first."""
    if query.order_by:
        yield replace(query, order_by=[])
    if query.having:
        yield replace(query, having=None)
    if query.where:
        yield replace(query, where=None)
    if query.distinct:
        yield replace(query, distinct=False)
    if len(query.select_items) > 1:
        for index in range(len(query.select_items)):
            items = [s for i, s in enumerate(query.select_items) if i != index]
            dropped = query.select_items[index]
            name = dropped.split(" AS ")[-1].strip()
            order_by = [
                key for key in query.order_by if key.split()[0] != name
            ]
            expr = dropped.split(" AS ")[0].strip()
            group_by = list(query.group_by)
            if expr in group_by and len(group_by) > 1:
                group_by = [g for g in group_by if g != expr]
            yield replace(
                query,
                select_items=items,
                order_by=order_by,
                group_by=group_by,
            )


def _shrink_query(case: ReproCase, budget: _Budget) -> ReproCase:
    changed = True
    while changed and budget.remaining > 0:
        changed = False
        for candidate_query in _query_edits(case.query):
            if not _plans(candidate_query):
                continue
            candidate = replace(case, query=candidate_query)
            divergence = _still_fails(case, candidate, budget)
            if divergence is not None:
                case = replace(candidate, divergence=divergence)
                changed = True
                break
    return case


def shrink(case: ReproCase, max_runs: int = 60) -> ReproCase:
    """Greedy minimization bounded by ``max_runs`` re-executions."""
    budget = _Budget(max_runs)
    case = _shrink_feed(case, budget)
    case = _shrink_query(case, budget)
    case = _shrink_feed(case, budget)  # query edits often unlock more rows
    return case
