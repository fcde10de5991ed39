"""DataCell core: baskets, factories, scheduler, and the incremental
rewriter — a stream engine on top of the DBMS kernel."""

from repro.core.basket import Basket
from repro.core.chunking import AdaptiveChunker
from repro.core.emitter import (
    CallbackEmitter,
    CollectingEmitter,
    CsvEmitter,
    RetryingEmitter,
)
from repro.core.engine import ContinuousQuery, DataCellEngine
from repro.core.factory import IncrementalFactory, ResultBatch
from repro.core.overflow import (
    Block,
    Fail,
    OverflowPolicy,
    parse_overflow_spec,
)
from repro.core.receptor import Receptor
from repro.core.rewriter import IncrementalPlan, rewrite
from repro.core.scheduler import Scheduler
from repro.core.windows import TS_COLUMN, WindowSpec

__all__ = [
    "AdaptiveChunker",
    "Basket",
    "Block",
    "CallbackEmitter",
    "CollectingEmitter",
    "ContinuousQuery",
    "CsvEmitter",
    "DataCellEngine",
    "Fail",
    "IncrementalFactory",
    "IncrementalPlan",
    "OverflowPolicy",
    "Receptor",
    "ResultBatch",
    "RetryingEmitter",
    "Scheduler",
    "TS_COLUMN",
    "WindowSpec",
    "parse_overflow_spec",
    "rewrite",
]
