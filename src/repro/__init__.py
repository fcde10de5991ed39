"""repro — a reproduction of "Enhanced Stream Processing in a DBMS Kernel"
(Liarou, Idreos, Manegold, Kersten; EDBT 2013).

DataCell: a stream engine built *on top of* a column-store DBMS kernel,
with incremental window processing realized entirely at the query-plan
level.  See README.md for a tour and DESIGN.md for the architecture.

Public entry points:

* :class:`repro.DataCellEngine` — the engine facade (streams, tables,
  continuous queries, feeding, scheduling);
* :class:`repro.WindowSpec` — window specifications;
* :mod:`repro.kernel` — the column-store substrate;
* :mod:`repro.dsms` — the specialized tuple-at-a-time comparator engine
  ("SystemX" stand-in);
* :mod:`repro.workloads` — synthetic stream generators for the paper's
  experiments.
"""

from repro.core import (
    AdaptiveChunker,
    Basket,
    Block,
    ContinuousQuery,
    DataCellEngine,
    Fail,
    IncrementalFactory,
    OverflowPolicy,
    ResultBatch,
    RetryingEmitter,
    Scheduler,
    WindowSpec,
)
from repro.errors import ReproError

__version__ = "0.1.0"

__all__ = [
    "AdaptiveChunker",
    "Basket",
    "Block",
    "ContinuousQuery",
    "DataCellEngine",
    "Fail",
    "IncrementalFactory",
    "OverflowPolicy",
    "ReproError",
    "ResultBatch",
    "RetryingEmitter",
    "Scheduler",
    "WindowSpec",
    "__version__",
]
