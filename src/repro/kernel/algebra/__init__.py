"""Columnar algebra operators of the kernel.

Submodules group the operator families (MonetDB module naming):

* :mod:`repro.kernel.algebra.select` — range/theta selections, candidates
* :mod:`repro.kernel.algebra.project` — projections (late reconstruction)
* :mod:`repro.kernel.algebra.join` — equi/semi/anti joins
* :mod:`repro.kernel.algebra.group` — grouping and distinct
* :mod:`repro.kernel.algebra.aggregate` — global and grouped aggregates
* :mod:`repro.kernel.algebra.sort` — ordering and top-N
* :mod:`repro.kernel.algebra.setops` — concat/pack, slices, append
* :mod:`repro.kernel.algebra.calc` — scalar/vector calculator

The package re-exports every operator *except* the four whose name
collides with its submodule (``group.group``, ``join.join``,
``select.select``, ``sort.sort``).  Those are reached through their
submodule — ``from repro.kernel.algebra import join; join.join(l, r)`` —
so ``from repro.kernel.algebra import group, join, select, sort`` always
yields the submodules, never a shadowing function, and the interpreter
and compiler can import them without :mod:`importlib` workarounds.
"""

from repro.kernel.algebra import (
    aggregate,
    calc,
    group,
    join,
    project,
    select,
    setops,
    sort,
)
from repro.kernel.algebra.aggregate import (
    subavg,
    subcount,
    submax,
    submin,
    subsum,
    total_avg,
    total_count,
    total_max,
    total_min,
    total_sum,
)
from repro.kernel.algebra.calc import arith, compare, divide
from repro.kernel.algebra.group import Grouping, distinct, group_values
from repro.kernel.algebra.join import antijoin, semijoin
from repro.kernel.algebra.project import head_oids, materialize, projection
from repro.kernel.algebra.select import mask_select, thetaselect
from repro.kernel.algebra.setops import append, concat, slice_bat
from repro.kernel.algebra.sort import firstn, sort_refine

__all__ = [
    "Grouping",
    "aggregate",
    "antijoin",
    "append",
    "arith",
    "calc",
    "compare",
    "concat",
    "distinct",
    "divide",
    "firstn",
    "group",
    "group_values",
    "head_oids",
    "join",
    "mask_select",
    "materialize",
    "project",
    "projection",
    "select",
    "semijoin",
    "setops",
    "slice_bat",
    "sort",
    "sort_refine",
    "subavg",
    "subcount",
    "submax",
    "submin",
    "subsum",
    "thetaselect",
    "total_avg",
    "total_count",
    "total_max",
    "total_min",
    "total_sum",
]
