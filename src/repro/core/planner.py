"""Query-optimizer strategy selection (paper Section 6.3).

The empirical study ends with guidance for a query analyzer, which this
module encodes as an inspectable decision procedure:

* **sorted** (or declared retroactively bounded, which is k-ordered for
  the corresponding ``k``) → the k-ordered aggregation tree, k = 1 (or
  the declared ``k``), no sort needed;
* **nearly sorted** (small measured k) → the k-ordered tree with the
  measured ``k``;
* **unsorted and large, invertible aggregate** → the columnar event
  sweep, time-sharded across the resident worker pool when one is
  running (a post-paper extension; see :mod:`repro.core.parallel`);
* **unsorted, memory cheaper than the disk I/O a sort would cost** →
  the plain aggregation tree;
* **unsorted, memory tight** → the paper's "simplest strategy": sort,
  then the k-ordered tree with k = 1;
* **very few constant intervals expected** (few unique timestamps) →
  the linked list is adequate and smallest.

The estimators quantify "memory" under the Section 6.2 node model so a
budget in bytes can be compared against the structures directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relation.relation import RelationStatistics

from repro.core.aggregates import Aggregate, CountAggregate
from repro.core.partition import available_workers
from repro.exec.faults import current_fault_plan
from repro.metrics.space import NODE_OVERHEAD_BYTES

__all__ = [
    "PlannerDecision",
    "choose_strategy",
    "choose_strategy_cost_based",
    "estimate_tree_bytes",
    "estimate_list_bytes",
    "estimate_ktree_bytes",
]

#: Relations whose unique-timestamp count is below this fraction of the
#: tuple count are "few constant intervals" cases where the linked list
#: is adequate (Section 6.3's single-year / coarse-granularity example).
FEW_INTERVALS_FRACTION = 0.01

#: Measured k above this fraction of n no longer counts as "nearly
#: sorted" — the window would retain most of the relation anyway.
NEARLY_SORTED_FRACTION = 0.05

#: Unsorted relations at least this large are worth the columnar /
#: sharded sweep; below it the per-node evaluators win on constants.
PARALLEL_MIN_TUPLES = 32_768

#: Repeatedly queried relations at least this large are worth routing
#: through the shard-result cache: below it even a full sweep is cheap
#: enough that caching only adds bookkeeping.
CACHE_MIN_TUPLES = 4_096

#: Modeled bytes per sweep event (one flat int column entry); the
#: sweep's working set is its two event columns, not tree nodes.
EVENT_BYTES = 8


@dataclass(frozen=True)
class PlannerDecision:
    """The chosen evaluation plan plus the reasoning behind it."""

    strategy: str  # evaluator registry name
    k: Optional[int] = None  # window parameter for the k-ordered tree
    sort_first: bool = False  # sort the relation before evaluating
    reason: str = ""
    estimated_bytes: int = 0
    shards: Optional[int] = None  # fan-out for the parallel sweep

    def describe(self) -> str:
        plan = self.strategy
        if self.k is not None:
            plan += f"(k={self.k})"
        if self.shards is not None:
            plan += f"(shards={self.shards})"
        if self.sort_first:
            plan = "sort + " + plan
        return f"{plan} — {self.reason}"


def _node_bytes(aggregate: Optional[Aggregate]) -> int:
    state = aggregate.state_bytes if aggregate is not None else CountAggregate.state_bytes
    return NODE_OVERHEAD_BYTES + state


def _budget_inflation() -> float:
    """Byte-inflation factor from the fault-injection hook (1.0 normally).

    The planner consults the active :class:`~repro.exec.faults.FaultPlan`
    so tests can deterministically force budget-constrained plans (and
    runtime degradation) on small relations.
    """
    plan = current_fault_plan()
    return plan.inflate_bytes if plan is not None else 1.0


def estimate_tree_bytes(
    unique_timestamps: int, aggregate: Optional[Aggregate] = None
) -> int:
    """Worst-case aggregation-tree size: each unique timestamp adds two
    nodes (Section 7), plus the initial root."""
    return (2 * unique_timestamps + 1) * _node_bytes(aggregate)


def estimate_list_bytes(
    unique_timestamps: int, aggregate: Optional[Aggregate] = None
) -> int:
    """Linked-list size: each unique timestamp adds at most one cell
    (Section 7), plus the initial cell."""
    return (unique_timestamps + 1) * _node_bytes(aggregate)


def estimate_ktree_bytes(
    k: int,
    long_lived_fraction: float,
    tuple_count: int,
    aggregate: Optional[Aggregate] = None,
) -> int:
    """Rough k-ordered-tree peak: nodes for the ``2k+1`` window plus
    the end-time nodes long-lived tuples leave uncollected (Section 6.2
    attributes the k-tree's memory blow-up to exactly those)."""
    window_nodes = 2 * (2 * k + 1) + 1
    long_lived_nodes = int(2 * long_lived_fraction * tuple_count)
    return (window_nodes + long_lived_nodes) * _node_bytes(aggregate)


def choose_strategy(
    statistics: "RelationStatistics",
    *,
    aggregate: Optional[Aggregate] = None,
    memory_budget_bytes: Optional[int] = None,
    memory_cheaper_than_io: bool = True,
    declared_k: Optional[int] = None,
    repeat_observed: bool = False,
) -> PlannerDecision:
    """Pick an evaluation plan from relation statistics.

    ``statistics`` is a
    :class:`~repro.relation.relation.RelationStatistics`;
    ``declared_k`` models the DBA declaring the relation retroactively
    bounded (Section 6.3), which licenses the k-ordered tree without
    measuring anything.  ``repeat_observed`` marks a query signature the
    engine has seen before (same relation, aggregate and attribute) — a
    repeated workload, which licenses the shard-result cache
    (:mod:`repro.cache`, a post-paper extension) on large relations.
    """
    n = statistics.tuple_count
    unique = statistics.unique_timestamps
    tree_bytes = estimate_tree_bytes(unique, aggregate)
    list_bytes = estimate_list_bytes(unique, aggregate)

    if declared_k is not None:
        k = max(1, declared_k)
        return PlannerDecision(
            strategy="kordered_tree",
            k=k,
            reason="relation declared retroactively bounded; the k-ordered "
            "tree applies directly with no sort",
            estimated_bytes=estimate_ktree_bytes(
                k, statistics.long_lived_fraction, n, aggregate
            ),
        )

    if repeat_observed and n >= CACHE_MIN_TUPLES:
        return PlannerDecision(
            strategy="cached_sweep",
            shards=available_workers(),
            reason="repeated query signature over a large relation: the "
            "shard-result cache serves unchanged relations from stitched "
            "rows and appends by re-sweeping only dirty shards",
            estimated_bytes=2 * n * EVENT_BYTES,
        )

    if n and unique <= max(2, FEW_INTERVALS_FRACTION * n):
        return PlannerDecision(
            strategy="linked_list",
            reason="very few constant intervals expected (few unique "
            "timestamps); the linked list is adequate and smallest",
            estimated_bytes=list_bytes,
        )

    if statistics.is_totally_ordered:
        return PlannerDecision(
            strategy="kordered_tree",
            k=1,
            reason="relation already sorted; k-ordered tree with k=1 is "
            "fastest with minimal memory",
            estimated_bytes=estimate_ktree_bytes(
                1, statistics.long_lived_fraction, n, aggregate
            ),
        )

    if n and statistics.k <= max(1, NEARLY_SORTED_FRACTION * n):
        k = max(1, statistics.k)
        return PlannerDecision(
            strategy="kordered_tree",
            k=k,
            reason=f"relation is {k}-ordered (nearly sorted); garbage "
            "collection keeps the tree small",
            estimated_bytes=estimate_ktree_bytes(
                k, statistics.long_lived_fraction, n, aggregate
            ),
        )

    # Unsorted and genuinely large: the columnar event sweep beats the
    # per-node structures on constants, and its time-domain shards
    # spread across the resident pool's workers when a pool is running
    # and the input clears the pool's threshold — the same conditions
    # under which repro.exec.pool.sweep_shards sends shards out (shards
    # run in-process are slower than one columnar sweep).  Needs an
    # invertible aggregate (MIN/MAX would drag a lazy heap through
    # every shard; the tree strategies handle them as well per event).
    invertible = aggregate.invertible if aggregate is not None else True
    inflation = _budget_inflation()
    event_bytes = 2 * n * EVENT_BYTES
    sweep_fits = (
        memory_budget_bytes is None
        or event_bytes * inflation <= memory_budget_bytes
    )
    if n >= PARALLEL_MIN_TUPLES and invertible and sweep_fits:
        from repro.exec.pool import pool_min_tuples, running_workers

        workers = running_workers()
        if workers > 1 and n >= pool_min_tuples():
            return PlannerDecision(
                strategy="parallel_sweep",
                shards=workers,
                reason=f"large unordered input and a running {workers}-"
                "worker pool: time-domain shards over the columnar sweep",
                estimated_bytes=event_bytes,
            )
        return PlannerDecision(
            strategy="columnar_sweep",
            reason="large unordered input and no multi-worker pool "
            "running: the columnar event sweep has the smallest constants",
            estimated_bytes=event_bytes,
        )

    within_budget = (
        memory_budget_bytes is None
        or tree_bytes * inflation <= memory_budget_bytes
    )
    if memory_cheaper_than_io and within_budget:
        return PlannerDecision(
            strategy="aggregation_tree",
            reason="unordered input and memory is cheap: the aggregation "
            "tree is fastest",
            estimated_bytes=tree_bytes,
        )

    return PlannerDecision(
        strategy="kordered_tree",
        k=1,
        sort_first=True,
        reason="unordered input under a memory constraint: sort first, "
        "then k-ordered tree with k=1 (the paper's simplest strategy)",
        estimated_bytes=estimate_ktree_bytes(
            1, statistics.long_lived_fraction, n, aggregate
        ),
    )


def choose_strategy_cost_based(
    statistics: "RelationStatistics",
    *,
    aggregate: Optional[Aggregate] = None,
    memory_budget_bytes: Optional[int] = None,
    candidates: "tuple[str, ...]" = ("linked_list", "aggregation_tree", "kordered_tree"),
) -> PlannerDecision:
    """Pick the cheapest plan by the analytic cost model.

    Where :func:`choose_strategy` encodes Section 6.3's *rules*, this
    variant prices the candidate strategies with
    :mod:`repro.core.cost_model` and takes the cheapest whose estimated
    structure fits the memory budget — a conventional cost-based
    optimizer over the same statistics.  Falls back to the rule-based
    sort-then-ktree plan when nothing fits the budget.
    """
    from repro.core.cost_model import estimate_peak_nodes, estimate_work

    node_bytes = _node_bytes(aggregate)
    inflation = _budget_inflation()
    k = max(1, statistics.k)
    priced = []
    for strategy in candidates:
        work = estimate_work(strategy, statistics, k=k)
        structure_bytes = int(
            estimate_peak_nodes(strategy, statistics, k=k) * node_bytes
        )
        if (
            memory_budget_bytes is not None
            and structure_bytes * inflation > memory_budget_bytes
        ):
            continue
        priced.append((work, strategy, structure_bytes))
    if not priced:
        decision = choose_strategy(
            statistics,
            aggregate=aggregate,
            memory_budget_bytes=memory_budget_bytes,
            memory_cheaper_than_io=False,
        )
        return PlannerDecision(
            strategy=decision.strategy,
            k=decision.k,
            sort_first=decision.sort_first,
            reason="no candidate fits the memory budget; " + decision.reason,
            estimated_bytes=decision.estimated_bytes,
        )
    work, strategy, structure_bytes = min(priced)
    return PlannerDecision(
        strategy=strategy,
        k=k if strategy == "kordered_tree" else None,
        reason=f"cost-based: cheapest estimated work ({work:,.0f} ops) "
        f"within the memory budget",
        estimated_bytes=structure_bytes,
    )
