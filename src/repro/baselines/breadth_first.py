"""The paper's *Baseline*: breadth-first lattice evaluation (Sec. VI).

Like GQBE's best-first algorithm, the baseline explores the query lattice
bottom-up starting from the minimal query trees and prunes the ancestors of
null nodes (Property 3).  Unlike GQBE it:

* evaluates lattice nodes in breadth-first order (by number of edges)
  instead of by upper-bound score, and
* has no top-k early termination — it stops only when every lattice node is
  either evaluated or pruned.

The number of lattice nodes it evaluates is the quantity compared against
GQBE in Fig. 15 of the paper.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable

from repro.exceptions import LatticeError
from repro.lattice.exploration import (
    AnswerAccumulator,
    ExplorationResult,
    LatticeNodeEvaluator,
)
from repro.lattice.minimal_trees import minimal_query_trees
from repro.lattice.query_graph import LatticeSpace
from repro.storage.store import VerticalPartitionStore


class BreadthFirstExplorer(LatticeNodeEvaluator):
    """Exhaustive breadth-first lattice evaluation with null-ancestor pruning."""

    def __init__(
        self,
        space: LatticeSpace,
        store: VerticalPartitionStore,
        k: int = 10,
        excluded_tuples: Iterable[tuple[str, ...]] = (),
        max_rows: int | None = None,
        node_budget: int | None = None,
    ) -> None:
        if k < 1:
            raise LatticeError(f"k must be positive, got {k}")
        super().__init__()
        self.space = space
        self.store = store
        self.k = k
        self.max_rows = max_rows
        self.node_budget = node_budget
        self._answers = AnswerAccumulator(space, store, excluded_tuples)

    def run(self) -> ExplorationResult:
        """Evaluate every unpruned lattice node, breadth-first, and rank answers."""
        start = time.perf_counter()
        leaves = self.space.minimal_trees_cache
        if leaves is None:
            leaves = minimal_query_trees(self.space)
            self.space.minimal_trees_cache = leaves
        if not leaves:
            raise LatticeError("the query lattice has no minimal query trees")

        queue: deque[int] = deque(sorted(leaves))
        enqueued: set[int] = set(queue)
        # Queued and not popped yet; a mask is queued at most once.
        waiting: set[int] = set(queue)

        while queue:
            if self.node_budget is not None and self._stats.nodes_evaluated >= self.node_budget:
                self._stats.node_budget_exhausted = True
                break
            mask = queue.popleft()
            waiting.discard(mask)
            if mask in self._evaluated or self._is_pruned(mask):
                self._retire(mask)
                continue
            relation = self._evaluate_mask(mask)
            self._stats.nodes_evaluated += 1
            if relation is None:
                self._mark_skipped(mask)
                self._retire(mask)
                continue
            if self._answers.is_null(relation):
                self._stats.null_nodes += 1
                self._add_null_mask(mask)
                self._retire(mask)
                continue
            # No stage-one threshold and no tie order: neither count
            # ``record`` returns is read here.
            self._answers.record(mask, relation)
            parents = self.space.parents_of(mask)
            for parent in parents:
                if parent not in enqueued and not self._is_pruned(parent):
                    enqueued.add(parent)
                    waiting.add(parent)
                    queue.append(parent)
            # An unqueued parent is pruned, and pruning is permanent.
            self._hold(mask, relation, sum(parent in waiting for parent in parents))
            self._retire(mask)

        self._stats.answers_found = len(self._answers)
        self._stats.elapsed_seconds = time.perf_counter() - start
        return ExplorationResult(
            answers=self._answers.ranked(self.k),
            statistics=self._stats,
            lattice_size_hint=2 ** self.space.num_edges,
        )
