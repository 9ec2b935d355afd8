"""Answer-space modeling and query processing over the query lattice.

This package implements Sections IV and V of the paper:

* :mod:`repro.lattice.query_graph` — the lattice *space*: the MQG's edges in
  a fixed order, query graphs as bitmasks over that order, structure scores.
* :mod:`repro.lattice.minimal_trees` — the lattice's leaf nodes
  (Definition 7), enumerated from the MQG's core component.
* :mod:`repro.lattice.scoring` — the answer-graph scoring function
  (Eq. 1, 5, 6): structure score plus content score.
* :mod:`repro.lattice.exploration` — Algorithm 2 (best-first exploration
  with upper-bound scores) and Algorithm 3 (upper-boundary recomputation
  after pruning), including the two-stage top-k' / top-k ranking.
"""

from repro.lattice.exploration import (
    AnswerAccumulator,
    BestFirstExplorer,
    ExplorationResult,
    RankedAnswer,
)
from repro.lattice.minimal_trees import minimal_query_trees
from repro.lattice.query_graph import LatticeSpace, QueryGraph
from repro.lattice.scoring import (
    content_score,
    match_credit,
    structure_score,
)

__all__ = [
    "LatticeSpace",
    "QueryGraph",
    "minimal_query_trees",
    "structure_score",
    "content_score",
    "match_credit",
    "AnswerAccumulator",
    "BestFirstExplorer",
    "ExplorationResult",
    "RankedAnswer",
]
