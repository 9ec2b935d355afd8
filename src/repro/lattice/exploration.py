"""Best-first exploration of the query lattice (Algorithms 2 and 3).

The exploration keeps three mutually exclusive sets of lattice nodes —
evaluated, pruned and unevaluated — plus two frontiers:

* the **lower frontier** ``LF``: unevaluated, unpruned candidates that are
  either minimal query trees or have an evaluated child; the next node to
  evaluate (``Q_best``) is the LF node with the highest upper-bound score;
* the **upper frontier** ``UF``: maximal unpruned nodes; the upper bound of
  an LF node is the best structure score among the UF nodes that subsume it
  (Definitions 8–9).  The UF is kept an *antichain*: adding a candidate
  evicts any member it subsumes, so bounds stay as tight as Algorithm 3
  allows.

Evaluating a node reuses the materialized answers of one of its already
evaluated children as the probe relation of a single hash join (Sec. V-A/B).
When a node turns out to have no answers (a *null node*) it and all its
ancestors are pruned (Property 3), the UF is recomputed by the equivalent of
Algorithm 3, and upper bounds of dirty LF nodes are refreshed.

The exploration runs in two stages (Sec. V-B): stage one ranks answer
tuples by the structure score only and stops once the current k'-th best
answer beats every remaining upper bound (Theorem 4); stage two re-ranks the
top-k' answers with the full scoring function (structure + content, Eq. 5)
and returns the top-k.

Performance notes (the hot path of the Fig. 14/16 experiments):

* join relations carry **interned int entity ids** (see
  :mod:`repro.storage.vocabulary`), and so does the ranking: score ties
  break on the vocabulary's string-order keys
  (:meth:`~repro.storage.vocabulary.MappedVocabulary.order_keys`), so
  :meth:`AnswerAccumulator.ranked` decodes only the top-k answers it
  returns;
* the per-answer scores live in arrays sorted by an answer key
  (:class:`AnswerAccumulator`): a lattice node's relation is folded in
  as one matrix with whole-array operations — its rows never become
  Python tuples, and no Python loop runs over its answers.  The fold is
  a fixed few dozen numpy calls whatever the relation's size or width,
  which is what a node of a handful of rows pays for; Python touches
  only the node's distinct self-match signatures, each summed from
  per-edge credit tables built once per accumulator;
* a node's trivial self-match, and the rows of an excluded query tuple,
  are dropped inside that fold by their signature bits instead of being
  filtered out of every column first;
* ``Q_best`` selection uses a lazy-deletion max-heap instead of scanning
  every LF node per iteration;
* the stage-one k'-threshold is read off the score table with one
  partition, and only after a node lifted some answer above the current
  threshold: scores only rise, so no other node can move it;
* structure scores are memoized per mask in the
  :class:`~repro.lattice.query_graph.LatticeSpace`;
* the relations a node keeps in ``_evaluated`` (the probe relations of
  its parents) set a query's peak memory, so they hold int32 ids: on
  perfbench's ``single_r15`` one query keeps 576 of them, 2.11 M rows
  for 582 answers, 62.5 MB (125.0 MB as int64).

A node relation is *not* projected onto the columns its answers and its
parents' join keys read, nor deduplicated on them: that would change
answers.  Definition 3's injective filter compares every value a later
extension binds against every column of the probe row, so a dropped
column would let a parent bind the entity it held.  And the ``max_rows``
verdict counts matches, not projections, so a deduplicated relation
would overflow on fewer nodes.  Halving the width of an id is the
memory win that keeps every row.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import LatticeError
from repro.storage.batch import OVERFLOW
from repro.lattice.minimal_trees import minimal_query_trees
from repro.lattice.query_graph import LatticeSpace
from repro.lattice.scoring import match_credit
from repro.storage.join import (
    _SCALAR_TAIL_ROWS,
    ColumnarRelation,
    _columns_from_rows,
    evaluate_query_edges,
    extend_with_edge,
)
from repro.storage.store import VerticalPartitionStore
from repro.storage.vocabulary import EntityId

#: Default stage-one oversampling: the paper reports best accuracy with
#: k' ≈ 100 for k between 10 and 25.
DEFAULT_K_PRIME = 100


@dataclass(frozen=True)
class RankedAnswer:
    """One answer tuple with its scores and provenance."""

    entities: tuple[str, ...]
    score: float
    structure_score: float
    content_score: float
    query_graph_mask: int

    def __iter__(self):
        return iter(self.entities)


@dataclass
class ExplorationStatistics:
    """Counters describing one lattice exploration run."""

    nodes_evaluated: int = 0
    null_nodes: int = 0
    nodes_skipped: int = 0
    upper_frontier_recomputations: int = 0
    answers_found: int = 0
    terminated_early: bool = False
    node_budget_exhausted: bool = False
    elapsed_seconds: float = 0.0


@dataclass
class ExplorationResult:
    """Top-k answers plus the statistics of the run that produced them."""

    answers: list[RankedAnswer]
    statistics: ExplorationStatistics
    lattice_size_hint: int = 0

    def answer_tuples(self) -> list[tuple[str, ...]]:
        """Just the entity tuples, in rank order."""
        return [answer.entities for answer in self.answers]


def _run_starts(ordered: "np.ndarray") -> "np.ndarray":
    """Start offsets of the runs of equal values in a sorted, non-empty array."""
    first = np.empty(len(ordered), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first.nonzero()[0]


#: Rows of :attr:`AnswerAccumulator._table`, and the column a new answer
#: enters with: below every score, recorded by no query graph yet.
_STRUCTURE, _FULL, _CONTENT, _RECORDED = range(4)
_UNSEEN = np.array([[-np.inf], [-np.inf], [0.0], [-1.0]])

#: Column ``i`` bound to its own query node sets bit ``i`` of a row's
#: signature.  A connected query graph of at most 62 edges (the cap on
#: ``GQBEConfig.mqg_size``) has at most 63 nodes, one weight each.
_BIT_WEIGHTS = 1 << np.arange(63)


class AnswerAccumulator:
    """The per-answer score table of Eq. 1/5, shared by the explorers.

    One entry per distinct answer tuple seen so far: a sorted array of
    *answer keys* and, aligned with it, one ``(4, n)`` float table holding
    the best structure score over the query graphs that produced the
    answer, the best full score (Eq. 5), and the content score and query
    graph behind that best full score (the graph as an ordinal into the
    list of recorded masks, which are unbounded ints; ordinals are exact
    in a float64).  The key, an int64 widened from the relations' int32
    ids, is the interned entity id for single-entity query tuples and a
    mixed-radix number over ``len(vocabulary)`` otherwise; where the radix
    would not fit an int64, the same code runs on an object-dtype array
    of id tuples.  Keys are decoded to entity strings only in
    :meth:`ranked`, and only for the answers it returns.

    Excluded tuples are interned once up front (a tuple containing an
    entity unknown to the data graph can never be produced, so it is
    dropped) and sit in the table from the start with infinite scores and
    ordinal -1: no query graph ever improves on them, so :meth:`record`
    has no step for them, and the readers skip them.
    """

    def __init__(
        self,
        space: LatticeSpace,
        store: VerticalPartitionStore,
        excluded_tuples: Iterable[tuple[str, ...]],
    ) -> None:
        self.space = space
        self.vocabulary = vocabulary = store.vocabulary
        self._arity = arity = len(space.query_tuple)
        #: Base of the mixed-radix answer key; ``None`` selects id tuples.
        self._radix: int | None = None
        if len(vocabulary) ** arity < 2**63:
            self._radix = len(vocabulary)
        id_of = vocabulary.id_of
        excluded = sorted(
            {
                ids
                for ids in (tuple(map(id_of, entities)) for entities in excluded_tuples)
                if len(ids) == arity and None not in ids
            }
        )
        #: Whether the query tuple itself is excluded (it usually is).
        self._query_excluded = tuple(map(id_of, space.query_tuple)) in excluded
        # Sorted id tuples give sorted keys: the radix key is monotone in them.
        self._keys = self._answer_keys(_columns_from_rows(excluded, arity))
        self._num_excluded = len(self._keys)
        self._table = np.full((4, self._num_excluded), np.inf)
        self._table[_RECORDED] = -1
        self._masks: list[int] = []
        #: Variable names are always MQG nodes; resolving them against this
        #: small mapping keeps identity rows off the full vocabulary.  Ids
        #: are non-negative, so -1 equals none of them.
        self._node_ids: dict[str, EntityId] = {
            node: -1 if (own := id_of(node)) is None else own
            for node in space.mqg.graph.nodes
        }
        #: Per MQG edge, in bit order: its endpoints and the Eq. 6 credit
        #: for a subject-only, object-only and two-sided self-match.
        self._edge_credits = tuple(
            (
                edge.subject,
                edge.object,
                match_credit(space, edge, True, False),
                match_credit(space, edge, False, True),
                match_credit(space, edge, True, True),
            )
            for edge in space.edge_list
        )

    def __len__(self) -> int:
        return len(self._keys) - self._num_excluded

    def structure_scores(self) -> "np.ndarray":
        """Every answer's best structure score so far (a copy, unordered)."""
        return self._table[_STRUCTURE][self._table[_RECORDED] >= 0]

    def structure_threshold(self, k_prime: int) -> float | None:
        """The k'-th largest structure score (``None`` while fewer answers).

        Excluded tuples hold infinite scores and sort above every answer,
        so one partition of the whole row finds it.
        """
        at = len(self) - k_prime
        if at < 0:
            return None
        return float(np.partition(self._table[_STRUCTURE], at)[at])

    def identity_row(self, variables: tuple[str, ...]) -> list[EntityId]:
        """Each variable's own entity id (-1 if it is not a data entity).

        Definition 3 of the paper excludes the trivial answer graph that
        maps every query-graph node to itself: the row of a match relation
        that equals this one.  Rows are unique, so it occurs at most once
        (and a row never holds a -1).
        """
        return list(map(self._node_ids.__getitem__, variables))

    def is_null(self, relation: ColumnarRelation) -> bool:
        """Whether ``relation`` holds no match besides the trivial one."""
        if relation.num_rows > 1:
            return False
        rows = relation.to_rows()
        return not rows or list(rows[0]) == self.identity_row(relation.variables)

    def _answer_keys(self, columns: "Sequence[np.ndarray]") -> "np.ndarray":
        """One sortable key per row of the query-entity ``columns``."""
        radix = self._radix
        if radix is None:
            return np.fromiter(
                zip(*(column.tolist() for column in columns)),
                dtype=object,
                count=len(columns[0]),
            )
        # Relation columns are int32; the key is built in int64 whatever
        # the arity, so ``keys * radix`` cannot wrap.
        keys = columns[0].astype(np.int64)
        for column in columns[1:]:
            keys = keys * radix + column
        return keys

    def record(self, mask: int, relation: ColumnarRelation) -> int:
        """Fold the match relation of query graph ``mask`` into the table.

        Every row but the trivial one (:meth:`identity_row`) contributes
        ``(structure, content)`` to the answer it projects to.  The
        structure score is the query graph's; the content score depends
        only on the row's *signature* — which columns are bound to their
        own query node — so it is computed once per distinct signature
        (:meth:`_content_scores`).  Rows are reduced to one best content
        score per distinct answer with one sort, and the distinct answers
        are merged into the table with one binary search.

        ``content_score`` does not depend on row order: ``structure +
        content`` grows with ``content``, so the best content also gives
        the best full score, and rows that tie on the full score — a small
        credit absorbed next to a large structure score — resolve to the
        larger content whatever order they come in.  An answer already
        holding an equal or better full score keeps it, content and query
        graph included.

        Returns how many answers' best structure score strictly rose (the
        best-first explorer re-reads its stage-one threshold only then).

        The relation is read as one ``(columns, rows)`` matrix, so the
        number of numpy calls does not grow with its width: most lattice
        nodes of a small graph hold a handful of rows, and there the calls
        are the whole cost.
        """
        space = self.space
        variables = relation.variables
        try:
            entity_columns = [relation.column(entity) for entity in space.query_tuple]
        except KeyError:
            # A valid query graph always covers the query entities; missing
            # columns mean the relation is degenerate (empty schema).
            return 0
        matrix = relation.columns
        if not matrix.shape[1]:
            return 0
        # The matrix's own dtype: comparing against an int64 row would
        # upcast the whole int32 ``(width, rows)`` matrix first.
        identity = np.array(self.identity_row(variables), dtype=matrix.dtype)
        keys = self._answer_keys([matrix[i] for i in entity_columns])
        signature = _BIT_WEIGHTS[: len(variables)] @ (matrix == identity[:, None])
        # A row that binds every query entity to itself projects to the
        # query tuple.  Most self-matching rows do, and the query tuple is
        # usually excluded: they go before anything is scored.  Otherwise
        # only the trivial row goes, the one with every bit set.
        dead = (1 << len(variables)) - 1
        if self._query_excluded:
            dead = sum({1 << column for column in entity_columns})
        keep = (signature & dead) != dead
        keys, signature = keys[keep], signature[keep]
        if not len(keys):
            return 0

        content = np.zeros(len(keys))
        matched = signature.nonzero()[0]
        if len(matched):
            bits = signature[matched]
            distinct = sorted(set(bits.tolist()))
            content[matched] = self._content_scores(mask, relation._index, distinct)[
                np.array(distinct).searchsorted(bits)
            ]

        # Group the rows by answer; the maximum does not need a stable sort.
        order = keys.argsort()
        keys = keys[order]
        starts = _run_starts(keys)
        answers = keys[starts]
        content = np.maximum.reduceat(content[order], starts)

        structure = space.weight_of_mask(mask)
        full = structure + content
        recorded = len(self._masks)
        self._masks.append(mask)
        slots = self._keys.searchsorted(answers)
        if len(self._keys):
            unseen = (self._keys.take(slots, mode="clip") != answers).nonzero()[0]
        else:
            unseen = np.arange(len(answers))
        if len(unseen):
            # New answers enter below every score and rise with the rest.
            self._keys = np.insert(self._keys, slots[unseen], answers[unseen])
            self._table = np.insert(self._table, slots[unseen], _UNSEEN, axis=1)
            slots = self._keys.searchsorted(answers)
        table = self._table
        rose = (structure > table[_STRUCTURE][slots]).nonzero()[0]
        if len(rose):
            table[_STRUCTURE, slots[rose]] = structure
        better = (full > table[_FULL][slots]).nonzero()[0]
        if len(better):
            at = slots[better]
            table[_FULL, at] = full[better]
            table[_CONTENT, at] = content[better]
            table[_RECORDED, at] = recorded
        return len(rose)

    def _content_scores(
        self, mask: int, columns: dict[str, int], signatures: list[int]
    ) -> "np.ndarray":
        """c_score_Q (Eq. 6) of query graph ``mask`` per self-match signature.

        Bit ``columns[node]`` of a signature says ``node`` is bound to
        itself.  Each sum adds the credits of the mask's edges in bit order,
        the additions :func:`~repro.lattice.scoring.content_score` makes,
        so the floats are the same.
        """
        credits = self._edge_credits
        terms = []
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            subject, object_, subject_only, object_only, both = credits[
                low.bit_length() - 1
            ]
            subject_bit, object_bit = 1 << columns[subject], 1 << columns[object_]
            terms.append((subject_bit, object_bit, subject_only, object_only, both))
        scores = []
        for own in signatures:
            total = 0.0
            for subject_bit, object_bit, subject_only, object_only, both in terms:
                if own & subject_bit:
                    total += both if own & object_bit else subject_only
                elif own & object_bit:
                    total += object_only
            scores.append(total)
        return np.array(scores)

    def _entity_ids(self, keys: "np.ndarray") -> "np.ndarray":
        """The ``(arity, len(keys))`` entity ids the answer ``keys`` encode."""
        radix = self._radix
        if radix is None:
            return np.array(keys.tolist(), dtype=np.int64).reshape(len(keys), self._arity).T
        ids = np.empty((self._arity, len(keys)), dtype=np.int64)
        for column in range(self._arity - 1, -1, -1):
            keys, ids[column] = np.divmod(keys, radix)
        return ids

    def ranked(self, k: int, k_prime: int | None = None) -> list[RankedAnswer]:
        """The top-``k`` answers by full score (stage two of Sec. V-B).

        With ``k_prime`` the candidates are first cut to the top-k' by
        structure score.  Ties break on the entity names, compared through
        the vocabulary's string-order keys: each cut is one lexsort of the
        answers at or above its score, and only the returned answers are
        decoded.
        """
        structure, full, content, recorded = self._table
        rows = (recorded >= 0).nonzero()[0]
        names = None  # per entity column, the string-order key of each row
        for scores, count in ((structure, k_prime), (full, k)):
            if count is None:
                continue
            if len(rows) > count:
                chosen = scores[rows]
                keep = chosen >= np.partition(chosen, -count)[-count]
                rows = rows[keep]
                if names is not None:
                    names = names[:, keep]
            if names is None:
                ids = self._entity_ids(self._keys[rows])
                names = self.vocabulary.order_keys(ids.ravel()).reshape(ids.shape)
            best = np.lexsort((*names[::-1], -scores[rows]))[:count]
            rows, names = rows[best], names[:, best]
        decode_row = self.vocabulary.decode_row
        return [
            RankedAnswer(
                entities=decode_row(entity_ids),
                score=float(full[row]),
                structure_score=float(structure[row]),
                content_score=float(content[row]),
                query_graph_mask=self._masks[int(recorded[row])],
            )
            for row, entity_ids in zip(
                rows.tolist(), self._entity_ids(self._keys[rows]).T.tolist()
            )
        ]


class LatticeNodeEvaluator:
    """Null-node pruning and node materialization shared by the explorers.

    Subclasses provide ``space``, ``store``, ``max_rows``, an
    ``_evaluated`` mask-to-relation dict and a ``_null_masks`` list.  They
    may also set ``arena`` (a batch-scoped
    :class:`~repro.storage.batch.JoinMemoArena`) to share from-scratch
    evaluation work with other explorations of the same batch.
    """

    #: Optional cross-query join memo; ``None`` keeps every evaluation local.
    arena = None

    def _is_pruned(self, mask: int) -> bool:
        """Whether ``mask`` subsumes some null node (Property 3)."""
        for null in self._null_masks:
            if (mask & null) == null:
                return True
        return False

    def _add_null_mask(self, mask: int) -> None:
        """Record a null node, keeping the list minimal.

        A stored null that subsumes the new one prunes a strict subset of
        what the new one prunes, so it is dropped; this keeps the linear
        ``_is_pruned`` scans short.
        """
        self._null_masks = [
            null for null in self._null_masks if (null & mask) != mask
        ]
        self._null_masks.append(mask)

    def _evaluate_mask(self, mask: int) -> ColumnarRelation | None:
        """Materialize the answers of ``mask``, reusing an evaluated child.

        Among the already evaluated children the one with the fewest rows is
        used as the probe relation (smallest intermediate result).  When the
        join blows past ``max_rows`` the node is reported as too expensive
        (``None``) so the caller can skip it without (incorrectly) treating
        it as a null node.
        """
        best_child: tuple[int, int] | None = None  # (rows, edge bit)
        evaluated = self._evaluated
        edge_list = self.space.edge_list
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            child_relation = evaluated.get(mask ^ low)
            if child_relation is None or child_relation.is_empty():
                continue
            edge = edge_list[low.bit_length() - 1]
            index = child_relation._index
            if edge.subject in index or edge.object in index:
                rows = child_relation.num_rows
                if best_child is None or rows < best_child[0]:
                    best_child = (rows, low)
        arena = self.arena
        if best_child is not None:
            # A child extension's outcome (row multiset, overflow) is a
            # pure function of the mask's edge set, so a batch arena may
            # replay another query's extension result here — see
            # ``JoinMemoArena.extended_get`` for the equivalence argument.
            # Only extensions of probe relations past the scalar-tail
            # threshold are memoized: for tiny children the extension is
            # cheaper than the memo-key bookkeeping itself.
            key = None
            if arena is not None and best_child[0] > _SCALAR_TAIL_ROWS:
                edge_ids = self._arena_edge_ids
                ids = []
                remaining = mask
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    ids.append(edge_ids[low.bit_length() - 1])
                key = frozenset(ids)
                cached = arena.extended_get(key)
                if cached is not None:
                    return None if cached is OVERFLOW else cached
            low = best_child[1]
            try:
                relation = extend_with_edge(
                    self.store,
                    evaluated[mask ^ low],
                    edge_list[low.bit_length() - 1],
                    max_rows=self.max_rows,
                )
            except LatticeError:
                if key is not None:
                    arena.extended_put(key, OVERFLOW)
                return None
            if key is not None:
                arena.extended_put(key, relation)
            return relation
        try:
            return evaluate_query_edges(
                self.store,
                self.space.edges_of(mask),
                max_rows=self.max_rows,
                arena=arena,
            )
        except LatticeError:
            return None


class BestFirstExplorer(LatticeNodeEvaluator):
    """Algorithm 2 (with Algorithm 3 pruning bookkeeping) over one lattice."""

    def __init__(
        self,
        space: LatticeSpace,
        store: VerticalPartitionStore,
        k: int = 10,
        k_prime: int | None = None,
        excluded_tuples: Iterable[tuple[str, ...]] = (),
        max_rows: int | None = None,
        node_budget: int | None = None,
        arena=None,
    ) -> None:
        if k < 1:
            raise LatticeError(f"k must be positive, got {k}")
        self.space = space
        self.store = store
        self.k = k
        # Stage one oversamples (k' >= k, Sec. V-B): a smaller k' would
        # cut the answers to fewer than k.
        self.k_prime = max(k_prime, k) if k_prime is not None else max(DEFAULT_K_PRIME, 4 * k)
        self.max_rows = max_rows
        self.node_budget = node_budget
        #: Batch-scoped join memo shared across the explorations of one
        #: :meth:`~repro.core.gqbe.GQBE.query_batch`; ``None`` outside one.
        self.arena = arena
        #: Arena-interned ids of this space's edges (bit order), so the
        #: per-evaluation memo keys hash small ints, not Edge tuples.
        self._arena_edge_ids = (
            arena.intern_edges(space.edge_list) if arena is not None else None
        )

        self._evaluated: dict[int, ColumnarRelation] = {}
        self._null_masks: list[int] = []
        self._upper_frontier: set[int] = {space.full_mask}
        #: mask -> current upper bound; the source of truth for LF
        #: membership.  ``_lf_heap`` mirrors it as a lazy-deletion max-heap
        #: of ``(-bound, popcount, -mask)`` entries; stale entries (bound
        #: changed or mask removed) are skipped on pop.
        self._lower_frontier: dict[int, float] = {}
        self._lf_heap: list[tuple[float, int, int]] = []
        self._answers = AnswerAccumulator(space, store, excluded_tuples)
        #: The k'-th best structure score so far (the stage-one threshold
        #: of Theorem 4), ``None`` while fewer than k' answers are known.
        self._threshold: float | None = None
        self._stats = ExplorationStatistics()

    # ------------------------------------------------------------------
    # upper bounds
    # ------------------------------------------------------------------
    def _upper_bound(self, mask: int) -> float | None:
        """U(Q): best structure score among UF nodes subsuming ``mask``."""
        best: float | None = None
        space = self.space
        cache = space._weight_cache
        for frontier_mask in self._upper_frontier:
            if (frontier_mask & mask) == mask:
                score = cache.get(frontier_mask)
                if score is None:
                    score = space.weight_of_mask(frontier_mask)
                if best is None or score > best:
                    best = score
        return best

    def _add_to_lower_frontier(self, mask: int) -> None:
        if mask in self._evaluated or mask in self._lower_frontier:
            return
        if self._null_masks and self._is_pruned(mask):
            return
        bound = self._upper_bound(mask)
        if bound is None:
            return
        self._lower_frontier[mask] = bound
        heapq.heappush(self._lf_heap, (-bound, mask.bit_count(), -mask))

    def _pop_best_mask(self) -> int | None:
        """Pop the LF node with the highest upper bound (lazy deletion).

        Ties prefer the smaller query graph — it is cheaper to join and,
        if null, prunes more — then the larger mask, matching the ordering
        of the pre-heap ``max()`` scan.
        """
        frontier = self._lower_frontier
        heap = self._lf_heap
        while heap:
            negative_bound, _, negative_mask = heapq.heappop(heap)
            mask = -negative_mask
            bound = frontier.get(mask)
            if bound is None or bound != -negative_bound:
                continue  # stale entry: removed or re-bounded since pushed
            del frontier[mask]
            return mask
        return None

    def _peek_best_bound(self) -> float | None:
        """Highest current LF upper bound without removing the node."""
        frontier = self._lower_frontier
        heap = self._lf_heap
        while heap:
            negative_bound, _, negative_mask = heap[0]
            bound = frontier.get(-negative_mask)
            if bound is None or bound != -negative_bound:
                heapq.heappop(heap)
                continue
            return bound
        return None

    def _recompute_upper_frontier(self, null_mask: int) -> None:
        """Algorithm 3: rebuild the UF after pruning ``null_mask``'s ancestors."""
        self._stats.upper_frontier_recomputations += 1
        pruned_frontier = [
            frontier_mask
            for frontier_mask in self._upper_frontier
            if (frontier_mask & null_mask) == null_mask
        ]
        for frontier_mask in pruned_frontier:
            self._upper_frontier.discard(frontier_mask)

        candidates: set[int] = set()
        null_bits = [1 << i for i in range(self.space.num_edges) if null_mask & (1 << i)]
        for frontier_mask in pruned_frontier:
            for bit in null_bits:
                candidate = frontier_mask & ~bit
                if candidate == 0:
                    continue
                component = self.space.connected_component_mask(candidate)
                if component == 0 or self._is_pruned(component):
                    continue
                candidates.add(component)

        for candidate in sorted(candidates, key=lambda m: -m.bit_count()):
            subsumed = any(
                (other | candidate) == other and other != candidate
                for other in self._upper_frontier
            )
            if subsumed:
                continue
            # Keep the UF an antichain: a retained non-maximal member would
            # never win a bound (the candidate subsuming it scores higher)
            # but would be scanned by every _upper_bound call.
            dominated = [
                other
                for other in self._upper_frontier
                if other != candidate and (candidate | other) == candidate
            ]
            for other in dominated:
                self._upper_frontier.discard(other)
            self._upper_frontier.add(candidate)

        # Refresh the dirty lower-frontier upper bounds.  A bound can only
        # have changed for masks subsumed by a *removed* UF member (the
        # surviving members and the new candidates are subsets of those),
        # and the only newly pruned LF masks are the ones subsuming this
        # null node — everything else keeps its bound.
        for mask in list(self._lower_frontier):
            if (mask & null_mask) == null_mask:
                del self._lower_frontier[mask]
                continue
            if not any(
                (frontier_mask & mask) == mask for frontier_mask in pruned_frontier
            ):
                continue
            bound = self._upper_bound(mask)
            if bound is None:
                del self._lower_frontier[mask]
            elif bound != self._lower_frontier[mask]:
                self._lower_frontier[mask] = bound
                heapq.heappush(self._lf_heap, (-bound, mask.bit_count(), -mask))

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def _stage_one_threshold(self) -> float | None:
        """Structure score of the current k'-th best answer (None if too few)."""
        return self._threshold

    def _should_terminate(self) -> bool:
        if not self._lower_frontier:
            return True
        threshold = self._stage_one_threshold()
        if threshold is None:
            return False
        best_remaining = self._peek_best_bound()
        if best_remaining is None:
            return True
        # Theorem 4 uses a strict inequality; we also stop on equality,
        # which preserves the top-k guarantee up to ties (an unevaluated
        # node whose upper bound equals the k'-th score can at best tie it,
        # never beat it).  This matters on graphs where the full MQG itself
        # has k' exact matches and the strict bound would force an
        # exhaustive sweep.
        return threshold >= best_remaining

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> ExplorationResult:
        """Execute the best-first exploration and return the top-k answers."""
        start = time.perf_counter()
        leaves = self.space.minimal_trees_cache
        if leaves is None:
            leaves = minimal_query_trees(self.space)
            self.space.minimal_trees_cache = leaves
        if not leaves:
            raise LatticeError("the query lattice has no minimal query trees")
        for leaf in leaves:
            self._add_to_lower_frontier(leaf)

        # The main loop runs once per evaluated lattice node; everything it
        # touches repeatedly is bound to a local first.
        stats = self._stats
        frontier = self._lower_frontier
        evaluated = self._evaluated
        node_budget = self.node_budget
        null_masks = self._null_masks
        pop_best = self._pop_best_mask
        is_pruned = self._is_pruned
        evaluate = self._evaluate_mask
        is_null = self._answers.is_null
        record = self._answers.record
        threshold_of = self._answers.structure_threshold
        k_prime = self.k_prime
        structure_of = self.space.weight_of_mask
        parents_of = self.space.parents_of
        add_to_frontier = self._add_to_lower_frontier
        should_terminate = self._should_terminate
        nodes_evaluated = 0

        while frontier:
            if node_budget is not None and nodes_evaluated >= node_budget:
                stats.node_budget_exhausted = True
                break
            best_mask = pop_best()
            if best_mask is None:
                break
            if null_masks and is_pruned(best_mask):
                continue

            relation = evaluate(best_mask)
            nodes_evaluated += 1
            if relation is None:
                # Too expensive to materialize under the row cap; skip it
                # without pruning (it may still have answers).
                stats.nodes_skipped += 1
                continue

            # The trivial self-match does not count as an answer graph
            # (Definition 3), so a node whose only match is the identity
            # mapping is a null node.  The unfiltered relation is kept for
            # extending parents (Property 1 works on all matches).
            if is_null(relation):
                stats.null_nodes += 1
                self._add_null_mask(best_mask)
                self._recompute_upper_frontier(best_mask)
                null_masks = self._null_masks  # _add_null_mask rebinds it
            else:
                evaluated[best_mask] = relation
                # Scores only rise, so the k'-th best moves only when this
                # node lifted some answer, and only if it scores above it.
                threshold = self._threshold
                if record(best_mask, relation) and (
                    threshold is None or structure_of(best_mask) > threshold
                ):
                    self._threshold = threshold_of(k_prime)
                for parent in parents_of(best_mask):
                    add_to_frontier(parent)

            if should_terminate():
                stats.terminated_early = bool(frontier)
                break

        stats.nodes_evaluated = nodes_evaluated
        self._stats.answers_found = len(self._answers)
        self._stats.elapsed_seconds = time.perf_counter() - start
        return ExplorationResult(
            answers=self._answers.ranked(self.k, self.k_prime),
            statistics=self._stats,
            lattice_size_hint=2 ** self.space.num_edges,
        )
