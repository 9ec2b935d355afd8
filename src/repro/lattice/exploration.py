"""Best-first exploration of the query lattice (Algorithms 2 and 3).

The exploration keeps three mutually exclusive sets of lattice nodes —
evaluated, pruned and unevaluated — plus two frontiers:

* the **lower frontier** ``LF``: unevaluated, unpruned candidates that are
  either minimal query trees or have an evaluated child; the next node to
  evaluate (``Q_best``) is the LF node with the highest upper-bound score.
  Sec. V names no order among equal bounds, and until a null node turns
  up every bound is ``weight(MQG)``.  Ties here follow the evidence,
  which fills that gap without departing from Alg. 2 (every pop is still
  an LF node of the highest bound): a parent of a kept node with more
  than k' distinct answers is *promising* and goes first, the larger
  first; any other node goes smaller first
  (:meth:`BestFirstExplorer._tie`).  By Property 1 only such a node can
  lead to k' exact matches higher up, so where the MQG itself has more
  than k' answers the climb from the smallest minimal query tree to the
  MQG is one chain.  Smaller-first alone visits the lattice level by
  level, which is the breadth-first Baseline's order;
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
* answers ride the join: each row's self-match signature is carried by
  the join (one gather and one compare per extension, not a compare of
  every cell per node), and a relation evaluated from scratch is sorted
  once by its answer key (:meth:`AnswerAccumulator.sort_rows`), which
  every relation extended from it inherits, so the fold groups rows
  without a sort.  On perfbench's ``single_r15`` this took ``record``
  from 0.71-0.77 to 0.57-0.61 s of a warm pass (2-core Xeon @ 2.1 GHz);
* the rows of an excluded query tuple are one run of sorted keys, cut
  out with two searches; otherwise only the trivial self-match goes, by
  its signature;
* ``Q_best`` selection uses a lazy-deletion max-heap instead of scanning
  every LF node per iteration;
* the stage-one k'-threshold is read off the score table with one
  partition, and only after a node lifted some answer above the current
  threshold: scores only rise, so no other node can move it;
* structure scores are memoized per mask in the
  :class:`~repro.lattice.query_graph.LatticeSpace`;
* the relations a node keeps in ``_evaluated`` (the probe relations of
  its parents) set a query's peak memory, so they hold int32 ids, and a
  node's relation is released once the last of its parents has left the
  lower frontier (:meth:`LatticeNodeEvaluator._retire`): what a query
  holds at once is bounded by the frontier, not by the lattice.  On
  perfbench's ``single_r15`` the heaviest query, F8.2, keeps 576
  relations, 2.11 M rows for 582 answers (62.5 MB; 125.0 MB as int64),
  and holds at most 11 745 of those rows at once, 0.37 MB
  (:attr:`ExplorationStatistics.peak_retained_rows`).  It evaluates the
  same 960 nodes under smaller-first ties alone, but in level order, so
  a level's relations wait for the next level: 714 839 rows (21.7 MB).
  The most any query holds at once is F6.0's 187 990 rows (6.4 MB).

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
from repro.lattice.minimal_trees import minimal_query_trees
from repro.lattice.query_graph import LatticeSpace
from repro.lattice.scoring import match_credit
from repro.storage.join import (
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
    #: The most match-relation rows held at once, counted right after a
    #: node is kept and before the relations it was the last reader of go.
    peak_retained_rows: int = 0
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
    in a float64).  The key is the interned entity id itself, at the
    relations' int32 width, for single-entity query tuples, and otherwise
    an int64 mixed-radix number over ``len(vocabulary)``; where the radix
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
        query_ids = tuple(map(id_of, space.query_tuple))
        #: Whether the query tuple itself is excluded (it usually is).
        self._query_excluded = query_ids in excluded
        #: The query tuple's answer key as a one-entry array, ``None`` when
        #: a query entity is not in the data graph: no row can bind it.
        self._query_key = (
            None if None in query_ids else self._answer_keys(_columns_from_rows([query_ids], arity))
        )
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
        return not relation.num_rows or (
            relation.columns[:, 0].tolist() == self.identity_row(relation.variables)
        )

    def _answer_keys(self, columns: "Sequence[np.ndarray]") -> "np.ndarray":
        """One sortable key per row of the query-entity ``columns``."""
        radix = self._radix
        if radix is None:
            return np.fromiter(
                zip(*(column.tolist() for column in columns)),
                dtype=object,
                count=len(columns[0]),
            )
        if len(columns) == 1:
            return columns[0]
        # Relation columns are int32; a key of several is built in int64,
        # so ``keys * radix`` cannot wrap.
        keys = columns[0].astype(np.int64)
        for column in columns[1:]:
            keys = keys * radix + column
        return keys

    def sort_rows(self, relation: ColumnarRelation) -> ColumnarRelation:
        """``relation`` with its rows in answer-key order.

        The join keeps probe-row order when it expands and row order when
        it filters, and a child's query-entity columns are its parent's:
        every relation extended from a sorted one is sorted too, and
        :meth:`record` folds it without a sort.  Nothing reads the order
        of rows within one answer.
        """
        if relation.num_rows < 2 or not all(map(relation.has_variable, self.space.query_tuple)):
            return relation
        matrix = relation.columns
        order = self._answer_keys(
            [matrix[relation.column(entity)] for entity in self.space.query_tuple]
        ).argsort()
        signature = relation.signature
        return ColumnarRelation(
            relation.variables,
            matrix[:, order],
            index=relation._index,
            signature=None if signature is None else signature[order],
        )

    def record(self, mask: int, relation: ColumnarRelation) -> tuple[int, int]:
        """Fold the match relation of query graph ``mask`` into the table.

        Every row but the trivial one (:meth:`identity_row`) contributes
        ``(structure, content)`` to the answer it projects to.  The
        structure score is the query graph's; the content score depends
        only on the row's *signature* — which columns are bound to their
        own query node — so it is computed once per distinct signature
        (:meth:`_content_scores`).  The signature is the one the join
        carried, or one compare of the matrix where it carried none.
        Rows sorted by answer key (:meth:`sort_rows`) are grouped as they
        come; any other order is sorted first.  The distinct answers are
        merged into the table with one binary search.

        ``content_score`` does not depend on row order: ``structure +
        content`` grows with ``content``, so the best content also gives
        the best full score, and rows that tie on the full score — a small
        credit absorbed next to a large structure score — resolve to the
        larger content whatever order they come in.  An answer already
        holding an equal or better full score keeps it, content and query
        graph included.

        Returns ``(rose, distinct)``: how many answers' best structure
        score strictly rose (the best-first explorer re-reads its
        stage-one threshold only then), and how many distinct tuples the
        rows project to once the dead rows are gone, excluded tuples
        other than the query tuple included (the best-first explorer's
        tie order reads it: by Property 1 a parent's answers are a subset
        of these).

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
            return 0, 0
        matrix = relation.columns
        if not matrix.shape[1]:
            return 0, 0
        keys = self._answer_keys([matrix[i] for i in entity_columns])
        signature = relation.signature
        if signature is None:
            # The matrix's own dtype: comparing against an int64 row would
            # upcast the whole int32 ``(width, rows)`` matrix first.
            identity = np.array(self.identity_row(variables), dtype=matrix.dtype)
            signature = _BIT_WEIGHTS[: len(variables)] @ (matrix == identity[:, None])
        if len(keys) > 1 and (keys[1:] < keys[:-1]).any():
            order = keys.argsort()
            keys, signature = keys[order], signature[order]
        # The rows that project to the query tuple are one run of keys.
        # If the query tuple is excluded they all go before anything is
        # scored; otherwise only the trivial row goes, the one with every
        # bit set.
        query_key = self._query_key
        if query_key is not None:
            low = int(keys.searchsorted(query_key)[0])
            high = int(keys.searchsorted(query_key, side="right")[0])
            if not self._query_excluded:
                # Rows are distinct, so at most one is trivial: the run to
                # cut is that row, or nothing.
                trivial = (signature[low:high] == (1 << len(variables)) - 1).nonzero()[0]
                low = high = low + int(trivial[0]) if len(trivial) else 0
                high += len(trivial)
            if low < high:
                keys = np.concatenate((keys[:low], keys[high:]))
                signature = np.concatenate((signature[:low], signature[high:]))
        if not len(keys):
            return 0, 0

        # One content score per distinct signature, read back per row;
        # a row bound to no query node of its own scores 0.
        content = np.zeros(len(keys))
        matched = signature.nonzero()[0]
        if len(matched):
            bits = signature[matched]
            distinct = sorted(set(bits.tolist()))
            content[matched] = self._content_scores(mask, relation._index, distinct)[
                np.array(distinct).searchsorted(bits)
            ]

        # Group the rows by answer.
        starts = _run_starts(keys)
        answers = keys[starts]
        content = np.maximum.reduceat(content, starts)

        structure = space.weight_of_mask(mask)
        full = structure + content
        recorded = len(self._masks)
        self._masks.append(mask)
        slots = self._keys.searchsorted(answers)
        if len(self._keys):
            unseen = self._keys.take(slots, mode="clip") != answers
        else:
            unseen = np.ones(len(answers), dtype=bool)
        if unseen.any():
            # New answers enter below every score and rise with the rest:
            # one merge of two sorted runs.  By Property 1 an extension
            # node's answers are its child's, so mostly a node evaluated
            # from scratch gets here.
            slots += np.cumsum(unseen) - unseen
            fresh = np.zeros(len(self._keys) + int(unseen.sum()), dtype=bool)
            fresh[slots[unseen]] = True
            keys = np.empty(len(fresh), dtype=self._keys.dtype)
            keys[fresh], keys[~fresh] = answers[unseen], self._keys
            table = np.empty((4, len(fresh)))
            table[:, fresh], table[:, ~fresh] = _UNSEEN, self._table
            self._keys, self._table = keys, table
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
        return len(rose), len(answers)

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
        keys = keys.astype(np.int64, copy=False)
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
    """Null-node pruning, node materialization and relation retention
    shared by the explorers.

    Subclasses call ``__init__`` and provide ``space``, ``store``,
    ``max_rows`` and ``_answers``, the :class:`AnswerAccumulator` whose
    node ids the joins carry signatures with.

    A kept node's relation is read only as the probe relation of its
    parents (Sec. V-B), so it is held just while one of them can still be
    popped: :meth:`_hold` counts the parents waiting to be popped, every
    mask that leaves the frontier for good is passed to :meth:`_retire`,
    which counts it off each of its children, and a child whose count
    reaches zero is released.  A released mask stays in ``_evaluated``
    (as ``None``), so it is never queued again.  No parent is left to
    read it, so every parent joins from the same child as it would with
    every relation held.

    Every mask that reaches :meth:`_evaluate_mask` is marked in
    ``_evaluated`` once it returns: a kept node with its relation, an
    overflow-skipped node with ``None`` (:meth:`_mark_skipped`); a null
    node is pruned instead, which is as permanent.  Neither explorer
    queues a marked or pruned mask, so whatever the order, a mask is
    popped and joined at most once, and the reader counts are exact: a
    mask is queued only while a child of it is being kept.  The
    best-first heap may hold several entries for one mask (a new bound,
    or a new tie key once it turns promising), but a pop takes the mask
    out of the lower frontier, which is what membership means, and any
    later entry for it is skipped; readers are counted by that
    membership, not by heap entries.
    """

    def __init__(self) -> None:
        #: mask -> its match relation while a parent may read it, then None.
        self._evaluated: dict[int, ColumnarRelation | None] = {}
        #: held mask -> how many of its parents are still to be popped.
        self._readers: dict[int, int] = {}
        self._held_rows = 0
        self._null_masks: list[int] = []
        self._stats = ExplorationStatistics()

    def _hold(self, mask: int, relation: ColumnarRelation, readers: int) -> None:
        """Keep ``mask``'s relation for the ``readers`` parents still to pop."""
        self._evaluated[mask] = relation
        self._readers[mask] = readers
        self._held_rows += relation.num_rows
        if self._held_rows > self._stats.peak_retained_rows:
            self._stats.peak_retained_rows = self._held_rows

    def _retire(self, mask: int) -> None:
        """``mask`` leaves the frontier for good: popped (whatever its
        outcome) or dropped unpopped.  Each held child counts one reader
        fewer and is released at zero; so is ``mask`` if it has none.
        """
        readers = self._readers
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            child = mask ^ low
            count = readers.get(child)
            if count is None:
                continue
            if count > 1:
                readers[child] = count - 1
            else:
                self._release(child)
        if readers.get(mask) == 0:
            self._release(mask)

    def _mark_skipped(self, mask: int) -> None:
        """``mask`` overflowed the join cap: never queue or join it again."""
        self._stats.nodes_skipped += 1
        self._evaluated[mask] = None

    def _release(self, mask: int) -> None:
        """Drop a held relation; ``mask`` stays marked as evaluated."""
        del self._readers[mask]
        self._held_rows -= self._evaluated[mask].num_rows
        self._evaluated[mask] = None

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
        node_ids = self._answers._node_ids
        try:
            if best_child is not None:
                low = best_child[1]
                return extend_with_edge(
                    self.store,
                    evaluated[mask ^ low],
                    edge_list[low.bit_length() - 1],
                    max_rows=self.max_rows,
                    node_ids=node_ids,
                )
            relation = evaluate_query_edges(
                self.store, self.space.edges_of(mask), max_rows=self.max_rows, node_ids=node_ids
            )
        except LatticeError:
            return None
        # Sorted once here, the relation and every one extended from it
        # reach ``record`` in answer-key order.
        return self._answers.sort_rows(relation)


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
    ) -> None:
        if k < 1:
            raise LatticeError(f"k must be positive, got {k}")
        super().__init__()
        self.space = space
        self.store = store
        self.k = k
        # Stage one oversamples (k' >= k, Sec. V-B): a smaller k' would
        # cut the answers to fewer than k.
        self.k_prime = max(k_prime, k) if k_prime is not None else max(DEFAULT_K_PRIME, 4 * k)
        self.max_rows = max_rows
        self.node_budget = node_budget

        self._upper_frontier: set[int] = {space.full_mask}
        #: mask -> current upper bound; the source of truth for LF
        #: membership.  ``_lf_heap`` mirrors it as a lazy-deletion max-heap
        #: of ``(-bound, tie, -mask)`` entries (:meth:`_push`); stale
        #: entries (bound changed, or mask removed) are skipped on pop.
        self._lower_frontier: dict[int, float] = {}
        self._lf_heap: list[tuple[float, int, int]] = []
        #: Parents of a kept node with more than k' distinct answers: the
        #: masks that tie larger-first (:meth:`_tie`).
        self._promising: set[int] = set()
        self._answers = AnswerAccumulator(space, store, excluded_tuples)
        #: The k'-th best structure score so far (the stage-one threshold
        #: of Theorem 4), ``None`` while fewer than k' answers are known.
        self._threshold: float | None = None

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
        self._push(mask, bound)

    def _tie(self, mask: int) -> int:
        """The heap key that orders LF nodes of equal upper bound.

        A promising mask (:meth:`_promote`) goes larger-first and ahead of
        every other mask: its child already has more than k' answers, and
        climbing towards the MQG is how k' exact matches are reached.
        Every other mask goes smaller-first: it is cheaper to join and, if
        null, prunes more.
        """
        count = mask.bit_count()
        return -count if mask in self._promising else count

    def _push(self, mask: int, bound: float) -> None:
        heapq.heappush(self._lf_heap, (-bound, self._tie(mask), -mask))

    def _promote(self, parents: Iterable[int]) -> None:
        """Mark ``parents`` promising: their child has more than k' answers.

        By Property 1 a parent's answers are a subset of each child's, so
        only such a child can lead to k' exact matches higher up.  A parent
        already in the LF is pushed again under its new key; that key
        sorts before the old one, so the old entry is reached only after
        the mask has left the LF, and is skipped then.
        """
        promising = self._promising
        frontier = self._lower_frontier
        for parent in parents:
            if parent in promising:
                continue
            promising.add(parent)
            bound = frontier.get(parent)
            if bound is not None:
                self._push(parent, bound)

    def _pop_best_mask(self) -> int | None:
        """Pop the LF node with the highest upper bound (lazy deletion).

        Ties go by :meth:`_tie` (promising masks larger-first, then every
        other mask smaller-first), then to the larger mask: the pop is the
        maximum over the LF of ``(bound, -tie, mask)``.
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
        # A mask dropped here is never queued again (pruning and a missing
        # bound are both permanent), so it is retired unpopped.
        for mask in list(self._lower_frontier):
            if (mask & null_mask) == null_mask:
                del self._lower_frontier[mask]
                self._retire(mask)
                continue
            if not any(
                (frontier_mask & mask) == mask for frontier_mask in pruned_frontier
            ):
                continue
            bound = self._upper_bound(mask)
            if bound is None:
                del self._lower_frontier[mask]
                self._retire(mask)
            elif bound != self._lower_frontier[mask]:
                self._lower_frontier[mask] = bound
                self._push(mask, bound)

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
        promote = self._promote
        hold = self._hold
        retire = self._retire
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
                retire(best_mask)
                continue

            relation = evaluate(best_mask)
            nodes_evaluated += 1
            if relation is None:
                # Too expensive to materialize under the row cap; skip it
                # without pruning (it may still have answers).
                self._mark_skipped(best_mask)
                retire(best_mask)
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
                # Scores only rise, so the k'-th best moves only when this
                # node lifted some answer, and only if it scores above it.
                rose, distinct = record(best_mask, relation)
                threshold = self._threshold
                if rose and (threshold is None or structure_of(best_mask) > threshold):
                    self._threshold = threshold_of(k_prime)
                parents = parents_of(best_mask)
                if distinct > k_prime:
                    promote(parents)
                for parent in parents:
                    add_to_frontier(parent)
                # A parent not in the LF now never will be: it was popped,
                # is pruned or has no upper bound.
                hold(best_mask, relation, sum(parent in frontier for parent in parents))
            retire(best_mask)

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
