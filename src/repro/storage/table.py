"""Per-label two-column edge tables with probe indexes (Sec. V-A).

The vertical-partitioning scheme stores every edge label as its own
``(subj, obj)`` table.  The paper builds a probe index on both columns
before any query arrives; here a table's rows are sorted by (subject,
object), so the subject column is its own index and only the object
side needs one.

A :class:`ColumnarEdgeTable` keeps its rows as two parallel int32 id
columns.  A whole *vector* of probe keys is matched in a handful of
C-level array operations (:meth:`~ColumnarEdgeTable.probe_subject` and
friends): subject probes are binary searches of the sorted subject
column, object probes read a CSR-style group index, and row membership
searches ``subject * stride + object`` keys, which ascend with the rows
(:meth:`~ColumnarEdgeTable.contains_pairs`).  The columns are read-only
views over a snapshot shard's arrays, memory-mapped or built in memory
(:meth:`ColumnarEdgeTable.from_mapped`), including the persisted object
index, so opening a table costs no copy and no sort.  A table never
changes: live ingest replaces a label's table with one over the old and
new rows in sorted order (``VerticalPartitionStore.ingest_rows``), and
the backing file is never written through.

Rows hold **interned entity ids** (dense ints produced by the store's
:class:`~repro.storage.vocabulary.MappedVocabulary`), so every probe, membership
test and injectivity check compares machine ints instead of entity
strings.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np


def searchsorted_within(
    keys: "np.ndarray", needles: "np.ndarray", side: str = "left"
) -> "np.ndarray":
    """``np.searchsorted(keys, needles, side)`` for non-negative integer
    ``needles`` of any width, without widening ``keys``.

    numpy searches in the two arrays' common type, so an int64 needle
    column would copy a whole int32 key column on every call.  A needle
    past the keys' dtype lies past every key: its slot is ``len(keys)``
    on either side.
    """
    dtype = keys.dtype
    if needles.dtype == dtype:
        return np.searchsorted(keys, needles, side=side)
    if needles.dtype.itemsize <= dtype.itemsize:
        return np.searchsorted(keys, needles.astype(dtype), side=side)
    limit = np.iinfo(dtype).max
    slots = np.searchsorted(keys, np.minimum(needles, limit).astype(dtype), side=side)
    return np.where(needles > limit, len(keys), slots)


class _SortedGroupIndex:
    """CSR-style group index over the object column.

    ``order`` is a stable permutation sorting the column; equal keys keep
    their row order, so expanding a probe enumerates a key's matches in
    row order.  ``keys`` holds the distinct sorted key values and
    ``bounds[i]:bounds[i+1]`` delimits the rows of ``keys[i]`` inside
    ``order``.
    """

    __slots__ = ("keys", "bounds", "order")

    def __init__(self, column: "np.ndarray") -> None:
        self.order = np.argsort(column, kind="stable")
        sorted_keys = column[self.order]
        self.keys, starts = np.unique(sorted_keys, return_index=True)
        self.bounds = np.append(starts, len(sorted_keys))

    @classmethod
    def from_arrays(
        cls, keys: "np.ndarray", bounds: "np.ndarray", order: "np.ndarray"
    ) -> "_SortedGroupIndex":
        """Adopt prebuilt (possibly memory-mapped, read-only) index arrays.

        The snapshot shards persist the three arrays exactly as this
        class lays them out, so a warm start rebuilds nothing: the index
        is a handle over the mapped buffers.
        """
        index = cls.__new__(cls)
        index.keys = keys
        index.bounds = bounds
        index.order = order
        return index

    def lookup(self, probe: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
        """Per-probe-key ``(counts, starts)`` into :attr:`order`.

        ``keys`` are distinct, so a probe key's rows run from ``bounds``
        at its left search slot to ``bounds`` at its right one: an empty
        span, count 0, for a key absent from the column (its start is
        unused).  Both come back as int64 whatever width the bounds are
        stored at: the join sums, repeats and offsets them, and numpy
        would widen an int32 copy for each of those.
        """
        starts = self.bounds[np.searchsorted(self.keys, probe)].astype(np.int64)
        counts = self.bounds[np.searchsorted(self.keys, probe, side="right")] - starts
        return counts, starts


class ColumnarEdgeTable:
    """All edges of one label as two parallel id columns (struct-of-arrays).

    The rows are distinct and sorted by (subject, object), whichever way
    the table came.  The columns are int32 arrays the table never writes
    (int64 in a snapshot written before shards were narrowed): a snapshot
    shard's mapped views (:meth:`from_mapped`), the arrays a build
    computed in memory, or a table live ingest put together from an old
    table's rows and new ones.  The object index is built with a numpy
    sort on first use, unless the shard persisted it.
    """

    __slots__ = (
        "_label",
        "_subject_np",
        "_object_np",
        "_object_index",
        "_row_keys",
        "_row_stride",
    )

    def __init__(self, label: str, rows: Iterable[tuple[int, int]] = ()) -> None:
        """A table over the distinct ``rows``, sorted by (subject, object)."""
        columns = np.unique(np.array(list(rows), dtype=np.int32).reshape(-1, 2), axis=0)
        self._adopt(label, columns[:, 0].copy(), columns[:, 1].copy())

    def _adopt(
        self,
        label: str,
        subjects: "np.ndarray",
        objects: "np.ndarray",
        object_index: _SortedGroupIndex | None = None,
    ) -> None:
        self._label = label
        self._subject_np = subjects
        self._object_np = objects
        self._object_index = object_index
        self._row_keys = None
        self._row_stride = 0

    @classmethod
    def from_mapped(
        cls,
        label: str,
        subjects: "np.ndarray",
        objects: "np.ndarray",
        object_index: _SortedGroupIndex | None = None,
    ) -> "ColumnarEdgeTable":
        """Open a table over read-only (memory-mapped) id columns.

        ``subjects``/``objects`` — and the optional persisted object
        index — are adopted as-is, zero-copy.  The columns must be
        parallel ``(subj, obj)`` rows, distinct and sorted by (subject,
        object): subject probes and membership tests search them as they
        are, and would return wrong matches over unsorted rows.
        """
        table = cls.__new__(cls)
        table._adopt(label, subjects, objects, object_index)
        return table

    @property
    def label(self) -> str:
        """The edge label this table stores."""
        return self._label

    def __len__(self) -> int:
        return len(self._subject_np)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.rows())

    def __contains__(self, row: tuple[int, int]) -> bool:
        return self.has_row(*row)

    def rows(self) -> list[tuple[int, int]]:
        """All rows as tuples, in row order (tests and diagnostics)."""
        return list(zip(self._subject_np.tolist(), self._object_np.tolist()))

    def has_row(self, subject: int, obj: int) -> bool:
        """Whether the exact ``(subject, obj)`` row exists."""
        return bool(self.contains_pairs(np.array([subject]), np.array([obj]))[0])

    def subjects(self) -> set[int]:
        """Distinct values in the ``subj`` column."""
        return set(np.unique(self._subject_np).tolist())

    def objects(self) -> set[int]:
        """Distinct values in the ``obj`` column."""
        return set(np.unique(self._object_np).tolist())

    # ------------------------------------------------------------------
    # columnar access (the vectorized join engine's surface)
    # ------------------------------------------------------------------
    def subject_ids(self) -> "np.ndarray":
        """The ``subj`` column as an id array, in ascending order."""
        return self._subject_np

    def object_ids(self) -> "np.ndarray":
        """The ``obj`` column as an id array."""
        return self._object_np

    def _object_group_index(self) -> _SortedGroupIndex:
        if self._object_index is None:
            self._object_index = _SortedGroupIndex(self.object_ids())
        return self._object_index

    def build_indexes(self) -> None:
        """Materialize the object index now (the subject column is its own)."""
        if len(self):
            self._object_group_index()

    def probe_subject(self, keys: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
        """Vectorized subject probe: ``(counts, starts)`` per probe key.

        ``counts`` is the number of rows matching each key — enough to size
        a join before paying for it; ``starts`` is the first of each key's
        rows, for :meth:`expand_subject`.
        """
        starts = searchsorted_within(self._subject_np, keys)
        return searchsorted_within(self._subject_np, keys, side="right") - starts, starts

    def probe_object(self, keys: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
        """Vectorized object probe: ``(counts, starts)`` per probe key."""
        if not len(self):  # the group index is only built for non-empty columns
            none = np.zeros(len(keys), dtype=np.int64)
            return none, none
        return self._object_group_index().lookup(keys)

    @staticmethod
    def _expand(
        counts: "np.ndarray",
        starts: "np.ndarray",
        values: "np.ndarray",
        order: "np.ndarray | None" = None,
    ) -> tuple["np.ndarray", "np.ndarray"]:
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        probe_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        # Slot j of the expansion, the i-th match of its probe key, reads
        # position starts[key] + i = j + (starts - first slot)[key].
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        source_rows = np.arange(total, dtype=np.int64) + shift
        if order is not None:
            source_rows = order[source_rows]
        # ``take``: indexing with int32 rows pays a fixed cost to widen them.
        return probe_idx, values.take(source_rows)

    def expand_subject(
        self, counts: "np.ndarray", starts: "np.ndarray"
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """Expand a :meth:`probe_subject` result, or a slice of one.

        Returns ``(probe_idx, objects)``: for every match, the position of
        the probe key that produced it and the matched row's ``obj`` value.
        Matches of one key appear in row order.
        """
        return self._expand(counts, starts, self._object_np)

    def expand_object(
        self, counts: "np.ndarray", starts: "np.ndarray"
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """Expand a :meth:`probe_object` result: ``(probe_idx, subjects)``."""
        if not len(self):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return self._expand(counts, starts, self._subject_np, self._object_group_index().order)

    def contains_pairs(
        self, subjects: "np.ndarray", objects: "np.ndarray"
    ) -> "np.ndarray":
        """Vectorized row membership: a bool per ``(subjects[i], objects[i])``
        (id columns of either width)."""
        if not len(self):
            return np.zeros(len(subjects), dtype=bool)
        if self._row_keys is None:
            # Encode (subj, obj) as subj * stride + obj, in int64: ids are
            # below 2**31, so a key fits, but an int32 product would wrap.
            # Every object is below the stride, so the keys ascend with
            # the sorted rows.
            self._row_stride = int(self._object_np.max()) + 1
            self._row_keys = self._subject_np.astype(np.int64) * self._row_stride + self._object_np
        row_keys = self._row_keys
        # Ids are int32.  Widen them first: in int32 a product past 2**31
        # (subject and stride ~46 k each) wraps, and can land on another
        # pair's key.
        keys = subjects.astype(np.int64) * self._row_stride + objects
        # Objects outside the stride cannot encode an existing pair.
        in_range = (objects >= 0) & (objects < self._row_stride)
        position = searchsorted_within(row_keys, keys)
        safe = np.minimum(position, len(row_keys) - 1)
        return in_range & (row_keys[safe] == keys)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(label={self._label!r}, rows={len(self)})"
