"""Per-label two-column edge tables with probe indexes (Sec. V-A).

The vertical-partitioning scheme stores every edge label as its own
``(subj, obj)`` table.  The paper builds a probe index on both columns
before any query arrives.  Here a table's rows are sorted by (subject,
object), and a stable permutation sorts its objects, so each side's keys
are already in order: the subject column itself, and the objects taken
in that order.  Each side builds one probe index from them on its first
probe (:func:`_probe_index`): the run heads, the distinct keys and where
each one's rows begin (:class:`_RunIndex`), searched once per probe key.
The build checks that the keys do not descend, and that the object order
is a stable permutation of the rows, so a corrupt shard is refused
rather than answered wrongly.  The index lives in the process that
probes, not in the shard: each process builds its own.

A :class:`ColumnarEdgeTable` keeps its rows as two parallel int32 id
columns.  A whole *vector* of probe keys is matched in a handful of
C-level array operations (:meth:`~ColumnarEdgeTable.probe_subject` and
friends), and row membership searches ``subject * stride + object``
keys, which ascend with the rows
(:meth:`~ColumnarEdgeTable.contains_pairs`).  The columns and the object
order are read-only views over a snapshot shard's arrays, memory-mapped
or built in memory (:meth:`ColumnarEdgeTable.from_mapped`), so opening a
table costs no copy and no sort.  A table never changes: live ingest
replaces a label's table with one over the old and new rows in sorted
order (``VerticalPartitionStore.ingest_rows``), whose indexes are built
anew, and the backing file is never written through.

Rows hold **interned entity ids** (dense ints produced by the store's
:class:`~repro.storage.vocabulary.MappedVocabulary`), so every probe, membership
test and injectivity check compares machine ints instead of entity
strings.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.exceptions import SnapshotError


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
        return keys.searchsorted(needles, side=side)
    if needles.dtype.itemsize <= dtype.itemsize:
        return keys.searchsorted(needles.astype(dtype), side=side)
    limit = np.iinfo(dtype).max
    slots = keys.searchsorted(np.minimum(needles, limit).astype(dtype), side=side)
    return np.where(needles > limit, len(keys), slots)


class _RunIndex:
    """Probe index over a non-decreasing key column as its run heads.

    ``keys`` holds the distinct keys and ``bounds[i]:bounds[i+1]``
    delimits the rows of ``keys[i]``: one search per probe key.  It holds
    at most one key and one row position per row of the column, and one
    more position.
    """

    __slots__ = ("keys", "bounds", "ends")

    def __init__(self, keys: "np.ndarray") -> None:
        heads = np.empty(len(keys), dtype=bool)
        heads[0] = True
        np.not_equal(keys[1:], keys[:-1], out=heads[1:])
        starts = heads.nonzero()[0]
        self.keys = keys[starts]
        self.bounds = np.append(starts, len(keys)).astype(_position_dtype(len(keys)))
        self.ends = self.bounds[1:]

    def lookup(self, probe: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
        # A probe past every key searches to slot ``len(keys)``: clipped,
        # it reads the last run, whose key it does not equal.
        slots = searchsorted_within(self.keys, probe)
        starts = self.bounds.take(slots).astype(np.int64)
        counts = self.ends.take(slots, mode="clip") - starts
        counts[self.keys.take(slots, mode="clip") != probe] = 0
        return counts, starts


def _position_dtype(rows: int) -> type:
    """The narrowest dtype holding every row position ``0..rows``."""
    return np.int32 if rows <= np.iinfo(np.int32).max else np.int64


def _probe_index(
    label: str, side: str, keys: "np.ndarray", order: "np.ndarray | None" = None
) -> _RunIndex:
    """The probe index of one table side, whose keys in row order are
    ``keys``, taken through the stable sort ``order`` if there is one.

    ``keys`` must be non-decreasing and ``order`` must ascend within each
    run of equal keys, which is checked here, in one pass over what the
    index reads anyway: a shard whose column is out of order would
    otherwise answer probes with wrong rows, silently.  With the keys in
    order, two entries of ``order`` naming the same row sit in one run,
    so an order that ascends there takes no row twice.
    """
    descends = keys[1:] < keys[:-1]
    if order is not None:
        descends |= (keys[1:] == keys[:-1]) & (order[1:] <= order[:-1])
    if bool(descends.any()):
        raise SnapshotError(
            f"the {side} column of label {label!r} is not sorted; the snapshot "
            "is corrupt — rebuild it with `gqbe build-index`"
        )
    return _RunIndex(keys)


class ColumnarEdgeTable:
    """All edges of one label as two parallel id columns (struct-of-arrays).

    The rows are distinct and sorted by (subject, object), whichever way
    the table came.  The columns are int32 arrays the table never writes
    (int64 in a snapshot written before shards were narrowed): a snapshot
    shard's mapped views (:meth:`from_mapped`), the arrays a
    build computed in memory, or a table live ingest put together from an
    old table's rows and new ones.  The object order is the shard's, or
    a numpy sort on first use; each side's probe index is built from its
    sorted keys on its first probe.
    """

    __slots__ = (
        "_label",
        "_subject_np",
        "_object_np",
        "_object_order",
        "_subject_index",
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
        object_order: "np.ndarray | None" = None,
    ) -> None:
        self._label = label
        self._subject_np = subjects
        self._object_np = objects
        self._object_order = object_order
        self._subject_index = None
        self._object_index = None
        self._row_keys = None
        self._row_stride = 0

    @classmethod
    def from_mapped(
        cls,
        label: str,
        subjects: "np.ndarray",
        objects: "np.ndarray",
        object_order: "np.ndarray | None" = None,
    ) -> "ColumnarEdgeTable":
        """Open a table over read-only (memory-mapped) id columns.

        ``subjects``/``objects`` — and the optional persisted object
        order — are adopted as-is, zero-copy.  The columns must be
        parallel ``(subj, obj)`` rows, distinct and sorted by (subject,
        object): membership tests search them as they are.  A probe index
        refuses a side whose keys are out of order
        (:class:`~repro.exceptions.SnapshotError`).
        """
        table = cls.__new__(cls)
        table._adopt(label, subjects, objects, object_order)
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

    def object_order(self) -> "np.ndarray":
        """A stable permutation sorting the ``obj`` column: equal objects
        keep their row order, so an object probe expands in row order."""
        if self._object_order is None:
            self._object_order = np.argsort(self._object_np, kind="stable")
        return self._object_order

    def _subject_probe_index(self) -> _RunIndex:
        if self._subject_index is None:
            self._subject_index = _probe_index(self._label, "subject", self._subject_np)
        return self._subject_index

    def _object_probe_index(self) -> _RunIndex:
        if self._object_index is None:
            order = self.object_order()
            # ``take`` reads a negative entry from the end, so a past-the-end
            # one raises but a negative one must be looked for.
            try:
                keys = self._object_np.take(order)
            except IndexError:
                keys = None
            if keys is None or (len(order) and int(order.min()) < 0):
                raise SnapshotError(
                    f"the object order of label {self._label!r} points outside its "
                    "rows; the snapshot is corrupt — rebuild it with `gqbe build-index`"
                )
            self._object_index = _probe_index(self._label, "object", keys, order)
        return self._object_index

    def build_indexes(self) -> None:
        """Build both sides' probe indexes now."""
        if len(self):
            self._subject_probe_index()
            self._object_probe_index()

    def probe_subject(self, keys: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
        """Vectorized subject probe: ``(counts, starts)`` per probe key, both
        int64 (the join sums, repeats and offsets them).

        ``counts`` is the number of rows matching each key — enough to size
        a join before paying for it; ``starts`` is the first of each key's
        rows, for :meth:`expand_subject` (unused where the count is 0).
        """
        if not len(self):
            none = np.zeros(len(keys), dtype=np.int64)
            return none, none
        return self._subject_probe_index().lookup(keys)

    def probe_object(self, keys: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
        """Vectorized object probe: ``(counts, starts)`` per probe key, the
        starts into :meth:`object_order`."""
        if not len(self):
            none = np.zeros(len(keys), dtype=np.int64)
            return none, none
        return self._object_probe_index().lookup(keys)

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
        return self._expand(counts, starts, self._subject_np, self.object_order())

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
