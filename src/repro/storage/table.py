"""Per-label two-column edge tables with hash indexes (Sec. V-A).

The vertical-partitioning scheme stores every edge label as its own
``(subj, obj)`` table.  For efficient hash joins, each table carries
per-column lookup indexes, mirroring the paper's description of building
both hash tables before any query arrives.

A :class:`ColumnarEdgeTable` keeps its rows as two parallel int64 id
columns; probes are answered from lazily built, numpy-sorted CSR-style
group indexes so a whole *vector* of probe keys is matched in a handful
of C-level array operations (:meth:`~ColumnarEdgeTable.probe_subject` and
friends), and tiny probes from per-key dict buckets
(:meth:`~ColumnarEdgeTable.subject_buckets`).  It works over either of
two column backings:

* **owned** — mutable ``array('q')`` columns filled by :meth:`add_row`
  (the tables live ingest writes to);
* **mapped** — read-only int64 views over a snapshot shard's arrays,
  memory-mapped or built in memory (:meth:`ColumnarEdgeTable.from_mapped`),
  including the persisted probe indexes, so opening a table costs no
  copy and no sort.  The first
  mutation *promotes* the table copy-on-write: the mapped buffers are
  copied into fresh owned columns, the stale mapped indexes are dropped,
  and the table behaves like any owned table from then on (the backing
  file is never written through).

Rows hold **interned entity ids** (dense ints produced by the store's
:class:`~repro.storage.vocabulary.MappedVocabulary`), so every probe, membership
test and injectivity check compares machine ints instead of entity
strings.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence

import numpy as np


class _SortedGroupIndex:
    """CSR-style group index over one id column.

    ``order`` is a stable permutation sorting the column; equal keys keep
    their insertion order, so expanding a probe enumerates matches in the
    same order as the table's dict buckets.  ``keys`` holds the
    distinct sorted key values and ``bounds[i]:bounds[i+1]`` delimits the
    rows of ``keys[i]`` inside ``order``.
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

        Keys absent from the column get count 0 (their start is unused).
        The index is only built for non-empty columns, so ``keys`` always
        has at least one entry.
        """
        position = np.searchsorted(self.keys, probe)
        safe = np.minimum(position, len(self.keys) - 1)
        found = self.keys[safe] == probe
        starts = self.bounds[safe]
        counts = np.where(found, self.bounds[safe + 1] - starts, 0)
        return counts, starts


def _buckets(keys: Sequence[int], values: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """``key -> values`` in row order.  The values are tuples of ints: the
    cycle collector stops tracking those the first time it sees them, so a
    full collection does not walk one container per distinct key."""
    buckets: dict[int, list[int]] = {}
    for key, value in zip(keys, values):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [value]
        else:
            bucket.append(value)
    return {key: tuple(bucket) for key, bucket in buckets.items()}


class ColumnarEdgeTable:
    """All edges of one label as two parallel id columns (struct-of-arrays).

    A table opened from a shard (:meth:`from_mapped`) holds read-only
    int64 views; the first :meth:`add_row` promotes it copy-on-write to
    owned ``array('q')`` columns (see the module docstring), whose probe
    indexes are then materialized lazily with numpy sorts on first use.
    Any mutation after an index was built invalidates the cached indexes.
    """

    __slots__ = (
        "_label",
        "_subjects",
        "_objects",
        "_row_set",
        "_subject_np",
        "_object_np",
        "_subject_index",
        "_object_index",
        "_subject_buckets",
        "_object_buckets",
        "_pair_keys",
        "_pair_stride",
        "_mapped",
    )

    def __init__(self, label: str, rows: Iterable[tuple[int, int]] = ()) -> None:
        self._label = label
        self._subjects = array("q")
        self._objects = array("q")
        self._row_set: set[tuple[int, int]] = set()
        self._mapped = False
        self._invalidate()
        for subject, obj in rows:
            self.add_row(subject, obj)

    @classmethod
    def from_mapped(
        cls,
        label: str,
        subjects: "np.ndarray",
        objects: "np.ndarray",
        subject_index: _SortedGroupIndex | None = None,
        object_index: _SortedGroupIndex | None = None,
        pair_keys: "np.ndarray | None" = None,
        pair_stride: int = 0,
    ) -> "ColumnarEdgeTable":
        """Open a table over read-only (memory-mapped) int64 columns.

        ``subjects``/``objects`` — and the optional persisted probe
        indexes — are adopted as-is, zero-copy.  The columns must be
        parallel, deduplicated ``(subj, obj)`` rows in insertion order,
        which is exactly what the shard writer persists.
        """
        table = cls.__new__(cls)
        table._label = label
        table._subjects = None
        table._objects = None
        table._row_set = None
        table._subject_np = subjects
        table._object_np = objects
        table._subject_index = subject_index
        table._object_index = object_index
        table._subject_buckets = None
        table._object_buckets = None
        table._pair_keys = pair_keys
        table._pair_stride = pair_stride
        table._mapped = True
        return table

    @property
    def is_mapped(self) -> bool:
        """Whether the columns are read-only mapped buffers (pre-promotion)."""
        return self._mapped

    def _promote_to_owned(self) -> None:
        """Copy-on-write: turn mapped buffers into owned mutable columns.

        The mapped probe indexes describe the pre-mutation columns, so
        they are dropped with the rest of the derived state; the backing
        snapshot file is never written through.  The dedup set is a pure
        function of the (value-identical) columns, so a set the caller
        already built survives promotion.
        """
        subjects = array("q", self._subject_np.tolist())
        objects = array("q", self._object_np.tolist())
        row_set = self._row_set
        self._subjects = subjects
        self._objects = objects
        self._mapped = False
        self._invalidate()
        self._row_set = row_set

    def _invalidate(self) -> None:
        self._subject_np = None
        self._object_np = None
        self._subject_index = None
        self._object_index = None
        self._subject_buckets = None
        self._object_buckets = None
        self._pair_keys = None
        self._pair_stride = 0

    def _dedup_set(self) -> set[tuple[int, int]]:
        if self._row_set is None:
            self._row_set = set(zip(*self._column_values()))
        return self._row_set

    def _column_values(self) -> tuple[Sequence[int], Sequence[int]]:
        """Both columns as plain-``int`` sequences, in insertion order.

        Scalar consumers (dict buckets, dedup sets, row iteration) get
        the same value types whether the table is owned or mapped, so
        downstream hashing and answers stay byte-identical across modes.
        """
        if self._mapped:
            return self._subject_np.tolist(), self._object_np.tolist()
        return self._subjects, self._objects

    @property
    def label(self) -> str:
        """The edge label this table stores."""
        return self._label

    def _has_derived_state(self) -> bool:
        return (
            self._subject_np is not None
            or self._object_np is not None
            or self._subject_index is not None
            or self._object_index is not None
            or self._subject_buckets is not None
            or self._object_buckets is not None
            or self._pair_keys is not None
        )

    def add_row(self, subject: int, obj: int) -> None:
        """Append one ``(subj, obj)`` row (duplicates are ignored).

        On a mapped table the first accepted row triggers copy-on-write
        promotion to owned columns.
        """
        row = (subject, obj)
        dedup = self._dedup_set()
        if row in dedup:
            return
        if self._mapped:
            self._promote_to_owned()  # keeps the dedup set just built
        dedup.add(row)
        self._subjects.append(subject)
        self._objects.append(obj)
        # Every derived structure (numpy columns, sorted indexes, scalar
        # buckets, the pair index) is a snapshot of the columns; drop them
        # all as soon as any of them exists and the columns change.
        if self._has_derived_state():
            self._invalidate()

    def __len__(self) -> int:
        if self._mapped:
            return len(self._subject_np)
        return len(self._subjects)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(*self._column_values())

    def __contains__(self, row: object) -> bool:
        return row in self._dedup_set()

    def rows(self) -> list[tuple[int, int]]:
        """All rows as tuples, in insertion order (tests and diagnostics)."""
        return list(zip(*self._column_values()))

    def has_row(self, subject: int, obj: int) -> bool:
        """Whether the exact ``(subject, obj)`` row exists."""
        return (subject, obj) in self._dedup_set()

    def subjects(self) -> set[int]:
        """Distinct values in the ``subj`` column."""
        return set(self._column_values()[0])

    def objects(self) -> set[int]:
        """Distinct values in the ``obj`` column."""
        return set(self._column_values()[1])

    # ------------------------------------------------------------------
    # columnar access (the vectorized join engine's surface)
    # ------------------------------------------------------------------
    def subject_ids(self) -> "np.ndarray":
        """The ``subj`` column as an int64 array (cached copy).

        Must be a real copy (``np.array``), not ``np.asarray``: the
        latter returns a buffer-exporting *view* of the ``array('q')``,
        which both pins the column against future appends (BufferError)
        and would silently alias mutations.
        """
        if self._subject_np is None:
            self._subject_np = np.array(self._subjects, dtype=np.int64)
        return self._subject_np

    def object_ids(self) -> "np.ndarray":
        """The ``obj`` column as an int64 array (cached copy)."""
        if self._object_np is None:
            self._object_np = np.array(self._objects, dtype=np.int64)
        return self._object_np

    def _subject_group_index(self) -> _SortedGroupIndex:
        if self._subject_index is None:
            self._subject_index = _SortedGroupIndex(self.subject_ids())
        return self._subject_index

    def _object_group_index(self) -> _SortedGroupIndex:
        if self._object_index is None:
            self._object_index = _SortedGroupIndex(self.object_ids())
        return self._object_index

    def build_indexes(self) -> None:
        """Materialize every lazy index now (snapshot builds call this so a
        loaded snapshot starts with warm probe indexes)."""
        if len(self):
            self._subject_group_index()
            self._object_group_index()
            self._ensure_pair_index()

    def subject_buckets(self) -> dict[int, tuple[int, ...]]:
        """Scalar probe index: subject -> matched ``obj`` values, in row
        insertion order (lazy; used by the join's small-relation tail,
        where per-key dict lookups beat whole-array numpy calls)."""
        if self._subject_buckets is None:
            subjects, objects = self._column_values()
            self._subject_buckets = _buckets(subjects, objects)
        return self._subject_buckets

    def object_buckets(self) -> dict[int, tuple[int, ...]]:
        """Scalar probe index: object -> matched ``subj`` values, in row
        insertion order (lazy)."""
        if self._object_buckets is None:
            subjects, objects = self._column_values()
            self._object_buckets = _buckets(objects, subjects)
        return self._object_buckets

    def probe_subject(self, keys: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
        """Vectorized subject probe: ``(counts, starts)`` per probe key.

        ``counts`` is the number of rows matching each key — enough to size
        a join before paying for it; ``starts`` locates each key's run in
        the group index, for :meth:`expand_subject`.
        """
        if not len(self):  # the group index is only built for non-empty columns
            none = np.zeros(len(keys), dtype=np.int64)
            return none, none
        return self._subject_group_index().lookup(keys)

    def probe_object(self, keys: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
        """Vectorized object probe: ``(counts, starts)`` per probe key."""
        if not len(self):
            none = np.zeros(len(keys), dtype=np.int64)
            return none, none
        return self._object_group_index().lookup(keys)

    def _expand(
        self,
        index: _SortedGroupIndex,
        counts: "np.ndarray",
        starts: "np.ndarray",
        values: "np.ndarray",
    ) -> tuple["np.ndarray", "np.ndarray"]:
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        probe_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        # Slot j of the expansion, the i-th match of its probe key, reads
        # group position starts[key] + i = j + (starts - first slot)[key].
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        source_rows = index.order[np.arange(total, dtype=np.int64) + shift]
        return probe_idx, values[source_rows]

    def expand_subject(
        self, counts: "np.ndarray", starts: "np.ndarray"
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """Expand a :meth:`probe_subject` result, or a slice of one.

        Returns ``(probe_idx, objects)``: for every match, the position of
        the probe key that produced it and the matched row's ``obj`` value.
        Matches of one key appear in row insertion order, exactly like
        :meth:`subject_buckets`.
        """
        if not len(self):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return self._expand(self._subject_group_index(), counts, starts, self.object_ids())

    def expand_object(
        self, counts: "np.ndarray", starts: "np.ndarray"
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """Expand a :meth:`probe_object` result: ``(probe_idx, subjects)``."""
        if not len(self):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return self._expand(self._object_group_index(), counts, starts, self.subject_ids())

    def _ensure_pair_index(self) -> None:
        if self._pair_keys is None:
            # Encode (subj, obj) as subj * stride + obj.  Ids are dense
            # vocabulary indexes, so stride fits comfortably in int64
            # (overflow would need ~3e9 distinct entities).
            self._pair_stride = int(self.object_ids().max()) + 1 if len(self) else 1
            self._pair_keys = np.sort(
                self.subject_ids() * self._pair_stride + self.object_ids()
            )

    def contains_pairs(
        self, subjects: "np.ndarray", objects: "np.ndarray"
    ) -> "np.ndarray":
        """Vectorized row membership: a bool per ``(subjects[i], objects[i])``
        (int32 relation columns or int64 table columns alike)."""
        if not len(self):
            return np.zeros(len(subjects), dtype=bool)
        self._ensure_pair_index()
        # Relations hold int32 ids.  Widen them first: in int32 a product
        # past 2**31 (subject and stride ~46 k each) wraps, and can land
        # on another pair's key.
        keys = subjects.astype(np.int64) * self._pair_stride + objects
        # Objects outside the stride cannot encode an existing pair.
        in_range = (objects >= 0) & (objects < self._pair_stride)
        position = np.searchsorted(self._pair_keys, keys)
        safe = np.minimum(position, len(self._pair_keys) - 1)
        return in_range & (self._pair_keys[safe] == keys)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(label={self._label!r}, rows={len(self)})"
