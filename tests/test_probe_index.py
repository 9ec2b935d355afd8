"""A label table's probe indexes against a scan of its rows.

Each side of a :class:`~repro.storage.table.ColumnarEdgeTable` is probed
through an index rebuilt from that side's sorted keys: the run heads,
searched once per probe key.  ``probe_*`` then ``expand_*`` must return,
for every needle of either width, exactly the rows a scan finds, in row
order, and the index must stay within twice the bytes of the id columns
however widely the keys spread.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import SnapshotError
from repro.storage.store import VerticalPartitionStore
from repro.storage.table import ColumnarEdgeTable, _RunIndex
from repro.storage.vocabulary import MAX_ENTITY_ID

#: Ids from a small dense range, from the whole id space, and both ends.
_ids = st.one_of(
    st.integers(0, 40),
    st.integers(0, MAX_ENTITY_ID),
    st.sampled_from([0, 1, MAX_ENTITY_ID - 1, MAX_ENTITY_ID]),
)
_rows = st.lists(st.tuples(_ids, _ids), max_size=60)


def _needles(rows: list[tuple[int, int]]) -> list[int]:
    """Every id of the rows, each one's neighbours, and keys past int32."""
    values = {value for row in rows for value in row}
    near = {value + step for value in values for step in (-1, 1)}
    extremes = {0, MAX_ENTITY_ID, 2**31, 2**32 + MAX_ENTITY_ID}
    return sorted(key for key in values | near | extremes if key >= 0)


def _scan(rows: list[tuple[int, int]], keys: list[int], side: int) -> tuple[list, list]:
    """``(probe_idx, values)`` of every row whose ``side`` column equals a
    key, key by key, each key's rows in row order."""
    probe_idx, values = [], []
    for position, key in enumerate(keys):
        for row in rows:
            if row[side] == key:
                probe_idx.append(position)
                values.append(row[1 - side])
    return probe_idx, values


def _assert_probes_match_a_scan(table: ColumnarEdgeTable, keys: list[int]) -> None:
    rows = table.rows()
    wide = np.array(keys, dtype=np.int64)
    needles = [wide]
    narrow = [key for key in keys if key <= MAX_ENTITY_ID]
    if narrow:
        needles.append(np.array(narrow, dtype=np.int32))
    for probe in needles:
        for side, (probe_side, expand_side) in enumerate(
            (
                (table.probe_subject, table.expand_subject),
                (table.probe_object, table.expand_object),
            )
        ):
            counts, starts = probe_side(probe)
            assert counts.dtype == starts.dtype == np.int64
            probe_idx, values = expand_side(counts, starts)
            assert (probe_idx.tolist(), values.tolist()) == _scan(rows, probe.tolist(), side)


def _assert_index_within_budget(table: ColumnarEdgeTable) -> None:
    budget = 2 * (table.subject_ids().nbytes + table.object_ids().nbytes)
    for index in (table._subject_index, table._object_index):
        if isinstance(index, _RunIndex):
            assert index.keys.nbytes + index.bounds.nbytes <= budget
        else:
            assert index is None and not len(table)


@given(_rows)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_probes_equal_a_scan_of_the_rows(rows):
    table = ColumnarEdgeTable("r", rows)
    _assert_probes_match_a_scan(table, _needles(rows))
    _assert_index_within_budget(table)


@given(_rows)
@settings(max_examples=50, deadline=None)
def test_int64_columns_probe_like_int32_ones(rows):
    """A shard written all-int64 probes as the narrow one does."""
    narrow = ColumnarEdgeTable("r", rows)
    wide = ColumnarEdgeTable.from_mapped(
        "r", narrow.subject_ids().astype(np.int64), narrow.object_ids().astype(np.int64)
    )
    _assert_probes_match_a_scan(wide, _needles(rows))
    _assert_index_within_budget(wide)


def test_keys_spanning_the_id_space_index_only_their_runs():
    """Three rows spanning the whole id space: the index holds their two
    runs, not an entry per id of the span."""
    top = MAX_ENTITY_ID
    table = ColumnarEdgeTable.from_mapped(
        "r", np.array([0, top, top], dtype=np.int32), np.array([1, 0, 1], dtype=np.int32)
    )
    table.build_indexes()
    assert table._subject_index.keys.tolist() == [0, top]
    assert table._subject_index.bounds.tolist() == [0, 1, 3]
    _assert_index_within_budget(table)
    _assert_probes_match_a_scan(table, [0, 1, top, 2**31])


@pytest.mark.parametrize("entry", [-3, 3])
def test_an_object_order_entry_outside_the_rows_is_refused(entry):
    """``take`` would read ``-3`` as row 0 again, and leave row 2 out."""
    table = ColumnarEdgeTable.from_mapped(
        "r",
        np.array([1, 2, 3], dtype=np.int32),
        np.array([5, 5, 5], dtype=np.int32),
        np.array([entry, 0, 1], dtype=np.int32),
    )
    with pytest.raises(SnapshotError, match="outside its rows"):
        table.probe_object(np.array([5], dtype=np.int32))


def test_an_ingest_is_probed_through_a_rebuilt_index():
    """Ingest replaces a label's table; the new table builds its own
    indexes, so a probe sees the new rows on both sides."""
    store = VerticalPartitionStore(None, None, None, {})
    store.ingest_rows("r", [3, 5], [7, 9])
    before = store.table("r")
    before.build_indexes()
    store.ingest_rows("r", [4, 3], [7, 11])
    after = store.table("r")
    assert after is not before and after._subject_index is None
    _assert_probes_match_a_scan(after, [3, 4, 5, 7, 9, 11])
    assert after.rows() == [(3, 7), (3, 11), (4, 7), (5, 9)]
