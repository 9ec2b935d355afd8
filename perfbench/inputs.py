"""Benchmark inputs: the generated dump, the query population and their hashes.

The dataset and the *set* of queries are pinned (``DATASET_SEED``); the
run's ``--seed`` decides the order the queries are sent in and which
triples are ingested.  Per-query cost in this engine is heavy-tailed (at
``r = 15`` one query in two hundred costs a hundred medians), so a query
set re-sampled per seed moves every latency metric by 15-30 % between
seeds; a pinned set does not, and its hashes are committed so a drifted
generator fails loudly instead of shifting the baseline.  For a held-out
sample, change ``DATASET_SEED`` and regenerate ``expected_inputs.json``
in a PR of its own, then re-measure the baseline.

The program under test only ever sees the files and tuples made here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from perfbench import stats

DATASET_SEED = 7
#: Every example tuple of F1 and F4 (the award hubs) overflows
#: ``max_join_rows`` on its first join and comes back empty at both scales:
#: such a query is all neighborhood extraction and discovery and never
#: reaches the lattice.  The workloads that exist for the lattice and the
#: answer path leave these tables out; the ones that exist for discovery
#: and restart cost keep them.
NO_LATTICE_WORK = frozenset({"F1", "F4"})
EXPECTED_INPUTS = Path(__file__).with_name("expected_inputs.json")

Row = tuple[str, ...]


@dataclass
class Dataset:
    """One generated dump plus the ground-truth tables behind its queries."""

    dump: Path
    triples: int
    dump_sha256: str
    tables: dict[str, list[Row]]  # query id (F1..F20) -> ground-truth rows


def generate_dump(dataset_seed: int, scale: float, dump: Path) -> Dataset:
    """Generate the Freebase-like graph and write it as a TSV dump.

    The in-memory graph is dropped before returning: only the dump and
    the ground-truth tables outlive this call.
    """
    from repro.datasets.synthetic import FreebaseLikeGenerator
    from repro.datasets.workloads import FREEBASE_QUERY_TABLES
    from repro.graph.triples import graph_to_triples, write_triples

    dataset = FreebaseLikeGenerator(seed=dataset_seed, scale=scale).generate()
    triples = write_triples(graph_to_triples(dataset.graph), dump)
    tables = {
        query_id: [tuple(row) for row in dataset.table(table_name)]
        for query_id, table_name in FREEBASE_QUERY_TABLES
    }
    return Dataset(dump, triples, stats.sha256_file(dump), tables)


def query_population(
    tables: dict[str, list[Row]], tuples_per_query: tuple[int, ...], salt: str
) -> list[dict]:
    """The pinned query set: per table, one query per entry of ``tuples_per_query``.

    Entry ``n`` makes a query with ``n`` example tuples.  Rows are drawn
    without replacement inside a table, so no two queries of a table
    share an example tuple.  The result is table-interleaved (query 0 of
    every table, then query 1 of every table, ...), so any prefix is
    spread evenly over the tables.
    """
    rng = random.Random(f"population:{salt}")
    per_table: dict[str, list[dict]] = {}
    for query_id, rows in tables.items():
        drawn = rng.sample(rows, sum(tuples_per_query))
        queries = []
        for index, count in enumerate(tuples_per_query):
            examples, drawn = drawn[:count], drawn[count:]
            queries.append(
                {
                    "id": f"{query_id}.{index}",
                    "table": query_id,
                    "tuples": [list(row) for row in examples],
                }
            )
        per_table[query_id] = queries
    return [
        per_table[query_id][index]
        for index in range(len(tuples_per_query))
        for query_id in tables
    ]


def population_sha256(population: list[dict]) -> str:
    """Order-independent digest of a query population."""
    return stats.sha256_json(sorted(population, key=lambda query: query["id"]))


def ordered_queries(queries: list[dict], seed: int) -> list[dict]:
    """``queries`` in the order ``seed`` sends them."""
    order = list(queries)
    random.Random(f"order:{seed}").shuffle(order)
    return order


def zipf_requests(
    population: list[dict], seed: int, count: int, window: int
) -> list[dict]:
    """``count`` requests with Zipf(s=1) popularity, pinned window by window.

    Popularity rank is the (pinned) population order and the draw itself
    is pinned too; ``seed`` shuffles the requests inside each run of
    ``window`` (the stretch between two ingests).  Every ingest empties
    the answer cache, so which tuples miss in a window, and so what the
    server's misses cost in total, is the same on every seed; the order
    they arrive in, and which connection carries them, is the seed's.
    """
    weights = [1.0 / rank for rank in range(1, len(population) + 1)]
    drawn = random.Random("zipf").choices(population, weights=weights, k=count)
    rng = random.Random(f"zipf-order:{seed}")
    requests = []
    for start in range(0, count, window):
        chunk = drawn[start : start + window]
        rng.shuffle(chunk)
        requests += chunk
    return requests


def ingest_batches(
    dump: Path, seed: int, batches: int, size: int
) -> list[list[list[str]]]:
    """``batches`` lists of ``size`` triples that are new to the graph.

    Each is a triple of the dump with its subject replaced by a fresh
    entity, so ingests add nodes and edges under the labels the graph
    already has (the delta overlay's real job) and never collide.
    """
    rng = random.Random(f"ingest:{seed}")
    with open(dump, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    picked = rng.sample(lines, batches * size)
    result = []
    for batch in range(batches):
        triples = []
        for position in range(size):
            _subject, label, obj = picked[batch * size + position].split("\t")
            triples.append([f"PerfbenchIngest_{seed}_{batch}_{position}", label, obj])
        result.append(triples)
    return result


def ground_truth(tables: dict[str, list[Row]], query: dict) -> list[Row]:
    """The table behind ``query`` minus its example tuples."""
    examples = {tuple(row) for row in query["tuples"]}
    return [row for row in tables[query["table"]] if row not in examples]


class InputsDrifted(RuntimeError):
    """The generated inputs are not the ones the baseline was measured on."""


def check_pinned(key: str, hashes: dict[str, str]) -> None:
    """Raise :class:`InputsDrifted` unless ``hashes`` are the committed ones."""
    expected = json.loads(EXPECTED_INPUTS.read_text(encoding="utf-8")).get(key)
    if expected is None:
        raise InputsDrifted(
            f"no committed input hashes for {key!r} in {EXPECTED_INPUTS.name}"
        )
    drifted = sorted(name for name in expected if hashes.get(name) != expected[name])
    if drifted:
        raise InputsDrifted(
            f"generated inputs for {key!r} differ from {EXPECTED_INPUTS.name} in "
            f"{', '.join(drifted)}: the generator in src/repro/datasets (or the "
            "triple writer) changed what it produces, so numbers would not be "
            "comparable with the recorded baseline.  If the change is intended, "
            "regenerate the file with `python perfbench/run.py --write-expected` "
            "in a PR of its own and re-measure the baseline."
        )
