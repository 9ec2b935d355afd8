"""One edge set behind each graph backing, and an order-sensitive comparison.

The engine runs on id columns: a graph built in memory, its snapshot
mapped back from disk, and a snapshot of part of the edges with the rest
ingested as a delta overlay.  Each helper also yields the edges as a
:class:`KnowledgeGraph`, the triple container the reference
implementations of ``tests/oracles.py`` read.  Each backing reads its
rows in a documented order, which :func:`row_order` rebuilds from the
triples alone, so equivalence here means equal *sequences*.  No answer
depends on that order (``tests/test_engine_invariance.py``); pinning it
keeps the extraction and reduction checks exact.
"""

from __future__ import annotations

import random
import tempfile
from contextlib import contextmanager
from pathlib import Path

from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.mapped import MappedKnowledgeGraph
from repro.graph.neighborhood import NeighborhoodGraph
from repro.storage.snapshot import GraphStore

Triple = tuple[str, str, str]


@contextmanager
def three_graph_stores(base: list[Triple], delta: list[Triple]):
    """Yield ``base + delta`` as a :class:`KnowledgeGraph` and two loaded
    :class:`GraphStore` bundles (graph, statistics, join store): the merged
    stream's v3 snapshot, and ``base``'s with ``delta`` ingested on top."""
    owned = KnowledgeGraph(base + delta)
    with tempfile.TemporaryDirectory() as directory:
        GraphStore.build(owned).save(Path(directory, "merged"))
        merged_store = GraphStore.load(Path(directory, "merged"))
        GraphStore.build(KnowledgeGraph(base)).save(Path(directory, "base"))
        overlay_store = GraphStore.load(Path(directory, "base"))
        overlay_store.ingest(delta)
        assert isinstance(merged_store.graph, MappedKnowledgeGraph)
        assert isinstance(overlay_store.graph, MappedKnowledgeGraph)
        yield owned, merged_store, overlay_store


@contextmanager
def three_backings(base: list[Triple], delta: list[Triple]):
    """Yield ``base + delta`` as (triple container, mapped, overlay) graphs.

    ``owned`` is the :class:`KnowledgeGraph` of the merged stream,
    ``mapped`` its v3 snapshot reopened, ``overlay`` a v3 snapshot of
    ``base`` with ``delta`` ingested on top.
    """
    with three_graph_stores(base, delta) as (owned, merged_store, overlay_store):
        yield owned, merged_store.graph, overlay_store.graph


@contextmanager
def three_stores(base: list[Triple], delta: list[Triple]):
    """Three join stores over the same edges: built in memory, mapped shard
    tables, and mapped tables with ``delta`` ingested."""
    with three_graph_stores(base, delta) as (owned, merged_store, overlay_store):
        yield GraphStore.build(owned).store, merged_store.store, overlay_store.store


def row_order(owned: KnowledgeGraph, graph) -> KnowledgeGraph:
    """``owned``'s edges as ``graph`` reads them, as a triple container.

    Node ids and label ids are ``owned``'s insertion orders, as a build of
    its stream assigns them.  A snapshot stores each label table sorted by
    (subject, object) and each node's slices by (label, other), which is
    what inserting the edges sorted by (label, subject, object) gives every
    adjacency list.  A delta overlay reads its base that way and then the
    edges ingested after it, in ingest order: ``owned``'s last ones.
    """
    edges = list(owned.edges)
    cut = len(graph.out_objects)  # the base's edges; the rest were ingested
    node_ids = {node: index for index, node in enumerate(owned.nodes)}
    label_ids = {label: index for index, label in enumerate(owned.labels)}
    spec = KnowledgeGraph()
    for node in owned.nodes:
        spec.add_node(node)
    base = sorted(
        edges[:cut],
        key=lambda edge: (label_ids[edge.label], node_ids[edge.subject], node_ids[edge.object]),
    )
    for edge in base + edges[cut:]:
        spec.add_edge_object(edge)
    return spec


def ordered_view(neighborhood: NeighborhoodGraph) -> dict:
    """Everything downstream code can read off a neighborhood, order included."""
    graph = neighborhood.graph
    nodes = list(graph.nodes)
    return {
        "query_tuple": neighborhood.query_tuple,
        "d": neighborhood.d,
        "edges": list(graph.edges),
        "nodes": nodes,
        "out": [graph.out_edges(node) for node in nodes],
        "in": [graph.in_edges(node) for node in nodes],
        "labels": list(graph.labels),
        "distances": list(neighborhood.distances.items()),
    }


def random_multigraph(
    seed: int, hub_leaves: int = 0
) -> tuple[list[Triple], list[Triple], list[str]]:
    """(base, delta, nodes) of a small multigraph with self-loops, parallel
    edges under different labels and one hub every node points at; the
    delta adds a node past the arena, a new label and a self-loop on it.

    With ``hub_leaves``, two more hubs ``h0`` and ``h1``, each with a
    self-loop and an edge to ``n0``, get that many leaves apiece (edges
    either way, some under two labels); half of ``h0``'s leaves are also
    ``h1``'s.
    """
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(rng.randint(4, 12))]
    labels = [f"r{i}" for i in range(4)]
    triples = {(node, rng.choice(labels), "n0") for node in nodes}
    for _ in range(rng.randint(5, 30)):
        subject, obj = rng.choice(nodes), rng.choice(nodes)
        for label in rng.sample(labels, rng.randint(1, 2)):
            triples.add((subject, label, obj))
    hubs = ["h0", "h1"] if hub_leaves else []
    leaves = [f"leaf{i}" for i in range(hub_leaves + hub_leaves // 2)]
    for index, hub in enumerate(hubs):
        triples.update({(hub, "r0", hub), (hub, "r1", "n0")})
        for leaf in leaves[index * (hub_leaves // 2) :][:hub_leaves]:
            subject, obj = (hub, leaf) if rng.random() < 0.5 else (leaf, hub)
            for label in rng.sample(labels, rng.randint(1, 2)):
                triples.add((subject, label, obj))
    stream = sorted(triples)
    rng.shuffle(stream)
    cut = rng.randint(1, len(stream))
    delta = stream[cut:] + [("fresh", "r_new", nodes[1]), ("fresh", "r0", "fresh")]
    return stream[:cut], delta, nodes + hubs + leaves + ["fresh"]


def copy_snapshot(source, target):
    """Copy a snapshot directory file by file (for tests that damage one)."""
    for item in source.rglob("*"):
        if item.is_file():
            destination = target / item.relative_to(source)
            destination.parent.mkdir(parents=True, exist_ok=True)
            destination.write_bytes(item.read_bytes())
    return target
