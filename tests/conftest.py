"""Shared fixtures for the GQBE test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.storage.join as join_module
from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.example_graph import figure1_excerpt, figure1_ground_truth
from repro.datasets.synthetic import DBpediaLikeGenerator, FreebaseLikeGenerator
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.mapped import MappedKnowledgeGraph
from repro.graph.statistics import GraphStatistics
from repro.storage.snapshot import GraphStore
from repro.storage.store import VerticalPartitionStore


@pytest.fixture(scope="session")
def fresh_python():
    """``fresh_python(script, *argv)``: run ``script`` in a new interpreter
    that can import ``repro`` and the test modules; asserts it exits 0 and
    returns its stdout."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH", "")]
    )

    def run(script: str, *argv: str) -> str:
        completed = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, cwd=tests.parent,
        )
        assert completed.returncode == 0, completed.stderr
        return completed.stdout

    return run


class HeldRunner:
    """An engine entry point whose first call blocks until :meth:`release`.

    Wraps ``inner`` (``GQBE.query``, ``query_multi`` or a pool's
    ``query_batch``).  While an engine thread is held inside that call,
    later engine calls queue on the core's engine executor, so a test
    fixes what waits behind it without a wall-clock window.  ``calls``
    records every call's first argument (its query tuple or tuples) and
    ``k``.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[object, int | None]] = []
        self.entered = threading.Event()
        self._release = threading.Event()

    def __call__(self, *args, **kwargs):
        self.calls.append((args[0], kwargs.get("k")))
        if not self.entered.is_set():
            self.entered.set()
            self._release.wait(timeout=30)
        return self.inner(*args, **kwargs)

    def release(self) -> None:
        self._release.set()

    @staticmethod
    def wait_queued(core, count: int, timeout: float = 10.0) -> None:
        """Block until ``count`` engine calls wait in ``core``'s engine
        executor queue (a cancelled call stays counted until an engine
        thread pops it)."""
        deadline = time.monotonic() + timeout
        while True:
            queued = core._engine._work_queue.qsize()
            if queued == count:
                return
            assert time.monotonic() < deadline, f"{queued} queued, expected {count}"
            time.sleep(0.002)


@pytest.fixture()
def held_runner(monkeypatch):
    """``held_runner(owner, name)`` -> a :class:`HeldRunner` installed as
    ``owner.name`` (e.g. ``server.system, "query"``); every one made is
    released at teardown so no engine thread stays blocked, and the
    attribute is restored."""
    made: list[HeldRunner] = []

    def make(owner, name: str) -> HeldRunner:
        made.append(HeldRunner(getattr(owner, name)))
        monkeypatch.setattr(owner, name, made[-1])
        return made[-1]

    yield make
    for runner in made:
        runner.release()


class JoinRegime:
    """How the join engine slices a one-sided probe's expansion, for one test.

    ``extend_with_edge`` expands a capped probe in slices of at most
    ``_EXPANSION_CHUNK_ROWS`` candidates (and of one more than the cap).
    ``vectorized`` keeps the shipped size, so every expansion the tests
    make runs in one numpy pass up to the cap; ``scalar`` cuts a slice
    after every candidate, so a join goes about one probe row at a time;
    ``adaptive`` uses slices of 64 candidates, one pass for small
    expansions and many for large ones.  None may change a join's rows,
    their order or an overflow.  :meth:`use` switches regime mid-test.
    """

    CHUNK_ROWS = {
        "adaptive": 64,
        "vectorized": join_module._EXPANSION_CHUNK_ROWS,
        "scalar": 1,
    }

    def __init__(self, name: str, monkeypatch) -> None:
        self.name = name
        self._monkeypatch = monkeypatch
        self.use(name)

    def use(self, name: str) -> None:
        self._monkeypatch.setattr(join_module, "_EXPANSION_CHUNK_ROWS", self.CHUNK_ROWS[name])


@pytest.fixture(params=sorted(JoinRegime.CHUNK_ROWS))
def join_regime(request, monkeypatch) -> JoinRegime:
    """Run the test once per expansion slicing regime."""
    return JoinRegime(request.param, monkeypatch)


@pytest.fixture(scope="session")
def figure1_graph() -> KnowledgeGraph:
    """The Fig. 1 excerpt used throughout the paper's running example."""
    return figure1_excerpt()


@pytest.fixture(scope="session")
def figure1_truth() -> list[tuple[str, str]]:
    """Founder-company pairs other than the query tuple."""
    return figure1_ground_truth()


@pytest.fixture(scope="session")
def figure1_bundle(figure1_graph: KnowledgeGraph) -> GraphStore:
    """The offline state of the Fig. 1 excerpt, built in memory."""
    return GraphStore.build(figure1_graph)


@pytest.fixture(scope="session")
def figure1_mapped(figure1_bundle: GraphStore) -> MappedKnowledgeGraph:
    """The Fig. 1 excerpt as the engine reads it: CSR id columns."""
    return figure1_bundle.graph


@pytest.fixture(scope="session")
def figure1_stats(figure1_bundle: GraphStore) -> GraphStatistics:
    return figure1_bundle.statistics


@pytest.fixture(scope="session")
def figure1_store(figure1_bundle: GraphStore) -> VerticalPartitionStore:
    return figure1_bundle.store


@pytest.fixture(scope="session")
def figure1_system(figure1_graph: KnowledgeGraph) -> GQBE:
    """A GQBE instance over the Fig. 1 excerpt."""
    return GQBE(figure1_graph, config=GQBEConfig(mqg_size=10))


@pytest.fixture(scope="session")
def tiny_dataset():
    """A very small Freebase-like dataset for integration tests."""
    return FreebaseLikeGenerator(seed=3, scale=0.2).generate()


@pytest.fixture(scope="session")
def tiny_system(tiny_dataset) -> GQBE:
    """A GQBE instance over the tiny synthetic dataset."""
    config = GQBEConfig(mqg_size=8, k_prime=20, max_join_rows=100_000)
    return GQBE(tiny_dataset.graph, config=config)


@pytest.fixture()
def chain_graph() -> KnowledgeGraph:
    """A small deterministic chain/star graph for unit tests.

    a --r1--> b --r2--> c --r3--> d, with extra labeled edges off b and c.
    """
    graph = KnowledgeGraph()
    graph.add_edge("a", "r1", "b")
    graph.add_edge("b", "r2", "c")
    graph.add_edge("c", "r3", "d")
    graph.add_edge("b", "attr", "x")
    graph.add_edge("c", "attr", "y")
    graph.add_edge("e", "r1", "b")
    return graph


def _domain_split(dataset):
    """Split a synthetic dataset into (base, delta, example tuples of arity 1-3).

    The delta is the tail of the edge stream (so many near nodes get delta
    appends after their base slice) plus edges that touch the example
    entities directly: new nodes past the vocabulary arena, a new label,
    and self-loops on an old and on a new node.
    """
    edges = [tuple(edge) for edge in dataset.graph.edges]
    cut = int(len(edges) * 0.85)
    rows = [dataset.table(name)[0] for name in dataset.table_names()[:4]]
    fresh = []
    for index, row in enumerate(rows):
        new_node = f"Ingested_{index}"
        old_label = dataset.graph.incident_edges(row[0])[0].label
        fresh += [
            (row[0], "ingested_link", new_node),
            (new_node, old_label, row[-1]),
            (row[0], "ingested_self", row[0]),
            (new_node, old_label, new_node),
        ]
    tuples = [tuple(row[:arity]) for row in rows for arity in range(1, len(row) + 1)]
    tuples += [("Ingested_0",), (rows[0][0], "Ingested_0")]
    return edges[:cut], edges[cut:] + fresh, tuples


@pytest.fixture(scope="session", params=["freebase", "dbpedia"])
def domain_backings(request):
    """(example tuples, triple container, mapped v3 bundle, delta-overlay
    bundle) of one synthetic domain — the same edge set behind every
    backing (see ``graph_backings.three_graph_stores``)."""
    from graph_backings import three_graph_stores

    generator = FreebaseLikeGenerator if request.param == "freebase" else DBpediaLikeGenerator
    base, delta, tuples = _domain_split(generator(seed=5, scale=0.2).generate())
    with three_graph_stores(base, delta) as (owned, mapped, overlay):
        yield tuples, owned, mapped, overlay
