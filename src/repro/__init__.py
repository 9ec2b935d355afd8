"""GQBE — Querying Knowledge Graphs by Example Entity Tuples.

A reproduction of the ICDE paper by Jayaram, Khan, Li, Yan and Elmasri.
The top-level package re-exports the public API:

* :class:`~repro.core.gqbe.GQBE` — the system facade,
* :class:`~repro.core.config.GQBEConfig` — configuration,
* :class:`~repro.graph.knowledge_graph.KnowledgeGraph` — the data graph,
* :class:`~repro.core.answer.AnswerTuple` / :class:`~repro.core.answer.QueryResult`
  — query results.
"""

from repro.core.answer import AnswerTuple, QueryResult
from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.graph.knowledge_graph import Edge, KnowledgeGraph


def __getattr__(name: str) -> str:
    """``repro.__version__``, resolved when someone asks.

    The single source of truth for the version is the package metadata
    (pyproject.toml); a source tree that was never pip-installed has none,
    which the fallback marks explicitly instead of faking a release.
    Reading it imports ``importlib.metadata`` (and with it ``email``,
    ``zipfile``, ...), which only ``gqbe --version`` needs: a serving
    process that restarts should not pay for it.
    """
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import metadata

    try:
        return metadata.version("gqbe-repro")
    except metadata.PackageNotFoundError:  # pragma: no cover - dev checkouts
        return "0.0.0+uninstalled"


__all__ = [
    "GQBE",
    "GQBEConfig",
    "AnswerTuple",
    "QueryResult",
    "KnowledgeGraph",
    "Edge",
    "__version__",
]
