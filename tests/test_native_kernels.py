"""Native kernels must be byte-identical to the pure-Python fallback.

The C extension (``repro._kernels._native``) reimplements the engine's
one innermost loop, the CSR neighbor list; its acceptance contract is *pinned equivalence* with the
pure reference (``repro._kernels._pure``):

* kernel parity — fed identical inputs, the kernel produces identical
  outputs on both backends;
* end-to-end parity — ranked answers are identical across the whole
  built / snapshot × inline / pooled matrix with ``native_kernels="on"``
  versus ``"off"`` (the same matrix ``test_pool_execution.py`` pins);
* the fallback contract — ``GQBE_FORCE_PURE=1`` forces the pure backend
  in a fresh interpreter even under ``native_kernels="on"``, and
  ``GQBEConfig.native_kernels`` validates its three modes.

The kernel parity tests skip when the extension is not built (the CI
fallback leg); the selection and config tests run everywhere.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import _kernels
from repro._kernels import _pure
from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.workloads import build_freebase_workload
from repro.exceptions import EvaluationError
from repro.serving.pool import WorkerPool
from repro.storage.snapshot import GraphStore

REPO_ROOT = Path(__file__).resolve().parent.parent

native = _kernels._probe_native()
needs_native = pytest.mark.skipif(
    native is None, reason="native extension not built (pip install -e .)"
)

_CONFIG = dict(mqg_size=8, k_prime=20, node_budget=500, max_join_rows=50_000)


@pytest.fixture(autouse=True)
def _restore_backend():
    """Leave the process-wide kernel binding as the session had it."""
    backend = _kernels.kernels.backend
    yield
    _kernels.select("on" if backend == "native" else "off")


# ----------------------------------------------------------------------
# per-kernel parity
# ----------------------------------------------------------------------
def _random_csr(rng, num_nodes, num_edges, dtype=np.int64):
    """A random mapped graph as the four CSR columns, at ``dtype``."""
    subjects = np.array(
        sorted(rng.randrange(num_nodes) for _ in range(num_edges)), dtype=np.int64
    )
    objects = np.array(
        [rng.randrange(num_nodes) for _ in range(num_edges)], dtype=np.int64
    )
    out_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(out_indptr, subjects + 1, 1)
    out_indptr = np.cumsum(out_indptr, dtype=np.int64)
    # The in-CSR re-sorts the same edges by object.
    order = np.argsort(objects, kind="stable")
    in_subjects = subjects[order]
    in_objects = objects[order]
    in_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(in_indptr, in_objects + 1, 1)
    in_indptr = np.cumsum(in_indptr, dtype=np.int64)
    return tuple(
        column.astype(dtype) for column in (out_indptr, objects, in_indptr, in_subjects)
    )


@needs_native
class TestBFSKernels:
    # int32 is what a snapshot stores; int64 what one written before its
    # arrays were narrowed stores.
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_csr_neighbors_parity(self, dtype):
        rng = random.Random(5)
        columns = _random_csr(rng, num_nodes=50, num_edges=400, dtype=dtype)
        for node in range(50):
            assert native.csr_neighbors(node, *columns) == _pure.csr_neighbors(
                node, *columns
            ), node

    def test_csr_neighbors_refuses_other_buffers(self):
        columns = list(_random_csr(random.Random(5), num_nodes=5, num_edges=10))
        columns[1] = columns[1].astype(np.int16)
        with pytest.raises(ValueError, match="int32 or int64"):
            native.csr_neighbors(0, *columns)

    def test_mapped_graph_neighbors_on_both_backends(self, figure1_graph):
        graph = GraphStore.build(figure1_graph).graph
        assert graph.out_objects.dtype == np.int32
        for node in list(figure1_graph.nodes):
            node_id = graph.node_id(node)
            assert native.csr_neighbors(
                node_id, graph.out_indptr, graph.out_objects, graph.in_indptr, graph.in_subjects
            ) == _pure.csr_neighbors(
                node_id, graph.out_indptr, graph.out_objects, graph.in_indptr, graph.in_subjects
            ), node


# ----------------------------------------------------------------------
# end-to-end: the built/snapshot × inline/pooled matrix, native vs fallback
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workload():
    return build_freebase_workload(seed=7, scale=0.25)


@pytest.fixture(scope="module")
def snapshot(workload, tmp_path_factory):
    path = tmp_path_factory.mktemp("kernels") / "g.snapdir"
    GraphStore.build(workload.dataset.graph).save(path)
    return path


def _answer_key(result):
    return [
        (a.rank, a.entities, a.score, a.structure_score, a.content_score)
        for a in result.answers
    ]


@needs_native
def test_native_matches_fallback_across_formats_and_execution(
    workload, snapshot
):
    """native_kernels="on" ≡ "off" over owned/mapped × inline/pooled."""
    tuples = [query.query_tuple for query in workload.queries[:6]]
    reference = None
    for backing in ("built", "snapshot"):
        for execution in ("inline", "pool"):
            if execution == "pool" and backing == "built":
                continue  # fork-inherited pools: tests/test_pool_execution.py
            by_mode = {}
            for mode in ("off", "on"):
                config = GQBEConfig(**_CONFIG, native_kernels=mode)
                if execution == "pool":
                    with WorkerPool(
                        workers=2, snapshot_path=snapshot, config=config
                    ) as pool:
                        results = pool.query_batch(tuples, k=5)
                else:
                    system = (
                        GQBE(workload.dataset.graph, config=config)
                        if backing == "built"
                        else GQBE.from_snapshot(snapshot, config=config)
                    )
                    results = system.query_batch(tuples, k=5)
                by_mode[mode] = [_answer_key(r) for r in results]
            cell = f"{backing}/{execution}"
            assert by_mode["on"] == by_mode["off"], cell
            if reference is None:
                reference = by_mode["off"]
            assert by_mode["off"] == reference, cell


# ----------------------------------------------------------------------
# backend selection + config surface
# ----------------------------------------------------------------------
class TestBackendSelection:
    @needs_native
    def test_modes_resolve(self, monkeypatch):
        monkeypatch.delenv("GQBE_FORCE_PURE", raising=False)
        monkeypatch.delenv("GQBE_NATIVE_KERNELS", raising=False)
        assert _kernels.resolve_backend("off") == "pure"
        assert _kernels.resolve_backend("on") == "native"
        assert _kernels.resolve_backend("auto") == "native"

    @needs_native
    def test_env_auto_override(self, monkeypatch):
        monkeypatch.delenv("GQBE_FORCE_PURE", raising=False)
        monkeypatch.setenv("GQBE_NATIVE_KERNELS", "off")
        assert _kernels.resolve_backend("auto") == "pure"
        # Explicit modes are not overridden by the auto-resolution env.
        assert _kernels.resolve_backend("on") == "native"

    def test_force_pure_wins_over_on(self, monkeypatch):
        monkeypatch.setenv("GQBE_FORCE_PURE", "1")
        assert _kernels.resolve_backend("on") == "pure"
        assert _kernels.select("on") == "pure"
        assert _kernels.kernels.backend == "pure"
        assert _kernels.kernels.csr_neighbors is _pure.csr_neighbors

    @needs_native
    def test_select_rebinds_namespace(self, monkeypatch):
        monkeypatch.delenv("GQBE_FORCE_PURE", raising=False)
        assert _kernels.select("on") == "native"
        assert _kernels.kernels.csr_neighbors is native.csr_neighbors
        assert _kernels.select("off") == "pure"
        assert _kernels.kernels.csr_neighbors is _pure.csr_neighbors

    def test_invalid_mode_raises(self):
        with pytest.raises(EvaluationError, match="native_kernels"):
            _kernels.resolve_backend("fast")

    def test_config_validates_native_kernels(self):
        assert GQBEConfig().native_kernels == "auto"
        assert GQBEConfig(native_kernels="on").native_kernels == "on"
        assert GQBEConfig(native_kernels="off").native_kernels == "off"
        with pytest.raises(EvaluationError, match="native_kernels"):
            GQBEConfig(native_kernels="never")

    def test_force_pure_subprocess_runs_whole_query_on_fallback(
        self, figure1_graph
    ):
        """GQBE_FORCE_PURE=1 in a fresh interpreter: the CI seam."""
        script = (
            "from repro import _kernels\n"
            "from repro.core.config import GQBEConfig\n"
            "from repro.core.gqbe import GQBE\n"
            "from repro.datasets.example_graph import figure1_excerpt\n"
            "assert _kernels.resolve_backend('on') == 'pure'\n"
            "system = GQBE(figure1_excerpt(),"
            " config=GQBEConfig(native_kernels='on'))\n"
            "result = system.query(('Jerry Yang', 'Yahoo!'), k=3)\n"
            "assert _kernels.kernels.backend == 'pure'\n"
            "print([tuple(a.entities) for a in result.answers])\n"
        )
        env = dict(os.environ, GQBE_FORCE_PURE="1")
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert run.returncode == 0, run.stderr
        # The forced-pure answers equal this process's: native where the
        # extension is built ("on" raises without it), whatever "auto"
        # resolves to from a plain checkout.
        mode = "on" if native is not None else "auto"
        result = GQBE(figure1_graph, config=GQBEConfig(native_kernels=mode)).query(
            ("Jerry Yang", "Yahoo!"), k=3
        )
        assert run.stdout.strip() == str(
            [tuple(a.entities) for a in result.answers]
        )
