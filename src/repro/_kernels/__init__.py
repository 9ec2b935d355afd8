"""Kernel backend selection: native C extension vs pure-Python fallback.

The engine's one innermost scalar loop, a node's CSR neighbor list (read
by ``MappedKnowledgeGraph.neighbors()``; no GQBE query calls it), exists
twice: as the pure-Python reference in :mod:`repro._kernels._pure` and
as a C extension in ``repro._kernels._native`` (built by ``pip
install``; optional, the build may fail or be skipped).  Both implement the same
function with the same signature and byte-identical outputs
(``tests/test_native_kernels.py``).

Call sites import the module-level :data:`kernels` namespace and read
its attributes at call time — :func:`select` re-binds them, so a
:class:`~repro.core.config.GQBEConfig` can switch backends per system
(the facade re-asserts its mode on every query entry, keeping two
systems with different modes in one process each on their own backend).

Selection order:

* ``GQBE_FORCE_PURE=1`` (env) — pure, unconditionally.  The CI seam
  proving the fallback contract: it wins even over ``mode="on"``.
* mode ``"off"`` — pure.
* mode ``"on"`` — native; raises
  :class:`~repro.exceptions.EvaluationError` if the extension is
  missing or failed to import.
* mode ``"auto"`` (default) — ``GQBE_NATIVE_KERNELS`` (env, same three
  values) decides; unset/``auto`` means native when importable, else
  pure.
"""

from __future__ import annotations

import importlib
import os

from repro._kernels import _pure

MODES = ("auto", "on", "off")

_native_module = None
_native_error: BaseException | None = None
_native_probed = False


def _probe_native():
    """Import the C extension once; remember the failure if it has one."""
    global _native_module, _native_error, _native_probed
    if not _native_probed:
        _native_probed = True
        try:
            # import_module, not ``from repro._kernels import _native``:
            # a from-import resolves against this package's attributes
            # first and would find module globals instead of the .so.
            _native_module = importlib.import_module("repro._kernels._native")
        except ImportError as error:
            _native_error = error
    return _native_module


def native_available() -> bool:
    """Whether the compiled extension imports on this interpreter."""
    return _probe_native() is not None


def native_import_error() -> BaseException | None:
    """Why the extension is unavailable (``None`` when it imported)."""
    _probe_native()
    return _native_error


class _KernelNamespace:
    """The active backend's kernel functions, re-bound by :func:`select`."""

    __slots__ = ("backend", "csr_neighbors")

    def _bind(self, module, backend: str) -> None:
        self.backend = backend
        self.csr_neighbors = module.csr_neighbors


#: The active backend.  Read attributes at call time (never ``from
#: kernels import csr_neighbors``) so a later :func:`select` takes effect.
kernels = _KernelNamespace()


def _force_pure() -> bool:
    return os.environ.get("GQBE_FORCE_PURE", "") == "1"


def resolve_backend(mode: str = "auto") -> str:
    """The backend name ``mode`` resolves to under the current env."""
    if mode not in MODES:
        from repro.exceptions import EvaluationError

        raise EvaluationError(
            f"native_kernels must be one of {MODES}, got {mode!r}"
        )
    if _force_pure():
        return "pure"
    if mode == "auto":
        mode = os.environ.get("GQBE_NATIVE_KERNELS", "auto")
        if mode not in MODES:
            mode = "auto"
    if mode == "off":
        return "pure"
    if mode == "on":
        if not native_available():
            from repro.exceptions import EvaluationError

            raise EvaluationError(
                "native_kernels='on' but the compiled extension "
                "repro._kernels._native is unavailable "
                f"({native_import_error()}); build it (pip install -e .) "
                "or use native_kernels='auto'"
            )
        return "native"
    return "native" if native_available() else "pure"


def select(mode: str = "auto") -> str:
    """Bind :data:`kernels` to the backend ``mode`` resolves to.

    Idempotent and cheap when the backend does not change; returns the
    active backend name (``"native"`` or ``"pure"``).
    """
    backend = resolve_backend(mode)
    if kernels.backend != backend:
        module = _probe_native() if backend == "native" else _pure
        kernels._bind(module, backend)
    return backend


kernels._bind(_pure, "pure")
select("auto")
