"""The kernel backend perfbench records: ``"pure"``, the only one.

Every loop of the engine runs in numpy; there is no compiled extension.
This module keeps the two names the yardstick reads:
``perfbench/workloads.py`` records :func:`resolve_backend` in every
result, and ``perfbench/test_perfbench.py`` reads :func:`native_available`.
The ROADMAP ``[benchmark]`` item that drops those pins deletes it.

Importing it under ``GQBE_NATIVE_KERNELS=on`` raises
:class:`~repro.exceptions.EvaluationError`: that asks for a backend that
does not exist.
"""

from __future__ import annotations

import os

from repro.exceptions import EvaluationError

if os.environ.get("GQBE_NATIVE_KERNELS") == "on":
    raise EvaluationError("GQBE_NATIVE_KERNELS=on, but there is no native kernel backend")


def resolve_backend(mode: str = "auto") -> str:
    """The kernel backend ``mode`` resolves to: always ``"pure"``."""
    return "pure"


def native_available() -> bool:
    """Whether a compiled kernel extension imports: never."""
    return False
