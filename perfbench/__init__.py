"""perfbench: the repository's one performance yardstick (see README.md here).

The benchmark measures the program from outside.  It imports the program
from ``src/`` of the checkout it sits in, never from an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch area of a run; inside the checkout (the benchmark may write
#: nowhere else) and named in ``.gitignore``.
WORK_ROOT = ROOT / ".perfbench_work"


def require_program() -> None:
    """Put ``src/`` on ``sys.path``, or exit when there is no program here."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {SRC / 'repro'} is missing "
            "(run from a full checkout)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
