"""Child-process bookkeeping: every process the runner starts is reaped."""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

CHILD_SCRIPT = Path(__file__).with_name("child.py")
#: No single child may outlive this; the whole run must end within 180 s.
CHILD_TIMEOUT_SECONDS = 170


class ChildFailed(RuntimeError):
    """A measured child exited non-zero, hung, or sent the wrong signal."""


@contextmanager
def _interrupts_deferred():
    """Hold SIGINT/SIGTERM back until the block ends (main thread only).

    Between ``Popen`` returning and the child being registered, an
    interrupt would leave a process nobody reaps.
    """
    pending: list[int] = []
    previous = {
        signum: signal.signal(signum, lambda received, _frame: pending.append(received))
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if pending:
            raise KeyboardInterrupt(f"signal {pending[0]}")


@dataclass
class Child:
    role: str
    process: subprocess.Popen
    out: Path


class Children:
    """Spawns ``child.py`` roles inside ``work`` and never leaves one behind.

    Use as a context manager: on exit — success, failure or Ctrl-C —
    every child still alive is killed and waited for.
    """

    def __init__(self, work: Path) -> None:
        self.work = work
        self._spawned: list[Child] = []

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc_info) -> None:
        for child in self._spawned:
            if child.process.poll() is None:
                child.process.kill()
        for child in self._spawned:
            child.process.wait()
            for stream in (child.process.stdin, child.process.stdout):
                if stream is not None:
                    stream.close()
        self._spawned.clear()

    def alive(self) -> list[int]:
        """Pids of children still running (the tests assert this is empty)."""
        return [c.process.pid for c in self._spawned if c.process.poll() is None]

    def spawn(self, role: str, spec: dict, stdin: bool = False) -> Child:
        stem = self.work / f"{role}-{len(self._spawned)}"
        out = Path(f"{stem}.out.json")
        spec_path = Path(f"{stem}.spec.json")
        spec_path.write_text(json.dumps({**spec, "out": str(out)}), encoding="utf-8")
        with _interrupts_deferred():
            process = subprocess.Popen(
                [sys.executable, str(CHILD_SCRIPT), role, str(spec_path)],
                stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                text=True,
            )
            child = Child(role, process, out)
            self._spawned.append(child)
        return child

    def wait_line(self, child: Child, prefix: str) -> str:
        """Block until the child prints a line starting with ``prefix``."""
        watchdog = threading.Timer(CHILD_TIMEOUT_SECONDS, child.process.kill)
        # Daemon, and started inside the try: an interrupt that lands in
        # start() must not leave a timer the interpreter waits 170 s for.
        watchdog.daemon = True
        try:
            watchdog.start()
            line = child.process.stdout.readline()
        finally:
            watchdog.cancel()
        if not line.startswith(prefix):
            child.process.kill()
            raise ChildFailed(
                f"{child.role} child sent {line!r} instead of {prefix!r} "
                f"(exit code {child.process.wait()})"
            )
        return line

    def finish(self, child: Child) -> dict:
        """Wait for a child to exit cleanly and return what it wrote."""
        try:
            code = child.process.wait(timeout=CHILD_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            child.process.kill()
            raise ChildFailed(f"{child.role} child hung") from None
        if code != 0:
            raise ChildFailed(f"{child.role} child exited with code {code}")
        return json.loads(child.out.read_text(encoding="utf-8"))

    def run(self, role: str, spec: dict) -> dict:
        return self.finish(self.spawn(role, spec))
