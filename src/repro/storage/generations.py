"""Snapshot generations: the on-disk layout behind LSM-style compaction.

A served snapshot is immutable; live ingest accumulates an in-memory
delta overlay on top of it.  Compaction folds (base + delta) into a
fresh, fully self-contained snapshot written **next to** the base:

    serve-data.snap          <- generation 0: whatever the user built
    serve-data.snap.gen1     <- first compaction
    serve-data.snap.gen2     <- second compaction, and so on

Each generation is an ordinary snapshot directory, so every existing
tool opens it directly.  Crash safety comes from two rules:

* a generation is written to ``<target>.tmp`` first and moved into
  place with one atomic ``os.replace`` — a half-written generation is
  only ever visible under a ``.tmp`` name;
* within the tmp directory the manifest is written **last** (the v1
  envelope's digest plays the same role), so even a torn rename — or a
  tmp dir surviving a crash — fails validation cheaply instead of
  loading garbage.

:func:`resolve_latest_generation` is the startup/restart entry point:
it picks the highest generation that actually validates, and sweeps up
orphaned ``.tmp`` wreckage from a compaction that died mid-write.
"""

from __future__ import annotations

import re
import shutil
from os import PathLike
from pathlib import Path

from repro.exceptions import SnapshotError

_GENERATION = re.compile(r"^(?P<stem>.+)\.gen(?P<number>\d+)$")
_TMP_SUFFIX = ".tmp"


def generation_root(path: str | PathLike) -> Path:
    """The generation-0 path: strips a trailing ``.genN`` if present."""
    path = Path(path)
    match = _GENERATION.match(path.name)
    if match:
        return path.with_name(match.group("stem"))
    return path


def generation_number(path: str | PathLike) -> int:
    """Which generation ``path`` names (0 for the root snapshot)."""
    match = _GENERATION.match(Path(path).name)
    return int(match.group("number")) if match else 0


def generation_path(root: str | PathLike, number: int) -> Path:
    """The path of generation ``number`` for ``root`` (0 is the root)."""
    root = generation_root(root)
    if number == 0:
        return root
    return root.with_name(f"{root.name}.gen{number}")


def list_generations(path: str | PathLike) -> list[tuple[int, Path]]:
    """Every generation present on disk, ``(number, path)``, ascending.

    Includes the root as generation 0 when it exists; ``.tmp`` wreckage
    is never listed.
    """
    root = generation_root(path)
    generations: list[tuple[int, Path]] = []
    if root.exists():
        generations.append((0, root))
    pattern = re.compile(
        rf"^{re.escape(root.name)}\.gen(?P<number>\d+)$"
    )
    if root.parent.is_dir():
        for sibling in root.parent.iterdir():
            match = pattern.match(sibling.name)
            if match:
                generations.append((int(match.group("number")), sibling))
    generations.sort(key=lambda item: item[0])
    return generations


def next_generation_path(path: str | PathLike) -> Path:
    """Where the next compaction should land for ``path``'s family."""
    generations = list_generations(path)
    highest = generations[-1][0] if generations else 0
    return generation_path(path, highest + 1)


def orphan_tmp_paths(path: str | PathLike) -> list[Path]:
    """``<root>.genN.tmp`` leftovers from compactions that died mid-write."""
    root = generation_root(path)
    pattern = re.compile(
        rf"^{re.escape(root.name)}\.gen\d+{re.escape(_TMP_SUFFIX)}$"
    )
    if not root.parent.is_dir():
        return []
    return sorted(
        sibling
        for sibling in root.parent.iterdir()
        if pattern.match(sibling.name)
    )


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        try:
            path.unlink()
        # gqbe: ignore[EXC002] -- best-effort orphan/prune cleanup: a
        # leftover file that cannot be unlinked (already gone, perms)
        # is harmless wreckage, not a snapshot-read failure to report.
        except OSError:
            pass


def resolve_latest_generation(
    path: str | PathLike, clean_orphans: bool = True
) -> Path:
    """The newest generation of ``path``'s family that validates.

    Candidates are tried highest-number first; validation reads only
    the manifest/envelope (``read_snapshot_meta``), so a generation
    whose write never completed — possible only for ``.tmp`` wreckage
    or external tampering, since the manifest is written last and the
    rename is atomic — is skipped instead of loaded.  With
    ``clean_orphans`` (the default) ``.tmp`` leftovers are deleted.
    Returns ``path`` unchanged when nothing newer validates.
    """
    from repro.storage.snapshot import read_snapshot_meta

    if clean_orphans:
        for orphan in orphan_tmp_paths(path):
            _remove(orphan)
    for _, candidate in reversed(list_generations(path)):
        try:
            read_snapshot_meta(candidate)
        except SnapshotError:
            continue
        return candidate
    return Path(path)


def prune_generations(current: str | PathLike, keep: int = 2) -> list[Path]:
    """Delete generations older than the ``keep`` newest; returns them.

    ``current`` is the generation just swapped in; the root snapshot
    (generation 0) is the user's artifact and is never deleted.  Only
    generations strictly older than ``current`` are candidates — a
    *newer* sibling means another writer is active and is left alone.
    """
    current_number = generation_number(current)
    candidates = [
        (number, path)
        for number, path in list_generations(current)
        if 0 < number <= current_number
    ]
    removed: list[Path] = []
    for number, path in candidates[:-keep] if keep > 0 else candidates:
        _remove(path)
        removed.append(path)
    return removed
