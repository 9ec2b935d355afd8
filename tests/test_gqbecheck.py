"""gqbecheck analyzer suite: rule firing/non-firing, pragmas, baseline.

Each rule id gets one minimal violating fixture and one compliant
counterpart — the pair pins both that the rule catches the pattern and
that the sanctioned fix silences it.  Fixtures opt into contracts with
``# gqbe: contract[...]`` pragmas so they work from a tmp directory.
The clean-tree test at the bottom is the repo's own gate: the committed
tree must carry zero non-baselined findings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.gqbecheck import check_paths  # noqa: E402
from tools.gqbecheck.baseline import (  # noqa: E402
    load_baseline,
    merge_for_update,
    save_baseline,
    split_by_baseline,
)
from tools.gqbecheck.cli import main as check_main  # noqa: E402


def findings_for(tmp_path: Path, source: str, name: str = "sample.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return check_paths([path], tmp_path)


def rule_ids(findings) -> set[str]:
    return {finding.rule_id for finding in findings}


# --------------------------------------------------------------------------
# Rule matrix: one firing and one clean fixture per rule id.

DET001_FIRING = """\
# gqbe: contract[deterministic]
items = {1, 2, 3}
for item in items:
    print(item)
"""
DET001_CLEAN = """\
# gqbe: contract[deterministic]
items = {1, 2, 3}
for item in sorted(items):
    print(item)
"""

DET002_FIRING = """\
# gqbe: contract[deterministic]
import random

value = random.random()
"""
DET002_CLEAN = """\
# gqbe: contract[deterministic]
import time

started = time.perf_counter()
"""

DET003_FIRING = """\
# gqbe: contract[deterministic]
items = {1, 2, 3}
first = next(iter(items))
"""
DET003_CLEAN = """\
# gqbe: contract[deterministic]
items = {1, 2, 3}
first = min(items)
"""

MAP001_FIRING = """\
# gqbe: contract[snapshot-io]
import numpy as np


def patch(buffer):
    ids = np.frombuffer(buffer, dtype="int64")
    ids[0] = 7
    return ids
"""
MAP001_CLEAN = """\
# gqbe: contract[snapshot-io]
import numpy as np


def patch(buffer):
    ids = np.frombuffer(buffer, dtype="int64")
    owned = ids.copy()
    owned[0] = 7
    return owned
"""

MAP002_FIRING = """\
# gqbe: contract[snapshot-io]
import numpy as np


def ordered(buffer):
    ids = np.frombuffer(buffer, dtype="int64")
    ids.sort()
    return ids
"""
MAP002_CLEAN = """\
# gqbe: contract[snapshot-io]
import numpy as np


def ordered(buffer):
    ids = np.frombuffer(buffer, dtype="int64")
    owned = ids.copy()
    owned.sort()
    return owned
"""

CON001_FIRING = """\
# gqbe: contract[concurrent]
counter = 0


def bump():
    global counter
    counter += 1
"""
CON001_CLEAN = """\
# gqbe: contract[concurrent]
import threading

counter = 0
_counter_lock = threading.Lock()


def bump():
    global counter
    with _counter_lock:
        counter += 1
"""

CON002_FIRING = """\
# gqbe: contract[concurrent]
import threading


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        self.count += 1
"""
CON002_CLEAN = """\
# gqbe: contract[concurrent]
import threading


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1
"""

CON003_FIRING = """\
# gqbe: contract[concurrent]
import threading


class Pair:
    def __init__(self):
        self.alpha_lock = threading.Lock()
        self.beta_lock = threading.Lock()

    def forward(self):
        with self.alpha_lock:
            with self.beta_lock:
                pass

    def backward(self):
        with self.beta_lock:
            with self.alpha_lock:
                pass
"""
CON003_CLEAN = """\
# gqbe: contract[concurrent]
import threading


class Pair:
    def __init__(self):
        self.alpha_lock = threading.Lock()
        self.beta_lock = threading.Lock()

    def forward(self):
        with self.alpha_lock:
            with self.beta_lock:
                pass

    def also_forward(self):
        with self.alpha_lock:
            with self.beta_lock:
                pass
"""

CON004_FIRING = """\
# gqbe: contract[concurrent]
import threading


def work():
    pass


worker = threading.Thread(target=work)
"""
CON004_CLEAN = """\
# gqbe: contract[concurrent]
import threading


def work():
    pass


def start_worker():
    return threading.Thread(target=work)
"""

CON005_FIRING = """\
# gqbe: contract[concurrent]
class Gate:
    def __init__(self):
        self.depth = 0

    async def enter(self):
        self.depth += 1

    def leave(self):
        self.depth -= 1
"""
CON005_CLEAN = """\
# gqbe: contract[concurrent]
class Gate:
    def __init__(self):
        self.depth = 0

    async def enter(self):
        self.depth += 1

    async def leave(self):
        self.depth -= 1
"""

EXC001_FIRING = """\
def load(path):
    try:
        return open(path).read()
    except Exception:
        return None
"""
EXC001_CLEAN = """\
def load(path):
    try:
        return open(path).read()
    except FileNotFoundError:
        return None
"""

EXC002_FIRING = """\
# gqbe: contract[snapshot-io]
def read(path):
    try:
        return open(path, "rb").read()
    except OSError:
        return None
"""
EXC002_CLEAN = """\
# gqbe: contract[snapshot-io]
class SnapshotError(Exception):
    pass


def read(path):
    try:
        return open(path, "rb").read()
    except OSError as error:
        raise SnapshotError(f"cannot read {path}") from error
"""

EXC003_FIRING = """\
# gqbe: contract[concurrent]
class Handler:
    def do_POST(self):
        try:
            self.work()
        except Exception as error:
            self.send_error(500, str(error))
"""
EXC003_CLEAN = """\
# gqbe: contract[concurrent]
class Handler:
    def do_POST(self):
        try:
            self.work()
        except Exception as error:
            self.log(error)
            self.send_error(500, "internal server error")
"""

MATRIX = {
    "DET001": (DET001_FIRING, DET001_CLEAN),
    "DET002": (DET002_FIRING, DET002_CLEAN),
    "DET003": (DET003_FIRING, DET003_CLEAN),
    "MAP001": (MAP001_FIRING, MAP001_CLEAN),
    "MAP002": (MAP002_FIRING, MAP002_CLEAN),
    "CON001": (CON001_FIRING, CON001_CLEAN),
    "CON002": (CON002_FIRING, CON002_CLEAN),
    "CON003": (CON003_FIRING, CON003_CLEAN),
    "CON004": (CON004_FIRING, CON004_CLEAN),
    "CON005": (CON005_FIRING, CON005_CLEAN),
    "EXC001": (EXC001_FIRING, EXC001_CLEAN),
    "EXC002": (EXC002_FIRING, EXC002_CLEAN),
    "EXC003": (EXC003_FIRING, EXC003_CLEAN),
}


@pytest.mark.parametrize("rule_id", sorted(MATRIX))
def test_rule_fires_on_violation(tmp_path, rule_id):
    firing, _ = MATRIX[rule_id]
    assert rule_id in rule_ids(findings_for(tmp_path, firing))


@pytest.mark.parametrize("rule_id", sorted(MATRIX))
def test_rule_silent_on_compliant_code(tmp_path, rule_id):
    _, clean = MATRIX[rule_id]
    assert rule_id not in rule_ids(findings_for(tmp_path, clean))


# --------------------------------------------------------------------------
# CFG rules need a small project tree, not a single file.


def _write_config_project(
    tmp_path: Path, documented: bool, tested: bool, read: bool = True
):
    src = tmp_path / "src"
    src.mkdir()
    (src / "config.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass GQBEConfig:\n"
        "    d: int = 2\n"
        "    mystery_knob: int = 5\n\n"
        "    def __post_init__(self):\n"
        "        assert self.mystery_knob >= 0\n",
        encoding="utf-8",
    )
    # The CLI's read never counts: only the engine's does.
    (src / "cli.py").write_text(
        "def build(config):\n    return config.mystery_knob\n",
        encoding="utf-8",
    )
    engine = "def run(config):\n    depth = config.d\n"
    if read:
        engine += "    return depth * config.mystery_knob\n"
    (src / "engine.py").write_text(engine, encoding="utf-8")
    doc = "# Configuration\n\nThe `d` field sets the neighborhood radius.\n"
    if documented:
        doc += "The `mystery_knob` field turns the mystery dial.\n"
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "configuration.md").write_text(doc, encoding="utf-8")
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir()
    body = "def test_d():\n    assert GQBEConfig(d=3).d == 3\n"
    if tested:
        body += (
            "\n\ndef test_mystery_knob():\n"
            "    assert GQBEConfig(mystery_knob=9).mystery_knob == 9\n"
        )
    (tests_dir / "test_config.py").write_text(body, encoding="utf-8")
    return src


def test_cfg_rules_fire_on_missing_coverage(tmp_path):
    src = _write_config_project(tmp_path, documented=False, tested=False)
    found = rule_ids(check_paths([src], tmp_path))
    assert {"CFG001", "CFG002"} <= found


def test_cfg_rules_silent_when_covered(tmp_path):
    src = _write_config_project(tmp_path, documented=True, tested=True)
    found = rule_ids(check_paths([src], tmp_path))
    assert "CFG001" not in found
    assert "CFG002" not in found
    assert "CFG003" not in found


def test_cfg003_flags_a_field_only_the_config_and_cli_read(tmp_path):
    src = _write_config_project(tmp_path, documented=True, tested=True, read=False)
    findings = [f for f in check_paths([src], tmp_path) if f.rule_id == "CFG003"]
    assert ["mystery_knob" in f.message for f in findings] == [True]


def test_unparseable_file_reports_parse_finding(tmp_path):
    findings = findings_for(tmp_path, "def broken(:\n", name="broken.py")
    assert rule_ids(findings) == {"PARSE001"}


# --------------------------------------------------------------------------
# Suppressions


def test_same_line_suppression_is_honored(tmp_path):
    source = DET003_FIRING.replace(
        "first = next(iter(items))",
        "first = next(iter(items))  # gqbe: ignore[DET003] -- test",
    )
    assert "DET003" not in rule_ids(findings_for(tmp_path, source))


def test_standalone_suppression_applies_to_next_code_line(tmp_path):
    source = DET003_FIRING.replace(
        "first = next(iter(items))",
        "# gqbe: ignore[DET003] -- justified in the test\n"
        "first = next(iter(items))",
    )
    assert "DET003" not in rule_ids(findings_for(tmp_path, source))


def test_wildcard_suppression_silences_every_rule(tmp_path):
    source = DET001_FIRING.replace(
        "for item in items:",
        "for item in items:  # gqbe: ignore[*] -- fixture",
    )
    assert "DET001" not in rule_ids(findings_for(tmp_path, source))


def test_suppression_for_other_rule_does_not_apply(tmp_path):
    source = DET003_FIRING.replace(
        "first = next(iter(items))",
        "first = next(iter(items))  # gqbe: ignore[DET001] -- wrong id",
    )
    assert "DET003" in rule_ids(findings_for(tmp_path, source))


# --------------------------------------------------------------------------
# Baseline


def test_baseline_round_trip_excuses_exactly_its_findings(tmp_path):
    findings = findings_for(tmp_path, DET002_FIRING)
    assert findings
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, merge_for_update(findings, []))
    entries = load_baseline(baseline_path)
    new, baselined = split_by_baseline(findings, entries)
    assert new == []
    assert len(baselined) == len(findings)


def test_baseline_is_a_multiset_not_a_set(tmp_path):
    source = (
        "# gqbe: contract[deterministic]\n"
        "import random\n\n"
        "a = random.random()\n"
    )
    one = findings_for(tmp_path, source)
    entries = merge_for_update(one, [])
    # A second identical violation produces an identical fingerprint;
    # one baseline entry must excuse only one of the two.
    two = findings_for(tmp_path, source + "b = random.random()\n")
    assert len(two) == 2
    new, baselined = split_by_baseline(two, entries)
    assert len(new) == 1
    assert len(baselined) == 1


def test_update_baseline_preserves_justifications(tmp_path):
    findings = findings_for(tmp_path, DET002_FIRING)
    entries = merge_for_update(findings, [])
    for entry in entries:
        entry["justification"] = "kept on purpose"
    merged = merge_for_update(findings, entries)
    assert all(entry["justification"] == "kept on purpose" for entry in merged)


def test_baseline_fingerprint_survives_line_moves(tmp_path):
    before = findings_for(tmp_path, DET002_FIRING, name="before.py")
    shifted = DET002_FIRING.replace(
        "import random\n", "import random\n\nPADDING = 1\n"
    )
    after = findings_for(tmp_path, shifted, name="before.py")
    assert [f.fingerprint for f in before] == [f.fingerprint for f in after]
    assert before[0].line != after[0].line


# --------------------------------------------------------------------------
# CLI behavior


def test_cli_exits_nonzero_on_seeded_violation(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(DET002_FIRING, encoding="utf-8")
    rc = check_main(
        ["--root", str(tmp_path), "--no-baseline", str(tmp_path / "bad.py")]
    )
    assert rc == 1
    assert "DET002" in capsys.readouterr().out


def test_cli_github_format_emits_annotations(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(DET002_FIRING, encoding="utf-8")
    rc = check_main(
        [
            "--root",
            str(tmp_path),
            "--no-baseline",
            "--format",
            "github",
            str(tmp_path / "bad.py"),
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "::error file=bad.py,line=4,title=DET002::" in out


def test_cli_update_baseline_then_clean(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(DET002_FIRING, encoding="utf-8")
    assert (
        check_main(
            ["--root", str(tmp_path), "--update-baseline", str(tmp_path / "bad.py")]
        )
        == 0
    )
    rc = check_main(["--root", str(tmp_path), str(tmp_path / "bad.py")])
    capsys.readouterr()
    assert rc == 0


def test_cli_json_report_artifact(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(DET002_FIRING, encoding="utf-8")
    report_path = tmp_path / "out" / "report.json"
    check_main(
        [
            "--root",
            str(tmp_path),
            "--no-baseline",
            "--json-report",
            str(report_path),
            str(tmp_path / "bad.py"),
        ]
    )
    capsys.readouterr()
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["version"] == 1
    assert report["new"] and report["new"][0]["rule"] == "DET002"


def test_cli_rejects_unknown_rule_selection(tmp_path, capsys):
    rc = check_main(["--root", str(tmp_path), "--select", "NOPE999"])
    capsys.readouterr()
    assert rc == 2


# --------------------------------------------------------------------------
# The repo's own gate: the committed tree is clean.


def test_repo_tree_has_zero_non_baselined_findings(capsys):
    scan = [
        str(REPO_ROOT / piece)
        for piece in ("src", "benchmarks", "tools", "tests")
        if (REPO_ROOT / piece).is_dir()
    ]
    rc = check_main(["--root", str(REPO_ROOT), *scan])
    out = capsys.readouterr().out
    assert rc == 0, f"new findings in the committed tree:\n{out}"


def test_repo_baseline_has_no_placeholder_justifications():
    baseline_path = REPO_ROOT / "tools" / "gqbecheck" / "baseline.json"
    entries = load_baseline(baseline_path)
    placeholders = [
        entry
        for entry in entries
        if entry.get("justification", "").startswith("TODO")
    ]
    assert placeholders == [], "baseline entries must carry real justifications"


def test_every_contract_path_names_a_source_file():
    """A deleted module cannot leave a dead contract entry behind."""
    from tools.gqbecheck.project import CONTRACT_PATHS

    sources = [
        path.relative_to(REPO_ROOT).as_posix()
        for path in (REPO_ROOT / "src").rglob("*.py")
    ]
    dead = [
        fragment
        for fragments in CONTRACT_PATHS.values()
        for fragment in fragments
        if not any(fragment in source for source in sources)
    ]
    assert dead == []
