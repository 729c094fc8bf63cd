#!/usr/bin/env python3
"""foam_lint: CI-blocking memory-order and hot-path hygiene wall.

Rules
-----
1. mo-justification: every use of ``memory_order_relaxed`` in src/ must
   carry a ``// mo:`` justification comment on the same line or within the
   two lines above it. Relaxed is the ordering that silently "works" until
   it doesn't; the comment forces the author to state the invariant that
   makes it legal (single writer, standalone flag, statistical sample, ...)
   where the model checker and reviewers can see it.

   Exemptions: ``src/mc/`` (the model checker manipulates memory orders as
   *data* — defaults, demotion tables, trace formatting) and ``tests/`` /
   ``bench/`` (litmus tests use deliberately wrong orderings; the checker,
   not a comment, is their justification).

2. hot-path-purity: ``src/par/spsc.hpp`` is the lock-free hot path of the
   messaging runtime. No ``std::mutex``, ``condition_variable``, or any
   sleep primitive may appear in its code (comments excluded) — a blocking
   construct there would void the wait-free push/pop contract the model
   checker verifies and the watchdog's stall attribution assumes.

3. no-blocking-mailbox: ``src/par/comm.{hpp,cpp}`` carry every message
   over the SPSC channels, and blocked waits poll. No
   ``condition_variable`` may appear in their code (comments excluded), so
   the retired mutex/condition-variable mailbox cannot come back.

4. thread-owners: a ``std::thread`` (or ``std::jthread``) may only be
   constructed in ``src/par/comm.cpp`` (rank threads),
   ``src/par/team.{hpp,cpp}`` (a rank's helpers; the header declares the
   Team's thread vector), ``src/telemetry/observe.cpp`` (the monitor) and
   ``src/mc/`` (the checker's virtual threads). Any other thread would be
   one no team accounts for and no Comm owner check knows about. Names of
   nested members (``std::thread::id``, ``hardware_concurrency``) are fine.

5. ocean-row-sweeps: no ``wrap_x(`` in the code of ``src/ocean/``
   (comments excluded). The ocean's sweeps run over row pointers with the
   two wrap columns peeled (DESIGN.md, "Ocean sweeps"); a per-cell
   periodic index brings back the modulo on every neighbour and keeps the
   loop from vectorizing.

Exit status: 0 clean, 1 findings (one ``file:line: message`` per line).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

RELAXED = re.compile(r"\bmemory_order_relaxed\b")
MO_COMMENT = re.compile(r"//\s*mo:")
# Blocking constructs forbidden in the spsc hot path. \b doesn't follow
# "sleep_for(" fully but the names are distinctive enough.
BLOCKING = re.compile(
    r"\bstd::mutex\b|\bstd::condition_variable\b|\bstd::shared_mutex\b"
    r"|\bsleep_for\b|\bsleep_until\b|\busleep\b|\bnanosleep\b|\bsleep\s*\("
)

MO_SCAN_ROOTS = ["src"]
MO_EXEMPT_PREFIXES = ["src/mc/"]
HOT_PATHS = ["src/par/spsc.hpp"]
CONDVAR = re.compile(r"\bcondition_variable(?:_any)?\b")
NO_CONDVAR_PATHS = ["src/par/comm.hpp", "src/par/comm.cpp"]
THREAD = re.compile(r"\bstd::j?thread\b(?!::)")
THREAD_OWNERS = ["src/par/comm.cpp", "src/par/team.hpp", "src/par/team.cpp",
                 "src/telemetry/observe.cpp"]
THREAD_OWNER_PREFIXES = ["src/mc/"]
WRAP_X = re.compile(r"\bwrap_x\s*\(")
ROW_SWEEP_PREFIX = "src/ocean/"


def strip_line_comment(line: str) -> str:
    """Drop a // comment (good enough: the scanned files use no /* */)."""
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


def lint_mo_justification(path: Path, rel: str, findings: list[str]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if not RELAXED.search(strip_line_comment(line)):
            continue
        window = lines[max(0, i - 3) : i + 1]
        if any(MO_COMMENT.search(w) for w in window):
            continue
        findings.append(
            f"{rel}:{i + 1}: memory_order_relaxed without a '// mo:' "
            "justification on the line or within 3 lines above"
        )


def lint_hot_path(path: Path, rel: str, findings: list[str]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        code = strip_line_comment(line)
        m = BLOCKING.search(code)
        if m:
            findings.append(
                f"{rel}:{i + 1}: blocking construct '{m.group(0)}' in the "
                "lock-free hot path (spsc.hpp must stay mutex- and "
                "sleep-free)"
            )


def lint_no_condvar(path: Path, rel: str, findings: list[str]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        m = CONDVAR.search(strip_line_comment(line))
        if m:
            findings.append(
                f"{rel}:{i + 1}: '{m.group(0)}' in the messaging runtime "
                "(waits poll the SPSC channels; no blocking mailbox)"
            )


def lint_thread_owners(path: Path, rel: str, findings: list[str]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        m = THREAD.search(strip_line_comment(line))
        if m:
            findings.append(
                f"{rel}:{i + 1}: '{m.group(0)}' outside the thread owners "
                "(par/comm.cpp, par/team.*, telemetry/observe.cpp, mc/); "
                "run the work on the rank's par::Team instead"
            )


def lint_row_sweeps(path: Path, rel: str, findings: list[str]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if WRAP_X.search(strip_line_comment(line)):
            findings.append(
                f"{rel}:{i + 1}: 'wrap_x(' in the ocean; sweep rows with "
                "the wrap columns peeled (DESIGN.md, \"Ocean sweeps\")"
            )


def main() -> int:
    findings: list[str] = []

    for root in MO_SCAN_ROOTS:
        for path in sorted((REPO / root).rglob("*")):
            if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
                continue
            rel = path.relative_to(REPO).as_posix()
            if any(rel.startswith(p) for p in MO_EXEMPT_PREFIXES):
                continue
            lint_mo_justification(path, rel, findings)

    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
            continue
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith(ROW_SWEEP_PREFIX):
            lint_row_sweeps(path, rel, findings)
        if rel in THREAD_OWNERS or any(
            rel.startswith(p) for p in THREAD_OWNER_PREFIXES
        ):
            continue
        lint_thread_owners(path, rel, findings)

    for hot in HOT_PATHS:
        path = REPO / hot
        if path.exists():
            lint_hot_path(path, hot, findings)
        else:
            findings.append(f"{hot}: hot-path file missing (lint config stale?)")

    for rel in NO_CONDVAR_PATHS:
        path = REPO / rel
        if path.exists():
            lint_no_condvar(path, rel, findings)
        else:
            findings.append(f"{rel}: file missing (lint config stale?)")

    for f in findings:
        print(f)
    if findings:
        print(f"foam_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("foam_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
