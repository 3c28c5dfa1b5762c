#!/usr/bin/env python3
"""Lint tracepoint call sites against the schema catalogue.

Scans ``src/repro`` for ``.instant(...)`` / ``.complete(...)`` /
``.counter(...)`` calls with a string-literal first argument and checks
that every name

* follows the ``subsystem.verb`` convention (:data:`repro.obs.schema.NAME_RE`),
* is registered in :data:`repro.obs.schema.TRACEPOINTS`.

Exit status 1 lists every violation; 0 means the catalogue is complete.
Run from the repo root: ``PYTHONPATH=src python tools/check_tracepoints.py``.
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.schema import NAME_RE, TRACEPOINTS  # noqa: E402

CALL_RE = re.compile(
    r"\.(?:instant|complete|counter)\(\s*(['\"])([^'\"]+)\1"
)

#: tracepoints that must have at least one live emission site — the
#: fail-stop suite's CI assertions grep traces for these, so a refactor
#: that silently drops the call site must fail here, not in a flaky
#: downstream crash test.
REQUIRED_EMITTED = {
    "liveness.suspect",
    "liveness.confirm",
    "repair.replan",
    "repair.void",
    "engine.watchdog",
}


def scan(text: str, rel: str, used: set) -> list:
    """Violations at the call sites in one file's *text*; adds every
    name found to *used*.  The whole text is matched at once, so a call
    whose name sits on a later line than ``.instant(`` is still seen."""
    violations = []
    for m in CALL_RE.finditer(text):
        name = m.group(2)
        lineno = text.count("\n", 0, m.start(2)) + 1
        used.add(name)
        if not NAME_RE.match(name):
            violations.append(
                f"{rel}:{lineno}: tracepoint {name!r} does not match "
                f"subsystem.verb ({NAME_RE.pattern})")
        elif name not in TRACEPOINTS:
            violations.append(
                f"{rel}:{lineno}: tracepoint {name!r} is not registered "
                f"in repro.obs.schema.TRACEPOINTS")
    return violations


def main() -> int:
    violations = []
    used = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        violations += scan(path.read_text(), str(path.relative_to(ROOT)), used)
    missing_required = sorted(REQUIRED_EMITTED - set(TRACEPOINTS))
    for name in missing_required:
        violations.append(
            f"required tracepoint {name!r} is not registered in "
            f"repro.obs.schema.TRACEPOINTS")
    for name in sorted(REQUIRED_EMITTED & set(TRACEPOINTS) - used):
        violations.append(
            f"required tracepoint {name!r} is catalogued but has no "
            f"emission site under src/repro")
    for v in violations:
        print(v)
    unused = sorted(set(TRACEPOINTS) - used - REQUIRED_EMITTED)
    if unused:
        print(f"note: catalogued but never emitted: {', '.join(unused)}",
              file=sys.stderr)
    if violations:
        print(f"{len(violations)} tracepoint violation(s)", file=sys.stderr)
        return 1
    print(f"tracepoints OK: {len(used)} names in use, "
          f"{len(TRACEPOINTS)} catalogued")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
