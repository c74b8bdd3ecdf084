"""List the lines of src/gapfill that no test executes.

Runs the tier-1 suite and the benchmark helper tests in this process
under sys.monitoring (Python 3.12+, no coverage package), then prints
each never-executed line range per module and a total:

    PYTHONPATH=src python tools/missed_lines.py [pytest args...]

Extra arguments replace the default test paths.  A line is executable
when the compiled module maps bytecode to it.  The exit status is
pytest's.
"""

from __future__ import annotations

import functools
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gapfill"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider",
                str(ROOT / "tests"), str(ROOT / "perfbench" / "tests")]


def executable_lines(path: Path) -> set:
    """Line numbers that any code object compiled from path runs."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(numbers):
    """'3-5, 9' for [3, 4, 5, 9]."""
    out = []
    for n in sorted(numbers):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def main(argv) -> int:
    if not hasattr(sys, "monitoring"):
        sys.exit("missed_lines: needs sys.monitoring (Python 3.12 or later)")
    import pytest

    mon = sys.monitoring
    tool = next(t for t in range(6) if mon.get_tool(t) is None)
    targets = {str(p): p for p in PACKAGE.glob("*.py")}
    hits = {name: set() for name in targets}
    resolve = functools.lru_cache(maxsize=None)(lambda f: str(Path(f).resolve()))

    def on_line(code, line):
        seen = hits.get(resolve(code.co_filename))
        if seen is not None:
            seen.add(line)
        return mon.DISABLE

    mon.use_tool_id(tool, "missed_lines")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    try:
        status = pytest.main(argv or DEFAULT_ARGS)
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)

    missed_total = total = 0
    for name, path in sorted(targets.items()):
        lines = executable_lines(path)
        missed = lines - hits[name]
        total += len(lines)
        missed_total += len(missed)
        if missed:
            print("%s: %s" % (path.relative_to(ROOT), ranges(missed)))
    print("%d of %d executable lines never ran" % (missed_total, total))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
