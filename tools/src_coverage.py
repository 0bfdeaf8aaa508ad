"""List the lines of ``src/kacwalk`` that a pytest run never reaches.

    python3 tools/src_coverage.py [pytest arguments]

Run from the repository root; with no arguments pytest runs the suite
that ``pyproject.toml`` configures (tier-1). This is a stdlib-only line
coverage: it starts ``pytest.main()`` in this process under
``sys.settrace`` (and ``threading.settrace``), traces only frames whose
file lies under ``src/kacwalk`` and hands every other frame back
untraced. The executable lines of a module are the line numbers its
compiled code objects list in ``co_lines()``, recursively. The script
prints one ``path:line: source`` line for each executable line that no
traced frame reached, then a one-line summary, and exits with pytest's
status.

Tests that start ``kkw`` or a script in a subprocess are not traced, so
lines reached only there are listed. Tracing about doubles the run: on
a 2-vCPU VM it took 37 s where tier-1 alone took 18 s.
"""

import sys
import threading
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kacwalk"


def executable_lines(code):
    """Every line number a code object or one nested in it runs."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def trace_run(args):
    """Run pytest with args under the tracer; return (exit status,
    {file name: set of lines reached})."""
    reached = {}
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def watch(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(watch)
    sys.settrace(watch)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, reached


def main(args):
    status, reached = trace_run(args)
    missed = 0
    total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = executable_lines(compile(source, str(path), "exec"))
        text = source.splitlines()
        total += len(lines)
        for line in sorted(lines - reached.get(str(path), set())):
            missed += 1
            print(f"{path.relative_to(SRC.parents[1])}:{line}: "
                  f"{text[line - 1].strip()}")
    print(f"{missed} of {total} executable lines never reached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
