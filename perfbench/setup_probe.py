"""Set-up probe: import kacwalk and resolve a ``kkw`` command line, then
print the monotonic clock so the parent can time interpreter start to
resolved config. Arguments are the ``kkw`` arguments, e.g.
``python3 perfbench/setup_probe.py square_walk --seed 0 --trials 3``."""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kacwalk import cli  # noqa: E402

cli.resolve_config(cli.build_parser().parse_args(sys.argv[1:]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
