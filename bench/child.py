"""Entry point of the fresh interpreter that runs one benchmark pass.

Usage: python3 child.py REPORT MODE [GENCONG_ARGS...]

MODE is ``off`` (plain), ``lat`` (per-record clocks) or ``on`` (traced
seams).  The stamp after ``import gencong.cli`` ends set-up; the
harness module is imported after it, so its cost is not counted.  This file
stays small because the interpreter compiles it before the clock can stop.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import gencong.cli  # noqa: E402

READY = time.monotonic()

import probe  # noqa: E402

sys.exit(probe.main(READY, sys.argv[1:]))
