#!/usr/bin/env python3
"""Calibration sweep: measure the paper's 47 Table 2–5 cells and print
each beside the published value.  A development tool for tuning
``repro/costs.py``; the bench estate asserts only shape relations.

Usage: python tools/calibrate.py   (about 2 s; runs from any directory)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.paper import grid, render  # noqa: E402

for line in render(grid()):
    print(line)
