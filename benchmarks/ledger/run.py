"""The benchmark driver's entry point.

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
--trace 0|1`` from the root of a checkout: runs one workload, checks
its outputs, and prints one JSON object on the last line of stdout.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # Run as a script, sys.path[0] is this directory; the package is
    # imported from the checkout root instead, so no file here can
    # shadow a standard-library module.
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.ledger.cli import contract_main

    sys.exit(contract_main())
