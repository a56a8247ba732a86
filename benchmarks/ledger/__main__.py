"""``python -m benchmarks.ledger run | compare | smoke``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
