"""Entry point: ``python -m repro.faults``."""

import sys

from repro.faults.cli import main

if __name__ == "__main__":
    sys.exit(main())
