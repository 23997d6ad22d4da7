"""Entry point: ``python -m repro.traffic``."""

import sys

from repro.traffic.cli import main

if __name__ == "__main__":
    sys.exit(main())
