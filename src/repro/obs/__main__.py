"""Entry point: ``python -m repro.obs``."""

import sys

from repro.obs.cli import main

if __name__ == "__main__":
    sys.exit(main())
