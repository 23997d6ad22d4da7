"""Entry point: ``python -m repro.dirtbuster``."""

import sys

from repro.dirtbuster.cli import main

if __name__ == "__main__":
    sys.exit(main())
