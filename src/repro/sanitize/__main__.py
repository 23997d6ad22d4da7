"""Entry point: ``python -m repro.sanitize``."""

import sys

from repro.sanitize.cli import main

if __name__ == "__main__":
    sys.exit(main())
