"""Entry point for `python -m edgeprune`, the same command line as `edgeprune`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
