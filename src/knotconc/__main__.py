"""``python -m knotconc``: the command line interface of ``knotconc.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
