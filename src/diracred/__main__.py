"""``python -m diracred``: the command line of diracred.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
