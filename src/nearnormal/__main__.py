"""``python -m nearnormal``: the same command line as the ``nearnormal``
script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
