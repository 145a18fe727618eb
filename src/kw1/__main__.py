"""``python -m kw1``: the ``kw1`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
