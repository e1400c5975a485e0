"""python -m hiddensums: the hiddensums command line (see cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
