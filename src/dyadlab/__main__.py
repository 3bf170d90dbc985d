"""`python -m dyadlab`: the command-line interface of `dyadlab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
