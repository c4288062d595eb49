"""`python -m ss3`: the ss3 command line (ss3.cli.main)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
