"""``python -m dualgrad``: the command line, exiting with ``cli.main``'s code."""

import sys

from .cli import main

sys.exit(main())
