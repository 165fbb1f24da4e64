"""``python -m caliblab``: the command line of ``caliblab.cli``."""

import sys

from .cli import main

sys.exit(main())
