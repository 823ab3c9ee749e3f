"""Run the command-line interface as ``python -m iupm``."""

import sys

from .cli import main

sys.exit(main())
