"""`python -m socialcell`: the `socialcell` command line."""

import sys

from .cli import main

sys.exit(main())
