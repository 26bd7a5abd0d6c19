"""`python -m sboxsim`: the command-line front end, from a source
checkout (PYTHONPATH=src) as well as from an installed package."""

import sys

from .cli import main

sys.exit(main())
