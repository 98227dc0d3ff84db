"""``python -m alcoved``: the command-line front end of ``alcoved.cli``."""

from .cli import main

main()
