"""``python -m sparsekf``: the command-line interface of ``sparsekf.cli``."""

from .cli import console_main

console_main()
