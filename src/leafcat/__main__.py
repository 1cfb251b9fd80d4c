"""`python -m leafcat`: the leafcat command line."""
from .cli import entry
entry()
