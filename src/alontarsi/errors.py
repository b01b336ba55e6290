"""Exceptions shared across the package.

Guards are loud by design: an exact search that would exceed its size bound
(a vertex or edge count, live polynomial terms, or search nodes) raises the
one guard exception, SizeGuardExceeded, instead of silently truncating or
approximating.
"""


class SizeGuardExceeded(Exception):
    """An exact search was asked to run past its size guard, or a polynomial
    expansion grew past its live-term bound."""


class InvalidConfig(ValueError):
    """A clique configuration is malformed or breaks the intersection rule."""
