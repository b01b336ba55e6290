"""Exceptions shared across the package.

Guards are loud by design: an exact search that would exceed its configured
size bound raises instead of silently truncating or approximating.
"""


class SizeGuardExceeded(Exception):
    """An exact enumeration was asked to run past its configured size guard."""


class MemoryGuardExceeded(Exception):
    """A polynomial expansion grew past its configured live-term bound."""


class InvalidConfig(ValueError):
    """A clique configuration is malformed or breaks the intersection rule."""
