"""Shared exception types.

Invalid parameters raise plain ValueError.  ResourceLimitError marks runs
that hit an explicit budget (the clique budget, the search work budget);
the CLI maps the two to distinct exit codes so callers can tell "wrong
input" from "too big to finish".
"""


class ResourceLimitError(Exception):
    """An explicit resource budget was exceeded; the answer is not wrong, just absent."""
