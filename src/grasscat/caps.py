"""The enumeration cap.

Every enumeration walks a number of items that grows as a product of level
counts (the allowed states) or as 2**q (the states or subsets of q bits).
One cap bounds that number, in that one unit: 2**20 items by default, so a
2**q scan runs up to q = 20, or the positive integer in the GRASSCAT_CAP
environment variable; an empty or unset value means the default.
GRASSCAT_CAP is the only setting: library functions take no per-call cap,
and each calls :func:`check_cap` on every call, before any enumeration.
"""

from __future__ import annotations

import os

from .errors import EnumerationCapError

ENV_VAR = "GRASSCAT_CAP"

CAP_DEFAULT = 2**20  # items per enumeration


def check_cap(n: int, owner: str, items: str = "states") -> None:
    """Raise EnumerationCapError, "{owner} has {n} {items}, exceeding the cap
    {cap}", when an enumeration of ``n`` items exceeds the cap; call it with
    the count to walk, before any work."""
    env = os.environ.get(ENV_VAR)
    if not env:
        limit = CAP_DEFAULT
    elif env.strip().isdecimal() and int(env) > 0:
        limit = int(env)
    else:
        raise EnumerationCapError(f"{ENV_VAR}={env!r} is not a positive integer")
    if n > limit:
        raise EnumerationCapError(f"{owner} has {n} {items}, exceeding the cap {limit}")
