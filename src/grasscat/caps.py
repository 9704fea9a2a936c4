"""Enumeration caps.

Several operations enumerate discrete state spaces whose size grows as a
product of level counts or as 2**q.  Each has a conservative default cap;
the GRASSCAT_CAP environment variable overrides all of them at once.  Its
value must be a positive integer; an empty value means the defaults.
"""

from __future__ import annotations

import os

from .errors import EnumerationCapError

ENV_VAR = "GRASSCAT_CAP"

STATE_CAP_DEFAULT = 10**6  # product-of-levels enumerations
BIT_CAP_DEFAULT = 20  # 2**q enumerations (check_p0, mixed normalization, oracle)


def _cap(override: int | None, default: int) -> int:
    if override is not None:
        return override
    env = os.environ.get(ENV_VAR)
    if not env:
        return default
    if not env.strip().isdecimal() or int(env) <= 0:
        raise EnumerationCapError(f"{ENV_VAR}={env!r} is not a positive integer")
    return int(env)


def state_cap(override: int | None = None) -> int:
    """Cap on the number of allowed states (product of level counts)."""
    return _cap(override, STATE_CAP_DEFAULT)


def bit_cap(override: int | None = None) -> int:
    """Cap on the bit dimension q for full 2**q enumerations."""
    return _cap(override, BIT_CAP_DEFAULT)
