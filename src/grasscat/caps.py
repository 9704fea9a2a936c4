"""Enumeration caps.

Several operations enumerate discrete state spaces whose size grows as a
product of level counts or as 2**q.  Each has a conservative default cap;
the GRASSCAT_CAP environment variable sets all of them at once.  Its value
must be a positive integer; an empty or unset value means the defaults.
GRASSCAT_CAP is the only setting: library functions take no per-call cap,
and each reads the variable on every call, before any enumeration.
"""

from __future__ import annotations

import os

from .errors import EnumerationCapError

ENV_VAR = "GRASSCAT_CAP"

STATE_CAP_DEFAULT = 10**6  # product-of-levels enumerations
BIT_CAP_DEFAULT = 20  # 2**q enumerations (check_p0, mixed normalization, oracle)


def _cap(default: int) -> int:
    env = os.environ.get(ENV_VAR)
    if not env:
        return default
    if not env.strip().isdecimal() or int(env) <= 0:
        raise EnumerationCapError(f"{ENV_VAR}={env!r} is not a positive integer")
    return int(env)


def state_cap() -> int:
    """Cap on the number of allowed states (product of level counts)."""
    return _cap(STATE_CAP_DEFAULT)


def bit_cap() -> int:
    """Cap on the bit dimension q for full 2**q enumerations."""
    return _cap(BIT_CAP_DEFAULT)


def check_bit_cap(q: int) -> None:
    """Raise EnumerationCapError when a 2**q enumeration exceeds the bit cap;
    call it before any 2**q work."""
    limit = bit_cap()
    if q > limit:
        raise EnumerationCapError(f"q={q} exceeds the 2**q enumeration cap {limit}")
