"""The 2**q enumeration cap: each 2**q enumeration checks it before any
2**q work and fails with the same message.  GRASSCAT_CAP is its only
setting."""

import numpy as np
import pytest

import grasscat.grassmann
import grasscat.mixed
import grasscat.oracle
from grasscat.errors import EnumerationCapError
from grasscat.grassmann import check_p0
from grasscat.mixed import MixedParams, mixed_joint_density
from grasscat.oracle import brute_force_table

from generators import random_valid_params

Q = 5


def _no_work(*args):
    raise AssertionError("2**q work started before the cap check")


def _check_p0():
    check_p0(random_valid_params(np.random.default_rng(5), Q))


def _mixed():
    mp = MixedParams(mu=np.zeros(1), sigma=np.eye(1), lam=2.0 * np.eye(Q), G=np.zeros((Q, 1)))
    mixed_joint_density(mp, np.zeros(1), (0,) * Q)


def _oracle():
    brute_force_table(random_valid_params(np.random.default_rng(5), Q))


CASES = {
    "check_p0": (_check_p0, [(grasscat.grassmann, "_log_minors")]),
    "mixed": (
        _mixed,
        [(grasscat.mixed, "_log_minors"), (grasscat.mixed, "_subset_sums")],
    ),
    "oracle": (_oracle, [(grasscat.oracle, "_naive_det")]),
}


@pytest.mark.parametrize("name", sorted(CASES), ids=lambda name: f"{name}-env")
def test_cap_checked_before_any_enumeration(name, monkeypatch):
    call, work = CASES[name]
    for module, attr in work:
        monkeypatch.setattr(module, attr, _no_work)
    monkeypatch.setenv("GRASSCAT_CAP", str(Q - 1))
    with pytest.raises(
        EnumerationCapError, match=rf"^q={Q} exceeds the 2\*\*q enumeration cap {Q - 1}$"
    ):
        call()
