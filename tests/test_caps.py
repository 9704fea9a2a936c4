"""The enumeration cap at its 2**q scans: each checks 2**q items against it
before any 2**q work and fails with the same message.  GRASSCAT_CAP is its
only setting."""

import numpy as np
import pytest

import grasscat.grassmann
import grasscat.mixed
import grasscat.oracle
import grasscat.schema
from grasscat.errors import EnumerationCapError
from grasscat.grassmann import check_p0
from grasscat.mixed import MixedParams, mixed_joint_density
from grasscat.oracle import brute_force_table
from grasscat.schema import VariableDecl, VariableSchema, allowed_table

from generators import CAT, ORD, random_valid_params

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
        [(grasscat.mixed, "_log_minors"), (grasscat.mixed, "_subset_minors")],
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
        EnumerationCapError, match=rf"^a q={Q} model has {2**Q} states, exceeding the cap {Q - 1}$"
    ):
        call()


class _Started(Exception):
    """Raised in place of the enumeration: the cap let the call through."""


def _started(*args):
    raise _Started


def _scan(name, q, monkeypatch):
    """Run the 2**q entry point ``name`` on a q-bit model with its work
    replaced by :class:`_Started`, so a large q costs nothing past the cap."""
    call = {
        "check_p0": lambda p: check_p0(p),
        "mixed": lambda p: mixed_joint_density(
            MixedParams(mu=np.zeros(1), sigma=np.eye(1), lam=p.lam, G=np.zeros((q, 1))),
            np.zeros(1), (0,) * q,
        ),
        "oracle": lambda p: brute_force_table(p),
    }[name]
    for module, attr in CASES[name][1]:
        monkeypatch.setattr(module, attr, _started)
    call(random_valid_params(np.random.default_rng(5), q))


@pytest.mark.parametrize("name", sorted(CASES))
class TestOneUnit:
    """Every enumeration counts the items it walks: 2**q for the scans, the
    allowed states for the schema's table, against one cap."""

    def test_default_lets_q20_scans_through_and_stops_q21(self, name, monkeypatch):
        monkeypatch.delenv("GRASSCAT_CAP", raising=False)
        with pytest.raises(_Started):
            _scan(name, 20, monkeypatch)
        with pytest.raises(
            EnumerationCapError, match=r"^a q=21 model has 2097152 states, exceeding the cap 1048576$"
        ):
            _scan(name, 21, monkeypatch)

    @pytest.mark.parametrize("cap", [2**Q, 2**Q - 1, 2**Q + 1])
    def test_a_scan_passes_exactly_when_2_to_the_q_fits(self, name, cap, monkeypatch):
        monkeypatch.setenv("GRASSCAT_CAP", str(cap))
        if 2**Q <= cap:
            CASES[name][0]()
        else:
            with pytest.raises(EnumerationCapError, match=rf"^a q={Q} model has {2**Q} states"):
                CASES[name][0]()

    def test_a_schema_sized_cap_keeps_its_guard(self, name, monkeypatch):
        """A cap set for a large schema is a count, not a bit dimension: at
        2,000,000 a q = 21 scan (2,097,152 states) is still refused."""
        monkeypatch.setenv("GRASSCAT_CAP", "2000000")
        with pytest.raises(_Started):
            _scan(name, 20, monkeypatch)
        with pytest.raises(
            EnumerationCapError, match=r"^a q=21 model has 2097152 states, exceeding the cap 2000000$"
        ):
            _scan(name, 21, monkeypatch)


class TestAllowedStates:
    def test_default_refuses_one_state_past_2_to_the_20_before_the_table(self, monkeypatch):
        monkeypatch.delenv("GRASSCAT_CAP", raising=False)
        monkeypatch.setattr(grasscat.schema, "_build_allowed_table", _no_work)
        # 17 * 61681 = 2**20 + 1 allowed states
        schema = VariableSchema([VariableDecl("a", CAT, 17), VariableDecl("b", CAT, 61681)])
        with pytest.raises(
            EnumerationCapError,
            match=r"^schema has 1048577 allowed states, exceeding the cap 1048576$",
        ):
            allowed_table(schema)

    def test_default_lets_2_to_the_20_states_through(self, monkeypatch):
        monkeypatch.delenv("GRASSCAT_CAP", raising=False)
        monkeypatch.setattr(grasscat.schema, "_build_allowed_table", _started)
        with pytest.raises(_Started):
            allowed_table(VariableSchema([VariableDecl(f"v{i}", CAT, 2) for i in range(20)]))

    def test_n_states_pass_at_cap_n_and_n_plus_one_do_not(self, monkeypatch):
        monkeypatch.setenv("GRASSCAT_CAP", "24")
        assert len(allowed_table(VariableSchema([VariableDecl("x", ORD, 24)]))[0]) == 24
        with pytest.raises(
            EnumerationCapError, match=r"^schema has 25 allowed states, exceeding the cap 24$"
        ):
            allowed_table(VariableSchema([VariableDecl("x", ORD, 25)]))
