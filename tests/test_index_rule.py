"""One index rule for every reader of index sets: an index is accepted only
when it is an integer in value, ``int(v) == v``, as ``schema`` reads Record
levels.  So 2, 2.0 and np.int64(2) name bit 2, and 1.5, "1" and NaN raise
ParameterError with the reader's own message instead of naming another bit.
The 0/1 blocks of the per-variable pmfs likewise refuse any other entry."""

import numpy as np
import pytest

from grasscat.errors import ParameterError, SchemaError
from grasscat.grassmann import conditional_params, conditional_zero_moments, marginal_params
from grasscat.mixed import (
    MixedParams,
    MixedPartition,
    conditional_binary_given_continuous,
    mixed_conditional_density,
)
from grasscat.oracle import brute_force_table, oracle_conditional, oracle_marginal
from grasscat.structure import categorical_pmf, ordinal_pmf

from generators import random_valid_params

BAD = [1.5, "1", float("nan")]
GOOD = [1.0, np.int64(1), np.float64(1.0)]


@pytest.fixture
def p():
    return random_valid_params(np.random.default_rng(3), 3)


@pytest.fixture
def mp(p):
    return MixedParams(
        mu=np.zeros(2), sigma=np.eye(2), lam=p.lam, G=np.full((3, 2), 0.3)
    )


def _same(a, b):
    return np.array_equal(a.lam, b.lam) and np.array_equal(a.sig, b.sig)


class TestGrassmann:
    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_marginal_refuses(self, p, bad):
        with pytest.raises(ParameterError, match=r"^T \(.*\) must be distinct indices in \[0, 3\)$"):
            marginal_params(p, [0, bad])

    @pytest.mark.parametrize("good", GOOD, ids=repr)
    def test_marginal_reads_integral_values(self, p, good):
        assert _same(marginal_params(p, [0, good]), marginal_params(p, [0, 1]))

    @pytest.mark.parametrize("bad", [0.9, *BAD], ids=repr)
    def test_conditional_refuses(self, p, bad):
        with pytest.raises(ParameterError, match=r"^T \(.*\) must be distinct indices in \[0, 3\)$"):
            conditional_params(p, [bad], [1])

    @pytest.mark.parametrize("good", GOOD, ids=repr)
    def test_conditional_reads_integral_values(self, p, good):
        assert _same(conditional_params(p, [good], [1]), conditional_params(p, [1], [1]))

    @pytest.mark.parametrize("bad", [0.5, *BAD], ids=repr)
    def test_zero_moments_refuse(self, p, bad):
        with pytest.raises(ParameterError, match=r"^indices r=.* and s=1 must lie in \[0, 3\)$"):
            conditional_zero_moments(p, bad, 1)
        with pytest.raises(ParameterError, match=r"^indices r=1 and s=.* must lie in \[0, 3\)$"):
            conditional_zero_moments(p, 1, bad)

    @pytest.mark.parametrize("good", [0.0, np.int64(0)], ids=repr)
    def test_zero_moments_read_integral_values(self, p, good):
        assert conditional_zero_moments(p, good, 2) == conditional_zero_moments(p, 0, 2)


class TestMixed:
    @pytest.mark.parametrize("bad", [0.5, *BAD], ids=repr)
    def test_binary_given_continuous_refuses(self, mp, bad):
        with pytest.raises(ParameterError, match=r"^T \(.*\) must be distinct indices in \[0, 3\)$"):
            conditional_binary_given_continuous(mp, np.zeros(2), (bad,), (1,))

    @pytest.mark.parametrize("good", GOOD, ids=repr)
    def test_binary_given_continuous_reads_integral_values(self, mp, good):
        x = np.array([0.3, -0.2])
        assert _same(
            conditional_binary_given_continuous(mp, x, (good,), (1,)),
            conditional_binary_given_continuous(mp, x, (1,), (1,)),
        )

    @pytest.mark.parametrize("bad", [0.5, *BAD], ids=repr)
    def test_partition_refuses_a_continuous_index(self, mp, bad):
        part = MixedPartition(J=(bad,), L=(), K=(1,), S=(0,), U=(1, 2), T=())
        with pytest.raises(ParameterError, match=r"^\(J, L, K\) must partition 0\.\.1$"):
            mixed_conditional_density(mp, part, np.zeros(1), (1,), np.zeros(1), ())

    @pytest.mark.parametrize("bad", [0.5, *BAD], ids=repr)
    def test_partition_refuses_a_binary_index(self, mp, bad):
        part = MixedPartition(J=(0,), L=(), K=(1,), S=(0,), U=(bad, 2), T=())
        with pytest.raises(ParameterError, match=r"^\(S, U, T\) must partition 0\.\.2$"):
            mixed_conditional_density(mp, part, np.zeros(1), (1,), np.zeros(1), ())

    def test_partition_reads_integral_values(self, mp):
        args = (np.array([0.4]), (1,), np.array([-0.3]), (0,))
        floats = MixedPartition(J=(0.0,), L=(), K=(1.0,), S=(np.int64(0),), U=(1.0,), T=(2.0,))
        ints = MixedPartition(J=(0,), L=(), K=(1,), S=(0,), U=(1,), T=(2,))
        assert mixed_conditional_density(mp, floats, *args) == mixed_conditional_density(
            mp, ints, *args
        )


class TestOracle:
    @pytest.fixture
    def table(self, p):
        return brute_force_table(p)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_marginal_refuses(self, table, bad):
        with pytest.raises(ParameterError, match=r"^index set \(.*\) out of range$"):
            oracle_marginal(table, [bad])

    @pytest.mark.parametrize("good", GOOD, ids=repr)
    def test_marginal_reads_integral_values(self, table, good):
        assert oracle_marginal(table, [good]) == oracle_marginal(table, [1])

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_conditional_refuses(self, table, bad):
        with pytest.raises(ParameterError, match=r"^index set \(.*\) out of range$"):
            oracle_conditional(table, [0], [bad], [1])
        with pytest.raises(ParameterError, match=r"^index set \(.*\) out of range$"):
            oracle_conditional(table, [bad], [0], [1])

    @pytest.mark.parametrize("good", GOOD, ids=repr)
    def test_conditional_reads_integral_values(self, table, good):
        assert oracle_conditional(table, [0], [good], [1]) == oracle_conditional(
            table, [0], [1], [1]
        )


class TestPmfBlocks:
    @pytest.mark.parametrize("block", [[0.5, 0], [0, 0.7], [np.nan, 0], [2, 0], [-1, 0]], ids=repr)
    def test_categorical_refuses_a_non_bit(self, block):
        with pytest.raises(SchemaError, match=r"^block .* is not one-hot-or-zero$"):
            categorical_pmf([0.0, 0.0], block)

    @pytest.mark.parametrize("block", [[1, 0.7], [0.5, 0], [np.nan, 0], [2, 0], [1, -1]], ids=repr)
    def test_ordinal_refuses_a_non_bit(self, block):
        with pytest.raises(SchemaError, match=r"^block .* is not a left-flushed prefix$"):
            ordinal_pmf([0.0, 0.0], block)

    def test_bits_keep_their_values(self):
        b = np.array([0.3, -1.2])
        for y in ([0, 0], [1, 0], [0, 1], [1.0, 0.0], [True, False]):
            want = np.exp(np.dot(y, b)) / (1.0 + np.exp(b).sum())
            assert categorical_pmf(b, y) == pytest.approx(want, rel=1e-15)
        for y in ([0, 0], [1, 0], [1, 1], [1.0, 1.0]):
            want = np.exp(np.dot(y, b)) / (1.0 + np.exp(np.cumsum(b)).sum())
            assert ordinal_pmf(b, y) == pytest.approx(want, rel=1e-15)
