import numpy as np
import pytest

from grasscat.errors import EnumerationCapError
from grasscat.grassmann import (
    GrassmannParams,
    IndexPartition,
    conditional_params,
    joint_probability,
    marginal_params,
    moments,
)
from grasscat.oracle import (
    _naive_det,
    brute_force_table,
    oracle_conditional,
    oracle_marginal,
)

from generators import random_valid_params
from reference_values import READER_LAMBDA_MINUS_I


def test_naive_det_matches_lapack():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5, 6, 8, 10):
        a = rng.normal(size=(n, n))
        assert _naive_det(a) == pytest.approx(np.linalg.det(a), rel=1e-9)


def test_independent_table():
    table = brute_force_table(GrassmannParams.from_lambda(np.diag([2.0, 2.0])))
    np.testing.assert_allclose(table.probs, 0.25, atol=1e-15)


def test_reader_mass_sits_on_allowed_states():
    from generators import reader_style_schema
    from grasscat.oracle import allowed_restriction

    params = GrassmannParams.from_lambda(np.eye(6) + READER_LAMBDA_MINUS_I)
    table = brute_force_table(params)
    _, allowed_probs = allowed_restriction(table, reader_style_schema())
    assert allowed_probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert len(allowed_probs) == 24
    disallowed_mass = table.probs.sum() - allowed_probs.sum()
    assert abs(disallowed_mass) <= 1e-12
    assert table.probs.min() >= -1e-12


def test_random_table_self_consistency():
    rng = np.random.default_rng(4)
    p = random_valid_params(rng, 5)
    table = brute_force_table(p)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert table.probs.min() >= -1e-12


def test_marginal_over_everything_is_table():
    rng = np.random.default_rng(6)
    p = random_valid_params(rng, 3)
    table = brute_force_table(p)
    marg = oracle_marginal(table, [0, 1, 2])
    for mask, prob in enumerate(table.probs):
        key = tuple((mask >> i) & 1 for i in range(3))
        assert marg[key] == pytest.approx(prob, abs=1e-15)


def test_conditional_on_zero_probability_event_flagged():
    # a parameter with an exactly zero state: repeated rows
    lam_mi = np.array([[1.0, 1.0], [1.0, 1.0]])
    p = GrassmannParams.from_lambda(np.eye(2) + lam_mi)
    table = brute_force_table(p)
    cond = oracle_conditional(table, (0,), (1,), [1])
    # conditioning on y_1 = 1 is fine; conditioning on the impossible joint
    both = oracle_conditional(table, (), (0, 1), [1, 1])
    assert cond.defined
    assert not both.defined


def test_cap_respected(monkeypatch):
    rng = np.random.default_rng(10)
    p = random_valid_params(rng, 4)
    monkeypatch.setenv("GRASSCAT_CAP", "3")
    with pytest.raises(EnumerationCapError):
        brute_force_table(p)


def test_oracle_and_core_agree_across_queries():
    rng = np.random.default_rng(13)
    for trial in range(20):
        q = int(rng.integers(2, 7))
        p = random_valid_params(rng, q)
        table = brute_force_table(p)
        mean, cov = moments(p)
        np.testing.assert_allclose(mean, table.mean, atol=1e-9)
        np.testing.assert_allclose(cov, table.cov, atol=1e-9)
        T = sorted(rng.choice(q, size=max(1, q // 2), replace=False).tolist())
        m = marginal_params(p, T)
        for pattern, want in oracle_marginal(table, T).items():
            assert joint_probability(m, pattern) == pytest.approx(want, abs=1e-9)
        S = tuple(i for i in range(q) if i not in T)
        if S:
            t1 = tuple(t for t in T if rng.random() < 0.5)
            want = oracle_conditional(table, S, tuple(T), [1 if t in t1 else 0 for t in T])
            if want.defined:
                c = conditional_params(p, IndexPartition(S=S, T=tuple(T), T1=t1))
                for pattern, target in want.probs.items():
                    assert joint_probability(c, pattern) == pytest.approx(
                        target, abs=1e-9
                    )
