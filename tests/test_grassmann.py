import itertools
import tracemalloc

import numpy as np
import pytest

from grasscat.errors import ParameterError
from grasscat.grassmann import (
    GrassmannParams,
    all_state_probabilities,
    check_p0,
    conditional_params,
    conditional_zero_moments,
    joint_probability,
    marginal_params,
    moments,
    state_probabilities,
    _probabilities,
)
from grasscat.oracle import brute_force_table, oracle_conditional, oracle_marginal

from generators import random_valid_params
from reference_values import READER_LAMBDA_MINUS_I, READER_SIGMA


def reader_params():
    return GrassmannParams.from_lambda(np.eye(6) + READER_LAMBDA_MINUS_I)


class TestConstruction:
    def test_singular_lambda_rejected(self):
        with pytest.raises(ParameterError):
            GrassmannParams.from_lambda(np.ones((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 3), (0, 3)])
    @pytest.mark.parametrize("build, name", [("from_lambda", "lam"), ("from_sigma", "sig")])
    def test_non_square_input_rejected_as_non_square(self, build, name, shape):
        with pytest.raises(ParameterError, match=rf"^{name} must be square, got shape \({shape[0]}, 3\)$"):
            getattr(GrassmannParams, build)(np.zeros(shape))

    def test_inconsistent_pair_rejected(self):
        lam = np.diag([2.0, 2.0])
        with pytest.raises(ParameterError):
            GrassmannParams(lam=lam, sig=np.diag([0.5, 0.4]))

    def test_arrays_are_frozen(self):
        p = GrassmannParams.from_lambda(np.diag([2.0, 2.0]))
        with pytest.raises(ValueError):
            p.lam[0, 0] = 3.0


class TestJointProbability:
    def test_scalar(self):
        p = GrassmannParams.from_lambda(np.array([[2.0]]))
        assert joint_probability(p, [1]) == pytest.approx(0.5, abs=1e-15)
        assert joint_probability(p, [0]) == pytest.approx(0.5, abs=1e-15)

    def test_independent_pair(self):
        p = GrassmannParams.from_lambda(np.diag([2.0, 2.0]))
        assert joint_probability(p, [1, 1]) == pytest.approx(0.25, abs=1e-15)

    def test_reader_age_cooccurrence_is_zero(self):
        p = reader_params()
        # both Age bits set (indices 1 and 2) is disallowed
        for rest in itertools.product((0, 1), repeat=1):
            y = [rest[0], 1, 1, 0, 0, 0]
            assert abs(joint_probability(p, y)) <= 1e-12

    def test_normalization_over_all_states(self):
        rng = np.random.default_rng(7)
        for q in (2, 3, 4, 5):
            for _ in range(10):
                p = random_valid_params(rng, q)
                probs = all_state_probabilities(p)
                assert probs.min() >= -1e-12
                assert abs(probs.sum() - 1.0) <= 1e-10


class TestMarginal:
    def test_full_set_is_identity(self):
        rng = np.random.default_rng(3)
        p = random_valid_params(rng, 3)
        m = marginal_params(p, [0, 1, 2])
        np.testing.assert_allclose(m.sig, p.sig, atol=1e-12)

    def test_independent_diagonal(self):
        p = GrassmannParams.from_sigma(np.diag([0.3, 0.6]))
        m = marginal_params(p, [0])
        np.testing.assert_allclose(m.sig, [[0.3]], atol=1e-15)

    def test_against_enumeration(self):
        rng = np.random.default_rng(11)
        p = random_valid_params(rng, 4)
        table = brute_force_table(p)
        T = [0, 2]
        m = marginal_params(p, T)
        expected = oracle_marginal(table, T)
        for pattern, want in expected.items():
            assert joint_probability(m, pattern) == pytest.approx(want, abs=1e-10)

    def test_empty_set_rejected(self):
        p = GrassmannParams.from_lambda(np.diag([2.0, 2.0]))
        with pytest.raises(ParameterError):
            marginal_params(p, [])

    def test_unsorted_set_follows_the_callers_order(self):
        """marginal_params(p, (2, 0)) is the law of (y2, y0): each pattern
        is read in the caller's order, as oracle_marginal keys it."""
        rng = np.random.default_rng(12)
        p = random_valid_params(rng, 4)
        table = brute_force_table(p)
        m = marginal_params(p, (2, 0))
        expected = oracle_marginal(table, (2, 0))
        assert len(expected) == 4
        for pattern, want in expected.items():
            assert joint_probability(m, pattern) == pytest.approx(want, abs=1e-12)
        truth = table.probs[(table.states[:, 2] == 1) & (table.states[:, 0] == 0)].sum()
        assert joint_probability(m, (1, 0)) == pytest.approx(truth, abs=1e-12)
        assert expected[(1, 0)] == pytest.approx(truth, abs=1e-15)


class TestConditional:
    def test_unconditioned_independent_block(self):
        sig = np.diag([0.3, 0.4, 0.7])
        p = GrassmannParams.from_sigma(sig)
        c = conditional_params(p, (2,), (0,))
        np.testing.assert_allclose(c.sig, sig[:2, :2], atol=1e-12)

    def test_zero_covariance_conditional_equals_marginal(self):
        # sig with sig_01 * sig_10 = 0 gives zero covariance, and with the
        # off diagonal fully zero the conditional collapses to the marginal
        sig = np.array([[0.4, 0.0], [0.0, 0.6]])
        p = GrassmannParams.from_sigma(sig)
        for y_1 in (0, 1):
            c = conditional_params(p, (1,), (y_1,))
            np.testing.assert_allclose(c.sig, [[0.4]], atol=1e-12)

    def test_ratio_against_enumeration(self):
        rng = np.random.default_rng(5)
        p = random_valid_params(rng, 3)
        table = brute_force_table(p)
        c = conditional_params(p, (2,), (1,))
        expected = oracle_conditional(table, (0, 1), (2,), (1,))
        assert expected.defined
        for pattern, want in expected.probs.items():
            assert joint_probability(c, pattern) == pytest.approx(want, abs=1e-10)

    def test_all_patterns_small_q(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            q = int(rng.integers(2, 5))
            p = random_valid_params(rng, q)
            table = brute_force_table(p)
            idx = list(range(q))
            for t_size in range(1, q):
                for T in itertools.combinations(idx, t_size):
                    S = tuple(i for i in idx if i not in T)
                    for t1_size in range(t_size + 1):
                        for T1 in itertools.combinations(T, t1_size):
                            y_T = [1 if t in T1 else 0 for t in T]
                            want = oracle_conditional(table, S, T, y_T)
                            if not want.defined:
                                continue
                            c = conditional_params(p, T, y_T)
                            for pattern, target in want.probs.items():
                                got = joint_probability(c, pattern)
                                assert got == pytest.approx(target, abs=1e-9)

    def test_unsorted_t_follows_the_callers_order(self):
        """y_T[k] is the value of bit T[k]: a permuted T with y_T permuted
        along gives the same conditional distribution of y_S."""
        rng = np.random.default_rng(29)
        for q in (3, 4, 5):
            p = random_valid_params(rng, q)
            table = brute_force_table(p)
            for T in itertools.permutations(range(1, q)):
                for y_T in itertools.product((0, 1), repeat=q - 1):
                    want = oracle_conditional(table, (0,), T, y_T)
                    if not want.defined:
                        continue
                    c = conditional_params(p, T, y_T)
                    for pattern, target in want.probs.items():
                        assert joint_probability(c, pattern) == pytest.approx(target, abs=1e-9)
        p = random_valid_params(rng, 4)
        sorted_c = conditional_params(p, (1, 3), (1, 0))
        permuted_c = conditional_params(p, (3, 1), (0, 1))
        np.testing.assert_allclose(permuted_c.sig, sorted_c.sig, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("T, y_T, match", [
        ((-1,), (1,), "distinct indices"),
        ((4,), (1,), "distinct indices"),
        ((1, 1), (1, 0), "distinct indices"),
        ((1,), (2,), "y_T entries must be 0 or 1"),
        ((1, 2), (1,), "y_T length must match T"),
        ((0, 1, 2, 3), (0, 0, 0, 0), "S must be nonempty"),
    ])
    def test_observed_bits_are_checked(self, T, y_T, match):
        p = random_valid_params(np.random.default_rng(31), 4)
        with pytest.raises(ParameterError, match=match):
            conditional_params(p, T, y_T)

    def test_product_rule(self):
        rng = np.random.default_rng(23)
        p = random_valid_params(rng, 4)
        y_T = [1, 0]
        c = conditional_params(p, (1, 2), y_T)
        m = marginal_params(p, (1, 2))
        for y_S in itertools.product((0, 1), repeat=2):
            joint = joint_probability(p, [y_S[0], y_T[0], y_T[1], y_S[1]])
            assert joint_probability(c, y_S) * joint_probability(m, y_T) == pytest.approx(
                joint, abs=1e-10
            )


class TestMoments:
    def test_scalar(self):
        p = GrassmannParams.from_lambda(np.array([[2.0]]))
        mean, cov = moments(p)
        assert mean[0] == pytest.approx(0.5)
        assert cov[0, 0] == pytest.approx(0.25)

    def test_reader_first_mean(self):
        p = GrassmannParams.from_sigma(READER_SIGMA)
        mean, _ = moments(p)
        assert mean[0] == pytest.approx(1.0 - 0.52, abs=1e-12)

    def test_against_enumeration(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            p = random_valid_params(rng, 4)
            table = brute_force_table(p)
            mean, cov = moments(p)
            np.testing.assert_allclose(mean, table.mean, atol=1e-10)
            np.testing.assert_allclose(cov, table.cov, atol=1e-10)


class TestConditionalZeroMoments:
    def test_mean_from_diagonal(self):
        p = GrassmannParams.from_lambda(np.diag([2.0, 3.0]))
        mean, _ = conditional_zero_moments(p, 0, 1)
        assert mean == pytest.approx(0.5)

    def test_zero_offdiagonal_gives_zero_covariance(self):
        p = GrassmannParams.from_lambda(np.diag([2.0, 3.0]))
        _, cov = conditional_zero_moments(p, 0, 1)
        assert cov == 0.0

    def test_against_enumeration(self):
        # the mean conditions on every other bit being zero; the covariance
        # conditions on everything but the pair being zero
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_valid_params(rng, 3)
            table = brute_force_table(p)
            for r, s in itertools.permutations(range(3), 2):
                others = tuple(i for i in range(3) if i != r)
                cond_r = oracle_conditional(table, (r,), others, [0, 0])
                assert cond_r.defined
                want_mean = cond_r.probs.get((1,), 0.0)
                rest = tuple(i for i in range(3) if i not in (r, s))
                cond = oracle_conditional(table, (r, s), rest, [0] * len(rest))
                assert cond.defined
                mean_r = sum(p_ for (yr, _), p_ in cond.probs.items() if yr)
                mean_s = sum(p_ for (_, ys), p_ in cond.probs.items() if ys)
                e_rs = cond.probs.get((1, 1), 0.0)
                want_cov = e_rs - mean_r * mean_s
                got_mean, got_cov = conditional_zero_moments(p, r, s)
                assert got_mean == pytest.approx(want_mean, abs=1e-10)
                assert got_cov == pytest.approx(want_cov, abs=1e-10)

    def test_same_index_rejected(self):
        p = GrassmannParams.from_lambda(np.diag([2.0, 2.0]))
        with pytest.raises(ParameterError):
            conditional_zero_moments(p, 1, 1)

    @pytest.mark.parametrize("r, s", [(-1, 0), (-1, 2), (3, 0), (0, 3)])
    def test_indices_outside_the_range_rejected(self, r, s):
        """-1 would alias bit q - 1, -1 and 2 would pass the r != s check,
        and q would index past lam."""
        p = GrassmannParams.from_lambda(np.diag([2.0, 3.0, 4.0]))
        with pytest.raises(ParameterError, match=r"must lie in \[0, 3\)"):
            conditional_zero_moments(p, r, s)


class TestCheckP0:
    def test_independent_passes(self):
        report = check_p0(GrassmannParams.from_lambda(np.diag([2.0, 2.0])))
        assert report.passed
        assert report.probability_sum == pytest.approx(1.0, abs=1e-12)

    def test_negative_minor_fails(self):
        p = GrassmannParams.from_lambda(np.array([[1.5, 2.0], [2.0, 1.5]]))
        report = check_p0(p)
        assert not report.passed
        assert report.min_probability < -1e-12

    def test_reader_matrix_passes(self):
        report = check_p0(reader_params())
        assert report.passed
        assert report.n_states == 64


def test_one_sided_zero_covariance_conditional_equals_marginal():
    # only the product sig_01 * sig_10 needs to vanish for the pair to be
    # uncorrelated AND the 2x2 conditional to collapse onto the marginal
    sig = np.array([[0.4, 0.0], [0.3, 0.6]])
    p = GrassmannParams.from_sigma(sig)
    mean, cov = moments(p)
    assert cov[0, 1] == 0.0
    marg = marginal_params(p, [0])
    for y_1 in (0, 1):
        c = conditional_params(p, (1,), (y_1,))
        np.testing.assert_allclose(c.sig, marg.sig, atol=1e-12)


def test_normalization_at_q16():
    rng = np.random.default_rng(161)
    p = random_valid_params(rng, 16)
    probs = all_state_probabilities(p)
    assert probs.size == 2**16
    assert probs.min() >= -1e-12
    assert abs(probs.sum() - 1.0) <= 1e-10


def test_reader_matrix_supports_all_allowed_states():
    # every allowed state carries strictly positive probability, so any
    # dataset over them has finite likelihood at this parameter
    from generators import reader_style_schema
    from grasscat.schema import enumerate_allowed_states

    p = reader_params()
    schema = reader_style_schema()
    probs = [joint_probability(p, s.bits) for s in enumerate_allowed_states(schema)]
    assert len(probs) == 24
    assert min(probs) > 0.0
    nll = -941 * sum(np.log(pr) / 24 for pr in probs)
    assert np.isfinite(nll)


class TestStateProbabilities:
    """The batched path equals joint_probability state for state, exactly."""

    def test_reader_schema(self):
        from generators import reader_style_schema
        from grasscat.schema import enumerate_allowed_states

        p = reader_params()
        states = enumerate_allowed_states(reader_style_schema())
        got = state_probabilities(p, [s.bits for s in states])
        assert np.array_equal(got, [joint_probability(p, s.bits) for s in states])

    def test_certified_q12_model(self):
        from generators import CAT, ORD, random_certified_structured
        from grasscat.schema import VariableDecl, VariableSchema, enumerate_allowed_states
        from grasscat.structure import assemble_lambda

        schema = VariableSchema([
            VariableDecl("c3", CAT, 3), VariableDecl("o4", ORD, 4), VariableDecl("c4", CAT, 4),
            VariableDecl("o3", ORD, 3), VariableDecl("c2a", CAT, 2), VariableDecl("c2b", CAT, 2),
        ])
        rng = np.random.default_rng(1212)
        p = assemble_lambda(schema, random_certified_structured(rng, schema, 2))
        states = enumerate_allowed_states(schema)
        assert p.q == 12 and len(states) == 576
        got = state_probabilities(p, [s.bits for s in states])
        assert np.array_equal(got, [joint_probability(p, s.bits) for s in states])

    def test_wrong_width_rejected(self):
        with pytest.raises(ParameterError):
            state_probabilities(reader_params(), np.zeros((3, 5)))


class TestStatesAreBits:
    """A state entry other than 0 or 1 is refused, not read as 1 (the minors
    take the state's nonzero entries as its index set)."""

    P = random_valid_params(np.random.default_rng(0), 3)

    @pytest.mark.parametrize("first", [2, 0.5, -1])
    def test_joint_probability_refuses_a_non_bit(self, first):
        assert joint_probability(self.P, (1, 0, 1)) > 0.0
        with pytest.raises(ParameterError, match="^y entries must be 0 or 1$"):
            joint_probability(self.P, (first, 0, 1))

    @pytest.mark.parametrize("first", [2, 0.5, -1])
    def test_state_probabilities_refuses_a_non_bit(self, first):
        with pytest.raises(ParameterError, match="^states entries must be 0 or 1$"):
            state_probabilities(self.P, [(1, 0, 1), (first, 0, 1)])

    def test_a_bool_matrix_reads_as_its_int_matrix(self):
        states = np.array(list(itertools.product((0, 1), repeat=3)))
        want = state_probabilities(self.P, states)
        assert np.array_equal(state_probabilities(self.P, states.astype(bool)), want)
        assert np.array_equal(state_probabilities(self.P, states.astype(float)), want)


class TestPrincipalMinorTable:
    def test_q18_memory_and_values(self):
        # 2**18 probabilities in chunks: the peak stays far below the (2**q, q)
        # bit matrix and index arrays, and chunked entries equal one-row calls
        q = 18
        rng = np.random.default_rng(1818)
        p = GrassmannParams.from_lambda(rng.normal(0.0, 0.3, (q, q)) + 2.0 * np.eye(q))
        tracemalloc.start()
        try:
            probs = all_state_probabilities(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert probs.shape == (2**q,)
        for mask in [0, *rng.integers(1, 2**q, 300), 2**q - 1]:
            bits = [(int(mask) >> i) & 1 for i in range(q)]
            assert probs[mask] == state_probabilities(p, [bits])[0]

    @pytest.mark.parametrize("q", [0, 1, 5, 15])
    def test_equals_state_probabilities_of_every_mask(self, q):
        # at q=15 the 2**15 masks span two chunks of the walk
        if q:
            p = random_valid_params(np.random.default_rng(q), q)
        else:
            p = GrassmannParams.from_lambda(np.zeros((0, 0)))
        masks = np.arange(2**q)
        bits = (masks[:, None] >> np.arange(q)) & 1
        assert np.array_equal(all_state_probabilities(p), state_probabilities(p, bits))


class TestClamp:
    # a one-bit lam gives the state y = 1 the probability (lam - 1) / lam
    def test_round_off_within_1e_12_below_zero_is_clamped_to_plus_zero(self):
        p = GrassmannParams.from_lambda(np.array([[1.0 - 5e-13]]))
        prob = state_probabilities(p, np.array([[1]]))[0]
        assert prob == 0.0 and not np.signbit(prob)

    def test_a_value_further_below_zero_is_returned_as_is(self):
        p = GrassmannParams.from_lambda(np.array([[1.0 - 5e-10]]))
        assert state_probabilities(p, np.array([[1]]))[0] == pytest.approx(-5e-10, rel=1e-6)


class TestProbabilityRule:
    def test_singular_minors_give_exact_plus_zero(self):
        # lam - I = [[1, 1], [1, 1]] (a Cat(3) block at b = 0): the minor of
        # both bits is exactly singular, so its log|det| is -inf
        p = GrassmannParams.from_lambda(np.eye(2) + np.ones((2, 2)))
        probs = state_probabilities(p, np.array([[0, 0], [1, 0], [0, 1], [1, 1]]))
        np.testing.assert_allclose(probs[:3], 1 / 3, rtol=1e-15)
        assert probs[3] == 0.0 and not np.signbit(probs[3])
        table = all_state_probabilities(p)
        assert table[3] == 0.0 and not np.signbit(table[3])
        report = check_p0(p)
        assert report.passed and report.min_probability == 0.0

    def test_sign_zero_is_exempt_whatever_its_log_ratio(self):
        probs = _probabilities(np.zeros(3), np.array([-np.inf, np.inf, np.nan]), -1.0)
        assert np.array_equal(probs, np.zeros(3)) and not np.signbit(probs).any()

    @pytest.mark.parametrize("sign,log_ratio,sign_norm", [
        ([1.0, 1.0], [0.0, -np.inf], 1.0),  # a nonzero determinant over an infinite normalizer
        ([1.0, -1.0], [np.nan, 0.0], 1.0),
        ([1.0, 0.0], [800.0, -np.inf], 1.0),  # e^800 overflows
        ([1.0, 1.0], [-1.0, -2.0], np.nan),  # a normalizer whose sign is nan
    ], ids=["infinite-normalizer", "nan-log-ratio", "exp-overflow", "nan-normalizer-sign"])
    def test_a_non_finite_log_ratio_or_probability_raises(self, sign, log_ratio, sign_norm):
        with pytest.raises(ParameterError, match="overflows"):
            _probabilities(np.array(sign), np.array(log_ratio), sign_norm)
