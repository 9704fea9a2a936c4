import inspect
import itertools
import math

import numpy as np
import pytest

from grasscat.errors import ParameterError, SchemaError
from grasscat.grassmann import GrassmannParams, check_p0, joint_probability
from grasscat.schema import (
    Record,
    VariableDecl,
    VariableSchema,
    encode_record,
    enumerate_allowed_states,
)
from grasscat.structure import (
    StructuredParams,
    _k_and_w,
    _raw_lambda,
    assemble_lambda,
    categorical_pmf,
    extended_lambda,
    ordinal_pmf,
)

from generators import (
    CAT,
    ORD,
    random_certified_structured,
    random_schema,
    random_structured,
    reader_style_schema,
)
from reference_values import READER_LAMBDA_MINUS_I


class TestQuasiDiagonalBlocks:
    def test_categorical_zero_bias_is_all_ones(self):
        schema = VariableSchema([VariableDecl("x", CAT, 4)])
        K, _ = _k_and_w(schema, np.zeros(3), np.zeros((1, 0)))
        np.testing.assert_allclose(K, np.ones((3, 3)))

    def test_ordinal_zero_bias(self):
        schema = VariableSchema([VariableDecl("x", ORD, 4)])
        K, _ = _k_and_w(schema, np.zeros(3), np.zeros((1, 0)))
        want = np.array([[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        np.testing.assert_allclose(K, want)

    def test_ordinal_first_row_is_cumulative_products(self):
        schema = VariableSchema([VariableDecl("x", ORD, 4)])
        b = np.array([0.2, -0.5, 1.1])
        K, _ = _k_and_w(schema, b, np.zeros((1, 0)))
        np.testing.assert_allclose(K[0], np.exp(np.cumsum(b)))

    def test_mixed_layout_off_block_zero(self):
        schema = VariableSchema([VariableDecl("c", CAT, 2), VariableDecl("o", ORD, 3)])
        K, _ = _k_and_w(schema, np.array([0.7, 0.1, 0.2]), np.zeros((2, 0)))
        assert K.shape == (3, 3)
        np.testing.assert_allclose(K[0, 0], math.exp(0.7))
        np.testing.assert_allclose(K[0, 1:], 0.0)
        np.testing.assert_allclose(K[1:, 0], 0.0)

    def test_length_mismatch(self):
        schema = VariableSchema([VariableDecl("x", CAT, 4)])
        sp = StructuredParams.independent(schema, [np.zeros(2)])
        with pytest.raises(SchemaError):
            extended_lambda(schema, sp)


class TestAuxLoading:
    def test_categorical_rows_repeat(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        _, W = _k_and_w(schema, np.zeros(2), np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(W, [[1.0, 2.0], [1.0, 2.0]])

    def test_ordinal_first_row_only(self):
        schema = VariableSchema([VariableDecl("x", ORD, 3)])
        _, W = _k_and_w(schema, np.zeros(2), np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(W, [[1.0, 2.0], [0.0, 0.0]])

    def test_zero_aux_dimension(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        _, W = _k_and_w(schema, np.zeros(2), np.zeros((1, 0)))
        assert W.shape == (2, 0)


def _reference_k_and_w(schema, sp):
    """K and W built one block at a time, as the paper lays them out: the
    reference the builder is held to bit for bit."""
    K = np.zeros((schema.q, schema.q))
    W = np.zeros((schema.q, sp.a))
    for v, (s, e), bv, wv in zip(schema.variables, schema.blocks, sp.b, sp.w):
        if v.kind is CAT:
            K[s:e, s:e] = np.exp(bv)[None, :]
            W[s:e, :] = wv[None, :]
        else:
            K[s:e, s:e] += np.diag(np.full(e - s - 1, -1.0), -1)
            K[s, s:e] = np.exp(np.cumsum(bv))
            W[s, :] = wv
    return K, W


def test_index_maps_match_the_block_loops_bit_for_bit(rng):
    for _ in range(300):
        schema = random_schema(rng, int(rng.integers(1, 25)), max_levels=int(rng.integers(2, 9)))
        sp = random_structured(rng, schema, int(rng.integers(0, 5)), b_scale=3.0)
        K, W = _reference_k_and_w(schema, sp)
        got_k, got_w = _k_and_w(schema, np.concatenate(sp.b), np.reshape(sp.w, (len(schema), sp.a)))
        assert np.array_equal(got_k, K)
        assert np.array_equal(got_w, W)
        lam = np.eye(schema.q) + K + (W * sp.omega[None, :]) @ sp.V.T
        assert np.array_equal(_raw_lambda(schema, sp), lam)
    empty = VariableSchema([])
    got_k, got_w = _k_and_w(empty, np.zeros(0), np.zeros((0, 2)))
    assert got_k.shape == (0, 0)
    assert got_w.shape == (0, 2)


class TestAssemble:
    def test_uniform_categorical(self):
        schema = VariableSchema([VariableDecl("x", CAT, 4)])
        sp = StructuredParams.independent(schema, [np.zeros(3)])
        params = assemble_lambda(schema, sp)
        for level in range(4):
            y = encode_record(schema, Record((level,))).bits
            assert joint_probability(params, y) == pytest.approx(0.25, abs=1e-12)

    def test_uniform_ordinal(self):
        schema = VariableSchema([VariableDecl("x", ORD, 4)])
        sp = StructuredParams.independent(schema, [np.zeros(3)])
        params = assemble_lambda(schema, sp)
        for level in range(4):
            y = encode_record(schema, Record((level,))).bits
            assert joint_probability(params, y) == pytest.approx(0.25, abs=1e-12)

    def test_reader_shape(self):
        # rows 2-3 identical, rows 5-6 carry the pure shift pattern
        rng = np.random.default_rng(0)
        schema = reader_style_schema()
        sp = random_structured(rng, schema, a=2)
        lam_mi = np.asarray(assemble_lambda(schema, sp).lam) - np.eye(6)
        np.testing.assert_allclose(lam_mi[1], lam_mi[2], atol=1e-15)
        np.testing.assert_allclose(lam_mi[4], [0, 0, 0, -1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(lam_mi[5], [0, 0, 0, 0, -1, 0], atol=1e-15)
        # the published fit has exactly this shape
        np.testing.assert_allclose(
            READER_LAMBDA_MINUS_I[1], READER_LAMBDA_MINUS_I[2], atol=1e-15
        )

    def test_certificate_modes(self):
        """The extended (q + a) check and the fit's allowed-state table agree
        on a generated model: every allowed state is positive."""
        from grasscat.structure import _allowed_state_probabilities

        schema = reader_style_schema()
        rng = np.random.default_rng(1)
        sp = random_certified_structured(rng, schema, a=2)
        assert check_p0(GrassmannParams.from_lambda(extended_lambda(schema, sp))).passed
        assert _allowed_state_probabilities(schema, sp).min() > 0.0

    def test_no_certificate_option(self):
        assert list(inspect.signature(assemble_lambda).parameters) == ["schema", "sp"]

    @pytest.mark.parametrize("b, V0", [(800.0, 1.0), (0.0, 1e308)], ids=["e^b", "wV"])
    def test_finite_parameters_whose_lam_overflows_raise(self, b, V0):
        """e^800, and 10 * 0.5 * 1e308 in W diag(omega) V^T: one
        ParameterError that names lam, and no numpy warning."""
        import warnings

        schema = VariableSchema([VariableDecl(f"v{j}", CAT, 2) for j in range(2)])
        sp = StructuredParams((np.array([b]), np.zeros(1)), (np.array([10.0]), np.ones(1)),
                              np.array([[V0], [0.5]]), np.full(1, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="^lam overflows"):
                assemble_lambda(schema, sp)


class TestStructuralZeros:
    @pytest.mark.parametrize("seed", range(5))
    def test_disallowed_states_are_zero_without_certificate(self, seed):
        rng = np.random.default_rng(seed)
        schema = reader_style_schema()
        sp = random_structured(rng, schema, a=2, b_scale=1.5, w_scale=1.0)
        params = assemble_lambda(schema, sp)
        allowed = {s.bits for s in enumerate_allowed_states(schema)}
        for bits in itertools.product((0, 1), repeat=schema.q):
            if bits not in allowed:
                assert abs(joint_probability(params, bits)) <= 1e-12


class TestExtended:
    def test_marginalization_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            schema = random_schema(rng, 6)
            a = int(rng.integers(1, 3))
            sp = random_structured(rng, schema, a)
            full = extended_lambda(schema, sp)
            sig_full = np.linalg.inv(full)
            q = schema.q
            K, W = _k_and_w(schema, np.concatenate(sp.b), np.reshape(sp.w, (len(schema), a)))
            want = np.linalg.inv(K + np.eye(q) + (W * sp.omega[None, :]) @ sp.V.T)
            np.testing.assert_allclose(sig_full[:q, :q], want, atol=1e-9)

    def test_extended_positivity_implies_observed(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            schema = random_schema(rng, 5)
            sp = random_certified_structured(rng, schema, a=2)
            params = assemble_lambda(schema, sp)
            assert check_p0(params).min_probability >= -1e-12


class TestClosedFormPmfs:
    def test_uniform_categorical(self):
        for y in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert categorical_pmf(np.zeros(3), y) == pytest.approx(0.25)

    def test_categorical_log_two(self):
        b = np.array([math.log(2.0), 0.0, 0.0])
        assert categorical_pmf(b, (1, 0, 0)) == pytest.approx(2.0 / 5.0, abs=1e-15)
        assert categorical_pmf(b, (0, 0, 0)) == pytest.approx(1.0 / 5.0, abs=1e-15)

    def test_uniform_ordinal(self):
        for level in range(4):
            y = [1] * level + [0] * (3 - level)
            assert ordinal_pmf(np.zeros(3), y) == pytest.approx(0.25)

    def test_ordinal_weighted(self):
        b = np.array([math.log(2.0), 0.0, -math.log(2.0)])
        # weights (1, 2, 2, 1): normalizer 6
        assert ordinal_pmf(b, (1, 0, 0)) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert ordinal_pmf(b, (0, 0, 0)) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_invalid_blocks_rejected(self):
        with pytest.raises(SchemaError):
            categorical_pmf(np.zeros(2), (1, 1))
        with pytest.raises(SchemaError):
            ordinal_pmf(np.zeros(2), (0, 1))

    @pytest.mark.parametrize("kind", [CAT, ORD])
    def test_determinant_equivalence(self, kind):
        rng = np.random.default_rng(8)
        for _ in range(20):
            levels = int(rng.integers(2, 7))
            schema = VariableSchema([VariableDecl("x", kind, levels)])
            b = rng.normal(0.0, 1.2, levels - 1)
            sp = StructuredParams.independent(schema, [b])
            params = assemble_lambda(schema, sp)
            pmf = categorical_pmf if kind is CAT else ordinal_pmf
            for level in range(levels):
                y = encode_record(schema, Record((level,))).bits
                det_prob = joint_probability(params, y)
                assert det_prob == pytest.approx(pmf(b, y), abs=1e-12)


class TestOmegaBounds:
    def test_omega_outside_bounds_rejected(self):
        schema = VariableSchema([VariableDecl("x", CAT, 2)])
        with pytest.raises(ParameterError):
            assemble_lambda(
                schema,
                StructuredParams(
                    b=(np.zeros(1),),
                    w=(np.zeros(1),),
                    V=np.zeros((1, 1)),
                    omega=np.array([1.0]),
                ),
            )


def test_conditioning_on_impossible_pattern_raises():
    from grasscat.errors import ConditioningError
    from grasscat.grassmann import conditional_params

    schema = reader_style_schema()
    rng = np.random.default_rng(12)
    sp = random_structured(rng, schema, a=2)
    params = assemble_lambda(schema, sp)
    # both bits of the 3-category block set: a structurally impossible event
    with pytest.raises(ConditioningError):
        conditional_params(params, (1, 2), (1, 1))


class TestOneDimensionalV:
    """A 1-D V fails V's own check, before anything reads its second axis."""

    @staticmethod
    def _one_dim_v():
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        sp = StructuredParams(
            b=(np.zeros(2),), w=(np.zeros(1),), V=np.zeros(2), omega=np.full(1, 0.5)
        )
        return schema, sp

    def test_assemble_lambda_names_v(self):
        schema, sp = self._one_dim_v()
        with pytest.raises(SchemaError, match=r"V has shape \(2,\), expected \(2, a\)"):
            assemble_lambda(schema, sp)

    def test_extended_lambda_names_v(self):
        schema, sp = self._one_dim_v()
        with pytest.raises(SchemaError, match=r"V has shape \(2,\)"):
            extended_lambda(schema, sp)

    def test_negative_log_likelihood_names_v(self):
        from grasscat.fit import negative_log_likelihood, state_counts

        schema, sp = self._one_dim_v()
        counts = state_counts(schema, [Record((0,)), Record((2,))])
        with pytest.raises(SchemaError, match=r"V has shape \(2,\)"):
            negative_log_likelihood(schema, sp, counts)
