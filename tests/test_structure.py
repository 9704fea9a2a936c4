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
    assemble_lambda,
    aux_loading_matrix,
    categorical_pmf,
    dominance_certificate,
    dominance_matrix,
    extended_lambda,
    free_row_indices,
    middle_factor,
    ordinal_pmf,
    quasi_diagonal_blocks,
    row_margins,
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
        K = quasi_diagonal_blocks(schema, [np.zeros(3)])
        np.testing.assert_allclose(K, np.ones((3, 3)))

    def test_ordinal_zero_bias(self):
        schema = VariableSchema([VariableDecl("x", ORD, 4)])
        K = quasi_diagonal_blocks(schema, [np.zeros(3)])
        want = np.array([[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        np.testing.assert_allclose(K, want)

    def test_ordinal_first_row_is_cumulative_products(self):
        schema = VariableSchema([VariableDecl("x", ORD, 4)])
        b = np.array([0.2, -0.5, 1.1])
        K = quasi_diagonal_blocks(schema, [b])
        np.testing.assert_allclose(K[0], np.exp(np.cumsum(b)))

    def test_mixed_layout_off_block_zero(self):
        schema = VariableSchema([VariableDecl("c", CAT, 2), VariableDecl("o", ORD, 3)])
        K = quasi_diagonal_blocks(schema, [np.array([0.7]), np.array([0.1, 0.2])])
        assert K.shape == (3, 3)
        np.testing.assert_allclose(K[0, 0], math.exp(0.7))
        np.testing.assert_allclose(K[0, 1:], 0.0)
        np.testing.assert_allclose(K[1:, 0], 0.0)

    def test_length_mismatch(self):
        schema = VariableSchema([VariableDecl("x", CAT, 4)])
        with pytest.raises(SchemaError):
            quasi_diagonal_blocks(schema, [np.zeros(2)])


class TestAuxLoading:
    def test_categorical_rows_repeat(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        W = aux_loading_matrix(schema, [np.array([1.0, 2.0])], a=2)
        np.testing.assert_allclose(W, [[1.0, 2.0], [1.0, 2.0]])

    def test_ordinal_first_row_only(self):
        schema = VariableSchema([VariableDecl("x", ORD, 3)])
        W = aux_loading_matrix(schema, [np.array([1.0, 2.0])], a=2)
        np.testing.assert_allclose(W, [[1.0, 2.0], [0.0, 0.0]])

    def test_zero_aux_dimension(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        W = aux_loading_matrix(schema, [np.zeros(0)], a=0)
        assert W.shape == (2, 0)


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
        schema = reader_style_schema()
        rng = np.random.default_rng(1)
        sp = random_certified_structured(rng, schema, a=2)
        report = dominance_certificate(schema, sp)
        assert report.passed
        assert check_p0(GrassmannParams.from_lambda(extended_lambda(schema, sp))).passed
        # the raw condition is unattainable for ordinal blocks
        assert not report.passed_raw

    def test_failed_certificate_reports_margin(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        sp = StructuredParams.independent(schema, [np.array([0.0, 5.0])])
        report = dominance_certificate(schema, sp)
        assert not report.passed
        assert report.worst_b_free < 0

    def test_no_certificate_option(self):
        assert list(inspect.signature(assemble_lambda).parameters) == ["schema", "sp"]


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


class TestDominance:
    def test_block_diagonal_baseline(self):
        schema = VariableSchema([VariableDecl("c", CAT, 3), VariableDecl("o", ORD, 3)])
        b = [np.array([0.3, -0.4]), np.array([0.2, -0.9])]
        sp = StructuredParams.independent(schema, b, a=0)
        B = dominance_matrix(schema, sp)
        K = quasi_diagonal_blocks(schema, b)
        np.testing.assert_allclose(B, K, atol=1e-15)

    def test_factorization_identity(self):
        rng = np.random.default_rng(2)
        schema = random_schema(rng, 6)
        sp = random_structured(rng, schema, a=2)
        C = np.eye(schema.q + 2) + rng.normal(0, 0.05, (schema.q + 2, schema.q + 2))
        sp = StructuredParams(b=sp.b, w=sp.w, V=sp.V, omega=sp.omega, C=C)
        B = dominance_matrix(schema, sp)
        M = middle_factor(schema, sp)
        np.testing.assert_allclose(B @ np.linalg.inv(sp.C), M, atol=1e-9)

    def test_scalar_margins(self):
        # single binary variable, a = 1: 2x2 case by hand
        schema = VariableSchema([VariableDecl("x", CAT, 2)])
        sp = StructuredParams(
            b=(np.array([0.5]),),
            w=(np.array([0.3]),),
            V=np.array([[0.2]]),
            omega=np.array([0.5]),
            C=np.eye(2),
        )
        B = dominance_matrix(schema, sp)
        eb = math.exp(0.5)
        want = np.array([[eb + 0.3 * 0.2, -0.3], [-0.2, 1.0]])
        np.testing.assert_allclose(B, want, atol=1e-12)
        margins = row_margins(B)
        np.testing.assert_allclose(
            margins, [abs(want[0, 0]) - 0.3, 1.0 - 0.2], atol=1e-12
        )

    def test_free_rows(self):
        schema = reader_style_schema()
        np.testing.assert_array_equal(free_row_indices(schema, 2), [0, 1, 3, 6, 7])

    def test_positivity_under_raw_certificate_binary_schemas(self):
        # with all blocks of size one the unrestricted certificate is
        # attainable and must imply nonnegativity of every state
        rng = np.random.default_rng(3)
        found = 0
        while found < 25:
            n_vars = int(rng.integers(2, 7))
            schema = VariableSchema(
                [VariableDecl(f"v{i}", CAT, 2) for i in range(n_vars)]
            )
            a = int(rng.integers(0, 3))
            sp = random_structured(rng, schema, a, b_scale=0.8, w_scale=0.25)
            report = dominance_certificate(schema, sp)
            if not report.passed_raw:
                continue
            found += 1
            params = assemble_lambda(schema, sp)
            assert check_p0(params).min_probability >= -1e-12


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
            want = np.linalg.inv(
                quasi_diagonal_blocks(schema, sp.b)
                + np.eye(q)
                + (aux_loading_matrix(schema, sp.w, a) * sp.omega[None, :]) @ sp.V.T
            )
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
                    C=np.eye(2),
                ),
            )


def test_conditioning_on_impossible_pattern_raises():
    from grasscat.errors import ConditioningError
    from grasscat.grassmann import IndexPartition, conditional_params

    schema = reader_style_schema()
    rng = np.random.default_rng(12)
    sp = random_structured(rng, schema, a=2)
    params = assemble_lambda(schema, sp)
    # both bits of the 3-category block set: a structurally impossible event
    part = IndexPartition(S=(0, 3, 4, 5), T=(1, 2), T1=(1, 2))
    with pytest.raises(ConditioningError):
        conditional_params(params, part)
