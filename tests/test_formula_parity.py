"""Bit-for-bit parity of the shared formulas with their former second copies.

Each ``_ref_*`` function below is the separate implementation that a shared
formula replaced: the popcount-ordered 2**q minor table, the hand-written
loading-coefficient rows, and the per-kind level-logit branches of the two
bias initializers.  The shared code must reproduce them exactly, including
the sign of every zero.
"""

import warnings

import numpy as np
import pytest

from grasscat.factor import _independent_logits, _loading_coefficients
from grasscat.fit import B_CAP, _initial_b, state_counts
from grasscat.grassmann import _principal_minor_table
from grasscat.schema import VariableDecl, VariableKind, VariableSchema
from grasscat.structure import _raw_lambda

from generators import CAT, ORD, random_schema, random_structured


def _assert_identical(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _ref_minor_dets(mat, subsets):
    if subsets.shape[1] == 0:
        return np.ones(subsets.shape[0])
    minors = mat[subsets[:, :, None], subsets[:, None, :]]
    return np.linalg.det(minors)


def _ref_principal_minor_table(mat):
    q = mat.shape[0]
    popcounts = np.zeros(1, dtype=np.int8)
    for _ in range(q):
        popcounts = np.concatenate([popcounts, popcounts + 1])
    dets = np.empty(2**q)
    for k in range(q + 1):
        rows = np.flatnonzero(popcounts == k)
        chunk = max(1, 2**20 // max(1, k * k))
        for lo in range(0, rows.size, chunk):
            sub = rows[lo : lo + chunk]
            bits = (sub[:, None] >> np.arange(q)) & 1
            dets[sub] = _ref_minor_dets(mat, np.nonzero(bits)[1].reshape(sub.size, k))
    return dets


def _ref_loading_coefficients(schema):
    rows = []
    for j, v in enumerate(schema.variables):
        s, e = schema.blocks[j]
        k = v.block_size
        base = np.zeros(schema.q)
        if v.kind is VariableKind.CATEGORICAL:
            base[s:e] = -1.0 / (k + 1)
            rows.append(base.copy())
            for l in range(1, v.levels):
                c = base.copy()
                c[s + l - 1] += 1.0
                rows.append(c)
        else:
            base[s:e] = -0.5
            rows.append(base.copy())
            for l in range(1, v.levels):
                c = base.copy()
                c[s : s + l] += 1.0
                rows.append(c)
    return np.asarray(rows)


def _ref_initial_b(schema, counts, warn):
    out = []
    for v, level_counts in zip(schema.variables, counts.level_counts(schema)):
        p = level_counts / level_counts.sum()
        with np.errstate(divide="ignore"):
            if v.kind is VariableKind.CATEGORICAL:
                raw = np.log(p[1:]) - np.log(p[0])
            else:
                raw = np.log(p[1:]) - np.log(p[:-1])
        clipped = np.clip(np.nan_to_num(raw, nan=0.0, posinf=B_CAP, neginf=-B_CAP),
                          -B_CAP, B_CAP)
        if np.any(np.abs(raw) > B_CAP) or not np.all(np.isfinite(raw)):
            warn.append(
                f"variable {v.name!r}: empirical log-odds clipped to +-{B_CAP} "
                "(a level may be unobserved)"
            )
        out.append(clipped)
    return out


def _ref_independent_logits(schema, counts):
    out = np.zeros(schema.q)
    for j, (v, level_counts) in enumerate(
        zip(schema.variables, counts.level_counts(schema))
    ):
        s, e = schema.blocks[j]
        smoothed = level_counts + 0.5
        p = smoothed / smoothed.sum()
        if v.kind is VariableKind.CATEGORICAL:
            out[s:e] = np.log(p[1:]) - np.log(p[0])
        else:
            out[s:e] = np.log(p[1:]) - np.log(p[:-1])
    return out


class TestMinorTable:
    @pytest.mark.parametrize("q", [0, 1, 5, 12, 16])
    def test_dense_matrix(self, q):
        mat = np.random.default_rng(q).normal(size=(q, q))
        _assert_identical(_principal_minor_table(mat), _ref_principal_minor_table(mat))

    @pytest.mark.parametrize("seed", range(3))
    def test_structured_matrix_with_exact_zeros(self, seed):
        rng = np.random.default_rng(seed)
        schema = random_schema(rng, max_q=12, min_vars=3)
        mat = _raw_lambda(schema, random_structured(rng, schema, a=2)) - np.eye(schema.q)
        _assert_identical(_principal_minor_table(mat), _ref_principal_minor_table(mat))


def _random_level_schema(rng):
    return VariableSchema(
        [
            VariableDecl(f"v{j}", CAT if rng.random() < 0.5 else ORD, int(rng.integers(2, 7)))
            for j in range(int(rng.integers(1, 7)))
        ]
    )


def _counts_with_unobserved_levels(rng, schema, n_rows=60):
    """Rows in which the first variable never takes level 0 and every other
    variable never takes its top level."""
    levels = np.column_stack(
        [rng.integers(0, v.levels - 1, n_rows) for v in schema.variables]
    )
    levels[:, 0] = rng.integers(1, schema.variables[0].levels, n_rows)
    return state_counts(schema, levels)


class TestLoadingCoefficients:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_schemas(self, seed):
        schema = _random_level_schema(np.random.default_rng(seed))
        _assert_identical(_loading_coefficients(schema), _ref_loading_coefficients(schema))


class TestLevelLogits:
    @pytest.mark.parametrize("seed", range(20))
    def test_initial_b_with_unobserved_levels(self, seed):
        rng = np.random.default_rng(seed)
        schema = _random_level_schema(rng)
        counts = _counts_with_unobserved_levels(rng, schema)
        warn, ref_warn = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = _initial_b(schema, counts, warn)
            want = _ref_initial_b(schema, counts, ref_warn)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_identical(g, w)
        assert warn == ref_warn and len(warn) == len(schema)

    @pytest.mark.parametrize("seed", range(20))
    def test_independent_logits_with_unobserved_levels(self, seed):
        rng = np.random.default_rng(seed)
        schema = _random_level_schema(rng)
        counts = _counts_with_unobserved_levels(rng, schema)
        _assert_identical(
            _independent_logits(schema, counts), _ref_independent_logits(schema, counts)
        )
