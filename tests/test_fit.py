import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasscat.errors import DataError, InvalidStateError, ParameterError, SchemaError
from grasscat.fit import (
    B_CAP,
    FitConfig,
    FitGradient,
    StateCounts,
    empirical_moments,
    fit_grassmann,
    model_correlation,
    negative_log_likelihood,
    nll_gradient,
    state_counts,
    _chain_b,
    _reduce_w,
)
from grasscat.grassmann import GrassmannParams, state_probabilities
from grasscat.oracle import brute_force_table
from grasscat.schema import Record, VariableDecl, VariableSchema, allowed_table, encode_record
from grasscat.structure import (
    StructuredParams,
    assemble_lambda,
    aux_loading_matrix,
    dominance_certificate,
    ordinal_pmf,
)

from generators import (
    CAT,
    ORD,
    random_certified_structured,
    random_schema,
    random_structured,
    random_valid_params,
    reader_style_schema,
    reader_style_true_params,
    sample_rows_from_probs,
)
from grasscat.schema import enumerate_allowed_states
from grasscat.grassmann import joint_probability


class TestStateCounts:
    def test_identical_rows_aggregate(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        counts = state_counts(schema, [Record((1,))] * 3)
        assert counts.items == (((1, 0), 3),)
        assert counts.n == 3

    def test_reader_style_aggregation(self, rng):
        schema = reader_style_schema()
        params = assemble_lambda(schema, reader_style_true_params())
        states = enumerate_allowed_states(schema)
        probs = [joint_probability(params, s.bits) for s in states]
        rows = sample_rows_from_probs(rng, schema, states, probs, 941)
        counts = state_counts(schema, rows)
        assert counts.n == 941
        assert len(counts.items) <= 24

    def test_empty_dataset_rejected(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        with pytest.raises(DataError):
            state_counts(schema, [])

    def test_invalid_row_is_indexed(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        with pytest.raises(DataError, match="row 1"):
            state_counts(schema, [Record((0,)), Record((9,))])


def _ref_state_counts(schema, rows):
    """The per-row loop state_counts replaced, kept as its reference."""
    counts = {}
    n = 0
    for i, row in enumerate(rows):
        rec = row if isinstance(row, Record) else Record(tuple(int(v) for v in row))
        try:
            bits = encode_record(schema, rec).bits
        except SchemaError as exc:
            raise DataError(f"row {i}: {exc}") from exc
        counts[bits] = counts.get(bits, 0) + 1
        n += 1
    if n == 0:
        raise DataError("dataset is empty")
    return StateCounts(items=tuple(counts.items()))


def _outcome(fn, schema, rows):
    try:
        items = fn(schema, rows).items
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    assert all(type(c) is int for _, c in items)
    assert all(type(b) is int for bits, _ in items for b in bits)
    return items


# values a row may carry besides plain levels: rejected, accepted, too large
# for int64, or raising from int()
TRAPS = (1.5, "1", True, np.float64(2.0), np.int64(1), 10**30, -1, float("inf"), float("nan"))


@st.composite
def schemas_and_rows(draw):
    kinds = st.sampled_from([CAT, ORD])
    schema = VariableSchema(
        VariableDecl(f"v{i}", draw(kinds), draw(st.integers(2, 4)))
        for i in range(draw(st.integers(0, 4)))
    )
    n = draw(st.integers(0, 25))
    levels = [
        [draw(st.integers(0, v.levels - 1)) for v in schema.variables] for _ in range(n)
    ]
    for _ in range(draw(st.integers(0, 2)) if n and len(schema) else 0):
        row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, len(schema) - 1))
        levels[row][col] = draw(st.sampled_from(TRAPS + (schema.variables[col].levels,)))
    form = draw(st.sampled_from(["record", "tuple", "numpy", "array", "float_array"]))
    if form == "record":
        rows = [Record(tuple(r)) for r in levels]
    elif form == "tuple":
        rows = [tuple(r) for r in levels]
    elif form == "numpy":
        rows = [np.array(r, dtype=np.int64) for r in levels] if _fits_int64(levels) else levels
    elif form == "array":
        rows = np.array(levels, dtype=np.int64).reshape(n, len(schema)) if _fits_int64(levels) else levels
    else:  # checked row by row, where int() truncates as it did for any sequence
        numeric = not any(isinstance(v, str) for row in levels for v in row)
        rows = np.array(levels, dtype=float).reshape(n, len(schema)) if numeric else levels
    return schema, rows


def _fits_int64(levels):
    return all(
        isinstance(v, (int, np.integer)) and -(2**63) <= v < 2**63 for row in levels for v in row
    )


class TestStateCountsParity:
    @given(schemas_and_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_row_reference(self, schema_rows):
        schema, rows = schema_rows
        assert _outcome(state_counts, schema, rows) == _outcome(_ref_state_counts, schema, rows)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([Record((1.5,))], "row 0: variable 'x': level 1.5 out of range 0..2"),
            ([Record(("1",))], "row 0: variable 'x': level '1' out of range 0..2"),
            ([Record((0,)), Record((10**30,))],
             f"row 1: variable 'x': level {10**30} out of range 0..2"),
            ([Record((True,))], (((1, 0), 1),)),
            ([Record((np.float64(2.0),)), Record((2,))], (((0, 1), 2),)),
        ],
    )
    def test_record_value_traps(self, rows, expected):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        got = _outcome(state_counts, schema, rows)
        assert got == _outcome(_ref_state_counts, schema, rows)
        assert got == (expected if isinstance(expected, tuple) else (DataError, expected))

    def test_zero_variable_schema(self):
        schema = VariableSchema([])
        rows = [Record(())] * 3
        assert state_counts(schema, rows).items == _ref_state_counts(schema, rows).items
        assert state_counts(schema, rows).items == (((), 3),)

    def test_first_bad_row_wins_whatever_the_fault(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3), VariableDecl("y", ORD, 3)])
        rows = [Record((0, 0)), Record((0, 7)), Record((0,)), (float("inf"), 0), ("a", 0)]
        for start in range(len(rows)):
            assert _outcome(state_counts, schema, rows[start:]) == _outcome(
                _ref_state_counts, schema, rows[start:]
            )
        assert _outcome(state_counts, schema, rows[3:])[0] is OverflowError
        assert _outcome(state_counts, schema, rows[1:]) == (
            DataError, "row 0: variable 'y': level 7 out of range 0..2"
        )


class TestNll:
    def test_bernoulli_entropy_at_mle(self):
        schema = VariableSchema([VariableDecl("x", CAT, 2)])
        rows = [Record((1,))] * 30 + [Record((0,))] * 70
        counts = state_counts(schema, rows)
        p_hat = 0.3
        sp = StructuredParams.independent(schema, [np.array([math.log(p_hat / (1 - p_hat))])])
        nll = negative_log_likelihood(schema, sp, counts)
        entropy = -100 * (p_hat * math.log(p_hat) + (1 - p_hat) * math.log(1 - p_hat))
        assert nll == pytest.approx(entropy, abs=1e-9)

    def test_uniform_ordinal(self):
        schema = VariableSchema([VariableDecl("x", ORD, 4)])
        rows = [Record((l,)) for l in range(4)] * 5
        counts = state_counts(schema, rows)
        sp = StructuredParams.independent(schema, [np.zeros(3)])
        assert negative_log_likelihood(schema, sp, counts) == pytest.approx(
            20 * math.log(4), abs=1e-10
        )

    def test_zero_probability_state_flags_infinite(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        # level 2 has probability e^-200 / (2 + e^-200): tiny, not zero
        sp = StructuredParams.independent(schema, [np.array([0.0, -200.0])])
        counts = state_counts(schema, [Record((2,))])
        assert negative_log_likelihood(schema, sp, counts) == pytest.approx(
            200.69314718055995, rel=1e-12
        )
        assert negative_log_likelihood(*_one_factor_cat3(1.0)) == np.inf

    def test_disallowed_state_and_infinite_gradient_raise(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        sp = StructuredParams.independent(schema, [np.zeros(2)])
        with pytest.raises(InvalidStateError):
            negative_log_likelihood(schema, sp, StateCounts(items=(((1, 1), 1),)))
        with pytest.raises(ParameterError):
            nll_gradient(*_one_factor_cat3(1.0))

    def test_improbable_ordinal_level_is_exact(self):
        schema = VariableSchema([VariableDecl("x", ORD, 4)])
        b = np.array([-30.0, 1.0, 2.0])
        sp = StructuredParams.independent(schema, [b])
        counts = state_counts(schema, [Record((1,))])
        assert negative_log_likelihood(schema, sp, counts) == pytest.approx(
            -math.log(ordinal_pmf(b, [1, 0, 0])), rel=1e-12
        )

    def test_counts_and_rows_agree_exactly(self, rng):
        schema = reader_style_schema()
        sp = reader_style_true_params()
        params = assemble_lambda(schema, sp)
        states = enumerate_allowed_states(schema)
        probs = [joint_probability(params, s.bits) for s in states]
        rows = sample_rows_from_probs(rng, schema, states, probs, 200)
        counts = state_counts(schema, rows)
        again = state_counts(schema, rows)
        assert negative_log_likelihood(schema, sp, counts) == negative_log_likelihood(
            schema, sp, again
        )


def _reference_nll(lam, counts):
    """The per-state loop the batched kernel replaced, kept as its reference."""
    q = lam.shape[0]
    sign_l, logdet_l = np.linalg.slogdet(lam)
    if sign_l <= 0:
        return np.inf
    lam_mi = lam - np.eye(q)
    total = 0.0
    n = 0.0
    for bits, c in counts.items:
        idx = np.flatnonzero(np.asarray(bits))
        if idx.size:
            sign_m, logdet_m = np.linalg.slogdet(lam_mi[np.ix_(idx, idx)])
            if sign_m <= 0:
                return np.inf
            total -= float(c) * logdet_m
        n += float(c)
    return float(total + n * logdet_l)


def _reference_grad(lam, counts):
    q = lam.shape[0]
    lam_mi = lam - np.eye(q)
    n = 0.0
    G = np.zeros((q, q))
    for bits, c in counts.items:
        idx = np.flatnonzero(np.asarray(bits))
        if idx.size:
            inv_m = np.linalg.inv(lam_mi[np.ix_(idx, idx)])
            G[np.ix_(idx, idx)] -= float(c) * inv_m.T
        n += float(c)
    G += n * np.linalg.inv(lam).T
    return G


def _reference_natural_grad(schema, sp, lam, counts):
    """_reference_grad chained to (b, w, V, omega), the chain rule the
    a-space kernel replaced."""
    G = _reference_grad(lam, counts)
    W = aux_loading_matrix(schema, sp.w, sp.a)
    return FitGradient(
        b=_chain_b(schema, sp.b, G),
        w=_reduce_w(schema, G @ sp.V * sp.omega[None, :]),
        V=G.T @ W * sp.omega[None, :],
        omega=np.einsum("ra,rc,ca->a", W, G, sp.V) if sp.a else np.zeros(0),
    )


def _flat(g):
    return np.concatenate([*g.b, *g.w, g.V.ravel(), g.omega])


def _assert_matches_reference(schema, sp, counts):
    """The a-space NLL and gradient against the per-state lambda-space loops:
    the same finiteness, and 1e-12 relative where finite.  Returns the NLL."""
    lam = np.asarray(assemble_lambda(schema, sp).lam)
    nll, want = negative_log_likelihood(schema, sp, counts), _reference_nll(lam, counts)
    assert np.isfinite(nll) == np.isfinite(want)
    if np.isfinite(nll):
        assert nll == pytest.approx(want, rel=1e-12, abs=0)
        got = _flat(nll_gradient(schema, sp, counts))
        ref = _flat(_reference_natural_grad(schema, sp, lam, counts))
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    return nll


def _one_factor_cat3(diagonal):
    """Cat(3), a = 1, three rows at level 1, with lam[0, 0] = diagonal: the
    observed minor lam[0, 0] - 1 = 1 + w / 2 is zero at diagonal 1 and
    negative below, while det lam = 3 + w / 2 stays positive."""
    schema = VariableSchema([VariableDecl("x", CAT, 3)])
    sp = StructuredParams(
        b=(np.zeros(2),), w=(np.array([2.0 * (diagonal - 2.0)]),),
        V=np.array([[1.0], [0.0]]), omega=np.array([0.5]), C=np.eye(3),
    )
    return schema, sp, state_counts(schema, [Record((1,))] * 3)


class TestBatchedKernelIsExact:
    """The a-space NLL and gradient agree with the per-state lambda-space
    loops within 1e-12 relative, and are infinite exactly where they are."""

    @pytest.fixture
    def q8(self, rng):
        schema = VariableSchema(
            [VariableDecl("c3", CAT, 3), VariableDecl("o4", ORD, 4), VariableDecl("c4", CAT, 4)]
        )
        sp = random_certified_structured(rng, schema, 2)
        params = assemble_lambda(schema, sp)
        states = enumerate_allowed_states(schema)
        probs = [joint_probability(params, s.bits) for s in states]
        rows = sample_rows_from_probs(rng, schema, states, probs, 400)
        counts = state_counts(schema, rows + [Record((0, 0, 0))])
        assert ((0,) * 8) in dict(counts.items)
        return schema, sp, counts

    def test_nll_and_gradient_at_random_draws(self, q8, rng):
        schema, sp, counts = q8
        draws = [sp] + [random_structured(rng, schema, a) for a in (0, 1, 2, 2, 3)]
        finite = sum(np.isfinite(_assert_matches_reference(schema, d, counts)) for d in draws)
        assert finite >= 3

    @pytest.mark.parametrize("diagonal", [1.0, 0.5])
    def test_singular_or_negative_minor_is_infinite(self, diagonal):
        schema, sp, counts = _one_factor_cat3(diagonal)
        lam = np.asarray(assemble_lambda(schema, sp).lam)
        assert lam[0, 0] == diagonal and np.linalg.slogdet(lam)[0] > 0
        nll = negative_log_likelihood(schema, sp, counts)
        assert nll == np.inf == _reference_nll(lam, counts)

    @pytest.mark.parametrize("a", [0, 2])
    def test_unobserved_levels_at_the_bound(self, rng, a):
        """e^-beta overflows on the levels no row reaches; the kernel never
        computes it there."""
        schema = VariableSchema([VariableDecl("o30", ORD, 30), VariableDecl("c3", CAT, 3)])
        sp = random_structured(rng, schema, a)
        b = (np.concatenate([sp.b[0][:3], np.full(26, -B_CAP)]), sp.b[1])
        sp = StructuredParams(b=b, w=sp.w, V=sp.V, omega=sp.omega, C=sp.C)
        rows = np.stack([rng.integers(0, 4, 300), rng.integers(0, 3, 300)], axis=1)
        counts = state_counts(schema, rows)
        assert np.isfinite(_assert_matches_reference(schema, sp, counts))
        assert np.isfinite(_flat(nll_gradient(schema, sp, counts))).all()


class TestGradient:
    def _finite_difference(self, schema, sp, counts, h=1e-6):
        def with_b(j, i, eps):
            b = [v.copy() for v in sp.b]
            b[j][i] += eps
            return StructuredParams(b=tuple(b), w=sp.w, V=sp.V, omega=sp.omega, C=sp.C)

        g = nll_gradient(schema, sp, counts)
        worst = 0.0
        for j, bv in enumerate(sp.b):
            for i in range(len(bv)):
                f1 = negative_log_likelihood(schema, with_b(j, i, h), counts)
                f2 = negative_log_likelihood(schema, with_b(j, i, -h), counts)
                fd = (f1 - f2) / (2 * h)
                worst = max(worst, abs(fd - g.b[j][i]) / max(1.0, abs(fd)))
        return worst

    def test_stationary_at_single_variable_mle(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        rows = [Record((0,))] * 20 + [Record((1,))] * 30 + [Record((2,))] * 50
        counts = state_counts(schema, rows)
        sp = StructuredParams.independent(
            schema, [np.log(np.array([30.0, 50.0]) / 20.0)]
        )
        g = nll_gradient(schema, sp, counts)
        assert np.linalg.norm(np.concatenate(g.b)) <= 1e-8

    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            schema = random_schema(rng, 6)
            a = int(rng.integers(0, 3))
            sp = random_structured(rng, schema, a)
            states = enumerate_allowed_states(schema)
            params = assemble_lambda(schema, sp)
            probs = [joint_probability(params, s.bits) for s in states]
            rows = sample_rows_from_probs(rng, schema, states, probs, 120)
            counts = state_counts(schema, rows)
            assert self._finite_difference(schema, sp, counts) <= 1e-5

    def test_no_aux_gradient_when_a_zero(self, rng):
        schema = random_schema(rng, 4)
        sp = random_structured(rng, schema, 0)
        states = enumerate_allowed_states(schema)
        params = assemble_lambda(schema, sp)
        probs = [joint_probability(params, s.bits) for s in states]
        rows = sample_rows_from_probs(rng, schema, states, probs, 60)
        g = nll_gradient(schema, sp, state_counts(schema, rows))
        assert g.V.shape == (schema.q, 0)
        assert g.omega.shape == (0,)

    def test_omega_and_v_and_w_match_finite_differences(self, rng):
        schema = reader_style_schema()
        sp = random_structured(rng, schema, 2)
        states = enumerate_allowed_states(schema)
        params = assemble_lambda(schema, sp)
        probs = [joint_probability(params, s.bits) for s in states]
        rows = sample_rows_from_probs(rng, schema, states, probs, 150)
        counts = state_counts(schema, rows)
        g = nll_gradient(schema, sp, counts)
        h = 1e-6

        def nll_of(sp2):
            return negative_log_likelihood(schema, sp2, counts)

        worst = 0.0
        for k in range(2):
            om1, om2 = sp.omega.copy(), sp.omega.copy()
            om1[k] += h
            om2[k] -= h
            fd = (
                nll_of(StructuredParams(b=sp.b, w=sp.w, V=sp.V, omega=om1, C=sp.C))
                - nll_of(StructuredParams(b=sp.b, w=sp.w, V=sp.V, omega=om2, C=sp.C))
            ) / (2 * h)
            worst = max(worst, abs(fd - g.omega[k]) / max(1.0, abs(fd)))
        for r in range(schema.q):
            for k in range(2):
                V1, V2 = sp.V.copy(), sp.V.copy()
                V1[r, k] += h
                V2[r, k] -= h
                fd = (
                    nll_of(StructuredParams(b=sp.b, w=sp.w, V=V1, omega=sp.omega, C=sp.C))
                    - nll_of(StructuredParams(b=sp.b, w=sp.w, V=V2, omega=sp.omega, C=sp.C))
                ) / (2 * h)
                worst = max(worst, abs(fd - g.V[r, k]) / max(1.0, abs(fd)))
        for j in range(len(schema)):
            for k in range(2):
                w1 = [v.copy() for v in sp.w]
                w2 = [v.copy() for v in sp.w]
                w1[j][k] += h
                w2[j][k] -= h
                fd = (
                    nll_of(StructuredParams(b=sp.b, w=tuple(w1), V=sp.V, omega=sp.omega, C=sp.C))
                    - nll_of(StructuredParams(b=sp.b, w=tuple(w2), V=sp.V, omega=sp.omega, C=sp.C))
                ) / (2 * h)
                worst = max(worst, abs(fd - g.w[j][k]) / max(1.0, abs(fd)))
        assert worst <= 1e-5


def _dominance_counterexample(pad: int) -> tuple[VariableSchema, StructuredParams]:
    """An Ord(4), a = 1 model whose free-row margins pass (worst 0.1038) while
    allowed state (1, 1, 1) has probability -6.319e-3, followed by ``pad``
    uncoupled Cat(2) variables, which leave the margins unchanged and scale
    that probability by 2**-pad."""
    schema = VariableSchema(
        [VariableDecl("x", ORD, 4)] + [VariableDecl(f"z{i}", CAT, 2) for i in range(pad)]
    )
    sp = StructuredParams(
        b=(np.array([-1.59, -1.84, -1.5]),) + (np.zeros(1),) * pad,
        w=(np.array([0.05]),) + (np.zeros(1),) * pad,
        V=np.vstack([[[-0.1], [-0.01], [-0.41]], np.zeros((pad, 1))]),
        omega=np.array([0.73]),
        C=np.eye(schema.q + 1),
    )
    return schema, sp


class TestFit:
    def test_single_categorical_recovers_frequencies(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        rows = [Record((0,))] * 25 + [Record((1,))] * 35 + [Record((2,))] * 40
        report = fit_grassmann(schema, rows, FitConfig(a=0, restarts=1, seed=0))
        params = assemble_lambda(schema, report.params)
        freq = {0: 0.25, 1: 0.35, 2: 0.40}
        for level, want in freq.items():
            y = [1 if i == level - 1 else 0 for i in range(2)]
            assert joint_probability(params, y) == pytest.approx(want, abs=1e-6)

    def test_single_ordinal_recovers_frequencies(self):
        schema = VariableSchema([VariableDecl("x", ORD, 4)])
        rows = (
            [Record((0,))] * 10
            + [Record((1,))] * 20
            + [Record((2,))] * 30
            + [Record((3,))] * 40
        )
        report = fit_grassmann(schema, rows, FitConfig(a=0, restarts=1, seed=0))
        params = assemble_lambda(schema, report.params)
        for level, want in enumerate((0.1, 0.2, 0.3, 0.4)):
            y = [1] * level + [0] * (3 - level)
            assert joint_probability(params, y) == pytest.approx(want, abs=1e-6)

    def test_reader_style_mean_reproduction(self, rng):
        schema = reader_style_schema()
        truth = assemble_lambda(schema, reader_style_true_params())
        states = enumerate_allowed_states(schema)
        probs = [joint_probability(truth, s.bits) for s in states]
        rows = sample_rows_from_probs(rng, schema, states, probs, 941)
        report = fit_grassmann(
            schema, rows, FitConfig(a=2, restarts=2, seed=11, max_iter=2000, grad_tol=1e-9)
        )
        assert np.abs(report.mean_model - report.mean_empirical).max() <= 1e-4
        assert np.nanmax(np.abs(report.corr_model - report.corr_empirical)) <= 0.05
        assert report.feasible
        assert report.p0_min is not None and report.p0_min >= -1e-12

    def test_feasibility_margins_at_exit(self, rng):
        schema = reader_style_schema()
        truth = assemble_lambda(schema, reader_style_true_params())
        states = enumerate_allowed_states(schema)
        probs = [joint_probability(truth, s.bits) for s in states]
        rows = sample_rows_from_probs(rng, schema, states, probs, 300)
        report = fit_grassmann(schema, rows, FitConfig(a=1, restarts=1, seed=5))
        if report.feasible:
            assert report.worst_margin_b >= -1e-10
            assert report.worst_margin_c >= 1e-8

    def test_negative_state_probability_is_not_feasible(self, monkeypatch):
        import grasscat.fit

        real = grasscat.fit.state_probabilities

        def one_negative(params, states):
            probs = real(params, states)
            probs[0] = -0.01
            return probs

        monkeypatch.setattr(grasscat.fit, "state_probabilities", one_negative)
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        rows = [Record((0,))] * 25 + [Record((1,))] * 35 + [Record((2,))] * 40
        report = fit_grassmann(schema, rows, FitConfig(a=0, restarts=1, seed=0))
        assert report.p0_min == -0.01
        assert not report.feasible
        assert not report.converged
        assert any("p0_min" in w for w in report.warnings)
        assert report.worst_margin_b >= 0.0  # the dominance margins alone pass

    def test_adjacent_unobserved_ordinal_levels_start_at_zero_logit(self):
        # log(0) - log(0) is nan: the start maps it to 0 without a RuntimeWarning
        schema = VariableSchema([VariableDecl("x", ORD, 4)])
        rows = [Record((0,))] * 5 + [Record((1,))] * 5
        report = fit_grassmann(schema, rows, FitConfig(a=0, restarts=1, seed=0, max_iter=5))
        assert any("clipped" in w for w in report.warnings)

    def test_p0_min_is_the_allowed_state_minimum(self, monkeypatch):
        import grasscat.grassmann

        def no_full_enumeration(params):
            raise AssertionError("the fit enumerated all 2**q states")

        monkeypatch.setattr(grasscat.grassmann, "all_state_probabilities", no_full_enumeration)
        schema = VariableSchema([
            VariableDecl("x", CAT, 3), VariableDecl("y", ORD, 4),
            VariableDecl("z", CAT, 3), VariableDecl("u", CAT, 2),
        ])
        assert schema.q == 8
        rows = [Record((i % 3, i % 4, i % 5 % 3, i % 7 % 2)) for i in range(120)]
        report = fit_grassmann(schema, rows, FitConfig(a=1, restarts=1, seed=0, max_iter=50))
        params = assemble_lambda(schema, report.params)
        assert report.p0_min == state_probabilities(params, allowed_table(schema)[0]).min()

    def test_dominance_margins_do_not_certify_positivity(self):
        schema, sp = _dominance_counterexample(pad=0)
        report = dominance_certificate(schema, sp)
        assert report.passed
        assert report.worst_b_free == pytest.approx(0.1038, abs=1e-4)
        params = assemble_lambda(schema, sp)
        assert joint_probability(params, [1, 1, 1]) == pytest.approx(-6.319e-3, abs=1e-6)

    def test_uncertified_fit_above_q14_is_not_feasible(self, monkeypatch):
        import grasscat.fit

        schema, sp = _dominance_counterexample(pad=12)
        assert schema.q == 15
        assert dominance_certificate(schema, sp).worst_b_free == pytest.approx(0.1038, abs=1e-4)
        fitted = ((0.0, 0.0), grasscat.fit._Packer(schema, 1).pack(sp), True, 0)
        monkeypatch.setattr(grasscat.fit, "_penalized_fit", lambda *args: fitted)
        rows = [Record((0,) * len(schema))] * 10
        report = fit_grassmann(schema, rows, FitConfig(a=1, restarts=1, seed=0))
        assert report.p0_min == pytest.approx(-1.543e-6, abs=1e-9)
        assert not report.feasible
        assert not report.converged
        assert any("p0_min" in w for w in report.warnings)

    def test_plan_is_built_once_per_fit(self, monkeypatch):
        import grasscat.fit

        calls = []
        build = grasscat.fit._state_plan
        monkeypatch.setattr(
            grasscat.fit, "_state_plan", lambda *args: calls.append(args) or build(*args)
        )
        schema = VariableSchema([VariableDecl("x", CAT, 3), VariableDecl("y", ORD, 3)])
        rows = [Record((i % 3, i % 7 % 3)) for i in range(60)]
        fit_grassmann(schema, rows, FitConfig(a=1, restarts=2, seed=0, max_iter=50))
        assert len(calls) == 1


class TestModelCorrelation:
    def test_independent_is_identity(self):
        params = GrassmannParams.from_sigma(np.diag([0.3, 0.7, 0.5]))
        np.testing.assert_allclose(model_correlation(params), np.eye(3), atol=1e-14)

    def test_matches_enumeration(self, rng):
        params = random_valid_params(rng, 2)
        table = brute_force_table(params)
        np.testing.assert_allclose(
            model_correlation(params), table.corr, atol=1e-10
        )

    def test_diagonal_exactly_one(self, rng):
        params = random_valid_params(rng, 5)
        assert (np.diag(model_correlation(params)) == 1.0).all()


class TestEmpiricalMoments:
    def test_simple(self):
        schema = VariableSchema([VariableDecl("x", CAT, 2)])
        counts = StateCounts(items=(((1,), 3), ((0,), 1)))
        mean, cov, corr = empirical_moments(schema, counts)
        assert mean[0] == pytest.approx(0.75)
        assert cov[0, 0] == pytest.approx(0.1875)
        assert corr[0, 0] == 1.0


class TestMonotoneDescent:
    def test_penalized_objective_never_increases_across_iterates(self, rng):
        import scipy.optimize

        from grasscat.fit import _Packer, _initial_b, _penalized_objective, _state_plan
        from grasscat.structure import StructuredParams

        schema = reader_style_schema()
        truth = assemble_lambda(schema, reader_style_true_params())
        states = enumerate_allowed_states(schema)
        probs = [joint_probability(truth, s.bits) for s in states]
        rows = sample_rows_from_probs(rng, schema, states, probs, 250)
        counts = state_counts(schema, rows)
        packer = _Packer(schema, 2)
        b0 = _initial_b(schema, counts, [])
        sp0 = StructuredParams(
            b=tuple(np.asarray(v) for v in b0),
            w=tuple(rng.normal(0, 0.1, 2) for _ in schema.variables),
            V=rng.normal(0, 0.1, (schema.q, 2)),
            omega=np.full(2, 0.5),
            C=np.eye(schema.q + 2),
        )
        mu = 10.0
        plan = _state_plan(schema, counts)

        def objective(x):
            return _penalized_objective(x, mu, packer, plan)

        values = []

        def cb(xk):
            values.append(objective(xk)[0])

        scipy.optimize.minimize(
            objective,
            packer.pack(sp0),
            method="L-BFGS-B",
            jac=True,
            callback=cb,
            bounds=packer.bounds,
            options={"maxiter": 150, "ftol": 1e-14},
        )
        assert len(values) > 3
        diffs = np.diff(np.asarray(values))
        assert (diffs <= 1e-9 * np.maximum(1.0, np.abs(values[:-1]))).all()


class TestDegenerateData:
    def test_unobserved_category_caps_bias_and_warns(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        rows = [Record((0,))] * 10 + [Record((1,))] * 10  # level 2 never seen
        report = fit_grassmann(schema, rows, FitConfig(a=0, restarts=1, seed=0))
        assert any("clipped" in w for w in report.warnings)
        assert np.abs(report.params.b[0]).max() <= 30.0 + 1e-9
