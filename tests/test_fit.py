import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grasscat.errors import DataError, InvalidStateError, ParameterError, SchemaError
from grasscat.fit import (
    B_CAP,
    INIT_SCALE,
    FitConfig,
    FitGradient,
    StateCounts,
    empirical_moments,
    fit_grassmann,
    negative_log_likelihood,
    nll_gradient,
    state_counts,
    _Packer,
    _likelihood,
    _objective,
    _table_plan,
)
from grasscat.grassmann import (
    GrassmannParams,
    _correlation,
    moments,
    state_probabilities,
    weighted_moments,
)
from grasscat.oracle import brute_force_table
from grasscat.schema import (
    Record,
    VariableDecl,
    VariableKind,
    VariableSchema,
    allowed_table,
    encode_record,
    levels_of_bits,
    table_rows,
)
from grasscat.structure import (
    StructuredParams,
    _allowed_state_probabilities,
    _eliminate,
    _ends,
    _gauss_jordan,
    _k_and_w,
    _structured_moments,
    assemble_lambda,
    extended_lambda,
    flat_params,
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


def _chain_b(schema, b_vectors, G):
    """Chain an ambient gradient matrix through the quasi-diagonal core."""
    out = []
    for j, v in enumerate(schema.variables):
        s, e = schema.blocks[j]
        bv = b_vectors[j]
        if v.kind is VariableKind.CATEGORICAL:
            out.append(np.exp(bv) * G[s:e, s:e].sum(axis=0))
        else:
            psi = np.exp(np.cumsum(bv))
            contrib = psi * G[s, s:e]
            out.append(contrib[::-1].cumsum()[::-1])
    return tuple(out)


def _reduce_w(schema, G_ambient):
    """Collapse an ambient (q, a) gradient onto the per-variable w vectors."""
    out = []
    for j, v in enumerate(schema.variables):
        s, e = schema.blocks[j]
        if v.kind is VariableKind.CATEGORICAL:
            out.append(G_ambient[s:e].sum(axis=0))
        else:
            out.append(G_ambient[s].copy())
    return tuple(out)


def _reference_natural_grad(schema, sp, lam, counts):
    """_reference_grad chained to (b, w, V, omega), the chain rule the
    a-space kernel replaced."""
    G = _reference_grad(lam, counts)
    _, W = _k_and_w(schema, np.concatenate(sp.b), np.reshape(sp.w, (len(schema), sp.a)))
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


def _objective_parts(schema, counts, a):
    """The packer and the allowed-state table plan of fit_grassmann's
    objective on ``counts``."""
    plan = _table_plan(schema, counts)
    return _Packer(schema, a, plan.bit_counts == 0), plan


def _one_factor_cat3(diagonal):
    """Cat(3), a = 1, three rows at level 1, with lam[0, 0] = diagonal: the
    observed minor lam[0, 0] - 1 = 1 + w / 2 is zero at diagonal 1 and
    negative below, while det lam = 3 + w / 2 stays positive."""
    schema = VariableSchema([VariableDecl("x", CAT, 3)])
    sp = StructuredParams(
        b=(np.zeros(2),), w=(np.array([2.0 * (diagonal - 2.0)]),),
        V=np.array([[1.0], [0.0]]), omega=np.array([0.5]),
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
        draws = [sp] + [random_structured(rng, schema, a) for a in (0, 1, 2, 2, 3, 4, 5)]
        finite = sum(np.isfinite(_assert_matches_reference(schema, d, counts)) for d in draws)
        assert finite >= 3

    @pytest.mark.parametrize("w1, finite", [(1.0, True), (-1.0, False), (0.0, False)])
    def test_zero_leading_entry_swaps_rows(self, w1, finite):
        """State (1, 0) has A_s = [[0, w1 / 2], [-1, 1 + w1 / 2]], and det
        A_s = w1 / 2 is positive, negative or exactly zero.  A 2 x 2 stack
        is solved in closed form; only the singular A_s of w1 = 0 is
        eliminated, with a row swap.  Nonsingular row swaps are tested at
        a >= 3 (test_elimination_matches_lapack)."""
        schema = VariableSchema([VariableDecl("x", CAT, 2), VariableDecl("y", CAT, 3)])
        sp = StructuredParams(
            b=(np.zeros(1), np.array([0.3, -0.2])),
            w=(np.array([-2.0, w1]), np.array([0.1, -0.2])),
            V=np.array([[1.0, 1.0], [0.3, -0.4], [0.2, 0.5]]),
            omega=np.array([0.5, 0.5]),
        )
        rows = [(1, 0)] * 3 + [(0, 0)] * 4 + [(0, 1), (0, 2), (0, 2)]
        counts = state_counts(schema, np.array(rows))
        lam = np.asarray(assemble_lambda(schema, sp).lam)
        assert lam[0, 0] - 1.0 == w1 / 2.0  # the minor of state (1, 0) is det A_s exactly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nll = _assert_matches_reference(schema, sp, counts)
        assert np.isfinite(nll) == finite

    def test_elimination_matches_lapack(self, rng):
        """Sign, log|det| and inverse of random stacks, a third of them
        with a zero leading entry (singular at a = 1), against np.linalg,
        with no warning.  At a = 2 also the 2 x 2 stack scaled by 1e200 and
        by 1e-200, where a d - b c overflows or underflows, and singular
        stacks whose a d - b c is exactly +0.0 or -0.0."""
        stacks = {}
        for a in range(1, 6):
            stacks[a] = rng.normal(size=(40, a, a))
            stacks[a][::3, 0, 0] = 0.0
        for scale in (1e200, 1e-200):
            stacks[scale] = stacks[2] * scale
        # the second row a power of 2 times the first, which starts with one,
        # so that LAPACK's elimination meets an exact zero pivot too
        rows = np.stack([rng.choice([-1.0, 1.0], 40) * 2.0 ** rng.integers(-3, 4, 40),
                         rng.normal(size=40)], axis=1)[:, None, :]
        singular = np.concatenate([rows, rows * 2.0 ** rng.integers(-3, 4, (40, 1, 1))], axis=1)
        singular[::2, :, 0] = np.where(rng.random((20, 2)) < 0.5, -0.0, 0.0)  # a zero column
        det = singular[:, 0, 0] * singular[:, 1, 1] - singular[:, 0, 1] * singular[:, 1, 0]
        assert (det == 0.0).all() and np.signbit(det).any() and not np.signbit(det).all()
        stacks["singular"] = singular
        for key, stack in stacks.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sign, logdet, inv = _gauss_jordan(
                    np.ascontiguousarray(stack.transpose(1, 2, 0)), True)
                det_only = _gauss_jordan(stack.transpose(1, 2, 0), False)
            want_sign, want_logdet = np.linalg.slogdet(stack)
            np.testing.assert_array_equal(sign, want_sign)
            ok = want_sign != 0
            assert ok.sum() == {1: 26, "singular": 0}.get(key, 40)
            np.testing.assert_allclose(logdet[ok], want_logdet[ok], rtol=1e-12, atol=1e-12)
            size = np.abs(stack[ok]).max(axis=(1, 2))[:, None, None]  # compares the inverse at O(1)
            np.testing.assert_allclose(inv.transpose(2, 0, 1)[ok] * size,
                                       np.linalg.inv(stack[ok]) * size, rtol=1e-9, atol=1e-9)
            np.testing.assert_array_equal(det_only[0], sign)
            assert det_only[2] is None

    def test_objective_makes_no_lapack_call(self, rng, monkeypatch):
        schema = reader_style_schema()
        counts = state_counts(schema, np.stack(
            [rng.integers(0, v.levels, 300) for v in schema.variables], axis=1))
        packer, plan = _objective_parts(schema, counts, 2)
        x = packer.pack(reader_style_true_params())
        value, grad = _objective(x, 0.0, packer, plan)
        assert np.isfinite(value) and value != 1.0  # not the wall above f0 = 0

        def lapack(*args, **kwargs):
            raise AssertionError("the objective called np.linalg")

        for name in ("slogdet", "inv", "det", "solve"):
            monkeypatch.setattr(np.linalg, name, lapack)
        got_value, got_grad = _objective(x, 0.0, packer, plan)
        assert got_value == pytest.approx(value, rel=1e-12, abs=0)
        np.testing.assert_allclose(got_grad, grad, rtol=1e-12, atol=0)

    def test_objective_builds_no_typed_parameters(self, q8, monkeypatch):
        """The objective reads the optimizer vector's views: it builds no
        StructuredParams and no FitGradient, and returns the same bits."""
        import grasscat.fit

        schema, sp, counts = q8
        packer, plan = _objective_parts(schema, counts, sp.a)
        x = packer.pack(sp)
        value, grad = _objective(x, 0.0, packer, plan)
        assert np.isfinite(value) and value != 1.0

        def typed(*args, **kwargs):
            raise AssertionError("the objective built a typed parameter object")

        monkeypatch.setattr(grasscat.fit, "StructuredParams", typed)
        monkeypatch.setattr(grasscat.fit, "FitGradient", typed)
        got_value, got_grad = _objective(x, 0.0, packer, plan)
        assert got_value == value
        np.testing.assert_array_equal(got_grad, grad)

    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_packed_gradient_matches_finite_differences(self, q8, rng, a):
        """Central differences of the fit's objective, the NLL over the
        allowed-state table, in every coordinate of the packed (b, w, V,
        rho) vector, at a certified model.  ``fit --latent-aux auto`` starts
        every sweep at a = 0."""
        schema, sp, counts = q8
        if a != sp.a:
            sp = random_certified_structured(rng, schema, a)
        packer, plan = _objective_parts(schema, counts, a)
        x = packer.pack(sp)
        value, grad = _objective(x, 0.0, packer, plan)
        assert value == pytest.approx(negative_log_likelihood(schema, sp, counts), rel=1e-12)
        h = 1e-6
        worst = 0.0
        for i in range(len(x)):
            step = np.zeros_like(x)
            step[i] = h
            fd = (_objective(x + step, 0.0, packer, plan)[0]
                  - _objective(x - step, 0.0, packer, plan)[0]) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / max(1.0, abs(fd)))
        assert worst <= 1e-5

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
        sp = StructuredParams(b=b, w=sp.w, V=sp.V, omega=sp.omega)
        rows = np.stack([rng.integers(0, 4, 300), rng.integers(0, 3, 300)], axis=1)
        counts = state_counts(schema, rows)
        assert np.isfinite(_assert_matches_reference(schema, sp, counts))
        assert np.isfinite(_flat(nll_gradient(schema, sp, counts))).all()


class TestGradient:
    def _finite_difference(self, schema, sp, counts, h=1e-6):
        def with_b(j, i, eps):
            b = [v.copy() for v in sp.b]
            b[j][i] += eps
            return StructuredParams(b=tuple(b), w=sp.w, V=sp.V, omega=sp.omega)

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
                nll_of(StructuredParams(b=sp.b, w=sp.w, V=sp.V, omega=om1))
                - nll_of(StructuredParams(b=sp.b, w=sp.w, V=sp.V, omega=om2))
            ) / (2 * h)
            worst = max(worst, abs(fd - g.omega[k]) / max(1.0, abs(fd)))
        for r in range(schema.q):
            for k in range(2):
                V1, V2 = sp.V.copy(), sp.V.copy()
                V1[r, k] += h
                V2[r, k] -= h
                fd = (
                    nll_of(StructuredParams(b=sp.b, w=sp.w, V=V1, omega=sp.omega))
                    - nll_of(StructuredParams(b=sp.b, w=sp.w, V=V2, omega=sp.omega))
                ) / (2 * h)
                worst = max(worst, abs(fd - g.V[r, k]) / max(1.0, abs(fd)))
        for j in range(len(schema)):
            for k in range(2):
                w1 = [v.copy() for v in sp.w]
                w2 = [v.copy() for v in sp.w]
                w1[j][k] += h
                w2[j][k] -= h
                fd = (
                    nll_of(StructuredParams(b=sp.b, w=tuple(w1), V=sp.V, omega=sp.omega))
                    - nll_of(StructuredParams(b=sp.b, w=tuple(w2), V=sp.V, omega=sp.omega))
                ) / (2 * h)
                worst = max(worst, abs(fd - g.w[j][k]) / max(1.0, abs(fd)))
        assert worst <= 1e-5


def _small_schema(rng):
    """One to five variables of either kind with 2 to 5 levels; Cat(2) and
    Ord(2) give blocks of one bit."""
    kinds = [CAT, ORD]
    decls = [VariableDecl(f"v{j}", kinds[rng.integers(2)], int(rng.integers(2, 6)))
             for j in range(rng.integers(1, 6))]
    return VariableSchema(decls)


def _dominance_counterexample(pad: int) -> tuple[VariableSchema, StructuredParams]:
    """An Ord(4), a = 1 model whose free-row dominance margins pass (worst
    0.1038, with slack C = I) while allowed state (1, 1, 1) has probability
    -6.319e-3, followed by ``pad`` uncoupled Cat(2) variables, which scale
    that probability by 2**-pad."""
    schema = VariableSchema(
        [VariableDecl("x", ORD, 4)] + [VariableDecl(f"z{i}", CAT, 2) for i in range(pad)]
    )
    sp = StructuredParams(
        b=(np.array([-1.59, -1.84, -1.5]),) + (np.zeros(1),) * pad,
        w=(np.array([0.05]),) + (np.zeros(1),) * pad,
        V=np.vstack([[[-0.1], [-0.01], [-0.41]], np.zeros((pad, 1))]),
        omega=np.array([0.73]),
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
        assert report.feasible == (report.p0_min >= -1e-12)
        assert report.feasible and np.isfinite(report.nll)

    def test_negative_state_probability_is_not_feasible(self, monkeypatch):
        import grasscat.fit

        real = grasscat.fit._allowed_state_probabilities

        def one_negative(schema, sp):
            probs = real(schema, sp)
            probs[0] = -0.01
            return probs

        monkeypatch.setattr(grasscat.fit, "_allowed_state_probabilities", one_negative)
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        rows = [Record((0,))] * 25 + [Record((1,))] * 35 + [Record((2,))] * 40
        report = fit_grassmann(schema, rows, FitConfig(a=0, restarts=1, seed=0))
        assert report.p0_min == -0.01
        assert not report.feasible
        assert not report.converged
        assert any("p0_min" in w for w in report.warnings)

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
        assert report.p0_min == _allowed_state_probabilities(schema, report.params).min()
        params = assemble_lambda(schema, report.params)
        lam_space = state_probabilities(params, allowed_table(schema)[0]).min()
        assert report.p0_min == pytest.approx(lam_space, rel=1e-12, abs=1e-15)

    def test_rows_near_the_dominance_counterexample_give_a_certified_fit(self, rng):
        """The counterexample's table, its negative state clipped to 0, so
        that level 3 goes unobserved: the fit is certified."""
        schema, sp = _dominance_counterexample(pad=1)
        params = assemble_lambda(schema, sp)
        states = enumerate_allowed_states(schema)
        probs = [joint_probability(params, s.bits) for s in states]
        assert min(probs) == pytest.approx(-6.319e-3 / 2, abs=1e-6)
        rows = sample_rows_from_probs(rng, schema, states, probs, 500)
        for a in (1, 2):
            report = fit_grassmann(schema, rows, FitConfig(a=a, seed=0))
            assert report.feasible and report.p0_min >= -1e-12
            assert np.isfinite(report.nll)

    def test_uncertified_fit_above_q14_is_not_feasible(self, monkeypatch):
        import grasscat.fit

        schema, sp = _dominance_counterexample(pad=12)
        assert schema.q == 15
        fitted = ((0.0, 0.0), _Packer(schema, 1, np.zeros(schema.q, bool)).pack(sp), True, 0)
        monkeypatch.setattr(grasscat.fit, "_restarts", lambda *args: fitted)
        rows = [Record((0,) * len(schema))] * 10
        report = fit_grassmann(schema, rows, FitConfig(a=1, restarts=1, seed=0))
        assert report.p0_min == pytest.approx(-1.543e-6, abs=1e-9)
        assert not report.feasible
        assert not report.converged
        assert any("p0_min" in w for w in report.warnings)

    def test_plan_is_built_once_per_fit(self, monkeypatch):
        """One allowed-state table plan per fit, whatever the restarts."""
        import grasscat.fit

        calls = []
        build = grasscat.fit._table_plan
        monkeypatch.setattr(
            grasscat.fit, "_table_plan", lambda *args: calls.append(args) or build(*args)
        )
        schema = VariableSchema([VariableDecl("x", CAT, 3), VariableDecl("y", ORD, 3)])
        rows = [Record((i % 3, i % 7 % 3)) for i in range(60)]
        fit_grassmann(schema, rows, FitConfig(a=1, restarts=2, seed=0, max_iter=50))
        assert len(calls) == 1


def model_correlation(params: GrassmannParams) -> np.ndarray:
    """Pearson correlation implied by lam's moments; exact unit diagonal."""
    return _correlation(moments(params)[1])


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
    def test_objective_never_increases_across_iterates(self, rng):
        import scipy.optimize

        from grasscat.fit import _initial_b

        schema = reader_style_schema()
        truth = assemble_lambda(schema, reader_style_true_params())
        states = enumerate_allowed_states(schema)
        probs = [joint_probability(truth, s.bits) for s in states]
        rows = sample_rows_from_probs(rng, schema, states, probs, 250)
        counts = state_counts(schema, rows)
        packer, plan = _objective_parts(schema, counts, 2)
        b0 = _initial_b(schema, counts, [])
        sp0 = StructuredParams(
            b=tuple(np.asarray(v) for v in b0),
            w=tuple(rng.normal(0, 0.1, 2) for _ in schema.variables),
            V=rng.normal(0, 0.1, (schema.q, 2)),
            omega=np.full(2, 0.5),
        )
        x0 = packer.pack(sp0)
        f0 = _objective(x0, 0.0, packer, plan)[0]
        assert np.isfinite(f0)

        def objective(x):
            return _objective(x, f0, packer, plan)

        values = []

        def cb(xk):
            values.append(objective(xk)[0])

        scipy.optimize.minimize(
            objective,
            x0,
            method="L-BFGS-B",
            jac=True,
            callback=cb,
            bounds=packer.bounds,
            options={"maxiter": 150, "ftol": 1e-14},
        )
        assert len(values) > 3
        diffs = np.diff(np.asarray([f0, *values]))
        assert (diffs <= 1e-9 * np.maximum(1.0, np.abs([f0, *values[:-1]]))).all()


class TestAllowedStateTable:
    """The a-space probability of every allowed state against the lam-space
    minors of grassmann.state_probabilities."""

    @staticmethod
    def _lam_space(schema, sp):
        return state_probabilities(assemble_lambda(schema, sp), allowed_table(schema)[0])

    def _assert_matches(self, schema, sp):
        table, want = _allowed_state_probabilities(schema, sp), self._lam_space(schema, sp)
        assert np.array_equal(np.sign(table), np.sign(want))
        assert np.abs(table - want).max() <= 1e-12
        return table

    @staticmethod
    def _one_bit_each(V, b=None):
        """Cat(2) variables with a = 1, w_v = 1 and omega = 1/2, so that
        t_v = V[v] / 2 and det A_s = 1 + sum of t_v over the variables at
        level 1."""
        k = len(V)
        schema = VariableSchema([VariableDecl(f"v{j}", CAT, 2) for j in range(k)])
        b = np.zeros(k) if b is None else b
        sp = StructuredParams(tuple(b[:, None]), (np.ones(1),) * k,
                              np.asarray(V, dtype=float)[:, None], np.full(1, 0.5))
        return schema, sp

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_matches_lam_space_minors(self, rng, a):
        negative = 0
        for _ in range(6):
            schema = random_schema(rng, 16)
            for w_scale in (0.4, 1.5):  # the wide coupling leaves some models invalid
                table = self._assert_matches(schema, random_structured(rng, schema, a,
                                                                       w_scale=w_scale))
                negative += (table < 0.0).any()
        assert negative > 0 or a == 0

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_certified_models_match_and_have_no_negative_state(self, rng, a):
        for _ in range(3):
            schema = random_schema(rng, 8, min_vars=2)
            table = self._assert_matches(schema, random_certified_structured(rng, schema, a))
            assert table.min() >= 0.0 and table.sum() == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _ord30_at_the_bound(rng, a):
        """The Ord(30) fixture with its last 26 b at -B_CAP: beta reaches -780."""
        schema = VariableSchema([VariableDecl("o30", ORD, 30), VariableDecl("c3", CAT, 3)])
        sp = random_structured(rng, schema, a)
        b = (np.concatenate([sp.b[0][:3], np.full(26, -B_CAP)]), sp.b[1])
        return schema, StructuredParams(b=b, w=sp.w, V=sp.V, omega=sp.omega)

    @pytest.mark.parametrize("a", [1, 2])
    def test_overflowing_decay_takes_the_pattern_border(self, rng, monkeypatch, a):
        """e^-beta overflows on the Ord(30)'s last bits.  Their shares are
        below 1e-3, so exactly the states at level 4 or above, the ones whose
        level ends on such a bit, are scored by the pattern kernel's border,
        and the table matches lam-space and sums to 1."""
        import grasscat.structure

        schema, sp = self._ord30_at_the_bound(rng, a)
        scored = []
        real = grasscat.structure._pattern_probabilities

        def recording(schema, sp, fixed, values):
            scored.append(values)
            return real(schema, sp, fixed, values)

        monkeypatch.setattr(grasscat.structure, "_pattern_probabilities", recording)
        table = self._assert_matches(schema, sp)
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
        bits, levels = allowed_table(schema)
        assert len(scored) == 1 and np.array_equal(scored[0], bits[levels[:, 0] >= 4])

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_levels_at_the_bound_match_lam_space(self, rng, a):
        """An Ord(4) and an Ord(5) with b[1:] at -B_CAP, the value the fit gives
        an unobserved level: the shares of their upper levels are e^-30 and
        less, and dividing by them put the table far off lam-space."""
        schema = VariableSchema([VariableDecl(f"v{j}", kind, levels) for j, (kind, levels)
                                 in enumerate([(CAT, 3), (ORD, 4), (CAT, 4), (ORD, 5)])])
        for w_scale in (0.4, 1.5):
            sp = random_structured(rng, schema, a, w_scale=w_scale)
            b = [np.concatenate([v[:1], np.full(v.size - 1, -B_CAP)]) if j in (1, 3) else v
                 for j, v in enumerate(sp.b)]
            sp = StructuredParams(tuple(b), sp.w, sp.V, sp.omega)
            table = _allowed_state_probabilities(schema, sp)
            # no sign check: lam's own rounding leaves states near e^-60 at +-1e-21
            assert np.abs(table - self._lam_space(schema, sp)).max() <= 1e-12
            assert table.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("chunk", [None, 4])
    def test_each_chunk_builds_its_level_ends_once(self, rng, monkeypatch, chunk):
        """A Cat(3) with one b at -30 has a rare level, so its rows take the
        pattern border too; the GEMM and the rare rows read one indicator
        per chunk of the 9 states (one chunk, or three of 4)."""
        import grasscat.structure

        schema = VariableSchema([VariableDecl("c", CAT, 3), VariableDecl("o", ORD, 3)])
        sp = random_structured(rng, schema, 2)
        sp = StructuredParams((np.array([sp.b[0][0], -30.0]), sp.b[1]), sp.w, sp.V, sp.omega)
        want = self._lam_space(schema, sp)
        calls = []

        def counted(*args):
            calls.append(args)
            return _ends(*args)

        monkeypatch.setattr(grasscat.structure, "_ends", counted)
        if chunk is not None:
            monkeypatch.setattr(grasscat.structure, "_CHUNK", chunk)
        table = _allowed_state_probabilities(schema, sp)
        assert len(calls) == (1 if chunk is None else 3)
        assert np.array_equal(np.sign(table), np.sign(want))
        assert np.abs(table - want).max() <= 1e-12

    @pytest.mark.parametrize("which", ["random", *(f"ord30 at a = {a}" for a in range(4))])
    def test_a_finite_model_builds_no_lambda(self, rng, monkeypatch, which):
        """Neither the per-bit GEMM nor the border of the rare states forms
        lam, even where e^-beta overflows."""
        import grasscat.structure

        def no_lambda(*args):
            raise AssertionError("the table assembled lam")

        if which == "random":
            schema = random_schema(rng, 12)
            sp = random_structured(rng, schema, 2)
        else:
            schema, sp = self._ord30_at_the_bound(rng, int(which[-1]))
        want = self._lam_space(schema, sp)
        monkeypatch.setattr(grasscat.structure, "_raw_lambda", no_lambda)
        monkeypatch.setattr(GrassmannParams, "__post_init__", no_lambda)
        table = _allowed_state_probabilities(schema, sp)
        assert np.array_equal(np.sign(table), np.sign(want))
        assert np.abs(table - want).max() <= 1e-12

    @pytest.mark.parametrize("decls", [[(CAT, 3)] * 9, [(CAT, 2)] * 15, [(ORD, 5), (CAT, 4)] * 4])
    def test_chunks_of_at_most_2_14_states(self, rng, monkeypatch, decls):
        import grasscat.structure

        schema = VariableSchema([VariableDecl(f"v{j}", kind, levels)
                                 for j, (kind, levels) in enumerate(decls)])
        assert schema.n_states() > 2**14
        sizes = []
        real = grasscat.structure._gauss_jordan

        def recording(A, inverse):
            sizes.append(A.shape[2])
            return real(A, inverse)

        monkeypatch.setattr(grasscat.structure, "_gauss_jordan", recording)
        self._assert_matches(schema, random_structured(rng, schema, 2, b_scale=0.5))
        assert sizes[0] == 1  # det Abar
        assert len(sizes) > 2 and max(sizes) <= 2**14
        assert sum(sizes[1:]) == schema.n_states()

    def test_small_negative_values_clamp_to_zero(self):
        # p(v0 = 1) = (1 + V/2) / (2 + V/2) under V = -2 - d: about -d/2
        for d, want in ((2e-10, -1e-10), (2e-13, 0.0)):
            schema, sp = self._one_bit_each([-2.0 - d])
            table = self._assert_matches(schema, sp)
            assert table[1] == pytest.approx(want, rel=1e-4)
            assert not np.signbit(table[1]) or want < 0.0

    def test_negative_det_abar_sets_every_sign(self):
        # det Abar = 1 - 1.5 = -0.5 and det A_1 = -2: p = (-1, 2)
        schema, sp = self._one_bit_each([-6.0])
        assert np.allclose(self._assert_matches(schema, sp), [-1.0, 2.0], rtol=0, atol=1e-15)

    def test_singular_state_matrix_is_positive_zero(self):
        # det Abar = 1 - 0.5 - 1.5 = -1 and the state (1, 0) has det A_s = 1 - 1 = 0
        schema, sp = self._one_bit_each([-2.0, -6.0])
        table = self._assert_matches(schema, sp)
        assert np.allclose(table, [-0.25, 0.5, 0.0, 0.75], rtol=0, atol=1e-15)
        assert table[2] == 0.0 and not np.signbit(table[2])

    @pytest.mark.parametrize("field,value", [("b", np.inf), ("b", np.nan), ("w", np.nan),
                                             ("V", np.inf), ("omega", np.nan)])
    def test_non_finite_parameters_raise_as_lam_does(self, field, value):
        schema, sp = self._one_bit_each([0.5, -0.5])
        parts = {"b": list(sp.b), "w": list(sp.w), "V": sp.V.copy(), "omega": sp.omega.copy()}
        target = parts[field]
        if isinstance(target, list):
            target[0] = np.full_like(target[0], value)
        else:
            target.flat[0] = value
        bad = StructuredParams(tuple(parts["b"]), tuple(parts["w"]), parts["V"], parts["omega"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # lam's own assembly may warn
            with pytest.raises(ParameterError, match="^parameters contain non-finite entries$"):
                _allowed_state_probabilities(schema, bad)

    def test_singular_abar_raises(self):
        schema, sp = self._one_bit_each([-4.0])  # det Abar = 1 - 1 = 0
        for call in (_allowed_state_probabilities, _structured_moments):
            with pytest.raises(ParameterError, match="^lam is singular$"):
                call(schema, sp)

    def test_finite_parameters_whose_x_overflows_raise(self):
        # x_0 = e^2 * 1e308 / 2 overflows, though every parameter is finite
        schema, sp = self._one_bit_each([1e308, 0.5], b=np.array([-2.0, 0.0]))
        with pytest.raises(ParameterError, match="overflows"):
            _allowed_state_probabilities(schema, sp)


def _ref_ends(schema, bits):
    """The level-based scatter _state_plan used before _ends: row r is 1
    where a state's level ends on bit r, level 0 ending on no bit."""
    levels = levels_of_bits(schema, bits)
    q = schema.q
    starts = np.asarray([s for s, _ in schema.blocks], dtype=int)
    last_bits = np.where(levels > 0, starts + levels - 1, q)
    ends = np.zeros((q + 1, len(bits)))  # row q collects the level-0 entries
    ends[last_bits, np.arange(len(bits))[:, None]] = 1.0
    return ends[:q]


@st.composite
def _schemas(draw):
    return VariableSchema([
        VariableDecl(f"v{i}", draw(st.sampled_from([CAT, ORD])), draw(st.integers(2, 5)))
        for i in range(draw(st.integers(0, 4)))
    ])


# the bench's fit-q8 and fit-q16 schemas
_Q8 = [(CAT, 3), (ORD, 4), (CAT, 4)]
_Q16 = _Q8 + [(ORD, 3), (CAT, 2), (CAT, 2), (ORD, 3), (CAT, 3)]


class TestOneConstruction:
    """The allowed-state table builds its a x a matrices as the likelihood
    does, from the level-end indicator of _ends, and eliminates them
    forward only."""

    @given(_schemas())
    @example(VariableSchema([]))
    @example(VariableSchema([VariableDecl("o", ORD, 2)]))
    @settings(max_examples=200, deadline=None)
    def test_ends_is_the_level_scatter(self, schema):
        bits = allowed_table(schema)[0]
        ends = _ends(schema, bits)
        assert np.array_equal(ends, _ref_ends(schema, bits))
        assert ends.shape == (schema.q, schema.n_states()) and ends.dtype == float
        assert ends.flags.c_contiguous

    @pytest.mark.parametrize("a", [0, 1, 2, 3, 4])
    def test_forward_elimination_keeps_every_pivot(self, rng, a):
        """Sign and log|det| without the inverse are those with it, bit for
        bit, on stacks with row swaps and exact zero pivots (entries in
        {-1, 0, 1} make many matrices singular)."""
        stack = rng.normal(size=(a, a, 900))
        stack[:, :, ::2] = rng.integers(-1, 2, size=(a, a, 450))
        stack[:1, :1, ::3] = 0.0
        full, forward = _gauss_jordan(stack, True), _gauss_jordan(stack, False)
        assert np.array_equal(forward[0], full[0]) and np.array_equal(forward[1], full[1])
        assert forward[2] is None
        if a:
            assert (full[0] == 0).any() and (full[0] != 0).sum() > 300
        if a > 1:
            assert (np.abs(stack[1:, 0]) > np.abs(stack[0, 0])).any()  # a row swap

    @pytest.mark.parametrize("decls, n_rows", [(_Q8, 2000), (_Q16, 1000)])
    def test_table_scores_the_data_as_the_likelihood(self, rng, decls, n_rows):
        """-sum_s n_s log table[row_s] is the NLL to 1e-12 relative."""
        schema = VariableSchema([VariableDecl(f"v{j}", kind, levels)
                                 for j, (kind, levels) in enumerate(decls)])
        truth = _allowed_state_probabilities(schema, random_structured(rng, schema, 2,
                                                                       w_scale=0.2))
        assert truth.min() > 0.0
        levels = allowed_table(schema)[1][rng.choice(len(truth), n_rows, p=truth / truth.sum())]
        counts = state_counts(schema, levels)
        states, weights = counts.as_arrays()
        rows = table_rows(schema, levels_of_bits(schema, states))
        finite = 0
        for a in range(4):
            for _ in range(5):
                sp = random_structured(rng, schema, a)
                nll = negative_log_likelihood(schema, sp, counts)
                table = _allowed_state_probabilities(schema, sp)[rows]
                if np.isfinite(nll):  # else some det A_s or det Abar has sign <= 0
                    finite += 1
                    assert -(weights @ np.log(table)) == pytest.approx(nll, rel=1e-12, abs=0)
        assert finite >= 10


class TestOneCheckOneRule:
    """flat_params refuses a non-finite parameter on every path from a
    StructuredParams; the likelihood gives +inf, never nan, where a finite
    model overflows."""

    @staticmethod
    def _model(b, w):
        """Cat(2)+Cat(2) with a = 1, omega = 1/2 and V = [[1e308], [0.5]]."""
        schema = VariableSchema([VariableDecl(f"v{j}", CAT, 2) for j in range(2)])
        sp = StructuredParams(tuple(np.array([v]) for v in b), tuple(np.array([v]) for v in w),
                              np.array([[1e308], [0.5]]), np.full(1, 0.5))
        return schema, sp

    @pytest.mark.parametrize("rows", [[(1, 0), (0, 1), (0, 0)], [(1, 0), (1, 1)]],
                             ids=["nan-signs", "every-sign-positive"])
    def test_an_overflowing_model_has_infinite_nll_and_no_gradient(self, rows):
        # x_0 = 5e307 is finite; x_0 w_0 = 5e308 and det Abar overflow.  A
        # state at v0 = 0 meets inf * 0 in the GEMM and gets a nan sign; when
        # every state has v0 = 1, every det is +inf, and only the NLL is nan
        schema, sp = self._model((0.0, 0.0), (10.0, 1.0))
        counts = state_counts(schema, rows)
        assert negative_log_likelihood(schema, sp, counts) == np.inf
        with pytest.raises(ParameterError, match="no gradient"):
            nll_gradient(schema, sp, counts)

    @pytest.mark.parametrize("call", ["assemble_lambda", "negative_log_likelihood",
                                      "extended_lambda"])
    def test_a_nan_b_raises_the_one_message(self, call):
        schema, sp = self._model((np.nan, 0.0), (1.0, 1.0))
        sp = StructuredParams(sp.b, sp.w, np.full((2, 1), 0.5), sp.omega)
        run = {
            "assemble_lambda": lambda: assemble_lambda(schema, sp),
            "negative_log_likelihood": lambda: negative_log_likelihood(
                schema, sp, state_counts(schema, [(1, 0)])),
            "extended_lambda": lambda: extended_lambda(schema, sp),
        }[call]
        with pytest.raises(ParameterError, match="^parameters contain non-finite entries$"):
            run()


class TestDegenerateData:
    def test_empty_counts_are_an_empty_dataset(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        with pytest.raises(DataError, match="^dataset is empty$"):
            fit_grassmann(schema, StateCounts(items=()), FitConfig(a=1, restarts=1))

    def test_unobserved_category_caps_bias_and_warns(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        rows = [Record((0,))] * 10 + [Record((1,))] * 10  # level 2 never seen
        report = fit_grassmann(schema, rows, FitConfig(a=0, restarts=1, seed=0))
        assert any("clipped" in w for w in report.warnings)
        assert np.abs(report.params.b[0]).max() <= 30.0 + 1e-9


class TestDocumentedRules:
    def test_state_just_below_minus_1e_12_makes_the_fit_infeasible(self, monkeypatch):
        import grasscat.fit

        real = grasscat.fit._allowed_state_probabilities

        def one_slightly_negative(schema, sp):
            probs = real(schema, sp)
            probs[0] = -5e-10
            return probs

        monkeypatch.setattr(grasscat.fit, "_allowed_state_probabilities", one_slightly_negative)
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        rows = [Record((0,))] * 25 + [Record((1,))] * 35 + [Record((2,))] * 40
        report = fit_grassmann(schema, rows, FitConfig(a=0, restarts=1, seed=0))
        assert report.p0_min == -5e-10
        assert not report.feasible
        assert not report.converged
        assert any("p0_min" in w for w in report.warnings)

    def test_unobserved_level_starts_at_minus_30(self, monkeypatch):
        import grasscat.fit

        starts = []

        def start_only(seed, restarts, start, descend, key):
            starts.append(start(np.random.default_rng(seed)))
            return (0.0, 0.0), starts[-1], True, 0

        monkeypatch.setattr(grasscat.fit, "_restarts", start_only)
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        rows = [Record((0,))] * 10 + [Record((1,))] * 10  # level 2 never seen
        report = fit_grassmann(schema, rows, FitConfig(a=1, restarts=1, seed=0))
        assert starts[0][1] == -30.0
        assert any("clipped to +-30.0" in w for w in report.warnings)
        assert _Packer(schema, 1, np.zeros(schema.q, bool)).bounds[: schema.q] == [
            (-30.0, 30.0)] * schema.q


class TestFitConfigSeed:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            FitConfig(seed=-1)


class TestFitConfigIntegers:
    """Every integer field refuses a float or a bool, naming the field,
    before its range check; numpy integers are integers."""

    @pytest.mark.parametrize("field", ["a", "max_iter", "restarts", "seed"])
    def test_non_integer_field_rejected(self, field):
        for value in (1.5, -1.5, 2.0, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                FitConfig(**{field: value})
        assert getattr(FitConfig(**{field: np.int64(2)}), field) == 2


def _driver_rules(monkeypatch, schema, rows, a):
    """The start, descent and restart key that fit_grassmann hands to the
    restart driver, and the packer of their vectors."""
    import grasscat.fit

    captured = {}
    build = grasscat.fit._Packer

    def packer(*args):
        captured["packer"] = build(*args)
        return captured["packer"]

    def capture(seed, restarts, start, descend, key):
        captured.update(start=start, descend=descend, key=key)
        return (0.0, 0.0), start(np.random.default_rng(seed)), True, 0

    monkeypatch.setattr(grasscat.fit, "_Packer", packer)
    monkeypatch.setattr(grasscat.fit, "_restarts", capture)
    fit_grassmann(schema, rows, FitConfig(a=a, restarts=1, seed=0))
    return captured


def _params_at(schema, packer, x):
    """The model at the optimizer vector ``x``."""
    b, w, V, omega = packer.unpack(x)
    return StructuredParams(tuple(b[s:e] for s, e in schema.blocks), tuple(w), V, omega)


def _random_rows(rng, schema, n=200):
    return np.stack([rng.integers(0, v.levels, n) for v in schema.variables], axis=1)


class TestFitDriverRules:
    """The rules fit_grassmann gives the restart driver: the restart key is
    (the NLL over the allowed-state table, the norm of the optimizer
    vector)."""

    def test_one_certificate_and_one_typed_model_per_fit(self, monkeypatch):
        """Restarts read the optimizer vector; only the result builds a
        StructuredParams and scores its allowed states."""
        import grasscat.fit

        calls = []
        for name in ("_allowed_state_probabilities", "StructuredParams"):
            real = getattr(grasscat.fit, name)
            monkeypatch.setattr(grasscat.fit, name, lambda *args, _real=real, _name=name:
                                calls.append(_name) or _real(*args))
        schema = VariableSchema([VariableDecl("x", CAT, 3), VariableDecl("y", ORD, 3)])
        rows = [Record((i % 3, i % 7 % 3)) for i in range(60)]
        fit_grassmann(schema, rows, FitConfig(a=1, restarts=2, seed=0, max_iter=50))
        assert sorted(calls) == ["StructuredParams", "_allowed_state_probabilities"]

    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_key_is_the_nll_then_the_vector_norm(self, monkeypatch, rng, a):
        """The key's NLL is the observed NLL where every allowed state has a
        positive probability, and +inf elsewhere."""
        schema = _small_schema(rng)
        rows = _random_rows(rng, schema)
        rules = _driver_rules(monkeypatch, schema, rows, a)
        packer, counts = rules["packer"], state_counts(schema, rows)
        finite = 0
        for _ in range(20):
            x = rules["start"](rng)
            x[: schema.q] += rng.normal(0.0, 0.5, schema.q)
            x[packer.cuts[0]:packer.cuts[2]] *= 10.0 ** rng.uniform(0.0, 1.5)
            sp = _params_at(schema, packer, x)
            certified = _allowed_state_probabilities(schema, sp).min() > 0.0
            want = negative_log_likelihood(schema, sp, counts) if certified else np.inf
            nll, norm = rules["key"](x)
            assert nll == pytest.approx(want, rel=1e-12) and norm == float(np.linalg.norm(x))
            finite += certified
        assert 0 < finite < 20 or a == 0

    def test_equal_nll_goes_to_the_smaller_norm(self, monkeypatch, rng):
        """At a = 1, doubling w and halving V leaves every x_r w_r^T and
        xbar w^T bit for bit, so it changes the norm alone."""
        schema = VariableSchema([VariableDecl("x", CAT, 3), VariableDecl("y", ORD, 3)])
        rows = _random_rows(rng, schema)
        rules = _driver_rules(monkeypatch, schema, rows, 1)
        i, j, l = rules["packer"].cuts
        one = rules["start"](rng)
        other = one.copy()
        other[i:j] *= 2.0
        other[j:l] *= 0.5
        key_one, key_other = rules["key"](one), rules["key"](other)
        assert np.isfinite(key_one[0]) and key_one[0] == key_other[0]
        assert key_one[1] != key_other[1]
        assert min(key_one, key_other)[1] == min(key_one[1], key_other[1])




def _unobserved_level_rows(rng):
    """Cat(3) + Ord(4) + Cat(2) + Cat(3), 400 rows drawn from a coupled
    a = 2 model with every allowed state positive, less x's level 2 and
    y's level 3, which no row takes."""
    schema = VariableSchema([VariableDecl("x", CAT, 3), VariableDecl("y", ORD, 4),
                             VariableDecl("z", CAT, 2), VariableDecl("u", CAT, 3)])
    while True:
        probs = _allowed_state_probabilities(
            schema, random_structured(rng, schema, 2, b_scale=0.5, w_scale=1.0))
        if probs.min() > 0.0:
            break
    levels = allowed_table(schema)[1]
    probs[(levels[:, 0] == 2) | (levels[:, 1] == 3)] = 0.0
    return schema, levels[rng.choice(len(levels), 400, p=probs / probs.sum())]


def _rare_level_rows(rng):
    """Cat(3) + Ord(3) + Cat(2), 1000 rows, x's level 2 in one of them: its
    e^-beta is about 600, so x = e^-beta omega V is large at a random V."""
    schema = VariableSchema([VariableDecl("x", CAT, 3), VariableDecl("y", ORD, 3),
                             VariableDecl("z", CAT, 2)])
    rows = np.stack([rng.choice(3, 1000, p=[0.6, 0.4, 0.0]), rng.integers(0, 3, 1000),
                     rng.integers(0, 2, 1000)], axis=1)
    rows[0, 0] = 2
    return schema, rows


class TestCertifiedObjective:
    """The fit's objective is the NLL over the allowed-state table: finite
    exactly where every allowed state is positive, with a finite wall
    elsewhere; the V rows of unobserved levels stay at 0, and a start that is
    not certified is halved toward independence."""

    def test_finite_exactly_where_every_allowed_state_is_positive(self, rng):
        schema = VariableSchema([VariableDecl(f"v{j}", kind, levels)
                                 for j, (kind, levels) in enumerate(_Q8)])
        counts = state_counts(schema, _random_rows(rng, schema, 40))
        walls = 0
        for a in (1, 2, 3):
            packer, plan = _objective_parts(schema, counts, a)
            assert not (plan.bit_counts == 0).any() and plan.rest.shape[1] > 0
            for _ in range(8):
                sp = random_structured(rng, schema, a, w_scale=1.0)
                value, grad = _objective(packer.pack(sp), 0.0, packer, plan)
                if _allowed_state_probabilities(schema, sp).min() > 0.0:
                    want = negative_log_likelihood(schema, sp, counts)
                    assert value == pytest.approx(want, rel=1e-12)
                else:
                    assert value == 1.0 and not grad.any()
                    walls += 1
        assert 0 < walls < 24

    @pytest.mark.parametrize("f0", [-7.5, 0.0, 1234.5])
    def test_the_wall_is_finite_above_the_start(self, f0):
        """A negative observed minor: the NLL is +inf, and the objective
        returns f0 + 1 + |f0| with a zero gradient."""
        schema, sp, counts = _one_factor_cat3(0.5)
        assert negative_log_likelihood(schema, sp, counts) == np.inf
        packer, plan = _objective_parts(schema, counts, 1)
        value, grad = _objective(packer.pack(sp), f0, packer, plan)
        assert value == f0 + 1.0 + abs(f0)
        assert grad.shape == (len(packer.bounds),) and not grad.any()

    def test_a_negative_state_no_row_takes_is_the_wall(self):
        """Cat(2) + Cat(2), a = 1, w = 1, omega = 1/2, V = (-1.2, -1.2): det
        A_s is 1 at (0, 0), 0.4 at (1, 0) and (0, 1), and det Abar is 0.4,
        so the observed NLL is finite; but (1, 1), which no row takes, has
        det A_s = -0.2."""
        schema = VariableSchema([VariableDecl(f"v{j}", CAT, 2) for j in range(2)])
        sp = StructuredParams((np.zeros(1),) * 2, (np.ones(1),) * 2, np.full((2, 1), -1.2),
                              np.full(1, 0.5))
        counts = state_counts(schema, [(0, 0), (1, 0), (0, 1)])
        assert np.isfinite(negative_log_likelihood(schema, sp, counts))
        assert _allowed_state_probabilities(schema, sp)[3] < 0.0  # the table's (1, 1)
        packer, plan = _objective_parts(schema, counts, 1)
        assert plan.rest.shape[1] == 1
        value, grad = _objective(packer.pack(sp), 0.0, packer, plan)
        assert value == 1.0 and not grad.any()

    def test_unobserved_levels_hold_their_v_rows_at_zero(self, monkeypatch, rng):
        """x's level 2 ends on bit 1 and y's level 3 on bit 4: their V rows
        start at 0 and their bounds are (0, 0); every other V entry is free."""
        schema, rows = _unobserved_level_rows(rng)
        a = 2
        rules = _driver_rules(monkeypatch, schema, rows, a)
        packer = rules["packer"]
        _, j, l = packer.cuts
        held = np.zeros(schema.q, bool)
        held[[1, 4]] = True
        want = [(0.0, 0.0) if h else (None, None) for h in held for _ in range(a)]
        assert packer.bounds[j:l] == want
        V = packer.unpack(rules["start"](rng))[2]
        assert not V[held].any() and V[~held].all()

    @pytest.mark.parametrize("a", [1, 2])
    def test_unobserved_levels_give_a_certified_fit(self, rng, a):
        """The V rows held at 0 keep the fit off the e^30 scale of the
        unobserved levels: the fit is certified and beats independence."""
        schema, rows = _unobserved_level_rows(rng)
        independent = fit_grassmann(schema, rows, FitConfig(a=0, seed=0))
        report = fit_grassmann(schema, rows, FitConfig(a=a, seed=0))
        assert report.feasible and report.p0_min >= -1e-12
        assert report.nll < independent.nll

    def test_an_uncertified_start_is_halved_toward_independence(self, monkeypatch, rng):
        """The random draw of w and V puts a negative determinant on the
        rare level's states; the start is that draw times 2**-k, k >= 1, the
        first with a finite NLL."""
        schema, rows = _rare_level_rows(rng)
        rules = _driver_rules(monkeypatch, schema, rows, 2)
        i, _, l = rules["packer"].cuts
        halved = 0
        for seed in range(6):
            start = rules["start"](np.random.default_rng(seed))
            draw = start.copy()
            draw[i:l] = np.random.default_rng(seed).normal(0.0, INIT_SCALE, l - i)
            ratio = start[i:l] / draw[i:l]
            k = -np.log2(ratio[0])
            assert k == int(k) and (ratio == ratio[0]).all()
            assert np.isfinite(rules["key"](start)[0])
            for t in range(int(k)):
                partly = draw.copy()
                partly[i:l] *= 0.5**t
                assert rules["key"](partly)[0] == np.inf
            halved += k > 0
        assert halved >= 2
        report = fit_grassmann(schema, rows, FitConfig(a=2, seed=0))
        assert report.feasible and np.isfinite(report.nll)


def _two_stacks(A, inverse, head=None):
    """The reference of the one-stack certificate: the head (Abar and the
    observed states) with its inverse, then the rest for its signs, each a
    stack of its own, a 1 x 1 stack eliminated; the sign is 1.0 when every
    sign is > 0, else 0.0."""
    solve = _eliminate if A.shape[0] == 1 else _gauss_jordan
    if head is None:
        return solve(A, inverse)
    sign, logdet, inv = solve(A[:, :, :head], inverse)
    rest = solve(A[:, :, head:], False)[0]
    return (1.0 if (sign > 0).all() and (rest > 0).all() else 0.0), logdet, inv


def _with_kernel(monkeypatch, kernel, *args):
    """_likelihood(*args) with ``kernel`` as _gauss_jordan, in the fit module
    that calls it and the structure module where its head recurses."""
    import grasscat.fit
    import grasscat.structure

    with monkeypatch.context() as patched:
        for module in (grasscat.fit, grasscat.structure):
            patched.setattr(module, "_gauss_jordan", kernel)
        return _likelihood(*args)


def _assert_same_bits(got, want):
    """The same value, and the same gradient bits or both None."""
    assert got[0] == want[0]
    assert (got[1] is None) == (want[1] is None)
    if got[1] is not None:
        assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))


class TestOneStackCertificate:
    """_likelihood certifies one a x a stack [Abar | observed | rest]: when
    every closed-form det is within [1e-300, 1e300] it forms the log|det|
    and inverse of the head only; otherwise the head and the rest are two
    stacks, as in the reference.  Value and gradient are the reference's,
    bit for bit."""

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    @pytest.mark.parametrize("decls, n_rows", [(_Q8, 40), (_Q8, 2000), (_Q16, 300)],
                             ids=["q8", "q8-every-state", "q16"])
    def test_matches_the_two_stacks_at_random_points(self, monkeypatch, rng, decls, n_rows, a):
        schema = VariableSchema([VariableDecl(f"v{j}", kind, levels)
                                 for j, (kind, levels) in enumerate(decls)])
        plan = _table_plan(schema, state_counts(schema, _random_rows(rng, schema, n_rows)))
        assert (plan.rest.shape[1] == 0) == (n_rows == 2000)
        finite = 0
        for i in range(200):
            sp = random_structured(rng, schema, a, w_scale=(0.05, 0.3, 1.0)[i % 3])
            args = (schema, *flat_params(schema, sp), plan, i % 2 == 0)
            got = _likelihood(*args)
            _assert_same_bits(got, _with_kernel(monkeypatch, _two_stacks, *args))
            finite += np.isfinite(got[0])
        assert finite >= 40 and (a == 0 or finite < 200)

    @pytest.mark.parametrize("det", ["negative", "zero", "below-range", "above-range", "nan",
                                     "inf"])
    @pytest.mark.parametrize("a", [1, 2])
    def test_crafted_unobserved_dets_take_the_two_stacks(self, monkeypatch, rng, a, det):
        """The first state of rest is replaced by a matrix whose closed-form
        det is -1, 0, 1e-310, 1e302, nan or inf; every other det of the
        stack is certified.  Negative, zero and nan give +inf; the others
        the reference's finite value."""
        import grasscat.fit

        one = {"negative": -1.0, "zero": 0.0, "below-range": 1e-310, "above-range": 1e302,
               "nan": np.nan, "inf": np.inf}[det]
        crafted = {
            1: np.full((1, 1), one),
            2: {"negative": [[0.0, 1.0], [1.0, 0.0]], "zero": [[1.0, 2.0], [2.0, 4.0]],
                "below-range": [[1e-155, 0.0], [0.0, 1e-155]],
                "above-range": [[1e151, 0.0], [0.0, 1e151]],
                "nan": [[1e200, 1e200], [1e200, 1e200]],  # inf - inf
                "inf": [[1e200, 0.0], [0.0, 1e200]]}[det],
        }[a]
        schema = VariableSchema([VariableDecl(f"v{j}", kind, levels)
                                 for j, (kind, levels) in enumerate(_Q8)])
        plan = _table_plan(schema, state_counts(schema, _random_rows(rng, schema, 40)))
        sp = random_certified_structured(rng, schema, a)
        args = (schema, *flat_params(schema, sp), plan, True)
        assert np.isfinite(_likelihood(*args)[0])
        calls = []

        def crafting(kernel):
            def run(A, inverse, head=None):
                calls.append(head)
                if head is not None:
                    A[:, :, head] = crafted
                return kernel(A, inverse, head)
            return run

        got = _with_kernel(monkeypatch, crafting(_gauss_jordan), *args)
        assert calls == [plan.weights.size + 1, None, None]  # the head, then the two stacks
        want = _with_kernel(monkeypatch, crafting(_two_stacks), *args)
        _assert_same_bits(got, want)
        assert np.isfinite(got[0]) == (det in ("below-range", "above-range", "inf"))

    @pytest.mark.parametrize("case", ["nan", "inf"])
    def test_an_overflowing_x_on_an_unobserved_state(self, monkeypatch, case):
        """Cat(2) + Cat(2), a = 2, b = -30: x is e^30 omega V, and Abar's
        terms are e^-30 of x's.  Bit 0 has x w^T = [[p, 0], [x, 0]] and bit
        1 [[0, y], [0, p]]; the observed states (0, 0), (1, 0) and (0, 1)
        have det 1 or 1 + p, and Abar is near I + e^-30 (the sum).  The
        unobserved (1, 1) has a d - b c = (1 + p)^2 - x y: inf - inf = nan
        at p = x = 1e155, y = 5e154, and 1 + 1e310 = inf at p = 0, x = -y =
        1e155.  Its det is positive, so the NLL is finite."""
        import grasscat.fit

        p, x, y = (1e155, 1e155, 5e154) if case == "nan" else (0.0, 1e155, -1e155)
        schema = VariableSchema([VariableDecl(f"v{j}", CAT, 2) for j in range(2)])
        scale = 0.5 * np.exp(30.0)  # omega e^-beta
        sp = StructuredParams((np.full(1, -30.0),) * 2, (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
                              np.array([[p, x], [y, p]]) / scale, np.full(2, 0.5))
        counts = state_counts(schema, [(0, 0)] * 5 + [(1, 0), (0, 1)])
        plan = _table_plan(schema, counts)
        assert plan.rest.shape[1] == 1
        args = (schema, *flat_params(schema, sp), plan, True)
        stacks = []

        def recording(A, inverse, head=None):
            stacks.append(A.copy())
            return real(A, inverse, head)

        real = _gauss_jordan
        got = _with_kernel(monkeypatch, recording, *args)
        (a_, b_), (c_, d_) = stacks[0]
        with np.errstate(over="ignore", invalid="ignore"):
            det = a_ * d_ - b_ * c_
        assert (1.0 <= det[:-1]).all() and (det[:-1] <= 1e300).all()  # Abar and the observed
        assert np.isnan(det[-1]) if case == "nan" else det[-1] == np.inf
        assert len(stacks) == 3  # the two stacks
        assert np.isfinite(got[0])
        _assert_same_bits(got, _with_kernel(monkeypatch, _two_stacks, *args))

    def test_one_by_one_closed_form_is_the_elimination(self, rng):
        """A 1 x 1 stack's sign, log|det| and inverse are _eliminate's, bit
        for bit, on entries that include +-0, subnormals, the range's ends,
        +-inf and nan, in one stack and one entry at a time."""
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 9.9e-301, 1e300,
                   -1e300, 1.1e300, np.inf, -np.inf, np.nan, 1.0, -2.5]
        entries = np.concatenate([special, rng.normal(size=40), rng.normal(size=40) * 1e200])
        stacks = [entries[None, None]] + [np.full((1, 1, 1), v) for v in special]
        for stack in stacks:
            for inverse in (True, False):
                with np.errstate(over="ignore", invalid="ignore"):  # 1 / 5e-324, inf / inf
                    got, want = _gauss_jordan(stack, inverse), _eliminate(stack, inverse)
                for g, w in zip(got, want):
                    if w is None:
                        assert g is None
                    else:
                        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


class TestStructuredMoments:
    """structure._structured_moments: the dummy bits' mean and covariance from
    sig = lam^-1 by Woodbury, with no lam, against lam's closed form and
    the allowed-state table's weighted moments."""

    SCHEMAS = {
        "q6": [(CAT, 3), (ORD, 4), (CAT, 2)],
        "q8": [(ORD, 3), (CAT, 4), (ORD, 2), (CAT, 2)],
        "q9": [(ORD, 5), (CAT, 3), (ORD, 3), (CAT, 2)],
    }

    @staticmethod
    def _schema(decls):
        return VariableSchema([VariableDecl(f"v{j}", kind, levels)
                               for j, (kind, levels) in enumerate(decls)])

    @staticmethod
    def _table_moments(schema, sp):
        bits = allowed_table(schema)[0].astype(float)
        return weighted_moments(bits, _allowed_state_probabilities(schema, sp))[:2]

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", list(SCHEMAS))
    def test_matches_lam_and_the_table(self, rng, name, a):
        schema = self._schema(self.SCHEMAS[name])
        for _ in range(3):
            sp = random_certified_structured(rng, schema, a)
            got = _structured_moments(schema, sp)
            for want, tol in ((moments(assemble_lambda(schema, sp)), 1e-14),
                              (self._table_moments(schema, sp), 1e-13)):
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert np.abs(g - w).max() <= tol

    @pytest.mark.parametrize("name", list(SCHEMAS))
    def test_a_zero_is_the_independence_model(self, rng, name):
        """Each variable's level probabilities p give its bits' means (a
        categorical bit is one level, an ordinal bit every level from its
        own up) and covariances; bits of two variables have covariance 0."""
        schema = self._schema(self.SCHEMAS[name])
        sp = random_structured(rng, schema, 0, b_scale=2.0)
        mean, cov = _structured_moments(schema, sp)
        for v, b, (lo, hi) in zip(schema.variables, sp.b, schema.blocks):
            logits = b if v.kind is CAT else np.cumsum(b)
            p = np.exp(np.concatenate([[0.0], logits]))
            p /= p.sum()
            m = p[1:] if v.kind is CAT else np.cumsum(p[::-1])[::-1][1:]
            # E[y_r y_s]: 0 for two levels of one categorical; an ordinal's
            # later bit is set only with every earlier one
            idx = np.arange(hi - lo)
            both = np.diag(m) if v.kind is CAT else m[np.maximum.outer(idx, idx)]
            assert np.abs(mean[lo:hi] - m).max() <= 1e-15
            assert np.abs(cov[lo:hi, lo:hi] - (both - np.outer(m, m))).max() <= 1e-15
            outside = np.ones(schema.q, dtype=bool)
            outside[lo:hi] = False
            assert (cov[lo:hi][:, outside] == 0.0).all()

    def test_b_800_matches_the_table(self, rng):
        """A level 800 nats above the rest: e^b overflows, the shares do not."""
        schema = self._schema(self.SCHEMAS["q8"])
        sp = random_certified_structured(rng, schema, 2)
        b = (sp.b[0] + np.array([800.0, 0.0]), *sp.b[1:])
        sp = StructuredParams(b, sp.w, sp.V, sp.omega)
        for g, w in zip(_structured_moments(schema, sp), self._table_moments(schema, sp)):
            assert np.isfinite(g).all()
            assert np.abs(g - w).max() <= 1e-12

    def test_an_overflowing_abar_raises(self):
        """Model A: Abar = 1 + 2.5e307 * 10 overflows.  Its elimination
        alone would give the inverse 0 and the independence means (0.5,
        0.5); the true means are (1, 0.5)."""
        schema, sp = TestOneCheckOneRule._model((0.0, 0.0), (10.0, 1.0))
        with pytest.raises(ParameterError, match="overflows"):
            _structured_moments(schema, sp)

    def test_a_finite_lam_beside_an_overflowing_x_matches_lam(self):
        """Model B: x = e^2 * 1e308 / 2 overflows, so sample and prob refuse
        it, but Abar and sig are finite."""
        schema, sp = TestOneCheckOneRule._model((-2.0, 0.0), (1.0, 1.0))
        got = _structured_moments(schema, sp)
        for g, w in zip(got, moments(assemble_lambda(schema, sp))):
            assert np.abs(g - w).max() <= 1e-15

    def test_model_b_correlation_is_nan_where_a_deviation_is_zero(self):
        """Model B's var(bit 0) rounds to 0.0 while cov(0, 1) is -1.25e-309:
        the pair's correlation is NaN, as a 0/0 pair's is, not -inf."""
        schema, sp = TestOneCheckOneRule._model((-2.0, 0.0), (1.0, 1.0))
        cov = _structured_moments(schema, sp)[1]
        assert cov[0, 0] == 0.0 and cov[0, 1] < 0.0
        corr = _correlation(cov)
        assert np.isnan(corr[0, 1]) and np.isnan(corr[1, 0])
        assert (np.diag(corr) == 1.0).all()
        zero = np.zeros((2, 2))
        assert np.isnan(_correlation(zero)[0, 1])  # 0/0

    @pytest.mark.parametrize("path", ["moments command", "fit report"])
    def test_builds_no_lambda(self, rng, tmp_path, capsys, monkeypatch, path):
        """Neither ``moments`` nor fit_grassmann's report forms lam, a
        GrassmannParams or a q x q inverse."""
        import grasscat.structure
        from grasscat.cli import run_command
        from grasscat.modelfile import ModelFile, save_model

        schema = self._schema(self.SCHEMAS["q8"])
        sp = random_certified_structured(rng, schema, 2)
        want = moments(assemble_lambda(schema, sp))
        counts = state_counts(schema, _random_rows(rng, schema, 200))

        def refuse(*args, **kwargs):
            raise AssertionError("lam was built")

        for owner, name in ((grasscat.structure, "_raw_lambda"), (GrassmannParams, "__post_init__"),
                            (np.linalg, "inv")):
            monkeypatch.setattr(owner, name, refuse)
        if path == "fit report":
            report = fit_grassmann(schema, counts, FitConfig(a=1, restarts=1, max_iter=30))
            mean, cov = _structured_moments(schema, report.params)
            assert np.array_equal(report.mean_model, mean)
            assert np.array_equal(report.corr_model, _correlation(cov), equal_nan=True)
            return
        save_model(ModelFile("grassmann", schema, sp, None), str(tmp_path / "m.json"))
        capsys.readouterr()
        assert run_command(["moments", "--model", str(tmp_path / "m.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.abs(np.asarray(out["mean"]) - want[0]).max() <= 1e-14
        assert np.abs(np.asarray(out["cov"]) - want[1]).max() <= 1e-14
