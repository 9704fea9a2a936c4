import math

import numpy as np
import pytest

from grasscat.errors import DataError
from grasscat.fit import (
    FitConfig,
    StateCounts,
    empirical_moments,
    fit_grassmann,
    model_correlation,
    negative_log_likelihood,
    nll_gradient,
    state_counts,
)
from grasscat.grassmann import GrassmannParams
from grasscat.oracle import brute_force_table
from grasscat.schema import Record, VariableDecl, VariableSchema
from grasscat.structure import StructuredParams, assemble_lambda

from generators import (
    CAT,
    ORD,
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
        # drive level-2 probability to (effectively) zero
        sp = StructuredParams.independent(schema, [np.array([0.0, -200.0])])
        counts = state_counts(schema, [Record((2,))])
        assert negative_log_likelihood(schema, sp, counts) == np.inf

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
        from grasscat.grassmann import P0Report

        def negative_p0(params):
            return P0Report(
                n_states=2**params.q,
                min_probability=-0.01,
                argmin_state=(0,) * params.q,
                probability_sum=1.0,
                passed=False,
            )

        monkeypatch.setattr(grasscat.fit, "check_p0", negative_p0)
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        rows = [Record((0,))] * 25 + [Record((1,))] * 35 + [Record((2,))] * 40
        report = fit_grassmann(schema, rows, FitConfig(a=0, restarts=1, seed=0))
        assert report.p0_min == -0.01
        assert not report.feasible
        assert not report.converged
        assert any("p0_min" in w for w in report.warnings)
        assert report.worst_margin_b >= 0.0  # the dominance margins alone pass


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

        from grasscat.fit import _Packer, _initial_b, _penalized_objective
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

        def objective(x):
            return _penalized_objective(x, mu, packer, counts)

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
