import itertools
import math

import numpy as np
import pytest

from grasscat.errors import ConditioningError, EnumerationCapError, ParameterError
from grasscat.factor import FactorModel, mixture_weights, observed_density, posterior
import grasscat.mixed
from grasscat.grassmann import GrassmannParams, _log_minors, _mask_bits, joint_probability
from grasscat.mixed import (
    MixedParams,
    MixedPartition,
    conditional_binary_given_continuous,
    mixed_conditional_density,
    mixed_joint_density,
    mixed_marginal_density,
)
from grasscat.schema import (
    Record, VariableDecl, VariableSchema, encode_record, enumerate_allowed_states,
)
from grasscat.structure import StructuredParams, assemble_lambda, categorical_pmf, ordinal_pmf

from generators import CAT, ORD, random_dominant, random_schema
from normal_reference import gaussian_logpdf


def random_mixed(rng, p, q, g_scale=0.4):
    A = rng.normal(0, 1, (p, p))
    sigma = A @ A.T / max(p, 1) + 0.5 * np.eye(p)
    lam = np.eye(q) + random_dominant(rng, q, strict=False, scale=0.5) @ np.linalg.inv(
        random_dominant(rng, q, strict=True, scale=0.5)
    )
    return MixedParams(
        mu=rng.normal(0, 1, p),
        sigma=sigma,
        lam=lam,
        G=rng.normal(0, g_scale, (q, p)),
    )


def gauss_hermite_integral(f, mu, sigma, n_nodes=40):
    """Integral of f over R^p using a Gauss-Hermite rule adapted to (mu, sigma)."""
    p = mu.shape[0]
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    chol = np.linalg.cholesky(sigma)
    det = np.prod(np.diag(chol))
    total = 0.0
    for combo in itertools.product(range(n_nodes), repeat=p):
        u = np.asarray([nodes[i] for i in combo])
        w = math.prod(weights[i] for i in combo)
        x = mu + chol @ u
        total += w * f(x) * math.exp(0.5 * float(u @ u))
    return total * det


class TestJoint:
    def test_no_binary_block_is_plain_normal(self, rng):
        mp = random_mixed(rng, 2, 0)
        x = rng.normal(0, 1, 2)
        want = math.exp(gaussian_logpdf(x, mp.mu, mp.sigma))
        assert mixed_joint_density(mp, x, []) == pytest.approx(want, rel=1e-12)

    def test_no_interaction_factorizes(self, rng):
        mp = random_mixed(rng, 2, 3, g_scale=0.0)
        gp = GrassmannParams.from_lambda(mp.lam)
        x = rng.normal(0, 1, 2)
        for bits in itertools.product((0, 1), repeat=3):
            want = joint_probability(gp, bits) * math.exp(
                gaussian_logpdf(x, mp.mu, mp.sigma)
            )
            assert mixed_joint_density(mp, x, bits) == pytest.approx(want, rel=1e-11)

    def test_normalizes(self, rng):
        mp = random_mixed(rng, 1, 2)
        total = 0.0
        for bits in itertools.product((0, 1), repeat=2):
            total += gauss_hermite_integral(
                lambda x: mixed_joint_density(mp, x, bits), mp.mu, mp.sigma
            )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_cap(self, rng, monkeypatch):
        mp = random_mixed(rng, 1, 3)
        monkeypatch.setenv("GRASSCAT_CAP", "2")
        with pytest.raises(EnumerationCapError):
            mixed_joint_density(mp, np.zeros(1), (0, 0, 0))


class TestMarginal:
    def test_full_observation_equals_joint(self, rng):
        mp = random_mixed(rng, 2, 3)
        x = rng.normal(0, 1, 2)
        y = (1, 0, 1)
        part = MixedPartition(J=(), L=(), K=(0, 1), S=(), U=(), T=(0, 1, 2))
        assert mixed_marginal_density(mp, part, x, y) == pytest.approx(
            mixed_joint_density(mp, x, y), rel=1e-12
        )

    def test_matches_direct_sum(self, rng):
        mp = random_mixed(rng, 1, 2)
        x = rng.normal(0, 1, 1)
        part = MixedPartition(J=(), L=(), K=(0,), S=(), U=(1,), T=(0,))
        got = mixed_marginal_density(mp, part, x, (1,))
        want = sum(mixed_joint_density(mp, x, (1, u)) for u in (0, 1))
        assert got == pytest.approx(want, rel=1e-12)

    def test_all_binaries_marginalized_is_gaussian_mixture(self, rng):
        mp = random_mixed(rng, 2, 2)
        x = rng.normal(0, 1, 2)
        part = MixedPartition(J=(), L=(), K=(0, 1), S=(), U=(0, 1), T=())
        got = mixed_marginal_density(mp, part, x, ())
        want = sum(
            mixed_joint_density(mp, x, bits)
            for bits in itertools.product((0, 1), repeat=2)
        )
        assert got == pytest.approx(want, rel=1e-12)
        # and the mixture components share one covariance by construction
        lam_mi = mp.lam - np.eye(2)


class TestConditional:
    def test_chain_rule_with_missing(self, rng):
        for _ in range(5):
            mp = random_mixed(rng, 2, 3)
            x = rng.normal(0, 1, 2)
            part = MixedPartition(J=(0,), L=(), K=(1,), S=(0,), U=(1,), T=(2,))
            y_S, y_T = (1,), (0,)
            cond = mixed_conditional_density(mp, part, x[[0]], y_S, x[[1]], y_T)
            marg_part = MixedPartition(J=(), L=(0,), K=(1,), S=(), U=(0, 1), T=(2,))
            marg = mixed_marginal_density(mp, marg_part, x[[1]], y_T)
            joint_part = MixedPartition(J=(), L=(), K=(0, 1), S=(), U=(1,), T=(0, 2))
            joint = mixed_marginal_density(mp, joint_part, x, (1, 0))
            assert cond * marg == pytest.approx(joint, rel=1e-8)

    def test_reduces_to_concise_form_without_missing(self, rng):
        # with no missing coordinates the conditional equals joint/marginal
        mp = random_mixed(rng, 2, 2)
        x = rng.normal(0, 1, 2)
        part = MixedPartition(J=(0,), L=(), K=(1,), S=(0,), U=(), T=(1,))
        cond = mixed_conditional_density(mp, part, x[[0]], (1,), x[[1]], (1,))
        joint = mixed_joint_density(mp, x, (1, 1))
        marg_part = MixedPartition(J=(), L=(0,), K=(1,), S=(), U=(0,), T=(1,))
        marg = mixed_marginal_density(mp, marg_part, x[[1]], (1,))
        assert cond == pytest.approx(joint / marg, rel=1e-10)

    def test_continuous_conditional_is_gaussian(self, rng):
        mp = random_mixed(rng, 2, 2)
        x = rng.normal(0, 1, 2)
        y = (1, 0)
        part = MixedPartition(J=(0,), L=(), K=(1,), S=(), U=(), T=(0, 1))
        got = mixed_conditional_density(mp, part, x[[0]], (), x[[1]], y)
        # direct Gaussian form
        kk_inv = 1.0 / mp.sigma[1, 1]
        schur = mp.sigma[0, 0] - mp.sigma[0, 1] * kk_inv * mp.sigma[1, 0]
        ind = np.asarray(y, dtype=float)
        mean = (
            mp.mu[0]
            + mp.sigma[0, 1] * kk_inv * (x[1] - mp.mu[1])
            + schur * float(mp.G[:, 0] @ ind)
        )
        want = math.exp(
            gaussian_logpdf(x[[0]], np.array([mean]), np.array([[schur]]))
        )
        assert got == pytest.approx(want, rel=1e-10)

    def test_binary_conditional_matches_bayes_ratio(self, rng):
        for _ in range(5):
            mp = random_mixed(rng, 1, 2)
            x = rng.normal(0, 1, 1)
            gp = conditional_binary_given_continuous(mp, x)
            part = MixedPartition(J=(), L=(), K=(0,), S=(0, 1), U=(), T=())
            for bits in itertools.product((0, 1), repeat=2):
                want = mixed_conditional_density(mp, part, np.zeros(0), bits, x, ())
                assert joint_probability(gp, bits) == pytest.approx(want, rel=1e-8)

    def test_tilt_is_identity_at_the_mean(self, rng):
        mp = random_mixed(rng, 2, 3)
        gp = conditional_binary_given_continuous(mp, mp.mu)
        np.testing.assert_allclose(
            np.asarray(gp.lam), mp.lam, atol=1e-12
        )

    def test_no_interaction_ignores_x(self, rng):
        mp = random_mixed(rng, 2, 2, g_scale=0.0)
        g1 = conditional_binary_given_continuous(mp, mp.mu + 1.3)
        g2 = conditional_binary_given_continuous(mp, mp.mu - 0.7)
        np.testing.assert_allclose(np.asarray(g1.lam), np.asarray(g2.lam), atol=1e-12)

    def test_pivot_block_conditioning(self, rng):
        mp = random_mixed(rng, 1, 3)
        x = rng.normal(0, 1, 1)
        gp = conditional_binary_given_continuous(mp, x, T=(2,), y_T=(1,))
        part = MixedPartition(J=(), L=(), K=(0,), S=(0, 1), U=(), T=(2,))
        for bits in itertools.product((0, 1), repeat=2):
            want = mixed_conditional_density(mp, part, np.zeros(0), bits, x, (1,))
            assert joint_probability(gp, bits) == pytest.approx(want, rel=1e-8)

    def test_zero_probability_pivot_raises_conditioning_error(self):
        # lam[2, 2] - 1 = 0: y_2 = 1 has probability zero
        mp = MixedParams(
            mu=np.zeros(1), sigma=np.eye(1), lam=np.diag([2.0, 2.0, 1.0]), G=np.zeros((3, 1))
        )
        with pytest.raises(ConditioningError, match="probability zero"):
            conditional_binary_given_continuous(mp, np.zeros(1), T=(2,), y_T=(1,))


class TestFactorBridge:
    """The latent-factor model is the mixed distribution applied to (z, y)
    with the block-diagonal quasi-diagonal parameter built from the biases."""

    def _bridge_pair(self, rng, p_z=1):
        schema = VariableSchema([VariableDecl("A", CAT, 3), VariableDecl("E", ORD, 3)])
        b = rng.normal(0, 0.6, schema.q)
        G = rng.normal(0, 0.5, (schema.q, p_z))
        blocks = [b[s:e] for s, e in schema.blocks]
        lam_qd = np.asarray(
            assemble_lambda(schema, StructuredParams.independent(schema, blocks)).lam
        )
        mp = MixedParams(mu=np.zeros(p_z), sigma=np.eye(p_z), lam=lam_qd, G=G)
        model = FactorModel.canonical(b=b, G=G)
        return schema, mp, model

    def test_marginal_over_latent_matches_prior_weights(self, rng):
        schema, mp, model = self._bridge_pair(rng)
        weights = mixture_weights(schema, model.b, model.G, model.sigma_z)
        part = MixedPartition(
            J=(), L=(0,), K=(), S=(), U=(), T=tuple(range(schema.q))
        )
        for bits, want in weights.items():
            got = mixed_marginal_density(mp, part, np.zeros(0), bits)
            assert got == pytest.approx(want, abs=1e-12)

    def test_conditional_given_latent_matches_pmf_product(self, rng):
        schema, mp, model = self._bridge_pair(rng)
        z = rng.normal(0, 1, 1)
        gp = conditional_binary_given_continuous(mp, z)
        beta = model.b + model.G @ z
        for rec in [Record((0, 0)), Record((2, 1)), Record((1, 2))]:
            bits = encode_record(schema, rec).bits
            want = 1.0
            for j, v in enumerate(schema.variables):
                s, e = schema.blocks[j]
                block = np.asarray(bits[s:e])
                pmf = categorical_pmf if v.kind is CAT else ordinal_pmf
                want *= pmf(beta[s:e], block)
            assert joint_probability(gp, bits) == pytest.approx(want, rel=1e-10)

    def test_conditional_latent_matches_posterior(self, rng):
        schema, mp, model = self._bridge_pair(rng)
        bits = encode_record(schema, Record((2, 1))).bits
        m, cov = posterior(model, bits)
        part = MixedPartition(J=(0,), L=(), K=(), S=(), U=(), T=tuple(range(schema.q)))
        for _ in range(3):
            z = rng.normal(0, 1, 1)
            got = mixed_conditional_density(mp, part, z, (), np.zeros(0), bits)
            want = math.exp(gaussian_logpdf(z, m, cov))
            assert got == pytest.approx(want, rel=1e-10)


class TestFactorIsMixed:
    """A factor model with a continuous block is the a = 0 structured mixed
    model over (z, x): mu = (mu_z, mu_x), sigma = [[S, S W^T], [W S,
    diag(psi) + W S W^T]] with S = sigma_z, lam = I + K(b), and the
    interaction [G, 0].  Its observed density is that model's density of
    (x, y) with z marginalized, and its posterior is the density of z given
    (x, y).  The mixed side's minor of a disallowed subset, from its Schur
    walk, is not always exactly zero, so the match is to 1e-9 relative, not
    to the last bit."""

    N_MODELS = 120

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(2929)
        for _ in range(TestFactorIsMixed.N_MODELS):
            schema = random_schema(rng, 6, min_vars=2, max_levels=3)
            q = schema.q
            p_z, p_x = (int(k) for k in rng.integers(1, 3, size=2))
            A = rng.normal(0, 1, (p_z, p_z))
            model = FactorModel(
                mu_x=rng.normal(0, 1, p_x), psi_noise=rng.uniform(0.5, 1.5, p_x),
                W_load=rng.normal(0, 0.7, (p_x, p_z)), b=rng.normal(0, 0.8, q),
                G=rng.normal(0, 0.5, (q, p_z)), mu_z=rng.normal(0, 1, p_z),
                sigma_z=A @ A.T + 0.3 * np.eye(p_z),
            )
            S, W = model.sigma_z, model.W_load
            blocks = [model.b[s:e] for s, e in schema.blocks]
            mp = MixedParams(
                mu=np.concatenate([model.mu_z, model.mu_x]),
                sigma=np.block([[S, S @ W.T], [W @ S, np.diag(model.psi_noise) + W @ S @ W.T]]),
                lam=assemble_lambda(schema, StructuredParams.independent(schema, blocks)).lam,
                G=np.hstack([model.G, np.zeros((q, p_x))]),
            )
            yield rng, schema, model, mp, tuple(range(p_z)), tuple(range(p_z, p_z + p_x))

    def test_observed_density_is_the_marginal_density(self):
        for rng, schema, model, mp, z_idx, x_idx in self._pairs():
            x = rng.normal(0, 1, len(x_idx))
            part = MixedPartition(J=x_idx, L=z_idx, K=(), S=range(schema.q), U=(), T=())
            for state in enumerate_allowed_states(schema):
                want = mixed_conditional_density(mp, part, x, state.bits, (), ())
                got = observed_density(schema, model, state.bits, x)
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_posterior_is_the_conditional_density_of_z(self):
        for rng, schema, model, mp, z_idx, x_idx in self._pairs():
            x = rng.normal(0, 1, len(x_idx))
            states = enumerate_allowed_states(schema)
            y = states[int(rng.integers(len(states)))].bits
            m, cov = posterior(model, y, x)
            part = MixedPartition(J=z_idx, L=(), K=x_idx, S=(), U=(), T=range(schema.q))
            for z in m + rng.normal(0, 1, (3, len(z_idx))):
                want = mixed_conditional_density(mp, part, z, (), x, y)
                got = math.exp(gaussian_logpdf(z, m, cov))
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)


class TestValidation:
    def test_non_spd_sigma_rejected(self, rng):
        with pytest.raises(ParameterError):
            MixedParams(
                mu=np.zeros(2),
                sigma=np.array([[1.0, 2.0], [2.0, 1.0]]),
                lam=np.eye(1) * 2,
                G=np.zeros((1, 2)),
            )

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ParameterError):
            MixedParams(
                mu=np.zeros(2),
                sigma=np.eye(2),
                lam=np.eye(2),
                G=np.zeros((3, 2)),
            )


class TestIndexAndBitChecks:
    """T must hold distinct indices of the binary block, and every y entry
    must be a bit: -1 would alias bit q - 1, a repeated index would pivot
    twice, and a 2 would read as a 1."""

    @pytest.mark.parametrize("T", [(-1,), (4,), (1, 1)])
    def test_conditional_parameter_rejects_bad_t(self, rng, T):
        mp = random_mixed(rng, 2, 4)
        with pytest.raises(ParameterError, match="distinct indices"):
            conditional_binary_given_continuous(mp, mp.mu, T=T, y_T=(1,) * len(T))

    @pytest.mark.parametrize("y_T", [(2,), (-1,), (0.5,)])
    def test_conditional_parameter_rejects_non_bits(self, rng, y_T):
        mp = random_mixed(rng, 2, 4)
        with pytest.raises(ParameterError, match="y_T entries must be 0 or 1"):
            conditional_binary_given_continuous(mp, mp.mu, T=(1,), y_T=y_T)

    def test_densities_reject_non_bits(self, rng):
        mp = random_mixed(rng, 2, 4)
        x = rng.normal(0, 1, 2)
        with pytest.raises(ParameterError, match="y_S entries must be 0 or 1"):
            mixed_joint_density(mp, x, (2, 0, 1, 0))
        part = MixedPartition(J=(0,), L=(), K=(1,), S=(0, 1), U=(2,), T=(3,))
        with pytest.raises(ParameterError, match="y_S entries must be 0 or 1"):
            mixed_conditional_density(mp, part, x[:1], (1, -1), x[1:], (0,))
        with pytest.raises(ParameterError, match="y_T entries must be 0 or 1"):
            mixed_conditional_density(mp, part, x[:1], (1, 0), x[1:], (2,))
        with pytest.raises(ParameterError, match="entries must be 0 or 1"):
            mixed_marginal_density(mp, part, x[1:], (2,))


class TestIndexOrder:
    """Index sets keep the caller's order: entry k of x_J, y_S, x_K or y_T
    belongs to the k-th index of its set, whatever that order is."""

    def test_conditional_density_follows_the_callers_order(self, rng):
        for _ in range(5):
            mp = random_mixed(rng, 5, 6)
            x, y = rng.normal(0, 1, 5), rng.integers(0, 2, 6)
            y[[1, 2]] = (1, 0)  # y_T not constant, so a re-sort would move a bit
            part = MixedPartition(J=(0, 3), L=(4,), K=(1, 2), S=(0, 4), U=(5,), T=(1, 2, 3))
            want = mixed_conditional_density(mp, part, x[[0, 3]], y[[0, 4]], x[[1, 2]],
                                              y[[1, 2, 3]])
            J, K, S, T = [3, 0], [2, 1], [4, 0], [3, 1, 2]
            permuted = MixedPartition(J=J, L=(4,), K=K, S=S, U=(5,), T=T)
            got = mixed_conditional_density(mp, permuted, x[J], y[S], x[K], y[T])
            assert got == pytest.approx(want, rel=1e-12)

    def test_marginal_density_follows_the_callers_order(self, rng):
        mp = random_mixed(rng, 3, 4)
        x = rng.normal(0, 1, 3)
        part = MixedPartition(J=(1,), L=(), K=(0, 2), S=(1, 2), U=(), T=(0, 3))
        want = mixed_marginal_density(mp, part, x[[0, 2]], (1, 0))
        permuted = MixedPartition(J=(1,), L=(), K=(2, 0), S=(2, 1), U=(), T=(3, 0))
        got = mixed_marginal_density(mp, permuted, x[[2, 0]], (0, 1))
        assert got == pytest.approx(want, rel=1e-12)

    def test_conditional_parameter_follows_the_callers_order(self, rng):
        for _ in range(5):
            mp = random_mixed(rng, 2, 5)
            x = rng.normal(0, 1, 2)
            want = conditional_binary_given_continuous(mp, x, T=(0, 2, 3), y_T=(1, 0, 1))
            got = conditional_binary_given_continuous(mp, x, T=(3, 0, 2), y_T=(1, 1, 0))
            np.testing.assert_allclose(got.lam, want.lam, rtol=1e-12, atol=0.0)


# -- per-subset reference ------------------------------------------------------
# Reference densities computed one subset at a time: one det and one Gaussian
# per subset, summed in subset order.  The batched densities must match them.

def _ref_subsets(indices):
    for k in range(len(indices) + 1):
        yield from itertools.combinations(indices, k)


def _ref_minor_det(lam_mi, r1):
    if not r1:
        return 1.0
    idx = np.asarray(r1, dtype=int)
    return float(np.linalg.det(lam_mi[np.ix_(idx, idx)]))


def _ref_log_normal(x, mean, cov):
    d = x - mean
    n = d.shape[0]
    if n == 0:
        return 0.0
    chol = np.linalg.cholesky(cov)
    sol = np.linalg.solve(chol, d)
    return float(-0.5 * sol @ sol - np.log(np.diag(chol)).sum() - 0.5 * n * np.log(2 * np.pi))


def _ref_weight(mp, quad, shift, r1):
    det = _ref_minor_det(mp.lam - np.eye(mp.q), r1)
    if det == 0.0:
        return 0.0
    ind = np.zeros(mp.q)
    ind[list(r1)] = 1.0
    return det * float(np.exp(0.5 * ind @ quad @ ind + ind @ shift))


def _ref_partition_weights(mp):
    quad = mp.G @ mp.sigma @ mp.G.T
    terms = {r1: _ref_weight(mp, quad, np.zeros(mp.q), r1) for r1 in _ref_subsets(tuple(range(mp.q)))}
    total = sum(terms.values())
    if not np.isfinite(total) or total <= 0.0:
        raise ParameterError("mixture normalizer is nonpositive; parameters invalid")
    return {k: v / total for k, v in terms.items()}


def _ref_joint(mp, x, y):
    weights = _ref_partition_weights(mp)
    pi = weights[tuple(int(i) for i in np.flatnonzero(y))]
    if pi == 0.0:
        return 0.0
    mean = mp.mu + mp.sigma @ mp.G.T @ np.asarray(y, dtype=float)
    return pi * np.exp(_ref_log_normal(x, mean, mp.sigma))


def _ref_marginal(mp, part, x_K, y_T):
    weights = _ref_partition_weights(mp)
    K, T = list(part.K), list(part.T)
    t1 = tuple(t for t, bit in zip(T, y_T) if bit)
    total = 0.0
    for extra in _ref_subsets(tuple(sorted((*part.S, *part.U)))):
        r1 = tuple(sorted((*t1, *extra)))
        pi = weights[r1]
        if pi == 0.0:
            continue
        if K:
            ind = np.zeros(mp.q)
            ind[list(r1)] = 1.0
            mean = mp.mu[K] + mp.sigma[K, :] @ (mp.G.T @ ind)
            total += pi * np.exp(_ref_log_normal(x_K, mean, mp.sigma[np.ix_(K, K)]))
        else:
            total += pi
    return float(total)


def _ref_conditional(mp, part, x_J, y_S, x_K, y_T):
    J, L, K = list(part.J), list(part.L), list(part.K)
    S, U, T = list(part.S), list(part.U), list(part.T)
    JL = sorted(J + L)
    if K:
        kk_inv = np.linalg.inv(mp.sigma[np.ix_(K, K)])
        dx = x_K - mp.mu[K]
        shift = mp.G @ mp.sigma[:, K] @ kk_inv @ dx
        sigma_jl_cond = (
            mp.sigma[np.ix_(JL, JL)]
            - mp.sigma[np.ix_(JL, K)] @ kk_inv @ mp.sigma[np.ix_(K, JL)]
        )
    else:
        shift = np.zeros(mp.q)
        sigma_jl_cond = mp.sigma[np.ix_(JL, JL)]
    g_jl = mp.G[:, JL] if JL else np.zeros((mp.q, 0))
    quad = g_jl @ sigma_jl_cond @ g_jl.T
    t1 = tuple(t for t, bit in zip(T, y_T) if bit)
    s1 = tuple(s for s, bit in zip(S, y_S) if bit)
    denom = sum(
        _ref_weight(mp, quad, shift, tuple(sorted((*t1, *extra))))
        for extra in _ref_subsets(tuple(sorted(S + U)))
    )
    if denom <= 0.0:
        raise ParameterError("conditioning event has zero probability")
    if J:
        pos_j = [JL.index(j) for j in J]
        sigma_j_cond = sigma_jl_cond[np.ix_(pos_j, pos_j)]
        if K:
            base_mean = mp.mu[J] + mp.sigma[np.ix_(J, K)] @ kk_inv @ dx
            cross = (
                mp.sigma[np.ix_(J, JL)]
                - mp.sigma[np.ix_(J, K)] @ kk_inv @ mp.sigma[np.ix_(K, JL)]
            )
        else:
            base_mean = mp.mu[J]
            cross = mp.sigma[np.ix_(J, JL)]
    numer = 0.0
    for extra in _ref_subsets(tuple(U)):
        r1 = tuple(sorted((*t1, *s1, *extra)))
        wgt = _ref_weight(mp, quad, shift, r1)
        if wgt == 0.0:
            continue
        if J:
            ind = np.zeros(mp.q)
            ind[list(r1)] = 1.0
            mean = base_mean + cross @ (g_jl.T @ ind)
            numer += wgt * np.exp(_ref_log_normal(x_J, mean, sigma_j_cond))
        else:
            numer += wgt
    return float(numer / denom)


def _roles(rng, n, kinds, forced):
    """A role letter per coordinate: ``forced`` when given, else random."""
    if forced is not None:
        return [forced] * n
    return [kinds[i] for i in rng.integers(0, len(kinds), n)]


# (x roles, y roles): None draws each coordinate's role at random from
# query / missing / given; a letter gives every coordinate that role
ROLE_MIXES = [
    (None, None),
    (None, None),
    ("q", "m"),  # all bits missing
    ("g", None),  # no continuous query
    ("m", None),  # no continuous query, empty K
    (None, "q"),  # no binary marginalization
    ("q", None),  # empty K
    ("g", "g"),  # everything given but nothing queried
    ("q", "q"),  # the full joint
]


def _check_all_densities(mp, rng, rel=1e-12):
    for x_mix, y_mix in ROLE_MIXES:
        xr = _roles(rng, mp.p, "qmg", x_mix)
        yr = _roles(rng, mp.q, "qmg", y_mix)
        J, L, K = ([i for i, r in enumerate(xr) if r == c] for c in "qmg")
        S, U, T = ([i for i, r in enumerate(yr) if r == c] for c in "qmg")
        x = rng.normal(0, 1, mp.p)
        y = rng.integers(0, 2, mp.q)
        marg = MixedPartition(J=(), L=J + L, K=K, S=(), U=S + U, T=T)
        part = MixedPartition(J=J, L=L, K=K, S=S, U=U, T=T)
        args = (x[J], y[S], x[K], y[T])
        for batched, reference, call_args in (
            (mixed_joint_density, _ref_joint, (x, y)),
            (mixed_marginal_density, _ref_marginal, (marg, x[K], y[T])),
            (mixed_conditional_density, _ref_conditional, (part, *args)),
        ):
            try:
                want = reference(mp, *call_args)
            except ParameterError as exc:
                with pytest.raises(ParameterError, match=str(exc)):
                    batched(mp, *call_args)
                continue
            assert batched(mp, *call_args) == pytest.approx(want, rel=rel, abs=0.0)


class TestBatchedMatchesSubsetLoops:
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("q", [0, 1, 4, 10])
    def test_random_models(self, rng, p, q):
        for _ in range(2 if q == 10 else 4):
            _check_all_densities(random_mixed(rng, p, q), rng)

    def test_zero_principal_minor(self, rng):
        # lam - I has a zero first row: every subset holding bit 0 has a minor
        # of exactly 0.0, so weight 0 whatever its tilt
        base = random_mixed(rng, 2, 4)
        lam = base.lam.copy()
        lam[0, :] = 0.0
        lam[0, 0] = 1.0
        mp = MixedParams(mu=base.mu, sigma=base.sigma, lam=lam, G=base.G)
        sign, _ = _log_minors(mp.lam - np.eye(mp.q), _mask_bits(np.arange(2**mp.q), mp.q))
        assert np.all(sign[1::2] == 0.0) and np.all(sign[0::2] != 0.0)
        x = rng.normal(0, 1, 2)
        assert mixed_joint_density(mp, x, (1, 0, 1, 0)) == 0.0
        part = MixedPartition(J=(0,), L=(), K=(1,), S=(1,), U=(2, 3), T=(0,))
        with pytest.raises(ParameterError, match="conditioning event has zero probability"):
            mixed_conditional_density(mp, part, x[[0]], (1,), x[[1]], (1,))
        _check_all_densities(mp, rng)

    def test_log_minors_equal_per_subset_slogdet(self, rng):
        mp = random_mixed(rng, 2, 7)
        lam_mi = mp.lam - np.eye(mp.q)
        sign, logdet = _log_minors(lam_mi, _mask_bits(np.arange(2**mp.q), mp.q))
        for mask in range(2**mp.q):
            idx = [i for i in range(mp.q) if (mask >> i) & 1]
            want = np.linalg.slogdet(lam_mi[np.ix_(idx, idx)]) if idx else (1.0, 0.0)
            assert sign[mask] == want[0] and logdet[mask] == want[1]

    def test_cap_checked_before_any_table(self, rng, monkeypatch):
        def fail(*args):
            raise AssertionError("2**q work started before the cap check")

        monkeypatch.setattr(grasscat.mixed, "_log_minors", fail)
        monkeypatch.setattr(grasscat.mixed, "_subset_minors", fail)
        mp = random_mixed(rng, 2, 4)
        part = MixedPartition(J=(0,), L=(), K=(1,), S=(0,), U=(1, 2), T=(3,))
        monkeypatch.setenv("GRASSCAT_CAP", "3")
        calls = [
            lambda: mixed_joint_density(mp, np.zeros(2), (0, 1, 0, 1)),
            lambda: mixed_marginal_density(mp, part, np.zeros(1), (1,)),
            lambda: mixed_conditional_density(mp, part, np.zeros(1), (1,), np.zeros(1), (0,)),
        ]
        for call in calls:
            with pytest.raises(EnumerationCapError):
                call()

    def test_queries_cache_nothing_on_the_model(self, rng):
        mp = random_mixed(rng, 2, 6)
        part = MixedPartition(J=(0,), L=(), K=(1,), S=(0,), U=(1, 2), T=(3, 4, 5))
        mixed_joint_density(mp, np.zeros(2), (1, 0, 0, 0, 0, 1))
        mixed_marginal_density(mp, part, np.zeros(1), (1, 0, 1))
        mixed_conditional_density(mp, part, np.zeros(1), (1,), np.zeros(1), (0, 1, 0))
        assert set(vars(mp)) == {"mu", "sigma", "lam", "G"}


class TestSubsetMinors:
    """The densities' subset walk: masks, G^T 1_R rows and log minors of
    lam - I, each equal to a per-subset ``slogdet``; the rows it flags, and a
    singular base block, take their minors from ``_log_minors``."""

    @staticmethod
    def _walk(monkeypatch, lam_mi, base, free, G):
        """The walk's four arrays and the masks it sent to the fallback."""
        sent = []

        def counted(mat, states):
            sent.extend(int(m) for m in states @ (1 << np.arange(mat.shape[0])))
            return _log_minors(mat, states)

        monkeypatch.setattr(grasscat.mixed, "_log_minors", counted)
        return (*grasscat.mixed._subset_minors(lam_mi, base, free, G), sent)

    @staticmethod
    def _check(lam_mi, base, free, G, masks, sums, sign, logdet, rtol=1e-12):
        """Row r holds base plus free[k] for every bit k of r, their rows of G
        summed, and the sign and log|det| of their minor by ``slogdet``."""
        assert masks.size == sums.shape[0] == sign.size == logdet.size == 2 ** len(free)
        for r, mask in enumerate(masks.tolist()):
            idx = list(base) + [f for k, f in enumerate(free) if r >> k & 1]
            assert mask == sum(1 << i for i in idx)
            np.testing.assert_allclose(sums[r], G[idx].sum(axis=0), rtol=0.0, atol=1e-14)
            idx = sorted(idx)
            want = np.linalg.slogdet(lam_mi[np.ix_(idx, idx)]) if idx else (1.0, 0.0)
            assert sign[r] == want[0]
            if want[0] != 0.0:
                assert abs(logdet[r] - want[1]) <= rtol, (r, logdet[r], want[1])

    @pytest.mark.parametrize("q", [1, 3, 6, 8])
    def test_random_models_with_and_without_base(self, rng, monkeypatch, q):
        for _ in range(3):
            mp = random_mixed(rng, 2, q)
            lam_mi = mp.lam - np.eye(q)
            order = rng.permutation(q).tolist()
            for n_base in sorted({0, 1, q // 2}):
                base, free = order[:n_base], sorted(order[n_base:])
                *arrays, sent = self._walk(monkeypatch, lam_mi, base, free, mp.G)
                self._check(lam_mi, base, free, mp.G, *arrays)
                assert sent == []

    def test_unsorted_free_set_follows_its_order(self, rng, monkeypatch):
        mp = random_mixed(rng, 2, 7)
        lam_mi = mp.lam - np.eye(7)
        base, free = [4, 1], [3, 0, 6, 2]
        *arrays, sent = self._walk(monkeypatch, lam_mi, base, free, mp.G)
        self._check(lam_mi, base, free, mp.G, *arrays)
        assert arrays[0][:3].tolist() == [0b10010, 0b11010, 0b10011]  # free[k] is bit k of the row
        assert sent == []

    def test_singular_base_block_falls_back_for_every_row(self, rng, monkeypatch):
        mp = random_mixed(rng, 2, 6)
        lam_mi = mp.lam - np.eye(6)
        lam_mi[np.ix_([0, 2], [0, 2])] = 1.0  # the base block [[1, 1], [1, 1]]
        *arrays, sent = self._walk(monkeypatch, lam_mi, [2, 0], [1, 3, 4, 5], mp.G)
        self._check(lam_mi, [2, 0], [1, 3, 4, 5], mp.G, *arrays)
        assert sorted(sent) == sorted(arrays[0].tolist())
        assert arrays[2][0] == 0.0 and (arrays[2][1:] != 0.0).all()

    def test_zero_pivot_with_nonzero_row_and_column_falls_back(self, monkeypatch):
        lam_mi = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        G = np.arange(6.0).reshape(3, 2)
        *arrays, sent = self._walk(monkeypatch, lam_mi, [], [0, 1, 2], G)
        self._check(lam_mi, [], [0, 1, 2], G, *arrays)
        assert sorted(sent) == [1, 3, 5, 7]  # bit 0 included
        assert arrays[2].tolist() == [1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]

    def test_zero_pivot_with_a_zero_row_is_an_exact_zero(self, rng, monkeypatch):
        mp = random_mixed(rng, 2, 5)
        lam_mi = mp.lam - np.eye(5)
        lam_mi[2, :] = 0.0
        *arrays, sent = self._walk(monkeypatch, lam_mi, [4], [0, 1, 2, 3], mp.G)
        self._check(lam_mi, [4], [0, 1, 2, 3], mp.G, *arrays)
        assert sent == []
        assert (arrays[2][(arrays[0] & 4) != 0] == 0.0).all()

    def test_growth_guard_sends_a_tiny_pivot_to_the_fallback(self, monkeypatch):
        # without the bound the 1e-20 pivot's update of 1e20 rounds its
        # complement to four equal entries, and the full minor reads 0
        lam_mi = np.array([[1e-20, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 3.0, 1.0]])
        G = np.ones((3, 1))
        *arrays, sent = self._walk(monkeypatch, lam_mi, [], [0, 1, 2], G)
        self._check(lam_mi, [], [0, 1, 2], G, *arrays)
        assert sorted(sent) == [1, 3, 5, 7]  # bit 0 included
        assert arrays[2][7] == 1.0 and arrays[3][7] == pytest.approx(np.log(3.0), abs=1e-15)
        # the same pivot in the base block: its update flags every row
        *arrays, sent = self._walk(monkeypatch, lam_mi, [0], [1, 2], G)
        self._check(lam_mi, [0], [1, 2], G, *arrays)
        assert sorted(sent) == [1, 3, 5, 7]

    def test_scaled_entries_trip_the_growth_guard(self, rng, monkeypatch):
        mp = random_mixed(rng, 2, 6)
        lam_mi = mp.lam - np.eye(6)
        lam_mi[0, 0] = 1e-13  # the first step's update grows to about 1e13
        *arrays, sent = self._walk(monkeypatch, lam_mi, [], list(range(6)), mp.G)
        self._check(lam_mi, [], list(range(6)), mp.G, *arrays)
        assert sorted(sent) == list(range(1, 64, 2))  # bit 0 included
