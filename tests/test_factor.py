import itertools
import json
import math

import numpy as np
import pytest

import grasscat.schema
from grasscat.cli import run_command
from grasscat.errors import (
    DataError, EnumerationCapError, InvalidStateError, ParameterError, SchemaError,
)
from grasscat.factor import (
    FactorFitConfig,
    FactorModel,
    _loading_coefficients,
    _prior_table,
    _scores,
    _x_given_states,
    bic_parameter_count,
    biplot_data,
    biplot_export,
    combined_loadings,
    fit_factor_model,
    fix_rotation,
    mixture_weights,
    observed_density,
    posterior,
    select_dimension_bic,
)
from grasscat.schema import (
    DummyState,
    Record,
    VariableDecl,
    VariableSchema,
    decode_state,
    encode_record,
    enumerate_allowed_states,
)
from grasscat.fit import StateCounts, state_counts
from grasscat.mixed import _log_normals
from grasscat.modelfile import ModelFile, save_model
from grasscat.structure import categorical_pmf, ordinal_pmf

from generators import CAT, ORD, reader_style_schema, reader_style_true_params
from normal_reference import gaussian_logpdf


def _variable_pmf_product(schema, beta, bits):
    prob = 1.0
    for j, v in enumerate(schema.variables):
        s, e = schema.blocks[j]
        block = np.asarray(bits[s:e])
        pmf = categorical_pmf if v.kind is CAT else ordinal_pmf
        prob *= pmf(beta[s:e], block)
    return prob


def _conditional_observation_density(schema, model, y, z, x=None):
    beta = model.b + model.G @ (z - model.mu_z)
    dens = _variable_pmf_product(schema, beta, y)
    if model.p_x:
        mean = model.mu_x + model.W_load @ (z - model.mu_z)
        dens *= math.exp(gaussian_logpdf(np.asarray(x), mean, np.diag(model.psi_noise)))
    return dens


def _prior_density(schema, model, z):
    weights = mixture_weights(schema, model.b, model.G, model.sigma_z)
    total = 0.0
    for bits, w in weights.items():
        mean = model.mu_z + model.sigma_z @ model.G.T @ np.asarray(bits, dtype=float)
        total += w * math.exp(gaussian_logpdf(z, mean, model.sigma_z))
    return total


class TestMixtureWeights:
    def test_sum_to_one(self, rng, reader_schema):
        b = rng.normal(0, 1, reader_schema.q)
        G = rng.normal(0, 0.6, (reader_schema.q, 2))
        w = mixture_weights(reader_schema, b, G, np.eye(2))
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)
        assert len(w) == 24

    def test_no_coupling_factorizes(self, rng, reader_schema):
        b = rng.normal(0, 0.8, reader_schema.q)
        w = mixture_weights(reader_schema, b, np.zeros((reader_schema.q, 2)), np.eye(2))
        for bits, weight in w.items():
            assert weight == pytest.approx(
                _variable_pmf_product(reader_schema, b, bits), abs=1e-12
            )

    def test_uniform_when_flat(self, reader_schema):
        w = mixture_weights(
            reader_schema, np.zeros(reader_schema.q), np.zeros((reader_schema.q, 1)), np.eye(1)
        )
        for weight in w.values():
            assert weight == pytest.approx(1.0 / 24.0, abs=1e-12)

    def test_single_ordinal_direct_formula(self, rng):
        schema = VariableSchema([VariableDecl("x", ORD, 4)])
        b = rng.normal(0, 0.5, 3)
        G = np.array([[0.8], [0.5], [0.2]])
        w = mixture_weights(schema, b, G, np.eye(1))
        gram = G @ G.T
        direct = {}
        for level in range(4):
            bits = tuple([1] * level + [0] * (3 - level))
            u = np.asarray(bits, dtype=float)
            direct[bits] = math.exp(u @ b + 0.5 * u @ gram @ u)
        total = sum(direct.values())
        for bits, want in direct.items():
            assert w[bits] == pytest.approx(want / total, rel=1e-12)


class TestObservedDensity:
    def test_flat_discrete_only(self, reader_schema):
        model = FactorModel.canonical(
            b=np.zeros(reader_schema.q), G=np.zeros((reader_schema.q, 1))
        )
        y = encode_record(reader_schema, Record((1, 0, 2))).bits
        assert observed_density(reader_schema, model, y) == pytest.approx(1 / 24)

    def test_sums_to_one_over_allowed(self, rng, reader_schema):
        model = FactorModel.canonical(
            b=rng.normal(0, 1, reader_schema.q),
            G=rng.normal(0, 0.5, (reader_schema.q, 2)),
        )
        total = sum(
            observed_density(reader_schema, model, s.bits)
            for s in enumerate_allowed_states(reader_schema)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_disallowed_state_is_zero(self, reader_schema):
        model = FactorModel.canonical(
            b=np.zeros(reader_schema.q), G=np.zeros((reader_schema.q, 1))
        )
        assert observed_density(reader_schema, model, (0, 1, 1, 0, 0, 0)) == 0.0

    def test_marginal_over_y_is_gaussian_mixture(self, rng, reader_schema):
        p_x, p_z = 2, 2
        model = FactorModel.canonical(
            b=rng.normal(0, 0.5, reader_schema.q),
            G=rng.normal(0, 0.5, (reader_schema.q, p_z)),
            mu_x=rng.normal(0, 1, p_x),
            psi_noise=rng.uniform(0.5, 1.5, p_x),
            W_load=rng.normal(0, 0.7, (p_x, p_z)),
        )
        x = rng.normal(0, 1, p_x)
        total = sum(
            observed_density(reader_schema, model, s.bits, x)
            for s in enumerate_allowed_states(reader_schema)
        )
        weights = mixture_weights(reader_schema, model.b, model.G, model.sigma_z)
        cov = np.diag(model.psi_noise) + model.W_load @ model.sigma_z @ model.W_load.T
        direct = 0.0
        for bits, w in weights.items():
            mean = model.mu_x + model.W_load @ model.sigma_z @ model.G.T @ np.asarray(
                bits, dtype=float
            )
            direct += w * math.exp(gaussian_logpdf(x, mean, cov))
        assert total == pytest.approx(direct, rel=1e-10)


class TestObservedDensityLookup:
    """observed_density finds its state by the mixed-radix code of y's levels
    and gives what a scan of the whole prior table gives."""

    SCHEMA = VariableSchema(
        [VariableDecl("a", CAT, 3), VariableDecl("b", ORD, 4),
         VariableDecl("c", CAT, 2), VariableDecl("d", ORD, 3)]
    )

    @staticmethod
    def _scan(schema, model, y, x):
        """The whole-table row scan that preceded the row lookup; x is
        scored by the mixed model's normal density, as the lookup scores it."""
        Y, w = _prior_table(schema, model.b, model.G, model.sigma_z)
        yv = np.asarray([int(v) for v in y], dtype=float)
        row = np.flatnonzero((Y == yv).all(axis=1))
        if not len(row):
            return 0.0
        pi = float(w[row[0]])
        if model.p_x == 0:
            return pi
        means, cov = _x_given_states(model, yv[None, :])
        return pi * np.exp(_log_normals(np.asarray(x, dtype=float), means[0][None, :], cov)[0])

    @pytest.mark.parametrize("p_x", [0, 2])
    def test_equals_full_scan_on_every_bit_vector(self, rng, p_x):
        schema = self.SCHEMA
        A = rng.normal(0, 1, (2, 2))
        model = FactorModel(
            mu_x=rng.normal(0, 1, p_x),
            psi_noise=rng.uniform(0.5, 1.5, p_x),
            W_load=rng.normal(0, 0.7, (p_x, 2)),
            b=rng.normal(0, 0.8, schema.q),
            G=rng.normal(0, 0.6, (schema.q, 2)),
            mu_z=rng.normal(0, 1, 2),
            sigma_z=A @ A.T + 0.3 * np.eye(2),
        )
        x = rng.normal(0, 1, p_x) if p_x else None
        allowed = set(s.bits for s in enumerate_allowed_states(schema))
        n_allowed = 0
        for y in itertools.product((0, 1), repeat=schema.q):
            got = observed_density(schema, model, y, x)
            assert got == self._scan(schema, model, y, x)
            if y in allowed:
                n_allowed += 1
                assert got > 0.0
            else:
                assert got == 0.0
        assert n_allowed == schema.n_states()
        assert observed_density(schema, model, (2,) + (0,) * (schema.q - 1), x) == 0.0

    def test_wrong_length_y_raises(self, reader_schema):
        model = FactorModel.canonical(
            b=np.zeros(reader_schema.q), G=np.zeros((reader_schema.q, 1))
        )
        for y in [(), (1, 0), (0,) * (reader_schema.q + 1)]:
            with pytest.raises(ParameterError, match="length"):
                observed_density(reader_schema, model, y)


class TestSharedChecks:
    """The factor model reads its inputs through the rules the mixed and
    binary models own: one finiteness check, one covariance check (symmetry
    before the Cholesky factor, which reads one triangle) and 0/1 bits."""

    FIELDS = ("mu_x", "psi_noise", "W_load", "b", "G", "mu_z", "sigma_z")

    @staticmethod
    def _fields(q):
        return dict(mu_x=np.zeros(1), psi_noise=np.ones(1), W_load=np.full((1, 1), 0.3),
                    b=np.zeros(q), G=np.full((q, 1), 0.2), mu_z=np.zeros(1),
                    sigma_z=np.eye(1))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", FIELDS)
    def test_a_non_finite_field_is_refused(self, name, value):
        fields = self._fields(3)
        fields[name] = fields[name].copy()
        fields[name].flat[0] = value
        with pytest.raises(ParameterError, match=f"^{name} contains non-finite entries$"):
            FactorModel(**fields)

    def test_a_non_symmetric_sigma_z_is_refused_by_the_prior(self, rng, reader_schema):
        """Its lower triangle is the identity's, which alone would pass."""
        q = reader_schema.q
        b, G = rng.normal(0, 1, q), rng.normal(0, 0.5, (q, 2))
        with pytest.raises(ParameterError, match="^sigma_z must be symmetric$"):
            mixture_weights(reader_schema, b, G, [[1.0, 0.9], [0.0, 1.0]])

    def test_a_nan_model_file_exits_two(self, tmp_path, capsys, monkeypatch):
        """A NaN in b used to load, and ``moments`` then blamed an overflow."""
        schema = VariableSchema([VariableDecl("v0", CAT, 2), VariableDecl("v1", CAT, 2)])
        path = tmp_path / "nan.json"
        save_model(ModelFile("factor", schema, FactorModel.canonical(
            b=np.zeros(2), G=np.full((2, 1), 0.5)), None), str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["params"]["b"][0] = float("nan")
        path.write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        for argv in (["moments"], ["sample", "--n", "5", "--out", "s.csv"]):
            assert run_command([argv[0], "--model", "nan.json", *argv[1:]]) == 2
            out, err = capsys.readouterr()
            assert (out, err) == ("", "numerical error: b contains non-finite entries\n")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("p_x", [0, 1])
    def test_a_half_entry_is_not_an_allowed_state(self, rng, reader_schema, p_x):
        model = FactorModel.canonical(
            b=rng.normal(0, 1, reader_schema.q), G=rng.normal(0, 0.5, (reader_schema.q, 1)),
            mu_x=np.zeros(p_x), psi_noise=np.ones(p_x), W_load=np.full((p_x, 1), 0.4),
        )
        x = np.full(p_x, 0.3) if p_x else None
        y = encode_record(reader_schema, Record((0, 1, 2))).bits
        assert y[0] == 0 and observed_density(reader_schema, model, y, x) > 0.0
        for entry in (0.5, 2):
            assert observed_density(reader_schema, model, (entry, *y[1:]), x) == 0.0

    @pytest.mark.parametrize("entry", [2, 0.5, -1])
    @pytest.mark.parametrize("p_x", [0, 1])
    def test_posterior_refuses_a_non_bit(self, rng, reader_schema, entry, p_x):
        model = FactorModel.canonical(
            b=rng.normal(0, 1, reader_schema.q), G=rng.normal(0, 0.5, (reader_schema.q, 1)),
            mu_x=np.zeros(p_x), psi_noise=np.ones(p_x), W_load=np.full((p_x, 1), 0.4),
        )
        x = np.full(p_x, 0.3) if p_x else None
        y = encode_record(reader_schema, Record((1, 1, 2))).bits
        posterior(model, y, x)
        with pytest.raises(ParameterError, match="^y entries must be 0 or 1$"):
            posterior(model, (entry, *y[1:]), x)


class TestPriorOverflow:
    """A prior log-weight that overflows (G = 1e200, so |G^T u|^2 = inf)
    raises ParameterError on every reader of the prior table."""

    SCHEMA = VariableSchema([VariableDecl("v0", CAT, 2), VariableDecl("v1", CAT, 2)])
    MODEL = FactorModel.canonical(b=np.zeros(2), G=np.full((2, 1), 1e200))

    def test_the_table_raises(self):
        with pytest.raises(ParameterError, match="^a prior log-weight overflows$"):
            _prior_table(self.SCHEMA, self.MODEL.b, self.MODEL.G, self.MODEL.sigma_z)

    def test_the_density_raises(self):
        with pytest.raises(ParameterError, match="overflows"):
            observed_density(self.SCHEMA, self.MODEL, (1, 0))


def test_one_allowed_table_build_per_schema(monkeypatch, rng, tmp_path):
    """Repeated prior-table readers share one table per schema object; a
    `sample` command builds the table of the schema it loads once."""
    builds = []
    build = grasscat.schema._build_allowed_table

    def counting_build(schema):
        builds.append(schema)
        return build(schema)

    monkeypatch.setattr(grasscat.schema, "_build_allowed_table", counting_build)
    schema = reader_style_schema()
    model = FactorModel.canonical(
        b=rng.normal(0, 1, schema.q), G=rng.normal(0, 0.5, (schema.q, 2))
    )
    y = encode_record(schema, Record((1, 2, 3))).bits
    for _ in range(3):
        observed_density(schema, model, y)
        _prior_table(schema, model.b, model.G, model.sigma_z)
        mixture_weights(schema, model.b, model.G, model.sigma_z)
        enumerate_allowed_states(schema)
    assert builds == [schema]
    for kind, params in (("factor", model), ("grassmann", reader_style_true_params())):
        path = str(tmp_path / f"{kind}.json")
        save_model(ModelFile(kind, schema, params, None), path)
        before = len(builds)
        out = str(tmp_path / f"{kind}.csv")
        assert run_command(["sample", "--model", path, "--n", "50", "--out", out]) == 0
        assert len(builds) == before + 1


@pytest.mark.parametrize("reader", ["mixture_weights", "observed_density"])
def test_prior_readers_check_the_cap_before_building_the_table(reader, monkeypatch, rng):
    def no_build(schema):
        raise AssertionError("table built before the cap check")

    monkeypatch.setattr(grasscat.schema, "_build_allowed_table", no_build)
    monkeypatch.setenv("GRASSCAT_CAP", "23")
    schema = reader_style_schema()  # 24 allowed states
    model = FactorModel.canonical(
        b=rng.normal(0, 1, schema.q), G=rng.normal(0, 0.5, (schema.q, 2))
    )
    calls = {
        "mixture_weights": lambda: mixture_weights(schema, model.b, model.G, model.sigma_z),
        "observed_density": lambda: observed_density(
            schema, model, encode_record(schema, Record((1, 2, 3))).bits
        ),
    }
    with pytest.raises(
        EnumerationCapError, match=r"^schema has 24 allowed states, exceeding the cap 23$"
    ):
        calls[reader]()


class TestGeneralSigmaZ:
    """The prior and the observed density follow the direct formulas for a
    positive definite sigma_z other than the identity."""

    def _model(self, rng, schema, p_x):
        A = rng.normal(0, 1, (2, 2))
        return FactorModel(
            mu_x=rng.normal(0, 1, p_x),
            psi_noise=rng.uniform(0.5, 1.5, p_x),
            W_load=rng.normal(0, 0.7, (p_x, 2)),
            b=rng.normal(0, 0.8, schema.q),
            G=rng.normal(0, 0.6, (schema.q, 2)),
            mu_z=rng.normal(0, 1, 2),
            sigma_z=A @ A.T + 0.3 * np.eye(2),
        )

    def _direct_weights(self, schema, model):
        gram = model.G @ model.sigma_z @ model.G.T
        raw = {}
        for s in enumerate_allowed_states(schema):
            u = np.asarray(s.bits, dtype=float)
            raw[s.bits] = math.exp(u @ model.b + 0.5 * u @ gram @ u)
        total = sum(raw.values())
        return {bits: w / total for bits, w in raw.items()}

    def test_prior_weights(self, rng, reader_schema):
        model = self._model(rng, reader_schema, 0)
        got = mixture_weights(reader_schema, model.b, model.G, model.sigma_z)
        want = self._direct_weights(reader_schema, model)
        assert list(got) == list(want)
        for bits, w in want.items():
            assert got[bits] == pytest.approx(w, rel=1e-12)

    @pytest.mark.parametrize("p_x", [0, 2])
    def test_observed_density(self, rng, reader_schema, p_x):
        model = self._model(rng, reader_schema, p_x)
        x = rng.normal(0, 1, p_x) if p_x else None
        cov = np.diag(model.psi_noise) + model.W_load @ model.sigma_z @ model.W_load.T
        for bits, w in self._direct_weights(reader_schema, model).items():
            want = w
            if p_x:
                u = np.asarray(bits, dtype=float)
                d = x - model.mu_x - model.W_load @ model.sigma_z @ model.G.T @ u
                want *= math.exp(-0.5 * d @ np.linalg.solve(cov, d)) / math.sqrt(
                    np.linalg.det(2 * math.pi * cov)
                )
            got = observed_density(reader_schema, model, bits, x)
            assert got == pytest.approx(want, rel=1e-12)


class TestPosterior:
    def test_zero_observation_gives_prior_mean(self, rng, reader_schema):
        p_x, p_z = 2, 2
        model = FactorModel.canonical(
            b=rng.normal(0, 0.5, reader_schema.q),
            G=rng.normal(0, 0.5, (reader_schema.q, p_z)),
            mu_x=rng.normal(0, 1, p_x),
            psi_noise=rng.uniform(0.5, 1.5, p_x),
            W_load=rng.normal(0, 0.7, (p_x, p_z)),
        )
        m, _ = posterior(model, np.zeros(reader_schema.q), model.mu_x)
        np.testing.assert_allclose(m, model.mu_z, atol=1e-12)

    def test_discrete_only_plug_in(self, rng, reader_schema):
        G = rng.normal(0, 0.5, (reader_schema.q, 2))
        model = FactorModel.canonical(b=rng.normal(0, 0.5, reader_schema.q), G=G)
        y = encode_record(reader_schema, Record((1, 2, 3))).bits
        m, cov = posterior(model, y)
        np.testing.assert_allclose(m, G.T @ np.asarray(y, dtype=float), atol=1e-12)
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-12)

    def test_discrete_only_inverts_nothing(self, rng, reader_schema, monkeypatch):
        model = FactorModel.canonical(
            b=rng.normal(0, 0.5, reader_schema.q), G=rng.normal(0, 0.5, (reader_schema.q, 2))
        )
        y = encode_record(reader_schema, Record((1, 2, 3))).bits
        want = posterior(model, y)

        def no_inverse(a):
            raise AssertionError("posterior inverted a matrix without a continuous block")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        got = posterior(model, y)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_bayes_identity(self, rng, reader_schema):
        p_x, p_z = 1, 2
        model = FactorModel.canonical(
            b=rng.normal(0, 0.5, reader_schema.q),
            G=rng.normal(0, 0.5, (reader_schema.q, p_z)),
            mu_x=rng.normal(0, 1, p_x),
            psi_noise=rng.uniform(0.5, 1.5, p_x),
            W_load=rng.normal(0, 0.7, (p_x, p_z)),
        )
        y = encode_record(reader_schema, Record((1, 1, 2))).bits
        x = rng.normal(0, 1, p_x)
        pxy = observed_density(reader_schema, model, y, x)
        m, cov = posterior(model, y, x)
        for _ in range(5):
            z = rng.normal(0, 1.5, p_z)
            lhs = _conditional_observation_density(reader_schema, model, y, z, x) * (
                _prior_density(reader_schema, model, z)
            )
            rhs = math.exp(gaussian_logpdf(z, m, cov)) * pxy
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestCombinedLoadings:
    def test_base_identities_random(self, rng, reader_schema):
        G = rng.normal(0, 1.0, (reader_schema.q, 3))
        cl = combined_loadings(reader_schema, G)
        for j, v in enumerate(reader_schema.variables):
            vecs = cl.vectors[j]
            if v.kind is CAT:
                np.testing.assert_allclose(vecs[0], -vecs[1:].sum(axis=0), atol=1e-10)
            else:
                np.testing.assert_allclose(vecs[0], -vecs[-1], atol=1e-10)

    def test_three_category_example(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        G = np.array([[3.0, 0.0], [0.0, 0.0]])
        cl = combined_loadings(schema, G)
        np.testing.assert_allclose(cl.vectors[0][0], [-1.0, 0.0])
        np.testing.assert_allclose(cl.vectors[0][1], [2.0, 0.0])
        np.testing.assert_allclose(cl.vectors[0][2], [-1.0, 0.0])

    def test_binary_ordinal_halves(self):
        schema = VariableSchema([VariableDecl("x", ORD, 2)])
        g = np.array([[1.5, -2.0]])
        cl = combined_loadings(schema, g)
        np.testing.assert_allclose(cl.vectors[0][1], 0.5 * g[0])
        np.testing.assert_allclose(cl.vectors[0][0], -0.5 * g[0])

    def test_coefficient_rows_match(self, rng, reader_schema):
        G = rng.normal(0, 1.0, (reader_schema.q, 2))
        coeffs = _loading_coefficients(reader_schema)
        cl = combined_loadings(reader_schema, G)
        stacked = np.vstack([cl.vectors[j] for j in range(len(reader_schema))])
        np.testing.assert_allclose(coeffs @ G, stacked, atol=1e-12)


class TestRotation:
    def test_diagonalizes_gram(self, rng, reader_schema):
        model = FactorModel.canonical(
            b=rng.normal(0, 0.5, reader_schema.q),
            G=rng.normal(0, 0.8, (reader_schema.q, 2)),
        )
        rotated, ratios = fix_rotation(model)
        gram = rotated.G.T @ rotated.G
        assert abs(gram[0, 1]) <= 1e-10
        assert gram[0, 0] >= gram[1, 1]
        np.testing.assert_allclose(ratios.sum(), 1.0, atol=1e-12)

    def test_already_diagonal_keeps_axes(self):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        G = np.array([[2.0, 0.0], [0.0, 1.0]])
        model = FactorModel.canonical(b=np.zeros(2), G=G)
        rotated, ratios = fix_rotation(model)
        np.testing.assert_allclose(np.abs(rotated.G), G, atol=1e-12)
        np.testing.assert_allclose(ratios, [0.8, 0.2], atol=1e-12)

    def test_eigenvalue_ratios(self):
        schema = VariableSchema([VariableDecl("x", ORD, 3)])
        G = np.array([[math.sqrt(3.0), 0.0], [0.0, 1.0]])
        model = FactorModel.canonical(b=np.zeros(2), G=G)
        _, ratios = fix_rotation(model)
        np.testing.assert_allclose(ratios, [0.75, 0.25], atol=1e-12)

    def test_density_invariant(self, rng, reader_schema):
        p_x, p_z = 2, 2
        model = FactorModel.canonical(
            b=rng.normal(0, 0.5, reader_schema.q),
            G=rng.normal(0, 0.8, (reader_schema.q, p_z)),
            mu_x=rng.normal(0, 1, p_x),
            psi_noise=rng.uniform(0.5, 1.5, p_x),
            W_load=rng.normal(0, 0.7, (p_x, p_z)),
        )
        rotated, _ = fix_rotation(model)
        for s in enumerate_allowed_states(reader_schema)[:6]:
            x = rng.normal(0, 1, p_x)
            d1 = observed_density(reader_schema, model, s.bits, x)
            d2 = observed_density(reader_schema, rotated, s.bits, x)
            assert d1 == pytest.approx(d2, abs=1e-10)


class TestBicCount:
    def test_documented_formula(self):
        assert bic_parameter_count(6, 2) == 6 + 12 - 1
        assert bic_parameter_count(6, 0) == 6
        assert bic_parameter_count(4, 3) == 4 + 12 - 3
        assert bic_parameter_count(6, 2, p_x=2) == 17 + 2 * 4

    @pytest.mark.parametrize("q, p_x", [(1, 0), (2, 0), (5, 0), (2, 1), (3, 2)])
    def test_count_stops_at_the_rank_of_the_stacked_loadings(self, q, p_x):
        """Past p_z = q + p_x the loadings add nothing: the count is that of
        b, mu_x, psi and the full symmetric Gram matrix of [G; W]."""
        r = q + p_x
        full = q + 2 * p_x + r * (r + 1) // 2
        counts = [bic_parameter_count(q, p_z, p_x) for p_z in range(r + 5)]
        assert counts[r:] == [full] * 5
        assert all(a < b for a, b in zip(counts[:r], counts[1:r + 1]))

    def test_fa_bic_chooses_zero_when_every_dimension_fits_equally(self, tmp_path, capsys):
        """One Cat(3) variable: p_z = 0 already fits its three frequencies, so
        every p_z reaches the same NLL and BIC must choose 0."""
        (tmp_path / "s.json").write_text(
            json.dumps({"variables": [{"name": "c", "kind": "categorical", "levels": 3}]}))
        levels = np.random.default_rng(0).choice(3, 300, p=[0.5, 0.3, 0.2])
        (tmp_path / "d.csv").write_text("c\n" + "".join(f"{v}\n" for v in levels))
        assert run_command(["fa", "bic", "--schema", str(tmp_path / "s.json"),
                            "--data", str(tmp_path / "d.csv"), "--min-dim", "0",
                            "--max-dim", "6", "--restarts", "1"]) == 0
        table = json.loads(capsys.readouterr().out)["table"]
        assert [r["k_params"] for r in table["rows"]] == [2, 4, 5, 5, 5, 5, 5]
        nlls = [r["nll"] for r in table["rows"]]
        assert max(nlls) - min(nlls) <= 1e-9 * nlls[0]
        assert table["chosen"] == 0


class TestFactorFit:
    def _rows_from_model(self, rng, schema, model, n):
        weights = mixture_weights(schema, model.b, model.G, model.sigma_z)
        keys = list(weights.keys())
        probs = np.asarray(list(weights.values()))
        draws = rng.multinomial(n, probs / probs.sum())
        rows = []
        for bits, count in zip(keys, draws):
            rec = decode_state(schema, DummyState(bits))
            rows.extend([rec] * int(count))
        return rows

    def test_p_z_zero_reduces_to_marginal_frequencies(self, rng):
        # with no latent dimensions the model is the independent one, whose
        # MLE matches every per-variable level frequency exactly
        schema = VariableSchema([VariableDecl("x", CAT, 3), VariableDecl("y", ORD, 3)])
        truth = FactorModel.canonical(
            b=rng.normal(0, 0.6, schema.q), G=np.zeros((schema.q, 0))
        )
        rows = self._rows_from_model(rng, schema, truth, 600)
        model, report = fit_factor_model(
            schema, rows, 0, FactorFitConfig(restarts=1, seed=1)
        )
        weights = mixture_weights(schema, model.b, model.G, model.sigma_z)
        n = len(rows)
        for j, v in enumerate(schema.variables):
            for level in range(v.levels):
                emp = sum(1 for r in rows if r.values[j] == level) / n
                got = sum(
                    w
                    for bits, w in weights.items()
                    if decode_state(schema, DummyState(bits)).values[j] == level
                )
                assert got == pytest.approx(emp, abs=1e-6)

    def test_mean_reproduction(self, rng, reader_schema):
        truth = FactorModel.canonical(
            b=rng.normal(0, 0.5, reader_schema.q),
            G=rng.normal(0, 0.6, (reader_schema.q, 2)),
        )
        rows = self._rows_from_model(rng, reader_schema, truth, 941)
        model, report = fit_factor_model(
            reader_schema, rows, 2, FactorFitConfig(restarts=2, seed=2)
        )
        assert np.abs(report.mean_model - report.mean_empirical).max() <= 1e-3
        assert report.k_params == 17

    def test_equal_norm_spread_small(self, rng, reader_schema):
        truth = FactorModel.canonical(
            b=rng.normal(0, 0.5, reader_schema.q),
            G=rng.normal(0, 0.7, (reader_schema.q, 2)),
        )
        rows = self._rows_from_model(rng, reader_schema, truth, 500)
        _, report = fit_factor_model(
            reader_schema, rows, 2, FactorFitConfig(restarts=1, seed=3)
        )
        assert report.norm_spread <= 1e-3 * 1.5 + 1e-6

    def test_penalty_weight_ramps_through_at_most_six_weights(self, monkeypatch, rng):
        """A minimizer that never moves leaves the random start's loading
        norms apart, so the restart ramps kappa through 1, 10, ..., 1e5."""
        from types import SimpleNamespace

        import scipy.optimize

        kappas = []

        def stub(fun, x0, args, **kwargs):
            kappas.append(args[0])
            return SimpleNamespace(x=x0, fun=1.0, nit=1, success=True, status=0)

        monkeypatch.setattr(scipy.optimize, "minimize", stub)
        schema = VariableSchema([VariableDecl("a", CAT, 3), VariableDecl("b", ORD, 3)])
        rows = np.stack([rng.integers(0, 3, 60), rng.integers(0, 3, 60)], axis=1)
        fit_factor_model(schema, rows, 2, FactorFitConfig(restarts=1))
        assert sorted(set(kappas)) == [1.0, 10.0, 1e2, 1e3, 1e4, 1e5]

    def test_continuous_block_gradient(self, rng):
        schema = VariableSchema([VariableDecl("x", CAT, 3)])
        p_z, p_x, n = 1, 2, 40
        truth = FactorModel.canonical(
            b=np.array([0.3, -0.2]),
            G=rng.normal(0, 0.5, (2, p_z)),
            mu_x=np.array([0.5, -1.0]),
            psi_noise=np.array([0.8, 1.2]),
            W_load=rng.normal(0, 0.5, (p_x, p_z)),
        )
        rows = self._rows_from_model(rng, schema, truth, n)
        x_data = rng.normal(0, 1, (n, p_x))
        model, report = fit_factor_model(
            schema,
            rows,
            p_z,
            FactorFitConfig(restarts=1, seed=4, max_iter=400),
            x_data=x_data,
        )
        assert report.converged
        assert model.p_x == p_x
        assert report.k_params == bic_parameter_count(2, 1, 2)

    def test_bic_prefers_small_dimension_on_independent_data(self, rng):
        schema = VariableSchema([VariableDecl("a", CAT, 3), VariableDecl("b", ORD, 4)])
        truth = FactorModel.canonical(
            b=rng.normal(0, 0.5, schema.q), G=np.zeros((schema.q, 1))
        )
        rows = self._rows_from_model(rng, schema, truth, 2000)
        table, model, report = select_dimension_bic(
            schema, rows, [0, 1, 2], FactorFitConfig(restarts=1, seed=5)
        )
        assert table.chosen in (0, 1)
        assert table.margin > 0.0


class TestBiplot:
    def test_zero_loadings_put_everything_at_origin(self, reader_schema, tmp_path):
        model = FactorModel.canonical(
            b=np.zeros(reader_schema.q), G=np.zeros((reader_schema.q, 2))
        )
        rows = [Record((0, 0, 0)), Record((1, 2, 3)), Record((1, 2, 3))]
        bp = biplot_export(
            reader_schema,
            model,
            rows,
            str(tmp_path / "b.svg"),
            str(tmp_path / "s.csv"),
            str(tmp_path / "l.csv"),
        )
        assert np.abs(bp.loading_vectors).max() == 0.0
        np.testing.assert_allclose(bp.scores, 0.0, atol=1e-12)

    def test_duplicates_merge_with_multiplicity(self, reader_schema, tmp_path):
        model = FactorModel.canonical(
            b=np.zeros(reader_schema.q), G=np.full((reader_schema.q, 2), 0.1)
        )
        rows = [Record((1, 2, 3)), Record((1, 2, 3)), Record((0, 0, 0))]
        bp = biplot_data(reader_schema, model, rows)
        assert len(bp.row_ids) == 2
        assert bp.multiplicities[0] == 2
        assert bp.row_ids[0] == 0

    def test_matches_per_record_grouping(self, reader_schema, rng):
        model = FactorModel.canonical(
            b=np.zeros(reader_schema.q), G=rng.normal(0, 0.5, (reader_schema.q, 2))
        )
        levels = np.column_stack(
            [rng.integers(0, v.levels, 300) for v in reader_schema.variables]
        )
        rows = [Record(tuple(r)) for r in levels.tolist()]
        groups = {}
        for i, rec in enumerate(rows):
            groups.setdefault(rec.values, []).append(i)
        rotated, _ = fix_rotation(model)
        for data in (rows, levels):
            bp = biplot_data(reader_schema, model, data)
            assert list(map(tuple, bp.records.tolist())) == list(groups)
            assert bp.row_ids.tolist() == [g[0] for g in groups.values()]
            assert bp.multiplicities.tolist() == [len(g) for g in groups.values()]
            for record, score in zip(bp.records.tolist(), bp.scores):
                want, _ = posterior(rotated, encode_record(reader_schema, Record(tuple(record))).bits)
                assert np.array_equal(score, want)

    @pytest.mark.parametrize("p_z", [0, 1, 2, 3])
    def test_scores_do_not_depend_on_the_batch(self, p_z):
        # a general mu_z and sigma_z, so both products and the shift matter
        schema = VariableSchema([
            VariableDecl(name, kind, levels) for name, kind, levels in
            (("A", CAT, 3), ("B", ORD, 4), ("C", CAT, 4), ("D", ORD, 3), ("E", CAT, 2))
        ])
        rng = np.random.default_rng(40 + p_z)
        A = rng.normal(0, 1, (p_z, p_z))
        model = FactorModel(
            mu_x=np.zeros(0), psi_noise=np.zeros(0), W_load=np.zeros((0, p_z)),
            b=rng.normal(0, 0.5, schema.q), G=rng.normal(0, 0.7, (schema.q, p_z)),
            mu_z=rng.normal(0, 1, p_z), sigma_z=A @ A.T + 0.3 * np.eye(p_z),
        )
        levels = np.column_stack([rng.integers(0, v.levels, 500) for v in schema.variables])
        rotated, _ = fix_rotation(model)
        for data in (levels[:1], levels):
            bits = [encode_record(schema, Record(tuple(r))).bits for r in data.tolist()]
            batch = _scores(model, np.asarray(bits, dtype=float))
            for y, row in zip(bits, batch):
                assert np.array_equal(posterior(model, y)[0], row)
            bp = biplot_data(schema, model, data)
            assert bp.scores.shape == (len(bp.records), max(p_z, 2))
            assert bp.padded == (p_z < 2)
            assert np.all(bp.scores[:, p_z:] == 0.0)
            for record, score in zip(bp.records.tolist(), bp.scores):
                want, _ = posterior(rotated, encode_record(schema, Record(tuple(record))).bits)
                assert np.array_equal(score[:p_z], want)

    def test_invalid_row_raises_the_encoder_error(self, reader_schema):
        model = FactorModel.canonical(
            b=np.zeros(reader_schema.q), G=np.zeros((reader_schema.q, 2))
        )
        with pytest.raises(SchemaError) as want:
            encode_record(reader_schema, Record((0, 9, 0)))
        for data in ([Record((0, 0, 0)), Record((0, 9, 0))], np.array([[0, 0, 0], [0, 9, 0]])):
            with pytest.raises(SchemaError) as got:
                biplot_data(reader_schema, model, data)
            assert type(got.value) is SchemaError
            assert str(got.value) == str(want.value)
        with pytest.raises(DataError, match="dataset is empty"):
            biplot_data(reader_schema, model, [])

    def test_axis_labels_carry_percentages(self, reader_schema, tmp_path, rng):
        model = FactorModel.canonical(
            b=np.zeros(reader_schema.q), G=rng.normal(0, 0.5, (reader_schema.q, 2))
        )
        rows = [Record((1, 2, 3)), Record((0, 1, 0))]
        svg = tmp_path / "b.svg"
        bp = biplot_export(
            reader_schema,
            model,
            rows,
            str(svg),
            str(tmp_path / "s.csv"),
            str(tmp_path / "l.csv"),
        )
        content = svg.read_text()
        want = f"PC1 ({100 * bp.contribution_ratios[0]:.1f}%)"
        assert want in content

    def test_one_dimensional_model_pads(self, reader_schema, tmp_path):
        model = FactorModel.canonical(
            b=np.zeros(reader_schema.q), G=np.full((reader_schema.q, 1), 0.2)
        )
        rows = [Record((1, 2, 3))]
        bp = biplot_export(
            reader_schema,
            model,
            rows,
            str(tmp_path / "b.svg"),
            str(tmp_path / "s.csv"),
            str(tmp_path / "l.csv"),
        )
        assert bp.padded
        assert bp.loading_vectors.shape[1] == 2
        scores = (tmp_path / "s.csv").read_text().splitlines()
        assert scores[0] == "row_id,pc1,pc2,multiplicity"


def test_svg_point_area_proportional_to_multiplicity(reader_schema, tmp_path, rng):
    import re

    model = FactorModel.canonical(
        b=np.zeros(reader_schema.q), G=rng.normal(0, 0.4, (reader_schema.q, 2))
    )
    rows = [Record((1, 2, 3)), Record((1, 2, 3)), Record((0, 0, 0))]
    svg = tmp_path / "b.svg"
    biplot_export(
        reader_schema, model, rows,
        str(svg), str(tmp_path / "s.csv"), str(tmp_path / "l.csv"),
    )
    radii = [float(m) for m in re.findall(r'<circle[^>]*r="([0-9.]+)"', svg.read_text())]
    assert len(radii) == 2
    # first point has multiplicity 2, second 1: double the area (radii are
    # written with two decimals, hence the loose tolerance)
    assert (radii[0] ** 2) / (radii[1] ** 2) == pytest.approx(2.0, rel=5e-3)


def test_joint_factorization_by_quadrature(rng, reader_schema):
    """Integrating p(x,y|z) p(z) over z with a Gauss-Hermite rule reproduces
    the closed-form observed density."""
    import itertools as it

    p_x, p_z = 1, 2
    model = FactorModel.canonical(
        b=rng.normal(0, 0.5, reader_schema.q),
        G=rng.normal(0, 0.5, (reader_schema.q, p_z)),
        mu_x=rng.normal(0, 1, p_x),
        psi_noise=rng.uniform(0.5, 1.5, p_x),
        W_load=rng.normal(0, 0.6, (p_x, p_z)),
    )
    # hermegauss: sum w_i f(z_i) ~ integral of f(z) exp(-z^2/2) dz, so the
    # integrand is multiplied back by exp(+|z|^2/2)
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    y = encode_record(reader_schema, Record((1, 1, 2))).bits
    x = rng.normal(0, 1, p_x)
    total = 0.0
    for i, j in it.product(range(40), repeat=2):
        z = np.array([nodes[i], nodes[j]])
        cond = _conditional_observation_density(reader_schema, model, y, z, x)
        prior = _prior_density(reader_schema, model, z)
        total += weights[i] * weights[j] * cond * prior * math.exp(0.5 * float(z @ z))
    want = observed_density(reader_schema, model, y, x)
    assert total == pytest.approx(want, abs=1e-6)


def test_initial_objective_matches_independent_model(rng, reader_schema):
    """Evaluating the likelihood at (b = empirical log odds, G = 0) gives the
    independent-model NLL."""
    from grasscat.factor import _independent_logits
    from grasscat.fit import state_counts

    truth = FactorModel.canonical(
        b=rng.normal(0, 0.5, reader_schema.q), G=np.zeros((reader_schema.q, 2))
    )
    weights = mixture_weights(reader_schema, truth.b, truth.G, truth.sigma_z)
    keys = list(weights.keys())
    probs = np.asarray(list(weights.values()))
    draws = rng.multinomial(500, probs / probs.sum())
    rows = []
    for bits, c in zip(keys, draws):
        rows.extend([decode_state(reader_schema, DummyState(bits))] * int(c))
    counts = state_counts(reader_schema, rows)
    b0 = _independent_logits(reader_schema, counts)
    start = mixture_weights(
        reader_schema, b0, np.zeros((reader_schema.q, 2)), np.eye(2)
    )
    nll_weights = -sum(
        c * math.log(start[bits]) for bits, c in counts.items
    )
    # independent NLL from per-variable pmfs at the same biases
    nll_direct = 0.0
    for bits, c in counts.items:
        nll_direct -= c * math.log(
            _variable_pmf_product(reader_schema, b0, bits)
        )
    assert nll_weights == pytest.approx(nll_direct, rel=1e-12)


def _ref_combined_vectors(schema, G):
    """The combined loadings filled one level at a time, the ordinal running
    sum starting from +0.0: the reference for the block-at-once version."""
    vectors = []
    for (s, e), v in zip(schema.blocks, schema.variables):
        rows = G[s:e]
        block_sum = rows.sum(axis=0)
        k = v.block_size
        out = np.zeros((v.levels, G.shape[1]))
        if v.kind is CAT:
            out[0] = -block_sum / (k + 1)
            for l in range(1, v.levels):
                out[l] = -block_sum / (k + 1) + rows[l - 1]
        else:
            out[0] = -0.5 * block_sum
            run = np.zeros(G.shape[1])
            for l in range(1, v.levels):
                run = run + rows[l - 1]
                out[l] = -0.5 * block_sum + run
        vectors.append(out)
    return vectors


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestCombinedLoadingsSignedZeros:
    def test_matches_the_per_level_loop_bit_for_bit(self):
        from generators import random_schema

        rng = np.random.default_rng(269)
        for _ in range(200):
            schema = random_schema(rng, max_q=9, max_levels=5)
            p_z = int(rng.integers(0, 4))
            G = rng.choice([0.0, -0.0, 1.0, -1.0, 0.25, -3.5], size=(schema.q, p_z))
            got = combined_loadings(schema, G).vectors
            want = _ref_combined_vectors(schema, G)
            assert len(got) == len(want)
            assert all(_same_bits(a, b) for a, b in zip(got, want))
            coeffs = np.vstack(_ref_combined_vectors(schema, np.eye(schema.q))) + 0.0
            assert _same_bits(_loading_coefficients(schema), coeffs)


class TestFactorFitConfigSeed:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            FactorFitConfig(seed=-2)


class TestFactorFitConfigIntegers:
    """Every integer field refuses a float or a bool, naming the field,
    before its range check; numpy integers are integers."""

    @pytest.mark.parametrize("field", ["max_iter", "restarts", "seed"])
    def test_non_integer_field_rejected(self, field):
        for value in (1.5, -1.5, 2.0, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                FactorFitConfig(**{field: value})
        assert getattr(FactorFitConfig(**{field: np.int64(2)}), field) == 2


class TestFactorFitOnThePriorTable:
    SCHEMA = VariableSchema([VariableDecl("a", CAT, 3), VariableDecl("b", ORD, 3)])
    MESSAGE = "^an observed state is not an allowed dummy state$"

    @staticmethod
    def _captured(monkeypatch):
        """Replace the restart driver by one that records its arguments and
        returns the first start, so a fit builds its report without optimizing."""
        import grasscat.factor

        captured = {}

        def capture(seed, restarts, start, descend, key):
            captured.update(start=start, key=key)
            return (0.0, 0.0), start(np.random.default_rng(seed)), True, 0

        monkeypatch.setattr(grasscat.factor, "_restarts", capture)
        return captured

    @pytest.mark.parametrize("bad", [(1, 1, 0, 0), (0, 0, 0, 1), (0, 2, 0, 0)])
    def test_a_disallowed_state_is_refused(self, bad):
        counts = StateCounts(items=((bad, 2), ((0, 0, 1, 0), 3), ((1, 0, 1, 1), 4)))
        with pytest.raises(InvalidStateError, match=self.MESSAGE):
            fit_factor_model(self.SCHEMA, counts, 1)
        with pytest.raises(InvalidStateError, match=self.MESSAGE):
            select_dimension_bic(self.SCHEMA, counts, [0, 1])

    def test_empty_counts_are_an_empty_dataset(self):
        with pytest.raises(DataError, match="^dataset is empty$"):
            fit_factor_model(self.SCHEMA, StateCounts(items=()), 1)

    @pytest.mark.parametrize("which", ["equal radices", "reader", "mixed"])
    def test_nll_is_the_data_log_density(self, monkeypatch, rng, which):
        """The unpenalized objective equals -sum n_y log pi_y over the observed
        states, each read from observed_density: every count lands on its own
        table row."""
        schema = {
            "equal radices": self.SCHEMA,
            "reader": reader_style_schema(),
            "mixed": VariableSchema([VariableDecl("o", ORD, 4), VariableDecl("c", CAT, 2),
                                     VariableDecl("k", CAT, 3)]),
        }[which]
        captured = self._captured(monkeypatch)
        table = grasscat.schema.allowed_table(schema)[1]
        counts = state_counts(schema, table[rng.integers(0, len(table), 80)])
        q, p_z = schema.q, 2
        fit_factor_model(schema, counts, p_z, FactorFitConfig(restarts=1))
        for _ in range(3):
            x = captured["start"](rng) + rng.normal(0.0, 0.5, q * (1 + p_z) + 1)
            model = FactorModel.canonical(b=x[:q], G=x[q:q * (1 + p_z)].reshape(q, p_z))
            want = -sum(c * math.log(observed_density(schema, model, bits))
                        for bits, c in counts.items)
            assert captured["key"](x)[0] == pytest.approx(want, rel=1e-12)

    def test_p_z_one_warns_of_each_odd_categorical_variable(self, monkeypatch, rng):
        self._captured(monkeypatch)
        schema = VariableSchema([VariableDecl("a", CAT, 3), VariableDecl("b", ORD, 3),
                                 VariableDecl("c", CAT, 4), VariableDecl("d", CAT, 5)])
        rows = np.stack([rng.integers(0, v.levels, 50) for v in schema.variables], axis=1)
        for p_z in (0, 1, 2):
            _, report = fit_factor_model(schema, rows, p_z, FactorFitConfig(restarts=1))
            if p_z != 1:
                assert report.warnings == []
                continue
            assert report.to_dict()["warnings"] == report.warnings == [
                f"categorical variable {name!r} has an odd number of levels ({levels}): "
                "at p_z = 1 its combined loadings sum to zero, so equal norms force every "
                "loading to 0"
                for name, levels in (("a", 3), ("d", 5))
            ]

    def test_p_z_one_collapses_to_the_independent_model(self):
        """The collapse the warning names: with one Cat(3) variable, p_z = 1
        ends at p_z = 0's NLL with its loadings at 0."""
        schema = VariableSchema([VariableDecl("c", CAT, 3)])
        levels = np.random.default_rng(0).choice(3, 300, p=[0.5, 0.3, 0.2])[:, None]
        _, base = fit_factor_model(schema, levels, 0, FactorFitConfig(restarts=1))
        model, report = fit_factor_model(schema, levels, 1, FactorFitConfig(restarts=1))
        assert report.nll == pytest.approx(base.nll, rel=1e-12)
        assert np.abs(model.G).max() <= 1e-6
        assert len(report.warnings) == 1 and "'c'" in report.warnings[0]


class TestFactorObjectiveGradient:
    def test_gradient_with_a_continuous_block_matches_finite_differences(
            self, monkeypatch, rng):
        """Central differences of the factor fit's penalized objective in
        every coordinate of (b, G, s, mu_x, tau, W), taken from the call
        that fit_factor_model makes to a stubbed scipy.optimize.minimize,
        which returns its start unmoved."""
        from types import SimpleNamespace

        import scipy.optimize

        captured = {}

        def stub(fun, x0, args, **kwargs):
            captured.setdefault("start", x0)
            captured["fun"] = fun
            return SimpleNamespace(x=x0, fun=0.0, nit=0, success=True, status=0)

        monkeypatch.setattr(scipy.optimize, "minimize", stub)
        schema = VariableSchema([VariableDecl("a", CAT, 3), VariableDecl("b", ORD, 3)])
        n, p_z, p_x = 60, 2, 2
        rows = np.stack([rng.integers(0, 3, n), rng.integers(0, 3, n)], axis=1)
        fit_factor_model(schema, rows, p_z, FactorFitConfig(restarts=1),
                         x_data=rng.normal(0.0, 1.0, (n, p_x)))
        args = (10.0,)  # kappa = 10: the equal-norm penalty is live
        fun = captured["fun"]
        x = captured["start"] + rng.normal(0.0, 0.3, 1)
        value, grad = fun(x, *args)
        assert len(x) == schema.q * (1 + p_z) + 1 + p_x * (2 + p_z)
        h = 1e-6
        for i in range(len(x)):
            step = np.zeros_like(x)
            step[i] = h
            fd = (fun(x + step, *args)[0] - fun(x - step, *args)[0]) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-5), i


def test_loadings_csv_rows_follow_the_schema(reader_schema, tmp_path, rng):
    """One loadings row per level: the variable's name, the level label and
    the level's loading vector, in schema order."""
    model = FactorModel.canonical(
        b=np.zeros(reader_schema.q), G=rng.normal(0, 0.5, (reader_schema.q, 2))
    )
    out = tmp_path / "l.csv"
    bp = biplot_export(reader_schema, model, [Record((1, 2, 3)), Record((0, 1, 0))],
                       str(tmp_path / "b.svg"), str(tmp_path / "s.csv"), str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "variable,level_label,pc1,pc2"
    names = ["Working"] * 2 + ["Age"] * 3 + ["Edu"] * 4
    assert len(lines) == 1 + len(names) == 1 + len(bp.loading_labels)
    for line, name, label, vec in zip(lines[1:], names, bp.loading_labels, bp.loading_vectors):
        assert line == ",".join([name, label, *(format(float(c), ".17g") for c in vec)])
