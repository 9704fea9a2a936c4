"""Pattern probabilities of a structured model from a x a determinants
(``fit._pattern_probabilities`` and the ``prob`` command), against the
lam-space marginal and conditional formulas and against signed sums over the
allowed-state table."""

import json

import numpy as np
import pytest

import grasscat.cli
import grasscat.fit
import grasscat.grassmann
import grasscat.structure
from grasscat.cli import conditional_pattern_probability, parse_pattern, run_command
from grasscat.errors import ConditioningError, ParameterError
from grasscat.fit import (
    B_CAP,
    _allowed_state_probabilities,
    _pattern_probabilities,
    _structured_moments,
)
from grasscat.grassmann import (
    IndexPartition,
    conditional_params,
    joint_probability,
    marginal_params,
)
from grasscat.modelfile import ModelFile, save_model
from grasscat.schema import VariableDecl, VariableSchema, allowed_table
from grasscat.structure import StructuredParams, assemble_lambda

from generators import CAT, ORD, random_certified_structured, random_schema, random_structured


def _clauses(rng, schema, names) -> str:
    """A random 'Var=l' / 'Var>=l' clause for each of ``names``, level 0 included."""
    out = []
    for name in names:
        v = schema.variables[schema.names.index(name)]
        op = ">=" if v.kind is ORD and rng.random() < 0.5 else "="
        out.append(f"{name}{op}{int(rng.integers(0, v.levels))}")
    return ",".join(out)


def _query_and_given_texts(rng, schema) -> tuple[str, str]:
    """Disjoint random query and given clauses, either possibly empty."""
    names = list(rng.permutation(schema.names))
    cut = int(rng.integers(0, len(names) + 1))
    query = [n for n in names[:cut] if rng.random() < 0.7]
    given = [n for n in names[cut:] if rng.random() < 0.5]
    return _clauses(rng, schema, query), _clauses(rng, schema, given)


def _query_and_given(rng, schema) -> tuple[dict, dict]:
    """Disjoint random query and given patterns, either possibly empty."""
    return tuple(parse_pattern(schema, text) for text in _query_and_given_texts(rng, schema))


def _arrays(q, *patterns):
    fixed, values = np.zeros((len(patterns), q)), np.zeros((len(patterns), q))
    for row, pattern in enumerate(patterns):
        for bit, value in pattern.items():
            fixed[row, bit], values[row, bit] = 1.0, value
    return fixed, values


def _probs(schema, sp, *patterns):
    return _pattern_probabilities(schema, sp, *_arrays(schema.q, *patterns))


def _lam_space(params, query, given):
    """p(query | given) from the lam-space parameter formulas: the
    conditional parameter of the bits given leaves free, then the marginal
    parameter of the query's bits and its joint probability."""
    if given:
        T = tuple(sorted(given))
        S = tuple(i for i in range(params.q) if i not in given)
        params = conditional_params(params, IndexPartition(S, T, tuple(t for t in T if given[t])))
        pos = {bit: k for k, bit in enumerate(S)}
        query = {pos[bit]: value for bit, value in query.items()}
    if not query:
        return 1.0
    T = sorted(query)
    return joint_probability(marginal_params(params, T), [query[t] for t in T])


def _table_sum(schema, table, pattern):
    """The signed sum of the table's states that agree with ``pattern``, and
    the sum of their absolute values."""
    bits = allowed_table(schema)[0]
    idx = sorted(pattern)
    match = (bits[:, idx] == [pattern[i] for i in idx]).all(axis=1)
    return table[match].sum(), np.abs(table[match]).sum()


def _one_bit_each(V):
    """Cat(2) variables with a = 1, b = 0, w_v = 1 and omega = 1/2: det Abar
    = 1 + sum_v V[v] / 4."""
    k = len(V)
    schema = VariableSchema([VariableDecl(f"v{j}", CAT, 2) for j in range(k)])
    sp = StructuredParams(tuple(np.zeros((k, 1))), (np.ones(1),) * k,
                          np.asarray(V, dtype=float)[:, None], np.full(1, 0.5))
    return schema, sp


def _ord30(rng, a, b):
    """An Ord(30) with every b at ``b`` beside a Cat(3): beta reaches 29 b."""
    schema = VariableSchema([VariableDecl("o30", ORD, 30), VariableDecl("c3", CAT, 3)])
    sp = random_structured(rng, schema, a)
    return schema, StructuredParams((np.full(29, b), sp.b[1]), sp.w, sp.V, sp.omega)


class TestAgreement:
    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_matches_lam_space_and_the_table(self, rng, a):
        """50 models per a, every other one certified: each pattern against
        the signed table sum and each conditional against lam-space."""
        checked = 0
        for m in range(50):
            schema = random_schema(rng, 10, min_vars=2)
            sp = (random_certified_structured(rng, schema, a) if m % 2
                  else random_structured(rng, schema, a))
            table = _allowed_state_probabilities(schema, sp)
            params = assemble_lambda(schema, sp)
            for _ in range(4):
                query, given = _query_and_given(rng, schema)
                both = {**query, **given}
                got = _probs(schema, sp, query, given, both)
                for p, pattern in zip(got, (query, given, both)):
                    want, scale = _table_sum(schema, table, pattern)
                    assert abs(p - want) <= 1e-12 * scale
                if got[1] <= 0.0:
                    continue
                try:
                    want = _lam_space(params, query, given)
                except (ParameterError, ConditioningError):
                    continue  # lam's own checks refuse an ill-conditioned block
                got = conditional_pattern_probability(schema, sp, query, given)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
                checked += 1
        assert checked >= 150

    @pytest.mark.parametrize("a", [1, 2])
    def test_bordered_and_divided_columns_agree(self, rng, monkeypatch, a):
        """Bordering every constrained variable gives the divided result."""
        for _ in range(20):
            schema = random_schema(rng, 10, min_vars=2)
            sp = random_structured(rng, schema, a)
            patterns = [_query_and_given(rng, schema)[0] for _ in range(6)]
            divided = _probs(schema, sp, *patterns)
            monkeypatch.setattr(grasscat.fit, "_BORDER_BELOW", 2.0)
            bordered = _probs(schema, sp, *patterns)
            monkeypatch.undo()
            assert np.allclose(bordered, divided, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("a", [0, 1, 2])
    @pytest.mark.parametrize("b", [-B_CAP, B_CAP])
    def test_ord30_at_the_bound_gives_finite_sums(self, rng, a, b):
        """beta reaches -870 or +870: each pattern of the Ord(30), alone and
        beside a Cat(3) level, is finite and matches the table."""
        schema, sp = _ord30(rng, a, b)
        table = _allowed_state_probabilities(schema, sp)
        patterns = [parse_pattern(schema, f"o30{op}{level}{extra}")
                    for op in ("=", ">=") for level in range(30) for extra in ("", ",c3=2")]
        for p, pattern in zip(_probs(schema, sp, *patterns), patterns):
            assert np.isfinite(p)
            assert abs(p - _table_sum(schema, table, pattern)[0]) <= 1e-12


class TestRules:
    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_the_empty_pattern_is_exactly_one(self, rng, a):
        for _ in range(25):
            schema = random_schema(rng, 12)
            sp = random_structured(rng, schema, a, b_scale=3.0)
            query, _ = _query_and_given(rng, schema)
            p_empty, p_query = _probs(schema, sp, {}, query)
            assert p_empty == 1.0
            assert conditional_pattern_probability(schema, sp, query, {}) == p_query

    def test_impossible_patterns_are_positive_zero(self, rng):
        schema = VariableSchema([VariableDecl("c4", CAT, 4), VariableDecl("o4", ORD, 4)])
        sp = random_structured(rng, schema, 2)
        patterns = [{0: 1, 1: 1}, {0: 1, 2: 1, 4: 1}, {3: 0, 4: 1}, {3: 0, 5: 1, 0: 0}]
        for p in _probs(schema, sp, *patterns):
            assert p == 0.0 and not np.signbit(p)
        p = conditional_pattern_probability(schema, sp, {0: 1, 1: 1}, {4: 1})
        assert p == 0.0 and not np.signbit(p)

    def test_given_of_probability_zero_raises(self, rng):
        schema = VariableSchema([VariableDecl("c4", CAT, 4), VariableDecl("o4", ORD, 4)])
        sp = random_structured(rng, schema, 2)
        with pytest.raises(ConditioningError, match="^conditioning event has probability zero$"):
            conditional_pattern_probability(schema, sp, {3: 1}, {0: 1, 1: 1})

    def test_singular_abar_raises(self):
        schema, sp = _one_bit_each([-4.0])  # det Abar = 1 - 1 = 0
        for call in (lambda: conditional_pattern_probability(schema, sp, {}, {}),
                     lambda: _structured_moments(schema, sp)):
            with pytest.raises(ParameterError, match="^lam is singular$"):
                call()

    @pytest.mark.parametrize("field,value", [("b", np.inf), ("b", -np.inf), ("b", np.nan),
                                             ("w", np.nan), ("V", np.inf), ("omega", np.nan)])
    def test_non_finite_parameters_raise(self, field, value):
        schema, sp = _one_bit_each([0.5, -0.5])
        parts = {"b": list(sp.b), "w": list(sp.w), "V": sp.V.copy(), "omega": sp.omega.copy()}
        target = parts[field]
        if isinstance(target, list):
            target[0] = np.full_like(target[0], value)
        else:
            target.flat[0] = value
        bad = StructuredParams(tuple(parts["b"]), tuple(parts["w"]), parts["V"], parts["omega"])
        with pytest.raises(ParameterError, match="^parameters contain non-finite entries$"):
            conditional_pattern_probability(schema, bad, {0: 1}, {})


class TestProbCommand:
    @staticmethod
    def _run(tmp_path, capsys, schema, sp, query, given=""):
        path = str(tmp_path / "model.json")
        save_model(ModelFile("grassmann", schema, sp, None), path)
        capsys.readouterr()
        code = run_command(["prob", "--model", path, "--query", query, "--given", given])
        out, err = capsys.readouterr()
        return code, out, err

    def test_given_of_probability_zero_exits_2(self, tmp_path, capsys):
        # at a = 0, P(o30 = 29) = e^-870 / Z underflows to 0.0
        schema, sp = _ord30(np.random.default_rng(0), 0, -B_CAP)
        code, out, err = self._run(tmp_path, capsys, schema, sp, "c3=1", "o30=29")
        assert (code, out) == (2, "")
        assert err == "numerical error: conditioning event has probability zero\n"

    def test_negative_given_exits_2_naming_it(self, tmp_path, capsys):
        schema, sp = _one_bit_each([-6.0, 1.0])  # det Abar = -0.25: an uncertified model
        p_given = _probs(schema, sp, {0: 0})[0]
        assert p_given < 0.0
        code, out, err = self._run(tmp_path, capsys, schema, sp, "v1=1", "v0=0")
        assert (code, out) == (2, "")
        assert err == ("numerical error: conditioning event has negative probability "
                       f"{p_given:.3e}\n")

    def test_the_command_builds_no_lambda(self, rng, tmp_path, capsys, monkeypatch):
        """No lam, GrassmannParams, inverse or slogdet on the prob path."""
        schema = random_schema(rng, 10, min_vars=3)
        sp = random_certified_structured(rng, schema, 2)
        texts = _query_and_given_texts(rng, schema)
        want = conditional_pattern_probability(
            schema, sp, *(parse_pattern(schema, text) for text in texts))

        def refuse(*args, **kwargs):
            raise AssertionError("the prob path built lam")

        for owner, name in ((grasscat.cli, "assemble_lambda"),
                            (grasscat.structure, "assemble_lambda"),
                            (grasscat.grassmann.GrassmannParams, "__post_init__"),
                            (np.linalg, "inv"), (np.linalg, "slogdet")):
            monkeypatch.setattr(owner, name, refuse)
        code, out, _ = self._run(tmp_path, capsys, schema, sp, *texts)
        assert code == 0
        assert json.loads(out)["probability"] == want

    @pytest.mark.parametrize("V,message", [([-4.0], "lam is singular"),
                                           ([np.nan], "parameters contain non-finite entries")])
    def test_a_bad_model_is_reported_before_a_bad_pattern(self, tmp_path, capsys, V, message):
        schema, sp = _one_bit_each(V)
        code, out, err = self._run(tmp_path, capsys, schema, sp, "v0=2")
        assert (code, out, err) == (2, "", f"numerical error: {message}\n")
