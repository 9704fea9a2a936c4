import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import grasscat
from grasscat.cli import (
    conditional_pattern_probability,
    parse_pattern,
    run_command,
)
from grasscat.grassmann import joint_probability
from grasscat.modelfile import (
    ModelFile,
    dump_model,
    load_model,
    model_from_document,
    save_model,
)
from grasscat.factor import FactorModel
from grasscat.mixed import MixedParams
from grasscat.oracle import brute_force_table, oracle_conditional
from grasscat.schema import DummyState, enumerate_allowed_states, schema_to_dict
from grasscat.structure import assemble_lambda

from generators import (
    CAT,
    ORD,
    random_certified_structured,
    reader_style_schema,
    reader_style_true_params,
    sample_rows_from_probs,
)


@pytest.fixture
def workdir(tmp_path, rng):
    schema = reader_style_schema()
    (tmp_path / "schema.json").write_text(
        json.dumps(
            {
                "variables": [
                    {"name": "Working", "kind": "categorical", "levels": 2},
                    {"name": "Age", "kind": "categorical", "levels": 3},
                    {"name": "Edu", "kind": "ordinal", "levels": 4},
                ]
            }
        )
    )
    params = assemble_lambda(schema, reader_style_true_params())
    states = enumerate_allowed_states(schema)
    probs = [joint_probability(params, s.bits) for s in states]
    rows = sample_rows_from_probs(rng, schema, states, probs, 400)
    lines = ["Working,Age,Edu"]
    lines += [",".join(map(str, r.values)) for r in rows]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    return tmp_path


def _run(tmp_path, *argv) -> int:
    import os

    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return run_command(list(argv))
    finally:
        os.chdir(old)


class TestValidate:
    def test_ok(self, workdir, capsys):
        assert _run(workdir, "validate", "--schema", "schema.json", "--data", "data.csv") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and out["q"] == 6 and out["rows"] == 400

    def test_counts_match_state_counts(self, workdir, capsys):
        from grasscat.fit import state_counts
        from grasscat.schema import load_data_levels, load_schema

        assert _run(workdir, "validate", "--schema", "schema.json", "--data", "data.csv") == 0
        out = json.loads(capsys.readouterr().out)
        schema = load_schema(str(workdir / "schema.json"))
        counts = state_counts(schema, load_data_levels(schema, str(workdir / "data.csv")))
        assert (out["rows"], out["distinct_states"]) == (counts.n, len(counts.items))
        assert counts.n > len(counts.items) > 1

    def test_bad_schema_exits_one(self, workdir, tmp_path):
        (workdir / "bad.json").write_text('{"variables": [{"name": "x"}]}')
        assert _run(workdir, "validate", "--schema", "bad.json") == 1

    def test_unknown_flag_exits_64(self, workdir):
        assert _run(workdir, "validate", "--schema", "schema.json", "--bogus") == 64

    def test_unknown_command_exits_64(self, workdir):
        assert _run(workdir, "frobnicate") == 64

    def test_bad_cap_setting_exits_one(self, workdir, monkeypatch, capsys):
        monkeypatch.setenv("GRASSCAT_CAP", "abc")
        assert _run(
            workdir, "fa", "fit", "--schema", "schema.json", "--data", "data.csv",
            "--latent-dim", "1", "--out", "fa.json",
        ) == 1
        assert "GRASSCAT_CAP" in capsys.readouterr().err


class TestParserReuse:
    def test_shared_parser_matches_fresh_parser(self, workdir, capsys, monkeypatch):
        import grasscat.cli as cli

        commands = [
            ["validate", "--schema", "schema.json", "--bogus"],
            ["validate", "--schema", "schema.json", "--data", "data.csv"],
            ["--version"],
        ]

        def run_all():
            results = []
            for argv in commands:
                code = _run(workdir, *argv)
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        shared = run_all()
        assert [code for code, _, _ in shared] == [64, 0, 0]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert run_all() == shared


class TestFitCommand:
    def test_fit_and_artifacts(self, workdir, capsys):
        code = _run(
            workdir,
            "fit",
            "--schema", "schema.json",
            "--data", "data.csv",
            "--latent-aux", "1",
            "--restarts", "1",
            "--seed", "3",
            "--max-iter", "300",
            "--out", "model.json",
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["a"] == 1
        assert (workdir / "model.json").exists()
        assert (workdir / "model.json.corr.csv").exists()
        corr = (workdir / "model.json.corr.csv").read_text()
        assert corr.splitlines()[0].startswith("label,Working=1,Age=1")

    def test_model_round_trip_is_byte_identical(self, workdir, capsys):
        assert (
            _run(
                workdir,
                "fit",
                "--schema", "schema.json",
                "--data", "data.csv",
                "--latent-aux", "1",
                "--restarts", "1",
                "--seed", "3",
                "--max-iter", "200",
                "--out", "model.json",
            )
            == 0
        )
        text = (workdir / "model.json").read_text()
        mf = load_model(str(workdir / "model.json"))
        assert dump_model(mf) == text
        assert list(json.loads(text)["params"]) == ["b", "w", "V", "omega"]


class TestProbCommand:
    @pytest.fixture
    def model_path(self, workdir, capsys):
        _run(
            workdir,
            "fit",
            "--schema", "schema.json",
            "--data", "data.csv",
            "--latent-aux", "1",
            "--restarts", "1",
            "--seed", "3",
            "--max-iter", "200",
            "--out", "model.json",
        )
        capsys.readouterr()
        return workdir / "model.json"

    def test_pattern_parsing(self):
        schema = reader_style_schema()
        assert parse_pattern(schema, "Working=1") == {0: 1}
        assert parse_pattern(schema, "Age=0") == {1: 0, 2: 0}
        assert parse_pattern(schema, "Edu>=2") == {3: 1, 4: 1}
        assert parse_pattern(schema, "Edu=1") == {3: 1, 4: 0, 5: 0}
        from grasscat.errors import DataError

        with pytest.raises(DataError):
            parse_pattern(schema, "Working>=1")
        with pytest.raises(DataError):
            parse_pattern(schema, "Nope=1")

    def test_conditional_matches_oracle(self, model_path, capsys):
        mf = load_model(str(model_path))
        params = assemble_lambda(mf.schema, mf.params)
        table = brute_force_table(params)
        schema = mf.schema
        query = parse_pattern(schema, "Edu>=2")
        given = parse_pattern(schema, "Age=1")
        got = conditional_pattern_probability(schema, mf.params, query, given)
        T = sorted(given)
        S = sorted(query)
        want = oracle_conditional(table, tuple(S), tuple(T), [given[t] for t in T])
        assert want.defined
        target = sum(
            prob
            for pattern, prob in want.probs.items()
            if all(pattern[S.index(i)] == bit for i, bit in query.items())
        )
        assert got == pytest.approx(target, abs=1e-9)

    def test_cli_prob(self, model_path, workdir, capsys):
        code = _run(
            workdir,
            "prob",
            "--model", "model.json",
            "--query", "Edu>=3",
            "--given", "Age=2",
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        mf = load_model(str(model_path))
        table = brute_force_table(assemble_lambda(mf.schema, mf.params))
        query = parse_pattern(mf.schema, "Edu>=3")
        given = parse_pattern(mf.schema, "Age=2")
        S, T = sorted(query), sorted(given)
        want = oracle_conditional(table, tuple(S), tuple(T), [given[t] for t in T])
        assert want.defined
        target = want.probs.get(tuple(query[i] for i in S), 0.0)
        assert out["probability"] == pytest.approx(target, rel=1e-12, abs=1e-15)


class TestSampleCommand:
    def test_deterministic(self, workdir, capsys):
        _run(
            workdir,
            "fit",
            "--schema", "schema.json",
            "--data", "data.csv",
            "--latent-aux", "0",
            "--restarts", "1",
            "--seed", "3",
            "--max-iter", "200",
            "--out", "model.json",
        )
        for name in ("s1.csv", "s2.csv"):
            assert (
                _run(
                    workdir,
                    "sample",
                    "--model", "model.json",
                    "--n", "500",
                    "--seed", "7",
                    "--out", name,
                )
                == 0
            )
        assert (workdir / "s1.csv").read_bytes() == (workdir / "s2.csv").read_bytes()
        capsys.readouterr()

    def test_frequencies_match_model(self, workdir, capsys):
        _run(
            workdir,
            "fit",
            "--schema", "schema.json",
            "--data", "data.csv",
            "--latent-aux", "1",
            "--restarts", "1",
            "--seed", "3",
            "--max-iter", "300",
            "--out", "model.json",
        )
        assert (
            _run(
                workdir,
                "sample",
                "--model", "model.json",
                "--n", "100000",
                "--seed", "11",
                "--out", "big.csv",
            )
            == 0
        )
        capsys.readouterr()
        mf = load_model(str(workdir / "model.json"))
        params = assemble_lambda(mf.schema, mf.params)
        states = enumerate_allowed_states(mf.schema)
        probs = np.clip(
            [joint_probability(params, s.bits) for s in states], 0.0, None
        )
        probs = probs / probs.sum()
        lines = (workdir / "big.csv").read_text().splitlines()[1:]
        from collections import Counter

        counts = Counter(lines)
        n = len(lines)
        from grasscat.schema import decode_state

        for state, p in zip(states, probs):
            rec = decode_state(mf.schema, state)
            key = ",".join(map(str, rec.values))
            observed = counts.get(key, 0)
            sigma = (n * p * (1 - p)) ** 0.5
            assert abs(observed - n * p) <= 4.0 * sigma + 1.0


class TestFactorCommands:
    def test_fa_pipeline(self, workdir, capsys):
        assert (
            _run(
                workdir,
                "fa", "fit",
                "--schema", "schema.json",
                "--data", "data.csv",
                "--latent-dim", "2",
                "--restarts", "1",
                "--seed", "5",
                "--max-iter", "400",
                "--out", "fa.json",
            )
            == 0
        )
        capsys.readouterr()
        assert (
            _run(
                workdir,
                "fa", "biplot",
                "--model", "fa.json",
                "--data", "data.csv",
                "--out-svg", "b.svg",
                "--out-scores", "s.csv",
                "--out-loadings", "l.csv",
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["points"] >= 1
        svg = (workdir / "b.svg").read_text()
        assert svg.startswith("<svg") and "PC1 (" in svg
        scores = (workdir / "s.csv").read_text().splitlines()
        assert scores[0] == "row_id,pc1,pc2,multiplicity"
        loadings = (workdir / "l.csv").read_text().splitlines()
        assert loadings[0] == "variable,level_label,pc1,pc2"
        # 2 + 3 + 4 levels
        assert len(loadings) == 1 + 9

    def test_fa_biplot_refuses_a_continuous_block(self, workdir, capsys):
        rng = np.random.default_rng(0)
        model = FactorModel.canonical(
            b=rng.normal(size=6), G=rng.normal(size=(6, 1)), mu_x=np.zeros(2),
            psi_noise=np.ones(2), W_load=np.ones((2, 1)),
        )
        save_model(ModelFile("factor", reader_style_schema(), model, None), str(workdir / "fa.json"))
        code = _run(
            workdir,
            "fa", "biplot",
            "--model", "fa.json",
            "--data", "data.csv",
            "--out-svg", "b.svg",
            "--out-scores", "s.csv",
            "--out-loadings", "l.csv",
        )
        assert code == 1
        assert "p_x = 2" in capsys.readouterr().err
        assert not any((workdir / name).exists() for name in ("b.svg", "s.csv", "l.csv"))

    def test_fa_biplot_deterministic(self, workdir, capsys):
        _run(
            workdir,
            "fa", "fit",
            "--schema", "schema.json",
            "--data", "data.csv",
            "--latent-dim", "1",
            "--restarts", "1",
            "--seed", "5",
            "--max-iter", "300",
            "--out", "fa.json",
        )
        for suffix in ("1", "2"):
            _run(
                workdir,
                "fa", "biplot",
                "--model", "fa.json",
                "--data", "data.csv",
                "--out-svg", f"b{suffix}.svg",
                "--out-scores", f"s{suffix}.csv",
                "--out-loadings", f"l{suffix}.csv",
            )
        capsys.readouterr()
        assert (workdir / "b1.svg").read_bytes() == (workdir / "b2.svg").read_bytes()
        assert (workdir / "s1.csv").read_bytes() == (workdir / "s2.csv").read_bytes()
        assert (workdir / "l1.csv").read_bytes() == (workdir / "l2.csv").read_bytes()

    def test_fa_bic(self, workdir, capsys):
        assert (
            _run(
                workdir,
                "fa", "bic",
                "--schema", "schema.json",
                "--data", "data.csv",
                "--min-dim", "0",
                "--max-dim", "1",
                "--restarts", "1",
                "--seed", "2",
                "--max-iter", "300",
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["table"]["chosen"] in (0, 1)
        assert len(out["table"]["rows"]) == 2


class TestFactorCommandConfig:
    """``fa fit`` and ``fa bic`` hand --max-iter, --restarts and --seed to
    the factor fit's config."""

    @pytest.mark.parametrize("command", [
        ["fa", "fit", "--latent-dim", "1", "--out", "fa.json"],
        ["fa", "bic", "--min-dim", "1", "--max-dim", "1"],
    ])
    def test_options_reach_the_config(self, workdir, capsys, monkeypatch, command):
        import grasscat.cli
        import grasscat.factor

        configs = []
        real = grasscat.factor.fit_factor_model

        def record(schema, data, p_z, config=None, x_data=None):
            configs.append(config)
            return real(schema, data, p_z, config, x_data)

        monkeypatch.setattr(grasscat.factor, "fit_factor_model", record)
        monkeypatch.setattr(grasscat.cli, "fit_factor_model", record)
        argv = [*command, "--schema", "schema.json", "--data", "data.csv",
                "--max-iter", "7", "--restarts", "2", "--seed", "11"]
        assert _run(workdir, *argv) == 0
        capsys.readouterr()
        assert configs and all(
            (c.max_iter, c.restarts, c.seed) == (7, 2, 11) for c in configs
        )


class TestMixedEval:
    @pytest.fixture
    def mixed_model(self, tmp_path):
        lam = np.eye(2) + np.array([[1.0, 0.3], [0.2, 0.8]])
        mp = MixedParams(
            mu=np.array([0.0]),
            sigma=np.array([[1.0]]),
            lam=lam,
            G=np.array([[0.5], [-0.3]]),
        )
        path = tmp_path / "mixed.json"
        save_model(ModelFile(kind="mixed", schema=None, params=mp, fit_report=None), str(path))
        return path

    def test_joint(self, mixed_model, tmp_path, capsys):
        code = _run(tmp_path, "mixed", "eval", "--model", str(mixed_model), "--x", "0.5", "--y", "1,0")
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "joint" and out["density"] > 0

    def test_conditional(self, mixed_model, tmp_path, capsys):
        code = _run(
            tmp_path, "mixed", "eval", "--model", str(mixed_model), "--x", "?", "--y", "1,g:0"
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "conditional"
        code = _run(
            tmp_path, "mixed", "eval", "--model", str(mixed_model), "--x", "?", "--y", "0,g:0"
        )
        out2 = json.loads(capsys.readouterr().out)
        assert out["density"] + out2["density"] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("x", ["nan", "g:nan", "inf", "g:-inf", "1e400"])
    def test_non_finite_value_exits_one(self, mixed_model, tmp_path, capsys, x):
        code = _run(tmp_path, "mixed", "eval", "--model", str(mixed_model), "--x", x, "--y", "1,?")
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "not a finite number" in captured.err

    @pytest.mark.parametrize("x", ["g:5e3", "g:-5e3"])
    def test_tail_conditioning_values(self, mixed_model, tmp_path, capsys, x):
        # p(y_0 = 1 | x) over the four subsets R of {0, 1}: log-weight
        # log det((lam - I)[R, R]) + x * sum(G[R]), since mu = 0 and sigma = 1
        log_w = {(): 0.0, (0,): math.log(1.0), (1,): math.log(0.8), (0, 1): math.log(0.74)}
        log_w = {r: lw + float(x[2:]) * sum((0.5, -0.3)[i] for i in r) for r, lw in log_w.items()}
        top = max(log_w.values())
        total = sum(math.exp(lw - top) for lw in log_w.values())
        want = sum(math.exp(lw - top) for r, lw in log_w.items() if 0 in r) / total
        code = _run(tmp_path, "mixed", "eval", "--model", str(mixed_model), "--x", x, "--y", "1,?")
        assert code == 0
        assert json.loads(capsys.readouterr().out)["density"] == want
        assert want == (1.0 if x == "g:5e3" else 0.0)

    def test_overflowing_weights_exit_two(self, tmp_path, capsys):
        mp = MixedParams(
            mu=np.array([0.0]),
            sigma=np.array([[1.0]]),
            lam=np.eye(2) + np.array([[1.0, 0.3], [0.2, 0.8]]),
            G=np.array([[2.0], [-0.3]]),
        )
        path = tmp_path / "steep.json"
        save_model(ModelFile(kind="mixed", schema=None, params=mp, fit_report=None), str(path))
        code = _run(tmp_path, "mixed", "eval", "--model", str(path), "--x", "g:1e308", "--y", "1,?")
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "overflow" in captured.err

    def test_negative_first_value_without_equals(self, mixed_model, tmp_path, capsys):
        outputs = []
        for argv in (["--x", "-5e-1"], ["--x=-5e-1"]):
            code = _run(tmp_path, "mixed", "eval", "--model", str(mixed_model), *argv, "--y", "1,0")
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
        assert json.loads(outputs[0][1])["mode"] == "joint"
        code = _run(tmp_path, "mixed", "eval", "--model", str(mixed_model), "--x", "--y", "1,0")
        assert code == 64 and "expected one argument" in capsys.readouterr().err


class TestOracleCommand:
    def test_check_passes_on_fitted_model(self, workdir, capsys):
        _run(
            workdir,
            "fit",
            "--schema", "schema.json",
            "--data", "data.csv",
            "--latent-aux", "1",
            "--restarts", "1",
            "--seed", "3",
            "--max-iter", "300",
            "--out", "model.json",
        )
        capsys.readouterr()
        assert _run(workdir, "oracle", "check", "--model", "model.json") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"]

    # the program side of the check is the allowed-state table scattered to
    # its 2**q masks; these schemas are asymmetric under a reversed bit order
    SPECS = {
        "q4": [(CAT, 3), (ORD, 3)],
        "q8": [(CAT, 4), (ORD, 5), (CAT, 2)],
        "q12": [(CAT, 3), (ORD, 4), (CAT, 4), (ORD, 3), (CAT, 2), (CAT, 2)],
        "rare": [(CAT, 3), (ORD, 4), (CAT, 4)],
    }
    CASES = [("q4", 1), ("q4", 2), ("q8", 1), ("q8", 2), ("q12", 2), ("rare", 2)]

    @classmethod
    def _model(cls, name, a):
        """A certified model of the named schema; ``rare`` is an Ord(4) with
        b[1:] at -B_CAP and the V rows of those levels along its w, which
        keeps their states positive."""
        from grasscat.fit import B_CAP
        from grasscat.schema import VariableDecl, VariableSchema
        from grasscat.structure import StructuredParams

        spec = cls.SPECS[name]
        schema = VariableSchema([VariableDecl(f"v{i}", k, m) for i, (k, m) in enumerate(spec)])
        sp = random_certified_structured(np.random.default_rng(len(spec) * 10 + a), schema, a)
        if name == "rare":
            b = (sp.b[0], np.concatenate([sp.b[1][:1], np.full(2, -B_CAP)]), sp.b[2])
            V = sp.V.copy()
            V[3:5] = sp.w[1]  # the bits levels 2 and 3 of v1 end on
            sp = StructuredParams(b, sp.w, V, sp.omega)
        return schema, sp

    @pytest.mark.parametrize("name,a", CASES, ids=[f"{n}-a{a}" for n, a in CASES])
    def test_program_side_matches_lam_space(self, name, a):
        from grasscat.cli import _allowed_state_vector
        from grasscat.grassmann import all_state_probabilities

        schema, sp = self._model(name, a)
        got = _allowed_state_vector(schema, sp)
        want = all_state_probabilities(assemble_lambda(schema, sp))
        assert got.shape == want.shape == (2**schema.q,)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("name,a", CASES, ids=[f"{n}-a{a}" for n, a in CASES])
    def test_disallowed_states_are_positive_zero(self, name, a):
        from grasscat.cli import _allowed_state_vector
        from grasscat.errors import InvalidStateError
        from grasscat.schema import decode_state

        schema, sp = self._model(name, a)
        got = _allowed_state_vector(schema, sp)
        disallowed = []
        for mask in range(2**schema.q):
            try:
                decode_state(schema, DummyState(tuple((mask >> i) & 1 for i in range(schema.q))))
            except InvalidStateError:
                disallowed.append(mask)
        assert disallowed
        assert got[disallowed].tolist() == [0.0] * len(disallowed)
        assert not np.signbit(got[disallowed]).any()
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kernel,fields", [
        ("_allowed_state_probabilities", ["max_joint_error"]),
        ("_structured_moments", ["max_mean_error", "max_cov_error"]),
        ("_pattern_probabilities", ["max_marginal_error"]),
    ], ids=["table", "moments", "marginals"])
    def test_each_kernel_is_checked(self, tmp_path, capsys, monkeypatch, kernel, fields):
        """The program side is the a-space table, moments and one-bit
        patterns: a 1e-6 error planted in one kernel shows in its fields
        alone, and fails the check."""
        import grasscat.cli

        schema, sp = self._model("q8", 2)
        save_model(ModelFile("grassmann", schema, sp, None), str(tmp_path / "m.json"))
        real = getattr(grasscat.cli, kernel)

        def planted(*args):
            got = real(*args)
            return (got[0] + 1e-6, got[1] + 1e-6) if kernel == "_structured_moments" else got + 1e-6

        monkeypatch.setattr(grasscat.cli, kernel, planted)
        capsys.readouterr()
        assert _run(tmp_path, "oracle", "check", "--model", "m.json") == 2
        out = json.loads(capsys.readouterr().out)
        assert not out["ok"]
        for name in ("max_joint_error", "max_mean_error", "max_cov_error", "max_marginal_error"):
            if name in fields:
                assert 0.5e-6 <= out[name] <= 2e-6
            else:
                assert out[name] <= 1e-12

    def test_state_cap_bounds_the_allowed_count(self, tmp_path, capsys, monkeypatch):
        """query-q12's brute force scans 2**12 = 4096 states, more than its
        576 allowed states: the check runs at a cap of 4096 and exits 1 below
        it, on the scan's count."""
        schema, sp = self._model("q12", 2)
        save_model(ModelFile("grassmann", schema, sp, None), str(tmp_path / "m.json"))
        for cap in (12, 4095):
            monkeypatch.setenv("GRASSCAT_CAP", str(cap))
            assert _run(tmp_path, "oracle", "check", "--model", "m.json") == 1
            assert capsys.readouterr() == (
                "", f"error: a q=12 model has 4096 states, exceeding the cap {cap}\n"
            )
        monkeypatch.setenv("GRASSCAT_CAP", "4096")
        assert _run(tmp_path, "oracle", "check", "--model", "m.json") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and out["n_states"] == 4096
        assert out["max_joint_error"] <= 1e-12


class TestModelFileStrictness:
    def test_unknown_field_rejected(self):
        from grasscat.errors import SchemaError

        doc = {
            "format_version": 1,
            "kind": "mixed",
            "schema": None,
            "params": {
                "mu": [0.0],
                "sigma": [[1.0]],
                "lambda": [[2.0]],
                "G": [[0.0]],
            },
            "fit_report": None,
            "extra": 1,
        }
        with pytest.raises(SchemaError, match="unknown"):
            model_from_document(doc)

    def test_wrong_version_rejected(self):
        from grasscat.errors import SchemaError

        doc = {
            "format_version": 2,
            "kind": "mixed",
            "schema": None,
            "params": {},
            "fit_report": None,
        }
        with pytest.raises(SchemaError, match="format_version"):
            model_from_document(doc)

    @staticmethod
    def _document(kind: str) -> dict:
        schema = reader_style_schema()
        if kind == "grassmann":
            params = reader_style_true_params()
        elif kind == "factor":
            rng = np.random.default_rng(0)
            params = FactorModel.canonical(b=rng.normal(size=6), G=rng.normal(size=(6, 2)))
        else:
            schema = None
            params = MixedParams(
                mu=np.zeros(2), sigma=np.eye(2), lam=2.0 * np.eye(3), G=np.ones((3, 2))
            )
        return json.loads(dump_model(ModelFile(kind, schema, params, None)))

    @pytest.mark.parametrize(
        "kind, field, edit",
        [
            ("grassmann", "params.omega", lambda p: p.update(omega=["x", "x"])),
            ("grassmann", "params.C", lambda p: p.update(C=[[1.0] * 8] * 7)),
            ("grassmann", "params.V", lambda p: p.update(V=np.asarray(p["V"]).T.tolist())),
            ("grassmann", "params.V", lambda p: p.update(V=np.ravel(p["V"]).tolist())),
            ("grassmann", "params.b[Age]", lambda p: p["b"].update(Age=[0.1, "y"])),
            ("factor", "params.G", lambda p: p.update(G=np.asarray(p["G"]).T.tolist())),
            ("factor", "params.sigma_z", lambda p: p.update(sigma_z=[[1.0, 0.0], "ab"])),
            ("factor", "params.W_load", lambda p: p.update(W_load=[[0.0, 0.0]])),
            ("mixed", "params.sigma", lambda p: p.update(sigma=[[1.0, 0.0], [0.0]])),
            ("mixed", "params.lambda", lambda p: p.update(**{"lambda": [[2.0, 0.0, 0.0]] * 2})),
            ("mixed", "params.G", lambda p: p.update(G=np.asarray(p["G"]).T.tolist())),
            ("mixed", "params.mu", lambda p: p.update(mu={"a": 1})),
        ],
    )
    def test_malformed_matrix_rejected(self, kind, field, edit):
        from grasscat.errors import SchemaError

        doc = self._document(kind)
        edit(doc["params"])
        with pytest.raises(SchemaError, match=rf"^{re.escape(field)}: "):
            model_from_document(doc)

    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            ("grassmann", lambda p: p.update(V=p["V"][:-1]), "params.V: expected 6 rows, got 5"),
            ("grassmann", lambda p: p.update(V=[r[:1] for r in p["V"]]),
             "params.V: expected 2 columns, got 1"),
            ("grassmann", lambda p: p.update(V=np.ravel(p["V"]).tolist()),
             "params.V: expected a matrix"),
            ("grassmann", lambda p: p["b"].update(Age=[0.1, 0.2, 0.3]),
             "params.b[Age]: expected length 2, got 3"),
            ("mixed", lambda p: p.update(mu=[[0.0, 0.0]]), "params.mu: expected a vector"),
        ],
    )
    def test_each_shape_check_names_its_fault(self, kind, edit, message):
        from grasscat.errors import SchemaError

        doc = self._document(kind)
        edit(doc["params"])
        with pytest.raises(SchemaError, match=rf"^{re.escape(message)}$"):
            model_from_document(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: [d], "model document must be an object"),
            (lambda d: {k: v for k, v in d.items() if k != "fit_report"},
             "model: missing fields ['fit_report']"),
            (lambda d: {**d, "kind": "ising"},
             "unknown model kind 'ising'; expected one of ('grassmann', 'factor', 'mixed')"),
            (lambda d: {**d, "schema": None}, "kind 'grassmann' requires a schema"),
            (lambda d: {**d, "fit_report": [1.0]}, "fit_report must be an object or null"),
            (lambda d: {**d, "params": {**d["params"], "b": {"Age": [0.0, 0.0]}}},
             "params.b: keys must match schema variables ['Working', 'Age', 'Edu']"),
            (lambda d: {**d, "params": {**d["params"], "w": [0.0]}},
             "params.w: keys must match schema variables ['Working', 'Age', 'Edu']"),
        ],
        ids=["not-object", "missing-field", "unknown-kind", "no-schema", "report-not-object",
             "b-keys", "w-not-dict"],
    )
    def test_each_envelope_check_names_its_fault(self, tmp_path, edit, message):
        from grasscat.errors import SchemaError

        path = tmp_path / "model.json"
        path.write_text(json.dumps(edit(self._document("grassmann"))))
        with pytest.raises(SchemaError, match=rf"^{re.escape(message)}$"):
            load_model(str(path))

    def test_factor_kind_requires_a_schema(self, tmp_path):
        from grasscat.errors import SchemaError

        path = tmp_path / "model.json"
        path.write_text(json.dumps({**self._document("factor"), "schema": None}))
        with pytest.raises(SchemaError, match=r"^kind 'factor' requires a schema$"):
            load_model(str(path))

    def test_legacy_slack_is_checked_then_dropped(self):
        from grasscat.errors import SchemaError

        doc = self._document("grassmann")
        want = dump_model(model_from_document(doc))
        doc["params"]["C"] = np.eye(8).tolist()  # the fit's slack, as older files store it
        mf = model_from_document(doc)
        assert dump_model(mf) == want
        np.testing.assert_array_equal(
            assemble_lambda(mf.schema, mf.params).lam,
            assemble_lambda(mf.schema, reader_style_true_params()).lam,
        )
        doc["params"]["D"] = [[1.0]]
        with pytest.raises(SchemaError, match=r"^params: unknown fields \['D'\]"):
            model_from_document(doc)

    def test_mixed_model_without_binaries_round_trips(self, tmp_path):
        mp = MixedParams(mu=np.zeros(2), sigma=np.eye(2), lam=np.zeros((0, 0)), G=np.zeros((0, 2)))
        path = tmp_path / "mixed0.json"
        save_model(ModelFile("mixed", None, mp, None), str(path))
        loaded = load_model(str(path)).params
        assert loaded.q == 0 and loaded.G.shape == (0, 2)
        assert dump_model(ModelFile("mixed", None, loaded, None)) == path.read_text()

    def test_non_numeric_entry_exits_one_without_traceback(self, tmp_path, capsys):
        doc = self._document("grassmann")
        doc["params"]["omega"] = ["x", "x"]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert _run(tmp_path, "moments", "--model", "bad.json") == 1
        err = capsys.readouterr().err
        assert "params.omega" in err and "Traceback" not in err


class TestFitSweep:
    def test_latent_aux_auto(self, workdir, capsys):
        code = _run(
            workdir,
            "fit",
            "--schema", "schema.json",
            "--data", "data.csv",
            "--latent-aux", "auto",
            "--restarts", "1",
            "--seed", "3",
            "--max-iter", "200",
            "--out", "model.json",
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert "sweep" in out and len(out["sweep"]) >= 1
        assert out["a"] == out["sweep"][-2]["a"] if len(out["sweep"]) > 1 else True


    def test_sweep_counts_rows_once(self, workdir, capsys, monkeypatch):
        import grasscat.cli
        import grasscat.fit

        calls = []
        real = grasscat.fit.state_counts

        def counting(schema, rows):
            calls.append(1)
            return real(schema, rows)

        monkeypatch.setattr(grasscat.cli, "state_counts", counting)
        monkeypatch.setattr(grasscat.fit, "state_counts", counting)
        code = _run(
            workdir,
            "fit",
            "--schema", "schema.json",
            "--data", "data.csv",
            "--latent-aux", "auto",
            "--restarts", "1",
            "--seed", "3",
            "--max-iter", "200",
            "--out", "model.json",
        )
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["sweep"]) >= 2
        assert len(calls) == 1


class TestFaBicOut:
    """``fa bic --out`` is the one route that selects the latent dimension by
    BIC and saves the chosen model; ``fa fit`` fits the one ``--latent-dim``."""

    OPTIONS = ("--schema", "schema.json", "--data", "data.csv",
               "--restarts", "1", "--seed", "5", "--max-iter", "200")

    def test_fa_fit_without_latent_dim_is_a_usage_error(self, workdir, capsys):
        assert _run(workdir, "fa", "fit", *self.OPTIONS, "--out", "fa.json") == 64
        assert "--latent-dim" in capsys.readouterr().err
        assert not (workdir / "fa.json").exists()

    def test_out_saves_the_fit_of_the_chosen_dimension(self, workdir, capsys):
        argv = ("fa", "bic", *self.OPTIONS, "--min-dim", "1", "--max-dim", "2")
        assert _run(workdir, *argv, "--out", "bic.json") == 0
        chosen = json.loads(capsys.readouterr().out)["table"]["chosen"]
        assert _run(workdir, "fa", "fit", *self.OPTIONS, "--latent-dim", str(chosen),
                    "--out", "fa.json") == 0
        capsys.readouterr()
        saved, fitted = (load_model(str(workdir / name)) for name in ("bic.json", "fa.json"))
        assert saved.params.p_z == chosen
        assert saved.fit_report == fitted.fit_report
        assert (workdir / "bic.json").read_bytes() == (workdir / "fa.json").read_bytes()


class TestSampleBytesPinned:
    """SHA-256 of the `sample` CSVs of two fixed models over three draws,
    recorded when the level cells were formatted one cell at a time."""

    DIGESTS = {
        "grassmann": "03ed480fdc999133780118651bcc9b729ceb3134dce7d206e2f30ccd35576124",
        "factor": "dc2dc0cd04a0f705a9d049892f5efd287467b4737d824a388c3516309a406092",
    }

    @staticmethod
    def _model(kind):
        if kind == "grassmann":
            return ModelFile(kind="grassmann", schema=reader_style_schema(),
                             params=reader_style_true_params(), fit_report=None)
        from grasscat.schema import VariableDecl, VariableKind, VariableSchema

        cat, ord_ = VariableKind.CATEGORICAL, VariableKind.ORDINAL
        schema = VariableSchema([
            VariableDecl(name, kind, levels) for name, kind, levels in
            (("A", cat, 3), ("B", ord_, 4), ("C", cat, 4), ("D", ord_, 3), ("E", cat, 2))
        ])
        rng = np.random.default_rng(17)
        model = FactorModel.canonical(b=rng.normal(0, 0.8, schema.q),
                                      G=rng.normal(0, 0.6, (schema.q, 2)))
        return ModelFile(kind="factor", schema=schema, params=model, fit_report=None)

    @pytest.mark.parametrize("kind", ["grassmann", "factor"])
    def test_sample_bytes(self, kind, tmp_path, capsys):
        save_model(self._model(kind), str(tmp_path / "m.json"))
        digest = hashlib.sha256()
        for n, seed in ((3000, 1), (57, 2), (0, 3)):
            assert _run(tmp_path, "sample", "--model", "m.json", "--n", str(n),
                        "--seed", str(seed), "--out", "s.csv") == 0
            digest.update((tmp_path / "s.csv").read_bytes())
        capsys.readouterr()
        assert digest.hexdigest() == self.DIGESTS[kind]


class TestSampleFactorContinuous:
    def test_continuous_block_columns(self, tmp_path, capsys):
        from grasscat.factor import FactorModel
        from grasscat.schema import VariableDecl, VariableKind, VariableSchema

        schema = VariableSchema(
            [VariableDecl("A", VariableKind.CATEGORICAL, 3)]
        )
        model = FactorModel.canonical(
            b=np.array([0.2, -0.1]),
            G=np.array([[0.5], [-0.4]]),
            mu_x=np.array([1.0, -2.0]),
            psi_noise=np.array([0.5, 1.5]),
            W_load=np.array([[0.3], [0.7]]),
        )
        (tmp_path / "schema.json").write_text(
            '{"variables": [{"name": "A", "kind": "categorical", "levels": 3}]}'
        )
        save_model(
            ModelFile(kind="factor", schema=schema, params=model, fit_report=None),
            str(tmp_path / "fa.json"),
        )
        for name in ("x1.csv", "x2.csv"):
            assert (
                _run(
                    tmp_path,
                    "sample",
                    "--model", "fa.json",
                    "--n", "50",
                    "--seed", "4",
                    "--out", name,
                )
                == 0
            )
        capsys.readouterr()
        out = (tmp_path / "x1.csv").read_text().splitlines()
        assert out[0] == "A,x1,x2"
        assert len(out) == 51
        assert (tmp_path / "x1.csv").read_bytes() == (tmp_path / "x2.csv").read_bytes()
        assert _run(tmp_path, "sample", "--model", "fa.json", "--n", "0",
                    "--seed", "4", "--out", "x0.csv") == 0
        capsys.readouterr()
        assert (tmp_path / "x0.csv").read_text() == "A,x1,x2\n"


    def test_rows_follow_the_draw_order(self, tmp_path, capsys):
        # the state draws come first, then one standard-normal vector per row
        # in row order, around mu_x + W sigma_z G^T y with a general sigma_z
        from grasscat.factor import FactorModel, mixture_weights
        from grasscat.schema import decode_state

        schema = reader_style_schema()
        rng = np.random.default_rng(31)
        A = rng.normal(0, 1, (2, 2))
        model = FactorModel(
            mu_x=rng.normal(0, 1, 3),
            psi_noise=rng.uniform(0.5, 1.5, 3),
            W_load=rng.normal(0, 0.7, (3, 2)),
            b=rng.normal(0, 0.8, schema.q),
            G=rng.normal(0, 0.6, (schema.q, 2)),
            mu_z=np.zeros(2),
            sigma_z=A @ A.T + 0.3 * np.eye(2),
        )
        save_model(
            ModelFile(kind="factor", schema=schema, params=model, fit_report=None),
            str(tmp_path / "fa.json"),
        )
        n = 300
        assert _run(tmp_path, "sample", "--model", "fa.json", "--n", str(n),
                    "--seed", "6", "--out", "s.csv") == 0
        capsys.readouterr()
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "Working,Age,Edu,x1,x2,x3"
        states = [s.bits for s in enumerate_allowed_states(schema)]
        weights = mixture_weights(schema, model.b, model.G, model.sigma_z)
        probs = np.asarray([weights[bits] for bits in states])
        draw_rng = np.random.default_rng(6)
        cum = np.cumsum(probs / probs.sum())
        draws = np.searchsorted(cum, draw_rng.random(n), side="right")
        draws = np.minimum(draws, len(states) - 1)
        chol = np.linalg.cholesky(
            np.diag(model.psi_noise) + model.W_load @ model.sigma_z @ model.W_load.T
        )
        for line, k in zip(lines[1:], draws):
            cells = line.split(",")
            y = np.asarray(states[k], dtype=float)
            x = model.mu_x + model.W_load @ model.sigma_z @ model.G.T @ y
            x = x + chol @ draw_rng.standard_normal(3)
            levels = decode_state(schema, DummyState(states[k])).values
            assert [int(c) for c in cells[:3]] == list(levels)
            got = [float(c) for c in cells[3:]]
            np.testing.assert_allclose(got, x, rtol=1e-12, atol=1e-12)


class TestMomentsFactor:
    def test_moments_on_factor_model(self, workdir, capsys):
        _run(
            workdir,
            "fa", "fit",
            "--schema", "schema.json",
            "--data", "data.csv",
            "--latent-dim", "1",
            "--restarts", "1",
            "--seed", "5",
            "--max-iter", "200",
            "--out", "fa.json",
        )
        capsys.readouterr()
        assert _run(workdir, "moments", "--model", "fa.json") == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["mean"]) == 6
        assert all(abs(r - 1.0) < 1e-12 for r in (row[i] for i, row in enumerate(out["corr"])))


class TestNumericalExitCode:
    def test_oracle_check_fails_on_invalid_model(self, tmp_path, capsys):
        # large couplings produce negative allowed-state probabilities; the
        # brute-force check must catch that and exit 2
        import numpy as np

        from grasscat.modelfile import ModelFile, save_model
        from grasscat.structure import StructuredParams

        schema = reader_style_schema()
        rng = np.random.default_rng(0)
        sp = None
        for _ in range(200):
            cand = StructuredParams(
                b=tuple(rng.normal(0, 1.0, v.block_size) for v in schema.variables),
                w=tuple(rng.normal(0, 1.2, 2) for _ in schema.variables),
                V=rng.normal(0, 1.2, (schema.q, 2)),
                omega=rng.uniform(0.2, 0.8, 2),
            )
            from grasscat.grassmann import check_p0
            from grasscat.structure import assemble_lambda

            if not check_p0(assemble_lambda(schema, cand)).passed:
                sp = cand
                break
        assert sp is not None
        (tmp_path / "schema.json").write_text(
            '{"variables": [{"name": "Working", "kind": "categorical", "levels": 2},'
            '{"name": "Age", "kind": "categorical", "levels": 3},'
            '{"name": "Edu", "kind": "ordinal", "levels": 4}]}'
        )
        save_model(
            ModelFile(kind="grassmann", schema=schema, params=sp, fit_report=None),
            str(tmp_path / "bad.json"),
        )
        assert _run(tmp_path, "oracle", "check", "--model", "bad.json") == 2
        out = json.loads(capsys.readouterr().out)
        assert not out["ok"]


@pytest.fixture
def model_files(tmp_path):
    """A grassmann and a factor model file on the reader schema (24 allowed
    states, q = 6) and a mixed model file with q = 4."""
    schema = reader_style_schema()
    factor = FactorModel.canonical(
        b=np.linspace(-0.5, 0.5, schema.q), G=np.linspace(-0.4, 0.4, 2 * schema.q).reshape(-1, 2)
    )
    mixed = MixedParams(mu=np.zeros(1), sigma=np.eye(1), lam=2.0 * np.eye(4), G=np.zeros((4, 1)))
    for kind, sch, params in (
        ("grassmann", schema, reader_style_true_params()),
        ("factor", schema, factor),
        ("mixed", None, mixed),
    ):
        save_model(ModelFile(kind, sch, params, None), str(tmp_path / f"{kind}.json"))
    (tmp_path / "schema.json").write_text(json.dumps(schema_to_dict(schema)))
    rows = ["Working,Age,Edu", "0,1,2", "1,0,3", "0,2,0", "1,1,1"]
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n")
    return tmp_path


class TestMalformedFiles:
    """A file that cannot be decoded or parsed exits 1 with one error line."""

    DEEP = b"[" * 100_000
    HUGE_FIELD = b"x" * 200_000  # beyond the csv module's field limit

    @pytest.mark.parametrize(
        "name, content, argv",
        [
            ("schema.json", b'{"variables": [\xff]}', ["validate", "--schema", "bad"]),
            ("schema.json", DEEP, ["validate", "--schema", "bad"]),
            ("model.json", b'{"kind": "\xff"}', ["moments", "--model", "bad"]),
            ("model.json", DEEP, ["moments", "--model", "bad"]),
            ("data.csv", b"Working,Age,Edu\n0,1,\xff\n",
             ["validate", "--schema", "schema.json", "--data", "bad"]),
            ("data.csv", b"Working,Age,Edu\n0,1,2\n" + HUGE_FIELD + b"\n",
             ["validate", "--schema", "schema.json", "--data", "bad"]),
        ],
        ids=["schema-not-utf8", "schema-too-deep", "model-not-utf8", "model-too-deep",
             "data-not-utf8", "data-huge-field"],
    )
    def test_exits_one_without_traceback(self, model_files, capsys, name, content, argv):
        (model_files / f"bad.{name}").write_bytes(content)
        argv = [f"bad.{name}" if a == "bad" else a for a in argv]
        assert _run(model_files, *argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1 and f"bad.{name}" in err

    def test_csv_error_names_its_line(self, model_files, capsys):
        (model_files / "bad.csv").write_bytes(b"Working,Age,Edu\n0,1,2\n" + self.HUGE_FIELD)
        assert _run(model_files, "validate", "--schema", "schema.json", "--data", "bad.csv") == 1
        assert capsys.readouterr().err.startswith("error: bad.csv:3: field larger than field limit")


class TestRefusals:
    """Input that a command refuses: its exit code and its one stderr line."""

    @pytest.fixture
    def files(self, model_files):
        mixed = MixedParams(mu=np.zeros(3), sigma=np.eye(3), lam=2.0 * np.eye(2),
                            G=np.zeros((2, 3)))
        save_model(ModelFile("mixed", None, mixed, None), str(model_files / "mixed3.json"))
        return model_files

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["prob", "--model", "grassmann.json", "--query", "Age"],
             "cannot parse clause 'Age': expected Var=l or Var>=l"),
            (["prob", "--model", "grassmann.json", "--query", "Age=x"],
             "clause 'Age=x': level must be an integer"),
            (["prob", "--model", "grassmann.json", "--query", "Age=1", "--given", "Age=1"],
             "query and given overlap on dummy indices [1, 2]"),
            (["prob", "--model", "factor.json", "--query", "Age=1"],
             "model factor.json has kind 'factor'; expected 'grassmann'"),
            (["moments", "--model", "mixed.json"],
             "moments supports grassmann and factor models"),
            (["sample", "--model", "mixed.json", "--n", "5", "--out", "s.csv"],
             "sampling supports grassmann and factor models"),
            (["fa", "bic", "--schema", "schema.json", "--data", "data.csv",
              "--min-dim", "3", "--max-dim", "1"],
             "--min-dim must not exceed --max-dim"),
            (["mixed", "eval", "--model", "mixed3.json", "--x", "1", "--y", "0,0"],
             "--x must have 3 comma-separated tokens"),
            (["mixed", "eval", "--model", "mixed3.json", "--x", "a,b,c", "--y", "0,0"],
             "bad x token 'a'"),
            (["mixed", "eval", "--model", "mixed3.json", "--x", "0,0,0", "--y", "2,0"],
             "y values must be bits (0 or 1)"),
        ],
        ids=["clause-without-operator", "level-not-integer", "query-given-overlap",
             "prob-on-factor", "moments-on-mixed", "sample-on-mixed", "bic-dims-reversed",
             "x-token-count", "x-token-not-number", "y-token-not-bit"],
    )
    def test_exits_one_with_one_line(self, files, capsys, argv, message):
        assert _run(files, *argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (files / "s.csv").exists()

    def test_tol_that_is_not_a_number_is_a_usage_error(self, files, capsys):
        argv = ["fit", "--schema", "schema.json", "--data", "data.csv", "--out", "m.json",
                "--tol", "abc"]
        assert _run(files, *argv) == 64
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("grasscat fit: ")
        assert err.splitlines()[0] == "grasscat fit: argument --tol: expected a number, got 'abc'"
        assert not (files / "m.json").exists()


class TestSampleRefusesNegativeProbabilities:
    def test_any_negative_value_exits_two(self, model_files, capsys, monkeypatch):
        import grasscat.cli

        real = grasscat.cli._allowed_state_probabilities

        def one_negative(schema, sp):
            probs = real(schema, sp)
            probs[3] = -5e-10
            return probs

        monkeypatch.setattr(grasscat.cli, "_allowed_state_probabilities", one_negative)
        argv = ["sample", "--model", "grassmann.json", "--n", "10", "--out", "s.csv"]
        assert _run(model_files, *argv) == 2
        err = capsys.readouterr().err
        assert err == "numerical error: model assigns negative probability -5.000e-10\n"
        assert not (model_files / "s.csv").exists()


class TestOverflowingModelsExitTwo:
    """Finite models whose a-space terms or prior weights overflow:
    Cat(2)+Cat(2) with a = 1, omega = 1/2 and V = [[1e308], [0.5]] at
    b = (0, 0), w = (10, 1) (A) and at b = (-2, 0), w = (1, 1) (B), and a
    factor model with b = 0 and G = [[1e200], [1e200]] (F).  Each command
    exits 2 with one line and writes no file."""

    @staticmethod
    def _save(tmp_path):
        from grasscat.schema import VariableDecl, VariableKind, VariableSchema
        from grasscat.structure import StructuredParams

        schema = VariableSchema([VariableDecl(f"v{j}", VariableKind.CATEGORICAL, 2)
                                 for j in range(2)])
        V, omega = np.array([[1e308], [0.5]]), np.full(1, 0.5)
        models = {
            "A": StructuredParams((np.zeros(1), np.zeros(1)), (np.array([10.0]), np.ones(1)),
                                  V, omega),
            "B": StructuredParams((np.array([-2.0]), np.zeros(1)), (np.ones(1), np.ones(1)),
                                  V, omega),
            "F": FactorModel.canonical(b=np.zeros(2), G=np.full((2, 1), 1e200)),
        }
        for name, params in models.items():
            kind = "factor" if name == "F" else "grassmann"
            save_model(ModelFile(kind, schema, params, None), str(tmp_path / f"{name}.json"))

    @pytest.mark.parametrize("model,argv", [
        ("A", ["sample", "--n", "5", "--out", "s.csv"]),
        ("A", ["prob", "--query", "v0=1"]),
        ("B", ["prob", "--query", "v0=1"]),
        ("F", ["sample", "--n", "5", "--out", "s.csv"]),
        ("F", ["moments"]),
        ("A", ["moments"]),
        ("A", ["oracle", "check"]),
        ("B", ["oracle", "check"]),
    ], ids=["A-sample", "A-prob", "B-prob", "F-sample", "F-moments", "A-moments", "A-oracle",
            "B-oracle"])
    def test_exits_two_with_one_line(self, tmp_path, capsys, model, argv):
        self._save(tmp_path)
        words = 2 if argv[0] == "oracle" else 1  # the subcommand, then its options
        code = _run(tmp_path, *argv[:words], "--model", f"{model}.json", *argv[words:])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("numerical error: ") and err.count("\n") == 1
        assert "overflows" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("argv,message", [(["moments"], "a moment overflows"),
                                              (["oracle", "check"], "lam overflows")],
                             ids=["moments", "oracle"])
    def test_lam_commands_name_lam_on_a(self, tmp_path, capsys, argv, message):
        """A's lam overflows (10 * 0.5 * 1e308), and so does its Abar, which
        ``moments`` inverts; ``oracle check`` builds lam first.  B's lam is
        finite."""
        self._save(tmp_path)
        assert _run(tmp_path, *argv, "--model", "A.json") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"numerical error: {message}")

    def test_b_moments_print_no_infinite_correlation(self, tmp_path, capsys):
        """B's var(bit 0) rounds to 0.0 beside cov(0, 1) = -1.25e-309, so
        their correlation is NaN, as a 0/0 one is, never -inf."""
        self._save(tmp_path)
        assert _run(tmp_path, "moments", "--model", "B.json") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cov"][0][0] == 0.0 and out["cov"][0][1] != 0.0
        corr = np.asarray(out["corr"])
        assert np.isnan(corr[0, 1]) and np.isnan(corr[1, 0])
        assert np.all(np.isnan(corr) | (np.abs(corr) <= 1.0))


class TestRangeModel:
    """A certified q = 12, a = 2 model with w_v scaled by 1e101 and each V
    row of v's bits set to (1 + k / 10) w_v, k the row's place in its block,
    as tools/byte_review.py writes range.model.json: every A_s is positive
    definite, but lam's entries reach about 1e200."""

    @staticmethod
    def _save(tmp_path):
        from grasscat.structure import StructuredParams

        schema, sp = TestOracleCommand._model("q12", 2)
        w = tuple(1e101 * v for v in sp.w)
        V = np.concatenate([[(1.0 + k / 10.0) * w[j] for k in range(v.block_size)]
                            for j, v in enumerate(schema.variables)])
        sp = StructuredParams(sp.b, w, V, sp.omega)
        save_model(ModelFile("grassmann", schema, sp, None), str(tmp_path / "range.json"))
        return schema, sp

    def test_moments_match_the_allowed_state_table(self, tmp_path, capsys):
        from grasscat.grassmann import weighted_moments
        from grasscat.schema import allowed_table
        from grasscat.structure import _allowed_state_probabilities

        schema, sp = self._save(tmp_path)
        bits = allowed_table(schema)[0].astype(float)
        mean, cov, _ = weighted_moments(bits, _allowed_state_probabilities(schema, sp))
        assert _run(tmp_path, "moments", "--model", "range.json") == 0
        out = json.loads(capsys.readouterr().out)
        assert np.abs(np.asarray(out["mean"]) - mean).max() <= 1e-13
        assert np.abs(np.asarray(out["cov"]) - cov).max() <= 1e-13

    def test_oracle_check_calls_lam_singular(self, tmp_path, capsys):
        """The brute force needs lam, whose inverse fails at this scale."""
        self._save(tmp_path)
        assert _run(tmp_path, "oracle", "check", "--model", "range.json") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("numerical error: lam is singular")


class TestSampleRareLevels:
    def test_draws_follow_the_lam_space_probabilities(self, tmp_path, rng, capsys):
        """An Ord(4) with b[1:] at -B_CAP, the value the fit gives an
        unobserved level, on a model lam certifies (the rare levels' V rows
        lie along w_o4, so their states keep a positive probability):
        ``sample`` draws the rows that inverting the cumulative lam-space
        probabilities gives."""
        from grasscat.fit import B_CAP
        from grasscat.grassmann import check_p0, state_probabilities
        from grasscat.schema import VariableDecl, VariableKind, VariableSchema, allowed_table
        from grasscat.structure import StructuredParams

        from generators import random_certified_structured

        schema = VariableSchema([VariableDecl("c3", VariableKind.CATEGORICAL, 3),
                                 VariableDecl("o4", VariableKind.ORDINAL, 4),
                                 VariableDecl("c4", VariableKind.CATEGORICAL, 4)])
        sp = random_certified_structured(rng, schema, 2)
        b = (sp.b[0], np.concatenate([sp.b[1][:1], np.full(2, -B_CAP)]), sp.b[2])
        V = sp.V.copy()
        V[3:5] = sp.w[1]  # the bits levels 2 and 3 of o4 end on
        sp = StructuredParams(b, sp.w, V, sp.omega)
        lam = assemble_lambda(schema, sp)
        assert check_p0(lam).passed
        save_model(ModelFile("grassmann", schema, sp, None), str(tmp_path / "m.json"))
        argv = ["sample", "--model", "m.json", "--n", "3000", "--seed", "5", "--out", "s.csv"]
        assert _run(tmp_path, *argv) == 0
        capsys.readouterr()
        bits, levels = allowed_table(schema)
        probs = state_probabilities(lam, bits)
        uniforms = np.random.default_rng(5).random(3000)
        draws = np.searchsorted(np.cumsum(probs / probs.sum()), uniforms, side="right")
        want = [",".join(map(str, row)) for row in levels[np.minimum(draws, len(probs) - 1)]]
        assert (tmp_path / "s.csv").read_text().splitlines() == ["c3,o4,c4", *want]
        assert (levels[draws, 1] >= 2).any()  # some draws reach the rare levels


class TestModelParsedOnce:
    @pytest.mark.parametrize("kind", ["grassmann", "factor"])
    @pytest.mark.parametrize("command", ["moments", "sample"])
    def test_one_load_per_command(self, model_files, capsys, monkeypatch, command, kind):
        import grasscat.cli

        loads = []
        real = grasscat.cli.load_model

        def counting(path):
            loads.append(path)
            return real(path)

        monkeypatch.setattr(grasscat.cli, "load_model", counting)
        argv = [command, "--model", f"{kind}.json"]
        if command == "sample":
            argv += ["--n", "20", "--out", "s.csv"]
        assert _run(model_files, *argv) == 0
        assert loads == [f"{kind}.json"]


class TestCapAtCli:
    """A valid GRASSCAT_CAP smaller than the input stops each enumerating
    command with exit 1 and the cap message."""

    STATE_MSG = "error: schema has 24 allowed states, exceeding the cap 3\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sample", "--model", "grassmann.json", "--n", "5", "--out", "s.csv"], STATE_MSG),
            (["sample", "--model", "factor.json", "--n", "5", "--out", "s.csv"], STATE_MSG),
            (["moments", "--model", "factor.json"], STATE_MSG),
            (["fit", "--schema", "schema.json", "--data", "data.csv", "--out", "m.json"], STATE_MSG),
            (
                ["fa", "fit", "--schema", "schema.json", "--data", "data.csv",
                 "--latent-dim", "1", "--restarts", "1", "--out", "fa.json"],
                STATE_MSG,
            ),
            (
                ["oracle", "check", "--model", "grassmann.json"],
                "error: a q=6 model has 64 states, exceeding the cap 3\n",
            ),
            (
                ["mixed", "eval", "--model", "mixed.json", "--x", "0.5", "--y", "1,0,1,0"],
                "error: a q=4 model has 16 states, exceeding the cap 3\n",
            ),
        ],
        ids=[
            "sample-grassmann", "sample-factor", "moments-factor", "fit", "fa-fit",
            "oracle-check", "mixed-eval",
        ],
    )
    def test_cap_too_small_exits_one(self, model_files, capsys, monkeypatch, argv, message):
        import scipy.optimize

        def no_optimizing(*args, **kwargs):
            raise AssertionError("the cap must stop the command before it optimizes")

        monkeypatch.setattr(scipy.optimize, "minimize", no_optimizing)
        monkeypatch.setenv("GRASSCAT_CAP", "3")
        assert _run(model_files, *argv) == 1
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""
        for out in ("s.csv", "fa.json", "m.json", "m.json.corr.csv"):
            assert not (model_files / out).exists()


class TestNumericOptionRange:
    _COMMANDS = {
        "fit": ["fit", "--schema", "schema.json", "--data", "data.csv", "--out", "m.json"],
        "fa fit": ["fa", "fit", "--schema", "schema.json", "--data", "data.csv",
                   "--latent-dim", "1", "--out", "f.json"],
        "fa bic": ["fa", "bic", "--schema", "schema.json", "--data", "data.csv"],
        "sample": ["sample", "--model", "m.json", "--n", "5", "--out", "s.csv"],
    }

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("fit", "--restarts", "0"),
            ("fit", "--max-iter", "0"),
            ("fit", "--tol", "0"),
            ("fit", "--latent-aux", "-1"),
            ("fit", "--latent-aux", "x"),
            ("fit", "--seed", "-1"),
            ("fa fit", "--restarts", "0"),
            ("fa fit", "--max-iter", "0"),
            ("fa fit", "--latent-dim", "-1"),
            ("fa fit", "--seed", "-1"),
            ("fa bic", "--restarts", "0"),
            ("fa bic", "--max-iter", "0"),
            ("fa bic", "--min-dim", "-1"),
            ("fa bic", "--max-dim", "-1"),
            ("fa bic", "--seed", "-1"),
            ("sample", "--n", "-5"),
            ("sample", "--seed", "-1"),
        ],
    )
    def test_out_of_range_value_exits_64(self, workdir, capsys, command, option, value):
        # the last occurrence of an option wins, so appending overrides
        assert _run(workdir, *self._COMMANDS[command], option, value) == 64
        err = capsys.readouterr().err
        assert f"argument {option}:" in err
        assert "Traceback" not in err


class TestReadmeWalkthrough:
    README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

    def test_every_command_parses(self):
        """Each ``grasscat`` line of the README's CLI walkthrough, with its
        backslash continuations joined, is accepted by the parser."""
        import shlex

        from grasscat.cli import build_parser

        text = self.README.read_text(encoding="utf-8")
        block = text.split("## CLI walkthrough", 1)[1].split("```")[1]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("grasscat ")]
        assert commands
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)


class TestReadmeLibraryExample:
    README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

    def test_library_block_runs(self, tmp_path, monkeypatch, capsys):
        """The README's python block runs as written on a 300-row reader-style
        ``data.csv`` in the working directory."""
        schema = reader_style_schema()
        params = assemble_lambda(schema, reader_style_true_params())
        states = enumerate_allowed_states(schema)
        probs = [joint_probability(params, s.bits) for s in states]
        rows = sample_rows_from_probs(np.random.default_rng(1111), schema, states, probs, 300)
        lines = [",".join(schema.names)] + [",".join(map(str, r.values)) for r in rows]
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        text = self.README.read_text(encoding="utf-8")
        block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        namespace: dict = {}
        exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["c"].q == 1 and namespace["m"].q == 3
        assert "passed=True" in capsys.readouterr().out


class TestConsoleScript:
    ROOT = pathlib.Path(__file__).resolve().parents[1]
    SRC = str(pathlib.Path(grasscat.__file__).resolve().parents[1])  # the tree under test

    def test_main_exit_codes(self, tmp_path):
        script = (
            "import sys\n"
            "from grasscat.cli import main\n"
            "for argv in (['--version'], ['validate', '--schema', 'missing.json'], ['fit']):\n"
            "    sys.argv = ['grasscat', *argv]\n"
            "    try:\n"
            "        main()\n"
            "    except SystemExit as exc:\n"
            "        print('exit', exc.code)\n"
        )
        env = {**os.environ, "PYTHONPATH": self.SRC}
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=60,
        )
        codes = [line for line in proc.stdout.splitlines() if line.startswith("exit ")]
        assert codes == ["exit 0", "exit 1", "exit 64"], proc.stderr

    def test_read_command_does_not_import_scipy(self, model_files):
        """Only the fits run L-BFGS-B, so only they import scipy.optimize."""
        script = (
            "import sys\n"
            "from grasscat.cli import run_command\n"
            "code = run_command(['prob', '--model', 'grassmann.json', '--query', 'Age=1'])\n"
            "print('exit', code, 'scipy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": self.SRC}
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=model_files, env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.stdout.splitlines()[-1] == "exit 0 False", proc.stderr

    def test_module_runs_main(self, tmp_path):
        """``python -m grasscat.cli`` runs the CLI rather than only importing it."""
        env = {**os.environ, "PYTHONPATH": self.SRC}
        proc = subprocess.run(
            [sys.executable, "-m", "grasscat.cli", "--version"], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "grasscat 0.1.0\n"), proc.stderr

    def test_script_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        with open(self.ROOT / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["scripts"] == {"grasscat": "grasscat.cli:main"}


class TestFitSweepStopRule:
    def test_sweep_stops_below_1e_3_relative_gain(self, workdir, capsys, monkeypatch):
        # gains: 1e-2 at a = 1, 5.05e-3 at a = 2, 4.06e-4 at a = 3
        import dataclasses

        import grasscat.cli

        nlls = {0: 1000.0, 1: 990.0, 2: 985.0, 3: 984.6}
        real = grasscat.cli.fit_grassmann

        def scripted(schema, counts, config):
            return dataclasses.replace(real(schema, counts, config), nll=nlls[config.a])

        monkeypatch.setattr(grasscat.cli, "fit_grassmann", scripted)
        code = _run(
            workdir,
            "fit",
            "--schema", "schema.json",
            "--data", "data.csv",
            "--latent-aux", "auto",
            "--restarts", "1",
            "--max-iter", "5",
            "--out", "model.json",
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sweep"] == [{"a": a, "nll": nll} for a, nll in nlls.items()]
        assert out["a"] == 2
        assert load_model(str(workdir / "model.json")).params.a == 2


def test_sample_of_a_model_without_variables(tmp_path, capsys):
    """One allowed state with no level cells: n empty rows under an empty header."""
    from grasscat.schema import VariableSchema
    from grasscat.structure import StructuredParams

    sp = StructuredParams((), (), np.zeros((0, 1)), np.full(1, 0.5))
    save_model(ModelFile("grassmann", VariableSchema([]), sp, None), str(tmp_path / "m.json"))
    assert _run(tmp_path, "sample", "--model", "m.json", "--n", "3", "--out", "s.csv") == 0
    assert (tmp_path / "s.csv").read_bytes() == b"\n\n\n\n"
