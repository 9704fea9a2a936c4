import json
import math
import re

import numpy as np
import pytest

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
        got = conditional_pattern_probability(params, query, given)
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
        assert 0.0 <= out["probability"] <= 1.0


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
            ("grassmann", "params.C", lambda p: p["C"][3].pop()),
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


class TestFaFitBicRange:
    def test_bic_range_selects_and_fits(self, workdir, capsys):
        code = _run(
            workdir,
            "fa", "fit",
            "--schema", "schema.json",
            "--data", "data.csv",
            "--bic-range", "0:1",
            "--restarts", "1",
            "--seed", "5",
            "--max-iter", "200",
            "--out", "fa.json",
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["latent_dim"] in (0, 1)
        assert "bic_table" in out

    def test_both_dim_flags_rejected(self, workdir, capsys):
        code = _run(
            workdir,
            "fa", "fit",
            "--schema", "schema.json",
            "--data", "data.csv",
            "--latent-dim", "1",
            "--bic-range", "0:1",
            "--out", "fa.json",
        )
        assert code == 1


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
                C=np.eye(schema.q + 2),
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
                "error: q=6 exceeds the 2**q enumeration cap 3\n",
            ),
            (
                ["mixed", "eval", "--model", "mixed.json", "--x", "0.5", "--y", "1,0,1,0"],
                "error: q=4 exceeds the 2**q enumeration cap 3\n",
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
