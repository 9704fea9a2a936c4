"""Acceptance suite: one test per release criterion.

Each criterion records a single PASS/FAIL line, printed in the terminal
summary at the end of the run, and enforces its runtime budget:

    pytest tests/test_acceptance.py -v
"""

import itertools
import json
import math
import os
import sys
import time

import numpy as np
import pytest

import grasscat as gc
from grasscat.cli import run_command
from grasscat.factor import (
    FactorModel,
    bic_parameter_count,
    combined_loadings,
    fix_rotation,
    mixture_weights,
    observed_density,
    posterior,
)
from grasscat.fit import (
    FitConfig,
    fit_grassmann,
    negative_log_likelihood,
    nll_gradient,
    state_counts,
)
from grasscat.grassmann import (
    all_state_probabilities,
    conditional_params,
    conditional_zero_moments,
    joint_probability,
    marginal_params,
    moments,
)
from grasscat.mixed import (
    MixedParams,
    MixedPartition,
    conditional_binary_given_continuous,
    mixed_conditional_density,
    mixed_joint_density,
    mixed_marginal_density,
)
from grasscat.oracle import brute_force_table, oracle_conditional, oracle_marginal
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
    categorical_pmf,
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
from normal_reference import gaussian_logpdf
from test_mixed import gauss_hermite_integral, random_mixed


def _report(criterion: int, name: str, passed: bool, elapsed: float, budget: float):
    import conftest

    status = "PASS" if passed else "FAIL"
    line = f"[acceptance {criterion:02d}] {status} {elapsed:6.2f}s/{budget:.0f}s  {name}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)  # also visible live under pytest -s


class Criterion:
    def __init__(self, number: int, name: str, budget: float):
        self.number = number
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.budget
        _report(self.number, self.name, ok, elapsed, self.budget)
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_01_structural_zeros():
    schema = reader_style_schema()
    rng = np.random.default_rng(101)
    allowed = {s.bits for s in enumerate_allowed_states(schema)}
    disallowed = [
        bits
        for bits in itertools.product((0, 1), repeat=schema.q)
        if bits not in allowed
    ]
    assert len(allowed) == 24 and len(disallowed) == 40
    with Criterion(1, "structural zeros on Cat(2)+Cat(3)+Ord(4)", 5.0):
        for _ in range(100):
            sp = random_certified_structured(rng, schema, a=2)
            params = assemble_lambda(schema, sp)
            for bits in disallowed:
                assert abs(joint_probability(params, bits)) <= 1e-12
            total = sum(joint_probability(params, bits) for bits in allowed)
            assert abs(total - 1.0) <= 1e-10


def test_02_positivity_certificate():
    rng = np.random.default_rng(202)
    pool = [
        VariableSchema(
            [VariableDecl("a", CAT, 3), VariableDecl("b", ORD, 4), VariableDecl("c", CAT, 2)]
        ),  # q = 6
        VariableSchema(
            [VariableDecl("a", ORD, 5), VariableDecl("b", CAT, 4), VariableDecl("c", CAT, 2)]
        ),  # q = 8
        VariableSchema(
            [
                VariableDecl("a", CAT, 3),
                VariableDecl("b", ORD, 3),
                VariableDecl("c", CAT, 2),
                VariableDecl("d", ORD, 4),
            ]
        ),  # q = 8
        VariableSchema(
            [
                VariableDecl("a", CAT, 4),
                VariableDecl("b", ORD, 4),
                VariableDecl("c", CAT, 3),
                VariableDecl("d", CAT, 2),
                VariableDecl("e", ORD, 3),
            ]
        ),  # q = 12
    ]
    with Criterion(2, "positivity under the certificate, q <= 12", 30.0):
        per_schema = 500 // len(pool)
        for schema in pool:
            for _ in range(per_schema):
                sp = random_certified_structured(rng, schema, a=2)
                params = assemble_lambda(schema, sp)
                probs = all_state_probabilities(params)
                assert probs.min() >= -1e-12


def test_03_closed_form_equivalence():
    rng = np.random.default_rng(303)
    with Criterion(3, "single-variable determinant = Cat/Ord pmf", 5.0):
        for trial in range(1000):
            kind = CAT if trial % 2 == 0 else ORD
            levels = int(rng.integers(2, 7))
            schema = VariableSchema([VariableDecl("x", kind, levels)])
            b = rng.normal(0.0, 1.5, levels - 1)
            sp = StructuredParams.independent(schema, [b])
            params = assemble_lambda(schema, sp)
            pmf = categorical_pmf if kind is CAT else ordinal_pmf
            for level in range(levels):
                y = encode_record(schema, Record((level,))).bits
                assert abs(joint_probability(params, y) - pmf(b, y)) <= 1e-12


def test_04_moment_formulas():
    rng = np.random.default_rng(404)
    with Criterion(4, "moment formulas vs enumeration, q in 2..8", 10.0):
        for trial in range(200):
            q = int(rng.integers(2, 9))
            params = random_valid_params(rng, q)
            table = brute_force_table(params)
            mean, cov = moments(params)
            assert np.abs(mean - table.mean).max() <= 1e-10
            assert np.abs(cov - table.cov).max() <= 1e-10
            # conditional moments with everything else observed as zero
            r, s = rng.choice(q, size=2, replace=False)
            others_r = tuple(i for i in range(q) if i != r)
            cond_r = oracle_conditional(table, (int(r),), others_r, [0] * (q - 1))
            if cond_r.defined:
                got_mean, _ = conditional_zero_moments(params, int(r), int(s))
                assert abs(got_mean - cond_r.probs.get((1,), 0.0)) <= 1e-10
            rest = tuple(i for i in range(q) if i not in (r, s))
            cond = oracle_conditional(table, (int(r), int(s)), rest, [0] * len(rest))
            if cond.defined:
                m_r = sum(p for (yr, _), p in cond.probs.items() if yr)
                m_s = sum(p for (_, ys), p in cond.probs.items() if ys)
                want_cov = cond.probs.get((1, 1), 0.0) - m_r * m_s
                _, got_cov = conditional_zero_moments(params, int(r), int(s))
                assert abs(got_cov - want_cov) <= 1e-10


def test_05_marginal_conditional_consistency():
    rng = np.random.default_rng(505)
    with Criterion(5, "marginals/conditionals vs oracle, all patterns", 30.0):
        for trial in range(50):
            q = int(rng.integers(2, 7))
            params = random_valid_params(rng, q)
            table = brute_force_table(params)
            idx = list(range(q))
            # every marginal
            for t_size in range(1, q + 1):
                for T in itertools.combinations(idx, t_size):
                    m = marginal_params(params, T)
                    for pattern, want in oracle_marginal(table, T).items():
                        assert abs(joint_probability(m, pattern) - want) <= 1e-9
            # every conditioning pattern
            for t_size in range(1, q):
                for T in itertools.combinations(idx, t_size):
                    S = tuple(i for i in idx if i not in T)
                    for T1_size in range(t_size + 1):
                        for T1 in itertools.combinations(T, T1_size):
                            y_T = [1 if t in T1 else 0 for t in T]
                            want = oracle_conditional(table, S, T, y_T)
                            if not want.defined:
                                continue
                            c = conditional_params(params, T, y_T)
                            for pattern, target in want.probs.items():
                                got = joint_probability(c, pattern)
                                assert abs(got - target) <= 1e-9


def test_06_gradient_correctness():
    rng = np.random.default_rng(606)
    h = 1e-5
    with Criterion(6, "analytic NLL gradient vs central differences", 20.0):
        for trial in range(50):
            schema = random_schema(rng, 6)
            a = int(rng.integers(0, 3))
            sp = random_structured(rng, schema, a, b_scale=0.8, w_scale=0.3)
            params = assemble_lambda(schema, sp)
            states = enumerate_allowed_states(schema)
            probs = [joint_probability(params, s.bits) for s in states]
            rows = sample_rows_from_probs(rng, schema, states, probs, 80)
            counts = state_counts(schema, rows)
            grad = nll_gradient(schema, sp, counts)

            def nll_of(sp2):
                return negative_log_likelihood(schema, sp2, counts)

            def check(fd, an):
                assert abs(fd - an) / max(1.0, abs(fd)) <= 1e-5

            for j, bv in enumerate(sp.b):
                for i in range(len(bv)):
                    b1 = [v.copy() for v in sp.b]
                    b2 = [v.copy() for v in sp.b]
                    b1[j][i] += h
                    b2[j][i] -= h
                    fd = (
                        nll_of(StructuredParams(tuple(b1), sp.w, sp.V, sp.omega))
                        - nll_of(StructuredParams(tuple(b2), sp.w, sp.V, sp.omega))
                    ) / (2 * h)
                    check(fd, grad.b[j][i])
            for j in range(len(sp.w)):
                for i in range(a):
                    w1 = [v.copy() for v in sp.w]
                    w2 = [v.copy() for v in sp.w]
                    w1[j][i] += h
                    w2[j][i] -= h
                    fd = (
                        nll_of(StructuredParams(sp.b, tuple(w1), sp.V, sp.omega))
                        - nll_of(StructuredParams(sp.b, tuple(w2), sp.V, sp.omega))
                    ) / (2 * h)
                    check(fd, grad.w[j][i])
            for r in range(schema.q):
                for i in range(a):
                    V1, V2 = sp.V.copy(), sp.V.copy()
                    V1[r, i] += h
                    V2[r, i] -= h
                    fd = (
                        nll_of(StructuredParams(sp.b, sp.w, V1, sp.omega))
                        - nll_of(StructuredParams(sp.b, sp.w, V2, sp.omega))
                    ) / (2 * h)
                    check(fd, grad.V[r, i])
            for k in range(a):
                o1, o2 = sp.omega.copy(), sp.omega.copy()
                o1[k] += h
                o2[k] -= h
                fd = (
                    nll_of(StructuredParams(sp.b, sp.w, sp.V, o1))
                    - nll_of(StructuredParams(sp.b, sp.w, sp.V, o2))
                ) / (2 * h)
                check(fd, grad.omega[k])
            if a == 0:
                assert grad.V.size == 0 and grad.omega.size == 0


def test_07_mean_reproduction():
    schema = reader_style_schema()
    truth = assemble_lambda(schema, reader_style_true_params())
    states = enumerate_allowed_states(schema)
    probs = [joint_probability(truth, s.bits) for s in states]
    rng = np.random.default_rng(707)
    rows = sample_rows_from_probs(rng, schema, states, probs, 941)
    with Criterion(7, "fit reproduces means (1e-4) and correlations (0.05)", 60.0):
        report = fit_grassmann(
            schema,
            rows,
            FitConfig(a=2, restarts=3, seed=7, max_iter=2000, grad_tol=1e-9),
        )
        mean_err = float(np.abs(report.mean_model - report.mean_empirical).max())
        corr_err = float(np.nanmax(np.abs(report.corr_model - report.corr_empirical)))
        assert mean_err <= 1e-4, f"mean error {mean_err:.2e}"
        assert corr_err <= 0.05, f"correlation error {corr_err:.3f}"


def test_07b_reader_csv_smoke():
    """Optional smoke test against the real survey CSV, if the user provides
    one via GRASSCAT_READER_CSV (columns Working, Age, Edu as integer levels).
    """
    path = os.environ.get("GRASSCAT_READER_CSV")
    if not path:
        pytest.skip("set GRASSCAT_READER_CSV to run the real-data smoke test")
    from reference_values import READER_LAMBDA_MINUS_I

    schema = reader_style_schema()
    rows = gc.load_data_rows(schema, path)
    report = fit_grassmann(
        schema, rows, FitConfig(a=2, restarts=5, seed=0, max_iter=3000, grad_tol=1e-9)
    )
    lam_mi = np.asarray(assemble_lambda(schema, report.params).lam) - np.eye(6)
    assert np.abs(lam_mi - READER_LAMBDA_MINUS_I).max() <= 0.15
    ref_signs = np.sign(READER_LAMBDA_MINUS_I)
    got_signs = np.sign(np.where(np.abs(lam_mi) < 5e-3, 0.0, lam_mi))
    mask = np.abs(READER_LAMBDA_MINUS_I) >= 5e-3
    assert (got_signs[mask] == ref_signs[mask]).all()


def test_08_factor_bayes_consistency():
    rng = np.random.default_rng(808)

    def conditional_density(schema, model, y, z, x):
        beta = model.b + model.G @ (z - model.mu_z)
        dens = 1.0
        for j, v in enumerate(schema.variables):
            s, e = schema.blocks[j]
            block = np.asarray(y[s:e])
            pmf = categorical_pmf if v.kind is CAT else ordinal_pmf
            dens *= pmf(beta[s:e], block)
        if model.p_x:
            mean = model.mu_x + model.W_load @ (z - model.mu_z)
            dens *= math.exp(gaussian_logpdf(x, mean, np.diag(model.psi_noise)))
        return dens

    def prior_density(schema, model, z):
        weights = mixture_weights(schema, model.b, model.G, model.sigma_z)
        total = 0.0
        for bits, w in weights.items():
            mean = model.mu_z + model.sigma_z @ model.G.T @ np.asarray(bits, float)
            total += w * math.exp(gaussian_logpdf(z, mean, model.sigma_z))
        return total

    with Criterion(8, "factor model Bayes consistency", 20.0):
        for trial in range(100):
            schema = random_schema(rng, 6)
            p_z = int(rng.integers(1, 3))
            p_x = int(rng.integers(0, 3))
            kwargs = {}
            if p_x:
                kwargs = dict(
                    mu_x=rng.normal(0, 1, p_x),
                    psi_noise=rng.uniform(0.5, 1.5, p_x),
                    W_load=rng.normal(0, 0.6, (p_x, p_z)),
                )
            model = FactorModel.canonical(
                b=rng.normal(0, 0.7, schema.q),
                G=rng.normal(0, 0.6, (schema.q, p_z)),
                **kwargs,
            )
            weights = mixture_weights(schema, model.b, model.G, model.sigma_z)
            assert abs(sum(weights.values()) - 1.0) <= 1e-12
            states = enumerate_allowed_states(schema)
            y = states[int(rng.integers(len(states)))].bits
            x = rng.normal(0, 1, p_x) if p_x else None
            pxy = observed_density(schema, model, y, x)
            m, cov = posterior(model, y, x)
            for _ in range(3):
                z = rng.normal(0, 1.2, p_z)
                lhs = conditional_density(schema, model, y, z, x) * prior_density(
                    schema, model, z
                )
                rhs = math.exp(gaussian_logpdf(z, m, cov)) * pxy
                assert abs(lhs / rhs - 1.0) <= 1e-8


def test_09_biplot_identities():
    rng = np.random.default_rng(909)
    with Criterion(9, "combined loadings, rotation fixing, BIC count", 5.0):
        for trial in range(50):
            schema = random_schema(rng, 8)
            p_z = int(rng.integers(1, 4))
            G = rng.normal(0, 1.0, (schema.q, p_z))
            cl = combined_loadings(schema, G)
            for j, v in enumerate(schema.variables):
                vecs = cl.vectors[j]
                if v.kind is CAT:
                    assert np.abs(vecs[0] + vecs[1:].sum(axis=0)).max() <= 1e-10
                else:
                    assert np.abs(vecs[0] + vecs[-1]).max() <= 1e-10
            model = FactorModel.canonical(b=rng.normal(0, 0.5, schema.q), G=G)
            rotated, ratios = fix_rotation(model)
            gram = rotated.G.T @ rotated.G
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() <= 1e-8 * max(1.0, np.abs(gram).max())
            eigs = np.sort(np.linalg.eigvalsh(G.T @ G))[::-1]
            assert np.abs(ratios - eigs / eigs.sum()).max() <= 1e-10
            states = enumerate_allowed_states(schema)
            for s in (states[0], states[-1]):
                d1 = observed_density(schema, model, s.bits)
                d2 = observed_density(schema, rotated, s.bits)
                assert abs(d1 - d2) <= 1e-10
        assert bic_parameter_count(6, 2) == 17
        assert bic_parameter_count(6, 0) == 6
        assert bic_parameter_count(5, 3) == 5 + 15 - 3


def test_10_appendix_bridge():
    rng = np.random.default_rng(1010)
    with Criterion(10, "mixed distribution normalization / chain rule / Bayes", 60.0):
        # normalization by quadrature over x and enumeration over y
        for p, q in ((1, 2), (1, 4), (2, 2), (2, 4)):
            mp = random_mixed(rng, p, q)
            total = 0.0
            for bits in itertools.product((0, 1), repeat=q):
                total += gauss_hermite_integral(
                    lambda x: mixed_joint_density(mp, x, bits), mp.mu, mp.sigma,
                    n_nodes=30,
                )
            assert abs(total - 1.0) <= 1e-6
        # chain rule with a missing continuous and binary coordinate
        for trial in range(25):
            mp = random_mixed(rng, 2, 3)
            x = rng.normal(0, 1, 2)
            part = MixedPartition(J=(0,), L=(), K=(1,), S=(0,), U=(1,), T=(2,))
            for y_s in (0, 1):
                for y_t in (0, 1):
                    cond = mixed_conditional_density(
                        mp, part, x[[0]], (y_s,), x[[1]], (y_t,)
                    )
                    marg = mixed_marginal_density(
                        mp,
                        MixedPartition(J=(), L=(0,), K=(1,), S=(), U=(0, 1), T=(2,)),
                        x[[1]],
                        (y_t,),
                    )
                    joint = mixed_marginal_density(
                        mp,
                        MixedPartition(J=(), L=(), K=(0, 1), S=(), U=(1,), T=(0, 2)),
                        x,
                        (y_s, y_t),
                    )
                    assert abs(cond * marg / joint - 1.0) <= 1e-8
        # the binary-block conditional equals the Bayes ratio
        for trial in range(25):
            mp = random_mixed(rng, 2, 3)
            x = rng.normal(0, 1, 2)
            gp = conditional_binary_given_continuous(mp, x, T=(2,), y_T=(1,))
            part = MixedPartition(J=(), L=(), K=(0, 1), S=(0, 1), U=(), T=(2,))
            for bits in itertools.product((0, 1), repeat=2):
                want = mixed_conditional_density(
                    mp, part, np.zeros(0), bits, x, (1,)
                )
                got = joint_probability(gp, bits)
                assert abs(got - want) <= 1e-8 * max(1.0, want)


def test_11_cli_determinism(tmp_path):
    schema_doc = {
        "variables": [
            {"name": "Working", "kind": "categorical", "levels": 2},
            {"name": "Age", "kind": "categorical", "levels": 3},
            {"name": "Edu", "kind": "ordinal", "levels": 4},
        ]
    }
    (tmp_path / "schema.json").write_text(json.dumps(schema_doc))
    schema = reader_style_schema()
    truth = assemble_lambda(schema, reader_style_true_params())
    states = enumerate_allowed_states(schema)
    probs = [joint_probability(truth, s.bits) for s in states]
    rng = np.random.default_rng(1111)
    rows = sample_rows_from_probs(rng, schema, states, probs, 300)
    lines = ["Working,Age,Edu"] + [",".join(map(str, r.values)) for r in rows]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    lam = np.eye(2) + np.array([[1.0, 0.3], [0.2, 0.8]])
    mp = MixedParams(
        mu=np.array([0.0]), sigma=np.array([[1.0]]), lam=lam, G=np.array([[0.5], [-0.3]])
    )
    from grasscat.modelfile import ModelFile, save_model

    save_model(ModelFile(kind="mixed", schema=None, params=mp, fit_report=None),
               str(tmp_path / "mixed.json"))

    def run_all(tag: str) -> dict[str, bytes]:
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            cmds = [
                ["validate", "--schema", "schema.json", "--data", "data.csv"],
                ["fit", "--schema", "schema.json", "--data", "data.csv",
                 "--latent-aux", "1", "--restarts", "1", "--seed", "3",
                 "--max-iter", "300", "--out", f"model_{tag}.json",
                 "--out-corr", f"corr_{tag}.csv"],
                ["moments", "--model", f"model_{tag}.json"],
                ["prob", "--model", f"model_{tag}.json", "--query", "Edu>=2",
                 "--given", "Age=1"],
                ["sample", "--model", f"model_{tag}.json", "--n", "400",
                 "--seed", "9", "--out", f"samples_{tag}.csv"],
                ["fa", "fit", "--schema", "schema.json", "--data", "data.csv",
                 "--latent-dim", "2", "--restarts", "1", "--seed", "5",
                 "--max-iter", "300", "--out", f"fa_{tag}.json"],
                ["fa", "biplot", "--model", f"fa_{tag}.json", "--data", "data.csv",
                 "--out-svg", f"bi_{tag}.svg", "--out-scores", f"sc_{tag}.csv",
                 "--out-loadings", f"ld_{tag}.csv"],
                ["fa", "bic", "--schema", "schema.json", "--data", "data.csv",
                 "--min-dim", "0", "--max-dim", "1", "--restarts", "1",
                 "--seed", "5", "--max-iter", "300"],
                ["mixed", "eval", "--model", "mixed.json", "--x", "0.4",
                 "--y", "1,g:0"],
                ["oracle", "check", "--model", f"model_{tag}.json"],
            ]
            for cmd in cmds:
                assert run_command(cmd) == 0, f"command failed: {cmd}"
        finally:
            os.chdir(cwd)
        out = {}
        for p in sorted(tmp_path.glob(f"*_{tag}.*")):
            out[p.name.replace(f"_{tag}", "")] = p.read_bytes()
        return out

    with Criterion(11, "CLI outputs byte-identical across reruns", 120.0):
        first = run_all("a")
        second = run_all("b")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
