"""The general matrix formulas against test-local copies of the special cases
they replaced.

A marginal is sig[T, T] and a conditional a Schur complement, and both stay
true when an index set or a block is empty: numpy's 0 x 0 inv, slogdet,
solve, cholesky, eigh and fill_diagonal, and max(initial=0.0), return the
values the hand-written branches returned.  Each reference below is the
branch as it stood, and each comparison asks for equal shapes, dtypes,
values and signs of zero, so the tests check numpy's empty algebra on every
numpy version they run on.  The fit's state plan and the pattern parser are
compared with copies of the per-variable loops that the block maps and one
encoding rule replaced.  The allowed-state table runs at q = 0 and a = 0
with no branch of its own, and is checked there against its closed forms.
"""

import itertools

import numpy as np
import pytest

from grasscat.cli import parse_pattern
from grasscat.errors import DataError, ParameterError
from grasscat.factor import (
    FactorFitConfig,
    FactorModel,
    _loading_coefficients,
    _quadratic_log_weight,
    fit_factor_model,
    fix_rotation,
    posterior,
)
from grasscat.fit import (
    _Packer,
    _sigmoid,
    _state_plan,
    state_counts,
)
from grasscat.grassmann import (
    GrassmannParams,
    _log_minors,
    _solve_pivot,
    conditional_params,
    state_probabilities,
)
from grasscat.mixed import MixedParams, conditional_binary_given_continuous
from grasscat.oracle import brute_force_table, oracle_conditional
from grasscat.schema import VariableDecl, VariableKind, VariableSchema, allowed_table
from grasscat.structure import OMEGA_EPS, StructuredParams, _allowed_state_probabilities

from generators import CAT, ORD, random_schema, random_valid_params, reader_style_schema
from test_mixed import random_mixed


def assert_same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


# -- grassmann: q = 0, T = {} and T1 = {} ------------------------------------------


def _ref_grassmann_check(lam, sig):
    """GrassmannParams.__post_init__'s checks with their size guards."""
    if lam.size and not (np.isfinite(lam).all() and np.isfinite(sig).all()):
        raise ParameterError("parameters contain non-finite entries")
    q = lam.shape[0]
    if q:
        err = np.abs(lam @ sig - np.eye(q)).max()
        if err > 1e-10:
            raise ParameterError(f"lam @ sig deviates from identity by {err:.3e} (tol 1e-10)")
    return "ok"


def _general_grassmann_check(lam, sig):
    GrassmannParams(lam=lam, sig=sig)
    return "ok"


@pytest.mark.parametrize(
    "lam, sig",
    [
        (np.zeros((0, 0)), np.zeros((0, 0))),
        (np.array([[2.0]]), np.array([[0.5]])),
        (np.array([[2.0]]), np.array([[0.4]])),
        (np.array([[np.inf]]), np.array([[0.0]])),
        (np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([[0.5, 0.0], [0.0, np.nan]])),
    ],
)
def test_grassmann_checks_match_guarded_checks(lam, sig):
    assert outcome(_general_grassmann_check, lam, sig) == outcome(_ref_grassmann_check, lam, sig)


def test_empty_parameter_inverts_to_empty():
    empty = np.zeros((0, 0))
    assert_same(GrassmannParams.from_lambda(empty).sig, np.zeros_like(empty))
    assert_same(GrassmannParams.from_sigma(empty).lam, np.zeros_like(empty))


def _ref_state_probabilities(p, states):
    sign_l, logdet_l = np.linalg.slogdet(p.lam) if p.q else (1.0, 0.0)
    sign, logdet = _log_minors(p.lam - np.eye(p.q), states)
    prob = sign * sign_l * np.exp(logdet - logdet_l)
    prob[sign == 0] = 0.0
    prob[(-1e-12 <= prob) & (prob < 0.0)] = 0.0
    return prob


@pytest.mark.parametrize("q", [0, 1, 3, 5])
def test_state_probabilities_match_guarded_determinant(rng, q):
    p = GrassmannParams.from_lambda(np.zeros((0, 0))) if q == 0 else random_valid_params(rng, q)
    for n in (1, 3):
        states = rng.integers(0, 2, (n, q))
        assert_same(state_probabilities(p, states), _ref_state_probabilities(p, states))


def _ref_conditional_params(p, T, y_T):
    """conditional_params with its T = {} fork."""
    S = np.setdiff1d(np.arange(p.q), T)
    T1 = np.asarray([t for t, bit in zip(T, y_T) if bit], dtype=int)
    T = np.asarray(T, dtype=int)
    tilde = p.sig.copy()
    if T1.size:
        tilde[:, T1] *= -1.0
        tilde[T1, T1] += 1.0
    if T.size:
        tt = tilde[np.ix_(T, T)]
        solve_ts = _solve_pivot(tt, tilde[np.ix_(T, S)], "the conditioning block")
        schur = tilde[np.ix_(S, S)] - tilde[np.ix_(S, T)] @ solve_ts
    else:
        schur = tilde[np.ix_(S, S)]
    return GrassmannParams.from_sigma(schur)


@pytest.mark.parametrize("q", [1, 2, 4, 6])
def test_conditional_params_with_empty_sets_match_the_fork(rng, q):
    for _ in range(5):
        p = random_valid_params(rng, q)
        T = tuple(np.flatnonzero(rng.random(q) < 0.4).tolist())
        S = tuple(i for i in range(q) if i not in T)
        if not S:
            continue
        for given in ((), T):
            got = conditional_params(p, given, (0,) * len(given))
            want = _ref_conditional_params(p, given, (0,) * len(given))
            assert_same(got.sig, want.sig)
            assert_same(got.lam, want.lam)


# -- mixed: p = 0, q = 0 and t1 = {} ------------------------------------------------


def _ref_mixed_check(mu, sigma, lam, G):
    """MixedParams.__post_init__'s array checks with their size guards."""
    for name, arr in (("mu", mu), ("sigma", sigma), ("lam", lam), ("G", G)):
        if arr.size and not np.isfinite(arr).all():
            raise ParameterError(f"{name} contains non-finite entries")
    if mu.shape[0]:
        if np.abs(sigma - sigma.T).max() > 1e-10:
            raise ParameterError("sigma must be symmetric")
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise ParameterError("sigma must be positive definite") from exc
    return "ok"


def _general_mixed_check(mu, sigma, lam, G):
    MixedParams(mu=mu, sigma=sigma, lam=lam, G=G)
    return "ok"


@pytest.mark.parametrize(
    "mu, sigma, lam, G",
    [
        (np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))),
        (np.zeros(0), np.zeros((0, 0)), 2.0 * np.eye(2), np.zeros((2, 0))),
        (np.zeros(2), np.eye(2), np.zeros((0, 0)), np.zeros((0, 2))),
        (np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(1), np.zeros((1, 2))),
        (np.zeros(1), -np.eye(1), np.eye(1), np.zeros((1, 1))),
        (np.zeros(0), np.zeros((0, 0)), np.array([[np.nan]]), np.zeros((1, 0))),
    ],
)
def test_mixed_checks_match_guarded_checks(mu, sigma, lam, G):
    args = (mu, sigma, lam, G)
    assert outcome(_general_mixed_check, *args) == outcome(_ref_mixed_check, *args)


def _ref_binary_given_continuous(mp, x, T, y_T):
    """conditional_binary_given_continuous with its t1 = {} guard."""
    T = tuple(sorted(int(t) for t in T))
    S = [i for i in range(mp.q) if i not in set(T)]
    t1 = [t for t, bit in zip(T, y_T) if bit]
    lam_mi = mp.lam - np.eye(mp.q)
    core = lam_mi[np.ix_(S, S)]
    if t1:
        pivot = mp.lam[np.ix_(t1, t1)] - np.eye(len(t1))
        core = core - mp.lam[np.ix_(S, t1)] @ _solve_pivot(
            pivot, mp.lam[np.ix_(t1, S)], "lam[T1,T1] - I"
        )
    tilt = np.exp(mp.G[S, :] @ (x - mp.mu))
    return GrassmannParams.from_lambda(np.eye(len(S)) + core * tilt[None, :])


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("q", [1, 3, 4])
def test_binary_given_continuous_without_t1_matches_the_guard(rng, p, q):
    for _ in range(4):
        mp = random_mixed(rng, p, q)
        x = rng.normal(0.0, 1.0, p)
        T = tuple(np.flatnonzero(rng.random(q) < 0.5).tolist())
        if len(T) == q:
            T = T[1:]
        y_T = (0,) * len(T)
        got = conditional_binary_given_continuous(mp, x, T, y_T)
        want = _ref_binary_given_continuous(mp, x, T, y_T)
        assert_same(got.lam, want.lam)
        assert_same(got.sig, want.sig)


# -- factor: p_z = 0 and p_x = 0 ------------------------------------------------------


def _ref_factor_check(psi_noise, sigma_z):
    """FactorModel.__post_init__'s value checks with their size guards."""
    if psi_noise.shape[0] and np.any(psi_noise <= 0):
        raise ParameterError("psi_noise entries must be positive")
    if sigma_z.shape[0]:
        if np.abs(sigma_z - sigma_z.T).max() > 1e-10:
            raise ParameterError("sigma_z must be symmetric")
        try:
            np.linalg.cholesky(sigma_z)
        except np.linalg.LinAlgError as exc:
            raise ParameterError("sigma_z must be positive definite") from exc
    return "ok"


def _general_factor_check(psi_noise, sigma_z):
    p_x, p_z = psi_noise.shape[0], sigma_z.shape[0]
    FactorModel(
        mu_x=np.zeros(p_x), psi_noise=psi_noise, W_load=np.zeros((p_x, p_z)),
        b=np.zeros(3), G=np.zeros((3, p_z)), mu_z=np.zeros(p_z), sigma_z=sigma_z,
    )
    return "ok"


@pytest.mark.parametrize(
    "psi_noise, sigma_z",
    [
        (np.zeros(0), np.zeros((0, 0))),
        (np.ones(2), np.zeros((0, 0))),
        (np.array([1.0, 0.0]), np.zeros((0, 0))),
        (np.zeros(0), np.eye(2)),
        (np.zeros(0), np.array([[1.0, 0.5], [0.0, 1.0]])),
        (np.zeros(0), -np.eye(1)),
    ],
)
def test_factor_checks_match_guarded_checks(psi_noise, sigma_z):
    args = (psi_noise, sigma_z)
    assert outcome(_general_factor_check, *args) == outcome(_ref_factor_check, *args)


def _factor_model(rng, q, p_z, p_x):
    A = rng.normal(0.0, 1.0, (p_z, p_z))
    return FactorModel(
        mu_x=rng.normal(0.0, 1.0, p_x),
        psi_noise=rng.uniform(0.5, 2.0, p_x),
        W_load=rng.normal(0.0, 1.0, (p_x, p_z)),
        b=rng.normal(0.0, 1.0, q),
        G=rng.normal(0.0, 1.0, (q, p_z)),
        mu_z=rng.normal(0.0, 1.0, p_z),
        sigma_z=A @ A.T + np.eye(p_z),
    )


@pytest.mark.parametrize("p_x", [0, 2])
def test_fix_rotation_without_factors_keeps_the_model(rng, p_x):
    model = _factor_model(rng, 4, 0, p_x)
    rotated, ratios = fix_rotation(model)  # the deleted branch returned (model, zeros(0))
    for name in ("mu_x", "psi_noise", "W_load", "b", "G", "mu_z", "sigma_z"):
        assert_same(getattr(rotated, name), getattr(model, name))
    assert_same(ratios, np.zeros(0))


def _ref_posterior(model, y, x):
    """posterior's continuous branch with its p_z = 0 guard."""
    yv = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    prec_z = np.linalg.inv(model.sigma_z) if model.p_z else np.zeros((0, 0))
    wp = model.W_load.T / model.psi_noise[None, :]
    cov = np.linalg.inv(prec_z + wp @ model.W_load)
    return model.mu_z + cov @ (wp @ (x - model.mu_x) + model.G.T @ yv), cov


@pytest.mark.parametrize("p_z", [0, 1, 2])
def test_posterior_matches_the_guarded_precision(rng, p_z):
    model = _factor_model(rng, 4, p_z, 3)
    y, x = rng.integers(0, 2, 4), rng.normal(0.0, 1.0, 3)
    for got, want in zip(posterior(model, y, x), _ref_posterior(model, y, x)):
        assert_same(got, want)


def _ref_objective(xvec, kappa, schema, counts, p_z):
    """fit_factor_model's objective without a continuous block, on the split
    that built empty arrays for it."""
    q = schema.q
    coeffs = _loading_coefficients(schema)
    Y_states = allowed_table(schema)[0].astype(float)
    obs_states, obs_counts = counts.as_arrays()
    n = obs_counts.sum()
    observed = np.zeros(len(Y_states))  # whole counts: any summation order is exact
    for state, count in zip(obs_states, obs_counts):
        observed[(Y_states == state).all(axis=1)] += count
    b = xvec[:q]
    G = xvec[q : q + q * p_z].reshape(q, p_z)
    s = xvec[q + q * p_z]
    logw, UG = _quadratic_log_weight(Y_states, b, G)
    m = logw.max()
    logz = m + np.log(np.exp(logw - m).sum())
    nll = n * logz - float(observed @ logw)
    excess = n * np.exp(logw - logz) - observed
    g_b = excess @ Y_states
    g_G = Y_states.T @ (excess[:, None] * UG)
    g_s = 0.0
    if p_z > 0 and kappa > 0.0:
        vecs = coeffs @ G
        norms = np.linalg.norm(vecs, axis=1)
        diff = norms - s
        nll += kappa * float(diff @ diff)
        safe = norms > 1e-12
        units = np.zeros_like(vecs)
        units[safe] = vecs[safe] / norms[safe, None]
        g_G = g_G + 2.0 * kappa * coeffs.T @ (diff[:, None] * units)
        g_s = -2.0 * kappa * diff.sum()
    mu_x, tau, W = np.zeros(0), np.zeros(0), np.zeros((0, p_z))
    grad = np.concatenate([g_b, g_G.ravel(), [g_s], mu_x, tau, W.ravel()])
    return nll, grad


@pytest.mark.parametrize("p_z", [0, 1, 2])
def test_factor_objective_without_continuous_block(rng, monkeypatch, p_z):
    import scipy.optimize

    schema = reader_style_schema()
    levels = allowed_table(schema)[1][rng.integers(0, schema.n_states(), 60)]
    counts = state_counts(schema, levels)
    calls = []
    real = scipy.optimize.minimize

    def spy(fun, x0, args=(), **kwargs):
        calls.append((fun, np.array(x0), args))
        return real(fun, x0, args=args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", spy)
    model, _ = fit_factor_model(schema, counts, p_z, FactorFitConfig(max_iter=5, restarts=1))
    fun, x0, (kappa,) = calls[0]
    if p_z == 0:  # the deleted `if p_z else 0.0` start of the target norm s
        assert_same(x0[schema.q], 0.0)
    for point in (x0, x0 + rng.normal(0.0, 0.1, x0.size)):
        for weight in (0.0, kappa):
            nll, grad = fun(point, weight)
            want_nll, want_grad = _ref_objective(point, weight, schema, counts, p_z)
            assert nll == want_nll
            assert_same(grad, want_grad)
    # the deleted `if p_x else None` arguments: FactorModel.canonical's empty block
    assert_same(model.mu_x, np.zeros(0))
    assert_same(model.psi_noise, np.zeros(0))
    assert_same(model.W_load, np.zeros((0, p_z)))


# -- oracle: q = 0 and T = {} ---------------------------------------------------------


@pytest.mark.parametrize("q", [0, 1, 3])
def test_brute_force_corr_matches_the_guarded_diagonal(rng, q):
    p = GrassmannParams.from_lambda(np.zeros((0, 0))) if q == 0 else random_valid_params(rng, q)
    table = brute_force_table(p)
    std = np.sqrt(np.clip(np.diag(table.cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = table.cov / np.outer(std, std)
    if q:
        np.fill_diagonal(corr, 1.0)
    assert_same(table.corr, corr)


@pytest.mark.parametrize("q", [3, 5])
def test_brute_force_chunks_without_some_popcounts(rng, monkeypatch, q):
    """Chunks of 4 states lack most popcounts; their empty groups write nothing."""
    import grasscat.oracle

    p = random_valid_params(rng, q)
    whole = brute_force_table(p)
    monkeypatch.setattr(grasscat.oracle, "_CHUNK", 4)
    chunked = brute_force_table(p)
    for name in ("states", "probs", "mean", "cov", "corr"):
        assert_same(getattr(chunked, name), getattr(whole, name))


def _ref_oracle_conditional(table, S, T, y_T):
    """oracle_conditional's sums with the T = {} selection."""
    sel = np.all(table.states[:, T] == np.asarray(y_T), axis=1) if T else np.ones(
        len(table.probs), dtype=bool
    )
    denom = float(table.probs[sel].sum())
    out = {}
    for state, prob in zip(table.states[sel], table.probs[sel]):
        key = tuple(int(state[s]) for s in S)
        out[key] = out.get(key, 0.0) + float(prob) / denom
    return dict(sorted(out.items()))


@pytest.mark.parametrize("q", [1, 3, 4])
def test_oracle_conditional_on_nothing_matches_the_selection(rng, q):
    table = brute_force_table(random_valid_params(rng, q))
    for k in range(q + 1):
        S = tuple(sorted(rng.choice(q, size=k, replace=False).tolist()))
        got = oracle_conditional(table, S, (), ())
        assert got.defined
        assert got.probs == _ref_oracle_conditional(table, S, (), ())


# -- the fit's state plan and the pattern parser -------------------------------------


def _ref_state_plan(schema, counts):
    """_state_plan's per-variable loop with its own block starts, and the
    schema's b -> beta map, bit memberships, bit variables, ordinal flags
    and block sizes."""
    from grasscat.schema import levels_of_bits

    states, weights = counts.as_arrays()
    levels = levels_of_bits(schema, states)
    q, k = schema.q, len(schema)
    starts = np.asarray([s for s, _ in schema.blocks], dtype=int)
    last_bits = np.where(levels > 0, starts + levels - 1, q)
    ends = np.zeros((q + 1, len(weights)))
    ends[last_bits, np.arange(len(weights))[:, None]] = 1.0
    ends = ends[:q]
    beta_of_b = np.zeros((q, q))
    members = np.zeros((k, q))
    var = np.zeros(q, dtype=int)
    ordinal = np.zeros((k, 1), dtype=bool)
    for j, (v, (s, e)) in enumerate(zip(schema.variables, schema.blocks)):
        block = np.eye if v.kind is VariableKind.CATEGORICAL else np.tri
        beta_of_b[s:e, s:e] = block(e - s)
        members[j, s:e] = 1.0
        var[s:e] = j
        ordinal[j, 0] = v.kind is VariableKind.ORDINAL
    sizes = tuple(e - s for s, e in schema.blocks)
    return (ends, weights, ends @ weights, beta_of_b, members, var, ordinal), sizes


def _schemas(rng):
    yield VariableSchema([])
    yield VariableSchema([VariableDecl("c", CAT, 2), VariableDecl("o", ORD, 2)])
    yield reader_style_schema()
    for _ in range(12):
        yield random_schema(rng, 9, max_levels=4)


def test_state_plan_matches_the_per_variable_loop(rng):
    for schema in _schemas(rng):
        table = allowed_table(schema)[1]
        levels = table[rng.integers(0, len(table), 30)]
        counts = state_counts(schema, levels)
        plan = _state_plan(schema, counts)
        maps = schema.block_maps
        got = (plan.ends, plan.weights, plan.bit_counts, maps.beta_of_b, maps.members,
               maps.var, maps.ordinal)
        want, sizes = _ref_state_plan(schema, counts)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
            assert g.flags.c_contiguous == w.flags.c_contiguous
        assert type(maps.sizes) is tuple and maps.sizes == sizes


@pytest.mark.parametrize("a", [0, 2])
def test_allowed_state_table_without_variables_is_one(a):
    sp = StructuredParams((), (), np.zeros((0, a)), np.full(a, 0.5))
    assert_same(_allowed_state_probabilities(VariableSchema([]), sp), np.ones(1))


def test_allowed_state_table_without_coupling_is_the_product_of_margins(rng):
    """At a = 0 every det is of a 0 x 0 matrix, and each state's probability
    is the product of its variables' own level probabilities."""
    for schema in _schemas(rng):
        sp = StructuredParams.independent(
            schema, [rng.normal(0.0, 1.0, v.block_size) for v in schema.variables])
        levels = allowed_table(schema)[1]
        want = np.ones(len(levels))
        for j, (v, b) in enumerate(zip(schema.variables, sp.b)):
            logits = np.concatenate([[0.0], b if v.kind is VariableKind.CATEGORICAL
                                     else np.cumsum(b)])
            want *= (np.exp(logits) / np.exp(logits).sum())[levels[:, j]]
        table = _allowed_state_probabilities(schema, sp)
        assert table.shape == want.shape
        assert np.allclose(table, want, rtol=1e-13, atol=0.0)


def _ref_parse_pattern(schema, text):
    """parse_pattern with one loop per clause kind."""
    assignment = {}
    seen = set()
    if not text.strip():
        return assignment
    for clause in text.split(","):
        clause = clause.strip()
        if ">=" in clause:
            name, _, value = clause.partition(">=")
            op = ">="
        elif "=" in clause:
            name, _, value = clause.partition("=")
            op = "="
        else:
            raise DataError(f"cannot parse clause {clause!r}: expected Var=l or Var>=l")
        name = name.strip()
        try:
            level = int(value)
        except ValueError:
            raise DataError(f"clause {clause!r}: level must be an integer") from None
        if name not in schema.names:
            raise DataError(f"clause {clause!r}: unknown variable {name!r}")
        if name in seen:
            raise DataError(f"variable {name!r} appears in more than one clause")
        seen.add(name)
        j = schema.names.index(name)
        var = schema.variables[j]
        s, e = schema.blocks[j]
        if not (0 <= level <= var.block_size):
            raise DataError(f"clause {clause!r}: level out of range 0..{var.block_size}")
        if op == ">=":
            if var.kind is not VariableKind.ORDINAL:
                raise DataError(f"clause {clause!r}: >= applies to ordinal variables only")
            for l in range(level):
                assignment[s + l] = 1
        else:
            if var.kind is VariableKind.CATEGORICAL:
                for l in range(var.block_size):
                    assignment[s + l] = 1 if l == level - 1 else 0
            else:
                for l in range(var.block_size):
                    assignment[s + l] = 1 if l < level else 0
    return assignment


def _patterns(rng, schema):
    yield ""
    yield "nope=1"
    for v in schema.variables:
        for level in range(-1, v.levels + 1):
            for op in ("=", ">="):
                yield f"{v.name}{op}{level}"
    for _ in range(20):
        k = int(rng.integers(1, len(schema) + 1))
        names = rng.choice(schema.names, size=k, replace=bool(rng.random() < 0.2))
        clauses = []
        for name in names:
            v = schema.variables[schema.names.index(name)]
            op = ">=" if rng.random() < 0.4 else "="
            clauses.append(f"{name}{op}{int(rng.integers(0, v.levels))}")
        yield ",".join(clauses)


def test_parse_pattern_matches_the_per_kind_loops(rng):
    for schema in _schemas(rng):
        patterns = [""] if not len(schema) else _patterns(rng, schema)
        for text in itertools.chain(patterns, ["x=1"]):
            got = outcome(parse_pattern, schema, text)
            want = outcome(_ref_parse_pattern, schema, text)
            assert got == want
            if isinstance(got, dict):
                assert list(got.items()) == list(want.items())


# -- the omega bound -------------------------------------------------------------------


def test_rho_bounds_keep_omega_inside_its_range():
    """_Packer.unpack takes omega = sigmoid(rho) without a clamp: the bounds
    L-BFGS-B keeps rho in must map inside [OMEGA_EPS, 1 - OMEGA_EPS]."""
    schema = reader_style_schema()
    for a in (1, 3):
        packer = _Packer(schema, a, np.zeros(schema.q, bool))
        assert packer.bounds[packer.cuts[2]:] == [(-13.8, 13.8)] * a
    lo, hi = _sigmoid(np.array([-13.8, 13.8]))
    assert OMEGA_EPS < lo < 1.1e-6 and 1.0 - 1.1e-6 < hi < 1.0 - OMEGA_EPS
