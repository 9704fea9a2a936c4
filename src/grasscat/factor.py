"""Latent-factor model for categorical/ordinal (optionally plus continuous)
observations, with biplot export.

Given a latent z ~ mixture prior, the conditional of the observations is an
uncorrelated normal for the continuous block times independent categorical
and ordinal pmfs whose linear predictors are beta = b + G (z - mu_z).  The
prior mixture is constructed so that everything stays closed form:

    p(z)    = sum_u pi_u N(z | mu_z + sigma_z G^T u, sigma_z)
    pi_u    propto exp(u^T b + u^T G sigma_z G^T u / 2)
    p(x, y) = pi_y N(x | mu_x + W sigma_z G^T y, psi + W sigma_z W^T)
    p(z|x,y)= N(z | m, S),  S = inv(inv(sigma_z) + W^T psi^-1 W),
              m = mu_z + S (W^T psi^-1 (x - mu_x) + G^T y)

with u ranging over the schema's allowed states only.  One table holds the
prior: the allowed-state matrix and the normalized weights pi_u, which the
fit report, the observed density, moments and sampling all read.  The fit
reads the same table: the data are one count per allowed state, and the
gradient in (b, G) is each state's expected minus observed count applied
to u and u u^T.  The factor score of a data row is the posterior mean m.
The model's rotational freedom is fixed by diagonalizing G^T G (its nonzero
spectrum equals that of G G^T), with axes ordered by decreasing eigenvalue
share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, InvalidStateError, ParameterError, SchemaError
from .fit import (
    StateCounts, _check_integers, _level_logits, _repeat_lbfgs, _restarts, empirical_moments,
    state_counts,
)
from .grassmann import _freeze
from .outputs import SvgCanvas, _csv_rows, write_csv
from .schema import (
    Record,
    VariableKind,
    VariableSchema,
    _distinct_levels,
    _levels_of_rows,
    allowed_levels,
    allowed_table,
    bits_of_levels,
    table_rows,
)

_NORM_EPS = 1e-12
KAPPA0 = 1.0  # first equal-norm penalty weight
MAX_RAMPS = 6  # penalty weights per restart: KAPPA0 * 10**k, k < 6
GRAD_TOL = 1e-7  # L-BFGS-B projected-gradient tolerance
NORM_SPREAD_TOL = 1e-3  # relative spread of the loading norms that ends the ramps
INIT_SCALE = 0.1  # standard deviation of the random G and W starts


@dataclass(frozen=True)
class FactorModel:
    """Parameters of the latent-factor model.

    psi_noise holds the diagonal of the observation-noise covariance.  The
    canonical gauge is mu_z = 0 and sigma_z = I.  A fitted model is
    canonical up to rounding: fix_rotation leaves sigma_z = Q^T Q, whose
    off-diagonal entries are of order 1e-16 when p_z >= 2.  Hand-built
    models may use any positive definite sigma_z.
    """

    mu_x: np.ndarray
    psi_noise: np.ndarray
    W_load: np.ndarray
    b: np.ndarray
    G: np.ndarray
    mu_z: np.ndarray
    sigma_z: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mu_x", "psi_noise", "W_load", "b", "G", "mu_z", "sigma_z"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        p_x, p_z, q = self.p_x, self.p_z, self.q
        if self.W_load.shape != (p_x, p_z):
            raise ParameterError(f"W_load shape {self.W_load.shape} != ({p_x},{p_z})")
        if self.G.shape != (q, p_z):
            raise ParameterError(f"G shape {self.G.shape} != ({q},{p_z})")
        if self.sigma_z.shape != (p_z, p_z):
            raise ParameterError(f"sigma_z shape {self.sigma_z.shape} != ({p_z},{p_z})")
        if self.psi_noise.shape != (p_x,):
            raise ParameterError("psi_noise must be the diagonal, one entry per x")
        if np.any(self.psi_noise <= 0):
            raise ParameterError("psi_noise entries must be positive")
        if np.abs(self.sigma_z - self.sigma_z.T).max(initial=0.0) > 1e-10:
            raise ParameterError("sigma_z must be symmetric")
        try:
            np.linalg.cholesky(self.sigma_z)
        except np.linalg.LinAlgError as exc:
            raise ParameterError("sigma_z must be positive definite") from exc

    @property
    def p_x(self) -> int:
        return self.mu_x.shape[0]

    @property
    def p_z(self) -> int:
        return self.mu_z.shape[0]

    @property
    def q(self) -> int:
        return self.b.shape[0]

    @classmethod
    def canonical(
        cls, b: np.ndarray, G: np.ndarray, mu_x=None, psi_noise=None, W_load=None
    ) -> "FactorModel":
        b = np.asarray(b, dtype=float)
        G = np.asarray(G, dtype=float)
        p_z = G.shape[1]
        if mu_x is None:
            mu_x = np.zeros(0)
            psi_noise = np.zeros(0)
            W_load = np.zeros((0, p_z))
        return cls(
            mu_x=mu_x,
            psi_noise=psi_noise,
            W_load=W_load,
            b=b,
            G=G,
            mu_z=np.zeros(p_z),
            sigma_z=np.eye(p_z),
        )


def _quadratic_log_weight(
    Y: np.ndarray, b: np.ndarray, G: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """u^T b + |G^T u|^2 / 2 for every row u of Y: the unnormalized log prior
    weight of each state in the canonical gauge, and the product Y G that
    the fit's gradient reads.  A general sigma_z = L L^T enters as G L."""
    YG = Y @ G
    return Y @ b + 0.5 * np.einsum("sk,sk->s", YG, YG), YG


def _prior_table(
    schema: VariableSchema,
    b: np.ndarray,
    G: np.ndarray,
    sigma_z: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The prior mixture: the allowed states as rows of a 0/1 matrix Y, in
    :func:`allowed_table` order, and their weights
    pi_u propto exp(u^T b + u^T G sigma_z G^T u / 2), which sum to one.
    ParameterError when a log-weight is not finite (it overflows)."""
    Y = allowed_table(schema)[0].astype(float)
    try:
        root = np.linalg.cholesky(sigma_z)
    except np.linalg.LinAlgError as exc:
        raise ParameterError("sigma_z must be positive definite") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        logw = _quadratic_log_weight(Y, b, G @ root)[0]
    if not np.isfinite(logw).all():
        raise ParameterError("a prior log-weight overflows")
    w = np.exp(logw - logw.max())
    return Y, w / w.sum()


def mixture_weights(
    schema: VariableSchema,
    b: np.ndarray,
    G: np.ndarray,
    sigma_z: np.ndarray,
) -> dict[tuple[int, ...], float]:
    """Prior mixture weight of every allowed state, keyed by its bits: a dict
    view of :func:`_prior_table`."""
    Y, w = _prior_table(schema, b, G, sigma_z)
    return {tuple(row): wi for row, wi in zip(Y.astype(int).tolist(), w.tolist())}


def _gaussian_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    d = x - mean
    n = d.shape[0]
    chol = np.linalg.cholesky(cov)
    sol = np.linalg.solve(chol, d)
    return float(
        -0.5 * sol @ sol - np.log(np.diag(chol)).sum() - 0.5 * n * np.log(2 * np.pi)
    )


def observed_density(
    schema: VariableSchema,
    model: FactorModel,
    y: Sequence[int],
    x: Sequence[float] | None = None,
) -> float:
    """Joint density of (x, y); the prior weight alone when p_x = 0.

    Disallowed states return exactly 0; a y whose length is not the schema's
    dummy dimension raises ParameterError.
    """
    yv = np.asarray([int(v) for v in y], dtype=float)
    if yv.shape != (schema.q,):
        raise ParameterError(f"y must have length {schema.q}, got shape {yv.shape}")
    w = _prior_table(schema, model.b, model.G, model.sigma_z)[1]
    try:
        row = table_rows(schema, allowed_levels(schema, yv[None, :]))[0]
    except InvalidStateError:
        return 0.0
    pi = float(w[row])
    if model.p_x == 0:
        if x is not None and len(np.atleast_1d(x)):
            raise ParameterError("model has no continuous block but x was given")
        return pi
    if x is None:
        raise ParameterError("model has a continuous block; x is required")
    means, cov = _x_given_states(model, yv[None, :])
    return pi * np.exp(_gaussian_logpdf(np.asarray(x, dtype=float), means[0], cov))


def _x_given_states(
    model: FactorModel, states: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """The continuous block given a dummy state y: the mean
    mu_x + W sigma_z G^T y of each row y of ``states``, and the covariance
    diag(psi) + W sigma_z W^T that all states share.  Each mean is its own
    matrix-vector product, so it does not depend on which other rows are asked."""
    load = model.W_load @ model.sigma_z @ model.G.T
    means = [model.mu_x + load @ y for y in states]
    cov = np.diag(model.psi_noise) + model.W_load @ model.sigma_z @ model.W_load.T
    return means, cov


def posterior(
    model: FactorModel, y: Sequence[int], x: Sequence[float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean (the factor score) and covariance of z given (x, y)."""
    yv = np.asarray(y, dtype=float)
    if yv.shape != (model.q,):
        raise ParameterError(f"y must have length {model.q}")
    if model.p_x:
        if x is None:
            raise ParameterError("model has a continuous block; x is required")
        x = np.asarray(x, dtype=float)
        prec_z = np.linalg.inv(model.sigma_z)
        wp = model.W_load.T / model.psi_noise[None, :]
        cov = np.linalg.inv(prec_z + wp @ model.W_load)
        m = model.mu_z + cov @ (wp @ (x - model.mu_x) + model.G.T @ yv)
    else:
        cov = model.sigma_z
        m = _scores(model, yv[None, :])[0]
    return m, cov


def _scores(model: FactorModel, Y: np.ndarray) -> np.ndarray:
    """The factor scores mu_z + sigma_z G^T y of every row y of the (n, q)
    stack Y, when there is no continuous block.  Both products accumulate
    one column at a time in index order, so a row's bits do not depend on
    how many rows share the stack (a matrix product may block and reorder
    its sums by the stack's size)."""
    gy = np.zeros((Y.shape[0], model.p_z))
    for j in range(model.q):
        gy += Y[:, j, None] * model.G[j]
    m = np.zeros_like(gy)
    for k in range(model.p_z):
        m += gy[:, k, None] * model.sigma_z[:, k]
    return model.mu_z + m


# -- combined loading vectors ------------------------------------------------

@dataclass(frozen=True)
class CombinedLoadings:
    """Per-variable loading vectors, one per level including the base level.

    vectors[j] has shape (levels_j, p_z); row l is the combined vector of
    level l.  The base rows satisfy g_0 = -sum(g_l) for categorical blocks
    and g_0 = -g_last for ordinal blocks.
    """

    vectors: tuple[np.ndarray, ...]
    labels: tuple[tuple[str, ...], ...]


def combined_loadings(schema: VariableSchema, G: np.ndarray) -> CombinedLoadings:
    """Aggregate the rows of G into one loading vector per variable level."""
    G = np.asarray(G, dtype=float)
    if G.shape[0] != schema.q:
        raise SchemaError(f"G has {G.shape[0]} rows, schema dummy dimension is {schema.q}")
    vectors = []
    labels = []
    for (s, e), v in zip(schema.blocks, schema.variables):
        rows = G[s:e]
        if v.kind is VariableKind.CATEGORICAL:
            base, steps = -rows.sum(axis=0) / v.levels, rows
        else:  # level l adds the first l rows, summed from +0.0 up
            base = -0.5 * rows.sum(axis=0)
            steps = np.add.accumulate(np.vstack([np.zeros_like(base), rows]))[1:]
        # level 0 is base itself: adding a zero row would turn -0.0 into +0.0
        vectors.append(np.vstack([base, base + steps]))
        labels.append(tuple(f"{v.name}={l}" for l in range(v.levels)))
    return CombinedLoadings(vectors=tuple(vectors), labels=tuple(labels))


def _loading_coefficients(schema: VariableSchema) -> np.ndarray:
    """Rows of coefficients c such that each combined vector equals c @ G:
    the combined loadings of G = I.  Adding 0.0 turns every -0.0 into 0.0."""
    return np.vstack(combined_loadings(schema, np.eye(schema.q)).vectors) + 0.0


# -- rotation fixing ----------------------------------------------------------

def fix_rotation(model: FactorModel) -> tuple[FactorModel, np.ndarray]:
    """Diagonalize the loading Gram matrix and order axes by eigenvalue share.

    Applies an orthogonal map Q to the latent space (G -> G Q, W -> W Q,
    mu_z -> Q^T mu_z, sigma_z -> Q^T sigma_z Q), leaving the observed
    distribution unchanged.  Returns the rotated model and the contribution
    ratio of each axis.
    """
    gram = model.G.T @ model.G
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    Q = eigvecs[:, order]
    for k in range(Q.shape[1]):
        col = Q[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            Q[:, k] = -col
    rotated = FactorModel(
        mu_x=model.mu_x,
        psi_noise=model.psi_noise,
        W_load=model.W_load @ Q,
        b=model.b,
        G=model.G @ Q,
        mu_z=Q.T @ model.mu_z,
        sigma_z=Q.T @ model.sigma_z @ Q,
    )
    total = eigvals.sum()
    ratios = eigvals / total if total > _NORM_EPS else np.zeros_like(eigvals)
    return rotated, ratios


# -- fitting -------------------------------------------------------------------

@dataclass
class FactorFitConfig:
    """Knobs for fit_factor_model; every random draw flows from ``seed``."""

    max_iter: int = 1000
    restarts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integers(self, ("max_iter", "restarts", "seed"))
        if self.max_iter <= 0 or self.restarts <= 0:
            raise ValueError("max_iter and restarts must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class FactorFitReport:
    nll: float
    iterations: int
    converged: bool
    k_params: int
    bic: float
    contribution_ratios: np.ndarray
    mean_model: np.ndarray
    mean_empirical: np.ndarray
    norm_spread: float
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "nll": float(self.nll),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "k_params": int(self.k_params),
            "bic": float(self.bic),
            "contribution_ratios": [float(r) for r in self.contribution_ratios],
            "mean_model": [float(v) for v in self.mean_model],
            "mean_empirical": [float(v) for v in self.mean_empirical],
            "max_mean_error": float(
                np.max(np.abs(self.mean_model - self.mean_empirical))
            ),
            "norm_spread": float(self.norm_spread),
            "warnings": list(self.warnings),
        }


def bic_parameter_count(q: int, p_z: int, p_x: int = 0) -> int:
    """Free-parameter count with the rotation gauge removed:
    q biases + q*p_z loadings - p_z(p_z-1)/2, plus (2 + p_z) p_x when a
    continuous block is present.  The stacked loadings [G; W] have rank at
    most q + p_x, so a larger p_z adds no parameter: it is counted as
    q + p_x."""
    p_z = min(p_z, q + p_x)
    return q + q * p_z - p_z * (p_z - 1) // 2 + p_x * (2 + p_z)


def fit_factor_model(
    schema: VariableSchema,
    data: Iterable[Record | Sequence[int]] | np.ndarray | StateCounts,
    p_z: int,
    config: FactorFitConfig | None = None,
    x_data: np.ndarray | None = None,
) -> tuple[FactorModel, FactorFitReport]:
    """Maximum likelihood over (b, G) in the canonical gauge, with the
    equal-norm penalty on all combined loading vectors (shared free target
    norm), then rotation fixing.

    The data enter as one count per row of :func:`allowed_table`; a state
    that is not allowed raises InvalidStateError.  At p_z = 1 the report
    warns of every categorical variable with an odd number of levels.

    ``x_data`` attaches an (N, p_x) continuous block aligned with the rows;
    (mu_x, psi_noise, W_load) are then estimated jointly.
    """
    config = config or FactorFitConfig()
    if p_z < 0:
        raise ValueError("p_z must be nonnegative")
    if isinstance(data, StateCounts):
        counts = data
        if x_data is not None:
            raise DataError("x_data requires row-level data, not StateCounts")
    else:
        levels = _levels_of_rows(schema, data)
        counts = state_counts(schema, levels)
    mean_emp, _, _ = empirical_moments(schema, counts)
    q = schema.q
    Y_states = allowed_table(schema)[0].astype(float)
    obs_states, obs_counts = counts.as_arrays()
    n = obs_counts.sum()
    # the data as one count per allowed state, in the table's row order
    rows = table_rows(schema, allowed_levels(schema, obs_states))
    observed = np.bincount(rows, weights=obs_counts, minlength=len(Y_states))
    # an odd number of equal-norm vectors on a line can sum to zero only at norm 0
    warnings = [
        f"categorical variable {v.name!r} has an odd number of levels ({v.levels}): "
        "at p_z = 1 its combined loadings sum to zero, so equal norms force every loading to 0"
        for v in schema.variables
        if p_z == 1 and v.kind is VariableKind.CATEGORICAL and v.levels % 2 == 1
    ]

    p_x = 0
    X = None
    Y_rows = None
    if x_data is not None:
        X = np.asarray(x_data, dtype=float)
        if X.ndim != 2 or X.shape[0] != len(levels):
            raise DataError("x_data must be (n_rows, p_x)")
        p_x = X.shape[1]
        Y_rows = bits_of_levels(schema, levels).astype(float)

    coeffs = _loading_coefficients(schema)

    at_G, at_s, at_mu, at_tau, at_W = np.cumsum([q, q * p_z, 1, p_x, p_x]).tolist()

    def split(xvec):
        return (xvec[:at_G], xvec[at_G:at_s].reshape(q, p_z), xvec[at_s],
                xvec[at_mu:at_tau], xvec[at_tau:at_W], xvec[at_W:].reshape(p_x, p_z))

    def objective(xvec, kappa):
        b, G, s, mu_x, tau, W = split(xvec)
        logw, UG = _quadratic_log_weight(Y_states, b, G)
        m = logw.max()
        logz = m + np.log(np.exp(logw - m).sum())
        nll = n * logz - float(observed @ logw)
        # expected minus observed count of every allowed state, on u and u u^T
        excess = n * np.exp(logw - logz) - observed
        g_b = excess @ Y_states
        g_G = Y_states.T @ (excess[:, None] * UG)
        g_s = 0.0
        if p_z > 0 and kappa > 0.0:  # at p_z = 0 the penalty would still score s
            vecs = coeffs @ G
            norms = np.linalg.norm(vecs, axis=1)
            diff = norms - s
            nll += kappa * float(diff @ diff)
            safe = norms > _NORM_EPS
            units = np.zeros_like(vecs)
            units[safe] = vecs[safe] / norms[safe, None]
            g_G = g_G + 2.0 * kappa * coeffs.T @ (diff[:, None] * units)
            g_s = -2.0 * kappa * diff.sum()
        g_mu = np.zeros(0); g_tau = np.zeros(0); g_W = np.zeros((0, p_z))
        if p_x:  # X is None without a continuous block
            psi = np.exp(tau)
            cov = np.diag(psi) + W @ W.T
            prec = np.linalg.inv(cov)
            YG = Y_rows @ G
            means = mu_x[None, :] + YG @ W.T
            resid = X - means
            sol = resid @ prec
            _, logdet = np.linalg.slogdet(cov)
            nll += 0.5 * float(np.einsum("ni,ni->", sol, resid))
            nll += 0.5 * len(X) * (logdet + p_x * np.log(2 * np.pi))
            g_mu = -sol.sum(axis=0)
            # covariance part: d nll / d cov = (N prec - prec S prec) / 2
            S = resid.T @ resid
            d_cov = 0.5 * (len(X) * prec - prec @ S @ prec)
            g_tau = np.diag(d_cov) * psi
            g_W = 2.0 * d_cov @ W - sol.T @ YG
            g_G = g_G - (Y_rows.T @ sol) @ W
        grad = np.concatenate(
            [g_b, g_G.ravel(), [g_s], g_mu, g_tau, g_W.ravel()]
        )
        return nll, grad

    b0 = _independent_logits(schema, counts)

    def start(rng):
        G0 = rng.normal(0.0, INIT_SCALE, (q, p_z))
        s0 = float(np.mean(np.linalg.norm(coeffs @ G0, axis=1)))
        parts = [b0, G0.ravel(), [s0]]
        if p_x:  # X is None without a continuous block
            parts += [X.mean(axis=0), np.log(np.maximum(X.var(axis=0), 1e-4)),
                      rng.normal(0.0, INIT_SCALE, (p_x, p_z)).ravel()]
        return np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])

    def solve(xvec, kappa):
        import scipy.optimize  # only the fits need it; read commands load faster without

        return scipy.optimize.minimize(
            objective,
            xvec,
            args=(kappa,),
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": config.max_iter, "gtol": GRAD_TOL, "ftol": 1e-14},
        )

    def norm_spread(xvec):
        _, G_f, *_ = split(xvec)
        norms = np.linalg.norm(coeffs @ G_f, axis=1)
        scale = max(float(norms.mean()), _NORM_EPS)
        return float(norms.max() - norms.min()) / scale

    def descend(xvec):
        # each penalty weight repeats L-BFGS-B; kappa grows tenfold until the
        # spread is met (at p_z = 0 there are no loadings, so one weight runs)
        kappa, iterations = KAPPA0, 0
        for _ in range(MAX_RAMPS):
            xvec, success, nit = _repeat_lbfgs(xvec, lambda x: solve(x, kappa))
            iterations += nit
            if norm_spread(xvec) <= NORM_SPREAD_TOL:
                break
            kappa *= 10.0
        return xvec, success, iterations

    def key(xvec):
        return float(objective(xvec, 0.0)[0]), float(np.linalg.norm(xvec))

    (nll_final, _), xbest, success, total_iters = _restarts(
        config.seed, config.restarts, start, descend, key,
    )
    b_f, G_f, s_f, mu_f, tau_f, W_f = split(xbest)
    model = FactorModel.canonical(
        b=b_f,
        G=G_f,
        mu_x=mu_f,
        psi_noise=np.exp(tau_f),
        W_load=W_f,
    )
    model, ratios = fix_rotation(model)
    Y_prior, w_prior = _prior_table(schema, model.b, model.G, model.sigma_z)
    k = bic_parameter_count(q, p_z, p_x)
    report = FactorFitReport(
        nll=float(nll_final),
        iterations=total_iters,
        converged=bool(success),
        k_params=k,
        bic=float(k * np.log(n) + 2.0 * nll_final),
        contribution_ratios=ratios,
        mean_model=w_prior @ Y_prior,
        mean_empirical=mean_emp,
        norm_spread=norm_spread(xbest),
        warnings=warnings,
    )
    return model, report


def _independent_logits(schema: VariableSchema, counts: StateCounts) -> np.ndarray:
    """Bias init from per-variable empirical frequencies (smoothed)."""
    out = np.zeros(schema.q)
    for (s, e), v, level_counts in zip(
        schema.blocks, schema.variables, counts.level_counts(schema)
    ):
        smoothed = level_counts + 0.5
        out[s:e] = _level_logits(v.kind, smoothed / smoothed.sum())
    return out


@dataclass
class BicRow:
    p_z: int
    k_params: int
    nll: float
    bic: float


@dataclass
class BicTable:
    rows: list[BicRow]
    chosen: int
    margin: float  # bic gap between the best and the runner-up

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "p_z": r.p_z,
                    "k_params": r.k_params,
                    "nll": float(r.nll),
                    "bic": float(r.bic),
                }
                for r in self.rows
            ],
            "chosen": int(self.chosen),
            "margin": float(self.margin),
        }


def select_dimension_bic(
    schema: VariableSchema,
    data: Iterable[Record | Sequence[int]] | np.ndarray | StateCounts,
    p_z_range: Sequence[int],
    config: FactorFitConfig | None = None,
) -> tuple[BicTable, FactorModel, FactorFitReport]:
    """Fit each candidate latent dimension and pick the BIC minimizer
    (ties go to the smaller dimension)."""
    dims = sorted(set(int(p) for p in p_z_range))
    if not dims or any(d < 0 for d in dims):
        raise ValueError("p_z range must be nonempty and nonnegative")
    counts = data if isinstance(data, StateCounts) else state_counts(schema, data)
    rows: list[BicRow] = []
    fits: dict[int, tuple[FactorModel, FactorFitReport]] = {}
    for d in dims:
        model, rep = fit_factor_model(schema, counts, d, config)
        rows.append(BicRow(p_z=d, k_params=rep.k_params, nll=rep.nll, bic=rep.bic))
        fits[d] = (model, rep)
    best = min(rows, key=lambda r: (r.bic, r.p_z))
    others = sorted(r.bic for r in rows if r.p_z != best.p_z)
    margin = (others[0] - best.bic) if others else 0.0
    model, rep = fits[best.p_z]
    return BicTable(rows=rows, chosen=best.p_z, margin=margin), model, rep


# -- biplot --------------------------------------------------------------------

@dataclass(frozen=True)
class BiplotData:
    """One row per distinct record, in first-occurrence order: the index of
    its first data row, its levels, its factor score and its count."""

    row_ids: np.ndarray  # (n_points,) int64
    records: np.ndarray  # (n_points, n_variables) int64
    scores: np.ndarray  # (n_points, n_axes)
    multiplicities: np.ndarray  # (n_points,) int64
    loading_labels: tuple[str, ...]
    loading_vectors: np.ndarray  # (n_labels, n_axes)
    contribution_ratios: np.ndarray
    padded: bool


def biplot_data(
    schema: VariableSchema,
    model: FactorModel,
    data: Iterable[Record | Sequence[int]] | np.ndarray,
) -> BiplotData:
    """Factor scores per distinct record (sized by multiplicity) plus the
    combined loading vectors, padded to two axes when p_z = 1."""
    model, ratios = fix_rotation(model)
    try:
        levels = _levels_of_rows(schema, data)
    except DataError as exc:
        if isinstance(exc.__cause__, SchemaError):  # an invalid row: the encoder's error
            raise exc.__cause__ from None
        raise
    distinct, first, counts = _distinct_levels(levels)
    scores = _scores(model, bits_of_levels(schema, distinct))
    cl = combined_loadings(schema, model.G)
    labels = [lab for block in cl.labels for lab in block]
    vectors = np.vstack(cl.vectors)
    padded = model.p_z < 2
    if padded:
        pad = 2 - model.p_z
        vectors = np.hstack([vectors, np.zeros((vectors.shape[0], pad))])
        scores = np.hstack([scores, np.zeros((scores.shape[0], pad))])
        ratios = np.concatenate([ratios, np.zeros(pad)])
    return BiplotData(
        row_ids=first,
        records=distinct,
        scores=scores,
        multiplicities=counts,
        loading_labels=tuple(labels),
        loading_vectors=vectors,
        contribution_ratios=ratios,
        padded=padded,
    )


def biplot_export(
    schema: VariableSchema,
    model: FactorModel,
    data: Iterable[Record | Sequence[int]] | np.ndarray,
    out_svg: str,
    out_scores: str,
    out_loadings: str,
) -> BiplotData:
    """Write the scores CSV, loadings CSV, and a two-axis SVG biplot."""
    bp = biplot_data(schema, model, data)
    p_axes = bp.loading_vectors.shape[1]
    pc_names = [f"pc{i + 1}" for i in range(p_axes)]
    write_csv(
        out_scores,
        ["row_id", *pc_names, "multiplicity"],
        _csv_rows(bp.row_ids, bp.scores, bp.multiplicities),
    )
    names = [v.name for v in schema.variables for _ in range(v.levels)]
    loading_rows = [
        [name, label, *[float(c) for c in vec]]
        for name, label, vec in zip(names, bp.loading_labels, bp.loading_vectors)
    ]
    write_csv(out_loadings, ["variable", "level_label", *pc_names], loading_rows)
    _draw_biplot(bp, out_svg)
    return bp


def _draw_biplot(bp: BiplotData, path: str) -> None:
    size = 640
    margin = 70.0
    scores = bp.scores[:, :2]
    arrows = bp.loading_vectors[:, :2]
    extent = max(
        float(np.abs(scores).max(initial=0.0)),
        float(np.abs(arrows).max(initial=0.0)),
        1e-6,
    ) * 1.15
    span = size - 2 * margin

    def sx(v):
        return margin + (v + extent) / (2 * extent) * span

    def sy(v):
        return size - margin - (v + extent) / (2 * extent) * span

    canvas = SvgCanvas(size, size)
    canvas.line(margin, sy(0.0), size - margin, sy(0.0), stroke="#999", width=0.8)
    canvas.line(sx(0.0), margin, sx(0.0), size - margin, stroke="#999", width=0.8)
    # circle areas exactly proportional to multiplicity, largest radius 9
    r = 9.0 * np.sqrt(bp.multiplicities / bp.multiplicities.max())
    canvas.circles(sx(scores[:, 0]), sy(scores[:, 1]), r)
    for label, vec in zip(bp.loading_labels, arrows):
        x2, y2 = sx(vec[0]), sy(vec[1])
        canvas.line(sx(0.0), sy(0.0), x2, y2, stroke="crimson", width=1.4)
        head = _arrow_head(sx(0.0), sy(0.0), x2, y2)
        if head is not None:
            canvas.polygon(head)
        canvas.text(x2 + 4, y2 - 4, label, size=11, fill="crimson")
    pc1 = f"PC1 ({100.0 * bp.contribution_ratios[0]:.1f}%)"
    pc2 = f"PC2 ({100.0 * bp.contribution_ratios[1]:.1f}%)"
    canvas.text(size / 2, size - margin / 3, pc1, size=13, anchor="middle")
    canvas.text(margin / 3, size / 2, pc2, size=13, anchor="middle", rotate=-90.0)
    canvas.save(path)


def _arrow_head(x1: float, y1: float, x2: float, y2: float):
    dx, dy = x2 - x1, y2 - y1
    length = float(np.hypot(dx, dy))
    if length < 1e-9:
        return None
    ux, uy = dx / length, dy / length
    px, py = -uy, ux
    h = 7.0
    wdt = 3.0
    return [
        (x2, y2),
        (x2 - h * ux + wdt * px, y2 - h * uy + wdt * py),
        (x2 - h * ux - wdt * px, y2 - h * uy - wdt * py),
    ]
