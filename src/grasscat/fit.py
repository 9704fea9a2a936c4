"""Maximum-likelihood estimation of the structured parameters.

The objective is the exact negative log likelihood

    nll = - sum_s n_s [ log det((lam - I)[R1(s), R1(s)]) - log det lam ]

over the observed state counts, with an analytic gradient obtained from
d log det M = trace(M^-1 dM) chained through the structured parametrization.

Both evaluate the observed minors in batches: the distinct nonempty states
are grouped by popcount once per ``StateCounts``, and each group takes one
stacked ``slogdet`` (likelihood) or one stacked ``inv`` (gradient).  The
per-state terms are still summed one at a time in state order (a cumulative
sum, and a ``bincount`` scatter for the gradient), so every value equals the
plain per-state loop bit for bit and the optimizer's path does not depend on
how the states were batched.

The dominance certificate is enforced by a smooth squared-hinge penalty on
the free-row margins of B = M C and on the strict margins of C, with the
penalty weight raised on a schedule until the margins are feasible.  The
slack factor C rides along as extra optimization variables; it never enters
the likelihood itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.optimize

from .grassmann import GrassmannParams, check_p0, moments, popcount_groups
from .schema import (
    Record,
    VariableKind,
    VariableSchema,
    _distinct_levels,
    _levels_of_rows,
    bits_of_levels,
    levels_of_bits,
)
from .structure import (
    StructuredParams,
    TAU_C,
    _raw_lambda,
    aux_loading_matrix,
    dominance_certificate,
    assemble_lambda,
    free_row_indices,
    middle_factor,
    row_margins,
)

INFEASIBLE_NLL = np.inf  # sentinel for states driven to the domain boundary

MU0 = 10.0  # first dominance-penalty weight
B_CAP = 30.0  # bound on every b entry; empirical log-odds are clipped to it
INIT_SCALE = 0.1  # standard deviation of the random w and V starts
MAX_RAMPS = 6  # penalty weights per restart, both estimators: weight0 * 10**k, k < 6


@dataclass(frozen=True)
class _MinorPlan:
    """The distinct nonempty states grouped by popcount.

    ``groups`` holds, per popcount k, the states' positions in ``weights``
    (state order), their set-bit indices (n_k, k) and their counts.
    ``order`` permutes the concatenated entries of the groups' k x k blocks
    into state order, and ``cells`` is each entry's flat index r * q + s in
    that order.  ``n`` counts every row, the all-zero state included.
    """

    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    weights: np.ndarray
    n: float
    cells: np.ndarray
    order: np.ndarray


@dataclass(frozen=True)
class StateCounts:
    """Multiset of observed dummy states: sufficient statistics for the fit."""

    items: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def n(self) -> int:
        return sum(c for _, c in self.items)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        states = np.asarray([bits for bits, _ in self.items], dtype=int)
        counts = np.asarray([c for _, c in self.items], dtype=float)
        return states, counts

    @functools.cached_property
    def minor_plan(self) -> _MinorPlan:
        """Popcount-grouped minor indices of the nonempty states, built once."""
        states, counts = self.as_arrays()
        q = states.shape[1]
        nonempty = states.any(axis=1)
        weights = counts[nonempty]
        groups, cells, owner = [], [], []
        for rows, idx in popcount_groups(states[nonempty]):
            groups.append((rows, idx, weights[rows]))
            cells.append((idx[:, :, None] * q + idx[:, None, :]).ravel())
            owner.append(np.repeat(rows, idx.shape[1] ** 2))
        order = np.argsort(np.concatenate(owner), kind="stable") if owner else np.zeros(0, int)
        return _MinorPlan(
            groups=tuple(groups),
            weights=weights,
            n=float(counts.sum()),
            cells=np.concatenate(cells)[order] if cells else np.zeros(0, int),
            order=order,
        )

    def level_counts(self, schema: VariableSchema) -> list[np.ndarray]:
        """Observed count of every level of every variable."""
        states, weights = self.as_arrays()
        levels = levels_of_bits(schema, states)
        return [
            np.bincount(levels[:, j], weights=weights, minlength=v.levels)
            for j, v in enumerate(schema.variables)
        ]


def state_counts(
    schema: VariableSchema, rows: Iterable[Record | Sequence[int]] | np.ndarray
) -> StateCounts:
    """Aggregate records, level sequences or an (n, len(schema)) levels array
    into exact state counts, preserving first-occurrence order."""
    distinct, _, counts = _distinct_levels(_levels_of_rows(schema, rows))
    bits = bits_of_levels(schema, distinct).tolist()
    return StateCounts(items=tuple(zip(map(tuple, bits), counts.tolist())))


def weighted_moments(
    states: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, covariance, and Pearson correlation of the rows of ``states``
    under the probability weights ``w``."""
    mean = w @ states
    centered = states - mean
    cov = (w[:, None] * centered).T @ centered
    return mean, cov, _correlation(cov)


def _correlation(cov: np.ndarray) -> np.ndarray:
    std = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = cov / np.outer(std, std)
    np.fill_diagonal(corr, 1.0)
    return corr


def empirical_moments(
    schema: VariableSchema, counts: StateCounts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical dummy mean, covariance, and Pearson correlation."""
    states, weights = counts.as_arrays()
    return weighted_moments(states, weights / weights.sum())


def model_correlation(params: GrassmannParams) -> np.ndarray:
    """Pearson correlation implied by the model moments; exact unit diagonal.

    Entries whose variance vanishes are reported as nan.
    """
    _, cov = moments(params)
    return _correlation(cov)


# -- likelihood and analytic gradient ---------------------------------------

def negative_log_likelihood(
    schema: VariableSchema, sp: StructuredParams, counts: StateCounts
) -> float:
    """Exact data NLL; +inf when any observed state has nonpositive probability."""
    lam = np.asarray(assemble_lambda(schema, sp).lam)
    return _nll_of_lambda(lam, counts)


def _nll_of_lambda(lam: np.ndarray, counts: StateCounts) -> float:
    sign_l, logdet_l = np.linalg.slogdet(lam)
    if sign_l <= 0:
        return INFEASIBLE_NLL
    plan = counts.minor_plan
    lam_mi = lam - np.eye(lam.shape[0])
    logdets = np.empty(plan.weights.size)
    for rows, idx, _ in plan.groups:
        signs, logdets[rows] = np.linalg.slogdet(lam_mi[idx[:, :, None], idx[:, None, :]])
        if np.any(signs <= 0):
            return INFEASIBLE_NLL
    # cumsum adds in state order, one term at a time; np.sum is pairwise
    total = 0.0 - np.cumsum(plan.weights * logdets)[-1] if logdets.size else 0.0
    return float(total + plan.n * logdet_l)


@dataclass(frozen=True)
class FitGradient:
    """NLL gradient in the natural parameters (b, w, V, omega)."""

    b: tuple[np.ndarray, ...]
    w: tuple[np.ndarray, ...]
    V: np.ndarray
    omega: np.ndarray


def _grad_lambda(lam: np.ndarray, counts: StateCounts) -> np.ndarray:
    """d nll / d lam = N inv(lam)^T - sum_s n_s scatter(inv(minor_s)^T)."""
    q = lam.shape[0]
    plan = counts.minor_plan
    lam_mi = lam - np.eye(q)
    blocks = [
        (c[:, None, None] * np.linalg.inv(lam_mi[idx[:, :, None], idx[:, None, :]])
         .transpose(0, 2, 1)).ravel()
        for _, idx, c in plan.groups
    ]
    entries = np.concatenate(blocks)[plan.order] if blocks else np.zeros(0)
    # bincount adds each cell's entries in state order, one at a time
    G = 0.0 - np.bincount(plan.cells, weights=entries, minlength=q * q).reshape(q, q)
    G += plan.n * np.linalg.inv(lam).T
    return G


def _chain_b(
    schema: VariableSchema, b_vectors: tuple[np.ndarray, ...], G: np.ndarray
) -> tuple[np.ndarray, ...]:
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


def _reduce_w(schema: VariableSchema, G_ambient: np.ndarray) -> tuple[np.ndarray, ...]:
    """Collapse an ambient (q, a) gradient onto the per-variable w vectors."""
    out = []
    for j, v in enumerate(schema.variables):
        s, e = schema.blocks[j]
        if v.kind is VariableKind.CATEGORICAL:
            out.append(G_ambient[s:e].sum(axis=0))
        else:
            out.append(G_ambient[s].copy())
    return tuple(out)


def nll_gradient(
    schema: VariableSchema, sp: StructuredParams, counts: StateCounts
) -> FitGradient:
    """Analytic NLL gradient; exact wherever the NLL is finite."""
    lam = np.asarray(assemble_lambda(schema, sp).lam)
    return _gradient_natural(schema, sp, lam, counts)


def _gradient_natural(
    schema: VariableSchema, sp: StructuredParams, lam: np.ndarray, counts: StateCounts
) -> FitGradient:
    G = _grad_lambda(lam, counts)
    W = aux_loading_matrix(schema, sp.w, sp.a)
    return FitGradient(
        b=_chain_b(schema, sp.b, G),
        w=_reduce_w(schema, G @ sp.V * sp.omega[None, :]),
        V=G.T @ W * sp.omega[None, :],
        omega=np.einsum("ra,rc,ca->a", W, G, sp.V) if sp.a else np.zeros(0),
    )


# -- dominance penalty -------------------------------------------------------

def _margin_grad_rows(mat: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Gradient of sum_k coeff_k * margin_k(mat) with margin = 2|d| - row sum."""
    G = -np.sign(mat) * coeff[:, None]
    diag = np.diag(G).copy() + 2.0 * np.sign(np.diag(mat)) * coeff
    np.fill_diagonal(G, diag)
    return G


@dataclass
class _PenaltyGrads:
    value: float
    b: tuple[np.ndarray, ...]
    w: tuple[np.ndarray, ...]
    V: np.ndarray
    C: np.ndarray


def dominance_penalty(schema: VariableSchema, sp: StructuredParams, mu: float) -> _PenaltyGrads:
    """Squared-hinge penalty on negative free-row margins of B and on C rows
    below the strict threshold, with its gradient."""
    a = sp.a
    M = middle_factor(schema, sp)
    B = M @ sp.C
    free = free_row_indices(schema, a)
    mb = row_margins(B)
    mc = row_margins(sp.C)
    viol_b = np.zeros_like(mb)
    viol_b[free] = np.maximum(0.0, -mb[free])
    viol_c = np.maximum(0.0, TAU_C - mc)
    value = mu * float((viol_b**2).sum() + (viol_c**2).sum())

    # d value / d margin = -2 mu viol
    G_B = _margin_grad_rows(B, -2.0 * mu * viol_b)
    G_C = _margin_grad_rows(sp.C, -2.0 * mu * viol_c)
    G_M = G_B @ sp.C.T
    G_C = G_C + M.T @ G_B

    q = schema.q
    W = aux_loading_matrix(schema, sp.w, a)
    g_b = _chain_b(schema, sp.b, G_M[:q, :q])
    g_w = _reduce_w(schema, G_M[:q, :q] @ sp.V - G_M[:q, q:])
    g_V = G_M[:q, :q].T @ W - G_M[q:, :q].T
    return _PenaltyGrads(value=value, b=g_b, w=g_w, V=g_V, C=G_C)


# -- parameter packing -------------------------------------------------------

def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p) - np.log1p(-p)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class _Packer:
    """Flat-vector view of (b, w, V, rho, E) with omega = sigmoid(rho) and
    C = I + E."""

    def __init__(self, schema: VariableSchema, a: int):
        self.schema = schema
        self.a = a
        self.n_v = schema.q * a
        n_b = sum(v.block_size for v in schema.variables)
        n_w = len(schema) * a
        self.bounds: list[tuple[float | None, float | None]] = (
            [(-B_CAP, B_CAP)] * n_b
            + [(None, None)] * (n_w + self.n_v)
            + [(-13.8, 13.8)] * a  # keeps omega inside its clamp
            + [(None, None)] * (schema.q + a) ** 2
        )

    def pack(self, sp: StructuredParams) -> np.ndarray:
        parts = [np.concatenate(sp.b) if sp.b else np.zeros(0)]
        parts.append(np.concatenate(sp.w) if self.a and sp.w else np.zeros(0))
        parts.append(sp.V.ravel())
        omega = np.clip(sp.omega, 1e-6, 1.0 - 1e-6)
        parts.append(_logit(omega))
        n = self.schema.q + self.a
        parts.append((sp.C - np.eye(n)).ravel())
        return np.concatenate(parts)

    def unpack(self, x: np.ndarray) -> StructuredParams:
        schema, a = self.schema, self.a
        pos = 0
        b = []
        for v in schema.variables:
            b.append(x[pos : pos + v.block_size].copy())
            pos += v.block_size
        w = []
        for _ in schema.variables:
            w.append(x[pos : pos + a].copy())
            pos += a
        V = x[pos : pos + self.n_v].reshape(schema.q, a).copy()
        pos += self.n_v
        rho = x[pos : pos + a]
        pos += a
        omega = np.clip(_sigmoid(rho), 1e-6, 1.0 - 1e-6)
        n = schema.q + a
        C = np.eye(n) + x[pos : pos + n * n].reshape(n, n)
        return StructuredParams(b=tuple(b), w=tuple(w), V=V, omega=omega, C=C)

    def pack_grad(self, sp: StructuredParams, g: FitGradient, g_c: np.ndarray) -> np.ndarray:
        parts = [np.concatenate(g.b) if g.b else np.zeros(0)]
        parts.append(np.concatenate(g.w) if self.a and g.w else np.zeros(0))
        parts.append(g.V.ravel())
        omega = sp.omega
        parts.append(g.omega * omega * (1.0 - omega))
        parts.append(g_c.ravel())
        return np.concatenate(parts)


def _penalized_objective(
    x: np.ndarray, mu: float, packer: _Packer, counts: StateCounts
) -> tuple[float, np.ndarray]:
    """NLL plus the dominance penalty at weight ``mu``, and its gradient, at
    the flat vector ``x``; ``(inf, 0)`` outside the likelihood's domain."""
    schema = packer.schema
    sp = packer.unpack(x)
    lam = _raw_lambda(schema, sp)
    nll = _nll_of_lambda(lam, counts)
    if not np.isfinite(nll):
        return INFEASIBLE_NLL, np.zeros_like(x)
    g = _gradient_natural(schema, sp, lam, counts)
    pen = dominance_penalty(schema, sp, mu)
    g = FitGradient(
        b=tuple(gb + pb for gb, pb in zip(g.b, pen.b)),
        w=tuple(gw + pw for gw, pw in zip(g.w, pen.w)),
        V=g.V + pen.V,
        omega=g.omega,
    )
    return nll + pen.value, packer.pack_grad(sp, g, pen.C)


# -- the restart / penalty-ramp driver ---------------------------------------

def _penalized_fit(
    seed: int, restarts: int, weight0: float,
    start: Callable[[np.random.Generator], np.ndarray],
    solve: Callable[[np.ndarray, float], scipy.optimize.OptimizeResult],
    constraint_met: Callable[[np.ndarray], bool],
    key: Callable[[np.ndarray], tuple],
) -> tuple[tuple, np.ndarray, bool, int]:
    """Best of ``restarts`` penalized fits: (key, x, success, iterations).

    Restart r starts at ``start(rng)``, rng from the r-th child of
    ``SeedSequence(seed)``.  Each ramp repeats ``solve(x, weight)``, one
    L-BFGS-B run, until a run gains less than 1e-9 relative (at most 10
    runs); ramps stop once ``constraint_met(x)``, else the weight grows
    tenfold.  The smallest ``key(x)`` wins and ties keep the earlier
    restart.  ``success``: the winner's last run converged or hit its
    iteration limit.  ``solve`` is defined in the caller's module because
    the benchmark tracer names each L-BFGS-B call after its calling module.
    """
    best: tuple[tuple, np.ndarray, bool] | None = None
    iterations = 0
    for child in np.random.SeedSequence(seed).spawn(restarts):
        x = start(np.random.default_rng(child))
        weight = weight0
        success = False
        for _ in range(MAX_RAMPS):
            # Restarting L-BFGS-B resets its curvature memory, which reliably
            # escapes the flat-progress stalls the hinge kinks can cause.
            f_prev = np.inf
            for _ in range(10):
                res = solve(x, weight)
                x = res.x
                iterations += int(res.nit)
                success = bool(res.success) or res.status == 1
                if f_prev - res.fun < 1e-9 * max(1.0, abs(res.fun)):
                    break
                f_prev = res.fun
            if constraint_met(x):
                break
            weight *= 10.0
        k = key(x)
        if best is None or k < best[0]:
            best = (k, x, success)
    assert best is not None
    return (*best, iterations)


# -- fit_grassmann -----------------------------------------------------------

@dataclass
class FitConfig:
    """Knobs for fit_grassmann; every random draw flows from ``seed``."""

    a: int = 2
    max_iter: int = 500
    grad_tol: float = 1e-6
    restarts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iter <= 0 or self.grad_tol <= 0 or self.restarts <= 0:
            raise ValueError("max_iter, grad_tol, and restarts must be positive")
        if self.a < 0:
            raise ValueError("a must be nonnegative")


@dataclass
class FitReport:
    """Outcome of a maximum-likelihood fit."""

    nll: float
    iterations: int
    converged: bool
    feasible: bool
    worst_margin_b: float
    worst_margin_b_raw: float
    worst_margin_c: float
    params: StructuredParams
    mean_model: np.ndarray
    mean_empirical: np.ndarray
    corr_model: np.ndarray
    corr_empirical: np.ndarray
    p0_min: float | None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "nll": float(self.nll),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "feasible": bool(self.feasible),
            "worst_margin_b": float(self.worst_margin_b),
            "worst_margin_b_raw": float(self.worst_margin_b_raw),
            "worst_margin_c": float(self.worst_margin_c),
            "p0_min": None if self.p0_min is None else float(self.p0_min),
            "mean_model": [float(v) for v in self.mean_model],
            "mean_empirical": [float(v) for v in self.mean_empirical],
            "max_mean_error": float(
                np.max(np.abs(self.mean_model - self.mean_empirical))
            ),
            "max_corr_error": float(
                np.nanmax(np.abs(self.corr_model - self.corr_empirical))
            ),
            "warnings": list(self.warnings),
        }


def _initial_b(
    schema: VariableSchema, counts: StateCounts, warn: list[str]
) -> list[np.ndarray]:
    """Independent per-variable empirical log-odds, the always-feasible start."""
    out = []
    for v, level_counts in zip(schema.variables, counts.level_counts(schema)):
        p = level_counts / level_counts.sum()
        with np.errstate(divide="ignore"):
            if v.kind is VariableKind.CATEGORICAL:
                raw = np.log(p[1:]) - np.log(p[0])
            else:
                raw = np.log(p[1:]) - np.log(p[:-1])
        clipped = np.clip(np.nan_to_num(raw, nan=0.0, posinf=B_CAP, neginf=-B_CAP),
                          -B_CAP, B_CAP)
        if np.any(np.abs(raw) > B_CAP) or not np.all(np.isfinite(raw)):
            warn.append(
                f"variable {v.name!r}: empirical log-odds clipped to +-{B_CAP} "
                "(a level may be unobserved)"
            )
        out.append(clipped)
    return out


def fit_grassmann(
    schema: VariableSchema,
    data: Iterable[Record | Sequence[int]] | np.ndarray | StateCounts,
    config: FitConfig | None = None,
) -> FitReport:
    """Penalized quasi-Newton maximum likelihood over the structured family.

    Runs ``config.restarts`` random initializations, each optimized with
    L-BFGS-B under the squared-hinge dominance penalty whose weight is raised
    until the free-row margins are feasible.  The lowest NLL wins, with ties
    broken by the smaller parameter norm.  When q <= 14 every state
    probability is also enumerated, and a negative one makes the fit
    infeasible whatever the dominance margins say.
    """
    config = config or FitConfig()
    counts = data if isinstance(data, StateCounts) else state_counts(schema, data)
    a = config.a
    mean_emp, _, corr_emp = empirical_moments(schema, counts)
    warn: list[str] = []
    b0 = _initial_b(schema, counts, warn)
    packer = _Packer(schema, a)

    def start(rng: np.random.Generator) -> np.ndarray:
        return packer.pack(StructuredParams(
            b=tuple(np.array(v) for v in b0),
            w=tuple(rng.normal(0.0, INIT_SCALE, a) for _ in schema.variables),
            V=rng.normal(0.0, INIT_SCALE, (schema.q, a)),
            omega=np.full(a, 0.5),
            C=np.eye(schema.q + a),
        ))

    def solve(x: np.ndarray, mu: float) -> scipy.optimize.OptimizeResult:
        return scipy.optimize.minimize(
            _penalized_objective,
            x,
            args=(mu, packer, counts),
            method="L-BFGS-B",
            jac=True,
            bounds=packer.bounds,
            options={"maxiter": config.max_iter, "gtol": config.grad_tol,
                     "ftol": 1e-14},
        )

    def key(x: np.ndarray) -> tuple[float, float]:
        sp = packer.unpack(x)
        return _nll_of_lambda(_raw_lambda(schema, sp), counts), float(
            np.linalg.norm(packer.pack(sp))
        )

    (nll, _), x, success, iterations = _penalized_fit(
        config.seed, config.restarts, MU0, start, solve,
        lambda x: dominance_certificate(schema, packer.unpack(x)).passed, key,
    )
    sp_fit = packer.unpack(x)
    params = assemble_lambda(schema, sp_fit)
    report = dominance_certificate(schema, sp_fit)
    feasible = report.passed
    mean_model, _ = moments(params)
    corr_model = model_correlation(params)
    p0_min = None
    if schema.q <= 14:
        p0_min = check_p0(params).min_probability
        if p0_min < -1e-12:
            feasible = False
            warn.append(
                f"enumeration found a negative state probability (p0_min = "
                f"{p0_min:.3e}); the model is not a valid distribution"
            )
    return FitReport(
        nll=float(nll),
        iterations=iterations,
        converged=success and feasible,
        feasible=feasible,
        worst_margin_b=report.worst_b_free,
        worst_margin_b_raw=report.worst_b_raw,
        worst_margin_c=report.worst_c,
        params=sp_fit,
        mean_model=mean_model,
        mean_empirical=mean_emp,
        corr_model=corr_model,
        corr_empirical=corr_emp,
        p0_min=p0_min,
        warnings=warn,
    )
