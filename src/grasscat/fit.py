"""Maximum-likelihood estimation of the structured parameters.

The objective is the exact negative log likelihood, from the a x a
determinants of :mod:`grasscat.structure`, in its notation (beta, x_r, w_r,
Z_v, xbar_v, A_s, Abar), with an analytic gradient from d log det A =
trace(A^-1 dA):

    nll = sum_s n_s [ sum_v (log Z_v - beta_v(l_sv)) + log det Abar - log det A_s ]

An evaluation holds one (a, a, 1 + m + k) stack [Abar | the m distinct
observed states | the k states of the plan's ``rest``, none for the public
NLL], filled by two GEMMs against the states' level-end indicators E.  One
batched :func:`structure._gauss_jordan` certifies it and gives log|det|
and, for the gradient, the inverse of its head, Abar and the observed
states; a third GEMM, E (n_s A_s^-1), gives the gradient's per-bit sums:
O((m + k) q a^2 + m a^3) arithmetic in O(a^2) numpy calls.  At a = 1 and
a = 2, when the two reductions find every det within [1e-300, 1e300],
every sign is 1, and only the head's logs and inverses are formed;
otherwise the head and ``rest`` are two stacks.

The fit maximizes this likelihood over a plan of every allowed state: the
rows of :func:`schema.allowed_table`, each weighted by its observed count,
or 0 when no row reaches it.  :func:`_likelihood` is +inf unless det A_s > 0
for every allowed state and det Abar > 0, that is unless every allowed state
has a positive probability: a principal-minor check, since an L-ensemble is
valid exactly when every principal minor is nonnegative.  So every finite
value is a certified model, and there it is the observed NLL, bit for bit:
the plan holds the observed states as the public NLL does, and the states
no row reaches apart, as ``rest``, the tail of the same stack, whose
determinants are read for their signs only.  Where it is +inf the
objective returns a finite wall, f0 + 1 + |f0| over the NLL f0 at the
start of that L-BFGS-B run, with a zero gradient, since L-BFGS-B's line
search assumes finite values.  Two rules keep the wall out of the way:

  * the V row of a bit that no observed state ends on is held at 0 by its
    bounds and starts there.  The data does not reach it, while x = e^-beta
    omega * V would scale it by up to e^30; at 0, the likelihood's x on that
    bit is exactly 0, and a state at that level has the determinant of the
    same state at level 0;
  * a random start that is not certified (a rare observed level has e^-beta
    near 1 / its share) has its w and V halved, at most MAX_HALVINGS times,
    toward independence, w = V = 0, where every A_s = I.

Inside a fit the parameters live only in L-BFGS-B's flat vector (b, w, V,
rho = logit(omega)).  The objective and the restart key (the NLL, then the
vector's norm) read views of it.  Each seeded restart repeats L-BFGS-B
until a run gains less than 1e-9 relative (:func:`_repeat_lbfgs`), and
:func:`_restarts`, which the factor fit shares, keeps the best.  A
StructuredParams is built once per fit, for the result only.  The public
NLL and gradient check a StructuredParams once, finiteness included, with
:func:`structure.flat_params`.  What overflows after it meets the one rule
of :func:`grassmann._probabilities` (sign 0 gives +0.0; a nonzero sign with
a log-ratio or probability that is not finite raises), which the NLL keeps
as +inf unless every sign is > 0 and the NLL is finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .errors import DataError, ParameterError
from .grassmann import _CLAMP, _correlation, weighted_moments
from .schema import (
    Record,
    VariableKind,
    VariableSchema,
    _distinct_levels,
    _levels_of_rows,
    allowed_levels,
    allowed_table,
    bits_of_levels,
    levels_of_bits,
    table_rows,
)
from .structure import (
    StructuredParams, _allowed_state_probabilities, _bit_terms, _ends, _gauss_jordan,
    _structured_moments, _variable_tables, flat_params,
)

if TYPE_CHECKING:
    from scipy.optimize import OptimizeResult

INFEASIBLE_NLL = np.inf  # sentinel for states driven to the domain boundary

B_CAP = 30.0  # bound on every b entry; empirical log-odds are clipped to it
INIT_SCALE = 0.1  # standard deviation of the random w and V starts
MAX_HALVINGS = 30  # halvings of an uncertified start's w and V toward independence


@dataclass(frozen=True)
class StateCounts:
    """Multiset of observed dummy states: sufficient statistics for the fit."""

    items: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def n(self) -> int:
        return sum(c for _, c in self.items)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (m, q) states and their counts; DataError when there are none."""
        if not self.items:
            raise DataError("dataset is empty")
        states = np.asarray([bits for bits, _ in self.items], dtype=int)
        counts = np.asarray([c for _, c in self.items], dtype=float)
        return states, counts

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


def empirical_moments(
    schema: VariableSchema, counts: StateCounts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical dummy mean, covariance, and Pearson correlation."""
    states, weights = counts.as_arrays()
    return weighted_moments(states, weights / weights.sum())


# -- likelihood and analytic gradient ---------------------------------------

@dataclass(frozen=True)
class _StatePlan:
    """Per-dataset arrays of the likelihood over the m distinct observed
    states: the (q, m) 0/1 indicator ``ends``, whose entry (r, s) is 1 when
    a level of state s ends on bit r; the states' counts; the count of the
    level each bit ends; and ``rest``, the indicator, as ``ends``, of further
    states whose det A_s must be positive too (none for the public NLL).  The
    likelihood's stack is [Abar | ``ends``' states | ``rest``'s states], of
    which only the first 1 + m matrices get a log|det| and an inverse."""

    ends: np.ndarray
    weights: np.ndarray
    bit_counts: np.ndarray
    rest: np.ndarray


def _state_plan(schema: VariableSchema, counts: StateCounts) -> _StatePlan:
    """The likelihood's plan over the distinct observed states, each of
    which must be allowed."""
    states, weights = counts.as_arrays()
    allowed_levels(schema, states)
    ends = _ends(schema, states)
    return _StatePlan(ends, weights, ends @ weights, np.zeros((schema.q, 0)))


def _table_plan(schema: VariableSchema, counts: StateCounts) -> _StatePlan:
    """The fit's plan over every row of :func:`allowed_table`: the observed
    states, as :func:`_state_plan` has them, and as ``rest`` every allowed
    state no row reaches.  Those have weight 0, so only the sign of their
    det A_s enters the likelihood, and they need no inverse."""
    bits = allowed_table(schema)[0]
    plan = _state_plan(schema, counts)
    reached = np.zeros(len(bits), dtype=bool)
    reached[table_rows(schema, levels_of_bits(schema, counts.as_arrays()[0]))] = True
    return replace(plan, rest=_ends(schema, bits[~reached]))


@dataclass(frozen=True)
class FitGradient:
    """NLL gradient in the natural parameters (b, w, V, omega)."""

    b: tuple[np.ndarray, ...]
    w: tuple[np.ndarray, ...]
    V: np.ndarray
    omega: np.ndarray


def _likelihood(
    schema: VariableSchema, b: np.ndarray, w: np.ndarray, V: np.ndarray,
    omega: np.ndarray, plan: _StatePlan, gradient: bool,
) -> tuple[float, np.ndarray | None]:
    """The NLL and, if ``gradient``, its gradient in (b, w, V, omega) laid
    end to end, at b laid end to end and the (variables, a) w rows, from
    a x a determinants; ``(inf, None)`` unless det A_s of every state of
    the plan, ``rest`` included, and det Abar have sign > 0 and the NLL is
    finite, so an overflow (x, x w^T, the GEMM or an elimination) gives
    +inf, never nan."""
    q, a = V.shape
    m = len(plan.weights)
    maps = schema.block_maps
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows fails the rule below
        beta, log_z, inv_z, sums, x_bar, share = _variable_tables(b, V, omega, maps)
        decay, x = _bit_terms(beta, V, omega, plan.bit_counts > 0)
        w_bit = w.take(maps.var, axis=0)  # each bit's w_v
        terms = (x[:, :, None] * w_bit[:, None, :]).reshape(q, a * a).T
        # Abar - I, then A_s - I = sum_r E[r, s] x_r w_r^T over the m observed
        # states and over the states of rest: one (a, a, 1 + m + rest) stack
        A = np.empty((a * a, 1 + m + plan.rest.shape[1]))
        A[:, 0] = (x_bar.T @ w).ravel()
        np.matmul(terms, plan.ends, out=A[:, 1 : m + 1])
        np.matmul(terms, plan.rest, out=A[:, m + 1 :])
        A[:: a + 1] += 1.0
        sign, logdet, inv = _gauss_jordan(A.reshape(a, a, A.shape[1]), gradient, head=m + 1)
        n = plan.weights.sum()
        nll = float(n * (log_z.sum() + logdet[0]) - plan.bit_counts @ beta
                    - plan.weights @ logdet[1:])
    if not (sign > 0 and np.isfinite(nll)):
        return INFEASIBLE_NLL, None
    if not gradient:
        return nll, None
    # d log det A = tr(A^-1 dA): d/dx_v is A^-T w_v and d/dw_v is A^-1 x_v.
    # T_r = sum_s E[r, s] n_s A_s^-1 gathers both per bit, in one GEMM.
    inv_bar = inv[:, :, 0]
    T = (plan.ends @ (inv[:, :, 1:] * plan.weights).reshape(a * a, m).T).reshape(q, a, a)
    per_bit = (w_bit[:, :, None] * T).sum(axis=1)  # sum of n_s A_s^-T w_v, per bit
    to_x_bar = n * (w @ inv_bar)
    g_beta = (
        (x * per_bit).sum(axis=1) - plan.bit_counts
        + share * ((n - (x_bar * to_x_bar).sum(axis=1)) @ maps.members)
    )
    g_w = n * x_bar @ inv_bar.T - maps.members @ (T * x[:, None, :]).sum(axis=2)
    g_V = omega * (maps.members.T @ (to_x_bar * inv_z[:, None]) - decay[:, None] * per_bit)
    g_omega = (to_x_bar * sums).sum(axis=0) - (decay[:, None] * V * per_bit).sum(axis=0)
    return nll, np.concatenate(
        [maps.beta_of_b.T @ g_beta, g_w.ravel(), g_V.ravel(), g_omega]
    )


def negative_log_likelihood(
    schema: VariableSchema, sp: StructuredParams, counts: StateCounts
) -> float:
    """Exact data NLL; +inf when any observed state has nonpositive probability
    or the NLL overflows."""
    # flat_params raises SchemaError or ParameterError on a malformed b, w, V or omega
    return _likelihood(schema, *flat_params(schema, sp), _state_plan(schema, counts),
                       gradient=False)[0]


def nll_gradient(
    schema: VariableSchema, sp: StructuredParams, counts: StateCounts
) -> FitGradient:
    """Analytic NLL gradient, exact where the NLL is finite; ParameterError where it is inf."""
    _, grad = _likelihood(schema, *flat_params(schema, sp), _state_plan(schema, counts),
                          gradient=True)
    if grad is None:
        raise ParameterError("the NLL is +inf at these parameters; it has no gradient")
    b, w, V, omega = np.split(grad, np.cumsum([schema.q, sp.a * len(schema), sp.V.size]))
    return FitGradient(tuple(b[s:e] for s, e in schema.blocks),
                       tuple(w.reshape(len(schema), sp.a)), V.reshape(sp.V.shape), omega)


# -- parameter packing -------------------------------------------------------

def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p) - np.log1p(-p)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class _Packer:
    """Flat-vector layout of (b, w, V, rho) with omega = sigmoid(rho): b laid
    end to end, then the (variables, a) w rows, V and rho, each flattened.
    The bounds hold the V rows of the bits flagged in ``unseen`` at 0."""

    def __init__(self, schema: VariableSchema, a: int, unseen: np.ndarray):
        self.schema = schema
        self.a = a
        q, k = schema.q, len(schema)
        self.cuts = tuple(np.cumsum([q, k * a, q * a]).tolist())  # where w, V and rho start
        self.bounds: list[tuple[float | None, float | None]] = (
            [(-B_CAP, B_CAP)] * q
            + [(None, None)] * (k * a)
            + [(0.0, 0.0) if held else (None, None) for held in unseen for _ in range(a)]
            + [(-13.8, 13.8)] * a  # omega in [1.0156e-6, 1 - 1.0156e-6]: inside OMEGA_EPS
        )

    def pack(self, sp: StructuredParams) -> np.ndarray:
        omega = np.clip(sp.omega, 1e-6, 1.0 - 1e-6)
        return np.concatenate([*sp.b, *sp.w, sp.V.ravel(), _logit(omega)])

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """(b, w, V, omega) at ``x``: b, w and V are views of it."""
        q, k, a = self.schema.q, len(self.schema), self.a
        i, j, l = self.cuts
        omega = _sigmoid(x[l:])  # L-BFGS-B evaluates only inside rho's bounds
        return x[:i], x[i:j].reshape(k, a), x[j:l].reshape(q, a), omega


def _objective(
    x: np.ndarray, f0: float, packer: _Packer, plan: _StatePlan
) -> tuple[float, np.ndarray]:
    """The NLL over ``plan`` and its gradient at the flat vector ``x``; where
    the NLL is +inf, the finite wall f0 + 1 + |f0| above the run's starting
    NLL ``f0``, with a zero gradient."""
    b, w, V, omega = packer.unpack(x)
    nll, g = _likelihood(packer.schema, b, w, V, omega, plan, gradient=True)
    if g is None:
        return f0 + 1.0 + abs(f0), np.zeros_like(x)
    g[packer.cuts[2]:] *= omega * (1.0 - omega)  # g ends with the omega gradient; chain it to rho
    return nll, g


# -- the restart driver ------------------------------------------------------

def _restarts(
    seed: int, restarts: int,
    start: Callable[[np.random.Generator], np.ndarray],
    descend: Callable[[np.ndarray], tuple[np.ndarray, bool, int]],
    key: Callable[[np.ndarray], tuple],
) -> tuple[tuple, np.ndarray, bool, int]:
    """Best of ``restarts`` descents: (key, x, success, iterations).  Restart
    r runs ``descend(start(rng))``, rng from the r-th child of
    ``SeedSequence(seed)``, to (x, success, L-BFGS-B iterations).  The least
    ``key(x)`` wins, ties keep the earlier restart, and iterations add up."""
    children = np.random.SeedSequence(seed).spawn(restarts)
    runs = [descend(start(np.random.default_rng(child))) for child in children]
    keys = [key(x) for x, _, _ in runs]
    best = min(range(len(runs)), key=keys.__getitem__)  # min keeps the first of equal keys
    return keys[best], runs[best][0], runs[best][1], sum(nit for _, _, nit in runs)


def _repeat_lbfgs(
    x: np.ndarray, run: Callable[[np.ndarray], OptimizeResult]
) -> tuple[np.ndarray, bool, int]:
    """Repeat ``run(x)``, one L-BFGS-B run from x, until a run gains less
    than 1e-9 relative, at most 10 runs: (x, success, iterations), success
    if the last run converged or hit its iteration limit.  A new run resets
    L-BFGS-B's curvature memory, which escapes the flat-progress stalls of a
    penalty's kinks or the certified fit's wall.  ``run`` is defined in the
    caller's module: the benchmark tracer names each L-BFGS-B call after it."""
    f_prev = np.inf
    iterations = 0
    for _ in range(10):
        res = run(x)
        x = res.x
        iterations += int(res.nit)
        success = bool(res.success) or res.status == 1
        if f_prev - res.fun < 1e-9 * max(1.0, abs(res.fun)):
            break
        f_prev = res.fun
    return x, success, iterations


# -- fit_grassmann -----------------------------------------------------------

def _check_integers(config, names: tuple[str, ...]) -> None:
    """ValueError naming the first field of ``names`` in ``config`` that is
    not an integer; a bool is not one."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class FitConfig:
    """Knobs for fit_grassmann; every random draw flows from ``seed``."""

    a: int = 2
    max_iter: int = 500
    grad_tol: float = 1e-6
    restarts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integers(self, ("a", "max_iter", "restarts", "seed"))
        if self.max_iter <= 0 or self.grad_tol <= 0 or self.restarts <= 0:
            raise ValueError("max_iter, grad_tol, and restarts must be positive")
        if self.a < 0:
            raise ValueError("a must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class FitReport:
    """Outcome of a maximum-likelihood fit."""

    nll: float
    iterations: int
    converged: bool
    feasible: bool
    params: StructuredParams
    mean_model: np.ndarray
    mean_empirical: np.ndarray
    corr_model: np.ndarray
    corr_empirical: np.ndarray
    p0_min: float
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "nll": float(self.nll),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "feasible": bool(self.feasible),
            "p0_min": float(self.p0_min),
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


def _level_logits(kind: VariableKind, p: np.ndarray) -> np.ndarray:
    """Per-level logits of one variable from its level frequencies p:
    log(p_l / p_0) for categorical, log(p_l / p_(l-1)) for ordinal."""
    if kind is VariableKind.CATEGORICAL:
        return np.log(p[1:]) - np.log(p[0])
    return np.log(p[1:]) - np.log(p[:-1])


def _initial_b(
    schema: VariableSchema, counts: StateCounts, warn: list[str]
) -> list[np.ndarray]:
    """Independent per-variable empirical log-odds, the always-feasible start."""
    out = []
    for v, level_counts in zip(schema.variables, counts.level_counts(schema)):
        with np.errstate(divide="ignore", invalid="ignore"):  # log 0 - log 0 is nan
            raw = _level_logits(v.kind, level_counts / level_counts.sum())
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
    """Quasi-Newton maximum likelihood over the structured family, certified.

    Runs ``config.restarts`` random initializations, each optimized with
    L-BFGS-B over the allowed-state table, whose NLL is finite only where
    every allowed state has a positive probability (see the module
    docstring).  The lowest NLL wins, with ties broken by the smaller norm
    of the optimizer vector.  The fit is feasible when the fitted model
    gives no allowed state a probability below -1e-12.  A start still not
    certified after MAX_HALVINGS halvings stays where it is, and the fit
    reports it as it stands.
    """
    config = config or FitConfig()
    counts = data if isinstance(data, StateCounts) else state_counts(schema, data)
    plan = _table_plan(schema, counts)  # the cap fails before any optimizing
    a = config.a
    mean_emp, _, corr_emp = empirical_moments(schema, counts)
    warn: list[str] = []
    unseen = plan.bit_counts == 0  # the bits no observed state ends on
    packer = _Packer(schema, a, unseen)
    x0 = np.zeros(len(packer.bounds))  # rho = logit(1/2) is zero
    # the empty head keeps np.concatenate defined for a schema with no variables
    x0[: schema.q] = np.concatenate([np.zeros(0), *_initial_b(schema, counts, warn)])
    i, j, l = packer.cuts  # the w rows lie in x[i:j], V in x[j:l]

    def nll_at(x: np.ndarray) -> float:
        return _likelihood(schema, *packer.unpack(x), plan, gradient=False)[0]

    def start(rng: np.random.Generator) -> np.ndarray:
        x = x0.copy()
        x[i:l] = rng.normal(0.0, INIT_SCALE, l - i)
        x[j:l].reshape(schema.q, a)[unseen] = 0.0
        for _ in range(MAX_HALVINGS):
            if np.isfinite(nll_at(x)):
                break
            x[i:l] *= 0.5
        return x

    def solve(x: np.ndarray) -> OptimizeResult:
        import scipy.optimize  # only the fits need it; read commands load faster without

        return scipy.optimize.minimize(
            _objective,
            x,
            args=(nll_at(x), packer, plan),
            method="L-BFGS-B",
            jac=True,
            bounds=packer.bounds,
            options={"maxiter": config.max_iter, "gtol": config.grad_tol,
                     "ftol": 1e-14},
        )

    def key(x: np.ndarray) -> tuple[float, float]:
        nll = nll_at(x)
        return nll, float(np.linalg.norm(x))

    (nll, _), x, success, iterations = _restarts(
        config.seed, config.restarts, start, lambda x: _repeat_lbfgs(x, solve), key,
    )
    b, w, V, omega = packer.unpack(x)
    sp_fit = StructuredParams(tuple(b[s:e] for s, e in schema.blocks), tuple(w), V, omega)
    mean_model, cov_model = _structured_moments(schema, sp_fit)
    corr_model = _correlation(cov_model)
    p0_min = float(_allowed_state_probabilities(schema, sp_fit).min())
    feasible = p0_min >= -_CLAMP
    if not feasible:
        warn.append(
            f"enumeration found a negative state probability (p0_min = "
            f"{p0_min:.3e}); the model is not a valid distribution"
        )
    return FitReport(
        nll=float(nll),
        iterations=iterations,
        converged=success and feasible,
        feasible=feasible,
        params=sp_fit,
        mean_model=mean_model,
        mean_empirical=mean_emp,
        corr_model=corr_model,
        corr_empirical=corr_emp,
        p0_min=p0_min,
        warnings=warn,
    )
