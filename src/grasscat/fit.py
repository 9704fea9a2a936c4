"""Maximum-likelihood estimation of the structured parameters.

The objective is the exact negative log likelihood, with an analytic
gradient from d log det A = trace(A^-1 dA).  Since lam - I = K + W Omega V^T
with K block diagonal, the matrix determinant lemma leaves only a x a
determinants (a is the auxiliary dimension):

    nll = sum_s n_s [ sum_v (log Z_v - beta_v(l_sv)) + log det Abar - log det A_s ]
    A_s = I + sum_v x_v(l_sv) w_v^T,     Abar = I + sum_v xbar_v w_v^T

Level l >= 1 of variable v ends on bit r_v(l) = s_v + l - 1 (s_v is the
block's first bit) and has logit beta_v(l): b_l if v is categorical, b_1 +
... + b_l if ordinal.  Then x_v(l) = e^-beta_v(l) omega * V[r_v(l)], Z_v =
1 + sum_l e^beta_v(l) and xbar_v = omega * sum_(r in v) V[r] / Z_v; level 0
has beta = 0 and x = 0.  Write x_r and w_r for the x and w of the level
ending on bit r.  An evaluation holds the matrices structure of arrays, as
one (a, a, 1 + m + k) stack laid out [Abar | the m distinct observed states
| the k states of the plan's ``rest``, none for the public NLL].  With E
the (q, m) 0/1 indicator of the bits the states' levels end on, one GEMM
gives every A_s - I = sum_r E[r, s] x_r w_r^T of the observed states and a
second those of ``rest``; one batched :func:`_gauss_jordan` certifies the
stack and gives log|det| and, for the gradient, the inverse of its head,
Abar and the observed states; and a third GEMM, E (n_s A_s^-1), gives the
gradient's per-bit sums: O((m + k) q a^2 + m a^3) arithmetic in O(a^2)
numpy calls, whatever the states' popcounts, and no LAPACK call.  At a = 1
and a = 2 (the default) that is a closed form, det = A or a d - b c and
the inverse the adjugate over det, and two reductions, the least and the
largest det, certify the whole stack: when every det is within [1e-300,
1e300], every sign is 1, and only the head's logs and inverses are formed.
Otherwise the head and ``rest`` are two stacks, and a det that is zero or
out of range, or any a >= 3, takes a Gauss-Jordan elimination.

The same per-bit tables give the probability of every allowed state,
e^(sum_v beta_v(l_v) - sum_v log Z_v) det A_s / det Abar, for ``sample``
and for the fit's certificate ``p0_min``.  Each chunk
of 2**14 allowed states is built as the likelihood's stack is, by one GEMM
against the chunk's E, with sum_v beta_v(l_v) as one more row.  A pattern
of fixed bits, which ``prob`` scores, is one a x a determinant too: det A_s
is affine in each variable's column, so a variable summed over the levels
the pattern leaves it collapses to one column (:func:`_pattern_probabilities`),
kept undivided in a border where its share is below 1e-3; a state with a
level that rare is scored as the pattern that fixes every bit.  The
moments invert lam by Woodbury from the same tables and Abar
(:func:`_structured_moments`).  No path here forms lam.

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
vector's norm) read views of it.  A StructuredParams is built once per fit,
for the result only.  The public NLL and gradient, the table and ``prob``
check a StructuredParams once, finiteness included, with
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
from .grassmann import _CHUNK, _CLAMP, _probabilities, _sigma_moments
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
from .structure import StructuredParams, flat_params

if TYPE_CHECKING:
    from scipy.optimize import OptimizeResult

INFEASIBLE_NLL = np.inf  # sentinel for states driven to the domain boundary

B_CAP = 30.0  # bound on every b entry; empirical log-odds are clipped to it
INIT_SCALE = 0.1  # standard deviation of the random w and V starts
MAX_RAMPS = 6  # penalty weights per restart: weight0 * 10**k, k < 6 (one for the structured fit)
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


# -- likelihood and analytic gradient ---------------------------------------

@dataclass(frozen=True)
class _StatePlan:
    """Per-dataset arrays of the likelihood over the m distinct observed
    states: the (q, m) 0/1 indicator ``ends``, whose entry (r, s) is 1 when
    a level of state s ends on bit r; the states' counts; the count of the
    level each bit ends; the b -> beta map and the variables' bit
    memberships; and ``rest``, the indicator, as ``ends``, of further states
    whose det A_s must be positive too (none for the public NLL).  The
    likelihood's stack is [Abar | ``ends``' states | ``rest``'s states], of
    which only the first 1 + m matrices get a log|det| and an inverse."""

    ends: np.ndarray
    weights: np.ndarray
    bit_counts: np.ndarray
    beta_of_b: np.ndarray
    members: np.ndarray
    rest: np.ndarray


def _state_plan(schema: VariableSchema, counts: StateCounts) -> _StatePlan:
    """The likelihood's plan over the distinct observed states, each of
    which must be allowed."""
    states, weights = counts.as_arrays()
    allowed_levels(schema, states)
    ends = _ends(schema, states)
    return _StatePlan(ends, weights, ends @ weights, *_bit_maps(schema),
                      np.zeros((schema.q, 0)))


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


def _ends(schema: VariableSchema, bits: np.ndarray) -> np.ndarray:
    """The C-contiguous (q, n) 0/1 indicator of the bits the levels of the
    (n, q) allowed states ``bits`` end on: the set bits, less each ordinal
    bit whose successor in its block is also set."""
    var = schema.block_maps.var
    chained = np.flatnonzero(schema.block_maps.ordinal[var[:-1], 0] & (var[:-1] == var[1:]))
    ends = bits.T.astype(float, order="C")
    ends[chained] -= ends[chained + 1]
    return ends


def _bit_maps(schema: VariableSchema) -> tuple[np.ndarray, np.ndarray]:
    """The (q, q) b -> beta map and the (variables, q) bit memberships."""
    maps, q = schema.block_maps, schema.q
    # beta_r sums b over bit r alone (categorical) or its block's bits up to r
    same = np.tril(maps.var[:, None] == maps.var)
    beta_of_b = (same & (maps.ordinal[maps.var] | np.eye(q, dtype=bool))).astype(float)
    members = (np.arange(len(schema))[:, None] == maps.var).astype(float)
    return beta_of_b, members


_DET_RANGE = (1e-300, 1e300)  # the |det| a closed form keeps; the rest is eliminated


def _gauss_jordan(
    A: np.ndarray, inverse: bool, head: int | None = None
) -> tuple[np.ndarray | float, np.ndarray, np.ndarray | None]:
    """Sign, log|det| and, if ``inverse``, the inverse of each matrix of an
    (a, a, n) stack held matrix index first, so that every step works on
    contiguous n-vectors.  A 1 x 1 or 2 x 2 stack is solved in closed form:
    det = A or a d - b c, and the inverse is the adjugate (1, or d, -b, -c
    and a) over det.  Two reductions, the least and the largest |det|, tell
    whether every det is within [1e-300, 1e300]; when one is not (singular,
    non-finite, or with a product a d or b c that overflows or underflows),
    a mask sends those matrices to :func:`_eliminate`, as stacks of every
    other size go.

    With ``head``, the log|det| and inverse are of the first ``head``
    matrices only, and the sign is one number, the least sign of all n
    (nan if one is nan).  When the two reductions find every closed-form
    det itself within [1e-300, 1e300], so positive (a nan fails both), it
    is 1.0 and nothing else is formed for the rest.  Otherwise the head and
    the rest are taken as two stacks, the rest without an inverse."""
    dim, n = A.shape[0], A.shape[2]
    near = False
    if dim in (1, 2):
        if dim == 1:
            det = A[0, 0].copy()
        else:
            a, b, c, d = A[0, 0], A[0, 1], A[1, 0], A[1, 1]
            with np.errstate(over="ignore", invalid="ignore"):  # what leaves the range is eliminated
                det = a * d - b * c
        size = det if head is not None else np.abs(det)  # a head's dets must be positive
        near = not n or (size.min() >= _DET_RANGE[0] and size.max() <= _DET_RANGE[1])
    if head is not None and not near:
        sign, logdet, inv = _gauss_jordan(A[:, :, :head], inverse)
        rest = _gauss_jordan(A[:, :, head:], False)[0]
        return np.concatenate([sign, rest]).min(), logdet, inv
    if dim not in (1, 2):
        return _eliminate(A, inverse)
    far = None if near else ~((size >= _DET_RANGE[0]) & (size <= _DET_RANGE[1]))
    if far is not None:
        det[far] = size[far] = 1.0
    h = n if head is None else head
    sign, logdet, inv = np.sign(det) if head is None else 1.0, np.log(size[:h]), None
    if inverse:
        inv = np.ones((1, 1, h)) if dim == 1 else np.empty((2, 2, h))
        if dim == 2:
            inv[0, 0], inv[1, 1] = d[:h], a[:h]
            np.negative(b[:h], out=inv[0, 1])
            np.negative(c[:h], out=inv[1, 0])
        inv /= det[:h]
    if far is not None:
        sign[far], logdet[far], far_inv = _eliminate(A[:, :, far], inverse)
        if inverse:
            inv[:, :, far] = far_inv
    return sign, logdet, inv


def _eliminate(
    A: np.ndarray, inverse: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """:func:`_gauss_jordan` by Gauss-Jordan elimination with partial
    pivoting, each row swap flipping the sign; without ``inverse``, of the
    rows below each pivot only.  A singular matrix meets a zero pivot; it
    gets sign 0, and a unit pivot in its place lets the elimination run on
    without a warning, leaving its log|det| and inverse meaningless."""
    a, n = A.shape[0], A.shape[2]
    width = 2 * a if inverse else a
    M = np.zeros((a, width, n))  # [A | I], reduced in place to [I | A^-1]
    M[:, :a] = A
    if inverse:
        M.reshape(width * a, n)[a :: width + 1] = 1.0
    pivots = np.empty((a, n))
    sign = np.ones(n)
    for j in range(a):
        for r in range(j + 1, a):  # ends with the largest |M[r, j]|, r >= j, in row j
            swap = np.abs(M[r, j]) > np.abs(M[j, j])
            if swap.any():
                top = M[j].copy()
                np.copyto(M[j], M[r], where=swap)
                np.copyto(M[r], top, where=swap)
                np.negative(sign, out=sign, where=swap)
        d = pivots[j]
        d[:] = M[j, j]
        if not d.all():
            zero = d == 0.0
            sign[zero] = 0.0
            d[zero] = 1.0
        row = M[j] / d
        rows = M if inverse else M[j + 1 :]
        rows -= rows[:, j, None] * row
        M[j] = row
    sign *= np.sign(pivots).prod(axis=0)
    return sign, np.log(np.abs(pivots)).sum(axis=0), M[:, a:] if inverse else None


def _variable_tables(
    b: np.ndarray, V: np.ndarray, omega: np.ndarray, beta_of_b: np.ndarray,
    members: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """beta, log Z_v, 1 / Z_v, the V sums over each block divided by Z_v,
    xbar_v and each bit's level's share e^beta / Z_v, at b laid end to end."""
    beta = beta_of_b @ b
    # log Z_v with the largest of 0 and the block's beta factored out
    top = (members * beta).max(axis=1, initial=0.0)
    log_z = top + np.log(np.exp(-top) + members @ np.exp(beta - top @ members))
    inv_z = np.exp(-log_z)
    sums = (members @ V) * inv_z[:, None]
    return beta, log_z, inv_z, sums, sums * omega, np.exp(beta - log_z @ members)


def _bit_terms(
    beta: np.ndarray, V: np.ndarray, omega: np.ndarray, on: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """e^-beta and x of the a-space determinants, computed on the bits of
    the boolean mask ``on`` and 0 elsewhere; an overflow is left as inf or
    nan for the caller's rule, under the caller's errstate."""
    decay = np.zeros(len(beta))
    decay[on] = np.exp(-beta[on])
    return decay, decay[:, None] * V * omega  # x_v(l) on the bit each level ends on


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
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows fails the rule below
        beta, log_z, inv_z, sums, x_bar, share = _variable_tables(b, V, omega, plan.beta_of_b,
                                                                  plan.members)
        decay, x = _bit_terms(beta, V, omega, plan.bit_counts > 0)
        w_bit = w.take(schema.block_maps.var, axis=0)  # each bit's w_v
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
        + share * ((n - (x_bar * to_x_bar).sum(axis=1)) @ plan.members)
    )
    g_w = n * x_bar @ inv_bar.T - plan.members @ (T * x[:, None, :]).sum(axis=2)
    g_V = omega * (plan.members.T @ (to_x_bar * inv_z[:, None]) - decay[:, None] * per_bit)
    g_omega = (to_x_bar * sums).sum(axis=0) - (decay[:, None] * V * per_bit).sum(axis=0)
    return nll, np.concatenate(
        [plan.beta_of_b.T @ g_beta, g_w.ravel(), g_V.ravel(), g_omega]
    )


_BORDER_BELOW = 1e-3  # s_v under which a column is bordered, not divided by s_v


@np.errstate(over="ignore", invalid="ignore")  # what overflows fails _probabilities' rule
def _allowed_state_probabilities(schema: VariableSchema, sp: StructuredParams) -> np.ndarray:
    """Probability of every row of :func:`allowed_table` under ``sp``, from
    a x a determinants: e^(sum_v beta_v(l_v) - sum_v log Z_v) det A_s / det Abar.

    Each chunk of 2**14 rows is built as :func:`_likelihood` builds its
    states: one GEMM of the per-bit terms (x_r w_r^T flattened, beta_r)
    against the chunk's :func:`_ends` gives every (A_s - I, sum_v beta_v).
    x_r divides by its level's share e^beta / Z_v, so it is formed only where
    the share is at least 1e-3; a state with a rarer level is the pattern
    fixing every bit, for the border of :func:`_pattern_probabilities`.  The
    rule of :func:`grassmann._probabilities` holds: [-1e-12, 0) becomes 0.0,
    a singular A_s gives +0.0, and an overflow (x, x w^T, the GEMM, Abar),
    a singular Abar (so lam) or a non-finite parameter raises ParameterError."""
    b, w, V, omega = flat_params(schema, sp)
    q, a = V.shape
    bits = allowed_table(schema)[0]
    beta, log_z, _, _, x_bar, share = _variable_tables(b, V, omega, *_bit_maps(schema))
    rare = share < _BORDER_BELOW
    x = _bit_terms(beta, V, omega, ~rare)[1]
    sign_bar, logdet_bar, _ = _gauss_jordan((np.eye(a) + x_bar.T @ w)[:, :, None], False)
    if sign_bar[0] == 0:
        raise ParameterError("lam is singular")
    w_bit = w.take(schema.block_maps.var, axis=0)
    terms = np.vstack([(x[:, :, None] * w_bit[:, None, :]).reshape(q, a * a).T, beta])
    log_norm = log_z.sum() + logdet_bar[0]
    probs = np.empty(len(bits))
    for lo in range(0, len(bits), _CHUNK):
        chunk = terms @ _ends(schema, bits[lo : lo + _CHUNK])
        n = chunk.shape[1]
        A = chunk[: a * a]  # A_s - I over the chunk's states
        A[:: a + 1] += 1.0
        sign, logdet, _ = _gauss_jordan(A.reshape(a, a, n), False)
        probs[lo : lo + n] = _probabilities(sign, chunk[a * a] + logdet - log_norm, sign_bar[0])
        if rare.any():  # the states with a level on a rare bit
            rows = lo + np.flatnonzero(rare @ _ends(schema, bits[lo : lo + _CHUNK]))
            probs[rows] = _pattern_probabilities(schema, sp, np.ones((rows.size, q)), bits[rows])
    return probs


@np.errstate(over="ignore", invalid="ignore")  # what overflows fails _probabilities' rule
def _pattern_probabilities(
    schema: VariableSchema, sp: StructuredParams, fixed: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Probability under ``sp`` of each pattern of dummy bits, from a x a
    determinants: row i of the (n, q) 0/1 arrays ``fixed`` and ``values``
    marks the bits pattern i fixes and gives their values.

    det A_s is affine in each variable's column, and e^beta_v(l) x_v(l) =
    omega * V[r_v(l)], so summing variable v over the set L_v of its levels
    whose bits agree with the pattern gives one column.  With s_v =
    sum_(l in L_v) e^beta_v(l) / Z_v and u_v = omega * sum_(l in L_v)
    V[r_v(l)] / Z_v, that column is u_v / s_v, and

        P = prod_(constrained v) s_v * det A_L / det Abar,   A_L = I + sum_v (u_v / s_v) w_v^T.

    A variable the pattern leaves free keeps s_v = 1 and u_v = xbar_v
    exactly, and A_L is built as Abar plus the constrained variables'
    changes, so the empty pattern gives exactly 1.0.  Dividing by s_v costs
    about eps / s_v of relative accuracy, and cannot divide by s_v = 0, so a
    constrained variable with s_v < 1e-3 keeps its column undivided in a
    border instead: row a + j holds (-w_v, s_v) and column a + j holds
    u_v - s_v xbar_v, and the bordered determinant is s_v times the divided
    one.  The border is as wide as the most such variables of any pattern,
    with a unit diagonal in unused slots; usually it is empty.  A pattern
    that leaves a variable no level has a zero border column, so it gives
    +0.0.  The patterns and Abar, last, are one stacked elimination.  The
    rule of :func:`grassmann._probabilities` holds; an overflow, a singular
    Abar (so lam) or a non-finite parameter raises ParameterError."""
    b, w, V, omega = flat_params(schema, sp)
    q, a = V.shape
    n = len(fixed)
    var = schema.block_maps.var
    beta_of_b, members = _bit_maps(schema)
    beta, log_z, inv_z, _, x_bar, share = _variable_tables(b, V, omega, beta_of_b, members)
    # the bits each pattern, then Abar's empty one, fixes, and those it fixes to 1
    fixes = np.zeros((2, q, n + 1))
    fixes[0, :, :n] = fixed.T
    fixes[1, :, :n] = (fixed * values).T
    set_bits = members @ fixes[1]
    # the level ending on bit r sets the bits of row r of beta_of_b and clears
    # the rest of its block; level 0 clears the whole block
    agree = beta_of_b @ (fixes[0] - 2.0 * fixes[1]) + set_bits[var] == 0
    mass = members @ (share[:, None] * agree) + inv_z[:, None] * (set_bits == 0)
    constrained = members @ fixes[0] > 0
    border = constrained & (mass < _BORDER_BELOW)
    s = np.where(constrained & ~border, mass, 1.0)
    # A_L - Abar = sum_r E[r] omega V[r] w_r^T / Z_v, E[r] = [level agrees] / s_v - 1
    per_bit = V * (omega * inv_z[var, None])
    terms = (per_bit[:, :, None] * w[var][:, None, :]).reshape(q, a * a).T
    A = terms @ np.where(border[var], 0.0, agree / s[var] - 1.0)
    A += (np.eye(a) + x_bar.T @ w).reshape(a * a, 1)
    M = A.reshape(a, a, n + 1)
    if border.any():
        v, i = np.nonzero(border)
        j = a + np.cumsum(border, axis=0)[v, i] - 1
        k = int(j.max()) + 1
        bordered = np.zeros((k, k, n + 1))
        bordered[:a, :a] = M
        bordered[a:, a:] = np.eye(k - a)[:, :, None]
        bordered[:a, j, i] = per_bit.T @ (members[v].T * agree[:, i]) - x_bar[v].T * mass[v, i]
        bordered[j, :a, i] = -w[v]
        bordered[j, j, i] = mass[v, i]
        M = bordered
    sign, logdet, _ = _gauss_jordan(M, False)
    if sign[n] == 0:
        raise ParameterError("lam is singular")
    return _probabilities(sign[:n], (np.log(s).sum(axis=0) + logdet - logdet[n])[:n], sign[n])


@np.errstate(over="ignore", invalid="ignore")  # what overflows raises below
def _structured_moments(schema: VariableSchema, sp: StructuredParams) -> tuple[np.ndarray, ...]:
    """Mean and covariance of the dummy bits under ``sp``, from sig = lam^-1
    by Woodbury on lam = D + W Omega V^T, D = I + K, without lam.  Within a
    block (D^-1)_rs = beta_of_b[r, s] - m_s, m = beta_of_b^T share being the
    independence model's bit means, and D^-1 W has rows w_v / Z_v, so M =
    I + Omega V^T D^-1 W is Abar and sig = D^-1 - (D^-1 W) M^-1 (Omega V^T
    D^-1).  "lam is singular" when M is; a ParameterError that says
    "overflows" when M, M^-1 or sig is not finite."""
    b, w, V, omega = flat_params(schema, sp)
    beta_of_b, members = _bit_maps(schema)
    _, _, inv_z, _, x_bar, share = _variable_tables(b, V, omega, beta_of_b, members)
    d_inv = beta_of_b - (members.T @ members) * (beta_of_b.T @ share)
    M = np.eye(omega.size) + x_bar.T @ w  # built as the table and prob build Abar
    sign, _, inv = _gauss_jordan(M[:, :, None], True)
    finite = np.isfinite(M).all()
    if finite and sign[0] == 0:
        raise ParameterError("lam is singular")
    var = schema.block_maps.var  # D^-1 W is inv_z[var] * w[var], and M^-1 is inv[:, :, 0]
    sig = d_inv - (inv_z[var, None] * w[var]) @ inv[:, :, 0] @ (omega[:, None] * (V.T @ d_inv))
    if not (finite and np.isfinite(inv).all() and np.isfinite(sig).all()):
        raise ParameterError("a moment overflows: Abar, its inverse or sig = lam^-1 is not finite")
    return _sigma_moments(sig)


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


# -- the restart / penalty-ramp driver ---------------------------------------

def _penalized_fit(
    seed: int, restarts: int, weight0: float,
    start: Callable[[np.random.Generator], np.ndarray],
    solve: Callable[[np.ndarray, float], OptimizeResult],
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
            # escapes the flat-progress stalls that a penalty's kinks or the
            # certified fit's wall can cause.
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
    plan = _table_plan(schema, counts)  # the state cap fails before any optimizing
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

    def solve(x: np.ndarray, _: float) -> OptimizeResult:
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

    # no penalty: the ramp check always passes, so each restart runs one ramp
    (nll, _), x, success, iterations = _penalized_fit(
        config.seed, config.restarts, 0.0, start, solve, lambda x: True, key,
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
