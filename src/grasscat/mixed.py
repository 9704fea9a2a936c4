"""Joint distribution coupling continuous variables with binary dummies.

The joint density over (x in R^p, y in {0,1}^q) is

    p(x, y) = pi_{R1}(sigma) N(x | mu + sigma G^T 1_{R1}, sigma),
    pi_{R1}(sigma) propto det((lam - I)[R1, R1]) exp(1_{R1}^T G sigma G^T 1_{R1} / 2),

normalized over all 2**q subsets R1.  Marginals over any mix of continuous
and binary coordinates stay closed form (a mixture of equal-covariance
normals), and so do conditionals; when conditioning on all continuous
variables the binary block is again of determinantal form with an
exponential tilt applied columnwise.

Index bookkeeping follows an explicit partition: continuous indices split
into (J, L, K) and binary into (S, U, T), where J/S are query coordinates,
L/U are marginalized (missing), and K/T are conditioned on.  Each set keeps
the caller's order, and the values x_J, y_S, x_K and y_T follow it: entry k
belongs to the k-th index of its set.

Every density is :func:`mixed_conditional_density`; the joint and the
marginal densities are conditionals with nothing given.  A query sums over
the sets T1 + R: T1 the observed bits that are 1, and R every subset of the
free (queried and marginalized) bits.  It walks those sets by Schur
complements (:func:`_subset_minors`): T1's block is folded in by one block
elimination, then each free bit is one vectorized step that doubles the
sets' masks, their G^T 1_{R1} rows and the signs and log|det| of their
principal minors of lam - I.  Only the sets the walk flags (a zero pivot
with a nonzero row and column, or growth beyond 16 max|lam - I|), and all
of them when T1's block is singular or its fold grows past that bound, take
their minors from :func:`grasscat.grassmann._log_minors`, in chunks of
2**14.  One walk serves every query shape.  The density adds the
exponential tilt in log space and subtracts the largest log-weight before
``exp``, so conditioning values far in the tails do not overflow; the
Gaussian factor of all rows comes from one Cholesky factor and one solve
against it.  Nothing is cached on the model: a conditional costs 2**(free
bits) minors, a joint or marginal 2**q for its normalizer.  Sums over rows
run in mask order through numpy, not one subset at a time, so a density
can differ from a plain loop over subsets in its last digits.  The factor
model reads its Gaussian block by this module's checks and normal density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caps import check_bit_cap
from .errors import ParameterError
from .grassmann import (
    _CHUNK, GrassmannParams, _bits, _freeze, _log_minors, _mask_bits, _observed_bits,
    _pivot_correction,
)

_LOG2PI = float(np.log(2.0 * np.pi))
_BIG = np.finfo(float).max / 16  # keeps the walk's growth bound finite


def _check_finite(**arrays) -> None:
    """ParameterError naming the first of ``arrays`` that is not finite."""
    for name, value in arrays.items():
        if not np.isfinite(value).all():
            raise ParameterError(f"{name} contains non-finite entries")


def _covariance_root(cov, name: str) -> np.ndarray:
    """Lower Cholesky factor of ``cov``; ParameterError unless it is symmetric within
    1e-10 (tested first: the factor reads one triangle) and positive definite."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape == cov.T.shape and np.abs(cov - cov.T).max(initial=0.0) > 1e-10:
        raise ParameterError(f"{name} must be symmetric")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"{name} must be positive definite") from exc


@dataclass(frozen=True, eq=False)  # array fields: compare by identity
class MixedParams:
    """(mu, sigma) of the continuous block, the binary matrix parameter lam,
    and the (q, p) interaction matrix with rows g_s."""

    mu: np.ndarray
    sigma: np.ndarray
    lam: np.ndarray
    G: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "lam", "G"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        mu, sigma, lam, G = self.mu, self.sigma, self.lam, self.G
        p = mu.shape[0]
        q = lam.shape[0] if lam.ndim == 2 else 0
        if sigma.shape != (p, p):
            raise ParameterError(f"sigma shape {sigma.shape} != ({p},{p})")
        if lam.ndim != 2 or lam.shape != (q, q):
            raise ParameterError("lam must be square")
        if G.shape != (q, p):
            raise ParameterError(f"G shape {G.shape} != ({q},{p})")
        _check_finite(**vars(self))
        _covariance_root(sigma, "sigma")

    @property
    def p(self) -> int:
        return self.mu.shape[0]

    @property
    def q(self) -> int:
        return self.lam.shape[0]


@dataclass(frozen=True)
class MixedPartition:
    """Explicit split of continuous indices into (J, L, K) and binary indices
    into (S, U, T): query / marginalized / conditioned, each in the caller's
    order."""

    J: tuple[int, ...]
    L: tuple[int, ...]
    K: tuple[int, ...]
    S: tuple[int, ...]
    U: tuple[int, ...]
    T: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("J", "L", "K", "S", "U", "T"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def validate(self, p: int, q: int) -> None:
        cont = (*self.J, *self.L, *self.K)
        if sorted(cont) != list(range(p)):
            raise ParameterError(f"(J, L, K) must partition 0..{p - 1}")
        binr = (*self.S, *self.U, *self.T)
        if sorted(binr) != list(range(q)):
            raise ParameterError(f"(S, U, T) must partition 0..{q - 1}")


def _mask(indices) -> int:
    return sum(1 << int(i) for i in indices)


def _subset_minors(
    lam_mi: np.ndarray, base, free, G: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sets base + R for every subset R of ``free``: their bit masks, their
    rows of G summed (G^T 1_{R1}, one row per set), and the sign and log|det|
    of their principal minors of ``lam_mi``.

    One walk of the subset lattice by Schur complements (Griffin &
    Tsatsomeros, Linear Algebra Appl. 419, 2006).  The base block is folded
    in first: its ``slogdet``, and the Schur complement onto the free bits by
    one solve.  Then each free bit is one step that doubles the four arrays,
    so free[k] is bit k of the row number; with base empty and free =
    0..q-1 the rows are in mask order.  A step splits each matrix of the
    stack, held matrix-index-first, in two: "excluded" is rest, and
    "included" is rest - (col / p) row, its minor times p.  A zero pivot
    whose row or column is all zero leaves rest as it is, and its minor is
    an exact 0.  A zero pivot with a nonzero row and column, or an update
    beyond 16 max|lam_mi|, flags the included subtree, which carries rest
    unchanged; a singular base block, or an update of it beyond that bound,
    flags every row.  A flagged row's log|det| is NaN until
    :func:`_log_minors` gives its minor.
    """
    q, b = lam_mi.shape[0], len(base)
    bound = 16.0 * min(float(np.abs(lam_mi).max(initial=0.0)), _BIG)
    mat = lam_mi[np.ix_([*base, *free], [*base, *free])]
    stack = mat[b:, b:]
    masks = np.array([_mask(base)], dtype=np.int64)
    sums = G[list(base)].sum(axis=0, keepdims=True)
    sign, logdet = np.ones(1), np.zeros(1)
    if b:
        sign[0], logdet[0] = np.linalg.slogdet(mat[:b, :b])
        update = mat[b:, :b] @ np.linalg.solve(mat[:b, :b], mat[:b, b:]) if sign[0] else np.inf
        if np.abs(update).max(initial=0.0) <= bound:
            stack = stack - update
        else:
            logdet[0] = np.nan
    stack = stack[:, :, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in free:
            p, col, row, rest = stack[0, 0], stack[1:, 0], stack[0, 1:], stack[1:, 1:]
            mult = col / p  # at a zero p, inf or NaN: the guard flags it
            size = np.abs(mult).max(axis=0, initial=0.0) * np.abs(row).max(axis=0, initial=0.0)
            zero = p == 0.0
            if zero.any():  # unless its row or column is all zero: no update, an exact 0
                exact = zero & ~(col.any(axis=0) & row.any(axis=0))
                mult[:, exact], size[exact] = 0.0, 0.0
            log_p = np.log(np.abs(p))
            bad = ~(size <= bound)
            if bad.any():
                mult[:, bad], log_p[bad] = 0.0, np.nan
            stack = np.concatenate([rest, rest - mult[:, None, :] * row], axis=2)
            sign = np.concatenate([sign, sign * np.sign(p)])
            logdet = np.concatenate([logdet, logdet + log_p])
            masks = np.concatenate([masks, masks | (1 << int(i))])
            sums = np.concatenate([sums, sums + G[i]])
    redo = np.flatnonzero(np.isnan(logdet))
    for lo in range(0, redo.size, _CHUNK):
        chunk = redo[lo : lo + _CHUNK]
        sign[chunk], logdet[chunk] = _log_minors(lam_mi, _mask_bits(masks[chunk], q))
    return masks, sums, sign, logdet


def _quad(v: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """v_n^T mat v_n for every row v_n of v."""
    return ((v @ mat) * v).sum(axis=1)


def _log_normals(x: np.ndarray, means: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """log N(x | mean, cov) for every row of ``means``, from one Cholesky
    factor and one solve against it."""
    chol = np.linalg.cholesky(cov)
    sol = np.linalg.solve(chol, (x - means).T)
    return (
        -0.5 * (sol * sol).sum(axis=0)
        - np.log(np.diag(chol)).sum()
        - 0.5 * x.shape[0] * _LOG2PI
    )


def mixed_joint_density(mp: MixedParams, x: np.ndarray, y) -> float:
    """Density of the full vector (x, y); reduces to a plain normal at q = 0."""
    everything = MixedPartition(J=range(mp.p), L=(), K=(), S=range(mp.q), U=(), T=())
    return mixed_conditional_density(mp, everything, x, y, (), ())


def mixed_marginal_density(
    mp: MixedParams,
    part: MixedPartition,
    x_K: np.ndarray,
    y_T,
) -> float:
    """Marginal density of (x_K, y_T): everything else is summed/integrated out."""
    queried = MixedPartition(
        J=part.K, L=(*part.J, *part.L), K=(), S=part.T, U=(*part.S, *part.U), T=()
    )
    return mixed_conditional_density(mp, queried, x_K, y_T, (), ())


def mixed_conditional_density(
    mp: MixedParams,
    part: MixedPartition,
    x_J: np.ndarray,
    y_S,
    x_K: np.ndarray,
    y_T,
) -> float:
    """Conditional density of (x_J, y_S) given (x_K, y_T), with (L, U)
    marginalized out.

    Weights use the Schur complement of the retained continuous block and an
    exponential shift from the conditioning values; the continuous factor is
    the usual Gaussian conditional, one component per assignment of the
    missing binaries.  With K and T empty it is the marginal density of
    (x_J, y_S), and with L and U empty as well the joint density.
    """
    part.validate(mp.p, mp.q)
    check_bit_cap(mp.q)
    x_J = np.asarray(x_J, dtype=float)
    x_K = np.asarray(x_K, dtype=float)
    y_S, y_T = _bits(y_S, "y_S"), _bits(y_T, "y_T")
    J, L, K = list(part.J), list(part.L), list(part.K)
    S, U, T = list(part.S), list(part.U), list(part.T)
    if x_J.shape != (len(J),) or x_K.shape != (len(K),):
        raise ParameterError("x_J or x_K has the wrong length")
    if y_S.shape != (len(S),) or y_T.shape != (len(T),):
        raise ParameterError("y_S or y_T has the wrong length")

    JL = sorted(J + L)
    shift = np.zeros(mp.p)  # the tilt adds (G^T 1_{R1}) @ shift
    sigma_jl_cond = mp.sigma[np.ix_(JL, JL)]
    mean_jl = mp.mu[JL]
    if K:  # at K = {} the conditioning takes 35-67 us, skipping it 6-11 us
        try:
            kk_inv = np.linalg.inv(mp.sigma[np.ix_(K, K)])
        except np.linalg.LinAlgError as exc:
            raise ParameterError("sigma[K, K] is singular") from exc
        dx = x_K - mp.mu[K]
        shift = mp.sigma[:, K] @ kk_inv @ dx
        gain_jl = mp.sigma[np.ix_(JL, K)] @ kk_inv
        sigma_jl_cond = sigma_jl_cond - gain_jl @ mp.sigma[np.ix_(K, JL)]
        mean_jl = mean_jl + gain_jl @ dx

    t1 = [t for t, bit in zip(T, y_T) if bit]
    s1 = [s for s, bit in zip(S, y_S) if bit]
    masks, v, sign, log_w = _subset_minors(mp.lam - np.eye(mp.q), t1, sorted(S + U), mp.G)
    # a zero minor weighs zero whatever its tilt
    live = sign != 0.0
    masks, v, sign = masks[live], v[live], sign[live]
    v_jl = v[:, JL]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        log_w = log_w[live] + 0.5 * _quad(v_jl, sigma_jl_cond) + v @ shift
    if not np.isfinite(log_w).all():
        raise ParameterError(
            "log-weights overflow; the parameters or conditioning values are too extreme"
        )
    wgt = sign * np.exp(log_w - log_w.max(initial=-np.inf))
    denom = wgt.sum()
    if not denom > 0.0:
        raise ParameterError(
            "conditioning event has zero probability"
            if K or T
            else "mixture normalizer is nonpositive; parameters invalid"
        )

    # numerator: the rows whose S bits are y_S
    rows = (masks & _mask(S)) == _mask(s1)
    if not J:  # a sum, not a dot with ones: the two round differently
        return float(wgt[rows].sum() / denom)
    pos_j = [JL.index(j) for j in J]
    sigma_j_cond = sigma_jl_cond[np.ix_(pos_j, pos_j)]
    means = mean_jl[pos_j] + v_jl[rows] @ sigma_jl_cond[pos_j].T
    numer = wgt[rows] @ np.exp(_log_normals(x_J, means, sigma_j_cond))
    return float(numer / denom)


def conditional_binary_given_continuous(
    mp: MixedParams,
    x: np.ndarray,
    T: tuple[int, ...] = (),
    y_T=(),
) -> GrassmannParams:
    """Parameter of p(y_S | x, y_T), y_T[k] the value of bit T[k] and S every
    other bit, in increasing order.

    The parameter is I + C_st Exp, with C_st the pivot-reduced block
    (lam - I)[S,S] - lam[S,T1] inv(lam[T1,T1] - I) lam[T1,S] and Exp the
    diagonal of exp(g_s @ (x - mu)) over s in S.  Validity for arbitrary x is
    not guaranteed; callers should check the result when it matters.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (mp.p,):
        raise ParameterError(f"x must have length {mp.p}")
    T, y_T = _observed_bits(T, y_T, mp.q)
    S = [i for i in range(mp.q) if i not in T]
    if not S:
        raise ParameterError("S is empty; nothing to condition")
    t1 = [t for t, bit in zip(T, y_T) if bit]
    lam_mi = mp.lam - np.eye(mp.q)
    core = lam_mi[np.ix_(S, S)] - _pivot_correction(mp.lam, S, t1)
    tilt = np.exp(mp.G[S, :] @ (x - mp.mu))
    lam_cond = np.eye(len(S)) + core * tilt[None, :]
    return GrassmannParams.from_lambda(lam_cond)
