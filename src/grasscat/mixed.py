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
L/U are marginalized (missing), and K/T are conditioned on.

Every density reads one table per model: det((lam - I)[R1, R1]) for all
2**q subsets, indexed by bit mask and computed once by the popcount-batched
minor kernel that also serves :func:`grasscat.grassmann.all_state_probabilities`.
The normalized partition weights are cached beside it.  A query gathers the
rows it needs (the observed ones plus every subset of the free bits), forms
G^T 1_{R1} for each row by doubling, and applies the exponential tilt and the
Gaussian factor to all rows at once, with one Cholesky factor and one solve
against it.  Sums over rows run in mask order through numpy, not one
subset at a time, so a density can differ from a plain loop over subsets in
its last digit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .caps import check_bit_cap
from .errors import ParameterError
from .grassmann import GrassmannParams, _principal_minor_table

_LOG2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)  # array fields: compare by identity
class MixedParams:
    """(mu, sigma) of the continuous block, the binary matrix parameter lam,
    and the (q, p) interaction matrix with rows g_s."""

    mu: np.ndarray
    sigma: np.ndarray
    lam: np.ndarray
    G: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        G = np.asarray(self.G, dtype=float)
        p = mu.shape[0]
        q = lam.shape[0] if lam.ndim == 2 else 0
        if sigma.shape != (p, p):
            raise ParameterError(f"sigma shape {sigma.shape} != ({p},{p})")
        if lam.ndim != 2 or lam.shape != (q, q):
            raise ParameterError("lam must be square")
        if G.shape != (q, p):
            raise ParameterError(f"G shape {G.shape} != ({q},{p})")
        for name, arr in (("mu", mu), ("sigma", sigma), ("lam", lam), ("G", G)):
            if arr.size and not np.isfinite(arr).all():
                raise ParameterError(f"{name} contains non-finite entries")
        if p:
            if np.abs(sigma - sigma.T).max() > 1e-10:
                raise ParameterError("sigma must be symmetric")
            try:
                np.linalg.cholesky(sigma)
            except np.linalg.LinAlgError as exc:
                raise ParameterError("sigma must be positive definite") from exc
        for name, arr in (("mu", mu), ("sigma", sigma), ("lam", lam), ("G", G)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return self.mu.shape[0]

    @property
    def q(self) -> int:
        return self.lam.shape[0]

    # The two tables below have 2**q entries: read them only after check_bit_cap.

    @functools.cached_property
    def _minor_table(self) -> np.ndarray:
        """det((lam - I)[R1, R1]) of every subset R1, indexed by bit mask."""
        return _principal_minor_table(self.lam - np.eye(self.q))

    @functools.cached_property
    def _partition_weights(self) -> np.ndarray:
        """Normalized pi_{R1}(sigma) of every subset R1, indexed by bit mask."""
        _, v = _subset_sums((), range(self.q), self.G)
        terms = _tilted(self._minor_table, 0.5 * _quad(v, self.sigma))
        total = terms.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise ParameterError("mixture normalizer is nonpositive; parameters invalid")
        return terms / total


@dataclass(frozen=True)
class MixedPartition:
    """Explicit split of continuous indices into (J, L, K) and binary indices
    into (S, U, T): query / marginalized / conditioned."""

    J: tuple[int, ...]
    L: tuple[int, ...]
    K: tuple[int, ...]
    S: tuple[int, ...]
    U: tuple[int, ...]
    T: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("J", "L", "K", "S", "U", "T"):
            object.__setattr__(self, name, tuple(sorted(getattr(self, name))))

    def validate(self, p: int, q: int) -> None:
        cont = (*self.J, *self.L, *self.K)
        if sorted(cont) != list(range(p)):
            raise ParameterError(f"(J, L, K) must partition 0..{p - 1}")
        binr = (*self.S, *self.U, *self.T)
        if sorted(binr) != list(range(q)):
            raise ParameterError(f"(S, U, T) must partition 0..{q - 1}")


def _mask(indices) -> int:
    return sum(1 << int(i) for i in indices)


def _subset_sums(base, free, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sets base + R for every subset R of ``free``: their bit masks and
    their rows of G summed (G^T 1_{R1}, one row per set).

    Built by doubling, so free[k] is bit k of the row number; with base empty
    and free = 0..q-1 the rows are in mask order.
    """
    masks = np.array([_mask(base)], dtype=np.int64)
    sums = G[list(base)].sum(axis=0, keepdims=True)
    for i in free:
        masks = np.concatenate([masks, masks | (1 << int(i))])
        sums = np.concatenate([sums, sums + G[i]])
    return masks, sums


def _quad(v: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """v_n^T mat v_n for every row v_n of v."""
    return ((v @ mat) * v).sum(axis=1)


def _tilted(dets: np.ndarray, log_tilt: np.ndarray) -> np.ndarray:
    """det * exp(log_tilt) per row; a minor that is exactly zero weighs zero
    whatever its tilt."""
    return np.where(dets == 0.0, 0.0, dets * np.exp(log_tilt))


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.shape != (mp.p,) or y.shape != (mp.q,):
        raise ParameterError("x or y has the wrong length")
    check_bit_cap(mp.q)
    pi = mp._partition_weights[_mask(np.flatnonzero(y))]
    if pi == 0.0:
        return 0.0
    mean = mp.mu + mp.sigma @ (mp.G.T @ y)
    return float(pi * np.exp(_log_normals(x, mean[None, :], mp.sigma)[0]))


def mixed_marginal_density(
    mp: MixedParams,
    part: MixedPartition,
    x_K: np.ndarray,
    y_T,
) -> float:
    """Marginal density of (x_K, y_T): everything else is summed/integrated out."""
    part.validate(mp.p, mp.q)
    x_K = np.asarray(x_K, dtype=float)
    y_T = np.asarray(y_T, dtype=int)
    K = list(part.K)
    T = list(part.T)
    if x_K.shape != (len(K),) or y_T.shape != (len(T),):
        raise ParameterError("x_K or y_T has the wrong length")
    check_bit_cap(mp.q)
    t1 = [t for t, bit in zip(T, y_T) if bit]
    masks, v = _subset_sums(t1, sorted((*part.S, *part.U)), mp.G)
    pi = mp._partition_weights[masks]
    if not K:
        return float(pi.sum())
    keep = pi != 0.0
    means = mp.mu[K] + v[keep] @ mp.sigma[K, :].T
    return float(pi[keep] @ np.exp(_log_normals(x_K, means, mp.sigma[np.ix_(K, K)])))


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
    missing binaries.
    """
    part.validate(mp.p, mp.q)
    check_bit_cap(mp.q)
    x_J = np.asarray(x_J, dtype=float)
    x_K = np.asarray(x_K, dtype=float)
    y_S = np.asarray(y_S, dtype=int)
    y_T = np.asarray(y_T, dtype=int)
    J, L, K = list(part.J), list(part.L), list(part.K)
    S, U, T = list(part.S), list(part.U), list(part.T)
    if x_J.shape != (len(J),) or x_K.shape != (len(K),):
        raise ParameterError("x_J or x_K has the wrong length")
    if y_S.shape != (len(S),) or y_T.shape != (len(T),):
        raise ParameterError("y_S or y_T has the wrong length")

    JL = sorted(J + L)
    if K:
        sigma_kk = mp.sigma[np.ix_(K, K)]
        try:
            kk_inv = np.linalg.inv(sigma_kk)
        except np.linalg.LinAlgError as exc:
            raise ParameterError("sigma[K, K] is singular") from exc
        dx = x_K - mp.mu[K]
        shift = mp.sigma[:, K] @ kk_inv @ dx  # the tilt adds (G^T 1_{R1}) @ shift
        sigma_jl_cond = (
            mp.sigma[np.ix_(JL, JL)]
            - mp.sigma[np.ix_(JL, K)] @ kk_inv @ mp.sigma[np.ix_(K, JL)]
        )
    else:
        shift = np.zeros(mp.p)
        sigma_jl_cond = mp.sigma[np.ix_(JL, JL)]

    t1 = [t for t, bit in zip(T, y_T) if bit]
    s1 = [s for s, bit in zip(S, y_S) if bit]
    masks, v = _subset_sums(t1, sorted(S + U), mp.G)
    v_jl = v[:, JL]
    wgt = _tilted(mp._minor_table[masks], 0.5 * _quad(v_jl, sigma_jl_cond) + v @ shift)
    denom = wgt.sum()
    if denom <= 0.0:
        raise ParameterError("conditioning event has zero probability")

    # numerator: the rows whose S bits are y_S
    rows = ((masks & _mask(S)) == _mask(s1)) & (wgt != 0.0)
    if not J:
        return float(wgt[rows].sum() / denom)
    pos_j = [JL.index(j) for j in J]
    sigma_j_cond = sigma_jl_cond[np.ix_(pos_j, pos_j)]
    if K:
        base_mean = mp.mu[J] + mp.sigma[np.ix_(J, K)] @ kk_inv @ dx
        cross = (
            mp.sigma[np.ix_(J, JL)]
            - mp.sigma[np.ix_(J, K)] @ kk_inv @ mp.sigma[np.ix_(K, JL)]
        )
    else:
        base_mean = mp.mu[J]
        cross = mp.sigma[np.ix_(J, JL)]
    means = base_mean + v_jl[rows] @ cross.T
    numer = wgt[rows] @ np.exp(_log_normals(x_J, means, sigma_j_cond))
    return float(numer / denom)


def conditional_binary_given_continuous(
    mp: MixedParams,
    x: np.ndarray,
    T: tuple[int, ...] = (),
    y_T=(),
) -> GrassmannParams:
    """Parameter of p(y_S | x, y_T) where S is the complement of T.

    The parameter is I + C_st Exp, with C_st the pivot-reduced block
    (lam - I)[S,S] - lam[S,T1] inv(lam[T1,T1] - I) lam[T1,S] and Exp the
    diagonal of exp(g_s @ (x - mu)) over s in S.  Validity for arbitrary x is
    not guaranteed; callers should check the result when it matters.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (mp.p,):
        raise ParameterError(f"x must have length {mp.p}")
    T = tuple(sorted(int(t) for t in T))
    y_T = np.asarray(y_T, dtype=int)
    if y_T.shape != (len(T),):
        raise ParameterError("y_T length must match T")
    S = tuple(i for i in range(mp.q) if i not in set(T))
    if not S:
        raise ParameterError("S is empty; nothing to condition")
    t1 = [t for t, bit in zip(T, y_T) if bit]
    Sl = list(S)
    lam_mi = mp.lam - np.eye(mp.q)
    core = lam_mi[np.ix_(Sl, Sl)]
    if t1:
        pivot = mp.lam[np.ix_(t1, t1)] - np.eye(len(t1))
        rcond = 1.0 / np.linalg.cond(pivot)
        if not np.isfinite(rcond) or rcond < 1e-12:
            raise ParameterError(
                "lam[T1, T1] - I is singular; conditioning event has zero probability"
            )
        core = core - mp.lam[np.ix_(Sl, t1)] @ np.linalg.solve(
            pivot, mp.lam[np.ix_(t1, Sl)]
        )
    tilt = np.exp(mp.G[Sl, :] @ (x - mp.mu))
    lam_cond = np.eye(len(Sl)) + core * tilt[None, :]
    return GrassmannParams.from_lambda(lam_cond)
