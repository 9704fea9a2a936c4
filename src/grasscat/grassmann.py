"""Exact joint, marginal, and conditional probabilities of the determinantal
binary distribution, plus moments and the positivity check.

The distribution over bit vectors y of length q is parametrized by a
nonsingular q x q matrix lam (with sig = lam^-1 cached alongside):

    p(y) = det((lam - I)[R1, R1]) / det(lam),     R1 = {r : y_r = 1},

with the empty minor's determinant defined as 1.  Validity requires lam - I
to be a P0-matrix (all principal minors nonnegative) and det(lam) > 0, which
together make every state probability nonnegative; the probabilities then sum
to one identically.

Every walk over principal minors groups its index sets with one function,
:func:`popcount_groups`: :func:`state_probabilities` takes one stacked
``slogdet`` per group, the 2**q table behind :func:`check_p0` and the mixed
densities one stacked ``det`` per group of each chunk of masks, and the fit's
likelihood and gradient one ``slogdet`` and one ``inv`` per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .caps import check_bit_cap
from .errors import ConditioningError, ParameterError

_CLAMP = 1e-12  # exact-zero structure produces tiny negative round-off
_CONSISTENCY_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GrassmannParams:
    """Matrix parameter of the distribution and its cached inverse.

    Construct through :meth:`from_lambda` or :meth:`from_sigma`; both enforce
    ``lam @ sig = I`` elementwise within 1e-10.
    """

    lam: np.ndarray
    sig: np.ndarray

    def __post_init__(self) -> None:
        lam, sig = self.lam, self.sig
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise ParameterError(f"lam must be square, got shape {lam.shape}")
        if sig.shape != lam.shape:
            raise ParameterError("lam and sig shapes differ")
        if lam.size and not (np.isfinite(lam).all() and np.isfinite(sig).all()):
            raise ParameterError("parameters contain non-finite entries")
        q = lam.shape[0]
        if q:
            err = np.abs(lam @ sig - np.eye(q)).max()
            if err > _CONSISTENCY_TOL:
                raise ParameterError(
                    f"lam @ sig deviates from identity by {err:.3e} (tol {_CONSISTENCY_TOL})"
                )
        object.__setattr__(self, "lam", _freeze(lam))
        object.__setattr__(self, "sig", _freeze(sig))

    @classmethod
    def from_lambda(cls, lam: np.ndarray) -> "GrassmannParams":
        lam = np.asarray(lam, dtype=float)
        try:
            sig = np.linalg.inv(lam) if lam.size else np.zeros_like(lam)
        except np.linalg.LinAlgError as exc:
            raise ParameterError(f"lam is singular: {exc}") from exc
        return cls(lam=lam, sig=sig)

    @classmethod
    def from_sigma(cls, sig: np.ndarray) -> "GrassmannParams":
        sig = np.asarray(sig, dtype=float)
        try:
            lam = np.linalg.inv(sig) if sig.size else np.zeros_like(sig)
        except np.linalg.LinAlgError as exc:
            raise ParameterError(f"sig is singular: {exc}") from exc
        return cls(lam=lam, sig=sig)

    @property
    def q(self) -> int:
        return self.lam.shape[0]


@dataclass(frozen=True)
class IndexPartition:
    """Disjoint split of 0..q-1 into S and T, with T further split by
    observed value: T1 (observed 1) and T0 = T minus T1 (observed 0)."""

    S: tuple[int, ...]
    T: tuple[int, ...]
    T1: tuple[int, ...]

    def __post_init__(self) -> None:
        S, T, T1 = map(tuple, (sorted(self.S), sorted(self.T), sorted(self.T1)))
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "T1", T1)
        if set(S) & set(T):
            raise ParameterError(f"S and T overlap: {set(S) & set(T)}")
        if not set(T1) <= set(T):
            raise ParameterError("T1 must be a subset of T")

    def validate_cover(self, q: int) -> None:
        if set(self.S) | set(self.T) != set(range(q)):
            raise ParameterError(f"S + T must cover 0..{q - 1}")


def _as_index_set(T: Sequence[int], q: int) -> np.ndarray:
    idx = np.asarray(sorted(T), dtype=int)
    if idx.size != len(set(int(i) for i in T)):
        raise ParameterError(f"index set {T} contains duplicates")
    if idx.size and (idx[0] < 0 or idx[-1] >= q):
        raise ParameterError(f"index set {T} out of range 0..{q - 1}")
    return idx


def joint_probability(p: GrassmannParams, y: Sequence[int]) -> float:
    """Probability of the full bit vector ``y``: :func:`state_probabilities`
    of the one row ``y``."""
    y = np.asarray(y)
    if y.shape != (p.q,):
        raise ParameterError(f"y must have length {p.q}, got shape {y.shape}")
    return float(state_probabilities(p, y[None, :])[0])


def popcount_groups(states: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rows of a 0/1 state matrix grouped by popcount k, ascending: for each k
    present, the row positions (n_k,) and their set-bit indices (n_k, k),
    both in ascending order."""
    states = np.asarray(states, dtype=bool)
    popcounts = states.sum(axis=1)
    groups = []
    for k in np.unique(popcounts):
        rows = np.flatnonzero(popcounts == k)
        groups.append((rows, np.nonzero(states[rows])[1].reshape(rows.size, k)))
    return groups


def state_probabilities(p: GrassmannParams, states: np.ndarray) -> np.ndarray:
    """Probability of every row of the 0/1 matrix ``states``.

    Each is det((lam - I)[R1, R1]) / det(lam), from one stacked ``slogdet``
    per popcount group.  Values within 1e-12 below zero are clamped to
    exactly zero; anything more negative is returned as is so invalid
    parameters remain visible.
    """
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[1] != p.q:
        raise ParameterError(f"states must have shape (n, {p.q}), got {states.shape}")
    sign_l, logdet_l = np.linalg.slogdet(p.lam) if p.q else (1.0, 0.0)
    if sign_l == 0:
        raise ParameterError("lam is singular")
    sign = np.ones(len(states))
    logdet = np.zeros(len(states))
    for rows, idx in popcount_groups(states):
        k = idx.shape[1]
        if k:
            minors = p.lam[idx[:, :, None], idx[:, None, :]] - np.eye(k)
            sign[rows], logdet[rows] = np.linalg.slogdet(minors)
    prob = sign * sign_l * np.exp(logdet - logdet_l)
    prob[sign == 0] = 0.0
    prob[(-_CLAMP <= prob) & (prob < 0.0)] = 0.0
    return prob


def marginal_params(p: GrassmannParams, T: Sequence[int]) -> GrassmannParams:
    """Parameter of the marginal distribution over index set T: just sig[T, T]."""
    idx = _as_index_set(T, p.q)
    if idx.size == 0:
        raise ParameterError("marginal index set must be nonempty")
    sub = p.sig[np.ix_(idx, idx)]
    try:
        return GrassmannParams.from_sigma(sub)
    except ParameterError as exc:
        raise ParameterError(f"sig[T, T] is singular for T={list(idx)}") from exc


def _solve_pivot(block: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve block @ x = rhs, treating (near-)singular blocks as conditioning
    on an event of probability zero."""
    if block.size:
        rcond = 1.0 / np.linalg.cond(block)
        if not np.isfinite(rcond) or rcond < 1e-12:
            raise ConditioningError(
                f"conditioning event has probability zero ({what} is singular)"
            )
    try:
        return np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"conditioning event has probability zero ({what} is singular)"
        ) from exc


def conditional_params(p: GrassmannParams, part: IndexPartition) -> GrassmannParams:
    """Parameter of the conditional distribution of y_S given y_T.

    The conditioning matrix is sig with its T1 columns negated and the
    identity added on the T1 diagonal; the conditional parameter is its Schur
    complement onto S.  The equivalent lam-side expression
    ``inv(lam[S,S] - lam[S,T1] inv(lam[T1,T1] - I) lam[T1,S])`` is evaluated
    as well and the two are required to agree within 1e-9.
    """
    part.validate_cover(p.q)
    S = np.asarray(part.S, dtype=int)
    T = np.asarray(part.T, dtype=int)
    T1 = np.asarray(part.T1, dtype=int)
    if S.size == 0:
        raise ParameterError("conditional target set S must be nonempty")

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

    # cross-check through the lam-side formula whenever it is defined
    lam_ss = p.lam[np.ix_(S, S)]
    if T1.size:
        pivot = p.lam[np.ix_(T1, T1)] - np.eye(T1.size)
        corr = p.lam[np.ix_(S, T1)] @ _solve_pivot(
            pivot, p.lam[np.ix_(T1, S)], "lam[T1,T1] - I"
        )
        lam_form = lam_ss - corr
    else:
        lam_form = lam_ss
    try:
        sig_from_lam = np.linalg.inv(lam_form)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("conditional parameter is singular") from exc
    scale = 1.0 + np.abs(schur).max()
    err = np.abs(sig_from_lam - schur).max()
    if err > 1e-9 * scale:
        raise ParameterError(
            f"conditional parameter forms disagree by {err:.3e}; "
            "the parameter is too ill-conditioned to trust"
        )
    return GrassmannParams.from_sigma(schur)


def moments(p: GrassmannParams) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of the dummy bits.

    mean_r = 1 - sig_rr; cov_rs = -sig_rs sig_sr off the diagonal; the
    diagonal carries the Bernoulli variance sig_rr (1 - sig_rr), which is
    forced by y_r**2 = y_r.
    """
    d = np.diag(p.sig).copy()
    mean = 1.0 - d
    cov = -(p.sig * p.sig.T)
    np.fill_diagonal(cov, d * (1.0 - d))
    return mean, cov


def conditional_zero_moments(p: GrassmannParams, r: int, s: int) -> tuple[float, float]:
    """Conditional mean of y_r and covariance of (y_r, y_s) given that every
    other bit is observed as zero."""
    if r == s:
        raise ParameterError("indices r and s must differ")
    lam = p.lam
    if abs(lam[r, r]) < 1e-300:
        raise ConditioningError(f"lam[{r},{r}] is zero; conditional mean undefined")
    cond_mean = 1.0 - 1.0 / lam[r, r]
    denom = lam[r, r] * lam[s, s] - lam[r, s] * lam[s, r]
    if abs(denom) < 1e-300:
        raise ConditioningError("degenerate 2x2 pivot; conditional covariance undefined")
    cond_cov = -lam[r, s] * lam[s, r] / denom**2
    return float(cond_mean), float(cond_cov)


_TABLE_CHUNK = 2**14  # masks per chunk: bounds the index and minor arrays


def _principal_minor_table(mat: np.ndarray) -> np.ndarray:
    """det(mat[R, R]) for all 2**q index subsets R, indexed by the bit mask of
    R (bit i set when i is in R); the empty minor is 1.  Masks are walked in
    chunks of 2**14, each grouped by :func:`popcount_groups`, so memory stays
    bounded at large q.  Callers check the 2**q enumeration cap first."""
    q = mat.shape[0]
    dets = np.ones(2**q)
    for lo in range(0, 2**q, _TABLE_CHUNK):
        masks = np.arange(lo, min(lo + _TABLE_CHUNK, 2**q))
        for rows, idx in popcount_groups((masks[:, None] >> np.arange(q)) & 1):
            if idx.shape[1]:
                dets[masks[rows]] = np.linalg.det(mat[idx[:, :, None], idx[:, None, :]])
    return dets


def all_state_probabilities(p: GrassmannParams) -> np.ndarray:
    """Probabilities of all 2**q states, ordered by the binary value of the
    bit vector with bit 0 least significant."""
    q = p.q
    check_bit_cap(q)
    det_l = np.linalg.det(p.lam) if q else 1.0
    if det_l == 0:
        raise ParameterError("lam is singular")
    return _principal_minor_table(p.lam - np.eye(q)) / det_l


@dataclass(frozen=True)
class P0Report:
    """Outcome of the exhaustive positivity check."""

    n_states: int
    min_probability: float
    argmin_state: tuple[int, ...]
    probability_sum: float
    passed: bool


def check_p0(p: GrassmannParams) -> P0Report:
    """Evaluate all 2**q state probabilities and report the minimum and sum.

    Passing means min >= -1e-12 and |sum - 1| <= 1e-10, which is equivalent
    to lam - I being a P0-matrix with det(lam) > 0 up to round-off.
    """
    probs = all_state_probabilities(p)
    imin = int(np.argmin(probs))
    state = tuple((imin >> b) & 1 for b in range(p.q))
    total = float(probs.sum())
    passed = probs[imin] >= -1e-12 and abs(total - 1.0) <= 1e-10
    return P0Report(
        n_states=probs.size,
        min_probability=float(probs[imin]),
        argmin_state=state,
        probability_sum=total,
        passed=bool(passed),
    )
