"""Exact joint, marginal, and conditional probabilities of the determinantal
binary distribution, plus moments and the positivity check.

The distribution over bit vectors y of length q is parametrized by a
nonsingular q x q matrix lam (with sig = lam^-1 cached alongside):

    p(y) = det((lam - I)[R1, R1]) / det(lam),     R1 = {r : y_r = 1},

with the empty minor's determinant defined as 1.  Validity requires lam - I
to be a P0-matrix (all principal minors nonnegative) and det(lam) > 0, which
together make every state probability nonnegative; the probabilities then sum
to one identically.

Every principal minor here comes from one kernel, :func:`_log_minors`:
the rows of a 0/1 matrix grouped by popcount, and one stacked ``slogdet``
per group.  :func:`state_probabilities` calls it for the rows it is given,
and :func:`all_state_probabilities` (and through it :func:`check_p0`) for
each chunk of 2**14 masks.  The mixed densities of :mod:`grasscat.mixed`
walk the subsets they sum over by Schur complements instead, and take from
it only the minors that walk flags or cannot start.  ``check_p0``, :func:`moments` and the
marginal and conditional parameters serve a general lam.  A structured
model's pattern probabilities (``prob``), allowed states (``sample``, the
fit's certificate) and moments (``moments``, the fit's report), which
``oracle check`` tests, come from a x a determinants in
:mod:`grasscat.structure` instead; the moments share :func:`_sigma_moments`.
Both end in one rule, :func:`_probabilities`, on parameters checked once,
finiteness included (``GrassmannParams``, or :func:`structure.flat_params`
for a structured model): a state of sign 0 gives +0.0 (a singular minor's
log|det| is -inf), and any other whose log-ratio or probability overflows
raises.

Index sets keep the caller's order, and results follow it.  Observed bits
are one pair (T, y_T), y_T[k] the value of bit T[k], checked by
:func:`_observed_bits`; the target set S is every other bit, in order.
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


def _check_square(mat: np.ndarray, name: str) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParameterError(f"{name} must be square, got shape {mat.shape}")


def _inverse_pair(mat, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``mat`` as a float array and its inverse; ParameterError unless it is
    square and nonsingular."""
    mat = np.asarray(mat, dtype=float)
    _check_square(mat, name)
    try:
        return mat, np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"{name} is singular: {exc}") from exc


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
        _check_square(lam, "lam")
        if sig.shape != lam.shape:
            raise ParameterError("lam and sig shapes differ")
        if not (np.isfinite(lam).all() and np.isfinite(sig).all()):
            raise ParameterError("parameters contain non-finite entries")
        err = np.abs(lam @ sig - np.eye(lam.shape[0])).max(initial=0.0)
        if err > _CONSISTENCY_TOL:
            raise ParameterError(
                f"lam @ sig deviates from identity by {err:.3e} (tol {_CONSISTENCY_TOL})"
            )
        object.__setattr__(self, "lam", _freeze(lam))
        object.__setattr__(self, "sig", _freeze(sig))

    @classmethod
    def from_lambda(cls, lam: np.ndarray) -> "GrassmannParams":
        lam, sig = _inverse_pair(lam, "lam")
        return cls(lam=lam, sig=sig)

    @classmethod
    def from_sigma(cls, sig: np.ndarray) -> "GrassmannParams":
        sig, lam = _inverse_pair(sig, "sig")
        return cls(lam=lam, sig=sig)

    @property
    def q(self) -> int:
        return self.lam.shape[0]


def _index_set(T: Sequence[int], q: int) -> list[int]:
    """``T`` as a list of ints in the caller's order; ParameterError unless
    its indices are distinct and in [0, q)."""
    T = [int(t) for t in T]
    if len(set(T)) != len(T) or any(t < 0 or t >= q for t in T):
        raise ParameterError(f"T {tuple(T)} must be distinct indices in [0, {q})")
    return T


def _bits(y, name: str) -> np.ndarray:
    """``y`` as an int array (a bool one as it is) after checking that every entry is 0 or 1."""
    y = np.asarray(y)
    if y.dtype == bool:
        return y
    if not ((y == 0) | (y == 1)).all():
        raise ParameterError(f"{name} entries must be 0 or 1")
    return y.astype(int)


def _observed_bits(T, y_T, q: int) -> tuple[list[int], np.ndarray]:
    """The observed bits (T, y_T) in the caller's order, y_T[k] the value of
    bit T[k]; ParameterError unless y_T holds one 0/1 entry per index."""
    T, y_T = _index_set(T, q), _bits(y_T, "y_T")
    if y_T.shape != (len(T),):
        raise ParameterError("y_T length must match T")
    return T, y_T


def joint_probability(p: GrassmannParams, y: Sequence[int]) -> float:
    """Probability of the full bit vector ``y``: :func:`state_probabilities`
    of the one row ``y``; ParameterError unless every entry is 0 or 1."""
    y = _bits(y, "y")
    if y.shape != (p.q,):
        raise ParameterError(f"y must have length {p.q}, got shape {y.shape}")
    return float(state_probabilities(p, y[None, :])[0])


def _log_minors(mat: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log|det| of mat[R, R] for the index set R of every row of the
    0/1 matrix ``states``, from one stacked ``slogdet`` per popcount; the
    empty minor is (1, 0) and a singular one (0, -inf)."""
    states = np.asarray(states, dtype=bool)
    popcounts = states.sum(axis=1)
    sign = np.ones(len(states))
    logdet = np.zeros(len(states))
    flat, q = mat.ravel(), mat.shape[0]
    for k in 1 + np.flatnonzero(np.bincount(popcounts)[1:]):
        rows = np.flatnonzero(popcounts == k)
        idx = np.nonzero(states[rows])[1].reshape(rows.size, k)
        cells = idx[:, :, None] * q + idx[:, None, :]
        sign[rows], logdet[rows] = np.linalg.slogdet(flat.take(cells))
    return sign, logdet


def state_probabilities(p: GrassmannParams, states: np.ndarray) -> np.ndarray:
    """Probability of every row of the 0/1 matrix ``states``.

    Each is det((lam - I)[R1, R1]) / det(lam), with the minors from
    :func:`_log_minors`.  Values within 1e-12 below zero are clamped to
    exactly zero; anything more negative is returned as is so invalid
    parameters remain visible.  An entry other than 0 or 1 raises.
    """
    states = _bits(states, "states")
    if states.ndim != 2 or states.shape[1] != p.q:
        raise ParameterError(f"states must have shape (n, {p.q}), got {states.shape}")
    sign_l, logdet_l = np.linalg.slogdet(p.lam)
    if sign_l == 0:
        raise ParameterError("lam is singular")
    sign, logdet = _log_minors(p.lam - np.eye(p.q), states)
    return _probabilities(sign, logdet - logdet_l, sign_l)


def _probabilities(sign: np.ndarray, log_ratio: np.ndarray, sign_norm: float) -> np.ndarray:
    """sign * sign_norm * e^log_ratio for states whose determinants have
    signs ``sign`` and log|ratios| ``log_ratio`` to a normalizer of sign
    ``sign_norm``; values in [-1e-12, 0) are clamped to 0.0 and a state of
    sign 0 gives +0.0, whatever its log-ratio.  ParameterError when another
    state's log-ratio, or any probability, is not finite (an overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        prob = sign * sign_norm * np.exp(log_ratio)
    prob[sign == 0] = 0.0  # a singular one over a negative normalizer is -0.0; report +0.0
    if not (np.isfinite(prob).all() and np.isfinite(log_ratio[sign != 0]).all()):
        raise ParameterError("a state probability overflows: a determinant is not finite")
    prob[(-_CLAMP <= prob) & (prob < 0.0)] = 0.0
    return prob


def marginal_params(p: GrassmannParams, T: Sequence[int]) -> GrassmannParams:
    """Parameter of the marginal distribution over index set T: just sig[T, T]."""
    T = _index_set(T, p.q)
    if not T:
        raise ParameterError("marginal index set must be nonempty")
    try:
        return GrassmannParams.from_sigma(p.sig[np.ix_(T, T)])
    except ParameterError as exc:
        raise ParameterError(f"sig[T, T] is singular for T={T}") from exc


def _solve_pivot(block: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve block @ x = rhs, treating (near-)singular blocks as conditioning
    on an event of probability zero."""
    if block.size:  # np.linalg.cond raises on a 0 x 0 block
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


def _pivot_correction(lam: np.ndarray, S, T1) -> np.ndarray:
    """lam[S,T1] inv(lam[T1,T1] - I) lam[T1,S], the term that conditioning
    on y_T1 = 1 subtracts from lam's S rows and columns."""
    pivot = lam[np.ix_(T1, T1)] - np.eye(len(T1))
    return lam[np.ix_(S, T1)] @ _solve_pivot(pivot, lam[np.ix_(T1, S)], "lam[T1,T1] - I")


def conditional_params(p: GrassmannParams, T: Sequence[int], y_T) -> GrassmannParams:
    """Parameter of the conditional distribution of y_S given the observed
    bits y_T, y_T[k] the value of bit T[k]; S is every other bit, in
    increasing order, and T1 the entries of T observed as 1.

    The conditioning matrix is sig with its T1 columns negated and the
    identity added on the T1 diagonal; the conditional parameter is its Schur
    complement onto S.  The equivalent lam-side expression
    ``inv(lam[S,S] - lam[S,T1] inv(lam[T1,T1] - I) lam[T1,S])`` is evaluated
    as well and the two are required to agree within 1e-9.
    """
    T, y_T = _observed_bits(T, y_T, p.q)
    S = np.setdiff1d(np.arange(p.q), T)
    T1 = np.asarray([t for t, bit in zip(T, y_T) if bit], dtype=int)
    T = np.asarray(T, dtype=int)
    if S.size == 0:
        raise ParameterError("conditional target set S must be nonempty")

    tilde = p.sig.copy()
    tilde[:, T1] *= -1.0
    tilde[T1, T1] += 1.0
    tt = tilde[np.ix_(T, T)]
    solve_ts = _solve_pivot(tt, tilde[np.ix_(T, S)], "the conditioning block")
    schur = tilde[np.ix_(S, S)] - tilde[np.ix_(S, T)] @ solve_ts

    # cross-check through the lam-side formula whenever it is defined
    lam_form = p.lam[np.ix_(S, S)] - _pivot_correction(p.lam, S, T1)
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
    """Mean vector and covariance matrix of the dummy bits, from ``p.sig``."""
    return _sigma_moments(p.sig)


def _sigma_moments(sig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the dummy bits from sig = lam^-1.

    mean_r = 1 - sig_rr; cov_rs = -sig_rs sig_sr off the diagonal; the
    diagonal carries the Bernoulli variance sig_rr (1 - sig_rr), which is
    forced by y_r**2 = y_r.
    """
    d = np.diag(sig).copy()
    mean = 1.0 - d
    cov = -(sig * sig.T)
    np.fill_diagonal(cov, d * (1.0 - d))
    return mean, cov


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
    """Pearson correlation of a covariance matrix: 1.0 on the diagonal, and
    NaN, never +-inf, for a pair whose product of standard deviations is 0.0."""
    std = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    scale = np.outer(std, std)
    corr = np.divide(cov, scale, out=np.full_like(cov, np.nan), where=scale != 0.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def conditional_zero_moments(p: GrassmannParams, r: int, s: int) -> tuple[float, float]:
    """Conditional mean of y_r and covariance of (y_r, y_s) given that every
    other bit is observed as zero."""
    if not (0 <= r < p.q and 0 <= s < p.q):
        raise ParameterError(f"indices r={r} and s={s} must lie in [0, {p.q})")
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


_CHUNK = 2**14  # masks per kernel call: bounds the bit rows and the minors


def _mask_bits(masks: np.ndarray, q: int) -> np.ndarray:
    """The 0/1 rows of bit masks, bit i of each mask in column i."""
    return (masks[:, None] & (1 << np.arange(q))) != 0


def all_state_probabilities(p: GrassmannParams) -> np.ndarray:
    """Probabilities of all 2**q states, ordered by the binary value of the
    bit vector with bit 0 least significant: :func:`state_probabilities` of
    each chunk of 2**14 masks, so memory stays bounded at large q."""
    check_bit_cap(p.q)
    probs = np.empty(2**p.q)
    for lo in range(0, probs.size, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, probs.size))
        probs[lo : lo + masks.size] = state_probabilities(p, _mask_bits(masks, p.q))
    return probs


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

    The minimum is read after :func:`state_probabilities` clamps values in
    [-1e-12, 0) to 0.0.  Passing means min >= -1e-12 and |sum - 1| <= 1e-10,
    which is equivalent to lam - I being a P0-matrix with det(lam) > 0 up to
    round-off.
    """
    return _p0_report(all_state_probabilities(p), p.q)


def _p0_report(probs: np.ndarray, q: int) -> P0Report:
    """The :func:`check_p0` report of the :func:`all_state_probabilities`
    vector ``probs`` over q bits."""
    imin = int(np.argmin(probs))
    state = tuple((imin >> b) & 1 for b in range(q))
    total = float(probs.sum())
    passed = probs[imin] >= -_CLAMP and abs(total - 1.0) <= 1e-10
    return P0Report(
        n_states=probs.size,
        min_probability=float(probs[imin]),
        argmin_state=state,
        probability_sum=total,
        passed=bool(passed),
    )
