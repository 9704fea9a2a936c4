"""Brute-force reference implementations used by the test suite.

Everything here recomputes probabilities from first principles with code
paths deliberately different from the main modules: determinants are expanded
by cofactors up to order 6 and by an explicit LU factorization above, and
marginals/conditionals are plain summations and ratios over the full state
table.  Slowness is acceptable; independence is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .caps import check_bit_cap
from .errors import ParameterError
from .grassmann import GrassmannParams
from .schema import VariableSchema, decode_state, DummyState
from .errors import InvalidStateError


def _naive_det(a: np.ndarray) -> float:
    """Determinant by cofactor expansion (order <= 6) or explicit LU above."""
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n <= 6:
        rows = a.tolist()
        memo: dict[tuple[int, ...], float] = {}

        def minor(cols: tuple[int, ...]) -> float:
            """Determinant of the last len(cols) rows restricted to cols,
            expanded along its first row; repeated minors are looked up."""
            if cols in memo:
                return memo[cols]
            row = rows[n - len(cols)]
            if len(cols) == 1:
                det = row[cols[0]]
            elif len(cols) == 2:
                below = rows[n - 1]
                det = row[cols[0]] * below[cols[1]] - row[cols[1]] * below[cols[0]]
            else:
                det = 0.0
                sign = 1.0
                for j, c in enumerate(cols):
                    if row[c] != 0.0:
                        det += sign * row[c] * minor(cols[:j] + cols[j + 1:])
                    sign = -sign
            memo[cols] = det
            return det

        return minor(tuple(range(n)))
    p, l, u = scipy.linalg.lu(a)
    # det(p) is +-1 depending on the permutation parity
    perm = np.argmax(p, axis=0)
    parity = 1.0
    seen = np.zeros(n, dtype=bool)
    for i in range(n):
        if seen[i]:
            continue
        j = i
        ln = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            parity = -parity
    return float(parity * np.prod(np.diag(u)))


@dataclass(frozen=True)
class FullTable:
    """All 2**q states with probabilities and the derived moments."""

    states: np.ndarray  # (2**q, q) of 0/1
    probs: np.ndarray  # (2**q,)
    mean: np.ndarray
    cov: np.ndarray
    corr: np.ndarray

    @property
    def q(self) -> int:
        return self.states.shape[1]


def brute_force_table(p: GrassmannParams) -> FullTable:
    """Exact state table by per-state determinant evaluation."""
    q = p.q
    check_bit_cap(q)
    det_l = _naive_det(p.lam) if q else 1.0
    if det_l == 0.0:
        raise ParameterError("lam is singular")
    lam_mi = p.lam - np.eye(q)
    n = 2**q
    states = np.zeros((n, q), dtype=int)
    probs = np.zeros(n)
    for mask in range(n):
        idx = [i for i in range(q) if (mask >> i) & 1]
        states[mask, idx] = 1
        sub = lam_mi[np.ix_(idx, idx)]
        probs[mask] = _naive_det(sub) / det_l
    mean = probs @ states
    centered = states - mean
    cov = (probs[:, None] * centered).T @ centered
    std = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = cov / np.outer(std, std)
    if q:
        np.fill_diagonal(corr, 1.0)
    return FullTable(states=states, probs=probs, mean=mean, cov=cov, corr=corr)


def oracle_marginal(table: FullTable, T) -> dict[tuple[int, ...], float]:
    """Marginal probabilities of y_T by direct summation over the complement."""
    T = tuple(sorted(int(t) for t in T))
    if any(t < 0 or t >= table.q for t in T):
        raise ParameterError(f"index set {T} out of range")
    # key code: y_T read as a binary number, first index most significant, so
    # codes ascend in key order; bincount adds each code's terms in state order
    m = len(T)
    codes = table.states[:, list(T)] @ (1 << np.arange(m - 1, -1, -1))
    sums = np.bincount(codes, weights=table.probs, minlength=2**m)
    return {
        tuple((code >> (m - 1 - k)) & 1 for k in range(m)): float(total)
        for code, total in enumerate(sums)
    }


@dataclass(frozen=True)
class OracleConditional:
    """Conditional S-pattern probabilities; ``defined`` is False when the
    conditioning event itself has probability zero."""

    probs: dict[tuple[int, ...], float]
    defined: bool


def oracle_conditional(table: FullTable, S, T, y_T) -> OracleConditional:
    """p(y_S | y_T) by summation and ratio."""
    S = tuple(sorted(int(s) for s in S))
    T = tuple(sorted(int(t) for t in T))
    y_T = tuple(int(b) for b in y_T)
    if len(y_T) != len(T):
        raise ParameterError("y_T length must match T")
    sel = np.all(table.states[:, T] == np.asarray(y_T), axis=1) if T else np.ones(
        len(table.probs), dtype=bool
    )
    denom = float(table.probs[sel].sum())
    out: dict[tuple[int, ...], float] = {}
    if denom <= 1e-300:
        return OracleConditional(probs=out, defined=False)
    for state, prob in zip(table.states[sel], table.probs[sel]):
        key = tuple(int(state[s]) for s in S)
        out[key] = out.get(key, 0.0) + float(prob) / denom
    return OracleConditional(probs=dict(sorted(out.items())), defined=True)


def allowed_restriction(
    table: FullTable, schema: VariableSchema
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the table that satisfy the schema's block constraints."""
    keep = []
    for i, state in enumerate(table.states):
        try:
            decode_state(schema, DummyState(tuple(int(b) for b in state)))
        except InvalidStateError:
            continue
        keep.append(i)
    keep = np.asarray(keep, dtype=int)
    return table.states[keep], table.probs[keep]
