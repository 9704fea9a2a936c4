"""Brute-force reference implementations used by the test suite.

Everything here recomputes probabilities from first principles with code
paths deliberately different from the main modules: determinants come from
numpy written out here (no ``np.linalg``, no ``scipy.linalg`` and no
``grassmann`` or ``fit`` helper), and marginals/conditionals are plain
summations and ratios over the full state table.  Independence is the
point.  The table's 2**q principal minors of lam - I come from one walk of
the subset lattice by Schur complements (Griffin & Tsatsomeros, Linear
Algebra Appl. 419, 2006), in q vectorized steps: including index j
multiplies a minor by the current pivot, and excluding j drops its row and
column.  That shares nothing with the a-space kernels' a x a determinants
or ``grassmann``'s slogdet per popcount group.  What the recursion does not
vouch for, and det lam, come from Gaussian elimination with partial
pivoting over a stack held matrix-index-first, as (n, n, N), so each pivot
search, row swap and rank-1 update is a handful of operations on
contiguous N-vectors.  The table's moments are those of its weighted states
(:func:`grasscat.grassmann.weighted_moments`), not the Woodbury form that
``oracle check`` tests.  ``oracle check`` compares the table with the
a-space kernels of :mod:`grasscat.structure` that the commands run: the
allowed-state table (``sample``, the fit), the moments (``moments``, the
fit's report) and one-bit patterns (``prob``).  This table is the one place
a command builds a structured model's lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caps import check_bit_cap
from .errors import ParameterError
from .grassmann import GrassmannParams, weighted_moments

_CHUNK = 2**14  # masks per elimination pass: bounds the stacked minors
_BIG = np.finfo(float).max / 16  # keeps the recursion's bound finite


def _eliminate(stack: np.ndarray) -> np.ndarray:
    """Determinants of a stack held matrix-index-first, (n, n, N), so that
    every pivot search, swap and rank-1 update works on contiguous N-vectors:
    Gaussian elimination with partial pivoting, each row swap flipping the
    sign.  The stack may be overwritten.  Elimination meets an all-zero pivot
    column in a matrix with repeated rows or a zero column, so its
    determinant is 0.0."""
    n, _, m = stack.shape
    flat = np.ascontiguousarray(stack).reshape(-1)
    stack = flat.reshape(n, n, m)
    cells = np.arange(n * m).reshape(n, m)  # offsets of (column, matrix) in a row
    det = np.ones(m)
    for k in range(n):
        piv = k + np.argmax(np.abs(stack[k:, k]), axis=0)
        at = piv * (n * m) + cells[k:]  # row piv's columns k.. of each matrix
        top = stack[k, k:].copy()
        stack[k, k:] = flat.take(at)
        flat.put(at, top)
        det[piv != k] *= -1.0
        pivot = stack[k, k]
        det *= pivot
        # a zero pivot is the largest of an all-zero column: nothing to eliminate
        factor = stack[k + 1 :, k] / np.where(pivot == 0.0, 1.0, pivot)
        stack[k + 1 :, k + 1 :] -= factor[:, None, :] * stack[k, k + 1 :]
    return det + 0.0  # no -0.0


def _naive_det(a: np.ndarray):
    """Determinant of every matrix of a stack (..., n, n), a float for one
    matrix: :func:`_eliminate` on a matrix-index-first copy."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    stack = a.reshape(int(np.prod(a.shape[:-2])), n, n)
    det = _eliminate(np.moveaxis(stack, 0, -1).copy())
    return float(det[0]) if a.ndim == 2 else det.reshape(a.shape[:-2])


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


def _schur_minors(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every principal minor of a q x q matrix, mask m's at row m, and the
    masks the recursion does not vouch for.  Step j splits each matrix of
    the stack, held matrix-index-first, in two: "j excluded" is rest, and
    "j included" is rest - (col / p) row, its minor times p, so bit j of the
    row means j included.  A pivot whose column or row is all zero leaves
    rest as it is, and a zero pivot there is an exact 0.0.  A zero pivot
    with a nonzero row and column, or an update beyond 16 max|mat|, flags
    the included subtree, which carries rest unchanged and stays finite."""
    bound = 16.0 * min(float(np.abs(mat).max(initial=0.0)), _BIG)
    stack = mat[:, :, None]
    det = np.ones(1)
    flagged = np.zeros(1, dtype=bool)
    for _ in range(mat.shape[0]):
        p, col, row, rest = stack[0, 0], stack[1:, 0], stack[0, 1:], stack[1:, 1:]
        with np.errstate(over="ignore", invalid="ignore"):  # what overflows fails the guard
            mult = col / np.where(p == 0.0, 1.0, p)
            size = np.abs(mult).max(axis=0, initial=0.0) * np.abs(row).max(axis=0, initial=0.0)
        exact = ~(col.any(axis=0) & row.any(axis=0))
        bad = ~exact & ((p == 0.0) | ~(size <= bound))
        mult[:, exact | bad] = 0.0
        stack = np.concatenate([rest, rest - mult[:, None, :] * row], axis=2)
        det = np.concatenate([det, det * p])
        flagged = np.concatenate([flagged, flagged | bad])
    return det + 0.0, flagged  # no -0.0


def _principal_minors(mat: np.ndarray) -> np.ndarray:
    """All 2**q principal minors of a q x q matrix, mask m's at row m: by
    :func:`_schur_minors`, and each mask it flags by one :func:`_eliminate`
    per popcount of its chunk."""
    q = mat.shape[0]
    minors, flagged = _schur_minors(mat)
    masks, flat = np.flatnonzero(flagged), mat.ravel()
    for lo in range(0, masks.size, _CHUNK):
        chunk = masks[lo : lo + _CHUNK]
        bits = (chunk[:, None] >> np.arange(q)) & 1
        popcounts = bits.sum(axis=1)
        for k in np.unique(popcounts):
            rows = np.flatnonzero(popcounts == k)
            # a contiguous (k, N) index gathers a contiguous (k, k, N) stack
            idx = np.nonzero(bits[rows])[1].reshape(rows.size, k).T.copy()
            minors[chunk[rows]] = _eliminate(flat[idx[:, None, :] * q + idx[None, :, :]])
    return minors


def brute_force_table(p: GrassmannParams) -> FullTable:
    """Exact state table, state m holding bit i of mask m in column i: the
    principal minors of lam - I over det lam."""
    q = p.q
    check_bit_cap(q)
    det_l = _naive_det(p.lam)
    if det_l == 0.0:
        raise ParameterError("lam is singular")
    probs = _principal_minors(p.lam - np.eye(q)) / det_l
    states = (np.arange(2**q)[:, None] >> np.arange(q)) & 1
    mean, cov, corr = weighted_moments(states, probs)
    return FullTable(states=states, probs=probs, mean=mean, cov=cov, corr=corr)


def _table_indices(table: FullTable, index_set) -> tuple[int, ...]:
    """``index_set`` as a tuple of ints in the caller's order; ParameterError
    for an index outside [0, q) or a repeated one."""
    index_set = tuple(int(i) for i in index_set)
    if any(i < 0 or i >= table.q for i in index_set):
        raise ParameterError(f"index set {index_set} out of range")
    if len(set(index_set)) != len(index_set):
        raise ParameterError(f"index set {index_set} repeats an index")
    return index_set


def oracle_marginal(table: FullTable, T) -> dict[tuple[int, ...], float]:
    """Marginal probabilities of y_T by direct summation over the complement,
    each key's k-th entry the value of bit T[k]."""
    T = _table_indices(table, T)
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
    """p(y_S | y_T) by summation and ratio, y_T[k] the value of bit T[k] and
    each key's k-th entry the value of bit S[k]."""
    S, T = _table_indices(table, S), _table_indices(table, T)
    if set(S) & set(T):
        raise ParameterError(f"S {S} and T {T} share an index")
    if any(bit not in (0, 1) for bit in y_T):
        raise ParameterError("y_T entries must be 0 or 1")
    y_T = tuple(int(b) for b in y_T)
    if len(y_T) != len(T):
        raise ParameterError("y_T length must match T")
    sel = np.all(table.states[:, T] == np.asarray(y_T), axis=1)
    denom = float(table.probs[sel].sum())
    out: dict[tuple[int, ...], float] = {}
    if denom <= 1e-300:
        return OracleConditional(probs=out, defined=False)
    for state, prob in zip(table.states[sel], table.probs[sel]):
        key = tuple(int(state[s]) for s in S)
        out[key] = out.get(key, 0.0) + float(prob) / denom
    return OracleConditional(probs=dict(sorted(out.items())), defined=True)
