"""Shared random-instance generators for the test suite.

Two families of valid parameters are used throughout:

* ``random_valid_params`` builds lam = I + B C^-1 from a row-dominant B
  (nonnegative diagonal) and a strictly row-dominant C (positive diagonal),
  which guarantees the P0 property of lam - I; this covers unstructured
  binary distributions.

* ``random_certified_structured`` draws structured parameters and keeps a
  draw when (a) the free-row dominance margins of the middle factor pass and
  (b) the extended (q + a) parameter passes the exhaustive positivity check.
  Validity of the extended distribution implies validity of its observed
  marginal, so the generator never relies on enumerating the observed state
  space itself.
"""

from __future__ import annotations

import numpy as np

from grasscat.grassmann import GrassmannParams, check_p0
from grasscat.schema import VariableDecl, VariableKind, VariableSchema
from grasscat.structure import StructuredParams, _k_and_w, extended_lambda

CAT = VariableKind.CATEGORICAL
ORD = VariableKind.ORDINAL


def random_dominant(rng: np.random.Generator, n: int, strict: bool, scale: float = 0.7) -> np.ndarray:
    """Row diagonally dominant matrix with nonnegative (strict: positive) diagonal."""
    A = rng.normal(size=(n, n)) * scale
    off = np.abs(A).sum(axis=1) - np.abs(np.diag(A))
    slack = rng.uniform(0.05, 1.0, n) if strict else rng.uniform(0.0, 1.0, n)
    np.fill_diagonal(A, off + slack)
    return A


def random_valid_params(rng: np.random.Generator, q: int, max_cond: float = 1e6) -> GrassmannParams:
    """A valid (P0, positive determinant) unstructured parameter."""
    while True:
        B = random_dominant(rng, q, strict=False)
        C = random_dominant(rng, q, strict=True)
        lam = np.eye(q) + B @ np.linalg.inv(C)
        if np.linalg.cond(lam) < max_cond:
            return GrassmannParams.from_lambda(lam)


def random_schema(
    rng: np.random.Generator, max_q: int, min_vars: int = 1, max_levels: int = 4
) -> VariableSchema:
    """Random schema whose dummy dimension does not exceed max_q."""
    decls = []
    q = 0
    n = 0
    while True:
        kind = CAT if rng.random() < 0.5 else ORD
        levels = int(rng.integers(2, max_levels + 1))
        if q + levels - 1 > max_q:
            break
        decls.append(VariableDecl(f"v{n}", kind, levels))
        q += levels - 1
        n += 1
        if n >= min_vars and rng.random() < 0.3:
            break
    if not decls:
        decls = [VariableDecl("v0", CAT, 2)]
    return VariableSchema(decls)


def random_structured(
    rng: np.random.Generator,
    schema: VariableSchema,
    a: int,
    b_scale: float = 1.0,
    w_scale: float = 0.4,
) -> StructuredParams:
    return StructuredParams(
        b=tuple(rng.normal(0.0, b_scale, v.block_size) for v in schema.variables),
        w=tuple(rng.normal(0.0, w_scale, a) for _ in schema.variables),
        V=rng.normal(0.0, w_scale, (schema.q, a)),
        omega=rng.uniform(0.2, 0.8, a),
    )


def dominance_friendly_b(rng: np.random.Generator, schema: VariableSchema):
    """Per-variable biases whose block's first row is diagonally dominant by
    construction (up to the low-rank coupling terms): the categorical lead
    bias outweighs the rest, and ordinal cumulative products decay."""
    out = []
    for v in schema.variables:
        k = v.block_size
        if v.kind is CAT:
            if k == 1:
                out.append(rng.normal(0.0, 1.0, 1))
                continue
            rest = rng.normal(-0.5, 0.7, k - 1)
            slack = rng.uniform(0.1, 1.0)
            lead = np.log(np.exp(rest).sum() + slack)
            out.append(np.concatenate([[lead], rest]))
        else:
            lead = rng.normal(0.0, 1.0, 1)
            rest = rng.normal(-1.2, 0.6, k - 1)
            if k > 1:
                tail = np.exp(np.cumsum(rest)).sum()
                cap = rng.uniform(0.3, 0.9)
                if tail > cap:
                    rest[0] += np.log(cap / tail)
            out.append(np.concatenate([lead, rest]))
    return tuple(out)


def _worst_free_row_margin(schema: VariableSchema, sp: StructuredParams) -> float:
    """The least dominance margin 2|m_kk| - sum_l |m_kl| over the free rows
    of the middle factor M = [[K + W V^T, -W], [-V^T, I]]: the first row of
    each block and the auxiliary rows.  This is the margin of B = M C at
    slack C = I; a draw filter only, since it does not certify positivity."""
    q, a = schema.q, sp.a
    M = np.zeros((q + a, q + a))
    K, W = _k_and_w(schema, np.concatenate(sp.b), np.reshape(sp.w, (len(schema), a)))
    M[:q, :q] = K + W @ sp.V.T
    M[:q, q:] = -W
    M[q:, :q] = -sp.V.T
    M[q:, q:] = np.eye(a)
    free = np.concatenate([[s for s, _ in schema.blocks], np.arange(q, q + a)]).astype(int)
    A = np.abs(M[free])
    return float((2.0 * A[np.arange(len(free)), free] - A.sum(axis=1)).min())


def random_certified_structured(
    rng: np.random.Generator,
    schema: VariableSchema,
    a: int,
    max_tries: int = 200,
) -> StructuredParams:
    """Rejection-sample structured parameters that pass both the free-row
    dominance margins and the extended positivity enumeration."""
    scale = 0.3
    for attempt in range(max_tries):
        sp = StructuredParams(
            b=dominance_friendly_b(rng, schema),
            w=tuple(rng.normal(0.0, scale, a) for _ in schema.variables),
            V=rng.normal(0.0, scale, (schema.q, a)),
            omega=rng.uniform(0.2, 0.8, a),
        )
        if _worst_free_row_margin(schema, sp) < 0.0:
            scale *= 0.9
            continue
        ext = GrassmannParams.from_lambda(extended_lambda(schema, sp))
        if check_p0(ext).passed:
            return sp
        scale *= 0.9
    raise RuntimeError(f"no certified draw in {max_tries} tries for {schema!r}")


def reader_style_schema() -> VariableSchema:
    return VariableSchema(
        [
            VariableDecl("Working", CAT, 2),
            VariableDecl("Age", CAT, 3),
            VariableDecl("Edu", ORD, 4),
        ]
    )


def reader_style_true_params(seed: int = 2024) -> StructuredParams:
    """A fixed, moderately correlated ground-truth model on the reader-style
    schema, used to draw synthetic datasets."""
    rng = np.random.default_rng(seed)
    schema = reader_style_schema()
    return StructuredParams(
        b=(np.array([0.4]), np.array([0.3, -0.2]), np.array([0.5, -0.3, -0.6])),
        w=(np.array([0.5, -0.3]), np.array([-0.4, 0.5]), np.array([0.6, 0.4])),
        V=rng.normal(0.0, 0.35, (schema.q, 2)),
        omega=np.array([0.4, 0.6]),
    )


def sample_rows_from_probs(rng, schema, states, probs, n):
    from grasscat.schema import decode_state

    probs = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    probs = probs / probs.sum()
    draws = rng.multinomial(n, probs)
    rows = []
    for state, count in zip(states, draws):
        rec = decode_state(schema, state)
        rows.extend([rec] * int(count))
    return rows
