"""Co-occurrence-killing parametrization of the distribution parameter.

The q x q parameter decomposes as

    lam - I = K + W diag(omega) V^T

where K is block diagonal over the schema's variable blocks:

  * categorical block: every row equals (exp(b_1), ..., exp(b_k)), so any
    minor touching two rows of the block vanishes and one-hot violations get
    probability exactly zero;
  * ordinal block: -1 on the subdiagonal plus a first row of cumulative
    products exp(b_1), exp(b_1 + b_2), ...; a set bit without its predecessor
    selects a zero row, again killing the minor.

W repeats a per-variable length-a row across categorical blocks and places it
only on the first row of ordinal blocks, which preserves both zero patterns
under the low-rank update.  The dominance conditions pair an auxiliary matrix
C (strictly row dominant) with row dominance of B = M C, where M is the
middle factor [[K + W V^T, -W], [-V^T, I]].

Row diagonal dominance of B is structurally unattainable on the repeated rows
of categorical blocks and on the subdiagonal rows of ordinal blocks (those
rows of M are forced and cannot be dominated for any C).  The dominance check
here therefore scores the free rows only: the first row of every block plus
the auxiliary rows.  Raw margins for all rows are still reported.  This
free-row check is a penalty target, not a positivity certificate: parameters
that pass it can still give an allowed state a negative probability.  The
exhaustive check on the extended (q + a) matrix is a rigorous alternative,
``check_p0(GrassmannParams.from_lambda(extended_lambda(schema, sp)))``:
validity of the extended distribution implies validity of its observed
marginal.  :func:`assemble_lambda` runs neither check.

Shapes are checked once, where they are read: :func:`validate_shapes` checks
V, omega and C, and :func:`quasi_diagonal_blocks` and
:func:`aux_loading_matrix` check the b and w vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SchemaError
from .grassmann import GrassmannParams, _freeze
from .schema import VariableKind, VariableSchema

OMEGA_EPS = 1e-6
TAU_C = 1e-8


@dataclass(frozen=True)
class StructuredParams:
    """Per-variable parameters plus the low-rank coupling and slack factor.

    b: one vector per variable, length = block size.
    w: one vector per variable, length = a (auxiliary dimension).
    V: (q, a) coupling directions.
    omega: (a,) diagonal weights in [OMEGA_EPS, 1 - OMEGA_EPS].
    C: (q + a, q + a) strictly row dominant slack factor; it does not enter
       the likelihood, only the dominance certificate.
    """

    b: tuple[np.ndarray, ...]
    w: tuple[np.ndarray, ...]
    V: np.ndarray
    omega: np.ndarray
    C: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(_freeze(v) for v in self.b))
        object.__setattr__(self, "w", tuple(_freeze(v) for v in self.w))
        object.__setattr__(self, "V", _freeze(self.V))
        object.__setattr__(self, "omega", _freeze(self.omega))
        object.__setattr__(self, "C", _freeze(self.C))

    @property
    def a(self) -> int:
        return self.V.shape[1]

    @classmethod
    def independent(
        cls, schema: VariableSchema, b_vectors, a: int = 0
    ) -> "StructuredParams":
        """Parameters with no coupling: W = 0, V = 0, omega = 1/2, C = I."""
        q = schema.q
        b = tuple(np.asarray(v, dtype=float) for v in b_vectors)
        w = tuple(np.zeros(a) for _ in schema.variables)
        return cls(
            b=b,
            w=w,
            V=np.zeros((q, a)),
            omega=np.full(a, 0.5),
            C=np.eye(q + a),
        )


def validate_shapes(schema: VariableSchema, sp: StructuredParams) -> None:
    """Check V, omega and C against the schema.  The b and w vectors are
    checked where they are read, by :func:`quasi_diagonal_blocks` and
    :func:`aux_loading_matrix`."""
    a = sp.a
    if sp.V.shape != (schema.q, a):
        raise SchemaError(f"V has shape {sp.V.shape}, expected ({schema.q}, {a})")
    if sp.omega.shape != (a,):
        raise SchemaError(f"omega has shape {sp.omega.shape}, expected ({a},)")
    if np.any(sp.omega < OMEGA_EPS) or np.any(sp.omega > 1.0 - OMEGA_EPS):
        raise ParameterError(
            f"omega entries must lie in [{OMEGA_EPS}, {1 - OMEGA_EPS}]"
        )
    n = schema.q + a
    if sp.C.shape != (n, n):
        raise SchemaError(f"C has shape {sp.C.shape}, expected ({n}, {n})")


def quasi_diagonal_blocks(schema: VariableSchema, b_vectors) -> np.ndarray:
    """The block-diagonal core K: repeated exponential rows for categorical
    blocks, subdiagonal -1 plus a cumulative-product first row for ordinal
    blocks.  Off-block entries are exactly zero."""
    b_vectors = [np.asarray(v, dtype=float) for v in b_vectors]
    if len(b_vectors) != len(schema):
        raise SchemaError(f"expected {len(schema)} b vectors, got {len(b_vectors)}")
    K = np.zeros((schema.q, schema.q))
    for j, v in enumerate(schema.variables):
        bv = b_vectors[j]
        if bv.shape != (v.block_size,):
            raise SchemaError(
                f"variable {v.name!r}: b vector has shape {bv.shape}, "
                f"expected ({v.block_size},)"
            )
        s, e = schema.blocks[j]
        if v.kind is VariableKind.CATEGORICAL:
            K[s:e, s:e] = np.exp(bv)[None, :]
        else:
            n = v.block_size
            if n > 1:
                K[s : e, s : e] += np.diag(np.full(n - 1, -1.0), -1)
            K[s, s:e] = np.exp(np.cumsum(bv))
    return K


def aux_loading_matrix(schema: VariableSchema, w_vectors, a: int) -> np.ndarray:
    """The (q, a) matrix W: identical rows within categorical blocks, only
    the first row nonzero within ordinal blocks."""
    w_vectors = [np.asarray(v, dtype=float) for v in w_vectors]
    if len(w_vectors) != len(schema):
        raise SchemaError(f"expected {len(schema)} w vectors, got {len(w_vectors)}")
    W = np.zeros((schema.q, a))
    for j, v in enumerate(schema.variables):
        wv = w_vectors[j]
        if wv.shape != (a,):
            raise SchemaError(
                f"variable {v.name!r}: w vector has shape {wv.shape}, expected ({a},)"
            )
        s, e = schema.blocks[j]
        if v.kind is VariableKind.CATEGORICAL:
            W[s:e, :] = wv[None, :]
        else:
            W[s, :] = wv
    return W


def middle_factor(schema: VariableSchema, sp: StructuredParams) -> np.ndarray:
    """The (q+a, q+a) factor [[K + W V^T, -W], [-V^T, I]] of the dominance
    conditions.  Note omega does not appear."""
    validate_shapes(schema, sp)
    q, a = schema.q, sp.a
    K = quasi_diagonal_blocks(schema, sp.b)
    W = aux_loading_matrix(schema, sp.w, a)
    M = np.zeros((q + a, q + a))
    M[:q, :q] = K + W @ sp.V.T
    M[:q, q:] = -W
    M[q:, :q] = -sp.V.T
    M[q:, q:] = np.eye(a)
    return M


def dominance_matrix(schema: VariableSchema, sp: StructuredParams) -> np.ndarray:
    """B = M C, the matrix whose row dominance (together with strict row
    dominance of C) the dominance conditions ask for."""
    return middle_factor(schema, sp) @ sp.C


def row_margins(mat: np.ndarray) -> np.ndarray:
    """Per-row dominance margins |m_kk| - sum_{l != k} |m_kl|."""
    d = np.abs(np.diag(mat))
    return 2.0 * d - np.abs(mat).sum(axis=1)


def free_row_indices(schema: VariableSchema, a: int) -> np.ndarray:
    """Rows of B whose dominance is structurally attainable: the first row of
    each variable block plus all auxiliary rows."""
    rows = [schema.blocks[j][0] for j in range(len(schema))]
    rows.extend(range(schema.q, schema.q + a))
    return np.asarray(rows, dtype=int)


@dataclass(frozen=True)
class DominanceReport:
    """Row-dominance margins for B and C.

    ``margins_b`` and ``margins_c`` cover every row.  ``free_rows`` lists the
    structurally attainable rows of B; ``passed`` scores those rows only,
    while ``passed_raw`` applies the unrestricted condition (attainable only
    for schemas whose blocks are all of size one).  ``passed`` is a penalty
    target, not a positivity certificate: see the module docstring.
    """

    margins_b: np.ndarray
    margins_c: np.ndarray
    free_rows: np.ndarray

    @property
    def worst_b_free(self) -> float:
        return float(self.margins_b[self.free_rows].min())

    @property
    def worst_b_raw(self) -> float:
        return float(self.margins_b.min())

    @property
    def worst_c(self) -> float:
        return float(self.margins_c.min())

    @property
    def passed(self) -> bool:
        return self.worst_b_free >= 0.0 and self.worst_c >= TAU_C

    @property
    def passed_raw(self) -> bool:
        return self.worst_b_raw >= 0.0 and self.worst_c >= TAU_C


def dominance_certificate(schema: VariableSchema, sp: StructuredParams) -> DominanceReport:
    """Margins of B = M C and of C, plus pass flags."""
    B = dominance_matrix(schema, sp)
    return DominanceReport(
        margins_b=row_margins(B),
        margins_c=row_margins(sp.C),
        free_rows=free_row_indices(schema, sp.a),
    )


def extended_lambda(schema: VariableSchema, sp: StructuredParams) -> np.ndarray:
    """The (q+a, q+a) parameter over observed plus auxiliary bits.

    Sandwiching the middle factor with diag(I, sqrt(1/omega - 1)) yields the
    full parameter whose observed marginal is the assembled one; its validity
    implies validity of the marginal.
    """
    q, a = schema.q, sp.a
    M = middle_factor(schema, sp)
    s = np.sqrt(1.0 / sp.omega - 1.0)
    full = M.copy()
    full[:q, q:] *= s[None, :]
    full[q:, :q] *= s[:, None]
    full[q:, q:] = np.diag(1.0 / sp.omega - 1.0)
    return np.eye(q + a) + full


def _raw_lambda(schema: VariableSchema, sp: StructuredParams) -> np.ndarray:
    """lam = I + K + W diag(omega) V^T as a bare array: no check of V, omega
    or C, no certificate, no inverse."""
    K = quasi_diagonal_blocks(schema, sp.b)
    W = aux_loading_matrix(schema, sp.w, sp.a)
    return np.eye(schema.q) + K + (W * sp.omega[None, :]) @ sp.V.T


def assemble_lambda(schema: VariableSchema, sp: StructuredParams) -> GrassmannParams:
    """Assemble lam = I + K + W diag(omega) V^T, without any positivity
    check: the caller certifies the result (see the module docstring)."""
    validate_shapes(schema, sp)
    return GrassmannParams.from_lambda(_raw_lambda(schema, sp))


# -- single-variable closed forms -------------------------------------------

def categorical_pmf(b: np.ndarray, y_block) -> float:
    """exp(y^T b) / (1 + sum_l exp(b_l)) for a one-hot-or-zero block."""
    b = np.asarray(b, dtype=float)
    y = np.asarray(y_block, dtype=int)
    if y.shape != b.shape:
        raise SchemaError(f"block shape {y.shape} does not match b shape {b.shape}")
    if y.sum() > 1 or np.any((y != 0) & (y != 1)):
        raise SchemaError(f"block {y_block} is not one-hot-or-zero")
    return float(np.exp(y @ b) / (1.0 + np.exp(b).sum()))


def ordinal_pmf(b: np.ndarray, y_block) -> float:
    """exp(y^T b) / (1 + sum_l prod_{m<=l} exp(b_m)) for a prefix block."""
    b = np.asarray(b, dtype=float)
    y = np.asarray(y_block, dtype=int)
    if y.shape != b.shape:
        raise SchemaError(f"block shape {y.shape} does not match b shape {b.shape}")
    level = int(y.sum())
    if not np.array_equal(y, np.asarray([1] * level + [0] * (len(y) - level))):
        raise SchemaError(f"block {y_block} is not a left-flushed prefix")
    denom = 1.0 + np.exp(np.cumsum(b)).sum()
    return float(np.exp(y @ b) / denom)
