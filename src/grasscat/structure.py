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
under the low-rank update.  The model is (b, w, V, omega); nothing else
enters lam.  It is valid when every allowed state has a nonnegative
probability; the fit certifies that on the allowed-state table
(:mod:`grasscat.fit`).  An independent check works on the extended (q + a)
parameter, ``check_p0(GrassmannParams.from_lambda(extended_lambda(schema,
sp)))``: validity of the extended distribution implies validity of its
observed marginal.  :func:`assemble_lambda` runs neither check; no
command reads it but ``oracle check``'s brute force, and the moments
invert lam by Woodbury from D = I + K (:mod:`grasscat.fit`).

Parameters are checked once, where they are read: the public builders
check their input, and :func:`flat_params` is the one check of a whole
(b, w, V, omega), finiteness included, which every path from a
StructuredParams runs; what overflows later meets the one probability rule,
:func:`grassmann._probabilities`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SchemaError
from .grassmann import GrassmannParams, _freeze
from .schema import VariableSchema

OMEGA_EPS = 1e-6


@dataclass(frozen=True)
class StructuredParams:
    """Per-variable parameters plus the low-rank coupling.

    b: one vector per variable, length = block size.
    w: one vector per variable, length = a (auxiliary dimension).
    V: (q, a) coupling directions.
    omega: (a,) diagonal weights in [OMEGA_EPS, 1 - OMEGA_EPS].
    """

    b: tuple[np.ndarray, ...]
    w: tuple[np.ndarray, ...]
    V: np.ndarray
    omega: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(_freeze(v) for v in self.b))
        object.__setattr__(self, "w", tuple(_freeze(v) for v in self.w))
        object.__setattr__(self, "V", _freeze(self.V))
        object.__setattr__(self, "omega", _freeze(self.omega))

    @property
    def a(self) -> int:
        return self.V.shape[1]

    @classmethod
    def independent(
        cls, schema: VariableSchema, b_vectors, a: int = 0
    ) -> "StructuredParams":
        """Parameters with no coupling: W = 0, V = 0, omega = 1/2."""
        q = schema.q
        b = tuple(np.asarray(v, dtype=float) for v in b_vectors)
        w = tuple(np.zeros(a) for _ in schema.variables)
        return cls(
            b=b,
            w=w,
            V=np.zeros((q, a)),
            omega=np.full(a, 0.5),
        )


def _checked_vectors(schema: VariableSchema, vectors, name: str, sizes) -> np.ndarray:
    """The per-variable ``name`` vectors laid end to end as one float array;
    SchemaError unless there is one per variable, of length ``sizes[j]`` for
    variable j."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if len(vectors) != len(schema):
        raise SchemaError(f"expected {len(schema)} {name} vectors, got {len(vectors)}")
    for v, vec, size in zip(schema.variables, vectors, sizes):
        if vec.shape != (size,):
            raise SchemaError(
                f"variable {v.name!r}: {name} vector has shape {vec.shape}, "
                f"expected ({size},)"
            )
    return np.concatenate(vectors) if vectors else np.zeros(0)


def flat_params(schema: VariableSchema, sp: StructuredParams) -> tuple[np.ndarray, ...]:
    """``sp`` checked against the schema, as the fit's optimizer vector lays
    it out: b laid end to end, the (variables, a) w rows, V and omega.
    This is the one check of a StructuredParams: V, omega, b, w, finiteness."""
    if sp.V.ndim != 2:
        raise SchemaError(f"V has shape {sp.V.shape}, expected ({schema.q}, a)")
    a = sp.a
    if sp.V.shape != (schema.q, a):
        raise SchemaError(f"V has shape {sp.V.shape}, expected ({schema.q}, {a})")
    if sp.omega.shape != (a,):
        raise SchemaError(f"omega has shape {sp.omega.shape}, expected ({a},)")
    if np.any(sp.omega < OMEGA_EPS) or np.any(sp.omega > 1.0 - OMEGA_EPS):
        raise ParameterError(
            f"omega entries must lie in [{OMEGA_EPS}, {1 - OMEGA_EPS}]"
        )
    b = _checked_vectors(schema, sp.b, "b", schema.block_maps.sizes)
    w = _checked_vectors(schema, sp.w, "w", [a] * len(schema))
    flat = (b, w.reshape(len(schema), a), sp.V, sp.omega)
    if not all(np.isfinite(part).all() for part in flat):
        raise ParameterError("parameters contain non-finite entries")
    return flat


def quasi_diagonal_blocks(schema: VariableSchema, b_vectors) -> np.ndarray:
    """The block-diagonal core K: repeated exponential rows for categorical
    blocks, subdiagonal -1 plus a cumulative-product first row for ordinal
    blocks.  Off-block entries are exactly zero."""
    b = _checked_vectors(schema, b_vectors, "b", schema.block_maps.sizes)
    return _quasi_diagonal(schema, b)


def _quasi_diagonal(schema: VariableSchema, b: np.ndarray) -> np.ndarray:
    """K from the b vectors laid end to end, unchecked."""
    maps = schema.block_maps
    K = np.zeros((schema.q, schema.q))
    K.ravel()[maps.k_dst] = _block_exps(schema, b).ravel()[maps.k_src]
    K.ravel()[maps.sub_dst] = -1.0
    return K


def _block_exps(schema: VariableSchema, b: np.ndarray) -> np.ndarray:
    """The entries e^beta of every block's first row of K, from the b
    vectors laid end to end: one row per variable, zero-padded to the
    widest block before the exponential."""
    maps = schema.block_maps
    padded = np.zeros((len(schema), maps.width))
    padded.ravel()[maps.pad_dst] = b
    # a categorical row keeps b; an ordinal row's exponents are its
    # cumulative sums (np.add.accumulate is np.cumsum without its wrapper)
    return np.exp(np.where(maps.ordinal, np.add.accumulate(padded, axis=1), padded))


def aux_loading_matrix(schema: VariableSchema, w_vectors, a: int) -> np.ndarray:
    """The (q, a) matrix W: identical rows within categorical blocks, only
    the first row nonzero within ordinal blocks."""
    w = _checked_vectors(schema, w_vectors, "w", [a] * len(schema))
    return _aux_loading(schema, w.reshape(len(schema), a))


def _aux_loading(schema: VariableSchema, w: np.ndarray) -> np.ndarray:
    """W from the (variables, a) w rows, unchecked."""
    rows = np.zeros((len(schema) + 1, w.shape[1]))  # the last row is the zero row
    rows[:-1] = w
    return rows.take(schema.block_maps.w_src, axis=0)


def _middle(K: np.ndarray, W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The middle factor [[K + W V^T, -W], [-V^T, I]] from K, W and V,
    unchecked; omega does not appear."""
    q, a = V.shape
    M = np.zeros((q + a, q + a))
    M[:q, :q] = K + W @ V.T
    M[:q, q:] = -W
    M[q:, :q] = -V.T
    M[q:, q:] = np.eye(a)
    return M


def extended_lambda(schema: VariableSchema, sp: StructuredParams) -> np.ndarray:
    """The (q+a, q+a) parameter over observed plus auxiliary bits.

    Sandwiching the middle factor with diag(I, sqrt(1/omega - 1)) yields the
    full parameter whose observed marginal is the assembled one; its validity
    implies validity of the marginal.
    """
    b, w, V, omega = flat_params(schema, sp)  # checks sp before anything reads sp.a
    full = _middle(_quasi_diagonal(schema, b), _aux_loading(schema, w), V)
    q, a = V.shape
    s = np.sqrt(1.0 / omega - 1.0)
    full[:q, q:] *= s[None, :]
    full[q:, :q] *= s[:, None]
    full[q:, q:] = np.diag(1.0 / omega - 1.0)
    return np.eye(q + a) + full


def _raw_lambda(schema: VariableSchema, sp: StructuredParams) -> np.ndarray:
    """lam = I + K + W diag(omega) V^T as a bare array, from ``sp`` as
    :func:`flat_params` checks it: no certificate, no inverse.  A finite
    ``sp`` whose lam overflows (e^b, or the product W diag(omega) V^T)
    raises ParameterError."""
    b, w, V, omega = flat_params(schema, sp)
    W = _aux_loading(schema, w)
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.eye(schema.q) + _quasi_diagonal(schema, b) + (W * omega[None, :]) @ V.T
    if not np.isfinite(lam).all():
        raise ParameterError("lam overflows: an entry of K + W diag(omega) V^T is not finite")
    return lam


def assemble_lambda(schema: VariableSchema, sp: StructuredParams) -> GrassmannParams:
    """Assemble lam = I + K + W diag(omega) V^T, without any positivity
    check: the caller certifies the result (see the module docstring)."""
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
