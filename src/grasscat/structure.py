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
command reads it but ``oracle check``'s brute force.  K and W are built
block by block in one loop (:func:`_k_and_w`), for that lam and for the
extended parameter.

The commands read a model through a x a determinants instead (a is the
auxiliary dimension), which the matrix determinant lemma leaves since K is
block diagonal.  Level l >= 1 of variable v ends on bit r_v(l) and has
logit beta_v(l): b_l if v is categorical, b_1 + ... + b_l if ordinal
(``BlockMaps.beta_of_b``).  With x_v(l) = e^-beta_v(l) omega * V[r_v(l)],
Z_v = 1 + sum_l e^beta_v(l) and xbar_v = omega * sum_(r in v) V[r] / Z_v
(level 0 has beta = 0 and x = 0), a state at levels l_v has probability

    e^(sum_v beta_v(l_v) - sum_v log Z_v) det A_s / det Abar,
    A_s = I + sum_v x_v(l_v) w_v^T,     Abar = I + sum_v xbar_v w_v^T.

One GEMM of the per-bit terms x_r w_r^T (the x and w of the level ending
on bit r) against the (q, n) 0/1 indicator E of the bits the states'
levels end on (:func:`_ends`) gives every A_s - I as one (a, a, n) stack,
and :func:`_gauss_jordan` its signs and log|det|: a closed form at a = 1
and a = 2, and an elimination (:func:`_eliminate`) for a det that is zero
or out of [1e-300, 1e300] and at a >= 3.  The fit's likelihood
(:mod:`grasscat.fit`) builds its stack the same way.  With them,
:func:`_allowed_state_probabilities` scores every allowed state (``sample``,
the fit's ``p0_min``), :func:`_pattern_probabilities` a pattern of fixed
bits (``prob``), and :func:`_structured_moments` the moments by Woodbury
(``moments``, the fit's report).  None of these forms lam.

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
from .grassmann import _CHUNK, GrassmannParams, _freeze, _probabilities, _sigma_moments
from .schema import BlockMaps, VariableKind, VariableSchema, allowed_table

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


# -- the a-space read kernels -----------------------------------------------

def _ends(schema: VariableSchema, bits: np.ndarray) -> np.ndarray:
    """The C-contiguous (q, n) 0/1 indicator of the bits the levels of the
    (n, q) allowed states ``bits`` end on: the set bits, less each ordinal
    bit whose successor in its block is also set."""
    var = schema.block_maps.var
    chained = np.flatnonzero(schema.block_maps.ordinal[var[:-1], 0] & (var[:-1] == var[1:]))
    ends = bits.T.astype(float, order="C")
    ends[chained] -= ends[chained + 1]
    return ends


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
    b: np.ndarray, V: np.ndarray, omega: np.ndarray, maps: BlockMaps
) -> tuple[np.ndarray, ...]:
    """beta, log Z_v, 1 / Z_v, the V sums over each block divided by Z_v,
    xbar_v and each bit's level's share e^beta / Z_v, at b laid end to end."""
    members = maps.members
    beta = maps.beta_of_b @ b
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
    beta, log_z, _, _, x_bar, share = _variable_tables(b, V, omega, schema.block_maps)
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
        ends = _ends(schema, bits[lo : lo + _CHUNK])
        chunk = terms @ ends
        n = chunk.shape[1]
        A = chunk[: a * a]  # A_s - I over the chunk's states
        A[:: a + 1] += 1.0
        sign, logdet, _ = _gauss_jordan(A.reshape(a, a, n), False)
        probs[lo : lo + n] = _probabilities(sign, chunk[a * a] + logdet - log_norm, sign_bar[0])
        if rare.any():  # the states with a level on a rare bit
            rows = lo + np.flatnonzero(rare @ ends)
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
    maps = schema.block_maps
    var, beta_of_b, members = maps.var, maps.beta_of_b, maps.members
    beta, log_z, inv_z, _, x_bar, share = _variable_tables(b, V, omega, maps)
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
    maps = schema.block_maps
    _, _, inv_z, _, x_bar, share = _variable_tables(b, V, omega, maps)
    d_inv = maps.beta_of_b - (maps.members.T @ maps.members) * (maps.beta_of_b.T @ share)
    M = np.eye(omega.size) + x_bar.T @ w  # built as the table and prob build Abar
    sign, _, inv = _gauss_jordan(M[:, :, None], True)
    finite = np.isfinite(M).all()
    if finite and sign[0] == 0:
        raise ParameterError("lam is singular")
    var = maps.var  # D^-1 W is inv_z[var] * w[var], and M^-1 is inv[:, :, 0]
    sig = d_inv - (inv_z[var, None] * w[var]) @ inv[:, :, 0] @ (omega[:, None] * (V.T @ d_inv))
    if not (finite and np.isfinite(inv).all() and np.isfinite(sig).all()):
        raise ParameterError("a moment overflows: Abar, its inverse or sig = lam^-1 is not finite")
    return _sigma_moments(sig)


def _k_and_w(schema: VariableSchema, b: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K and W from the b vectors laid end to end and the (variables, a) w
    rows, unchecked, in one loop over the blocks; off-block entries are
    exactly zero."""
    K = np.zeros((schema.q, schema.q))
    W = np.zeros((schema.q, w.shape[1]))
    for v, (s, e), row in zip(schema.variables, schema.blocks, w):
        if v.kind is VariableKind.CATEGORICAL:
            K[s:e, s:e] = np.exp(b[s:e])
        else:
            K[s, s:e] = np.exp(np.cumsum(b[s:e]))
            r = np.arange(s + 1, e)
            K[r, r - 1] = -1.0
        W[s : s + 1 if v.kind is VariableKind.ORDINAL else e] = row
    return K, W


def extended_lambda(schema: VariableSchema, sp: StructuredParams) -> np.ndarray:
    """The (q+a, q+a) parameter over observed plus auxiliary bits.

    Sandwiching the middle factor with diag(I, sqrt(1/omega - 1)) yields the
    full parameter whose observed marginal is the assembled one; its validity
    implies validity of the marginal.
    """
    b, w, V, omega = flat_params(schema, sp)  # checks sp before anything reads sp.a
    K, W = _k_and_w(schema, b, w)
    s = np.sqrt(1.0 / omega - 1.0)
    full = np.block([
        [K + W @ V.T, (-W) * s],
        [(-V.T) * s[:, None], np.diag(1.0 / omega - 1.0)],
    ])
    return np.eye(len(full)) + full


def _raw_lambda(schema: VariableSchema, sp: StructuredParams) -> np.ndarray:
    """lam = I + K + W diag(omega) V^T as a bare array, from ``sp`` as
    :func:`flat_params` checks it: no certificate, no inverse.  A finite
    ``sp`` whose lam overflows (e^b, or the product W diag(omega) V^T)
    raises ParameterError."""
    b, w, V, omega = flat_params(schema, sp)
    with np.errstate(over="ignore", invalid="ignore"):
        K, W = _k_and_w(schema, b, w)
        lam = np.eye(schema.q) + K + (W * omega[None, :]) @ V.T
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
    y = np.asarray(y_block, dtype=float)  # not int: 0.5 must not read as 0
    if y.shape != b.shape:
        raise SchemaError(f"block shape {y.shape} does not match b shape {b.shape}")
    if y.sum() > 1 or np.any((y != 0) & (y != 1)):
        raise SchemaError(f"block {y_block} is not one-hot-or-zero")
    return float(np.exp(y @ b) / (1.0 + np.exp(b).sum()))


def ordinal_pmf(b: np.ndarray, y_block) -> float:
    """exp(y^T b) / (1 + sum_l prod_{m<=l} exp(b_m)) for a prefix block."""
    b = np.asarray(b, dtype=float)
    y = np.asarray(y_block, dtype=float)  # not int: 0.7 must not read as 0
    if y.shape != b.shape:
        raise SchemaError(f"block shape {y.shape} does not match b shape {b.shape}")
    level = int((y == 1).sum())  # a prefix of that many ones, or no prefix
    if not np.array_equal(y, np.asarray([1] * level + [0] * (len(y) - level))):
        raise SchemaError(f"block {y_block} is not a left-flushed prefix")
    denom = 1.0 + np.exp(np.cumsum(b)).sum()
    return float(np.exp(y @ b) / denom)
