import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from grasscat.errors import EnumerationCapError, InvalidStateError, ParameterError
from grasscat.grassmann import (
    GrassmannParams,
    all_state_probabilities,
    conditional_params,
    joint_probability,
    marginal_params,
    moments,
)
from grasscat import oracle
from grasscat.oracle import (
    _naive_det,
    _principal_minors,
    _schur_minors,
    brute_force_table,
    oracle_conditional,
    oracle_marginal,
)

from grasscat.schema import DummyState, VariableDecl, VariableSchema, decode_state
from grasscat.structure import assemble_lambda

from generators import CAT, ORD, random_certified_structured, random_valid_params
from reference_values import READER_LAMBDA_MINUS_I


def allowed_restriction(table, schema: VariableSchema) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the table that satisfy the schema's block constraints, found
    by decoding one state at a time."""
    keep = []
    for i, state in enumerate(table.states):
        try:
            decode_state(schema, DummyState(tuple(int(b) for b in state)))
        except InvalidStateError:
            continue
        keep.append(i)
    keep = np.asarray(keep, dtype=int)
    return table.states[keep], table.probs[keep]


def test_naive_det_matches_lapack():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5, 6, 8, 10):
        a = rng.normal(size=(n, n))
        assert _naive_det(a) == pytest.approx(np.linalg.det(a), rel=1e-9)


@pytest.mark.parametrize("n", range(1, 13))
def test_stacked_naive_det_matches_slogdet(n):
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(2, 5, n, n))
    # a permutation matrix: an n-cycle has parity (-1)**(n - 1), a swap is odd
    stack[0, 0] = np.roll(np.eye(n), 1, axis=0)
    stack[0, 1] = np.eye(n)[[1, 0, *range(2, n)]] if n > 1 else -np.eye(1)
    stack[0, 2] = stack[0, 1] @ np.diag(rng.uniform(0.5, 2.0, n))
    got = _naive_det(stack)
    assert got.shape == (2, 5)
    for idx in np.ndindex(2, 5):
        sign, logdet = np.linalg.slogdet(stack[idx])
        assert np.sign(got[idx]) == sign
        assert got[idx] == pytest.approx(sign * np.exp(logdet), rel=1e-9)
        assert _naive_det(stack[idx]) == got[idx]
    assert got[0, 0] == (-1.0) ** (n - 1)
    assert got[0, 1] == -1.0


def test_naive_det_is_exactly_zero_on_singular_stacks():
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(6, 5, 5))
    stack[0, 3] = stack[0, 1]
    stack[1, 4] = stack[1, 0]
    stack[2, :, 2] = 0.0
    stack[3, :, 0] = 0.0
    stack[4, 2] = 0.0
    stack[5] = 0.0
    got = _naive_det(stack)
    assert got.tolist() == [0.0] * 6
    assert not np.signbit(got).any()


def test_naive_det_leaves_its_input_unchanged():
    """One matrix, a stack of one (both already contiguous after the move of
    the stack axis) and a Fortran-ordered stack."""
    rng = np.random.default_rng(9)
    for a in (rng.normal(size=(4, 4)), rng.normal(size=(1, 4, 4)),
              np.asfortranarray(rng.normal(size=(3, 4, 4)))):
        before = a.copy()
        _naive_det(a)
        np.testing.assert_array_equal(a, before)


def test_table_matches_kernel_on_certified_q12():
    spec = [(CAT, 3), (ORD, 4), (CAT, 4), (ORD, 3), (CAT, 2), (CAT, 2)]
    schema = VariableSchema([VariableDecl(f"v{i}", k, m) for i, (k, m) in enumerate(spec)])
    sp = random_certified_structured(np.random.default_rng(12), schema, 2)
    p = assemble_lambda(schema, sp)
    assert p.q == 12
    table = brute_force_table(p)
    assert np.abs(table.probs - all_state_probabilities(p)).max() <= 1e-12


def test_table_is_independent_of_lapack(monkeypatch):
    p = random_valid_params(np.random.default_rng(8), 8)
    want = brute_force_table(p).probs

    def _refuse(*args, **kwargs):
        raise AssertionError("the oracle called a library factorization")

    for owner, attr in ((np.linalg, "det"), (np.linalg, "slogdet"), (np.linalg, "inv"),
                        (scipy.linalg, "lu")):
        monkeypatch.setattr(owner, attr, _refuse)
    table = brute_force_table(p)
    np.testing.assert_array_equal(table.probs, want)


def test_table_peak_memory_q16():
    # 25.2 MiB was the tracemalloc peak of the one-mask-at-a-time table on
    # this model; the bound is that peak plus 2 MiB
    p = random_valid_params(np.random.default_rng(16), 16)
    tracemalloc.start()
    try:
        brute_force_table(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (25.2 + 2.0) * 2**20


def test_underflowing_det_is_singular():
    p = GrassmannParams.from_lambda(1e-25 * np.eye(16))
    with pytest.raises(ParameterError, match="lam is singular"):
        brute_force_table(p)


def test_independent_table():
    table = brute_force_table(GrassmannParams.from_lambda(np.diag([2.0, 2.0])))
    np.testing.assert_allclose(table.probs, 0.25, atol=1e-15)


def test_reader_mass_sits_on_allowed_states():
    from generators import reader_style_schema

    params = GrassmannParams.from_lambda(np.eye(6) + READER_LAMBDA_MINUS_I)
    table = brute_force_table(params)
    _, allowed_probs = allowed_restriction(table, reader_style_schema())
    assert allowed_probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert len(allowed_probs) == 24
    disallowed_mass = table.probs.sum() - allowed_probs.sum()
    assert abs(disallowed_mass) <= 1e-12
    assert table.probs.min() >= -1e-12


def test_random_table_self_consistency():
    rng = np.random.default_rng(4)
    p = random_valid_params(rng, 5)
    table = brute_force_table(p)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert table.probs.min() >= -1e-12


def test_marginal_over_everything_is_table():
    rng = np.random.default_rng(6)
    p = random_valid_params(rng, 3)
    table = brute_force_table(p)
    marg = oracle_marginal(table, [0, 1, 2])
    for mask, prob in enumerate(table.probs):
        key = tuple((mask >> i) & 1 for i in range(3))
        assert marg[key] == pytest.approx(prob, abs=1e-15)


def test_conditional_on_zero_probability_event_flagged():
    # a parameter with an exactly zero state: repeated rows
    lam_mi = np.array([[1.0, 1.0], [1.0, 1.0]])
    p = GrassmannParams.from_lambda(np.eye(2) + lam_mi)
    table = brute_force_table(p)
    cond = oracle_conditional(table, (0,), (1,), [1])
    # conditioning on y_1 = 1 is fine; conditioning on the impossible joint
    both = oracle_conditional(table, (), (0, 1), [1, 1])
    assert cond.defined
    assert not both.defined


@pytest.mark.parametrize("S, T", [
    ((-1,), (0,)), ((3,), (0,)), ((0,), (-1,)), ((0,), (3,)),
])
def test_conditional_index_sets_are_range_checked(S, T):
    """An index -1 would alias bit q - 1, and q would be a bare IndexError."""
    table = brute_force_table(random_valid_params(np.random.default_rng(4), 3))
    with pytest.raises(ParameterError, match="out of range"):
        oracle_conditional(table, S, T, [1])


@pytest.mark.parametrize("y_T", [(2,), (0.5,), (-1,)])
def test_conditional_refuses_a_non_bit_y_t(y_T):
    """2 or -1 would read as an event of probability zero, and 0.5 as 0."""
    table = brute_force_table(random_valid_params(np.random.default_rng(0), 3))
    assert oracle_conditional(table, (0,), (1,), (1,)).defined
    with pytest.raises(ParameterError, match="^y_T entries must be 0 or 1$"):
        oracle_conditional(table, (0,), (1,), y_T)


def test_conditional_follows_the_callers_order():
    """y_T[k] is the value of bit T[k], and a key's k-th entry is bit S[k]."""
    table = brute_force_table(random_valid_params(np.random.default_rng(14), 5))
    want = oracle_conditional(table, (0, 1), (2, 3, 4), (1, 0, 1))
    got = oracle_conditional(table, (0, 1), (4, 2, 3), (1, 1, 0))
    assert want.defined and got.probs == want.probs
    swapped = oracle_conditional(table, (1, 0), (2, 3, 4), (1, 0, 1))
    assert swapped.probs == {(b, a): prob for (a, b), prob in want.probs.items()}
    for (y1, y0), prob in swapped.probs.items():
        event = np.all(table.states[:, [2, 3, 4]] == (1, 0, 1), axis=1)
        pick = event & (table.states[:, 1] == y1) & (table.states[:, 0] == y0)
        assert prob == pytest.approx(table.probs[pick].sum() / table.probs[event].sum(),
                                     abs=1e-15)


def test_marginal_follows_the_callers_order():
    table = brute_force_table(random_valid_params(np.random.default_rng(15), 3))
    marg = oracle_marginal(table, (2, 0))
    for (y2, y0), prob in marg.items():
        pick = (table.states[:, 2] == y2) & (table.states[:, 0] == y0)
        assert prob == pytest.approx(table.probs[pick].sum(), abs=1e-15)


@pytest.mark.parametrize("call, match", [
    (lambda t: oracle_marginal(t, (0, 0)), "repeats an index"),
    (lambda t: oracle_conditional(t, (0,), (1, 1), (1, 0)), "repeats an index"),
    (lambda t: oracle_conditional(t, (0, 0), (1,), (1,)), "repeats an index"),
    (lambda t: oracle_conditional(t, (0,), (0,), (1,)), "share an index"),
])
def test_repeated_and_shared_indices_are_rejected(call, match):
    """A repeated index would key a marginal by an impossible pattern, and an
    index in both S and T would condition a bit on itself."""
    table = brute_force_table(random_valid_params(np.random.default_rng(4), 3))
    with pytest.raises(ParameterError, match=match):
        call(table)


def test_cap_respected(monkeypatch):
    rng = np.random.default_rng(10)
    p = random_valid_params(rng, 4)
    monkeypatch.setenv("GRASSCAT_CAP", "3")
    with pytest.raises(EnumerationCapError):
        brute_force_table(p)


def test_oracle_and_core_agree_across_queries():
    rng = np.random.default_rng(13)
    for trial in range(20):
        q = int(rng.integers(2, 7))
        p = random_valid_params(rng, q)
        table = brute_force_table(p)
        mean, cov = moments(p)
        np.testing.assert_allclose(mean, table.mean, atol=1e-9)
        np.testing.assert_allclose(cov, table.cov, atol=1e-9)
        T = sorted(rng.choice(q, size=max(1, q // 2), replace=False).tolist())
        m = marginal_params(p, T)
        for pattern, want in oracle_marginal(table, T).items():
            assert joint_probability(m, pattern) == pytest.approx(want, abs=1e-9)
        S = tuple(i for i in range(q) if i not in T)
        if S:
            t1 = tuple(t for t in T if rng.random() < 0.5)
            want = oracle_conditional(table, S, tuple(T), [1 if t in t1 else 0 for t in T])
            if want.defined:
                c = conditional_params(p, T, [1 if t in t1 else 0 for t in T])
                for pattern, target in want.probs.items():
                    assert joint_probability(c, pattern) == pytest.approx(
                        target, abs=1e-9
                    )


def _schema(spec) -> VariableSchema:
    return VariableSchema([VariableDecl(f"v{i}", k, m) for i, (k, m) in enumerate(spec)])


def _bench_model(name, spec):
    """bench/data.py's certified a = 2 query model of that name."""
    schema = _schema(spec)
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return assemble_lambda(schema, random_certified_structured(np.random.default_rng([0, tag]),
                                                               schema, 2))


_Q12 = [(CAT, 3), (ORD, 4), (CAT, 4), (ORD, 3), (CAT, 2), (CAT, 2)]


class TestSchurMinors:
    """The table's minors come from the Schur-complement recursion over the
    subset lattice; a zero pivot with a nonzero row and column, or an update
    beyond 16 max|lam - I|, sends its included subtree to pivoted
    elimination."""

    @staticmethod
    def _certified(a, seed):
        """A certified model of a q = 12 schema with categorical and ordinal
        blocks; at a = 3 and seed 0, lam - I meets exact zero pivots with a
        nonzero row and column."""
        schema = _schema(_Q12)
        return assemble_lambda(schema, random_certified_structured(np.random.default_rng(seed),
                                                                   schema, a))

    @staticmethod
    def _per_minor(p):
        """det (lam - I)[R, R] / det lam for every mask, one _naive_det each."""
        mat = p.lam - np.eye(p.q)
        out = np.ones(2**p.q)
        for mask in range(1, 2**p.q):
            idx = [i for i in range(p.q) if mask >> i & 1]
            out[mask] = _naive_det(mat[np.ix_(idx, idx)])
        return out / _naive_det(p.lam)

    def test_every_mask_matches_its_own_elimination(self):
        models = [self._certified(2, 12), self._certified(3, 0)]
        models += [random_valid_params(np.random.default_rng(q), q) for q in range(1, 11)]
        assert _schur_minors(models[1].lam - np.eye(12))[1].any()
        for p in models:
            got = brute_force_table(p).probs
            assert np.abs(got - self._per_minor(p)).max() <= 1e-15

    def test_zero_pivot_falls_back_exactly(self):
        mat = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        assert np.flatnonzero(_schur_minors(mat)[1]).tolist() == [1, 3, 5, 7]
        got = _principal_minors(mat)
        assert got.tolist() == [1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0]
        assert not np.signbit(got).any()

    def test_tiny_pivot_is_guarded(self):
        # without the bound the 1e-20 pivot's update of 1e20 rounds its
        # complement to four equal entries, and the full minor reads 0.0
        mat = np.array([[1e-20, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 3.0, 1.0]])
        assert _schur_minors(mat)[1][7]
        assert _principal_minors(mat)[7] == 3.0

    def test_elimination_runs_only_for_flagged_masks(self, monkeypatch):
        calls = []

        def _counted(stack):
            calls.append(stack.shape[-1])
            return eliminate(stack)

        eliminate = oracle._eliminate
        monkeypatch.setattr(oracle, "_eliminate", _counted)
        for name, spec in (("query-q12", _Q12), ("query-q16", _Q12 + [(ORD, 3), (CAT, 3)])):
            calls.clear()
            brute_force_table(_bench_model(name, spec))
            assert calls == [1]  # det lam alone
        calls.clear()
        brute_force_table(self._certified(3, 0))
        assert len(calls) > 1 and sum(calls[1:]) == 1024
