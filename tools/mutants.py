"""Plant one-line changes in a copy of the tree and check that tests fail.

    python3 tools/mutants.py [NAME ...]

Each mutant is (name, file, old text, new text, tests).  For each one the
tool copies this checkout (without ``.git`` and caches) into a temporary
directory, replaces the single occurrence of the old text with the new
one, and runs pytest on the listed tests there, with one BLAS thread.  A
mutant is killed when pytest reports a failing test, and survives when
every listed test passes.  The listed tests are first run once on an
unchanged copy, which must pass.  NAME arguments run only the mutants
whose name contains one of them.  Exit status: 0 when every mutant run is
killed, 1 when one survives, 2 when a mutant's old text is not found
exactly once, pytest cannot run the tests, or the unchanged copy fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis", ".bench_*", ".benchmarks"
)

CAPS = "src/grasscat/caps.py"
CLI = "src/grasscat/cli.py"
FACTOR = "src/grasscat/factor.py"
FIT = "src/grasscat/fit.py"
GRASSMANN = "src/grasscat/grassmann.py"
MIXED = "src/grasscat/mixed.py"
MODELFILE = "src/grasscat/modelfile.py"
SCHEMA = "src/grasscat/schema.py"
STRUCTURE = "src/grasscat/structure.py"

# (name, file, old text, new text, tests): the old text occurs once in the file
MUTANTS = [
    # the eight planted changes of the test-strength roadmap item
    ("clamp", GRASSMANN,
     "_CLAMP = 1e-12", "_CLAMP = 1e-9",
     ["tests/test_grassmann.py::TestClamp"]),
    ("feasible-threshold", FIT,
     "feasible = p0_min >= -_CLAMP", "feasible = p0_min >= -1e-9",
     ["tests/test_fit.py::TestDocumentedRules"]),
    ("max-ramps", FACTOR,
     "MAX_RAMPS = 6", "MAX_RAMPS = 5",
     ["tests/test_factor.py::TestFactorFit"]),
    ("b-cap", FIT,
     "B_CAP = 30.0", "B_CAP = 20.0",
     ["tests/test_fit.py::TestDocumentedRules"]),
    ("latent-aux-saturation", CLI,
     "if rel < 1e-3:", "if rel < 1e-2:",
     ["tests/test_cli.py::TestFitSweepStopRule"]),
    ("gauss-jordan-swap-sign", STRUCTURE,
     "                np.negative(sign, out=sign, where=swap)\n", "",
     ["tests/test_fit.py::TestBatchedKernelIsExact"]),
    ("strict-levels-always-falls-back", SCHEMA,
     '    import csv\n\n    k = len(schema)\n',
     '    import csv\n\n    return None\n    k = len(schema)\n',
     ["tests/test_schema.py::TestLoaderParity"]),
    ("norm-spread-tol", FACTOR,
     "NORM_SPREAD_TOL = 1e-3", "NORM_SPREAD_TOL = 1e-2",
     ["tests/test_factor.py::TestFactorFit"]),
    # the fit driver's restart key
    ("key-without-norm", FIT,
     "return nll, float(np.linalg.norm(x))", "return nll, 0.0",
     ["tests/test_fit.py::TestFitDriverRules"]),
    # the mixed density's conditioning block
    ("mixed-mean-without-shift", MIXED,
     "mean_jl = mean_jl + gain_jl @ dx", "mean_jl = mean_jl",
     ["tests/test_mixed.py"]),
    ("mixed-tilt-without-shift", MIXED,
     "0.5 * _quad(v_jl, sigma_jl_cond) + v @ shift", "0.5 * _quad(v_jl, sigma_jl_cond)",
     ["tests/test_mixed.py"]),
    ("mixed-cov-sign", MIXED,
     "sigma_jl_cond - gain_jl @", "sigma_jl_cond + gain_jl @",
     ["tests/test_mixed.py"]),
    ("mixed-cross-sign", MIXED,
     "mean_jl[pos_j] + v_jl[rows] @", "mean_jl[pos_j] - v_jl[rows] @",
     ["tests/test_mixed.py"]),
    # the oracle's moments
    ("oracle-moments-bit-order", "src/grasscat/oracle.py",
     "weighted_moments(states, probs)", "weighted_moments(states[:, ::-1], probs)",
     ["tests/test_oracle.py", "tests/test_cli.py::TestOracleCommand"]),
    # oracle check's program side: the allowed-state table at its 2**q masks
    ("oracle-scatter-bit-order", CLI,
     "bits @ (1 << np.arange(schema.q))", "bits @ (1 << np.arange(schema.q)[::-1])",
     ["tests/test_cli.py::TestOracleCommand"]),
    # the one text-file writer
    ("writer-drops-what", "src/grasscat/outputs.py",
     'f"cannot write {what}{path}: {exc}"', 'f"cannot write {path}: {exc}"',
     ["tests/test_outputs.py"]),
    # the factor fit's vector split, continuous block, biplot rows and BIC count
    ("factor-split-swaps-mu-tau", FACTOR,
     "xvec[at_mu:at_tau], xvec[at_tau:at_W]", "xvec[at_tau:at_W], xvec[at_mu:at_tau]",
     ["tests/test_factor.py::TestFactorObjectiveGradient"]),
    ("factor-g-w-sign", FACTOR,
     "g_W = 2.0 * d_cov @ W - sol.T @ YG", "g_W = 2.0 * d_cov @ W + sol.T @ YG",
     ["tests/test_factor.py::TestFactorObjectiveGradient"]),
    ("biplot-names-shifted", FACTOR,
     "for _ in range(v.levels)]", "for _ in range(v.levels)][::-1]",
     ["tests/test_factor.py::test_loadings_csv_rows_follow_the_schema"]),
    ("bic-count-continuous", FACTOR,
     "+ p_x * (2 + p_z)", "+ p_x * (1 + p_z)",
     ["tests/test_factor.py", "tests/test_acceptance.py"]),
    ("fa-inputs-seed", CLI,
     "restarts=args.restarts, seed=args.seed)", "restarts=args.restarts, seed=0)",
     ["tests/test_cli.py::TestFactorCommandConfig"]),
    # the checks this change added
    ("flat-params-1d-v", STRUCTURE,
     "    if sp.V.ndim != 2:\n", "    if sp.V.ndim > 2:\n",
     ["tests/test_structure.py"]),
    ("config-accepts-bool", FIT,
     "if isinstance(value, bool) or not", "if not",
     ["tests/test_fit.py::TestFitConfigIntegers", "tests/test_factor.py"]),
    # the factor fit on the prior's table: its gradient, the table-row rule,
    # the allowed-state check, the p_z = 1 warning and the BIC count's clamp
    ("factor-excess-sign", FACTOR,
     "excess = n * np.exp(logw - logz) - observed", "excess = observed - n * np.exp(logw - logz)",
     ["tests/test_factor.py::TestFactorObjectiveGradient"]),
    ("table-rows-reversed", SCHEMA,
     "math.prod(radices[j + 1:])", "math.prod(radices[:j])",
     ["tests/test_schema.py::TestAllowedTable",
      "tests/test_factor.py::TestFactorFitOnThePriorTable"]),
    ("allowed-check-dropped", SCHEMA,
     "    if not np.array_equal(bits_of_levels(schema, levels), bits):\n"
     "        raise InvalidStateError(", "    if False:\n        raise InvalidStateError(",
     ["tests/test_schema.py::TestAllowedTable",
      "tests/test_factor.py::TestFactorFitOnThePriorTable"]),
    ("odd-level-test-inverted", FACTOR,
     "v.levels % 2 == 1", "v.levels % 2 == 0",
     ["tests/test_factor.py::TestFactorFitOnThePriorTable"]),
    ("bic-clamp-dropped", FACTOR,
     "    p_z = min(p_z, q + p_x)\n", "",
     ["tests/test_factor.py::TestBicCount"]),
    # the a-space table of every allowed state, and the likelihood's state plan
    ("allowed-table-abar-sign-dropped", STRUCTURE,
     "log_norm, sign_bar[0])", "log_norm, 1.0)",
     ["tests/test_fit.py::TestAllowedStateTable"]),
    ("allowed-table-clamp", GRASSMANN,
     "prob[(-_CLAMP <= prob)", "prob[(-1e-9 <= prob)",
     ["tests/test_fit.py::TestAllowedStateTable"]),
    ("decay-overflow-guard-inverted", GRASSMANN,
     "    if not (np.isfinite(prob).all() and np.isfinite(log_ratio[sign != 0]).all()):\n",
     "    if np.isfinite(prob).all() and np.isfinite(log_ratio[sign != 0]).all():\n",
     ["tests/test_fit.py::TestAllowedStateTable"]),
    ("table-rare-split-dropped", STRUCTURE,
     "rare = share < _BORDER_BELOW", "rare = share < 0.0",
     ["tests/test_fit.py::TestAllowedStateTable::test_levels_at_the_bound_match_lam_space"]),
    ("beta-map-ordinal-as-categorical", SCHEMA,
     "(ordinal_col[bit_var] | np.eye(q, dtype=bool))", "np.eye(q, dtype=bool)",
     ["tests/test_fit.py::TestBatchedKernelIsExact", "tests/test_fit.py::TestNll"]),
    # K and W built block by block
    ("k-ordinal-subdiagonal-sign", STRUCTURE,
     "K[r, r - 1] = -1.0", "K[r, r - 1] = 1.0",
     ["tests/test_structure.py::TestQuasiDiagonalBlocks::test_ordinal_zero_bias"]),
    ("w-ordinal-on-every-row", STRUCTURE,
     "W[s : s + 1 if v.kind is VariableKind.ORDINAL else e] = row", "W[s:e] = row",
     ["tests/test_structure.py::TestAuxLoading::test_ordinal_first_row_only"]),
    ("state-plan-ends-predecessor", STRUCTURE,
     "ends[chained] -= ends[chained + 1]", "ends[chained + 1] -= ends[chained]",
     ["tests/test_general_paths.py::test_state_plan_matches_the_per_variable_loop",
      "tests/test_fit.py::TestNll"]),
    # conditional_params, one path for every T1, T1 = {} included
    ("conditional-t1-columns-not-negated", GRASSMANN,
     "tilde[:, T1] *= -1.0", "tilde[:, T1] *= 1.0",
     ["tests/test_grassmann.py::TestConditional"]),
    ("conditional-t1-diagonal-unshifted", GRASSMANN,
     "    tilde[T1, T1] += 1.0\n", "",
     ["tests/test_grassmann.py::TestConditional"]),
    # one construction for the table and the likelihood, and one probability rule
    ("gauss-jordan-forward-only-inverse", STRUCTURE,
     "rows = M if inverse else M[j + 1 :]", "rows = M[j + 1 :]",
     ["tests/test_fit.py::TestBatchedKernelIsExact"]),
    ("gauss-jordan-2x2-adjugate-sign", STRUCTURE,
     "np.negative(b[:h], out=inv[0, 1])", "np.copyto(inv[0, 1], b[:h])",
     ["tests/test_fit.py::TestBatchedKernelIsExact"]),
    ("ends-without-successor", STRUCTURE,
     "    ends[chained] -= ends[chained + 1]\n", "",
     ["tests/test_fit.py::TestOneConstruction"]),
    ("ends-ordinal-mask-dropped", STRUCTURE,
     "schema.block_maps.ordinal[var[:-1], 0] & (var[:-1] == var[1:])", "(var[:-1] == var[1:])",
     ["tests/test_fit.py::TestOneConstruction"]),
    ("probabilities-negative-zero", GRASSMANN,
     "    prob[sign == 0] = 0.0", "",
     ["tests/test_fit.py::TestAllowedStateTable", "tests/test_grassmann.py"]),
    # the kernels: the likelihood's gradient terms, the minors' popcount
    # groups, the oracle's determinant, the dummy encoding, the distinct-row
    # order, the CSV template and the model file's shape checks
    ("likelihood-share-dropped", STRUCTURE,
     "np.exp(beta - log_z @ members)", "np.exp(beta)",
     ["tests/test_fit.py::TestBatchedKernelIsExact"]),
    ("likelihood-g-w-sign", FIT,
     "g_w = n * x_bar @ inv_bar.T - maps.members", "g_w = n * x_bar @ inv_bar.T + maps.members",
     ["tests/test_fit.py::TestBatchedKernelIsExact"]),
    ("likelihood-g-v-decay-sign", FIT,
     "- decay[:, None] * per_bit)", "+ decay[:, None] * per_bit)",
     ["tests/test_fit.py::TestBatchedKernelIsExact"]),
    ("likelihood-g-omega-sign", FIT,
     "(to_x_bar * sums).sum(axis=0) - (decay", "(to_x_bar * sums).sum(axis=0) + (decay",
     ["tests/test_fit.py::TestBatchedKernelIsExact"]),
    ("log-minors-skip-top-popcount", GRASSMANN,
     "np.bincount(popcounts)[1:]", "np.bincount(popcounts)[1:-1]",
     ["tests/test_grassmann.py"]),
    ("naive-det-swap-parity", "src/grasscat/oracle.py",
     "det[piv != k] *= -1.0", "det[piv != k] *= 1.0",
     ["tests/test_oracle.py"]),
    ("oracle-schur-unguarded", "src/grasscat/oracle.py",
     "((p == 0.0) | ~(size <= bound))", "(p == 0.0)",
     ["tests/test_oracle.py::TestSchurMinors"]),
    ("oracle-schur-multiplier-side", "src/grasscat/oracle.py",
     "p, col, row, rest = stack[0, 0]", "p, row, col, rest = stack[0, 0]",
     ["tests/test_oracle.py::TestSchurMinors"]),
    ("bits-of-levels-ordinal", SCHEMA,
     "else col >= steps", "else col > steps",
     ["tests/test_schema.py"]),
    ("distinct-levels-sorted-order", SCHEMA,
     "order = np.argsort(first)", "order = np.arange(len(first))",
     ["tests/test_schema.py"]),
    ("csv-rows-separator", "src/grasscat/outputs.py",
     '_fill_rows(",".join(specs)', '_fill_rows(", ".join(specs)',
     ["tests/test_outputs.py"]),
    ("modelfile-matrix-ndim", MODELFILE,
     "    if arr.ndim != 2:\n", "    if arr.ndim > 2:\n",
     ["tests/test_cli.py::TestModelFileStrictness"]),
    ("modelfile-matrix-rows", MODELFILE,
     "    if rows is not None and arr.shape[0] != rows:\n", "    if False:\n",
     ["tests/test_cli.py::TestModelFileStrictness"]),
    ("modelfile-matrix-cols", MODELFILE,
     "    if cols is not None and arr.shape[1] != cols:\n", "    if False:\n",
     ["tests/test_cli.py::TestModelFileStrictness"]),
    ("modelfile-vector-length", MODELFILE,
     "    if length is not None and arr.shape[0] != length:\n", "    if False:\n",
     ["tests/test_cli.py::TestModelFileStrictness"]),
    # prob's pattern probabilities: the impossible pattern's zero, the
    # constrained-only product, the border row, the given's sign checks and
    # the model checked before the patterns
    ("pattern-impossible-divided", STRUCTURE,
     "border = constrained & (mass < _BORDER_BELOW)",
     "border = constrained & (mass > 0.0) & (mass < _BORDER_BELOW)",
     ["tests/test_patterns.py::TestRules"]),
    ("pattern-free-variable-mass", STRUCTURE,
     "s = np.where(constrained & ~border, mass, 1.0)", "s = np.where(~border, mass, 1.0)",
     ["tests/test_patterns.py::TestRules"]),
    ("pattern-border-row-sign", STRUCTURE,
     "bordered[j, :a, i] = -w[v]", "bordered[j, :a, i] = w[v]",
     ["tests/test_patterns.py::TestAgreement"]),
    ("prob-given-zero-unchecked", CLI,
     "    if p_given == 0.0:\n", "    if False:\n",
     ["tests/test_patterns.py"]),
    ("prob-given-negative-unchecked", CLI,
     "    if p_given < 0.0:\n", "    if False:\n",
     ["tests/test_patterns.py"]),
    ("prob-pattern-before-model", CLI,
     "        conditional_pattern_probability(mf.schema, mf.params, {}, {})\n", "",
     ["tests/test_patterns.py::TestProbCommand"]),
    # one check on the way in, one rule on the way out: the probability
    # rule, its sign-0 exemption, the prior's check and the NLL's rule
    ("probability-rule-dropped", GRASSMANN,
     "    if not (np.isfinite(prob).all() and np.isfinite(log_ratio[sign != 0]).all()):\n",
     "    if False:\n",
     ["tests/test_fit.py::TestAllowedStateTable::test_finite_parameters_whose_x_overflows_raise",
      "tests/test_cli.py::TestOverflowingModelsExitTwo"]),
    ("rule-sign-zero-not-exempt", GRASSMANN,
     "np.isfinite(log_ratio[sign != 0]).all()", "np.isfinite(log_ratio).all()",
     ["tests/test_grassmann.py::TestProbabilityRule::test_singular_minors_give_exact_plus_zero"]),
    ("prior-overflow-check-dropped", FACTOR,
     "    if not np.isfinite(logw).all():\n", "    if False:\n",
     ["tests/test_factor.py::TestPriorOverflow", "tests/test_cli.py::TestOverflowingModelsExitTwo"]),
    ("likelihood-nan-sign-passes", FIT,
     "if not (sign > 0 and np.isfinite(nll)):", "if sign <= 0:",
     ["tests/test_fit.py::TestOneCheckOneRule"]),
    ("likelihood-nll-finiteness-dropped", FIT,
     "if not (sign > 0 and np.isfinite(nll)):", "if not sign > 0:",
     ["tests/test_fit.py::TestOneCheckOneRule"]),
    # the certified objective: the signs of the states no row reaches, a
    # finite wall, the V rows of unobserved levels held at 0, and an
    # uncertified start halved
    ("rest-signs-dropped", STRUCTURE,
     "return np.concatenate([sign, rest]).min(), logdet, inv", "return sign.min(), logdet, inv",
     ["tests/test_fit.py::TestCertifiedObjective"]),
    ("wall-infinite", FIT,
     "return f0 + 1.0 + abs(f0), np.zeros_like(x)", "return np.inf, np.zeros_like(x)",
     ["tests/test_fit.py::TestCertifiedObjective"]),
    ("unseen-v-rows-free", FIT,
     "[(0.0, 0.0) if held else (None, None) for held", "[(None, None) for held",
     ["tests/test_fit.py::TestCertifiedObjective"]),
    ("start-not-halved", FIT,
     "            x[i:l] *= 0.5\n", "",
     ["tests/test_fit.py::TestCertifiedObjective"]),
    # the one-stack certificate: its two reductions and the 1 x 1 closed form
    ("certificate-lower-bound-dropped", STRUCTURE,
     "size.min() >= _DET_RANGE[0] and ", "",
     ["tests/test_fit.py::TestOneStackCertificate"]),
    ("certificate-nanmin", STRUCTURE,
     "size.min()", "np.nanmin(size)",
     ["tests/test_fit.py::TestOneStackCertificate"]),
    ("one-by-one-sign-dropped", STRUCTURE,
     "det = A[0, 0].copy()", "det = np.abs(A[0, 0])",
     ["tests/test_fit.py::TestOneStackCertificate"]),
    # the a-space moments and the oracle's one-bit marginals
    ("woodbury-correction-sign", STRUCTURE,
     "sig = d_inv - (inv_z", "sig = d_inv + (inv_z",
     ["tests/test_fit.py::TestStructuredMoments"]),
    ("oracle-marginal-source", CLI,
     "np.abs(table.mean - ones)", "np.abs(table.mean - mean)",
     ["tests/test_cli.py::TestOracleCommand"]),
    # the index and bit checks of the mixed functions and the oracle's conditional
    ("mixed-t-unchecked", GRASSMANN,
     "if len(set(ints)) != len(T) or any(t < 0 or t >= q for t in ints):", "if False:",
     ["tests/test_mixed.py::TestIndexAndBitChecks"]),
    ("mixed-bits-unchecked", GRASSMANN,
     "if not ((y == 0) | (y == 1)).all():", "if False:",
     ["tests/test_mixed.py::TestIndexAndBitChecks"]),
    ("oracle-conditional-range-unchecked", "src/grasscat/oracle.py",
     "any(i < 0 or i >= table.q for i in index_set)", "False",
     ["tests/test_oracle.py::test_conditional_index_sets_are_range_checked"]),
    # index sets in the caller's order: each value stays with its index
    ("index-set-sorted", GRASSMANN,
     "ints = [int(t) for t in T if _integral(t)]",
     "ints = sorted(int(t) for t in T if _integral(t))",
     ["tests/test_grassmann.py::TestConditional::test_unsorted_t_follows_the_callers_order",
      "tests/test_grassmann.py::TestMarginal::test_unsorted_set_follows_the_callers_order",
      "tests/test_mixed.py::TestIndexOrder"]),
    ("mixed-partition-sorted", MIXED,
     "tuple(getattr(self, name))", "tuple(sorted(getattr(self, name)))",
     ["tests/test_mixed.py::TestIndexOrder"]),
    ("oracle-conditional-sorts-t", "src/grasscat/oracle.py",
     "S, T = _table_indices(table, S), _table_indices(table, T)",
     "S, T = _table_indices(table, S), tuple(sorted(_table_indices(table, T)))",
     ["tests/test_oracle.py::test_conditional_follows_the_callers_order"]),
    # one finiteness check, one covariance check and 0/1 bits for every reader
    ("factor-finiteness-skipped", FACTOR,
     "        _check_finite(**vars(self))  # first: a NaN passes the covariance check\n", "",
     ["tests/test_factor.py::TestSharedChecks"]),
    ("covariance-symmetry-dropped", MIXED,
     "if cov.shape == cov.T.shape and np.abs(cov - cov.T).max(initial=0.0) > 1e-10:",
     "if False:",
     ["tests/test_factor.py::TestSharedChecks"]),
    ("state-probabilities-without-bits", GRASSMANN,
     'states = _bits(states, "states")', "states = np.asarray(states)",
     ["tests/test_grassmann.py::TestStatesAreBits"]),
    ("posterior-without-bits", FACTOR,
     'yv = _bits(y, "y").astype(float)', "yv = np.asarray(y, dtype=float)",
     ["tests/test_factor.py::TestSharedChecks::test_posterior_refuses_a_non_bit"]),
    ("oracle-conditional-bits-unchecked", "src/grasscat/oracle.py",
     "if any(bit not in (0, 1) for bit in y_T):", "if False:",
     ["tests/test_oracle.py::test_conditional_refuses_a_non_bit_y_t"]),
    # the mixed densities' subset walk: its growth guard and its fallback
    ("mixed-walk-unguarded", MIXED,
     "bad = ~(size <= bound)", "bad = ~(size <= np.inf)",
     ["tests/test_mixed.py::TestSubsetMinors"]),
    ("mixed-walk-fallback-skipped", MIXED,
     "for lo in range(0, redo.size, _CHUNK):", "for lo in range(0, 0, _CHUNK):",
     ["tests/test_mixed.py::TestSubsetMinors"]),
    # the factor readers' checks of x's length and of the prior's raw inputs
    ("factor-x-length-unchecked", FACTOR,
     "    if x.shape != (model.p_x,):\n", "    if False:\n",
     ["tests/test_factor.py::TestSharedChecks"]),
    ("prior-finiteness-skipped", FACTOR,
     "    _check_finite(b=b, G=G, sigma_z=sigma_z)  # first: a NaN passes the covariance check\n",
     "",
     ["tests/test_factor.py::TestSharedChecks"]),
    # one enumeration cap in one unit, the items walked: its comparison, its
    # default, and the 2**q count at each scan
    ("cap-inclusive", CAPS,
     "if n > limit:", "if n >= limit:",
     ["tests/test_caps.py"]),
    ("cap-default-lowered", CAPS,
     "CAP_DEFAULT = 2**20", "CAP_DEFAULT = 2**20 - 1",
     ["tests/test_caps.py"]),
    ("cap-check-p0-counts-bits", GRASSMANN,
     "check_cap(2**p.q,", "check_cap(p.q,",
     ["tests/test_caps.py::TestOneUnit"]),
    ("cap-mixed-counts-bits", MIXED,
     "check_cap(2**mp.q,", "check_cap(mp.q,",
     ["tests/test_caps.py::TestOneUnit"]),
    ("cap-oracle-counts-bits", "src/grasscat/oracle.py",
     "check_cap(2**q,", "check_cap(q,",
     ["tests/test_caps.py::TestOneUnit"]),
    # one index rule, int(v) == v, in the library's reader and the oracle's own
    ("index-set-truncates", GRASSMANN,
     "ints = [int(t) for t in T if _integral(t)]", "ints = [int(t) for t in T]",
     ["tests/test_index_rule.py"]),
    ("oracle-indices-truncate", "src/grasscat/oracle.py",
     "if index_set != given or any(", "if any(",
     ["tests/test_index_rule.py::TestOracle"]),
]


def _run_tests(tree: str, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=1800).returncode


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m[0] for a in argv)]
    status = 0
    with tempfile.TemporaryDirectory(prefix="grasscat-mutants-") as tmp:
        base = os.path.join(tmp, "base")
        shutil.copytree(ROOT, base, ignore=_IGNORE)
        all_tests = sorted({t for m in chosen for t in m[4]})
        if _run_tests(base, all_tests) != 0:
            print("the unchanged tree fails the listed tests", flush=True)
            return 2
        for name, rel, old, new, tests in chosen:
            tree = os.path.join(tmp, name)
            shutil.copytree(base, tree, ignore=_IGNORE)
            path = os.path.join(tree, rel)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(old) != 1:
                print(f"{name}: its old text occurs {text.count(old)} times in {rel}", flush=True)
                return 2
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
            start = time.perf_counter()
            code = _run_tests(tree, tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            print(f"{name:34s} {verdict:10s} {time.perf_counter() - start:6.1f} s  "
                  f"{' '.join(tests)}", flush=True)
            if code not in (0, 1):
                return 2
            if code == 0:
                status = 1
            shutil.rmtree(tree)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
