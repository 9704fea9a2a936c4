"""Refusals that the rest of the suite never reaches: each call raises its
exception type with its exact one-line message, before any other work."""

import re

import numpy as np
import pytest

from grasscat.cli import run_command
from grasscat.errors import (
    ConditioningError, DataError, InvalidStateError, ParameterError, SchemaError,
)
from grasscat.factor import (
    FactorFitConfig,
    FactorModel,
    combined_loadings,
    fit_factor_model,
    observed_density,
    posterior,
    select_dimension_bic,
)
from grasscat.fit import FitConfig, state_counts
from grasscat.grassmann import (
    GrassmannParams,
    conditional_zero_moments,
    joint_probability,
    marginal_params,
    state_probabilities,
)
from grasscat.mixed import (
    MixedParams,
    MixedPartition,
    conditional_binary_given_continuous,
    mixed_conditional_density,
    mixed_joint_density,
)
from grasscat.modelfile import ModelFile, save_model
from grasscat.oracle import brute_force_table, oracle_conditional
from grasscat.schema import DummyState, VariableDecl, VariableSchema, decode_state
from grasscat.structure import StructuredParams, categorical_pmf, flat_params, ordinal_pmf

from generators import CAT, ORD, random_valid_params

SCHEMA = VariableSchema([VariableDecl("c", CAT, 3), VariableDecl("o", ORD, 3)])  # q = 4
LEVELS = np.array([[0, 1], [2, 2], [1, 0]])


def _factor(p_x=1, **changes):
    """A valid factor model on SCHEMA with p_z = 1, with ``changes`` applied."""
    fields = dict(
        mu_x=np.zeros(p_x), psi_noise=np.ones(p_x), W_load=np.zeros((p_x, 1)),
        b=np.zeros(SCHEMA.q), G=np.zeros((SCHEMA.q, 1)), mu_z=np.zeros(1), sigma_z=np.eye(1),
    )
    fields.update(changes)
    return FactorModel(**fields)


def _mixed(**changes):
    """A valid mixed model with p = 2 and q = 3, with ``changes`` applied."""
    fields = dict(mu=np.zeros(2), sigma=np.eye(2), lam=2.0 * np.eye(3), G=np.zeros((3, 2)))
    fields.update(changes)
    return MixedParams(**fields)


def _planted_singular_lambda():
    """A checked q = 2 parameter whose lam is then replaced by a singular one:
    no lam @ sig = I check passes a lam whose slogdet is 0, so only a planted
    one reaches the guard."""
    p = GrassmannParams.from_lambda(2.0 * np.eye(2))
    object.__setattr__(p, "lam", np.ones((2, 2)))
    return p


def _structured(**changes):
    fields = dict(
        b=(np.zeros(2), np.zeros(2)), w=(np.zeros(1), np.zeros(1)),
        V=np.zeros((SCHEMA.q, 1)), omega=np.full(1, 0.5),
    )
    fields.update(changes)
    return StructuredParams(**fields)


ZERO_PIVOT = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])  # det -1

CASES = {
    # factor
    "factor-model-w-shape": (
        lambda: _factor(W_load=np.zeros((2, 1))), ParameterError, "W_load shape (2, 1) != (1,1)"),
    "factor-model-g-shape": (
        lambda: _factor(G=np.zeros((4, 2))), ParameterError, "G shape (4, 2) != (4,1)"),
    "factor-model-sigma-z-shape": (
        lambda: _factor(sigma_z=np.eye(2)), ParameterError, "sigma_z shape (2, 2) != (1,1)"),
    "factor-model-psi-shape": (
        lambda: _factor(psi_noise=np.ones(2)), ParameterError,
        "psi_noise must be the diagonal, one entry per x"),
    "observed-density-x-without-block": (
        lambda: observed_density(SCHEMA, _factor(p_x=0), [0, 0, 0, 0], [0.5]), ParameterError,
        "model has no continuous block but x was given"),
    "observed-density-block-without-x": (
        lambda: observed_density(SCHEMA, _factor(), [0, 0, 0, 0]), ParameterError,
        "model has a continuous block; x is required"),
    "posterior-y-length": (
        lambda: posterior(_factor(), [0, 0, 0], [0.5]), ParameterError, "y must have length 4"),
    "combined-loadings-g-rows": (
        lambda: combined_loadings(SCHEMA, np.zeros((3, 1))), SchemaError,
        "G has 3 rows, schema dummy dimension is 4"),
    "factor-config-max-iter": (
        lambda: FactorFitConfig(max_iter=0), ValueError, "max_iter and restarts must be positive"),
    "factor-config-restarts": (
        lambda: FactorFitConfig(restarts=-1), ValueError,
        "max_iter and restarts must be positive"),
    "factor-fit-negative-p-z": (
        lambda: fit_factor_model(SCHEMA, LEVELS, -1), ValueError, "p_z must be nonnegative"),
    "factor-fit-x-with-counts": (
        lambda: fit_factor_model(SCHEMA, state_counts(SCHEMA, LEVELS), 1,
                                 x_data=np.zeros((3, 1))),
        DataError, "x_data requires row-level data, not StateCounts"),
    "factor-fit-x-rows": (
        lambda: fit_factor_model(SCHEMA, LEVELS, 1, x_data=np.zeros((2, 1))), DataError,
        "x_data must be (n_rows, p_x)"),
    "factor-fit-x-ndim": (
        lambda: fit_factor_model(SCHEMA, LEVELS, 1, x_data=np.zeros(3)), DataError,
        "x_data must be (n_rows, p_x)"),
    "bic-empty-range": (
        lambda: select_dimension_bic(SCHEMA, LEVELS, []), ValueError,
        "p_z range must be nonempty and nonnegative"),
    "bic-negative-range": (
        lambda: select_dimension_bic(SCHEMA, LEVELS, [-1, 0]), ValueError,
        "p_z range must be nonempty and nonnegative"),
    # fit
    "fit-config-max-iter": (
        lambda: FitConfig(max_iter=0), ValueError,
        "max_iter, grad_tol, and restarts must be positive"),
    "fit-config-grad-tol": (
        lambda: FitConfig(grad_tol=0.0), ValueError,
        "max_iter, grad_tol, and restarts must be positive"),
    "fit-config-restarts": (
        lambda: FitConfig(restarts=-2), ValueError,
        "max_iter, grad_tol, and restarts must be positive"),
    "fit-config-negative-a": (
        lambda: FitConfig(a=-1), ValueError, "a must be nonnegative"),
    # grassmann
    "grassmann-shapes-differ": (
        lambda: GrassmannParams(lam=np.eye(2), sig=np.eye(3)), ParameterError,
        "lam and sig shapes differ"),
    "joint-probability-y-length": (
        lambda: joint_probability(random_valid_params(np.random.default_rng(1), 3), [0, 1]),
        ParameterError, "y must have length 3, got shape (2,)"),
    "state-probabilities-singular-lam": (
        lambda: state_probabilities(_planted_singular_lambda(), np.zeros((1, 2))),
        ParameterError, "lam is singular"),
    "marginal-singular-sig-block": (
        lambda: marginal_params(GrassmannParams.from_sigma([[0.0, 1.0], [1.0, 0.0]]), [0]),
        ParameterError, "sig[T, T] is singular for T=[0]"),
    "zero-moments-zero-lam-rr": (
        lambda: conditional_zero_moments(
            GrassmannParams.from_lambda([[0.0, 1.0], [1.0, 0.0]]), 0, 1),
        ConditioningError, "lam[0,0] is zero; conditional mean undefined"),
    "zero-moments-zero-pivot": (
        lambda: conditional_zero_moments(GrassmannParams.from_lambda(ZERO_PIVOT), 0, 1),
        ConditioningError, "degenerate 2x2 pivot; conditional covariance undefined"),
    # mixed
    "mixed-sigma-shape": (
        lambda: _mixed(sigma=np.eye(3)), ParameterError, "sigma shape (3, 3) != (2,2)"),
    "mixed-lam-not-square": (
        lambda: _mixed(lam=np.ones((3, 2))), ParameterError, "lam must be square"),
    "mixed-partition-continuous": (
        lambda: mixed_conditional_density(
            _mixed(), MixedPartition(J=(0, 0), L=(), K=(), S=(0, 1, 2), U=(), T=()),
            np.zeros(2), (0, 0, 0), (), ()),
        ParameterError, "(J, L, K) must partition 0..1"),
    "mixed-partition-binary": (
        lambda: mixed_conditional_density(
            _mixed(), MixedPartition(J=(0, 1), L=(), K=(), S=(0, 1), U=(), T=(1,)),
            np.zeros(2), (0, 0), (), (0,)),
        ParameterError, "(S, U, T) must partition 0..2"),
    "mixed-x-length": (
        lambda: mixed_conditional_density(
            _mixed(), MixedPartition(J=(0,), L=(), K=(1,), S=(0, 1, 2), U=(), T=()),
            np.zeros(2), (0, 0, 0), np.zeros(1), ()),
        ParameterError, "x_J or x_K has the wrong length"),
    "mixed-y-length": (
        lambda: mixed_conditional_density(
            _mixed(), MixedPartition(J=(0, 1), L=(), K=(), S=(0,), U=(), T=(1, 2)),
            np.zeros(2), (0,), (), (0,)),
        ParameterError, "y_S or y_T has the wrong length"),
    "mixed-nonpositive-normalizer": (
        lambda: mixed_joint_density(
            MixedParams(mu=np.zeros(1), sigma=np.eye(1), lam=-np.eye(1), G=np.zeros((1, 1))),
            np.zeros(1), (0,)),
        ParameterError, "mixture normalizer is nonpositive; parameters invalid"),
    "binary-given-continuous-x-length": (
        lambda: conditional_binary_given_continuous(_mixed(), np.zeros(3)), ParameterError,
        "x must have length 2"),
    "binary-given-continuous-empty-s": (
        lambda: conditional_binary_given_continuous(_mixed(), np.zeros(2), (0, 1, 2), (0, 1, 0)),
        ParameterError, "S is empty; nothing to condition"),
    # oracle, schema and structure
    "oracle-conditional-y-t-length": (
        lambda: oracle_conditional(
            brute_force_table(random_valid_params(np.random.default_rng(1), 3)), [0], [1], [1, 0]),
        ParameterError, "y_T length must match T"),
    "variable-name-empty": (
        lambda: VariableDecl("", CAT, 2), SchemaError, "variable name must be nonempty"),
    "dummy-state-not-bits": (
        lambda: DummyState((0, 2)), InvalidStateError, "bits must be 0/1, got (0, 2)"),
    "decode-state-length": (
        lambda: decode_state(SCHEMA, DummyState((0, 0, 0))), InvalidStateError,
        "state has 3 bits, schema dummy dimension is 4"),
    "flat-params-b-count": (
        lambda: flat_params(SCHEMA, _structured(b=(np.zeros(2),))), SchemaError,
        "expected 2 b vectors, got 1"),
    "flat-params-w-count": (
        lambda: flat_params(SCHEMA, _structured(w=(np.zeros(1),) * 3)), SchemaError,
        "expected 2 w vectors, got 3"),
    "flat-params-v-shape": (
        lambda: flat_params(SCHEMA, _structured(V=np.zeros((3, 1)))), SchemaError,
        "V has shape (3, 1), expected (4, 1)"),
    "flat-params-omega-shape": (
        lambda: flat_params(SCHEMA, _structured(omega=np.full(2, 0.5))), SchemaError,
        "omega has shape (2,), expected (1,)"),
    "categorical-pmf-block-shape": (
        lambda: categorical_pmf(np.zeros(2), [0, 0, 0]), SchemaError,
        "block shape (3,) does not match b shape (2,)"),
    "ordinal-pmf-block-shape": (
        lambda: ordinal_pmf(np.zeros(3), [1, 0]), SchemaError,
        "block shape (2,) does not match b shape (3,)"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_refusal(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_save_model_of_an_unknown_kind_writes_nothing(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(SchemaError, match=r"^unknown model kind 'weird'$"):
        save_model(ModelFile("weird", SCHEMA, None, None), str(path))
    assert not path.exists()


@pytest.mark.parametrize("y", ["0,1", "0,1,0,1"])
def test_mixed_eval_y_token_count(tmp_path, capsys, monkeypatch, y):
    save_model(ModelFile("mixed", None, _mixed(), None), str(tmp_path / "m.json"))
    monkeypatch.chdir(tmp_path)
    assert run_command(["mixed", "eval", "--model", "m.json", "--x", "0,0", "--y", y]) == 1
    assert capsys.readouterr() == ("", "error: --y must have 3 comma-separated tokens\n")
