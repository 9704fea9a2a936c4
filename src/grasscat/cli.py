"""Command-line interface.

Subcommands: validate, fit, moments, prob, sample, fa fit, fa bic,
fa biplot, mixed eval, oracle check.  Exit codes: 0 success, 1 validation
error, 2 numerical failure, 64 usage error.  All randomness flows from the
--seed flag, and identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .errors import (
    ConditioningError,
    DataError,
    EnumerationCapError,
    GrasscatError,
    InvalidStateError,
    ParameterError,
    SchemaError,
)
from .factor import (
    FactorFitConfig,
    _prior_table,
    _x_given_states,
    biplot_export,
    fit_factor_model,
    select_dimension_bic,
)
from .fit import FitConfig, fit_grassmann, state_counts
from .grassmann import _correlation, _p0_report, weighted_moments
from .mixed import MixedParams, MixedPartition, mixed_conditional_density
from .modelfile import ModelFile, load_model, save_model
from .oracle import brute_force_table
from .outputs import _csv_rows, _level_rows, write_csv
from .schema import (
    VariableKind,
    VariableSchema,
    _distinct_levels,
    allowed_table,
    load_data_levels,
    load_schema,
)
from .structure import (
    StructuredParams, _allowed_state_probabilities, _pattern_probabilities, _structured_moments,
    assemble_lambda,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _positive_float(text: str) -> float:
    """argparse type: a float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _latent_aux(text: str) -> str | int:
    """argparse type: 'auto' or an integer >= 0."""
    return text if text == "auto" else _nonnegative_int(text)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


# -- pattern language ---------------------------------------------------------

def parse_pattern(schema: VariableSchema, text: str) -> dict[int, int]:
    """Compile 'Var=l' / 'Var>=l' clauses (comma separated) into a partial
    dummy-bit assignment {index: bit}."""
    assignment: dict[int, int] = {}
    seen: set[str] = set()
    if not text.strip():
        return assignment
    for clause in text.split(","):
        clause = clause.strip()
        if ">=" in clause:
            name, _, value = clause.partition(">=")
            op = ">="
        elif "=" in clause:
            name, _, value = clause.partition("=")
            op = "="
        else:
            raise DataError(f"cannot parse clause {clause!r}: expected Var=l or Var>=l")
        name = name.strip()
        try:
            level = int(value)
        except ValueError:
            raise DataError(f"clause {clause!r}: level must be an integer") from None
        if name not in schema.names:
            raise DataError(f"clause {clause!r}: unknown variable {name!r}")
        if name in seen:
            raise DataError(f"variable {name!r} appears in more than one clause")
        seen.add(name)
        j = schema.names.index(name)
        var = schema.variables[j]
        s, e = schema.blocks[j]
        if not (0 <= level <= var.block_size):
            raise DataError(
                f"clause {clause!r}: level out of range 0..{var.block_size}"
            )
        ordinal = var.kind is VariableKind.ORDINAL
        if op == ">=" and not ordinal:
            raise DataError(f"clause {clause!r}: >= applies to ordinal variables only")
        # bit s + l - 1 stands for level l; '>=' fixes only the bits it sets
        for l in range(1, var.block_size + 1):
            bit = l <= level if ordinal else l == level
            if op == "=" or bit:
                assignment[s + l - 1] = int(bit)
    return assignment


def conditional_pattern_probability(
    schema: VariableSchema,
    sp: StructuredParams,
    query: dict[int, int],
    given: dict[int, int],
) -> float:
    """p(query-pattern | given-pattern) under the structured parameters
    ``sp``: the ratio of P(query and given) to P(given), both from one call
    of :func:`structure._pattern_probabilities` (not enumeration)."""
    overlap = set(query) & set(given)
    if overlap:
        raise DataError(f"query and given overlap on dummy indices {sorted(overlap)}")
    both = {**query, **given}
    bits = np.array([[p.get(r, -1) for r in range(schema.q)] for p in (both, given)])
    joint, p_given = _pattern_probabilities(schema, sp, bits >= 0, bits == 1)
    if p_given == 0.0:
        raise ConditioningError("conditioning event has probability zero")
    if p_given < 0.0:
        raise ParameterError(f"conditioning event has negative probability {p_given:.3e}")
    return float(joint / p_given)


# -- model loading helpers ------------------------------------------------------

def _load_kind(path: str, kind: str) -> ModelFile:
    mf = load_model(path)
    if mf.kind != kind:
        raise DataError(f"model {path} has kind {mf.kind!r}; expected {kind!r}")
    return mf


# -- subcommand implementations ---------------------------------------------------

def _cmd_validate(args) -> int:
    schema = load_schema(args.schema)
    out = {
        "ok": True,
        "variables": len(schema),
        "q": schema.q,
        "allowed_states": schema.n_states(),
    }
    if args.data:
        levels = load_data_levels(schema, args.data)
        out["rows"] = len(levels)
        out["distinct_states"] = len(_distinct_levels(levels)[1])
    _emit(out)
    return 0


def _cmd_fit(args) -> int:
    schema = load_schema(args.schema)
    counts = state_counts(schema, load_data_levels(schema, args.data))
    config = FitConfig(
        max_iter=args.max_iter, grad_tol=args.tol, restarts=args.restarts, seed=args.seed
    )
    sweep = []
    if args.latent_aux == "auto":
        # raise the auxiliary dimension until the likelihood saturates
        prev_nll = None
        chosen = None
        for a in range(0, min(schema.q, 4) + 1):
            rep = fit_grassmann(schema, counts, dataclasses.replace(config, a=a))
            sweep.append({"a": a, "nll": float(rep.nll)})
            if prev_nll is not None:
                rel = (prev_nll - rep.nll) / max(1.0, abs(prev_nll))
                if rel < 1e-3:
                    break
            prev_nll = rep.nll
            chosen = (a, rep)
        a, report = chosen
    else:
        a = args.latent_aux
        report = fit_grassmann(schema, counts, dataclasses.replace(config, a=a))
    mf = ModelFile(
        kind="grassmann",
        schema=schema,
        params=report.params,
        fit_report=report.to_dict(),
    )
    save_model(mf, args.out)
    corr_path = args.out_corr or (args.out + ".corr.csv")
    labels = schema.index_labels()
    write_csv(
        corr_path,
        ["label", *labels],
        [[lab, *[float(v) for v in row]] for lab, row in zip(labels, report.corr_model)],
    )
    out = {"a": a, "out": args.out, "corr": corr_path, "report": report.to_dict()}
    if sweep:
        out["sweep"] = sweep
    _emit(out)
    return 0


def _cmd_moments(args) -> int:
    mf = load_model(args.model)
    schema = mf.schema
    if mf.kind == "grassmann":
        mean, cov = _structured_moments(schema, mf.params)
        corr = _correlation(cov)
    elif mf.kind == "factor":
        states, w = _prior_table(schema, mf.params.b, mf.params.G, mf.params.sigma_z)
        mean, cov, corr = weighted_moments(states, w)
    else:
        raise DataError("moments supports grassmann and factor models")
    _emit(
        {
            "labels": list(schema.index_labels()),
            "mean": mean.tolist(),
            "cov": cov.tolist(),
            "corr": corr.tolist(),
        }
    )
    return 0


def _cmd_prob(args) -> int:
    mf = _load_kind(args.model, "grassmann")
    try:
        query = parse_pattern(mf.schema, args.query)
        given = parse_pattern(mf.schema, args.given) if args.given else {}
    except DataError:
        # a model that cannot be scored is reported before a bad pattern
        conditional_pattern_probability(mf.schema, mf.params, {}, {})
        raise
    prob = conditional_pattern_probability(mf.schema, mf.params, query, given)
    _emit(
        {
            "query": args.query,
            "given": args.given or "",
            "probability": float(prob),
        }
    )
    return 0


def _cmd_sample(args) -> int:
    mf = load_model(args.model)
    schema, rng = mf.schema, np.random.default_rng(args.seed)
    if mf.kind == "grassmann":
        probs = _allowed_state_probabilities(schema, mf.params)
    elif mf.kind == "factor":
        model = mf.params
        states, probs = _prior_table(schema, model.b, model.G, model.sigma_z)
    else:
        raise DataError("sampling supports grassmann and factor models")
    if probs.min() < 0.0:  # the table already zeroes values in [-1e-12, 0)
        raise ParameterError(f"model assigns negative probability {probs.min():.3e}")
    probs /= probs.sum()
    # the uniforms in increasing order give nondecreasing draws: each run of
    # equal draws is one distinct state, whose level cells are formatted once
    uniforms = rng.random(args.n)
    order = np.argsort(uniforms)
    draws = np.searchsorted(np.cumsum(probs), uniforms[order], side="right")
    draws = np.minimum(draws, len(probs) - 1)
    first = np.diff(draws, prepend=-1) != 0
    distinct = draws[first]
    inverse = np.empty(args.n, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    rows = np.array(_level_rows(allowed_table(schema)[1][distinct]), dtype=object)
    rows = rows[inverse].tolist()
    header = list(schema.names)
    if mf.kind == "factor" and model.p_x:
        header += [f"x{i + 1}" for i in range(model.p_x)]
        means, cov = _x_given_states(model, states[distinct])
        chol = np.linalg.cholesky(cov)
        means = np.reshape(means, (len(distinct), model.p_x))  # also when n = 0
        # row r takes the r-th standard-normal vector of the stream
        x = means[inverse] + rng.standard_normal((args.n, model.p_x)) @ chol.T
        rows = [row + "," + cells for row, cells in zip(rows, _csv_rows(x))]
    write_csv(args.out, header, rows)
    _emit({"out": args.out, "n": args.n, "seed": args.seed})
    return 0


def _factor_inputs(args) -> tuple:
    """The schema, the data's state counts and the fit config of ``fa fit``
    and ``fa bic``, read in that order."""
    schema = load_schema(args.schema)
    counts = state_counts(schema, load_data_levels(schema, args.data))
    config = FactorFitConfig(max_iter=args.max_iter, restarts=args.restarts, seed=args.seed)
    return schema, counts, config


def _cmd_fa_fit(args) -> int:
    schema, counts, config = _factor_inputs(args)
    model, report = fit_factor_model(schema, counts, args.latent_dim, config)
    mf = ModelFile(kind="factor", schema=schema, params=model, fit_report=report.to_dict())
    save_model(mf, args.out)
    _emit({"out": args.out, "latent_dim": args.latent_dim, "report": report.to_dict()})
    return 0


def _cmd_fa_bic(args) -> int:
    schema, counts, config = _factor_inputs(args)
    if args.min_dim > args.max_dim:
        raise DataError("--min-dim must not exceed --max-dim")
    table, model, report = select_dimension_bic(
        schema, counts, range(args.min_dim, args.max_dim + 1), config
    )
    out = {"table": table.to_dict()}
    if args.out:
        mf = ModelFile(
            kind="factor", schema=schema, params=model, fit_report=report.to_dict()
        )
        save_model(mf, args.out)
        out["out"] = args.out
    _emit(out)
    return 0


def _cmd_fa_biplot(args) -> int:
    mf = _load_kind(args.model, "factor")
    if mf.params.p_x:  # the data CSV holds no continuous columns
        raise DataError(
            f"model {args.model} has a continuous block (p_x = {mf.params.p_x}); "
            "fa biplot supports factor models with p_x = 0"
        )
    schema = mf.schema
    levels = load_data_levels(schema, args.data)
    bp = biplot_export(
        schema, mf.params, levels, args.out_svg, args.out_scores, args.out_loadings
    )
    _emit(
        {
            "out_svg": args.out_svg,
            "out_scores": args.out_scores,
            "out_loadings": args.out_loadings,
            "points": len(bp.row_ids),
            "padded": bp.padded,
            "contribution_ratios": [float(r) for r in bp.contribution_ratios],
        }
    )
    return 0


def _parse_mixed_tokens(text: str, kind: str) -> list[tuple[str, float]]:
    """Tokens per coordinate: a finite number (query value), '?'
    (marginalize), or 'g:NUMBER' (condition on the value)."""
    out: list[tuple[str, float]] = []
    text = text.strip()
    if not text:
        return out
    for tok in text.split(","):
        tok = tok.strip()
        if tok == "?":
            out.append(("missing", 0.0))
            continue
        role, num = ("given", tok[2:]) if tok.startswith("g:") else ("query", tok)
        try:
            val = float(num)
        except ValueError:
            raise DataError(f"bad {kind} token {tok!r}") from None
        if not math.isfinite(val):
            raise DataError(f"{kind} token {tok!r} is not a finite number")
        out.append((role, val))
    return out


def _cmd_mixed_eval(args) -> int:
    mf = _load_kind(args.model, "mixed")
    mp: MixedParams = mf.params
    x_tokens = _parse_mixed_tokens(args.x or "", "x")
    y_tokens = _parse_mixed_tokens(args.y or "", "y")
    if len(x_tokens) != mp.p:
        raise DataError(f"--x must have {mp.p} comma-separated tokens")
    if len(y_tokens) != mp.q:
        raise DataError(f"--y must have {mp.q} comma-separated tokens")
    for role, val in y_tokens:
        if role != "missing" and val not in (0.0, 1.0):
            raise DataError("y values must be bits (0 or 1)")
    J = tuple(i for i, (r, _) in enumerate(x_tokens) if r == "query")
    L = tuple(i for i, (r, _) in enumerate(x_tokens) if r == "missing")
    K = tuple(i for i, (r, _) in enumerate(x_tokens) if r == "given")
    S = tuple(i for i, (r, _) in enumerate(y_tokens) if r == "query")
    U = tuple(i for i, (r, _) in enumerate(y_tokens) if r == "missing")
    T = tuple(i for i, (r, _) in enumerate(y_tokens) if r == "given")
    part = MixedPartition(J=J, L=L, K=K, S=S, U=U, T=T)
    x_J = np.asarray([x_tokens[i][1] for i in J])
    x_K = np.asarray([x_tokens[i][1] for i in K])
    y_S = np.asarray([int(y_tokens[i][1]) for i in S])
    y_T = np.asarray([int(y_tokens[i][1]) for i in T])
    density = mixed_conditional_density(mp, part, x_J, y_S, x_K, y_T)
    mode = "conditional" if K or T else "marginal" if L or U else "joint"
    _emit({"mode": mode, "density": density})
    return 0


def _allowed_state_vector(schema: VariableSchema, sp: StructuredParams) -> np.ndarray:
    """The allowed-state table's probabilities over all 2**q states, in
    :func:`grassmann.all_state_probabilities`' order: allowed row s goes to
    mask sum_i bit_i 2**i, and every other state is +0.0."""
    bits = allowed_table(schema)[0]
    probs = np.zeros(2**schema.q)
    probs[bits @ (1 << np.arange(schema.q))] = _allowed_state_probabilities(schema, sp)
    return probs


def _cmd_oracle_check(args) -> int:
    mf = _load_kind(args.model, "grassmann")
    schema, sp = mf.schema, mf.params
    table = brute_force_table(assemble_lambda(schema, sp))  # the one lam a command builds
    probs = _allowed_state_vector(schema, sp)
    max_joint_err = float(np.abs(table.probs - probs).max())
    mean, cov = _structured_moments(schema, sp)
    mean_err = float(np.abs(mean - table.mean).max())
    cov_err = float(np.abs(cov - table.cov).max())
    ones = _pattern_probabilities(schema, sp, np.eye(schema.q), np.eye(schema.q))
    marg_err = float(np.abs(table.mean - ones).max())  # the table's one-bit marginals
    report = _p0_report(probs, schema.q)
    ok = (
        report.passed
        and max_joint_err <= 1e-10
        and mean_err <= 1e-10
        and cov_err <= 1e-10
        and marg_err <= 1e-10
    )
    _emit(
        {
            "ok": bool(ok),
            "n_states": report.n_states,
            "min_probability": report.min_probability,
            "probability_sum": report.probability_sum,
            "max_joint_error": max_joint_err,
            "max_mean_error": mean_err,
            "max_cov_error": cov_err,
            "max_marginal_error": marg_err,
        }
    )
    return 0 if ok else 2


# -- parser ---------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="grasscat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"grasscat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="lint a schema and optional data file")
    p.add_argument("--schema", required=True)
    p.add_argument("--data")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fit", help="maximum-likelihood fit of the structured model")
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--latent-aux", type=_latent_aux, default="auto",
                   help="auxiliary dimension a, or 'auto' for a saturation sweep")
    p.add_argument("--restarts", type=_positive_int, default=3)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--max-iter", type=_positive_int, default=500)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--out", required=True)
    p.add_argument("--out-corr", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("moments", help="mean/covariance/correlation of a model")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("prob", help="joint/marginal/conditional pattern probability")
    p.add_argument("--model", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--given", default="")
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("sample", help="exact sampling by allowed-state enumeration")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    fa = sub.add_parser("fa", help="factor-analysis commands")
    fa_sub = fa.add_subparsers(dest="fa_command", required=True)

    p = fa_sub.add_parser("fit", help="fit the latent-factor model")
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--latent-dim", type=_nonnegative_int, required=True)
    p.add_argument("--restarts", type=_positive_int, default=3)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--max-iter", type=_positive_int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fa_fit)

    p = fa_sub.add_parser("bic", help="select the latent dimension by BIC")
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--min-dim", type=_nonnegative_int, default=0)
    p.add_argument("--max-dim", type=_nonnegative_int, default=3)
    p.add_argument("--restarts", type=_positive_int, default=2)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--max-iter", type=_positive_int, default=1000)
    p.add_argument("--out", help="save the chosen model, its report under fit_report")
    p.set_defaults(func=_cmd_fa_bic)

    p = fa_sub.add_parser("biplot", help="export scores, loadings, and the SVG biplot")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-svg", required=True)
    p.add_argument("--out-scores", required=True)
    p.add_argument("--out-loadings", required=True)
    p.set_defaults(func=_cmd_fa_biplot)

    mixed = sub.add_parser("mixed", help="mixed continuous/binary model commands")
    mixed_sub = mixed.add_subparsers(dest="mixed_command", required=True)
    p = mixed_sub.add_parser("eval", help="evaluate a density query")
    p.add_argument("--model", required=True)
    p.add_argument("--x", default="", help="tokens per coordinate: value | ? | g:value")
    p.add_argument("--y", default="", help="tokens per bit: 0/1 | ? | g:0 / g:1")
    p.set_defaults(func=_cmd_mixed_eval)

    orc = sub.add_parser("oracle", help="brute-force validation")
    orc_sub = orc.add_subparsers(dest="oracle_command", required=True)
    p = orc_sub.add_parser("check", help="compare a model against enumeration")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser every command of this process shares: building one costs
    more than most commands, and parsing leaves it unchanged."""
    return build_parser()


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--x -0.5,1`` as ``--x=-0.5,1`` (likewise ``--y``): argparse reads a
    separate token that starts with '-' and is not a plain number as an
    option, so a value list that starts negative needs the '=' form."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--x", "--y") and re.match(r"-[0-9.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run_command(argv: list[str]) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    try:
        args = _parser().parse_args(_attach_negative_values(argv))
    except _UsageError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 64
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SchemaError, DataError, InvalidStateError, EnumerationCapError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ParameterError, ConditioningError) as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 2
    except GrasscatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
