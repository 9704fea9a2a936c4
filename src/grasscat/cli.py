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
from .fit import FitConfig, fit_grassmann, model_correlation, state_counts, weighted_moments
from .grassmann import (
    GrassmannParams,
    IndexPartition,
    check_p0,
    conditional_params,
    joint_probability,
    marginal_params,
    moments,
    state_probabilities,
)
from .mixed import MixedParams, MixedPartition, mixed_conditional_density
from .modelfile import ModelFile, load_model, save_model
from .oracle import brute_force_table, oracle_marginal
from .outputs import write_csv
from .schema import (
    VariableKind,
    VariableSchema,
    allowed_table,
    load_data_levels,
    load_schema,
)
from .structure import assemble_lambda


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
        if op == ">=":
            if var.kind is not VariableKind.ORDINAL:
                raise DataError(f"clause {clause!r}: >= applies to ordinal variables only")
            for l in range(level):
                assignment[s + l] = 1
        else:
            if var.kind is VariableKind.CATEGORICAL:
                for l in range(var.block_size):
                    assignment[s + l] = 1 if l == level - 1 else 0
            else:
                for l in range(var.block_size):
                    assignment[s + l] = 1 if l < level else 0
    return assignment


def _pattern_probability(
    params: GrassmannParams, assignment: dict[int, int]
) -> float:
    if not assignment:
        return 1.0
    T = sorted(assignment)
    marg = marginal_params(params, T)
    return joint_probability(marg, [assignment[t] for t in T])


def conditional_pattern_probability(
    params: GrassmannParams,
    query: dict[int, int],
    given: dict[int, int],
) -> float:
    """p(query-pattern | given-pattern) through the marginal/conditional
    parameter formulas (not enumeration)."""
    overlap = set(query) & set(given)
    if overlap:
        raise DataError(f"query and given overlap on dummy indices {sorted(overlap)}")
    if not given:
        return _pattern_probability(params, query)
    T = tuple(sorted(given))
    S = tuple(i for i in range(params.q) if i not in set(T))
    T1 = tuple(t for t in T if given[t] == 1)
    cond = conditional_params(params, IndexPartition(S=S, T=T, T1=T1))
    pos = {idx: k for k, idx in enumerate(S)}
    sub_assignment = {pos[i]: bit for i, bit in query.items()}
    return _pattern_probability(cond, sub_assignment)


# -- model loading helpers ------------------------------------------------------

def _load_grassmann(path: str) -> tuple[VariableSchema, GrassmannParams]:
    mf = load_model(path)
    if mf.kind != "grassmann":
        raise DataError(f"model {path} has kind {mf.kind!r}; expected 'grassmann'")
    return mf.schema, assemble_lambda(mf.schema, mf.params)


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
        counts = state_counts(schema, load_data_levels(schema, args.data))
        out["rows"] = counts.n
        out["distinct_states"] = len(counts.items)
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
    if mf.kind == "grassmann":
        schema, params = mf.schema, assemble_lambda(mf.schema, mf.params)
        mean, cov = moments(params)
        corr = model_correlation(params)
        labels = schema.index_labels()
    elif mf.kind == "factor":
        schema = mf.schema
        states, w = _prior_table(schema, mf.params.b, mf.params.G, mf.params.sigma_z)
        mean, cov, corr = weighted_moments(states, w)
        labels = schema.index_labels()
    else:
        raise DataError("moments supports grassmann and factor models")
    _emit(
        {
            "labels": list(labels),
            "mean": [float(v) for v in mean],
            "cov": [[float(v) for v in row] for row in cov],
            "corr": [[float(v) for v in row] for row in corr],
        }
    )
    return 0


def _cmd_prob(args) -> int:
    schema, params = _load_grassmann(args.model)
    query = parse_pattern(schema, args.query)
    given = parse_pattern(schema, args.given) if args.given else {}
    prob = conditional_pattern_probability(params, query, given)
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
    rng = np.random.default_rng(args.seed)
    if mf.kind == "grassmann":
        schema, params = mf.schema, assemble_lambda(mf.schema, mf.params)
        probs = state_probabilities(params, allowed_table(schema)[0])
    elif mf.kind == "factor":
        schema, model = mf.schema, mf.params
        states, probs = _prior_table(schema, model.b, model.G, model.sigma_z)
    else:
        raise DataError("sampling supports grassmann and factor models")
    if probs.min() < -1e-9:
        raise ParameterError(f"model assigns negative probability {probs.min():.3e}")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    draws = np.searchsorted(np.cumsum(probs), rng.random(args.n), side="right")
    draws = np.minimum(draws, len(probs) - 1)
    # every draw gets a fresh row of its state's levels
    distinct, inverse = np.unique(draws, return_inverse=True)
    values = allowed_table(schema)[1][distinct].tolist()
    rows = [list(values[i]) for i in inverse]
    header = list(schema.names)
    if mf.kind == "factor" and model.p_x:
        header += [f"x{i + 1}" for i in range(model.p_x)]
        means, cov = _x_given_states(model, states[distinct])
        chol = np.linalg.cholesky(cov)
        for row, i in zip(rows, inverse):
            x = means[i] + chol @ rng.standard_normal(model.p_x)
            row += [float(v) for v in x]
    write_csv(args.out, header, rows)
    _emit({"out": args.out, "n": args.n, "seed": args.seed})
    return 0


def _parse_dim_range(text: str) -> range:
    lo, sep, hi = text.partition(":")
    try:
        lo_i, hi_i = int(lo), int(hi if sep else lo)
    except ValueError:
        raise DataError(f"--bic-range must look like A:B, got {text!r}") from None
    if lo_i > hi_i or lo_i < 0:
        raise DataError(f"--bic-range {text!r} is empty or negative")
    return range(lo_i, hi_i + 1)


def _cmd_fa_fit(args) -> int:
    schema = load_schema(args.schema)
    counts = state_counts(schema, load_data_levels(schema, args.data))
    config = FactorFitConfig(
        max_iter=args.max_iter,
        restarts=args.restarts,
        seed=args.seed,
    )
    out: dict = {"out": args.out}
    if (args.latent_dim is None) == (args.bic_range is None):
        raise DataError("give exactly one of --latent-dim or --bic-range")
    if args.bic_range is not None:
        table, model, report = select_dimension_bic(
            schema, counts, _parse_dim_range(args.bic_range), config
        )
        latent_dim = table.chosen
        out["bic_table"] = table.to_dict()
    else:
        latent_dim = args.latent_dim
        model, report = fit_factor_model(schema, counts, latent_dim, config)
    mf = ModelFile(kind="factor", schema=schema, params=model, fit_report=report.to_dict())
    save_model(mf, args.out)
    out["latent_dim"] = latent_dim
    out["report"] = report.to_dict()
    _emit(out)
    return 0


def _cmd_fa_bic(args) -> int:
    schema = load_schema(args.schema)
    counts = state_counts(schema, load_data_levels(schema, args.data))
    config = FactorFitConfig(
        max_iter=args.max_iter,
        restarts=args.restarts,
        seed=args.seed,
    )
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
    mf = load_model(args.model)
    if mf.kind != "factor":
        raise DataError(f"model {args.model} has kind {mf.kind!r}; expected 'factor'")
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
            "points": len(bp.points),
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
    mf = load_model(args.model)
    if mf.kind != "mixed":
        raise DataError(f"model {args.model} has kind {mf.kind!r}; expected 'mixed'")
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


def _cmd_oracle_check(args) -> int:
    schema, params = _load_grassmann(args.model)
    table = brute_force_table(params)
    max_joint_err = float(np.abs(table.probs - state_probabilities(params, table.states)).max())
    mean, cov = moments(params)
    mean_err = float(np.abs(mean - table.mean).max())
    cov_err = float(np.abs(cov - table.cov).max())
    marg_err = 0.0
    for t in range(params.q):
        marg = oracle_marginal(table, [t])
        m1 = 1.0 - params.sig[t, t]
        marg_err = max(marg_err, abs(marg[(1,)] - m1))
    report = check_p0(params)
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
    p.add_argument("--latent-dim", type=_nonnegative_int, default=None)
    p.add_argument("--bic-range", default=None,
                   help="A:B; select the dimension by BIC before fitting")
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
    p.add_argument("--out")
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
