"""Versioned model JSON envelope.

The on-disk document is

    {"format_version": 1, "kind": ..., "schema": ..., "params": ...,
     "fit_report": ...}

with a fixed key order and strict parsing: unknown fields anywhere are
rejected.  Serialization is canonical (two-space indent, LF), so
parse -> serialize reproduces the input byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, SchemaError
from .factor import FactorModel
from .mixed import MixedParams
from .schema import VariableSchema, schema_from_dict, schema_to_dict
from .structure import StructuredParams

FORMAT_VERSION = 1
KINDS = ("grassmann", "factor", "mixed")


@dataclass(frozen=True)
class ModelFile:
    """Parsed model document: a schema (absent for mixed models), the typed
    parameter object, and the fit report dict if one was recorded."""

    kind: str
    schema: VariableSchema | None
    params: StructuredParams | FactorModel | MixedParams
    fit_report: dict | None


def _require_keys(obj: dict, keys: tuple[str, ...], where: str) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing fields {missing}")
    unknown = set(obj) - set(keys)
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")


def _array(obj, where: str) -> np.ndarray:
    """``obj`` as a float array; a non-numeric entry or a jagged row is a
    SchemaError naming the field."""
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: expected numbers ({exc})") from None


def _matrix(obj, where: str, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """A (rows, cols) float matrix; an empty list is a matrix with no rows."""
    arr = _array(obj, where)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, 0 if cols is None else cols)
    if arr.ndim != 2:
        raise SchemaError(f"{where}: expected a matrix")
    if rows is not None and arr.shape[0] != rows:
        raise SchemaError(f"{where}: expected {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise SchemaError(f"{where}: expected {cols} columns, got {arr.shape[1]}")
    return arr


def _vector(obj, where: str, length: int | None = None) -> np.ndarray:
    arr = _array(obj, where)
    if arr.ndim != 1:
        raise SchemaError(f"{where}: expected a vector")
    if length is not None and arr.shape[0] != length:
        raise SchemaError(f"{where}: expected length {length}, got {arr.shape[0]}")
    return arr


# -- structured (grassmann) params -------------------------------------------

def structured_to_dict(schema: VariableSchema, sp: StructuredParams) -> dict:
    return {
        "b": {v.name: [float(x) for x in bv] for v, bv in zip(schema.variables, sp.b)},
        "w": {v.name: [float(x) for x in wv] for v, wv in zip(schema.variables, sp.w)},
        "V": [[float(x) for x in row] for row in sp.V],
        "omega": [float(x) for x in sp.omega],
        "C": [[float(x) for x in row] for row in sp.C],
    }


def structured_from_dict(schema: VariableSchema, obj: dict) -> StructuredParams:
    _require_keys(obj, ("b", "w", "V", "omega", "C"), "params")
    for field in ("b", "w"):
        entry = obj[field]
        if not isinstance(entry, dict) or set(entry) != set(schema.names):
            raise SchemaError(
                f"params.{field}: keys must match schema variables {list(schema.names)}"
            )
    omega = _vector(obj["omega"], "params.omega")
    a = omega.shape[0]
    b = tuple(
        _vector(obj["b"][v.name], f"params.b[{v.name}]", v.block_size)
        for v in schema.variables
    )
    w = tuple(
        _vector(obj["w"][v.name], f"params.w[{v.name}]", a)
        for v in schema.variables
    )
    V = _matrix(obj["V"], "params.V", schema.q, a)
    n = schema.q + a
    C = _matrix(obj["C"], "params.C", n, n)
    return StructuredParams(b=b, w=w, V=V, omega=omega, C=C)


# -- factor params -------------------------------------------------------------

def factor_to_dict(model: FactorModel) -> dict:
    return {
        "b": [float(x) for x in model.b],
        "G": [[float(x) for x in row] for row in model.G],
        "mu_x": [float(x) for x in model.mu_x],
        "psi_noise": [float(x) for x in model.psi_noise],
        "W_load": [[float(x) for x in row] for row in model.W_load],
        "mu_z": [float(x) for x in model.mu_z],
        "sigma_z": [[float(x) for x in row] for row in model.sigma_z],
    }


def factor_from_dict(schema: VariableSchema, obj: dict) -> FactorModel:
    _require_keys(
        obj, ("b", "G", "mu_x", "psi_noise", "W_load", "mu_z", "sigma_z"), "params"
    )
    b = _vector(obj["b"], "params.b", schema.q)
    mu_z = _vector(obj["mu_z"], "params.mu_z")
    p_z = mu_z.shape[0]
    mu_x = _vector(obj["mu_x"], "params.mu_x")
    p_x = mu_x.shape[0]
    psi = _vector(obj["psi_noise"], "params.psi_noise", p_x)
    G = _matrix(obj["G"], "params.G", schema.q, p_z)
    W = _matrix(obj["W_load"], "params.W_load", p_x, p_z)
    sigma_z = _matrix(obj["sigma_z"], "params.sigma_z", p_z, p_z)
    return FactorModel(
        mu_x=mu_x, psi_noise=psi, W_load=W, b=b, G=G, mu_z=mu_z, sigma_z=sigma_z
    )


# -- mixed params ---------------------------------------------------------------

def mixed_to_dict(mp: MixedParams) -> dict:
    return {
        "mu": [float(x) for x in mp.mu],
        "sigma": [[float(x) for x in row] for row in mp.sigma],
        "lambda": [[float(x) for x in row] for row in mp.lam],
        "G": [[float(x) for x in row] for row in mp.G],
    }


def mixed_from_dict(obj: dict) -> MixedParams:
    _require_keys(obj, ("mu", "sigma", "lambda", "G"), "params")
    mu = _vector(obj["mu"], "params.mu")
    p = mu.shape[0]
    lam = _matrix(obj["lambda"], "params.lambda")
    q = lam.shape[0]
    lam = _matrix(lam, "params.lambda", q, q)
    sigma = _matrix(obj["sigma"], "params.sigma", p, p)
    G = _matrix(obj["G"], "params.G", q, p)
    return MixedParams(mu=mu, sigma=sigma, lam=lam, G=G)


# -- envelope --------------------------------------------------------------------

def model_to_document(mf: ModelFile) -> dict:
    if mf.kind == "grassmann":
        assert mf.schema is not None
        params = structured_to_dict(mf.schema, mf.params)
    elif mf.kind == "factor":
        assert mf.schema is not None
        params = factor_to_dict(mf.params)
    elif mf.kind == "mixed":
        params = mixed_to_dict(mf.params)
    else:
        raise SchemaError(f"unknown model kind {mf.kind!r}")
    return {
        "format_version": FORMAT_VERSION,
        "kind": mf.kind,
        "schema": None if mf.schema is None else schema_to_dict(mf.schema),
        "params": params,
        "fit_report": mf.fit_report,
    }


def model_from_document(obj: object) -> ModelFile:
    if not isinstance(obj, dict):
        raise SchemaError("model document must be an object")
    _require_keys(
        obj, ("format_version", "kind", "schema", "params", "fit_report"), "model"
    )
    if obj["format_version"] != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported format_version {obj['format_version']!r} "
            f"(expected {FORMAT_VERSION})"
        )
    kind = obj["kind"]
    if kind not in KINDS:
        raise SchemaError(f"unknown model kind {kind!r}; expected one of {KINDS}")
    schema = None if obj["schema"] is None else schema_from_dict(obj["schema"])
    if kind == "mixed":
        params = mixed_from_dict(obj["params"])
    else:
        if schema is None:
            raise SchemaError(f"kind {kind!r} requires a schema")
        if kind == "grassmann":
            params = structured_from_dict(schema, obj["params"])
        else:
            params = factor_from_dict(schema, obj["params"])
    report = obj["fit_report"]
    if report is not None and not isinstance(report, dict):
        raise SchemaError("fit_report must be an object or null")
    return ModelFile(kind=kind, schema=schema, params=params, fit_report=report)


def dump_model(mf: ModelFile) -> str:
    return json.dumps(model_to_document(mf), indent=2) + "\n"


def save_model(mf: ModelFile, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(dump_model(mf))
    except OSError as exc:
        raise DataError(f"cannot write model file {path}: {exc}") from exc


def load_model(path: str) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_document(obj)
