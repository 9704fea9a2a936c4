"""Seeded inputs for the benchmark workloads.

Every schema, certified model and dataset is drawn with the test suite's
generators (``tests/generators.py``), then written to the run's work
directory.  The program under test only ever sees those files.

The population models (the certified structured models, the factor models
and the mixed model) are drawn from the fixed ``POPULATION_SEED``; the
workload seed draws the row samples and the query mix.  How long an
optimizer runs depends sharply on the model it is fitting, so a seed that
also redrew the model would mostly measure the draw, not the code.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from generators import (
    CAT,
    ORD,
    random_certified_structured,
    random_dominant,
    sample_rows_from_probs,
)
from grasscat.factor import FactorModel, mixture_weights
from grasscat.grassmann import joint_probability
from grasscat.mixed import MixedParams
from grasscat.modelfile import ModelFile, save_model
from grasscat.schema import (
    DummyState,
    VariableDecl,
    VariableSchema,
    enumerate_allowed_states,
    schema_to_dict,
)
from grasscat.structure import assemble_lambda

N_ROWS = 2000
# The q=16 fit's step count varies with the sample: at 2000 rows one fit took
# 20 s to 140 s across seeds, too wide for a bounded run; at 1000 rows
# (about 790 distinct states) it takes 5 s to 50 s and still ends
# uncertified, as at 2000 rows.
N_ROWS_FIT_Q16 = 1000
POPULATION_SEED = 0

# (kind, levels) per variable; q counts the dummy bits, states the product.
Q8 = [(CAT, 3), (ORD, 4), (CAT, 4)]  # q=8, 48 states
Q12 = Q8 + [(ORD, 3), (CAT, 2), (CAT, 2)]  # q=12, 576 states
Q16 = Q12 + [(ORD, 3), (CAT, 3)]  # q=16, 5184 states


def make_schema(spec) -> VariableSchema:
    return VariableSchema(
        [VariableDecl(f"v{i}", kind, levels) for i, (kind, levels) in enumerate(spec)]
    )


def _rng(seed: int, name: str) -> np.random.Generator:
    """Independent stream per input, so adding an input never shifts another."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def _rows_from_probs(rng, schema, states, probs, n: int = N_ROWS) -> list:
    return sample_rows_from_probs(rng, schema, states, probs, n)


def certified_structured(name: str, spec, a: int = 2):
    """A certified a=2 structured model (the generator's exhaustive 2^(q+a)
    check included) and its observed-state probabilities."""
    schema = make_schema(spec)
    sp = random_certified_structured(_rng(POPULATION_SEED, name), schema, a)
    params = assemble_lambda(schema, sp)
    states = enumerate_allowed_states(schema)
    probs = np.asarray([joint_probability(params, s.bits) for s in states])
    return schema, sp, states, probs


def factor_truth(name: str, spec, p_z: int = 2):
    """A canonical p_z-factor model with real latent structure."""
    schema = make_schema(spec)
    rng = _rng(POPULATION_SEED, name)
    model = FactorModel.canonical(
        b=rng.normal(-0.6, 0.5, schema.q), G=rng.normal(0.0, 0.5, (schema.q, p_z))
    )
    weights = mixture_weights(schema, model.b, model.G, model.sigma_z)
    states = [DummyState(bits) for bits in weights]
    probs = np.asarray(list(weights.values()))
    return schema, model, states, probs


def mixed_model(name: str, p: int = 3, q: int = 10) -> MixedParams:
    """Mixed continuous/binary model built like the test suite's random_mixed."""
    rng = _rng(POPULATION_SEED, name)
    A = rng.normal(0, 1, (p, p))
    sigma = A @ A.T / max(p, 1) + 0.5 * np.eye(p)
    lam = np.eye(q) + random_dominant(rng, q, strict=False, scale=0.5) @ np.linalg.inv(
        random_dominant(rng, q, strict=True, scale=0.5)
    )
    return MixedParams(mu=rng.normal(0, 1, p), sigma=sigma, lam=lam, G=rng.normal(0, 0.4, (q, p)))


def _write_schema(path: str, schema: VariableSchema) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(schema_to_dict(schema), indent=2) + "\n")


def _write_rows(path: str, schema: VariableSchema, rows) -> None:
    lines = [",".join(schema.names)]
    lines += [",".join(map(str, r.values)) for r in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


class Inputs:
    """Paths of the generated files plus the in-memory truth the checks use."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.paths: dict[str, str] = {}
        self.truth: dict[str, object] = {}

    def _add(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        self.paths[name] = path
        return path

    def dataset(self, tag: str, schema, rows) -> None:
        _write_schema(self._add(f"{tag}.schema.json"), schema)
        _write_rows(self._add(f"{tag}.csv"), schema, rows)

    def model(self, name: str, mf: ModelFile) -> None:
        save_model(mf, self._add(name))



def write_inputs(workload: str, seed: int, workdir: str) -> Inputs:
    """Generate and write the inputs of one workload."""
    inp = Inputs(workdir)
    if workload == "fit":
        for tag, spec, n in (("fit-q8", Q8, N_ROWS), ("fit-q16", Q16, N_ROWS_FIT_Q16)):
            schema, _, states, probs = certified_structured(tag, spec)
            inp.dataset(tag, schema, _rows_from_probs(_rng(seed, tag + "/rows"), schema, states, probs, n))
    elif workload == "factor":
        for tag, spec in (("fa-q12", Q12), ("fa-q16", Q16)):
            schema, _, states, probs = factor_truth(tag, spec)
            inp.dataset(tag, schema, _rows_from_probs(_rng(seed, tag + "/rows"), schema, states, probs))
    elif workload == "query":
        schema, sp, states, probs = certified_structured("query-q16", Q16)
        inp.model("query-q16.model.json", ModelFile("grassmann", schema, sp, None))
        inp.truth["q16"] = (schema, states, probs)
        schema12, sp12, _, _ = certified_structured("query-q12", Q12)
        inp.model("query-q12.model.json", ModelFile("grassmann", schema12, sp12, None))
        inp.model("mixed.model.json", ModelFile("mixed", None, mixed_model("mixed"), None))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inp
