"""Pin the test-data generators' draws.

The benchmark's model populations and many test fixtures come from
``random_certified_structured`` and ``reader_style_true_params``; a change
to either would move every dataset drawn from them.  Each case is pinned by
a digest of its parameter values rounded to 12 significant digits.
"""

import hashlib

import numpy as np
import pytest

from grasscat.schema import VariableDecl, VariableSchema

from generators import (
    CAT,
    ORD,
    random_certified_structured,
    reader_style_schema,
    reader_style_true_params,
)

Q8 = [(CAT, 3), (ORD, 4), (CAT, 4)]
Q12 = Q8 + [(ORD, 3), (CAT, 2), (CAT, 2)]


def _schema(spec) -> VariableSchema:
    return VariableSchema([VariableDecl(f"v{i}", kind, levels) for i, (kind, levels) in enumerate(spec)])


def _digest(sp) -> str:
    values = np.concatenate([*sp.b, *sp.w, sp.V.ravel(), sp.omega])
    text = ",".join(f"{x:.11e}" for x in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "spec, a, seed, want",
    [
        ("reader", 1, 0, "4b582b70311b09f0"),
        ("reader", 2, 1, "c02bbc3d41f3e7f3"),
        (Q8, 2, 2, "61b4975d5104cddc"),
        (Q12, 1, 3, "a527a571b87d5535"),
        (Q12, 2, 4, "d01b270c8fa71c29"),
    ],
)
def test_random_certified_structured_draws(spec, a, seed, want):
    schema = reader_style_schema() if spec == "reader" else _schema(spec)
    sp = random_certified_structured(np.random.default_rng(seed), schema, a)
    assert _digest(sp) == want


def test_reader_style_true_params():
    assert _digest(reader_style_true_params()) == "8a3fdb77fb268a79"
