"""Write one workload's inputs and the answers the checks compare against.

Run as a child process of ``run.py`` so the generator's memory (the 2^(q+a)
positivity enumeration of the certified draws) never counts toward the
workload process's peak memory:

    python3 bench/gen.py --workload query --seed 3 --out DIR

Writes the program's input files into DIR, plus ``expect.json`` with the
query pool and the expected answers (computed here by summing over the
enumerated allowed states of the generating model).  ``expect.json`` is
read only by the checks; the program never sees it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# `mixed eval` token roles for the 3 continuous and 10 binary coordinates:
# v / b a query value, ? marginalized, g conditioned on.  The number of
# marginalized bits sets the cost (2^#? subsets).
MIXED_TEMPLATES = [
    ("vvv", "bbbb??????"),
    ("v??", "bb????????"),
    ("vvg", "bbb????ggg"),
    ("ggv", "bbbbbggggg"),
    ("?vg", "bb??????gg"),
    ("vvv", "bbbbbbbbbb"),
    ("ggg", "bbbb???ggg"),
    ("v?g", "b?????????"),
]


def _query_pool(seed: int, inp) -> dict:
    """Interactive commands with their expected answers."""
    import numpy as np

    from data import _rng
    from grasscat.schema import VariableKind, decode_state

    schema, states, probs = inp.truth["q16"]
    levels = np.asarray([decode_state(schema, s).values for s in states])
    rng = _rng(seed, "query-pool")
    n_vars = len(schema)

    def clause(j: int):
        v = schema.variables[j]
        if v.kind is VariableKind.ORDINAL and rng.random() < 0.5:
            lvl = int(rng.integers(1, v.levels))
            return f"{v.name}>={lvl}", levels[:, j] >= lvl
        lvl = int(rng.integers(0, v.levels))
        return f"{v.name}={lvl}", levels[:, j] == lvl

    def pattern(js):
        texts, mask = [], np.ones(len(states), dtype=bool)
        for j in js:
            text, m = clause(int(j))
            texts.append(text)
            mask &= m
        return ",".join(texts), mask

    # The shapes (clause counts, token roles) are fixed so that the cost mix
    # is the same for every seed; the seed picks variables, levels, values.
    marginal, conditional = [], []
    for n_clauses in [1, 2, 3] * 8:
        text, mask = pattern(rng.choice(n_vars, size=n_clauses, replace=False))
        marginal.append({"query": text, "given": "", "expect": float(probs[mask].sum())})
    for n_query, n_given in [(1, 1), (1, 2), (2, 1), (2, 2)] * 6:
        while True:
            js = rng.choice(n_vars, size=n_query + n_given, replace=False)
            qtext, qmask = pattern(js[:n_query])
            gtext, gmask = pattern(js[n_query:])
            denom = float(probs[gmask].sum())
            if denom >= 1e-3:
                break
        conditional.append(
            {"query": qtext, "given": gtext, "expect": float(probs[qmask & gmask].sum()) / denom}
        )

    mixed = []
    for x_roles, y_roles in MIXED_TEMPLATES * 2:
        xt = [
            "?" if t == "?" else ("g:" if t == "g" else "") + f"{rng.normal(0, 1):.3f}"
            for t in rng.permutation(list(x_roles))
        ]
        yt = [
            "?" if t == "?" else ("g:" if t == "g" else "") + str(int(rng.integers(0, 2)))
            for t in rng.permutation(list(y_roles))
        ]
        mixed.append({"x": ",".join(xt), "y": ",".join(yt)})

    return {
        "marginal": marginal,
        "conditional": conditional,
        "mixed": mixed,
        "mean_q16": [float(v) for v in probs @ np.asarray([s.bits for s in states], dtype=float)],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

    from data import write_inputs

    os.makedirs(args.out, exist_ok=True)
    inp = write_inputs(args.workload, args.seed, args.out)
    expect = {"inputs": {k: os.path.basename(p) for k, p in inp.paths.items()}}
    if args.workload == "query":
        expect.update(_query_pool(args.seed, inp))
    with open(os.path.join(args.out, "expect.json"), "w", encoding="utf-8") as fh:
        json.dump(expect, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
