"""Compare every byte the CLI writes between two source trees.

    python3 tools/byte_review.py OLD_TREE [NEW_TREE] [--seed N]

NEW_TREE defaults to this checkout.  The inputs are written once into a
temporary directory: the benchmark's seed-N inputs of the fit, factor and
query workloads (``bench/gen.py`` of this checkout) and the small dataset of
the CLI determinism test (acceptance criterion 11).  Each tree then runs
one fixed command list in its own child process, with its ``src`` on
PYTHONPATH, one BLAS thread, and a fresh copy of the inputs as the working
directory.  The tool prints every command whose stdout, stderr, exit code
or output-file SHA-256 differs between the trees, and exits 1 on any
difference, 0 when every byte matches.  Where both stdouts parse as JSON
with the same keys and shapes, it also prints the largest absolute and
relative differences of their numeric leaves.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs in each child: reads the command list, runs every command in-process
# through run_command, and prints one result per command as JSON.
_RUNNER = r"""
import contextlib, hashlib, io, json, os, sys, traceback
from grasscat.cli import run_command

results = []
with open(sys.argv[1], encoding="utf-8") as fh:
    commands = json.load(fh)
for argv, outputs in commands:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_command(argv)
        except Exception:  # a traceback is a result to compare, not the end of the run
            code = "raised"
            traceback.print_exc(file=err)
    files = {}
    for name in outputs:
        if os.path.exists(name):
            with open(name, "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
        else:
            files[name] = None
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                    "files": files})
json.dump(results, sys.stdout)
"""


def write_inputs(inputs: str, seed: int) -> dict:
    """Write every input file under ``inputs`` and return the query pool."""
    for workload in ("fit", "factor", "query"):
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", os.path.join(inputs, workload)],
            check=True,
        )
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    _write_determinism_inputs(os.path.join(inputs, "acc"))
    _write_rare_level_model(os.path.join(inputs, "query"))
    _write_range_model(os.path.join(inputs, "query"))
    _write_overflow_models(os.path.join(inputs, "overflow"))
    with open(os.path.join(inputs, "query", "expect.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _write_determinism_inputs(out: str) -> None:
    """The schema, data and mixed model of tests/test_acceptance.py's
    test_11_cli_determinism."""
    import numpy as np

    from generators import reader_style_schema, reader_style_true_params, sample_rows_from_probs
    from grasscat.grassmann import joint_probability
    from grasscat.mixed import MixedParams
    from grasscat.modelfile import ModelFile, save_model
    from grasscat.schema import enumerate_allowed_states, schema_to_dict
    from grasscat.structure import assemble_lambda

    os.makedirs(out)
    schema = reader_style_schema()
    with open(os.path.join(out, "schema.json"), "w", encoding="utf-8") as fh:
        json.dump(schema_to_dict(schema), fh)
    truth = assemble_lambda(schema, reader_style_true_params())
    states = enumerate_allowed_states(schema)
    probs = [joint_probability(truth, s.bits) for s in states]
    rows = sample_rows_from_probs(np.random.default_rng(1111), schema, states, probs, 300)
    lines = [",".join(schema.names)] + [",".join(map(str, r.values)) for r in rows]
    with open(os.path.join(out, "data.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    lam = np.eye(2) + np.array([[1.0, 0.3], [0.2, 0.8]])
    mp = MixedParams(mu=np.array([0.0]), sigma=np.array([[1.0]]), lam=lam,
                     G=np.array([[0.5], [-0.3]]))
    save_model(ModelFile("mixed", None, mp, None), os.path.join(out, "mixed.json"))


def _write_rare_level_model(query: str) -> None:
    """query-q12 with the b of its Ord(4) ``v1`` beyond the first at -30, the
    value the fit gives an unobserved level, as ``rare.model.json``.  v1's V
    rows on those levels are set to w_v1, which keeps every allowed state's
    probability positive, so ``sample`` draws from it."""
    with open(os.path.join(query, "query-q12.model.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    params = doc["params"]
    first = 0  # v1's first bit
    for var in doc["schema"]["variables"]:
        if var["name"] == "v1":
            break
        first += var["levels"] - 1
    b = params["b"]["v1"]
    b[1:] = [-30.0] * (len(b) - 1)
    for r in range(first + 1, first + len(b)):  # the bits levels 2, 3, ... end on
        params["V"][r] = list(params["w"]["v1"])
    with open(os.path.join(query, "rare.model.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _write_range_model(query: str) -> None:
    """query-q12 (a = 2) with w_v scaled by 1e101 and each V row of v's bits
    set to (1 + k / 10) w_v, k the row's place in the block, as
    ``range.model.json``.  Each x_r is then a positive multiple of w_r, so
    every A_s = I + sum_r x_r w_r^T is positive definite and every allowed
    state has a positive probability.  A_s's entries reach about 1e200, where
    a d - b c overflows, while lam's entries stay finite."""
    with open(os.path.join(query, "query-q12.model.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    params = doc["params"]
    row = 0
    for var in doc["schema"]["variables"]:
        w = [1e101 * v for v in params["w"][var["name"]]]
        params["w"][var["name"]] = w
        for k in range(var["levels"] - 1):
            params["V"][row + k] = [(1.0 + k / 10.0) * v for v in w]
        row += var["levels"] - 1
    with open(os.path.join(query, "range.model.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _write_overflow_models(out: str) -> None:
    """Finite models whose a-space terms or prior weights overflow, as in
    tests/test_cli.py's TestOverflowingModelsExitTwo: Cat(2)+Cat(2) with
    a = 1, omega = 1/2 and V = [[1e308], [0.5]] at b = (0, 0), w = (10, 1)
    (``A.json``) and at b = (-2, 0), w = (1, 1) (``B.json``), and a factor
    model with b = 0 and G = [[1e200], [1e200]] (``F.json``)."""
    import numpy as np

    from grasscat.factor import FactorModel
    from grasscat.modelfile import ModelFile, save_model
    from grasscat.schema import VariableDecl, VariableKind, VariableSchema
    from grasscat.structure import StructuredParams

    os.makedirs(out)
    schema = VariableSchema([VariableDecl(f"v{j}", VariableKind.CATEGORICAL, 2)
                             for j in range(2)])
    V, omega = np.array([[1e308], [0.5]]), np.full(1, 0.5)
    for name, b, w in (("A", (0.0, 0.0), (10.0, 1.0)), ("B", (-2.0, 0.0), (1.0, 1.0))):
        sp = StructuredParams(tuple(np.array([v]) for v in b), tuple(np.array([v]) for v in w),
                              V, omega)
        save_model(ModelFile("grassmann", schema, sp, None), os.path.join(out, f"{name}.json"))
    factor = FactorModel.canonical(b=np.zeros(2), G=np.full((2, 1), 1e200))
    save_model(ModelFile("factor", schema, factor, None), os.path.join(out, "F.json"))


def command_list(seed: int, pool: dict) -> list[tuple[list[str], list[str]]]:
    """(argv, output files) of every command, paths relative to the work
    directory."""
    cmds: list[tuple[list[str], list[str]]] = []

    def add(argv, *outputs):
        cmds.append((argv, list(outputs)))

    # fit workload
    fit_models = []
    for tag, name, extra in (
        ("fit-q8", "q8-a2", ["--latent-aux", "2"]),
        ("fit-q8", "q8-auto", []),
        ("fit-q16", "q16-a2", ["--latent-aux", "2", "--restarts", "1"]),
    ):
        model = f"fit/{name}.model.json"
        add(["fit", "--schema", f"fit/{tag}.schema.json", "--data", f"fit/{tag}.csv",
             *extra, "--out", model], model, model + ".corr.csv")
        fit_models.append(model)
    for tag in ("fit-q8", "fit-q16"):
        add(["validate", "--schema", f"fit/{tag}.schema.json", "--data", f"fit/{tag}.csv"])
    for model in fit_models:
        add(["moments", "--model", model])
        add(["sample", "--model", model, "--n", "1000", "--seed", str(seed),
             "--out", model + ".sample.csv"], model + ".sample.csv")

    # factor workload
    fa = "factor/fa-q16.model.json"
    add(["fa", "bic", "--schema", "factor/fa-q12.schema.json", "--data", "factor/fa-q12.csv"])
    add(["fa", "fit", "--latent-dim", "2", "--schema", "factor/fa-q16.schema.json",
         "--data", "factor/fa-q16.csv", "--out", fa], fa)
    biplot = ("factor/bp.svg", "factor/bp.scores.csv", "factor/bp.loadings.csv")
    add(["fa", "biplot", "--model", fa, "--data", "factor/fa-q16.csv", "--out-svg", biplot[0],
         "--out-scores", biplot[1], "--out-loadings", biplot[2]], *biplot)
    add(["moments", "--model", fa])
    add(["sample", "--model", fa, "--n", "10000", "--seed", str(seed),
         "--out", "factor/fa-sample.csv"], "factor/fa-sample.csv")

    # query workload
    q16, q12, mixed = ("query/query-q16.model.json", "query/query-q12.model.json",
                       "query/mixed.model.json")
    add(["sample", "--model", q16, "--n", "10000", "--seed", str(seed),
         "--out", "query/q16-sample.csv"], "query/q16-sample.csv")
    add(["moments", "--model", q16])
    add(["oracle", "check", "--model", q12])
    add(["oracle", "check", "--model", q16])
    for item in pool["marginal"] + pool["conditional"]:
        add(["prob", "--model", q16, "--query", item["query"]]
            + (["--given", item["given"]] if item["given"] else []))
    for item in pool["mixed"]:
        add(["mixed", "eval", "--model", mixed, f"--x={item['x']}", f"--y={item['y']}"])
    rare = "query/rare.model.json"
    add(["sample", "--model", rare, "--n", "10000", "--seed", str(seed),
         "--out", "query/rare-sample.csv"], "query/rare-sample.csv")
    add(["prob", "--model", rare, "--query", "v1>=2"])
    add(["prob", "--model", rare, "--query", "v1=3", "--given", "v0=1"])
    add(["oracle", "check", "--model", rare])
    wide = "query/range.model.json"
    add(["sample", "--model", wide, "--n", "10000", "--seed", str(seed),
         "--out", "query/range-sample.csv"], "query/range-sample.csv")
    add(["prob", "--model", wide, "--query", "v1>=2"])
    add(["prob", "--model", wide, "--query", "v2=3", "--given", "v0=1"])
    add(["moments", "--model", wide])
    add(["oracle", "check", "--model", wide])

    # refusals: each exits nonzero with one stderr line
    add(["prob", "--model", q16, "--query", "v0"])
    add(["prob", "--model", q16, "--query", "v0=x"])
    add(["prob", "--model", q16, "--query", "v0=1", "--given", "v0=1"])
    add(["prob", "--model", fa, "--query", "v0=1"])
    add(["moments", "--model", mixed])
    add(["sample", "--model", mixed, "--n", "10", "--out", "query/mixed-sample.csv"],
        "query/mixed-sample.csv")
    add(["fa", "bic", "--schema", "factor/fa-q12.schema.json", "--data", "factor/fa-q12.csv",
         "--min-dim", "3", "--max-dim", "1"])
    y_bits = ",".join(["0"] * 10)
    for x, y in (("1", y_bits), ("a,b,c", y_bits), ("0,0,0", "2" + y_bits[1:])):
        add(["mixed", "eval", "--model", mixed, "--x", x, "--y", y])
    add(["fit", "--schema", "fit/fit-q8.schema.json", "--data", "fit/fit-q8.csv",
         "--tol", "abc", "--out", "fit/tol.model.json"], "fit/tol.model.json")

    # finite models whose a-space terms or prior weights overflow
    for name in ("A", "B", "F"):
        model = f"overflow/{name}.json"
        add(["sample", "--model", model, "--n", "100", "--seed", str(seed),
             "--out", f"overflow/{name}-sample.csv"], f"overflow/{name}-sample.csv")
        add(["moments", "--model", model])
        if name != "F":
            add(["prob", "--model", model, "--query", "v0=1"])
            add(["oracle", "check", "--model", model])

    # the determinism test's commands
    add(["validate", "--schema", "acc/schema.json", "--data", "acc/data.csv"])
    add(["fit", "--schema", "acc/schema.json", "--data", "acc/data.csv", "--latent-aux", "1",
         "--restarts", "1", "--seed", "3", "--max-iter", "300", "--out", "acc/model.json",
         "--out-corr", "acc/corr.csv"], "acc/model.json", "acc/corr.csv")
    add(["moments", "--model", "acc/model.json"])
    add(["prob", "--model", "acc/model.json", "--query", "Edu>=2", "--given", "Age=1"])
    add(["sample", "--model", "acc/model.json", "--n", "400", "--seed", "9",
         "--out", "acc/samples.csv"], "acc/samples.csv")
    add(["fa", "fit", "--schema", "acc/schema.json", "--data", "acc/data.csv", "--latent-dim",
         "2", "--restarts", "1", "--seed", "5", "--max-iter", "300", "--out", "acc/fa.json"],
        "acc/fa.json")
    acc_biplot = ("acc/bi.svg", "acc/sc.csv", "acc/ld.csv")
    add(["fa", "biplot", "--model", "acc/fa.json", "--data", "acc/data.csv",
         "--out-svg", acc_biplot[0], "--out-scores", acc_biplot[1],
         "--out-loadings", acc_biplot[2]], *acc_biplot)
    add(["fa", "bic", "--schema", "acc/schema.json", "--data", "acc/data.csv", "--min-dim", "0",
         "--max-dim", "1", "--restarts", "1", "--seed", "5", "--max-iter", "300"])
    add(["mixed", "eval", "--model", "acc/mixed.json", "--x", "0.4", "--y", "1,g:0"])
    add(["oracle", "check", "--model", "acc/model.json"])
    return cmds


def _numeric_leaves(old, new, pairs: list) -> bool:
    """Append the (old, new) pairs of numeric leaves of two parsed JSON
    values to ``pairs``; False when their keys or shapes differ."""
    if isinstance(old, dict):
        return (isinstance(new, dict) and list(old) == list(new)
                and all(_numeric_leaves(old[k], new[k], pairs) for k in old))
    if isinstance(old, list):
        return (isinstance(new, list) and len(old) == len(new)
                and all(_numeric_leaves(a, b, pairs) for a, b in zip(old, new)))
    numeric = [isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new)]
    if numeric[0] and numeric[1]:
        pairs.append((old, new))
    return numeric[0] == numeric[1]


def numeric_gap(old: str, new: str) -> str:
    """' (largest numeric difference: abs A, rel R)' of two stdouts that
    parse as JSON with the same keys and shapes, else ''."""
    try:
        a, b = json.loads(old), json.loads(new)
    except ValueError:
        return ""
    pairs: list = []
    if not _numeric_leaves(a, b, pairs) or not pairs:
        return ""
    gaps = [(abs(x - y), abs(x - y) / max(abs(x), abs(y))) if x != y else (0.0, 0.0)
            for x, y in pairs]
    return (f" (largest numeric difference: abs {max(g for g, _ in gaps):.3g}, "
            f"rel {max(r for _, r in gaps):.3g})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="source tree to compare against")
    ap.add_argument("new", nargs="?", default=ROOT, help="source tree under review")
    ap.add_argument("--seed", type=int, default=1, help="seed of the benchmark inputs")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="byte-review-") as tmp:
        inputs = os.path.join(tmp, "inputs")
        cmds = command_list(args.seed, write_inputs(inputs, args.seed))
        with open(os.path.join(tmp, "commands.json"), "w", encoding="utf-8") as fh:
            json.dump(cmds, fh)
        children = []
        for side, tree in (("old", args.old), ("new", args.new)):
            work = os.path.join(tmp, side)
            shutil.copytree(inputs, work)
            env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
                       OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
            children.append(subprocess.Popen(
                [sys.executable, "-c", _RUNNER, os.path.join(tmp, "commands.json")],
                cwd=work, env=env, stdout=subprocess.PIPE, text=True,
            ))
        results = []
        for child in children:
            out, _ = child.communicate()
            if child.returncode:
                print(f"a child process exited with {child.returncode}", file=sys.stderr)
                return 2
            results.append(json.loads(out))

    differ = 0
    for (cmd, _), old, new in zip(cmds, *results):
        what = [key for key in ("code", "stdout", "stderr") if old[key] != new[key]]
        what += [f"file {name}" for name, digest in old["files"].items()
                 if digest != new["files"][name]]
        if what:
            differ += 1
            gap = numeric_gap(old["stdout"], new["stdout"]) if "stdout" in what else ""
            print(f"DIFFERS ({', '.join(what)}): grasscat {' '.join(cmd)}{gap}")
    n_files = sum(len(outputs) for _, outputs in cmds)
    nonzero = sum(r["code"] != 0 for r in results[1])
    print(f"{len(cmds)} commands ({nonzero} exit nonzero in the new tree), {n_files} output "
          f"files, seed {args.seed}: {differ} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
