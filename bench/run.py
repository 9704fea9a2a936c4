"""Benchmark grasscat end to end (``--trace 0``) or per layer (``--trace 1``).

    python3 bench/run.py --workload {fit,factor,query} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it needs ``src/grasscat`` and
``tests/generators.py`` and builds nothing.  Each run

1. sets up three times (a child process draws the seeded inputs; then the
   program is imported and warmed up) and reports the median as ``setup_s``;
2. drives the workload in-process through ``grasscat.cli.run_command`` with
   one closed-loop client, for at least ``--seconds`` seconds;
3. checks every output outside the timed sections, and hashes each
   operation's stdout and output files (repeats must hash the same);
4. writes ``.bench_out/<workload>-seed<N>-trace<T>.json`` (metrics, checks,
   digests and provenance) and, when tracing, the spans next to it;
5. prints the metrics by name and unit, then one JSON line
   ``{"correct", "attempted", "failed", "metrics"}``.

The workloads, metrics and the layer-to-metric table are in README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: steadier timings on a shared two-core machine, and the
# setting is recorded with the result.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")
N_SETUPS = 3
MIN_QUERY_COMMANDS = 1000
# How often each run repeats its short bulk commands; the median is reported.
BULK_REPEATS = {"fit": 15, "factor": 7, "query": 3}
PROB_TOL = 1e-9
NEG_PROB_TOL = -1e-9  # the threshold `sample` refuses at

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "small_ms": "ref_ms",
    "large_ms": "ref_ms",
    "bulk_ms": "ref_ms",
}

LAYER_FUNCS = (
    "fit.dominance_penalty", "structure.dominance_certificate", "fit.state_counts",
    "grassmann.check_p0", "grassmann.joint_probability", "schema.decode_state",
    "outputs.write_csv", "oracle.brute_force_table", "modelfile.load_model",
    "modelfile.save_model", "cli.run_command", "structure.assemble_lambda",
    "grassmann.marginal_params", "grassmann.conditional_params", "grassmann.moments",
    "schema.load_data_rows", "factor.mixture_weights", "factor.biplot_export",
    "schema.enumerate_allowed_states", "mixed.density",
)
MODULE_NAMES = (
    "caps", "cli", "factor", "fit", "grassmann", "mixed",
    "modelfile", "oracle", "outputs", "schema", "structure",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in ("fit", "factor"):
        units.update({
            f"{layer}.lbfgs.calls": "count", f"{layer}.lbfgs.nit": "count",
            f"{layer}.lbfgs.nfev": "count", f"{layer}.lbfgs.self_s": "s",
            f"{layer}.eval_ms": "ms",
        })
    for size in ("q8", "q16"):
        units.update({
            f"fit.{size}.nll_ms": "ms", f"fit.{size}.grad_ms": "ms",
            f"fit.{size}.minors_per_eval": "count",
            f"fit.{size}.minor_mflop_computed": "MFLOP",
            f"fit.{size}.minor_gflops_computed": "GFLOP/s",
        })
    units["fit.certified_frac"] = "fraction"
    units["fit.uncertified_models"] = "count"
    units["factor.allowed_states"] = "count"
    for fn in LAYER_FUNCS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.s"] = "s"
    units["cli.self_s"] = "s"
    for mod in MODULE_NAMES:
        units[f"{mod}.errors"] = "count"
    units["trace.spans"] = "count"
    units["trace.pass_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_measured"] = "bool"
    units["trace.overhead_est_s"] = "s"
    return units


# -- machine speed -------------------------------------------------------------


class SpeedProbe:
    """Tracks how fast this machine runs right now, to rescale wall times.

    On a shared host the same code runs at one of two speeds, about 1.8x
    apart, switching every second or so (another tenant on the sibling
    hardware thread).  While active, a SIGALRM handler times a fixed numpy
    workload every ``PERIOD`` seconds, and once after every command.
    ``scaled`` converts a wall-time interval to seconds at the reference
    speed, at which the probe takes ``REF_S[kind]``: each stretch between
    probes is multiplied by that over the median duration of the probes
    around it.  Probe time is excluded.  Inactive (traced runs), ``scaled``
    returns raw wall time.

    Small-matrix code and code on long arrays slow down by different
    factors, so each sample times two probes: ``dispatch`` (200 ``slogdet``
    calls on a 6x6 matrix, like the minor kernel, argparse and JSON work)
    and ``array`` (exp and products on a 1024x16 matrix, like the factor
    objective over 5184 allowed states).
    """

    PERIOD = 0.1
    REF_S = {"dispatch": 2.0e-3, "array": 0.5e-3}  # usual durations on a 2-core shared x86_64 host

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
        A = (rng.random((1024, 16)) < 0.3).astype(float)
        v = rng.normal(size=16)

        def dispatch() -> None:
            for _ in range(200):
                np.linalg.slogdet(a)

        def array() -> None:
            for _ in range(8):
                w = np.exp(A @ v)
                (A * w[:, None]).T @ A

        self._works = (dispatch, array)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: dict[str, list[float]] = {"dispatch": [], "array": []}
        self.active = False
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # the timer fired during a sample; keep the lists sorted
            return
        self._busy = True
        t0 = time.perf_counter()
        self._works[0]()
        t1 = time.perf_counter()
        self._works[1]()
        t2 = time.perf_counter()
        self.durations["dispatch"].append(t1 - t0)
        self.durations["array"].append(t2 - t1)
        self.ends.append(t2)
        self.starts.append(t0)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        self.active = True
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.active = False

    def inside(self, a: float, b: float) -> float:
        """Probe seconds spent inside [a, b]."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        return sum(min(self.ends[i], b) - self.starts[i] for i in range(lo, hi))

    def _speed(self, i: int, kind: str) -> float:
        """Reference seconds per wall second around probe i."""
        near = self.durations[kind][max(0, i - 2) : i + 3]
        return self.REF_S[kind] / statistics.median(near)

    def scaled(self, a: float, b: float, kinds=("dispatch",)) -> list[float]:
        """[a, b] in reference seconds, one value per probe kind.  Needs a
        probe after b (``Client.run`` takes one after every command)."""
        if not self.active:
            return [b - a for _ in kinds]
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        stretches, t, prev = [], a, max(lo - 1, 0)
        for i in range(lo, hi):
            stretches.append((self.starts[i] - t, prev, i))
            t, prev = min(self.ends[i], b), i
        stretches.append((b - t, prev, min(hi, len(self.starts) - 1)))
        return [
            sum(dt * 0.5 * (self._speed(p, k) + self._speed(n, k)) for dt, p, n in stretches)
            for k in kinds
        ]


# -- operations, digests and checks ----------------------------------------


class Op(NamedTuple):
    code: int
    out: str
    s: float  # wall seconds, probe time excluded
    ref_s: float  # seconds at the reference machine speed
    # per optimizer problem size (number of variables): evaluation counts
    # and the median reference time of one finite evaluation; see Run.timed
    opt: dict | None = None


class Client:
    """One closed-loop client: runs a command, captures its stdout, times
    it, hashes its outputs and keeps the attempted/failed tally."""

    def __init__(self, workdir: str, tracer, probe, cli) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self.probe = probe
        self.cli = cli  # the module: the tracer replaces cli.run_command
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def _norm(self, text: str) -> str:
        return text.replace(self.workdir + os.sep, "<work>/").replace(self.workdir, "<work>")

    def run(self, argv: list[str], outputs: tuple[str, ...] = ()) -> "Op":
        """Run one command; checks are the caller's."""
        out, err = io.StringIO(), io.StringIO()
        self.tracer.op_id = self.attempted
        self.tracer.enabled = self.tracer.tracing
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run_command(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead benchmark
            code = f"exception {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        self.tracer.enabled = False
        if self.probe.active:
            self.probe.sample()  # closes the command's last stretch
        (ref_s,) = self.probe.scaled(t0, t1)
        self.attempted += 1
        key = self._norm(" ".join(argv))
        h = hashlib.sha256(self._norm(out.getvalue()).encode())
        for path in outputs:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    h.update(fh.read())
        digest = h.hexdigest()
        if code != 0:
            self.fail(f"{key}: exit {code}: {err.getvalue().strip()[:200]}")
            code = code if isinstance(code, int) else 70
        elif self.digests.setdefault(key, digest) != digest:
            self.fail(f"{key}: output differs from an earlier run of the same command")
        return Op(code, out.getvalue(), t1 - t0 - self.probe.inside(t0, t1), ref_s)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)

    def check(self, ok: bool, reason: str) -> bool:
        """Count a failed check against the operation just run."""
        if not ok:
            self.fail(reason)
        return ok


def _json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return {}


def allowed_state_probabilities(schema, sp):
    """Probabilities of every allowed state, by batched determinants of the
    principal minors of lam - I; independent of the program's own loops."""
    import numpy as np

    from grasscat.schema import enumerate_allowed_states
    from grasscat.structure import assemble_lambda

    lam = np.asarray(assemble_lambda(schema, sp).lam)
    states = np.asarray([s.bits for s in enumerate_allowed_states(schema)], dtype=bool)
    lam_mi = lam - np.eye(lam.shape[0])
    det_l = np.linalg.det(lam)
    probs = np.empty(len(states))
    for k in range(lam.shape[0] + 1):
        rows = np.flatnonzero(states.sum(axis=1) == k)
        if rows.size == 0:
            continue
        if k == 0:
            probs[rows] = 1.0 / det_l
            continue
        idx = np.nonzero(states[rows])[1].reshape(rows.size, k)
        probs[rows] = np.linalg.det(lam_mi[idx[:, :, None], idx[:, None, :]]) / det_l
    return probs


def count_csv_rows(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


# -- workloads ---------------------------------------------------------------


class Run:
    """State shared by one workload run."""

    def __init__(self, args, workdir: str, expect: dict, tracer, client) -> None:
        self.args = args
        self.workdir = workdir
        self.expect = expect
        self.tracer = tracer
        self.client = client
        # problem size -> [(start, end) of each finite objective evaluation,
        # evaluations reported by the optimizer]; filled by _EvalTimer
        self.evals: dict[int, list] = {}
        # the gated end-to-end metrics, in reference milliseconds
        self.small = self.large = self.bulk = math.nan
        self.named: dict[str, tuple[float, str]] = {}  # raw metrics under descriptive names
        self.layer: dict[str, float] = {}  # per-layer metrics measured outside the tracer
        self.extra: dict = {}  # per-command detail for the result file

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def timed(self, argv, outputs=()) -> Op:
        """Run one command; for each optimizer problem size it solved, also
        count its objective evaluations and take the median reference time
        of one finite evaluation, by each probe kind."""
        self.evals = {}
        op = self.client.run(argv, outputs)
        opt = {}
        for size, (spans, nfev) in self.evals.items():
            per_kind = zip(*(self.client.probe.scaled(a, b, PROBE_KINDS) for a, b in spans))
            opt[size] = {"nfev": nfev, "finite": len(spans),
                         "raw_ms": 1e3 * statistics.median(b - a for a, b in spans),
                         **{f"{k}_ms": 1e3 * statistics.median(v) for k, v in zip(PROBE_KINDS, per_kind)}}
        return op._replace(opt=opt)


def fit_pass(run: Run) -> dict:
    import numpy as np

    from grasscat.fit import negative_log_likelihood, state_counts
    from grasscat.modelfile import load_model
    from grasscat.schema import load_data_rows

    results = {}
    fits = (
        ("q8", "fit-q8", ["--latent-aux", "2"]),
        ("q16", "fit-q16", ["--latent-aux", "2", "--restarts", "1"]),
    )
    for label, tag, extra in fits:
        model = run.path(f"{tag}.model.json")
        argv = ["fit", "--schema", run.path(f"{tag}.schema.json"),
                "--data", run.path(f"{tag}.csv"), *extra, "--out", model]
        op = run.timed(argv, (model, model + ".corr.csv"))
        res = {"s": op.s, "opt": op.opt, "nfev": _nfev(op), "ok": op.code == 0}
        results[label] = res
        if op.code != 0:
            continue
        report = _json(op.out).get("report", {})
        mf = load_model(model)
        rows = load_data_rows(mf.schema, run.path(f"{tag}.csv"))
        nll = negative_log_likelihood(mf.schema, mf.params, state_counts(mf.schema, rows))
        run.client.check(
            math.isclose(report.get("nll", math.nan), nll, rel_tol=1e-9),
            f"{tag}: reported nll {report.get('nll')} != recomputed {nll}",
        )
        probs = allowed_state_probabilities(mf.schema, mf.params)
        res.update(
            nll_per_row=nll / len(rows),
            feasible=bool(report.get("feasible")),
            min_state_prob=float(probs.min()),
            # A negative allowed-state probability is the known defect of
            # uncertified fits (ROADMAP item 3); it is reported, not failed.
            certified=bool(probs.min() >= NEG_PROB_TOL),
            sum_state_prob=float(probs.sum()),
            params=mf, rows=rows,
        )
        run.client.check(abs(probs.sum() - 1.0) < 1e-8, f"{tag}: allowed-state probabilities sum to {probs.sum()}")
    bulk = []
    for _ in range(BULK_REPEATS["fit"]):
        t = 0.0
        for tag in ("fit-q8", "fit-q16"):
            op = run.timed(["validate", "--schema", run.path(f"{tag}.schema.json"),
                            "--data", run.path(f"{tag}.csv")])
            t += op.ref_s
            rows = _json(op.out).get("rows")
            run.client.check(op.code != 0 or rows == count_csv_rows(run.path(f"{tag}.csv")),
                             f"{tag}: validate counted {rows} rows")
            model = run.path(f"{tag}.model.json")
            if not os.path.exists(model):
                continue
            op = run.timed(["moments", "--model", model])
            t += op.ref_s
            mean = np.asarray(_json(op.out).get("mean", [np.nan]))
            run.client.check(op.code != 0 or bool(np.all(np.isfinite(mean))), f"{tag}: moments not finite")
        bulk.append(t)
    results["bulk_ref_s"] = statistics.median(bulk)
    return results


def fit_workload(run: Run) -> None:
    passes = _loop(run, fit_pass)
    last = passes[-1]
    fits = [last[k] for k in ("q8", "q16") if "nll_per_row" in last[k]]
    run.named.update({
        "fit_q8_s": (statistics.median(p["q8"]["s"] for p in passes), "s"),
        "fit_q16_s": (statistics.median(p["q16"]["s"] for p in passes), "s"),
        "fit_nll_per_row": (statistics.fmean(f["nll_per_row"] for f in fits) if fits else math.nan, "nats/row"),
    })
    run.small = statistics.median(_per_eval_ms(p["q8"]) for p in passes)
    run.large = statistics.median(_per_eval_ms(p["q16"]) for p in passes)
    run.bulk = 1e3 * statistics.median(p["bulk_ref_s"] for p in passes)
    run.layer["fit.certified_frac"] = statistics.fmean(f["feasible"] for f in fits) if fits else 0.0
    run.layer["fit.uncertified_models"] = float(sum(not f["certified"] for f in fits))
    run.extra = {
        label: {k: v for k, v in last[label].items() if k not in ("params", "rows")}
        for label in ("q8", "q16")
    }
    if run.tracer.tracing:
        for size in ("q8", "q16"):
            if "params" in last[size]:
                _kernel_probe(run, size, last[size]["params"], last[size]["rows"])


def _kernel_probe(run: Run, size: str, mf, rows) -> None:
    """Time the public NLL and gradient at the fitted params, directly."""
    import numpy as np

    from grasscat.fit import negative_log_likelihood, nll_gradient, state_counts

    counts = state_counts(mf.schema, rows)
    reps = 30 if size == "q8" else 5
    for name, fn in (("nll_ms", negative_log_likelihood), ("grad_ms", nll_gradient)):
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(mf.schema, mf.params, counts)
            ts.append(time.perf_counter() - t0)
        run.layer[f"fit.{size}.{name}"] = 1e3 * statistics.median(ts)
    ks = np.asarray([sum(bits) for bits, _ in counts.items])
    ks = ks[ks > 0]
    q = mf.schema.q
    # slogdet ~ 2/3 k^3 (LU) and inverse ~ 2 k^3 per minor, plus lam itself
    flop = float(((2.0 / 3.0 + 2.0) * ks.astype(float) ** 3).sum() + (2.0 / 3.0 + 2.0) * q**3)
    secs = 1e-3 * (run.layer[f"fit.{size}.nll_ms"] + run.layer[f"fit.{size}.grad_ms"])
    run.layer[f"fit.{size}.minors_per_eval"] = float(ks.size)
    run.layer[f"fit.{size}.minor_mflop_computed"] = flop / 1e6
    run.layer[f"fit.{size}.minor_gflops_computed"] = flop / secs / 1e9


def factor_pass(run: Run) -> dict:
    import numpy as np

    from grasscat.modelfile import load_model
    from grasscat.schema import encode_record, enumerate_allowed_states, load_data_rows

    res = {}
    op = run.timed(["fa", "bic", "--schema", run.path("fa-q12.schema.json"),
                    "--data", run.path("fa-q12.csv")])
    res["bic"] = {"s": op.s, "opt": op.opt, "nfev": _nfev(op)}
    if op.code == 0:
        table = _json(op.out).get("table", {})
        rows = table.get("rows", [])
        best = min(rows, key=lambda r: (r["bic"], r["p_z"]))["p_z"] if rows else None
        run.client.check(table.get("chosen") == best, f"fa bic chose {table.get('chosen')}, BIC argmin is {best}")
    model = run.path("fa-q16.model.json")
    op = run.timed(["fa", "fit", "--latent-dim", "2", "--schema",
                    run.path("fa-q16.schema.json"), "--data",
                    run.path("fa-q16.csv"), "--out", model], (model,))
    res["fit"] = {"s": op.s, "opt": op.opt, "nfev": _nfev(op)}
    if op.code != 0:
        return res
    # NLL of the saved model, recomputed here from the closed-form weights
    mf = load_model(model)
    rows = load_data_rows(mf.schema, run.path("fa-q16.csv"))
    Y = np.asarray([s.bits for s in enumerate_allowed_states(mf.schema)], dtype=float)
    obs = np.asarray([encode_record(mf.schema, r).bits for r in rows], dtype=float)
    b, G = mf.params.b, mf.params.G

    def logw(states):
        return states @ b + 0.5 * ((states @ G) ** 2).sum(axis=1)

    lw = logw(Y)
    logz = lw.max() + np.log(np.exp(lw - lw.max()).sum())
    nll = float(-(logw(obs) - logz).sum())
    reported = _json(op.out).get("report", {}).get("nll", math.nan)
    run.client.check(math.isclose(reported, nll, rel_tol=1e-8), f"fa fit nll {reported} != recomputed {nll}")
    res["fit"]["nll_per_row"] = nll / len(rows)
    weights = np.exp(lw - logz)
    mean = weights @ Y
    bulk = []
    for _ in range(BULK_REPEATS["factor"]):
        t = 0.0
        outs = tuple(run.path(n) for n in ("bp.svg", "bp.scores.csv", "bp.loadings.csv"))
        op = run.timed(["fa", "biplot", "--model", model, "--data", run.path("fa-q16.csv"),
                        "--out-svg", outs[0], "--out-scores", outs[1],
                        "--out-loadings", outs[2]], outs)
        t += op.ref_s
        run.client.check(op.code != 0 or _json(op.out).get("points", 0) > 0, "fa biplot: no points")
        op = run.timed(["moments", "--model", model])
        t += op.ref_s
        got = np.asarray(_json(op.out).get("mean", [np.nan] * len(mean)))
        run.client.check(op.code != 0 or np.abs(got - mean).max() < 1e-9, "factor moments: mean differs")
        sample = run.path("fa-sample.csv")
        op = run.timed(["sample", "--model", model, "--n", "10000",
                        "--seed", str(run.args.seed), "--out", sample], (sample,))
        t += op.ref_s
        run.client.check(op.code != 0 or count_csv_rows(sample) == 10000, "factor sample: row count")
        bulk.append(t)
    res["bulk_ref_s"] = statistics.median(bulk)
    return res


def factor_workload(run: Run) -> None:
    passes = _loop(run, factor_pass)
    run.named.update({
        "fa_bic_s": (statistics.median(p["bic"]["s"] for p in passes), "s"),
        "fa_fit_s": (statistics.median(p["fit"]["s"] for p in passes), "s"),
    })
    # the q=12 objective works on small arrays; the q=16 one on 5184-row arrays
    run.small = statistics.median(_per_eval_ms(p["bic"], "dispatch") for p in passes)
    run.large = statistics.median(_per_eval_ms(p["fit"], "array") for p in passes)
    done = [p for p in passes if "bulk_ref_s" in p]
    run.bulk = 1e3 * statistics.median(p["bulk_ref_s"] for p in done) if done else math.nan
    run.named["fa_read_s"] = (run.bulk / 1e3, "ref_s")
    run.named["fa_nll_per_row"] = (done[-1]["fit"]["nll_per_row"] if done else math.nan, "nats/row")
    run.extra = {"passes": [{k: v for k, v in p.items()} for p in passes]}
    schemas = {"fa-q12": 576, "fa-q16": 5184}
    run.layer["factor.allowed_states"] = float(sum(
        n * p[k]["nfev"] for p in passes for k, n in (("bic", schemas["fa-q12"]), ("fit", schemas["fa-q16"]))
    ))


def query_workload(run: Run) -> None:
    import numpy as np

    ex = run.expect
    q16 = run.path("query-q16.model.json")
    q12 = run.path("query-q12.model.json")
    mixed = run.path("mixed.model.json")
    rng = np.random.default_rng([run.args.seed, 7])

    def prob_cmd(item):
        argv = ["prob", "--model", q16, "--query", item["query"]]
        return argv + (["--given", item["given"]] if item["given"] else [])

    def check_prob(item, out):
        got = _json(out).get("probability", math.nan)
        return run.client.check(abs(got - item["expect"]) <= PROB_TOL,
                                f"prob {item['query']} | {item['given']}: {got} != {item['expect']}")

    def check_moments(_, out):
        got = np.asarray(_json(out).get("mean", [np.nan]))
        return run.client.check(got.shape == (16,) and np.abs(got - ex["mean_q16"]).max() <= PROB_TOL,
                                "moments: mean differs from enumeration")

    def check_mixed(item, out):
        d = _json(out).get("density", math.nan)
        return run.client.check(math.isfinite(d) and d > 0, f"mixed eval {item}: density {d}")

    kinds = (
        ("marginal", 0.40, ex["marginal"], prob_cmd, check_prob),
        ("conditional", 0.30, ex["conditional"], prob_cmd, check_prob),
        ("moments", 0.15, [None], lambda _: ["moments", "--model", q16], check_moments),
        ("mixed", 0.15, ex["mixed"],
         lambda it: ["mixed", "eval", "--model", mixed, f"--x={it['x']}", f"--y={it['y']}"],
         check_mixed),
    )
    # Exact shares: each block of 20 commands holds 8 marginal, 6 conditional,
    # 3 moments and 3 mixed commands in a seeded order, and each pool is
    # walked round-robin in a seeded order, so every seed has the same mix.
    block = [i for i, k in enumerate(kinds) for _ in range(round(20 * k[1]))]
    orders = [rng.permutation(len(k[2])) for k in kinds]
    next_item = [0] * len(kinds)
    lat: dict[str, list[float]] = {k[0]: [] for k in kinds}
    raw: list[float] = []
    t_end = time.perf_counter() + run.args.seconds
    n = 0
    while n < MIN_QUERY_COMMANDS or time.perf_counter() < t_end:
        if n % len(block) == 0:
            kind_order = rng.permutation(block)
        kind = int(kind_order[n % len(block)])
        name, _, pool, build, check = kinds[kind]
        item = pool[orders[kind][next_item[kind] % len(pool)]]
        next_item[kind] += 1
        op = run.timed(build(item))
        if op.code == 0:
            check(item, op.out)
        lat[name].append(op.ref_s)
        raw.append(op.s)
        n += 1
    run.small, run.large = (1e3 * v for v in _p50_p99([v for vs in lat.values() for v in vs]))
    run.named.update(zip(("query_p50_ms", "query_p99_ms"), ((1e3 * v, "ms") for v in _p50_p99(raw))))
    run.named["query_commands"] = (float(n), "count")
    sample = run.path("q16-sample.csv")
    bulk = []
    for _ in range(BULK_REPEATS["query"]):
        op_s = run.timed(["sample", "--model", q16, "--n", "10000",
                          "--seed", str(run.args.seed), "--out", sample], (sample,))
        run.client.check(op_s.code != 0 or count_csv_rows(sample) == 10000, "sample: row count")
        op_o = run.timed(["oracle", "check", "--model", q12])
        run.client.check(op_o.code != 0 or _json(op_o.out).get("ok") is True, "oracle check: not ok")
        bulk.append((op_s, op_o))
    run.named.update({"sample_s": (statistics.median(s.s for s, _ in bulk), "s"),
                      "oracle_check_s": (statistics.median(o.s for _, o in bulk), "s")})
    run.bulk = 1e3 * statistics.median(s.ref_s + o.ref_s for s, o in bulk)
    run.extra = {"latency_ms_p50_by_kind": {k: 1e3 * statistics.median(v) for k, v in lat.items() if v},
                 "commands_by_kind": {k: len(v) for k, v in lat.items()}}


def _nfev(op: Op) -> int:
    return sum(v["nfev"] for v in op.opt.values())


def _per_eval_ms(op: dict, kind: str = "dispatch") -> float:
    """Median reference milliseconds of one finite objective evaluation,
    averaged with equal weight over the problem sizes the command solved
    (``fa bic`` fits four latent dimensions; how many evaluations each
    takes varies with the sample, which must not shift the average)."""
    per_size = [v[f"{kind}_ms"] for v in op["opt"].values() if v["finite"]]
    return statistics.fmean(per_size) if per_size else math.nan


def _p50_p99(values: list[float]) -> tuple[float, float]:
    """Median and nearest-rank 99th percentile."""
    ordered = sorted(values)
    return statistics.median(ordered), ordered[math.ceil(0.99 * len(ordered)) - 1]


def _loop(run: Run, one_pass) -> list[dict]:
    """Closed loop: whole passes until ``--seconds`` have elapsed (at least one)."""
    passes = []
    t_end = time.perf_counter() + run.args.seconds
    while not passes or time.perf_counter() < t_end:
        passes.append(one_pass(run))
    return passes


WORKLOADS = {"fit": fit_workload, "factor": factor_workload, "query": query_workload}
PROBE_KINDS = ("dispatch", "array")
WARMUP = {
    "fit": lambda run: ["validate", "--schema", run.path("fit-q8.schema.json"),
                        "--data", run.path("fit-q8.csv")],
    "factor": lambda run: ["validate", "--schema", run.path("fa-q12.schema.json"),
                           "--data", run.path("fa-q12.csv")],
    "query": lambda run: ["moments", "--model", run.path("query-q16.model.json")],
}


# -- set-up, provenance and the result ---------------------------------------


def generate(workload: str, seed: int, workdir: str) -> tuple[list[float], dict[str, str], bool]:
    """Draw the inputs N_SETUPS times in a child process; returns the wall
    times, the input digests, and whether every draw was byte-identical."""
    times, digests, same = [], None, True
    for i in range(N_SETUPS):
        target = workdir if i == 0 else workdir + f".again{i}"
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", target],
            check=True, timeout=170, stdin=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
        d = {}
        for name in sorted(os.listdir(target)):
            with open(os.path.join(target, name), "rb") as fh:
                d[name] = hashlib.sha256(fh.read()).hexdigest()
        if digests is None:
            digests = d
        else:
            same &= d == digests
            shutil.rmtree(target)
    return times, digests, same


def provenance(seed: int, digests: dict[str, str]) -> dict:
    import numpy
    import scipy

    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, stdin=subprocess.DEVNULL)
        commit = r.stdout.strip() or commit
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "grasscat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "seed": seed,
        "inputs_sha256": digests,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


class _EvalTimer:
    """Wraps ``scipy.optimize.minimize`` to count each run's evaluations
    (``nfev``) and to time every objective evaluation that returns a finite
    value.  Evaluations that hit the domain wall return early at a fraction
    of the cost, and how many do depends on the optimizer's path, so they
    are counted but not timed.  Two clock reads per evaluation: it stays on
    when tracing is off."""

    def __init__(self, run: Run) -> None:
        import scipy.optimize

        inner = scipy.optimize.minimize

        def minimize(fun, x0, *args, **kwargs):
            spans = run.evals.setdefault(len(x0), [[], 0])

            def timed_fun(x, *fargs):
                t0 = time.perf_counter()
                value = fun(x, *fargs)
                t1 = time.perf_counter()
                if math.isfinite(value[0] if isinstance(value, tuple) else value):
                    spans[0].append((t0, t1))
                return value

            res = inner(timed_fun, x0, *args, **kwargs)
            spans[1] += int(res.nfev)
            return res

        scipy.optimize.minimize = minimize


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="grasscat benchmark")
    ap.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in (os.path.join("src", "grasscat", "cli.py"), os.path.join("tests", "generators.py")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            sys.stderr.write(f"bench: {need} not found under {ROOT}; run from a source checkout\n")
            return 2
    if args.workload == "all":  # each workload in its own process, one after another
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], stdin=subprocess.DEVNULL).returncode
            for w in WORKLOADS
        ]
        return max(codes)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(WORK_DIR)


def _run(args, workdir: str) -> int:
    gen_times, digests, same_inputs = generate(args.workload, args.seed, workdir)
    t0 = time.perf_counter()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import grasscat.cli
    from tracing import Tracer

    with open(os.path.join(workdir, "expect.json"), encoding="utf-8") as fh:
        expect = json.load(fh)
    tracer = Tracer()
    probe = SpeedProbe()
    client = Client(workdir, tracer, probe, grasscat.cli)
    run = Run(args, workdir, expect, tracer, client)
    _EvalTimer(run)
    client.run(WARMUP[args.workload](run))
    client.attempted, client.digests = 0, {}
    warm_s = time.perf_counter() - t0
    setup_s = statistics.median(gen_times) + warm_s
    if not same_inputs:
        client.fail("set-up: the same seed drew different inputs")

    if args.trace:
        tracer.install()
    else:
        probe.start()
    t_pass = time.perf_counter()
    try:
        WORKLOADS[args.workload](run)
    finally:
        pass_s = time.perf_counter() - t_pass
        probe.stop()
        tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {
        "setup_s": setup_s, "peak_rss_mb": peak_mb,
        "small_ms": run.small, "large_ms": run.large, "bulk_ms": run.bulk,
    }
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MiB"), **run.named}
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    layer = {}
    if args.trace:
        layer = _layer_metrics(run, tracer, pass_s, stem)
    correct = client.failed == 0 and all(math.isfinite(v) and v > 0 for v in metrics.values())
    result = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": client.attempted, "failed": client.failed,
        "failures": client.failures[:50], "pass_s": pass_s,
        "probe_s": sum(e - s for s, e in zip(probe.starts, probe.ends)),
        "setup": {"generate_s": gen_times, "import_warmup_s": warm_s},
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "per_layer": layer, "detail": run.extra,
        "digests": client.digests, "provenance": provenance(args.seed, digests),
    }
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=float)

    for name, (value, unit) in named.items():
        print(f"{args.workload:7s} {name:24s} {value:12.6g} {unit}")
    print(f"{args.workload:7s} {'attempted':24s} {client.attempted:12d}")
    print(f"{args.workload:7s} {'failed':24s} {client.failed:12d}")
    for reason in client.failures[:10]:
        print(f"{args.workload:7s} failure: {reason}")
    if args.trace:
        shown = layer
    else:
        shown = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": client.attempted,
                      "failed": client.failed, "metrics": shown}))
    return 0


def _layer_metrics(run: Run, tracer, pass_s: float, stem: str) -> dict:
    agg = tracer.aggregate()
    for layer in ("fit", "factor"):
        nfev = agg.get(f"{layer}.lbfgs.nfev", 0.0)
        agg[f"{layer}.eval_ms"] = 1e3 * agg.get(f"{layer}.lbfgs.self_s", 0.0) / nfev if nfev else 0.0
    for part in ("mixed_marginal_density", "mixed_conditional_density"):
        agg["mixed.density.calls"] = agg.get("mixed.density.calls", 0.0) + agg.get(f"mixed.{part}.calls", 0.0)
        agg["mixed.density.s"] = agg.get("mixed.density.s", 0.0) + agg.get(f"mixed.{part}.s", 0.0)
    agg.update(run.layer)
    agg["trace.spans"] = float(len(tracer.spans))
    agg["trace.overhead_est_s"] = len(tracer.spans) * _span_cost(tracer)
    agg["trace.pass_s"] = pass_s
    untraced = f"{stem}-trace0.json"
    if os.path.exists(untraced):
        # what the untraced run would have taken for as many operations
        with open(untraced, encoding="utf-8") as fh:
            base = json.load(fh)
        per_op = (base["pass_s"] - base.get("probe_s", 0.0)) / max(1, base["attempted"])
        agg["trace.overhead_s"] = pass_s - per_op * run.client.attempted
        agg["trace.overhead_measured"] = 1.0
    else:
        agg["trace.overhead_s"] = agg["trace.overhead_est_s"]
        agg["trace.overhead_measured"] = 0.0
    tracer.write_spans(f"{stem}.spans.jsonl")
    return {k: {"value": float(agg.get(k, 0.0)), "unit": u} for k, u in per_layer_units().items()}


def _span_cost(tracer) -> float:
    """Seconds one recorded span adds, timed on a wrapped no-op."""
    saved = (tracer.spans, tracer.enabled)
    tracer.spans, tracer.enabled = [], True
    noop = tracer._wrap(lambda: None, "trace.noop")
    t0 = time.perf_counter()
    for _ in range(10000):
        noop()
    cost = (time.perf_counter() - t0) / 10000
    tracer.spans, tracer.enabled = saved
    return cost


if __name__ == "__main__":
    sys.exit(main())
