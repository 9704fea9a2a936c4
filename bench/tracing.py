"""In-memory span tracing of grasscat's public functions, from outside.

``Tracer.install`` wraps every public function of every ``grasscat`` module
in each namespace that holds it (``grasscat.cli.joint_probability`` as well
as ``grasscat.grassmann.joint_probability``), and wraps
``scipy.optimize.minimize`` once, naming each call after the grasscat module
that made it (``fit.lbfgs``, ``factor.lbfgs``).  A span records its name,
start, end, parent and the benchmark operation it belongs to; spans stay in
memory until ``write_spans``.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import scipy.optimize

MODULES = (
    "caps", "cli", "factor", "fit", "grassmann", "mixed",
    "modelfile", "oracle", "outputs", "schema", "structure",
)


class Tracer:
    def __init__(self) -> None:
        self.op_id = -1
        self.tracing = False  # set once the wrappers are installed
        self.enabled = False  # on only while a benchmark command runs
        # span: [name, start, end, parent index, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        module = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{module}.errors"] += 1
                raise
            finally:
                self._exit(idx)

        return wrapper

    def _wrap_minimize(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            caller = sys._getframe(1).f_globals.get("__name__", "")
            layer = caller.rsplit(".", 1)[-1] if caller.startswith("grasscat.") else "other"
            name = f"{layer}.lbfgs"
            idx = self._enter(name)
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                self._exit(idx)
            self.counts[f"{name}.nit"] += int(res.nit)
            self.counts[f"{name}.nfev"] += int(res.nfev)
            return res

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = {m: sys.modules[f"grasscat.{m}"] for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrappers[id(fn)] = self._wrap(fn, f"{short}.{attr}")
        for mod in [*mods.values(), sys.modules["grasscat"]]:
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrappers and inspect.isfunction(fn):
                    self._patch(mod, attr, wrappers[id(fn)])
        self._patch(scipy.optimize, "minimize", self._wrap_minimize(scipy.optimize.minimize))
        self.tracing = True

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self.tracing = False

    # -- reporting ---------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Per span name: calls, inclusive seconds (outermost spans only, so
        recursion is not counted twice) and self seconds; per module: self
        seconds."""
        out: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            self_s = dur - child[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name.split('.', 1)[0]}.self_s"] += self_s
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.s"] += dur
        for key, value in self.counts.items():
            out[key] += value
        return dict(out)

    def write_spans(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
