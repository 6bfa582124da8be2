"""Tracing from outside the program: span wrappers and per-layer metrics.

The layers are the package's modules. Each traced public function is
wrapped once, and the one wrapper is bound at every place the function is
looked up from: its module's global and every ``from .x import f`` copy in
the other modules. A call made while an op is traced records a span (name,
start, end, parent span, op id, and an optional work count taken from the
call's arguments or result). Spans are kept in memory and written out when
the run ends; the program itself gets no tracing code.

A module's self time is the time its spans cover minus the time their
child spans cover, so the self times of all modules plus the op's own
remainder add up to the traced op time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# module -> traced public functions
TRACED = {
    "cli": ("main",),
    "config": ("load_bundled", "load_scenario"),
    "pipeline": ("run_scenario", "run_learner", "run_attack", "evaluate_closed_loop",
                 "settling_step", "report_write"),
    "poison": ("admm_solve", "a_step", "p_step", "generate_poisoned", "attack_cost"),
    "data": ("simulate_zoh", "dataset_write", "dataset_read"),
    "sysid": ("identify", "estimate_fg", "estimate_qr", "model_write"),
    "lq": ("care_solve", "lyap_solve"),
    "linalg": ("expm", "zoh_pair", "psd_project", "lstsq"),
}


def _dir_bytes(outdir: str) -> int:
    # timings.json is left out: its size depends on the digits of wall times.
    return sum(
        os.path.getsize(os.path.join(outdir, f))
        for f in os.listdir(outdir)
        if f != "timings.json"
    )


# "<module>.<function>" -> (counter name, count from (args, result))
COUNTERS = {
    "poison.admm_solve": ("iters", lambda a, r: r.iter),
    "poison.generate_poisoned": ("steps", lambda a, r: r.N),
    "pipeline.evaluate_closed_loop": ("steps", lambda a, r: len(r.states)),
    "pipeline.report_write": ("bytes", lambda a, r: _dir_bytes(a[1])),
    "data.simulate_zoh": ("steps", lambda a, r: r.N),
    "data.dataset_write": ("bytes", lambda a, r: os.path.getsize(a[1])),
    "data.dataset_read": ("rows", lambda a, r: r.N),
    "sysid.identify": ("series_terms", lambda a, r: r.series_terms),
    "lq.care_solve": ("iters", lambda a, r: r.iterations),
}

ROOT = "op"  # the span around a whole op; its self time is the benchmark's own


class Tracer:
    """Span recorder; inactive (pass-through) outside ``begin``/``end``."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, op_id, count)
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._root_start = 0.0

    def install(self) -> None:
        """Wrap every traced function and rebind it wherever it is looked up."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lqpoison" or n.startswith("lqpoison.")]
        for mod, funcs in TRACED.items():
            owner = importlib.import_module(f"lqpoison.{mod}")
            for func in funcs:
                orig = getattr(owner, func)
                name = f"{mod}.{func}"
                wrapped = self._wrap(name, orig, COUNTERS.get(name, (None, None))[1])
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (name, t0, t1, parent, tracer._op_id, None)
            if count is not None:
                tracer.spans[sid] = (name, t0, t1, parent, tracer._op_id, count(args, out))
            return out

        return traced

    def begin(self, op_id: int) -> None:
        """Open the root span of a traced op."""
        self._op_id = op_id
        self._stack = [len(self.spans)]
        self.spans.append(None)
        self._root_start = time.perf_counter()

    def end(self) -> None:
        t1 = time.perf_counter()
        self.spans[self._stack[0]] = (ROOT, self._root_start, t1, -1, self._op_id, None)
        self._stack = []
        self._op_id = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span], separators=(",", ":")) + "\n")


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-op means of per-function and per-module figures from closed spans.

    For every traced function: ``calls``, inclusive seconds ``s`` and its
    work counter; for every module: ``self_s``; plus ``poison.p_step.ls_share``
    (share of P-steps that project exactly once, i.e. took the least-squares
    branch) and ``trace.unattributed_s`` (the op's time outside the program).
    """
    n_ops = sum(1 for s in spans if s[0] == ROOT)
    child_s = [0.0] * len(spans)
    projections = {}
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
            if name == "linalg.psd_project":
                projections[parent] = projections.get(parent, 0) + 1
    out = {f"{mod}.self_s": 0.0 for mod in TRACED}
    for mod, funcs in TRACED.items():
        for func in funcs:
            out[f"{mod}.{func}.calls"] = 0.0
            out[f"{mod}.{func}.s"] = 0.0
            counter = COUNTERS.get(f"{mod}.{func}")
            if counter:
                out[f"{mod}.{func}.{counter[0]}"] = 0.0
    out["trace.unattributed_s"] = 0.0
    p_steps = ls_steps = 0
    for i, (name, t0, t1, parent, _, count) in enumerate(spans):
        self_s = t1 - t0 - child_s[i]
        if name == ROOT:
            out["trace.unattributed_s"] += self_s
            continue
        out[name.split(".", 1)[0] + ".self_s"] += self_s
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += t1 - t0
        if count is not None:
            out[f"{name}.{COUNTERS[name][0]}"] += count
        if name == "poison.p_step":
            p_steps += 1
            ls_steps += projections.get(i, 0) == 1
    per_op = {k: v / max(n_ops, 1) for k, v in out.items()}
    per_op["poison.p_step.ls_share"] = ls_steps / p_steps if p_steps else 0.0
    return per_op
