"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.install`` wraps every public function (and public classmethod) of
the package's layer modules and rebinds the wrapper in every module
namespace of the package that binds the original, so calls between modules
and from the benchmark are all seen; nothing under ``src/`` is edited.
Each call made while an op is current records a span: name, start, end,
parent span and op id.  Spans stay in memory and are written out when the
run ends.  ``layer_metrics`` turns them into self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("core", "kernel", "adiabatic", "fast", "simulator", "optimizer", "cli")


def _simulation_info(result) -> dict:
    d = result.diagnostics
    return {k: d[k] for k in ("n_steps", "n_zeta", "refinements", "defect", "ring_down_time")}


# Counts read from return values at the layer boundary, keyed by span name.
_EXTRACTORS = {
    "kernel.power_iteration": lambda r: {"iterations": r[2]},
    "adiabatic.shape_retrieval_control": lambda r: {"truncation_loss": r.truncation_loss},
    "simulator.simulate_storage": _simulation_info,
    "simulator.simulate_retrieval": _simulation_info,
    "simulator.simulate_fast_storage": _simulation_info,
    "optimizer.iterate_retrieval": lambda r: {"iterations": r.iterations},
    "optimizer.optimize_storage_retrieval": lambda r: {"iterations": r[1].iterations},
}


class Tracer:
    """Span recorder; spans are ``[op, name, start_ns, end_ns, parent, info]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None  # spans are recorded only while an op id is set
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        extract = _EXTRACTORS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            span = [op, name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if extract is not None:
                span[5] = extract(result)
            return result

        return traced

    def _rebind(self, owner, attr: str, new, old):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def install(self, package):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not attr.startswith("_"):
                            wrapped = self._wrap(raw.__func__, f"{layer}.{name}.{attr}")
                            self._rebind(obj, attr, classmethod(wrapped), raw)
        prefix = package.__name__ + "."
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package.__name__ or k.startswith(prefix))]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, name, wrappers[obj], obj)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "info": info}) + "\n")


# Self-time groups named by the benchmark's per-layer metrics.
GROUPS = {
    "kernel.build_s": ("kernel.KernelOperator.build",),
    "kernel.solve_s": ("kernel.optimal_spin_wave", "kernel.power_iteration",
                       "kernel.dense_max_eigenpair"),
    "kernel.efficiency_s": ("kernel.retrieval_efficiency",),
    "adiabatic.shape_s": ("adiabatic.shape_retrieval_control",),
    "adiabatic.matrix_s": ("adiabatic.retrieval_matrix", "adiabatic.storage_matrix",
                           "adiabatic.store_adiabatic"),
    "fast.input_s": ("fast.optimal_fast_input", "fast.retrieve_fast"),
    "simulator.run_s": ("simulator.simulate_storage", "simulator.simulate_retrieval",
                        "simulator.simulate_fast_storage"),
    "optimizer.iterate_s": ("optimizer.iterate_retrieval", "optimizer.optimize_storage_retrieval"),
    "optimizer.forward_eig_s": ("optimizer.forward_max_efficiency",),
}
SIMULATIONS = GROUPS["simulator.run_s"]


def layer_metrics(spans: list, op_seconds: dict, op_bytes: dict) -> dict:
    """Per-layer numbers, each averaged over the traced ops.

    ``op_seconds`` maps op id to its traced wall time as timed by the
    benchmark, ``op_bytes`` to the CLI bytes it wrote.  Returns ``name ->
    (value, unit)``.  Per op, the layers' self times plus ``trace.remainder_s``
    (op time outside every span: the benchmark's own glue) add up to
    ``trace.op_s``.
    """
    n_ops = max(1, len(op_seconds))
    child = [0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    self_s = [(s[3] - s[2] - child[i]) * 1e-9 for i, s in enumerate(spans)]

    def total(names):
        return sum(t for s, t in zip(spans, self_s) if s[1] in names)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            sum(t for s, t in zip(spans, self_s) if s[1].split(".", 1)[0] == layer) / n_ops,
            "s/op")
    for metric, names in GROUPS.items():
        m[metric] = (total(names) / n_ops, "s/op")

    info = [(s, t) for s, t in zip(spans, self_s) if s[5] is not None]
    sims = [(s[5], t) for s, t in info if s[1] in SIMULATIONS]
    m["kernel.power_iters"] = (
        sum(s[5]["iterations"] for s, _ in info if s[1] == "kernel.power_iteration") / n_ops,
        "count/op")
    m["adiabatic.calls"] = (
        sum(1 for s in spans if s[1].startswith("adiabatic.")) / n_ops, "count/op")
    m["adiabatic.truncation_loss_max"] = (
        max([s[5]["truncation_loss"] for s, _ in info
             if s[1] == "adiabatic.shape_retrieval_control"], default=0.0), "1")
    m["simulator.steps"] = (sum(d["n_steps"] for d, _ in sims) / n_ops, "count/op")
    for nz in (128, 256, 512):
        steps = sum(d["n_steps"] for d, _ in sims if d["n_zeta"] == nz)
        secs = sum(t for d, t in sims if d["n_zeta"] == nz)
        m[f"simulator.us_per_step.nz{nz}"] = (secs / steps * 1e6 if steps else 0.0, "us/step")
    m["simulator.ring_down_time"] = (sum(d["ring_down_time"] for d, _ in sims) / n_ops, "tau/op")
    refinements = sum(d["refinements"] for d, _ in sims)
    m["simulator.refinements"] = (refinements / n_ops, "count/op")
    m["simulator.accept_ratio"] = (
        len(sims) / (len(sims) + refinements) if sims else 0.0, "1")
    m["simulator.defect_max"] = (max([abs(d["defect"]) for d, _ in sims], default=0.0), "1")
    m["optimizer.iterations"] = (
        sum(s[5]["iterations"] for s, _ in info if s[1].startswith("optimizer.")) / n_ops,
        "count/op")
    m["cli.bytes_written"] = (sum(op_bytes.values()) / n_ops, "B/op")

    top = sum((s[3] - s[2]) * 1e-9 for s in spans if s[4] < 0)
    op_total = sum(op_seconds.values())
    m["trace.op_s"] = (op_total / n_ops, "s/op")
    m["trace.remainder_s"] = ((op_total - top) / n_ops, "s/op")
    m["trace.ops"] = (len(op_seconds), "count")
    return m
