"""Spans around every public function of the program's seven modules.

The modules bind each other's functions by name (``from .spectral import
amplitude``), so a wrapper has to replace every binding of a function in
every ``sgwalk`` module, not only the defining one.  A span is (name,
start, end, parent, op, attr, tracer_s); spans stay in memory until the run
writes them out.  Self time is a span's duration minus that of its child
spans and minus ``tracer_s``, the time the tracer itself spent inside the
span around those children (bookkeeping and the attribute hooks).
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "core", "construct", "spectral", "quotient", "multiparticle", "scenarios")

EIG_BUCKETS = (16, 32, 64, 128)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _order(graph, spectrum=None) -> int:
    """Vertex count of a graph value, a raw matrix or a Spectrum."""
    x = spectrum if spectrum is not None else graph
    n = getattr(x, "n", None)
    return int(n) if n is not None else int(np.shape(x)[0])


def _eig_attr(args, kwargs, result):
    a = _arg(args, kwargs, 0, "graph_or_matrix")
    a = np.ascontiguousarray(getattr(a, "adjacency", a), dtype=float)
    return [a.shape[0], hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()]


def _file_size(args, kwargs, result):
    try:
        return os.path.getsize(_arg(args, kwargs, 0, "path"))
    except (OSError, TypeError):
        return 0


# What each span records beyond its timing, computed after the call returns.
HOOKS = {
    "spectral.eig_sym": _eig_attr,
    "spectral.amplitude": lambda a, k, r: _order(_arg(a, k, 0, "graph"), _arg(a, k, 4, "spectrum")),
    "spectral.amplitude_series": lambda a, k, r: [
        _order(_arg(a, k, 0, "graph"), _arg(a, k, 4, "spectrum")),
        int(np.size(_arg(a, k, 3, "times")))],
    "core.read_signed_graph": _file_size,
    "core.read_weighted_graph": _file_size,
    "multiparticle.exterior_power": lambda a, k, r: 0 if r is None else r.n,
    "multiparticle.boson_quotient": lambda a, k, r: 0 if r is None else r.n,
    "scenarios.run_scenario": lambda a, k, r: _arg(a, k, 0, "scenario_id"),
}


class Tracer:
    """Patches the program's public functions; ``op`` tags new spans."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def install(self, clock=time.perf_counter) -> None:
        """Wrap every public function; spans read ``clock``, which may leave
        out time the benchmark itself spends inside the program's calls."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "sgwalk" or name.startswith("sgwalk.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"sgwalk.{layer}")
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                span = f"{layer}.{name}"
                wrapped = self._wrap(span, fn, HOOKS.get(span), clock)
                for m in modules:
                    if vars(m).get(name) is fn:
                        self._saved.append((m, name, fn))
                        setattr(m, name, wrapped)

    def uninstall(self) -> None:
        for m, name, fn in reversed(self._saved):
            setattr(m, name, fn)
        self._saved.clear()

    def _wrap(self, span, fn, hook, clock):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            parent = stack[-1] if stack else -1
            rec = [span, 0.0, 0.0, parent, self.op, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if hook is not None:
                    rec[5] = hook(args, kwargs, result)
                if parent >= 0:
                    spans[parent][6] += clock() - enter - (rec[2] - rec[1])

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "attr", "tracer_s"])
                     + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def per_op(spans) -> dict:
    """op id -> (eig calls, eig seconds, sizes decomposed)."""
    out = defaultdict(lambda: [0, 0.0, []])
    for name, start, end, _, op, attr, _ in spans:
        if name == "spectral.eig_sym" and op is not None:
            rec = out[op]
            rec[0] += 1
            rec[1] += end - start
            rec[2].append(attr[0])
    return out


def layer_metrics(spans, scenario_ids) -> dict:
    """Every per-layer metric, in seconds or counts, from one traced pass."""
    count = len(spans)
    dur = np.array([s[2] - s[1] for s in spans]) if count else np.zeros(0)
    children = np.zeros(count)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]] += dur[i]
    self_t = dur - children - np.array([s[6] for s in spans])
    calls, self_s = Counter(), defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        self_s[s[0]] += self_t[i]

    def inside(ancestor):
        # parents are appended before their children, so one pass suffices
        flag = [False] * count
        for i, s in enumerate(spans):
            p = s[3]
            flag[i] = p >= 0 and (spans[p][0] == ancestor or flag[p])
        return flag

    def total(prefix_or_names, what):
        names = ([k for k in what if k.startswith(prefix_or_names)]
                 if isinstance(prefix_or_names, str) else prefix_or_names)
        return sum(what[k] for k in names)

    eig = [s for s in spans if s[0] == "spectral.eig_sym"]
    amp = [s for s in spans if s[0] == "spectral.amplitude"]
    series = [s for s in spans if s[0] == "spectral.amplitude_series"]
    in_pst = inside("spectral.pst_search")
    in_coarsest = inside("quotient.coarsest_equitable")
    m = {
        "spectral.eig.calls": len(eig),
        "spectral.eig.self_s": self_s["spectral.eig_sym"],
        "spectral.eig.flops_est": float(sum(s[5][0] ** 3 for s in eig)),
        "spectral.eig.distinct_ratio": len({s[5][1] for s in eig}) / len(eig) if eig else 0.0,
    }
    lower = 0
    for upper in EIG_BUCKETS:
        times = [s[2] - s[1] for s in eig if lower < s[5][0] <= upper]
        m[f"spectral.eig.ms_per_call.le{upper}"] = 1e3 * float(np.mean(times)) if times else 0.0
        lower = upper
    pst_calls = calls["spectral.pst_search"]
    m.update({
        "spectral.amplitude.calls": len(amp),
        "spectral.amplitude.self_s": self_s["spectral.amplitude"],
        "spectral.series.points": sum(s[5][1] for s in series),
        "spectral.series.self_s": self_s["spectral.amplitude_series"],
        "spectral.propagator.calls": calls["spectral.propagator"],
        "spectral.propagator.self_s": self_s["spectral.propagator"],
        "spectral.kernel.exp_evals": sum(s[5] for s in amp) + sum(s[5][0] * s[5][1] for s in series),
        "spectral.pst_search.calls": pst_calls,
        "spectral.pst_search.self_s": self_s["spectral.pst_search"],
        "spectral.pst_search.amp_per_call": (
            sum(1 for i, s in enumerate(spans) if s[0] == "spectral.amplitude" and in_pst[i])
            / pst_calls if pst_calls else 0.0),
        "cli.calls": calls["cli.main"],
        "cli.self_s": total("cli.", self_s),
        "core.read.calls": total(["core.read_signed_graph", "core.read_weighted_graph"], calls),
        "core.read.self_s": total(["core.read_signed_graph", "core.read_weighted_graph"], self_s),
        "core.read.bytes": sum(s[5] for s in spans if s[0].startswith("core.read_")),
        "core.format.calls": total(["core.format_edge_list", "core.write_edge_list"], calls),
        "core.format.self_s": total(["core.format_edge_list", "core.write_edge_list"], self_s),
        "core.build.calls": total(["core.build_signed_graph", "core.from_net_matrix"], calls),
        "core.build.self_s": total(["core.build_signed_graph", "core.from_net_matrix"], self_s),
        "construct.calls": total("construct.", calls),
        "construct.self_s": total("construct.", self_s),
        "quotient.coarsest.calls": calls["quotient.coarsest_equitable"],
        "quotient.coarsest.self_s": self_s["quotient.coarsest_equitable"],
        "quotient.refine_rounds": sum(
            1 for i, s in enumerate(spans)
            if s[0] == "quotient.partition_from_cell_of" and in_coarsest[i]),
        "quotient.quotient.self_s": self_s["quotient.quotient"],
        "quotient.is_equitable.self_s": self_s["quotient.is_equitable"],
        "multiparticle.exterior.self_s": self_s["multiparticle.exterior_power"],
        "multiparticle.exterior.states": sum(
            s[5] for s in spans if s[0] == "multiparticle.exterior_power"),
        "multiparticle.symmetric.self_s": self_s["multiparticle.symmetric_power"],
        "multiparticle.boson.self_s": self_s["multiparticle.boson_quotient"],
        "multiparticle.boson.states": sum(
            s[5] for s in spans if s[0] == "multiparticle.boson_quotient"),
        "multiparticle.oracle.self_s": total(
            ["multiparticle.exterior_power_oracle", "multiparticle.antisymmetrizer",
             "multiparticle.symmetrizer", "multiparticle.cartesian_power_matrix"], self_s),
    })
    per_scenario = defaultdict(float)
    for i, s in enumerate(spans):
        if s[0] == "scenarios.run_scenario":
            per_scenario[s[5]] += dur[i]
    for sid in scenario_ids:
        m[f"scenarios.{sid}.s"] = per_scenario[sid]
    return {k: float(v) for k, v in m.items()}
