"""Span tracer for idq, installed from outside the package.

Every public function of each layer module is replaced, in its defining
module and in every idq module that imported the name (so `idq.cli.tc_sweep`
and `jacobi_eigh` in `idq.cli`, `idq.sources` and `idq.simulator` are all
caught), by a wrapper that records a span: name, layer, start, end, parent
span and the run id shared by all spans of one benchmark run.  A few spans also
carry counts read from the call's arguments and result.  Spans stay in memory
until `write` is called.
"""

import functools
import inspect
import json
import sys
import time
import uuid

import numpy as np

LAYERS = ("cli", "tcdelta", "linalg", "idrate", "sources", "simulator")


def _solve_counts(bound, result):
    gamma = bound.arguments["gamma"]
    m, n = np.shape(getattr(gamma, "gamma", gamma))
    t0 = bound.arguments.get("t0")
    if t0 is None:
        live = m
    else:
        prune_eps = getattr(sys.modules["idq.tcdelta"], "PRUNE_EPS", 0.0)
        live = int((np.asarray(getattr(t0, "probs", t0)) > prune_eps).sum())
    return {"n": int(n), "live": live, "iterations": int(result.iterations),
            "converged": bool(result.converged)}


# counts recorded at the boundary where the work happens
HOOKS = {
    "tcdelta.solve_tc_point": _solve_counts,
    "linalg.jacobi_eigh": lambda b, r: {"dim": int(len(r.eigenvalues))},
    "sources.sample_block": lambda b, r: {"rows": int(r.shape[0])},
    "simulator.estimate_pr_maybe": lambda b, r: {"trials": int(b.arguments["trials"]),
                                                 "false_negatives": int(r[2])},
}


class Tracer:
    def __init__(self, run_id=None):
        self.run_id = run_id or uuid.uuid4().hex
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "layer": layer, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if hook:
                span.update(hook(sig.bind(*args, **kwargs), result))
            return result

        return traced

    def install(self):
        import idq  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"idq.{layer}"]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", layer, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "idq" and not modname.startswith("idq."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, **span}) + "\n")


def summarize(spans) -> dict:
    """Per-layer metrics from one process's spans.

    A span's self time is its duration minus the time its child spans cover;
    a layer's time is the union of its spans, i.e. the spans with no ancestor
    in the same layer.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    outer_layers = []  # layers of each span's ancestors
    for i, s in enumerate(spans):
        p = s["parent"]
        if p is None:
            outer_layers.append(frozenset())
        else:
            child[p] += dur[i]
            outer_layers.append(outer_layers[p] | {spans[p]["layer"]})
    self_t = [d - c for d, c in zip(dur, child)]

    def of(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(idx, values=dur):
        return float(sum(values[i] for i in idx))

    def layer_time(layer):
        return total([i for i, s in enumerate(spans)
                      if s["layer"] == layer and layer not in outer_layers[i]])

    solves = of("tcdelta.solve_tc_point")
    iterations = sum(spans[i]["iterations"] for i in solves)
    cells = sum(spans[i]["live"] * spans[i]["n"] * spans[i]["iterations"] for i in solves)
    solve_s = total(solves)
    eighs = of("linalg.jacobi_eigh")
    estimates = of("simulator.estimate_pr_maybe")
    samples = of("sources.sample_block")
    queries = sum(spans[i]["trials"] for i in estimates)
    query_s = total(estimates, self_t)

    def ms_per_iter(n):
        idx = [i for i in solves if spans[i]["n"] == n]
        its = sum(spans[i]["iterations"] for i in idx)
        return 1e3 * total(idx) / its if its else 0.0

    nonconverged = sum(not spans[i]["converged"] for i in solves)
    return {
        "tcdelta.solve_calls": len(solves),
        "tcdelta.iterations": iterations,
        "tcdelta.solve_s": solve_s,
        "tcdelta.cells": cells,
        "tcdelta.ns_per_cell": 1e9 * solve_s / cells if cells else 0.0,
        "tcdelta.ms_per_iter.n513": ms_per_iter(513),
        "tcdelta.ms_per_iter.n1089": ms_per_iter(1089),
        "tcdelta.ms_per_iter.n2": ms_per_iter(2),
        "tcdelta.nonconverged": nonconverged,
        "tcdelta.gamma_s": total(of("tcdelta.distortion_matrix")),
        "linalg.eigh_calls": len(eighs),
        "linalg.eigh_s": total(eighs),
        "linalg.eigh_dim_max": max((spans[i]["dim"] for i in eighs), default=0),
        "idrate.calls": sum(s["layer"] == "idrate" for s in spans),
        "idrate.s": layer_time("idrate"),
        "sources.discretize_s": total(of("sources.discretize_gaussian")
                                      + of("sources.discretize_mv_gaussian")
                                      + of("sources.spectral_grid")),
        "sources.sample_s": total(samples),
        "sources.sample_rows": sum(spans[i]["rows"] for i in samples),
        "simulator.estimate_calls": len(estimates),
        "simulator.estimate_s": total(estimates),
        "simulator.train_calls": len(of("simulator.train_codebook")),
        "simulator.train_s": total(of("simulator.train_codebook")),
        "simulator.query_s": query_s,
        "simulator.queries": queries,
        "simulator.us_per_query": 1e6 * query_s / queries if queries else 0.0,
        "simulator.false_negatives": sum(spans[i]["false_negatives"] for i in estimates),
        "cli.self_s": total([i for i, s in enumerate(spans) if s["layer"] == "cli"], self_t),
        "nonconverged_frac": nonconverged / len(solves) if solves else 0.0,
    }
