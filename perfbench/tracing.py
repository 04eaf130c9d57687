"""Spans around calls into the netresil modules, taken from outside.

``Tracer.install`` wraps each listed public function in every netresil
module namespace that binds it (``cli`` and ``compensator`` import names
directly, so patching only the defining module would miss their calls).
Spans (name, start, end, parent, operation id, error) stay in memory and
are written once at the end.  Work counts are read from arguments and
return values; the ``*_computed`` counts are derived from array sizes,
not measured.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

# span name -> (module, attribute path)
LAYERS = {
    "lti.eval_frequency": ("netresil.lti", "eval_frequency"),
    "lti.feedback_interconnect": ("netresil.lti", "feedback_interconnect"),
    "lti.spectral_abscissa": ("netresil.lti", "spectral_abscissa"),
    "synthesis.solve_care": ("netresil.synthesis", "solve_care"),
    "synthesis.hinf_norm": ("netresil.synthesis", "hinf_norm"),
    "network.close_local_controllers": ("netresil.network", "close_local_controllers"),
    "compensator.synthesize_compensator": ("netresil.compensator", "synthesize_compensator"),
    "compensator.verify_triangular": ("netresil.compensator", "verify_triangular"),
    "compensator.performance_bound": ("netresil.compensator", "performance_bound"),
    "youla.realize_controller": ("netresil.youla", "realize_controller"),
    "youla.destabilizer_search": ("netresil.youla", "destabilizer_search"),
    "simulate.simulate": ("netresil.simulate", "simulate"),
    "simulate.run_scenario": ("netresil.simulate", "run_scenario"),
    "simulate.closed_tracking_loop": ("netresil.simulate", "closed_tracking_loop"),
    "powergrid.TrackingController.realize": ("netresil.powergrid", "TrackingController.realize"),
    "powergrid.find_destabilizing_attack": ("netresil.powergrid", "find_destabilizing_attack"),
    "powergrid.grid_network": ("netresil.powergrid", "grid_network"),
    "export.trajectory_csv": ("netresil.export", "trajectory_csv"),
    "export.plot": ("netresil.export", "plot_outputs"),
    "export.plot#commands": ("netresil.export", "plot_commands"),
}
CLI_COMMANDS = ("check", "attack-search", "compensate", "norms", "simulate", "grid-demo")


def _size(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _steps_and_samples(traj, h) -> tuple[int, int]:
    return (int(round(traj.times[-1] / h)) if traj.times.size else 0), int(traj.times.size)


def _scenario_counts(c, a, out):
    traj, _ = out
    sc, ctrls, comp = a["scenario"], a["controllers"], a["comp"]
    steps, samples = _steps_and_samples(traj, sc.h)
    c["steps"] += steps
    c["samples"] += samples
    # RK4 step map x+ = Phi x + drift: 2 N^2 flops per step on the N-state loop
    # plant state: x, or (phi, x), or (phi, xhat, x) for the observer-fed compensator
    n_plant = a["ns"].n * (1 if comp is None else 3 if hasattr(comp, "H") else 2)
    bounds = [int(round(t / sc.h)) for t, _ in sc.segments] + [steps]
    for (_, key), k0, k1 in zip(sc.segments, bounds, bounds[1:]):
        n = n_plant + sum(k.n for k in ctrls[key])
        c["flops_computed"] += 2 * n * n * max(min(k1, steps) - k0, 0)


def _simulate_counts(c, a, out):
    steps, samples = _steps_and_samples(out, a["h"])
    c["steps"] += steps
    c["samples"] += samples


def _frequency_counts(c, a, out):
    g, k = a["g"], int(np.size(a["omegas"]))
    c["points"] += k
    c["flagged"] += int(np.count_nonzero(out.ill_conditioned))
    # complex LU (8/3 n^3) plus forward/back substitution and the C X product
    c["flops_computed"] += k * (8 * g.n ** 3 // 3 + 8 * g.n * g.n * g.m + 8 * g.q * g.n * g.m)


def _care_counts(c, a, out):
    c["max_residual"] = max(c["max_residual"], float(out.residual_norm))


def _search_counts(c, a, out):
    c["n_scanned"] += int(out.n_scanned)
    c["found"] += int(out.found)


def _attack_counts(c, a, out):
    c["trials"] += out.trial + 1 if out is not None else a["max_trials"]


EXTRAS = {
    "simulate.run_scenario": (("steps", "samples", "flops_computed"), _scenario_counts),
    "simulate.simulate": (("steps", "samples"), _simulate_counts),
    "lti.eval_frequency": (("points", "flagged", "flops_computed"), _frequency_counts),
    "synthesis.hinf_norm": (("iterations",), lambda c, a, out: c.__setitem__(
        "iterations", c["iterations"] + out.iterations)),
    "synthesis.solve_care": (("max_residual",), _care_counts),
    "youla.destabilizer_search": (("n_scanned", "found"), _search_counts),
    "powergrid.find_destabilizing_attack": (("trials",), _attack_counts),
    "export.trajectory_csv": (("bytes",), lambda c, a, out: c.__setitem__(
        "bytes", c["bytes"] + _size(a["path"]))),
    "export.plot": (("bytes",), lambda c, a, out: c.__setitem__(
        "bytes", c["bytes"] + sum(_size(p) for p in ([out] if isinstance(out, str) else out or [])))),
}


def _resolve(modname: str, attr: str):
    owner = sys.modules[modname]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """In-memory span recorder.  ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans: list[list] = []      # [name, t0, t1, parent index, op, error]
        self.stack: list[int] = []
        self.op = None
        bases = dict.fromkeys(name.split("#")[0] for name in LAYERS)
        self.counts = {b: dict.fromkeys(EXTRAS.get(b, ((), None))[0], 0) for b in bases}
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (used for root spans)."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        tracer = self
        _, extra = EXTRAS.get(name, ((), None))
        sig = inspect.signature(fn) if extra else None
        counts = self.counts[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                tracer._close(rec)
            if extra is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra(counts, bound.arguments, out)
            return out

        return traced

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if (k == "netresil" or k.startswith("netresil.")) and m is not None]
        for key, (modname, attr) in LAYERS.items():
            owner, leaf = _resolve(modname, attr)
            original = getattr(owner, leaf)
            wrapped = self._wrap(key.split("#")[0], original)
            targets = [owner] if inspect.isclass(owner) else modules
            for mod in targets:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    # -- derived metrics ---------------------------------------------------
    def self_times(self) -> np.ndarray:
        child = np.zeros(len(self.spans))
        for name, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return np.array([s[2] - s[1] for s in self.spans]) - child

    def ancestors(self, i: int):
        parent = self.spans[i][3]
        while parent is not None:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def nests(self, inner: str, *outer: str) -> bool:
        """True if some ``inner`` span has the ``outer`` chain above it, in order."""
        for i, s in enumerate(self.spans):
            if s[0] != inner:
                continue
            chain = iter(self.ancestors(i))
            if all(any(a == o for a in chain) for o in outer):
                return True
        return False

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                       "spans": self.spans}, fh)


def span_cost(samples: int = 2000) -> float:
    """Seconds one traced call adds over a bare call, from a no-op function."""
    tracer = Tracer()
    tracer.counts["calibration"] = {}

    def noop():
        return None

    wrapped = tracer._wrap("calibration", noop)
    best = []
    for fn in (noop, wrapped):
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(samples):
                fn()
            runs.append(time.perf_counter() - t0)
        best.append(min(runs))
    return max(best[1] - best[0], 0.0) / samples


def layer_metrics(tracer: Tracer, passes: int, traced_elapsed_s: float,
                  overhead_per_span: float) -> dict:
    """Per-pass layer metrics: calls, inclusive and self time, failures and counts."""
    self_t = tracer.self_times()
    out = {}
    for name in dict.fromkeys(k.split("#")[0] for k in LAYERS):
        idx = [i for i, s in enumerate(tracer.spans) if s[0] == name]
        out[f"{name}.calls"] = (len(idx) / passes, "count")
        out[f"{name}.s"] = (sum(tracer.spans[i][2] - tracer.spans[i][1] for i in idx) / passes, "s")
        out[f"{name}.self_s"] = (float(self_t[idx].sum()) / passes if idx else 0.0, "s")
        out[f"{name}.fail"] = (sum(tracer.spans[i][5] is not None for i in idx) / passes, "count")
        for key, value in tracer.counts[name].items():
            if key == "max_residual":
                out[f"{name}.{key}"] = (value, "1")
            elif key == "found":
                ok = len(idx) - out[f"{name}.fail"][0] * passes
                out[f"{name}.certified_ratio"] = (value / ok if ok else 0.0, "1")
            else:
                unit = {"bytes": "bytes", "flops_computed": "flop"}.get(key, "count")
                out[f"{name}.{key}"] = (value / passes, unit)
    retries = sum(s[0] == "simulate.run_scenario" and s[5] == "StepSizeError" for s in tracer.spans)
    out["simulate.run_scenario.step_guard_retries"] = (retries / passes, "count")
    roots = [i for i, s in enumerate(tracer.spans) if s[3] is None]
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.s"] = (sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots
                                   if tracer.spans[i][0] == f"cli.{cmd}") / passes, "s")
    root_s = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots)
    out["trace.spans"] = (len(tracer.spans) / passes, "count")
    out["trace.overhead_s"] = (len(tracer.spans) * overhead_per_span / passes, "s")
    out["trace.root_coverage"] = (root_s / traced_elapsed_s, "1")
    return out
