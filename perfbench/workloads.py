"""The three workloads.  Each is driven from one process with closed-loop
calls: the next operation starts when the previous one has returned.

A workload has ``setup(seed, workdir)`` (inputs, fixture files, warm-up),
a fixed ``operations`` list run once per pass, and a ``check`` per
operation that judges its output without trusting the code under test.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

import fixtures as fx

# Calls go through the module objects so that a traced run, which rebinds
# the modules' attributes, sees them.  (``netresil.simulate`` as an attribute
# is the function re-exported by the package, hence import_module.)
cli, lti, network, powergrid, sim, youla = (importlib.import_module(f"netresil.{m}") for m in (
    "cli", "lti", "network", "powergrid", "simulate", "youla"))
from netresil.compensator import attach_compensator, synthesize_compensator  # noqa: E402
from netresil.lti import StateSpace  # noqa: E402
from netresil.network import NetworkedSystem, Subsystem, interconnect  # noqa: E402
from netresil.youla import YoulaController, design_nominal_gains  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# Grid draws (``grid-demo --seed``) whose nominal loop meets the step guard
# at h = 1e-3 with no retry and whose open-network attack diverges within
# ~200 s (abscissa >= 0.1).  Draws outside this pool need 2-16x the RK4
# steps (step-guard halvings) or simulate up to 5x longer before the open
# run is truncated, which would make the work depend on the seed.
GRID_POOL = (0, 1, 2, 4, 5, 7, 8, 10, 11, 13, 15, 20, 21, 22)
GRID_RUNS = (
    ("open_attack", ["--no-compensator", "--attack-at", "200", "--t-final", "1400"]),
    ("protected", ["--attack-at", "200", "--t-final", "1400"]),
    ("recovery", ["--attack-at", "200", "--recover-at", "1000", "--t-final", "1400"]),
)
GRID_SAMPLES = 14001                  # 1400 s at h = 1e-3, every 100th step
FINAL_STATE_TOL = 1e-6                # relative to the largest entry of x, phi, y, u
SWEEP_PAIRS = 250                     # per network and pass
SWEEP_MAX_GAIN_DECADES = 2.5


@dataclass
class Operation:
    label: str          # root span name, e.g. cli.compensate
    run: Callable       # passdir -> result
    check: Callable     # (result, passdir) -> error message or None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``netresil.cli.main`` with stdout and stderr captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def last_csv_row(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        fh.seek(max(os.path.getsize(path) - 65536, 0))
        tail = fh.read().decode().rstrip("\n").rsplit("\n", 1)[-1]
    return np.array([float(v) for v in tail.split(",")])


def grid_seed(seed: int) -> int:
    return GRID_POOL[seed % len(GRID_POOL)]


class Workload:
    """``counters`` gives the per-layer metrics a workload reads from its own
    results.  Every traced run reports each of them; a workload that does
    not produce one reports 0."""

    def counters(self) -> dict:
        return {"controller_sweep.open_unstable_ratio": (0.0, "1")}


# ------------------------------------------------------------- grid_story

def grid_argv(name: str, gseed: int, out: str) -> list[str]:
    flags = dict(GRID_RUNS)[name]
    return ["grid-demo", *flags, "--seed", str(gseed), "--store-every", "100", "--out", out]


def check_grid_run(name: str, gseed: int, rc: int, out: str, reference: dict) -> str | None:
    """Qualitative story plus final state against the stored reference."""
    if rc != 0:
        return f"exit {rc}, expected 0"
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    segs = summary["segments"]
    if name == "open_attack":
        if not summary["diverged"] or segs[-1]["stable"]:
            return "open-network attack did not diverge"
        return None
    if summary["diverged"] or not all(s["stable"] for s in segs):
        return "compensated run diverged or has an unstable segment"
    if summary["samples"] != GRID_SAMPLES:
        return f"{summary['samples']} samples, expected {GRID_SAMPLES}"
    rms = list(summary["tracking_rms"].values())
    if not rms[1] >= 2.0 * rms[0]:
        return f"tracking RMS under attack {rms[1]:.3g} is not 2x nominal {rms[0]:.3g}"
    if name == "recovery" and not rms[2] < rms[1]:
        return f"tracking RMS after recovery {rms[2]:.3g} not below attacked {rms[1]:.3g}"
    ref = np.asarray(reference[str(gseed)][name])
    row = last_csv_row(os.path.join(out, "trajectory.csv"))
    if row.shape != ref.shape or row[0] != ref[0]:
        return "final CSV row has another time or width than the reference"
    err = np.abs(row[1:] - ref[1:]).max() / np.abs(ref[1:]).max()
    if not err <= FINAL_STATE_TOL:
        return f"final state deviates from the reference by {err:.2e} (relative)"
    return None


class GridStory(Workload):
    """The three ``scripts/run_grid_demo.py`` timelines through the CLI."""

    def setup(self, seed: int, workdir: str) -> None:
        self.gseed = grid_seed(seed)
        with open(os.path.join(HERE, "grid_reference.json")) as fh:
            self.reference = json.load(fh)
        rc, _ = run_cli(["grid-demo", "--attack-at", "5", "--t-final", "10",
                         "--seed", str(self.gseed), "--out", os.path.join(workdir, "warm")])
        if rc != 0:
            raise RuntimeError("grid-demo warm-up failed")
        self.properties = {"grid_seed": self.gseed}

    def operations(self) -> list[Operation]:
        ops = []
        for name, _ in GRID_RUNS:
            def run(passdir, name=name):
                out = os.path.join(passdir, name)
                return run_cli(grid_argv(name, self.gseed, out))[0], out

            def check(result, passdir, name=name):
                return check_grid_run(name, self.gseed, *result, self.reference)
            ops.append(Operation("cli.grid-demo", run, check))
        return ops


# ------------------------------------------------------------ fixture_cli

class FixtureCli(Workload):
    """Every file-based CLI command on a seeded ladder of network files."""

    COMMANDS = ("check", "attack-search", "compensate", "norms", "simulate")

    def setup(self, seed: int, workdir: str) -> None:
        self.records = fx.write_fixtures(seed, workdir)
        self.norm_ref: dict[str, float] = {}
        warm = self.records[0]
        for cmd in self.COMMANDS:
            self._run(warm, cmd, os.path.join(workdir, "warm"))
        self.properties = [{k: v for k, v in r.items() if k not in ("nodes", "path")}
                           for r in self.records]

    @staticmethod
    def _run(rec: dict, cmd: str, passdir: str) -> tuple[int, str, str]:
        out = os.path.join(passdir, rec["name"], cmd)
        argv = [cmd, rec["path"], "--out", out]
        if cmd == "simulate":
            argv += ["--compensator", os.path.join(passdir, rec["name"], "compensate",
                                                   "compensator.json")]
        rc, text = run_cli(argv)
        return rc, text, out

    def _check(self, rec: dict, cmd: str, result, passdir: str) -> str | None:
        rc, text, out = result
        if rc != rec["expected"][cmd]:
            return f"exit {rc}, expected {rec['expected'][cmd]}"
        if cmd in ("check", "attack-search"):
            cert = os.path.join(out, "destabilizer.json")
            if os.path.exists(cert):
                with open(cert) as fh:
                    report = json.load(fh)
                if "k" in report:
                    return fx.verify_destabilizer(rec, report)
            if cmd == "attack-search" and rc == 0:
                return "attack-search exited 0 without a certificate"
        elif cmd == "compensate":
            with open(os.path.join(out, "compensate_report.json")) as fh:
                rep = json.load(fh)
            order = {"upper": ["upper"], "lower": ["lower"], "both": ["upper", "lower"]}
            residuals = [rep["diag_residual"]] + [rep["offdiag_residual"][o]
                                                  for o in order.get(rep["ordering"], [])]
            if not rep["triangular_passed"] or not max(residuals) <= 1e-7:
                return f"triangularity not certified (residuals {residuals})"
        elif cmd == "norms" and rc == 0:
            with open(os.path.join(out, "norms.json")) as fh:
                got = json.load(fh)["hinf_norm"]
            if rec["name"] not in self.norm_ref:
                self.norm_ref[rec["name"]] = fx.dense_grid_hinf(rec)
            ref = self.norm_ref[rec["name"]]
            if not abs(got - ref) <= 0.01 * ref:
                return f"hinf_norm {got:.6g} disagrees with dense-grid {ref:.6g}"
        elif cmd == "simulate":
            row = last_csv_row(os.path.join(out, "trajectory.csv"))
            if "diverged=False" not in text or not np.all(np.isfinite(row)) \
                    or abs(row[0] - 20.0) > 0.05:
                return "simulate did not reach T=20 with a finite state"
        return None

    def operations(self) -> list[Operation]:
        ops = []
        for rec in self.records:
            for cmd in self.COMMANDS:
                ops.append(Operation(
                    f"cli.{cmd}",
                    lambda passdir, rec=rec, cmd=cmd: self._run(rec, cmd, passdir),
                    lambda result, passdir, rec=rec, cmd=cmd: self._check(rec, cmd, result, passdir)))
        return ops


# ------------------------------------------------------- controller_sweep

def _y_part(k: StateSpace, q: int) -> tuple:
    """(Ak, Bk, Ck, Dk) restricted to the measured-output inputs; a tracking
    controller's reference inputs y_d follow and are left open."""
    return k.A, k.B[:, :q], k.C, k.D[:, :q]


class ControllerSweep(Workload):
    """Random locally stabilizing controller pairs of growing gain, closed on
    compensated and uncompensated plants (the paper's resilience claim)."""

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([seed, 3])
        gains = 10.0 ** np.linspace(0.0, SWEEP_MAX_GAIN_DECADES, SWEEP_PAIRS)
        self.networks = []
        for n1, n2 in fx.SWEEP_LADDER:
            s1, s2 = fx.random_node(rng, n1, 1, 1), fx.random_node(rng, n2, 1, 1)
            ns = NetworkedSystem(Subsystem(**s1), Subsystem(**s2), np.eye(n1 + n2))
            comp = synthesize_compensator(ns)
            pairs = [(StateSpace(*fx.random_free_parameter(rng, 1, 1, g)),
                      StateSpace(*fx.random_free_parameter(rng, 1, 1, g))) for g in gains]
            self.networks.append({
                "kind": "scalar", "n": ns.n, "ns": ns, "q": (1, 1),
                "gains": [design_nominal_gains(ns.sub1), design_nominal_gains(ns.sub2)],
                "local": [ns.sub1.decoupled(), ns.sub2.decoupled()],
                "compensated": attach_compensator(ns, comp), "open": interconnect(ns),
                "pairs": pairs})
        gseed = grid_seed(seed)
        _, ns, k1, k2, _, _ = powergrid.grid_network(gseed)
        comp = synthesize_compensator(ns)
        q = (ns.sub1.q, ns.sub2.q)
        pairs = [(StateSpace(*fx.random_free_parameter(rng, ns.sub1.m, q[0], g)),
                  StateSpace(*fx.random_free_parameter(rng, ns.sub2.m, q[1], g)))
                 for g in gains]
        self.networks.append({
            "kind": "grid", "n": ns.n, "trackers": (k1, k2), "q": q,
            "local": [StateSpace(k.A, k.B, k.C) for k in (k1, k2)],
            "compensated": attach_compensator(ns, comp), "open": interconnect(ns),
            "pairs": pairs})
        self.properties = {"grid_seed": gseed, "networks": [
            {"kind": n["kind"], "n": n["n"], "pairs": len(n["pairs"])} for n in self.networks]}
        self.locally_stable = self.open_unstable = 0
        for net in self.networks:           # warm-up
            self._verify(net, self._pair(net, *net["pairs"][0]))
        self.locally_stable = self.open_unstable = 0

    @staticmethod
    def _pair(net: dict, q1: StateSpace, q2: StateSpace) -> dict:
        if net["kind"] == "scalar":
            ns, (g1, g2) = net["ns"], net["gains"]
            ks = (youla.realize_controller(ns.sub1, YoulaController(*g1, q1)),
                  youla.realize_controller(ns.sub2, YoulaController(*g2, q2)))
            local = [lti.spectral_abscissa(lti.feedback_interconnect(p, k).A)
                     for p, k in zip(net["local"], ks)]
            closed = [network.close_local_controllers(net[key], *ks)
                      for key in ("compensated", "open")]
        else:
            ks = tuple(t.realize(qp) for t, qp in zip(net["trackers"], (q1, q2)))
            local = [lti.spectral_abscissa(sim.closed_tracking_loop(p, [k], [qi]).A)
                     for p, k, qi in zip(net["local"], ks, net["q"])]
            closed = [sim.closed_tracking_loop(net[key], list(ks), net["q"])
                      for key in ("compensated", "open")]
        return {"controllers": ks, "local": local,
                "compensated": lti.spectral_abscissa(closed[0].A),
                "open": lti.spectral_abscissa(closed[1].A)}

    def _verify(self, net: dict, res: dict) -> str | None:
        """Eigenvalues of the local and compensated loops, closed here."""
        parts = [_y_part(k, qi) for k, qi in zip(res["controllers"], net["q"])]
        local = [fx.abscissa(fx.close_loop(p.A, p.B, p.C, c)) for p, c in zip(net["local"], parts)]
        plant = net["compensated"]
        ctrl = tuple(sla.block_diag(a, b) for a, b in zip(*parts))
        comp = fx.abscissa(fx.close_loop(plant.A, plant.B, plant.C, ctrl))
        if not (max(res["local"]) < 0 and max(local) < 0):
            return f"controller pair is not locally stabilizing (abscissae {local})"
        if not (res["compensated"] < 0 and comp < 0):
            return f"compensated closed loop not Hurwitz (abscissa {comp:.3e})"
        self.locally_stable += 1
        self.open_unstable += res["open"] > 1e-6
        return None

    def operations(self) -> list[Operation]:
        return [Operation("controller_sweep.op",
                          lambda passdir, net=net, q=q: self._pair(net, *q),
                          lambda res, passdir, net=net: self._verify(net, res))
                for net in self.networks for q in net["pairs"]]

    def counters(self) -> dict:
        ratio = self.open_unstable / self.locally_stable if self.locally_stable else 0.0
        return {"controller_sweep.open_unstable_ratio": (ratio, "1")}


WORKLOADS = {"grid_story": GridStory, "fixture_cli": FixtureCli,
             "controller_sweep": ControllerSweep}
