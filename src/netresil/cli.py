"""Command-line front end.

Subcommands
-----------
check          cascade / resilience verdict for a network JSON
compensate     synthesize the supervisory compensator and verify it
attack-search  constructive destabilizer search (scalar channels)
simulate       autonomous response of the (optionally compensated) network
grid-demo      five-generator experiment: tracking, attacks, recovery
norms          H-infinity norm of the interconnected network

Exit codes: check 0 resilient / 2 not resilient / 3 unknown;
4 on nonzero coupling feedthrough wherever a compensator is built or
attached; compensate 5 on a synthesis or verification failure; norms 5 on
an unstable network; both 5 when a frequency response exceeds
``synthesis.MAX_GAIN`` (a pole on the imaginary axis to working
precision); 1 on malformed input (a number above ``MAX_ENTRY`` in
magnitude included), an invalid flag value or any other synthesis
failure. Every error is one ``error: ...`` line on stderr.
Numeric flags are checked when parsed; a run that would store more than
``simulate.MAX_STORED_SAMPLES`` samples, an unusable output path and a
failed write also exit 1. ``simulate`` lowers ``--h`` to half the largest
step the step guard admits for the plant, and names that step when the run
it gives is refused.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .compensator import (Compensator, FeedthroughError, attach_compensator,
                          compensated_plant, performance_bound,
                          synthesize_compensator, synthesize_observer_compensator,
                          verify_triangular)
from .export import plot_commands, plot_outputs, trajectory_csv
from .lti import spectral_abscissa
from .network import NetworkedSystem, interconnect, is_cascade, is_weakly_resilient
from .powergrid import design_tracking_controllers, find_destabilizing_attack, grid_network
from .simulate import (Scenario, StepSizeError, Trajectory, check_run, max_step,
                       run_scenario, simulate)
from .synthesis import SynthesisError, hinf_norm
from .youla import destabilizer_search


MAX_ENTRY = 1e50
"""Largest magnitude of a number in a network or compensator file. On the
seed-4 dense scalar network of ``scripts/golden.py``, every node matrix
scaled by 1e75 ran the five file commands with no floating-point overflow;
scaled by 1e100, the coupling products overflowed in check, compensate and
attack-search."""


def _json_number(text: str) -> float:
    """JSON number hook, for integers too: the float ``text`` spells,
    refused above MAX_ENTRY in magnitude."""
    value = float(text)
    if abs(value) > MAX_ENTRY:
        raise ValueError(f"number {text} exceeds {MAX_ENTRY:g} in magnitude")
    return value


def _load(kind, path: str, what: str):
    """``kind.from_dict`` of the JSON file at ``path``; any failure is one
    ``error: cannot load`` line and exit code 1."""
    try:
        with open(path) as fh:
            return kind.from_dict(json.load(fh, parse_float=_json_number,
                                            parse_int=_json_number))
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
            OverflowError, RecursionError) as exc:
        raise SystemExit(f"error: cannot load {what} from {path!r}: {exc}") from exc


def _load_network(path: str) -> NetworkedSystem:
    return _load(NetworkedSystem, path, "network")


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _dump(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    print(f"wrote {path}")


def cmd_check(args) -> int:
    ns = _load_network(args.system)
    out = _ensure_out(args)
    cascade = is_cascade(ns)
    print(f"cascade structure: {cascade.value}")
    report = is_weakly_resilient(ns, certify=not args.no_certificate)
    print(f"resilience verdict: {report.verdict} (exact={report.exact})")
    for note in report.notes:
        print(f"  note: {note}")
    payload = {"cascade": cascade.value, "verdict": report.verdict,
               "exact": report.exact, "notes": list(report.notes)}
    if report.certificate is not None:
        cert = report.certificate.report()
        payload["certificate"] = cert
        _dump(cert, os.path.join(out, "destabilizer.json"))
        print(f"certified destabilizer: omega={cert['omega']:.4g} "
              f"local={cert['local_abscissa']:.3e} global={cert['global_abscissa']:.3e}")
    _dump(payload, os.path.join(out, "check_report.json"))
    return {"resilient": 0, "not_resilient": 2, "unknown": 3}[report.verdict]


def cmd_compensate(args) -> int:
    ns = _load_network(args.system)
    out = _ensure_out(args)
    comp = synthesize_compensator(ns, theta_policy=args.theta_policy)
    comp.to_json(os.path.join(out, "compensator.json"))
    print(f"wrote {os.path.join(out, 'compensator.json')} (cut={comp.cut})")
    sysc = attach_compensator(ns, comp)
    tol = args.tol if args.tol is not None else 1e-7
    rep = verify_triangular(sysc, [ns.sub1.decoupled(), ns.sub2.decoupled()], tol=tol)
    pb = performance_bound(comp, ns)
    print(f"triangular: {rep.passed} (ordering={rep.ordering}, "
          f"offdiag={min(rep.offdiag_residual.values()):.2e}, diag={rep.diag_residual:.2e})")
    print(f"performance bound: gamma={pb.gamma:.6g}, factor={pb.factor:.6g}")
    _dump({"cut": comp.cut, "triangular_passed": rep.passed,
           "ordering": rep.ordering, "offdiag_residual": rep.offdiag_residual,
           "diag_residual": rep.diag_residual, "tol": tol,
           "gamma": pb.gamma, "factor": pb.factor},
          os.path.join(out, "compensate_report.json"))
    return 0 if rep.passed else 5


def cmd_attack_search(args) -> int:
    ns = _load_network(args.system)
    out = _ensure_out(args)
    res = destabilizer_search(ns)
    _dump(res.report(), os.path.join(out, "destabilizer.json"))
    if res.found:
        print(f"destabilizer found: omega={res.omega:.4g} k={res.allpass.k:.4g} "
              f"a={res.allpass.a:.4g} local={res.local_abscissa:.3e} "
              f"global={res.global_abscissa:.3e}")
        return 0
    print(f"inconclusive: {res.reason}")
    return 3


def cmd_simulate(args) -> int:
    ns = _load_network(args.system)
    out = _ensure_out(args)
    comp = _load(Compensator, args.compensator, "compensator") if args.compensator else None
    plant, phi, xs = compensated_plant(ns, comp)
    rng = np.random.default_rng(args.seed)
    x0 = np.zeros(plant.n)
    x0[xs] = rng.standard_normal(ns.n)
    h = min(args.h, 0.5 * max_step(plant.A))
    if h < args.h:
        try:
            check_run(args.T, h, args.store_every)
        except ValueError as exc:
            raise ValueError(f"the step guard lowers --h {args.h:g} to h={h:.3g} "
                             f"for this plant: {exc}") from exc
    traj = simulate(plant, x0, None, T=args.T, h=h, store_every=args.store_every)
    # split the compensator block out for the CSV layout
    traj = Trajectory(times=traj.times, states=traj.states[:, xs],
                      comp_states=traj.states[:, phi], outputs=traj.outputs,
                      inputs=traj.inputs, h=traj.h, diverged=traj.diverged,
                      commands=traj.inputs)
    csv_path = os.path.join(out, "trajectory.csv")
    trajectory_csv(traj, csv_path)
    print(f"wrote {csv_path} ({traj.times.size} samples, diverged={traj.diverged})")
    plot_outputs(traj, out)
    return 0


def cmd_norms(args) -> int:
    ns = _load_network(args.system)
    out = _ensure_out(args)
    plant = interconnect(ns)
    path = os.path.join(out, "norms.json")
    payload = {"spectral_abscissa": spectral_abscissa(plant.A)}
    # written first, so an unstable network (exit 5) still reports its abscissa
    _dump(payload, path)
    res = hinf_norm(plant, tol=args.tol if args.tol is not None else 1e-4)
    # a peak at infinite frequency (feedthrough-dominated) has no JSON number
    peak = res.peak_omega if np.isfinite(res.peak_omega) else None
    payload.update({"hinf_norm": res.norm, "peak_omega": peak,
                    "iterations": res.iterations, "converged": res.converged,
                    "grid_max": res.grid_max})
    print(json.dumps(payload, indent=1))
    _dump(payload, path)
    return 0


def _segment_tracking_errors(traj, reports):
    """RMS tracking error over the trailing quarter of each segment."""
    errs = {}
    bounds = [r.t_start for r in reports] + [np.inf]
    for i, r in enumerate(reports):
        mask = (traj.times >= bounds[i]) & (traj.times < bounds[i + 1])
        if not np.any(mask):
            errs[f"{r.t_start:g}:{r.key}"] = None
            continue
        idx = np.where(mask)[0]
        tail = idx[3 * len(idx) // 4:]
        e = traj.outputs[tail] - traj.inputs[tail]
        errs[f"{r.t_start:g}:{r.key}"] = float(np.sqrt(np.mean(e * e)))
    return errs


def cmd_grid_demo(args) -> int:
    segments = [(0.0, "nominal")]
    if args.attack_at is not None:
        segments.append((args.attack_at, "attacked"))
        if args.recover_at is not None:
            segments.append((args.recover_at, "nominal"))
    horizon = args.t_final if args.t_final is not None else segments[-1][0] + 400.0
    check_run(horizon, args.h, args.store_every)
    out = _ensure_out(args)
    gm, ns, k1, k2, reference, seed_used = grid_network(args.seed, horizon, args.dwell)
    summary = {"seed": args.seed, "seed_used": seed_used,
               "compensated": not args.no_compensator, "observer": args.observer}

    comp = None
    if not args.no_compensator:
        synthesize = (synthesize_observer_compensator if args.observer
                      else synthesize_compensator)
        comp = synthesize(ns, theta_policy=args.theta_policy)
        pb = performance_bound(comp, ns)
        summary["gamma"] = pb.gamma
        summary["bound_factor"] = pb.factor

    controllers = {"nominal": (k1.realize(), k2.realize())}
    if args.attack_at is not None:
        attack = find_destabilizing_attack(ns, k1, k2, seed=seed_used)
        if attack is None:
            print("warning: no destabilizing random attack found; "
                  "falling back to detuned trackers", file=sys.stderr)
            ka1, ka2 = design_tracking_controllers(ns, r_scale=1e4)
            controllers["attacked"] = (ka1.realize(), ka2.realize())
            summary["attack"] = {"kind": "detuned", "r_scale": 1e4}
        else:
            controllers["attacked"] = (attack.kappa1, attack.kappa2)
            summary["attack"] = {"kind": "free_parameter", "trial": attack.trial,
                                 "gain": attack.gain,
                                 "local_abscissae": list(attack.local_abscissae),
                                 "open_loop_global_abscissa": attack.global_abscissa}

    h, stride = args.h, args.store_every
    for _ in range(6):
        scenario = Scenario(segments=tuple(segments), horizon=horizon,
                            x0=np.zeros(ns.n), h=h, reference=reference,
                            store_every=stride)
        try:
            traj, reports = run_scenario(ns, comp, scenario, controllers)
            break
        except StepSizeError:
            # tighten the step to meet the stability-resolving guard
            h, stride = h / 2, stride * 2
            print(f"step guard: retrying with h={h:g}", file=sys.stderr)
    else:
        raise StepSizeError("step guard not satisfiable within six halvings")
    summary["h"] = h

    csv_path = os.path.join(out, "trajectory.csv")
    trajectory_csv(traj, csv_path)
    summary["segments"] = [{"t_start": r.t_start, "key": r.key,
                            "abscissa": r.abscissa, "stable": r.stable}
                           for r in reports]
    summary["tracking_rms"] = _segment_tracking_errors(traj, reports)
    summary["diverged"] = traj.diverged
    summary["samples"] = int(traj.times.size)
    files = [csv_path]
    files += plot_outputs(traj, out, reference=traj.inputs)
    upath = plot_commands(traj, out)
    if upath:
        files.append(upath)
    summary["files"] = files
    _dump(summary, os.path.join(out, "summary.json"))
    print(f"grid demo done: diverged={traj.diverged}, "
          f"segments={[(r.key, r.stable) for r in reports]}")
    return 0


_SIGNS = {"positive": lambda v: v > 0, "non-negative": lambda v: v >= 0}


def _number(sign: str, what: str, kind=float):
    """argparse ``type=``: a finite ``kind`` (float or int) that is ``sign``
    ("positive" or "non-negative"); ``what`` names the quantity in the error
    line."""
    noun = "integer" if kind is int else "finite number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and _SIGNS[sign](value)):
            raise argparse.ArgumentTypeError(
                f"{what} must be a {sign} {noun}, got {text!r}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one error line and exit code 1, like every other bad input
        raise SystemExit(f"error: {self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="netresil", description="networked-system resilience toolkit")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--tol", type=_number("positive", "tolerance"), default=None,
                        help="tolerance override (command specific)")

    sp = sub.add_parser("check", help="cascade / resilience verdict")
    sp.add_argument("system", help="network JSON")
    sp.add_argument("--no-certificate", action="store_true",
                    help="skip the destabilizer search on dense couplings")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("compensate", help="synthesize and verify the compensator")
    sp.add_argument("system")
    sp.add_argument("--theta-policy", choices=("gamma_scan", "lqr"),
                    default="gamma_scan")
    common(sp)
    sp.set_defaults(fn=cmd_compensate)

    sp = sub.add_parser("attack-search", help="constructive destabilizer search")
    sp.add_argument("system")
    common(sp)
    sp.set_defaults(fn=cmd_attack_search)

    sp = sub.add_parser("simulate", help="autonomous network response")
    sp.add_argument("system")
    sp.add_argument("--compensator", default=None, help="compensator JSON")
    sp.add_argument("--T", type=_number("non-negative", "horizon"), default=20.0)
    sp.add_argument("--h", type=_number("positive", "step"), default=1e-3)
    sp.add_argument("--store-every", type=_number("positive", "store_every", int),
                    default=10)
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("grid-demo", help="five-generator experiment")
    sp.add_argument("--no-compensator", action="store_true")
    sp.add_argument("--observer", action="store_true",
                    help="use the observer-fed compensator")
    sp.add_argument("--attack-at", type=_number("positive", "attack time"), default=None)
    sp.add_argument("--recover-at", type=_number("positive", "recovery time"),
                    default=None)
    sp.add_argument("--t-final", type=_number("non-negative", "horizon"), default=None)
    sp.add_argument("--h", type=_number("positive", "step"), default=1e-3)
    sp.add_argument("--dwell", type=_number("positive", "dwell time"), default=100.0,
                    help="reference level dwell time [s]")
    sp.add_argument("--store-every", type=_number("positive", "store_every", int),
                    default=100)
    sp.add_argument("--theta-policy", choices=("gamma_scan", "lqr"),
                    default="gamma_scan")
    common(sp)
    sp.set_defaults(fn=cmd_grid_demo)

    sp = sub.add_parser("norms", help="H-infinity norm of the network")
    sp.add_argument("system")
    common(sp)
    sp.set_defaults(fn=cmd_norms)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "recover_at", None) is not None and args.attack_at is None:
            raise SystemExit("error: --recover-at requires --attack-at")
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        raise
    except FeedthroughError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SynthesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5 if args.command in ("compensate", "norms") else 1
    except ValueError as exc:
        # bad flag values and inputs the library rejects (StepSizeError,
        # DimensionError, unsupported channel widths, too many samples)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # an unusable --out, a failed write or a failed CSV worker
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
