#!/usr/bin/env python3
"""Write a fixed set of seeded artifacts and a sha256 manifest of them.

A refactor that is meant to change no output is checked by running this
script from the root of each checkout and comparing the two manifests.
Everything goes under ``golden/`` relative to the working directory, which
the script empties first so that the manifest lists only files this run
wrote; the path must be the same on both sides because ``summary.json``
embeds it.

  golden/grid/fig_*/            the three scripts/run_grid_demo.py timelines
  golden/grid_observer/         grid-demo with the observer-fed compensator
  golden/grid_step_guard/       grid-demo on grid seed 3, whose RK4 step is
                                halved four times to meet the step guard; its
                                exit_code.json holds the outcome
  golden/<net>/network.json     seeded networks: dense scalar, cascade, 2x2 MIMO
  golden/<net>/<command>/       check, attack-search, compensate, norms and
                                simulate --compensator on each network
  golden/exit_codes.json        return code (or raised exception) per command
  golden/MANIFEST.sha256        "sha256  path" for every file above

Usage: python scripts/golden.py   (with netresil importable, e.g. PYTHONPATH=src)
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np

from netresil.cli import main as cli_main
from netresil.sampling import random_cascade_system, random_networked_system

OUT = "golden"
HERE = os.path.dirname(os.path.abspath(__file__))
GRID_TIMELINE = ["--attack-at", "200", "--recover-at", "1000", "--t-final", "1400",
                 "--store-every", "100"]


def networks() -> dict:
    # the two scalar draws are stable networks, so norms reaches the H-infinity path
    return {
        "dense_scalar": random_networked_system(np.random.default_rng(4), 3, 3),
        "cascade": random_cascade_system(np.random.default_rng(107), 3, 3),
        "mimo_2x2": random_networked_system(np.random.default_rng(13), 4, 4,
                                            channels=(2, 2)),
    }


def run_cli(argv: list[str]):
    """Return code of one CLI call, or the exception it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli_main(argv)
        except Exception as exc:  # the outcome is recorded, not hidden
            return f"{type(exc).__name__}: {exc}"


def run_networks(out: str) -> dict:
    """Run the file commands on each of :func:`networks` under ``out`` and
    return their outcomes by "<network> <command>"."""
    outcomes = {}
    for name, ns in networks().items():
        base = f"{out}/{name}"
        os.makedirs(base, exist_ok=True)
        system = f"{base}/network.json"
        ns.to_json(system)
        for cmd in ("check", "attack-search", "compensate", "norms"):
            outcomes[f"{name} {cmd}"] = run_cli([cmd, system, "--out", f"{base}/{cmd}"])
        comp = f"{base}/compensate/compensator.json"
        if os.path.exists(comp):
            outcomes[f"{name} simulate"] = run_cli(
                ["simulate", system, "--compensator", comp, "--T", "10",
                 "--out", f"{base}/simulate"])
    return outcomes


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    outcomes = {}
    grid = subprocess.run([sys.executable, os.path.join(HERE, "run_grid_demo.py"),
                           "--out", f"{OUT}/grid"], capture_output=True, text=True)
    outcomes["run_grid_demo"] = grid.returncode
    outcomes["grid-demo --observer"] = run_cli(
        ["grid-demo", "--observer", *GRID_TIMELINE, "--seed", "0",
         "--out", f"{OUT}/grid_observer"])
    # an outcome file of its own keeps exit_codes.json comparable with
    # manifests written before this run was part of the set
    guard = f"{OUT}/grid_step_guard"
    os.makedirs(guard, exist_ok=True)
    with open(f"{guard}/exit_code.json", "w") as fh:
        json.dump(run_cli(["grid-demo", *GRID_TIMELINE, "--seed", "3", "--out", guard]), fh)
    outcomes.update(run_networks(OUT))
    with open(f"{OUT}/exit_codes.json", "w") as fh:
        json.dump(outcomes, fh, indent=1, sort_keys=True)

    manifest = os.path.join(OUT, "MANIFEST.sha256")
    lines = []
    for root, _, files in sorted(os.walk(OUT)):
        for f in sorted(files):
            path = os.path.join(root, f)
            if path != manifest:
                with open(path, "rb") as fh:
                    lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {manifest} ({len(lines)} files)")
    print(json.dumps(outcomes, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
