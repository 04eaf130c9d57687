"""Guards on the programs around the library: the committed golden bytes of
the file commands, and the benchmark's tracer, which wraps library
functions by name and binds their parameters."""

import hashlib
import importlib.util
import os
import time

import numpy as np
import pytest

from netresil.sampling import random_networked_system

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_file_commands_write_the_committed_bytes(tmp_path):
    # the grid timelines of the manifest take seconds and stay a manual
    # check: python scripts/golden.py, then git diff golden/MANIFEST.sha256
    spec = importlib.util.spec_from_file_location(
        "golden", os.path.join(ROOT, "scripts", "golden.py"))
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    with open(os.path.join(ROOT, "golden", "MANIFEST.sha256")) as fh:
        committed = dict(reversed(line.split("  ", 1)) for line in fh.read().splitlines())
    golden.run_networks(str(tmp_path / "golden"))
    written = {}
    for root, _, files in os.walk(tmp_path / "golden"):
        for f in files:
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                written[os.path.relpath(path, tmp_path)] = hashlib.sha256(fh.read()).hexdigest()
    assert len(written) == 29
    moved = sorted(p for p, digest in written.items() if committed.get(p) != digest)
    assert not moved, (
        f"{moved} differ from golden/MANIFEST.sha256. The hashes pin the numerics of the "
        "machine the manifest was written on; rerun scripts/golden.py to see every moved "
        "file, and explain in CHANGES.md any change that is meant to move bytes.")


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``tracing`` and ``workloads`` modules, imported as the
    benchmark imports them."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing
    import workloads

    return tracing, workloads


def test_benchmark_tracer_fits_the_library(perfbench, tmp_path):
    tracing, workloads = perfbench
    system = str(tmp_path / "net.json")
    random_networked_system(np.random.default_rng(4), 3, 3).to_json(system)
    runs = [["grid-demo", "--attack-at", "5", "--t-final", "10", "--seed", "0"],
            *([cmd, system] for cmd in ("check", "attack-search", "compensate", "norms")),
            ["simulate", system, "--compensator", str(tmp_path / "compensate" / "compensator.json"),
             "--T", "2"]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, argv in enumerate(runs):
            out = str(tmp_path / (argv[0] if argv[0] == "compensate" else f"run{i}"))
            rc, text = tracer.span(f"cli.{argv[0]}", workloads.run_cli, [*argv, "--out", out])
            assert rc in (0, 2), (argv, rc, text)
        elapsed = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    missing = sorted({key.split("#")[0] for key in tracing.LAYERS} - names)
    assert not missing, f"no span for {missing}: a traced benchmark run would miss them"
    errors = [(span[0], span[5]) for span in tracer.spans if span[5] is not None]
    assert not errors
    metrics = tracing.layer_metrics(tracer, 1, elapsed, 0.0)
    assert metrics["simulate.run_scenario.calls"][0] >= 1
