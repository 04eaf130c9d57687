"""Regenerate ``grid_reference.json``: the final CSV row of the protected and
recovery timelines for every draw in ``workloads.GRID_POOL``.

    python3 perfbench/make_grid_reference.py

Run it only on a commit whose grid results are trusted; the benchmark
compares later commits against these rows within ``FINAL_STATE_TOL``.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for gseed in workloads.GRID_POOL:
            rows = {}
            for name, _ in workloads.GRID_RUNS:
                out = os.path.join(tmp, str(gseed), name)
                rc, _ = workloads.run_cli(workloads.grid_argv(name, gseed, out))
                if name != "open_attack":
                    rows[name] = workloads.last_csv_row(
                        os.path.join(out, "trajectory.csv")).tolist()
                reference[str(gseed)] = rows
                msg = workloads.check_grid_run(name, gseed, rc, out, reference)
                print(gseed, name, msg or "ok", flush=True)
    with open(os.path.join(HERE, "grid_reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
