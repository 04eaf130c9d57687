import dataclasses
import errno
import json
import math
import os
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from netresil import export
from netresil.cli import MAX_ENTRY, main
from netresil.compensator import synthesize_compensator
from netresil.export import svg_line_chart, trajectory_csv
from netresil.lti import StateSpace
from netresil.sampling import (random_cascade_system, random_networked_system)
from netresil.simulate import Trajectory, simulate

from conftest import sample_network
from test_cli_contract import EXIT_CODES


@pytest.fixture
def fixtures(tmp_path):
    rng = np.random.default_rng(7)
    dense = tmp_path / "dense.json"
    random_networked_system(rng, 3, 3).to_json(dense)
    cascade = tmp_path / "cascade.json"
    random_cascade_system(rng, 3, 3).to_json(cascade)
    mimo = tmp_path / "mimo.json"
    random_networked_system(rng, 3, 3, channels=(2, 2)).to_json(mimo)
    dz = tmp_path / "dz.json"
    sample_network(rng, 2, 2, dz=True).to_json(dz)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    return {"dense": str(dense), "cascade": str(cascade), "mimo": str(mimo),
            "dz": str(dz), "bad": str(bad), "dir": tmp_path}


class TestCheck:
    def test_cascade_exit_zero(self, fixtures, tmp_path):
        assert main(["check", fixtures["cascade"], "--out", str(tmp_path / "o")]) == 0

    def test_dense_exit_two_with_certificate(self, fixtures, tmp_path):
        out = tmp_path / "o2"
        assert main(["check", fixtures["dense"], "--out", str(out)]) == 2
        cert = json.loads((out / "destabilizer.json").read_text())
        assert cert["global_abscissa"] > 1e-6
        assert cert["local_abscissa"] < -1e-6
        assert set(cert) == {"omega", "k", "a", "local_abscissa", "global_abscissa"}

    def test_mimo_exit_three(self, fixtures, tmp_path):
        assert main(["check", fixtures["mimo"], "--out", str(tmp_path / "o3")]) == 3

    def test_malformed_exit_one(self, fixtures, tmp_path):
        assert main(["check", fixtures["bad"], "--out", str(tmp_path / "o4")]) == 1


    def test_large_input_entry_still_decided(self, tmp_path):
        # B = 1e6 on one node leaves (A, B) stabilizable: both commands reach
        # the destabilizer search instead of refusing the Riccati design
        doc = random_networked_system(np.random.default_rng(4), 3, 3).to_dict()
        doc["sub1"]["B"][0][0] = 1e6
        path = tmp_path / "big_b.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), "--out", str(tmp_path / "c")]) == 2
        assert (tmp_path / "c" / "destabilizer.json").exists()
        assert main(["attack-search", str(path), "--out", str(tmp_path / "a")]) == 0

    def test_refused_gain_design_leaves_the_verdict(self, tmp_path, capsys):
        # sub1's state in 1e-3 units: the unit-weight nominal gain design is
        # refused (Riccati residual 3.15e-08), but the verdict is structural
        from netresil.network import NetworkedSystem

        ns = random_networked_system(np.random.default_rng(2), 3, 3)
        s1 = ns.sub1
        R = ns.R.copy()
        R[:3] *= 1e3
        path = tmp_path / "units.json"
        NetworkedSystem(dataclasses.replace(s1, B=1e3 * s1.B, J=1e3 * s1.J,
                                            C=1e-3 * s1.C, S=1e-3 * s1.S),
                        ns.sub2, R).to_json(path)
        reports = []
        for flags in ([], ["--no-certificate"]):
            out = tmp_path / f"c{len(flags)}"
            assert main(["check", str(path), "--out", str(out), *flags]) == 2
            assert not (out / "destabilizer.json").exists()
            reports.append(json.loads((out / "check_report.json").read_text()))
        assert [r["verdict"] for r in reports] == ["not_resilient"] * 2
        assert "certificate" not in reports[0]
        assert any("inconclusive" in note for note in reports[0]["notes"])
        assert any("Riccati residual" in note for note in reports[0]["notes"])
        capsys.readouterr()
        # the search itself still refuses the design, as documented
        assert main(["attack-search", str(path), "--out", str(tmp_path / "a")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: Riccati residual")


class TestCompensate:
    def test_dense_writes_artifacts(self, fixtures, tmp_path):
        out = tmp_path / "c1"
        assert main(["compensate", fixtures["dense"], "--out", str(out)]) == 0
        rep = json.loads((out / "compensate_report.json").read_text())
        assert rep["triangular_passed"]
        assert min(rep["offdiag_residual"].values()) <= 1e-9
        assert (out / "compensator.json").exists()

    def test_cascade_gives_zero_gamma(self, fixtures, tmp_path):
        out = tmp_path / "c2"
        assert main(["compensate", fixtures["cascade"], "--out", str(out)]) == 0
        comp = json.loads((out / "compensator.json").read_text())
        assert not np.any(np.asarray(comp["Gamma"]))

    def test_feedthrough_exit_four(self, fixtures, tmp_path):
        assert main(["compensate", fixtures["dz"], "--out", str(tmp_path / "c3")]) == 4

    def test_uncontrollable_supervisory_input_exit_five(self, tmp_path, capsys):
        from netresil.network import NetworkedSystem

        ns = random_networked_system(np.random.default_rng(7), 3, 3)
        path = tmp_path / "no_r.json"
        NetworkedSystem(ns.sub1, ns.sub2, np.zeros((ns.n, 1))).to_json(path)
        assert main(["compensate", str(path), "--out", str(tmp_path / "c5")]) == 5
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "controllable" in err[0]

    def test_grid_network_through_json_pipeline(self, tmp_path):
        from netresil.powergrid import GridModel, build_network

        ns = build_network(GridModel.sample(0))
        path = tmp_path / "grid.json"
        ns.to_json(path)
        out = tmp_path / "c4"
        assert main(["compensate", str(path), "--out", str(out)]) == 0
        rep = json.loads((out / "compensate_report.json").read_text())
        assert rep["triangular_passed"] and np.isfinite(rep["gamma"])


class TestAttackSearch:
    def test_dense_found(self, fixtures, tmp_path):
        out = tmp_path / "a1"
        assert main(["attack-search", fixtures["dense"], "--out", str(out)]) == 0
        rep = json.loads((out / "destabilizer.json").read_text())
        assert rep["global_abscissa"] > 1e-6

    def test_cascade_inconclusive(self, fixtures, tmp_path):
        out = tmp_path / "a2"
        assert main(["attack-search", fixtures["cascade"], "--out", str(out)]) == 3
        rep = json.loads((out / "destabilizer.json").read_text())
        assert rep["found"] is False


class TestSimulateCmd:
    def test_writes_csv_and_svg(self, fixtures, tmp_path):
        out = tmp_path / "s1"
        assert main(["simulate", fixtures["cascade"], "--T", "2.0",
                     "--out", str(out)]) == 0
        csv = (out / "trajectory.csv").read_text().splitlines()
        assert csv[0].startswith("t,x1")
        assert (out / "y1.svg").exists()

    def test_compensated_layout(self, fixtures, tmp_path):
        out = tmp_path / "s2"
        assert main(["compensate", fixtures["dense"], "--out", str(out)]) == 0
        assert main(["simulate", fixtures["dense"], "--compensator",
                     str(out / "compensator.json"), "--T", "2.0",
                     "--out", str(out)]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert "phi1" in header and "phi6" in header

    def test_stiff_plant_keeps_the_sample_times(self, fixtures, tmp_path):
        """|lambda|_max just under 25,000 needs eight halvings of the default
        --h; the CSV keeps the sample times of a plant that needs none."""
        node = {"B": [[1.0]], "C": [[1.0]], "J": [[1.0]], "S": [[1.0]]}
        stiff = {"sub1": {**node, "A": [[-24_999.0]], "J": [[0.0]]},
                 "sub2": {**node, "A": [[-1.0]]}}
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(stiff))

        def times(system, out):
            assert main(["simulate", system, "--out", str(tmp_path / out)]) == 0
            rows = (tmp_path / out / "trajectory.csv").read_text().splitlines()[1:]
            return [row.split(",")[0] for row in rows]

        assert times(str(path), "stiff") == times(fixtures["cascade"], "plain")


def stable_network(tmp_path) -> str:
    from netresil.sampling import random_stable_statespace
    from netresil.network import NetworkedSystem, Subsystem

    rng = np.random.default_rng(3)
    g1 = random_stable_statespace(rng, 2)
    g2 = random_stable_statespace(rng, 2)
    ns = NetworkedSystem(
        Subsystem(g1.A, g1.B, g1.C, np.zeros((2, 1)), np.zeros((1, 2)), None),
        Subsystem(g2.A, g2.B, g2.C, np.zeros((2, 1)), np.zeros((1, 2)), None),
        np.eye(4))
    path = tmp_path / "stable.json"
    ns.to_json(path)
    return str(path)


class TestNorms:
    def test_stable_network(self, tmp_path):
        out = tmp_path / "n1"
        assert main(["norms", stable_network(tmp_path), "--out", str(out)]) == 0
        rep = json.loads((out / "norms.json").read_text())
        assert rep["hinf_norm"] >= rep["grid_max"] * (1 - 1e-9)
        assert rep["converged"] is True

    def test_unstable_exit_five(self, fixtures, tmp_path):
        assert main(["norms", fixtures["cascade"], "--out", str(tmp_path / "n2")]) == 5

    def test_unstable_report_keeps_abscissa(self, fixtures, tmp_path, capsys):
        out = tmp_path / "n4"
        assert main(["norms", fixtures["cascade"], "--out", str(out)]) == 5
        assert json.loads((out / "norms.json").read_text())["spectral_abscissa"] >= 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "Hurwitz" in err[0]

    def test_unstable_zero_input_network_exit_five(self, tmp_path, capsys):
        """With B = 0 the plant's transfer is identically zero, but the
        coupled network is still unstable, so norms refuses it."""
        from netresil.network import NetworkedSystem, Subsystem

        ns = NetworkedSystem(Subsystem(0.5, 0.0, 1.0, 1.0, 1.0, None),
                             Subsystem(-2.0, 0.0, 1.0, 1.0, 1.0, None), np.eye(2))
        path = tmp_path / "zero_input.json"
        ns.to_json(path)
        out = tmp_path / "n5"
        assert main(["norms", str(path), "--out", str(out)]) == 5
        rep = json.loads((out / "norms.json").read_text())
        assert rep == {"spectral_abscissa": pytest.approx((np.sqrt(10.25) - 1.5) / 2)}
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "Hurwitz" in err[0], err

    def test_infinite_peak_frequency_written_as_null(self, tmp_path, monkeypatch):
        """A feedthrough-dominated norm peaks at omega = inf; the report must
        stay valid JSON. The interconnected plant is strictly proper, so the
        result of such a system is substituted for the network's."""
        from netresil import cli
        from netresil.synthesis import hinf_norm

        feedthrough = hinf_norm(StateSpace(-1, 1, -1, 1))     # s / (s + 1)
        assert feedthrough.peak_omega == np.inf
        monkeypatch.setattr(cli, "hinf_norm", lambda plant, **kw: feedthrough)
        out = tmp_path / "n3"
        assert main(["norms", stable_network(tmp_path), "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        rep = json.loads((out / "norms.json").read_text(), parse_constant=reject)
        assert rep["peak_omega"] is None
        assert rep["hinf_norm"] == feedthrough.norm


class TestInputBoundary:
    """Invalid flag values and unsupported inputs exit 1 with one error line."""

    def _one_error_line(self, capsys):
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        return err[0]

    @pytest.mark.parametrize("flags, word", [(["--h", "0"], "step"),
                                             (["--store-every", "0"], "store_every"),
                                             (["--T", "-5"], "horizon")])
    def test_simulate_bad_flag(self, fixtures, tmp_path, capsys, flags, word):
        assert main(["simulate", fixtures["cascade"], *flags,
                     "--out", str(tmp_path / "b")]) == 1
        assert word in self._one_error_line(capsys)

    @pytest.mark.parametrize("argv, word", [
        (["compensate", "{dense}", "--tol", "-1"], "tolerance"),
        (["compensate", "{dense}", "--tol", "nan"], "tolerance"),
        (["norms", "{cascade}", "--tol", "-1"], "tolerance"),
        (["simulate", "{cascade}", "--h", "inf"], "step"),
        (["simulate", "{cascade}", "--T", "inf"], "horizon"),
        (["simulate", "{cascade}", "--T", "1e12", "--h", "1"], "stored samples"),
        (["grid-demo", "--t-final", "nan"], "horizon"),
        (["grid-demo", "--store-every", "0"], "store_every"),
        (["grid-demo", "--store-every", "2.5"], "store_every"),
        (["grid-demo", "--t-final", "1e9"], "stored samples"),
        (["grid-demo", "--dwell", "0"], "dwell"),
        (["grid-demo", "--dwell", "1e-12", "--t-final", "20"], "reference levels"),
        (["grid-demo", "--attack-at", "-1"], "attack time"),
        (["grid-demo", "--attack-at", "5", "--recover-at", "inf"], "recovery time"),
    ])
    def test_bad_numeric_flag(self, fixtures, tmp_path, capsys, argv, word):
        argv = [a.format(**fixtures) for a in argv]
        assert main([*argv, "--out", str(tmp_path / "b")]) == 1
        assert word in self._one_error_line(capsys)

    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_unusable_out(self, fixtures, tmp_path, capsys, command):
        """An existing file as --out, or a directory below one, is one error line."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker if command == "simulate" else blocker / "x"
        assert main([command, fixtures["cascade"], "--out", str(out)]) == 1
        assert str(out) in self._one_error_line(capsys)

    def test_mimo_attack_search(self, fixtures, tmp_path, capsys):
        assert main(["attack-search", fixtures["mimo"], "--out", str(tmp_path / "b")]) == 1
        assert "scalar channels" in self._one_error_line(capsys)

    def test_mismatched_compensator(self, fixtures, tmp_path, capsys):
        out = tmp_path / "b"
        assert main(["compensate", fixtures["dense"], "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["simulate", fixtures["mimo"], "--compensator",
                     str(out / "compensator.json"), "--out", str(out)]) == 1
        self._one_error_line(capsys)

    def test_mismatched_compensator_names_shapes(self, fixtures, tmp_path, capsys):
        out = tmp_path / "b"
        assert main(["compensate", fixtures["dense"], "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["simulate", fixtures["mimo"], "--compensator",
                     str(out / "compensator.json"), "--out", str(out)]) == 1
        line = self._one_error_line(capsys)
        assert "Gamma is (6, 2), expected (6, 4)" in line
        assert "Xi is (2, 6), expected (4, 6)" in line

    @pytest.mark.parametrize("argv", [["check", "{deep}"], ["simulate", "{deep}"],
                                      ["simulate", "{cascade}", "--compensator", "{deep}"]])
    def test_deeply_nested_json(self, fixtures, tmp_path, capsys, argv):
        """JSON nested past the recursion limit is one error line, not a traceback."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        argv = [a.format(deep=deep, **fixtures) for a in argv]
        assert main([*argv, "--out", str(tmp_path / "b")]) == 1
        assert "cannot load" in self._one_error_line(capsys)

    def test_malformed_compensator(self, fixtures, tmp_path, capsys):
        path = tmp_path / "comp.json"
        path.write_text(json.dumps({"Lambda": [[-1.0]], "Gamma": [[0.0]], "Xi": [[1.0]],
                                    "Theta": [[0.0]], "eta": 1, "cut": "sideways"}))
        assert main(["simulate", fixtures["cascade"], "--compensator", str(path),
                     "--out", str(tmp_path / "b")]) == 1
        assert "cut" in self._one_error_line(capsys)

    def test_compensator_on_feedthrough_network_exit_four(self, fixtures, tmp_path, capsys):
        out = tmp_path / "b"
        assert main(["compensate", fixtures["dense"], "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["simulate", fixtures["dz"], "--compensator",
                     str(out / "compensator.json"), "--out", str(out)]) == 4
        assert "feedthrough" in self._one_error_line(capsys)

    def test_synthesis_error_elsewhere_exit_one(self, fixtures, tmp_path, capsys,
                                                monkeypatch):
        from netresil import cli
        from netresil.synthesis import SynthesisError

        def fail(ns):
            raise SynthesisError("no stabilizing solution")

        monkeypatch.setattr(cli, "destabilizer_search", fail)
        assert main(["attack-search", fixtures["dense"], "--out", str(tmp_path / "b")]) == 1
        assert "no stabilizing" in self._one_error_line(capsys)

    def test_step_guard_error(self, fixtures, tmp_path, capsys, monkeypatch):
        from netresil import cli
        from netresil.simulate import StepSizeError

        def refuse(*args, **kwargs):
            raise StepSizeError("h=1 too large")

        monkeypatch.setattr(cli, "simulate", refuse)
        assert main(["simulate", fixtures["cascade"], "--out", str(tmp_path / "b")]) == 1
        assert "too large" in self._one_error_line(capsys)


    def test_stiff_plant_names_needed_step(self, fixtures, tmp_path, capsys):
        """A plant that needs more than MAX_HALVINGS halvings of --h is refused
        with the --h given and the step the guard needs."""
        stiff = json.loads(open(fixtures["dense"]).read())
        stiff["sub1"]["A"][0][0] = -1e6
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(stiff))
        assert main(["simulate", str(path), "--out", str(tmp_path / "b")]) == 1
        line = self._one_error_line(capsys)
        assert "h=0.001" in line and "needs h <= 1e-07" in line

    def test_compensator_order_must_match_lambda(self, fixtures, tmp_path, capsys):
        out = tmp_path / "b"
        assert main(["compensate", fixtures["dense"], "--out", str(out)]) == 0
        comp = json.loads((out / "compensator.json").read_text())
        assert comp["eta"] == 6
        path = tmp_path / "comp.json"
        for eta in (6.7, 5, "6", True):
            capsys.readouterr()
            path.write_text(json.dumps({**comp, "eta": eta}))
            assert main(["simulate", fixtures["dense"], "--compensator", str(path),
                         "--out", str(out)]) == 1
            assert "eta" in self._one_error_line(capsys)

    @pytest.mark.parametrize("argv", [
        ["check", "{cascade}", "--seed", "1"], ["norms", "{cascade}", "--seed", "1"],
        ["attack-search", "{cascade}", "--tol", "1e-3"],
        ["simulate", "{cascade}", "--tol", "1e-3"], ["grid-demo", "--tol", "1e-3"]])
    def test_flag_the_command_does_not_read(self, fixtures, tmp_path, capsys, argv):
        argv = [a.format(**fixtures) for a in argv]
        assert main([*argv, "--out", str(tmp_path / "b")]) == 1
        assert "unrecognized arguments" in self._one_error_line(capsys)

    @pytest.mark.parametrize("value", [MAX_ENTRY, math.nextafter(MAX_ENTRY, math.inf)],
                             ids=["at_bound", "past_bound"])
    @pytest.mark.parametrize("command, part", [
        *[(c, "network") for c in ("check", "compensate", "attack-search", "norms", "simulate")],
        ("simulate", "compensator")])
    def test_entry_magnitude_bound(self, tmp_path, capsys, command, part, value):
        """One entry of MAX_ENTRY ends in a documented exit code with no
        RuntimeWarning; the next float past it is refused at load."""
        ns = random_networked_system(np.random.default_rng(4), 3, 3)
        docs = {"network": ns.to_dict(), "compensator": synthesize_compensator(ns).to_dict()}
        entries = docs["network"]["sub2"]["J"] if part == "network" else docs[part]["Lambda"]
        entries[0][0] = value
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv = [command, str(tmp_path / "network.json"), "--out", str(tmp_path / "out")]
        if command == "simulate":
            argv += ["--compensator", str(tmp_path / "compensator.json"), "--T", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if value > MAX_ENTRY:
            assert code == 1
            assert "exceeds 1e+50 in magnitude" in self._one_error_line(capsys)
        else:
            assert code in EXIT_CODES[command]
            if code == 1:
                self._one_error_line(capsys)


class TestGridDemo:
    def test_three_segment_timeline(self, tmp_path):
        out = tmp_path / "g1"
        rc = main(["grid-demo", "--seed", "0", "--attack-at", "5",
                   "--recover-at", "10", "--t-final", "15",
                   "--out", str(out), "--store-every", "200"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [s["key"] for s in summary["segments"]] == ["nominal", "attacked", "nominal"]
        assert all(s["stable"] for s in summary["segments"])
        assert not summary["diverged"]
        assert summary["gamma"] > 0
        assert (out / "trajectory.csv").exists()
        assert (out / "y5.svg").exists()

    def test_no_compensator_attack_diverges(self, tmp_path):
        out = tmp_path / "g2"
        rc = main(["grid-demo", "--seed", "0", "--no-compensator",
                   "--attack-at", "2", "--t-final", "120",
                   "--out", str(out), "--store-every", "200"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"]

    def test_observer_compensator_variant(self, tmp_path):
        out = tmp_path / "g4"
        rc = main(["grid-demo", "--seed", "0", "--observer", "--attack-at", "3",
                   "--t-final", "6", "--out", str(out), "--store-every", "200"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["observer"] and not summary["diverged"]
        assert all(s["stable"] for s in summary["segments"])

    def test_recover_requires_attack(self, tmp_path):
        assert main(["grid-demo", "--recover-at", "10",
                     "--out", str(tmp_path / "g3")]) == 1


class TestDeterminism:
    def test_grid_demo_csv_byte_identical(self, tmp_path):
        args = ["grid-demo", "--seed", "3", "--attack-at", "2", "--t-final", "4",
                "--store-every", "50"]
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        b1 = (out1 / "trajectory.csv").read_bytes()
        b2 = (out2 / "trajectory.csv").read_bytes()
        assert b1 == b2
        # grid seed 3 meets the step guard at 1e-3 / 16, with the samples asked for
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["h"] == 1e-3 / 16
        assert summary["samples"] == 4 / (1e-3 * 50) + 1


class TestExport:
    def test_csv_layout(self, tmp_path):
        g = StateSpace([[-1, 0], [0, -2]], [[1], [1]], [[1, 0]], 0)
        traj = simulate(g, [1.0, 1.0], None, T=0.1, h=1e-2)
        path = tmp_path / "t.csv"
        trajectory_csv(traj, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,y1,u1"
        assert len(lines) == 1 + traj.times.size
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0

    def test_csv_values_are_shortest_repr(self, tmp_path):
        vals = [-0.0, np.inf, -np.inf, np.nan, 1e-05, 1e+16, 5e-324, 0.1, -2.5]
        k = len(vals)
        traj = Trajectory(times=np.arange(k, dtype=float),
                          states=np.array(vals)[:, None], comp_states=np.zeros((k, 0)),
                          outputs=np.zeros((k, 1)), inputs=np.ones((k, 1)),
                          commands=np.ones((k, 1)), h=1.0)
        path = tmp_path / "v.csv"
        trajectory_csv(traj, str(path))
        lines = path.read_text().splitlines()
        assert [ln.split(",")[1] for ln in lines[1:]] == \
            ["-0.0", "inf", "-inf", "nan", "1e-05", "1e+16", "5e-324", "0.1", "-2.5"]
        assert lines[2] == "1.0,inf,0.0,1.0"

    def test_svg_is_wellformed_xml(self, tmp_path):
        t = np.linspace(0, 1, 100)
        path = tmp_path / "c.svg"
        svg_line_chart(str(path), t, [np.sin(t), np.cos(t)], ["a", "b"], "demo")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2

    @pytest.mark.parametrize("k", [0, 1, 2, 2000])
    def test_polyline_points_match_per_point_format(self, rng, k):
        from netresil.export import _svg_path

        xs, ys = 700.0 * rng.random(k), 1e3 * rng.standard_normal(k)
        if k:
            xs[0], ys[0], ys[-1] = -0.0, -0.004, 0.005
        want = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        assert _svg_path(xs, ys) == want


def serial_csv(traj: Trajectory) -> bytes:
    """Reference CSV: the header, then every row through the one-line formatter."""
    names = ["t"] + [f"{p}{i + 1}" for p, a in (("x", traj.states), ("phi", traj.comp_states),
                                                ("y", traj.outputs), ("u", traj.commands))
                     for i in range(a.shape[1])]
    block = np.hstack([traj.times[:, None], traj.states, traj.comp_states, traj.outputs,
                       traj.commands])
    lines = [",".join(names)] + [",".join(map(repr, row.tolist())) for row in block]
    return ("\n".join(lines) + "\n").encode()


def states_trajectory(rows: int, cols: int, seed: int = 0) -> Trajectory:
    """A t column and ``cols - 1`` state columns of mixed magnitudes."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols - 1)) * 10.0 ** rng.integers(-20, 20, (rows, cols - 1))
    return Trajectory(times=np.arange(rows) * 0.1, states=x, comp_states=np.zeros((rows, 0)),
                      outputs=np.zeros((rows, 0)), inputs=np.zeros((rows, 0)),
                      commands=np.zeros((rows, 0)), h=0.1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the CSV is split only where os.fork exists")
class TestParallelCsv:
    """The row-sliced CSV writer against the one-process reference."""

    SPECIAL = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-05, 1e+16]

    @staticmethod
    def cpus(monkeypatch, k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    @staticmethod
    def count_forks(monkeypatch):
        forks = []
        real = os.fork

        def fork():
            forks.append(1)
            return real()
        monkeypatch.setattr(os, "fork", fork)
        return forks

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_bytes_match_serial_reference(self, tmp_path, monkeypatch, k):
        rows, cols = 1201, 21
        assert rows * cols >= export.PARALLEL_MIN_VALUES
        traj = states_trajectory(rows, cols)
        # the rows on both sides of every slice boundary for 2, 3 and 4 slices
        edges = {rows * i // s for s in (2, 3, 4) for i in range(1, s)}
        for r in edges | {e - 1 for e in edges} | {0, rows - 1}:
            traj.states[r] = np.resize(np.roll(self.SPECIAL, r), cols - 1)
        self.cpus(monkeypatch, k)
        forks = self.count_forks(monkeypatch)
        path = tmp_path / "p.csv"
        trajectory_csv(traj, str(path))
        assert len(forks) == min(k, export.MAX_SLICES) - 1
        assert path.read_bytes() == serial_csv(traj)
        assert os.listdir(tmp_path) == ["p.csv"]

    def test_one_cpu_writes_serially(self, tmp_path, monkeypatch):
        traj = states_trajectory(1201, 21, seed=1)
        self.cpus(monkeypatch, 1)
        forks = self.count_forks(monkeypatch)
        path = tmp_path / "s.csv"
        trajectory_csv(traj, str(path))
        assert forks == []
        assert path.read_bytes() == serial_csv(traj)

    @pytest.mark.parametrize("values, n_forks", [(export.PARALLEL_MIN_VALUES - 1, 0),
                                                 (export.PARALLEL_MIN_VALUES, 3)])
    def test_threshold(self, tmp_path, monkeypatch, values, n_forks):
        cols = next(c for c in range(7, 100) if values % c == 0)
        traj = states_trajectory(values // cols, cols, seed=2)
        self.cpus(monkeypatch, 4)
        forks = self.count_forks(monkeypatch)
        path = tmp_path / "t.csv"
        trajectory_csv(traj, str(path))
        assert len(forks) == n_forks
        assert path.read_bytes() == serial_csv(traj)

    @staticmethod
    def fail_in_children(monkeypatch, exc=RuntimeError("formatter failed")):
        """Make the row formatter raise ``exc`` in every process but this one."""
        parent, real = os.getpid(), export._write_rows

        def write_rows(fh, rows):
            if os.getpid() != parent:
                raise exc
            real(fh, rows)
        monkeypatch.setattr(export, "_write_rows", write_rows)

    @pytest.mark.parametrize("exc, status", [
        (RuntimeError("formatter failed"), r"status 255$"),
        (OSError(errno.ENOSPC, "disk full"), r"status 28 \(No space left on device\)$"),
    ], ids=["other-error", "os-error"])
    def test_failed_child_raises_and_leaves_only_the_csv(self, tmp_path, monkeypatch,
                                                         exc, status):
        self.fail_in_children(monkeypatch, exc)
        self.cpus(monkeypatch, 4)
        out = tmp_path / "o"
        out.mkdir()
        with pytest.raises(OSError, match=status):
            trajectory_csv(states_trajectory(1201, 21), str(out / "f.csv"))
        assert os.listdir(out) == ["f.csv"]
        with pytest.raises(ChildProcessError):      # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_failed_child_is_one_cli_error_line(self, fixtures, tmp_path, monkeypatch, capsys):
        self.fail_in_children(monkeypatch)
        self.cpus(monkeypatch, 2)
        # the cascade's 2001 x 11 CSV is above the threshold
        assert main(["simulate", fixtures["cascade"], "--out", str(tmp_path / "w")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: CSV worker"), err
