import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mubcert
from mubcert.cli import main
from mubcert.counts import read_counts_csv, write_counts_csv
from mubcert.photonics import SAMPLER_VERSION, ideal_expected_counts


def run(args, cwd):
    """Invoke the CLI in-process from a working directory."""
    old = os.getcwd()
    os.chdir(cwd)
    try:
        return main(args)
    finally:
        os.chdir(old)


class TestMubCommand:
    def test_hadamard_metrics(self, tmp_path):
        out = tmp_path / "pair.json"
        assert run(["mub", "--construction", "hadamard-d4", "--out", str(out)], tmp_path) == 0
        doc = json.loads(out.read_text())
        m = doc["metrics"]
        assert m["mutually_unbiased"] is True
        assert m["overlap_entropy_bits"] == pytest.approx(4.0, abs=1e-10)
        assert m["norm_sum_first"] == pytest.approx(4.0, abs=1e-10)
        assert m["max_sqrt_overlap"] == pytest.approx(0.5, abs=1e-9)
        assert (tmp_path / "pair.json.manifest.json").exists()

    def test_fourier_d3(self, tmp_path):
        out = tmp_path / "f3.json"
        assert run(["mub", "--construction", "fourier", "--d", "3", "--out", str(out)], tmp_path) == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["mutually_unbiased"] is True
        assert doc["first"]["dim"] == 3

    @pytest.mark.parametrize("args", [
        ["fourier", "--d", "1"],
        ["fourier"],
        ["hadamard-d4", "--d", "5"],
        ["fourier", "--d", "65"],
        ["fourier", "--d", "100000000000000000000"],
    ], ids=["fourier-d1", "fourier-no-d", "hadamard-d5", "fourier-d65", "fourier-d1e20"])
    def test_fourier_d1_exits_2(self, tmp_path, args):
        assert run(["mub", "--construction", *args, "--out", "m.json"], tmp_path) == 2
        assert not (tmp_path / "m.json").exists()

    def test_unknown_construction_exits_2(self, tmp_path):
        assert run(["mub", "--construction", "bogus"], tmp_path) == 2


class TestSimulateCommand:
    def test_ideal_then_certify_fixed_point(self, tmp_path):
        counts = tmp_path / "ideal.csv"
        cert = tmp_path / "cert.json"
        assert run(["simulate", "--ideal", "--rounds", "60000", "--seed", "1",
                    "--out", str(counts)], tmp_path) == 0
        assert run(["certify", "--counts", str(counts), "--out", str(cert)], tmp_path) == 0
        doc = json.loads(cert.read_text())
        assert doc["asp"]["value"] == 0.75
        assert abs(doc["hs_lower"]["value"] - 4.0) < 1e-10
        assert abs(doc["norm_sum_lower"]["value"] - 4.0) < 1e-10
        assert abs(doc["smax_upper"]["value"] - 0.5) < 1e-10
        assert abs(doc["incompat_upper"]["value"] - 2 / 3) < 1e-10
        assert abs(doc["entropic_lower"]["value"] - 2.0) < 1e-10

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["simulate", "--seed", "7", "--rounds", "100000",
                        "--out", str(out)], tmp_path) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu": 0.5, "det_efficiency": 1.0}))
        out = tmp_path / "c.csv"
        assert run(["simulate", "--config", str(cfg), "--seed", "3",
                    "--rounds", "50000", "--out", str(out)], tmp_path) == 0
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["config"]["mu"] == 0.5
        assert manifest["seed"] == 3

    def test_invalid_config_exits_3(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mu": -2.0}))
        assert run(["simulate", "--config", str(cfg), "--out", "x.csv"], tmp_path) == 3

    @pytest.mark.parametrize("doc", [
        {"phase_noise": {"model": "gaussian_drift", "sigma": "nan"}},
        {"mu": "inf"},
    ], ids=["sigma-nan", "mu-inf"])
    def test_non_finite_config_exits_3(self, tmp_path, doc):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run(["simulate", "--config", str(cfg), "--seed", "1",
                    "--rounds", "5000", "--out", "x.csv"], tmp_path) == 3
        assert not (tmp_path / "x.csv").exists()

    def test_misspelled_noise_key_exits_3(self, tmp_path, capsys):
        # "sigm" would otherwise leave sigma at 0 and run without noise
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phase_noise": {"model": "gaussian_drift", "sigm": 0.03}}))
        assert run(["simulate", "--config", str(cfg), "--seed", "1",
                    "--rounds", "5000", "--out", "x.csv"], tmp_path) == 3
        assert "sigm" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_blocked_arm_pair_calibration_exits_3(self, tmp_path, capsys):
        # arms 3 and 4 are dark, so their fringe has no visibility
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": [1, 1, 0, 0]}))
        assert run(["simulate", "--config", str(cfg), "--seed", "1",
                    "--rounds", "5000", "--visibility-target", "0.9",
                    "--out", "x.csv"], tmp_path) == 3
        assert "blocked" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_unreachable_visibility_target_exits_3(self, tmp_path):
        # tau imbalance caps the noiseless mean visibility at 0.90
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": [1, 0.5, 1, 1]}))
        assert run(["simulate", "--config", str(cfg), "--seed", "1",
                    "--rounds", "5000", "--visibility-target", "0.9989",
                    "--out", "x.csv"], tmp_path) == 3
        assert not (tmp_path / "x.csv").exists()

    def test_walk_visibility_target_reads_back(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"det_efficiency": 1.0,
                                   "phase_noise": {"model": "random_walk"}}))
        assert run(["simulate", "--config", str(cfg), "--seed", "5",
                    "--rounds", "5000", "--visibility-target", "0.9989",
                    "--out", "x.csv"], tmp_path) == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert manifest["config"]["phase_noise"]["model"] == "random_walk"
        assert manifest["config"]["phase_noise"]["sigma"] > 0
        assert abs(manifest["extra"]["calibrated_mean_visibility"] - 0.9989) < 1e-12

    @pytest.mark.parametrize("extra", [
        ["--rounds", "0"],
        ["--ideal", "--rounds", "10"],
        # totals past the int64 range that read_counts_csv accepts
        ["--ideal", "--rounds", "100000000000000000000"],
        ["--ideal", "--rounds", "1000000000000000000000000000000"],
    ], ids=["zero-rounds", "ideal-too-few-rounds", "ideal-past-int64", "ideal-past-float64"])
    def test_unusable_rounds_exit_2(self, tmp_path, extra):
        assert run(["simulate", "--seed", "1", "--out", "x.csv"] + extra, tmp_path) == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("mode", [[], ["--ideal"], ["--visibility-target", "0.9"]],
                             ids=["monte-carlo", "ideal", "visibility-target"])
    def test_negative_seed_exits_2(self, tmp_path, mode):
        assert run(["simulate", "--seed", "-1", "--rounds", "5000", "--out", "x.csv"] + mode,
                   tmp_path) == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("text", ["5", "null", '"abc"'], ids=["number", "null", "string"])
    def test_non_object_config_exits_3(self, tmp_path, capsys, text):
        (tmp_path / "cfg.json").write_text(text)
        assert run(["simulate", "--config", "cfg.json", "--seed", "1", "--rounds", "5000",
                    "--out", "x.csv"], tmp_path) == 3
        assert "config must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_ideal_conflicts_with_visibility_target(self, tmp_path):
        assert run(["simulate", "--ideal", "--visibility-target", "0.9989"],
                   tmp_path) == 2

    def test_manifest_records_fresh_seed(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["simulate", "--rounds", "5000", "--out", str(out)], tmp_path) == 0
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert isinstance(manifest["seed"], int)

    def test_manifest_records_provenance(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu": 0.5}))
        out = tmp_path / "c.csv"
        assert run(["simulate", "--config", "cfg.json", "--seed", "3",
                    "--rounds", "5000", "--out", str(out)], tmp_path) == 0
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["extra"]["sampler"] == SAMPLER_VERSION
        assert manifest["extra"]["numpy"] == np.__version__
        assert manifest["extra"]["python"] == platform.python_version()
        digest = hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert manifest["input_sha256"] == {"cfg.json": digest}

    def test_visibility_target_calibrates_noise(self, tmp_path):
        counts = tmp_path / "cal.csv"
        cert = tmp_path / "cal_cert.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"det_efficiency": 1.0}))
        assert run(["simulate", "--config", str(cfg), "--seed", "21",
                    "--rounds", "1500000", "--visibility-target", "0.9989",
                    "--out", str(counts)], tmp_path) == 0
        manifest = json.loads((tmp_path / "cal.csv.manifest.json").read_text())
        assert manifest["config"]["phase_noise"]["model"] == "gaussian_drift"
        assert manifest["config"]["phase_noise"]["sigma"] > 0
        assert abs(manifest["extra"]["calibrated_mean_visibility"] - 0.9989) < 5e-4
        assert run(["certify", "--counts", str(counts), "--out", str(cert)],
                   tmp_path) == 0
        doc = json.loads(cert.read_text())
        assert 0.74 < doc["asp"]["value"] < 0.76


class TestCertifyCommand:
    def test_reported_numbers(self, tmp_path):
        cert = tmp_path / "cert.json"
        assert run(["certify", "--asp", "0.74924", "--sigma", "0.00011",
                    "--d", "4", "--out", str(cert)], tmp_path) == 0
        doc = json.loads(cert.read_text())
        assert doc["hs_lower"]["value"] == pytest.approx(3.99122, abs=5e-4)
        assert doc["norm_sum_lower"]["value"] == pytest.approx(3.95749, abs=1e-3)
        assert doc["incompat_upper"]["value"] == pytest.approx(0.798757, abs=1e-3)
        assert doc["entropic_lower"]["value"] == pytest.approx(1.24581, abs=1e-3)

    def test_inapplicable_bounds_flagged(self, tmp_path):
        cert = tmp_path / "cert.json"
        assert run(["certify", "--asp", "0.70", "--sigma", "0.001",
                    "--d", "4", "--out", str(cert)], tmp_path) == 0
        doc = json.loads(cert.read_text())
        assert doc["norm_sum_lower"] is None
        assert doc["incompat_upper"] is None
        assert "0.742061" in doc["applicability"]["norm_sum"]
        assert doc["hs_lower"]["value"] > 0
        assert doc["entropic_lower"] is not None

    def test_asp_out_of_range_exits_4(self, tmp_path):
        assert run(["certify", "--asp", "0.4", "--sigma", "0.001", "--d", "4"],
                   tmp_path) == 4
        assert run(["certify", "--asp", "1.2", "--sigma", "0.001", "--d", "4"],
                   tmp_path) == 4

    @pytest.mark.parametrize("asp, sigma", [
        ("0.75", "inf"), ("0.75", "nan"), ("inf", "0.001"), ("nan", "0.001"),
    ])
    def test_non_finite_asp_or_sigma_exits_4(self, tmp_path, asp, sigma):
        assert run(["certify", "--asp", asp, "--sigma", sigma, "--d", "4",
                    "--out", "c.json"], tmp_path) == 4
        assert not (tmp_path / "c.json").exists()

    def test_overflowing_bound_sigma_exits_4(self, tmp_path):
        # a finite sigma whose propagated bound sigma overflows to inf
        assert run(["certify", "--asp", "0.74", "--sigma", "1e308", "--d", "4",
                    "--out", "c.json"], tmp_path) == 4
        assert not (tmp_path / "c.json").exists()

    def test_missing_args_exit_2(self, tmp_path):
        assert run(["certify", "--asp", "0.75"], tmp_path) == 2

    def test_malformed_counts_exits_4(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("i,j,y,outcome,count\n1,1,1,1,5\n1,1,1,1,5\n")
        assert run(["certify", "--counts", str(bad)], tmp_path) == 4

    def test_dimension_one_exits_2(self, tmp_path):
        # and a --d past the parser's bound, too large for numpy's sqrt
        for d in ("1", "100000000000000000000"):
            assert run(["certify", "--asp", "0.7", "--sigma", "0.001", "--d", d,
                        "--out", "c.json"], tmp_path) == 2
            assert not (tmp_path / "c.json").exists()

    def test_dimension_one_counts_exit_4(self, tmp_path):
        d1 = tmp_path / "d1.csv"
        d1.write_text("i,j,y,outcome,count\n1,1,1,1,5\n1,1,2,1,5\n")
        assert run(["certify", "--counts", str(d1)], tmp_path) == 4
        assert run(["figure-data", "--counts", str(d1)], tmp_path) == 4

    def test_dim_mismatch_exits_2(self, tmp_path):
        counts = tmp_path / "c.csv"
        write_counts_csv(ideal_expected_counts(60000), counts)
        assert run(["certify", "--counts", str(counts), "--d", "5"], tmp_path) == 2

    def test_writes_human_readable_table(self, tmp_path):
        cert = tmp_path / "cert.json"
        assert run(["certify", "--asp", "0.74924", "--sigma", "0.00011",
                    "--d", "4", "--out", str(cert)], tmp_path) == 0
        table = (tmp_path / "cert.txt").read_text()
        assert "overlap entropy" in table and "ideal MUB value" in table

    def test_json_floats_round_trip_exactly(self, tmp_path):
        from mubcert.certify import full_certificate
        from mubcert.qrac import AspEstimate
        cert = tmp_path / "cert.json"
        assert run(["certify", "--asp", "0.74924", "--sigma", "0.00011",
                    "--d", "4", "--out", str(cert)], tmp_path) == 0
        doc = json.loads(cert.read_text())
        report = full_certificate(AspEstimate(0.74924, 0.00011), 4)
        assert doc["hs_lower"]["value"] == report.hs_lower.value
        assert doc["norm_sum_lower"]["sigma"] == report.norm_sum_lower.sigma
        assert doc["incompat_upper"]["value"] == report.incompat_upper.value


class TestFigureDataCommand:
    @pytest.fixture
    def ideal_csv(self, tmp_path):
        path = tmp_path / "ideal.csv"
        write_counts_csv(ideal_expected_counts(60000), path)
        return path

    def test_outcome_probabilities(self, tmp_path, ideal_csv):
        assert run(["figure-data", "--counts", str(ideal_csv),
                    "--out-prefix", str(tmp_path / "fig")], tmp_path) == 0
        lines = (tmp_path / "fig_outcome_probabilities.csv").read_text().splitlines()
        assert lines[0] == "i,j,y,p1,p2,p3,p4"
        first = lines[1].split(",")
        assert first[:3] == ["1", "1", "1"]
        probs = [float(x) for x in first[3:]]
        assert probs[0] == pytest.approx(0.75, abs=1e-12)
        assert probs[1] == pytest.approx(1 / 12, abs=1e-12)

    def test_state_asp_reference_lines(self, tmp_path, ideal_csv):
        from mubcert.certify import min_asp_for_nontrivial_eta
        assert run(["figure-data", "--counts", str(ideal_csv),
                    "--out-prefix", str(tmp_path / "fig")], tmp_path) == 0
        lines = (tmp_path / "fig_state_asp.csv").read_text().splitlines()
        assert lines[0] == "i,j,asp_y1,asp_y2,optimal_asp,min_selftest_asp"
        red = min_asp_for_nontrivial_eta(4)
        for ln in lines[1:]:
            parts = ln.split(",")
            assert float(parts[2]) == pytest.approx(0.75, abs=1e-12)
            assert float(parts[3]) == pytest.approx(0.75, abs=1e-12)
            assert float(parts[4]) == 0.75
            assert float(parts[5]) == red

    def test_malformed_counts_exits_4(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        assert run(["figure-data", "--counts", str(bad)], tmp_path) == 4


class TestReplay:
    def test_byte_identical_outputs(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run(["simulate", "--seed", "11", "--rounds", "80000",
                    "--out", str(out)], tmp_path) == 0
        original = out.read_bytes()
        out.unlink()
        manifest = tmp_path / "run.csv.manifest.json"
        assert run(["replay", str(manifest)], tmp_path) == 0
        assert out.read_bytes() == original

    def test_seedless_run_replays_byte_identical(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run(["simulate", "--rounds", "80000", "--out", str(out)], tmp_path) == 0
        original = out.read_bytes()
        manifest = tmp_path / "run.csv.manifest.json"
        doc = json.loads(manifest.read_text())
        assert doc["command"][-2:] == ["--seed", str(doc["seed"])]
        out.unlink()
        assert run(["replay", str(manifest)], tmp_path) == 0
        assert out.read_bytes() == original

    def test_changed_input_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu": 0.2}))
        out = tmp_path / "run.csv"
        assert run(["simulate", "--config", "cfg.json", "--seed", "1",
                    "--rounds", "50000", "--out", str(out)], tmp_path) == 0
        original = out.read_bytes()
        manifest = tmp_path / "run.csv.manifest.json"
        assert run(["replay", str(manifest)], tmp_path) == 0
        assert out.read_bytes() == original
        cfg.write_text(json.dumps({"mu": 0.5}))
        capsys.readouterr()
        assert run(["replay", str(manifest)], tmp_path) == 4
        assert "cfg.json" in capsys.readouterr().err
        assert out.read_bytes() == original

    @pytest.mark.parametrize("doc", [
        [],
        {"command": ["replay", "m.json"]},
        {"command": "simulate"},
        {"command": ["bogus"]},
    ], ids=["not-an-object", "replays-itself", "command-is-a-string", "no-subcommand"])
    def test_malformed_manifest_exits_4(self, tmp_path, capsys, doc):
        (tmp_path / "m.json").write_text(json.dumps(doc))
        assert run(["replay", "m.json"], tmp_path) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "cannot replay m.json" in err
        assert not (tmp_path / "counts.csv").exists()

    def test_out_of_range_command_exits_4(self, tmp_path, capsys):
        # a hand-edited manifest: the parser rejects --rounds 0 before any run
        doc = {"command": ["simulate", "--seed", "1", "--rounds", "0", "--out", "x.csv"]}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        assert run(["replay", "m.json"], tmp_path) == 4
        assert capsys.readouterr().err == (
            "data error: cannot replay m.json: its command is not a valid command\n")
        assert not (tmp_path / "x.csv").exists()


class TestEntryPoint:
    def test_subprocess_invocation(self, tmp_path):
        # The child runs from tmp_path, so a relative PYTHONPATH (such as
        # PYTHONPATH=src) would no longer reach the package. Put the absolute
        # directory of the package this process imported first on its path.
        pkg_root = str(Path(mubcert.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", "mubcert.cli", "certify", "--asp", "0.75",
             "--sigma", "0", "--d", "4", "--out", str(tmp_path / "c.json")],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "certificate" in result.stdout

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"mubcert {mubcert.__version__}\n"
