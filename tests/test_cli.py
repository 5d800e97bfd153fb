import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import mubcert
from mubcert import cli
from mubcert.cli import RunManifest, build_parser, main
from mubcert.counts import CountsTable, write_counts_csv
from mubcert.linalg import operator_norm, psd_sqrt
from mubcert.mub import fourier_mub_pair, hadamard_mub_pair_d4, overlap_entropy
from mubcert.photonics import SAMPLER_VERSION, ideal_expected_counts, simulate_counts
from mubcert.qrac import estimate_asp


def run(args, cwd):
    """Invoke the CLI in-process from a working directory."""
    old = os.getcwd()
    os.chdir(cwd)
    try:
        return main(args)
    finally:
        os.chdir(old)


def assert_one_line_error(err, start):
    """A command's stderr is the one line of its error message, with no traceback."""
    assert err.startswith(start) and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


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

    @pytest.mark.parametrize("d", ["hadamard-d4", *range(2, 9)])
    def test_document_is_stdlib_json_of_per_effect_metrics(self, tmp_path, d):
        # the bytes json.dumps writes for the pair's nested lists, and the
        # figures of merit within 1e-12 of those computed one effect, or
        # effect pair, at a time
        if d == "hadamard-d4":
            pair, args = hadamard_mub_pair_d4(), ["--construction", "hadamard-d4"]
        else:
            pair, args = fourier_mub_pair(d), ["--construction", "fourier", "--d", str(d)]
        assert run(["mub", *args, "--out", "m.json"], tmp_path) == 0
        roots_a = [psd_sqrt(e) for e in pair.first.effects]
        roots_b = [psd_sqrt(e) for e in pair.second.effects]
        doc = {
            "construction": pair.construction,
            **{key: {"dim": m.dim, "effects": np.stack([m.effects.real, m.effects.imag],
                                                       axis=-1).tolist()}
               for key, m in (("first", pair.first), ("second", pair.second))},
        }
        reference = {
            "overlap_entropy_bits": overlap_entropy(pair),
            "norm_sum_first": float(sum(operator_norm(e) for e in pair.first.effects)),
            "norm_sum_second": float(sum(operator_norm(e) for e in pair.second.effects)),
            "max_sqrt_overlap": float(max(operator_norm(ra @ rb)
                                          for ra in roots_a for rb in roots_b)),
        }
        text = (tmp_path / "m.json").read_text()
        metrics = json.loads(text)["metrics"]
        assert text == json.dumps({**doc, "metrics": metrics}, indent=2, allow_nan=False) + "\n"
        assert metrics.pop("mutually_unbiased") is True
        assert metrics.keys() == reference.keys()
        for key, value in reference.items():
            assert abs(metrics[key] - value) <= 1e-12, key


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

    @pytest.mark.parametrize("doc", [
        {"mu": 1e308, "det_efficiency": 1.0},
        {"mu": 41.0, "det_efficiency": 1.0},
    ], ids=["mu-1e308", "rate-41"])
    def test_photon_rate_above_the_cap_exits_3(self, tmp_path, capsys, doc):
        # numpy cannot draw Poisson(1e308), and at large rates one block
        # of photons outgrows memory
        cfg = tmp_path / "bright.json"
        cfg.write_text(json.dumps(doc))
        assert run(["simulate", "--config", str(cfg), "--seed", "1",
                    "--rounds", "5000", "--out", "x.csv"], tmp_path) == 3
        assert "mu * det_efficiency" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_undecodable_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"mu": 0.2\xff}')
        assert run(["simulate", "--config", str(cfg), "--out", "c.csv"], tmp_path) == 3
        assert_one_line_error(capsys.readouterr().err, "config error: cannot read config")

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

    # no --rounds: the pulse count comes from the config
    @pytest.mark.parametrize("doc", [
        {"rep_rate": 0.1},
        {"rep_rate": 1e308, "integration_time": 10},
        {"rep_rate": 5e18},  # within int64, past the 2**62 bound on a run's totals
    ], ids=["empty", "past-float64", "past-run-bound"])
    def test_unusable_pulse_window_exits_3(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["simulate", "--config", str(cfg), "--seed", "1", "--out", "x.csv"],
                   tmp_path) == 3
        assert "pulses" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_ideal_with_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": [1, 0.5, 1, 1],
                                   "phase_noise": {"model": "gaussian_drift", "sigma": 0.5}}))
        assert run(["simulate", "--ideal", "--config", str(cfg), "--seed", "1",
                    "--out", "x.csv"], tmp_path) == 2
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "x.csv.manifest.json").exists()

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

    def test_rounds_past_int64_totals_exit_2_before_sampling(self, tmp_path, capsys):
        # 1e20 pulses would be about 9e7 blocks of 2**40; the bound stops it first
        assert run(["simulate", "--seed", "1", "--rounds", str(10 ** 20), "--out", "x.csv"],
                   tmp_path) == 2
        assert "2**62" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "x.csv.manifest.json").exists()

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

    def test_manifests_are_the_json_of_their_fields(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"mu": 0.5}))
        assert run(["simulate", "--config", "cfg.json", "--seed", "3", "--rounds", "5000",
                    "--out", "c.csv"], tmp_path) == 0
        assert run(["certify", "--counts", "c.csv", "--out", "cert.json"], tmp_path) == 0
        for name in ("c.csv.manifest.json", "cert.json.manifest.json"):
            text = (tmp_path / name).read_text()
            manifest = RunManifest(**json.loads(text))
            assert text == json.dumps(asdict(manifest), indent=2, allow_nan=False) + "\n"

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

    def test_undecodable_counts_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"i,j,y,outcome,count\n1,1,1,1,\xff\n")
        assert run(["certify", "--counts", str(bad)], tmp_path) == 4
        assert_one_line_error(capsys.readouterr().err, "data error: cannot decode")

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

    def test_out_that_is_its_own_table_exits_2(self, tmp_path, capsys):
        # the table goes to --out with the suffix .txt, which would write over
        # the certificate and list one file twice as the manifest's outputs
        assert run(["certify", "--asp", "0.74", "--sigma", "0.001", "--d", "4",
                    "--out", "cert.txt"], tmp_path) == 2
        assert_one_line_error(capsys.readouterr().err, "error: --out cert.txt")
        assert list(tmp_path.iterdir()) == []

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

    # sha256 of (outcome probabilities, state ASP) for a seeded table at
    # each d and for the `simulate --ideal --rounds 60000` table
    DIGESTS = {
        2: ("2c4e2b84f919ce2b5cfe4b20f4c4b227629ca82116261f11ca21af22b7940048",
            "4fd754e66183fc211ee1a7c29631d8aa613504a50d60ebc0dfd1d8fce0b6d032"),
        3: ("47fd7113e18c24773ab1db972f029c6a613cb392b6692067ca7dd205e8f93409",
            "639b0ea1f34322140cee415aee768b648584d34a0c599f9e70c06c493717166b"),
        4: ("696968f1fb9fdbdfc5411c6ceb5fa788639a0f09bbf481870aa339a473a71f29",
            "dd6dc231be67f543f95c6d42a052830eefb3f3975783030de5ffd357a8cff48f"),
        5: ("17384531cd17a02ce263cebffd57ed8a49745a1d7d08d7ea9d50a682f3e3fe80",
            "bb8c4b148230b84cbd18ecd898e1215a3b0871f62a199563f5b7b9c5ff60c307"),
        6: ("f95115fdcac5b7debac07912402505f8f801e04be3e240dd3af1d0dcfdc5bc8f",
            "d3f7f69aa1be8f4a9929addfbdb961829b007ffed7a0c9c9576d4ccccf6e36f7"),
        7: ("62cb875ee4cf0459a339b395b7286e20d1a735bdbd111ef2569fbf7986ed5905",
            "05cb2642dba792a2680acd5559c78e1766225948bec950ce7f565ee688584665"),
        8: ("4d976d3e48dd2052ba106245e890acca1aee167f65cdc8c40db98f7cc69fae9d",
            "66943ed82904380e2e8f679bfd25629b9aae6ed565c43ac834157c94dc681017"),
        "ideal": ("b63f91332c0ba509b370d0edcf85a1364f12c513f6b02031e908200724fcb834",
                  "6aed2f6434571f30441b923e6488b508e0fb5ea4fd4419ed7a938033f2f27bb9"),
    }

    @pytest.mark.parametrize("d", list(DIGESTS))
    def test_csv_bytes_are_pinned(self, tmp_path, d):
        table = (ideal_expected_counts(60000) if d == "ideal" else CountsTable(
            dim=d, cells=np.random.default_rng(d).integers(1, 10**6, (d, d, 2, d))))
        write_counts_csv(table, tmp_path / "c.csv")
        assert run(["figure-data", "--counts", "c.csv", "--out-prefix", "fig"], tmp_path) == 0
        digests = tuple(hashlib.sha256((tmp_path / f"fig_{name}.csv").read_bytes()).hexdigest()
                        for name in ("outcome_probabilities", "state_asp"))
        assert digests == self.DIGESTS[d]

    def test_malformed_counts_exits_4(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        assert run(["figure-data", "--counts", str(bad)], tmp_path) == 4

    def test_undecodable_counts_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe")
        assert run(["figure-data", "--counts", str(bad)], tmp_path) == 4
        assert_one_line_error(capsys.readouterr().err, "data error: cannot decode")


@pytest.mark.parametrize("subcommand", ["certify", "figure-data"])
def test_header_only_counts_exit_4(tmp_path, capsys, subcommand):
    # one message, and no warning from the vectorized read of an empty body
    path = tmp_path / "empty.csv"
    path.write_text("i,j,y,outcome,count\n")
    assert run([subcommand, "--counts", str(path)], tmp_path) == 4
    assert_one_line_error(capsys.readouterr().err, "data error: no data rows")


class TestInputDigests:
    """A manifest pins the bytes its command read, even if the file is replaced during the run."""

    @pytest.mark.parametrize("argv, manifest", [
        (["certify", "--out", "cert.json"], "cert.json.manifest.json"),
        (["figure-data", "--out-prefix", "fig"], "fig_state_asp.csv.manifest.json"),
    ], ids=["certify", "figure-data"])
    def test_counts(self, tmp_path, monkeypatch, argv, manifest):
        counts = tmp_path / "c.csv"
        write_counts_csv(ideal_expected_counts(60000), counts)
        original = hashlib.sha256(counts.read_bytes()).hexdigest()

        def replace_then_estimate(table):
            write_counts_csv(ideal_expected_counts(384), counts)
            return estimate_asp(table)

        monkeypatch.setattr("mubcert.cli.estimate_asp", replace_then_estimate)
        assert run([*argv, "--counts", "c.csv"], tmp_path) == 0
        doc = json.loads((tmp_path / manifest).read_text())
        assert doc["input_sha256"] == {"c.csv": original}
        assert hashlib.sha256(counts.read_bytes()).hexdigest() != original

    def test_config(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu": 0.5}))
        original = hashlib.sha256(cfg.read_bytes()).hexdigest()

        def replace_then_simulate(*args, **kwargs):
            cfg.write_text(json.dumps({"mu": 0.4}))
            return simulate_counts(*args, **kwargs)

        monkeypatch.setattr("mubcert.cli.simulate_counts", replace_then_simulate)
        assert run(["simulate", "--config", "cfg.json", "--seed", "3", "--rounds", "5000",
                    "--out", "c.csv"], tmp_path) == 0
        doc = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert doc["input_sha256"] == {"cfg.json": original}
        assert doc["config"]["mu"] == 0.5
        monkeypatch.undo()
        capsys.readouterr()
        assert run(["replay", "c.csv.manifest.json"], tmp_path) == 4
        assert_one_line_error(capsys.readouterr().err, "data error: cannot replay")


class TestOutputsInPlace:
    """Every output goes through ``counts.write_output``, which writes over a file in place."""

    # every command, each with a seed so that its outputs repeat; replay
    # re-runs the first simulate
    COMMANDS = [
        ["mub", "--construction", "fourier", "--d", "3", "--out", "m.json"],
        ["simulate", "--seed", "5", "--rounds", "20000", "--out", "sim.csv"],
        ["simulate", "--ideal", "--seed", "1", "--out", "ideal.csv"],
        ["certify", "--counts", "ideal.csv", "--out", "cc.json"],
        ["certify", "--asp", "0.74", "--sigma", "0.001", "--d", "4", "--out", "ca.json"],
        ["figure-data", "--counts", "ideal.csv", "--out-prefix", "fig"],
        ["replay", "sim.csv.manifest.json"],
    ]

    @pytest.fixture(autouse=True)
    def fixed_clock(self, monkeypatch):
        monkeypatch.setattr("mubcert.cli._utc_now", lambda: "2020-01-01T00:00:00+00:00")

    def outputs_of_a_fresh_run(self, directory):
        directory.mkdir()
        for argv in self.COMMANDS:
            assert run(argv, directory) == 0
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    def test_longer_stale_files_are_overwritten_exactly(self, tmp_path):
        expected = self.outputs_of_a_fresh_run(tmp_path / "fresh")
        stale = tmp_path / "stale"
        stale.mkdir()
        garbage = {name: b"\xff" * (2 * len(data) + 4096) for name, data in expected.items()}
        for name, data in garbage.items():
            (stale / name).write_bytes(data)
        for argv in self.COMMANDS:
            if argv[0] == "replay":
                (stale / "sim.csv").write_bytes(garbage["sim.csv"])
            assert run(argv, stale) == 0
        assert {path.name: path.read_bytes() for path in stale.iterdir()} == expected

    def test_no_write_bypasses_the_writer(self, tmp_path, monkeypatch):
        def refuse(self, data, *args, **kwargs):
            raise AssertionError(f"{self} was written without counts.write_output")

        monkeypatch.setattr(Path, "write_text", refuse)
        monkeypatch.setattr(Path, "write_bytes", refuse)
        assert sorted(self.outputs_of_a_fresh_run(tmp_path / "run")) == sorted([
            "m.json", "sim.csv", "ideal.csv", "cc.json", "cc.txt", "ca.json", "ca.txt",
            "fig_outcome_probabilities.csv", "fig_state_asp.csv",
            *(f"{name}.manifest.json" for name in (
                "m.json", "sim.csv", "ideal.csv", "cc.json", "ca.json", "fig_state_asp.csv")),
        ])

    def test_read_only_output_exits_4(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "c.csv"
        out.write_text("old\n")
        out.chmod(0o444)
        if os.access(out, os.W_OK):  # a privileged user writes any file: refuse as the kernel would
            real_open = os.open

            def read_only(path, flags, *args):
                if Path(path).resolve() == out.resolve() and flags & (os.O_WRONLY | os.O_RDWR):
                    raise PermissionError(13, "Permission denied", str(path))
                return real_open(path, flags, *args)

            monkeypatch.setattr(os, "open", read_only)
        assert run(["simulate", "--ideal", "--seed", "1", "--out", "c.csv"], tmp_path) == 4
        assert_one_line_error(capsys.readouterr().err, "data error: [Errno 13] Permission denied")
        monkeypatch.undo()
        assert out.read_text() == "old\n"
        assert not (tmp_path / "c.csv.manifest.json").exists()


class TestNoOutputOverwritesAnInput:
    """A command refuses an output path that names one of its inputs, before writing anything."""

    @pytest.fixture
    def counts_csv(self, tmp_path):
        write_counts_csv(ideal_expected_counts(60000), tmp_path / "c.csv")
        return tmp_path / "c.csv"

    @pytest.mark.parametrize("argv, manifest", [
        (["certify", "--counts", "c.csv", "--out", "c.csv"], "c.csv.manifest.json"),
        (["certify", "--counts", "c.csv", "--out", "c"], "c.manifest.json"),  # its table c.txt
        (["figure-data", "--counts", "c.csv", "--out-prefix", "c"], "c_state_asp.csv.manifest.json"),
    ], ids=["certify-out", "certify-no-suffix", "figure-data"])
    def test_counts(self, tmp_path, capsys, counts_csv, argv, manifest):
        if argv[0] == "figure-data":
            counts_csv = counts_csv.rename(tmp_path / "c_state_asp.csv")
            argv = [a if a != "c.csv" else counts_csv.name for a in argv]
        elif argv[-1] == "c":
            counts_csv = counts_csv.rename(tmp_path / "c.txt")
            argv = [a if a != "c.csv" else counts_csv.name for a in argv]
        data = counts_csv.read_bytes()
        assert run(argv, tmp_path) == 2
        assert_one_line_error(capsys.readouterr().err, "error: output ")
        assert counts_csv.read_bytes() == data
        assert not (tmp_path / manifest).exists()
        assert list(tmp_path.iterdir()) == [counts_csv]

    def test_manifest_path_of_the_output(self, tmp_path, capsys, counts_csv):
        counts_csv = counts_csv.rename(tmp_path / "cert.json.manifest.json")
        data = counts_csv.read_bytes()
        assert run(["certify", "--counts", counts_csv.name, "--out", "cert.json"], tmp_path) == 2
        assert_one_line_error(capsys.readouterr().err, "error: output ")
        assert counts_csv.read_bytes() == data
        assert list(tmp_path.iterdir()) == [counts_csv]

    def test_another_path_to_the_input(self, tmp_path, capsys, counts_csv):
        (tmp_path / "sub").mkdir()
        os.link(counts_csv, tmp_path / "sub" / "link.csv")
        data = counts_csv.read_bytes()
        assert run(["certify", "--counts", "./sub/../c.csv", "--out", "sub/link.csv"],
                   tmp_path) == 2
        assert_one_line_error(capsys.readouterr().err, "error: output ")
        assert counts_csv.read_bytes() == data
        assert not (tmp_path / "sub" / "link.csv.manifest.json").exists()

    def test_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"mu": 0.2}\n')
        assert run(["simulate", "--config", "cfg.json", "--seed", "1", "--rounds", "1000",
                    "--out", "cfg.json"], tmp_path) == 2
        assert_one_line_error(capsys.readouterr().err, "error: output cfg.json is the input")
        assert config.read_text() == '{"mu": 0.2}\n'
        assert list(tmp_path.iterdir()) == [config]


def test_refuse_overwrite_stats_each_path_once(tmp_path, monkeypatch):
    # every output exists, so each is compared by device and inode alone
    paths = [str(tmp_path / name) for name in
             ("c.csv", "cert.json", "cert.txt", "cert.json.manifest.json")]
    for path in paths:
        Path(path).write_text("x\n")
    stat, seen = os.stat, []

    def counted(path, *args, **kwargs):
        seen.append(str(path))
        return stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", counted)
    cli._refuse_overwrite(paths[:1], paths[1:])
    assert sorted(seen) == sorted(paths)


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

    @pytest.mark.parametrize("recorded", ["table-4", None], ids=["table-4", "unrecorded"])
    def test_other_sampler_is_refused(self, tmp_path, capsys, recorded):
        out = tmp_path / "run.csv"
        assert run(["simulate", "--seed", "5", "--rounds", "20000", "--out", "run.csv"],
                   tmp_path) == 0
        manifest = tmp_path / "run.csv.manifest.json"
        doc = json.loads(manifest.read_text())
        assert doc["extra"]["sampler"] == SAMPLER_VERSION
        if recorded is None:
            del doc["extra"]["sampler"]
        else:
            doc["extra"]["sampler"] = recorded
        manifest.write_text(json.dumps(doc))
        data, text = out.read_bytes(), manifest.read_text()
        capsys.readouterr()
        assert run(["replay", "run.csv.manifest.json"], tmp_path) == 4
        err = capsys.readouterr().err
        assert_one_line_error(err, "data error: cannot replay run.csv.manifest.json: ")
        assert f"sampler {recorded}," in err and SAMPLER_VERSION in err
        assert out.read_bytes() == data
        assert manifest.read_text() == text

    def test_ideal_run_records_no_sampler_and_replays(self, tmp_path):
        out = tmp_path / "ideal.csv"
        assert run(["simulate", "--ideal", "--out", "ideal.csv"], tmp_path) == 0
        doc = json.loads((tmp_path / "ideal.csv.manifest.json").read_text())
        assert doc["extra"]["mode"] == "ideal" and "sampler" not in doc["extra"]
        original = out.read_bytes()
        out.unlink()
        assert run(["replay", "ideal.csv.manifest.json"], tmp_path) == 0
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


class TestParserReuse:
    def test_one_parser_serves_every_call(self, tmp_path):
        # each call must see its own flags and the defaults of the rest,
        # not values an earlier call parsed
        build_parser.cache_clear()
        assert run(["simulate", "--ideal", "--out", "ideal.csv"], tmp_path) == 0
        expected = tmp_path / "expected.csv"
        write_counts_csv(ideal_expected_counts(60000), expected)
        assert (tmp_path / "ideal.csv").read_bytes() == expected.read_bytes()

        sim = tmp_path / "sim.csv"
        assert run(["simulate", "--rounds", "50000", "--seed", "5", "--out", "sim.csv"],
                   tmp_path) == 0
        manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["extra"]["mode"] == "monte-carlo"
        assert manifest["extra"]["total_detections"] < 50000

        assert run(["certify", "--asp", "0.74", "--sigma", "1e-4", "--d", "4",
                    "--out", "asp.json"], tmp_path) == 0
        assert json.loads((tmp_path / "asp.json").read_text())["asp"]["value"] == 0.74
        assert run(["certify", "--counts", "ideal.csv"], tmp_path) == 0
        assert json.loads((tmp_path / "certificate.json").read_text())["asp"]["value"] == 0.75

        original = sim.read_bytes()
        sim.unlink()
        assert run(["replay", "sim.csv.manifest.json"], tmp_path) == 0
        assert sim.read_bytes() == original
        assert build_parser.cache_info().misses == 1


TOP_USAGE = "usage: mubcert [-h] [--version] {mub,simulate,certify,figure-data,replay} ...\n"
SIMULATE_USAGE = (
    "usage: mubcert simulate [-h] [--config CONFIG] [--seed SEED] [--rounds ROUNDS]\n"
    "                        [--ideal | --visibility-target VISIBILITY_TARGET]\n"
    "                        [--out OUT]\n")
CHOICES = "(choose from 'mub', 'simulate', 'certify', 'figure-data', 'replay')"

# exit code, stdout and stderr of argv shapes whose parsing sends argv to a
# subcommand's parser or not, as the full parser gave them, at 80 columns
PINNED_ARGV = [
    ([], 2,
     "",
     TOP_USAGE + 'mubcert: error: the following arguments are required: subcommand\n'),
    (['--version'], 0,
     f"mubcert {mubcert.__version__}\n",
     ""),
    (['-h'], 0,
     TOP_USAGE + (
     '\n'
     'Simulate and certify the unbiased-basis random access code.\n'
     '\n'
     'positional arguments:\n'
     '  {mub,simulate,certify,figure-data,replay}\n'
     '    mub                 construct a basis pair and report its metrics\n'
     '    simulate            run the interferometer Monte Carlo\n'
     '    certify             compute the certificate from counts or an ASP\n'
     '    figure-data         emit plot-ready per-state CSVs\n'
     '    replay              re-run a command from its manifest\n'
     '\n'
     'options:\n'
     '  -h, --help            show this help message and exit\n'
     "  --version             show program's version number and exit\n"),
     ""),
    (['sim'], 2,
     "",
     TOP_USAGE + "mubcert: error: argument subcommand: invalid choice: 'sim' " + CHOICES + '\n'),
    (['bogus', '--x'], 2,
     "",
     TOP_USAGE + "mubcert: error: argument subcommand: invalid choice: 'bogus' " + CHOICES + '\n'),
    (['--', 'simulate'], 2,
     "",
     TOP_USAGE + "mubcert: error: argument subcommand: invalid choice: '--' " + CHOICES + '\n'),
    (['simulate', '--bogus'], 2,
     "",
     TOP_USAGE + 'mubcert: error: unrecognized arguments: --bogus\n'),
    (['simulate', '--version'], 2,
     "",
     TOP_USAGE + 'mubcert: error: unrecognized arguments: --version\n'),
    (['simulate', '--round', '0'], 2,
     "",
     SIMULATE_USAGE + 'mubcert simulate: error: argument --rounds: must be an integer >= 1\n'),
    (['simulate', '--rounds=0'], 2,
     "",
     SIMULATE_USAGE + 'mubcert simulate: error: argument --rounds: must be an integer >= 1\n'),
    (['simulate', '-h'], 0,
     SIMULATE_USAGE + (
     '\n'
     'options:\n'
     '  -h, --help            show this help message and exit\n'
     '  --config CONFIG       interferometer config JSON\n'
     '  --seed SEED           master seed (default: OS entropy, recorded in the\n'
     '                        manifest)\n'
     '  --rounds ROUNDS       pulses to simulate (ideal mode: total count mass);\n'
     '                        default rep_rate * integration_time\n'
     '  --ideal               bypass source/detector/noise models and emit exact\n'
     '                        expected counts\n'
     '  --visibility-target VISIBILITY_TARGET\n'
     '                        calibrate the drift sigma to this mean fringe\n'
     '                        visibility\n'
     '  --out OUT\n'),
     ""),
    (['simulate', '--ideal', '--visibility-target', '0.9'], 2,
     "",
     SIMULATE_USAGE + (
     'mubcert simulate: error: argument --visibility-target: not allowed with argument --ideal\n')),
    (['certify', 'x', 'y'], 2,
     "",
     TOP_USAGE + 'mubcert: error: unrecognized arguments: x y\n'),
    (['replay'], 2,
     "",
     (
     'usage: mubcert replay [-h] manifest\n'
     'mubcert replay: error: the following arguments are required: manifest\n')),
    (['replay', 'a', 'b'], 2,
     "",
     TOP_USAGE + 'mubcert: error: unrecognized arguments: b\n'),
    (['mub'], 2,
     "",
     (
     'usage: mubcert mub [-h] --construction {hadamard-d4,fourier} [--d D]\n'
     '                   [--out OUT]\n'
     'mubcert mub: error: the following arguments are required: --construction\n')),
    (['figure-data'], 2,
     "",
     (
     'usage: mubcert figure-data [-h] --counts COUNTS [--out-prefix OUT_PREFIX]\n'
     'mubcert figure-data: error: the following arguments are required: --counts\n')),
]


class TestArgvDispatch:
    """argv sent straight to its subcommand's parser reads as it does through the full parser."""

    @pytest.mark.parametrize("argv, code, out, err", PINNED_ARGV,
                             ids=[" ".join(row[0]) or "no-argument" for row in PINNED_ARGV])
    def test_pinned_outcome(self, tmp_path, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(argv, tmp_path) == code
        assert capsys.readouterr() == (out, err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--=x"], ["simulate", "--"], ["simulate", "--", "--x"],
        ["simulate", "--vers"], ["simulate", "--version=1"], ["simulate", "-hx"],
        ["simulate", "--he"], ["simulate", "-1"], ["simulate", "--r", "5", "--seed", "2"],
        ["certify", "-"], ["certify", "--d", "x"], ["mub", "-h", "--bogus"],
        ["mub", "--construction=fourier", "--d=3", "extra"], ["replay", "--", "-x"],
        ["replay", "m.json", "--seed"], ["--version", "simulate"], ["-h", "simulate"],
        ["simulate=1"], ["figure-data", "--counts", "c.csv", "--out-prefix"],
    ], ids=" ".join)
    def test_same_outcome_as_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")

        def outcome(parse):
            try:
                result = vars(parse(list(argv)))
            except SystemExit as exc:
                result = exc.code
            return result, capsys.readouterr()

        assert outcome(cli._parse) == outcome(build_parser().parse_args)


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
