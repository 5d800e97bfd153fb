"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py``; the per-criterion lines
are written straight to the terminal, bypassing pytest capture.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from mubcert.certify import (
    bound_max_sqrt_overlap,
    bound_norm_sum,
    bound_overlap_entropy,
    full_certificate,
    min_asp_for_nontrivial_eta,
    norm_sum_threshold,
)
from mubcert.cli import main
from mubcert.counts import write_counts_csv
from mubcert.errors import BelowThreshold
from mubcert.linalg import validate_povm
from mubcert.mub import (
    depolarized_pair,
    fourier_mub_pair,
    hadamard_mub_pair_d4,
    max_sqrt_overlap,
    norm_sum,
    overlap_entropy,
)
from mubcert.photonics import (
    InterferometerConfig,
    PhaseNoiseConfig,
    calibrate_drift_sigma,
    detection_probabilities,
    mean_fringe_visibility,
    sample_source,
    simulate_counts,
)
from mubcert.qrac import (
    AspEstimate,
    asp,
    asp_from_density,
    brute_force_optimal_asp,
    estimate_asp,
    optimal_states,
    quantum_optimum,
)


@contextmanager
def criterion(capsys, number, description, runtime_limit=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} [{description}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if runtime_limit is not None:
        assert elapsed < runtime_limit, f"runtime {elapsed:.1f}s over {runtime_limit}s"
    with capsys.disabled():
        print(f"ACCEPTANCE {number} [{description}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_reported_number_regression(tmp_path, capsys):
    with criterion(capsys, 1, "reported-number regression", runtime_limit=1.0):
        cert = tmp_path / "cert.json"
        code = main(["certify", "--asp", "0.74924", "--sigma", "0.00011",
                     "--d", "4", "--out", str(cert)])
        assert code == 0
        doc = json.loads(cert.read_text())
        assert doc["hs_lower"]["value"] == pytest.approx(3.99122, abs=5e-4)
        assert doc["norm_sum_lower"]["value"] == pytest.approx(3.95749, abs=1e-3)
        assert doc["incompat_upper"]["value"] == pytest.approx(0.798757, abs=1e-3)
        assert doc["entropic_lower"]["value"] == pytest.approx(1.24581, abs=1e-3)
        assert doc["hs_lower"]["sigma"] == pytest.approx(0.00131, rel=0.10)
        assert doc["norm_sum_lower"]["sigma"] == pytest.approx(0.00649, rel=0.10)
        assert doc["incompat_upper"]["sigma"] == pytest.approx(0.010997, rel=0.10)
        assert doc["entropic_lower"]["sigma"] == pytest.approx(0.04886, rel=0.10)


def test_criterion_2_ideal_fixed_point(capsys):
    with criterion(capsys, 2, "ideal fixed point at the quantum optimum"):
        report = full_certificate(AspEstimate(value=0.75, sigma=0.0), 4)
        targets = {
            "hs": (report.hs_lower.value, 4.0),
            "norm": (report.norm_sum_lower.value, 4.0),
            "smax": (report.smax_upper.value, 0.5),
            "eta": (report.incompat_upper.value, 2.0 / 3.0),
            "entropy": (report.entropic_lower.value, 2.0),
        }
        for name, (got, want) in targets.items():
            assert abs(got - want) < 1e-10, f"{name}: {got} vs {want}"


def test_criterion_3_oracle_equivalence(capsys):
    with criterion(capsys, 3, "encoding-optimality oracle equivalence", runtime_limit=1.0):
        pairs = [hadamard_mub_pair_d4()] + [fourier_mub_pair(d) for d in (2, 3, 4)]
        for pair in pairs:
            direct = asp(optimal_states(pair), pair)
            oracle, _ = brute_force_optimal_asp(pair)
            assert abs(direct - oracle) < 1e-10
            assert abs(direct - quantum_optimum(pair.dim)) < 1e-10


def test_criterion_4_source_statistics(capsys):
    with criterion(capsys, 4, "weak-coherent source statistics", runtime_limit=10.0):
        rng = np.random.default_rng(1)
        n = sample_source(0.2, rng, size=10**6)
        p_nonempty = float(np.mean(n >= 1))
        single_fraction = float(np.sum(n == 1) / np.sum(n >= 1))
        assert abs(p_nonempty - 0.1813) <= 0.0012
        assert abs(single_fraction - 0.9033) <= 0.0010


def test_criterion_5_end_to_end_noiseless(capsys):
    with criterion(capsys, 5, "end-to-end noiseless experiment", runtime_limit=30.0):
        config = InterferometerConfig()  # mu=0.2, efficiency 10%
        # ~60000 detections at 0.02 detected photons per pulse
        table = simulate_counts(config, rounds=3_000_000, seed=11)
        assert abs(table.total() - 60000) < 2000
        est = estimate_asp(table)
        assert abs(est.value - 0.75) < 4 * est.sigma
        report = full_certificate(est, 4)
        checks = [
            (report.hs_lower, 4.0),
            (report.norm_sum_lower, 4.0),
            (report.smax_upper, 0.5),
            (report.incompat_upper, 2.0 / 3.0),
            (report.entropic_lower, 2.0),
        ]
        for bound, ideal in checks:
            assert bound.applicable, bound.reason
            assert abs(bound.value - ideal) <= 4 * bound.sigma + 1e-12


def test_criterion_6_calibrated_noise_reproduction(capsys):
    with criterion(capsys, 6, "calibrated-noise reproduction", runtime_limit=120.0):
        base = replace(
            InterferometerConfig(),
            det_efficiency=1.0,  # reach ~1e6 detections within the runtime cap
            phase_noise=PhaseNoiseConfig("gaussian_drift", 0.0),
        )
        sigma = calibrate_drift_sigma(base, 0.9989)
        config = replace(base, phase_noise=PhaseNoiseConfig("gaussian_drift", sigma))
        vis = mean_fringe_visibility(config)
        assert abs(vis - 0.9989) <= 0.0005
        est = estimate_asp(simulate_counts(config, rounds=5_000_000, seed=21))
        assert 0.745 <= est.value <= 0.751


def test_criterion_7_property_suites(tmp_path, capsys):
    with criterion(capsys, 7, "property suites", runtime_limit=120.0):
        _check_povm_validity()
        _check_probability_normalization()
        _check_bound_monotonicities()
        _check_determinism_byte_equality(tmp_path)
        _check_soundness_sweep()


def _check_povm_validity():
    pair = hadamard_mub_pair_d4()
    assert validate_povm(pair.first.effects, tol=1e-9)
    assert validate_povm(pair.second.effects, tol=1e-9)
    for d in range(2, 9):
        fp = fourier_mub_pair(d)
        assert validate_povm(fp.first.effects, tol=1e-9)
        assert validate_povm(fp.second.effects, tol=1e-9)
    for v in (0.9, 0.95, 0.99, 1.0):
        noisy = depolarized_pair(pair, v)
        assert validate_povm(noisy.first.effects, tol=1e-9)


def _check_probability_normalization():
    rng = np.random.default_rng(123)
    for _ in range(50):
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = raw / np.linalg.norm(raw)
        probs = detection_probabilities(state, rng.uniform(0, 2 * np.pi, 4))
        assert abs(float(probs.sum()) - 1.0) < 1e-12
        assert probs.min() >= -1e-15


def _positive_onset(f, d, lo, hi):
    """Smallest p in (lo, hi) where f(p, d) leaves its clamp at zero."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid, d) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _check_bound_monotonicities():
    from mubcert.certify import bound_entropic

    for d in range(2, 9):
        pq = quantum_optimum(d)
        # overlap entropy and sqrt-overlap: monotone beyond the entropy onset
        onset = 0.5 * (1.0 + d ** -1.5) + 1e-9
        grid = np.linspace(onset, pq, 100)
        hs = [bound_overlap_entropy(p, d) for p in grid]
        sm = [bound_max_sqrt_overlap(p, d) for p in grid]
        assert all(a < b for a, b in zip(hs, hs[1:])), f"hs not increasing at d={d}"
        assert all(a > b for a, b in zip(sm, sm[1:])), f"smax not decreasing at d={d}"
        # norm sum: monotone on its applicability interval
        grid_n = np.linspace(norm_sum_threshold(d) + 1e-9, pq, 100)
        ns = [bound_norm_sum(p, d) for p in grid_n]
        assert all(a < b for a, b in zip(ns, ns[1:])), f"norm not increasing at d={d}"
        # entropic: strictly increasing where unclamped
        ent_onset = _positive_onset(bound_entropic, d, onset, pq)
        grid_e = np.linspace(min(ent_onset + 1e-7, pq), pq, 100)
        ent = [bound_entropic(p, d) for p in grid_e]
        assert all(a < b for a, b in zip(ent, ent[1:])), f"entropic not increasing at d={d}"


def _check_determinism_byte_equality(tmp_path):
    config = InterferometerConfig()
    paths = []
    for tag in ("a", "b"):
        table = simulate_counts(config, rounds=120_000, seed=424242)
        path = tmp_path / f"det_{tag}.csv"
        write_counts_csv(table, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _check_soundness_sweep():
    pair = hadamard_mub_pair_d4()
    enc = optimal_states(pair)
    rhos = np.einsum("ija,ijb->ijab", enc.states, enc.states.conj())
    for v in (0.9, 0.95, 0.99, 1.0):
        noisy = depolarized_pair(pair, v)
        p = asp_from_density(rhos, noisy)
        direct_hs = overlap_entropy(noisy)
        direct_norm = norm_sum(noisy.first)
        direct_smax = max_sqrt_overlap(noisy)
        assert direct_hs >= bound_overlap_entropy(p, 4) - 1e-9
        try:
            assert direct_norm >= bound_norm_sum(p, 4) - 1e-9
        except BelowThreshold:
            pass  # bound carries no information at this ASP
        assert direct_smax <= bound_max_sqrt_overlap(p, 4) + 1e-9


def test_criterion_8_precondition_handling(tmp_path, capsys):
    with criterion(capsys, 8, "precondition handling below threshold"):
        cert = tmp_path / "cert70.json"
        code = main(["certify", "--asp", "0.70", "--sigma", "0.001",
                     "--d", "4", "--out", str(cert)])
        assert code == 0
        doc = json.loads(cert.read_text())
        assert doc["norm_sum_lower"] is None
        assert doc["incompat_upper"] is None
        assert "0.742061" in doc["applicability"]["norm_sum"]
        assert "0.742061" in doc["applicability"]["incompatibility"]
        assert doc["hs_lower"]["value"] == pytest.approx(
            2 * math.log2(8 * 0.4), abs=1e-9
        )
        assert doc["entropic_lower"] is not None  # clamped to zero, still reported
        assert doc["applicability"]["hs"] == "ok"
        assert doc["applicability"]["entropic"] == "ok"
        # the threshold itself sits inside the window named by the reason
        assert norm_sum_threshold(4) == pytest.approx(0.742061, abs=5e-7)
        assert 0.742061 < min_asp_for_nontrivial_eta(4) < 0.75
