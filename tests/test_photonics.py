import hashlib
import json
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from mubcert.counts import write_counts_csv
from mubcert.errors import ConfigError
from mubcert.mub import HADAMARD4, hadamard_mub_pair_d4, is_mutually_unbiased, MubPair, Measurement
from mubcert.photonics import (
    BLOCK_ROUNDS,
    STABILIZE_ROUNDS,
    InterferometerConfig,
    PhaseNoiseConfig,
    _block_counts,
    _damping,
    _draw_noise,
    _protocol_tables,
    _zero_truncated_poisson,
    calibrate_drift_sigma,
    detection_probabilities,
    expected_outcome_probabilities,
    fringe_visibility,
    ideal_expected_counts,
    mean_fringe_visibility,
    measurement_unitary,
    noise_averaged_asp,
    sample_source,
    simulate_counts,
)
from mubcert.qrac import estimate_asp, optimal_states


@pytest.fixture(scope="module")
def d4_pair():
    return hadamard_mub_pair_d4()


@pytest.fixture(scope="module")
def encodings(d4_pair):
    return optimal_states(d4_pair)


# Measurement-stage phases that realise the pair's first and second basis.
FIRST_BASIS_PHASES = (0.0, 0.0, 0.0, 0.0)
SECOND_BASIS_PHASES = (math.pi, 0.0, 0.0, 0.0)


class TestMbsMatrix:
    """The multiport beam splitter: the measurement stage at zero phases."""

    def test_entries(self):
        m = measurement_unitary(np.zeros(4))
        assert m[0, 0] == 0.5
        assert m[1, 2] == -0.5

    def test_self_inverse_unitary(self):
        m = measurement_unitary(np.zeros(4))
        assert np.allclose(m @ m.T, np.eye(4), atol=1e-15)

    def test_equals_first_analysis_basis(self, d4_pair):
        m = measurement_unitary(np.zeros(4))
        assert np.allclose(m, d4_pair.first.basis_vectors().T.real)


class TestMeasurementUnitary:
    def test_zero_phases_is_splitter(self):
        assert np.allclose(measurement_unitary(np.zeros(4)), HADAMARD4)

    def test_unitary_for_random_phases(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            u = measurement_unitary(rng.uniform(0, 2 * np.pi, 4))
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12

    def test_rows_are_analysis_bras(self):
        rng = np.random.default_rng(9)
        phi = rng.uniform(0, 2 * np.pi, 4)
        u = measurement_unitary(phi)
        # bra components carry exp(-i phi_l) on the splitter pattern
        expected = HADAMARD4 * np.exp(-1j * phi)[None, :]
        assert np.allclose(u, expected, atol=1e-12)

    def test_y2_kets_are_second_basis(self, d4_pair):
        kets = measurement_unitary(SECOND_BASIS_PHASES).conj()
        assert np.allclose(kets, d4_pair.second.basis_vectors(), atol=1e-12)


class TestDetectionProbabilities:
    def test_balanced_state_goes_to_first_port(self):
        probs = detection_probabilities(np.full(4, 0.5), np.zeros(4))
        assert np.allclose(probs, [1, 0, 0, 0], atol=1e-12)

    def test_protocol_state(self, encodings):
        probs = detection_probabilities(encodings.states[0, 0], np.zeros(4))
        assert np.allclose(probs, [0.75, 1 / 12, 1 / 12, 1 / 12], atol=1e-12)

    def test_normalization_random_states(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            state = raw / np.linalg.norm(raw)
            probs = detection_probabilities(state, rng.uniform(0, 2 * np.pi, 4))
            assert abs(probs.sum() - 1.0) < 1e-12


class TestMeasurementPhaseForInput:
    def test_bases_match_pair(self, d4_pair):
        k1 = measurement_unitary(FIRST_BASIS_PHASES).conj()
        k2 = measurement_unitary(SECOND_BASIS_PHASES).conj()
        assert np.allclose(k1, d4_pair.first.basis_vectors(), atol=1e-12)
        assert np.allclose(k2, d4_pair.second.basis_vectors(), atol=1e-12)
        # the sampler's analysis bras are the ones the device realises
        _, bras = _protocol_tables()
        assert np.allclose(bras, [k1.conj(), k2.conj()], atol=1e-12)

    def test_resulting_bases_unbiased(self):
        k1 = measurement_unitary(FIRST_BASIS_PHASES).conj()
        k2 = measurement_unitary(SECOND_BASIS_PHASES).conj()
        pair = MubPair(first=Measurement.projective(k1),
                       second=Measurement.projective(k2))
        assert is_mutually_unbiased(pair, tol=1e-12)


class TestSampleSource:
    def test_empirical_mean(self):
        rng = np.random.default_rng(77)
        n = sample_source(0.2, rng, size=10**5)
        se = math.sqrt(0.2 / 10**5)
        assert abs(n.mean() - 0.2) < 3 * se

    def test_scalar_draw(self):
        rng = np.random.default_rng(1)
        assert sample_source(0.2, rng) >= 0

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            sample_source(0.0, np.random.default_rng(0))


class TestZeroTruncatedPoisson:
    @pytest.mark.parametrize("lam", [0.02, 1.5, 40.0])
    def test_mean_and_single_photon_share(self, lam):
        n = 200_000
        x = _zero_truncated_poisson(lam, n, np.random.default_rng(3))
        assert x.min() >= 1
        q = -math.expm1(-lam)
        mean = lam / q
        var = mean * (1.0 + lam - mean)
        assert abs(x.mean() - mean) < 5 * math.sqrt(var / n)
        p1 = lam * math.exp(-lam) / q
        assert abs(np.mean(x == 1) - p1) < 5 * math.sqrt(p1 * (1 - p1) / n) + 1e-12


class TestEndToEndConsistency:
    def test_pipeline_matches_born_probabilities(self, d4_pair, encodings):
        # the measurement-stage phases reproduce |<basis|psi>|^2
        for i in range(4):
            for j in range(4):
                state = encodings.states[i, j]
                for phases, meas in ((FIRST_BASIS_PHASES, d4_pair.first),
                                     (SECOND_BASIS_PHASES, d4_pair.second)):
                    probs = detection_probabilities(state, phases)
                    born = np.abs(meas.basis_vectors().conj() @ encodings.states[i, j]) ** 2
                    assert np.max(np.abs(probs - born)) < 1e-12

    def test_expected_probabilities_table(self, d4_pair, encodings):
        probs = expected_outcome_probabilities()
        assert probs.shape == (16, 2, 4)
        assert np.allclose(probs.sum(axis=2), 1.0, atol=1e-12)
        assert probs[0, 0, 0] == pytest.approx(0.75, abs=1e-12)
        # the table agrees with the device path, row ij = 4*i + j
        for i in range(4):
            for j in range(4):
                state = encodings.states[i, j]
                for y, phases in enumerate((FIRST_BASIS_PHASES, SECOND_BASIS_PHASES)):
                    device = detection_probabilities(state, phases)
                    assert np.allclose(probs[4 * i + j, y], device, atol=1e-12)


class TestIdealCounts:
    def test_exact_asp(self):
        est = estimate_asp(ideal_expected_counts(60000))
        assert est.value == 0.75

    def test_total_close_to_request(self):
        table = ideal_expected_counts(60000)
        assert abs(table.total() - 60000) <= 32 * 12


class TestSimulateCounts:
    def test_deterministic(self):
        cfg = InterferometerConfig()
        t1 = simulate_counts(cfg, rounds=50000, seed=123)
        t2 = simulate_counts(cfg, rounds=50000, seed=123)
        assert np.array_equal(t1.cells, t2.cells)

    def test_seed_changes_output(self):
        cfg = InterferometerConfig()
        t1 = simulate_counts(cfg, rounds=50000, seed=1)
        t2 = simulate_counts(cfg, rounds=50000, seed=2)
        assert not np.array_equal(t1.cells, t2.cells)

    def test_noiseless_asp_near_optimum(self):
        cfg = InterferometerConfig()
        table = simulate_counts(cfg, rounds=1_500_000, seed=42)
        est = estimate_asp(table)
        assert abs(est.value - 0.75) < 4 * est.sigma

    def test_block_merge_is_order_independent(self):
        # the walk restarts at every block, so blocks need no carried state
        cfg = replace(
            InterferometerConfig(),
            phase_noise=PhaseNoiseConfig("random_walk", 1e-3),
        )
        tables = _protocol_tables()
        seed = 99
        sizes = [70000, 70000, 60000]
        cells_seq = [_block_counts(cfg, tables, b, n, seed) for b, n in enumerate(sizes)]
        shuffled_total = np.zeros_like(cells_seq[0])
        for b in (2, 0, 1):
            shuffled_total += _block_counts(cfg, tables, b, sizes[b], seed)
        assert np.array_equal(shuffled_total, sum(cells_seq))

    def test_dark_counts_add_background(self):
        cfg = replace(InterferometerConfig(), dark_count_prob=0.05)
        noisy = simulate_counts(cfg, rounds=200000, seed=5)
        clean = simulate_counts(InterferometerConfig(), rounds=200000, seed=5)
        assert noisy.total() > clean.total() + 10000

    def test_multiphoton_assignment_keeps_asp(self):
        # bright source, perfect detectors: ASP unaffected by multi-photon pulses
        cfg = replace(InterferometerConfig(), mu=2.0, det_efficiency=1.0)
        est = estimate_asp(simulate_counts(cfg, rounds=100000, seed=17))
        assert abs(est.value - 0.75) < 4 * est.sigma

    # sha256 of the counts CSV for 300k rounds at seed 424242 (sampler
    # "event-2"); any change to the sampler's draw order or decoding
    # changes these, and SAMPLER_VERSION must change with them.
    @pytest.mark.parametrize("noise, dark, digest", [
        (PhaseNoiseConfig(), 0.0,
         "e321cfe0a252905babd84e5d476ff01dfcee41bc2387db80157aba7706d654e3"),
        (PhaseNoiseConfig("random_walk", 1e-3), 0.01,
         "5106d25a981fecafb134394959536a2c4c250a8ce9fa3b014a1d52bf9dceec36"),
    ], ids=["default", "random-walk-dark"])
    def test_sampler_stream_is_pinned(self, tmp_path, noise, dark, digest):
        cfg = replace(InterferometerConfig(), phase_noise=noise, dark_count_prob=dark)
        path = tmp_path / "counts.csv"
        write_counts_csv(simulate_counts(cfg, rounds=300_000, seed=424242), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_per_setting_distributions_match_born_rule(self):
        # catches any (i, j, y) decode swap inside the protocol loop
        table = simulate_counts(InterferometerConfig(), rounds=2_000_000, seed=5)
        probs_exp = expected_outcome_probabilities()
        for i in range(4):
            for j in range(4):
                for y in range(2):
                    row = table.cells[i, j, y]
                    target = i if y == 0 else j
                    assert np.argmax(row) == target
                    emp = row / row.sum()
                    tol = 5 * np.sqrt(0.75 * 0.25 / row.sum())
                    assert np.max(np.abs(emp - probs_exp[4 * i + j, y])) < tol


def per_pulse_counts(cfg, n, seed):
    """Counts of one n-pulse block drawn pulse by pulse.

    Every pulse gets a setting, a Poisson photon number thinned by the
    detector, per-arm phase noise and per-gate dark counts, as a direct
    model of the source and detectors; the random walk restarts at zero
    every STABILIZE_ROUNDS pulses.
    """
    states, bras = _protocol_tables()
    d = states.shape[1]
    rng = np.random.default_rng(seed)
    settings = rng.integers(0, 2 * d * d, n)
    n_detected = rng.binomial(rng.poisson(cfg.mu, n), cfg.det_efficiency)
    noise = np.zeros((n, d))
    if cfg.phase_noise.model != "none":
        noise = rng.normal(0.0, cfg.phase_noise.sigma, (n, d))
        if cfg.phase_noise.model == "random_walk":
            for start in range(0, n, STABILIZE_ROUNDS):
                window = noise[start:start + STABILIZE_ROUNDS]
                window[:] = np.cumsum(window, axis=0)
    dark = rng.random((n, d)) < cfg.dark_count_prob

    sel = n_detected > 0
    clicked = settings[sel]
    ij, y = np.divmod(clicked, 2)
    kets = states[ij] * np.asarray(cfg.tau) * np.exp(1j * noise[sel])
    probs = np.abs(np.einsum("pbk,pk->pb", bras[y], kets)) ** 2
    cum = np.cumsum(probs, axis=1)
    cum /= cum[:, -1:]
    photon = np.repeat(np.arange(clicked.size), n_detected[sel])
    outcome = (rng.random(photon.size)[:, None] > cum[photon]).sum(axis=1)
    pulse, arm = np.nonzero(dark)
    hits = np.concatenate([clicked[photon] * d + outcome, settings[pulse] * d + arm])
    return np.bincount(hits, minlength=2 * d ** 3)


class TestSamplerDistribution:
    """The event-driven sampler against a pulse-by-pulse model, over seeds."""

    @pytest.mark.parametrize("cfg, rounds", [
        (InterferometerConfig(), 50_000),
        (replace(InterferometerConfig(), det_efficiency=1.0, dark_count_prob=0.01,
                 phase_noise=PhaseNoiseConfig("gaussian_drift", 0.3)), 10_000),
        (replace(InterferometerConfig(), mu=3.0, det_efficiency=0.5, dark_count_prob=0.01,
                 phase_noise=PhaseNoiseConfig("random_walk", 0.02)), 5_000),
    ], ids=["default", "drift-dark", "walk-dark-bright"])
    def test_per_cell_mean_and_variance_match(self, cfg, rounds):
        runs = 200
        event = np.array([simulate_counts(cfg, rounds=rounds, seed=s).cells.ravel()
                          for s in range(runs)])
        pulse = np.array([per_pulse_counts(cfg, rounds, 10_000 + s)
                          for s in range(runs)])
        var_e, var_p = event.var(axis=0, ddof=1), pulse.var(axis=0, ddof=1)
        z = (event.mean(axis=0) - pulse.mean(axis=0)) / np.sqrt((var_e + var_p) / runs)
        # For equal distributions mean z^2 over the cells is 1 with standard
        # deviation sqrt(2 mean rho^2); the random walk correlates the cells.
        rho = np.corrcoef(np.vstack([event - event.mean(axis=0),
                                     pulse - pulse.mean(axis=0)]).T)
        assert np.mean(z ** 2) < 1 + 5 * np.sqrt(2 * np.mean(rho ** 2))
        assert np.max(np.abs(z)) < 4.5
        # each log variance ratio has a standard deviation near sqrt(4/runs)
        assert np.max(np.abs(np.log(var_e / var_p))) < 0.8

    @pytest.mark.parametrize("density", [0.002, 1.0], ids=["sparse", "dense"])
    def test_walk_at_events_matches_closed_form(self, density):
        # Sparse events need the sqrt(gap) step scaling; both densities
        # need the restart at every window of the four a block spans.
        sigma, n, runs = 0.03, 4 * STABILIZE_ROUNDS, 200
        k, l = np.triu_indices(4, 1)
        means = []
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            events = np.sort(rng.choice(n, rng.binomial(n, density), replace=False))
            phases = _draw_noise("random_walk", sigma, events, 4, rng)
            if events.size:
                means.append(np.cos(phases[:, k] - phases[:, l]).mean())
        damping = _damping(PhaseNoiseConfig("random_walk", sigma))
        # one pulse's phases are shared by its arm pairs and a window's
        # events share one path, so the spread is taken across seeds
        assert abs(np.mean(means) - damping) < 5 * np.std(means) / math.sqrt(len(means))


class TestWalkClosedForm:
    def test_damping_matches_pulse_by_pulse_walk(self):
        # two arms, one N(0, sigma^2) step each per pulse, restarted at zero
        # every window: <cos(theta_1 - theta_2)> over the window is D
        sigma, windows = 0.02, 2000
        k = STABILIZE_ROUNDS
        rng = np.random.default_rng(6)
        delta = np.cumsum(rng.normal(0.0, sigma * math.sqrt(2.0), (windows, k)), axis=1)
        per_window = np.cos(delta).mean(axis=1)
        damping = _damping(PhaseNoiseConfig("random_walk", sigma))
        assert abs(per_window.mean() - damping) < 5 * per_window.std() / math.sqrt(windows)
        # exp(-sigma^2) is the one-pulse window, far from a full window's D
        assert damping < math.exp(-sigma ** 2) - 0.05

    @pytest.mark.parametrize("offset", [0, 5])
    def test_event_after_restart_carries_offset_plus_one_steps(self, offset):
        # the pulse t pulses after a restart carries t + 1 steps, so its
        # phase has variance (t + 1) sigma^2 in every arm
        sigma = 0.03
        events = np.arange(offset, BLOCK_ROUNDS, STABILIZE_ROUNDS)
        ratios = np.concatenate([
            (_draw_noise("random_walk", sigma, events, 4, np.random.default_rng(seed))
             / sigma).ravel() ** 2
            for seed in range(8)])
        se = ratios.std() / math.sqrt(ratios.size)
        assert abs(ratios.mean() - (offset + 1)) < 5 * se

    def test_simulated_asp_matches_noise_averaged_asp(self):
        # clicks in one window share its walk, so est.sigma understates
        # the spread between runs; compare against the spread across seeds
        cfg = replace(InterferometerConfig(), det_efficiency=1.0,
                      phase_noise=PhaseNoiseConfig("random_walk", 0.03))
        expected = noise_averaged_asp(cfg)
        values = np.array([estimate_asp(simulate_counts(cfg, rounds=1 << 19, seed=s)).value
                           for s in range(10)])
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - expected) < 5 * se
        assert expected < 0.25 + 0.5 * math.exp(-0.03 ** 2) - 0.05


class TestNoiseMonotonicity:
    def test_expected_asp_never_increases_with_sigma(self):
        sigmas = [0.0, 0.2, 0.5, 1.0]
        values = []
        for s in sigmas:
            cfg = replace(
                InterferometerConfig(),
                phase_noise=PhaseNoiseConfig("gaussian_drift", s),
            )
            values.append(noise_averaged_asp(cfg))
        assert values[0] == pytest.approx(0.75, abs=1e-12)
        assert all(a >= b - 1e-3 for a, b in zip(values, values[1:]))
        assert values[0] > values[-1] + 0.1

    def test_gaussian_drift_matches_closed_form(self):
        # expected ASP = 1/4 + exp(-sigma^2)/2 for iid per-arm phase noise
        sigma = 0.3
        cfg = replace(
            InterferometerConfig(),
            phase_noise=PhaseNoiseConfig("gaussian_drift", sigma),
        )
        value = noise_averaged_asp(cfg)
        assert value == pytest.approx(0.25 + 0.5 * math.exp(-(sigma**2)), abs=2e-3)


class TestFringeVisibility:
    def test_perfect_interference(self):
        cfg = InterferometerConfig()
        for pair in [(1, 2), (2, 4)]:
            assert fringe_visibility(cfg, pair) == pytest.approx(1.0, abs=1e-6)

    def test_tau_imbalance_two_beam_formula(self):
        cfg = replace(InterferometerConfig(), tau=(1.0, 0.9, 1.0, 1.0))
        expected = 2 * 0.9 / (1 + 0.81)
        assert fringe_visibility(cfg, (1, 2)) == pytest.approx(expected, abs=1e-6)

    def test_matches_detection_pipeline(self):
        # the two-beam fringe equals the full pipeline's first-port probability
        theta = 0.7
        state = np.array([np.exp(1j * theta), 0.0, 1.0, 0.0]) / math.sqrt(2.0)
        p1 = detection_probabilities(state, np.zeros(4))[0]
        assert p1 == pytest.approx(0.25 * (1 + math.cos(theta)), abs=1e-12)

    def test_noise_reduces_visibility(self):
        cfg = replace(
            InterferometerConfig(),
            phase_noise=PhaseNoiseConfig("gaussian_drift", 0.3),
        )
        v = fringe_visibility(cfg, (1, 2))
        assert v == pytest.approx(math.exp(-0.09), abs=5e-3)
        assert v < 1.0

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError):
            fringe_visibility(InterferometerConfig(), (2, 2))
        with pytest.raises(ValueError, match="1..4"):
            fringe_visibility(InterferometerConfig(), (1, 5))

    def test_blocked_pair_is_config_error(self):
        cfg = replace(InterferometerConfig(), tau=(1.0, 1.0, 0.0, 0.0))
        with pytest.raises(ConfigError, match="blocked"):
            fringe_visibility(cfg, (3, 4))
        with pytest.raises(ConfigError, match="blocked"):
            mean_fringe_visibility(cfg)

    def test_gaussian_drift_matches_two_arm_monte_carlo(self):
        # arms 1 and 3 open with unequal transmissivities, iid Gaussian
        # phases on every arm; the first detector sees the fringe
        sigma = 0.5
        tau = np.array([1.0, 0.0, 0.6, 0.0])
        noise = np.random.default_rng(2024).normal(0.0, sigma, size=(200_000, 4))
        fringe = []
        for theta in (0.0, math.pi):  # fringe maximum and minimum
            comps = tau * np.exp(1j * (noise + [theta, 0.0, 0.0, 0.0]))
            amps = comps @ HADAMARD4[0] / np.linalg.norm(tau)
            fringe.append(np.mean(np.abs(amps) ** 2))
        v_mc = (fringe[0] - fringe[1]) / (fringe[0] + fringe[1])
        cfg = replace(
            InterferometerConfig(),
            tau=tuple(tau),
            phase_noise=PhaseNoiseConfig("gaussian_drift", sigma),
        )
        v = fringe_visibility(cfg, (1, 3))
        assert v == pytest.approx(v_mc, abs=5e-3)
        assert v < 2 * 0.6 / 1.36 - 0.1  # well below the noiseless V0


class TestCalibration:
    def test_hits_target_visibility(self):
        cfg = replace(
            InterferometerConfig(),
            phase_noise=PhaseNoiseConfig("gaussian_drift", 0.0),
        )
        sigma = calibrate_drift_sigma(cfg, 0.9989, seed=20)
        calibrated = replace(cfg, phase_noise=PhaseNoiseConfig("gaussian_drift", sigma))
        assert mean_fringe_visibility(calibrated, seed=20) == pytest.approx(
            0.9989, abs=5e-4
        )
        # analytic relation for iid Gaussian noise: V = exp(-sigma^2)
        assert sigma == pytest.approx(math.sqrt(-math.log(0.9989)), abs=5e-3)

    def test_requires_noise_model(self):
        with pytest.raises(ConfigError):
            calibrate_drift_sigma(InterferometerConfig(), 0.9989, seed=0)

    def test_gaussian_drift_is_closed_form(self):
        # V = V0_mean * exp(-sigma^2) with V0_mean over the six arm pairs
        cfg = replace(
            InterferometerConfig(),
            tau=(1.0, 0.9, 1.0, 0.8),
            phase_noise=PhaseNoiseConfig("gaussian_drift", 0.0),
        )
        v0 = mean_fringe_visibility(replace(cfg, phase_noise=PhaseNoiseConfig()))
        sigma = calibrate_drift_sigma(cfg, 0.95)
        assert sigma == pytest.approx(math.sqrt(math.log(v0 / 0.95)), rel=1e-12)
        calibrated = replace(cfg, phase_noise=PhaseNoiseConfig("gaussian_drift", sigma))
        assert mean_fringe_visibility(calibrated) == pytest.approx(0.95, abs=1e-12)

    @pytest.mark.parametrize("model", ["gaussian_drift", "random_walk"])
    def test_rejects_target_not_below_noiseless_visibility(self, model):
        cfg = replace(
            InterferometerConfig(),
            tau=(1.0, 0.5, 1.0, 1.0),
            phase_noise=PhaseNoiseConfig(model, 0.0),
        )
        v0 = mean_fringe_visibility(replace(cfg, phase_noise=PhaseNoiseConfig()))
        assert v0 < 0.9989
        for target in (0.9989, v0):
            with pytest.raises(ConfigError):
                calibrate_drift_sigma(cfg, target, seed=0)

    def test_walk_calibration_reads_target_back(self):
        cfg = replace(
            InterferometerConfig(),
            det_efficiency=1.0,
            phase_noise=PhaseNoiseConfig("random_walk", 0.0),
        )
        sigma = calibrate_drift_sigma(cfg, 0.9989)
        calibrated = replace(cfg, phase_noise=PhaseNoiseConfig("random_walk", sigma))
        assert mean_fringe_visibility(calibrated) == pytest.approx(0.9989, abs=1e-12)
        # the window of STABILIZE_ROUNDS pulses needs a far smaller step than drift
        assert sigma < math.sqrt(-math.log(0.9989)) / 10


class TestTransmissivity:
    def test_tau_imbalance_reaches_the_counts(self):
        # arm 2 at half amplitude lowers the expected ASP from 3/4 to 17/24
        cfg = replace(InterferometerConfig(), det_efficiency=1.0, tau=(1.0, 0.5, 1.0, 1.0))
        expected = noise_averaged_asp(cfg)
        assert expected == pytest.approx(17 / 24, abs=1e-12)
        est = estimate_asp(simulate_counts(cfg, rounds=400_000, seed=3))
        assert abs(est.value - expected) < 5 * est.sigma
        assert est.value < 0.75 - 10 * est.sigma

    def test_damped_table_is_a_distribution_the_counts_follow(self):
        cfg = replace(InterferometerConfig(), det_efficiency=1.0, tau=(1.0, 0.5, 0.8, 1.0),
                      phase_noise=PhaseNoiseConfig("gaussian_drift", 0.4))
        probs = expected_outcome_probabilities(cfg)
        assert np.allclose(probs.sum(axis=2), 1.0, atol=1e-12)
        assert probs.min() > -1e-15
        table = simulate_counts(cfg, rounds=400_000, seed=8)
        cells = table.cells.reshape(16, 2, 4)
        totals = cells.sum(axis=2, keepdims=True)
        se = np.sqrt(probs * (1 - probs) / totals) + 1e-12
        assert np.max(np.abs(cells / totals - probs) / se) < 5

    def test_rejects_tau_blocking_a_protocol_state(self):
        with pytest.raises(ConfigError, match="blocks"):
            replace(InterferometerConfig(), tau=(1.0, 0.0, 0.0, 0.0))


class TestConfig:
    def test_round_trip(self):
        cfg = replace(
            InterferometerConfig(),
            phase_noise=PhaseNoiseConfig("random_walk", 0.01),
            tau=(1.0, 0.5, 1.0, 0.25),
        )
        back = InterferometerConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_is_immutable(self):
        cfg = InterferometerConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.mu = 0.5
        with pytest.raises(FrozenInstanceError):
            cfg.phase_noise.sigma = 0.1

    def test_checked_when_built(self):
        with pytest.raises(ConfigError, match="mu must be positive"):
            InterferometerConfig(mu=-1.0)
        with pytest.raises(ConfigError, match="unknown phase-noise model"):
            PhaseNoiseConfig("pink")

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            InterferometerConfig.from_dict({"mu": 0.2, "bogus": 1})

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            InterferometerConfig.from_dict({"mu": -1.0})
        with pytest.raises(ConfigError):
            InterferometerConfig.from_dict({"det_efficiency": 1.5})
        with pytest.raises(ConfigError):
            InterferometerConfig.from_dict({"phase_noise": {"model": "pink"}})
        with pytest.raises(ConfigError, match="4 transmissivities"):
            InterferometerConfig.from_dict({"tau": [1.0, 1.0]})
        with pytest.raises(ConfigError, match="d=4"):
            InterferometerConfig.from_dict({"d": 5})

    @pytest.mark.parametrize("doc", [
        {"phase_noise": {"model": "gaussian_drift", "sigm": 0.03}},
        {"tau": "1111"},
        {"d": 4.7},
        {"mu": True},
        {"mu": "0.5"},
    ], ids=["sigma-typo", "tau-string", "d-float", "mu-bool", "mu-string"])
    def test_rejects_mistyped_values(self, doc):
        with pytest.raises(ConfigError):
            InterferometerConfig.from_dict(doc)

    # The config bytes that manifests record; integer-valued numbers are
    # stored as floats, so a JSON 1 and 1.0 give the same manifest.
    @pytest.mark.parametrize("doc, text", [
        ({}, '{"d": 4, "mu": 0.2, "det_efficiency": 0.1, "rep_rate": 2000000.0, '
             '"integration_time": 1.0, "phase_noise": {"model": "none", "sigma": 0.0}, '
             '"tau": [1.0, 1.0, 1.0, 1.0], "dark_count_prob": 0.0}'),
        ({"d": 4, "mu": 1, "det_efficiency": 1, "rep_rate": 2000000, "integration_time": 2,
          "phase_noise": {"model": "random_walk", "sigma": 0}, "tau": [1, 1, 1, 1],
          "dark_count_prob": 0},
         '{"d": 4, "mu": 1.0, "det_efficiency": 1.0, "rep_rate": 2000000.0, '
         '"integration_time": 2.0, "phase_noise": {"model": "random_walk", "sigma": 0.0}, '
         '"tau": [1.0, 1.0, 1.0, 1.0], "dark_count_prob": 0.0}'),
    ], ids=["defaults", "every-key-integer-valued"])
    def test_json_bytes_are_pinned(self, doc, text):
        assert json.dumps(InterferometerConfig.from_dict(doc).to_dict()) == text

    @pytest.mark.parametrize("doc", [
        {"mu": "inf"},
        {"mu": "nan"},
        {"rep_rate": "inf"},
        {"integration_time": "nan"},
        {"tau": [1.0, "nan", 1.0, 1.0]},
        {"phase_noise": {"model": "gaussian_drift", "sigma": "nan"}},
        {"phase_noise": {"model": "random_walk", "sigma": "inf"}},
    ], ids=["mu-inf", "mu-nan", "rep_rate-inf", "integration_time-nan", "tau-nan",
            "drift-sigma-nan", "walk-sigma-inf"])
    def test_rejects_non_finite_values(self, doc):
        with pytest.raises(ConfigError):
            InterferometerConfig.from_dict(doc)

    def test_default_rounds(self):
        assert InterferometerConfig().default_rounds() == 2_000_000
