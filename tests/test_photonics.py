import hashlib
import json
import math
import warnings
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubcert.counts import CountsTable, write_counts_csv
from mubcert import photonics
from mubcert.errors import ConfigError
from mubcert.mub import HADAMARD4, hadamard_mub_pair_d4, is_mutually_unbiased, MubPair, Measurement
from mubcert.photonics import (
    MAX_BLOCK_ROUNDS,
    MAX_PHOTON_RATE,
    STABILIZE_ROUNDS,
    InterferometerConfig,
    PhaseNoiseConfig,
    _arm_amplitudes,
    _block_counts,
    _block_rounds,
    _born_cdf,
    _damping,
    _pair_table,
    _poisson_at_least,
    _poisson_table,
    _protocol_tables,
    _walk_phases,
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


# The benchmark's bright-drift device: perfect detectors, drift calibrated
# to a mean fringe visibility of 0.9989, and dark counts.
BRIGHT_DRIFT = replace(InterferometerConfig(), det_efficiency=1.0, dark_count_prob=1e-5,
                       phase_noise=PhaseNoiseConfig("gaussian_drift", 0.0332))


def record_blocks(monkeypatch):
    """Record the pulses of every block that simulate_counts draws."""
    sizes = []
    original = photonics._block_counts

    def counted(config, amps, born, pairs, block_index, n_rounds, seed):
        sizes.append(n_rounds)
        return original(config, amps, born, pairs, block_index, n_rounds, seed)

    monkeypatch.setattr(photonics, "_block_counts", counted)
    return sizes


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


def conditioned_poisson_terms(m, lam, top):
    """Poisson(lam) terms for k = m..top - 1, scaled so the largest is 1."""
    k = np.arange(m, top)
    log_terms = k * math.log(lam) - lam - np.array([math.lgamma(v + 1.0) for v in k])
    return k, np.exp(log_terms - log_terms.max())


class TestPoissonAtLeast:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("lam", [0.02, 0.2, 1.5, 40.0])
    def test_mean_and_share_at_the_minimum(self, m, lam):
        n = 200_000
        x = _poisson_at_least(m, lam, n, np.random.default_rng(4))
        assert x.min() >= m
        # the conditioned pmf from the Poisson terms k >= m, far past the mode
        k, pmf = conditioned_poisson_terms(m, lam, 400)
        pmf /= pmf.sum()
        mean = float(k @ pmf)
        var = float((k - mean) ** 2 @ pmf)
        assert abs(x.mean() - mean) < 5 * math.sqrt(var / n)
        share = float(pmf[0])
        assert abs(np.mean(x == m) - share) < 5 * math.sqrt(share * (1 - share) / n) + 1e-12

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(m=st.sampled_from([1, 3]),
           lam=st.floats(0.0, MAX_PHOTON_RATE, exclude_min=True),
           size=st.integers(0, 300), seed=st.integers(0, 2 ** 32))
    def test_table_cuts_a_tail_below_a_uniform_double_and_draws_one_each(self, m, lam,
                                                                         size, seed):
        cdf = _poisson_table(m, lam)
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
        # the conditioned mass past the table's last entry, m + cdf.size - 1;
        # the slack covers the rounding of the table's own term products
        _, terms = conditioned_poisson_terms(m, lam, m + cdf.size + 400)
        assert terms[cdf.size:].sum() < terms.sum() * 2.0 ** -53 * (1 + 1e-9)
        drawn, plain = np.random.default_rng(seed), np.random.default_rng(seed)
        x = _poisson_at_least(m, lam, size, drawn)
        plain.random(size)
        assert drawn.bit_generator.state == plain.bit_generator.state
        assert x.shape == (size,) and np.all((m <= x) & (x < m + cdf.size))


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
        probs = expected_outcome_probabilities(InterferometerConfig())
        assert probs.shape == (4, 4, 2, 4)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
        assert probs[0, 0, 0, 0] == pytest.approx(0.75, abs=1e-12)
        # the table agrees with the device path, indexed like the counts
        for i in range(4):
            for j in range(4):
                state = encodings.states[i, j]
                for y, phases in enumerate((FIRST_BASIS_PHASES, SECOND_BASIS_PHASES)):
                    device = detection_probabilities(state, phases)
                    assert np.allclose(probs[i, j, y], device, atol=1e-12)


class TestIdealCounts:
    def test_exact_asp(self):
        est = estimate_asp(ideal_expected_counts(60000))
        assert est.value == 0.75

    def test_total_close_to_request(self):
        table = ideal_expected_counts(60000)
        assert abs(table.total() - 60000) <= 32 * 12

    # sha256 of the `simulate --ideal --rounds N` CSV
    @pytest.mark.parametrize("total, digest", [
        (384, "feea76f691c78ee85489b2aa8ccd259a399a7f38b6d233d6916be73f5e72c238"),
        (60000, "9d043a83f441cd20a9b8dd38e90ad2632e93194198f1dc19c35fb68ecddf7032"),
        (123457, "e5d8f2a86f3f92cee4636c109602d7f56d146065bd99f46e51f01d22067e80e0"),
    ], ids=["384", "60000", "123457"])
    def test_csv_bytes_are_pinned(self, tmp_path, total, digest):
        path = tmp_path / "ideal.csv"
        write_counts_csv(ideal_expected_counts(total), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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
        amps = _arm_amplitudes(cfg.tau)
        born = expected_outcome_probabilities(cfg)
        seed = 99
        sizes = [70000, 70000, 60000]
        cells_seq = [_block_counts(cfg, amps, born, None, b, n, seed)
                     for b, n in enumerate(sizes)]
        shuffled_total = np.zeros_like(cells_seq[0])
        for b in (2, 0, 1):
            shuffled_total += _block_counts(cfg, amps, born, None, b, sizes[b], seed)
        assert np.array_equal(shuffled_total, sum(cells_seq))

    def test_dark_counts_add_background(self):
        cfg = replace(InterferometerConfig(), dark_count_prob=0.05)
        noisy = simulate_counts(cfg, rounds=200000, seed=5)
        clean = simulate_counts(InterferometerConfig(), rounds=200000, seed=5)
        assert noisy.total() > clean.total() + 10000

    def test_no_detection_efficiency_leaves_dark_counts_only(self):
        # lam = 0 must pass the drift and walk samplers without a warning
        rounds = 200_000
        gates = 4 * rounds
        for model in ("gaussian_drift", "random_walk"):
            cfg = replace(InterferometerConfig(), det_efficiency=0.0, dark_count_prob=0.01,
                          phase_noise=PhaseNoiseConfig(model, 0.5))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = simulate_counts(cfg, rounds=rounds, seed=8)
            assert abs(table.total() - 0.01 * gates) < 5 * math.sqrt(0.01 * 0.99 * gates)
            est = estimate_asp(table)
            assert abs(est.value - 0.25) < 5 * est.sigma

    @pytest.mark.parametrize("cfg, rounds", [
        (InterferometerConfig(), 3_000_000),
        (BRIGHT_DRIFT, 1_000_000),
    ], ids=["weak-default", "bright-drift"])
    def test_benchmark_runs_take_one_block(self, monkeypatch, cfg, rounds):
        sizes = record_blocks(monkeypatch)
        simulate_counts(cfg, rounds=rounds, seed=1)
        assert sizes == [rounds]

    def test_rounds_beyond_int64_totals_fail_before_any_draw(self, monkeypatch):
        sizes = record_blocks(monkeypatch)
        bright = replace(InterferometerConfig(), mu=40.0, det_efficiency=1.0)
        with pytest.raises(ValueError, match=r"2\*\*62"):
            simulate_counts(bright, rounds=(1 << 62) // 20)
        with pytest.raises(ValueError, match=r"2\*\*62"):
            simulate_counts(InterferometerConfig(), rounds=10 ** 400)
        assert sizes == []

    def test_multiphoton_assignment_keeps_asp(self):
        # bright source, perfect detectors: ASP unaffected by multi-photon pulses
        cfg = replace(InterferometerConfig(), mu=2.0, det_efficiency=1.0)
        est = estimate_asp(simulate_counts(cfg, rounds=100000, seed=17))
        assert abs(est.value - 0.75) < 4 * est.sigma

    # sha256 of the counts CSV for 300k rounds at seed 424242 (sampler
    # "table-5", one block each); any change to the sampler's draw order,
    # decoding or block sizes changes these, and SAMPLER_VERSION must
    # change with them.  The drift case runs the 0/1/2/3+ photon split,
    # the pair table and the event path of the pulses with three or more
    # photons; the walk case draws its clicks per setting, places them at
    # a sorted subset of the block's pulses and sends them down the same
    # event path.
    @pytest.mark.parametrize("changes, digest", [
        (dict(phase_noise=PhaseNoiseConfig(), dark_count_prob=0.0),
         "32371980d7bab992e998ed4888ee5603314eb5e4aa9da0af0bf4426913d94225"),
        (dict(phase_noise=PhaseNoiseConfig("random_walk", 1e-3), dark_count_prob=0.01),
         "435a14752fa69b51c59deedf02d9af3474c2c0a2f4bd968a6dc9d0983bde0d63"),
        (dict(det_efficiency=1.0, dark_count_prob=1e-5,
              phase_noise=PhaseNoiseConfig("gaussian_drift", 0.0332)),
         "822b1c55cf4daa7ec13eef81f76acea63e9b228c947051ebf0bd3f8bb871ea70"),
    ], ids=["default", "random-walk-dark", "drift-bright-dark"])
    def test_sampler_stream_is_pinned(self, tmp_path, changes, digest):
        cfg = replace(InterferometerConfig(), **changes)
        path = tmp_path / "counts.csv"
        write_counts_csv(simulate_counts(cfg, rounds=300_000, seed=424242), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_readme_names_the_sampler_version(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        assert f"`{photonics.SAMPLER_VERSION}`" in readme.read_text()

    def test_per_setting_distributions_match_born_rule(self):
        # catches any (i, j, y) decode swap inside the protocol loop
        table = simulate_counts(InterferometerConfig(), rounds=2_000_000, seed=5)
        probs_exp = expected_outcome_probabilities(InterferometerConfig())
        for i in range(4):
            for j in range(4):
                for y in range(2):
                    row = table.cells[i, j, y]
                    target = i if y == 0 else j
                    assert np.argmax(row) == target
                    emp = row / row.sum()
                    tol = 5 * np.sqrt(0.75 * 0.25 / row.sum())
                    assert np.max(np.abs(emp - probs_exp[i, j, y])) < tol


class _DrawnZero(float):
    """A dark-count probability of 0.0 that reads as true, so _block_counts still draws the gates."""

    def __bool__(self):
        return True


class TestNoDarkDrawAtZero:
    """At dark_count_prob = 0 no gate is drawn, and the stream is that of the draw."""

    def test_binomial_at_zero_leaves_the_generator_unchanged(self):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        gates = rng.binomial(np.array([[0], [5], [10**12]]), 0.0, (3, 4))
        assert gates.dtype == np.int64 and not gates.any()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("noise", [
        PhaseNoiseConfig(),
        PhaseNoiseConfig("gaussian_drift", 0.2),
        PhaseNoiseConfig("random_walk", 0.05),
    ], ids=lambda noise: noise.model)
    def test_block_matches_one_that_draws_the_gates(self, monkeypatch, noise):
        cfg = replace(InterferometerConfig(), det_efficiency=1.0, phase_noise=noise)
        drawn = replace(cfg)
        object.__setattr__(drawn, "dark_count_prob", _DrawnZero(0.0))
        assert drawn.dark_count_prob == 0.0 and drawn.dark_count_prob
        amps = _arm_amplitudes(cfg.tau)
        born = expected_outcome_probabilities(cfg)
        pairs = _pair_table(cfg) if noise.model == "gaussian_drift" else None
        generators = []
        default_rng = np.random.default_rng

        def recorded(seed):
            generators.append(default_rng(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recorded)
        skipped = _block_counts(cfg, amps, born, pairs, 3, 20_000, 11)
        made = _block_counts(drawn, amps, born, pairs, 3, 20_000, 11)
        assert skipped.dtype == made.dtype == np.int64
        assert np.array_equal(skipped, made)
        assert generators[0].integers(2**62) == generators[1].integers(2**62)


class TestBlockRounds:
    """Blocks are whole windows sized by their expected event-path pulses."""

    @pytest.mark.parametrize("model", ["gaussian_drift", "random_walk"])
    @pytest.mark.parametrize("lam", [0.02, 0.2, 1.5, 40.0])
    def test_most_whole_windows_within_the_budget(self, model, lam):
        cfg = replace(InterferometerConfig(), mu=lam, det_efficiency=1.0,
                      phase_noise=PhaseNoiseConfig(model, 0.1))
        # expected event-path photons per pulse: E[N; N >= 3] and E[N]
        if model == "gaussian_drift":
            share = lam * (1.0 - math.exp(-lam) * (1.0 + lam))
        else:
            share = lam
        n = _block_rounds(cfg)
        assert n % STABILIZE_ROUNDS == 0 and STABILIZE_ROUNDS <= n <= MAX_BLOCK_ROUNDS
        if n > STABILIZE_ROUNDS:
            assert n * share <= photonics.BLOCK_EVENTS * (1 + 1e-9)
        if n < MAX_BLOCK_ROUNDS:
            assert (n + STABILIZE_ROUNDS) * share > photonics.BLOCK_EVENTS * (1 - 1e-9)

    @pytest.mark.parametrize("cfg", [
        InterferometerConfig(),
        replace(InterferometerConfig(), phase_noise=PhaseNoiseConfig("random_walk", 0.0)),
        replace(InterferometerConfig(), det_efficiency=0.0,
                phase_noise=PhaseNoiseConfig("gaussian_drift", 0.3)),
    ], ids=["no-noise", "zero-sigma", "no-photons"])
    def test_no_event_path_takes_the_largest_block(self, cfg):
        assert _block_rounds(cfg) == MAX_BLOCK_ROUNDS


def drift_config(sigma, tau=(1.0, 0.7, 1.0, 0.9)):
    return replace(InterferometerConfig(), tau=tau,
                   phase_noise=PhaseNoiseConfig("gaussian_drift", sigma))


class TestPairTable:
    """The joint outcome law of the two photons of one drift pulse."""

    @pytest.mark.parametrize("sigma", [0.0, 0.0332, 0.3, 1.0])
    def test_both_marginals_are_the_born_table(self, sigma):
        cfg = drift_config(sigma)
        pairs = _pair_table(cfg)
        born = expected_outcome_probabilities(cfg).reshape(-1, 4)
        assert pairs.shape == (32, 4, 4)
        assert np.max(np.abs(pairs.sum(axis=2) - born)) < 1e-15
        assert np.max(np.abs(pairs.sum(axis=1) - born)) < 1e-15

    def test_entries_are_never_negative(self):
        # an outcome this config nearly never reaches sums to about -5e-35
        pairs = _pair_table(drift_config(1e-9, tau=(0.0, 1.0, 1.0, 0.3)))
        assert pairs.min() >= 0.0

    def test_without_noise_is_the_outer_product_of_born_rows(self):
        cfg = drift_config(0.0)
        born = expected_outcome_probabilities(cfg).reshape(-1, 4)
        assert np.allclose(_pair_table(cfg), born[:, :, None] * born[:, None, :],
                           rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("sigma", [0.3, 1.0])
    def test_is_symmetric(self, sigma):
        pairs = _pair_table(drift_config(sigma))
        assert np.allclose(pairs, pairs.transpose(0, 2, 1), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("sigma", [0.3, 1.0])
    def test_matches_monte_carlo_over_phases(self, sigma):
        # E[p(b|theta) p(b'|theta)] over drawn phases, each Born row from
        # the tau-weighted kets times the phases, as the event path has it
        cfg = drift_config(sigma)
        states, bras = _protocol_tables()
        ij, y = np.divmod(np.arange(32), 2)
        kets = states[ij] * np.asarray(cfg.tau)
        rng = np.random.default_rng(21)
        draws, chunk = 40_000, 10_000
        total = np.zeros((32, 4, 4))
        total_sq = np.zeros((32, 4, 4))
        for _ in range(draws // chunk):
            phased = kets * np.exp(1j * rng.normal(0.0, sigma, (chunk, 1, 4)))
            probs = np.abs(np.einsum("sbk,nsk->nsb", bras[y], phased)) ** 2
            probs /= probs.sum(axis=-1, keepdims=True)
            products = probs[..., :, None] * probs[..., None, :]
            total += products.sum(axis=0)
            total_sq += (products ** 2).sum(axis=0)
        mean = total / draws
        se = np.sqrt((total_sq / draws - mean ** 2) / draws)
        assert np.all(np.abs(mean - _pair_table(cfg)) < 5 * se + 1e-12)

    @pytest.mark.parametrize("cfg", [BRIGHT_DRIFT, drift_config(0.3), drift_config(1.0)],
                             ids=["bright-drift", "0.3", "1.0"])
    def test_equals_the_stacked_product_bit_for_bit(self, cfg):
        # the former build: the |c|^2 table from np.eye on every call and
        # the first product as a stack of (d, d*d) @ (d*d, d*d) products
        amps = _arm_amplitudes(cfg.tau)
        d = amps.shape[-1]
        outer = (amps[..., :, None] * amps[..., None, :].conj()).reshape(-1, d, d * d)
        eye = np.eye(d)
        c = (eye[:, None, None, None] - eye[None, :, None, None]
             + eye[None, None, :, None] - eye[None, None, None, :])
        moment = np.exp(-0.5 * cfg.phase_noise.sigma ** 2 * np.sum(c * c, axis=-1))
        pairs = (outer @ moment.reshape(d * d, d * d) @ outer.transpose(0, 2, 1)).real
        assert _pair_table(cfg).tobytes() == np.maximum(pairs, 0.0).tobytes()

    def test_built_once_per_simulate_call(self, monkeypatch):
        built = []
        original = photonics._pair_table

        def counted(config):
            built.append(config)
            return original(config)

        monkeypatch.setattr(photonics, "_pair_table", counted)
        monkeypatch.setattr(photonics, "BLOCK_EVENTS", 0)  # one window per block
        sizes = record_blocks(monkeypatch)
        cfg = drift_config(0.3)
        simulate_counts(cfg, rounds=3 * STABILIZE_ROUNDS + 100, seed=3)
        assert sizes == [STABILIZE_ROUNDS] * 3 + [100]
        assert built == [cfg]

    def test_arm_amplitudes_are_built_once_per_call(self):
        # simulate_counts, the Born table and the pair table share one build
        _arm_amplitudes.cache_clear()
        cfg = drift_config(0.3, tau=(1.0, 0.5, 1.0, 0.75))
        simulate_counts(cfg, rounds=1000, seed=3)
        assert _arm_amplitudes.cache_info().misses == 1
        assert not _arm_amplitudes(cfg.tau).flags.writeable


class TestBornCdf:
    @pytest.mark.parametrize("tau", [(1.0, 1.0, 1.0, 1.0), (1.0, 0.7, 1.0, 0.9),
                                     (0.0, 1.0, 1.0, 0.3)])
    def test_equals_cumsum_bit_for_bit_and_ends_at_one(self, tau):
        amps = _arm_amplitudes(tau)
        rng = np.random.default_rng(12)
        pulse_settings = rng.integers(0, 32, 5_000)
        phases = rng.normal(0.0, 1.0, (5_000, 4))
        # the former cumulative rows: np.cumsum along each row
        rotation = np.empty(phases.shape, dtype=complex)
        np.cos(phases, out=rotation.real)
        np.sin(phases, out=rotation.imag)
        probs = np.abs(amps[pulse_settings] @ rotation[:, :, None])[..., 0] ** 2
        cum = np.cumsum(probs, axis=1)
        cum /= cum[:, -1:]
        rows = _born_cdf(amps, pulse_settings, phases)
        assert rows.tobytes() == cum.tobytes()
        assert np.all(rows[:, -1] == 1.0)


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


def assert_matches_per_pulse(cfg, rounds, runs):
    """The sampler's per-cell counts against ``per_pulse_counts`` over ``runs`` seeds."""
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
    # In null comparisons over disjoint seeds (200 per case, 100 for
    # drift-pairs) the largest |z| of a run reached 5.20 (default),
    # 4.67 (drift-dark), 4.38 (walk-dark-bright), 4.85
    # (drift-multiphoton) and 4.06 (drift-pairs); 3 of the 900 runs
    # passed 4.5, none 5.3.  The walk sampler that places clicks at a
    # sorted subset reached 3.78 (walk-dark-bright, 30 runs) and 3.68
    # (walk-sparse-dark, 60 runs); one placing them at consecutive
    # pulses reads 7.3 to 8.1 in walk-sparse-dark.
    assert np.max(np.abs(z)) < 5.5
    # each log variance ratio has a standard deviation near sqrt(4/runs)
    log_ratio = np.log(var_e / var_p)
    assert np.max(np.abs(log_ratio)) < 0.8
    # and their mean one of sqrt(((K_e - 1).mean() + (K_p - 1).mean()) / runs),
    # with K the co-kurtosis of each sampler's standardized counts;
    # for normal counts K - 1 = 2 rho^2, but few counts per cell or a
    # shared walk make them heavier-tailed.  In null comparisons over
    # disjoint seeds the mean over this standard deviation had a spread
    # of 0.87 to 1.23 per case (1.08 over all 200 comparisons, largest
    # 3.64), where sqrt(4/runs * mean rho^2) gave 0.76 to 1.39.  Photons
    # of one drift pulse share its phases, which widens the counts: a
    # sampler drawing them from the averaged table reads about -8 to
    # -12 of them.  Drawing only the two-photon pulses'
    # outcomes independently narrows the counts less; only the
    # many-run drift-pairs case (mostly two-photon pulses among the
    # multi-photon ones) reads it, at about -7 to -11.
    def excess_cokurtosis(counts):
        sq = ((counts - counts.mean(axis=0)) / counts.std(axis=0)) ** 2
        return np.mean(sq.T @ sq / runs - 1)

    sd = np.sqrt((excess_cokurtosis(event) + excess_cokurtosis(pulse)) / runs)
    assert abs(np.mean(log_ratio)) < 5 * sd


class TestSamplerDistribution:
    """The sampler against a pulse-by-pulse model, over seeds."""

    @pytest.mark.parametrize("cfg, rounds, runs", [
        (InterferometerConfig(), 50_000, 200),
        (replace(InterferometerConfig(), det_efficiency=1.0, dark_count_prob=0.01,
                 phase_noise=PhaseNoiseConfig("gaussian_drift", 0.3)), 10_000, 200),
        (replace(InterferometerConfig(), mu=3.0, det_efficiency=0.5, dark_count_prob=0.01,
                 phase_noise=PhaseNoiseConfig("random_walk", 0.02)), 5_000, 200),
        (replace(InterferometerConfig(), mu=3.0, det_efficiency=0.5,
                 phase_noise=PhaseNoiseConfig("gaussian_drift", 1.0)), 5_000, 200),
        (replace(InterferometerConfig(), mu=1.0, det_efficiency=0.5,
                 phase_noise=PhaseNoiseConfig("gaussian_drift", 2.0)), 500, 2000),
        (replace(InterferometerConfig(), dark_count_prob=0.002,
                 phase_noise=PhaseNoiseConfig("random_walk", 0.05)), 20_000, 200),
    ], ids=["default", "drift-dark", "walk-dark-bright", "drift-multiphoton", "drift-pairs",
            "walk-sparse-dark"])
    def test_per_cell_mean_and_variance_match(self, cfg, rounds, runs):
        assert_matches_per_pulse(cfg, rounds, runs)

    @pytest.mark.parametrize("cfg", [
        replace(InterferometerConfig(), mu=3.0, det_efficiency=0.5,
                phase_noise=PhaseNoiseConfig("gaussian_drift", 1.0)),
        replace(InterferometerConfig(), mu=3.0, det_efficiency=0.5, dark_count_prob=0.01,
                phase_noise=PhaseNoiseConfig("random_walk", 0.02)),
    ], ids=["drift", "walk"])
    def test_multi_block_runs_match(self, monkeypatch, cfg):
        # 679 (drift) and 1,536 (walk) event-path photons per window here,
        # so a budget of 256 makes one-window blocks: four whole, one partial
        monkeypatch.setattr(photonics, "BLOCK_EVENTS", 256)
        sizes = record_blocks(monkeypatch)
        simulate_counts(cfg, rounds=5_000, seed=0)
        assert sizes == [STABILIZE_ROUNDS] * 4 + [5_000 - 4 * STABILIZE_ROUNDS]
        assert_matches_per_pulse(cfg, 5_000, 200)

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
            phases = _walk_phases(sigma, events, 4, rng)
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
        events = np.arange(offset, 256 * STABILIZE_ROUNDS, STABILIZE_ROUNDS)  # 256 windows
        ratios = np.concatenate([
            (_walk_phases(sigma, events, 4, np.random.default_rng(seed))
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
        sigma = calibrate_drift_sigma(cfg, 0.9989)
        calibrated = replace(cfg, phase_noise=PhaseNoiseConfig("gaussian_drift", sigma))
        assert mean_fringe_visibility(calibrated) == pytest.approx(
            0.9989, abs=5e-4
        )
        # analytic relation for iid Gaussian noise: V = exp(-sigma^2)
        assert sigma == pytest.approx(math.sqrt(-math.log(0.9989)), abs=5e-3)

    def test_requires_noise_model(self):
        with pytest.raises(ConfigError):
            calibrate_drift_sigma(InterferometerConfig(), 0.9989)

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
                calibrate_drift_sigma(cfg, target)

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
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
        assert probs.min() > -1e-15
        cells = simulate_counts(cfg, rounds=400_000, seed=8).cells
        totals = cells.sum(axis=-1, keepdims=True)
        se = np.sqrt(probs * (1 - probs) / totals) + 1e-12
        assert np.max(np.abs(cells / totals - probs) / se) < 5

    def test_expected_table_has_the_counts_layout(self):
        cfg = replace(InterferometerConfig(), tau=(1.0, 0.5, 0.8, 1.0),
                      phase_noise=PhaseNoiseConfig("gaussian_drift", 0.4))
        table = CountsTable(dim=4, cells=np.rint(1e6 * expected_outcome_probabilities(cfg)))
        assert estimate_asp(table).value == pytest.approx(noise_averaged_asp(cfg), abs=1e-5)

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

    def test_to_dict_is_asdict_with_a_tau_list(self):
        cfg = replace(InterferometerConfig(), phase_noise=PhaseNoiseConfig("random_walk", 0.01),
                      tau=(1.0, 0.5, 1.0, 0.25))
        assert cfg.to_dict() == {**asdict(cfg), "tau": [1.0, 0.5, 1.0, 0.25]}

    def test_is_immutable(self):
        cfg = InterferometerConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.mu = 0.5
        with pytest.raises(FrozenInstanceError):
            cfg.phase_noise.sigma = 0.1

    def test_tau_list_is_stored_as_a_tuple(self):
        cfg = InterferometerConfig(tau=[1, 0.5, 1, 1])
        assert cfg.tau == (1, 0.5, 1, 1) and isinstance(cfg.tau, tuple)
        assert cfg == InterferometerConfig(tau=(1, 0.5, 1, 1))
        assert hash(cfg) == hash(InterferometerConfig(tau=(1, 0.5, 1, 1)))

    def test_checked_when_built(self):
        with pytest.raises(ConfigError, match="mu must be positive"):
            InterferometerConfig(mu=-1.0)
        with pytest.raises(ConfigError, match="unknown phase-noise model"):
            PhaseNoiseConfig("pink")

    # rep_rate * integration_time must round to 1..2**63 - 1 pulses
    @pytest.mark.parametrize("doc", [
        {"rep_rate": 0.1},
        {"rep_rate": 1e300},
        {"rep_rate": 1e308, "integration_time": 10},
    ], ids=["empty", "past-int64", "past-float64"])
    def test_rejects_unusable_pulse_window(self, doc):
        with pytest.raises(ConfigError, match="pulses"):
            InterferometerConfig.from_dict(doc)

    def test_photon_rate_is_capped(self):
        # built, never sampled: near the cap a block holds millions of photons
        assert InterferometerConfig(mu=80.0, det_efficiency=0.5).mu == 80.0
        with pytest.raises(ConfigError, match="at most 40"):
            InterferometerConfig(mu=41.0, det_efficiency=1.0)

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
