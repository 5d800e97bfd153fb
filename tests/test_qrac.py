import numpy as np
import pytest

from mubcert.counts import CountsTable
from mubcert.errors import EmptyCell, NotMub
from mubcert.mub import (
    Measurement,
    MubPair,
    fourier_mub_pair,
    hadamard_mub_pair_d4,
)
from mubcert.qrac import (
    asp,
    asp_from_density,
    brute_force_optimal_asp,
    correct_outcomes,
    estimate_asp,
    optimal_states,
    quantum_optimum,
)


@pytest.fixture(scope="module")
def d4_pair():
    return hadamard_mub_pair_d4()


@pytest.fixture(scope="module")
def d4_optimal(d4_pair):
    return optimal_states(d4_pair)


class TestOptimalStates:
    def test_psi_11(self, d4_optimal):
        expected = np.array([0, 1, 1, 1]) / np.sqrt(3)
        assert np.allclose(d4_optimal.states[0, 0], expected, atol=1e-12)

    def test_amplitude_pattern(self, d4_optimal):
        # every encoding has exactly one zero amplitude, three of modulus 1/sqrt(3)
        for i in range(4):
            for j in range(4):
                mags = np.sort(np.abs(d4_optimal.states[i, j]))
                assert mags[0] < 1e-12
                assert np.allclose(mags[1:], 1 / np.sqrt(3), atol=1e-12)

    def test_normalization(self, d4_optimal):
        norms = np.linalg.norm(d4_optimal.states, axis=2)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_rejects_non_mub_pair(self):
        comp = Measurement.projective(np.eye(4, dtype=complex))
        with pytest.raises(NotMub):
            optimal_states(MubPair(first=comp, second=comp))

    def test_complex_pair_matches_oracle(self):
        # phase-factor generalization checked against the eigenvector optimum
        pair = fourier_mub_pair(3)
        value = asp(optimal_states(pair), pair)
        oracle, _ = brute_force_optimal_asp(pair)
        assert value == pytest.approx(oracle, abs=1e-10)


class TestAsp:
    def test_optimal_value(self, d4_pair, d4_optimal):
        assert asp(d4_optimal, d4_pair) == pytest.approx(0.75, abs=1e-12)

    def test_maximally_mixed_encodings(self, d4_pair):
        rhos = np.broadcast_to(np.eye(4) / 4, (4, 4, 4, 4)).copy()
        assert asp_from_density(rhos, d4_pair) == pytest.approx(0.25, abs=1e-12)

    def test_identical_bases_optimum(self):
        comp = Measurement.projective(np.eye(4, dtype=complex))
        pair = MubPair(first=comp, second=comp)
        value, _ = brute_force_optimal_asp(pair)
        assert value == pytest.approx(0.625, abs=1e-12)

    def test_depolarization_linearity(self, d4_pair, d4_optimal):
        # ASP(eta) = eta * ASP(1) + (1 - eta)/d exactly
        d = 4
        pure = np.einsum("ija,ijb->ijab", d4_optimal.states, d4_optimal.states.conj())
        mixed = np.broadcast_to(np.eye(d) / d, (d, d, d, d))
        for eta in (0.0, 0.3, 0.8, 1.0):
            rhos = eta * pure + (1 - eta) * mixed
            expected = eta * 0.75 + (1 - eta) / d
            assert asp_from_density(rhos, d4_pair) == pytest.approx(expected, abs=1e-12)


class TestQuantumOptimum:
    def test_values(self):
        assert quantum_optimum(4) == pytest.approx(0.75, abs=1e-15)
        assert quantum_optimum(2) == pytest.approx(0.8535533905932737, abs=1e-12)
        assert quantum_optimum(9) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            quantum_optimum(1)


class TestBruteForceOracle:
    def test_d4_pair(self, d4_pair, d4_optimal):
        value, table = brute_force_optimal_asp(d4_pair)
        assert value == pytest.approx(0.75, abs=1e-10)
        assert value == pytest.approx(asp(d4_optimal, d4_pair), abs=1e-10)
        assert asp(table, d4_pair) == pytest.approx(value, abs=1e-10)

    def test_fourier_d2(self):
        value, _ = brute_force_optimal_asp(fourier_mub_pair(2))
        assert value == pytest.approx(quantum_optimum(2), abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_oracle_equivalence(self, d):
        pair = fourier_mub_pair(d)
        direct = asp(optimal_states(pair), pair)
        oracle, _ = brute_force_optimal_asp(pair)
        assert direct == pytest.approx(oracle, abs=1e-10)
        assert direct == pytest.approx(quantum_optimum(d), abs=1e-10)


def _counts_from_probs(probs, per_setting, rng=None):
    """Table with per-setting totals; sampled multinomially or exact-rounded."""
    d = probs.shape[0]
    table = CountsTable.zeros(d)
    for i in range(d):
        for j in range(d):
            for y in range(2):
                p = probs[i, j, y]
                if rng is None:
                    table.cells[i, j, y] = np.round(per_setting * p).astype(np.int64)
                else:
                    table.cells[i, j, y] = rng.multinomial(per_setting, p)
    return table


def _ideal_probs(d4_pair, enc):
    d = 4
    probs = np.empty((d, d, 2, d))
    for i in range(d):
        for j in range(d):
            psi = enc.states[i, j]
            for b in range(d):
                probs[i, j, 0, b] = np.abs(np.vdot(d4_pair.first.basis_vectors()[b], psi)) ** 2
                probs[i, j, 1, b] = np.abs(np.vdot(d4_pair.second.basis_vectors()[b], psi)) ** 2
    return probs


class TestCorrectOutcomes:
    def test_y1_picks_i_and_y2_picks_j(self):
        # every entry distinct, so a swapped index picks a different value
        table = np.arange(3 * 3 * 2 * 3).reshape(3, 3, 2, 3)
        picked = correct_outcomes(table)
        assert picked.shape == (3, 3, 2)
        for i in range(3):
            for j in range(3):
                assert picked[i, j, 0] == table[i, j, 0, i]
                assert picked[i, j, 1] == table[i, j, 1, j]


class TestEstimateAsp:
    def test_exact_ideal_counts(self, d4_pair, d4_optimal):
        probs = _ideal_probs(d4_pair, d4_optimal)
        table = _counts_from_probs(probs, per_setting=10**6)
        est = estimate_asp(table)
        assert abs(est.value - 0.75) <= 2 * est.sigma
        assert est.value == pytest.approx(0.75, abs=1e-6)

    def test_uniform_counts(self):
        table = CountsTable(dim=4, cells=np.full((4, 4, 2, 4), 250, dtype=np.int64))
        est = estimate_asp(table)
        assert est.value == pytest.approx(0.25, abs=1e-12)

    def test_empty_setting_raises(self):
        table = CountsTable(dim=4, cells=np.full((4, 4, 2, 4), 5, dtype=np.int64))
        table.cells[2, 1, 1, :] = 0
        with pytest.raises(EmptyCell):
            estimate_asp(table)

    def test_convergence_within_four_sigma(self, d4_pair, d4_optimal):
        probs = _ideal_probs(d4_pair, d4_optimal)
        rng = np.random.default_rng(2024)
        hits = 0
        trials = 200
        for _ in range(trials):
            table = _counts_from_probs(probs, per_setting=400, rng=rng)
            est = estimate_asp(table)
            if abs(est.value - 0.75) < 4 * est.sigma:
                hits += 1
        assert hits >= trials - 1

    def test_value_matches_per_input_average(self, d4_pair, d4_optimal):
        probs = _ideal_probs(d4_pair, d4_optimal)
        table = _counts_from_probs(probs, per_setting=1200, rng=np.random.default_rng(5))
        est = estimate_asp(table)
        assert est.value == pytest.approx(float(np.mean(est.per_input)), abs=1e-14)

    def test_matches_explicit_loop_on_irregular_table(self):
        # non-uniform totals and asymmetric counts pin the index conventions
        rng = np.random.default_rng(0)
        table = CountsTable(dim=4, cells=rng.integers(1, 50, (4, 4, 2, 4)))
        est = estimate_asp(table)
        cell_vars = []
        values = []
        for i in range(4):
            for j in range(4):
                for y in range(2):
                    target = i if y == 0 else j
                    total = table.cells[i, j, y].sum()
                    p = table.cells[i, j, y, target] / total
                    assert est.per_input[i, j, y] == pytest.approx(p, abs=1e-15)
                    values.append(p)
                    cell_vars.append(p * (1 - p) / total)
        assert est.value == pytest.approx(float(np.mean(values)), abs=1e-15)
        assert est.sigma == pytest.approx(float(np.sqrt(np.sum(cell_vars)) / 32), abs=1e-15)
