import json

import numpy as np
import pytest

from mubcert.errors import NotProjective
from mubcert.linalg import validate_povm
from mubcert.mub import (
    HADAMARD4,
    Measurement,
    MubPair,
    depolarized_pair,
    fourier_mub_pair,
    hadamard_mub_pair_d4,
    is_mutually_unbiased,
    max_sqrt_overlap,
    mub_pair_from_dict,
    mub_pair_to_dict,
    norm_sum,
    overlap_entropy,
    overlap_matrix,
    random_unitary,
)


@pytest.fixture(scope="module")
def d4_pair():
    return hadamard_mub_pair_d4()


class TestHadamardPairD4:
    def test_first_columns(self, d4_pair):
        a = d4_pair.first.basis_vectors()
        assert np.allclose(a[0], 0.5 * np.ones(4))
        assert np.allclose(a[1], 0.5 * np.array([1, 1, -1, -1]))

    def test_second_columns(self, d4_pair):
        b = d4_pair.second.basis_vectors()
        assert np.allclose(b[0], 0.5 * np.array([-1, 1, 1, 1]))

    def test_all_overlaps_quarter(self, d4_pair):
        a = d4_pair.first.basis_vectors()
        b = d4_pair.second.basis_vectors()
        overlaps = np.abs(a.conj() @ b.T) ** 2
        assert np.allclose(overlaps, 0.25, atol=1e-12)

    def test_first_basis_is_the_splitter_matrix(self, d4_pair):
        assert np.allclose(d4_pair.first.basis_vectors().T.real, HADAMARD4)


class TestFourierPair:
    def test_d2_is_pauli_xz_pair(self):
        pair = fourier_mub_pair(2)
        second = pair.second.basis_vectors()
        assert np.allclose(second[0], np.array([1, 1]) / np.sqrt(2))
        assert np.allclose(second[1], np.array([1, -1]) / np.sqrt(2))

    def test_d3_overlaps(self):
        pair = fourier_mub_pair(3)
        a = pair.first.basis_vectors()
        b = pair.second.basis_vectors()
        overlaps = np.abs(a.conj() @ b.T) ** 2
        assert np.max(np.abs(overlaps - 1.0 / 3.0)) < 1e-12

    def test_d4_unbiased(self):
        assert is_mutually_unbiased(fourier_mub_pair(4), tol=1e-9)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_unbiased_small_dimensions(self, d):
        assert is_mutually_unbiased(fourier_mub_pair(d), tol=1e-9)

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            fourier_mub_pair(1)


class TestIsMutuallyUnbiased:
    def test_d4_pair(self, d4_pair):
        assert is_mutually_unbiased(d4_pair, tol=1e-9)

    def test_identical_bases(self):
        comp = Measurement.projective(np.eye(2, dtype=complex))
        pair = MubPair(first=comp, second=comp)
        assert not is_mutually_unbiased(pair, tol=1e-9)

    def test_fourier_d5(self):
        assert is_mutually_unbiased(fourier_mub_pair(5), tol=1e-9)

    def test_rejects_non_projective(self):
        trivial = Measurement(dim=2, effects=np.stack([np.eye(2) / 2, np.eye(2) / 2]))
        comp = Measurement.projective(np.eye(2, dtype=complex))
        with pytest.raises(NotProjective):
            is_mutually_unbiased(MubPair(first=trivial, second=comp), tol=1e-9)


class TestOverlapEntropy:
    def test_d4_pair_maximal(self, d4_pair):
        assert overlap_entropy(d4_pair) == pytest.approx(4.0, abs=1e-10)

    def test_identical_bases(self):
        comp = Measurement.projective(np.eye(4, dtype=complex))
        pair = MubPair(first=comp, second=comp)
        assert overlap_entropy(pair) == pytest.approx(2.0, abs=1e-10)

    def test_fourier_d2(self):
        assert overlap_entropy(fourier_mub_pair(2)) == pytest.approx(2.0, abs=1e-10)

    def test_maximum_iff_unbiased(self, d4_pair):
        # a slightly rotated second basis loses unbiasedness and entropy
        theta = 0.07
        rot = np.eye(4, dtype=complex)
        rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        perturbed = MubPair(
            first=d4_pair.first,
            second=Measurement.projective(d4_pair.second.basis_vectors() @ rot.T),
        )
        assert not is_mutually_unbiased(perturbed, tol=1e-9)
        assert overlap_entropy(perturbed) < 4.0 - 1e-6


class TestNormSum:
    def test_projective_d4(self, d4_pair):
        assert norm_sum(d4_pair.first) == pytest.approx(4.0, abs=1e-10)
        assert norm_sum(d4_pair.second) == pytest.approx(4.0, abs=1e-10)

    def test_trivial_povm(self):
        trivial = Measurement(dim=4, effects=np.stack([np.eye(4) / 4] * 4))
        assert norm_sum(trivial) == pytest.approx(1.0, abs=1e-12)

    def test_depolarized_closed_form(self, d4_pair):
        # eta*P + (1-eta)*I/d has top eigenvalue eta + (1-eta)/d per effect
        eta = 0.9
        noisy = depolarized_pair(d4_pair, eta)
        assert norm_sum(noisy.first) == pytest.approx(3.7, abs=1e-10)

    def test_range_for_random_povms(self):
        rng = np.random.default_rng(42)
        d = 3
        for _ in range(5):
            g = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
            raw = np.einsum("kij,klj->kil", g, g.conj())
            total = raw.sum(axis=0)
            w, v = np.linalg.eigh(total)
            inv_root = (v / np.sqrt(w)) @ v.conj().T
            effects = np.einsum("ab,kbc,cd->kad", inv_root, raw, inv_root)
            meas = Measurement(dim=d, effects=effects)
            assert validate_povm(effects, tol=1e-8)
            assert 1.0 - 1e-9 <= norm_sum(meas) <= d + 1e-9


class TestMaxSqrtOverlap:
    def test_d4_pair(self, d4_pair):
        assert max_sqrt_overlap(d4_pair) == pytest.approx(0.5, abs=1e-10)

    def test_identical_bases(self):
        comp = Measurement.projective(np.eye(3, dtype=complex))
        assert max_sqrt_overlap(MubPair(first=comp, second=comp)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_fourier_d2(self):
        assert max_sqrt_overlap(fourier_mub_pair(2)) == pytest.approx(
            1.0 / np.sqrt(2), abs=1e-10
        )

    def test_global_unitary_invariance(self, d4_pair):
        rng = np.random.default_rng(9)
        base = max_sqrt_overlap(d4_pair)
        for _ in range(3):
            u = random_unitary(4, rng)
            first, second = (
                Measurement(dim=4, effects=np.einsum("ab,kbc,dc->kad", u, m.effects, u.conj()))
                for m in (d4_pair.first, d4_pair.second))
            rotated = MubPair(first=first, second=second)
            assert abs(max_sqrt_overlap(rotated) - base) < 1e-10


class TestOverlapDistribution:
    def test_sums_to_dimension(self, d4_pair):
        total = overlap_matrix(d4_pair).sum()
        assert total == pytest.approx(4.0, abs=1e-10)
        assert (overlap_matrix(d4_pair) / 4).sum() == pytest.approx(1.0, abs=1e-10)


def to_json(pair):
    """The pair document as the ``mub`` command writes it."""
    return json.dumps(mub_pair_to_dict(pair), indent=2)


def from_json(text):
    return mub_pair_from_dict(json.loads(text))


class TestSerialization:
    def test_round_trip_bit_exact(self, d4_pair):
        text = to_json(d4_pair)
        back = from_json(text)
        assert np.array_equal(back.first.effects, d4_pair.first.effects)
        assert np.array_equal(back.second.effects, d4_pair.second.effects)
        assert back.construction == d4_pair.construction
        # a second round trip produces identical text
        assert to_json(back) == text

    def test_round_trip_complex_pair(self):
        pair = fourier_mub_pair(5)
        back = from_json(to_json(pair))
        assert np.array_equal(back.second.effects, pair.second.effects)
        assert json.loads(to_json(pair))["first"]["dim"] == 5


class TestDepolarizedPair:
    def test_still_povm(self, d4_pair):
        noisy = depolarized_pair(d4_pair, 0.95)
        assert validate_povm(noisy.first.effects, tol=1e-9)
        assert validate_povm(noisy.second.effects, tol=1e-9)
