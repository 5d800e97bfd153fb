import hashlib
import json

import numpy as np
import pytest

from mubcert.cli import _pair_metrics
from mubcert.errors import NotHermitian, NotProjective, NotPSD
from mubcert.linalg import validate_povm
from mubcert.mub import (
    HADAMARD4,
    Measurement,
    MubPair,
    depolarized_pair,
    document_json,
    fourier_mub_pair,
    hadamard_mub_pair_d4,
    is_mutually_unbiased,
    max_sqrt_overlap,
    mub_pair_to_dict,
    norm_sum,
    overlap_entropy,
    overlap_matrix,
    random_unitary,
)
from mubcert.qrac import optimal_states


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
    return document_json(mub_pair_to_dict(pair))


def effects_of(doc):
    """A measurement document's effects, parsed without the library."""
    entries = np.array(doc["effects"], dtype=float)
    return entries[..., 0] + 1j * entries[..., 1]


class TestSerialization:
    @pytest.mark.parametrize("pair", [hadamard_mub_pair_d4(), fourier_mub_pair(5)],
                             ids=["hadamard-d4", "fourier-5"])
    def test_document_determines_effects_exactly(self, pair):
        doc = json.loads(to_json(pair))
        assert doc["construction"] == pair.construction
        for key, meas in (("first", pair.first), ("second", pair.second)):
            assert doc[key]["dim"] == pair.dim
            assert np.array_equal(effects_of(doc[key]), meas.effects)

    # sha256 of the pair document as ``mub`` writes it; a digest changes
    # only when the document is meant to change
    DIGESTS = {
        "hadamard-d4": "7d7e1d2431a5e617ad729bf8e5274fd9600cc00b32ac491e749a5f69d6b89e61",
        2: "a36e9906bb260ccf626b4c166c2aa4c50b090231cd215f007c710290dae388e5",
        3: "90679984da5d0ce2190b5744f5e7e2273f178f3a42228392e09a1e8e55dc9664",
        4: "c9d8ac12105543286221791bac274e0d05f03a4ff819fee10ae1e5fb3f540dc9",
        5: "d16963928802ea66cd7170be60cdc37de34e3a2b43652b8129f10c005ba5ec5e",
        6: "c23a7f5f34f44bd535a5d1c6f8dea368782efa85d4481cc0936cfe4ada7e9a29",
        7: "a1614ac3b4452d053dca463585d50bfa4c3c49997eb59df4a3702455a2fb6d49",
        8: "cc4517daec1f190e725c1a4cb21fd838b808665c88befe2186618954047bc5bb",
    }

    @pytest.mark.parametrize("construction", list(DIGESTS))
    def test_document_bytes_are_pinned(self, construction):
        pair = (hadamard_mub_pair_d4() if construction == "hadamard-d4"
                else fourier_mub_pair(construction))
        digest = hashlib.sha256(to_json(pair).encode()).hexdigest()
        assert digest == self.DIGESTS[construction]

    @pytest.mark.parametrize("construction", list(DIGESTS))
    def test_writer_matches_stdlib_json(self, construction):
        pair = (hadamard_mub_pair_d4() if construction == "hadamard-d4"
                else fourier_mub_pair(construction))
        doc = mub_pair_to_dict(pair)
        listed = {key: ({**value, "effects": value["effects"].tolist()}
                        if isinstance(value, dict) else value)
                  for key, value in doc.items()}
        assert to_json(pair) == json.dumps(listed, indent=2, allow_nan=False)

    # arrays on which a writer that formats each distinct value once could
    # go wrong: zeros of both signs (equal as floats, not as text),
    # subnormals, and values that are all distinct
    ARRAYS = {
        "signed-zeros": np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 1.0]]),
        "subnormals": np.array([5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
                                2.2250738585072014e-308, 0.0, 5e-324]),
        "all-distinct": np.random.default_rng(7).standard_normal((3, 4, 2, 5)),
    }

    @pytest.mark.parametrize("name", list(ARRAYS))
    def test_writer_matches_stdlib_json_on_arrays(self, name):
        array = self.ARRAYS[name]
        doc = {"construction": name, "first": {"dim": 1, "effects": array}}
        listed = {**doc, "first": {"dim": 1, "effects": array.tolist()}}
        assert document_json(doc) == json.dumps(listed, indent=2, allow_nan=False)
        assert document_json(array[..., :1]) == json.dumps(array[..., :1].tolist(), indent=2)

    def test_writer_rejects_non_finite(self):
        with pytest.raises(ValueError):
            document_json({"effects": np.array([[0.5, np.inf]])})


class TestEffectsOnlyMeasurement:
    """A projective measurement given only by its effects has no kets."""

    @pytest.fixture
    def effects_only(self, d4_pair):
        return MubPair(*(Measurement(dim=4, effects=m.effects)
                         for m in (d4_pair.first, d4_pair.second)))

    def test_basis_vectors_raises(self, effects_only):
        assert is_mutually_unbiased(effects_only, tol=1e-9)
        with pytest.raises(NotProjective):
            effects_only.first.basis_vectors()

    def test_optimal_states_raises(self, effects_only):
        with pytest.raises(NotProjective):
            optimal_states(effects_only)


class TestDepolarizedPair:
    def test_still_povm(self, d4_pair):
        noisy = depolarized_pair(d4_pair, 0.95)
        assert validate_povm(noisy.first.effects, tol=1e-9)
        assert validate_povm(noisy.second.effects, tol=1e-9)


def from_effects(meas):
    """The same measurement given by its effects alone."""
    return Measurement(dim=meas.dim, effects=meas.effects)


class TestFactorFormulas:
    """Every figure of merit reads the same number from kets as from effects."""

    def test_kets_and_effects_agree(self, d4_pair, monkeypatch):
        rng = np.random.default_rng(5)
        f5 = fourier_mub_pair(5)
        u = random_unitary(5, rng)
        rotated = MubPair(*(Measurement.projective(m.basis_vectors() @ u.T)
                            for m in (f5.first, f5.second)))
        pairs = {"hadamard-d4": d4_pair, "rotated-fourier-5": rotated,
                 **{f"fourier-{d}": fourier_mub_pair(d) for d in range(2, 9)}}
        for name, pair in pairs.items():
            from_kets = _pair_metrics(pair)
            for first, second in ((from_effects(pair.first), from_effects(pair.second)),
                                  (pair.first, from_effects(pair.second)),
                                  (from_effects(pair.first), pair.second)):
                other = _pair_metrics(MubPair(first=first, second=second))
                assert other.pop("mutually_unbiased") is from_kets["mutually_unbiased"], name
                for key, value in other.items():
                    assert abs(value - from_kets[key]) <= 1e-12, (name, key)

        def no_root(*args, **kwargs):
            raise AssertionError("a pair built from kets took a square root")

        monkeypatch.setattr("mubcert.mub.psd_sqrt", no_root)
        assert _pair_metrics(fourier_mub_pair(64))["mutually_unbiased"] is True


class TestPovmChecks:
    def test_pair_whose_effects_do_not_sum_to_identity(self):
        half = Measurement.projective(np.eye(2, dtype=complex)[:1].repeat(2, axis=0))
        comp = Measurement.projective(np.eye(2, dtype=complex))
        with pytest.raises(NotProjective, match="do not form a POVM"):
            MubPair(first=comp, second=half)

    def test_non_hermitian_effect(self):
        effects = np.stack([np.eye(2) / 2, np.eye(2) / 2]).astype(complex)
        effects[0, 0, 1] = 0.1
        effects[1, 0, 1] = -0.1
        with pytest.raises(NotHermitian):
            Measurement(dim=2, effects=effects)

    def test_indefinite_effect(self):
        effects = np.stack([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])])
        with pytest.raises(NotPSD):
            Measurement(dim=2, effects=effects)
