import hashlib
import math

import numpy as np
import pytest

from mubcert.certify import (
    bound_entropic,
    bound_incompatibility,
    bound_max_sqrt_overlap,
    bound_norm_sum,
    bound_overlap_entropy,
    full_certificate,
    min_asp_for_nontrivial_eta,
    mub_incompat_value,
    norm_sum_threshold,
    propagate_error,
    report_table,
)
from mubcert.errors import (
    BelowThreshold,
    BoundInapplicableInWindow,
    DenominatorNonpositive,
    OutOfRange,
)
from mubcert.mub import (
    depolarized_pair,
    hadamard_mub_pair_d4,
    max_sqrt_overlap,
    norm_sum,
    overlap_entropy,
)
from mubcert.qrac import AspEstimate, asp_from_density, optimal_states, quantum_optimum

# Observed ASP of the d=4 experiment and the certified values it implies.
P_OBS = 0.74924
SIGMA_OBS = 0.00011


class TestOverlapEntropyBound:
    def test_regression_value(self):
        assert bound_overlap_entropy(P_OBS, 4) == pytest.approx(3.99122, abs=5e-4)

    def test_optimum_hits_maximum(self):
        assert bound_overlap_entropy(0.75, 4) == pytest.approx(4.0, abs=1e-12)

    def test_formula_at_low_asp(self):
        assert bound_overlap_entropy(0.6, 4) == pytest.approx(
            2 * math.log2(8 * 0.2), abs=1e-12
        )

    def test_clamped_at_zero(self):
        assert bound_overlap_entropy(0.51, 4) == 0.0

    def test_domain(self):
        with pytest.raises(OutOfRange):
            bound_overlap_entropy(0.5, 4)
        with pytest.raises(OutOfRange):
            bound_overlap_entropy(1.01, 4)


class TestNormSumBound:
    def test_regression_value(self):
        assert bound_norm_sum(P_OBS, 4) == pytest.approx(3.95749, abs=1e-3)

    def test_optimum_hits_maximum(self):
        assert bound_norm_sum(0.75, 4) == pytest.approx(4.0, abs=1e-12)

    def test_threshold_value(self):
        # the discriminant vanishes at the threshold
        p0 = norm_sum_threshold(4)
        assert p0 == pytest.approx(0.7420614591, abs=1e-9)
        assert bound_norm_sum(p0, 4) == pytest.approx(4 - (2 + math.sqrt(2)) / 4, abs=1e-9)

    def test_below_threshold_raises(self):
        with pytest.raises(BelowThreshold):
            bound_norm_sum(0.74, 4)


class TestMaxSqrtOverlapBound:
    def test_optimum(self):
        assert bound_max_sqrt_overlap(0.75, 4) == pytest.approx(0.5, abs=1e-12)

    def test_regression_value(self):
        # direct formula evaluation, cross-checked below by reproducing the
        # reported incompatibility bound through the certified extremes
        assert bound_max_sqrt_overlap(P_OBS, 4) == pytest.approx(0.649362, abs=1e-4)

    def test_domain(self):
        with pytest.raises(OutOfRange):
            bound_max_sqrt_overlap(0.76, 4)
        with pytest.raises(OutOfRange):
            bound_max_sqrt_overlap(0.5, 4)

    def test_structural_identity_with_entropic(self):
        for p in np.linspace(0.55, 0.75, 41):
            s = bound_max_sqrt_overlap(p, 4)
            h = bound_entropic(p, 4)
            if 0.0 < h < 2.0:
                assert h == pytest.approx(-2 * math.log2(s), abs=1e-12)


class TestEntropicBound:
    def test_regression_value(self):
        assert bound_entropic(P_OBS, 4) == pytest.approx(1.24581, abs=1e-3)

    def test_optimum(self):
        assert bound_entropic(0.75, 4) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_exact_log_d_at_special_point(self, d):
        p = 0.5 + 0.5 / math.sqrt(d)
        assert bound_entropic(p, d) == pytest.approx(math.log2(d), abs=1e-12)

    def test_clamped_to_zero(self):
        assert bound_entropic(0.70, 4) == 0.0


class TestIncompatibilityBound:
    def test_mub_point(self):
        assert bound_incompatibility(4.0, 0.5, 4) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_regression_value(self):
        eta = bound_incompatibility(
            bound_norm_sum(P_OBS, 4), bound_max_sqrt_overlap(P_OBS, 4), 4
        )
        assert eta == pytest.approx(0.798757, abs=1e-3)

    def test_trivial_cap(self):
        assert bound_incompatibility(4.0, 1.0, 4) == 1.0

    def test_denominator_guard(self):
        with pytest.raises(DenominatorNonpositive):
            bound_incompatibility(1.0, 0.5, 4)


class TestMubIncompatValue:
    def test_values(self):
        assert mub_incompat_value(4) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert mub_incompat_value(2) == pytest.approx(0.7071067811865476, abs=1e-9)

    def test_decreases_towards_half(self):
        values = [mub_incompat_value(d) for d in range(2, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.5


class TestPropagateError:
    def test_hs_error(self):
        err = propagate_error("hs", P_OBS, SIGMA_OBS, 4)
        assert 0.00127 <= err <= 0.00131
        # analytic slope 4 / (ln2 * (2p-1))
        analytic = 4 / (math.log(2) * (2 * P_OBS - 1)) * SIGMA_OBS
        assert err == pytest.approx(analytic, rel=1e-4)

    def test_norm_error(self):
        assert propagate_error("norm_sum", P_OBS, SIGMA_OBS, 4) == pytest.approx(
            0.0065, abs=5e-4
        )

    def test_zero_sigma(self):
        for bid in ("hs", "norm_sum", "smax", "entropic"):
            assert propagate_error(bid, P_OBS, 0.0, 4) == 0.0

    def test_inapplicable_raises(self):
        with pytest.raises(BoundInapplicableInWindow):
            propagate_error("norm_sum", 0.70, 1e-4, 4)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            propagate_error("nonsense", P_OBS, SIGMA_OBS, 4)


class TestSquareRootEdges:
    """Where a slope is infinite, sigma is the one-sigma difference into the interval."""

    @pytest.mark.parametrize("bound_id, f", [("smax", bound_max_sqrt_overlap),
                                             ("entropic", bound_entropic)])
    def test_backward_difference_at_optimum(self, bound_id, f):
        pq = quantum_optimum(4)
        assert propagate_error(bound_id, pq, 1e-3, 4) == abs(f(pq, 4) - f(pq - 1e-3, 4))

    def test_forward_difference_at_norm_sum_threshold(self):
        p = float(np.nextafter(norm_sum_threshold(4), 1.0))
        err = propagate_error("norm_sum", p, 1e-3, 4)
        assert err == abs(bound_norm_sum(p + 1e-3, 4) - bound_norm_sum(p, 4))
        assert math.isfinite(err)


class TestFullCertificate:
    def test_reported_numbers(self):
        report = full_certificate(AspEstimate(P_OBS, SIGMA_OBS), 4)
        assert report.hs_lower.value == pytest.approx(3.99122, abs=5e-4)
        assert report.norm_sum_lower.value == pytest.approx(3.95749, abs=1e-3)
        assert report.incompat_upper.value == pytest.approx(0.798757, abs=1e-3)
        assert report.entropic_lower.value == pytest.approx(1.24581, abs=1e-3)
        assert report.hs_lower.sigma == pytest.approx(0.00131, rel=0.10)
        assert report.norm_sum_lower.sigma == pytest.approx(0.00649, rel=0.10)
        assert report.incompat_upper.sigma == pytest.approx(0.010997, rel=0.10)
        assert report.entropic_lower.sigma == pytest.approx(0.04886, rel=0.10)

    def test_ideal_point(self):
        report = full_certificate(AspEstimate(0.75, 0.0), 4)
        values = (
            report.hs_lower.value,
            report.norm_sum_lower.value,
            report.smax_upper.value,
            report.incompat_upper.value,
            report.entropic_lower.value,
        )
        ideals = (4.0, 4.0, 0.5, 2.0 / 3.0, 2.0)
        for got, want in zip(values, ideals):
            assert got == pytest.approx(want, abs=1e-10)
        for bound in (report.hs_lower, report.norm_sum_lower, report.smax_upper,
                      report.incompat_upper, report.entropic_lower):
            assert bound.sigma == 0.0

    def test_below_threshold_flags(self):
        report = full_certificate(AspEstimate(0.70, 0.001), 4)
        assert not report.norm_sum_lower.applicable
        assert not report.incompat_upper.applicable
        assert "0.742061" in report.norm_sum_lower.reason
        assert report.hs_lower.applicable
        assert report.entropic_lower.applicable  # clamped at zero, still reported
        assert report.entropic_lower.value == 0.0
        app = report.applicability()
        assert app["hs"] == "ok" and app["norm_sum"] != "ok"

    def test_clamps_marginally_supraoptimal(self):
        report = full_certificate(AspEstimate(0.7502, 0.001), 4)
        assert any("clamped" in w for w in report.warnings)
        assert report.hs_lower.value == pytest.approx(4.0, abs=1e-12)

    def test_rejects_far_supraoptimal(self):
        report = full_certificate(AspEstimate(0.9, 0.001), 4)
        assert not report.hs_lower.applicable
        assert not report.entropic_lower.applicable

    def test_json_shape(self):
        report = full_certificate(AspEstimate(P_OBS, SIGMA_OBS), 4)
        doc = report.as_dict()
        assert set(doc) == {
            "d", "asp", "hs_lower", "norm_sum_lower", "smax_upper",
            "incompat_upper", "entropic_lower", "ideal_refs",
            "applicability", "warnings",
        }
        assert doc["ideal_refs"] == {
            "hs": 4.0, "norm": 4.0, "eta": mub_incompat_value(4), "entropy": 2.0,
        }
        assert set(doc["applicability"]) == {
            "hs", "norm_sum", "smax", "incompatibility", "entropic",
        }
        assert doc["hs_lower"]["value"] == report.hs_lower.value

    @pytest.mark.parametrize("d", range(2, 9))
    def test_norm_sum_applies_at_its_threshold(self, d):
        p = norm_sum_threshold(d)
        bound = full_certificate(AspEstimate(p, 1e-3), d).norm_sum_lower
        assert bound.applicable
        assert bound.value == bound_norm_sum(p, d)
        assert math.isfinite(bound.sigma)

    def test_table_renders(self):
        text = report_table(full_certificate(AspEstimate(0.70, 0.001), 4))
        assert "inapplicable" in text and "overlap entropy" in text


class TestCertificateBytes:
    # sha256 of to_json() and report_table() over d = 2..8, with the ASP at
    # 1/2, between 1/2 and the norm-sum threshold, at the threshold, a
    # quarter of the way from it to the optimum, at the optimum and 2 and 4
    # sigma above it, for sigma = 0 and 1e-3.  Between them these reach every
    # warning and every kind of inapplicable bound.  The digest changes only
    # when the certificate's output is meant to change.
    DIGEST = "3644f64811a3ad5600f3e9f7842e7f3ab7fce2675ec68ef7477c2507eed1beb3"

    def test_output_is_pinned(self):
        digest = hashlib.sha256()
        for d in range(2, 9):
            threshold, optimum = norm_sum_threshold(d), float(quantum_optimum(d))
            for sigma in (0.0, 1e-3):
                for p in (0.5, 0.5 * (0.5 + threshold), threshold,
                          threshold + 0.25 * (optimum - threshold), optimum,
                          optimum + 2 * sigma, optimum + 4 * sigma):
                    report = full_certificate(AspEstimate(p, sigma), d)
                    digest.update(report.to_json().encode())
                    digest.update(report_table(report).encode())
        assert digest.hexdigest() == self.DIGEST


class TestMinAspForNontrivialEta:
    def test_d4_window(self):
        p = min_asp_for_nontrivial_eta(4)
        assert norm_sum_threshold(4) < p < 0.75

    def test_bisection_postcondition(self):
        p = min_asp_for_nontrivial_eta(4)
        above = bound_incompatibility(
            bound_norm_sum(p + 1e-6, 4), bound_max_sqrt_overlap(p + 1e-6, 4), 4
        )
        assert above < 1.0
        try:
            below = bound_incompatibility(
                bound_norm_sum(p - 1e-6, 4), bound_max_sqrt_overlap(p - 1e-6, 4), 4
            )
        except (BelowThreshold, DenominatorNonpositive):
            below = 1.0
        assert below >= 1.0

    def test_d2_finite(self):
        p = min_asp_for_nontrivial_eta(2)
        assert p < quantum_optimum(2)


class TestMonotonicity:
    def test_d4_grid(self):
        lo = norm_sum_threshold(4) + 1e-9
        grid = np.linspace(lo, 0.75, 60)
        hs = [bound_overlap_entropy(p, 4) for p in grid]
        ns = [bound_norm_sum(p, 4) for p in grid]
        sm = [bound_max_sqrt_overlap(p, 4) for p in grid]
        assert all(a < b for a, b in zip(hs, hs[1:]))
        assert all(a < b for a, b in zip(ns, ns[1:]))
        assert all(a > b for a, b in zip(sm, sm[1:]))


class TestConsistencyWithDirectMetrics:
    def test_ideal_pair_saturates_at_optimum(self):
        pair = hadamard_mub_pair_d4()
        assert overlap_entropy(pair) == pytest.approx(
            bound_overlap_entropy(0.75, 4), abs=1e-10
        )
        assert norm_sum(pair.first) == pytest.approx(bound_norm_sum(0.75, 4), abs=1e-10)
        assert max_sqrt_overlap(pair) == pytest.approx(
            bound_max_sqrt_overlap(0.75, 4), abs=1e-9
        )

    @pytest.mark.parametrize("visibility", [0.9, 0.95, 0.99, 1.0])
    def test_soundness_under_depolarization(self, visibility):
        # the certified bounds must hold for the actual (noisy) measurements
        pair = hadamard_mub_pair_d4()
        noisy = depolarized_pair(pair, visibility)
        enc = optimal_states(pair)
        rhos = np.einsum("ija,ijb->ijab", enc.states, enc.states.conj())
        p = asp_from_density(rhos, noisy)
        assert p == pytest.approx(visibility * 0.75 + (1 - visibility) / 4, abs=1e-12)
        direct_hs = overlap_entropy(noisy)
        direct_norm = norm_sum(noisy.first)
        direct_smax = max_sqrt_overlap(noisy)
        assert direct_hs >= bound_overlap_entropy(p, 4) - 1e-9
        try:
            assert direct_norm >= bound_norm_sum(p, 4) - 1e-9
        except BelowThreshold:
            pass
        assert direct_smax <= bound_max_sqrt_overlap(p, 4) + 1e-9
