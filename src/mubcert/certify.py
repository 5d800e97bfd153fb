"""Certified bounds on measurement properties from an observed ASP.

Given the average success probability p of the 2^d -> 1 random access
code, four quantities of the measurement pair can be certified without
modeling the devices:

* a lower bound on the overlap entropy, ``2*log2(d*sqrt(d)*(2p-1))`` bits;
* a lower bound on the sum of effect norms,
  ``d - ((2+sqrt(2))/d) * (1 - sqrt(d^3*(2p-1)^2 - (d^2-1)))``;
* an upper bound on the maximal square-root-effect overlap,
  ``(2p-1) + (1/d)*sqrt(d*(d^2-1)*(1 - d*(2p-1)^2))``, obtained by
  Cauchy-Schwarz from the overlap sum constraints;
* an upper bound on the incompatibility robustness, evaluated by feeding
  the certified norm-sum and overlap extremes into
  ``[d^2(1+s)/2 - N^2/d] / [N^2 - d - (d-N)(d-N+1)]``;
* a state-independent lower bound on the outcome-entropy sum
  ``H(A) + H(B)``, equal to ``-2*log2`` of the overlap upper bound.

At the quantum optimum every bound reaches its exact MUB value.  All
entropies are in bits.  Uncertainties are first-order Gaussian (delta
method), using each bound's closed-form slope in p.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field

from .errors import (
    BelowThreshold,
    BoundInapplicableInWindow,
    DenominatorNonpositive,
    OutOfRange,
)
from .qrac import AspEstimate, quantum_optimum

_BISECT_TOL = 1e-10


def _check_dim(d: int) -> None:
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")


def norm_sum_threshold(d: int) -> float:
    """Smallest ASP at which the norm-sum bound applies."""
    _check_dim(d)
    return 0.5 * (1.0 + math.sqrt((d * d - 1.0) / d**3))


def bound_overlap_entropy(p: float, d: int) -> float:
    """Certified lower bound on the overlap entropy, in bits.

    Applicable for p in (1/2, 1]; the raw value is clamped below at 0.
    """
    _check_dim(d)
    if not 0.5 < p <= 1.0:
        raise OutOfRange(f"ASP {p} outside (1/2, 1]")
    value = 2.0 * math.log2(d * math.sqrt(d) * (2.0 * p - 1.0))
    return max(value, 0.0)


def bound_norm_sum(p: float, d: int) -> float:
    """Certified lower bound on the sum of effect operator norms.

    Applicable once ``d^3*(2p-1)^2 >= d^2 - 1``; below that threshold the
    bound carries no information and BelowThreshold is raised.
    """
    _check_dim(d)
    if not 0.5 < p <= 1.0:
        raise OutOfRange(f"ASP {p} outside (1/2, 1]")
    return d - ((2.0 + math.sqrt(2.0)) / d) * (1.0 - math.sqrt(_norm_sum_disc(p, d)))


def _norm_sum_disc(p: float, d: int) -> float:
    """``d^3*(2p-1)^2 - (d^2-1)``, which is 0 at the norm-sum threshold."""
    disc = d**3 * (2.0 * p - 1.0) ** 2 - (d * d - 1.0)
    edge = (d * d - 1.0) * 1e-13  # rounding scale of the subtraction
    if disc < -edge:
        raise BelowThreshold(
            f"ASP {p} below norm-sum threshold {norm_sum_threshold(d):.6f}"
        )
    return disc if disc >= edge else 0.0


def bound_max_sqrt_overlap(p: float, d: int) -> float:
    """Certified upper bound on ``max_ij ||sqrt(A_i) sqrt(B_j)||``.

    Applicable for p in (1/2, (1 + 1/sqrt(d))/2]; equals ``1/sqrt(d)`` at
    the quantum optimum.
    """
    _check_dim(d)
    u = 2.0 * p - 1.0
    if not (p > 0.5 and d * u * u <= 1.0 + 1e-14):
        raise OutOfRange(f"ASP {p} outside (1/2, quantum optimum] for d={d}")
    return u + math.sqrt(d * (d * d - 1.0) * _smax_bracket(u, d)) / d


def _smax_bracket(u: float, d: int) -> float:
    """``1 - d*u^2`` with u = 2p - 1, which is 0 at the quantum optimum."""
    bracket = 1.0 - d * u * u
    # rounding of u near the optimum leaves a ~1e-16 residual that the
    # square root would amplify to ~1e-8; treat it as the exact boundary
    return bracket if bracket >= 1e-14 else 0.0


def bound_entropic(p: float, d: int) -> float:
    """Certified lower bound on ``H(A) + H(B)`` over all states, in bits.

    Structural identity: this is ``-2*log2`` of the square-root-overlap
    bound, clamped to ``[0, log2 d]``.
    """
    value = -2.0 * math.log2(bound_max_sqrt_overlap(p, d))
    return min(max(value, 0.0), math.log2(d))


def bound_incompatibility(norm_lower: float, smax: float, d: int) -> float:
    """Upper bound on the incompatibility robustness from certified extremes.

    Evaluated at the norm sum's certified lower bound and the overlap's
    certified upper bound (the conservative direction on the applicable
    range); capped at the trivial value 1.
    """
    _check_dim(d)
    n = norm_lower
    den = n * n - d - (d - n) * (d - n + 1.0)
    if den <= 0.0:
        raise DenominatorNonpositive(
            f"incompatibility bound undefined at norm lower bound {n:.6f}"
        )
    num = 0.5 * d * d * (1.0 + smax) - n * n / d
    return min(num / den, 1.0)


def mub_incompat_value(d: int) -> float:
    """Incompatibility robustness of an exact MUB pair: (1 + 1/(sqrt(d)+1))/2."""
    _check_dim(d)
    return 0.5 * (1.0 + 1.0 / (math.sqrt(d) + 1.0))


# -- error propagation --------------------------------------------------------
#
# Each slope is df/dp of its bound, 0 where the bound is clamped and
# infinite at a square-root edge.

def _slope_overlap_entropy(p: float, d: int) -> float:
    u = 2.0 * p - 1.0
    if d * math.sqrt(d) * u <= 1.0:
        return 0.0
    return 4.0 / (math.log(2.0) * u)


def _slope_norm_sum(p: float, d: int) -> float:
    disc = _norm_sum_disc(p, d)
    if disc == 0.0:
        return math.inf
    return 2.0 * (2.0 + math.sqrt(2.0)) * d * d * (2.0 * p - 1.0) / math.sqrt(disc)


def _slope_max_sqrt_overlap(p: float, d: int) -> float:
    u = 2.0 * p - 1.0
    bracket = _smax_bracket(u, d)
    if bracket == 0.0:
        return -math.inf
    return 2.0 * (1.0 - u * math.sqrt(d * (d * d - 1.0) / bracket))


def _slope_entropic(p: float, d: int) -> float:
    s = bound_max_sqrt_overlap(p, d)
    if s >= 1.0:
        return 0.0
    return -2.0 * _slope_max_sqrt_overlap(p, d) / (s * math.log(2.0))


# bound id -> (f(p, d), df/dp(p, d), the interval of p whose nearer end
# sets the direction of a finite difference at a square-root edge)
_BOUNDS = {
    "hs": (bound_overlap_entropy, _slope_overlap_entropy,
           lambda d: (0.5, 1.0)),
    "norm_sum": (bound_norm_sum, _slope_norm_sum,
                 lambda d: (norm_sum_threshold(d), 1.0)),
    "smax": (bound_max_sqrt_overlap, _slope_max_sqrt_overlap,
             lambda d: (0.5, quantum_optimum(d))),
    "entropic": (bound_entropic, _slope_entropic,
                 lambda d: (0.5, quantum_optimum(d))),
}


# One row per reported quantity, in output order: the CertificateReport
# field and JSON key, the applicability key (the _BOUNDS id, or
# "incompatibility" for the derived eta), the ideal_refs key, the table
# label, direction and unit, and the value for an exact MUB pair.
_Row = namedtuple("_Row", "attr key ref label op unit mub")
_REPORT = (
    _Row("hs_lower", "hs", "hs", "overlap entropy", ">=", "bits",
         lambda d: 2.0 * math.log2(d)),
    _Row("norm_sum_lower", "norm_sum", "norm", "norm sum", ">=", "", float),
    _Row("smax_upper", "smax", None, "sqrt overlap", "<=", "",
         lambda d: 1.0 / math.sqrt(d)),
    _Row("incompat_upper", "incompatibility", "eta", "incompatibility", "<=", "",
         mub_incompat_value),
    _Row("entropic_lower", "entropic", "entropy", "entropy sum", ">=", "bits", math.log2),
)
# the bounds that can be clamped to 0 bits, as their warnings name them
_CLAMPED_NAMES = {"hs": "overlap-entropy", "entropic": "entropic"}


def propagate_error(bound_id: str, p: float, sigma: float, d: int) -> float:
    """One-sigma uncertainty |df/dp| * sigma of a bound, from its exact slope.

    Raises what the bound itself raises where it does not apply (both
    errors are a BoundInapplicableInWindow).  Where the slope is infinite
    (the square-root edge of the overlap and entropic bounds at the quantum
    optimum, and of the norm-sum bound at its threshold) the one-sigma
    difference into the interval is returned instead: ``|f(p) - f(p - sigma)|``
    at the optimum, with ``p - sigma`` clipped just above 1/2, and
    ``|f(p) - f(p + sigma)|`` at the threshold.
    """
    return _bound_with_error(bound_id, p, sigma, d)[1]


def _bound_with_error(bound_id: str, p: float, sigma: float, d: int) -> tuple[float, float]:
    """A bound's value at p and its ``propagate_error`` uncertainty, evaluating it once."""
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if bound_id not in _BOUNDS:
        raise ValueError(f"unknown bound id {bound_id!r}; expected one of "
                         f"{sorted(_BOUNDS)}")
    f, slope, interval = _BOUNDS[bound_id]
    value = f(p, d)
    if sigma == 0.0:
        return value, 0.0
    rate = abs(slope(p, d))
    if math.isfinite(rate):
        return value, rate * sigma
    lo, hi = interval(d)
    if hi - p < p - lo:
        other = max(p - sigma, lo + (hi - lo) * 1e-9)
    else:
        other = min(p + sigma, hi)
    return value, abs(value - f(other, d))


# -- the full certificate -----------------------------------------------------

@dataclass
class BoundResult:
    """One certified bound: value and uncertainty, or the reason it is absent."""

    value: float | None
    sigma: float | None
    applicable: bool
    reason: str = "ok"

    def as_dict(self) -> dict | None:
        if not self.applicable:
            return None
        return {"value": self.value, "sigma": self.sigma}


@dataclass
class CertificateReport:
    """Observed ASP plus all certified bounds and their MUB reference values."""

    d: int
    asp: AspEstimate
    hs_lower: BoundResult
    norm_sum_lower: BoundResult
    smax_upper: BoundResult
    incompat_upper: BoundResult
    entropic_lower: BoundResult
    ideal_refs: dict
    warnings: list = field(default_factory=list)

    def bounds(self) -> list[BoundResult]:
        """The five bound results, in report order."""
        return [getattr(self, row.attr) for row in _REPORT]

    def applicability(self) -> dict:
        return {row.key: bound.reason for row, bound in zip(_REPORT, self.bounds())}

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "asp": {"value": self.asp.value, "sigma": self.asp.sigma},
            **{row.attr: bound.as_dict() for row, bound in zip(_REPORT, self.bounds())},
            "ideal_refs": self.ideal_refs,
            "applicability": self.applicability(),
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, allow_nan=False)


def _inapplicable(reason: str) -> BoundResult:
    return BoundResult(value=None, sigma=None, applicable=False, reason=reason)


def full_certificate(asp: AspEstimate, d: int) -> CertificateReport:
    """Evaluate every certified bound at an observed ASP, with uncertainties.

    The ASP must lie in (1/2, quantum optimum]; a value above the optimum
    by at most three sigma is clamped to the optimum and flagged, anything
    further renders every bound inapplicable.  Inapplicability is reported
    in-band, never raised.
    """
    _check_dim(d)
    pq = quantum_optimum(d)
    ideal_refs = {row.ref: row.mub(d) for row in _REPORT if row.ref is not None}
    warnings: list[str] = []
    p = asp.value
    sigma = asp.sigma

    reason_all = None
    if p > pq:
        if p - pq <= 3.0 * sigma:
            warnings.append(
                f"ASP {p:.6g} above the quantum optimum {pq:.6g} within 3 sigma; "
                "clamped to the optimum"
            )
            p = pq
        else:
            reason_all = (
                f"ASP {p:.6g} exceeds the quantum optimum {pq:.6g} "
                "by more than 3 sigma"
            )
    if p <= 0.5:
        reason_all = f"ASP {p:.6g} at or below the classical midpoint 1/2"

    def report(results: dict) -> CertificateReport:
        return CertificateReport(
            d=d, asp=asp, ideal_refs=ideal_refs, warnings=warnings,
            **{row.attr: results[row.key] for row in _REPORT},
        )

    if reason_all is not None:
        return report({row.key: _inapplicable(reason_all) for row in _REPORT})

    results = {}
    for bound_id in _BOUNDS:
        try:
            value, error = _bound_with_error(bound_id, p, sigma, d)
            result = BoundResult(value=value, sigma=error, applicable=True)
        except BoundInapplicableInWindow as exc:
            result = _inapplicable(str(exc))
        results[bound_id] = result
        if result.value == 0.0:
            warnings.append(f"{_CLAMPED_NAMES[bound_id]} bound clamped to 0 bits")

    norm, smax = results["norm_sum"], results["smax"]
    if norm.applicable and smax.applicable:
        try:
            eta_value = bound_incompatibility(norm.value, smax.value, d)
        except DenominatorNonpositive as exc:
            eta = _inapplicable(str(exc))
        else:
            if eta_value >= 1.0:
                warnings.append("incompatibility bound capped at the trivial value 1")
            # uncertainty convention: the sqrt-overlap factor dominates the
            # chain, so its propagated error is reported for this bound
            eta = BoundResult(value=eta_value, sigma=smax.sigma, applicable=True)
    else:
        eta = _inapplicable(norm.reason if not norm.applicable else smax.reason)
    results["incompatibility"] = eta
    return report(results)


def min_asp_for_nontrivial_eta(d: int) -> float:
    """Smallest ASP at which the incompatibility bound is informative (< 1).

    Found by bisection to 1e-10 between the norm-sum threshold and the
    quantum optimum; at the returned point the bound chain is applicable
    and strictly below the trivial cap, while just below it it is either
    inapplicable or trivial.
    """
    _check_dim(d)

    def nontrivial(p: float) -> bool:
        try:
            eta = bound_incompatibility(
                bound_norm_sum(p, d), bound_max_sqrt_overlap(p, d), d
            )
        except (BelowThreshold, OutOfRange, DenominatorNonpositive):
            return False
        return eta < 1.0

    lo = norm_sum_threshold(d)
    hi = quantum_optimum(d)
    if nontrivial(lo):
        return lo
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if nontrivial(mid):
            hi = mid
        else:
            lo = mid
    return hi


def report_table(report: CertificateReport) -> str:
    """Human-readable comparison of each bound to its ideal MUB value."""
    pq = quantum_optimum(report.d)
    lines = [
        f"certificate for d={report.d}, "
        f"ASP = {report.asp.value:.6g} +/- {report.asp.sigma:.3g} "
        f"(quantum optimum {pq:.6g})",
    ]
    for row, bound in zip(_REPORT, report.bounds()):
        if bound.applicable:
            unit = " " + row.unit if row.unit else ""
            lines.append(
                f"  {row.label:<15} {row.op} {bound.value:<10.6g} +/- {bound.sigma:<10.3g} "
                f"(ideal MUB value {row.mub(report.d):.6g}{unit})"
            )
        else:
            lines.append(f"  {row.label:<15}    inapplicable: {bound.reason}")
    for w in report.warnings:
        lines.append(f"  note: {w}")
    return "\n".join(lines)
