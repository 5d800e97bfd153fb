"""Monte Carlo model of the four-arm multi-core-fiber interferometer.

The preparation side shapes a path-encoded ququart with per-arm
transmissivities and phases; the measurement side applies per-arm phases
and a balanced four-port splitter, and a click in output path k is
outcome k.  The protocol runs on the Hadamard MUB pair: every pulse
carries one of the pair's optimal QRAC encodings, its arm amplitudes
scaled by the transmissivities ``tau`` and renormalized, measured in the
basis that Bob's input selects, with phase noise added to the
preparation phases.  The source emits Poissonian photon numbers (mean
``mu`` per pulse), detectors register each photon independently with a
fixed efficiency, and optional dark counts fire per gate.  Thinning the
Poisson source leaves Poisson(mu * det_efficiency) detected photons per
pulse, so the sampler is event-driven and still exact: it draws which
pulses click and which gates fire dark, then settings, zero-truncated
photon numbers and phase noise only for those pulses, and its work grows
with detections rather than pulses.  Both phase-noise models damp every
two-arm interference term by one closed-form factor (see ``_damping``),
so fringe visibility, expected ASP and calibration to a target
visibility are exact for every model.
Everything is deterministic given the master seed; ``SAMPLER_VERSION``
names the byte stream a seed produces.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .counts import CountsTable
from .errors import AllArmsBlocked, ConfigError, DimensionMismatch
from .mub import HADAMARD4, hadamard_mub_pair_d4
from .qrac import optimal_states

ARMS = 4
NOISE_MODELS = ("none", "gaussian_drift", "random_walk")

# Names the counts stream simulate_counts gives for (config, rounds,
# seed); bump it whenever that stream changes.  Manifests record it.
SAMPLER_VERSION = "event-2"

# Rounds are processed in fixed-size blocks, each on an independent
# substream of the master seed, so partial results merge identically
# regardless of processing order.
BLOCK_ROUNDS = 1 << 18

# Phase stabilization restarts the random walk at zero every
# STABILIZE_ROUNDS pulses of the global pulse index.  It divides
# BLOCK_ROUNDS, so every block starts on a restart and needs no state
# from the block before.
STABILIZE_ROUNDS = 1 << 10


@dataclass
class PhaseNoiseConfig:
    """Per-arm phase-noise process applied at the preparation stage.

    ``gaussian_drift`` draws an independent N(0, sigma^2) phase per pulse
    and arm.  ``random_walk`` accumulates one N(0, sigma^2) step per arm
    and pulse, and stabilization restarts it at zero every
    ``STABILIZE_ROUNDS`` pulses: the pulse t pulses after a restart
    (t = 0, 1, ...) carries t + 1 steps.  ``sigma`` is in radians.
    """

    model: str = "none"
    sigma: float = 0.0

    def validate(self) -> None:
        if self.model not in NOISE_MODELS:
            raise ConfigError(f"unknown phase-noise model {self.model!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ConfigError("phase-noise sigma must be finite and nonnegative")


@dataclass
class InterferometerConfig:
    d: int = 4
    mu: float = 0.2
    det_efficiency: float = 0.10
    rep_rate: float = 2.0e6
    integration_time: float = 1.0
    phase_noise: PhaseNoiseConfig = field(default_factory=PhaseNoiseConfig)
    tau: tuple = (1.0, 1.0, 1.0, 1.0)
    dark_count_prob: float = 0.0

    def validate(self) -> None:
        if self.d != ARMS:
            raise ConfigError(f"the interferometer model is fixed at d=4, got {self.d}")
        numbers = (self.mu, self.det_efficiency, self.rep_rate,
                   self.integration_time, self.dark_count_prob, *self.tau)
        if not all(math.isfinite(v) for v in numbers):
            raise ConfigError("config numbers must be finite")
        if not self.mu > 0.0:
            raise ConfigError("mu must be positive")
        for name in ("det_efficiency", "dark_count_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.rep_rate <= 0.0 or self.integration_time <= 0.0:
            raise ConfigError("rep_rate and integration_time must be positive")
        if len(self.tau) != ARMS or any(not 0.0 <= t <= 1.0 for t in self.tau):
            raise ConfigError("tau must be 4 transmissivities in [0, 1]")
        if not (np.abs(_protocol_tables()[0]) @ np.asarray(self.tau)).all():
            raise ConfigError("tau blocks every arm of a protocol state")
        self.phase_noise.validate()

    def default_rounds(self) -> int:
        return int(round(self.rep_rate * self.integration_time))

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "mu": self.mu,
            "det_efficiency": self.det_efficiency,
            "rep_rate": self.rep_rate,
            "integration_time": self.integration_time,
            "phase_noise": {
                "model": self.phase_noise.model,
                "sigma": self.phase_noise.sigma,
            },
            "tau": list(self.tau),
            "dark_count_prob": self.dark_count_prob,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "InterferometerConfig":
        known = {
            "d", "mu", "det_efficiency", "rep_rate", "integration_time",
            "phase_noise", "tau", "dark_count_prob",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        noise_doc = doc.get("phase_noise", {})
        if not isinstance(noise_doc, dict):
            raise ConfigError("phase_noise must be an object")
        try:
            cfg = cls(
                d=int(doc.get("d", 4)),
                mu=float(doc.get("mu", 0.2)),
                det_efficiency=float(doc.get("det_efficiency", 0.10)),
                rep_rate=float(doc.get("rep_rate", 2.0e6)),
                integration_time=float(doc.get("integration_time", 1.0)),
                phase_noise=PhaseNoiseConfig(
                    model=str(noise_doc.get("model", "none")),
                    sigma=float(noise_doc.get("sigma", 0.0)),
                ),
                tau=tuple(float(t) for t in doc.get("tau", (1.0,) * ARMS)),
                dark_count_prob=float(doc.get("dark_count_prob", 0.0)),
            )
        except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
            raise ConfigError(f"bad config value: {exc}") from exc
        cfg.validate()
        return cfg


def prepare_state(tau, phi_a) -> np.ndarray:
    """Path-encoded ququart ``sum_k tau_k exp(i phi_k) |k>``, normalized."""
    t = np.asarray(tau, dtype=float)
    phi = np.asarray(phi_a, dtype=float)
    if t.shape != (ARMS,) or phi.shape != (ARMS,):
        raise DimensionMismatch("tau and phi_a must each have 4 entries")
    norm_sq = float(np.sum(t * t))
    if norm_sq == 0.0:
        raise AllArmsBlocked("all transmissivities are zero")
    return t * np.exp(1j * phi) / math.sqrt(norm_sq)


def measurement_unitary(phi_b) -> np.ndarray:
    """Analysis unitary of the measurement stage.

    The per-arm phases act on the input modes before the splitter, so the
    matrix is the splitter times a diagonal phase layer; row k is the bra
    of the analysis state for outcome k.  With all phases zero the rows
    are the first MUB basis; with the first phase at pi they are the
    second.
    """
    phi = np.asarray(phi_b, dtype=float)
    if phi.shape != (ARMS,):
        raise DimensionMismatch("phi_b must have 4 entries")
    return HADAMARD4.astype(complex) @ np.diag(np.exp(-1j * phi))


def detection_probabilities(state, phi_b) -> np.ndarray:
    """Click probabilities per output path for a normalized input state."""
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (ARMS,):
        raise DimensionMismatch("state must have 4 entries")
    amps = measurement_unitary(phi_b) @ psi
    return np.abs(amps) ** 2


def sample_source(mu: float, rng: np.random.Generator, size=None):
    """Poissonian photon number(s) of a weak coherent pulse with mean mu."""
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    return rng.poisson(mu, size)


# -- protocol tables ----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _protocol_tables() -> tuple[np.ndarray, np.ndarray]:
    """Preparation kets and analysis bras of the protocol (read-only).

    Returns (states, bras).  ``states[i*d + j]`` is the optimal encoding
    ket for input dits (i, j), shape (d*d, d); ``bras[y]`` holds the bras
    of the basis measured for input y+1 as rows, shape (2, d, d), so
    outcome b has probability ``|bras[y, b] @ state|^2``.
    """
    pair = hadamard_mub_pair_d4()
    d = pair.dim
    states = optimal_states(pair).states.reshape(d * d, d)
    bras = np.stack([pair.first.basis_vectors().conj(),
                     pair.second.basis_vectors().conj()])
    states.flags.writeable = False
    bras.flags.writeable = False
    return states, bras


def expected_outcome_probabilities() -> np.ndarray:
    """Noiseless click probabilities, shape (d*d, 2, d) indexed by (ij, y-1, b-1)."""
    states, bras = _protocol_tables()
    return np.abs(np.einsum("ybk,sk->syb", bras, states)) ** 2


def ideal_expected_counts(total: int) -> CountsTable:
    """Expected counts with no source/detector/noise model, scaled to ~total.

    Per-setting totals are rounded to a multiple of 12 so that the exact
    outcome probabilities (all multiples of 1/12 for the protocol states)
    map to integer counts; the estimated ASP is then exactly 3/4.
    """
    probs = expected_outcome_probabilities()
    d = probs.shape[-1]
    n_settings = 2 * d * d
    if total < n_settings * 12:
        raise ValueError(f"total must be at least {n_settings * 12} "
                         "for one detection per cell")
    per_setting = 12 * max(1, round(total / (n_settings * 12)))
    rows = np.floor(per_setting * probs + 0.5).astype(np.int64)
    s, y = np.indices(rows.shape[:2])
    rows[s, y, rows.argmax(axis=-1)] += per_setting - rows.sum(axis=-1)  # guard exact totals
    return CountsTable(dim=d, cells=rows.reshape(d, d, 2, d))


# -- noise processes ----------------------------------------------------------

def _draw_noise(model: str, sigma: float, events: np.ndarray, arms: int,
                rng: np.random.Generator) -> np.ndarray | None:
    """Noise phases, shape (events.size, arms), at sorted pulse indices.

    ``events`` count pulses from the start of a block, where the walk
    restarts.  Gaussian drift is drawn only at the events.  The random
    walk takes an N(0, gap*sigma^2) step per arm over each gap, where the
    first event of a window counts its gap from the pulse before the
    window's start, and the cumulative sum restarts at every window.
    None without noise.
    """
    if model == "none" or sigma == 0.0:
        return None
    if model == "gaussian_drift":
        return rng.normal(0.0, sigma, size=(events.size, arms))
    window_start = events - events % STABILIZE_ROUNDS
    prev = np.concatenate(([-1], events[:-1]))
    first = prev < window_start
    steps = rng.normal(0.0, sigma, size=(events.size, arms))
    steps *= np.sqrt(events - np.maximum(prev, window_start - 1))[:, None]
    walk = np.cumsum(steps, axis=0)
    # subtract the sum up to each window's first event, exclusive
    first_of = np.maximum.accumulate(np.where(first, np.arange(events.size), 0))
    return walk - (walk[first_of] - steps[first_of])


def _zero_truncated_poisson(lam: float, size: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Poisson(lam) draws conditioned on being at least 1.

    The first arrival T of a unit-rate Poisson process, conditioned on
    T < lam, is -log1p(-q*U) with q = 1 - exp(-lam) and U uniform; the
    arrivals after it are Poisson(lam - T).  Finite for any lam > 0.
    """
    q = -math.expm1(-lam)
    first = -np.log1p(-q * rng.random(size))
    return 1 + rng.poisson(np.maximum(lam - first, 0.0))  # rounding can dip below 0


def _window(model: str) -> int:
    """Pulses between restarts of a noise model's phases."""
    return 1 if model == "gaussian_drift" else STABILIZE_ROUNDS


def _window_damping(x: float, k: int) -> float:
    """D(x, k) = (1/k) sum_{m=1..k} exp(-m x), in a form accurate for small x."""
    if x == 0.0:
        return 1.0
    return math.exp(-x) * (math.expm1(-k * x) / (k * math.expm1(-x)))


def _damping(noise: PhaseNoiseConfig) -> float:
    """Factor by which the noise scales every two-arm interference term.

    A pulse whose phases carry m steps of N(0, sigma^2) per arm has an
    N(0, 2 m sigma^2) difference between two arms, so its cross term
    ``exp(i(theta_k - theta_l))`` averages to ``exp(-m sigma^2)``.  Over
    a window of K pulses with m = 1..K this is D(sigma^2, K).  Gaussian
    drift is the one-pulse window, D(sigma^2, 1) = exp(-sigma^2); the
    random walk's window is STABILIZE_ROUNDS.
    """
    if noise.model == "none":
        return 1.0
    return _window_damping(noise.sigma ** 2, _window(noise.model))



# -- the experiment loop ------------------------------------------------------

def _block_counts(config: InterferometerConfig, tables, block_index: int,
                  n_rounds: int, seed: int) -> np.ndarray:
    """Simulate one block of rounds on its own substream; returns the cells.

    Only the pulses that click are drawn, and the counts keep the
    distribution of simulating every pulse.  Output depends only on the
    arguments, so blocks merge identically in any processing order.
    """
    states, bras = tables
    d = states.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(block_index,)))

    # Fixed draw order: clicking pulses, dark gates, settings, photon
    # numbers, noise, then outcome uniforms.  Thinning the Poisson(mu)
    # source by the efficiency leaves Poisson(lam) detected photons per
    # pulse, so each pulse clicks independently with probability q.
    lam = config.mu * config.det_efficiency
    q = -math.expm1(-lam)
    clicks = np.sort(rng.choice(n_rounds, rng.binomial(n_rounds, q),
                                replace=False, shuffle=False))
    dark = rng.choice(n_rounds * d, rng.binomial(n_rounds * d, config.dark_count_prob),
                      replace=False, shuffle=False)
    dark_pulse, dark_arm = np.divmod(dark, d)

    # One setting s = 2*(i*d + j) + y per touched pulse, shared by its
    # photon clicks and dark gates; s encodes the input dits and basis.
    touched = np.sort(np.concatenate([clicks, dark_pulse]))
    touched = touched[np.diff(touched, prepend=-1) > 0]
    settings = rng.integers(0, 2 * d * d, touched.size)
    clicked = settings[np.searchsorted(touched, clicks)]

    n_detected = _zero_truncated_poisson(lam, clicks.size, rng)
    noise = _draw_noise(config.phase_noise.model, config.phase_noise.sigma,
                        clicks, d, rng)

    ij, y = np.divmod(clicked, 2)
    comps = states[ij]
    comps *= config.tau  # the cum normalization below renormalizes
    if noise is not None:
        comps = comps * np.exp(1j * noise)
    probs = np.empty(comps.shape)
    for yv in range(2):
        mask = y == yv
        probs[mask] = np.abs(comps[mask] @ bras[yv].T) ** 2
    cum = np.cumsum(probs, axis=1)
    cum /= cum[:, -1:]

    pulse_of_photon = np.repeat(np.arange(clicked.size), n_detected)
    u = rng.random(pulse_of_photon.size)
    outcome = (u[:, None] > cum[pulse_of_photon]).sum(axis=1)

    # Flat cell index ((i*d + j)*2 + y)*d + b = s*d + b.
    hits = np.concatenate([clicked[pulse_of_photon] * d + outcome,
                           settings[np.searchsorted(touched, dark_pulse)] * d + dark_arm])
    cells = np.bincount(hits, minlength=2 * d ** 3)
    return cells.reshape(d, d, 2, d)


def simulate_counts(config: InterferometerConfig, rounds: int | None = None,
                    seed: int = 0) -> CountsTable:
    """Run the full protocol loop and collect a detection-count table.

    Each round draws an input setting (i, j, y) uniformly, prepares the
    corresponding protocol state (arm amplitudes scaled by ``tau`` and
    renormalized, phase noise added to the preparation phases), measures
    in the basis selected by y, and records every detected photon.
    ``rounds`` defaults to the number of pulses in one integration window
    (rep_rate * integration_time).  The result is bit-for-bit
    reproducible from (config, rounds, seed).
    """
    config.validate()
    if rounds is None:
        rounds = config.default_rounds()
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    tables = _protocol_tables()
    d = tables[0].shape[1]
    total_cells = np.zeros((d, d, 2, d), dtype=np.int64)
    for block, start in enumerate(range(0, rounds, BLOCK_ROUNDS)):
        total_cells += _block_counts(config, tables, block,
                                     min(BLOCK_ROUNDS, rounds - start), seed)
    return CountsTable(dim=d, cells=total_cells, seed=seed, config=config.to_dict())


def noise_averaged_asp(config: InterferometerConfig) -> float:
    """Expected ASP under the configured phase noise (no photon sampling).

    The protocol states are weighted by ``tau`` and renormalized, as in
    ``simulate_counts``.  Every cross term of the success probability is
    damped by ``_damping``, which gives 1/4 + D/2 for equal
    transmissivities.  For the random walk this is the average over
    whole stabilization windows.
    """
    config.validate()
    states, bras = _protocol_tables()
    states = states * np.asarray(config.tau)
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    d = states.shape[1]
    i, j = np.divmod(np.arange(d * d), d)
    # terms[y, ij, k]: arm k's share of the amplitude of the correct
    # outcome (i for y=1, j for y=2).
    terms = np.stack([bras[0][i], bras[1][j]]) * states
    diagonal = np.sum(np.abs(terms) ** 2, axis=-1)
    full = np.abs(np.sum(terms, axis=-1)) ** 2
    return float(np.mean(diagonal + _damping(config.phase_noise) * (full - diagonal)))


def fringe_visibility(config: InterferometerConfig, arm_pair: tuple[int, int]) -> float:
    """Two-arm interference visibility at the first detector.

    Scans the relative phase between the two (1-based) arms over a full
    turn with the other arms blocked.  Without noise the fringe has
    visibility V0 = 2 tau_k tau_l / (tau_k^2 + tau_l^2); phase noise
    scales it to V0 * D with D from ``_damping``.
    """
    config.validate()
    k, l = arm_pair
    if k == l or not (1 <= k <= ARMS and 1 <= l <= ARMS):
        raise ValueError(f"arm_pair must be two distinct arms in 1..4, got {arm_pair}")
    tk, tl = config.tau[k - 1], config.tau[l - 1]
    norm_sq = tk * tk + tl * tl
    if norm_sq == 0.0:
        raise AllArmsBlocked("both scanned arms are blocked")
    return 2.0 * tk * tl / norm_sq * _damping(config.phase_noise)


def mean_fringe_visibility(config: InterferometerConfig, seed: int = 0) -> float:
    """Visibility averaged over the six arm pairs.

    ``seed`` is unused: the visibility is in closed form.
    """
    pairs = itertools.combinations(range(1, ARMS + 1), 2)
    return float(np.mean([fringe_visibility(config, pair) for pair in pairs]))


def calibrate_drift_sigma(config: InterferometerConfig, target_visibility: float,
                          seed: int = 0) -> float:
    """Tune the phase-noise sigma to hit a target mean fringe visibility.

    The mean visibility is V0 * D(sigma^2, K) with V0 the noiseless mean
    visibility and K the model's window, so x = sigma^2 solves
    D(x, K) = V / V0.  With h = ln(V0 / V), D <= exp(-x) puts the root at
    most h, and Jensen's inequality, D >= exp(-x (K+1)/2), at least
    2h/(K+1).  Bisection on that bracket runs until the midpoint stops
    moving; for Gaussian drift (K = 1) the bracket is the single point
    sigma = sqrt(ln(V0 / V)).  ``seed`` is unused: the result is exact.
    """
    config.validate()
    model = config.phase_noise.model
    if model == "none":
        raise ConfigError("calibration requires a phase-noise model")
    if not 0.0 < target_visibility < 1.0:
        raise ConfigError("target visibility must lie in (0, 1)")
    noiseless = mean_fringe_visibility(replace(config, phase_noise=PhaseNoiseConfig()))
    if target_visibility >= noiseless:
        raise ConfigError(
            f"target visibility {target_visibility} is not below the noiseless "
            f"mean visibility {noiseless:.6g}"
        )
    k = _window(model)
    h = math.log(noiseless / target_visibility)
    lo, hi = 2.0 * h / (k + 1), h
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if noiseless * _window_damping(mid, k) > target_visibility:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return math.sqrt(mid)
