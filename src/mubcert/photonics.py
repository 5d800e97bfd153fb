"""Monte Carlo model of the multi-core-fiber interferometer.

The device is read from one MUB pair (``_protocol_tables``): its
dimension d is the number of arms and output paths, its first basis is
the balanced splitter, and its optimal QRAC encodings are the prepared
states.  The pair is the Hadamard ququart pair, so the model is the
four-arm device.  The preparation side shapes a path-encoded state with
per-arm transmissivities and phases; the measurement side applies
per-arm phases and the splitter, and a click in output path k is
outcome k.  Every pulse carries one of the pair's encodings, its arm
amplitudes scaled by the transmissivities ``tau`` and renormalized,
measured in the basis that Bob's input selects, with phase noise added
to the preparation phases.  The source emits Poissonian photon numbers (mean
``mu`` per pulse), detectors register each photon independently with a
fixed efficiency, and optional dark counts fire per gate.  Thinning the
Poisson source leaves Poisson(mu * det_efficiency) detected photons per
pulse, so the sampler is event-driven and still exact: it draws which
pulses click and which gates fire dark, then settings, zero-truncated
photon numbers and phase noise only for those pulses, and its work grows
with detections rather than pulses.  Both phase-noise models damp every
two-arm interference term by one closed-form factor (see ``_damping``),
so fringe visibility, expected ASP and calibration to a target
visibility are exact for every model; ``expected_outcome_probabilities``
is the one Born-rule table behind the expected figures.  The config's
keys, defaults and JSON types are those of its dataclasses.  A config is
checked when it is built, by its constructor, ``dataclasses.replace`` or
``from_dict``, and is immutable, so no function here checks it again.
Everything is deterministic given the master seed; ``SAMPLER_VERSION``
names the byte stream a seed produces.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .counts import CountsTable
from .errors import ConfigError, DimensionMismatch
from .mub import hadamard_mub_pair_d4
from .qrac import optimal_states

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


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        if self.model not in NOISE_MODELS:
            raise ConfigError(f"unknown phase-noise model {self.model!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ConfigError("phase-noise sigma must be finite and nonnegative")


@dataclass(frozen=True)
class InterferometerConfig:
    """Device parameters, checked when built; build variants with ``replace``."""

    d: int = 4
    mu: float = 0.2
    det_efficiency: float = 0.10
    rep_rate: float = 2.0e6
    integration_time: float = 1.0
    phase_noise: PhaseNoiseConfig = field(default_factory=PhaseNoiseConfig)
    tau: tuple = (1.0, 1.0, 1.0, 1.0)
    dark_count_prob: float = 0.0

    def __post_init__(self) -> None:
        states, _ = _protocol_tables()
        d = states.shape[1]
        if self.d != d:
            raise ConfigError(f"the simulated MUB pair has d={d}, got d={self.d}")
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
        if len(self.tau) != d or any(not 0.0 <= t <= 1.0 for t in self.tau):
            raise ConfigError(f"tau must be {d} transmissivities in [0, 1]")
        if not (np.abs(states) @ np.asarray(self.tau)).all():
            raise ConfigError("tau blocks every arm of a protocol state")

    def default_rounds(self) -> int:
        return int(round(self.rep_rate * self.integration_time))

    def to_dict(self) -> dict:
        return {**asdict(self), "tau": list(self.tau)}

    @classmethod
    def from_dict(cls, doc: dict) -> "InterferometerConfig":
        return _from_json(cls, doc, "config")


def _from_json(cls, doc, where: str):
    """Build dataclass ``cls`` from a JSON object, typed by its defaults.

    A key absent from ``doc`` keeps its default.  A value must have its
    default's JSON type: an integer for an int, a number (not a boolean)
    for a float, stored as float, a list of numbers for a tuple, a string
    for a str, and an object for a nested dataclass.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    default = cls()
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return replace(default, **{name: _json_value(getattr(default, name), value, name)
                               for name, value in doc.items()})


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string"}


def _json_value(default, value, name: str):
    if is_dataclass(default):
        return _from_json(type(default), value, name)
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list")
        return tuple(_json_value(default[0], v, name) for v in value)
    if isinstance(default, float) and type(value) in (int, float):  # not bool
        try:
            return float(value)
        except OverflowError as exc:
            raise ConfigError(f"{name} is out of range") from exc
    if type(value) is not type(default):
        raise ConfigError(f"{name} must be {_JSON_TYPES[type(default)]}, got {value!r}")
    return value


def measurement_unitary(phi_b) -> np.ndarray:
    """Analysis unitary of the measurement stage.

    The per-arm phases act on the input modes before the splitter, so the
    matrix is the splitter times a diagonal phase layer; row k is the bra
    of the analysis state for outcome k.  The splitter is the pair's
    first basis: with all phases zero the rows are its bras.  For the
    Hadamard pair, the first phase at pi gives the second basis.
    """
    splitter = _protocol_tables()[1][0]
    phi = np.asarray(phi_b, dtype=float)
    if phi.shape != splitter.shape[1:]:
        raise DimensionMismatch(f"phi_b must have {splitter.shape[1]} entries")
    return splitter * np.exp(-1j * phi)


def detection_probabilities(state, phi_b) -> np.ndarray:
    """Click probabilities per output path for a normalized input state."""
    unitary = measurement_unitary(phi_b)
    psi = np.asarray(state, dtype=complex)
    if psi.shape != unitary.shape[1:]:
        raise DimensionMismatch(f"state must have {unitary.shape[1]} entries")
    return np.abs(unitary @ psi) ** 2


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


def expected_outcome_probabilities(config: InterferometerConfig | None = None) -> np.ndarray:
    """Expected click probabilities, shape (d*d, 2, d) indexed by (ij, y-1, b-1).

    The protocol states are weighted by the config's ``tau`` and
    renormalized, as in ``simulate_counts``, and every two-arm cross term
    of the Born rule is damped by ``_damping``.  For the random walk this
    is the average over whole stabilization windows.  Without a config
    the table is the balanced, noiseless one of the default config.
    """
    if config is None:
        config = InterferometerConfig()
    states, bras = _protocol_tables()
    states = states * np.asarray(config.tau)
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    # terms[ij, y, b, k]: arm k's share of the amplitude of outcome b
    terms = np.einsum("ybk,sk->sybk", bras, states)
    diagonal = np.sum(np.abs(terms) ** 2, axis=-1)
    full = np.abs(np.sum(terms, axis=-1)) ** 2
    return diagonal + _damping(config.phase_noise) * (full - diagonal)


def ideal_expected_counts(total: int) -> CountsTable:
    """Expected counts with no source/detector/noise model, scaled to ~total.

    Per-setting totals are rounded to a multiple of 12 so that the exact
    outcome probabilities (all multiples of 1/12 for the protocol states)
    map to integer counts; the estimated ASP is then exactly 3/4.  The
    rounded total may not exceed the int64 range that ``read_counts_csv``
    accepts.
    """
    probs = expected_outcome_probabilities()
    d = probs.shape[-1]
    n_settings = 2 * d * d
    if total < n_settings * 12:
        raise ValueError(f"total must be at least {n_settings * 12} "
                         "for one detection per cell")
    limit = int(np.iinfo(np.int64).max)
    # min() keeps the division finite for any int; past 2*limit the check fails anyway
    per_setting = 12 * max(1, round(min(total, 2 * limit) / (n_settings * 12)))
    if per_setting * n_settings > limit:
        raise ValueError(f"total must round to at most {limit} counts")
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
    return CountsTable(dim=d, cells=total_cells)


def noise_averaged_asp(config: InterferometerConfig) -> float:
    """Expected ASP under the configured noise and ``tau`` (no photon sampling).

    The mean over settings of the correct outcome's entry of
    ``expected_outcome_probabilities``: outcome i for y=1 and j for y=2.
    This is 1/4 + D/2 for equal transmissivities.
    """
    probs = expected_outcome_probabilities(config)
    d = probs.shape[-1]
    ij = np.arange(d * d)
    i, j = np.divmod(ij, d)
    return float(np.mean(np.stack([probs[ij, 0, i], probs[ij, 1, j]])))


def fringe_visibility(config: InterferometerConfig, arm_pair: tuple[int, int]) -> float:
    """Two-arm interference visibility at the first detector.

    Scans the relative phase between the two (1-based) arms over a full
    turn with the other arms blocked.  Without noise the fringe has
    visibility V0 = 2 tau_k tau_l / (tau_k^2 + tau_l^2); phase noise
    scales it to V0 * D with D from ``_damping``.
    """
    k, l = arm_pair
    d = len(config.tau)
    if k == l or not (1 <= k <= d and 1 <= l <= d):
        raise ValueError(f"arm_pair must be two distinct arms in 1..{d}, got {arm_pair}")
    tk, tl = config.tau[k - 1], config.tau[l - 1]
    norm_sq = tk * tk + tl * tl
    if norm_sq == 0.0:
        raise ConfigError(f"both scanned arms {k} and {l} are blocked")
    return 2.0 * tk * tl / norm_sq * _damping(config.phase_noise)


def mean_fringe_visibility(config: InterferometerConfig, seed: int = 0) -> float:
    """Visibility averaged over all arm pairs.

    ``seed`` is unused: the visibility is in closed form.
    """
    pairs = itertools.combinations(range(1, len(config.tau) + 1), 2)
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
