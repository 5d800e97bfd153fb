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
pulse.  Where no two photons share a drawn phase, an outcome is a draw
from the phase-averaged Born table, so the sampler draws whole
per-setting counts from it: every photon without noise, and the
single-photon pulses under Gaussian drift.  The two photons of a
two-photon drift pulse share its phases, and their outcome pair is a
draw from the closed-form pair table (``_pair_table``).  Only drift
pulses with three or more photons and every clicking pulse under the
random walk, whose window shares its walk, get their own phases and Born
row; every model draws pulses per setting and dark gates per (setting,
arm) alike (see ``_block_counts``).  The sampler is exact either way.
Only the photons of those event-path pulses cost memory, so a block is
as many whole stabilization windows as hold about ``BLOCK_EVENTS`` of
them (``_block_rounds``): up to 2**40 pulses without phase noise, and 9.3
million under drift at mu * det_efficiency = 0.2.
Both phase-noise models damp every two-arm interference term by one
closed-form factor (see ``_damping``), so fringe visibility, expected
ASP and calibration to a target visibility are exact for every model;
``expected_outcome_probabilities`` is the one Born-rule table behind the
expected figures and the sampler.  The config's
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
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .counts import CountsTable
from .errors import ConfigError, DimensionMismatch
from .mub import hadamard_mub_pair_d4
from .qrac import correct_outcomes, optimal_states

NOISE_MODELS = ("none", "gaussian_drift", "random_walk")

# Names the counts stream simulate_counts gives for (config, rounds,
# seed); bump it whenever that stream changes.  Manifests record it.
SAMPLER_VERSION = "table-5"

# Phase stabilization restarts the random walk at zero every
# STABILIZE_ROUNDS pulses of the global pulse index.  Every block is a
# whole number of these windows, so it starts on a restart and needs no
# state from the block before.
STABILIZE_ROUNDS = 1 << 10

# Rounds are processed in blocks, each on an independent substream of
# the master seed, so partial results merge identically regardless of
# processing order.  A block is as many whole windows as keep its
# expected number of event-path photons (see _block_rounds) within
# BLOCK_EVENTS, which bounds the memory of its event path, and at most
# MAX_BLOCK_ROUNDS pulses, which keeps every per-block draw within
# numpy's int64 range.
BLOCK_EVENTS = 1 << 15
MAX_BLOCK_ROUNDS = 1 << 40

# Largest rounds * max(1, lam + d * dark_count_prob), the expected
# detections of a run, that simulate_counts accepts: the int64 totals
# keep a factor of two in hand.
MAX_RUN_DETECTIONS = 1 << 62

# Largest detected-photon rate mu * det_efficiency a config accepts.  The
# event path holds one entry per detected photon of its pulses, so a
# block's memory grows with the rate, and numpy's Poisson sampler rejects
# rates near 1e19 outright; 40 is the largest rate the sampler's tests
# cover.
MAX_PHOTON_RATE = 40.0


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
    """Device parameters, checked when built; build variants with ``replace``.

    The detected-photon rate ``mu * det_efficiency`` is at most
    ``MAX_PHOTON_RATE`` (40 photons per pulse).
    """

    d: int = 4
    mu: float = 0.2
    det_efficiency: float = 0.10
    rep_rate: float = 2.0e6
    integration_time: float = 1.0
    phase_noise: PhaseNoiseConfig = field(default_factory=PhaseNoiseConfig)
    tau: tuple = (1.0, 1.0, 1.0, 1.0)
    dark_count_prob: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", tuple(self.tau))  # a list would stay mutable
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
        if self.mu * self.det_efficiency > MAX_PHOTON_RATE:
            raise ConfigError(f"mu * det_efficiency must be at most {MAX_PHOTON_RATE:g}")
        if self.rep_rate <= 0.0 or self.integration_time <= 0.0:
            raise ConfigError("rep_rate and integration_time must be positive")
        if not 0.5 < self.rep_rate * self.integration_time < 2 ** 63:
            raise ConfigError("rep_rate * integration_time must round to "
                              "1 to 2**63 - 1 pulses")
        if len(self.tau) != d or any(not 0.0 <= t <= 1.0 for t in self.tau):
            raise ConfigError(f"tau must be {d} transmissivities in [0, 1]")
        if not (np.abs(states) @ np.asarray(self.tau)).all():
            raise ConfigError("tau blocks every arm of a protocol state")

    def default_rounds(self) -> int:
        return int(round(self.rep_rate * self.integration_time))

    def to_dict(self) -> dict:
        # from the fields, not asdict: the values are immutable and need no deep copy
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        noise = self.phase_noise
        return {**doc, "phase_noise": {f.name: getattr(noise, f.name) for f in fields(noise)},
                "tau": list(self.tau)}

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


def expected_outcome_probabilities(config: InterferometerConfig) -> np.ndarray:
    """Expected click probabilities, shape (d, d, 2, d), indexed like ``CountsTable.cells``.

    Entry ``[i-1, j-1, y-1, b-1]`` is the probability of outcome b for
    input dits (i, j) and Bob's input y.  The protocol states are weighted
    by the config's ``tau`` and renormalized, as in ``simulate_counts``,
    and every two-arm cross term of the Born rule is damped by
    ``_damping``.  For the random walk this is the average over whole
    stabilization windows.
    """
    terms = _arm_amplitudes(config.tau)
    d = terms.shape[-1]
    diagonal = np.sum(np.abs(terms) ** 2, axis=-1)
    full = np.abs(np.sum(terms, axis=-1)) ** 2
    probs = diagonal + _damping(config.phase_noise) * (full - diagonal)
    return probs.reshape(d, d, 2, d)


@functools.lru_cache(maxsize=16)
def _arm_amplitudes(tau: tuple) -> np.ndarray:
    """Arm k's share of the amplitude of outcome b, shape (2*d*d, d, d) (read-only).

    Entry ``[s, b, k]`` is that share for setting s = 2*(i*d + j) + y,
    that is input dits (i, j) and Bob's input y+1, with the protocol kets
    weighted by ``tau`` and renormalized; a pulse with preparation phases
    theta has amplitude ``sum_k amps[s, b, k] * exp(i theta_k)`` for
    outcome b.  Built once per ``tau``, shared by the expected tables and
    the sampler.
    """
    states, bras = _protocol_tables()
    d = states.shape[1]
    states = states * np.asarray(tau)
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    amps = np.einsum("ybk,sk->sybk", bras, states).reshape(-1, d, d)
    amps.flags.writeable = False
    return amps


def _pair_table(config: InterferometerConfig) -> np.ndarray:
    """Joint outcome law of the two photons of a Gaussian-drift pulse, shape (2*d*d, d, d).

    Entry ``[s, b, b']`` is E[p(b|theta) p(b'|theta)] for setting
    s = 2*(i*d + j) + y, where p(.|theta) is the Born row of the pulse
    with i.i.d. N(0, sigma^2) phases theta per arm: both photons see the
    same theta and then land independently.  With A the arm amplitudes
    (``_arm_amplitudes``), p(b|theta) p(b'|theta) is the sum over arms
    k, l, m, n of A[b,k] A*[b,l] A[b',m] A*[b',n] exp(i c.theta) with
    c = e_k - e_l + e_m - e_n, and exp(i c.theta) averages to
    exp(-sigma^2 |c|^2 / 2) (``_pair_exponents``), so the table is exact.
    Its rows and columns both sum to ``expected_outcome_probabilities(config)``.
    """
    amps = _arm_amplitudes(config.tau)
    d = amps.shape[-1]
    # outer[s, b, k*d + l] = A[s, b, k] A*[s, b, l]
    outer = (amps[..., :, None] * amps[..., None, :].conj()).reshape(-1, d, d * d)
    moment = np.exp(-0.5 * config.phase_noise.sigma ** 2 * _pair_exponents(d))
    pairs = ((outer.reshape(-1, d * d) @ moment).reshape(outer.shape)
             @ outer.transpose(0, 2, 1)).real
    return np.maximum(pairs, 0.0)  # rounding can dip below 0 at a zero entry


@functools.cache
def _pair_exponents(d: int) -> np.ndarray:
    """|c|^2 for c = e_k - e_l + e_m - e_n at ``[k*d + l, m*d + n]``, as floats (read-only)."""
    eye = np.eye(d)
    c = (eye[:, None, None, None] - eye[None, :, None, None]
         + eye[None, None, :, None] - eye[None, None, None, :])
    table = np.sum(c * c, axis=-1).reshape(d * d, d * d)
    table.flags.writeable = False
    return table


def ideal_expected_counts(total: int) -> CountsTable:
    """Expected counts with no source/detector/noise model, scaled to ~total.

    The table is the default config's balanced, noiseless one.
    Per-setting totals are rounded to a multiple of 12 so that the exact
    outcome probabilities (all multiples of 1/12 for the protocol states)
    map to integer counts; the estimated ASP is then exactly 3/4.  The
    rounded total may not exceed the int64 range that ``read_counts_csv``
    accepts.
    """
    probs = expected_outcome_probabilities(InterferometerConfig())
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
    cells = np.floor(per_setting * probs + 0.5).astype(np.int64)
    i, j, y = np.indices(cells.shape[:3])
    cells[i, j, y, cells.argmax(axis=-1)] += per_setting - cells.sum(axis=-1)  # guard exact totals
    return CountsTable(dim=d, cells=cells)


# -- noise processes ----------------------------------------------------------

def _walk_phases(sigma: float, events: np.ndarray, arms: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Random-walk phases, shape (events.size, arms), at sorted pulse indices.

    ``events`` count pulses from the start of a block, where the walk
    restarts.  The walk takes an N(0, gap*sigma^2) step per arm over each
    gap, where the first event of a window counts its gap from the pulse
    before the window's start, and the cumulative sum restarts at every
    window.
    """
    window_start = events - events % STABILIZE_ROUNDS
    prev = np.concatenate(([-1], events[:-1]))
    first = prev < window_start
    steps = rng.normal(0.0, sigma, size=(events.size, arms))
    steps *= np.sqrt(events - np.maximum(prev, window_start - 1))[:, None]
    walk = np.cumsum(steps, axis=0)
    # subtract the sum up to each window's first event, exclusive
    first_of = np.maximum.accumulate(np.where(first, np.arange(events.size), 0))
    return walk - (walk[first_of] - steps[first_of])


def _poisson_table(m: int, lam: float) -> np.ndarray:
    """CDF of Poisson(lam) conditioned on at least m >= 1, entry i for m + i.

    The terms from k = m are products of the ratios lam / k, cut before
    the first k whose tail sum falls below 2**-53 of the total, the
    resolution of a uniform double; the last entry is exactly 1.
    """
    k = np.arange(m + 1, m + int(3 * lam) + 64)  # reaches far past that cut for lam <= 40
    terms = np.cumprod(np.concatenate(([1.0], lam / k)))
    tails = np.cumsum(terms[::-1])[::-1]
    cdf = np.cumsum(terms[:np.argmax(tails < tails[0] * 2.0 ** -53)])
    return cdf / cdf[-1]


def _poisson_at_least(m: int, lam: float, size: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Poisson(lam) draws conditioned on at least m >= 1, one uniform each (``_poisson_table``)."""
    return m + np.searchsorted(_poisson_table(m, lam), rng.random(size), side="right")


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

def _photon_split(lam: float) -> list[float]:
    """P(N = 0), P(N = 1), P(N = 2) and P(N >= 3) for N ~ Poisson(lam)."""
    p0 = math.exp(-lam)
    p1, p2 = lam * p0, 0.5 * lam * lam * p0
    return [p0, p1, p2, max(0.0, -math.expm1(-lam) - p1 - p2)]


def _block_rounds(config: InterferometerConfig) -> int:
    """Pulses per block: the most whole windows within the event budget.

    A pulse brings its photons to the event path (``_photon_hits``) when
    N >= 3 under Gaussian drift, when N >= 1 under the random walk and
    never without noise or at sigma = 0, N ~ Poisson(lam) its detected
    photons; that is E[N; N >= 3] = lam P(N >= 2), lam and 0 photons per
    pulse.  A block is the most whole windows that hold at most
    BLOCK_EVENTS such photons in expectation, but at least one window and
    at most MAX_BLOCK_ROUNDS pulses.
    """
    lam = config.mu * config.det_efficiency
    noise = config.phase_noise
    if noise.model == "none" or noise.sigma == 0.0:
        share = 0.0
    elif noise.model == "gaussian_drift":
        share = lam * sum(_photon_split(lam)[2:])
    else:
        share = lam
    most = min(BLOCK_EVENTS / share, MAX_BLOCK_ROUNDS) if share > 0.0 else MAX_BLOCK_ROUNDS
    return STABILIZE_ROUNDS * max(1, int(most) // STABILIZE_ROUNDS)


def _born_cdf(amps: np.ndarray, settings: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Cumulative Born row of every pulse, shape (pulses, d), its last column exactly 1.

    Pulse p's Born row is ``|amps[settings[p]] @ exp(i phases[p])|^2``
    with ``amps`` from ``_arm_amplitudes``.
    """
    rotation = np.empty(phases.shape, dtype=complex)  # exp(i theta)
    np.cos(phases, out=rotation.real)
    np.sin(phases, out=rotation.imag)
    cum = np.abs(amps[settings] @ rotation[:, :, None])[..., 0] ** 2
    for b in range(1, cum.shape[1]):  # np.cumsum(axis=1)'s sums, one vector add per column
        cum[:, b] += cum[:, b - 1]
    cum /= cum[:, -1:]
    return cum


def _photon_hits(amps: np.ndarray, settings: np.ndarray, n_photons: np.ndarray,
                 phases: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Flat cell index of every photon of the given pulses.

    Pulse p has setting ``settings[p]``, ``n_photons[p]`` detected photons
    and preparation phases ``phases[p]``, and each of its photons draws
    one uniform against its cumulative Born row (``_born_cdf``).  The cell
    of outcome b for setting s is s*d + b, the flat index of
    ``CountsTable.cells``.
    """
    d = amps.shape[-1]
    cum = _born_cdf(amps, settings, phases)
    u = rng.random(n_photons.sum())
    cell = np.repeat(settings * d, n_photons)
    for b in range(d - 1):  # the last column is exactly 1, which no uniform passes
        cell += u > np.repeat(cum[:, b], n_photons)
    return cell


def _block_counts(config: InterferometerConfig, amps: np.ndarray, born: np.ndarray,
                  pairs: np.ndarray | None, block_index: int, n_rounds: int,
                  seed: int) -> np.ndarray:
    """Simulate one block of rounds on its own substream; returns the cells.

    ``amps`` is ``_arm_amplitudes(config.tau)``, ``born`` is
    ``expected_outcome_probabilities(config)`` and ``pairs`` is
    ``_pair_table(config)`` (read only under Gaussian drift with
    sigma > 0); all depend only on the config, so ``simulate_counts``
    builds them once for all blocks.

    Every model first draws the pulses per setting and, at
    dark_count_prob > 0, the dark gates per (setting, arm); a setting
    s = 2*(i*d + j) + y encodes the input dits and basis.  Each pulse has Poisson(lam) detected photons,
    lam = mu * det_efficiency.  Without noise or at sigma = 0, whole
    per-setting counts are drawn from the Born table.  Under drift each setting's pulses
    split into 0, 1, 2 and at least 3 photons: single photons land by the
    Born table, and each two-photon pulse adds both outcomes of one draw
    from the pair table.  Under the random walk each setting's clicking
    pulses are drawn, placed at a uniform sorted subset of the block's
    pulses in a uniformly shuffled setting order; settings, photon
    numbers and dark gates are i.i.d. per pulse, so this is exact.  The
    drift pulses with three or more photons and the walk's clicking
    pulses take the event path (``_photon_hits``) with their own phases.
    Output depends only on the arguments, so blocks merge identically in
    any order.
    """
    n_settings, d = amps.shape[:2]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(block_index,)))
    # Fixed draw order: pulses per setting, dark gates per (setting, arm),
    # then the photons.  A gate fires independently of the photons, with
    # its pulse's setting.  At dark_count_prob = 0 no gate is drawn:
    # numpy's binomial returns 0 there without touching the generator,
    # so the stream is the one the draw would leave.
    pulses = rng.multinomial(n_rounds, np.full(n_settings, 1.0 / n_settings))
    if config.dark_count_prob:
        cells = rng.binomial(pulses[:, None], config.dark_count_prob, (n_settings, d))
    else:
        cells = np.zeros((n_settings, d), dtype=np.int64)
    table = born.reshape(n_settings, d)
    lam = config.mu * config.det_efficiency
    noise = config.phase_noise
    if noise.model == "none" or noise.sigma == 0.0:
        cells += rng.multinomial(rng.poisson(pulses * lam), table)
        return cells.reshape(d, d, 2, d)

    if noise.model == "gaussian_drift":
        # pulses with 0, 1, 2 and at least 3 detected photons
        split = rng.multinomial(pulses, _photon_split(lam))
        cells += rng.multinomial(split[:, 1], table)
        pair_counts = rng.multinomial(split[:, 2], pairs.reshape(n_settings, d * d))
        pair_counts = pair_counts.reshape(n_settings, d, d)
        cells += pair_counts.sum(axis=2) + pair_counts.sum(axis=1)
        events = np.repeat(np.arange(n_settings), split[:, 3])
        n_photons = _poisson_at_least(3, lam, events.size, rng)
        phases = rng.normal(0.0, noise.sigma, (events.size, d))
    else:
        clicks = rng.binomial(pulses, -math.expm1(-lam))
        at = np.sort(rng.choice(n_rounds, clicks.sum(), replace=False, shuffle=False))
        events = rng.permutation(np.repeat(np.arange(n_settings), clicks))
        n_photons = _poisson_at_least(1, lam, events.size, rng)
        phases = _walk_phases(noise.sigma, at, d, rng)
    hits = _photon_hits(amps, events, n_photons, phases, rng)
    cells += np.bincount(hits, minlength=n_settings * d).reshape(n_settings, d)
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

    The rounds run in blocks of ``_block_rounds(config)`` pulses, block b
    on substream b of the seed.  Pulses per setting, dark gates, photon
    totals, the drift photon split and the pair draws are multinomial,
    binomial and Poisson draws, whose sums over blocks have the law of
    one draw over the run, and every event-path pulse has i.i.d. phases
    or restarts its walk at a window, so the counts have the same law
    for any block size.  Raises
    ``ValueError`` before any draw when rounds * max(1, lam + d *
    dark_count_prob), the run's expected detections, exceeds
    ``MAX_RUN_DETECTIONS`` = 2**62, where an int64 total could wrap.
    """
    if rounds is None:
        rounds = config.default_rounds()
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    d = len(config.tau)
    rate = max(1.0, config.mu * config.det_efficiency + d * config.dark_count_prob)
    if rounds > MAX_RUN_DETECTIONS / rate:  # int against float compares exactly
        raise ValueError(f"rounds * max(1, expected detections per pulse) must be at "
                         f"most 2**62, got {rounds} rounds at {rate:g} per pulse")
    amps = _arm_amplitudes(config.tau)
    born = expected_outcome_probabilities(config)
    noise = config.phase_noise
    pairs = _pair_table(config) if noise.model == "gaussian_drift" and noise.sigma > 0.0 else None
    size = _block_rounds(config)
    total_cells = np.zeros((d, d, 2, d), dtype=np.int64)
    for block, start in enumerate(range(0, rounds, size)):
        total_cells += _block_counts(config, amps, born, pairs, block,
                                     min(size, rounds - start), seed)
    return CountsTable(dim=d, cells=total_cells)


def noise_averaged_asp(config: InterferometerConfig) -> float:
    """Expected ASP under the configured noise and ``tau`` (no photon sampling).

    The mean of ``correct_outcomes`` of ``expected_outcome_probabilities``,
    the same rule ``estimate_asp`` applies to counts.  This is 1/4 + D/2
    for equal transmissivities.
    """
    return float(correct_outcomes(expected_outcome_probabilities(config)).mean())


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


def mean_fringe_visibility(config: InterferometerConfig) -> float:
    """Visibility averaged over all arm pairs, in closed form."""
    pairs = itertools.combinations(range(1, len(config.tau) + 1), 2)
    return float(np.mean([fringe_visibility(config, pair) for pair in pairs]))


def calibrate_drift_sigma(config: InterferometerConfig, target_visibility: float) -> float:
    """Tune the phase-noise sigma to hit a target mean fringe visibility.

    The mean visibility is V0 * D(sigma^2, K) with V0 the noiseless mean
    visibility and K the model's window, so x = sigma^2 solves
    D(x, K) = V / V0.  With h = ln(V0 / V), D <= exp(-x) puts the root at
    most h, and Jensen's inequality, D >= exp(-x (K+1)/2), at least
    2h/(K+1).  Bisection on that bracket runs until the midpoint stops
    moving; for Gaussian drift (K = 1) the bracket is the single point
    sigma = sqrt(ln(V0 / V)).
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
