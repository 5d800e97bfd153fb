"""The three benchmark workloads: seeded inputs, the op, and its output checks.

Every workload is one user running ``mubcert`` commands back to back: a
closed loop with one client, which sends its next command only after the
previous one returned.  An op is one or more ``mubcert.cli.main(argv)``
calls.  All inputs (per-op seeds, config files, counts CSVs) are made from
the workload seed before timing starts; the program sees only argv and
files.  The checks recompute what they can without the package, so a
change to the program cannot also change the reference it is checked
against.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

CSV_HEADER = "i,j,y,outcome,count"
# ASP one-sigma uncertainty reported in the paper.
PAPER_SIGMA = 1.1e-4
SEED_POOL = 4096
# Every PROBE_EVERY-th op repeats the seed of the op PROBE_BACK before it.
PROBE_EVERY = 8
PROBE_BACK = 4


class CheckFailed(Exception):
    """An op's output is wrong."""


def read_counts(path: Path) -> np.ndarray:
    """Parse an ``i,j,y,outcome,count`` CSV into cells of shape (d, d, 2, d)."""
    lines = Path(path).read_text().splitlines()
    if lines[0] != CSV_HEADER:
        raise CheckFailed(f"{path}: bad header {lines[0]!r}")
    rows = np.array([ln.split(",") for ln in lines[1:]], dtype=np.int64)
    d = int(rows[:, 0].max())
    cells = np.zeros((d, d, 2, d), dtype=np.int64)
    cells[rows[:, 0] - 1, rows[:, 1] - 1, rows[:, 2] - 1, rows[:, 3] - 1] = rows[:, 4]
    return cells


def asp_of(cells: np.ndarray) -> tuple[float, float]:
    """ASP and its one-sigma Poisson uncertainty, as the paper defines them."""
    d = cells.shape[0]
    idx = np.arange(d)
    correct = np.stack([cells[idx[:, None], idx[None, :], 0, idx[:, None]],
                        cells[idx[:, None], idx[None, :], 1, idx[None, :]]], axis=-1)
    totals = cells.sum(axis=3)
    p = correct / totals
    sigma = math.sqrt(float(np.sum(p * (1.0 - p) / totals))) / p.size
    return float(p.mean()), sigma


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def op_seeds(rng: np.random.Generator) -> list:
    """Per-op seeds, with a periodic repeat of an earlier op's seed."""
    seeds = [int(s) for s in rng.integers(0, 2**31, SEED_POOL)]
    for k in range(PROBE_EVERY - 1, SEED_POOL, PROBE_EVERY):
        seeds[k] = seeds[k - PROBE_BACK]
    return seeds


class SimulateWorkload:
    """Shared loop of the two ``simulate`` workloads.

    The output CSV of every op is hashed; an op whose seed was seen before
    must reproduce the earlier CSV byte for byte (manifests carry
    timestamps, so they are not compared).
    """

    name = ""
    rounds = 0
    tail_percentile = 0
    mu = eta = dark = 0.0

    def __init__(self, rng: np.random.Generator, work: Path):
        self.out = work / "counts.csv"
        self.seeds = op_seeds(rng)
        self.warm_seed = int(rng.integers(0, 2**31))
        self.hashes: dict = {}
        self.sigmas: list = []

    def argvs(self, k: int) -> list:
        seed = self.warm_seed if k < 0 else self.seeds[k % SEED_POOL]
        return [["simulate", *self.extra_args(), "--rounds", str(self.rounds),
                 "--seed", str(seed), "--out", str(self.out)]]

    def extra_args(self) -> list:
        return []

    def pulses(self, k: int) -> int:
        return self.rounds

    def check(self, k: int) -> None:
        cells = read_counts(self.out)
        if cells.shape != (4, 4, 2, 4):
            raise CheckFailed(f"counts table of shape {cells.shape}")
        asp, sigma = asp_of(cells)
        photons = self.rounds * self.mu * self.eta
        darks = 4 * self.rounds * self.dark
        expected_asp = (photons * self.photon_asp() + darks * 0.25) / (photons + darks)
        if abs(asp - expected_asp) > 5.0 * sigma:
            raise CheckFailed(f"ASP {asp:.6f} +/- {sigma:.2g}, "
                              f"expected {expected_asp:.6f}")
        detections = int(cells.sum())
        if abs(detections - photons - darks) > 5.0 * math.sqrt(photons + darks):
            raise CheckFailed(f"{detections} detections, "
                              f"expected {photons + darks:.0f}")
        if k >= 0:
            self.sigmas.append(sigma)
            seed = self.seeds[k % SEED_POOL]
            digest = sha256_of(self.out)
            if self.hashes.setdefault(seed, digest) != digest:
                raise CheckFailed(f"seed {seed} gave a different CSV than before")

    def photon_asp(self) -> float:
        return 0.75

    def extra_metrics(self, latency_p50_ms: float) -> dict:
        sigma = float(np.median(self.sigmas))
        return {"asp_sigma": (sigma, "ratio")}


class WeakDefault(SimulateWorkload):
    """``simulate --rounds 3000000`` at the paper's operating point."""

    name = "weak-default"
    rounds = 3_000_000
    tail_percentile = 85
    mu, eta, dark = 0.2, 0.1, 0.0

    def extra_metrics(self, latency_p50_ms: float) -> dict:
        out = super().extra_metrics(latency_p50_ms)
        sigma = out["asp_sigma"][0]
        out["time_to_paper_sigma_s"] = (
            latency_p50_ms / 1e3 * (sigma / PAPER_SIGMA) ** 2, "s")
        return out


class BrightDrift(SimulateWorkload):
    """η = 1 with Gaussian drift calibrated to a visibility, and dark counts."""

    name = "bright-drift"
    rounds = 1_000_000
    tail_percentile = 70
    mu, eta, dark = 0.2, 1.0, 1e-5
    visibility = 0.9989

    def __init__(self, rng: np.random.Generator, work: Path):
        super().__init__(rng, work)
        self.config = work / "bright.json"
        self.config.write_text(json.dumps({
            "det_efficiency": self.eta,
            "phase_noise": {"model": "gaussian_drift", "sigma": 0.0},
            "dark_count_prob": self.dark,
        }) + "\n")
        self.sigma_cal = 0.0

    def extra_args(self) -> list:
        return ["--config", str(self.config),
                "--visibility-target", repr(self.visibility)]

    def check(self, k: int) -> None:
        manifest = json.loads(Path(f"{self.out}.manifest.json").read_text())
        extra = manifest["extra"]
        self.sigma_cal = float(extra["calibrated_sigma"])
        vis = float(extra["calibrated_mean_visibility"])
        if abs(vis - self.visibility) > 5e-4:
            raise CheckFailed(f"calibrated visibility {vis}")
        super().check(k)

    def photon_asp(self) -> float:
        return 0.25 + 0.5 * math.exp(-self.sigma_cal ** 2)


class AnalysisSweep:
    """``mub``, ``certify`` and ``figure-data`` on one generated dataset.

    Datasets have d uniform in {2, ..., 8} and visibility uniform in
    [0.85, 1]; each of the 2d^2 settings gets 2000 detections drawn from
    the noisy Born probabilities of the optimal Fourier-pair encoding.  A
    pool of datasets is generated up front and the ops cycle through it.
    Every d appears equally often in the pool, in an order drawn from the
    seed, because the cost of an op grows steeply with d and a seed-drawn
    mix of dimensions would move the latency figures from seed to seed.
    """

    name = "analysis-sweep"
    tail_percentile = 99
    dims = range(2, 9)
    pool = 36 * len(dims)
    per_setting = 2000

    def __init__(self, rng: np.random.Generator, work: Path):
        self.datasets = []
        for n, d in enumerate(rng.permutation(np.resize(self.dims, self.pool))):
            d = int(d)
            vis = float(rng.uniform(0.85, 1.0))
            probs = vis * born_probabilities(d) + (1.0 - vis) / d
            cells = rng.multinomial(self.per_setting, probs)
            path = work / f"data{n:03d}.csv"
            write_counts(cells, path)
            asp, sigma = asp_of(cells)
            self.datasets.append((d, path, asp, applicability(asp, sigma, d)))
        self.mub_out = work / "mub.json"
        self.cert_out = work / "certificate.json"
        self.prefix = work / "figure"

    def argvs(self, k: int) -> list:
        d, path, _, _ = self.datasets[k % self.pool]
        return [
            ["mub", "--construction", "fourier", "--d", str(d),
             "--out", str(self.mub_out)],
            ["certify", "--counts", str(path), "--out", str(self.cert_out)],
            ["figure-data", "--counts", str(path), "--out-prefix", str(self.prefix)],
        ]

    def pulses(self, k: int) -> int:
        return 0

    def check(self, k: int) -> None:
        d, _, asp, expected = self.datasets[k % self.pool]
        metrics = json.loads(self.mub_out.read_text())["metrics"]
        want = {"overlap_entropy_bits": 2.0 * math.log2(d), "norm_sum_first": d,
                "norm_sum_second": d, "max_sqrt_overlap": 1.0 / math.sqrt(d)}
        for key, value in want.items():
            if abs(metrics[key] - value) > 1e-9:
                raise CheckFailed(f"mub {key} = {metrics[key]}, expected {value}")
        if metrics["mutually_unbiased"] is not True:
            raise CheckFailed("mub pair reported as not mutually unbiased")
        cert = json.loads(self.cert_out.read_text())
        if abs(cert["asp"]["value"] - asp) > 1e-12:
            raise CheckFailed(f"certified ASP {cert['asp']['value']}, "
                              f"recomputed {asp}")
        got = {key: reason == "ok" for key, reason in cert["applicability"].items()}
        if got != expected:
            raise CheckFailed(f"applicability {got}, expected {expected}")
        rows = Path(f"{self.prefix}_outcome_probabilities.csv").read_text().splitlines()
        if len(rows) - 1 != 2 * d * d:
            raise CheckFailed(f"{len(rows) - 1} probability rows for d={d}")

    def extra_metrics(self, latency_p50_ms: float) -> dict:
        return {}


def born_probabilities(d: int) -> np.ndarray:
    """Outcome probabilities (d, d, 2, d) of the optimal Fourier-pair encoding."""
    first = np.eye(d, dtype=complex)
    jk = np.outer(np.arange(d), np.arange(d))
    second = np.exp(2j * np.pi * jk / d) / math.sqrt(d)
    probs = np.empty((d, d, 2, d))
    for i in range(d):
        for j in range(d):
            overlap = np.vdot(first[i], second[j])
            psi = first[i] + np.exp(-1j * np.angle(overlap)) * second[j]
            psi /= np.linalg.norm(psi)
            probs[i, j, 0] = np.abs(first.conj() @ psi) ** 2
            probs[i, j, 1] = np.abs(second.conj() @ psi) ** 2
    return probs / probs.sum(axis=-1, keepdims=True)


def write_counts(cells: np.ndarray, path: Path) -> None:
    lines = [CSV_HEADER]
    for (i, j, y, b), count in np.ndenumerate(cells):
        lines.append(f"{i + 1},{j + 1},{y + 1},{b + 1},{count}")
    path.write_text("\n".join(lines) + "\n")


def applicability(p: float, sigma: float, d: int) -> dict:
    """Which bounds the certificate must report, from their closed-form domains.

    Mirrors the certificate's rules: an ASP above the quantum optimum by
    at most three sigma is clamped to it, one further above voids every
    bound; the norm-sum bound needs ``d^3 (2p-1)^2 >= d^2 - 1``; the
    incompatibility bound needs the norm-sum and overlap bounds and a
    positive denominator at the certified norm sum.
    """
    optimum = 0.5 * (1.0 + 1.0 / math.sqrt(d))
    keys = ("hs", "norm_sum", "smax", "incompatibility", "entropic")
    if p - optimum > 3.0 * sigma:
        return dict.fromkeys(keys, False)
    p = min(p, optimum)
    disc = d**3 * (2.0 * p - 1.0) ** 2 - (d * d - 1.0)
    norm_ok = disc > 0.0
    incompat_ok = False
    if norm_ok:
        n = d - ((2.0 + math.sqrt(2.0)) / d) * (1.0 - math.sqrt(disc))
        incompat_ok = n * n - d - (d - n) * (d - n + 1.0) > 0.0
    return {"hs": True, "norm_sum": norm_ok, "smax": True,
            "incompatibility": incompat_ok, "entropic": True}


WORKLOADS = {cls.name: cls for cls in (WeakDefault, BrightDrift, AnalysisSweep)}
