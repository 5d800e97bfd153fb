"""Mutually unbiased basis pairs and their figures of merit.

Two concrete constructions are provided: the real Hadamard-based ququart
pair used in the multi-core-fiber experiment (both bases implementable with
phase-only modulation), and the computational/Fourier pair available in
every dimension.  The figures of merit are the overlap entropy (1/2-Renyi
entropy of the normalized cross-overlap distribution, in bits), the sum of
effect operator norms, and the maximal overlap of effect square roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotProjective
from .linalg import (
    DEFAULT_TOL,
    eig_hermitian,
    operator_norm,
    psd_sqrt,
    validate_povm,
)

CONSTRUCTION_HADAMARD_D4 = "hadamard-d4"
CONSTRUCTION_FOURIER = "fourier"
CONSTRUCTION_CUSTOM = "custom"

# Balanced four-port splitter transfer matrix: the d=4 real Hadamard over 2.
HADAMARD4 = 0.5 * np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=float,
)


@dataclass(eq=False)
class Measurement:
    """A d-outcome POVM; rank-1 projective in the MUB constructions.

    ``effects[b]`` is the operator for outcome ``b+1`` (outcomes are 1-based
    externally).  ``vectors``, when present, holds the kets of a rank-1
    projective measurement as rows; it is a convenience for constructions
    and is not serialized.
    """

    dim: int
    effects: np.ndarray  # shape (d, d, d), complex
    vectors: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.effects = np.asarray(self.effects, dtype=complex)
        if self.effects.shape != (self.dim, self.dim, self.dim):
            raise DimensionMismatch(
                f"expected {self.dim} effects of shape "
                f"({self.dim}, {self.dim}), got {self.effects.shape}"
            )
        if self.vectors is not None:
            self.vectors = np.asarray(self.vectors, dtype=complex)

    @classmethod
    def projective(cls, vectors) -> "Measurement":
        """Rank-1 projective measurement onto the rows of ``vectors``."""
        v = np.asarray(vectors, dtype=complex)
        d = v.shape[0]
        effects = np.einsum("ki,kj->kij", v, v.conj())
        return cls(dim=d, effects=effects, vectors=v)

    def basis_vectors(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Kets of a rank-1 projective measurement (rows), up to phase."""
        if self.vectors is not None:
            return self.vectors
        vecs = np.empty((self.dim, self.dim), dtype=complex)
        for k in range(self.dim):
            w, v = eig_hermitian(self.effects[k], tol)
            if abs(w[0] - 1.0) > 1e-6 or (self.dim > 1 and abs(w[1]) > 1e-6):
                raise NotProjective(f"effect {k + 1} is not a rank-1 projector")
            vecs[k] = v[:, 0]
        return vecs


@dataclass(eq=False)
class MubPair:
    """Two d-outcome measurements intended to be mutually unbiased."""

    first: Measurement
    second: Measurement
    construction: str = CONSTRUCTION_CUSTOM

    def __post_init__(self):
        if self.first.dim != self.second.dim:
            raise DimensionMismatch("measurements do not share a dimension")
        if not validate_povm(self.first.effects) or not validate_povm(self.second.effects):
            raise NotProjective("measurement effects do not form a POVM")
        if self.construction != CONSTRUCTION_CUSTOM:
            if not is_mutually_unbiased(self, tol=1e-9):
                raise NotProjective(
                    f"construction {self.construction!r} failed the unbiasedness check"
                )

    @property
    def dim(self) -> int:
        return self.first.dim


def hadamard_mub_pair_d4() -> MubPair:
    """The ququart MUB pair realized with phase-only modulation.

    The first basis is given by the columns of the 4x4 Hadamard/2 matrix
    (the balanced four-port splitter); the second by the same matrix with
    its first row negated.  All entries are +-1/2 and every cross overlap
    squares to 1/4.
    """
    first = HADAMARD4.copy()
    second = HADAMARD4.copy()
    second[0, :] *= -1.0
    # column k of the matrix is basis ket k; rows of .T are the kets
    return MubPair(
        first=Measurement.projective(first.T.astype(complex)),
        second=Measurement.projective(second.T.astype(complex)),
        construction=CONSTRUCTION_HADAMARD_D4,
    )


def fourier_mub_pair(d: int) -> MubPair:
    """Computational basis paired with the discrete-Fourier basis.

    The Fourier vectors ``(1/sqrt(d)) * sum_k omega^(jk) |k>`` with
    ``omega = exp(2*pi*i/d)`` are unbiased to the computational basis in
    every dimension d >= 2.  For d = 2 this is the Pauli Z / Pauli X
    eigenbasis pair.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    comp = np.eye(d, dtype=complex)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    fourier = np.exp(2j * np.pi * j * k / d) / np.sqrt(d)
    return MubPair(
        first=Measurement.projective(comp),
        second=Measurement.projective(fourier),
        construction=CONSTRUCTION_FOURIER,
    )


def overlap_matrix(pair: MubPair) -> np.ndarray:
    """Matrix of cross overlaps ``tr(A_i B_j)``, shape (d, d), real."""
    return np.real(
        np.einsum("iab,jba->ij", pair.first.effects, pair.second.effects)
    )


def is_mutually_unbiased(pair: MubPair, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``tr(A_i B_j) = 1/d`` for all outcome pairs, within ``tol``.

    Requires both measurements to be rank-1 projective (every effect with
    unit operator norm and unit trace within ``tol``); raises NotProjective
    otherwise.
    """
    d = pair.dim
    for meas in (pair.first, pair.second):
        for k in range(d):
            eff = meas.effects[k]
            if abs(operator_norm(eff) - 1.0) > max(tol, 1e-7):
                raise NotProjective(f"effect {k + 1} does not have unit norm")
            if abs(np.trace(eff).real - 1.0) > max(tol, 1e-7):
                raise NotProjective(f"effect {k + 1} does not have unit trace")
    return bool(np.max(np.abs(overlap_matrix(pair) - 1.0 / d)) <= tol)


def overlap_entropy(pair: MubPair) -> float:
    """1/2-Renyi entropy of the overlap distribution, in bits.

    The distribution is ``p_ij = tr(A_i B_j)/d`` (it sums to one for any
    POVM pair) and the entropy is ``2*log2(sum_ij sqrt(p_ij))``.  Zero
    overlaps contribute nothing to the sum.  The maximum ``log2(d^2)`` is
    attained exactly by MUB pairs.
    """
    p = overlap_matrix(pair) / pair.dim
    p = np.clip(p, 0.0, None)
    return float(2.0 * np.log2(np.sum(np.sqrt(p))))


def norm_sum(meas: Measurement) -> float:
    """Sum of effect operator norms; equals d iff rank-1 projective."""
    return float(sum(operator_norm(eff) for eff in meas.effects))


def max_sqrt_overlap(pair: MubPair) -> float:
    """Maximum of ``||sqrt(A_i) sqrt(B_j)||`` over all outcome pairs.

    Equals ``|<a_i|b_j>|`` for rank-1 projective measurements, hence
    ``1/sqrt(d)`` for a MUB pair and 1 for identical bases.
    """
    roots_a = [psd_sqrt(eff) for eff in pair.first.effects]
    roots_b = [psd_sqrt(eff) for eff in pair.second.effects]
    return float(
        max(operator_norm(ra @ rb) for ra in roots_a for rb in roots_b)
    )


# -- JSON serialization -------------------------------------------------------
#
# Measurement documents are {"dim": d, "effects": [matrix, ...]} with each
# matrix row-major d x d and each entry a [re, im] pair.  Python's json
# round-trips doubles exactly (shortest-repr), which the file contract
# requires.

def measurement_to_dict(meas: Measurement) -> dict:
    effects = [
        [[[float(z.real), float(z.imag)] for z in row] for row in eff]
        for eff in meas.effects
    ]
    return {"dim": meas.dim, "effects": effects}


def measurement_from_dict(doc: dict) -> Measurement:
    dim = int(doc["dim"])
    effects = np.array(
        [[[complex(re, im) for re, im in row] for row in eff] for eff in doc["effects"]],
        dtype=complex,
    )
    return Measurement(dim=dim, effects=effects)


def mub_pair_to_dict(pair: MubPair) -> dict:
    return {
        "construction": pair.construction,
        "first": measurement_to_dict(pair.first),
        "second": measurement_to_dict(pair.second),
    }


def mub_pair_from_dict(doc: dict) -> MubPair:
    return MubPair(
        first=measurement_from_dict(doc["first"]),
        second=measurement_from_dict(doc["second"]),
        construction=doc.get("construction", CONSTRUCTION_CUSTOM),
    )


def depolarized_pair(pair: MubPair, visibility: float) -> MubPair:
    """Mix every effect with white noise: ``v*E + (1-v)*I/d``."""
    d = pair.dim
    eye = np.eye(d) / d
    def mix(meas: Measurement) -> Measurement:
        effects = visibility * meas.effects + (1.0 - visibility) * eye[None, :, :]
        return Measurement(dim=d, effects=effects)
    return MubPair(first=mix(pair.first), second=mix(pair.second),
                   construction=CONSTRUCTION_CUSTOM)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()
