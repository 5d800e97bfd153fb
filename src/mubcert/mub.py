"""Mutually unbiased basis pairs and their figures of merit.

Two concrete constructions are provided: the real Hadamard-based ququart
pair used in the multi-core-fiber experiment (both bases implementable with
phase-only modulation), and the computational/Fourier pair available in
every dimension.  The figures of merit are the overlap entropy (1/2-Renyi
entropy of the normalized cross-overlap distribution, in bits), the sum of
effect operator norms, and the maximal overlap of effect square roots.
Every figure of merit reads the blocks ``K_i^dagger L_j`` of the pair's
factors (``A_i = K_i K_i^dagger``, ``B_j = L_j L_j^dagger``): ``tr(A_i B_j)``
is a block's squared Frobenius norm, ``||sqrt(A_i) sqrt(B_j)||`` its norm.
A pair is checked to be a POVM pair when it is built; whether it is
unbiased is left to ``is_mutually_unbiased``, which the ``mub`` command
reports and ``qrac.optimal_states`` requires.  ``mub_pair_to_dict`` is
the pair document of the ``mub`` command, which ``counts.document_json``
writes; nothing in the package reads one back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotProjective
from .linalg import DEFAULT_TOL, operator_norm, psd_sqrt

CONSTRUCTION_HADAMARD_D4 = "hadamard-d4"
CONSTRUCTION_FOURIER = "fourier"

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
    externally) and equals ``factors[b] @ factors[b]^dagger``: ``projective``
    stores each ket as one column, otherwise the factors are the PSD square
    roots, so an effect that is not Hermitian or PSD raises NotHermitian or
    NotPSD.  The factors are not serialized.
    """

    dim: int
    effects: np.ndarray  # shape (d, d, d), complex
    factors: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.effects = np.asarray(self.effects, dtype=complex)
        if self.effects.shape != (self.dim, self.dim, self.dim):
            raise DimensionMismatch(
                f"expected {self.dim} effects of shape "
                f"({self.dim}, {self.dim}), got {self.effects.shape}"
            )
        if self.factors is None:
            self.factors = psd_sqrt(self.effects)

    @classmethod
    def projective(cls, vectors) -> "Measurement":
        """Rank-1 projective measurement onto the rows of ``vectors``."""
        v = np.asarray(vectors, dtype=complex)
        d = v.shape[0]
        effects = np.einsum("ki,kj->kij", v, v.conj())
        return cls(dim=d, effects=effects, factors=v[:, :, None])

    def basis_vectors(self) -> np.ndarray:
        """Kets of a measurement built by ``projective``, as rows."""
        if self.factors.shape[-1] != 1:
            raise NotProjective("measurement was not built from kets")
        return self.factors[:, :, 0]


@dataclass(eq=False)
class MubPair:
    """Two d-outcome measurements intended to be mutually unbiased."""

    first: Measurement
    second: Measurement
    construction: str = "custom"

    def __post_init__(self):
        if self.first.dim != self.second.dim:
            raise DimensionMismatch("measurements do not share a dimension")
        eye = np.eye(self.dim)
        for meas in (self.first, self.second):
            if not np.max(np.abs(meas.effects.sum(axis=0) - eye)) <= DEFAULT_TOL:
                raise NotProjective("measurement effects do not form a POVM")

    @property
    def dim(self) -> int:
        return self.first.dim

    def effects(self) -> np.ndarray:
        """Both measurements' effects, shape (2, d, d, d): ``[0]`` first, ``[1]`` second."""
        return np.stack([self.first.effects, self.second.effects])


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


def _cross_blocks(pair: MubPair) -> np.ndarray:
    """The blocks ``K_i^dagger L_j`` of the two factor stacks, shape (d, d, r, s)."""
    return np.einsum("iar,jas->ijrs", pair.first.factors.conj(), pair.second.factors)


def overlap_matrix(pair: MubPair) -> np.ndarray:
    """Matrix of cross overlaps ``tr(A_i B_j)``, shape (d, d), real."""
    return np.sum(np.abs(_cross_blocks(pair)) ** 2, axis=(2, 3))


def is_mutually_unbiased(pair: MubPair, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``tr(A_i B_j) = 1/d`` for all outcome pairs, within ``tol``.

    Requires both measurements to be rank-1 projective (every effect with
    unit operator norm and unit trace within ``tol``, read as the squared
    operator and Frobenius norms of its factor); raises NotProjective
    otherwise.
    """
    slack = max(tol, 1e-7)
    for meas in (pair.first, pair.second):
        bad_norm = np.abs(operator_norm(meas.factors) ** 2 - 1.0) > slack
        bad_trace = np.abs(np.sum(np.abs(meas.factors) ** 2, axis=(1, 2)) - 1.0) > slack
        bad = np.flatnonzero(bad_norm | bad_trace)
        if bad.size:
            what = "norm" if bad_norm[bad[0]] else "trace"
            raise NotProjective(f"effect {bad[0] + 1} does not have unit {what}")
    return bool(np.max(np.abs(overlap_matrix(pair) - 1.0 / pair.dim)) <= tol)


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
    """Sum of effect operator norms ``||K_b||^2``; equals d iff rank-1 projective."""
    return float(np.sum(operator_norm(meas.factors) ** 2))


def max_sqrt_overlap(pair: MubPair) -> float:
    """Maximum of ``||sqrt(A_i) sqrt(B_j)|| = ||K_i^dagger L_j||`` over all outcome pairs.

    Equals ``|<a_i|b_j>|`` for rank-1 projective measurements, hence
    ``1/sqrt(d)`` for a MUB pair and 1 for identical bases.
    """
    return float(operator_norm(_cross_blocks(pair)).max())


# -- JSON serialization -------------------------------------------------------
#
# Measurement documents are {"dim": d, "effects": [matrix, ...]} with each
# matrix row-major d x d and each entry a [re, im] pair.  Doubles are
# written in shortest-repr form, as Python's json writes them, so the text
# determines every effect exactly, as the file contract requires.

def measurement_to_dict(meas: Measurement) -> dict:
    """The measurement document, with the effects as a (d, d, d, 2) float array."""
    return {"dim": meas.dim,
            "effects": np.stack([meas.effects.real, meas.effects.imag], axis=-1)}


def mub_pair_to_dict(pair: MubPair) -> dict:
    return {
        "construction": pair.construction,
        "first": measurement_to_dict(pair.first),
        "second": measurement_to_dict(pair.second),
    }


def depolarized_pair(pair: MubPair, visibility: float) -> MubPair:
    """Mix every effect with white noise: ``v*E + (1-v)*I/d``."""
    d = pair.dim
    eye = np.eye(d) / d
    def mix(meas: Measurement) -> Measurement:
        effects = visibility * meas.effects + (1.0 - visibility) * eye[None, :, :]
        return Measurement(dim=d, effects=effects)
    return MubPair(first=mix(pair.first), second=mix(pair.second))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()
