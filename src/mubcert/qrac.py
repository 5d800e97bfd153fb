"""The 2^d -> 1 quantum random access code over a measurement pair.

Alice receives two dits (i, j) and encodes them in one d-dimensional
state; Bob's input y in {1, 2} selects which dit he retrieves, by
measuring the corresponding basis.  The protocol figure of merit is the
average success probability (ASP)

    p = (1 / 2d^2) * sum_ij tr[rho_ij (A_i + B_j)],

maximized over encodings at p = (1 + 1/sqrt(d))/2 when the measurements
form a MUB pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counts import CountsTable
from .errors import DimensionMismatch, EmptyCell, NotMub
from .linalg import eig_hermitian
from .mub import MubPair, is_mutually_unbiased

__all__ = [
    "EncodingTable",
    "AspEstimate",
    "optimal_states",
    "asp",
    "asp_from_density",
    "quantum_optimum",
    "brute_force_optimal_asp",
    "estimate_asp",
]


@dataclass(eq=False)
class EncodingTable:
    """One normalized encoding ket per input pair; ``states[i, j]`` is a ket."""

    dim: int
    states: np.ndarray  # shape (d, d, d), complex

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=complex)
        if self.states.shape != (self.dim, self.dim, self.dim):
            raise DimensionMismatch(
                f"expected states of shape ({self.dim},)*3, got {self.states.shape}"
            )


@dataclass
class AspEstimate:
    """An ASP value with one-standard-deviation uncertainty.

    ``per_input[i, j, y]`` holds the conditional success probability for
    each setting; ``value`` is their uniform average.  ``per_input`` is
    None when the estimate was supplied as a bare value rather than
    derived from counts.
    """

    value: float
    sigma: float
    per_input: np.ndarray | None = None


def optimal_states(pair: MubPair) -> EncodingTable:
    """ASP-maximizing pure encodings for a rank-1 mutually unbiased pair.

    The ket for input (i, j) is the normalized superposition
    ``|a_i> + exp(-i*arg<a_i|b_j>) |b_j>``; for real overlaps the phase
    factor reduces to the overlap sign, and the normalization is
    ``1/sqrt(2 + 2|<a_i|b_j>|)`` (``1/sqrt(3)`` at d = 4).  This is the
    top eigenvector of ``A_i + B_j``, which the brute-force oracle checks.
    """
    if not is_mutually_unbiased(pair, tol=1e-9):
        raise NotMub("optimal encodings require a mutually unbiased rank-1 pair")
    d = pair.dim
    a = pair.first.basis_vectors()
    b = pair.second.basis_vectors()
    states = np.empty((d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            ov = np.vdot(a[i], b[j])
            phase = np.exp(-1j * np.angle(ov)) if abs(ov) > 0 else 1.0
            psi = a[i] + phase * b[j]
            states[i, j] = psi / np.linalg.norm(psi)
    return EncodingTable(dim=d, states=states)


def asp(enc: EncodingTable, pair: MubPair) -> float:
    """Average success probability of a pure-state encoding table."""
    if enc.dim != pair.dim:
        raise DimensionMismatch("encoding and measurement dimensions differ")
    d = pair.dim
    total = 0.0
    for i in range(d):
        for j in range(d):
            psi = enc.states[i, j]
            total += np.real(np.vdot(psi, pair.first.effects[i] @ psi))
            total += np.real(np.vdot(psi, pair.second.effects[j] @ psi))
    return float(total / (2 * d * d))


def asp_from_density(rhos, pair: MubPair) -> float:
    """ASP of a general (possibly mixed) encoding, ``rhos[i, j]`` a density matrix."""
    rhos = np.asarray(rhos, dtype=complex)
    d = pair.dim
    if rhos.shape != (d, d, d, d):
        raise DimensionMismatch(f"expected density table of shape ({d},)*4")
    total = 0.0
    for i in range(d):
        for j in range(d):
            op = pair.first.effects[i] + pair.second.effects[j]
            total += np.real(np.trace(rhos[i, j] @ op))
    return float(total / (2 * d * d))


def quantum_optimum(d: int) -> float:
    """Largest ASP any quantum strategy reaches in dimension d."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return 0.5 * (1.0 + 1.0 / math.sqrt(d))


def brute_force_optimal_asp(pair: MubPair) -> tuple[float, EncodingTable]:
    """Exact optimal ASP for fixed measurements, by eigendecomposition.

    For each input pair the best encoding is a top eigenvector of
    ``A_i + B_j`` and the optimal ASP is the average of the corresponding
    largest eigenvalues over the input grid, halved.  Works for arbitrary
    measurement pairs; serves as the independent oracle for
    ``optimal_states``.  With a degenerate top eigenvalue any maximizer is
    returned; only the value is contract-bearing.
    """
    d = pair.dim
    states = np.empty((d, d, d), dtype=complex)
    total = 0.0
    for i in range(d):
        for j in range(d):
            w, v = eig_hermitian(pair.first.effects[i] + pair.second.effects[j])
            total += w[0]
            states[i, j] = v[:, 0]
    return float(total / (2 * d * d)), EncodingTable(dim=d, states=states)


def estimate_asp(counts: CountsTable) -> AspEstimate:
    """Estimate the ASP and its Poissonian uncertainty from counts.

    The success probability of setting (i, j, y) is the fraction of its
    detections landing on the correct target (outcome i for y = 1, j for
    y = 2); the ASP is the uniform average over settings, following the
    uniform input distribution of the protocol.

    Every detection count is treated as an independent Poisson variable
    with variance equal to the count; propagating those fluctuations
    through the per-setting ratio gives ``var = p(1-p)/T`` per setting
    with total T, and the setting variances add in the average.  A
    setting without detections raises EmptyCell.
    """
    d = counts.dim
    totals = counts.setting_totals().astype(float)
    empty = np.argwhere(totals == 0)
    if empty.size:
        i, j, y = empty[0] + 1
        raise EmptyCell(f"setting (i={i}, j={j}, y={y}) has no detections")

    correct = np.empty((d, d, 2), dtype=float)
    row = np.arange(d)[:, None]
    col = np.arange(d)[None, :]
    correct[:, :, 0] = counts.cells[row, col, 0, row]  # y=1 target is i
    correct[:, :, 1] = counts.cells[row, col, 1, col]  # y=2 target is j

    per_input = correct / totals
    cell_var = per_input * (1.0 - per_input) / totals
    return AspEstimate(
        value=float(per_input.mean()),
        sigma=float(np.sqrt(cell_var.sum()) / per_input.size),
        per_input=per_input,
    )
