"""Self-testing certification of mutually unbiased bases from QRAC statistics.

The package namespace holds the names of the README's library example;
everything else is imported from its module (``mubcert.certify``,
``mubcert.counts``, ``mubcert.linalg``, ``mubcert.mub``,
``mubcert.photonics``, ``mubcert.qrac``).
"""

__version__ = "0.1.0"

from .certify import full_certificate
from .mub import hadamard_mub_pair_d4, max_sqrt_overlap, norm_sum, overlap_entropy
from .photonics import InterferometerConfig, simulate_counts
from .qrac import brute_force_optimal_asp, estimate_asp

__all__ = [
    "__version__",
    "InterferometerConfig",
    "brute_force_optimal_asp",
    "estimate_asp",
    "full_certificate",
    "hadamard_mub_pair_d4",
    "max_sqrt_overlap",
    "norm_sum",
    "overlap_entropy",
    "simulate_counts",
]
