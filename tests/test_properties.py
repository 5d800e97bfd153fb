"""Property tests: counts CSV round trip, config validation, bound slopes.

Hypothesis runs derandomized with a fixed example budget, so every run
draws the same examples and the suite stays deterministic.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mubcert.certify import (
    bound_entropic,
    bound_max_sqrt_overlap,
    bound_norm_sum,
    bound_overlap_entropy,
    norm_sum_threshold,
    propagate_error,
)
from mubcert.counts import CountsTable, read_counts_csv, write_counts_csv
from mubcert.errors import ConfigError
from mubcert.photonics import NOISE_MODELS, InterferometerConfig
from mubcert.qrac import quantum_optimum

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def count_tables(draw):
    d = draw(st.integers(2, 5))
    cells = draw(arrays(np.int64, (d, d, 2, d), elements=st.integers(0, 2**40)))
    return CountsTable(dim=d, cells=cells)


@PROPERTY
@given(table=count_tables())
def test_counts_csv_round_trip(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        write_counts_csv(table, path)
        back = read_counts_csv(path)
    assert back.dim == table.dim
    assert np.array_equal(back.cells, table.cells)


NUMERIC_FIELDS = ("d", "mu", "det_efficiency", "rep_rate", "integration_time",
                  "dark_count_prob", "phase_noise.sigma",
                  "tau.0", "tau.1", "tau.2", "tau.3")
NON_FINITE = (math.nan, math.inf, -math.inf, "nan", "inf", "-Infinity")


@PROPERTY
@given(name=st.sampled_from(NUMERIC_FIELDS), value=st.sampled_from(NON_FINITE),
       model=st.sampled_from(NOISE_MODELS))
def test_config_rejects_non_finite_number_in_any_field(name, value, model):
    doc = {"phase_noise": {"model": model, "sigma": 0.01}, "tau": [1.0, 1.0, 1.0, 1.0]}
    if name == "phase_noise.sigma":
        doc["phase_noise"]["sigma"] = value
    elif name.startswith("tau."):
        doc["tau"][int(name[4:])] = value
    else:
        doc[name] = value
    with pytest.raises(ConfigError):
        InterferometerConfig.from_dict(doc)


# bound id -> (bound, applicability interval (lo, hi] of the ASP)
BOUNDS = {
    "hs": (bound_overlap_entropy, lambda d: (0.5, 1.0)),
    "norm_sum": (bound_norm_sum, lambda d: (norm_sum_threshold(d), 1.0)),
    "smax": (bound_max_sqrt_overlap, lambda d: (0.5, float(quantum_optimum(d)))),
    "entropic": (bound_entropic, lambda d: (0.5, float(quantum_optimum(d)))),
}


@PROPERTY
@given(bound_id=st.sampled_from(sorted(BOUNDS)), d=st.integers(2, 8),
       frac=st.floats(0.02, 0.98))
def test_slope_matches_central_difference(bound_id, d, frac):
    f, interval = BOUNDS[bound_id]
    lo, hi = interval(d)
    p = lo + frac * (hi - lo)
    h = 1e-6 * (hi - lo)
    below, above = f(p - h, d), f(p + h, d)
    # a stencil straddling a clamp point sees a kink, not a slope
    assume((below == 0.0) == (above == 0.0))
    central = abs(above - below) / (2.0 * h)
    assert propagate_error(bound_id, p, 1.0, d) == pytest.approx(
        central, rel=1e-5, abs=1e-7)
