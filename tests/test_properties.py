"""Property tests: counts CSV round trip and reader paths, config validation, bound slopes,
phase-noise calibration, CLI exit codes.

Hypothesis runs derandomized with a fixed example budget, so every run
draws the same examples and the suite stays deterministic.
"""

import itertools
import json
import math
import os
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from mubcert.cli import main
from mubcert.counts import CountsTable, read_counts_csv, write_counts_csv
from mubcert.errors import ConfigError, CountsFormatError
from mubcert.photonics import (
    NOISE_MODELS,
    InterferometerConfig,
    PhaseNoiseConfig,
    calibrate_drift_sigma,
    fringe_visibility,
    ideal_expected_counts,
    mean_fringe_visibility,
)
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



# A valid d = 2 file and edits that break it, or keep it valid, at random.
D2_LINES = ["i,j,y,outcome,count"] + [
    f"{i},{j},{y},{b},{3 * i + j + y + b}"
    for i in (1, 2) for j in (1, 2) for y in (1, 2) for b in (1, 2)]
# Tokens that int() reads and numpy's integer parser may not, or the reverse
# (digit separators, non-ASCII digits and spaces, exponents, hex, quotes,
# comment marks, signs alone or doubled, empty fields).
PARSER_EDGES = ["1_0", "+3", "\u0663", "\xa03", "\t3", "1e0", "0x1", "3#c", '"3"', "+-1", "-0",
                "-", ""]
INDEX = st.sampled_from(["1", "2", "3", "0", " 2", "01", "x", str(2**64), *PARSER_EDGES])
COUNT = st.sampled_from(["0", "5", "-1", "2.0", str(2**62), str(2**63 - 1), str(2**63),
                         *PARSER_EDGES])
LINE_EDIT = st.one_of(
    st.tuples(st.just("field"), st.integers(0, 40),
              st.tuples(st.integers(0, 3), INDEX) | st.tuples(st.just(4), COUNT)),
    st.tuples(st.just("replace"), st.integers(0, 40),
              st.lists(INDEX, min_size=4, max_size=6).map(",".join)),
    st.tuples(st.just("duplicate"), st.integers(0, 40), st.none()),
    st.tuples(st.just("delete"), st.integers(0, 40), st.none()),
    st.tuples(st.just("insert"), st.integers(0, 40), st.sampled_from(["", " ", "\t"])),
)


def _read_outcome(path):
    """The cells a counts file reads as, or the message it is refused with."""
    try:
        return read_counts_csv(path).cells.tolist()
    except CountsFormatError as exc:
        return str(exc)


@settings(PROPERTY, max_examples=300)
@given(edits=st.lists(LINE_EDIT, min_size=1, max_size=3))
@example(edits=[("field", 15, (2, "3"))])  # y = 3 in the last cell: no duplicate to show it
@example(edits=[("field", 0, (4, str(2**63 - 1)))])  # each count fits, their sum does not
@example(edits=[("delete", 0, None)] * (len(D2_LINES) - 1))  # the header alone
def test_counts_reader_agrees_with_its_per_line_check(edits):
    lines = list(D2_LINES)
    for kind, at, text in edits:
        if kind == "insert":
            lines.insert(at % (len(lines) + 1), text)
            continue
        k = 1 + at % (len(lines) - 1)  # a data line: the header stays
        if kind == "delete":
            del lines[k]
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        elif kind == "replace":
            lines[k] = text
        else:  # one field: (position, token)
            fields = lines[k].split(",")
            fields[text[0] % len(fields)] = text[1]
            lines[k] = ",".join(fields)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")  # tokens may be non-ASCII
        outcome = _read_outcome(path)
        with mock.patch("mubcert.counts._accepted_rows", return_value=None):
            assert _read_outcome(path) == outcome


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


NOISY_MODELS = ("gaussian_drift", "random_walk")
TAUS = st.tuples(*[st.floats(0.01, 1.0)] * 4)


@PROPERTY
@given(model=st.sampled_from(NOISY_MODELS), tau=TAUS, frac=st.floats(0.01, 0.9999))
def test_calibration_reads_its_target_back(model, tau, frac):
    cfg = replace(InterferometerConfig(), tau=tau, phase_noise=PhaseNoiseConfig(model))
    target = frac * mean_fringe_visibility(cfg)
    assume(target < 1.0)
    sigma = calibrate_drift_sigma(cfg, target)
    calibrated = replace(cfg, phase_noise=PhaseNoiseConfig(model, sigma))
    assert mean_fringe_visibility(calibrated) == pytest.approx(target, abs=1e-12)


@PROPERTY
@given(model=st.sampled_from(NOISY_MODELS), tau=TAUS, sigma=st.floats(0.0, 10.0),
       pair=st.sampled_from(list(itertools.combinations(range(1, 5), 2))))
def test_fringe_visibility_never_exceeds_noiseless(model, tau, sigma, pair):
    tk, tl = tau[pair[0] - 1], tau[pair[1] - 1]
    cfg = replace(InterferometerConfig(), tau=tau, phase_noise=PhaseNoiseConfig(model, sigma))
    assert 0.0 <= fringe_visibility(cfg, pair) <= 2.0 * tk * tl / (tk * tk + tl * tl)


# Files every CLI example finds in its working directory.
CLI_FILES = {
    "five.json": "5",
    "null.json": "null",
    "blind.json": json.dumps({"det_efficiency": 0}),
    "dim.json": json.dumps({"mu": 1e-300}),
    "bright.json": json.dumps({"mu": 1e308, "det_efficiency": 1.0}),
    "m.json": json.dumps({"command": ["bogus"]}),
}
SUBCOMMANDS = ("mub", "simulate", "certify", "figure-data", "replay")
CLI_TOKENS = SUBCOMMANDS + (
    "--construction", "hadamard-d4", "fourier", "--d", "--out", "--config", "--seed",
    "--rounds=10000", "--ideal", "--visibility-target", "--counts", "--asp", "--sigma",
    "--out-prefix", "--version", "--help",
    "0", "-1", "2", "4", "8", "0.75", "0.9", "nan", "inf", "abc", "100000000000000000000",
    "counts.csv", *CLI_FILES,
)
CLI_TOKEN = st.sampled_from(CLI_TOKENS)
CLI_ARGV = (st.builds(lambda sub, rest: [sub, *rest], st.sampled_from(SUBCOMMANDS),
                      st.lists(CLI_TOKEN, max_size=8))
            | st.lists(CLI_TOKEN, max_size=4))


# Numbers are at most 8 (a `mub --d` that stays small) except `--rounds=10000`
# and 10^20, which the parser must refuse as a `--d` before anything is built.
# Every example runs in a fresh directory, so outputs stay out of the tree.
@settings(PROPERTY, max_examples=150)
@given(argv=CLI_ARGV)
def test_cli_returns_an_exit_code_and_never_raises(argv):
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CLI_FILES.items():
            Path(tmp, name).write_text(text)
        write_counts_csv(ideal_expected_counts(1000), Path(tmp, "counts.csv"))
        os.chdir(tmp)
        try:
            code = main(argv)
        except SystemExit as exc:
            raise AssertionError(f"main raised SystemExit({exc.code})") from exc
        finally:
            os.chdir(old)
    assert code in (0, 2, 3, 4)
