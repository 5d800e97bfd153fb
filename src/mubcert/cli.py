"""Command-line front end for the certification pipeline.

Subcommands: ``mub`` (construct a basis pair and its figures of merit),
``simulate`` (run the interferometer Monte Carlo or emit ideal expected
counts), ``certify`` (turn counts or a bare ASP into a certificate),
``figure-data`` (plot-ready per-state CSVs), and ``replay`` (re-run a
command from its manifest).

Exit codes: 0 success, 2 bad arguments, 3 config validation failure,
4 malformed or unusable data.  The parser checks each argument's range,
commands raise, and only ``main`` maps an exception to an exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import io
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .certify import full_certificate, min_asp_for_nontrivial_eta, report_table
from .counts import read_counts_csv, row_layout, write_counts_csv, write_output
from .errors import ConfigError, MubCertError
from .mub import (
    CONSTRUCTION_FOURIER,
    CONSTRUCTION_HADAMARD_D4,
    MubPair,
    document_json,
    fourier_mub_pair,
    hadamard_mub_pair_d4,
    is_mutually_unbiased,
    max_sqrt_overlap,
    mub_pair_to_dict,
    norm_sum,
    overlap_entropy,
)
from .photonics import (
    SAMPLER_VERSION,
    InterferometerConfig,
    PhaseNoiseConfig,
    calibrate_drift_sigma,
    ideal_expected_counts,
    mean_fringe_visibility,
    simulate_counts,
)
from .qrac import AspEstimate, estimate_asp, quantum_optimum

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_CONFIG = 3
EXIT_DATA = 4

# Largest --d.  Each effect array of a basis pair takes 16*d^3 bytes and
# the pair's JSON grows as d^3: d = 64 already writes 37 MB, and at
# d = 1000 one array would need 16 GB.
MAX_DIM = 64


class UsageError(MubCertError):
    """Arguments that are valid one by one but not together."""


@dataclass(kw_only=True)
class RunManifest:
    """Provenance record accompanying every primary output file.

    ``input_sha256`` maps each input path to the sha256 of the bytes the
    command read and used, so that ``replay`` can refuse inputs that
    changed since the run.
    """

    command: list
    tool_version: str = __version__
    seed: int | None = None
    config: dict | None = None
    inputs: list = field(default_factory=list)
    outputs: list
    started_utc: str
    finished_utc: str = ""
    extra: dict = field(default_factory=dict)
    input_sha256: dict = field(default_factory=dict)

    def write(self, primary_output) -> Path:
        self.finished_utc = _utc_now()
        path = Path(str(primary_output) + ".manifest.json")
        # the fields hold JSON values already, so no deep copy (asdict) is needed
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        write_output(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")
        return path


def _sha256(data: bytes) -> str:
    import hashlib  # imported here so that startup stays as fast as before

    return hashlib.sha256(data).hexdigest()


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(8), "big")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 on --help and --version, 2 on bad argv
        return EXIT_OK if not exc.code else EXIT_ARGS
    try:
        args.func(args, [args.subcommand] + argv[1:])
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MubCertError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _int_in(lo: int, hi: int | None = None):
    """Argparse type: an integer at least ``lo`` and, if given, at most ``hi``."""

    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid int value"
        if value < lo or (hi is not None and value > hi):
            bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"must be an integer {bounds}")
        return value

    parse.__name__ = "int"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call.

    ``parse_args`` keeps no state between calls, so ``main`` and
    ``replay`` parse with the same parser.
    """
    parser = argparse.ArgumentParser(
        prog="mubcert",
        description="Simulate and certify the unbiased-basis random access code.",
    )
    parser.add_argument("--version", action="version", version=f"mubcert {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("mub", help="construct a basis pair and report its metrics")
    p.add_argument("--construction", required=True,
                   choices=[CONSTRUCTION_HADAMARD_D4, CONSTRUCTION_FOURIER])
    p.add_argument("--d", type=_int_in(2, MAX_DIM), default=None,
                   help="dimension (fourier only)")
    p.add_argument("--out", default="mub.json")
    p.set_defaults(func=cmd_mub)

    p = sub.add_parser("simulate", help="run the interferometer Monte Carlo")
    p.add_argument("--config", default=None, help="interferometer config JSON")
    p.add_argument("--seed", type=_int_in(0), default=None,
                   help="master seed (default: OS entropy, recorded in the manifest)")
    p.add_argument("--rounds", type=_int_in(1), default=None,
                   help="pulses to simulate (ideal mode: total count mass); "
                        "default rep_rate * integration_time")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--ideal", action="store_true",
                      help="bypass source/detector/noise models and emit exact "
                           "expected counts")
    mode.add_argument("--visibility-target", type=float, default=None,
                      help="calibrate the drift sigma to this mean fringe visibility")
    p.add_argument("--out", default="counts.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("certify", help="compute the certificate from counts or an ASP")
    p.add_argument("--counts", default=None, help="counts CSV path")
    p.add_argument("--asp", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--d", type=_int_in(2, MAX_DIM), default=None)
    p.add_argument("--out", default="certificate.json")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("figure-data", help="emit plot-ready per-state CSVs")
    p.add_argument("--counts", required=True)
    p.add_argument("--out-prefix", default="figure")
    p.set_defaults(func=cmd_figure_data)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_replay)
    return parser


def cmd_mub(args, command) -> None:
    started = _utc_now()
    if args.construction == CONSTRUCTION_HADAMARD_D4:
        if args.d not in (None, 4):
            raise UsageError("the hadamard-d4 construction is four-dimensional")
        pair = hadamard_mub_pair_d4()
    else:
        if args.d is None:
            raise UsageError("the fourier construction needs --d")
        pair = fourier_mub_pair(args.d)

    doc = mub_pair_to_dict(pair)
    doc["metrics"] = _pair_metrics(pair)
    out = Path(args.out)
    write_output(out, document_json(doc) + "\n")
    RunManifest(command=command, outputs=[str(out)], started_utc=started).write(out)
    print(f"wrote {out}")
    for key, value in doc["metrics"].items():
        print(f"  {key}: {value}")


def _pair_metrics(pair: MubPair) -> dict:
    return {
        "mutually_unbiased": bool(is_mutually_unbiased(pair, tol=1e-9)),
        "overlap_entropy_bits": overlap_entropy(pair),
        "norm_sum_first": norm_sum(pair.first),
        "norm_sum_second": norm_sum(pair.second),
        "max_sqrt_overlap": max_sqrt_overlap(pair),
    }


def cmd_simulate(args, command) -> None:
    started = _utc_now()
    if args.ideal and args.config is not None:
        raise UsageError("--ideal takes no --config: its table is the default device's")
    inputs = {}
    if args.config is not None:
        try:
            data = Path(args.config).read_bytes()
            # decoded as Path.read_text decodes, so that no message changes
            doc = json.loads(io.TextIOWrapper(io.BytesIO(data)).read())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        inputs[args.config] = _sha256(data)
        config = InterferometerConfig.from_dict(doc)
    else:
        config = InterferometerConfig()

    if args.seed is None:
        seed = _fresh_seed()
        command = command + ["--seed", str(seed)]  # so that replay reuses it
    else:
        seed = args.seed
    extra = {}

    if args.visibility_target is not None:
        model = config.phase_noise.model
        if model == "none":
            model = "gaussian_drift"
        sigma = calibrate_drift_sigma(replace(config, phase_noise=PhaseNoiseConfig(model)),
                                      args.visibility_target)
        config = replace(config, phase_noise=PhaseNoiseConfig(model, sigma))
        extra["calibrated_sigma"] = sigma
        extra["calibrated_mean_visibility"] = mean_fringe_visibility(config)

    if args.ideal:
        try:
            table = ideal_expected_counts(args.rounds or 60000)
        except ValueError as exc:
            raise UsageError(f"--rounds: {exc}") from None
        extra["mode"] = "ideal"
    else:
        try:
            table = simulate_counts(config, rounds=args.rounds, seed=seed)
        except ValueError as exc:  # too many rounds for int64 totals
            if args.rounds is None:
                raise ConfigError(f"rep_rate * integration_time gives too many pulses: "
                                  f"{exc}") from None
            raise UsageError(f"--rounds: {exc}") from None
        extra["mode"] = "monte-carlo"
        extra["sampler"] = SAMPLER_VERSION
    extra["total_detections"] = table.total()
    # library versions, to explain a replay whose counts differ
    extra["numpy"] = np.__version__
    extra["python"] = platform.python_version()

    out = Path(args.out)
    write_counts_csv(table, out)
    RunManifest(
        command=command, seed=seed, config=config.to_dict(),
        inputs=list(inputs), input_sha256=inputs,
        outputs=[str(out)], started_utc=started, extra=extra,
    ).write(out)
    print(f"wrote {out} ({table.total()} detections)")


def cmd_certify(args, command) -> None:
    started = _utc_now()
    out = Path(args.out)
    table_out = out.with_suffix(".txt")
    if table_out == out:
        raise UsageError(f"--out {out} is also the path of its text table: "
                         "give it a suffix other than .txt")
    inputs = {}
    if args.counts is not None:
        if args.asp is not None or args.sigma is not None:
            raise UsageError("give either --counts or --asp/--sigma, not both")
        data = Path(args.counts).read_bytes()
        table = read_counts_csv(data)
        inputs[args.counts] = _sha256(data)
        est = estimate_asp(table)
        d = table.dim
        if args.d is not None and args.d != d:
            raise UsageError(f"counts table is {d}-dimensional, got --d {args.d}")
    else:
        if args.asp is None or args.sigma is None or args.d is None:
            raise UsageError("--asp, --sigma and --d are required without --counts")
        est = AspEstimate(value=args.asp, sigma=args.sigma)
        d = args.d

    if not 0.5 < est.value <= 1.0:
        raise MubCertError(f"ASP {est.value} outside (1/2, 1]")
    if not (math.isfinite(est.sigma) and est.sigma >= 0.0):
        raise MubCertError("sigma must be finite and nonnegative")

    report = full_certificate(est, d)
    if not all(math.isfinite(b.sigma) for b in report.bounds() if b.applicable):
        raise MubCertError(f"sigma {est.sigma} propagates to a non-finite bound sigma")
    write_output(out, report.to_json() + "\n")
    table_text = report_table(report)
    write_output(table_out, table_text + "\n")
    RunManifest(
        command=command, inputs=list(inputs), input_sha256=inputs,
        outputs=[str(out), str(table_out)],
        started_utc=started,
    ).write(out)
    print(table_text)
    print(f"wrote {out} and {table_out}")


def cmd_figure_data(args, command) -> None:
    started = _utc_now()
    data = Path(args.counts).read_bytes()
    table = read_counts_csv(data)
    inputs = {args.counts: _sha256(data)}
    est = estimate_asp(table)
    d = table.dim

    # %r writes each float as its repr, which reads back as the same double
    probs = table.cells / table.setting_totals()[..., None].astype(float)
    prob_path = Path(f"{args.out_prefix}_outcome_probabilities.csv")
    outcome_cols = ",".join(f"p{b + 1}" for b in range(d))
    layout = f"i,j,y,{outcome_cols}\n" + row_layout((d, d, 2), ",".join(["%r"] * d))
    write_output(prob_path, layout % tuple(probs.ravel().tolist()))

    asp_path = Path(f"{args.out_prefix}_state_asp.csv")
    refs = f"{quantum_optimum(d)!r},{float(min_asp_for_nontrivial_eta(d))!r}"
    layout = ("i,j,asp_y1,asp_y2,optimal_asp,min_selftest_asp\n"
              + row_layout((d, d), f"%r,%r,{refs}"))
    write_output(asp_path, layout % tuple(est.per_input.ravel().tolist()))

    RunManifest(
        command=command, inputs=list(inputs), input_sha256=inputs,
        outputs=[str(prob_path), str(asp_path)], started_utc=started,
    ).write(asp_path)
    print(f"wrote {prob_path} and {asp_path}")


def cmd_replay(args, command) -> None:
    try:
        doc = json.loads(Path(args.manifest).read_text())
        if not isinstance(doc, dict):
            raise ValueError("the manifest is not a JSON object")
        argv = doc.get("command")
        if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)):
            raise ValueError("its command is not a non-empty list of strings")
        try:
            with contextlib.redirect_stderr(io.StringIO()):  # the data error reports it
                replayed = build_parser().parse_args(argv)
        except SystemExit:
            raise ValueError("its command is not a valid command") from None
        if replayed.subcommand == "replay":
            raise ValueError("its command is itself a replay")
        digests = doc.get("input_sha256", {})
        if not isinstance(digests, dict):
            raise ValueError("its input_sha256 is not an object")
        changed = [path for path, digest in digests.items()
                   if _sha256(Path(path).read_bytes()) != digest]
    except (OSError, ValueError) as exc:
        raise MubCertError(f"cannot replay {args.manifest}: {exc}") from exc
    if changed:
        raise MubCertError(f"cannot replay {args.manifest}: input {changed[0]} "
                           "changed since the run (sha256 mismatch)")
    replayed.func(replayed, [replayed.subcommand] + argv[1:])


if __name__ == "__main__":
    sys.exit(main())
