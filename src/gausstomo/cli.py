"""Command-line interface: generation, reconstruction, experiments, detection.

Exit codes: 0 on success (a "non-gaussian" verdict is still success), 1 on
usage errors including unreadable or malformed input files, 2 on numerical
failure of a reconstruction. Data goes to the requested output file, or to
standard output when no file is given; progress and summaries that would
corrupt machine-readable standard output go to standard error instead.

Output files are written after a command finishes, each through a temporary
file and a rename, so a failed run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .core import (
    NotPassiveError,
    _check_fields,
    matrix_to_json,
    scaled_frobenius,
    unitary_to_json,
)
from .device import (
    DeviceModel,
    HETERODYNE,
    MeasurementConfig,
    SCHEMES,
    SimulatedDevice,
    _check_scheme,
    device_from_json,
)
from . import experiments
from .experiments import _write_atomic, write_csv
from .randgen import DEFAULT_R_MAX, haar_unitary, random_symplectic
from .tomography import (
    LossRecoveryError,
    detect_non_gaussian,
    reconstruct_symplectic,
    reconstruction_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _shots(text: str):
    return math.inf if text.strip().lower() == "inf" else _positive_int(text)


def _list_of(cast, what: str):
    """argparse type for a non-empty comma-separated list of ``cast`` values."""

    def parse(text: str) -> list:
        try:
            values = [cast(part.strip()) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid {what} list {text!r}: {exc}") from None
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        return values

    return parse


_int_list = _list_of(int, "integer")
_float_list = _list_of(float, "number")


def _eta(text: str) -> float:
    """A loss fraction L in [0, 1), given as the transmissivity eta = 1 - L."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid loss fraction {text!r}") from None
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError("loss fraction must be in [0, 1)")
    return 1.0 - value


# Flags of the experiment runners. Each stores the runner keyword named by its
# dest and is left out when not given, so the runner's default applies.
_MODE_LIST = ("--modes", dict(dest="n_list", type=_int_list, metavar="N,...",
                              help="comma-separated mode counts"))
_SCHEMES = ("--schemes", dict(type=_list_of(_check_scheme, "scheme"), metavar="SCHEME,...",
                              help="comma-separated measurement schemes"))
_LOSSES = ("--losses", dict(dest="eta_list", type=_list_of(_eta, "loss fraction"),
                            metavar="L,...", help="comma-separated loss fractions L, eta = 1 - L"))
_AMPLITUDE = ("--amplitude", dict(type=float, metavar="A", help="probe amplitude"))
_SHOTS = ("--shots", dict(type=_shots, metavar="M",
                          help="shots per probe setting, or 'inf' for exact means"))
_REPS = ("--reps", dict(dest="repetitions", type=int, metavar="R",
                        help="repetitions per grid point"))
_R_MAX = ("--r-max", dict(type=float, metavar="R", help="squeeze-parameter range of the device"))
_TRIALS = ("--trials", dict(dest="trials_list", type=_int_list, metavar="T,...",
                            help="comma-separated counts of trials averaged per point"))


def _dump_json(obj, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out_path, text)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="gausstomo", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("generate", help="draw a random device matrix and write it as JSON")
    p_gen.add_argument("--kind", choices=("symplectic", "unitary"), required=True)
    p_gen.add_argument("--modes", type=_positive_int, required=True)
    p_gen.add_argument("--r-max", type=float, default=DEFAULT_R_MAX,
                       help="squeeze-parameter range for --kind symplectic")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None, help="output path (default: stdout)")

    p_rec = sub.add_parser("reconstruct", help="probe a simulated device and reconstruct S")
    p_rec.add_argument("--device", required=True,
                       help="device JSON, or a bare symplectic matrix JSON")
    p_rec.add_argument("--scheme", choices=SCHEMES, default=HETERODYNE)
    p_rec.add_argument("--shots", type=_shots, default=100,
                       help="shots per probe setting, or 'inf' for exact means")
    p_rec.add_argument("--amplitude", type=float, default=1000.0)
    p_rec.add_argument("--loss", dest="eta", type=_eta, default=None,
                       help="loss fraction L, sets transmissivity eta = 1 - L "
                            "(default: the eta stored in the device file)")
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--out", default=None, help="output path (default: stdout)")

    p_exp = sub.add_parser("experiment", help="run an accuracy sweep and write CSV")
    runners = p_exp.add_subparsers(dest="name", required=True, parser_class=_Parser)
    for name, runner, help_text, flags in (
        ("mode-scaling", "run_mode_scaling", "full-matrix error versus mode count",
         (_MODE_LIST, _SCHEMES, _LOSSES, _AMPLITUDE, _SHOTS, _REPS, _R_MAX)),
        ("unitary-scaling", "run_unitary_scaling", "passive-shortcut error versus mode count",
         (_MODE_LIST, _SCHEMES, _LOSSES, _AMPLITUDE, _SHOTS, _REPS)),
        ("intensity", "run_intensity_scaling", "error versus probe amplitude and trials",
         (("--modes", dict(dest="n_modes", type=int, metavar="N", help="mode count")),
          ("--amplitudes", dict(dest="amplitude_list", type=_float_list, metavar="A,...",
                                help="comma-separated probe amplitudes")),
          _TRIALS, _SHOTS,
          ("--scheme", dict(choices=SCHEMES, metavar="SCHEME",
                            help="measurement scheme, one of %(choices)s")),
          ("--loss", dict(dest="eta", type=_eta, metavar="L", help="loss fraction L, eta = 1 - L")),
          _REPS, _R_MAX)),
        ("phase-error", "run_phase_error_study", "element error versus probe phase error",
         (("--phi-max", dict(type=float, metavar="PHI",
                             help="phase-error half-width in radians")),
          _TRIALS, _REPS, _AMPLITUDE, _R_MAX)),
    ):
        # no abbreviations: --loss must not pass for --losses, nor --amplitude for --amplitudes
        p_run = runners.add_parser(name, help=help_text, allow_abbrev=False,
                                   argument_default=argparse.SUPPRESS)
        p_run.set_defaults(runner=runner)
        p_run.add_argument("--out", required=True, metavar="CSV", help="output CSV path")
        p_run.add_argument("--seed", type=int, default=0, metavar="SEED", help="master seed")
        for flag, options in flags:
            p_run.add_argument(flag, **options)

    p_det = sub.add_parser("detect", help="probe a cubic-phase device at several amplitudes")
    p_det.add_argument("--gamma", type=float, required=True,
                       help="cubic-phase strength of the simulated device")
    p_det.add_argument("--amplitudes", type=_float_list, required=True,
                       help="comma-separated probe amplitudes, at least two")
    p_det.add_argument("--scheme", choices=SCHEMES, default=HETERODYNE)
    p_det.add_argument("--shots", type=_shots, default=math.inf)
    p_det.add_argument("--seed", type=int, default=0)
    p_det.add_argument("--tol", type=float, default=None,
                       help="ratio-spread threshold (default: 5x shot-noise scale)")
    return parser


def _cmd_generate(args) -> int:
    if args.kind == "symplectic":
        obj = matrix_to_json(
            random_symplectic(args.modes, r_max=args.r_max, seed=args.seed), "symplectic"
        )
    else:
        obj = unitary_to_json(haar_unitary(args.modes, seed=args.seed))
    _dump_json(obj, args.out)
    return EXIT_OK


def _load_device(path: str, eta: float | None) -> DeviceModel:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    _check_fields(obj, (), "device file")
    obj = obj if "S" in obj else {"S": obj, "eta": 1.0}  # a bare S: lossless
    return device_from_json(obj if eta is None else {**obj, "eta": eta})  # --loss replaces eta


def _cmd_reconstruct(args) -> int:
    model = _load_device(args.device, args.eta)
    config = MeasurementConfig(scheme=args.scheme, shots=args.shots, seed=args.seed)
    result = reconstruct_symplectic(SimulatedDevice(model), args.amplitude, config)
    f_value = scaled_frobenius(model.s, result.s_recon)
    _dump_json(reconstruction_to_json(result, frobenius_vs_truth=f_value), args.out)
    # diagnostics on stderr; stdout carries data only
    sys.stderr.write(f"eta_hat={result.eta_hat:.6g} F={f_value:.6g}\n")
    return EXIT_OK


def _cmd_experiment(args, argv: list[str]) -> int:
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "name", "out", "runner")}
    # looked up at each call: a wrapper put on the runner later sees the call
    records = getattr(experiments, args.runner)(**params)
    # the meta file goes first and is taken back if the CSV cannot be placed
    meta_path = os.path.splitext(args.out)[0] + ".meta.json"
    _dump_json({"invocation": argv, "seed": args.seed, "version": __version__}, meta_path)
    try:
        write_csv(records, args.out)
    except BaseException:
        os.unlink(meta_path)
        raise
    sys.stderr.write(f"wrote {len(records)} rows to {args.out}\n")
    return EXIT_OK


def _cmd_detect(args) -> int:
    model = DeviceModel(
        s=[[1.0, 0.0], [0.0, 1.0]],
        cubic_gamma=args.gamma if args.gamma != 0 else None,
    )
    config = MeasurementConfig(scheme=args.scheme, shots=args.shots, seed=args.seed)
    verdict, ratios = detect_non_gaussian(
        SimulatedDevice(model), args.amplitudes, config, tol=args.tol
    )
    for amp, ratio in zip(args.amplitudes, ratios):
        sys.stdout.write(f"amplitude={amp:g} ratio={ratio:.6f}\n")
    sys.stdout.write("non-gaussian\n" if verdict else "gaussian\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; keep main() returning codes
        return int(exc.code or 0)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "reconstruct":
            return _cmd_reconstruct(args)
        if args.command == "experiment":
            return _cmd_experiment(args, list(argv))
        return _cmd_detect(args)
    except (LossRecoveryError, NotPassiveError) as exc:
        sys.stderr.write(f"gausstomo: reconstruction failed: {exc}\n")
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"gausstomo: error: {exc}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
