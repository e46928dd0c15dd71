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
import json
import math
import os
import sys

from . import __version__
from .core import (
    NotPassiveError,
    matrix_from_json,
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
from .experiments import (
    _write_atomic,
    run_intensity_scaling,
    run_mode_scaling,
    run_phase_error_study,
    run_unitary_scaling,
    write_csv,
)
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
            values = [cast(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what} list {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        return values

    return parse


_int_list = _list_of(int, "integer")
_float_list = _list_of(float, "number")


def _loss_fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid loss fraction {text!r}") from None
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError("loss fraction must be in [0, 1)")
    return value


def _dump_json(obj, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out_path, text)


def _build_parser() -> _Parser:
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
    p_rec.add_argument("--loss", type=_loss_fraction, default=None,
                       help="loss fraction L, sets transmissivity eta = 1 - L "
                            "(default: the eta stored in the device file)")
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--out", default=None, help="output path (default: stdout)")

    p_exp = sub.add_parser("experiment", help="run an accuracy sweep and write CSV")
    p_exp.add_argument("name", choices=("mode-scaling", "unitary-scaling", "intensity", "phase-error"))
    p_exp.add_argument("--out", required=True, help="output CSV path")
    p_exp.add_argument("--modes", type=_int_list, default=None,
                       help="comma-separated mode counts (scaling experiments) "
                            "or a single count (intensity)")
    p_exp.add_argument("--schemes", default=None,
                       help="comma-separated schemes (scaling experiments)")
    p_exp.add_argument("--losses", type=_float_list, default=None,
                       help="comma-separated loss fractions (scaling experiments)")
    p_exp.add_argument("--scheme", choices=SCHEMES, default=HETERODYNE,
                       help="scheme for the intensity experiment")
    p_exp.add_argument("--loss", type=_loss_fraction, default=0.0,
                       help="loss fraction for the intensity experiment")
    p_exp.add_argument("--amplitude", type=float, default=None)
    p_exp.add_argument("--amplitudes", type=_float_list, default=None,
                       help="comma-separated probe amplitudes (intensity)")
    p_exp.add_argument("--trials", type=_int_list, default=None,
                       help="comma-separated per-point trial counts (intensity, phase-error)")
    p_exp.add_argument("--phi-max", type=float, default=0.05,
                       help="phase-error half-width in radians (phase-error)")
    p_exp.add_argument("--shots", type=_shots, default=100)
    p_exp.add_argument("--reps", type=_positive_int, default=None)
    p_exp.add_argument("--r-max", type=float, default=DEFAULT_R_MAX)
    p_exp.add_argument("--seed", type=int, default=0)

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


def _load_device(path: str, loss: float | None) -> DeviceModel:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("device file must hold a JSON object")
    if "S" in obj:
        model = device_from_json(obj)
    else:
        model = DeviceModel(matrix_from_json(obj, expect_kind="symplectic"))
    if loss is not None:
        model = DeviceModel(model.s, eta=1.0 - loss, cubic_gamma=model.cubic_gamma)
    return model


def _cmd_reconstruct(args) -> int:
    model = _load_device(args.device, args.loss)
    config = MeasurementConfig(scheme=args.scheme, shots=args.shots, seed=args.seed)
    result = reconstruct_symplectic(SimulatedDevice(model), args.amplitude, config)
    f_value = scaled_frobenius(model.s, result.s_recon)
    _dump_json(reconstruction_to_json(result, frobenius_vs_truth=f_value), args.out)
    # diagnostics on stderr; stdout carries data only
    sys.stderr.write(f"eta_hat={result.eta_hat:.6g} F={f_value:.6g}\n")
    return EXIT_OK


def _run_experiment(args):
    def default(value, fallback):
        return fallback if value is None else value

    if args.name == "mode-scaling":
        etas = tuple(1.0 - l for l in default(args.losses, [0.0, 0.5]))
        return run_mode_scaling(
            n_list=default(args.modes, [2, 4, 8, 12]),
            schemes=_scheme_list(args.schemes),
            eta_list=etas,
            amplitude=default(args.amplitude, 1000.0),
            shots=args.shots,
            repetitions=default(args.reps, 50),
            seed=args.seed,
            r_max=args.r_max,
        )
    if args.name == "unitary-scaling":
        etas = tuple(1.0 - l for l in default(args.losses, [0.0]))
        return run_unitary_scaling(
            n_list=default(args.modes, [2, 4, 8]),
            schemes=_scheme_list(args.schemes),
            eta_list=etas,
            amplitude=default(args.amplitude, 1000.0),
            shots=args.shots,
            repetitions=default(args.reps, 50),
            seed=args.seed,
        )
    if args.name == "intensity":
        modes = default(args.modes, [5])
        if len(modes) != 1:
            raise ValueError("intensity experiment takes a single --modes value")
        return run_intensity_scaling(
            amplitude_list=default(args.amplitudes, [10.0, 31.62, 100.0]),
            trials_list=default(args.trials, [1, 10, 100]),
            shots=args.shots,
            seed=args.seed,
            n_modes=modes[0],
            scheme=args.scheme,
            eta=1.0 - args.loss,
            repetitions=default(args.reps, 20),
            r_max=args.r_max,
        )
    return run_phase_error_study(
        phi_max=args.phi_max,
        trials_list=default(args.trials, [1, 10, 100, 1000, 10000]),
        seed=args.seed,
        repetitions=default(args.reps, 200),
        amplitude=default(args.amplitude, 1.0),
        r_max=args.r_max,
    )


def _scheme_list(text: str | None) -> tuple[str, ...]:
    if text is None:
        return SCHEMES
    schemes = tuple(_check_scheme(part.strip()) for part in text.split(",") if part.strip())
    if not schemes:
        raise ValueError("empty scheme list")
    return schemes


def _cmd_experiment(args, argv: list[str]) -> int:
    records = _run_experiment(args)
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
        eta=1.0,
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
