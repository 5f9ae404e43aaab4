"""Command-line interface.

Subcommands: surface, find-ep, evolve, reproduce, disorder, tomo,
compile-optics, optimize-schedule. Shared flags (given after the subcommand,
each only on the subcommands that read it): --config <path> JSON run
configuration, --seed <any non-negative integer>, --out <dir>, --format
csv|json (default csv). Every other run setting of evolve, disorder and tomo
is one RunConfig field with one flag (_RUN_FLAGS), and each command takes the
flags of the fields it reads (READS); --direction and --input repeat, with
repeats dropped. A config key or --seed outside the RunConfig fields a command
reads (READS, harness.FIGURES) is a configuration error. Exit codes: 0 success,
2 configuration error (a size too large to allocate included), 3
numerical-guard error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import fields

from .errors import ConfigError, EploopError, NumericalGuardError
from .harness import (
    FIGURES,
    GRANULARITIES,
    INPUT_KINDS,
    RunConfig,
    disorder_csv,
    disorder_json,
    disorder_run,
    dump_json,
    ep_json,
    evolve_cases,
    report_csv,
    report_dict,
    reproduce_figure,
    schedule_json,
    tomography_summaries,
    write_text,
)
from .loops import DIRECTIONS, ENGINES, optimize_schedule
from .metrics import BELL_LABELS, bell_state, density_matrix
from .optics import (
    compile_control_endpoint,
    compile_gain_loss,
    compile_gain_loss_inverse,
    compile_phase_shift,
    compile_rotation,
    compile_symmetry_break,
    compile_walk_step,
    sequence_text,
)
from .spectrum import find_ep, riemann_surface, surface_csv
from .tomo import counts_csv, counts_from_csv, simulate_counts
from .walk import WalkParams

# compile-optics targets: args -> element sequence
_OPTICS = {
    "rotation": lambda a: compile_rotation(a.theta),
    "phase-shift": lambda a: compile_phase_shift(a.k),
    "symmetry-break": lambda a: compile_symmetry_break(a.phi),
    "gain": lambda a: compile_gain_loss(a.gamma),
    "gain-inverse": lambda a: compile_gain_loss_inverse(a.gamma),
    "walk-step": lambda a: compile_walk_step(_walk_params(a)),
    "control": lambda a: compile_control_endpoint(_walk_params(a)),
}


_CASE_FIELDS = ("loop", "n_steps", "directions", "engine", "inputs", "input_kind")

# the RunConfig fields each config-reading command reads (reproduce: harness.FIGURES)
READS = {
    "evolve": _CASE_FIELDS + ("record_steps",),
    "disorder": _CASE_FIELDS + ("strength", "groups", "granularity", "seed"),
    "tomo": ("counts_per_basis", "psd_projection", "resamples", "seed"),
}

_SHARED_FLAGS = {
    "config": dict(metavar="PATH", help="JSON run configuration; explicit flags override it"),
    "seed": dict(type=int, metavar="SEED", help="random seed, any non-negative integer"),
    "out": dict(metavar="DIR", help="output directory (default: print to stdout)"),
    "format": dict(choices=("csv", "json"), default="csv", help="output format (default csv)"),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponent notation and would read `-1e-7` as an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # one stderr line and exit code 2, like a ConfigError
        self.exit(2, f"config error: {message}\n")


def finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and infinities exit 2."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


# the flag of each RunConfig field a command line sets (dest: the field name)
_RUN_FLAGS = {
    "loop": ("--loop", dict(type=int, choices=(1, 2))),
    "n_steps": ("--n-steps", dict(type=int)),
    "directions": ("--direction", dict(action="append", choices=DIRECTIONS, help="repeatable; default {}")),
    "engine": ("--engine", dict(choices=tuple(ENGINES))),
    "inputs": ("--input", dict(action="append", choices=BELL_LABELS, help="repeatable; default {}")),
    "input_kind": ("--input-kind", dict(choices=INPUT_KINDS)),
    "record_steps": ("--record-steps", dict(action="store_const", const=True,
                                            help="include per-step sheet weights")),
    "strength": ("--strength", dict(type=finite_float, help="in [0, pi]; default {}")),
    "groups": ("--groups", dict(type=int)),
    "granularity": ("--granularity", dict(choices=GRANULARITIES)),
    "counts_per_basis": ("--counts-per-basis", dict(type=int)),
    "resamples": ("--resamples", dict(type=int)),
    "psd_projection": ("--psd", dict(action="store_const", const=True,
                                     help="project the reconstruction onto the PSD cone")),
}
_FIELD_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
# where a command's default differs from RunConfig's
_DEFAULTS = {"disorder": {"engine": "simplified"}, "tomo": {"seed": 0}}
_CONFIG_ONLY = {"disorder": ("inputs",)}  # fields a command reads from --config alone


def _shared_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _run_flags(p: argparse.ArgumentParser, command: str) -> None:
    """The flags of the fields `command` reads, with the command's default in each help."""
    defaults = _FIELD_DEFAULTS | _DEFAULTS.get(command, {})
    for name in READS[command]:
        if name in _RUN_FLAGS and name not in _CONFIG_ONLY.get(command, ()):
            flag, kwargs = _RUN_FLAGS[name]
            shown = " ".join(d) if isinstance(d := defaults[name], tuple) else d
            p.add_argument(flag, dest=name, **kwargs | {"help": kwargs.get("help", "default {}").format(shown)})


def _walk_flags(p: argparse.ArgumentParser, with_theta1: bool) -> None:
    if with_theta1:
        p.add_argument("--theta1", type=finite_float, default=-0.6)
    p.add_argument("--theta2", type=finite_float, default=math.pi / 16)
    p.add_argument("--phi", type=finite_float, default=0.0)
    p.add_argument("--gamma", type=finite_float, default=0.2)
    p.add_argument("--k", type=finite_float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eploop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface", help="quasienergy sheets on a parameter grid")
    p.add_argument("--phi-range", nargs=3, type=finite_float, default=(-0.3, 0.3, 61),
                   metavar=("MIN", "MAX", "POINTS"))
    p.add_argument("--theta1-range", nargs=3, type=finite_float, default=(-0.8, 0.0, 61),
                   metavar=("MIN", "MAX", "POINTS"))
    _walk_flags(p, with_theta1=False)
    _shared_flags(p, "out", "format")

    p = sub.add_parser("find-ep", help="locate the spectral coalescence point")
    p.add_argument("--theta1-box", nargs=2, type=finite_float, default=(-0.5, -0.1), metavar=("LO", "HI"))
    p.add_argument("--scan-points", type=int, default=257)
    _walk_flags(p, with_theta1=False)
    _shared_flags(p, "out", "format")

    p = sub.add_parser("evolve", help="run loop evolutions and classify outputs")
    _run_flags(p, "evolve")
    _shared_flags(p, "config", "out", "format")

    p = sub.add_parser("reproduce", help="regenerate a figure-style dataset")
    p.add_argument("figure", choices=FIGURES)
    p.add_argument("--optimized", action="store_true",
                   help="fig4: use the optimized schedule instead of equal spacing")
    _shared_flags(p, "config", "seed", "out")

    p = sub.add_parser("disorder", help="Monte-Carlo robustness under angle noise")
    _run_flags(p, "disorder")
    _shared_flags(p, "config", "seed", "out", "format")

    p = sub.add_parser("tomo", help="simulate or invert two-photon tomography")
    p.add_argument("--state", choices=BELL_LABELS, help="simulate counts for this Bell state")
    p.add_argument("--counts", metavar="PATH", help="reconstruct from an existing counts CSV")
    _run_flags(p, "tomo")
    _shared_flags(p, "config", "seed", "out")

    p = sub.add_parser("compile-optics", help="compile an operator into wave-plate elements")
    p.add_argument("--target", choices=tuple(_OPTICS), required=True)
    p.add_argument("--theta", type=finite_float, default=-0.6, help="rotation angle (rotation target)")
    _walk_flags(p, with_theta1=True)
    _shared_flags(p, "out", "format")

    p = sub.add_parser("optimize-schedule", help="optimize loop phase increments at small N")
    for flag in ("--n-steps", "--multistarts", "--maxiter"):  # defaults: optimize_schedule's
        p.add_argument(flag, type=int)
    _shared_flags(p, "seed", "out", "format")

    return parser


def _load_config(args: argparse.Namespace, reads: tuple[str, ...]) -> RunConfig:
    """Merge precedence: explicit flags > config file > subcommand defaults.

    A config key or --seed outside `reads` is a ConfigError.
    """
    command = " ".join(filter(None, (args.command, getattr(args, "figure", None))))
    data = dict(_DEFAULTS.get(args.command, {}))
    if args.config:
        if not reads:
            raise ConfigError(f"{command} reads no --config")
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unread = sorted(set(loaded) - set(reads))
        if unread:
            raise ConfigError(f"{command} does not read config keys {unread}")
        data.update(loaded)
    for name in _FIELD_DEFAULTS:
        value = getattr(args, name, None)
        if value is not None:
            if name not in reads:  # only --seed is ever on a command that does not read it
                raise ConfigError(f"{command} does not read --{name}")
            data[name] = list(dict.fromkeys(value)) if isinstance(value, list) else value
    return RunConfig.from_dict(data)


def _emit(args: argparse.Namespace, name: str, text: str, written: list[str]) -> None:
    if args.out:
        written.append(write_text(os.path.join(args.out, name), text))
    else:
        sys.stdout.write(text)


def _cmd_surface(args, written) -> int:
    def axis(vals):
        lo, hi, n = vals
        if not float(n).is_integer():
            raise ConfigError(f"grid POINTS must be a whole number, got {n}")
        return (float(lo), float(hi), int(n))

    grid = riemann_surface(
        axis(args.phi_range), axis(args.theta1_range),
        theta2=args.theta2, gamma=args.gamma, k=args.k,
    )
    if args.format == "json":
        _emit(args, "surface.json", dump_json({"samples": grid.tolist()}), written)
    else:
        _emit(args, "surface.csv", surface_csv(grid), written)
    return 0


def _cmd_find_ep(args, written) -> int:
    ep = find_ep(
        theta1_box=tuple(args.theta1_box), theta2=args.theta2, gamma=args.gamma, k=args.k,
        scan_points=args.scan_points,
    )
    if args.format == "json":
        _emit(args, "ep.json", ep_json(ep), written)
    else:
        _emit(args, "ep.csv",
              "phi,theta1,residual\n"
              f"{ep.phi:.12g},{ep.theta1:.12g},{ep.residual:.12g}\n", written)
    return 0


def _cmd_evolve(args, written) -> int:
    reports = evolve_cases(_load_config(args, READS["evolve"]))
    if args.format == "json":
        if args.out:
            for rep in reports:
                _emit(args, f"evolve_{rep.direction}_{rep.input_label}.json",
                      dump_json(report_dict(rep)), written)
        else:
            sys.stdout.write(dump_json([report_dict(rep) for rep in reports]))
    else:
        _emit(args, "evolve.csv", report_csv(reports), written)
    return 0


def _cmd_reproduce(args, written) -> int:
    cfg = _load_config(args, FIGURES[args.figure])
    out_dir = args.out or "reports"
    written.extend(reproduce_figure(args.figure, out_dir, cfg, optimized=args.optimized))
    return 0


def _cmd_disorder(args, written) -> int:
    summary = disorder_run(_load_config(args, READS["disorder"]))
    to_text = disorder_json if args.format == "json" else disorder_csv
    _emit(args, f"disorder.{args.format}", to_text(summary), written)
    return 0


def _cmd_tomo(args, written) -> int:
    if bool(args.state) == bool(args.counts):
        raise ConfigError("tomo needs exactly one of --state or --counts")
    cfg = _load_config(args, READS["tomo"])
    if args.state:
        rho_true = density_matrix(bell_state(args.state))
        counts = simulate_counts(rho_true, cfg.tomo_config())
        _emit(args, f"tomo_{args.state}_counts.csv", counts_csv(counts), written)
    else:
        try:
            with open(args.counts, "r", encoding="utf-8") as fh:
                counts = counts_from_csv(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read counts {args.counts}: {exc}") from exc
    body = tomography_summaries([counts], [cfg.tomo_config()], cfg.resamples)[0]
    if args.state:
        body = {"state": args.state, **body}
    _emit(args, "tomo.json", dump_json(body), written)
    return 0


def _walk_params(args) -> WalkParams:
    return WalkParams(theta1=args.theta1, theta2=args.theta2, phi=args.phi, gamma=args.gamma, k=args.k)


def _cmd_compile_optics(args, written) -> int:
    seq = _OPTICS[args.target](args)
    if args.format == "json":
        body = dump_json({
            "label": seq.label,
            "elements": [
                {"kind": e.kind, "params": list(e.params), "path": e.path}
                for e in seq.elements
            ],
            "global_phase": [seq.global_phase.real, seq.global_phase.imag],
            "scale": seq.scale,
            "residual": seq.residual(),
        })
        _emit(args, f"optics_{args.target}.json", body, written)
    else:
        _emit(args, f"optics_{args.target}.txt", sequence_text(seq), written)
    return 0


def _cmd_optimize(args, written) -> int:
    names = ("n_steps", "seed", "multistarts", "maxiter")  # flags not given keep optimize_schedule's defaults
    result = optimize_schedule(**{k: v for k in names if (v := getattr(args, k)) is not None})
    if args.format == "csv":
        lines = ["step,increment"]
        for i, inc in enumerate(result.increments):
            lines.append(f"{i},{inc:.12g}")
        lines.append(f"# objective,{result.objective:.12g}")
        lines.append(f"# baseline_objective,{result.baseline_objective:.12g}")
        _emit(args, "schedule.csv", "\n".join(lines) + "\n", written)
    else:
        _emit(args, "schedule.json", schedule_json(result), written)
    return 0


_HANDLERS = {
    "surface": _cmd_surface,
    "find-ep": _cmd_find_ep,
    "evolve": _cmd_evolve,
    "reproduce": _cmd_reproduce,
    "disorder": _cmd_disorder,
    "tomo": _cmd_tomo,
    "compile-optics": _cmd_compile_optics,
    "optimize-schedule": _cmd_optimize,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    written: list[str] = []
    try:
        code = _HANDLERS[args.command](args, written)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:  # math.cosh / math.exp of a huge gain-loss gamma
        print(f"numerical guard: overflow ({exc}); a coin parameter is too large", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy cannot allocate the arrays a size flag asks for
        print(f"config error: out of memory ({exc}); a size is too large", file=sys.stderr)
        return 2
    except EploopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
