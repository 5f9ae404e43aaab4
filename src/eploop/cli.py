"""Command-line interface.

Subcommands: surface, find-ep, evolve, reproduce, disorder, tomo,
compile-optics, optimize-schedule. Shared flags (given after the subcommand,
each only on the subcommands that read it): --config <path> JSON run
configuration, --seed <any non-negative integer>, --out <dir>, --format
csv|json (default csv). Every other run setting of evolve, disorder and tomo
is one RunConfig field with one flag (_RUN_FLAGS), and each command takes the
flags of the fields it reads (READS); --direction and --input repeat, with
repeats dropped. A config key or --seed outside the RunConfig fields a command
reads (READS, harness.FIGURES) is a configuration error. The other commands
pass on only the flags given (_given), so each default lives in the library,
and compile-optics rejects a knob its target does not read. No flag may be
abbreviated. Exit codes: 0 success, 2 configuration error (a size too large
to allocate included), 3 numerical-guard error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .errors import ConfigError, EploopError, NumericalGuardError
from .harness import (
    FIGURES,
    GRANULARITIES,
    INPUT_KINDS,
    RunConfig,
    check_out_dir,
    counts_csv,
    csv_text,
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
    surface_csv,
    tomography_summaries,
    write_texts,
)
from .loops import DIRECTIONS, ENGINES, LOOPS, optimize_schedule
from .metrics import BELL_LABELS, bell_state, density_matrix
from .spectrum import find_ep, riemann_surface
from .tomo import counts_from_csv, simulate_counts

_WALK_KNOBS = ("theta1", "theta2", "phi", "gamma", "k")
# compile-optics targets: the knobs each reads, and its compiler of (the optics module, WalkParams, --theta)
_OPTICS = {
    "rotation": (("theta",), lambda o, p, theta: o.compile_rotation(theta)),
    "phase-shift": (("k",), lambda o, p, theta: o.compile_phase_shift(p.k)),
    "symmetry-break": (("phi",), lambda o, p, theta: o.compile_symmetry_break(p.phi)),
    "gain": (("gamma",), lambda o, p, theta: o.compile_gain_loss(p.gamma)),
    "gain-inverse": (("gamma",), lambda o, p, theta: o.compile_gain_loss_inverse(p.gamma)),
    "walk-step": (_WALK_KNOBS, lambda o, p, theta: o.compile_walk_step(p)),
    "control": (_WALK_KNOBS, lambda o, p, theta: o.compile_control_endpoint(p)),
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
        # no abbreviations: `surface --theta1` must not read as --theta1-range
        super().__init__(*args, allow_abbrev=False, **kwargs)
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
    "loop": ("--loop", dict(type=int, choices=tuple(LOOPS))),
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
_FIELD_DEFAULTS = RunConfig._field_defaults
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


def _walk_flags(p: argparse.ArgumentParser, *knobs: str) -> None:
    """One float flag per WalkParams knob the command reads; a flag not given keeps the library's default."""
    for knob in knobs:
        p.add_argument(f"--{knob}", type=finite_float)


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The flags among `names` that the command line gave, by dest: every other one keeps its default."""
    return {name: value for name in names if (value := getattr(args, name)) is not None}


def _surface_flags(p: argparse.ArgumentParser) -> None:
    for flag in ("--phi-range", "--theta1-range"):
        p.add_argument(flag, nargs=3, type=finite_float, metavar=("MIN", "MAX", "POINTS"))
    _walk_flags(p, "theta2", "gamma", "k")
    _shared_flags(p, "out", "format")


def _find_ep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta1-box", nargs=2, type=finite_float, metavar=("LO", "HI"))
    _walk_flags(p, "theta2", "gamma", "k")
    _shared_flags(p, "out", "format")


def _evolve_flags(p: argparse.ArgumentParser) -> None:
    _run_flags(p, "evolve")
    _shared_flags(p, "config", "out", "format")


def _reproduce_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("figure", choices=FIGURES)
    p.add_argument("--optimized", action="store_true",
                   help="fig4: use the optimized schedule instead of equal spacing")
    _shared_flags(p, "config", "seed")
    p.add_argument("--out", metavar="DIR", default="reports", help="output directory (default: reports)")


def _disorder_flags(p: argparse.ArgumentParser) -> None:
    _run_flags(p, "disorder")
    _shared_flags(p, "config", "seed", "out", "format")


def _tomo_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", choices=BELL_LABELS, help="simulate counts for this Bell state")
    p.add_argument("--counts", metavar="PATH", help="reconstruct from an existing counts CSV")
    _run_flags(p, "tomo")
    _shared_flags(p, "config", "seed", "out")


def _compile_optics_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", choices=tuple(_OPTICS), required=True)
    p.add_argument("--theta", type=finite_float, help="rotation angle (rotation target only)")
    _walk_flags(p, *_WALK_KNOBS)
    _shared_flags(p, "out", "format")


def _optimize_flags(p: argparse.ArgumentParser) -> None:
    for flag in ("--n-steps", "--multistarts", "--maxiter"):  # defaults: optimize_schedule's
        p.add_argument(flag, type=int)
    _shared_flags(p, "seed", "out", "format")


# each subcommand's help line and the function that adds its flags, in the order `eploop --help` lists them
_COMMANDS = {
    "surface": ("quasienergy sheets on a parameter grid", _surface_flags),
    "find-ep": ("locate the spectral coalescence point", _find_ep_flags),
    "evolve": ("run loop evolutions and classify outputs", _evolve_flags),
    "reproduce": ("regenerate a figure-style dataset", _reproduce_flags),
    "disorder": ("Monte-Carlo robustness under angle noise", _disorder_flags),
    "tomo": ("simulate or invert two-photon tomography", _tomo_flags),
    "compile-optics": ("compile an operator into wave-plate elements", _compile_optics_flags),
    "optimize-schedule": ("optimize loop phase increments at small N", _optimize_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone. An argv that starts with `command` parses,
    fails and prints its help on both alike; only the top level's own help and errors need every subcommand."""
    parser = _Parser(prog="eploop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags) in _COMMANDS.items():
        if command in (None, name):
            add_flags(sub.add_parser(name, help=help_line))
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


def _cmd_surface(args) -> list[tuple[str, str]]:
    grid = riemann_surface(**_given(args, "phi_range", "theta1_range", "theta2", "gamma", "k"))
    if args.format == "json":
        return [("surface.json", dump_json({"samples": grid.tolist()}))]
    return [("surface.csv", surface_csv(grid))]


def _cmd_find_ep(args) -> list[tuple[str, str]]:
    ep = find_ep(**_given(args, "theta1_box", "theta2", "gamma", "k"))
    if args.format == "json":
        return [("ep.json", ep_json(ep))]
    return [("ep.csv", csv_text("phi,theta1,residual", [(ep.phi, ep.theta1, ep.residual)]))]


def _cmd_evolve(args) -> list[tuple[str, str]]:
    reports = evolve_cases(_load_config(args, READS["evolve"]))
    if args.format == "csv":
        return [("evolve.csv", report_csv(reports))]
    # Encode one report at a time: every report's step dicts alive at once
    # are enough containers to set off the cyclic garbage collector.
    texts = [(f"evolve_{rep.direction}_{rep.input_label}.json", dump_json(report_dict(rep))) for rep in reports]
    # without --out, dump_json of the list: its items joined by "," without their newlines
    return texts if args.out else [("evolve.json", "[" + ",".join(text[:-1] for _, text in texts) + "]\n")]


def _cmd_reproduce(args) -> list[tuple[str, str]]:
    """The written paths, one line each: reproduce_figure writes the figure's files itself."""
    cfg = _load_config(args, FIGURES[args.figure])
    return [(path, path + "\n") for path in reproduce_figure(args.figure, args.out, cfg, optimized=args.optimized)]


def _cmd_disorder(args) -> list[tuple[str, str]]:
    summary = disorder_run(_load_config(args, READS["disorder"]))
    to_text = disorder_json if args.format == "json" else disorder_csv
    return [(f"disorder.{args.format}", to_text(summary))]


def _cmd_tomo(args) -> list[tuple[str, str]]:
    if bool(args.state) == bool(args.counts):
        raise ConfigError("tomo needs exactly one of --state or --counts")
    cfg = _load_config(args, READS["tomo"])
    texts = []
    if args.state:
        counts = simulate_counts(density_matrix(bell_state(args.state)), cfg.tomo_config())
        texts.append((f"tomo_{args.state}_counts.csv", counts_csv(counts)))
    else:
        try:
            with open(args.counts, "r", encoding="utf-8") as fh:
                counts = counts_from_csv(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read counts {args.counts}: {exc}") from exc
    body = tomography_summaries([counts], [cfg.tomo_config()], cfg.resamples)[0]
    return texts + [("tomo.json", dump_json({"state": args.state, **body} if args.state else body))]


def _cmd_compile_optics(args) -> list[tuple[str, str]]:
    knobs, compile_target = _OPTICS[args.target]
    given = _given(args, "theta", *_WALK_KNOBS)
    unread = [f"--{name}" for name in given if name not in knobs]
    if unread:
        raise ConfigError(f"compile-optics --target {args.target} does not read {' '.join(unread)}")
    from . import optics  # loaded here: no other command reads it

    theta = given.pop("theta", -0.6)
    seq = compile_target(optics, optics.start_params()._replace(**given), theta)
    if args.format == "csv":
        return [(f"optics_{args.target}.txt", optics.sequence_text(seq))]
    return [(f"optics_{args.target}.json", dump_json({
        "label": seq.label,
        "elements": [{"kind": e.kind, "params": list(e.params), "path": e.path} for e in seq.elements],
        "global_phase": [seq.global_phase.real, seq.global_phase.imag],
        "scale": seq.scale,
        "residual": seq.residual(),
    }))]


def _cmd_optimize(args) -> list[tuple[str, str]]:
    result = optimize_schedule(**_given(args, "n_steps", "seed", "multistarts", "maxiter"))
    if args.format == "json":
        return [("schedule.json", schedule_json(result))]
    return [("schedule.csv", csv_text("step,increment", [*enumerate(result.increments),
                                                        ("# objective", result.objective),
                                                        ("# baseline_objective", result.baseline_objective)]))]


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
def _parser(command: str | None) -> argparse.ArgumentParser:
    """build_parser(command), built on the first call and reused: parse_args leaves it unchanged."""
    return build_parser(command)


def main(argv=None) -> int:
    """Run one command. Its parser holds only the subcommand that argv starts with, as shared flags follow the
    subcommand name; any other first argument (none, -h, an unknown word) gets the full parser. An --out that
    is a file, or lies under one, is refused before the command starts. Its texts are all built before any is
    written, so a failed command writes nothing: with --out to their files, listing the paths on stdout, and
    else to stdout (reproduce_figure writes its own)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        if args.out:
            check_out_dir(args.out)
        texts = _HANDLERS[args.command](args)
        if args.out and args.command != "reproduce":
            texts = [(path, path + "\n") for path in write_texts(args.out, texts)]
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
    sys.stdout.write("".join(text for _, text in texts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
