"""Command-line interface.

Subcommands: surface, find-ep, evolve, reproduce, disorder, tomo,
compile-optics, optimize-schedule. Shared flags (given after the subcommand,
each only on the subcommands that read it): --config <path> JSON run
configuration, --seed <u64>, --out <dir>, --format csv|json. Exit codes:
0 success, 2 configuration error, 3 numerical-guard error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import ConfigError, EploopError, NumericalGuardError
from .harness import (
    FIGURES,
    RunConfig,
    disorder_csv,
    disorder_json,
    disorder_study,
    dump_json,
    ep_json,
    evolve_cases,
    report_csv,
    report_dict,
    reproduce_figure,
    schedule_json,
    tomography_summary,
    write_text,
)
from .loops import DIRECTIONS, optimize_schedule
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

OPTICS_TARGETS = (
    "rotation",
    "phase-shift",
    "symmetry-break",
    "gain",
    "gain-inverse",
    "walk-step",
    "control",
)


_SHARED_FLAGS = {
    "config": dict(metavar="PATH", help="JSON run configuration; explicit flags override it"),
    "seed": dict(type=int, metavar="U64", help="random seed"),
    "out": dict(metavar="DIR", help="output directory (default: print to stdout)"),
    "format": dict(choices=("csv", "json"), help="output format (default csv)"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line and exit code 2, like a ConfigError
        self.exit(2, f"config error: {message}\n")


def finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and infinities exit 2."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _shared_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_SHARED_FLAGS[name])


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
    p.add_argument("--loop", type=int, choices=(1, 2), help="default 1")
    p.add_argument("--n-steps", type=int, help="default 100")
    p.add_argument("--direction", choices=DIRECTIONS + ("both",), help="default both")
    p.add_argument("--engine", choices=("full", "simplified"), help="default full")
    p.add_argument("--input", dest="inputs", action="append", choices=BELL_LABELS + ("all",),
                   help="repeatable; default all")
    p.add_argument("--input-kind", choices=("eigenstate", "bell"), help="default eigenstate")
    p.add_argument("--record-steps", action="store_true", help="include per-step sheet weights")
    _shared_flags(p, "config", "seed", "out", "format")

    p = sub.add_parser("reproduce", help="regenerate a figure-style dataset")
    p.add_argument("figure", choices=FIGURES)
    p.add_argument("--optimized", action="store_true",
                   help="fig4: use the optimized schedule instead of equal spacing")
    _shared_flags(p, "config", "seed", "out")

    p = sub.add_parser("disorder", help="Monte-Carlo robustness under angle noise")
    p.add_argument("--loop", type=int, choices=(1, 2), help="default 1")
    p.add_argument("--n-steps", type=int, help="default 100")
    p.add_argument("--direction", choices=DIRECTIONS + ("both",), help="default both")
    p.add_argument("--engine", choices=("full", "simplified"), help="default simplified")
    p.add_argument("--strength", type=finite_float, help="in [0, pi], default 0.025")
    p.add_argument("--groups", type=int, help="default 10")
    p.add_argument("--granularity", choices=("per_step", "per_loop"), help="default per_step")
    p.add_argument("--input-kind", choices=("eigenstate", "bell"), help="default eigenstate")
    _shared_flags(p, "config", "seed", "out", "format")

    p = sub.add_parser("tomo", help="simulate or invert two-photon tomography")
    p.add_argument("--state", choices=BELL_LABELS, help="simulate counts for this Bell state")
    p.add_argument("--counts", metavar="PATH", help="reconstruct from an existing counts CSV")
    p.add_argument("--counts-per-basis", type=int, help="default 10000")
    p.add_argument("--resamples", type=int, help="default 100")
    p.add_argument("--psd", action="store_true", help="project the reconstruction onto the PSD cone")
    _shared_flags(p, "config", "seed", "out")

    p = sub.add_parser("compile-optics", help="compile an operator into wave-plate elements")
    p.add_argument("--target", choices=OPTICS_TARGETS, required=True)
    p.add_argument("--theta", type=finite_float, default=-0.6, help="rotation angle (rotation target)")
    _walk_flags(p, with_theta1=True)
    _shared_flags(p, "out", "format")

    p = sub.add_parser("optimize-schedule", help="optimize loop phase increments at small N")
    p.add_argument("--n-steps", type=int, default=8)
    p.add_argument("--multistarts", type=int, default=6)
    p.add_argument("--maxiter", type=int, default=2000)
    _shared_flags(p, "seed", "out", "format")

    return parser


def _load_config(args: argparse.Namespace, overrides: dict, defaults: dict | None = None) -> RunConfig:
    """Merge precedence: explicit flags > config file > subcommand defaults."""
    data = dict(defaults or {})
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update(loaded)
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    if args.seed is not None:
        data["seed"] = args.seed
    return RunConfig.from_dict(data)


def _emit(args: argparse.Namespace, name: str, text: str, written: list[str]) -> None:
    if args.out:
        written.append(write_text(os.path.join(args.out, name), text))
    else:
        sys.stdout.write(text)


def _directions(arg: str) -> tuple[str, ...]:
    return DIRECTIONS if arg == "both" else (arg,)


def _input_labels(raw) -> tuple[str, ...]:
    if not raw or "all" in raw:
        return BELL_LABELS
    seen = []
    for label in raw:
        if label not in seen:
            seen.append(label)
    return tuple(seen)


def _cmd_surface(args, written) -> int:
    def axis(vals):
        lo, hi, n = vals
        if not float(n).is_integer():
            raise ConfigError(f"grid POINTS must be a whole number, got {n}")
        return (float(lo), float(hi), int(n))

    samples = riemann_surface(
        axis(args.phi_range), axis(args.theta1_range),
        theta2=args.theta2, gamma=args.gamma, k=args.k,
    )
    if (args.format or "csv") == "json":
        body = dump_json({"samples": [
            [s.phi, s.theta1, s.lambda_plus.real, s.lambda_plus.imag,
             s.lambda_minus.real, s.lambda_minus.imag]
            for s in samples
        ]})
        _emit(args, "surface.json", body, written)
    else:
        _emit(args, "surface.csv", surface_csv(samples), written)
    return 0


def _cmd_find_ep(args, written) -> int:
    ep = find_ep(
        theta1_box=tuple(args.theta1_box), theta2=args.theta2, gamma=args.gamma, k=args.k,
        scan_points=args.scan_points,
    )
    if (args.format or "csv") == "json":
        _emit(args, "ep.json", ep_json(ep), written)
    else:
        _emit(args, "ep.csv",
              "phi,theta1,residual\n"
              f"{ep.phi:.12g},{ep.theta1:.12g},{ep.residual:.12g}\n", written)
    return 0


def _cmd_evolve(args, written) -> int:
    cfg = _load_config(args, {
        "loop": args.loop,
        "n_steps": args.n_steps,
        "directions": list(_directions(args.direction)) if args.direction else None,
        "engine": args.engine,
        "inputs": list(_input_labels(args.inputs)) if args.inputs else None,
        "input_kind": args.input_kind,
        "record_steps": True if args.record_steps else None,
    })
    reports = evolve_cases(cfg)
    if (args.format or "csv") == "json":
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
    cfg = _load_config(args, {})
    out_dir = args.out or "reports"
    written.extend(reproduce_figure(args.figure, out_dir, cfg, optimized=args.optimized))
    return 0


def _cmd_disorder(args, written) -> int:
    cfg = _load_config(args, {
        "loop": args.loop,
        "n_steps": args.n_steps,
        "directions": list(_directions(args.direction)) if args.direction else None,
        "engine": args.engine,
        "strength": args.strength,
        "groups": args.groups,
        "granularity": args.granularity,
        "input_kind": args.input_kind,
    }, defaults={"engine": "simplified"})
    summary = disorder_study(cfg)
    if (args.format or "csv") == "json":
        _emit(args, "disorder.json", disorder_json(summary), written)
    else:
        _emit(args, "disorder.csv", disorder_csv(summary), written)
    return 0


def _cmd_tomo(args, written) -> int:
    if bool(args.state) == bool(args.counts):
        raise ConfigError("tomo needs exactly one of --state or --counts")
    cfg = _load_config(args, {
        "counts_per_basis": args.counts_per_basis,
        "resamples": args.resamples,
        "psd_projection": True if args.psd else None,
    }, defaults={"seed": 0})
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
    body = tomography_summary(counts, cfg.tomo_config(), cfg.resamples)
    if args.state:
        body = {"state": args.state, **body}
    _emit(args, "tomo.json", dump_json(body), written)
    return 0


def _cmd_compile_optics(args, written) -> int:
    p = WalkParams(theta1=args.theta1, theta2=args.theta2, phi=args.phi,
                   gamma=args.gamma, k=args.k)
    if args.target == "rotation":
        seq = compile_rotation(args.theta)
    elif args.target == "phase-shift":
        seq = compile_phase_shift(args.k)
    elif args.target == "symmetry-break":
        seq = compile_symmetry_break(args.phi)
    elif args.target == "gain":
        seq = compile_gain_loss(args.gamma)
    elif args.target == "gain-inverse":
        seq = compile_gain_loss_inverse(args.gamma)
    elif args.target == "walk-step":
        seq = compile_walk_step(p)
    else:
        seq = compile_control_endpoint(p)
    if (args.format or "csv") == "json":
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
    seed = args.seed if args.seed is not None else 20260815
    result = optimize_schedule(args.n_steps, seed=seed,
                               multistarts=args.multistarts, maxiter=args.maxiter)
    if (args.format or "csv") == "csv":
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except EploopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
