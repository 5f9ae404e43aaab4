import argparse
import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eploop import cli, harness
from eploop.cli import READS, build_parser, main
from eploop.harness import FIGURES, RunConfig


def test_find_ep_json(capsys):
    assert main(["find-ep", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["theta1"] == pytest.approx(-0.2917760531146608, abs=1e-9)
    assert out["residual"] < 1e-10


def test_find_ep_finds_a_pair_inside_one_scan_cell(capsys):
    # at gamma = 0.001, d0 > 1 only between the closed-form roots -0.196740104417 and -0.195959742649, inside
    # one 1.56e-3 cell of the 257-point scan; d0 rounds to 1 over about 6e-13 (eps over its slope 3.9e-4) there
    assert main(["find-ep", "--gamma", "0.001", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert -0.19674010441724507 - 1e-12 <= out["theta1"] <= -0.19595974264854063
    assert out["residual"] < 1e-15


def _exit_code(argv) -> int:
    """Exit code of `eploop argv`: main's return value, or argparse's SystemExit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_find_ep_guard_exit_code(capsys):
    for argv in (
        ["find-ep", "--gamma", "0"],
        ["find-ep", "--k", "0.1"],
        ["find-ep", "--k", "1e308"],  # 2k overflows: d0 is NaN everywhere and brackets nothing
        ["find-ep", "--gamma", "1e3"],
        ["surface", "--gamma", "1e3", "--phi-range", "-0.1", "0.1", "2"],
        ["surface", "--k", "1e308"],  # 2k overflows: the sheets are NaN
        ["surface", "--gamma", "1e308"],  # 2 gamma overflows and math.cosh(inf) is inf, not an OverflowError
        ["compile-optics", "--target", "walk-step", "--gamma", "1e3"],
    ):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("numerical guard") and err.count("\n") == 1, (argv, err)


def test_surface_grid_rows(capsys):
    code = main(["surface", "--phi-range", "-0.1", "0.1", "3",
                 "--theta1-range", "-0.5", "-0.3", "4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "phi,theta1,re_lp,im_lp,re_lm,im_lm"
    assert len(lines) == 13


def test_surface_rejects_fractional_grid_size(capsys):
    assert main(["surface", "--phi-range", "-0.1", "0.1", "2.9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1, err


def test_surface_json_rows(capsys):
    code = main(["surface", "--phi-range", "-0.1", "0.1", "2",
                 "--theta1-range", "-0.5", "-0.3", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["samples"]
    assert [row[:2] for row in rows] == [[-0.1, -0.5], [-0.1, -0.3], [0.1, -0.5], [0.1, -0.3]]
    assert all(len(row) == 6 and all(isinstance(v, float) for v in row) for row in rows)


def test_evolve_csv_stdout(capsys):
    code = main(["evolve", "--n-steps", "8", "--engine", "simplified",
                 "--direction", "cw", "--input", "zeta1", "--input", "zeta2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("input,direction,N,loop,engine,classified")
    assert len(lines) == 3


def test_evolve_json_files(tmp_path, capsys):
    code = main(["evolve", "--n-steps", "8", "--engine", "simplified",
                 "--format", "json", "--out", str(tmp_path)])
    assert code == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 8  # both directions x four inputs
    body = json.loads((tmp_path / files[0]).read_text())
    assert body["N"] == 8
    assert body["engine"] == "simplified"
    assert len(body["density"]) == 32


@pytest.mark.parametrize("engine", ["full", "simplified"])
@pytest.mark.parametrize("record_steps", [False, True])
@pytest.mark.parametrize("loop", ["1", "2"])
@pytest.mark.parametrize("input_kind", ["eigenstate", "bell"])
def test_evolve_json_stdout_is_the_out_files_as_one_list(tmp_path, capsys, engine, record_steps,
                                                         loop, input_kind):
    argv = ["evolve", "--loop", loop, "--engine", engine, "--n-steps", "6",
            "--input-kind", input_kind, "--format", "json"] + ["--record-steps"] * record_steps
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path)]) == 0
    texts = [(tmp_path / f"evolve_{d}_{i}.json").read_text(encoding="utf-8")
             for d in ("cw", "ccw") for i in ("zeta1", "zeta2", "zeta3", "zeta4")]
    assert len(list(tmp_path.iterdir())) == len(texts)
    assert stdout == "[" + ",".join(text[:-1] for text in texts) + "]\n"


def test_evolve_json_runs_no_garbage_collection(capsys):
    # CPython's generational collector runs generation 0 once 700 more containers are
    # allocated than freed; holding every report's step dicts at once crossed that.
    argv = ["evolve", "--loop", "1", "--engine", "full", "--n-steps", "100", "--record-steps",
            "--input-kind", "eigenstate", "--format", "json"]
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert main(argv) == 0  # the first call's lazy set-up is not what this test counts
    capsys.readouterr()
    thresholds = gc.get_threshold()
    gc.collect()
    gc.set_threshold(700, 10, 10)
    gc.callbacks.append(count)
    try:
        code = main(argv)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*thresholds)
    capsys.readouterr()
    assert code == 0
    assert started == [], f"collections of generations {started} during one evolve call"


def test_main_keeps_no_state_between_calls(capsys):
    # the parser is built once and reused, so a flag of one call must not leak into the next
    argv = ["evolve", "--n-steps", "4", "--direction", "cw", "--format", "json"]
    assert main(argv + ["--input", "zeta1"]) == 0
    assert [r["input"] for r in json.loads(capsys.readouterr().out)] == ["zeta1"]
    assert main(argv) == 0
    assert [r["input"] for r in json.loads(capsys.readouterr().out)] == ["zeta1", "zeta2", "zeta3", "zeta4"]


def test_direction_and_input_repeat_and_drop_repeats(capsys):
    argv = ["evolve", "--n-steps", "2", "--format", "json"]
    assert main(argv + ["--direction", "ccw", "--direction", "cw", "--direction", "ccw",
                        "--input", "zeta3", "--input", "zeta3"]) == 0
    cases = [(r["direction"], r["input"]) for r in json.loads(capsys.readouterr().out)]
    assert cases == [("ccw", "zeta3"), ("cw", "zeta3")]


def test_evolve_rejects_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for body, argv in (
        ('{"n_steps": 8, "loop": 7}', ["evolve"]),
        ('{"n_steps": 8, "loop": true}', ["evolve"]),
        ('{"n_steps": 8, "groups": 2.5}', ["disorder"]),
        ('{"n_steps": 8}', ["disorder", "--seed", "-1"]),
        ('{}', ["tomo", "--state", "zeta1", "--seed", "-1"]),
        ('{"record_steps": "no"}', ["evolve"]),
        ('{"psd_projection": "yes"}', ["tomo", "--state", "zeta1"]),
        ('{"n_steps": 8, "strength": true}', ["disorder"]),
        ('{"n_steps": 8}', ["disorder", "--strength", "1e308"]),
        ('{"directions": "cw"}', ["evolve"]),
        ('{"inputs": "zeta1"}', ["evolve"]),
        ('{"disorder": true}', ["disorder"]),
        ('{"directions": []}', ["evolve"]),
        ('{"inputs": []}', ["evolve"]),
        ('{"inputs": []}', ["disorder", "--format", "json"]),
        ('{"inputs": ["zeta1", "zeta1"], "directions": ["cw", "cw"]}', ["evolve"]),
        ('{"inputs": ["zeta1", "zeta1"]}', ["disorder", "--format", "json"]),
        (None, ["tomo", "--state", "zeta1", "--counts-per-basis", "100000000000000000000"]),
        ('{"n_steps": 7, "engine": "full", "loop": 2}', ["reproduce", "fig4", "--out", str(tmp_path / "r")]),
        (None, ["reproduce", "fig2", "--seed", "5", "--out", str(tmp_path / "r")]),
        ('{"n_steps": 7}', ["reproduce", "fig5", "--out", str(tmp_path / "r")]),
        ('{"n_steps": 7}', ["tomo", "--state", "zeta1"]),
        (None, ["evolve", "--seed", "5"]),
        ('{"record_steps": true}', ["disorder"]),
        (None, ["optimize-schedule", "--n-steps", "4", "--multistarts", "0"]),
        (None, ["optimize-schedule", "--n-steps", "4", "--seed", "-3"]),
        (None, ["optimize-schedule", "--n-steps", "4", "--maxiter", "-5"]),
        ('{}', ["reproduce", "fig1b", "--out", str(tmp_path / "r")]),
        (None, ["reproduce", "fig1b", "--seed", "5", "--out", str(tmp_path / "r")]),
        (None, ["reproduce", "fig2", "--optimized", "--out", str(tmp_path / "r")]),
        (None, ["reproduce", "fig5", "--optimized", "--out", str(tmp_path / "r")]),
        (None, ["compile-optics", "--target", "walk-step", "--theta1", "inf"]),
        (None, ["surface", "--theta2", "nan", "--phi-range", "-0.1", "0.1", "2",
                "--theta1-range", "-0.5", "-0.4", "2"]),
        (None, ["surface", "--phi-range", "0", "inf", "2"]),
        (None, ["surface", "--theta1-range", "-0.5", "-0.4", "nan"]),
        (None, ["find-ep", "--theta1-box", "-0.5", "nan"]),
        (None, ["find-ep", "--k", "-inf"]),
        (None, ["compile-optics", "--target", "control", "--phi", "nan"]),
        (None, ["compile-optics", "--target", "rotation", "--theta", "inf"]),
        ('{"n_steps": 8}', ["disorder", "--strength", "nan"]),
        (None, ["evolve", "--direction", "both"]),
        (None, ["evolve", "--input", "all"]),
        # bootstraps past tomo.MAX_RESAMPLES are refused before any draw
        (None, ["tomo", "--state", "zeta1", "--resamples", "100001"]),
        ('{"resamples": 100000000}', ["tomo", "--state", "zeta1"]),
        ('{"resamples": 100001}', ["reproduce", "fig4", "--out", str(tmp_path / "r")]),
        # sizes numpy cannot allocate
        (None, ["disorder", "--groups", "1000000000", "--n-steps", "100"]),
        (None, ["evolve", "--n-steps", "100000000000"]),
        (None, ["surface", "--phi-range", "0", "1", "1e30"]),
        # finite ends whose span overflows
        (None, ["surface", "--phi-range", "-1e308", "1e308", "3"]),
        (None, ["find-ep", "--theta1-box", "-1e308", "1e308"]),
    ):
        if body is not None:
            cfg.write_text(body)
            argv = argv + ["--config", str(cfg)]
        assert _exit_code(argv) == 2, (body, argv)
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1, err


def test_find_ep_box_needs_lo_below_hi(capsys):
    # a reversed box once bisected the window's other edge and exited 0; an empty one exited 3
    for lo, hi in (("-0.1", "-0.5"), ("-0.3", "-0.3")):
        assert main(["find-ep", "--theta1-box", lo, hi]) == 2
        assert capsys.readouterr().err == f"config error: theta1 box needs LO < HI, got [{lo}, {hi}]\n"


def test_evolve_merges_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"n_steps": 6, "engine": "simplified", "directions": ["cw"], "inputs": ["zeta3"]}')
    assert main(["evolve", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("zeta3,cw,6,loop1,simplified,")


def test_negative_floats_in_exponent_notation_are_values(capsys):
    # argparse's own pattern took "-1e-7" for an option: "expected one argument"
    assert main(["find-ep", "--k", "-1e-1"]) == 3  # no EP beyond |k| = 0.0409 (gamma = -1e-7 has a pair 8e-8 wide)
    err = capsys.readouterr().err
    assert err.startswith("numerical guard") and "k=-0.1)" in err, err
    assert main(["find-ep", "--theta1-box", "-5E-1", "-1e-1", "--gamma", "-2e-1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("0,-0.291776053115,")
    grid = ["--phi-range", "-1e-3", "0.1", "2", "--theta1-range", "-0.5", "-0.4", "2"]
    assert main(["surface", *grid]) == 0
    out = capsys.readouterr().out
    assert main(["surface", "--phi-range", "-0.001", "0.1", "2", "--theta1-range", "-0.5", "-0.4", "2"]) == 0
    assert out == capsys.readouterr().out
    assert len(out.splitlines()) == 5


def test_tomo_requires_exactly_one_source(capsys):
    assert main(["tomo"]) == 2
    assert main(["tomo", "--state", "zeta1", "--counts", "x.csv"]) == 2


def test_tomo_state_round_trip(tmp_path, capsys):
    code = main(["tomo", "--state", "zeta2", "--seed", "5", "--out", str(tmp_path),
                 "--resamples", "20"])
    assert code == 0
    counts_file = tmp_path / "tomo_zeta2_counts.csv"
    assert counts_file.exists()
    body = json.loads((tmp_path / "tomo.json").read_text())
    assert body["state"] == "zeta2"
    assert body["fidelities"]["zeta2"] > 0.98
    capsys.readouterr()
    code = main(["tomo", "--counts", str(counts_file), "--out", str(tmp_path / "again"),
                 "--resamples", "20", "--seed", "5"])
    assert code == 0
    again = json.loads((tmp_path / "again" / "tomo.json").read_text())
    assert again["fidelities"] == body["fidelities"]


def test_tomo_missing_counts_file(tmp_path, capsys):
    assert main(["tomo", "--counts", "/nonexistent/counts.csv"]) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["tomo", "--counts", str(empty)]) == 2


def _write_counts(path, counts):
    pairs = [(a, b) for a in "HVDR" for b in "HVDR"]
    path.write_text("basis_a,basis_b,count\n" + "".join(f"{a},{b},{c}\n" for (a, b), c in zip(pairs, counts)))
    return str(path)


def test_tomo_counts_above_the_bound_exit_2_with_one_line(tmp_path, capsys):
    # 10^19 lies beyond numpy's Poisson sampler (about 9.2e18); 10^12 is the bound itself
    for count, code in ((10**19, 2), (10**12 + 1, 2), (10**12, 0)):
        path = _write_counts(tmp_path / f"counts_{count}.csv", [count] * 16)
        assert _exit_code(["tomo", "--counts", path, "--resamples", "2"]) == code, count
        err = capsys.readouterr().err
        if code:
            assert err.startswith("config error: count in row") and err.count("\n") == 1, err


def test_tomo_counts_guard_names_the_failing_table(tmp_path, capsys):
    # one count in one basis: the table itself inverts, but a resample that draws 0 there does not
    for counts, seed, where in (([1] + [0] * 15, "0", "resample 3"), ([1] + [0] * 15, "1", "resample 2"),
                                ([0] * 16, "0", "observed counts")):
        path = _write_counts(tmp_path / "counts.csv", counts)
        out = tmp_path / "out"
        argv = ["tomo", "--counts", path, "--counts-per-basis", "1", "--resamples", "5", "--seed", seed]
        assert main(argv + ["--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"numerical guard: {where}: reconstructed trace 0.000e+00 too small to normalize\n"
        assert captured.out == "" and not out.exists()


def test_tomo_counts_pass_or_fail_alike_at_any_counts_per_basis(tmp_path, capsys):
    # the inversion residual is bounded relative to the frequencies, so rescaling the table changes nothing
    path = _write_counts(tmp_path / "counts.csv", [(i + 1) * 10**9 for i in range(16)])
    bodies = []
    for cpb in ("1", "1000000000"):
        assert main(["tomo", "--counts", path, "--counts-per-basis", cpb, "--resamples", "8"]) == 0, cpb
        bodies.append(json.loads(capsys.readouterr().out))
    assert bodies[0]["density"] == pytest.approx(bodies[1]["density"], rel=0, abs=1e-12)
    assert bodies[0]["fidelities"] == pytest.approx(bodies[1]["fidelities"], rel=0, abs=1e-12)
    assert bodies[0]["bootstrap_sd"] == pytest.approx(bodies[1]["bootstrap_sd"], rel=0, abs=1e-12)


def test_compile_optics_text(capsys):
    assert main(["compile-optics", "--target", "control"]) == 0
    out = capsys.readouterr().out
    assert "PPBS" in out and "CNOT" in out and "SWAP" in out
    assert "# residual" in out


def test_compile_optics_singular_control_exit_code(capsys):
    assert main(["compile-optics", "--target", "control",
                 "--theta1", "-0.3508237905748691", "--k", "0.3"]) == 3
    assert capsys.readouterr().err.startswith("numerical guard: |det| =")


def test_compile_optics_json(capsys):
    assert main(["compile-optics", "--target", "phase-shift", "--k", "0.4",
                 "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["residual"] < 1e-12
    assert [e["kind"] for e in body["elements"]] == ["QWP", "HWP", "QWP"]


def test_reproduce_fig1b_cli(tmp_path, capsys):
    assert main(["reproduce", "fig1b", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 2
    assert (tmp_path / "fig1b_surface.csv").exists()


def test_surface_and_find_ep_defaults_are_fig1b(tmp_path, capsys):
    assert main(["reproduce", "fig1b", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for argv, name in ((["surface"], "fig1b_surface.csv"), (["find-ep", "--format", "json"], "fig1b_ep.json")):
        assert main(argv) == 0
        assert capsys.readouterr().out == (tmp_path / name).read_text(encoding="utf-8"), argv


def test_unread_or_abbreviated_flags_exit_2_with_one_line(capsys):
    for argv in (
        ["surface", "--phi", "0", "0.1", "2"],
        ["find-ep", "--phi", "0.3"],
        ["surface", "--theta1", "-0.5", "-0.4", "2"],  # not an abbreviation of --theta1-range
        ["evolve", "--n", "3"],  # not an abbreviation of --n-steps
        ["compile-optics", "--target", "rotation", "--gamma", "0.3"],
    ):
        assert _exit_code(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1, (argv, err)


def test_a_failed_fig4_writes_no_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"counts_per_basis": 8}')
    # at 8 counts per basis the last case trips the trace guard, after seven cases passed; the
    # message names the case and the resample, which differs from seed to seed
    for seed, resample in (("0", 6), ("1", 69)):
        out = tmp_path / f"failed{seed}"
        assert main(["reproduce", "fig4", "--seed", seed, "--config", str(cfg), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (f"numerical guard: fig4 case ccw zeta4, resample {resample}: "
                                "reconstructed trace 0.000e+00 too small to normalize\n")
        assert captured.out == "" and not out.exists()
    out = tmp_path / "passed"
    assert main(["reproduce", "fig4", "--seed", "9", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(list(out.iterdir())) == 16


@pytest.mark.parametrize("argv, blocker", [
    (["find-ep", "--out", "F"], "F"),  # --out names a file
    (["reproduce", "fig1b", "--out", "F"], "F"),
    (["evolve", "--n-steps", "2", "--format", "json", "--out", "F/sub"], "F"),  # a file on the way
    # an output file's name is taken by a directory: refused before the first write
    (["find-ep", "--out", "D"], "D/ep.csv"),
    (["reproduce", "fig1b", "--out", "D"], "D/fig1b_ep.json"),  # the figure's second file
    (["evolve", "--n-steps", "2", "--format", "json", "--out", "D"], "D/evolve_ccw_zeta4.json"),  # the eighth
    # refused before the optimizer or the Monte-Carlo starts
    (["optimize-schedule", "--out", "F"], "F"),
    (["disorder", "--out", "F/sub"], "F"),
])
def test_an_unwritable_out_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv, blocker):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text("kept\n")
    taken = ["ep.csv", "evolve_ccw_zeta4.json", "fig1b_ep.json"]
    for name in taken:
        (tmp_path / "D" / name).mkdir(parents=True)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: cannot write ") and captured.err.count("\n") == 1, captured.err
    assert blocker in captured.err and captured.out == ""
    assert (tmp_path / "F").read_text() == "kept\n"
    assert sorted(p.name for p in (tmp_path / "D").iterdir()) == taken  # no file written beside them


@pytest.mark.parametrize("argv, written", [
    # the kernel resolves each .. after the directories before it exist, as mkdir -p makes them
    (["evolve", "--n-steps", "3", "--direction", "cw", "--input", "zeta1", "--format", "json", "--out", "y/sub/.."],
     "y/evolve_cw_zeta1.json"),
    (["reproduce", "fig1b", "--out", "y/sub/../r"], "y/r/fig1b_ep.json"),
    (["find-ep", "--out", "y/./sub"], "y/sub/ep.csv"),
])
def test_an_out_through_missing_directories_and_dotdot_writes_as_mkdir_p(tmp_path, monkeypatch, capsys, argv, written):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert (tmp_path / written).is_file() and (tmp_path / "y" / "sub").is_dir()
    assert os.path.basename(written) in capsys.readouterr().out


def test_evolve_refuses_step_records_as_csv_before_the_run(tmp_path, monkeypatch, capsys):
    # the CSV has no step columns: the records would be computed and dropped
    monkeypatch.setattr(cli, "evolve_cases", lambda cfg: pytest.fail("evolve ran"))
    cfg = tmp_path / "run.json"
    cfg.write_text('{"record_steps": true}')
    for argv in (["evolve", "--record-steps"], ["evolve", "--config", str(cfg), "--format", "csv"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "config error: evolve writes step records as JSON only: "
                                           "record_steps needs --format json\n"), argv


def test_reproduce_refuses_an_out_file_before_building_the_figure(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text("kept\n")
    built = []
    monkeypatch.setitem(harness.FIGURES, "fig4",
                        (harness.FIGURES["fig4"][0], lambda cfg, optimized: built.append(optimized) or []))
    for out in ("F", "F/sub", "F/sub/"):
        assert main(["reproduce", "fig4", "--optimized", "--out", out]) == 2
        assert capsys.readouterr().err == f"config error: cannot write {out}: F is not a directory\n"
    assert built == [] and (tmp_path / "F").read_text() == "kept\n"
    assert main(["reproduce", "fig4", "--optimized", "--out", "D/sub"]) == 0  # the builder the test counts
    assert built == [True]


@pytest.mark.parametrize("argv", [
    ["surface"], ["find-ep"], ["evolve"], ["reproduce", "fig1b"], ["disorder"], ["tomo"],
    ["compile-optics", "--target", "rotation"], ["optimize-schedule"],
])
def test_every_command_refuses_an_out_file_before_its_handler_runs(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text("kept\n")
    ran = []
    monkeypatch.setitem(cli._COMMANDS, argv[0], cli._COMMANDS[argv[0]][:2] + (lambda args: ran.append(args.out) or [],))
    for out in ("F", "F/sub", "F/sub/"):
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err == f"config error: cannot write {out}: F is not a directory\n"
    assert ran == [] and (tmp_path / "F").read_text() == "kept\n"
    assert main(argv + ["--out", "D/sub"]) == 0  # the handler the test counts
    assert ran == ["D/sub"]


def test_reproduce_help_names_its_default_directory(capsys):
    assert _exit_code(["reproduce", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal's width
    assert "--out DIR output directory (default: reports)" in help_text and "stdout" not in help_text


def test_a_failed_command_writes_nothing(tmp_path, capsys):
    # one count per basis: the state's counts are simulated before a bootstrap resample trips the trace guard
    argv = ["tomo", "--state", "zeta1", "--counts-per-basis", "1", "--seed", "0"]
    for out in ([], ["--out", str(tmp_path)]):
        assert main(argv + out) == 3
        captured = capsys.readouterr()
        assert captured.err == "numerical guard: resample 7: reconstructed trace 0.000e+00 too small to normalize\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_optimize_schedule_quick(capsys):
    code = main(["optimize-schedule", "--n-steps", "4", "--multistarts", "1",
                 "--maxiter", "60"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "step,increment"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 5


def test_optimize_schedule_leaves_scipy_unimported():
    # the optimizer is in-house; importing scipy.optimize costs about 0.4 s and 40 MB
    code = ("import contextlib, io, sys; from eploop.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['optimize-schedule', '--n-steps', '4', '--multistarts', '2', '--maxiter', '20'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_python_dash_m_runs_main(capsys):
    argv = ["evolve", "--n-steps", "4", "--direction", "cw", "--input", "zeta1"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-m", "eploop", *argv], env=env, capture_output=True, text=True)
    assert main(argv) == 0
    assert (out.returncode, out.stdout, out.stderr) == (0, capsys.readouterr().out, "")
    out = subprocess.run([sys.executable, "-m", "eploop", *argv, "--bogus"], env=env, capture_output=True, text=True)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("config error") and out.stderr.count("\n") == 1, out.stderr


def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys):
    for argv in (
        ["surface", "--seed", "1"],
        ["find-ep", "--config", "x"],
        ["compile-optics", "--target", "gain", "--seed", "1"],
        ["optimize-schedule", "--config", "x"],
        ["reproduce", "fig1b", "--format", "json"],
        ["tomo", "--state", "zeta1", "--format", "csv"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    cfg = tmp_path / "run.json"
    cfg.write_text('{"loop": 9}')
    assert main(["tomo", "--state", "zeta1", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error")


# The RunConfig fields each command reads, as README's "Configuration files" table lists them.
_CASE = ("loop", "n_steps", "directions", "engine", "inputs", "input_kind")
_READ_SETS = {
    "evolve": _CASE + ("record_steps",),
    "disorder": _CASE + ("strength", "groups", "granularity", "seed"),
    "tomo": ("counts_per_basis", "psd_projection", "resamples", "seed"),
    "fig1b": (),
    "fig2": ("input_kind", "record_steps"),
    "fig4": ("input_kind", "record_steps", "seed", "counts_per_basis", "psd_projection", "resamples"),
    "fig5": ("input_kind", "seed", "strength", "groups", "granularity"),
}
_KEYS = [*RunConfig._fields, "unknown", "nsteps"]


def test_read_sets_are_the_documented_table():
    assert {**READS, **{fig: reads for fig, (reads, _) in FIGURES.items()}} == _READ_SETS


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**62) | st.floats()
    | st.text(max_size=4) | st.just([]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
# values that pass their own field's check, so that a body reaches the command it configures
_VALID = {
    "loop": st.sampled_from([1, 2]),
    "n_steps": st.integers(1, 4),
    "directions": st.lists(st.sampled_from(["cw", "ccw"]), max_size=2),
    "engine": st.sampled_from(["full", "simplified"]),
    "inputs": st.lists(st.sampled_from(["zeta1", "zeta2", "zeta3", "zeta4"]), max_size=2),
    "input_kind": st.sampled_from(["eigenstate", "bell"]),
    "counts_per_basis": st.integers(1, 10**4) | st.integers(10**11, 2**70),
    "psd_projection": st.booleans(),
    "resamples": st.integers(2, 3),
    "strength": st.floats(0.0, 3.0),
    "groups": st.integers(1, 2),
    "granularity": st.sampled_from(["per_step", "per_loop"]),
    "seed": st.integers(0, 2**70),
    "record_steps": st.booleans(),
}


def _bodies(keys, min_size=0):
    entry = st.sampled_from(keys).flatmap(
        lambda k: st.tuples(st.just(k), _VALID.get(k, _JSON_VALUES) | _JSON_VALUES))
    return st.lists(entry, min_size=min_size, max_size=2).map(dict)


# flags that keep every run small; an explicit flag overrides the config body
_SMALL_RUNS = {
    "evolve": ["evolve", "--n-steps", "2", "--format", "json"],
    "disorder": ["disorder", "--n-steps", "2", "--groups", "1", "--format", "json"],
    "tomo": ["tomo", "--state", "zeta1", "--resamples", "2"],
}


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(_SMALL_RUNS)), _bodies(_KEYS))
def test_config_bodies_exit_0_2_or_3_with_one_line(tmp_path, capsys, command, body):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(body))
    code = _exit_code(_SMALL_RUNS[command] + ["--config", str(cfg)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (command, body, code)
    if code:
        assert err.count("\n") == 1, (command, body, err)


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(FIGURES)).flatmap(lambda fig: st.tuples(
    st.just(fig),
    _bodies([k for k in _KEYS if k not in _READ_SETS[fig]], min_size=1),
    _bodies(_READ_SETS[fig] or ("seed",)),
)))
def test_reproduce_rejects_config_keys_the_figure_does_not_read(tmp_path, capsys, case):
    fig, unread, read = case
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**read, **unread}))
    assert _exit_code(["reproduce", fig, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1, err


# Flag-value fuzzing: any value of any flag of any subcommand ends in exit 0, 2 or 3 with one
# stderr line on failure. The flags come from the parser, so a flag without values below fails
# the test. Size flags are always given and drawn small, so that each run is short.
_JUNK = st.sampled_from(["", "x", "nan", "-inf", "1e400", "2.5", "0", "-1", "both", "all"])


def _mostly(values):
    """`values`, or one time in eight a junk string."""
    return st.integers(0, 7).flatmap(lambda r: values if r else _JUNK)


def _ints(lo, hi):
    return _mostly(st.integers(lo, hi).map(str))


def _choice(*values):
    return _mostly(st.sampled_from(values))


# repr or positional notation: both must read as a number, "-1e-07" as much as "-0.0000001"
_NUMBERS = st.one_of(st.floats(-1, 1), st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))
_FLOAT = _mostly(st.one_of(_NUMBERS.map(repr), _NUMBERS.map(lambda x: np.format_float_positional(x, trim="-"))))
_NO_VALUE = st.just(())
_SIZES = {
    "--n-steps": _ints(1, 6), "--groups": _ints(1, 3), "--resamples": _ints(2, 4),
    "--multistarts": _ints(1, 2), "--maxiter": _ints(1, 3),
    "--counts-per-basis": _ints(1, 50),
    "--phi-range": st.tuples(_FLOAT, _FLOAT, _ints(2, 4)),
    "--theta1-range": st.tuples(_FLOAT, _FLOAT, _ints(2, 4)),
}
_VALUES = {  # a value is a string or, for a flag of several values, a tuple of them
    **{flag: _FLOAT for flag in ("--theta", "--theta1", "--theta2", "--phi", "--gamma", "--k")},
    "--theta1-box": st.tuples(_FLOAT, _FLOAT),
    "--strength": _mostly(st.floats(-0.1, 3.5).map(str)),
    "--loop": _choice("1", "2", "3"),
    "--direction": _choice("cw", "ccw"),
    "--engine": _choice("full", "simplified"),
    "--input": _choice("zeta1", "zeta4"),
    "--state": _choice("zeta1", "zeta2"),
    "--input-kind": _choice("eigenstate", "bell"),
    "--granularity": _choice("per_step", "per_loop"),
    "--format": _choice("csv", "json"),
    "--target": _choice("rotation", "phase-shift", "symmetry-break", "gain", "gain-inverse",
                        "walk-step", "control"),
    "--seed": _mostly(st.integers(-1, 2**70).map(str)),
    "--config": st.sampled_from(["CONFIG", "MISSING"]),
    "--counts": st.sampled_from(["COUNTS", "MISSING"]),
    "--out": st.just("out"),
    "--record-steps": _NO_VALUE, "--psd": _NO_VALUE, "--optimized": _NO_VALUE,
}


_SUBPARSERS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUBPARSERS)))
    argv, always, others = [command], [], []
    for action in _SUBPARSERS[command]._actions[1:]:  # [0] is --help
        if not action.option_strings:  # reproduce's figure
            argv.append(draw(st.sampled_from([*action.choices, "fig3"])))
        else:
            flag = action.option_strings[0]
            (always if flag in _SIZES or action.required else others).append(flag)
    if argv[-1] == "fig4":  # fig4 --optimized runs the full default optimizer, about 3 s
        others.remove("--optimized")
    for flag in always + draw(st.lists(st.sampled_from(others), unique=True, max_size=4)):
        value = draw({**_VALUES, **_SIZES}[flag])
        # one value goes as --flag=VALUE, so that argparse reads a value such as -x as one
        argv += [flag, *value] if isinstance(value, tuple) else [f"{flag}={value}"]
    return argv


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
def test_flag_values_exit_0_2_or_3_with_one_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # --out and reproduce's default directory land here
    (tmp_path / "CONFIG").write_text("{}")
    pairs = [f"{a},{b},{7 + 3 * i}" for i, (a, b) in enumerate((a, b) for a in "HVDR" for b in "HVDR")]
    (tmp_path / "COUNTS").write_text("\n".join(["basis_a,basis_b,count", *pairs]) + "\n")
    code = _exit_code(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, code, err)
    if code:
        assert err.count("\n") == 1 and "Traceback" not in err, (argv, err)



def _outcome(capsys, parse, argv) -> tuple:
    """(exit code, stdout, stderr) of a parse of argv that exits: --help, or an argparse error."""
    with pytest.raises(SystemExit) as exited:
        parse(argv)
    return (exited.value.code, *capsys.readouterr())


# one bad choice per subcommand, and the arguments it requires before an unknown flag can be the error
_BAD_CHOICE = {"surface": ["--format", "xml"], "find-ep": ["--format", "xml"], "evolve": ["--engine", "exact"],
               "reproduce": ["fig3"], "disorder": ["--granularity", "per_run"], "tomo": ["--state", "zeta5"],
               "compile-optics": ["--target", "mirror"], "optimize-schedule": ["--format", "yaml"]}
_REQUIRED = {"reproduce": ["fig1b"], "compile-optics": ["--target", "rotation"]}


@pytest.mark.parametrize("command", sorted(_SUBPARSERS))
def test_main_parses_with_the_parser_of_its_command_alone_as_the_full_parser_does(capsys, monkeypatch, command):
    """main builds only the subcommand its argv starts with; help, an unknown flag and a bad choice each print the
    same bytes and exit with the same code as through the full parser, which the flag-value fuzzer reads."""
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda name=None: built.append(name) or build_parser(name))
    cli._parser.cache_clear()
    for tail, code, message in ((["--help"], 0, f"usage: eploop {command} [-h]"),
                                ([*_REQUIRED.get(command, []), "--no-such-flag"], 2,
                                 "config error: unrecognized arguments: --no-such-flag\n"),
                                (_BAD_CHOICE[command], 2, "invalid choice")):
        got = _outcome(capsys, main, [command, *tail])
        assert got == _outcome(capsys, build_parser().parse_args, [command, *tail]), tail
        assert got[0] == code and message in got[1] + got[2], (tail, got)
    alone = next(a for a in cli._parser(command)._actions if isinstance(a, argparse._SubParsersAction))
    assert built == [command] and list(alone.choices) == [command]


@pytest.mark.parametrize("argv, code, message", [
    ([], 2, "the following arguments are required: command"),
    (["--help"], 0, "{surface,find-ep,evolve,reproduce,disorder,tomo,compile-optics,optimize-schedule}"),
    (["nonsense"], 2, "argument command: invalid choice: 'nonsense'"),
])
def test_main_parses_any_other_first_argument_with_the_full_parser(capsys, argv, code, message):
    got = _outcome(capsys, main, argv)
    assert got == _outcome(capsys, build_parser().parse_args, argv)
    assert got[0] == code and message in got[1] + got[2], got
