import json

import pytest

from eploop.cli import main


def test_find_ep_json(capsys):
    assert main(["find-ep", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["theta1"] == pytest.approx(-0.2917760531146608, abs=1e-9)
    assert out["residual"] < 1e-10


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
        ["find-ep", "--gamma", "1e3"],
        ["surface", "--gamma", "1e3", "--phi-range", "-0.1", "0.1", "2"],
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
        (None, ["optimize-schedule", "--n-steps", "4", "--multistarts", "0"]),
        (None, ["find-ep", "--scan-points", "-5"]),
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
    ):
        if body is not None:
            cfg.write_text(body)
            argv = argv + ["--config", str(cfg)]
        assert _exit_code(argv) == 2, (body, argv)
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1, err


def test_evolve_merges_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"n_steps": 6, "engine": "simplified", "directions": ["cw"], "inputs": ["zeta3"]}')
    assert main(["evolve", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("zeta3,cw,6,loop1,simplified,")


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


def test_optimize_schedule_quick(capsys):
    code = main(["optimize-schedule", "--n-steps", "4", "--multistarts", "1",
                 "--maxiter", "60"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "step,increment"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 5


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
