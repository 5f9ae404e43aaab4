"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Criterion 7's fidelity-gap bound is known-red: the simplified
engine agrees with the full engine in classification for all eight cases,
but its per-case fidelity sits up to 0.032 away (the frame rotation
C_0^-1 C_n that the endpoint control drops is O(1) at every step count), so
the 0.01 bound fails and is left failing on purpose rather than weakened.
"""
import filecmp
import hashlib
import json
import os
import time

import numpy as np
import pytest

import eploop as ep
from eploop.cli import main
from eploop.harness import RunConfig, disorder_run, reproduce_figure
from eploop.tomo import probabilities

START = ep.WalkParams(theta1=-0.6)


def random_params(rng):
    return ep.WalkParams(
        theta1=rng.uniform(-1.5, 1.5),
        theta2=rng.uniform(-1.5, 1.5),
        phi=rng.uniform(-1.0, 1.0),
        gamma=rng.uniform(0.0, 0.5),
        k=rng.uniform(-1.0, 1.0),
    )


def test_criterion_01_product_and_closed_operator_agree():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        p = random_params(rng)
        prod = ep.walk_operator_product(p)
        closed = ep.walk_operator_closed(p)
        assert np.max(np.abs(prod - closed)) < 1e-12
        d = ep.d_coefficients(p)
        assert d.d_identity_residual() < 1e-12
        assert d.D_identity_residual() < 1e-12


def test_criterion_02_two_particle_reconstruction():
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 1000:
        p = random_params(rng)
        try:
            c, c_inv = ep.control_operator(p)
        except ep.TooCloseToEP:
            continue
        checked += 1
        lhs = c @ np.kron(np.eye(2), ep.walk_operator_closed(p)) @ c_inv
        assert np.max(np.abs(lhs - ep.u_step(p))) < 1e-8
    reference = np.array(
        [
            [-1j, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0.8071j, 0, 0],
            [0, 0, 1.2389, 0],
        ],
        dtype=complex,
    )
    _, c1_inv = ep.control_operator(START)
    assert np.max(np.abs(c1_inv - reference)) < 1e-3


def test_criterion_03_biorthonormal_eigensystem_and_bell_overlap():
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 200:
        p = random_params(rng)
        try:
            es = ep.eigensystem(p)
        except ep.TooCloseToEP:
            continue
        checked += 1
        g = np.array([[np.vdot(es.beta[i], es.alpha[j]) for j in range(4)] for i in range(4)])
        # holds for |s| >= 1.3e-3, where C_TOL eps/|s|^2 <= 1e-9; these draws have |s| >= 0.27, and
        # test_ep_conditioning checks the gaps from EP_GUARD up to there
        assert np.max(np.abs(g - np.eye(4))) < 1e-9
    for j in range(1, 5):
        v = ep.bell_eigenstate(j, START)
        assert abs(np.vdot(ep.bell_state(j), v)) > 0.97


def test_criterion_04_ep_inside_loop1_outside_loop2():
    loc = ep.find_ep()
    assert loc.residual < 1e-10
    assert loc.theta1 == pytest.approx(-0.29, abs=0.01)
    assert loc.phi == pytest.approx(0.0, abs=1e-9)
    loop1_poly = [(p.phi, p.theta1) for p in ep.loop1_schedule(100, "cw").steps]
    loop2_poly = [(p.phi, p.theta1) for p in ep.loop2_schedule(100, "cw").steps]
    assert ep.point_in_polygon((loc.phi, loc.theta1), loop1_poly)
    assert not ep.point_in_polygon((loc.phi, loc.theta1), loop2_poly)


def test_criterion_05_chirality_table_full_engine():
    bands = {
        ("cw", 1): ("zeta2", 0.983),
        ("cw", 2): ("zeta2", 0.964),
        ("cw", 3): ("zeta3", 0.964),
        ("cw", 4): ("zeta3", 0.983),
    }
    worst_wall = 0.0
    for (direction, j), (target, center) in bands.items():
        sched = ep.loop1_schedule(100, direction)
        psi0 = ep.bell_eigenstate(j, sched.start)
        t0 = time.perf_counter()
        rep = ep.evolve_full(sched, psi0, record_steps=False)
        worst_wall = max(worst_wall, time.perf_counter() - t0)
        assert rep.classified_output == target, (direction, j)
        f = rep.fidelities[ep.bell_index(target) - 1]
        assert abs(f - center) <= 0.005, (direction, j, f)
    ccw_targets = {1: "zeta1", 2: "zeta1", 3: "zeta4", 4: "zeta4"}
    for j, target in ccw_targets.items():
        sched = ep.loop1_schedule(100, "ccw")
        psi0 = ep.bell_eigenstate(j, sched.start)
        t0 = time.perf_counter()
        rep = ep.evolve_full(sched, psi0, record_steps=False)
        worst_wall = max(worst_wall, time.perf_counter() - t0)
        assert rep.classified_output == target, ("ccw", j)
        assert rep.fidelities[ep.bell_index(target) - 1] > 0.95
    assert worst_wall < 0.1, f"slowest case took {worst_wall:.3f}s"


def test_criterion_06_loop2_direction_independent():
    for j in range(1, 5):
        outputs = {}
        for direction in ep.DIRECTIONS:
            sched = ep.loop2_schedule(100, direction)
            rep = ep.evolve_full(sched, ep.bell_eigenstate(j, sched.start), record_steps=False)
            outputs[direction] = rep.classified_output
        assert outputs["cw"] == outputs["ccw"], (j, outputs)


def test_criterion_07_engines_agree_within_tolerance():
    drift = ep.control_drift(ep.loop1_schedule(100, "cw"))
    assert drift.global_max < 0.05  # endpoint-control deviation stays modest
    worst_gap = 0.0
    for direction in ep.DIRECTIONS:
        sched = ep.loop1_schedule(100, direction)
        for j in range(1, 5):
            psi0 = ep.bell_eigenstate(j, sched.start)
            full = ep.evolve_full(sched, psi0, record_steps=False)
            simpl = ep.evolve_simplified(sched, psi0, record_steps=False)
            assert simpl.classified_output == full.classified_output, (direction, j)
            tgt = ep.bell_index(full.classified_output) - 1
            worst_gap = max(worst_gap, abs(full.fidelities[tgt] - simpl.fidelities[tgt]))
    # Known-red: measured gap floor is 0.032; kept failing instead of weakened.
    assert worst_gap < 0.01, f"max full-vs-simplified fidelity gap {worst_gap:.4f}"


def test_criterion_08_sheet_switch_counts():
    zero_switch = {"cw": (1, 4), "ccw": (2, 3)}
    for direction in ep.DIRECTIONS:
        sched = ep.loop1_schedule(100, direction)
        for j in range(1, 5):
            rep = ep.evolve_full(sched, ep.bell_eigenstate(j, sched.start), record_steps=True)
            tr = ep.sheet_trace(rep)
            if j in zero_switch[direction]:
                assert tr.switches == 0, (direction, j, tr.switches)
            else:
                assert tr.switches >= 1, (direction, j, tr.switches)


def test_criterion_09_tomography_round_trip_and_noise_floor():
    rng = np.random.default_rng(109)
    for _ in range(100):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        rec = ep.reconstruct_from_frequencies(probabilities(rho))
        assert np.max(np.abs(rec - rho)) < 1e-10
    outputs = []
    for direction in ep.DIRECTIONS:
        sched = ep.loop1_schedule(100, direction)
        for j in range(1, 5):
            rep = ep.evolve_full(sched, ep.bell_eigenstate(j, sched.start), record_steps=False)
            outputs.append(rep.output_state)
    fids = []
    for seed in range(100):
        psi = outputs[seed % 8]
        cfg = ep.TomoConfig(counts_per_basis=10_000, seed=seed)
        rec = ep.reconstruct(ep.simulate_counts(ep.density_matrix(psi), cfg), cfg)
        fids.append(ep.fidelity_pure(psi, rec))
    assert float(np.median(fids)) > 0.99


def test_criterion_10_optics_compilation():
    p0 = ep.start_params()
    assert ep.compile_rotation(p0.theta1).residual() < 1e-12
    assert ep.compile_phase_shift(0.3).residual() < 1e-12
    assert ep.compile_symmetry_break(0.2).residual() < 1e-12
    assert ep.compile_gain_loss(p0.gamma).residual() < 1e-12
    assert ep.compile_gain_loss_inverse(p0.gamma).residual() < 1e-12
    assert ep.compile_walk_step(p0).residual() < 1e-12
    reference = np.array(
        [
            [1j, 0, 0, 0],
            [0, 0, -1.2389j, 0],
            [0, 0, 0, 0.8071],
            [0, 1, 0, 0],
        ],
        dtype=complex,
    )
    seq = ep.compile_control_endpoint()
    assert np.max(np.abs(seq.realized() - reference)) < 1e-3
    gamma = ep.gamma_from_transmittance(1.0, 0.45)
    assert abs(gamma - 0.1996) <= 1e-4


def test_criterion_11_disorder_robustness():
    summary = disorder_run(RunConfig(engine="simplified"))
    assert summary.unchanged_fraction >= 0.95
    assert summary.max_drop < 0.03, f"max per-case mean fidelity drop {summary.max_drop:.4f}"


def test_criterion_12_byte_identical_reports(tmp_path):
    cfg = RunConfig()
    for fig in ("fig1b", "fig2", "fig4", "fig5"):
        dir_a = tmp_path / f"{fig}_a"
        dir_b = tmp_path / f"{fig}_b"
        paths_a = reproduce_figure(fig, str(dir_a), cfg)
        paths_b = reproduce_figure(fig, str(dir_b), cfg)
        assert [os.path.basename(p) for p in paths_a] == [os.path.basename(p) for p in paths_b]
        for pa, pb in zip(paths_a, paths_b):
            assert filecmp.cmp(pa, pb, shallow=False), os.path.basename(pa)


# sha256 of `eploop reproduce fig4` at the default seed, taken before the bootstrap was stacked
FIG4_DIGESTS = {
    "fig4_ccw_zeta1.json": "845b7afbb7615159128ed9ffe33724feb555e183b681f9072c1cdce747726f6d",
    "fig4_ccw_zeta1_counts.csv": "bb075293cf5bd4aaef5fe7d6d0d854d7e588e7e82183ab541ad5570b3d54f9be",
    "fig4_ccw_zeta2.json": "7cfdd0f2f5ee2604dae32b166346be7693f26c8730f2ea02a17586695cabd604",
    "fig4_ccw_zeta2_counts.csv": "544a9783e60e2c1faa719bc9b221d8624eea0bc0de3af414f8007cf4015a43a4",
    "fig4_ccw_zeta3.json": "37f5778ab49dccc31cc27fef12f50a5e00c8791123715d83a4299d7f7e89dd76",
    "fig4_ccw_zeta3_counts.csv": "f3fbbdc0d9803503f777384eebfb43068fa69de974d25fbd6e3461e0d9f27eb6",
    "fig4_ccw_zeta4.json": "de960b6e741fd21e0d9653c172df6e2e07df481db4248993401ca136164be6e6",
    "fig4_ccw_zeta4_counts.csv": "90360991de3071b64f5c69f184f4cedfa4b8e5a89bfa24f7df0b00a2ff9eabab",
    "fig4_cw_zeta1.json": "9c42784b4b058691f01897381c773dc9cf8e61394820c410e7551bfdda8783fe",
    "fig4_cw_zeta1_counts.csv": "fbbf28849f582cf001dcf7b680003ca3b9e2e6fbe46227c9af518fb632d868a8",
    "fig4_cw_zeta2.json": "01807039e117f182958821f40982db4943b2af9a3431945c20f83b5a3f8e5f8a",
    "fig4_cw_zeta2_counts.csv": "f1afe40e10703dd8d83602233daaad0e15688dc2763d9413799e261f303e1de3",
    "fig4_cw_zeta3.json": "df52a13d897d877f5a03e80197531e0f4e0cdf209e28bc9230f94eb9746a654a",
    "fig4_cw_zeta3_counts.csv": "fb45f6450d93e6efcb0d5cebe9629b71952b838a144498d3267d19730c740dae",
    "fig4_cw_zeta4.json": "78e14d6c8f3597b74d25f6fa2100ea99be68929e42e013b3421aa6780c4b999d",
    "fig4_cw_zeta4_counts.csv": "555650634552d092d7003c0a950a32eb6697965b238f99e188bd6d3faf89a08d",
}


def test_fig4_reports_keep_their_pinned_bytes(tmp_path, capsys):
    assert main(["reproduce", "fig4", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == FIG4_DIGESTS


# sha256 of `eploop reproduce fig5` at the default seed, and of the stdout of `eploop disorder --loop L --n-steps 100
# --seed S --format json`, taken once evolve_batch shared the optimizer's collapsed exit
FIG5_DIGESTS = {
    "fig5_disorder_N8.csv": "285b6db3a3ae3965d58e5d6bb47b85dc5dda02c54057097ab681c04ded2f6251",
    "fig5_disorder_N100.csv": "401a200110e4abf4305b0c45a88916d41a57657293dc9982a26bc5d57482f7a6",
}
DISORDER_DIGESTS = {
    (1, 1000): "98da21e035e721f1a29b2b23ebe83e2d1b00ed71a72a9976e7ed4939b64675bc",
    (1, 1029): "91e4bce9f8d6b626d0bbda1ccb068318bf83152437a0fc79ba11646bd94ab09b",
    (2, 1000): "83f0c0da5bca757ac38911a622dddf0b0f55604d58764ab82e80152e7579aa9e",
    (2, 1029): "2354a9ea10a4c1a8f70243e7c610ee838ed8340400c98275ffaf77583621f812",
}


def test_fig5_reports_keep_their_pinned_bytes(tmp_path, capsys):
    assert main(["reproduce", "fig5", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == FIG5_DIGESTS


@pytest.mark.parametrize("loop, seed", sorted(DISORDER_DIGESTS))
def test_disorder_stdout_keeps_its_pinned_bytes(capsys, loop, seed):
    assert main(["disorder", "--loop", str(loop), "--n-steps", "100", "--seed", str(seed), "--format", "json"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == DISORDER_DIGESTS[loop, seed]


# sha256 of `eploop reproduce fig1b`, taken while riemann_surface made one quasienergy call per grid point
FIG1B_DIGESTS = {
    "fig1b_ep.json": "d796c0470be49f60a424e6f80b1f6df654d3f10b73a50de37819f48bca925ffa",
    "fig1b_surface.csv": "92fd85afca6967920dd256897001ee0450bbe103b050f578d45b9b98133564da",
}


def test_fig1b_reports_keep_their_pinned_bytes(tmp_path, capsys):
    assert main(["reproduce", "fig1b", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == FIG1B_DIGESTS


# sha256 of `eploop reproduce fig2`, default config and {"record_steps": true}, taken while each step
# record was one dataclass
FIG2_DIGESTS = {
    False: {
        "fig2_ccw_zeta1.json": "168ed7fa451eaa59bc5adb7725030954ab3db57cea75fdab9e9d060b235ff70c",
        "fig2_ccw_zeta2.json": "ae2df53df18b6854ccb67044dded0d09fc6ea1d8f6c3363990c73c5ef6d721dd",
        "fig2_ccw_zeta3.json": "058d7fbc6166dad2d21e2871386b4f9e903774e1d890808af03f587a6b44865b",
        "fig2_ccw_zeta4.json": "d90b406d8a2e4c7a4f4e58ab750f321bf3ee97e68ef9fe288e75ee95070e2837",
        "fig2_cw_zeta1.json": "e609f8f7a310e29b946e465507df66e6bc4a43cdbf78148ee3ee163f0c74189c",
        "fig2_cw_zeta2.json": "e8ff727e9f9c320afe16c813bfedd70825f1825187f09aa6dfbfaeb1cdc56c4f",
        "fig2_cw_zeta3.json": "96e6f848251445775ba0c33651c5f3a8240f79ec324a7ea8c21903623143fe26",
        "fig2_cw_zeta4.json": "c259bd711b2fcbcce608a9a9b725ae6fab239e8f6b25322a617dd294d548c8e1",
        "fig2_input_zeta1.json": "f731ba71abd9b32032c764c598bc642b1f105bd2a2db69eb6a2a33eeb53e0728",
        "fig2_input_zeta2.json": "2a52f26505fe65cbfd559b05ad4726534061d96e8c315d851fd17b7849fff7b6",
        "fig2_input_zeta3.json": "9cd0c1bbf486a02a47a18c48fde69f0ad39a9f807f178f2e2452edbada2d7738",
        "fig2_input_zeta4.json": "163190c4efc8d66635633a9536ab564e71ba875916e802d3ff8bb90912551713",
    },
    True: {
        "fig2_ccw_zeta1.json": "8cca1fabfad050dc5b0ce2f72ebf4c9c290442ac9dc18608acada3774c3f095c",
        "fig2_ccw_zeta2.json": "8a154b7a9e67d4bde18f19b0169eb23c1c9ab4f1664b2e64be73318649688164",
        "fig2_ccw_zeta3.json": "3934a87db0a00393a2dd0dfb1551d49f7036286dceeae7176cc2175d30a5fc07",
        "fig2_ccw_zeta4.json": "a6a32a55b2d38c3ccb68e241f324259d9cc86d5cab5a178e64d61cf45e469fea",
        "fig2_cw_zeta1.json": "4d32811951c63a950c8af19761cc6e4a6d91b5cde70edbdc9747f8a9b7db7f77",
        "fig2_cw_zeta2.json": "2790ba4594063443a525651da1e66099cc83578655a999ec019250dbdd6f96c1",
        "fig2_cw_zeta3.json": "9acd1f2ecaf23066d52dead4cdfc04255b548a594f150fb12f07c1de61db908c",
        "fig2_cw_zeta4.json": "d4d6801b16006776024f4d654c396203be705521ce582dff8a6bdafb10bda094",
        "fig2_input_zeta1.json": "f731ba71abd9b32032c764c598bc642b1f105bd2a2db69eb6a2a33eeb53e0728",
        "fig2_input_zeta2.json": "2a52f26505fe65cbfd559b05ad4726534061d96e8c315d851fd17b7849fff7b6",
        "fig2_input_zeta3.json": "9cd0c1bbf486a02a47a18c48fde69f0ad39a9f807f178f2e2452edbada2d7738",
        "fig2_input_zeta4.json": "163190c4efc8d66635633a9536ab564e71ba875916e802d3ff8bb90912551713",
    },
}


@pytest.mark.parametrize("record_steps", [False, True])
def test_fig2_reports_keep_their_pinned_bytes(tmp_path, capsys, record_steps):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"record_steps": record_steps}))
    assert main(["reproduce", "fig2", "--out", str(tmp_path / "out"), "--config", str(config)]) == 0
    capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "out").iterdir()}
    assert digests == FIG2_DIGESTS[record_steps]


# sha256 of the stdout of `eploop evolve --loop L --engine full --n-steps 100 --record-steps
# --input-kind K --format json`, the same before and after the propagation core was stacked
EVOLVE_DIGESTS = {
    (1, "eigenstate"): "8c9bb2a8a2c6e657588bd9d63982b2b947aec4109a3048da8fe7b4cc2e1f8854",
    (1, "bell"): "dc15ff41994a6f790034bcd5cd5419d69fb06df5d889e8c2c6bc0bbfc497fb56",
    (2, "eigenstate"): "8c425492104f460023d3e1bfe9fa9a927de05bebb796a29949a601e97a35f4d8",
    (2, "bell"): "f8ef5ac92b8254b491250ddd67b7d9ddb7fc6958a6e6009b448bb4ed26806409",
}


@pytest.mark.parametrize("loop, input_kind", sorted(EVOLVE_DIGESTS))
def test_recorded_evolve_stdout_keeps_its_pinned_bytes(capsys, loop, input_kind):
    argv = ["evolve", "--loop", str(loop), "--engine", "full", "--n-steps", "100", "--record-steps",
            "--input-kind", input_kind, "--format", "json"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == EVOLVE_DIGESTS[loop, input_kind]


# sha256 of the stdout of the commands no digest above covers, taken before the commands built every text
# first and wrote them through one place; fig1b, fig4 and fig5 already pin the surface, counts and disorder CSVs
STDOUT_DIGESTS = {
    ("evolve", "--loop", "1", "--format", "csv"): "d77c52408873315be03c70acab9d0a1e972bbeb311ccd2ea2818d6471f3cd39e",
    ("evolve", "--loop", "2", "--format", "csv"): "7b4f27d5e9a03c811fc6ec3118eae589a21257740a6bf999eab352c15fe7b685",
    ("find-ep",): "77ac052b2b61664da801d8a1712bf1f352d6b3f016692be81fe149bd2d80000f",
    ("find-ep", "--format", "json"): "d796c0470be49f60a424e6f80b1f6df654d3f10b73a50de37819f48bca925ffa",
    ("optimize-schedule", "--n-steps", "4", "--multistarts", "1", "--maxiter", "30"):
        "892a5d1c5f73574b5ef0282ab215a4ee125c2e8d7b5ffd443fab1c89dd109432",
    ("optimize-schedule", "--n-steps", "4", "--multistarts", "1", "--maxiter", "30", "--format", "json"):
        "f84172d574cfa6f2fba3e85e28bade1faf787b5a5beedc68b14698ab8eb642e5",
    ("surface", "--phi-range", "-0.3", "0.3", "5", "--theta1-range", "-0.5", "-0.1", "7", "--format", "json"):
        "ac9cbbcf4bda62d667be522b184903729d75de9e6a493ed54dcf1efbcc69f76b",
    ("compile-optics", "--target", "walk-step"): "f5b8bcc685c0cb9cfd6ca7fe18018e90e7e3dd8adc50f7f7d04ac5536150cf56",
    ("compile-optics", "--target", "control", "--format", "json"):
        "78f3ce4afdcd51bfe7a2fed6a71b0d5589344792ca92f6324039d530e6318f4a",
    ("tomo", "--state", "zeta2", "--seed", "5", "--resamples", "5"):
        "eb059789f16e52c85b8ee0b9fd2117c6a6c5de92a446f4470a36afedd324ae6c",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_DIGESTS))
def test_command_stdout_keeps_its_pinned_bytes(capsys, argv):
    assert main(list(argv)) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == STDOUT_DIGESTS[argv]


def test_acceptance_summary_values_documented():
    # Quantities quoted in the README stay in sync with the code.
    loc = ep.find_ep()
    assert loc.theta1 == pytest.approx(-0.2917760531, abs=1e-9)
    drift = ep.control_drift(ep.loop1_schedule(100, "cw"))
    assert drift.global_max == pytest.approx(0.0421, abs=1e-4)
    assert drift.flips == 1
