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
        psi0 = ep.bell_eigenstate(j, sched.steps[0])
        t0 = time.perf_counter()
        rep = ep.evolve_full(sched, psi0, record_steps=False)
        worst_wall = max(worst_wall, time.perf_counter() - t0)
        assert rep.classified_output == target, (direction, j)
        f = rep.fidelities[ep.bell_index(target) - 1]
        assert abs(f - center) <= 0.005, (direction, j, f)
    ccw_targets = {1: "zeta1", 2: "zeta1", 3: "zeta4", 4: "zeta4"}
    for j, target in ccw_targets.items():
        sched = ep.loop1_schedule(100, "ccw")
        psi0 = ep.bell_eigenstate(j, sched.steps[0])
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
            rep = ep.evolve_full(sched, ep.bell_eigenstate(j, sched.steps[0]), record_steps=False)
            outputs[direction] = rep.classified_output
        assert outputs["cw"] == outputs["ccw"], (j, outputs)


def test_criterion_07_engines_agree_within_tolerance():
    drift = ep.control_drift(ep.loop1_schedule(100, "cw"))
    assert drift.global_max < 0.05  # endpoint-control deviation stays modest
    worst_gap = 0.0
    for direction in ep.DIRECTIONS:
        sched = ep.loop1_schedule(100, direction)
        for j in range(1, 5):
            psi0 = ep.bell_eigenstate(j, sched.steps[0])
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
            rep = ep.evolve_full(sched, ep.bell_eigenstate(j, sched.steps[0]), record_steps=True)
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
            rep = ep.evolve_full(sched, ep.bell_eigenstate(j, sched.steps[0]), record_steps=False)
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


def test_acceptance_summary_values_documented():
    # Quantities quoted in the README stay in sync with the code.
    loc = ep.find_ep()
    assert loc.theta1 == pytest.approx(-0.2917760531, abs=1e-9)
    drift = ep.control_drift(ep.loop1_schedule(100, "cw"))
    assert drift.global_max == pytest.approx(0.0421, abs=1e-4)
    assert drift.flips == 1
