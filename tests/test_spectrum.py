import math

import numpy as np
import pytest

from eploop.errors import ConfigError, NoBracket, TooCloseToEP
from eploop.spectrum import (
    eigensystem,
    find_ep,
    point_in_polygon,
    quasienergy,
    riemann_surface,
    surface_csv,
)
from eploop.walk import WalkParams, u_step

from test_walk import START, random_params


def test_quasienergy_at_start():
    lp, lm = quasienergy(START)
    assert lp == pytest.approx(-0.38027139475904936, abs=1e-12)
    assert lm == pytest.approx(-lp, abs=1e-12)


def test_quasienergy_principal_branch():
    rng = np.random.default_rng(20)
    for _ in range(200):
        lp, lm = quasienergy(random_params(rng))
        for lam in (lp, lm):
            assert -math.pi < lam.real <= math.pi


def test_eigensystem_eigenvalue_equations():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 100:
        p = random_params(rng)
        try:
            es = eigensystem(p)
        except TooCloseToEP:
            continue
        checked += 1
        u = u_step(p)
        for i in range(4):
            assert np.max(np.abs(u @ es.alpha[i] - es.eta[i] * es.alpha[i])) < 1e-9
            assert np.max(np.abs(u.conj().T @ es.beta[i] - np.conj(es.eta[i]) * es.beta[i])) < 1e-9


def test_eigensystem_biorthonormal():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 100:
        p = random_params(rng)
        try:
            es = eigensystem(p)
        except TooCloseToEP:
            continue
        checked += 1
        g = np.array([[np.vdot(es.beta[i], es.alpha[j]) for j in range(4)] for i in range(4)])
        assert np.max(np.abs(g - np.eye(4))) < 1e-9


def test_eigensystem_eta_pattern():
    es = eigensystem(START)
    assert es.eta == (es.eta_plus, es.eta_minus, es.eta_minus, es.eta_plus)
    assert es.eta_plus * es.eta_minus == pytest.approx(1.0, abs=1e-12)


def test_eigensystem_guards_at_coalescence():
    with pytest.raises(TooCloseToEP):
        eigensystem(WalkParams(theta1=-0.2917760531146608))


def test_riemann_surface_grid_order():
    samples = riemann_surface((-0.1, 0.1, 3), (-0.5, -0.3, 3))
    assert len(samples) == 9
    phis = [s.phi for s in samples]
    assert phis == sorted(phis)  # phi-major
    assert [s.theta1 for s in samples[:3]] == sorted(s.theta1 for s in samples[:3])
    # conjugate-pair structure: the two sheets mirror about zero
    for s in samples:
        assert s.lambda_minus == pytest.approx(-s.lambda_plus, abs=1e-12)


def test_riemann_surface_rejects_degenerate_axis():
    with pytest.raises(ConfigError):
        riemann_surface((-0.1, 0.1, 1), (-0.5, -0.3, 3))


def test_surface_csv_layout():
    text = surface_csv(riemann_surface((-0.1, 0.1, 2), (-0.5, -0.4, 2)))
    lines = text.strip().split("\n")
    assert lines[0] == "phi,theta1,re_lp,im_lp,re_lm,im_lm"
    assert len(lines) == 5
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_find_ep_frozen_location():
    # the EP lies on phi = 0 for every k, since dx != 0 whenever gamma != 0
    for k, theta1 in ((0.0, -0.2917760531146608), (0.01, -0.2893946656793739),
                      (0.02, -0.2817437286771233), (0.03, -0.26655969130919077)):
        loc = find_ep(k=k)
        assert loc.phi == 0.0, k
        assert loc.theta1 == pytest.approx(theta1, abs=1e-9), k
        assert loc.residual <= 1e-15, (k, loc)


def test_find_ep_no_bracket_without_gain():
    # with gain 0 |d0| never crosses 1; beyond |k| = 0.0409 it stays below 1
    for kwargs in ({"gamma": 0.0}, {"k": 0.05}, {"k": 0.1}):
        with pytest.raises(NoBracket):
            find_ep(**kwargs)


def test_point_in_polygon_square():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert point_in_polygon((0.5, 0.5), square)
    assert not point_in_polygon((1.5, 0.5), square)
    assert not point_in_polygon((-0.2, -0.2), square)
