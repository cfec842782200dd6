"""Response-function solver: limits, convergence, prediction assembly."""

import numpy as np
import pytest

from typresp import approximations, profiles, protocols, response
from typresp.errors import GridMismatchError, SolverBlowUpError


def exp_profile(v0=1.0, dv=0.5, d0=512.0):
    return profiles.PerturbationProfile(variant="exponential", v0=v0, delta_v=dv, d0=d0)


def test_zero_kernel_keeps_gamma_one():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="constant", f0=0.0)
    sol = response.solve_gamma(p, proto, t_prime=1.0, h=0.05, n=200)
    assert np.all(sol.gamma == 1.0)
    gd = response.gamma_diagonal(p, proto, h=0.05, n=100)
    assert np.all(gd == 1.0)


def test_initial_value_exact():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.05, period=1.0)
    sol = response.solve_gamma(p, proto, t_prime=0.6, h=0.01, n=50)
    assert sol.gamma[0] == 1.0


def test_weak_constant_decay_rate():
    # weak driving at 0.3x the crossover amplitude decays at pi vtilde(0) f0^2 d0
    p = exp_profile()
    f0 = 0.3 * approximations.crossover_amplitude(p, 1.0 / p.d0)
    proto = protocols.DrivingProtocol(variant="constant", f0=f0)
    r_hat = np.pi * p.v0 * f0**2 * p.d0
    h = 0.02
    n = int(3.0 / r_hat / h)
    sol = response.solve_gamma(p, proto, t_prime=1.0, h=h, n=n)
    sel = (sol.t_grid > 0.5 / r_hat) & (sol.gamma > 1e-12)
    rate = -np.polyfit(sol.t_grid[sel], np.log(sol.gamma[sel]), 1)[0]
    assert rate == pytest.approx(r_hat, rel=0.05)


def test_second_order_convergence():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.05, period=1.0)
    t_end, t_prime = 4.0, 0.6
    ref = response.solve_gamma(p, proto, t_prime, h=0.0025, n=int(t_end / 0.0025))
    errs, hs = [], [0.04, 0.02, 0.01]
    for h in hs:
        sol = response.solve_gamma(p, proto, t_prime, h=h, n=int(t_end / h))
        stride = int(round(h / 0.0025))
        errs.append(np.max(np.abs(sol.gamma - ref.gamma[::stride])))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.7 < slope < 2.3


def test_phi2_zero_is_bitwise_first_order_path():
    # a protocol with phi2 = 0 exactly (constant) must reproduce the kernel
    # built from phi1 alone, bit for bit
    p = exp_profile()
    t = np.arange(201) * 0.02
    v = profiles.v_of_t(p, t)
    vdd = profiles.v_second_deriv(p, t)
    k_full = response._kernel(0.0016, 0.0, v, vdd)
    k_first = 0.0016 * v
    assert np.array_equal(k_full, k_first)
    g_full = response._volterra_heun(k_full, 0.02)
    g_first = response._volterra_heun(k_first, 0.02)
    assert np.array_equal(g_full, g_first)


def test_debug_complex_matches_real():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.06, period=0.8)
    a = response.solve_gamma(p, proto, 0.37, h=0.01, n=300)
    b = response.solve_gamma(p, proto, 0.37, h=0.01, n=300, debug_complex=True)
    assert np.max(np.abs(a.gamma - b.gamma)) < 1e-13


def test_blowup_raises():
    p = exp_profile(v0=50.0, dv=0.5, d0=512.0)
    proto = protocols.DrivingProtocol(variant="constant", f0=5.0)
    with pytest.raises(SolverBlowUpError):
        response.solve_gamma(p, proto, t_prime=1.0, h=0.5, n=400)


def test_gamma_diagonal_matches_pointwise_solves():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.06, period=0.5)
    h, n = 0.02, 60
    diag = response.gamma_diagonal_values(p, proto, h, n)
    for i in (1, 17, 42, 60):
        sol = response.solve_gamma(p, proto, t_prime=i * h, h=h, n=i)
        assert diag[i] == sol.gamma[-1]
    assert np.array_equal(response.gamma_diagonal(p, proto, h, n), diag**2)


def test_gamma_diagonal_progress_and_grid_convergence():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.04, period=0.5)
    coarse = response.gamma_diagonal(p, proto, 0.02, 50)
    fine = response.gamma_diagonal(p, proto, 0.01, 100)
    assert np.max(np.abs(coarse - fine[::2])) < 1e-4  # halving h barely moves gamma^2


def test_fast_driving_keeps_gamma_near_one():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.04, period=0.005)
    gd = response.gamma_diagonal(p, proto, h=0.0025, n=400)  # t up to 1.0
    assert gd.min() > 0.99


def test_predict_observable_cases():
    t = np.linspace(0, 1, 11)
    undriven = np.linspace(1.0, 0.4, 11)
    ones = np.ones(11)
    pred = response.predict_observable(t, ones, undriven, a_th=0.2)
    assert np.allclose(pred.a_pred, undriven)  # gamma^2 = 1: identity response
    pred = response.predict_observable(t, np.zeros(11), undriven, a_th=0.2)
    assert np.allclose(pred.a_pred, 0.2)  # fully relaxed
    pred = response.predict_observable(t, 0.5 * ones, ones, a_th=0.0)
    assert np.allclose(pred.a_pred, 0.5)  # fidelity setup: a_pred = gamma^2
    assert pred.a_pred[0] == pytest.approx(pred.undriven[0] * 0.5)


def test_predict_observable_convexity_and_t0():
    rng = np.random.default_rng(5)
    t = np.linspace(0, 2, 40)
    undriven = 0.3 + 0.7 * np.exp(-t)
    gsq = np.clip(rng.uniform(0, 1, 40), 0, 1)
    gsq[0] = 1.0
    a_th = 0.1
    pred = response.predict_observable(t, gsq, undriven, a_th)
    lo = np.minimum(undriven, a_th)
    hi = np.maximum(undriven, a_th)
    assert np.all(pred.a_pred >= lo - 1e-12) and np.all(pred.a_pred <= hi + 1e-12)
    assert pred.a_pred[0] == undriven[0]


def test_predict_observable_grid_mismatch():
    with pytest.raises(GridMismatchError):
        response.predict_observable(np.arange(4.0), np.ones(4), np.ones(5), 0.0)


def test_default_step_resolves_scales():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.1, period=0.3)
    h = response.default_step(p, proto, t_max=2.0)
    r_max = float(np.max(approximations.r_scale_array(p, proto, np.linspace(0.01, 2, 200))))
    assert h <= 0.3 / 40 + 1e-15
    assert h <= 1.0 / r_max / 40 + 1e-15
