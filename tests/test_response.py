"""Response-function solver: limits, convergence, prediction assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    t = np.arange(n + 1) * h
    sel = (t > 0.5 / r_hat) & (sol.gamma > 1e-12)
    rate = -np.polyfit(t[sel], np.log(sol.gamma[sel]), 1)[0]
    assert rate == pytest.approx(r_hat, rel=0.05, abs=0.0)


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


def scalar_heun(kernel, h):
    """Reference: one row, a Python loop over steps, the convolution by np.dot."""
    n = len(kernel) - 1
    g = np.empty(n + 1)
    c = np.empty(n + 1)  # c_j = gamma_j * K_j
    g[0] = 1.0
    c[0] = kernel[0]
    d_prev = 0.0
    for i in range(n):
        g_pred = g[i] + h * d_prev
        inner = np.dot(g[i:0:-1], c[1 : i + 1]) if i >= 1 else 0.0
        d_pred = -h * (0.5 * g_pred * (kernel[0] + kernel[i + 1]) + inner)
        g[i + 1] = g[i] + 0.5 * h * (d_prev + d_pred)
        c[i + 1] = g[i + 1] * kernel[i + 1]
        d_prev = -h * (0.5 * g[i + 1] * (kernel[0] + kernel[i + 1]) + inner)
    return g


def test_batched_kernel_matches_scalar_reference():
    # sinusoid: phi2(t') != 0, so both kernel terms are exercised
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.06, period=0.8)
    h, n = 0.01, 300
    t = np.arange(n + 1) * h
    v, vdd = profiles.v_of_t(p, t), profiles.v_second_deriv(p, t)
    phi1, phi2 = protocols.phi_arrays(proto, t)
    assert np.count_nonzero(phi2) > n // 2

    diag = response.gamma_diagonal_values(p, proto, h, n)
    ref = [scalar_heun(phi1[i] * v[: i + 1] - phi2[i] * vdd[: i + 1], h)[-1] for i in range(n + 1)]
    np.testing.assert_allclose(diag, ref, rtol=0.0, atol=1e-14)

    sol = response.solve_gamma(p, proto, 0.37, h, n)
    phi1_p, phi2_p = protocols.phi_arrays(proto, 0.37)
    assert phi2_p > 0
    ref = scalar_heun(phi1_p * v - phi2_p * vdd, h)
    np.testing.assert_allclose(sol.gamma, ref, rtol=0.0, atol=1e-14)


def test_phi2_zero_is_bitwise_first_order_path():
    # phi2 = 0 exactly (the constant protocol) must reproduce the kernel
    # built from phi1 alone, bit for bit
    p = exp_profile()
    t = np.arange(201) * 0.02
    v = profiles.v_of_t(p, t)
    vdd = profiles.v_second_deriv(p, t)
    assert np.array_equal(0.0016 * v - 0.0 * vdd, 0.0016 * v)
    phi1, phi2, ends = np.array([0.0016]), np.array([0.0]), np.array([200])
    g_full = response._volterra_heun(phi1, phi2, v, vdd, 0.02, ends)
    g_first = response._volterra_heun(phi1, phi2, v, np.zeros_like(vdd), 0.02, ends)
    assert np.array_equal(g_full, g_first)


@pytest.mark.parametrize("h", [0.0, -1.0, float("inf"), float("nan")])
def test_bad_step_rejected_by_both_solvers(h):
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.04, period=0.5)
    with pytest.raises(ValueError, match="step size h"):
        response.solve_gamma(p, proto, 0.3, h, 10)
    with pytest.raises(ValueError, match="step size h"):
        response.gamma_diagonal_values(p, proto, h, 10)


@pytest.mark.parametrize("t_primes, ends", [
    ([0.3, 0.3], [-2, 3]),  # a negative end
    ([0.3, 0.3], [5, 3]),  # descending
    ([0.3, 0.3, 0.3], [2, 3]),  # a t' without an end
    ([0.3], [2, 3]),  # an end without a t'
    ([], []),
], ids=["negative", "descending", "extra_t_prime", "extra_end", "empty"])
def test_gamma_rows_rejects_bad_ends_before_solving(monkeypatch, t_primes, ends):
    def no_solve(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(response, "_volterra_heun", no_solve)
    proto = protocols.DrivingProtocol(variant="step", f0=0.04, period=0.5)
    with pytest.raises(ValueError, match="ends"):
        response.gamma_rows(exp_profile(), proto, 0.01, t_primes, ends)


@pytest.mark.parametrize("t_primes, ends", [([0.3], [0]), ([0.0, 0.3], [0, 0])],
                         ids=["one_row", "two_rows"])
def test_gamma_rows_needs_a_step_beyond_zero(t_primes, ends):
    proto = protocols.DrivingProtocol(variant="step", f0=0.04, period=0.5)
    with pytest.raises(ValueError, match="need at least one step beyond t = 0, got n = 0"):
        response.gamma_rows(exp_profile(), proto, 0.01, t_primes, ends)


def test_blowup_raises():
    p = exp_profile(v0=50.0, dv=0.5, d0=512.0)
    proto = protocols.DrivingProtocol(variant="constant", f0=5.0)
    with pytest.raises(SolverBlowUpError):
        response.solve_gamma(p, proto, t_prime=1.0, h=0.5, n=400)


def first_past_threshold(profile, proto, h, rows):
    """Per diagonal row i (t' = i h, run to step i) of the scalar reference, the
    first step at which |gamma| passes BLOWUP_THRESHOLD; rows that never do are left out."""
    t = np.arange(max(rows) + 1) * h
    v, vdd = profiles.v_of_t(profile, t), profiles.v_second_deriv(profile, t)
    phi1, phi2 = protocols.phi_arrays(proto, t)
    first_past = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in rows:
            g = scalar_heun(phi1[i] * v[: i + 1] - phi2[i] * vdd[: i + 1], h)
            past = np.nonzero(np.abs(g) > response.BLOWUP_THRESHOLD)[0]
            if past.size:
                first_past.append(int(past[0]))
    return first_past


# too coarse a step for this drive: of the diagonal rows t' = t_1 .. t_60 on h = 0.1,
# t_11 .. t_15 and no others pass |gamma| = 10, all first at step 11
BLOWUP_PROFILE = exp_profile(v0=5.0)
BLOWUP_DRIVE = protocols.DrivingProtocol(variant="step", f0=0.3, period=3.0)


def test_diagonal_blowup_at_first_step_past_threshold():
    h, n = 0.1, 60
    first = min(first_past_threshold(BLOWUP_PROFILE, BLOWUP_DRIVE, h, range(1, n + 1)))
    assert first == 11
    with pytest.raises(SolverBlowUpError) as info:
        response.gamma_diagonal_values(BLOWUP_PROFILE, BLOWUP_DRIVE, h, n)
    assert info.value.t == first * h
    assert abs(info.value.value) > response.BLOWUP_THRESHOLD


@pytest.mark.parametrize("stride", [4, 13, 10])
def test_named_rows_blow_up_at_their_first_bad_step(stride):
    # strides 4 and 13 name a row among t_11 .. t_15 and raise at its first bad
    # step; stride 10 names none, so its rows are solved although the whole
    # diagonal raises
    h, steps = 0.1, stride * np.arange(60 // stride + 1)
    first_past = first_past_threshold(BLOWUP_PROFILE, BLOWUP_DRIVE, h, steps)
    assert bool(first_past) == (stride != 10)
    if stride == 10:  # its rows reach |gamma| ~ 8: under the threshold, but an overshoot
        with pytest.warns(RuntimeWarning, match="overshoots"):
            response.gamma_rows(BLOWUP_PROFILE, BLOWUP_DRIVE, h, steps * h, steps)
        return
    with pytest.raises(SolverBlowUpError) as info:
        response.gamma_rows(BLOWUP_PROFILE, BLOWUP_DRIVE, h, steps * h, steps)
    assert info.value.t == min(first_past) * h
    assert abs(info.value.value) > response.BLOWUP_THRESHOLD


def test_gamma_diagonal_matches_pointwise_solves():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.06, period=0.5)
    h, n = 0.02, 60
    diag = response.gamma_diagonal_values(p, proto, h, n)
    for i in (1, 17, 42, 60):
        sol = response.solve_gamma(p, proto, t_prime=i * h, h=h, n=i)
        assert diag[i] == sol.gamma[-1]
    assert np.array_equal(response.gamma_diagonal(p, proto, h, n), diag**2)


@settings(max_examples=20, deadline=None)
@given(
    variant=st.sampled_from(["constant", "step", "sinusoid", "linear_ramp", "pseudorandom_b"]),
    f0=st.floats(0.0, 0.08),
    period=st.floats(0.2, 2.0),
    h=st.floats(0.005, 0.05),
    n=st.integers(1, 80),
)
def test_batched_diagonal_is_bitwise_the_per_row_solve(variant, f0, period, h, n):
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant=variant, f0=f0, period=period)
    diag = response.gamma_diagonal_values(p, proto, h, n)
    rows = [response.solve_gamma(p, proto, i * h, h, i).gamma[-1] for i in range(1, n + 1)]
    assert np.array_equal(diag, [1.0, *rows])


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
    a_pred = response.predict_observable(t, ones, undriven, a_th=0.2)
    assert np.allclose(a_pred, undriven)  # gamma^2 = 1: identity response
    a_pred = response.predict_observable(t, np.zeros(11), undriven, a_th=0.2)
    assert np.allclose(a_pred, 0.2)  # fully relaxed
    a_pred = response.predict_observable(t, 0.5 * ones, ones, a_th=0.0)
    assert np.allclose(a_pred, 0.5)  # fidelity setup: a_pred = gamma^2
    assert a_pred[0] == pytest.approx(ones[0] * 0.5)


def test_predict_observable_convexity_and_t0():
    rng = np.random.default_rng(5)
    t = np.linspace(0, 2, 40)
    undriven = 0.3 + 0.7 * np.exp(-t)
    gsq = np.clip(rng.uniform(0, 1, 40), 0, 1)
    gsq[0] = 1.0
    a_th = 0.1
    a_pred = response.predict_observable(t, gsq, undriven, a_th)
    lo = np.minimum(undriven, a_th)
    hi = np.maximum(undriven, a_th)
    assert np.all(a_pred >= lo - 1e-12) and np.all(a_pred <= hi + 1e-12)
    assert a_pred[0] == undriven[0]


def test_predict_observable_grid_mismatch():
    with pytest.raises(GridMismatchError):
        response.predict_observable(np.arange(4.0), np.ones(4), np.ones(5), 0.0)


def test_default_step_resolves_scales():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.1, period=0.3)
    h = response.default_step(p, proto, t_max=2.0)
    phi1, phi2 = protocols.phi_arrays(proto, np.linspace(0.01, 2, 200))
    r_max = float(np.max(approximations.r_scale(p, phi1, phi2)))
    assert h <= 0.3 / 40 + 1e-15
    assert h <= 1.0 / r_max / 40 + 1e-15
