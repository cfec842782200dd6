"""Closed-form limits, the Bessel kernel, and the resolvent route."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from typresp import approximations as ap
from typresp import harness, profiles, protocols, response
from typresp.errors import ResolventConvergenceError


def exp_profile(v0=1.0, dv=0.5, d0=512.0):
    return profiles.PerturbationProfile(variant="exponential", v0=v0, delta_v=dv, d0=d0)


# --- Bessel J1 ----------------------------------------------------------------


def j1_series_oracle(x: float) -> float:
    """200-term alternating series in 60-digit arithmetic (brute force)."""
    import mpmath as mp

    with mp.workdps(60 + int(abs(x))):
        xm = mp.mpf(x)
        acc = mp.mpf(0)
        term = xm / 2
        for k in range(200):
            if k:
                term = term * (-(xm * xm) / 4) / (k * (k + 1))
            acc += term
        return float(acc)


def test_j1_against_series_oracle():
    # the 200-term series converges (remainder < 1e-12) for |x| <= ~130, so
    # the oracle comparison stays inside that range
    rng = np.random.default_rng(11)
    xs = np.concatenate(
        [
            rng.uniform(0.0, 12.0, 400),
            rng.uniform(11.0, 16.0, 200),
            rng.uniform(16.0, 120.0, 400),
            [0.0, 12.0, np.nextafter(12.0, 20.0), 3.8317059702075125],
        ]
    )
    for x in xs:
        assert abs(ap.bessel_j1(float(x)) - j1_series_oracle(float(x))) < 1e-10


def test_j1_large_arguments_against_mpmath():
    import mpmath as mp

    rng = np.random.default_rng(12)
    for x in rng.uniform(120.0, 300.0, 100):
        oracle = float(mp.besselj(1, mp.mpf(float(x))))
        assert abs(ap.bessel_j1(float(x)) - oracle) < 1e-10


def test_j1_first_zero():
    root = brentq(ap.bessel_j1, 3.0, 4.5, xtol=1e-13)
    oracle_root = brentq(j1_series_oracle, 3.0, 4.5, xtol=1e-12)
    assert root == pytest.approx(oracle_root, abs=1e-10)
    assert root == pytest.approx(3.8317059702075125, abs=1e-9)


def test_strong_driving_gamma_limits():
    assert ap.strong_driving_gamma(2.0, 0.0) == 1.0
    assert ap.strong_driving_gamma(0.0, 5.0) == 1.0
    x = np.linspace(0, 2, 50)
    series = 1 - (3.0 * x) ** 2 / 8 + (3.0 * x) ** 4 / 192
    vals = ap.strong_driving_gamma(3.0, x)
    assert np.max(np.abs(vals[x * 3 < 0.5] - series[x * 3 < 0.5])) < 1e-4
    # first zero of gamma sits at the first zero of J1
    t_zero = brentq(lambda t: ap.strong_driving_gamma(3.0, t), 1.0, 1.4)
    assert t_zero * 3.0 == pytest.approx(3.8317059702, abs=1e-8)


def test_strong_driving_envelope_exponent():
    # |gamma| maxima decay like (r t)^(-3/2) at large argument
    x = np.linspace(20, 200, 200_001)
    vals = np.abs(ap.strong_driving_gamma(1.0, x))
    peaks = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
    xp, vp = x[1:-1][peaks], vals[1:-1][peaks]
    slope = np.polyfit(np.log(xp), np.log(vp), 1)[0]
    assert slope == pytest.approx(-1.5, abs=0.05)


# --- strong-driving scale ------------------------------------------------------


def test_r_scale_zero_without_driving():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="constant", f0=0.0)
    assert ap.r_scale_array(p, proto, 1.0)[0] == 0.0


def test_r_scale_step_half_period():
    p = exp_profile()
    f0, T = 0.08, 0.6
    proto = protocols.DrivingProtocol(variant="step", f0=f0, period=T)
    r = float(ap.r_scale_array(p, proto, T / 2)[0])
    assert r == pytest.approx(f0 * np.sqrt(8 * p.v0 * p.d0 * p.delta_v), rel=1e-12)
    assert r / profiles.moment(p, 0) == pytest.approx(r / (2 * p.delta_v), rel=1e-12)


def test_r_scale_larger_in_first_period():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.05, period=0.5)
    t = np.linspace(1e-3, 5.0, 2000)
    r = ap.r_scale_array(p, proto, t)
    first = np.max(r[t <= 0.5])
    later = np.max(r[t > 2.5])
    assert first > 2 * later


def test_r_scale_validity_flag():
    p = exp_profile()
    strong = protocols.DrivingProtocol(variant="constant", f0=0.2)
    weak = protocols.DrivingProtocol(variant="constant", f0=0.01)
    s0 = profiles.moment(p, 0)
    assert ap.r_scale_array(p, strong, 1.0)[0] / s0 > ap.VALID_MARGIN
    assert not ap.r_scale_array(p, weak, 1.0)[0] / s0 > ap.VALID_MARGIN


# --- fast driving ----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    v0=st.floats(0.1, 4.0),
    dv=st.floats(0.1, 2.0),
    d0=st.floats(10.0, 1000.0),
    f0=st.floats(0.0, 0.3),
    tp=st.floats(0.0, 5.0),
)
def test_fast_rates_sum_rule(v0, dv, d0, f0, tp):
    p = exp_profile(v0, dv, d0)
    proto = protocols.DrivingProtocol(variant="step", f0=f0, period=0.7)
    rates = ap.fast_rates(p, proto, tp)
    assert rates.r_plus1 + rates.r_minus1 == pytest.approx(2 * rates.r_0, rel=1e-13)
    assert rates.r_0 == pytest.approx(profiles.moment(p, 0) / np.pi, rel=1e-13)
    # hf gamma equals 1 at t = 0 for any parameters
    assert ap.fast_driving_gamma(p, proto, 0.0, tp) == pytest.approx(1.0, abs=1e-10)


def test_fast_gamma_one_at_whole_periods():
    p = exp_profile()
    for variant in ("step", "sinusoid"):
        proto = protocols.DrivingProtocol(variant=variant, f0=0.08, period=0.5)
        for n in (1, 2, 5):
            t = np.linspace(0, 3, 31)
            vals = ap.fast_driving_gamma(p, proto, t, n * 0.5)
            assert np.max(np.abs(vals - 1.0)) < 1e-10


def test_fast_gamma_weak_amplitude_limit():
    p = exp_profile()
    f0 = 0.0015  # 2 pi r_hat / Sigma_0 ~ 0.023
    proto = protocols.DrivingProtocol(variant="constant", f0=f0)
    r_hat = np.pi * p.v0 * f0**2 * p.d0
    assert 2 * np.pi * r_hat / profiles.moment(p, 0) < 0.03
    t = np.linspace(0, 3 / r_hat, 400)
    hf = ap.fast_driving_gamma(p, proto, t, 1.0)
    weak = ap.weak_fast_gamma(p, proto, t, 1.0)
    assert np.max(np.abs(hf / weak - 1.0)) < 0.02


def test_weak_fast_gamma_properties():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.05, period=0.5)
    assert ap.weak_fast_gamma(p, proto, 0.0, 0.3) == 1.0
    assert ap.weak_fast_gamma(p, proto, 5.0, 0.5) == pytest.approx(1.0, abs=1e-10)
    # doubling f0 quadruples the decay rate
    p1 = protocols.DrivingProtocol(variant="constant", f0=0.01)
    p2 = protocols.DrivingProtocol(variant="constant", f0=0.02)
    g1 = ap.weak_fast_gamma(p, p1, 1.0, 1.0)
    g2 = ap.weak_fast_gamma(p, p2, 1.0, 1.0)
    assert np.log(g2) == pytest.approx(4 * np.log(g1), rel=1e-10)


def test_fast_gamma_degenerate_branch_continuous():
    p = exp_profile()
    s0 = profiles.moment(p, 0)
    # choose f0 so the discriminant sits just outside the series window, then
    # just inside; the two evaluations must agree to ~1e-8
    for sign in (+1.0, -1.0):
        disc_out = sign * 3e-5
        disc_in = sign * 3e-6
        t = np.linspace(0.0, 3.0, 7)
        vals = []
        for disc in (disc_out, disc_in):
            f0 = np.sqrt((1.0 - disc) * s0 / (2 * np.pi) / (np.pi * p.v0 * p.d0))
            proto = protocols.DrivingProtocol(variant="constant", f0=f0)
            vals.append(ap.fast_driving_gamma(p, proto, t, 1.0))
        assert np.max(np.abs(vals[0] - vals[1])) < 1e-5  # smooth in the parameter


def test_fast_gamma_complex_regime_real():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="constant", f0=0.05)  # 2 pi r_hat > Sigma_0
    rates = ap.fast_rates(p, proto, 1.0)
    assert abs(rates.r_plus1.imag) > 0
    vals = ap.fast_driving_gamma(p, proto, np.linspace(0, 2, 20), 1.0)
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(1.0, abs=1e-10)


# --- resolvent route ------------------------------------------------------------


def grid_for(r, s0, points=2400):
    span = 5.0 * max(r, s0)
    return np.linspace(-span, span, points)


def test_resolvent_free_case():
    p = exp_profile()
    e = grid_for(0.0, 1.0)
    eta = ap.default_eta(e)
    rg = ap.resolvent_solve(p, 0.0, 0.0, e, eta)
    assert np.allclose(rg.g, 1.0 / (e - 1j * eta), atol=1e-12)


def test_resolvent_matches_closed_form_strong_regime():
    p = exp_profile()
    f0 = 0.4  # margin r / Sigma_0 = 18
    phi1 = f0**2
    r = np.sqrt(4 * p.v0 * p.d0 * profiles.moment(p, 0) * phi1)
    e = grid_for(r, 1.0, 3600)
    eta = ap.default_eta(e)
    rg = ap.resolvent_solve(p, phi1, 0.0, e, eta)
    sel = np.abs(e) <= r
    closed = ap.resolvent_closed_form(r, e[sel] - 1j * eta)
    assert np.max(np.abs(rg.g[sel] - closed)) < 1e-2
    # spectral function is a semicircle of radius r (away from the eta-smeared edge)
    inner = np.abs(e) <= 0.9 * r
    u = rg.spectral_function()[inner]
    semi = (2 / (np.pi * r**2)) * np.sqrt(r**2 - e[inner] ** 2)
    assert np.max(np.abs(u - semi)) < 2.5e-3


def test_resolvent_spectral_weight_normalized():
    p = exp_profile()
    for phi1, phi2 in ((0.0016, 0.0), (0.0016, 0.0016), (0.01, 0.002)):
        r = np.sqrt(
            4 * p.v0 * p.d0 * (profiles.moment(p, 0) * phi1 + profiles.moment(p, 2) * phi2)
        )
        e = grid_for(r, 1.0)
        rg = ap.resolvent_solve(p, phi1, phi2, e, ap.default_eta(e))
        weight = np.trapezoid(rg.spectral_function(), e)
        assert weight == pytest.approx(1.0, abs=2e-2)
        assert np.all(rg.g.imag > 0)


def test_resolvent_grid_validation():
    p = exp_profile()
    with pytest.raises(ValueError):
        ap.resolvent_solve(p, 0.1, 0.0, np.linspace(-1, 1, 100), 0.01)  # span too small
    with pytest.raises(ValueError):
        e = np.concatenate([np.linspace(-30, 0, 100), np.linspace(0.1, 30, 50)])
        ap.resolvent_solve(p, 0.001, 0.0, e, 0.01)  # non-uniform


def test_gamma_from_resolvent_normalization_and_warning():
    # the off-grid Lorentzian tails cost 2 eta / (pi span); 6000 points keep
    # that under the stated 1e-3 reconstruction tolerance
    p = exp_profile()
    r = np.sqrt(4 * p.v0 * p.d0 * profiles.moment(p, 0) * 0.0016)
    e = grid_for(r, 1.0, 6000)
    eta = ap.default_eta(e)
    rg = ap.resolvent_solve(p, 0.0016, 0.0, e, eta)
    assert ap.gamma_from_resolvent(rg, 0.0) == pytest.approx(1.0, abs=1e-3)
    with pytest.warns(RuntimeWarning):
        ap.gamma_from_resolvent(rg, 1.0 / eta)


def test_semicircle_fourier_is_bessel():
    # closed-form resolvent -> spectral function -> Fourier equals 2 J1(rt)/(rt)
    r = 3.0
    e = np.linspace(-15, 15, 6001)
    eta = ap.default_eta(e)
    rg = ap.ResolventGrid(e_grid=e, eta=eta, g=ap.resolvent_closed_form(r, e - 1j * eta))
    t = np.linspace(0, 2.0, 81)
    recon = ap.gamma_from_resolvent(rg, t)
    bessel = ap.strong_driving_gamma(r, t)
    assert np.max(np.abs(recon - bessel)) < 1e-2


def test_dual_route_matches_time_domain():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.05, period=1.0)
    phi1, phi2 = (float(x[0]) for x in protocols.phi_arrays(proto, 0.6))
    r = float(ap.r_scale_array(p, proto, 0.6)[0])
    e = grid_for(r, profiles.moment(p, 0))
    eta = ap.default_eta(e)
    rg = ap.resolvent_solve(p, phi1, phi2, e, eta)
    t_max = min(2.5, 0.5 / eta)
    h = 0.01
    sol = response.solve_gamma(p, proto, 0.6, h, int(t_max / h))
    recon = ap.gamma_from_resolvent(rg, sol.t_grid)
    assert np.max(np.abs(recon - sol.gamma)) < 2e-2


def test_resolvent_nonconvergence_reported():
    p = exp_profile()
    r = np.sqrt(4 * p.v0 * p.d0 * profiles.moment(p, 0) * 0.0016)
    e = grid_for(r, 1.0, 600)
    with pytest.raises(ResolventConvergenceError):
        ap.resolvent_solve(p, 0.0016, 0.0, e, ap.default_eta(e), max_iter=2)


# --- crossover --------------------------------------------------------------------


def test_crossover_amplitude_formula():
    p = exp_profile(v0=1.0, dv=0.5)
    eps = 2.0**-9
    val = ap.crossover_amplitude(p, eps)
    assert val == pytest.approx(np.sqrt(2 * eps * 0.5 / np.pi**2), rel=1e-12)
    assert ap.crossover_amplitude(p, 0.0) == 0.0
    assert ap.crossover_amplitude(exp_profile(v0=4.0, dv=0.5), eps) == pytest.approx(
        val / 2, rel=1e-12
    )
    tab = profiles.PerturbationProfile(
        variant="tabulated",
        d0=512.0,
        energies=np.linspace(0, 5, 100),
        values=np.exp(-np.linspace(0, 5, 100)),
    )
    with pytest.raises(ValueError):
        ap.crossover_amplitude(tab, eps)


# --- vectorised diagonal columns ---------------------------------------------------


def pointwise_columns(p, proto, t):
    """The closed-form columns on t' = t by one scalar call per point."""
    r = ap.r_scale_array(p, proto, t)
    return {
        "gamma_bessel": [ap.strong_driving_gamma(float(r[i]), float(t[i])) for i in range(len(t))],
        "gamma_hf": [ap.fast_driving_gamma(p, proto, float(x), float(x)) for x in t],
        "gamma_weak": [ap.weak_fast_gamma(p, proto, float(x), float(x)) for x in t],
    }


def degenerate_f0(p, disc):
    """Constant-drive amplitude whose phi1 = f0^2 gives 1 - 2 pi r_hat/Sigma_0 = disc."""
    return np.sqrt((1.0 - disc) * profiles.moment(p, 0) / (2 * np.pi) / (np.pi * p.v0 * p.d0))


@pytest.mark.parametrize("case", ["pretherm", "degenerate_cut"])
def test_vectorised_columns_match_pointwise_calls(case):
    if case == "pretherm":
        # the double_pretherm drive and output grid (d0 near its measured value)
        p = exp_profile(d0=32.0)
        proto = protocols.DrivingProtocol(variant="step", f0=0.12, period=2.0)
        t = np.linspace(0.0, 160.0, 1601)
    else:
        # phi1 = f0^2 for t' <= T/2 puts those points inside the series window
        # of the degenerate point; later points take the closed form
        p = exp_profile()
        proto = protocols.DrivingProtocol(variant="step", f0=degenerate_f0(p, 3e-6), period=1.0)
        t = np.linspace(0.0, 2.0, 201)
        rates = ap.fast_rates(p, proto, t)
        disc = np.abs(1.0 - 2.0 * rates.r_hat / rates.r_0)
        assert np.any(disc < ap._DEGENERATE_CUT) and np.any(disc >= ap._DEGENERATE_CUT)
    cols = harness._approx_columns(p, proto, t)
    for name, ref in pointwise_columns(p, proto, t).items():
        np.testing.assert_allclose(cols[name], ref, rtol=1e-12, atol=0.0, err_msg=name)


def test_scalar_arguments_return_floats():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.05, period=0.5)
    for val in (
        ap.strong_driving_gamma(2.0, 0.7),
        ap.fast_driving_gamma(p, proto, 0.7, 0.3),
        ap.weak_fast_gamma(p, proto, 0.7, 0.3),
    ):
        assert type(val) is float
    rates = ap.fast_rates(p, proto, 0.3)
    assert type(rates.r_hat) is float and type(rates.r_plus1) is complex
    # array t' broadcasts against a scalar t and against an equal-length t
    tp = np.array([0.1, 0.3, 0.9])
    assert ap.fast_driving_gamma(p, proto, 0.7, tp).shape == (3,)
    assert ap.weak_fast_gamma(p, proto, tp, tp).shape == (3,)
    assert ap.strong_driving_gamma(np.array([1.0, 2.0]), 0.5).shape == (2,)
    assert ap.fast_rates(p, proto, tp).r_plus1[1] == rates.r_plus1
