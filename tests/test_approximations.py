"""Closed-form limits, the Bessel kernel, and the resolvent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import resolvent_oracle as ro
from typresp import approximations as ap
from typresp import harness, profiles, protocols


def exp_profile(v0=1.0, dv=0.5, d0=512.0):
    return profiles.PerturbationProfile(variant="exponential", v0=v0, delta_v=dv, d0=d0)


def r_of(p, proto, t):
    """r(t') of a protocol: its phi evaluated once, then r_scale."""
    return ap.r_scale(p, *protocols.phi_arrays(proto, t))


def phi1_of(proto, t):
    return protocols.phi_arrays(proto, t)[0]


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


def gamma_series_oracle(x: float) -> float:
    """2 J1(x)/x from the series oracle, with its limit 1 at x = 0."""
    return 1.0 if x == 0.0 else 2.0 * j1_series_oracle(x) / x


# strong_driving_gamma(1, x) is 2 J1(x)/x: the J1 checks below run through it


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
        assert abs(ap.strong_driving_gamma(1.0, float(x)) - gamma_series_oracle(float(x))) < 1e-10


def test_j1_large_arguments_against_mpmath():
    import mpmath as mp

    rng = np.random.default_rng(12)
    for x in rng.uniform(120.0, 300.0, 100):
        oracle = float(2 * mp.besselj(1, mp.mpf(float(x))) / float(x))
        assert abs(ap.strong_driving_gamma(1.0, float(x)) - oracle) < 1e-10


def test_j1_first_zero():
    root = brentq(lambda x: ap.strong_driving_gamma(1.0, x), 3.0, 4.5, xtol=1e-13)
    oracle_root = brentq(j1_series_oracle, 3.0, 4.5, xtol=1e-12)
    assert root == pytest.approx(oracle_root, abs=1e-10)
    assert root == pytest.approx(3.8317059702075125, abs=1e-9)


def test_strong_driving_gamma_against_40_digit_mpmath():
    # J0 + J2 needs no branch at x = 0; scipy's j0 would miss by 1.3e-15 near x = 257
    import mpmath as mp

    x = np.concatenate([np.linspace(0.0, 300.0, 12_001), np.logspace(-12, 0, 25)])
    with mp.workdps(40):
        ref = [1.0 if v == 0 else float(2 * mp.besselj(1, mp.mpf(v)) / mp.mpf(v)) for v in x]
    assert np.max(np.abs(ap.strong_driving_gamma(1.0, x) - ref)) <= 1e-15


def test_strong_driving_gamma_limits():
    assert ap.strong_driving_gamma(2.0, 0.0) == 1.0
    assert ap.strong_driving_gamma(0.0, 5.0) == 1.0
    for r in (0.0, 2.0):
        with pytest.raises(ValueError, match="time"):
            ap.strong_driving_gamma(r, -1.0)
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
    assert r_of(p, proto, 1.0) == 0.0


def test_r_scale_step_half_period():
    p = exp_profile()
    f0, T = 0.08, 0.6
    proto = protocols.DrivingProtocol(variant="step", f0=f0, period=T)
    r = float(r_of(p, proto, T / 2))
    assert r == pytest.approx(f0 * np.sqrt(8 * p.v0 * p.d0 * p.delta_v), rel=1e-12, abs=0.0)
    assert r / profiles.moment(p, 0) == pytest.approx(r / (2 * p.delta_v), rel=1e-12, abs=0.0)


def test_r_scale_larger_in_first_period():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.05, period=0.5)
    t = np.linspace(1e-3, 5.0, 2000)
    r = r_of(p, proto, t)
    first = np.max(r[t <= 0.5])
    later = np.max(r[t > 2.5])
    assert first > 2 * later


def test_r_scale_validity_flag():
    p = exp_profile()
    strong = protocols.DrivingProtocol(variant="constant", f0=0.2)
    weak = protocols.DrivingProtocol(variant="constant", f0=0.01)
    s0 = profiles.moment(p, 0)
    assert r_of(p, strong, 1.0) / s0 > ap.VALID_MARGIN
    assert not r_of(p, weak, 1.0) / s0 > ap.VALID_MARGIN


# --- fast driving ----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    v0=st.floats(0.1, 4.0),
    dv=st.floats(0.1, 2.0),
    d0=st.floats(10.0, 1000.0),
    f0=st.floats(0.0, 0.3),
    tp=st.floats(0.0, 5.0),
)
def test_fast_gamma_one_at_zero(v0, dv, d0, f0, tp):
    p = exp_profile(v0, dv, d0)
    proto = protocols.DrivingProtocol(variant="step", f0=f0, period=0.7)
    # hf gamma equals 1 at t = 0 for any parameters
    assert ap.fast_driving_gamma(p, phi1_of(proto, tp), 0.0) == pytest.approx(1.0, abs=1e-10)


def fast_gamma_mpmath(p, phi1: float, t: float) -> float:
    """[e^{-y} (cosh(s y) + sinh(s y)/s)]^2 in 50 digits, s^2 from the float phi1."""
    import mpmath as mp

    with mp.workdps(50):
        s0 = mp.mpf(profiles.moment(p, 0))
        s2 = 1 - 2 * mp.pi**2 * mp.mpf(p.v0) * mp.mpf(phi1) * mp.mpf(p.d0) / s0
        y = s0 * mp.mpf(t) / (2 * mp.pi)
        if s2 == 0:
            return float((mp.exp(-y) * (1 + y)) ** 2)
        s = mp.sqrt(mp.mpc(s2))
        return float(mp.re(mp.exp(-y) * (mp.cosh(s * y) + mp.sinh(s * y) / s)) ** 2)


S_SQUARED = (1.0, 1.0 - 1e-6, 0.999, 0.5, 1e-2, 3e-5, -3e-5, 1e-5, -1e-5, 3e-6, -3e-6, 1e-8,
             -1e-8, 0.0, -1.0, -50.0)


@pytest.mark.parametrize("s2", S_SQUARED)
def test_fast_gamma_against_mpmath(s2):
    # one expression on both sides of the degenerate point s = 0, and for
    # large r0 t where the separate exponentials over- or underflow; at
    # s^2 = 1 - 1e-6 gamma decays on r0 t ~ 1e7, where 1 - s formed as the
    # difference of 1 and s would keep only ~10 of its digits
    p = exp_profile()
    s0 = profiles.moment(p, 0)
    phi1 = (1.0 - s2) * s0 / (2 * np.pi**2 * p.v0 * p.d0)
    r0t = np.concatenate([np.linspace(0.0, 60.0, 121), np.geomspace(61.0, 4e7, 60)])
    t = r0t / (s0 / np.pi)
    vals = ap.fast_driving_gamma(p, phi1, t)
    assert np.all(np.isfinite(vals))
    err = np.abs(vals - [fast_gamma_mpmath(p, phi1, float(x)) for x in t])
    assert np.max(err[r0t <= 60.0]) <= 1e-14
    assert np.max(err) <= 1e-13


def test_fast_gamma_one_at_whole_periods():
    p = exp_profile()
    for variant in ("step", "sinusoid"):
        proto = protocols.DrivingProtocol(variant=variant, f0=0.08, period=0.5)
        for n in (1, 2, 5):
            t = np.linspace(0, 3, 31)
            vals = ap.fast_driving_gamma(p, phi1_of(proto, n * 0.5), t)
            assert np.max(np.abs(vals - 1.0)) < 1e-10


def test_fast_gamma_weak_amplitude_limit():
    p = exp_profile()
    f0 = 0.0015  # 2 pi r_hat / Sigma_0 ~ 0.023
    proto = protocols.DrivingProtocol(variant="constant", f0=f0)
    r_hat = np.pi * p.v0 * f0**2 * p.d0
    assert 2 * np.pi * r_hat / profiles.moment(p, 0) < 0.03
    t = np.linspace(0, 3 / r_hat, 400)
    hf = ap.fast_driving_gamma(p, phi1_of(proto, 1.0), t)
    weak = ap.weak_fast_gamma(p, phi1_of(proto, 1.0), t)
    assert np.max(np.abs(hf / weak - 1.0)) < 0.02


def test_weak_fast_gamma_properties():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.05, period=0.5)
    assert ap.weak_fast_gamma(p, phi1_of(proto, 0.3), 0.0) == 1.0
    assert ap.weak_fast_gamma(p, phi1_of(proto, 0.5), 5.0) == pytest.approx(1.0, abs=1e-10)
    # doubling f0 quadruples the decay rate
    p1 = protocols.DrivingProtocol(variant="constant", f0=0.01)
    p2 = protocols.DrivingProtocol(variant="constant", f0=0.02)
    g1 = ap.weak_fast_gamma(p, phi1_of(p1, 1.0), 1.0)
    g2 = ap.weak_fast_gamma(p, phi1_of(p2, 1.0), 1.0)
    assert np.log(g2) == pytest.approx(4 * np.log(g1), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("form", [ap.fast_driving_gamma, ap.weak_fast_gamma])
@pytest.mark.parametrize("phi1", [0.0, 0.0016])
def test_fast_forms_reject_negative_time(form, phi1):
    # checked on t itself: with phi1 = 0 the rate is 0 and hides the sign
    with pytest.raises(ValueError, match="time"):
        form(exp_profile(), phi1, -1.0)
    with pytest.raises(ValueError, match="time"):
        form(exp_profile(), phi1, [0.5, -1e-12])


def test_fast_gamma_degenerate_branch_continuous():
    p = exp_profile()
    s0 = profiles.moment(p, 0)
    # choose f0 so s^2 = 1 - 2 pi r_hat / Sigma_0 sits at +-3e-5, then at
    # +-3e-6, near the degenerate point s = 0: the values are smooth in it
    for sign in (+1.0, -1.0):
        disc_out = sign * 3e-5
        disc_in = sign * 3e-6
        t = np.linspace(0.0, 3.0, 7)
        vals = []
        for disc in (disc_out, disc_in):
            f0 = np.sqrt((1.0 - disc) * s0 / (2 * np.pi) / (np.pi * p.v0 * p.d0))
            proto = protocols.DrivingProtocol(variant="constant", f0=f0)
            vals.append(ap.fast_driving_gamma(p, phi1_of(proto, 1.0), t))
        assert np.max(np.abs(vals[0] - vals[1])) < 1e-5  # smooth in the parameter


def test_fast_gamma_complex_regime_real():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="constant", f0=0.05)
    phi1 = float(phi1_of(proto, 1.0))
    assert 2 * np.pi * (np.pi * p.v0 * phi1 * p.d0) > profiles.moment(p, 0)  # s^2 < 0
    vals = ap.fast_driving_gamma(p, phi1, np.linspace(0, 2, 20))
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(1.0, abs=1e-10)


# --- resolvent oracle -----------------------------------------------------------


def grid_for(r, s0, points=2400):
    span = 5.0 * max(r, s0)
    return np.linspace(-span, span, points)


def test_resolvent_free_case():
    p = exp_profile()
    e = grid_for(0.0, 1.0)
    eta = ro.default_eta(e)
    rg = ro.resolvent_solve(p, 0.0, 0.0, e, eta)
    assert np.allclose(rg.g, 1.0 / (e - 1j * eta), atol=1e-12)


def test_resolvent_matches_closed_form_strong_regime():
    p = exp_profile()
    f0 = 0.4  # margin r / Sigma_0 = 18
    phi1 = f0**2
    r = np.sqrt(4 * p.v0 * p.d0 * profiles.moment(p, 0) * phi1)
    e = grid_for(r, 1.0, 3600)
    eta = ro.default_eta(e)
    rg = ro.resolvent_solve(p, phi1, 0.0, e, eta)
    sel = np.abs(e) <= r
    closed = ro.resolvent_closed_form(r, e[sel] - 1j * eta)
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
        rg = ro.resolvent_solve(p, phi1, phi2, e, ro.default_eta(e))
        weight = np.trapezoid(rg.spectral_function(), e)
        assert weight == pytest.approx(1.0, abs=2e-2)
        assert np.all(rg.g.imag > 0)


def test_resolvent_grid_validation():
    p = exp_profile()
    with pytest.raises(ValueError):
        ro.resolvent_solve(p, 0.1, 0.0, np.linspace(-1, 1, 100), 0.01)  # span too small
    with pytest.raises(ValueError):
        e = np.concatenate([np.linspace(-30, 0, 100), np.linspace(0.1, 30, 50)])
        ro.resolvent_solve(p, 0.001, 0.0, e, 0.01)  # non-uniform


def test_gamma_from_resolvent_normalization_and_warning():
    # the off-grid Lorentzian tails cost 2 eta / (pi span); 6000 points keep
    # that under the stated 1e-3 reconstruction tolerance
    p = exp_profile()
    r = np.sqrt(4 * p.v0 * p.d0 * profiles.moment(p, 0) * 0.0016)
    e = grid_for(r, 1.0, 6000)
    eta = ro.default_eta(e)
    rg = ro.resolvent_solve(p, 0.0016, 0.0, e, eta)
    assert ro.gamma_from_resolvent(rg, 0.0) == pytest.approx(1.0, abs=1e-3)
    with pytest.warns(RuntimeWarning):
        ro.gamma_from_resolvent(rg, 1.0 / eta)


def test_resolvent_nonconvergence_reported():
    p = exp_profile()
    r = np.sqrt(4 * p.v0 * p.d0 * profiles.moment(p, 0) * 0.0016)
    e = grid_for(r, 1.0, 600)
    with pytest.raises(ro.ResolventConvergenceError):
        ro.resolvent_solve(p, 0.0016, 0.0, e, ro.default_eta(e), max_iter=2)


# --- crossover --------------------------------------------------------------------


def test_crossover_amplitude_formula():
    p = exp_profile(v0=1.0, dv=0.5)
    eps = 2.0**-9
    val = ap.crossover_amplitude(p, eps)
    assert val == pytest.approx(np.sqrt(2 * eps * 0.5 / np.pi**2), rel=1e-12, abs=0.0)
    assert ap.crossover_amplitude(p, 0.0) == 0.0
    assert ap.crossover_amplitude(exp_profile(v0=4.0, dv=0.5), eps) == pytest.approx(
        val / 2, rel=1e-12, abs=0.0
    )
    tab = profiles.PerturbationProfile(
        variant="tabulated",
        d0=512.0,
        energies=np.linspace(0, 5, 100),
        values=np.exp(-np.linspace(0, 5, 100)),
    )
    with pytest.raises(ValueError):
        ap.crossover_amplitude(tab, eps)


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: ap.strong_driving_gamma(-0.1, 1.0), "scale r must be >= 0", id="r"),
    pytest.param(lambda: ap.strong_driving_gamma([0.2, -1e-300], 1.0), "scale r must be >= 0",
                 id="r_array"),
    pytest.param(lambda: ap.crossover_amplitude(exp_profile(), -2.0**-9),
                 "level spacing must be >= 0", id="spacing"),
])
def test_approximation_guards_name_their_rule(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# --- vectorised diagonal columns ---------------------------------------------------


def pointwise_columns(p, proto, t):
    """The closed-form columns on t' = t by one scalar call per point."""
    r = r_of(p, proto, t)
    return {
        "gamma_bessel": [ap.strong_driving_gamma(float(r[i]), float(t[i])) for i in range(len(t))],
        "gamma_hf": [ap.fast_driving_gamma(p, phi1_of(proto, float(x)), float(x)) for x in t],
        "gamma_weak": [ap.weak_fast_gamma(p, phi1_of(proto, float(x)), float(x)) for x in t],
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
        # phi1 = f0^2 for t' <= T/2 puts those points at |s^2| <= 3e-6, next
        # to the degenerate point s = 0; later points lie far from it
        p = exp_profile()
        proto = protocols.DrivingProtocol(variant="step", f0=degenerate_f0(p, 3e-6), period=1.0)
        t = np.linspace(0.0, 2.0, 201)
    cols = harness._approx_columns(p, proto, t)
    for name, ref in pointwise_columns(p, proto, t).items():
        np.testing.assert_allclose(cols[name], ref, rtol=1e-12, atol=0.0, err_msg=name)


def time_functions(p, proto):
    """Each function of time (or energy) under test, as a map of one argument."""
    e = np.linspace(-12.0, 12.0, 2401)
    rg = ro.ResolventGrid(e_grid=e, eta=0.04, g=ro.resolvent_closed_form(2.0, e - 0.04j))
    return {
        "eval_f": lambda t: protocols.eval_f(proto, t),
        "F1": lambda t: protocols.f1_f2(proto, t)[0],
        "F2": lambda t: protocols.f1_f2(proto, t)[1],
        "phi1": lambda t: protocols.phi_arrays(proto, t)[0],
        "phi2": lambda t: protocols.phi_arrays(proto, t)[1],
        "vtilde": p.vtilde,
        "v_of_t": lambda t: profiles.v_of_t(p, t),
        "v_second_deriv": lambda t: profiles.v_second_deriv(p, t),
        "r_scale": lambda t: r_of(p, proto, t),
        "strong_driving_gamma": lambda t: ap.strong_driving_gamma(r_of(p, proto, t), t),
        "strong_driving_gamma(r, 0.7)": lambda t: ap.strong_driving_gamma(r_of(p, proto, t), 0.7),
        "fast_driving_gamma": lambda t: ap.fast_driving_gamma(p, phi1_of(proto, t), t),
        "fast_driving_gamma(t, 0.7)": lambda t: ap.fast_driving_gamma(p, phi1_of(proto, 0.7), t),
        "fast_driving_gamma(0.7, t')": lambda t: ap.fast_driving_gamma(p, phi1_of(proto, t), 0.7),
        # phi1 = 2e-4 x: s^2 runs from 1 through 0 (x ~ 0.5) to ~ -13 (x = 7)
        "fast_driving_gamma(phi1 = 2e-4 x, 0.7)":
            lambda x: ap.fast_driving_gamma(p, 2e-4 * np.asarray(x), 0.7),
        "weak_fast_gamma": lambda t: ap.weak_fast_gamma(p, phi1_of(proto, t), t),
        "weak_fast_gamma(t, 0.7)": lambda t: ap.weak_fast_gamma(p, phi1_of(proto, 0.7), t),
        "gamma_from_resolvent": lambda t: ro.gamma_from_resolvent(rg, t),
        "resolvent_closed_form": lambda t: ro.resolvent_closed_form(2.0, t - 3.0 - 0.05j),
    }


def test_functions_of_time_broadcast_bitwise():
    # one path for every shape: a scalar gives a 0-d result, an empty argument
    # an empty one and a (k, n) argument its own shape, each element bit for
    # bit the 1-d call's
    e = np.linspace(0.0, 3.0, 301)
    tab_profile = profiles.PerturbationProfile(
        variant="tabulated", d0=512.0, energies=e, values=np.exp(-e / 0.5))
    times = np.linspace(0.0, 3.0, 31)  # f(0) != 0 and t past the table: both limits
    tab_proto = protocols.DrivingProtocol(variant="tabulated", times=times,
                                          values=0.05 * np.cos(2.0 * times))
    cases = {
        "pseudorandom_a": (exp_profile(), protocols.DrivingProtocol(
            variant="pseudorandom_a", f0=0.05, period=0.5)),
        "pseudorandom_b": (exp_profile(), protocols.DrivingProtocol(
            variant="pseudorandom_b", f0=0.05, period=0.5)),
        "tabulated": (tab_profile, tab_proto),
    }
    t1 = np.append(np.linspace(0.0, 4.0, 401), 7.0)  # 1-ulp slips are rare: many points
    t2 = np.stack([t1, t1[::-1]])
    for case, (p, proto) in cases.items():
        for name, fn in time_functions(p, proto).items():
            ref = np.asarray(fn(t1))
            assert ref.shape == t1.shape, (case, name)
            assert np.asarray(fn(t1[:0])).shape == (0,), (case, name)
            for i, t in enumerate(t1):
                one = np.asarray(fn(float(t)))
                assert one.shape == () and one.dtype == ref.dtype, (case, name)
                assert one.tobytes() == ref[i].tobytes(), (case, name, t)
            two = np.asarray(fn(t2))
            assert two.shape == t2.shape, (case, name)
            assert two.tobytes() == np.stack([ref, ref[::-1]]).tobytes(), (case, name)
