"""Band profiles against independent quadrature oracles."""

import numpy as np
import pytest
from scipy.integrate import quad

from typresp import profiles, protocols


def exp_profile(v0=1.0, dv=0.5, d0=512.0):
    return profiles.PerturbationProfile(variant="exponential", v0=v0, delta_v=dv, d0=d0)


def tab_from_exponential(v0=1.0, dv=0.5, d0=512.0, emax=None, n=4000):
    e = np.linspace(0.0, emax if emax else 30 * dv, n)
    return profiles.PerturbationProfile(
        variant="tabulated", d0=d0, energies=e, values=v0 * np.exp(-e / dv)
    )


def quad_v(p, t):
    """Oracle: complex Fourier quadrature of the profile over both half-axes.

    The real part uses adaptive quadrature; the imaginary part integrates the
    full complex phase on a symmetric grid, so it probes the evenness of the
    profile rather than being zero by construction.
    """
    l = 80 * getattr(p, "delta_v", 1.0)
    re, _ = quad(
        lambda e: p.d0 * p.vtilde(e), 0, l, weight="cos", wvar=t, limit=400,
        epsabs=1e-13, epsrel=1e-13,
    )
    e = np.linspace(-l, l, 200_001)
    im = np.trapezoid((p.d0 * np.exp(1j * e * t) * p.vtilde(e)).imag, e)
    return 2.0 * re, im


def test_v_closed_form_vs_quadrature():
    p = exp_profile()
    for t in np.linspace(0.0, 20 / p.delta_v, 17):
        re, im = quad_v(p, t)
        assert profiles.v_of_t(p, float(t)) == pytest.approx(re, rel=1e-10, abs=1e-10)
        assert abs(im) < 1e-12  # evenness makes v real


def test_v_at_zero():
    p = exp_profile()
    v0 = 2 * p.v0 * p.d0 * p.delta_v
    assert profiles.v_of_t(p, 0.0) == pytest.approx(v0, rel=1e-14, abs=0.0)
    re, _ = quad_v(p, 0.0)
    assert profiles.v_of_t(p, 0.0) == pytest.approx(re, rel=1e-10, abs=0.0)


def test_v_example_value():
    p = exp_profile(v0=1.0, dv=0.5, d0=512.0)
    assert profiles.v_of_t(p, 2.0) == pytest.approx(256.0, rel=1e-12, abs=0.0)
    re, _ = quad_v(p, 2.0)
    assert re == pytest.approx(256.0, rel=1e-10, abs=0.0)


def test_v_decays():
    for p in (exp_profile(), tab_from_exponential()):
        assert abs(profiles.v_of_t(p, 100 / 0.5)) < 1e-3 * profiles.v_of_t(p, 0.0)


def test_v_even():
    p = exp_profile()
    q = tab_from_exponential()
    rng = np.random.default_rng(3)
    for t in rng.uniform(0, 10, 20):
        assert abs(profiles.v_of_t(p, t) - profiles.v_of_t(p, -t)) < 1e-12
        assert abs(profiles.v_of_t(q, t) - profiles.v_of_t(q, -t)) < 1e-12


def test_moments_exponential():
    p = exp_profile(dv=0.7)
    assert profiles.moment(p, 0) == pytest.approx(2 * 0.7, rel=1e-14, abs=0.0)
    assert profiles.moment(p, 2) == pytest.approx(4 * 0.7**3, rel=1e-14, abs=0.0)
    # quadrature oracle
    s0, _ = quad(lambda e: 2 * np.exp(-e / 0.7), 0, np.inf)
    s2, _ = quad(lambda e: 2 * e * e * np.exp(-e / 0.7), 0, np.inf)
    assert profiles.moment(p, 0) == pytest.approx(s0, rel=1e-10, abs=0.0)
    assert profiles.moment(p, 2) == pytest.approx(s2, rel=1e-10, abs=0.0)
    with pytest.raises(ValueError):
        profiles.moment(p, 1)


def test_moment_narrow_profile():
    e = np.linspace(0.0, 0.02, 50)
    p = profiles.PerturbationProfile(
        variant="tabulated", d0=100.0, energies=e, values=np.exp(-((e / 0.004) ** 2))
    )
    assert profiles.moment(p, 2) < 1e-4


def test_second_derivative_exponential():
    p = exp_profile(v0=1.3, dv=0.5, d0=64.0)
    # at 0: v'' = -v0 d0 Sigma2
    s2 = profiles.moment(p, 2)
    assert profiles.v_second_deriv(p, 0.0) == pytest.approx(-p.v0 * p.d0 * s2, rel=1e-12, abs=0.0)
    # finite differences of the closed form
    h = 1e-4
    for t in (0.3, 1.0, 4.0):
        fd = (
            profiles.v_of_t(p, t + h) - 2 * profiles.v_of_t(p, t) + profiles.v_of_t(p, t - h)
        ) / h**2
        assert profiles.v_second_deriv(p, t) == pytest.approx(
            fd, rel=1e-6, abs=1e-6 * abs(profiles.v_second_deriv(p, 1.0))
        )


def test_identities_v0_and_vdd0():
    for p in (exp_profile(), exp_profile(v0=2.5, dv=1.7, d0=33.0), tab_from_exponential()):
        s0 = profiles.moment(p, 0)
        s2 = profiles.moment(p, 2)
        assert profiles.v_of_t(p, 0.0) == pytest.approx(p.v0 * p.d0 * s0, rel=1e-10, abs=0.0)
        assert profiles.v_second_deriv(p, 0.0) == pytest.approx(
            -p.v0 * p.d0 * s2, rel=1e-8, abs=0.0
        )


def test_tabulated_matches_closed_form():
    p = exp_profile()
    q = tab_from_exponential(n=8000)
    for t in np.linspace(0, 10, 21):
        assert profiles.v_of_t(q, t) == pytest.approx(profiles.v_of_t(p, t), rel=2e-4, abs=1e-6)
    # oscillatory regime: exact segment integration stays accurate at large t
    for t in (40.0, 120.0):
        assert profiles.v_of_t(q, t) == pytest.approx(
            profiles.v_of_t(p, t), rel=5e-3, abs=1e-8 * profiles.v_of_t(p, 0.0)
        )


def mp_cos_transform(e, w, t):
    """int w(E) cos(Et) dE of the linear interpolant of (e, w), summed per segment in mpmath."""
    import mpmath as mp

    with mp.workdps(40):
        tm, acc = mp.mpf(t), mp.mpf(0)
        for e0, e1, w0, w1 in zip(e[:-1], e[1:], w[:-1], w[1:]):
            e0, e1, w0, w1 = (mp.mpf(float(v)) for v in (e0, e1, w0, w1))
            s0, s1 = mp.sin(e0 * tm), mp.sin(e1 * tm)
            c0, c1 = mp.cos(e0 * tm), mp.cos(e1 * tm)
            slope = (w1 - w0) / (e1 - e0)
            acc += w0 * (s1 - s0) / tm + slope * ((e1 - e0) * s1 / tm + (c1 - c0) / tm**2)
        return float(acc)


def exp_table_601():
    return tab_from_exponential(d0=512.0, emax=6.0, n=601)


def gapped_table():
    """exp_table_601 with w = 0 on (2, 3): two kept runs of segments."""
    p = exp_table_601()
    values = np.where((p.energies > 2.0) & (p.energies < 3.0), 0.0, p.values)
    return profiles.PerturbationProfile(
        variant="tabulated", d0=p.d0, energies=p.energies, values=values
    )


@pytest.mark.parametrize("table,t", [
    pytest.param(table, t, id=f"{t}{suffix}")
    for table, suffix in ((exp_table_601, ""), (gapped_table, "-gapped"))
    for t in (0.0101, 0.02, 0.1, 1.0, 10.0, 40.0, 120.0)
])
def test_tabulated_transforms_exact_for_the_interpolant(table, t):
    # at t = 0.0101 each segment has x = t dE = 1.01e-4, where direct kernel
    # formulas put v 6.9e-11 off; at large t the end terms must telescope (per
    # segment they put v'' 1.1e-12 off at t = 40). abs=0: a pure relative bound
    p = table()
    e, w = p.energies, p.values
    rel_v, rel_vdd = (1e-14, 1e-14) if t <= 10.0 else (5e-14, 3e-12)
    assert profiles.v_of_t(p, t) == pytest.approx(
        2 * p.d0 * mp_cos_transform(e, w, t), rel=rel_v, abs=0.0
    )
    assert profiles.v_second_deriv(p, t) == pytest.approx(
        -2 * p.d0 * mp_cos_transform(e, e**2 * w, t), rel=rel_vdd, abs=0.0
    )


def test_validation():
    with pytest.raises(ValueError):
        profiles.PerturbationProfile(variant="exponential", v0=-1.0, delta_v=0.5, d0=1.0)
    with pytest.raises(ValueError):
        profiles.PerturbationProfile(variant="exponential", v0=1.0, delta_v=0.5, d0=0.0)
    with pytest.raises(ValueError):
        profiles.PerturbationProfile(
            variant="tabulated",
            d0=1.0,
            energies=np.array([0.5, 1.0]),  # must start at 0
            values=np.array([1.0, 0.5]),
        )
    with pytest.raises(ValueError):
        profiles.v_of_t(exp_profile(), np.inf)


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: profiles.PerturbationProfile("gaussian", 1.0),
                 "unknown profile variant 'gaussian'", id="variant"),
    pytest.param(lambda: profiles.PerturbationProfile("exponential", 1.0, delta_v=0.0),
                 "delta_v must be positive", id="delta_v_zero"),
    pytest.param(lambda: profiles.PerturbationProfile("exponential", 1.0, delta_v=-0.5),
                 "delta_v must be positive", id="delta_v_negative"),
    pytest.param(lambda: profiles.v_second_deriv(exp_profile(), np.nan),
                 "time argument must be finite", id="vdd_nan"),
    pytest.param(lambda: profiles.v_second_deriv(exp_profile(), [0.0, -np.inf]),
                 "time argument must be finite", id="vdd_inf"),
])
def test_profile_guards_name_their_rule(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# samples both tabulated constructors reject through the one check, protocols._check_samples
BAD_SAMPLES = [
    pytest.param(None, [1.0, 0.5], id="no-points"),
    pytest.param([0.0, 1.0], [1.0], id="mismatched"),
    pytest.param([0.0], [1.0], id="one-sample"),
    pytest.param([0.0, 1.0, np.nan], [1.0, 0.5, 0.25], id="nan-point"),
    pytest.param([0.0, 1.0, np.inf], [1.0, 0.5, 0.25], id="inf-point"),
    pytest.param([0.0, 1.0, 2.0], [1.0, np.nan, 0.25], id="nan-value"),
    pytest.param([0.0, 1.0, 1.0], [1.0, 0.5, 0.25], id="repeated-point"),
]


@pytest.mark.parametrize("x,y", BAD_SAMPLES)
def test_tabulated_profile_and_protocol_share_one_sample_check(x, y):
    with pytest.raises(ValueError, match="^tabulated profile"):
        profiles.PerturbationProfile("tabulated", 1.0, energies=x, values=y)
    with pytest.raises(ValueError, match="^tabulated protocol"):
        protocols.DrivingProtocol("tabulated", times=x, values=y)
