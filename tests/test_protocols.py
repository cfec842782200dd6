"""Protocol closed forms against quadrature oracles and exact identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from typresp import protocols


def make(variant, f0=0.04, period=1.0):
    return protocols.DrivingProtocol(variant=variant, f0=f0, period=period)


def tabulated_example():
    t = np.linspace(0.0, 3.0, 61)
    return protocols.DrivingProtocol(variant="tabulated", times=t, values=np.sin(t) * (3 - t))


ALL_ANALYTIC = ["constant", "step", "sinusoid", "linear_ramp", "pseudorandom_a", "pseudorandom_b"]


def quad_f1(p, t):
    """Independent F1 oracle: adaptive quadrature with protocol breakpoints."""
    pts = breakpoints(p, t)
    val, _ = quad(lambda s: protocols.eval_f(p, s), 0.0, t, points=pts, limit=400)
    return val


def quad_f2(p, t):
    """Independent F2 oracle: int_0^t (t - s) f(s) ds (single quadrature)."""
    pts = breakpoints(p, t)
    val, _ = quad(lambda s: (t - s) * protocols.eval_f(p, s), 0.0, t, points=pts, limit=400)
    return val


def breakpoints(p, t):
    if p.variant == "step":
        return list(np.arange(0.0, t, p.period / 2.0))[:50]
    if p.variant == "linear_ramp" and t > p.period:
        return [p.period]
    if p.variant == "tabulated":
        return [x for x in p.times if x < t]
    return None


# --- pointwise examples -----------------------------------------------------


def test_eval_step_example():
    p = make("step", f0=0.04, period=2.0)
    assert protocols.eval_f(p, 0.5) == pytest.approx(0.04, abs=1e-15)


def test_eval_sinusoid_example():
    p = make("sinusoid", f0=1.0, period=1.0)
    assert protocols.eval_f(p, 0.25) == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_eval_pseudorandom_a_at_zero():
    # alternating cosine sum at t = 0: 1 - 1 + 1 - 1 + 1 - 1
    p = make("pseudorandom_a", f0=1.0, period=1.0)
    oracle = sum((-1) ** (k + 1) * np.cos(0.0) for k in range(1, 7))
    assert oracle == 0.0
    assert protocols.eval_f(p, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_eval_pseudorandom_oracle():
    for variant in ("pseudorandom_a", "pseudorandom_b"):
        p = make(variant, f0=0.7, period=1.3)
        for t in (0.1, 1.7, 9.4):
            if variant == "pseudorandom_a":
                oracle = 0.7 * sum(
                    (-1) ** (k + 1) * np.cos(np.sqrt(k) * t / 1.3) for k in range(1, 7)
                )
            else:
                oracle = 0.7 * sum(
                    np.sin(np.sqrt(2 * k - 1) * t / 1.3) + np.cos(np.sqrt(2 * k) * t / 1.3)
                    for k in range(1, 4)
                )
            assert protocols.eval_f(p, t) == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_eval_rejects_bad_times():
    p = make("step")
    with pytest.raises(ValueError):
        protocols.eval_f(p, np.nan)
    with pytest.raises(ValueError):
        protocols.eval_f(p, -0.5)
    with pytest.raises(ValueError):
        protocols.phi_arrays(p, -1.0)


def test_tabulated_outside_range_is_zero():
    p = tabulated_example()
    assert protocols.eval_f(p, 2.9999) != 0.0
    assert protocols.eval_f(p, 3.5) == 0.0


# --- closed forms vs quadrature ---------------------------------------------


@pytest.mark.parametrize("variant", ALL_ANALYTIC)
def test_f1_f2_match_quadrature(variant):
    p = make(variant, f0=0.3, period=0.8)
    rng = np.random.default_rng(7)
    ts = rng.uniform(1e-3, 10 * 0.8, size=100)
    scale1 = max(abs(quad_f1(p, 8.0)), 0.3 * 0.8)  # avoid 0/0 on unbiased protocols
    for t in ts:
        f1, f2 = protocols.f1_f2(p, float(t))
        assert f1 == pytest.approx(quad_f1(p, float(t)), rel=1e-8, abs=1e-8 * scale1)
        assert f2 == pytest.approx(quad_f2(p, float(t)), rel=1e-8, abs=1e-8 * scale1)


def test_tabulated_f1_f2_match_quadrature():
    p = tabulated_example()
    for t in (0.3, 1.2, 2.8, 3.0, 4.5):
        f1, f2 = protocols.f1_f2(p, t)
        assert f1 == pytest.approx(quad_f1(p, t), rel=1e-8, abs=1e-12)
        assert f2 == pytest.approx(quad_f2(p, t), rel=1e-8, abs=1e-12)


def test_f2_derivative_is_f1():
    for variant in ALL_ANALYTIC:
        p = make(variant, f0=0.5, period=1.1)
        eps = 1e-6
        for t in (0.37, 1.64, 5.05):
            _, f2p = protocols.f1_f2(p, t + eps)
            _, f2m = protocols.f1_f2(p, t - eps)
            f1, _ = protocols.f1_f2(p, t)
            assert (f2p - f2m) / (2 * eps) == pytest.approx(f1, rel=1e-6, abs=1e-7)


# --- phi identities -----------------------------------------------------------


def test_constant_phi_values_exact():
    p = make("constant", f0=0.13)
    phi1, phi2 = protocols.phi_arrays(p, [1e-9, 0.5, 3.0, 1e4])
    assert np.all(phi1 == 0.13**2)
    assert np.all(phi2 == 0.0)


def test_step_sin_unbiased_identities():
    for variant in ("step", "sinusoid"):
        p = make(variant, f0=0.3, period=0.7)
        n = np.arange(1, 11)
        assert np.all(protocols.phi_arrays(p, n * 0.7)[0] <= 1e-12)
        assert np.all(protocols.phi_arrays(p, (n - 0.5) * 0.7)[1] <= 1e-12)


def test_linear_ramp_asymptotics():
    f0, T = 0.2, 0.5
    p = make("linear_ramp", f0=f0, period=T)
    # late times: phi1 -> f0^2 and phi2 -> f0^2 T^2/16; exact closed forms are
    # phi1 = f0^2 (1 - T/2t)^2 and phi2 = f0^2 (T/4 - T^2/6t)^2
    t = np.array([100 * T, 1000 * T])
    phi1, phi2 = protocols.phi_arrays(p, t)
    assert phi1 == pytest.approx(f0**2 * (1 - T / (2 * t)) ** 2, rel=1e-12, abs=0.0)
    assert phi2 == pytest.approx(f0**2 * (T / 4 - T**2 / (6 * t)) ** 2, rel=1e-12, abs=0.0)
    assert phi1[1] == pytest.approx(f0**2, rel=2e-3, abs=0.0)
    assert phi2[1] == pytest.approx(f0**2 * T**2 / 16, rel=2e-3, abs=0.0)
    # early times: phi1 ~ (f0 t / 2T)^2 and phi2 ~ (f0 t^2 / 12 T)^2
    t = np.array([T / 100, T / 30])
    phi1, phi2 = protocols.phi_arrays(p, t)
    assert phi1 == pytest.approx((f0 * t / (2 * T)) ** 2, rel=1e-10, abs=0.0)
    assert phi2 == pytest.approx((f0 * t**2 / (12 * T)) ** 2, rel=1e-10, abs=0.0)


def test_phi_at_zero_limits():
    for variant in ALL_ANALYTIC:
        p = make(variant, f0=0.4, period=0.9)
        (phi1_0, phi1_small), (phi2_0, phi2_small) = protocols.phi_arrays(p, [0.0, 1e-8])
        assert phi1_0 == protocols.eval_f(p, 0.0) ** 2
        assert phi2_0 == 0.0
        assert phi2_small == pytest.approx(0.0, abs=1e-12)
        if variant != "step":
            # phi1(0) continues the t -> 0+ values; the step protocol jumps
            # because sgn(sin(0)) = 0 while f = f0 just after t = 0
            assert phi1_small == pytest.approx(phi1_0, abs=1e-6 * max(1.0, phi1_0))


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(ALL_ANALYTIC),
    f0=st.floats(0.01, 3.0),
    period=st.floats(0.1, 5.0),
    t=st.floats(0.0, 50.0),
)
def test_phi_nonnegative(variant, f0, period, t):
    p = make(variant, f0=f0, period=period)
    phi1, phi2 = protocols.phi_arrays(p, t)
    assert phi1 >= 0.0
    assert phi2 >= 0.0


def test_phi_arrays_match_scalar():
    p = make("step", f0=0.3, period=0.7)
    ts = np.array([0.0, 0.2, 0.35, 0.7, 1.9])
    phi1, phi2 = protocols.phi_arrays(p, ts)
    for i, t in enumerate(ts):
        one1, one2 = protocols.phi_arrays(p, float(t))
        assert phi1[i] == one1
        assert phi2[i] == one2


# --- structure ----------------------------------------------------------------


def test_validation_errors():
    with pytest.raises(ValueError):
        protocols.DrivingProtocol(variant="nope")
    with pytest.raises(ValueError):
        protocols.DrivingProtocol(variant="step", f0=0.1, period=-1.0)
    with pytest.raises(ValueError):
        protocols.DrivingProtocol(variant="tabulated", times=np.array([0.0, 1.0]),
                                  values=np.array([1.0]))
    with pytest.raises(ValueError):
        protocols.DrivingProtocol(variant="tabulated", times=np.array([1.0, 0.5]),
                                  values=np.array([1.0, 2.0]))


@pytest.mark.parametrize("kwargs,message", [
    pytest.param(dict(variant="sinusoid", f0=np.inf), "f0 must be finite", id="f0_inf"),
    pytest.param(dict(variant="constant", f0=np.nan), "f0 must be finite", id="f0_nan"),
    pytest.param(dict(variant="tabulated", times=[-0.5, 1.0], values=[1.0, 2.0]),
                 "sample times must be >= 0", id="negative_table_time"),
])
def test_protocol_guards_name_their_rule(kwargs, message):
    with pytest.raises(ValueError, match=message):
        protocols.DrivingProtocol(**kwargs)


def test_piecewise_segments():
    # the pieces are yielded, not stored: piece k spans [k T/2, (k + 1) T/2], the last ends at
    # t_max, and f alternates from f0
    p = make("step", f0=0.2, period=1.0)
    pieces = p.piecewise_segments(2.3)
    assert iter(pieces) is pieces
    t0, t1, vals = zip(*pieces)
    bounds = t0 + t1[-1:]
    assert bounds[0] == 0.0 and bounds[-1] == 2.3
    assert t0 == tuple(np.arange(5) * 0.5) and t1 == t0[1:] + (2.3,)
    assert list(vals) == [0.2, -0.2, 0.2, -0.2, 0.2]
    assert list(p.piecewise_segments(0.0)) == [(0.0, 0.0, 0.2)]
    assert make("sinusoid").piecewise_segments(1.0) is None
    cb0, cb1, cv = zip(*make("constant", f0=0.5).piecewise_segments(4.0))
    assert list(cb0 + cb1) == [0.0, 4.0] and list(cv) == [0.5]
    # pieces too many to count are refused when asked for, not drawn without end
    with pytest.raises(ValueError, match="pieces to t = 1 are too many to count"):
        make("step", f0=0.2, period=1e-310).piecewise_segments(1.0)


@pytest.mark.parametrize("span,step,expected", [
    (1.0, 0.3, (4, 0.25)),
    (1.0, 0.25 * (1 + 1e-13), (4, 0.25)),  # within the 1e-12 slack: no fifth piece
    (1.0, 2.0, (1, 1.0)),
    (0.0, 0.1, (1, 0.0)),
    (1.0, 1e-310, (np.inf, 0.0)),  # span / step overflows: no count
    (1.0, np.nan, (np.inf, 0.0)),
])
def test_subdivide(span, step, expected):
    n, h = protocols.subdivide(span, step)
    assert (n, h) == expected and isinstance(n, int) == np.isfinite(n)


# --- the trig drives' one closed form against their hand-integrated forms ------


def trig_hand_integrated(p, t):
    """(f, F1, F2) of the sinusoid and the two incommensurate drives, each
    integrated by hand on its own (the reference the one table replaced)."""
    f0, T, t = p.f0, p.period, np.asarray(t, dtype=float)
    if p.variant == "sinusoid":
        om = 2 * np.pi / T
        return (f0 * np.sin(2 * np.pi * t / T), f0 / om * (1.0 - np.cos(om * t)),
                f0 / om * (t - np.sin(om * t) / om))
    if p.variant == "pseudorandom_a":
        signs = np.array([(-1.0) ** (k + 1) for k in range(1, 7)])
        w = np.sqrt(np.arange(1.0, 7.0)) / T
        wt = t[..., None] * w
        return (f0 * np.sum(signs * np.cos(wt), axis=-1),
                f0 * np.sum(signs / w * np.sin(wt), axis=-1),
                f0 * np.sum(signs / w**2 * (1.0 - np.cos(wt)), axis=-1))
    a, b = np.sqrt(np.array([1.0, 3.0, 5.0])) / T, np.sqrt(np.array([2.0, 4.0, 6.0])) / T
    at, bt = t[..., None] * a, t[..., None] * b
    return (f0 * (np.sum(np.sin(at), axis=-1) + np.sum(np.cos(bt), axis=-1)),
            f0 * (np.sum((1.0 - np.cos(at)) / a, axis=-1) + np.sum(np.sin(bt) / b, axis=-1)),
            f0 * (np.sum(t[..., None] / a - np.sin(at) / a**2, axis=-1)
                  + np.sum((1.0 - np.cos(bt)) / b**2, axis=-1)))


@pytest.mark.parametrize("variant", ["sinusoid", "pseudorandom_a", "pseudorandom_b"])
@pytest.mark.parametrize("f0, period", [(0.04, 0.5), (1.3, 0.37), (0.7, 2.5)])
def test_trig_table_matches_hand_integrated_forms(variant, f0, period):
    p = make(variant, f0=f0, period=period)
    t = np.linspace(0.0, 50 * period, 5001)
    f_ref, f1_ref, f2_ref = trig_hand_integrated(p, t)
    f1, f2 = protocols.f1_f2(p, t)
    for got, ref in ((f1, f1_ref), (f2, f2_ref)):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    # f itself: the phase w t may round to a neighbouring float, which moves
    # sin and cos by up to eps |w t| per term (6 terms of |f0| at most)
    bound = 6 * abs(f0) * np.finfo(float).eps * (2 * np.pi * 50)
    assert np.max(np.abs(protocols.eval_f(p, t) - f_ref)) <= bound
