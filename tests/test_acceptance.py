"""Acceptance suite: every criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion part as it completes.  The heavy experiments (the desk-scale
survival-probability matrix and the two-sector driven model, both at
m = 2048) run once in module-scoped fixtures and are shared.

Where a stated number is not what the documented definitions give, the
part asserts the value that an independent route gives and keeps the stated
number asserted where it holds:

- 1d: phi2 = (F2/t - F1/2)^2 of the linear ramp equals
  f0^2 (T/4 - T^2/6t)^2 for t >= T, which sits 2.65% from its limit
  f0^2 T^2/16 at t = 50 T.  The value at 50 T is checked against a
  quadrature of f; the stated 2% window is checked for every t >= 67 T.
- 6a, 6c: the cosine-modulated spacing law of `rmt.SpectrumSpec` tilts the
  density of states across the occupied window [4, 20], so the window
  density is ~533 levels per unit energy and the '+'-sector diagonal
  ensemble ~0.239.  Both are checked against the continuum integral of
  the spacing law; the stated 500 +- 5% and 0.25 +- 0.01 bands, which are
  the flat-density values, are checked on the alpha = 0 spectrum of the
  same geometry.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import resolvent_oracle as ro
from typresp import approximations as ap
from typresp import harness, profiles, protocols, response, rmt

SEED = 1


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def exp_profile(v0=1.0, dv=0.5, d0=512.0):
    return profiles.PerturbationProfile(variant="exponential", v0=v0, delta_v=dv, d0=d0)


# ---------------------------------------------------------------------------
# criterion 1: protocol identities
# ---------------------------------------------------------------------------


def test_c1_periodic_identities():
    worst = 0.0
    for variant in ("step", "sinusoid"):
        p = protocols.DrivingProtocol(variant=variant, f0=0.3, period=0.7)
        n = np.arange(1, 11)
        worst = max(worst, float(np.max(protocols.phi_arrays(p, n * 0.7)[0])),
                    float(np.max(protocols.phi_arrays(p, (n - 0.5) * 0.7)[1])))
    ok = worst <= 1e-12
    assert report("1a periodic phi identities", ok, f"worst residual {worst:.2e} (<= 1e-12)")


def test_c1_constant_phi2_exact():
    p = protocols.DrivingProtocol(variant="constant", f0=0.13)
    vals = protocols.phi_arrays(p, [1e-6, 0.3, 2.0, 77.0])[1].tolist()
    ok = all(v == 0.0 for v in vals)
    assert report("1b constant phi2 exact", ok, f"values {vals}")


def test_c1_linear_ramp_phi1_at_50T():
    f0, T = 0.2, 0.5
    p = protocols.DrivingProtocol(variant="linear_ramp", f0=f0, period=T)
    phi1 = float(protocols.phi_arrays(p, 50 * T)[0])
    dev = abs(phi1 / f0**2 - 1.0)
    ok = dev <= 0.02
    assert report("1c ramp phi1 at 50T", ok, f"deviation {dev:.4f} (<= 0.02)")


def ramp_phi2_by_quadrature(p, t):
    """phi2 = (F2/t - F1/2)^2 with F1, F2 by adaptive quadrature of f."""
    pts = [p.period] if t > p.period else None
    f1, _ = quad(lambda s: protocols.eval_f(p, s), 0.0, t, points=pts, limit=400)
    f2, _ = quad(lambda s: (t - s) * protocols.eval_f(p, s), 0.0, t, points=pts, limit=400)
    return (f2 / t - f1 / 2) ** 2


def test_c1_linear_ramp_phi2_at_50T():
    # for t >= T the definition gives phi2 = f0^2 (T/4 - T^2/6t)^2, which is
    # 1 - (1 - 2T/3t)^2 = 2.65% from f0^2 T^2/16 at 50 T; the stated 2% window
    # holds from t = 66.3 T on, and the distance falls like 4T/3t
    f0, T = 0.2, 0.5
    p = protocols.DrivingProtocol(variant="linear_ramp", f0=f0, period=T)
    limit = f0**2 * T**2 / 16
    phi2 = float(protocols.phi_arrays(p, 50 * T)[1])
    dev_quad = abs(phi2 / ramp_phi2_by_quadrature(p, 50 * T) - 1.0)
    dev_closed = abs(phi2 / (f0**2 * T**2 * (1 / 4 - 1 / 300) ** 2) - 1.0)
    ts = T * np.geomspace(67.0, 1e4, 40)
    devs = np.abs(protocols.phi_arrays(p, ts)[1] / limit - 1.0)
    shape = devs / (4 * T / (3 * ts))  # exactly 1 - T/3t
    ok = (
        dev_quad <= 1e-10
        and dev_closed <= 1e-12
        and bool(np.all(devs <= 0.02))
        and bool(np.all(np.diff(devs) < 0))
        and bool(np.allclose(shape, 1 - T / (3 * ts), rtol=1e-6, atol=0.0))
    )
    assert report(
        "1d ramp phi2 at 50T", ok,
        f"vs quadrature {dev_quad:.1e} (<= 1e-10), vs closed form {dev_closed:.1e}; "
        f"{abs(phi2 / limit - 1):.4f} from the limit at 50T, "
        f"max {devs.max():.4f} (<= 0.02) for t >= 67T",
    )


# ---------------------------------------------------------------------------
# criterion 2: profile identities
# ---------------------------------------------------------------------------


def test_c2_profile_identities():
    p = exp_profile(v0=1.7, dv=0.8, d0=256.0)
    s0, s2 = profiles.moment(p, 0), profiles.moment(p, 2)
    dev_s0 = abs(s0 / (2 * 0.8) - 1)
    dev_s2 = abs(s2 / (4 * 0.8**3) - 1)
    dev_v0 = abs(profiles.v_of_t(p, 0.0) / (p.v0 * p.d0 * s0) - 1)
    dev_vdd = abs(profiles.v_second_deriv(p, 0.0) / (-p.v0 * p.d0 * s2) - 1)
    ok = dev_s0 <= 1e-10 and dev_s2 <= 1e-10 and dev_v0 <= 1e-8 and dev_vdd <= 1e-8
    assert report(
        "2 profile identities",
        ok,
        f"Sigma0 {dev_s0:.1e}, Sigma2 {dev_s2:.1e}, v(0) {dev_v0:.1e}, v''(0) {dev_vdd:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 3: solver convergence and oracles
# ---------------------------------------------------------------------------


def test_c3_second_order_convergence():
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.05, period=1.0)
    ref = response.solve_gamma(p, proto, 0.6, h=0.0025, n=1600)
    errs, hs = [], [0.04, 0.02, 0.01]
    for h in hs:
        sol = response.solve_gamma(p, proto, 0.6, h=h, n=int(4.0 / h))
        errs.append(np.max(np.abs(sol.gamma - ref.gamma[:: int(round(h / 0.0025))])))
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = 1.7 <= slope <= 2.3
    assert report("3a solver order", ok, f"log-log slope {slope:.3f} (2 +- 0.3)")


def test_c3_dual_route_agreement():
    p1 = exp_profile()
    p2 = exp_profile(v0=0.5, dv=1.0, d0=256.0)
    triples = [
        (p1, protocols.DrivingProtocol(variant="step", f0=0.05, period=1.0), 0.6),
        (p1, protocols.DrivingProtocol(variant="sinusoid", f0=0.05, period=1.0), 0.8),
        (p2, protocols.DrivingProtocol(variant="linear_ramp", f0=0.08, period=2.0), 1.2),
    ]
    sups = []
    for profile, proto, tp in triples:
        phi1, phi2 = (float(x) for x in protocols.phi_arrays(proto, tp))
        r = float(ap.r_scale(profile, phi1, phi2))
        span = 5 * max(r, profiles.moment(profile, 0))
        e = np.linspace(-span, span, 4000)
        eta = ro.default_eta(e)
        rg = ro.resolvent_solve(profile, phi1, phi2, e, eta)
        t_max = min(2.5, 0.5 / eta)
        h = min(response.default_step(profile, proto, t_max), 0.01)
        n = int(t_max / h)
        sol = response.solve_gamma(profile, proto, tp, h, n)
        recon = ro.gamma_from_resolvent(rg, np.arange(n + 1) * h)
        sups.append(float(np.max(np.abs(recon - sol.gamma))))
    ok = all(s < 2e-2 for s in sups)
    assert report("3b dual-route sup errors", ok,
                  f"{[f'{s:.4f}' for s in sups]} (each < 0.02)")


def test_c3_weak_regime_rate():
    p = exp_profile()
    f0 = 0.3 * ap.crossover_amplitude(p, 1.0 / p.d0)
    proto = protocols.DrivingProtocol(variant="constant", f0=f0)
    r_hat = np.pi * p.v0 * f0**2 * p.d0
    h = 0.02
    n = int(3.0 / r_hat / h)
    sol = response.solve_gamma(p, proto, 1.0, h, n)
    t = np.arange(n + 1) * h
    sel = (t > 0.5 / r_hat) & (sol.gamma > 1e-12)
    rate = -float(np.polyfit(t[sel], np.log(sol.gamma[sel]), 1)[0])
    dev = abs(rate / r_hat - 1.0)
    ok = dev <= 0.05
    assert report("3c weak decay rate", ok,
                  f"fit {rate:.5f} vs pi vtilde(0) f0^2 d0 = {r_hat:.5f} ({dev:.2%})")


# ---------------------------------------------------------------------------
# criterion 4: closed-form approximations
# ---------------------------------------------------------------------------


def test_c4_hf_identities():
    p = exp_profile()
    rng = np.random.default_rng(2)
    worst0 = 0.0
    for _ in range(200):
        f0 = float(rng.uniform(0, 0.3))
        tp = float(rng.uniform(0, 5))
        proto = protocols.DrivingProtocol(variant="step", f0=f0, period=0.7)
        phi1 = protocols.phi_arrays(proto, tp)[0]
        worst0 = max(worst0, abs(ap.fast_driving_gamma(p, phi1, 0.0) - 1.0))
    worst_n = 0.0
    for variant in ("step", "sinusoid"):
        proto = protocols.DrivingProtocol(variant=variant, f0=0.08, period=0.5)
        for n in (1, 3, 7):
            phi1 = protocols.phi_arrays(proto, n * 0.5)[0]
            vals = ap.fast_driving_gamma(p, phi1, np.linspace(0, 3, 61))
            worst_n = max(worst_n, float(np.max(np.abs(vals - 1.0))))
    ok = worst0 <= 1e-10 and worst_n <= 1e-10
    assert report("4a hf identities", ok,
                  f"t=0 residual {worst0:.1e}, t'=nT residual {worst_n:.1e} (<= 1e-10)")


def test_c4_bessel_matches_solver_when_margin_valid():
    p = exp_profile()
    sups, margins = [], []
    for f0 in (0.08, 0.1, 0.2):
        proto = protocols.DrivingProtocol(variant="constant", f0=f0)
        r = float(ap.r_scale(p, *protocols.phi_arrays(proto, 1.0)))
        margins.append(r / profiles.moment(p, 0))
        h = min(1.0 / profiles.moment(p, 0), 1.0 / r) / 80
        n = int(np.ceil(3.8317 / r / h)) + 10
        sol = response.solve_gamma(p, proto, 1.0, h, n)
        t = np.arange(n + 1) * h
        bes = ap.strong_driving_gamma(r, t)
        lobe = t <= 3.8317 / r
        sups.append(float(np.max(np.abs(sol.gamma[lobe] - bes[lobe]))))
    ok = all(m > ap.VALID_MARGIN for m in margins) and all(s < 0.05 for s in sups)
    assert report(
        "4b Bessel vs solver", ok,
        f"margins {[f'{m:.1f}' for m in margins]}, sup errors {[f'{s:.4f}' for s in sups]}",
    )


def test_c4_semicircle_fourier_reproduces_bessel():
    r = 3.0
    e = np.linspace(-15, 15, 6001)
    eta = ro.default_eta(e)
    rg = ro.ResolventGrid(e_grid=e, eta=eta, g=ro.resolvent_closed_form(r, e - 1j * eta))
    t = np.linspace(0, 2.0, 81)
    sup = float(np.max(np.abs(ro.gamma_from_resolvent(rg, t) - ap.strong_driving_gamma(r, t))))
    ok = sup < 1e-2
    assert report("4c semicircle Fourier", ok, f"sup error {sup:.4f} (< 0.01)")


def test_c4_complementarity_logged():
    # qualitative observation, logged not asserted: where the hf form
    # overestimates gamma^2, the Bessel form tends to underestimate it
    p = exp_profile()
    proto = protocols.DrivingProtocol(variant="step", f0=0.08, period=0.5)
    h = response.default_step(p, proto, 1.0)
    n = int(1.0 / h)
    gsq = response.gamma_diagonal(p, proto, h, n)
    t = np.arange(n + 1) * h
    phi1, phi2 = protocols.phi_arrays(proto, t)
    hf = np.array([ap.fast_driving_gamma(p, phi1[i], t[i]) for i in range(len(t))]) ** 2
    r_t = ap.r_scale(p, phi1, phi2)
    bes = np.array([ap.strong_driving_gamma(r_t[i], t[i]) for i in range(len(t))]) ** 2
    over = hf > gsq + 0.01
    under_frac = float(np.mean(bes[over] < gsq[over])) if np.any(over) else float("nan")
    print(f"ACCEPTANCE 4d complementarity (logged): where hf overestimates, "
          f"Bessel underestimates in {under_frac:.0%} of points")


# ---------------------------------------------------------------------------
# criterion 5: desk-scale survival-probability experiment
# ---------------------------------------------------------------------------


def fidelity_cfg(variant, f0, period, dv, t_max, n_out, method, tstep=None):
    return {
        "scenario": "fidelity",
        "seed": SEED,
        "profile": {"variant": "exponential", "v0": 1.0, "delta_v": dv, "d0": None},
        "protocol": {"variant": variant, "f0": f0, "period": period},
        "model": {
            "m": 2048,
            "spectrum": {"variant": "flat", "spacing": 2.0**-9},
            "observable": {"kind": "fidelity"},
            "initial_state": {"kind": "eigenstate", "index": "middle"},
            "method": method,
            "trotter_step": tstep,
        },
        "grid": {"t_max": t_max, "n_out": n_out},
        "prediction": {"t_max": t_max},
    }


FIDELITY_POINTS = {
    # two (f0, T) points per protocol shape; step runs extend to 4 time units
    # so the late-window orderings can reuse them
    "step_a": fidelity_cfg("step", 0.04, 0.5, 0.5, 4.0, 320, "piecewise_exact"),
    "step_b": fidelity_cfg("step", 0.08, 1.0, 0.5, 4.0, 320, "piecewise_exact"),
    "sin_a": fidelity_cfg("sinusoid", 0.04, 0.5, 0.5, 1.0, 80, "trotter", 0.5 / 200),
    "sin_b": fidelity_cfg("sinusoid", 0.08, 1.0, 0.5, 2.0, 160, "trotter", 1.0 / 200),
    "step_T1": fidelity_cfg("step", 0.04, 1.0, 0.5, 4.0, 320, "piecewise_exact"),
    "step_dv025": fidelity_cfg("step", 0.04, 1.0, 0.25, 4.0, 320, "piecewise_exact"),
}


@pytest.fixture(scope="module")
def fidelity_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fidelity")
    out = {}
    for name, cfg in FIDELITY_POINTS.items():
        out[name] = {"dir": base / name, "result": harness.run(cfg, base / name)}
    return out


def late_rms(run, window=(2.0, 4.0)):
    data = harness.read_csv(run["dir"] / "joined.csv")
    return harness.compare(data["t"], data["a_pred"], data["a_sim"], window)["rms"]


@pytest.mark.slow
def test_c5_fidelity_rms(fidelity_runs):
    rms = {k: fidelity_runs[k]["result"]["metrics"]["rms_early"]["rms"]
           for k in ("step_a", "step_b", "sin_a", "sin_b")}
    ok = all(v < 0.05 for v in rms.values())
    assert report("5a fidelity rms (2 periods)", ok,
                  f"{ {k: f'{v:.4f}' for k, v in rms.items()} } (each < 0.05)")


@pytest.mark.slow
def test_c5_smaller_period_longer_agreement(fidelity_runs):
    fast = late_rms(fidelity_runs["step_a"])
    slow = late_rms(fidelity_runs["step_T1"])
    ok = fast < slow
    assert report("5b smaller T agrees longer", ok,
                  f"late rms T=0.5: {fast:.4f} < T=1.0: {slow:.4f}")


@pytest.mark.slow
def test_c5_narrower_profile_better_late(fidelity_runs):
    narrow = late_rms(fidelity_runs["step_dv025"])
    wide = late_rms(fidelity_runs["step_T1"])
    ok = narrow < wide
    assert report("5c smaller delta_v better late", ok,
                  f"late rms dv=0.25: {narrow:.4f} < dv=0.5: {wide:.4f}")


# ---------------------------------------------------------------------------
# criterion 6: paper-scale two-sector constants (no diagonalization)
# ---------------------------------------------------------------------------


PAPER_M, PAPER_SPACING, PAPER_WINDOW = 16384, 2.0**-9, (4.0, 20.0)
E_CENTER, DELTA_E, A0_PLUS, A0_MINUS = 12.0, 4.0, 1.0, 0.25


def scale_refs(alpha):
    spec = rmt.SpectrumSpec(m=PAPER_M, variant="cosine_modulated", alpha=alpha,
                            mean_spacing=PAPER_SPACING)
    e = spec.energies()
    diag = rmt.eth_diagonal(e, spec.e_top, A0_PLUS, A0_MINUS, SEED)
    psi = rmt.build_initial_state(e, "filtered_random", SEED, e_center=E_CENTER,
                                  delta_e=DELTA_E, q="identity", sector="even")
    return rmt.reference_constants(e, diag, np.abs(psi) ** 2, PAPER_WINDOW)


def continuum_refs(alpha):
    """d0_window, a_th and a_bar0 of the documented spectrum, in the continuum.

    Integrating the spacing law eps0 [1 + alpha (1 + cos(2 pi mu / m))] over the
    level index gives the level energy
    E(x) = eps0 [(1 + alpha) x + alpha m / (2 pi) sin(2 pi x / m)].  Levels are
    uniform in x, so a count is a difference of x and a level average is an
    integral over x: the window density is x(20) - x(4) over the window width,
    a_th the mean of (a_+ + a_-)/2 over the window, and a_bar0 the mean of
    a_+ = a0_+ (1 - 2E/E_m) under the squared filter
    exp(-(E - e_center)^2 / 2 delta_e^2).  Nothing here calls `rmt`.
    """
    eps0 = PAPER_SPACING / (1.0 + alpha)
    e_top = PAPER_M * PAPER_SPACING

    def energy(x):
        return eps0 * ((1.0 + alpha) * x
                       + alpha * PAPER_M / (2 * np.pi) * np.sin(2 * np.pi * x / PAPER_M))

    def index(e):
        return brentq(lambda x: energy(x) - e, 0.0, PAPER_M, xtol=1e-12)

    def a_lin(x):
        return 1.0 - 2.0 * energy(x) / e_top

    def weight(x):
        return np.exp(-((energy(x) - E_CENTER) ** 2) / (2 * DELTA_E**2))

    lo, hi = PAPER_WINDOW
    x_lo, x_hi, x_c = index(lo), index(hi), index(E_CENTER)
    mean_lin = quad(a_lin, x_lo, x_hi)[0] / (x_hi - x_lo)
    num = quad(lambda x: weight(x) * a_lin(x), 0.0, PAPER_M, points=[x_c], limit=200)[0]
    den = quad(weight, 0.0, PAPER_M, points=[x_c], limit=200)[0]
    return {
        "d0_window": (x_hi - x_lo) / (hi - lo),
        "a_th": 0.5 * (A0_PLUS + A0_MINUS) * mean_lin,
        "a_bar0": A0_PLUS * num / den,
    }


@pytest.fixture(scope="module")
def paper_scale_refs():
    return scale_refs(0.1)


@pytest.fixture(scope="module")
def flat_scale_refs():
    # alpha = 0: the flat density of the same geometry, where the stated
    # bands are the values of the construction
    return scale_refs(0.0)


@pytest.fixture(scope="module")
def continuum():
    return continuum_refs(0.1)


def test_c6_window_density(paper_scale_refs, flat_scale_refs, continuum):
    # the spectrum has no randomness; within one level over the window
    d0, d0_flat = paper_scale_refs["d0_window"], flat_scale_refs["d0_window"]
    expect = continuum["d0_window"]
    tol = 1.0 / (PAPER_WINDOW[1] - PAPER_WINDOW[0])
    ok = abs(d0 - expect) <= tol and 475.0 <= d0_flat <= 525.0
    assert report(
        "6a window density", ok,
        f"d0 = {d0:.3f} vs continuum {expect:.3f} (+- {tol:.4f}); "
        f"alpha = 0: {d0_flat:.2f} (band [475, 525])",
    )


def test_c6_thermal_value(paper_scale_refs, continuum):
    """a_th against the stated 0.156 +- 0.01 (the flat-density value).

    The continuum prediction of the tilted spectrum, 0.1477, is reported
    beside it: the assertion holds with less than 0.002 to spare.
    """
    a_th = paper_scale_refs["a_th"]
    ok = abs(a_th - 0.156) <= 0.01
    assert report("6b thermal value", ok,
                  f"a_th = {a_th:.4f} (0.156 +- 0.01; continuum {continuum['a_th']:.4f})")


def test_c6_diagonal_ensemble(paper_scale_refs, flat_scale_refs, continuum):
    # the density-of-states tilt pulls the '+'-sector diagonal ensemble below
    # a_+(e_center) = 0.25; the seed-to-seed sd is ~0.003
    a_bar0, a_bar0_flat = paper_scale_refs["a_bar0"], flat_scale_refs["a_bar0"]
    expect = continuum["a_bar0"]
    ok = abs(a_bar0 - expect) <= 0.01 and abs(a_bar0_flat - 0.25) <= 0.01
    assert report(
        "6c diagonal ensemble", ok,
        f"a_bar0 = {a_bar0:.4f} vs continuum {expect:.4f} (+- 0.01); "
        f"alpha = 0: {a_bar0_flat:.4f} (0.25 +- 0.01)",
    )


def test_c6_trace_average(paper_scale_refs):
    a_inf = paper_scale_refs["a_inf"]
    bound = 3.0 / np.sqrt(16384.0)
    ok = abs(a_inf) <= bound
    assert report("6d trace average", ok, f"a_inf = {a_inf:.2e} (|.| <= {bound:.4f})")


# ---------------------------------------------------------------------------
# criterion 7: desk-scale double prethermalization
# ---------------------------------------------------------------------------


DP_CFG = {
    "scenario": "double_pretherm",
    "seed": SEED,
    "profile": {"variant": "exponential", "v0": 1.0, "delta_v": 0.5, "d0": None},
    "protocol": {"variant": "step", "f0": 0.12, "period": 2.0},
    "model": {
        "m": 2048,
        "spectrum": {"variant": "cosine_modulated", "alpha": 0.1,
                     "mean_spacing": 32.0 / 2048},
        "observable": {"kind": "eth", "a0_plus": 1.0, "a0_minus": 0.25},
        "initial_state": {"kind": "filtered_random", "e_center": 12.0, "delta_e": 4.0,
                          "q": "one_plus_kappa_a", "kappa": 1.0, "sector": "even"},
        "method": "piecewise_exact",
    },
    "grid": {"t_max": 160.0, "n_out": 1600},
    "prediction": {"t_max": 10.0},
}


@pytest.fixture(scope="module")
def dp_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("double_pretherm")
    return harness.run(DP_CFG, out_dir)


@pytest.mark.slow
def test_c7_prediction_tracks_simulation(dp_run):
    rms = dp_run["metrics"]["rms_full"]["rms"]
    window = dp_run["metrics"]["rms_full"]["window"]
    ok = rms < 0.05 and window[1] == 5 * DP_CFG["protocol"]["period"]
    assert report("7a dp rms over [0, 5T]", ok, f"rms {rms:.4f} (< 0.05)")


@pytest.mark.slow
def test_c7_band_between_references(dp_run):
    band = dp_run["metrics"]["band"]
    lo, hi = sorted((band["a_th"], band["a_bar0"]))
    ok = lo <= band["center"] <= hi
    assert report("7b oscillation band", ok,
                  f"center {band['center']:.4f} within [{lo:.4f}, {hi:.4f}]")


@pytest.mark.slow
def test_c7_heating(dp_run):
    heat = dp_run["metrics"]["heating"]
    drift = dp_run["metrics"]["undriven_h0_drift"]
    ok = heat["h0_last_period"] > heat["h0_first_period"] and drift <= 1e-10
    assert report(
        "7c heating", ok,
        f"<H0> first {heat['h0_first_period']:.4f} -> last {heat['h0_last_period']:.4f}, "
        f"undriven drift {drift:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 8: weak/strong crossover amplitude
# ---------------------------------------------------------------------------


def test_c8_crossover_range():
    eps = 2.0**-9
    # documented vtilde(0) choices per band width
    panels = {
        "dv=0.5, v0=1": ap.crossover_amplitude(exp_profile(v0=1.0, dv=0.5), eps),
        "dv=4, v0=4": ap.crossover_amplitude(exp_profile(v0=4.0, dv=4.0), eps),
    }
    ok = any(0.01 <= v <= 0.02 for v in panels.values())
    assert report("8 crossover amplitude", ok,
                  f"{ {k: f'{v:.4f}' for k, v in panels.items()} } (>= 1 in [0.01, 0.02])")


# ---------------------------------------------------------------------------
# criterion 9: determinism
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c9_determinism(fidelity_runs, tmp_path):
    rerun_dir = tmp_path / "rerun"
    harness.run(FIDELITY_POINTS["step_a"], rerun_dir)
    files = ["simulation.csv", "prediction.csv", "approximations.csv", "joined.csv"]
    same = [
        (rerun_dir / f).read_bytes() == (fidelity_runs["step_a"]["dir"] / f).read_bytes()
        for f in files
    ]
    ok = all(same)
    assert report("9 determinism", ok, f"bitwise identical CSVs: {dict(zip(files, same))}")
