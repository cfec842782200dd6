"""Random-matrix models and exact propagation."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from typresp import profiles, protocols, rmt
from typresp.errors import ConfigError, EmptyWindowError, NormDriftError


def exp_profile(v0=1.0, dv=0.5, d0=512.0):
    return profiles.PerturbationProfile(variant="exponential", v0=v0, delta_v=dv, d0=d0)


def small_fidelity_model(m=256, eps=1.0 / 64, f_seed=1, dv=0.5):
    spec = rmt.SpectrumSpec(m=m, variant="flat", spacing=eps)
    e = spec.energies()
    prof = exp_profile(dv=dv, d0=1.0 / eps)
    v = rmt.sample_v(e, prof, f_seed)
    a = rmt.fidelity_observable(m, m // 2)
    psi = rmt.build_initial_state(e, "eigenstate", f_seed, index=m // 2)
    return rmt.RandomMatrixModel(energies=e, v_matrix=v, observable=a, initial_state=psi)


def bits(a):
    """The raw 64-bit words of a float or complex array: equal means bit for bit."""
    return np.ascontiguousarray(a).view(np.uint64)


def dense_observable(model):
    """The model's observable as a dense matrix (a 1-d observable is diagonal)."""
    a = model.observable
    return np.diag(a).astype(complex) if a.ndim == 1 else a


# --- spectra -------------------------------------------------------------------


def test_flat_spectrum():
    spec = rmt.SpectrumSpec(m=8, variant="flat", spacing=0.25)
    assert np.allclose(spec.energies(), 0.25 * np.arange(8))
    assert spec.e_top == 2.0


def test_cosine_spectrum_mean_spacing_and_density():
    spec = rmt.SpectrumSpec(m=4096, variant="cosine_modulated", alpha=0.1,
                            mean_spacing=2.0**-9)
    e = spec.energies()
    assert e[0] == 0.0
    spacings = np.diff(e)
    # mean spacing normalized over the full span
    assert spec.e_top / spec.m == pytest.approx(2.0**-9, rel=1e-12, abs=0.0)
    assert (e[-1] + spacings[-1]) == pytest.approx(spec.e_top, rel=1e-9, abs=0.0)
    # density of states peaks in the middle: smallest spacings there
    assert spacings[spec.m // 2] < spacings[5]
    assert spacings.min() == pytest.approx(2.0**-9 / 1.1, rel=1e-6, abs=0.0)
    # E_mu = sum_{k < mu} eps0 [1 + alpha (1 + cos(2 pi k / m))] in closed form,
    # at this size and at the paper geometry
    for m in (4096, 16384):
        spec = rmt.SpectrumSpec(m=m, variant="cosine_modulated", alpha=0.1,
                                mean_spacing=2.0**-9)
        eps0, mu = 2.0**-9 / 1.1, np.arange(m)
        closed = eps0 * (1.1 * mu + 0.1 * np.sin(np.pi * mu / m)
                         * np.cos(np.pi * (mu - 1) / m) / np.sin(np.pi / m))
        np.testing.assert_allclose(spec.energies(), closed, rtol=1e-12, atol=0.0)


# --- V sampling -----------------------------------------------------------------


def test_sample_v_hermitian_and_reproducible():
    e = rmt.SpectrumSpec(m=128, variant="flat", spacing=1 / 64).energies()
    prof = exp_profile(d0=64.0)
    v1 = rmt.sample_v(e, prof, 42)
    v2 = rmt.sample_v(e, prof, 42)
    v3 = rmt.sample_v(e, prof, 43)
    assert np.max(np.abs(v1 - v1.conj().T)) == 0.0
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, v3)


def test_sample_v_variance_profile():
    # binned |V_{mu nu}|^2 reproduces vtilde within 5% per bin (>= 1e4 samples)
    m = 2048
    eps = 2.0**-9
    e = rmt.SpectrumSpec(m=m, variant="flat", spacing=eps).energies()
    prof = exp_profile(dv=0.5, d0=1 / eps)
    v = rmt.sample_v(e, prof, 7)
    iu = np.triu_indices(m, 1)
    de = e[iu[1]] - e[iu[0]]
    vv = np.abs(v[iu]) ** 2
    edges = np.linspace(0.0, 1.0, 9)  # within 2 delta_v
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (de >= lo) & (de < hi)
        assert sel.sum() >= 10_000
        expected = prof.vtilde(de[sel]).mean()
        assert vv[sel].mean() == pytest.approx(expected, rel=0.05, abs=0.0)
    # diagonal variance is vtilde(0)
    diag = np.real(np.diag(v))
    assert np.mean(diag**2) == pytest.approx(prof.vtilde(0.0), rel=0.15, abs=0.0)


def triu_sample_v(energies, profile, master_seed):
    """sample_v by index arrays and v += v^H: the reference for the row-wise fill."""
    rng = rmt._rng(master_seed, "v_matrix")
    m = len(energies)
    iu = np.triu_indices(m, 1)
    sig = np.sqrt(0.5 * profile.vtilde(energies[iu[0]] - energies[iu[1]]))
    v = np.zeros((m, m), dtype=complex)
    v[iu] = sig * (rng.standard_normal(iu[0].size) + 1j * rng.standard_normal(iu[0].size))
    v += v.conj().T
    v[np.diag_indices(m)] = np.sqrt(profile.vtilde(0.0)) * rng.standard_normal(m)
    return v


def triu_eth_observable(energies, e_top, a0_plus, a0_minus, master_seed):
    """build_eth_observable by index arrays and a += a^H: the reference for the row-wise fill."""
    m = len(energies)
    rng = rmt._rng(master_seed, "observable_offdiag")
    iu = np.triu_indices(m, 1)
    a = np.zeros((m, m), dtype=complex)
    a[iu] = (rng.standard_normal(iu[0].size) + 1j * rng.standard_normal(iu[0].size)) * np.sqrt(
        0.5 / m
    )
    a += a.conj().T
    a[np.diag_indices(m)] = rmt.eth_diagonal(energies, e_top, a0_plus, a0_minus, master_seed)
    return a


# the tabulated profile ends at E = 0.7, inside every spectrum below, so far
# entries of V are signed zeros
SAMPLING_PROFILES = {
    "exponential": exp_profile(d0=64.0),
    "tabulated": profiles.PerturbationProfile(variant="tabulated", d0=64.0,
                                              energies=np.array([0.0, 0.3, 0.7]),
                                              values=np.array([1.0, 0.5, 0.0])),
}


@pytest.mark.parametrize("m", [2, 3, 64, 257])
@pytest.mark.parametrize("variant", rmt.SPECTRUM_VARIANTS)
@pytest.mark.parametrize("profile", SAMPLING_PROFILES)
def test_hermitian_sampling_matches_index_array_reference(m, variant, profile):
    # bit for bit (stronger than np.array_equal), so signed zeros match too
    spec = rmt.SpectrumSpec(m=m, variant=variant, spacing=1 / 64, alpha=0.1,
                            mean_spacing=1 / 64)
    e = spec.energies()
    m_even = m - m % 2
    for seed in (0, 1, 7):
        v = rmt.sample_v(e, SAMPLING_PROFILES[profile], seed)
        ref = triu_sample_v(e, SAMPLING_PROFILES[profile], seed)
        np.testing.assert_array_equal(bits(v), bits(ref))
        a = rmt.build_eth_observable(e[:m_even], spec.e_top, 1.0, 0.25, seed)
        ref = triu_eth_observable(e[:m_even], spec.e_top, 1.0, 0.25, seed)
        np.testing.assert_array_equal(bits(a), bits(ref))


def test_sample_v_memory_stays_near_its_output():
    # rows are drawn into the output and mirrored by m x 32 blocks: no index
    # arrays and no m x m conjugate transpose beside it
    m = 512
    e = rmt.SpectrumSpec(m=m, variant="flat", spacing=1 / 64).energies()
    prof = exp_profile(d0=64.0)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        v = rmt.sample_v(e, prof, 3)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak - v.nbytes < 0.6 * 16 * m * m


# --- observables -----------------------------------------------------------------


def test_eth_observable_structure():
    spec = rmt.SpectrumSpec(m=256, variant="flat", spacing=1 / 8)
    e = spec.energies()
    a = rmt.build_eth_observable(e, spec.e_top, 1.0, 0.25, 5)
    assert np.max(np.abs(a - a.conj().T)) == 0.0
    # diagonal matches the standalone diagonal fast path bit for bit
    assert np.array_equal(np.real(np.diag(a)), rmt.eth_diagonal(e, spec.e_top, 1.0, 0.25, 5))
    # off-diagonal GUE variance 1/m
    iu = np.triu_indices(256, 1)
    assert np.mean(np.abs(a[iu]) ** 2) == pytest.approx(1 / 256, rel=0.05, abs=0.0)
    with pytest.raises(ValueError):
        rmt.build_eth_observable(e[:255], spec.e_top, 1.0, 0.25, 5)  # odd m


def test_eth_diagonal_values_at_paper_geometry():
    # a_plus(E) = a0 (1 - E/16) on the 32-wide spectrum: 0.25 at E = 12, and
    # the two-sector window average approaches (a_plus + a_minus)/2
    spec = rmt.SpectrumSpec(m=16384, variant="cosine_modulated", alpha=0.1,
                            mean_spacing=2.0**-9)
    e = spec.energies()
    diag = rmt.eth_diagonal(e, spec.e_top, 1.0, 0.25, 3)
    even = np.arange(16384) % 2 == 0
    near = np.abs(e - 12.0) < 0.5
    assert diag[even & near].mean() == pytest.approx(0.25, abs=5e-3)
    assert diag[~even & near].mean() == pytest.approx(0.0625, abs=5e-3)
    assert diag[near].mean() == pytest.approx((0.25 + 0.0625) / 2, abs=5e-3)
    # trace average vanishes by construction
    assert abs(diag.mean()) <= 3 / np.sqrt(16384)


# --- initial states ---------------------------------------------------------------


def test_filtered_state_occupation_tail():
    spec = rmt.SpectrumSpec(m=4096, variant="flat", spacing=1 / 256)
    e = spec.energies()
    psi = rmt.build_initial_state(e, "filtered_random", 2, e_center=8.0, delta_e=0.5)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    rho = np.abs(psi) ** 2
    tail = rho[np.abs(e - 8.0) > 4 * 0.5].sum()
    assert tail < 1e-3


def test_filtered_state_sector_and_q():
    spec = rmt.SpectrumSpec(m=512, variant="flat", spacing=1 / 32)
    e = spec.energies()
    a = rmt.build_eth_observable(e, spec.e_top, 1.0, 0.25, 9)
    psi_plain = rmt.build_initial_state(e, "filtered_random", 9, e_center=8.0, delta_e=1.0,
                                        sector="even")
    assert np.all(psi_plain[1::2] == 0.0)
    psi_q = rmt.build_initial_state(e, "filtered_random", 9, e_center=8.0, delta_e=1.0,
                                    sector="even", q="one_plus_kappa_a", kappa=1.0,
                                    observable=a)
    assert np.any(psi_q[1::2] != 0.0)  # the observable mixes the sectors
    with pytest.raises(ValueError):
        rmt.build_initial_state(e, "filtered_random", 9, q="one_plus_kappa_a")


def test_filtered_state_empty_window():
    spec = rmt.SpectrumSpec(m=128, variant="flat", spacing=1 / 64)
    with pytest.raises(EmptyWindowError):
        rmt.build_initial_state(spec.energies(), "filtered_random", 1,
                                e_center=1e6, delta_e=0.5)


def test_q_refuses_a_diagonal_observable():
    # Q = 1 + kappa A takes the dense two-sector A: a 1-d A is refused, in either sector
    e = rmt.SpectrumSpec(m=64, variant="flat", spacing=0.5).energies()
    diag = rmt.eth_diagonal(e, 32.0, 1.0, 0.25, 1)
    for sector in rmt.SECTORS:
        with pytest.raises(ValueError, match="dense observable matrix"):
            rmt.build_initial_state(e, "filtered_random", 1, e_center=8.0, delta_e=1.0,
                                    sector=sector, q="one_plus_kappa_a", observable=diag)


def test_check_filter_judges_the_levels_the_state_occupies():
    # the rule build_initial_state applies, read without a sample: a filter on E_1
    e = rmt.SpectrumSpec(m=64, variant="flat", spacing=0.5).energies()
    rmt.check_filter(e, float(e[1]), 0.01)
    rmt.check_filter(e, float(e[1]), 0.01, "even", "one_plus_kappa_a")  # a dense A spreads it
    for q, kappa in (("identity", 1.0), ("one_plus_kappa_a", 0.0)):  # kappa 0: Q is the identity
        with pytest.raises(EmptyWindowError):
            rmt.check_filter(e, float(e[1]), 0.01, "even", q, kappa)
    # the nearest level E_0 weighs exp(-10.4^2 / 4) = 1.8e-12 at 10.4 delta_e, 6.3e-13 at 10.6
    rmt.check_filter(e, -10.4 * 0.5, 0.5)
    with pytest.raises(EmptyWindowError):
        rmt.check_filter(e, -10.6 * 0.5, 0.5)


def test_eigenstate_bounds():
    e = rmt.SpectrumSpec(m=16, variant="flat", spacing=1.0).energies()
    with pytest.raises(ValueError):
        rmt.build_initial_state(e, "eigenstate", 1, index=16)


# --- references --------------------------------------------------------------------


def test_fidelity_observable_is_the_projector_diagonal():
    a = rmt.fidelity_observable(8, 3)
    assert a.shape == (8,) and a.dtype == float
    np.testing.assert_array_equal(np.diag(a), np.outer(np.eye(8)[3], np.eye(8)[3]))


def test_reference_constants_fidelity():
    model = small_fidelity_model()
    m = len(model.energies)
    refs = rmt.reference_constants(model.energies, model.observable,
                                   np.abs(model.initial_state) ** 2, None)
    # observable projects on the initial state: diagonal ensemble stays 1
    assert refs["a_bar0"] == 1.0
    assert refs["a_inf"] == pytest.approx(1 / m, rel=1e-12, abs=0.0)
    assert refs["a_th"] == pytest.approx(1 / m, rel=1e-12, abs=0.0)
    assert refs["d0_window"] == pytest.approx(64.0, rel=1e-2, abs=0.0)


def test_reference_constants_window_sensitivity():
    spec = rmt.SpectrumSpec(m=2048, variant="cosine_modulated", alpha=0.1,
                            mean_spacing=32.0 / 2048)
    e = spec.energies()
    diag = rmt.eth_diagonal(e, spec.e_top, 1.0, 0.25, 4)
    psi = rmt.build_initial_state(e, "filtered_random", 4, e_center=12.0, delta_e=4.0,
                                  sector="even")
    refs = rmt.reference_constants(e, diag, np.abs(psi) ** 2, (4.0, 20.0))
    for key in ("a_th", "a_th_w15", "a_th_w30", "d0_window", "d0_window_w15", "a_bar0"):
        assert key in refs
    with pytest.raises(EmptyWindowError):
        rmt.reference_constants(e, diag, np.abs(psi) ** 2, (1e5, 1e5 + 1.0))


@settings(max_examples=60, deadline=None)
@given(spacing=st.floats(0.05, 2.0), level=st.integers(0, 15), side=st.sampled_from([-1, 1]),
       factor=st.floats(0.01, 10.0), delta_e=st.floats(0.01, 2.0))
def test_window_levels_are_the_closed_window_and_widen_to_supersets(spacing, level, side,
                                                                    factor, delta_e):
    # a window edge computed to land on a level: the level is in [lo, hi] exactly when the
    # comparison says so, and every wider window holds what [lo, hi] holds
    e = rmt.SpectrumSpec(m=16, variant="flat", spacing=spacing).energies()
    e_center = e[level] + side * factor * delta_e
    window = (e_center - factor * delta_e, e_center + factor * delta_e)
    closed = (e >= window[0]) & (e <= window[1])
    if not closed.any():
        with pytest.raises(EmptyWindowError):
            rmt.window_levels(e, window)
        return
    assert np.array_equal(rmt.window_levels(e, window), closed)
    assert rmt.window_density(e, window) == np.count_nonzero(closed) / (window[1] - window[0])
    for scale in (1.5, 3.0):
        assert np.all(rmt.window_levels(e, window, scale)[closed])


# --- propagation -------------------------------------------------------------------


def test_undriven_matches_driven_at_zero_amplitude():
    model = small_fidelity_model()
    proto = protocols.DrivingProtocol(variant="step", f0=0.0, period=0.5)
    t = np.linspace(0.0, 2.0, 41)
    traj = rmt.propagate(model, proto, t, method="piecewise_exact")
    assert np.max(np.abs(traj.a_series - traj.undriven_a_series)) < 1e-10
    # fidelity of an eigenstate without driving stays exactly 1
    assert np.max(np.abs(traj.undriven_a_series - 1.0)) < 1e-12


def test_piecewise_vs_trotter():
    model = small_fidelity_model()
    proto = protocols.DrivingProtocol(variant="step", f0=0.2, period=0.5)
    t = np.linspace(0.0, 2.0, 41)
    pe = rmt.propagate(model, proto, t, method="piecewise_exact")
    tr = rmt.propagate(model, proto, t, method="trotter", step=0.5 / 200)
    assert np.max(np.abs(pe.a_series - tr.a_series)) < 1e-4
    assert np.max(np.abs(pe.norm_series - 1.0)) < 1e-9
    assert np.max(np.abs(tr.norm_series - 1.0)) < 1e-9


def test_trotter_second_order_convergence():
    model = small_fidelity_model(m=128)
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.3, period=0.5)
    t = np.linspace(0.0, 1.5, 16)
    ref = rmt.propagate(model, proto, t, method="trotter", step=0.5 / 3200).a_series
    errs = []
    for step in (0.5 / 100, 0.5 / 200, 0.5 / 400):
        a = rmt.propagate(model, proto, t, method="trotter", step=step).a_series
        errs.append(np.max(np.abs(a - ref)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5, abs=0.0)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.5, abs=0.0)


def test_undriven_energy_constant():
    model = small_fidelity_model()
    h0 = rmt.undriven_series(model, np.linspace(0, 5, 20))[1]
    assert np.ptp(h0) < 1e-10


def small_eth_model(m=64, spacing=1.0 / 8, seed=5):
    spec = rmt.SpectrumSpec(m=m, variant="flat", spacing=spacing)
    e = spec.energies()
    v = rmt.sample_v(e, exp_profile(d0=1.0 / spacing), seed)
    a = rmt.build_eth_observable(e, spec.e_top, 1.0, 0.25, seed)
    psi = rmt.build_initial_state(e, "filtered_random", seed, e_center=4.0, delta_e=1.0)
    return rmt.RandomMatrixModel(energies=e, v_matrix=v, observable=a, initial_state=psi)


def expm_loop(model, protocol, t_grid):
    """<A>, <H0>, norm by scipy's expm from t = 0 to each output time in turn."""
    t0, t1, values = zip(*protocol.piecewise_segments(float(t_grid[-1])))
    bounds = t0 + t1[-1:]
    props = {}  # (f, duration) -> its propagator; whole segments repeat
    rows = []
    for t in t_grid:
        psi = model.initial_state
        for k, fv in enumerate(values):
            tau = min(t, bounds[k + 1]) - bounds[k]
            if (fv, tau) not in props:
                h = np.diag(model.energies) + fv * model.v_matrix
                props[fv, tau] = expm(-1j * tau * h)
            psi = props[fv, tau] @ psi
            if t <= bounds[k + 1]:
                break
        rows.append((np.vdot(psi, model.observable @ psi).real,
                     np.vdot(psi, model.energies * psi).real, np.linalg.norm(psi)))
    return np.array(rows).T


def split_step_loop(model, protocol, t_grid, step):
    """<A>, <H0>, norm by the split step with two GEMVs (u^H, then u) per step."""
    n_sub, h = rmt.split_step(protocol, float(t_grid[1] - t_grid[0]), step, float(t_grid[-1]))
    w, u = rmt._eigh(model.v_matrix)
    half = np.exp(-1j * model.energies * (h / 2.0))
    obs = dense_observable(model)

    def row(psi):
        return (np.vdot(psi, obs @ psi).real, np.vdot(psi, model.energies * psi).real,
                np.linalg.norm(psi))

    psi = model.initial_state
    rows = [row(psi)]
    f_mid = protocols.eval_f(protocol, (np.arange((len(t_grid) - 1) * n_sub) + 0.5) * h)
    for k, fk in enumerate(f_mid):
        psi = half * psi
        psi = u @ (np.exp(-1j * fk * w * h) * (u.conj().T @ psi))
        psi = half * psi
        if (k + 1) % n_sub == 0:
            rows.append(row(psi))
    return np.array(rows).T


def assert_rows_match(traj, ref, atol):
    np.testing.assert_allclose(traj.a_series, ref[0], rtol=0.0, atol=atol)
    np.testing.assert_allclose(traj.h0_series, ref[1], rtol=0.0, atol=atol)
    np.testing.assert_allclose(traj.norm_series, ref[2], rtol=0.0, atol=atol)


@pytest.mark.parametrize("make_model", [small_eth_model, small_fidelity_model])
def test_trotter_matches_two_gemv_split_step(make_model):
    # a non-diagonal A exercises the e^{-iH0h/2} phase of the output state;
    # 200 outputs cross six readout blocks, and n_sub = 3 puts steps between them
    model = make_model()
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.3, period=0.7)
    t = np.linspace(0.0, 2.0, 201)
    traj = rmt.propagate(model, proto, t, method="trotter", step=0.004)
    h = rmt.split_step(proto, float(t[1]), 0.004, float(t[-1]))[1]
    assert h == pytest.approx(0.01 / 3, rel=1e-12, abs=0.0)
    assert_rows_match(traj, split_step_loop(model, proto, t, 0.004), 1e-12)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(4, 96), n_sub=st.integers(1, 4), n_out=st.integers(1, 150),
       kind=st.sampled_from(["eth", "fidelity"]))
def test_trotter_matches_two_gemv_split_step_any_size(m, n_sub, n_out, kind):
    model = small_eth_model(m=m - m % 2) if kind == "eth" else small_fidelity_model(m=m)
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.3, period=0.7)
    t = np.linspace(0.0, 0.02 * n_out, n_out + 1)
    traj = rmt.propagate(model, proto, t, method="trotter", step=0.02 / n_sub)
    h = rmt.split_step(proto, float(t[1]), 0.02 / n_sub, float(t[-1]))[1]
    assert h == pytest.approx(0.02 / n_sub, rel=1e-9, abs=0.0)
    assert_rows_match(traj, split_step_loop(model, proto, t, 0.02 / n_sub), 1e-12)


def test_trotter_memory_stays_two_matrices_and_blocks():
    # a first run, without a warm-up: V's eigenvectors, the packed half of V and the m x 32
    # blocks stay under two m x m arrays and six blocks beside V and A
    m = 512
    model = small_eth_model(m=m)
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.3, period=0.7)
    t = np.linspace(0.0, 1.0, 101)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        rmt.propagate(model, proto, t, method="trotter", step=0.01)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < (2 * m + 6 * rmt._BLOCK) * m * 16


@pytest.mark.parametrize("make_model", [small_fidelity_model, small_eth_model],
                         ids=["fidelity", "eth"])
def test_trotter_memory_stays_eigenvectors_and_half_an_array(make_model):
    # evr works in V's own storage and M takes its place, with V's upper triangle kept packed
    # meanwhile: over V and A, a warmed-up run holds V's eigenvectors, the packed half of V and
    # m x 32 blocks, never a copy of V
    m = 512
    model = make_model(m=m)
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.3, period=0.7)
    t = np.linspace(0.0, 1.0, 101)
    rmt.propagate(model, proto, t, method="trotter", step=0.01)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        rmt.propagate(model, proto, t, method="trotter", step=0.01)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < (3 * m // 2 + 6 * rmt._BLOCK) * m * 16


def test_split_step_memory_does_not_grow_with_the_step_count():
    # the drive is evaluated 32 midpoints at a time, so the split step's traced peak is the same
    # at 32 steps an output step (2 outputs: two chunks of 32) and at 8192 (512 chunks); the
    # warm-up call first fills numpy's caches
    model = small_fidelity_model(m=16)
    proto = protocols.DrivingProtocol(variant="pseudorandom_a", f0=0.3, period=0.7)
    t = np.linspace(0.0, 0.2, 3)

    def peak(n_sub):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            rmt._propagate_trotter(model, proto, t, 0.1 / n_sub)
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    peak(32)
    assert peak(8192) <= peak(32) + 2**12


def test_piecewise_memory_does_not_grow_with_the_switch_count():
    # the drive's pieces are drawn one at a time, so a piecewise run's traced peak is the same
    # at 2**13 pieces to t = 0.25 as at 2**5 (2 outputs); the warm-up call fills numpy's caches
    model = small_fidelity_model(m=16)
    t = np.linspace(0.0, 0.25, 3)

    def peak(n_pieces):
        proto = protocols.DrivingProtocol(variant="step", f0=0.3, period=0.5 / n_pieces)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            rmt.propagate(model, proto, t, method="piecewise_exact")
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    peak(2**5)
    assert peak(2**13) <= peak(2**5) + 2**12


def test_piecewise_memory_does_not_grow_with_the_output_count():
    # each f value's output states fill its own m x 32 buffer, read out whenever it is full, so
    # nothing is kept per output: with one output per piece (period 2 dt), the traced peak grows
    # by far less than the 2 * 16 m bytes per output that keeping start vectors would cost
    m = 128
    model = small_eth_model(m=m)

    def peak(n_out):
        t = np.linspace(0.0, 0.05 * (n_out - 1), n_out)
        proto = protocols.DrivingProtocol(variant="step", f0=0.3, period=0.1)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            rmt.propagate(model, proto, t, method="piecewise_exact")
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    peak(2**6)
    assert peak(2**11) - peak(2**6) < 4 * m * (2**11 - 2**6)


def test_piecewise_memory_does_not_depend_on_how_outputs_fall_into_pieces():
    # the buffers are the same m x 32 blocks however many outputs a piece holds: one a piece
    # (period 2 dt) and ten a piece (period 20 dt) peak within one m-vector of each other
    m = 128
    model = small_eth_model(m=m)
    t = np.linspace(0.0, 0.05 * (2**11 - 1), 2**11)

    def peak(period):
        proto = protocols.DrivingProtocol(variant="step", f0=0.3, period=period)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            rmt.propagate(model, proto, t, method="piecewise_exact")
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    peak(1.0)
    assert abs(peak(0.1) - peak(1.0)) < 16 * m


def test_block_readout_holds_one_and_a_half_blocks_beyond_its_buffer():
    # with a basis, a full buffer's read-out holds its states basis @ buffer (one m x _BLOCK
    # block) and their populations, squared in place (half a block of float64), while A @ states
    # goes into the buffer the states were gathered in; the rows of _BLOCK values read out
    # stay under one m-vector
    m = 512
    model = small_eth_model(m=m)
    readout = rmt._BlockReadout(model, np.linalg.eigh(model.v_matrix)[1],
                                np.empty((3, rmt._BLOCK)), np.arange(rmt._BLOCK, dtype=float))

    def peak():
        # a flush leaves A @ states in the buffer, whose norms would drift: unit states again
        readout.cols[:] = model.initial_state[:, None]
        readout.idx = list(range(rmt._BLOCK))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            readout.flush()
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    peak()  # the warm-up call fills numpy's caches
    assert peak() <= 1.5 * rmt._BLOCK * m * 16 + 16 * m


def test_piecewise_memory_stays_one_eigenbasis_per_value():
    # K = 2 distinct f values: their eigenbases, and nothing m x m beside them, since LAPACK
    # works on H0 + f V in V's own lower triangle, not in a buffer of its own
    m, k = 512, 2
    model = small_eth_model(m=m)
    proto = protocols.DrivingProtocol(variant="step", f0=0.3, period=0.5)
    t = np.linspace(0.0, 2.0, 201)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        rmt.propagate(model, proto, t, method="piecewise_exact")
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < (k * m + 6 * rmt._BLOCK) * m * 16


def signed_zero_model(m=64):
    """small_eth_model with the V of the tabulated sampling profile, whose zero tail leaves
    negative zeros in the imaginary part of V's upper triangle."""
    model = small_eth_model(m=m)
    model.v_matrix = rmt.sample_v(model.energies, SAMPLING_PROFILES["tabulated"], 5)
    assert np.any(np.signbit(model.v_matrix.imag[model.v_matrix.imag == 0]))
    return model


# the ids name V's layout: C-ordered, as sample_v makes it and propagate takes it
@pytest.mark.parametrize("method", ["piecewise_exact", "trotter"],
                         ids=["piecewise_exact-C", "trotter-C"])
def test_propagate_leaves_the_model_unchanged(method):
    # piecewise propagation lends V's lower triangle and diagonal to LAPACK, the split step
    # all of V's storage; either way V comes back bit for bit, signed zeros included
    proto = protocols.DrivingProtocol(variant="step", f0=0.3, period=0.5)
    for model in (small_eth_model(), signed_zero_model()):
        before = {k: getattr(model, k).copy() for k in ("v_matrix", "observable", "initial_state")}
        rmt.propagate(model, proto, np.linspace(0.0, 1.0, 21), method=method, step=0.05)
        for key, value in before.items():
            np.testing.assert_array_equal(bits(getattr(model, key)), bits(value))


@pytest.mark.parametrize("method", ["piecewise_exact", "trotter"], ids=["C", "trotter-C"])
def test_lent_v_is_restored_when_eigh_raises(monkeypatch, method):
    model = signed_zero_model(m=150)  # 32-row blocks: four whole ones and a part
    before = model.v_matrix.copy()

    def fail(h, lower=True):
        assert np.shares_memory(h, model.v_matrix)  # LAPACK works in V's own storage
        tri = np.tri(len(h), dtype=bool)
        h[tri if lower else tri.T] = np.nan
        raise np.linalg.LinAlgError("no convergence")  # its triangle and diagonal overwritten

    monkeypatch.setattr(rmt, "_eigh", fail)
    proto = protocols.DrivingProtocol(variant="step", f0=0.3, period=0.5)
    with pytest.raises(np.linalg.LinAlgError, match="no convergence"):
        rmt.propagate(model, proto, np.linspace(0.0, 1.0, 21), method=method, step=0.05)
    np.testing.assert_array_equal(bits(model.v_matrix), bits(before))


def test_lent_v_is_restored_when_the_split_step_drifts(monkeypatch):
    # eigenvectors scaled by 1 + 1e-6 put the norm past NORM_TOL at the first output after
    # t = 0, so the run raises inside the step loop, after M has taken V's place
    eigh = rmt._eigh
    monkeypatch.setattr(rmt, "_eigh", lambda *args, **kwargs: (
        lambda w, u: (w, (1 + 1e-6) * u))(*eigh(*args, **kwargs)))
    model = signed_zero_model(m=150)
    before = model.v_matrix.copy()
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.3, period=0.7)
    with pytest.raises(NormDriftError, match="norm drifted"):
        rmt.propagate(model, proto, np.linspace(0.0, 1.0, 21), method="trotter", step=0.05)
    np.testing.assert_array_equal(bits(model.v_matrix), bits(before))


def test_split_step_shows_evr_a_fortran_copy_of_v(monkeypatch):
    # the buffer lent to evr is V's own storage, and its lower triangle and diagonal are
    # bitwise those of np.array(V, order="F"), which the split step once consumed
    model = signed_zero_model(m=150)
    copy = np.array(model.v_matrix, order="F")
    eigh = rmt._eigh

    def check(h, lower=True):
        assert lower and h.flags.f_contiguous and np.shares_memory(h, model.v_matrix)
        np.testing.assert_array_equal(bits(np.tril(h)), bits(np.tril(copy)))
        return eigh(h, lower)

    monkeypatch.setattr(rmt, "_eigh", check)
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.3, period=0.7)
    rmt.propagate(model, proto, np.linspace(0.0, 1.0, 21), method="trotter", step=0.05)


def spoil_lower(v):
    v[5, 2] += 1e-3
    return v


def spoil_signed_zero(v):
    i, j = np.argwhere((np.tril(v.real, -1) == 0) & np.tri(len(v), k=-1, dtype=bool))[0]
    v.real[i, j] = -0.0  # equal to the mirror's +0, but not bit for bit
    return v


def spoil_read_only(v):
    v.flags.writeable = False
    return v


@pytest.mark.parametrize("method", ["piecewise_exact", "trotter"])
@pytest.mark.parametrize("spoil", [spoil_lower, spoil_signed_zero, spoil_read_only,
                                   np.asfortranarray, lambda v: v.real.copy()],
                         ids=["lower", "signed_zero", "read_only", "fortran_order", "float64"])
def test_propagate_refuses_a_v_it_could_not_restore(monkeypatch, spoil, method):
    # a V whose lower triangle is not bitwise the mirror of its upper one, that cannot be
    # written, or that is not C-ordered complex128 (its mirror intact) is refused before any
    # eigendecomposition, and left as it was
    monkeypatch.setattr(rmt, "_eigh", lambda *args, **kwargs: pytest.fail("_eigh ran"))
    model = signed_zero_model()
    model.v_matrix = spoil(model.v_matrix)
    before = model.v_matrix.copy()
    proto = protocols.DrivingProtocol(variant="step", f0=0.3, period=0.5)
    with pytest.raises(ValueError, match=r"writable, C-ordered complex128 array, .* bitwise 0 "
                                         r"\+ conj of its upper"):
        rmt.propagate(model, proto, np.linspace(0.0, 1.0, 21), method=method, step=0.05)
    np.testing.assert_array_equal(bits(model.v_matrix), bits(before))


def test_eigh_consumes_fortran_buffer_with_identical_result():
    model = small_eth_model()
    h = np.diag(model.energies) + 0.3 * model.v_matrix
    w, u = rmt._eigh(h.copy())
    buf = np.asfortranarray(h)
    wf, uf = rmt._eigh(buf)
    np.testing.assert_array_equal(wf, w)
    np.testing.assert_array_equal(bits(uf), bits(u))
    assert not np.array_equal(buf, h)  # LAPACK worked in the buffer itself


@pytest.mark.parametrize("method", ["piecewise_exact", "trotter"])
def test_diagonal_fidelity_readout_matches_dense_projector(method):
    model = small_fidelity_model(m=128)
    dense = rmt.RandomMatrixModel(model.energies, model.v_matrix, dense_observable(model),
                                  model.initial_state)
    proto = protocols.DrivingProtocol(variant="step", f0=0.2, period=0.5)
    t = np.linspace(0.0, 2.0, 81)
    traj = rmt.propagate(model, proto, t, method=method, step=0.005)
    ref = rmt.propagate(dense, proto, t, method=method, step=0.005)
    np.testing.assert_allclose(traj.a_series, ref.a_series, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(traj.h0_series, ref.h0_series)
    np.testing.assert_array_equal(traj.norm_series, ref.norm_series)
    # the readout of a diagonal observable is the population of its index
    states = np.random.default_rng(3).standard_normal((128, 70)) * (1 + 0.5j)
    states /= np.linalg.norm(states, axis=0)
    rows = rmt._readout(model, states)
    np.testing.assert_allclose(rows[0], np.abs(states[64]) ** 2, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(rmt._readout(dense, states)[0], rows[0], rtol=0.0, atol=1e-15)


def test_readout_blocks_match_per_time_loops():
    # 100 outputs per segment: each segment crosses a 32-output block
    # boundary, and the grid crosses two segment switches
    model = small_eth_model()
    t = np.linspace(0.0, 3.0, 301)
    undriven = rmt.undriven_series(model, t)
    for i, ti in enumerate(t):
        psi = np.exp(-1j * model.energies * ti) * model.initial_state
        assert undriven[0, i] == pytest.approx(np.vdot(psi, model.observable @ psi).real,
                                               abs=1e-12)
        assert undriven[1, i] == pytest.approx(np.vdot(psi, model.energies * psi).real,
                                               abs=1e-12)
    proto = protocols.DrivingProtocol(variant="step", f0=0.3, period=2.0)
    traj = rmt.propagate(model, proto, t, method="piecewise_exact")
    assert_rows_match(traj, expm_loop(model, proto, t), 1e-12)
    np.testing.assert_array_equal(traj.undriven_a_series, undriven[0])
    np.testing.assert_array_equal(traj.undriven_h0_series, undriven[1])


def undriven_loop(model, t_grid):
    """Undriven rows as the phase evolution e^{-iH0 t} psi0, read out per _BLOCK outputs
    (the loop the f = 0 piecewise run replaced)."""
    out = np.empty((3, len(t_grid)))
    for s in range(0, len(t_grid), rmt._BLOCK):
        blk = slice(s, s + rmt._BLOCK)
        phases = np.exp(-1j * np.outer(model.energies, t_grid[blk]))
        out[:, blk] = rmt._readout(model, phases * model.initial_state[:, None])
    return out


@pytest.mark.parametrize("make_model", [small_eth_model, small_fidelity_model])
@pytest.mark.parametrize("t", [np.linspace(0.0, 3.0, 301), np.linspace(0.7, 5.2, 130),
                               np.array([2.5])], ids=["from_zero", "from_0.7", "one_point"])
def test_undriven_series_is_bitwise_the_phase_loop(make_model, t):
    model = make_model()
    assert np.array_equal(bits(rmt.undriven_series(model, t)), bits(undriven_loop(model, t)))


@pytest.mark.parametrize("t", [[0.5, 0.1, 2.0, 1.0], [], [[0.0, 1.0]], [-1.0, 0.0]])
def test_undriven_series_rejects_a_bad_grid(t):
    # the piecewise run reads outputs off an increasing grid, so a bad one
    # is refused up front, not read out of order
    with pytest.raises(ValueError, match="increasing and nonnegative"):
        rmt.undriven_series(small_fidelity_model(m=64), t)


# outputs on switch times (0.3 k from linspace lands an ulp off the bound),
# a period shorter than the output step (segments without outputs), one
# constant segment over three readout blocks, f0 = 0 (pure phase evolution),
# the single output t = 0, pieces of 7.5 outputs that straddle the 32-output blocks of both
# values (150 outputs each), and one output a piece (70 or 71 outputs each)
PIECEWISE_GRIDS = {
    "on_switches": (dict(variant="step", f0=0.3, period=0.6), np.linspace(0.0, 2.4, 25)),
    "short_period": (dict(variant="step", f0=0.3, period=0.15), np.linspace(0.0, 2.0, 11)),
    "constant": (dict(variant="constant", f0=0.3), np.linspace(0.0, 2.0, 81)),
    "zero_amplitude": (dict(variant="step", f0=0.0, period=0.5), np.linspace(0.0, 2.0, 21)),
    "t_zero": (dict(variant="step", f0=0.3, period=0.6), np.array([0.0])),
    "straddled_blocks": (dict(variant="step", f0=0.3, period=0.6), np.linspace(0.0, 12.0, 301)),
    "one_output_a_piece": (dict(variant="step", f0=0.3, period=2.0), np.linspace(0.0, 140.0, 141)),
}


@pytest.mark.parametrize("grid", PIECEWISE_GRIDS)
def test_batched_readout_matches_expm_loop(grid):
    model = small_eth_model()
    kwargs, t = PIECEWISE_GRIDS[grid]
    proto = protocols.DrivingProtocol(**kwargs)
    traj = rmt.propagate(model, proto, t, method="piecewise_exact")
    assert_rows_match(traj, expm_loop(model, proto, t), 1e-12)


def test_eigh_residual_orthonormality_and_eigenvalues():
    model = small_fidelity_model(m=256)
    h = np.diag(model.energies) + 0.3 * model.v_matrix
    assert np.any(h.imag != 0)
    w, u = rmt._eigh(h)
    assert np.linalg.norm(h @ u - u * w) < 1e-10
    assert np.linalg.norm(u.conj().T @ u - np.eye(256)) < 1e-10
    np.testing.assert_allclose(w, np.linalg.eigvalsh(h), rtol=0.0, atol=1e-10)


def test_cli_import_leaves_scipy_linalg_unloaded():
    # rmt._eigh imports scipy.linalg at its first call, which keeps it out of
    # every command's start-up time
    src = str(Path(rmt.__file__).resolve().parents[1])
    code = "import sys, typresp.cli; sys.exit('scipy.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=60)
    assert proc.returncode == 0


def test_trotter_norm_drift_names_first_bad_output(monkeypatch):
    # eigenvectors scaled by s = 1 + 1e-8 grow the norm to s^(2k) after k
    # steps: it passes NORM_TOL between outputs 4 (k = 48) and 5 (k = 60),
    # inside the first readout block
    eigh = rmt._eigh
    monkeypatch.setattr(rmt, "_eigh", lambda *args, **kwargs: (
        lambda w, u: (w, (1 + 1e-8) * u))(*eigh(*args, **kwargs)))
    model = small_fidelity_model(m=64)
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.1, period=0.5)
    with pytest.raises(NormDriftError, match=r"norm drifted to 1\.000001200001 at t = 0\.3$"):
        rmt.propagate(model, proto, np.linspace(0.0, 2.4, 41), method="trotter", step=0.005)


def test_trotter_norm_drift_stops_at_the_first_drifting_block(monkeypatch):
    # the eigenvector scaling of test_trotter_norm_drift_names_first_bad_output drifts inside
    # the first block of 32 outputs (12 steps each), so the run raises before the drive is
    # evaluated at any midpoint of the second block's steps
    eigh, eval_f = rmt._eigh, protocols.eval_f
    monkeypatch.setattr(rmt, "_eigh", lambda *args, **kwargs: (
        lambda w, u: (w, (1 + 1e-8) * u))(*eigh(*args, **kwargs)))
    drawn = []
    monkeypatch.setattr(protocols, "eval_f", lambda p, t: drawn.append(np.size(t)) or eval_f(p, t))
    model = small_fidelity_model(m=64)
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.1, period=0.5)
    with pytest.raises(NormDriftError, match=r"at t = 0\.3$"):
        rmt.propagate(model, proto, np.linspace(0.0, 12.0, 201), method="trotter", step=0.005)
    assert 0 < sum(drawn) <= rmt._BLOCK * 12


def test_piecewise_norm_drift_stops_at_the_first_drifting_block(monkeypatch):
    # eigenvectors scaled by s = 1 + 1e-7 give piece k's outputs the norm s^(2k + 2), past
    # NORM_TOL from piece 4 on (t in (1, 1.25]); the f = +0.1 block, full first, holds them.
    # The block raises while V is lent to evr, which must get it back bit for bit
    eigh, read = rmt._eigh, rmt._readout
    monkeypatch.setattr(rmt, "_eigh", lambda *args, **kwargs: (
        lambda w, u: (w, (1 + 1e-7) * u))(*eigh(*args, **kwargs)))
    outputs = []
    monkeypatch.setattr(rmt, "_readout", lambda model, states, *spare: outputs.append(
        states.shape[1]) or read(model, states, *spare))
    model = small_fidelity_model(m=64)
    before = model.v_matrix.copy()
    proto = protocols.DrivingProtocol(variant="step", f0=0.1, period=0.5)
    with pytest.raises(NormDriftError, match=r"norm drifted to 1\.000001000000 at t = 1\.05$"):
        rmt.propagate(model, proto, np.linspace(0.0, 100.0, 2001), method="piecewise_exact")
    assert 0 < sum(outputs) <= 2 * rmt._BLOCK
    np.testing.assert_array_equal(bits(model.v_matrix), bits(before))


@pytest.mark.parametrize("method", ["piecewise_exact", "trotter"])
def test_norm_drift_raises_at_first_output(method):
    model = small_fidelity_model(m=64)
    model.initial_state = 1.01 * model.initial_state
    proto = protocols.DrivingProtocol(variant="step", f0=0.1, period=0.5)
    with pytest.raises(NormDriftError, match=r"norm drifted to 1\.010000000000 at t = 0$"):
        rmt.propagate(model, proto, np.linspace(0.0, 1.0, 21), method=method, step=0.05)


@pytest.mark.parametrize("method", ["piecewise_exact", "trotter"])
def test_nan_state_is_a_norm_drift_at_first_output(method):
    # NaN fails every comparison, so the norm bound is written to fail it too:
    # the undriven series and the driven run each stop at t = 0
    model = small_fidelity_model(m=64)
    model.initial_state = np.where(np.arange(64) == 3, np.nan, model.initial_state)
    proto = protocols.DrivingProtocol(variant="step", f0=0.1, period=0.5)
    t = np.linspace(0.0, 1.0, 21)
    drifted = r"norm drifted to nan at t = 0$"
    with pytest.raises(NormDriftError, match=drifted):
        rmt.propagate(model, proto, t, method=method, step=0.05)
    with pytest.raises(NormDriftError, match=drifted):
        if method == "trotter":
            rmt._propagate_trotter(model, proto, t, 0.05)
        else:
            rmt._propagate_piecewise(model, proto, t)


def test_method_protocol_mismatch():
    model = small_fidelity_model(m=64)
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.1, period=0.5)
    with pytest.raises(ConfigError):
        rmt.propagate(model, proto, np.linspace(0, 1, 11), method="piecewise_exact")
    with pytest.raises(ConfigError):
        rmt.propagate(model, proto, np.linspace(0, 1, 11), method="trotter")  # no step


def test_trotter_step_must_respect_switches():
    model = small_fidelity_model(m=64)
    proto = protocols.DrivingProtocol(variant="step", f0=0.1, period=0.5)
    t = np.linspace(0.0, 1.0, 11)  # dt = 0.1, T/2 = 0.25 not a multiple
    with pytest.raises(ConfigError):
        rmt.propagate(model, proto, t, method="trotter", step=0.1)
    rmt.propagate(model, proto, np.linspace(0.0, 1.0, 21), method="trotter", step=0.05)


SINE = protocols.DrivingProtocol(variant="sinusoid", f0=0.1, period=0.5)


@pytest.mark.parametrize("method,step,t", [
    pytest.param("trotter", None, np.linspace(0.0, 2.0, 201), id="trotter_no_step"),
    pytest.param("piecewise_exact", None, np.linspace(0.0, 2.0, 201), id="piecewise_sinusoid"),
    pytest.param("trotter", 0.05, np.append(np.linspace(0.0, 2.0, 201), 2.5), id="trotter_uneven"),
])
def test_route_arguments_are_checked_before_any_readout(monkeypatch, method, step, t):
    # a route's arguments are checked before the driven run, and that runs before the undriven
    # series, so a bad call reads no output out
    calls, readout = [], rmt._readout
    monkeypatch.setattr(rmt, "_readout", lambda *args: calls.append(1) or readout(*args))
    with pytest.raises(ConfigError):
        rmt.propagate(small_fidelity_model(m=16), SINE, t, method=method, step=step)
    assert not calls


def trotter_on(t, step=0.05):
    return lambda: rmt.propagate(small_fidelity_model(m=16), SINE, np.asarray(t),
                                 method="trotter", step=step)


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: rmt.propagate(small_fidelity_model(m=16), SINE, np.linspace(0, 1, 11),
                                       method="rk4"),
                 ConfigError, "unknown propagation method 'rk4'", id="method"),
    pytest.param(trotter_on(np.linspace(0.1, 1.0, 10)), ConfigError,
                 "needs a uniform grid starting at t = 0", id="trotter_late_start"),
    pytest.param(trotter_on([0.0]), ConfigError, "needs a uniform grid starting at t = 0",
                 id="trotter_one_time"),
    pytest.param(trotter_on([0.0, 0.1, 0.3]), ConfigError, "needs a uniform output grid",
                 id="trotter_uneven"),
    pytest.param(trotter_on([0.0, 1.0], 1.0 / (2**52 + 1)), ConfigError,
                 r"past 2\*\*52 steps", id="trotter_past_exact_midpoints"),
    pytest.param(trotter_on([0.0, 1.0], 1e-310), ConfigError, "^inf split steps",
                 id="trotter_uncountable"),
    pytest.param(lambda: rmt.split_step(protocols.DrivingProtocol("step", f0=0.1, period=1e-12),
                                        0.1, 0.01, 4.0),
                 ConfigError, "must divide the protocol segment length 5e-13",
                 id="split_step_longer_than_a_piece"),
    pytest.param(lambda: rmt.split_step(protocols.DrivingProtocol("step", f0=0.1, period=1e-310),
                                        0.1, 0.01, 4.0),
                 ValueError, "pieces to t = 4 are too many to count", id="split_step_pieces_inf"),
    pytest.param(lambda: rmt.propagate(small_fidelity_model(m=16),
                                       protocols.DrivingProtocol("step", f0=0.1, period=1e-310),
                                       np.linspace(0.0, 1.0, 3), method="piecewise_exact"),
                 ValueError, "pieces to t = 1 are too many to count", id="piecewise_pieces_inf"),
    pytest.param(lambda: rmt.SpectrumSpec(m=1), ValueError, "at least two levels", id="m"),
    pytest.param(lambda: rmt.SpectrumSpec(m=4, variant="gapped"), ValueError,
                 "unknown spectrum variant 'gapped'", id="spectrum_variant"),
    pytest.param(lambda: rmt.SpectrumSpec(m=4, spacing=0.0), ValueError,
                 "flat spacing must be positive", id="spacing"),
    pytest.param(lambda: rmt.SpectrumSpec(m=4, variant="cosine_modulated", mean_spacing=-1.0),
                 ValueError, "mean spacing must be positive", id="mean_spacing"),
    pytest.param(lambda: rmt.SpectrumSpec(m=4, variant="cosine_modulated", alpha=-0.1),
                 ValueError, "alpha must be >= 0", id="alpha"),
    pytest.param(lambda: rmt.build_initial_state(np.arange(4.0), "thermal", 1), ValueError,
                 "unknown initial-state kind", id="state_kind"),
    pytest.param(lambda: rmt.build_initial_state(np.arange(4.0), "filtered_random", 1,
                                                 delta_e=0.0),
                 ValueError, "delta_e must be positive", id="delta_e"),
])
def test_public_guards_name_their_rule(call, error, message):
    with pytest.raises(error, match=message):
        call()


# --- auxiliary Hamiltonian ----------------------------------------------------------


def auxiliary_hamiltonian(model, protocol, t_prime):
    """H0 + (F1/t')V + (F2/t' - F1/2) i[V, H0] as a dense Hermitian matrix.

    The commutator term is elementwise: (i[V, H0])_{mu nu} = i V_{mu nu}
    (E_nu - E_mu).  For t' -> 0 the coefficients tend to f(0) and 0.
    """
    if t_prime <= 0:
        coef_v, coef_c = float(protocols.eval_f(protocol, 0.0)), 0.0
    else:
        f1, f2 = protocols.f1_f2(protocol, t_prime)
        coef_v, coef_c = f1 / t_prime, f2 / t_prime - 0.5 * f1
    de = model.energies[None, :] - model.energies[:, None]  # E_nu - E_mu
    return np.diag(model.energies) + model.v_matrix * (coef_v + 1j * coef_c * de)


def auxiliary_magnus_check(model, protocol, t_prime, t_grid):
    """<A> under the fixed auxiliary Hamiltonian of t_prime, on t_grid.

    At t = t_prime this approximates the true driven value up to the
    truncation error of the underlying second-order average, which shrinks
    with the protocol time scale.
    """
    w, u = np.linalg.eigh(auxiliary_hamiltonian(model, protocol, t_prime))
    c = u.conj().T @ model.initial_state
    states = u @ (np.exp(-1j * np.outer(w, t_grid)) * c[:, None])
    assert np.all(np.abs(np.linalg.norm(states, axis=0) - 1.0) <= rmt.NORM_TOL)
    return np.einsum("ij,ij->j", states.conj(), dense_observable(model) @ states).real


def test_auxiliary_hamiltonian_limits():
    model = small_fidelity_model(m=128)
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.2, period=0.7)
    h_aux = auxiliary_hamiltonian(model, proto, 0.0)
    ref = np.diag(model.energies) + protocols.eval_f(proto, 0.0) * model.v_matrix
    assert np.max(np.abs(h_aux - ref)) < 1e-14
    h_aux = auxiliary_hamiltonian(model, proto, 0.9)
    assert np.max(np.abs(h_aux - h_aux.conj().T)) < 1e-14


def test_auxiliary_constant_protocol_is_plain_perturbation():
    model = small_fidelity_model(m=128)
    proto = protocols.DrivingProtocol(variant="constant", f0=0.17)
    for tp in (0.3, 1.7):
        h_aux = auxiliary_hamiltonian(model, proto, tp)
        ref = np.diag(model.energies) + 0.17 * model.v_matrix
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(h_aux - ref)) < 1e-12 * scale


def test_auxiliary_magnus_truncation_error_shrinks_with_period():
    model = small_fidelity_model(m=512, eps=1.0 / 128)
    f0 = 0.1
    errs = []
    for T in (0.8, 0.4):
        proto = protocols.DrivingProtocol(variant="step", f0=f0, period=T)
        tp = 2.25 * T  # matched phase within the period
        exact = rmt.propagate(model, proto, np.array([0.0, tp]), method="piecewise_exact")
        aux = auxiliary_magnus_check(model, proto, tp, np.array([tp]))
        errs.append(abs(exact.a_series[-1] - aux[0]))
    assert errs[0] / errs[1] > 2.0


# --- self-averaging -----------------------------------------------------------------


@pytest.mark.slow
def test_self_averaging_fluctuations_shrink_with_size():
    # across-realization std of the driven signal at fixed t decreases with m.
    # The spectral span and the products f0^2 d0 (response rates) are held
    # fixed, so growing m only densifies the levels inside the same physics.
    span = 4.0
    t = np.array([0.0, 0.25, 0.5])
    stds = []
    for m in (512, 2048):
        eps = span / m
        d0 = 1.0 / eps
        f0 = 0.08 * np.sqrt(512.0 / d0)
        proto = protocols.DrivingProtocol(variant="sinusoid", f0=f0, period=0.5)
        spec = rmt.SpectrumSpec(m=m, variant="flat", spacing=eps)
        e = spec.energies()
        prof = exp_profile(d0=d0)
        vals = []
        for seed in range(8):
            v = rmt.sample_v(e, prof, seed)
            model = rmt.RandomMatrixModel(
                energies=e, v_matrix=v, observable=rmt.fidelity_observable(m, m // 2),
                initial_state=rmt.build_initial_state(e, "eigenstate", seed, index=m // 2),
            )
            traj = rmt.propagate(model, proto, t, method="trotter", step=0.5 / 100)
            vals.append(traj.a_series[1:])
        stds.append(np.std(np.array(vals), axis=0))
    assert np.all(stds[1] < stds[0])
