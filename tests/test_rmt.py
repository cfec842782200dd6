"""Random-matrix models and exact propagation."""

import numpy as np
import pytest
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
    model = rmt.RandomMatrixModel(
        spectrum=spec, energies=e, v_matrix=v, observable=a,
        initial_state=psi, master_seed=f_seed,
    )
    model.derived = rmt.reference_constants(e, np.real(np.diag(a)), np.abs(psi) ** 2, None)
    return model


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
    assert spec.e_top / spec.m == pytest.approx(2.0**-9, rel=1e-12)
    assert (e[-1] + spacings[-1]) == pytest.approx(spec.e_top, rel=1e-9)
    # density of states peaks in the middle: smallest spacings there
    assert spacings[spec.m // 2] < spacings[5]
    assert spacings.min() == pytest.approx(2.0**-9 / 1.1, rel=1e-6)
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
        assert vv[sel].mean() == pytest.approx(expected, rel=0.05)
    # diagonal variance is vtilde(0)
    diag = np.real(np.diag(v))
    assert np.mean(diag**2) == pytest.approx(prof.vtilde(0.0), rel=0.15)


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
    assert np.mean(np.abs(a[iu]) ** 2) == pytest.approx(1 / 256, rel=0.05)
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


def test_eigenstate_bounds():
    e = rmt.SpectrumSpec(m=16, variant="flat", spacing=1.0).energies()
    with pytest.raises(ValueError):
        rmt.build_initial_state(e, "eigenstate", 1, index=16)


# --- references --------------------------------------------------------------------


def test_reference_constants_fidelity():
    model = small_fidelity_model()
    # observable projects on the initial state: diagonal ensemble stays 1
    assert model.derived["a_bar0"] == 1.0
    assert model.derived["a_inf"] == pytest.approx(1 / model.m, rel=1e-12)
    assert model.derived["a_th"] == pytest.approx(1 / model.m, rel=1e-12)
    assert model.derived["d0_window"] == pytest.approx(64.0, rel=1e-2)


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
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.5)


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
    return rmt.RandomMatrixModel(
        spectrum=spec, energies=e, v_matrix=v, observable=a,
        initial_state=psi, master_seed=seed,
    )


def expm_loop(model, protocol, t_grid):
    """<A>, <H0>, norm by scipy's expm from t = 0 to each output time in turn."""
    bounds, values = protocol.piecewise_segments(float(t_grid[-1]))
    rows = []
    for t in t_grid:
        psi = model.initial_state
        for k, fv in enumerate(values):
            h = np.diag(model.energies) + fv * model.v_matrix
            psi = expm(-1j * (min(t, bounds[k + 1]) - bounds[k]) * h) @ psi
            if t <= bounds[k + 1]:
                break
        rows.append((np.vdot(psi, model.observable @ psi).real,
                     np.vdot(psi, model.energies * psi).real, np.linalg.norm(psi)))
    return np.array(rows).T


def test_readout_blocks_match_per_time_loops():
    # 100 outputs per segment: each segment crosses a 64-output block
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
    ref = expm_loop(model, proto, t)
    np.testing.assert_allclose(traj.a_series, ref[0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(traj.h0_series, ref[1], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(traj.norm_series, ref[2], rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(traj.undriven_a_series, undriven[0])
    np.testing.assert_array_equal(traj.undriven_h0_series, undriven[1])


@pytest.mark.parametrize("method", ["piecewise_exact", "trotter"])
def test_norm_drift_raises_at_first_output(method):
    model = small_fidelity_model(m=64)
    model.initial_state = 1.01 * model.initial_state
    proto = protocols.DrivingProtocol(variant="step", f0=0.1, period=0.5)
    with pytest.raises(NormDriftError, match=r"norm drifted to 1\.010000000000 at t = 0$"):
        rmt.propagate(model, proto, np.linspace(0.0, 1.0, 21), method=method, step=0.05)


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


# --- auxiliary Hamiltonian ----------------------------------------------------------


def test_auxiliary_hamiltonian_limits():
    model = small_fidelity_model(m=128)
    proto = protocols.DrivingProtocol(variant="sinusoid", f0=0.2, period=0.7)
    h_aux = rmt.auxiliary_hamiltonian(model, proto, 0.0)
    ref = np.diag(model.energies) + protocols.eval_f(proto, 0.0) * model.v_matrix
    assert np.max(np.abs(h_aux - ref)) < 1e-14
    h_aux = rmt.auxiliary_hamiltonian(model, proto, 0.9)
    assert np.max(np.abs(h_aux - h_aux.conj().T)) < 1e-14


def test_auxiliary_constant_protocol_is_plain_perturbation():
    model = small_fidelity_model(m=128)
    proto = protocols.DrivingProtocol(variant="constant", f0=0.17)
    for tp in (0.3, 1.7):
        h_aux = rmt.auxiliary_hamiltonian(model, proto, tp)
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
        aux = rmt.auxiliary_magnus_check(model, proto, tp, np.array([tp]))
        errs.append(abs(exact.a_series[-1] - aux[0]))
    assert errs[0] / errs[1] > 2.0


def test_auxiliary_rejects_large_models():
    big = rmt.RandomMatrixModel(
        spectrum=rmt.SpectrumSpec(m=2048, variant="flat", spacing=1.0),
        energies=np.arange(2048.0),
        v_matrix=np.zeros((2, 2)),
        observable=np.zeros((2, 2)),
        initial_state=np.zeros(2),
        master_seed=0,
    )
    proto = protocols.DrivingProtocol(variant="constant", f0=0.1)
    with pytest.raises(ConfigError):
        rmt.auxiliary_magnus_check(big, proto, 0.5, np.array([0.5]))


# --- self-averaging -----------------------------------------------------------------


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
                spectrum=spec, energies=e, v_matrix=v,
                observable=rmt.fidelity_observable(m, m // 2),
                initial_state=rmt.build_initial_state(e, "eigenstate", seed, index=m // 2),
                master_seed=seed,
            )
            traj = rmt.propagate(model, proto, t, method="trotter", step=0.5 / 100)
            vals.append(traj.a_series[1:])
        stds.append(np.std(np.array(vals), axis=0))
    assert np.all(stds[1] < stds[0])
