"""Random-matrix models and numerically exact driven dynamics.

Builds H(t) = H0 + f(t) V with a diagonal H0 (flat or cosine-modulated level
spacings), a banded random Hermitian V whose element variances follow a
configured band profile, and an observable that is either the projector on
the initial eigenstate (survival probability) or a two-sector smooth
diagonal with GUE fluctuations.  Propagation is exact: piecewise-constant
protocols are evolved in the eigenbasis of each distinct H0 + f V, smooth
protocols by split-step e^{-iH0 h/2} e^{-if(t_mid)V h} e^{-iH0 h/2} with the
eigendecomposition of V cached once.  Every route, the undriven series and
the auxiliary-Hamiltonian check included, hands its states to one readout of
<A>, <H0> and the norm, which checks the norm at every output.

All randomness flows from one 64-bit master seed through named PCG64
substreams (one per matrix/vector), so adding an observable never perturbs
the V sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import profiles, protocols
from .errors import ConfigError, EmptyWindowError, NormDriftError

NORM_TOL = 1e-6  # propagation aborts beyond this norm drift

# fixed substream indices off the master seed (order is part of the format)
_STREAMS = {"v_matrix": 0, "observable_diag": 1, "observable_offdiag": 2, "initial_state": 3}
RNG_ALGORITHM = "PCG64"

# the names the constructors below accept (the harness config schema checks them too)
SPECTRUM_VARIANTS = ("flat", "cosine_modulated")
STATE_KINDS = ("eigenstate", "filtered_random")
Q_KINDS = ("identity", "one_plus_kappa_a")
SECTORS = ("all", "even")
METHODS = ("piecewise_exact", "trotter")


def _rng(master_seed: int, stream: str) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(_STREAMS[stream],))
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumSpec:
    """Level layout of H0: flat spacing, or cosine-modulated spacings.

    Flat:            E_mu = mu * spacing.
    Cosine-modulated: E_0 = 0, E_{mu+1} = E_mu + eps0 [1 + alpha (1 + cos(2 pi mu / m))],
    with eps0 chosen so the mean spacing (E_m - E_0)/m equals `mean_spacing`;
    the density of states then peaks in the middle of the spectrum.
    """

    m: int
    variant: str = "flat"  # "flat" | "cosine_modulated"
    spacing: float = 1.0
    alpha: float = 0.0
    mean_spacing: float = 1.0

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("need at least two levels")
        if self.variant not in SPECTRUM_VARIANTS:
            raise ValueError(f"unknown spectrum variant {self.variant!r}")
        if self.variant == "flat" and not self.spacing > 0:
            raise ValueError("flat spacing must be positive")
        if self.variant == "cosine_modulated":
            if not self.mean_spacing > 0:
                raise ValueError("mean spacing must be positive")
            if self.alpha < 0:
                raise ValueError("alpha must be >= 0")

    def energies(self) -> np.ndarray:
        if self.variant == "flat":
            return np.arange(self.m) * self.spacing
        eps0 = self.mean_spacing / (1.0 + self.alpha)
        mu = np.arange(self.m)
        sp = eps0 * (1.0 + self.alpha * (1.0 + np.cos(2.0 * np.pi * mu / self.m)))
        return np.concatenate(([0.0], np.cumsum(sp[:-1])))

    @property
    def e_top(self) -> float:
        """Total spectral span E_m reached after m spacings (= m * mean spacing)."""
        if self.variant == "flat":
            return self.m * self.spacing
        return self.m * self.mean_spacing


# ---------------------------------------------------------------------------
# model pieces
# ---------------------------------------------------------------------------


def sample_v(
    energies: np.ndarray,
    profile: profiles.PerturbationProfile,
    master_seed: int,
) -> np.ndarray:
    """Hermitian V with E[|V_{mu nu}|^2] = vtilde(E_mu - E_nu).

    Off-diagonal entries are complex Gaussians (real and imaginary parts with
    half the variance each); the diagonal is real Gaussian with variance
    vtilde(0).  Identical seeds give bitwise identical matrices.
    """
    rng = _rng(master_seed, "v_matrix")
    m = len(energies)
    iu = np.triu_indices(m, 1)
    sig = np.sqrt(0.5 * profile.vtilde(energies[iu[0]] - energies[iu[1]]))
    v = np.zeros((m, m), dtype=complex)
    v[iu] = sig * (rng.standard_normal(iu[0].size) + 1j * rng.standard_normal(iu[0].size))
    v += v.conj().T
    v[np.diag_indices(m)] = np.sqrt(profile.vtilde(0.0)) * rng.standard_normal(m)
    return v


def eth_diagonal(
    energies: np.ndarray,
    e_top: float,
    a0_plus: float,
    a0_minus: float,
    master_seed: int,
) -> np.ndarray:
    """Diagonal of the two-sector observable: a_pm(E_mu) + Gaussian(0, 1/m).

    Even mu belong to the '+' sector, odd mu to the '-' sector, and
    a_pm(E) = a0_pm [1 - 2 (E - E_0)/(E_m - E_0)].  Sampled from its own
    substream so it matches the diagonal of the full matrix build.
    """
    m = len(energies)
    rng = _rng(master_seed, "observable_diag")
    a_lin = 1.0 - 2.0 * (energies - energies[0]) / e_top
    smooth = np.where(np.arange(m) % 2 == 0, a0_plus, a0_minus) * a_lin
    return smooth + rng.standard_normal(m) / np.sqrt(m)


def build_eth_observable(
    energies: np.ndarray,
    e_top: float,
    a0_plus: float,
    a0_minus: float,
    master_seed: int,
) -> np.ndarray:
    """Full two-sector observable: eth_diagonal plus GUE off-diagonal (variance 1/m)."""
    m = len(energies)
    if m % 2:
        raise ValueError("two-sector observable needs an even number of levels")
    rng = _rng(master_seed, "observable_offdiag")
    iu = np.triu_indices(m, 1)
    a = np.zeros((m, m), dtype=complex)
    a[iu] = (rng.standard_normal(iu[0].size) + 1j * rng.standard_normal(iu[0].size)) * np.sqrt(
        0.5 / m
    )
    a += a.conj().T
    a[np.diag_indices(m)] = eth_diagonal(energies, e_top, a0_plus, a0_minus, master_seed)
    return a


def fidelity_observable(m: int, index: int) -> np.ndarray:
    """Projector |index><index| as a dense Hermitian matrix (survival probability)."""
    a = np.zeros((m, m), dtype=complex)
    a[index, index] = 1.0
    return a


def build_initial_state(
    energies: np.ndarray,
    kind: str,
    master_seed: int,
    index: Optional[int] = None,
    e_center: float = 0.0,
    delta_e: float = 1.0,
    q: str = "identity",
    kappa: float = 1.0,
    sector: str = "all",
    observable: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Initial state vector: an H0 eigenstate, or a filtered Haar-random state.

    The filtered kind draws |phi> Haar-random (optionally restricted to the
    even-mu '+' sector), applies Q (identity or 1 + kappa*A), then the
    diagonal Gaussian filter exp(-(E_mu - e_center)^2 / 4 delta_e^2), and
    normalizes.  Operator order: filter after Q.
    """
    m = len(energies)
    if kind not in STATE_KINDS or sector not in SECTORS or q not in Q_KINDS:
        raise ValueError(f"unknown initial-state kind, sector or Q: {kind!r}, {sector!r}, {q!r}")
    if kind == "eigenstate":
        if index is None or not (0 <= index < m):
            raise ValueError("eigenstate index out of range")
        psi = np.zeros(m, dtype=complex)
        psi[index] = 1.0
        return psi
    if delta_e <= 0:
        raise ValueError("delta_e must be positive")
    rng = _rng(master_seed, "initial_state")
    phi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if sector == "even":
        phi[1::2] = 0.0
    if q == "one_plus_kappa_a":
        if observable is None:
            raise ValueError("Q = 1 + kappa*A needs the observable matrix")
        phi = phi + kappa * (observable @ phi)
    psi = np.exp(-((energies - e_center) ** 2) / (4.0 * delta_e**2)) * phi
    nrm = np.linalg.norm(psi)
    if nrm < 1e-12 * np.linalg.norm(phi):
        raise EmptyWindowError("filter left no weight (window misses the spectrum)")
    return psi / nrm


@dataclass
class RandomMatrixModel:
    """A fully sampled model: spectrum, V, observable, initial state, references."""

    spectrum: SpectrumSpec
    energies: np.ndarray
    v_matrix: np.ndarray
    observable: np.ndarray
    initial_state: np.ndarray
    master_seed: int
    window: Optional[tuple] = None  # occupied energy window for a_th / d0
    derived: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.energies)


def reference_constants(
    energies: np.ndarray,
    observable_diag: np.ndarray,
    rho_diag: np.ndarray,
    window: Optional[tuple],
) -> dict:
    """Thermal and long-time reference values of the observable.

    a_th averages the observable diagonal over the occupied window, a_bar0 is
    the diagonal-ensemble (infinite-time) average, a_inf the trace average.
    d0_window counts levels per unit energy in the window.  a_th and
    d0_window sensitivity at 1.5x and 3x window width is reported alongside.
    """
    m = len(energies)
    a_inf = float(np.sum(observable_diag)) / m
    a_bar0 = float(np.dot(rho_diag, observable_diag))
    out = {"a_bar0": a_bar0, "a_inf": a_inf}
    if window is None:
        out["a_th"] = a_inf
        out["d0_window"] = (m - 1) / float(energies[-1] - energies[0])
        return out
    lo, hi = window
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for tag, scale in (("", 1.0), ("_w15", 1.5), ("_w30", 3.0)):
        sel = (energies >= center - scale * half) & (energies <= center + scale * half)
        n = int(np.count_nonzero(sel))
        if n == 0:
            raise EmptyWindowError(f"no levels in window scaled by {scale}")
        out["a_th" + tag] = float(np.mean(observable_diag[sel]))
        out["d0_window" + tag] = n / (2.0 * scale * half)
    out["window"] = (float(lo), float(hi))
    return out


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryResult:
    """Aligned series from one driven run plus the undriven baseline."""

    t_grid: np.ndarray
    a_series: np.ndarray
    h0_series: np.ndarray
    norm_series: np.ndarray
    undriven_a_series: np.ndarray
    undriven_h0_series: np.ndarray
    method: str
    step: Optional[float] = None


# output times per GEMM: bounds the m x _BLOCK complex temporaries of _series
_BLOCK = 64


def _readout(model: RandomMatrixModel, states: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows <A>, <H0> and norm of the state columns, taken at the times t.

    Raises NormDriftError at the first t whose norm drifts beyond NORM_TOL.
    """
    probs = np.abs(states) ** 2
    a = np.einsum("ij,ij->j", states.conj(), model.observable @ states).real
    rows = np.stack((a, model.energies @ probs, np.sqrt(probs.sum(axis=0))))
    bad = np.flatnonzero(np.abs(rows[2] - 1.0) > NORM_TOL)
    if bad.size:
        k = bad[0]
        raise NormDriftError(f"norm drifted to {rows[2, k]:.12f} at t = {t[k]:.6g}")
    return rows


def _series(model, w, u, c, taus, t) -> np.ndarray:
    """Readout rows of u @ (exp(-i w tau) c) for each tau, one GEMM per block.

    u = None means the H0 eigenbasis, where the phased coefficients are the
    state itself.  t holds the absolute times named in a NormDriftError.
    """
    out = np.empty((3, len(taus)))
    for s in range(0, len(taus), _BLOCK):
        blk = slice(s, s + _BLOCK)
        states = np.exp(-1j * np.outer(w, taus[blk])) * c[:, None]
        if u is not None:
            states = u @ states
        out[:, blk] = _readout(model, states, t[blk])
    return out


def _to_basis(u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """u^H psi without forming the conjugate transpose of u."""
    return (u.T @ psi.conj()).conj()


def undriven_series(model: RandomMatrixModel, t_grid: np.ndarray) -> np.ndarray:
    """Readout rows <A>, <H0>, norm under H0 alone (pure phase evolution)."""
    t_grid = np.asarray(t_grid, dtype=float)
    return _series(model, model.energies, None, model.initial_state, t_grid, t_grid)


def _propagate_piecewise(model, protocol, t_grid):
    segs = protocol.piecewise_segments(float(t_grid[-1]))
    if segs is None:
        raise ConfigError(
            f"piecewise-exact propagation needs a piecewise-constant protocol, "
            f"not {protocol.variant!r}"
        )
    bounds, values = segs
    cache = {0.0: (model.energies, None)}  # f = 0: pure phase evolution
    out = np.empty((3, len(t_grid)))
    psi = model.initial_state
    oi = 0
    for k in range(len(values)):
        t0, t1, fv = bounds[k], bounds[k + 1], float(values[k])
        if fv not in cache:
            cache[fv] = np.linalg.eigh(np.diag(model.energies) + fv * model.v_matrix)
        w, u = cache[fv]
        c = psi if u is None else _to_basis(u, psi)
        oj = int(np.searchsorted(t_grid, t1 + 1e-12, side="right"))
        out[:, oi:oj] = _series(model, w, u, c, t_grid[oi:oj] - t0, t_grid[oi:oj])
        oi = oj
        if oi >= len(t_grid):
            break
        psi = np.exp(-1j * w * (t1 - t0)) * c
        if u is not None:
            psi = u @ psi
    return out


def _propagate_trotter(model, protocol, t_grid, step):
    if t_grid[0] != 0.0 or len(t_grid) < 2:
        raise ConfigError("split-step propagation needs a uniform grid starting at t = 0")
    dt_out = float(t_grid[1] - t_grid[0])
    if not np.allclose(np.diff(t_grid), dt_out, rtol=1e-9):
        raise ConfigError("split-step propagation needs a uniform output grid")
    n_sub = max(1, int(np.ceil(dt_out / step - 1e-12)))
    h = dt_out / n_sub
    segs = protocol.piecewise_segments(float(t_grid[-1]))
    if segs is not None and len(segs[1]) > 1:
        # exact segment values require steps that do not straddle a switch
        switch = float(segs[0][1] - segs[0][0])
        if abs(switch / h - round(switch / h)) > 1e-9:
            raise ConfigError(
                f"split-step size {h:.6g} must divide the protocol segment "
                f"length {switch:.6g} for piecewise-constant protocols"
            )
    w, u = np.linalg.eigh(model.v_matrix)
    half = np.exp(-1j * model.energies * (h / 2.0))
    psi = model.initial_state
    out = np.empty((3, len(t_grid)))
    out[:, :1] = _readout(model, psi[:, None], t_grid[:1])
    n_steps = (len(t_grid) - 1) * n_sub
    f_mid = protocols.eval_f(protocol, (np.arange(n_steps) + 0.5) * h)
    for k in range(n_steps):
        psi = half * psi
        psi = u @ (np.exp(-1j * f_mid[k] * w * h) * _to_basis(u, psi))
        psi = half * psi
        if (k + 1) % n_sub == 0:
            oi = (k + 1) // n_sub
            out[:, oi : oi + 1] = _readout(model, psi[:, None], t_grid[oi : oi + 1])
    return out, h


def propagate(
    model: RandomMatrixModel,
    protocol: protocols.DrivingProtocol,
    t_grid: np.ndarray,
    method: str,
    step: Optional[float] = None,
) -> TrajectoryResult:
    """Exact Schroedinger propagation under H0 + f(t) V, recorded on t_grid.

    piecewise_exact: one eigendecomposition per distinct f value (constant
    and step protocols only); trotter: second-order split step with the
    midpoint f value and V's eigenbasis cached once (any protocol).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1 or np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be increasing and nonnegative")
    if method not in METHODS:
        raise ConfigError(f"unknown propagation method {method!r}")
    used_step = None
    if method == "piecewise_exact":
        rows = _propagate_piecewise(model, protocol, t_grid)
    elif method == "trotter":
        if step is None or step <= 0:
            raise ConfigError("trotter propagation needs a positive step")
        rows, used_step = _propagate_trotter(model, protocol, t_grid, step)
    undriven = undriven_series(model, t_grid)
    return TrajectoryResult(
        t_grid=t_grid,
        a_series=rows[0],
        h0_series=rows[1],
        norm_series=rows[2],
        undriven_a_series=undriven[0],
        undriven_h0_series=undriven[1],
        method=method,
        step=used_step,
    )


def auxiliary_hamiltonian(
    model: RandomMatrixModel,
    protocol: protocols.DrivingProtocol,
    t_prime: float,
) -> np.ndarray:
    """H0 + (F1/t')V + (F2/t' - F1/2) i[V, H0] as a dense Hermitian matrix.

    The commutator term is elementwise: (i[V, H0])_{mu nu} = i V_{mu nu}
    (E_nu - E_mu).  For t' -> 0 the coefficients tend to f(0) and 0.
    """
    if t_prime <= 0:
        coef_v = float(protocols.eval_f(protocol, 0.0))
        coef_c = 0.0
    else:
        ints = protocols.integrals(protocol, t_prime)
        coef_v = ints.f1 / t_prime
        coef_c = ints.f2 / t_prime - 0.5 * ints.f1
    de = model.energies[None, :] - model.energies[:, None]  # E_nu - E_mu
    w = model.v_matrix * (coef_v + 1j * coef_c * de)
    return np.diag(model.energies) + w


def auxiliary_magnus_check(
    model: RandomMatrixModel,
    protocol: protocols.DrivingProtocol,
    t_prime: float,
    t_grid: np.ndarray,
) -> np.ndarray:
    """<A> under the fixed auxiliary Hamiltonian of t_prime, on t_grid.

    At t = t_prime this approximates the true driven value up to the
    truncation error of the underlying second-order average, which shrinks
    with the protocol time scale.  Dense diagonalization: small models only.
    """
    if model.m > 1024:
        raise ConfigError("auxiliary check is limited to m <= 1024 (dense diagonalization)")
    h_aux = auxiliary_hamiltonian(model, protocol, t_prime)
    w, u = np.linalg.eigh(h_aux)
    t_grid = np.asarray(t_grid, dtype=float)
    return _series(model, w, u, _to_basis(u, model.initial_state), t_grid, t_grid)[0]
