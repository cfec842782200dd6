"""Random-matrix models and numerically exact driven dynamics.

Builds H(t) = H0 + f(t) V with a diagonal H0 (flat or cosine-modulated level
spacings), a banded random Hermitian V whose element variances follow a
configured band profile, and an observable that is either the projector on
the initial eigenstate (survival probability), kept as its real diagonal (a
1-d observable is diagonal in the H0 eigenbasis and read out as a weighted
sum of populations), or a dense two-sector smooth diagonal with GUE
fluctuations.  Propagation is exact: piecewise-constant protocols are
evolved in the eigenbasis of each distinct H0 + f V, smooth protocols by
split-step e^{-iH0 h/2} e^{-if(t_mid)V h} e^{-iH0 h/2}.  The split step runs
in the eigenbasis V = u w u^H, where the two H0 half-steps of neighbouring
steps fold into one step matrix M = u^H e^{-iH0 h} u, formed once by column
blocks: each step is one matrix-vector product d <- e^{-if(t_mid) w h} M d,
and the state y d with y = e^{-iH0 h/2} u is formed only at outputs.  Every
eigendecomposition is one call of scipy's `evr` (MRRR) driver.  A piecewise
run chains the segments; the undriven series is that run with f = 0.  Both routes
share one block readout (`_BlockReadout`): each output's coefficients go into an
m x _BLOCK buffer of their basis, one per f value when piecewise and one when
split-stepping, and a full buffer is read out as <A>, <H0> and the norm, one GEMM per
64 outputs.  Every output's norm is checked, per block when split-stepping, after the
chain when piecewise, naming the first t that drifted.

Memory is set by the dense m x m complex arrays (16 m^2 bytes each) alive at
the propagation peak.  Both routes lend V's storage to LAPACK and get it back bit
for bit, also when a call raises (`_borrowed`).  So V must be as sample_v makes
it, a writable, C-ordered complex128 array whose lower triangle is bitwise
0 + conj(upper) (any other V is a ValueError before any work), and one model
must not be propagated from two threads at once.  Piecewise: V, a dense A
(two-sector observable only) and one eigenbasis per distinct f value: K + 2
arrays for K distinct values, K + 1 for a diagonal observable.  `evr` works on
H0 + f V in V's strict lower triangle and diagonal, written from its intact
upper triangle (`_lent_lower`).  Trotter: V, V's eigenvectors and half an
array: 2.5 arrays, 3.5 with a dense A.  `evr` consumes V's own storage and M
takes its place, while V's strict upper triangle is kept packed (`_lent_whole`);
f is evaluated _BLOCK midpoints at a time.
Besides its output rows and times, neither route holds anything that grows with the
step, switch or output count (the piecewise route draws the drive's pieces one at a
time).  Everything else is m x _BLOCK blocks: the readout buffers (K piecewise, one
split-stepping) and the temporaries of the one block being read out.  V and A are
drawn row by row into their own storage and mirrored by row blocks.

All randomness flows from one 64-bit master seed through named PCG64
substreams (one per matrix/vector), so adding an observable never perturbs
the V sample.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import profiles, protocols
from .errors import ConfigError, EmptyWindowError, NormDriftError

NORM_TOL = 1e-6  # propagation aborts beyond this norm drift
FILTER_CUT = 1e-12  # a filter weight under this on every occupied level leaves no state
# output times (or columns, or rows) per GEMM or block: bounds the m x _BLOCK temporaries
_BLOCK = 64

# fixed substream indices off the master seed (order is part of the format)
_STREAMS = {"v_matrix": 0, "observable_diag": 1, "observable_offdiag": 2, "initial_state": 3}
RNG_ALGORITHM = "PCG64"
_UNDRIVEN = protocols.DrivingProtocol("constant", f0=0.0)  # H0 alone: pure phase evolution

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


def _hermitian(rng: np.random.Generator, m: int, sig) -> np.ndarray:
    """Hermitian m x m matrix, zero diagonal, with upper-triangle row i sig(i) * (x + iy).

    All x of the upper triangle are drawn in row-major order, then all y.  The
    rows are filled in place and mirrored by blocks of _BLOCK rows, so no
    index array and no m x m temporary is made.
    """
    h = np.zeros((m, m), dtype=complex)
    for i in range(m - 1):
        h.real[i, i + 1 :] = rng.standard_normal(m - 1 - i)
    for i in range(m - 1):
        row = h[i, i + 1 :]
        row[:] = sig(i) * (row.real + 1j * rng.standard_normal(m - 1 - i))
    for s in range(0, m, _BLOCK):  # rows s: += conj of columns s:, as h += h^H
        h[s : s + _BLOCK] += h[:, s : s + _BLOCK].conj().T
    return h


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
    v = _hermitian(
        rng, m, lambda i: np.sqrt(0.5 * profile.vtilde(energies[i] - energies[i + 1 :]))
    )
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
    sig = np.sqrt(0.5 / m)
    a = _hermitian(_rng(master_seed, "observable_offdiag"), m, lambda i: sig)
    a[np.diag_indices(m)] = eth_diagonal(energies, e_top, a0_plus, a0_minus, master_seed)
    return a


def fidelity_observable(m: int, index: int) -> np.ndarray:
    """Projector |index><index| (survival probability), as its real diagonal."""
    a = np.zeros(m)
    a[index] = 1.0
    return a


def filter_weights(energies: np.ndarray, e_center: float, delta_e: float) -> np.ndarray:
    """Gaussian filter exp(-(E_mu - e_center)^2 / 4 delta_e^2); `check_filter` judges it."""
    return np.exp(-((energies - e_center) ** 2) / (4.0 * delta_e**2))


def check_filter(energies: np.ndarray, e_center: float, delta_e: float, sector: str = "all",
                 q: str = "identity", kappa: float = 1.0) -> None:
    """EmptyWindowError unless a level the state occupies keeps a filter weight >= FILTER_CUT:
    an even sector keeps only the even levels unless Q = 1 + kappa A (A dense), kappa != 0."""
    even = sector == "even" and not (q == "one_plus_kappa_a" and kappa != 0)
    with np.errstate(all="ignore"):  # a delta_e**2 that underflows gives a NaN weight: rejected
        peak = filter_weights(energies[::2] if even else energies, e_center, delta_e).max()
    if not peak >= FILTER_CUT:
        raise EmptyWindowError(f"no occupied level has a filter weight of {FILTER_CUT:g} or more")


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
    even-mu '+' sector), applies Q (identity or 1 + kappa*A, A the dense observable
    matrix), then the Gaussian `filter_weights`, and normalizes.  Operator
    order: filter after Q.  `check_filter` first rejects a filter that leaves no weight.
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
    if q == "one_plus_kappa_a" and np.ndim(observable) != 2:
        raise ValueError("Q = 1 + kappa*A needs the dense observable matrix")
    check_filter(energies, e_center, delta_e, sector, q, kappa)
    rng = _rng(master_seed, "initial_state")
    phi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if sector == "even":
        phi[1::2] = 0.0
    if q == "one_plus_kappa_a":
        phi = phi + kappa * (observable @ phi)
    psi = filter_weights(energies, e_center, delta_e) * phi
    return psi / np.linalg.norm(psi)


@dataclass
class RandomMatrixModel:
    """A fully sampled model: the H0 levels, V, the observable and the initial state.

    The observable is a dense Hermitian matrix, or the real diagonal of a
    diagonal one (1-d).
    """

    energies: np.ndarray
    v_matrix: np.ndarray
    observable: np.ndarray
    initial_state: np.ndarray


def window_levels(energies: np.ndarray, window: tuple, scale: float = 1.0) -> np.ndarray:
    """Mask of the levels in the window [lo, hi] widened about its centre to scale times its
    width (a superset at scale > 1); EmptyWindowError if it has no width or holds no level."""
    lo, hi = window
    grow = 0.5 * (scale - 1.0) * (hi - lo)
    sel = (energies >= lo - grow) & (energies <= hi + grow)
    if hi <= lo or not sel.any():
        raise EmptyWindowError(f"the window [{lo - grow}, {hi + grow}] has no width or no "
                               f"level of the spectrum [{energies[0]}, {energies[-1]}]")
    return sel


def window_density(energies: np.ndarray, window: Optional[tuple], scale: float = 1.0) -> float:
    """Levels per unit energy of window_levels, or of the whole spectrum for a window of None."""
    if window is None:
        return (len(energies) - 1) / float(energies[-1] - energies[0])
    n = int(np.count_nonzero(window_levels(energies, window, scale)))
    return n / (scale * (window[1] - window[0]))


def reference_constants(
    energies: np.ndarray,
    observable: np.ndarray,
    rho_diag: np.ndarray,
    window: Optional[tuple],
) -> dict:
    """Thermal and long-time reference values of the observable's diagonal (a 1-d
    observable is its own diagonal).

    a_th averages it over the occupied window's `window_levels` (the whole
    spectrum for a window of None), a_bar0 is the diagonal-ensemble
    (infinite-time) average, a_inf the trace average and d0_window the
    window's `window_density`; both at 1.5x and 3x the window width ride along.
    """
    observable_diag = observable if observable.ndim == 1 else np.real(np.diag(observable))
    a_inf = float(np.sum(observable_diag)) / len(energies)
    out = {"a_bar0": float(np.dot(rho_diag, observable_diag)), "a_inf": a_inf}
    if window is None:
        return {**out, "a_th": a_inf, "d0_window": window_density(energies, None)}
    for tag, scale in (("", 1.0), ("_w15", 1.5), ("_w30", 3.0)):
        out["a_th" + tag] = float(np.mean(observable_diag[window_levels(energies, window, scale)]))
        out["d0_window" + tag] = window_density(energies, window, scale)
    return {**out, "window": (float(window[0]), float(window[1]))}


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryResult:
    """Aligned series from one driven run plus the undriven baseline."""

    a_series: np.ndarray
    h0_series: np.ndarray
    norm_series: np.ndarray
    undriven_a_series: np.ndarray
    undriven_h0_series: np.ndarray


def _eigh(h: np.ndarray, lower: bool = True) -> tuple:
    """(w, u) of the Hermitian h by LAPACK's MRRR driver (?heevr), read from h's lower
    triangle (upper if not lower) and diagonal.

    h is a Fortran-ordered complex128 buffer the caller lends to this
    call: LAPACK works in that triangle and the diagonal in place and leaves them
    overwritten; the other triangle it never touches.

    scipy.linalg is imported here so that importing the package does not load
    it, and called through the module attribute so a wrapper set on
    scipy.linalg.eigh sees every call.
    """
    import scipy.linalg

    return scipy.linalg.eigh(h, lower=lower, driver="evr", overwrite_a=True)


def _lower_blocks(v: np.ndarray):
    """(rows, mask, upper) for each block of _BLOCK rows s:e of V: the rows V[s:e, :e], the
    mask of their entries in V's strict lower triangle, and the upper-triangle entries
    V[:e, s:e].T that mirror those entries."""
    for s in range(0, len(v), _BLOCK):
        e = min(s + _BLOCK, len(v))
        yield v[s:e, :e], np.arange(e) < np.arange(s, e)[:, None], v[:e, s:e].T


@contextmanager
def _borrowed(v: np.ndarray):
    """Yields a copy of V's diagonal to a caller that lends V's storage to LAPACK.  On exit,
    raise or not, V's strict lower triangle is restored as 0 + conj(upper), the mirror
    _hermitian writes, and the diagonal from the copy.

    First, a ValueError unless V is as sample_v makes it, a writable, C-ordered complex128
    array whose lower triangle is bitwise that mirror: each lend then has one layout to
    serve, and every V accepted comes back bit for bit.
    """
    if not (v.flags.writeable and v.dtype == complex and v.flags.c_contiguous and all(
            np.where(mask, 0 + upper.conj(), rows).tobytes() == rows.tobytes()
            for rows, mask, upper in _lower_blocks(v))):
        raise ValueError("propagation lends V's storage to LAPACK: V must be a writable, "
                         "C-ordered complex128 array, and its strict lower triangle bitwise "
                         "0 + conj of its upper triangle, as sample_v makes it")
    diag = v.diagonal().copy()
    try:
        yield diag
    finally:
        for rows, mask, upper in _lower_blocks(v):
            np.copyto(rows, 0 + upper.conj(), where=mask)
        v[np.diag_indices(len(v))] = diag


@contextmanager
def _lent_lower(model: RandomMatrixModel):
    """Yields eig(fv): the _eigh of H0 + fv V, written into V's strict lower triangle and
    diagonal from its intact upper triangle, which _borrowed restores.

    V is lent as the Fortran view V.T, uplo 'U': its lower triangle then takes fv times the
    upper one, not conjugated.
    """
    v = model.v_matrix
    with _borrowed(v) as diag:
        on_diag = np.diag_indices(len(v))

        def eig(fv: float) -> tuple:
            for rows, mask, upper in _lower_blocks(v):
                np.copyto(rows, fv * upper, where=mask)
            v[on_diag] = model.energies + fv * diag
            return _eigh(v.T, lower=False)

        yield eig


def _upper_parts(v: np.ndarray, packed: np.ndarray):
    """(upper, mask, part) per block of _lower_blocks: part of packed holds upper[mask]."""
    o = 0
    for _, mask, upper in _lower_blocks(v):
        n = o + np.count_nonzero(mask)
        yield upper, mask, packed[o:n]
        o = n


@contextmanager
def _lent_whole(v: np.ndarray):
    """Yields V's own storage as a Fortran-ordered buffer for _eigh to consume and M to fill:
    its lower triangle and diagonal are those of np.array(V, order='F').  V is lent as V.T,
    its lower triangle first written transposed over its upper one.  V's strict upper
    triangle is kept packed meanwhile and written back on exit, raise or not, before
    _borrowed restores the rest.
    """
    with _borrowed(v):
        packed = np.empty(len(v) * (len(v) - 1) // 2, dtype=complex)
        for upper, mask, part in _upper_parts(v, packed):
            part[:] = upper[mask]
        try:
            for rows, mask, upper in _lower_blocks(v):
                np.copyto(upper, rows, where=mask)
            yield v.T
        finally:
            for upper, mask, part in _upper_parts(v, packed):
                upper[mask] = part


def _readout(model: RandomMatrixModel, states: np.ndarray) -> np.ndarray:
    """Rows <A>, <H0> and norm of the state columns, which a dense A conjugates in place."""
    probs = np.abs(states) ** 2
    if model.observable.ndim == 1:
        a = model.observable @ probs
    else:
        a_states = model.observable @ states
        a = np.einsum("ij,ij->j", np.conjugate(states, out=states), a_states).real
    return np.stack((a, model.energies @ probs, np.sqrt(probs.sum(axis=0))))


def _check_norm(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """rows, unless a norm drifts beyond NORM_TOL: NormDriftError at the first such t."""
    bad = np.flatnonzero(~(np.abs(rows[2] - 1.0) <= NORM_TOL))  # a NaN norm drifts too
    if bad.size:
        k = bad[0]
        raise NormDriftError(f"norm drifted to {rows[2, k]:.12f} at t = {t[k]:.6g}")
    return rows


class _BlockReadout:
    """Output states in one basis (None: the H0 eigenbasis), gathered as coefficient columns
    of an m x _BLOCK buffer and read out into out[:, i], one GEMM per block."""

    def __init__(self, model: RandomMatrixModel, basis: Optional[np.ndarray], out: np.ndarray):
        self.model, self.basis, self.out = model, basis, out
        self.cols = np.empty((len(model.energies), _BLOCK), dtype=complex)
        self.idx = []  # the outputs in the buffer, by column

    def add(self, i: int, column: np.ndarray) -> list:
        """Buffers output i's coefficients; the indices read out, if that filled the buffer."""
        self.cols[:, len(self.idx)] = column
        self.idx.append(i)
        return self.flush() if len(self.idx) == _BLOCK else []

    def flush(self) -> list:
        """Reads out the buffered outputs (_readout may overwrite them) and returns their
        indices."""
        idx, self.idx = self.idx, []
        if idx:
            states = self.cols[:, : len(idx)]
            self.out[:, idx] = _readout(self.model,
                                        states if self.basis is None else self.basis @ states)
        return idx


def _to_basis(u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """u^H psi without forming the conjugate transpose of u."""
    return (u.T @ psi.conj()).conj()


def undriven_series(model: RandomMatrixModel, t_grid: np.ndarray) -> np.ndarray:
    """Readout rows <A>, <H0>, norm under H0 alone: the piecewise run with f = 0."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1 or np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be increasing and nonnegative")
    return _propagate_piecewise(model, _UNDRIVEN, t_grid)


def _propagate_piecewise(model, protocol, t_grid):
    pieces = protocol.piecewise_segments(float(t_grid[-1]))
    if pieces is None:
        raise ConfigError(f"piecewise-exact propagation needs a piecewise-constant protocol, "
                          f"not {protocol.variant!r}")
    cache = {}  # f -> (w, u, the _BlockReadout of its outputs)
    out = np.empty((3, len(t_grid)))
    psi = model.initial_state
    oi = 0
    with _lent_lower(model) if protocol.f0 != 0 else nullcontext() as eig:  # each f is +-f0
        for t0, t1, fv in pieces:
            if fv not in cache:
                w, u = eig(fv) if fv != 0 else (model.energies, None)  # f = 0: V not lent
                cache[fv] = w, u, _BlockReadout(model, u, out)
            w, u, readout = cache[fv]
            c = psi if u is None else _to_basis(u, psi)
            oj = int(np.searchsorted(t_grid, t1 + 1e-12, side="right"))  # t1: this piece
            for i in range(oi, oj):
                readout.add(i, np.exp(-1j * (w * (t_grid[i] - t0))) * c)
            oi = oj
            if oi >= len(t_grid):
                break
            psi = np.exp(-1j * w * (t1 - t0)) * c
            if u is not None:
                psi = u @ psi
    for *_, readout in cache.values():
        readout.flush()
    return _check_norm(out, t_grid)


def split_step(protocol: protocols.DrivingProtocol, dt_out: float, step: float,
               t_end: float) -> tuple:
    """(n_sub, h): the largest split step h = dt_out / n_sub <= step.

    ConfigError unless the run to t_end takes at most 2**52 steps (past them, k + 1/2 of a
    midpoint time (k + 1/2) h rounds) and a drive that switches before t_end starts with a
    whole number >= 1 of steps h (no step may straddle a switch).  piecewise_segments, which
    gives the first two pieces, raises a ValueError if the pieces are too many to count."""
    n_sub, h = protocols.subdivide(dt_out, step)
    steps = n_sub * float(round(t_end / dt_out))  # exact up to 2**53
    if steps > 2**52:
        raise ConfigError(f"{steps:.3g} split steps to t = {t_end:.6g}: past 2**52 steps, the "
                          "midpoint time (k + 1/2) h of step k is not exact")
    pieces = list(itertools.islice(protocol.piecewise_segments(t_end) or (), 2))
    if len(pieces) > 1:  # the drive switches before t_end, first at t1 of its first piece
        switch = pieces[0][1] - pieces[0][0]
        if round(switch / h) < 1 or abs(switch / h - round(switch / h)) > 1e-9:
            raise ConfigError(f"split-step size {h:.6g} must divide the protocol segment length "
                              f"{switch:.6g} for piecewise-constant protocols")
    return n_sub, h


def _propagate_trotter(model, protocol, t_grid, step):
    if t_grid[0] != 0.0 or len(t_grid) < 2:
        raise ConfigError("split-step propagation needs a uniform grid starting at t = 0")
    dt_out = float(t_grid[1] - t_grid[0])
    if not np.allclose(np.diff(t_grid), dt_out, rtol=1e-9):
        raise ConfigError("split-step propagation needs a uniform output grid")
    n_sub, h = split_step(protocol, dt_out, step, float(t_grid[-1]))
    psi = model.initial_state
    out = np.empty((3, len(t_grid)))
    out[:, :1] = _check_norm(_readout(model, psi[:, None].copy()), t_grid[:1])
    # The step e^{-iH0h/2} u P_k u^H e^{-iH0h/2}, P_k = e^{-i f_mid[k] w h}, in
    # V's eigenbasis: with y = e^{-iH0h/2} u and M = y^H e^{-iH0h} y
    # (= u^H e^{-iH0h} u), the state after step k is y c_k, c_k = P_k d and
    # d <- M c_k, starting from d = y^H e^{-iH0h} psi0.
    with _lent_whole(model.v_matrix) as step_matrix:
        w, y = _eigh(step_matrix)  # consumed: M is formed in it below
        y *= np.exp(-1j * model.energies * (h / 2.0))[:, None]
        full = np.exp(-1j * model.energies * h)
        for s in range(0, len(w), _BLOCK):  # by column blocks: no third m x m array
            step_matrix[:, s : s + _BLOCK] = _to_basis(y, full[:, None] * y[:, s : s + _BLOCK])
        n_out = len(t_grid) - 1
        d = _to_basis(y, full * psi)
        n = n_out * n_sub  # f_mid[k] = f((k + 1/2) h), evaluated _BLOCK midpoints at a time
        f_mid = (f for s in range(0, n, _BLOCK)
                 for f in protocols.eval_f(protocol, (np.arange(s, min(s + _BLOCK, n)) + 0.5) * h))
        readout = _BlockReadout(model, y, out)  # c at outputs; the state is y c
        for i in range(1, n_out + 1):
            for _ in range(n_sub):
                c = np.exp(-1j * next(f_mid) * w * h) * d
                d = step_matrix @ c
            idx = readout.add(i, c) + (readout.flush() if i == n_out else [])
            _check_norm(out[:, idx], t_grid[idx])  # each block as it is read out
    return out


def propagate(
    model: RandomMatrixModel,
    protocol: protocols.DrivingProtocol,
    t_grid: np.ndarray,
    method: str,
    step: Optional[float] = None,
) -> TrajectoryResult:
    """Exact Schroedinger propagation under H0 + f(t) V, recorded on t_grid.

    piecewise_exact: one eigendecomposition per distinct f value (constant
    and step protocols only); trotter: the second-order split step of
    split_step's h (a caller that reports h calls split_step), midpoint f, one
    matrix-vector product per step in V's eigenbasis (any protocol).  Both
    read their outputs out 64 at a time through the same m x 64 block readout.  Both
    work in V's own storage and restore it, so V must be the writable, C-ordered
    complex128 Hermitian array sample_v makes, and not propagated from another
    thread meanwhile (see the module docstring).
    """
    if method not in METHODS:
        raise ConfigError(f"unknown propagation method {method!r}")
    undriven = undriven_series(model, t_grid)  # checks t_grid before the driven run
    t_grid = np.asarray(t_grid, dtype=float)
    if method == "piecewise_exact":
        rows = _propagate_piecewise(model, protocol, t_grid)
    elif method == "trotter":
        if step is None or step <= 0:
            raise ConfigError("trotter propagation needs a positive step")
        rows = _propagate_trotter(model, protocol, t_grid, step)
    return TrajectoryResult(
        a_series=rows[0],
        h0_series=rows[1],
        norm_series=rows[2],
        undriven_a_series=undriven[0],
        undriven_h0_series=undriven[1],
    )
