"""Config-driven experiment harness: scenarios, CSV artifacts, metrics.

Configs are YAML with nested sections; `render_config` round-trips through
`parse_config`.  One schema table per section gives each key's check, default,
whether it is required and where it is read: an unknown, repeated, missing or
never-read key or a bad value is a `ConfigError` naming the dotted field, and
a null value is the same as an absent key.  `_plan` checks a `simulate`
config and builds each of its inputs once, before any model is sampled, its
step grids too; of these only the solver grid is sized against the physical
memory, as is the output grid.  The scenario runners take that plan, build
nothing and do no step arithmetic.  Keys that pass straight to a library call
stay absent when not given, so that call's default is the only one; a None
default is derived at load and checked as a given value.
Every CSV is written by np.savetxt with 17-significant-digit floats (bit-exact
round trips) and a JSON sidecar: raw config echo, seeds, versions, derived constants.

Scenarios
---------
fidelity            survival probability of a mid-spectrum eigenstate under
                    periodic driving, compared with the predicted
                    |gamma(t,t)|^2 and both closed-form limits.
strong_scale        the strong-driving scale r(t) and its margin r/Sigma_0.
quench_asymptotics  phi1/phi2 of the linear ramp against their late-time
                    limits f0^2 and f0^2 T^2/16.
double_pretherm     two-sector model whose driven dynamics passes through
                    undriven equilibration, response oscillations between
                    the diagonal-ensemble and thermal values, and heating.
"""

from __future__ import annotations

import copy
import json
import math
import operator
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy
import yaml

from . import __version__, approximations, profiles, protocols, response, rmt
from .errors import ConfigError, EmptyWindowError, GridMismatchError

SCENARIOS = ("fidelity", "strong_scale", "quench_asymptotics", "double_pretherm")
_SIMULATIONS = ("fidelity", "double_pretherm")


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


# A check is a pair (what, convert): convert takes a raw value to the checked
# one and raises TypeError or ValueError; `what` names the expected value.  No
# key takes a boolean, so YAML's true/yes/false never pass as 1 or 0.
def _check(what: str, ok: Callable, convert: Callable = lambda v: v) -> tuple:
    def run(value):
        x = convert(value)
        if isinstance(value, bool) or not ok(x):
            raise ValueError(what)
        return x

    return what, run


def _whole(lo: int) -> tuple:
    def to_int(v):  # never truncates: 2.0 and "2" are 2, 2.7 is an error
        if isinstance(v, float) and not v.is_integer():
            raise ValueError("not a whole number")
        return int(v) if isinstance(v, (float, str)) else operator.index(v)

    return _check(f"a whole number >= {lo}", lambda n: n >= lo, to_int)


def _one_of(names) -> tuple:
    return _check(f"one of {list(names)}", lambda x: x in names)


def _list_of(item: tuple, length: Optional[int] = None) -> tuple:
    def run(value):
        if not isinstance(value, list) or length not in (None, len(value)):
            raise TypeError("not a list of the right length")
        return [item[1](x) for x in value]

    return f"a list of {length or 'any number of'} values, each {item[0]}", run


# float() also takes numeral strings: YAML reads 1e-2 (no dot) as a string
_FINITE = _check("a finite number", math.isfinite, float)
_POSITIVE = _check("a finite number > 0", lambda x: math.isfinite(x) and x > 0, float)
_NONNEG = _check("a finite number >= 0", lambda x: math.isfinite(x) and x >= 0, float)
_NAME = _check("a string", lambda x: isinstance(x, str))
_MAPPING = _check("a mapping", lambda x: isinstance(x, dict))
_PATH = _check("the path of an existing file", Path.is_file, Path)
_INDEX = ("'middle' or a whole number >= 0", lambda v: v if v == "middle" else _whole(0)[1](v))

# A key is (check, default, when, required); check may be a nested section.  A key
# is read where when(the keys above it, checked) holds, and always for a when of
# None.  Where it is not read, a non-null value is an error and the default applies.
_OMIT = object()  # an absent key stays absent, so the library call's own default applies


def _req(check, when: Optional[Callable] = None, default=_OMIT) -> tuple:
    """A key that must be given, and not null, wherever it is read."""
    return check, default, when, True


def _opt(check, default=_OMIT, when: Optional[Callable] = None) -> tuple:
    """A key that may be absent; a None default is derived at load, checked as a given one."""
    return check, default, when, False


def _simulation(cfg: dict) -> bool:
    return cfg["scenario"] in _SIMULATIONS


def _filtered(state: dict) -> bool:
    return state["kind"] == "filtered_random"


_PROFILE = {
    "variant": _req(_one_of(profiles.VARIANTS)),
    "v0": _req(_POSITIVE, when=lambda p: p["variant"] == "exponential"),
    "delta_v": _req(_POSITIVE, when=lambda p: p["variant"] == "exponential"),
    "d0": _opt(_POSITIVE, None),  # null: 1/spacing if flat, else the window's density
    "table": _req(_PATH, when=lambda p: p["variant"] == "tabulated"),
}
_PROTOCOL = {
    "variant": _req(_one_of(protocols.VARIANTS)),
    "f0": _req(_FINITE, when=lambda p: p["variant"] != "tabulated"),
    "period": _opt(_POSITIVE, when=lambda p: p["variant"] in protocols._TIMESCALED),
    "table": _req(_PATH, when=lambda p: p["variant"] == "tabulated"),
}
_INPUTS = {
    "profile": _req(_PROFILE),
    "protocol": _req(_PROTOCOL),
    "grid": _req({"t_max": _req(_POSITIVE), "n_out": _req(_whole(1))}),
}
_MODEL = {
    "m": _req(_whole(2)),
    "spectrum": _req({
        "variant": _req(_one_of(rmt.SPECTRUM_VARIANTS)),
        "spacing": _opt(_POSITIVE, when=lambda s: s["variant"] == "flat"),
        "alpha": _opt(_NONNEG, when=lambda s: s["variant"] == "cosine_modulated"),
        "mean_spacing": _opt(_POSITIVE, when=lambda s: s["variant"] == "cosine_modulated"),
    }),
    "observable": _req({
        "kind": _req(_one_of(("fidelity", "eth"))),
        "a0_plus": _req(_FINITE, when=lambda o: o["kind"] == "eth"),
        "a0_minus": _req(_FINITE, when=lambda o: o["kind"] == "eth"),
    }),
    "initial_state": _req({
        "kind": _req(_one_of(rmt.STATE_KINDS)),
        "index": _opt(_INDEX, "middle", when=lambda s: s["kind"] == "eigenstate"),
        # the harness reads these two for the occupied window, so it holds their defaults
        "e_center": _opt(_FINITE, 0.0, when=_filtered),
        "delta_e": _opt(_POSITIVE, 1.0, when=_filtered),
        "q": _opt(_one_of(rmt.Q_KINDS), when=_filtered),
        "kappa": _opt(_FINITE, when=lambda s: _filtered(s) and s.get("q") == "one_plus_kappa_a"),
        "sector": _opt(_one_of(rmt.SECTORS), when=_filtered),
    }),
    "method": _opt(_one_of(rmt.METHODS), "piecewise_exact"),
    "trotter_step": _req(_POSITIVE, when=lambda m: m["method"] == "trotter", default=None),
}
_SOLVER_STEP = _opt(_POSITIVE, None)  # null: response.default_step, fixed at load (_solver_grid)
_SCENARIO = {
    "scenario": _req(_one_of(SCENARIOS)),
    "seed": _req(_whole(0), when=_simulation),
    **_INPUTS,
    "model": _req(_MODEL, when=_simulation),
    "prediction": _opt({
        "t_max": _opt(_POSITIVE, None),  # null: min(grid.t_max, 5 timescales)
        "solver_step": _SOLVER_STEP,
    }, {}, when=_simulation),
    "window_halfwidth_factor": _opt(
        _POSITIVE, 2.0, when=lambda c: _simulation(c) and _filtered(c["model"]["initial_state"])),
}
_RESPOND = {
    **_INPUTS,
    "t_primes": _opt(_list_of(_NONNEG), None),
    "solver_step": _SOLVER_STEP,
}
_COMPARE = {
    "file_a": _req(_PATH),
    "column_a": _req(_NAME),
    "file_b": _req(_PATH),
    "column_b": _req(_NAME),
    "window": _opt(_list_of(_FINITE, 2), None),  # null: the whole grid
}
# run_sweep checks the base, then each variation once it is applied
_OVERRIDES = _check("a mapping of dotted-path strings to values",
                    lambda x: isinstance(x, dict) and all(isinstance(k, str) for k in x))
_SWEEP = {"sweep": _req({"base": _req(_MAPPING), "variations": _req(_list_of(_OVERRIDES))})}


def _checked(schema: dict, raw, where: str = "") -> dict:
    """The normalised copy of one raw config section, checked against its schema.

    `where` is the dotted prefix of the section ("" at the top).  Keys are
    checked in schema order, so a `when` sees the keys above it converted.
    Defaults pass the same checks as given values.
    """
    section = where.rstrip(".") or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} must be a mapping, got {raw!r}")
    unknown = sorted(set(raw) - set(schema), key=str)  # by str: YAML reads a bare 1: as an int
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {unknown}; allowed: {list(schema)}")
    out, given = {}, {k: v for k, v in raw.items() if v is not None}  # null is the same as absent
    for key, (check, default, when, required) in schema.items():
        field, read = where + key, when is None or when(out)
        if (read and required and key not in given) or (key in given and not read):
            about = f" with {', '.join(_strings(out, where))}" if when else ""
            raise ConfigError(f"missing key {field!r}{about}" if read else
                              f"key {field!r} is never read{about}; remove it")
        value = given.get(key, default)
        if value is _OMIT:
            continue
        if isinstance(check, dict):
            out[key] = _checked(check, value, field + ".")
            continue
        what, convert = check
        try:
            out[key] = None if value is None else convert(value)  # only a None default is None
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{field} must be {what}, got {value!r}") from None
    return out


def _strings(section: dict, where: str) -> list:
    """'field=value' for each string in a checked section, nested ones too: what a when reads."""
    found = []
    for k, v in section.items():
        if isinstance(v, dict):
            found += _strings(v, f"{where}{k}.")
        elif isinstance(v, str):
            found.append(f"{where}{k}={v!r}")
    return found


def parse_config(text: str) -> dict:
    """A YAML config as a plain dict, checked per command; text that is not YAML, or a key
    given twice, is a ConfigError."""
    try:
        loader = yaml.SafeLoader(text)
        node = loader.get_single_node()
        _unique_keys(node, "", set())
        cfg = None if node is None else loader.construct_document(node)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not YAML: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a YAML mapping")
    return cfg


def _unique_keys(node, where: str, seen: set) -> None:
    """Raise a ConfigError naming the dotted path of a key given twice in one mapping of a YAML
    node tree, where YAML would keep the last value; seen holds the nodes checked."""
    if id(node) in seen:  # an alias, checked at its anchor
        return
    seen.add(id(node))
    if isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _unique_keys(item, f"{where.rstrip('.')}[{i}].", seen)
    elif isinstance(node, yaml.MappingNode):
        fields = [where + str(key.value) for key, _ in node.value]
        for i, (field, (_, value)) in enumerate(zip(fields, node.value)):
            if field in fields[:i]:
                raise ConfigError(f"key {field!r} is given twice; keep one")
            _unique_keys(value, field + ".", seen)


def render_config(cfg: dict) -> str:
    """Canonical YAML rendering; parse_config(render_config(c)) == c."""
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)


def load_config(path) -> dict:
    """parse_config of the file at path; a file that is not UTF-8 is a ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {str(path)!r} is not UTF-8: {exc}") from None
    return parse_config(text)


class _Plan(NamedTuple):
    """A checked `simulate` config and its inputs; the model's are None outside simulations."""
    cfg: dict  # normalised
    protocol: protocols.DrivingProtocol
    profile: profiles.PerturbationProfile
    t_grid: np.ndarray
    spec: Optional[rmt.SpectrumSpec] = None
    energies: Optional[np.ndarray] = None
    window: Optional[tuple] = None  # the energies a filtered_random state occupies
    n_pred: Optional[int] = None  # output steps of the prediction
    solver: Optional[tuple] = None  # (substeps, h): the prediction's grid, dt = substeps h
    split: Optional[tuple] = None  # (n_sub, h): a trotter run's split step, dt = n_sub h


def validate_scenario_config(cfg: dict) -> dict:
    """Check a `simulate` config; returns its normalised copy.

    Beyond the schema, the rules that cross fields are checked here, without
    matrix work: the protocol and profile build (their tables included; a null d0
    only in a simulation), quench_asymptotics has a linear ramp, fidelity needs an
    eigenstate, eth an even m, piecewise_exact a piecewise-constant protocol,
    trotter a trotter_step that `rmt.split_step` takes, the prediction horizon reaches
    half an output step, a null solver step's default_step is > 0, the output grid and,
    of the step grids, only the solver grid fit the physical memory (`_output_grid`,
    `_solver_grid`), and so do the dense arrays of propagation (`rmt._peak_arrays`,
    against m), the state index ("middle" is m // 2) lies in [0, m), and a
    filtered state passes the run's own `rmt.window_levels` and `rmt.check_filter`,
    so a config that loads does not fail on its window after sampling.
    """
    return _plan(cfg).cfg


def _plan(cfg: dict) -> _Plan:
    """A `simulate` config's checked plan (validate_scenario_config): its d0 and step are final."""
    c = _checked(_SCENARIO, cfg)
    protocol = build_protocol(c["protocol"])
    t_grid = _output_grid(c["grid"])
    if c["scenario"] == "quench_asymptotics" and protocol.variant != "linear_ramp":
        raise ConfigError(f"protocol.variant must be linear_ramp for quench_asymptotics, "
                          f"got {protocol.variant!r}")
    if c["scenario"] not in _SIMULATIONS:  # no model measures d0
        return _Plan(c, protocol, build_profile(c["profile"]), t_grid)
    model = c["model"]
    m, obs, state = model["m"], model["observable"], model["initial_state"]
    spec = rmt.SpectrumSpec(m=m, **model["spectrum"])
    # the prediction ends at t_max, by default at 5 time scales, and never past the grid
    dt, t_end, ts = float(t_grid[1]), float(t_grid[-1]), protocol.timescale()
    t_max = c["prediction"]["t_max"]
    horizon = min(t_max or (t_end if ts is None else min(t_end, 5.0 * ts)), t_end)
    n_pred = int(round(horizon / dt))
    if n_pred == 0:
        raise ConfigError(f"prediction.t_max {t_max!r} (null: min(grid.t_max, 5 protocol time "
                          f"scales)) gives the horizon {horizon:g}, under half the output step "
                          f"{dt:g}, so the prediction would hold no step beyond t = 0")
    if obs["kind"] == "fidelity" and state["kind"] != "eigenstate":
        raise ConfigError("model.observable.kind fidelity projects on an eigenstate, "
                          f"but model.initial_state.kind is {state['kind']!r}")
    if obs["kind"] == "eth" and m % 2:
        raise ConfigError(f"model.m must be even for the two-sector eth observable, got {m}")
    try:  # either method draws the drive's pieces: a ValueError if too many to count
        protocol.piecewise_segments(t_end)
    except ValueError as exc:
        raise ConfigError(f"protocol.period {protocol.period!r}: {exc}") from None
    split = None
    if model["method"] == "trotter":
        try:  # split_step's ConfigError, named by the key
            split = rmt.split_step(protocol, dt, model["trotter_step"], t_end)
        except ConfigError as exc:
            raise ConfigError(f"model.trotter_step {model['trotter_step']!r}: {exc}") from None
    elif protocol.variant not in protocols.PIECEWISE_CONSTANT:
        raise ConfigError(f"model.method piecewise_exact needs protocol.variant in "
                          f"{list(protocols.PIECEWISE_CONSTANT)}, got {protocol.variant!r}")
    index = state["index"] = m // 2 if state["index"] == "middle" else state["index"]
    if index >= m:
        raise ConfigError(f"model.initial_state.index must lie in [0, {m}), got {index!r}")
    e, window = spec.energies(), None
    if state["kind"] == "filtered_random":
        k, e0, de = c["window_halfwidth_factor"], state["e_center"], state["delta_e"]
        window = (e0 - k * de, e0 + k * de)
        try:  # the run's rules after sampling; a filtered state's eth observable is dense
            rmt.window_levels(e, window)
            rmt.check_filter(e, **{n: v for n, v in state.items() if n not in ("kind", "index")})
        except EmptyWindowError as exc:
            raise ConfigError(f"model.initial_state.e_center {e0!r} with delta_e {de!r} and "
                              f"window_halfwidth_factor {k!r}: {exc}") from None
    # a null d0 is 1/spacing on a flat spectrum, else the density the run measures in the window
    d0 = 1.0 / spec.spacing if spec.variant == "flat" else rmt.window_density(e, window)
    profile = build_profile(c["profile"], d0_override=d0)
    solver = _solver_grid(c["prediction"], profile, protocol, max(horizon, dt),
                          t_grid[: n_pred + 1], (), "prediction.")
    # the solver's arrays are freed before V exists: each peak must fit on its own
    arrays = rmt._peak_arrays(protocol, t_end, model["method"], m, obs["kind"] == "eth")
    _fits(16.0 * m * m * arrays,
          f"model.m {m}: propagation holds {arrays:.3g} arrays of 16 m^2 bytes")
    return _Plan(c, protocol, profile, t_grid, spec, e, window, n_pred, solver, split)


def _solver_grid(section: dict, profile, protocol, t_end: float, t_out, t_primes,
                 where: str) -> tuple:
    """The solver grid (substeps, h) = subdivide(dt, step) of a _gamma_on_grid call on t_out and
    t_primes: step is section's solver_step, else default_step up to t_end, checked.  A
    ConfigError if the solver's g and c exceed _physical_memory()."""
    h = section["solver_step"] or response.default_step(profile, protocol, t_end)  # given: > 0
    try:
        _SOLVER_STEP[0][1](h)
    except ValueError as exc:  # only a default can fail: a given step passed this check at load
        raise ConfigError(f"{where}solver_step must be {exc}, got default_step's {h!r}") from None
    what = f"{where}solver_step {'' if section['solver_step'] else 'null, default_step '}{h!r}"
    k, h = protocols.subdivide(float(t_out[1]), h)  # an uncountable k is inf: past any memory
    rows, n_out = len(t_out) + len(t_primes), len(t_out) - 1
    _fits(response.ROW_STEP_BYTES * rows * (float(k) * n_out + 1),  # past 1.8e308: inf
          f"{what} gives {k:.3g} steps an output step; the solver's g and c")
    return k, h


def _physical_memory() -> int:
    """Bytes of physical memory on this host: no grid a config sizes may need more."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _fits(need: float, what: str) -> None:
    """A ConfigError unless need bytes fit in _physical_memory(); what needs them starts the
    message with its field."""
    have = _physical_memory()
    if need > have:
        raise ConfigError(f"{what}: {need:.3g} bytes, over the {have:.3g} bytes of physical memory")


def build_profile(section: dict, d0_override: Optional[float] = None):
    """The PerturbationProfile of a `profile` section; a null d0 takes d0_override."""
    p = _checked(_PROFILE, section, "profile.")
    d0 = d0_override if p["d0"] is None else p["d0"]
    if d0 is None:
        raise ConfigError("profile.d0 is null and no measured value is available")
    if p["variant"] == "tabulated":
        return _from_table("profile.table", p["table"], lambda e, v: profiles.PerturbationProfile(
            "tabulated", d0, energies=e, values=v))
    return profiles.PerturbationProfile("exponential", d0, v0=p["v0"], delta_v=p["delta_v"])


def build_protocol(section: dict) -> protocols.DrivingProtocol:
    """The protocol of a `protocol` section."""
    p = _checked(_PROTOCOL, section, "protocol.")
    if p["variant"] == "tabulated":
        return _from_table("protocol.table", p["table"], lambda t, f: protocols.DrivingProtocol(
            variant="tabulated", times=t, values=f))
    return protocols.DrivingProtocol(**p)


def _from_table(field: str, path, build: Callable):
    """build(first column, second column) of a two-column CSV; a bad table is a
    ConfigError naming the field."""
    try:
        columns = list(read_csv(path).values())
        if len(columns) != 2:
            raise ValueError("expected a two-column CSV")
        return build(*columns)
    except ValueError as exc:
        raise ConfigError(f"{field} {str(path)!r}: {exc}") from None


# ---------------------------------------------------------------------------
# CSV and sidecar IO
# ---------------------------------------------------------------------------


def write_csv(path, columns: dict) -> Path:
    """UTF-8 CSV, header row, '.' decimal separator, 17 significant digits."""
    path = Path(path)
    arrays = [np.asarray(c, dtype=float) for c in columns.values()]
    if any(len(a) != len(arrays[0]) for a in arrays):
        raise GridMismatchError("CSV columns differ in length")
    np.savetxt(path, np.column_stack(arrays), fmt="%.17g", delimiter=",",
               header=",".join(columns), comments="", encoding="utf-8")
    return path


def read_csv(path) -> dict:
    """{name: column}; a ValueError naming path if a name repeats or rows do not fit the header."""
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
        twice = [n for i, n in enumerate(names) if n in names[:i]]
        if twice:
            raise ValueError(f"{path}: the header names column {twice[0]!r} twice")
        rows = (line.split("#", 1)[0] for line in fh)  # loadtxt's comment rule
        widths = {len(row.split(",")) for row in rows if row.strip()}
    if widths != {len(names)}:
        raise ValueError(f"{path}: {len(names)} header names, data row widths {sorted(widths)}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(names, data.T))


def _base_meta(cfg: dict) -> dict:
    """Sidecar fields every CSV carries: the raw config echo, RNG and versions."""
    versions = {"typresp": __version__, "numpy": np.__version__,
                "scipy": scipy.__version__, "python": sys.version.split()[0]}
    return {"config": cfg, "rng": rmt.RNG_ALGORITHM, "seed_streams": rmt._STREAMS,
            "versions": versions}


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, default=float) + "\n",
                    encoding="utf-8")
    return path


def write_sidecar(csv_path, meta: dict) -> Path:
    return _write_json(Path(str(csv_path) + ".meta.json"), meta)


def _write_outputs(out_dir, meta: Optional[dict], csvs: dict, metrics: dict,
                   metrics_file: Optional[str] = None) -> dict:
    """Write each CSV of {name: columns} with a sidecar of meta, then metrics to metrics_file
    if one is named, into the out_dir its command made; the summary {"files", "metrics"}."""
    out_dir = Path(out_dir)
    files = [write_csv(out_dir / name, columns) for name, columns in csvs.items()]
    for f in files:
        write_sidecar(f, meta)
    if metrics_file is not None:
        files.append(_write_json(out_dir / metrics_file, metrics))
    return {"files": [str(f) for f in files], "metrics": metrics}


# ---------------------------------------------------------------------------
# comparison metrics
# ---------------------------------------------------------------------------


def compare(t_grid: np.ndarray, series_a: np.ndarray, series_b: np.ndarray, window: tuple) -> dict:
    """{"rms", "max_abs", "window": [t_a, t_b]} of a - b on t_grid, over window = (t_a, t_b)."""
    t_grid, a, b = (np.asarray(x, dtype=float) for x in (t_grid, series_a, series_b))
    if not (t_grid.shape == a.shape == b.shape):
        raise GridMismatchError("compared series must share one grid")
    ta, tb = float(window[0]), float(window[1])
    if tb < ta:
        raise ValueError("window must be ordered")
    if ta < t_grid[0] - 1e-12 or tb > t_grid[-1] + 1e-12:
        raise ValueError("window must lie within the grid")
    sel = (t_grid >= ta - 1e-12) & (t_grid <= tb + 1e-12)
    if not np.any(sel):
        raise ValueError(f"window [{ta}, {tb}] holds no grid point")
    diff = a[sel] - b[sel]
    return {"rms": float(np.sqrt(np.mean(diff**2))), "max_abs": float(np.max(np.abs(diff))),
            "window": [ta, tb]}


def compare_files(cfg: dict, out_dir) -> dict:
    """`compare` subcommand: metrics between one column of each of two CSVs."""
    c = _checked(_COMPARE, cfg)
    a, b = {}, {}
    for key, data, column in (("file_a", a, c["column_a"]), ("file_b", b, c["column_b"])):
        try:
            data.update(read_csv(c[key]))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
        for name in ("t", column):
            if name not in data:
                raise GridMismatchError(f"{c[key]} has no column {name!r}")
    if not np.array_equal(a["t"], b["t"]):
        raise GridMismatchError("time grids differ between the two files")
    window = c["window"] or [float(a["t"][0]), float(a["t"][-1])]
    try:
        metrics = compare(a["t"], a[c["column_a"]], b[c["column_b"]], (window[0], window[1]))
    except ValueError as exc:  # compare's window rules, which a config must keep
        raise ConfigError(f"window {window}: {exc}") from None
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return _write_outputs(out_dir, None, {}, metrics, "compare_metrics.json")


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


def _output_grid(grid: dict) -> np.ndarray:
    """Times k t_max / n_out; a ConfigError if they and their arange exceed the memory (_fits)."""
    n = grid["n_out"]
    _fits(16 * (n + 1), f"grid.n_out {n!r}: the output grid, {n + 1} times and their arange")
    return grid["t_max"] / n * np.arange(n + 1)


def _build_model(plan: _Plan) -> tuple:
    """(model, derived): the sampled model and its rmt.reference_constants."""
    seed, energies = plan.cfg["seed"], plan.energies
    obs, state = plan.cfg["model"]["observable"], plan.cfg["model"]["initial_state"]
    v = rmt.sample_v(energies, plan.profile, seed)
    if obs["kind"] == "fidelity":
        observable = rmt.fidelity_observable(plan.spec.m, state["index"])
    else:
        observable = rmt.build_eth_observable(energies, plan.spec.e_top, obs["a0_plus"],
                                              obs["a0_minus"], seed)
    psi = rmt.build_initial_state(energies, master_seed=seed, observable=observable, **state)
    derived = rmt.reference_constants(energies, observable, np.abs(psi) ** 2, plan.window)
    return rmt.RandomMatrixModel(energies, v, observable, psi), derived


def _gamma_on_grid(profile, protocol, grid: tuple, t_out, t_primes=()):
    """(gamma(t_k, t_k), [gamma(t_k, t') for t' in t_primes]) on the output grid t_k = k dt:
    one gamma_rows call on the solver grid (substeps, h), t_i = i h with dt = substeps h,
    solves diagonal row k to step k substeps and each t' row to the end."""
    substeps, h = grid
    steps = substeps * np.arange(len(t_out))
    ends = np.append(steps, np.full(len(t_primes), steps[-1]))
    g = response.gamma_rows(profile, protocol, h, np.append(steps * h, t_primes), ends)
    return g[np.arange(len(steps)), steps], g[len(steps):, ::substeps]


def _approx_columns(profile, protocol, t_grid):
    """Closed-form columns on the diagonal t' = t, of one phi evaluation."""
    phi1, phi2 = protocols.phi_arrays(protocol, t_grid)
    r_of_t = approximations.r_scale(profile, phi1, phi2)
    return {
        "t": t_grid,
        "gamma_bessel": approximations.strong_driving_gamma(r_of_t, t_grid),
        "gamma_hf": approximations.fast_driving_gamma(profile, phi1, t_grid),
        "gamma_weak": approximations.weak_fast_gamma(profile, phi1, t_grid),
        "r_of_t": r_of_t,
        "margin": r_of_t / profiles.moment(profile, 0),
    }


def _run_simulation_scenario(plan: _Plan) -> tuple:
    """Shared fidelity / double_pretherm pipeline: (CSVs, metrics, sidecar fields)."""
    cfg, protocol, t_grid, n_pred = plan.cfg, plan.protocol, plan.t_grid, plan.n_pred
    # prediction on the output grid up to its horizon, solved first: a blow-up costs no sampling
    dt, ts, t_pred = float(t_grid[1]), protocol.timescale(), t_grid[: n_pred + 1]
    gamma_sq = _gamma_on_grid(plan.profile, protocol, plan.solver, t_pred)[0] ** 2
    model, derived = _build_model(plan)

    method = cfg["model"]["method"]
    traj = rmt.propagate(model, protocol, t_grid, method=method, step=cfg["model"]["trotter_step"])
    a_sim, undriven, a_th = (traj.a_series[: n_pred + 1], traj.undriven_a_series[: n_pred + 1],
                             derived["a_th"])
    a_pred = response.predict_observable(t_pred, gamma_sq, undriven, a_th)

    # metrics: early window (two driving periods when defined) and full window
    t_pred_end = float(t_pred[-1])
    early_end = min(2.0 * ts, t_pred_end) if ts is not None else t_pred_end
    metrics = {
        "rms_early": compare(t_pred, a_pred, a_sim, (0.0, early_end)),
        "rms_full": compare(t_pred, a_pred, a_sim, (0.0, t_pred_end)),
        "derived": derived,
        "norm_max_drift": float(np.max(np.abs(traj.norm_series - 1.0))),
    }

    if cfg["scenario"] == "double_pretherm":
        metrics["undriven_h0_drift"] = float(np.ptp(traj.undriven_h0_series))
        if ts is not None and t_grid[-1] >= 2 * ts:
            per = max(1, int(round(ts / dt)))
            metrics["heating"] = {
                "h0_first_period": float(np.mean(traj.h0_series[: per + 1])),
                "h0_last_period": float(np.mean(traj.h0_series[-per:])),
            }
            band_sel = t_pred >= 2 * ts
            if np.any(band_sel):
                band = a_pred[band_sel]
                metrics["band"] = {
                    "min": float(band.min()),
                    "max": float(band.max()),
                    "center": float(0.5 * (band.min() + band.max())),
                    "a_th": a_th,
                    "a_bar0": derived["a_bar0"],
                }

    csvs = {
        "simulation.csv": {
            "t": t_grid,
            "a_driven": traj.a_series,
            "a_undriven": traj.undriven_a_series,
            "h0": traj.h0_series,
            "norm": traj.norm_series,
        },
        "prediction.csv": {"t": t_pred, "gamma_sq": gamma_sq, "a_pred": a_pred},
        "approximations.csv": _approx_columns(plan.profile, protocol, t_grid),
        "joined.csv": {
            "t": t_pred,
            "a_sim": a_sim,
            "a_pred": a_pred,
            "a_undriven": undriven,
            "gamma_sq": gamma_sq,
        },
    }
    step = None if plan.split is None else plan.split[1]
    return csvs, metrics, {"derived": derived, "method": {"name": method, "step": step}}


def _run_strong_scale(plan: _Plan) -> tuple:
    profile, protocol, t_grid = plan.profile, plan.protocol, plan.t_grid
    sigma0 = profiles.moment(profile, 0)
    phi1, phi2 = protocols.phi_arrays(protocol, t_grid)
    r = approximations.r_scale(profile, phi1, phi2)
    metrics = {"sigma0": sigma0}
    ts = protocol.timescale()
    if ts is not None:  # only when an output falls on each side of the first period's end
        first, later = r[(t_grid > 0) & (t_grid <= ts)], r[t_grid > ts]
        if first.size and later.size:
            metrics["r_max_first_period"] = float(first.max())
            metrics["r_max_later"] = float(later.max())
    if profile.variant == "exponential":
        metrics["crossover_amplitude"] = approximations.crossover_amplitude(
            profile, 1.0 / profile.d0)
    csv = {"t": t_grid, "r": r, "margin": r / sigma0, "phi1": phi1, "phi2": phi2}
    return {"strong_scale.csv": csv}, metrics, {"derived": metrics}


def _run_quench_asymptotics(plan: _Plan) -> tuple:
    protocol, t_grid = plan.protocol, plan.t_grid
    phi1, phi2 = protocols.phi_arrays(protocol, t_grid)
    f0, T = protocol.f0, protocol.period
    metrics = {
        "t_late": float(t_grid[-1]),
        "phi1_late": float(phi1[-1]),
        "phi1_limit": f0**2,
        "phi2_late": float(phi2[-1]),
        "phi2_limit": f0**2 * T**2 / 16.0,
    }
    csv = {"t": t_grid, "phi1": phi1, "phi2": phi2}
    return {"quench_asymptotics.csv": csv}, metrics, {"derived": metrics}


def run(cfg: dict, out_dir) -> dict:
    """Run the configured scenario; writes CSVs, sidecars and metrics into out_dir."""
    return _run_plan(_plan(cfg), cfg, out_dir)


def _run_plan(plan: _Plan, raw: dict, out_dir) -> dict:
    """Run a plan and write its outputs; the sidecars echo raw, the config it was built from."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)  # before any work: a bad out_dir fails first
    runners = {"strong_scale": _run_strong_scale, "quench_asymptotics": _run_quench_asymptotics}
    csvs, metrics, sidecar = runners.get(plan.cfg["scenario"], _run_simulation_scenario)(plan)
    return _write_outputs(out_dir, {**_base_meta(raw), **sidecar}, csvs, metrics, "metrics.json")


# ---------------------------------------------------------------------------
# respond / approx subcommands
# ---------------------------------------------------------------------------


def run_respond(cfg: dict, out_dir) -> dict:
    """Solve for gamma: diagonal always, plus any requested fixed t' curves."""
    c = _checked(_RESPOND, cfg)
    profile, protocol = build_profile(c["profile"]), build_protocol(c["protocol"])
    t_grid = _output_grid(c["grid"])
    t_primes = c["t_primes"] or []
    grid = _solver_grid(c, profile, protocol, float(t_grid[-1]), t_grid, t_primes, "")
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    diag, curves = _gamma_on_grid(profile, protocol, grid, t_grid, t_primes)
    csvs = {"respond_diagonal.csv": {"t": t_grid, "gamma": diag, "gamma_sq": diag**2}}
    for i, g in enumerate(curves):
        csvs[f"respond_tprime_{i:03d}.csv"] = {"t": t_grid, "gamma": g, "gamma_sq": g**2}
    return _write_outputs(out_dir, _base_meta(cfg), csvs, {"solver_step": grid[1]})


def run_approx(cfg: dict, out_dir) -> dict:
    """Closed-form approximation curves (evaluated on the diagonal t' = t)."""
    c = _checked(_INPUTS, cfg)
    profile = build_profile(c["profile"])
    protocol, t_grid = build_protocol(c["protocol"]), _output_grid(c["grid"])
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    csvs = {"approximations.csv": _approx_columns(profile, protocol, t_grid)}
    return _write_outputs(out_dir, _base_meta(cfg), csvs, {"sigma0": profiles.moment(profile, 0)})


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _apply_override(cfg: dict, dotted: str, value) -> None:
    *parents, last = dotted.split(".")
    node = cfg
    for k in parents:
        node = node.get(k) if isinstance(node, dict) else None
    if not isinstance(node, dict) or last not in node:
        raise ConfigError(f"override path {dotted!r} does not exist in the base config")
    node[last] = value


def validate_sweep_config(cfg: dict) -> dict:
    """Check a `sweep` config's own keys; returns {"base": <raw base>, "variations": [...]}."""
    return _checked(_SWEEP, cfg)["sweep"]


def run_sweep(cfg: dict, out_dir) -> dict:
    """Fan a base scenario config out over parameter variations.

    Each variation is a mapping of dotted config paths to values and runs in
    its own subdirectory; results are collected in variation order.  Every
    variation is checked once, before the first one runs.
    """
    sweep = validate_sweep_config(cfg)
    validate_scenario_config(sweep["base"])
    runs = []
    for var in sweep["variations"]:
        c = copy.deepcopy(sweep["base"])
        for key, value in sorted(var.items()):
            _apply_override(c, key, value)
        runs.append((_plan(c), c))
    out_dir = Path(out_dir)
    results = [_run_plan(plan, c, out_dir / f"var_{i:03d}") for i, (plan, c) in enumerate(runs)]
    return {"variations": len(results), "files": [f for r in results for f in r["files"]]}
