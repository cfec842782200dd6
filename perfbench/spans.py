"""Outside-in span recorder for the traced benchmark run.

`Tracer.install()` replaces the public functions (and public methods of
public classes) of each typresp module with thin wrappers that record one
span per call: name, group, start, end and parent span.  It also wraps the
LAPACK `eigh` entry points (`numpy.linalg.eigh`, `scipy.linalg.eigh`).
Every module attribute that refers to a wrapped function is rebound, so
`from .x import f` imports are caught too.  `uninstall()` restores the
originals, which lets one process alternate untraced and traced calls.

Spans are kept in memory; `summarize()` turns the spans of one top-level
call into the per-layer metrics, and `Tracer.dump()` writes them out.

Groups and what they measure (``.s`` is inclusive time of the outermost
spans of a group, ``.self_s`` excludes all child spans, ``.calls`` counts
entries into a group from another group):

    harness.run            harness.run / run_respond (the root span)
    harness.config         load/parse/render/validate config, build_profile/_protocol
    harness.io             write_csv, read_csv, write_sidecar
    rmt.eigh               numpy.linalg.eigh, scipy.linalg.eigh
    rmt.propagate          rmt.propagate
    rmt.undriven           rmt.undriven_series
    rmt.sample_v           rmt.sample_v
    rmt.observable         fidelity_observable, build_eth_observable, eth_diagonal
    rmt.initial_state      build_initial_state
    rmt.other              every other public rmt function or method
    response.diagonal      gamma_diagonal, gamma_diagonal_values
    response.tprime        solve_gamma
    response.default_step  default_step
    response.other         every other public response function
    approximations / protocols / profiles   the whole module
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from pathlib import Path

_HARNESS_GROUPS = {
    "run": "harness.run",
    "run_respond": "harness.run",
    "load_config": "harness.config",
    "parse_config": "harness.config",
    "render_config": "harness.config",
    "validate_scenario_config": "harness.config",
    "build_profile": "harness.config",
    "build_protocol": "harness.config",
    "write_csv": "harness.io",
    "read_csv": "harness.io",
    "write_sidecar": "harness.io",
}
_RMT_GROUPS = {
    "propagate": "rmt.propagate",
    "undriven_series": "rmt.undriven",
    "sample_v": "rmt.sample_v",
    "fidelity_observable": "rmt.observable",
    "build_eth_observable": "rmt.observable",
    "eth_diagonal": "rmt.observable",
    "build_initial_state": "rmt.initial_state",
}
_RESPONSE_GROUPS = {
    "gamma_diagonal": "response.diagonal",
    "gamma_diagonal_values": "response.diagonal",
    "solve_gamma": "response.tprime",
    "default_step": "response.default_step",
}

# layers whose self times partition the root span
SELF_GROUPS = {
    "harness.self_s": ("harness.run",),
    "harness.config.s": ("harness.config",),
    "harness.io.s": ("harness.io",),
    "rmt.self_s": ("rmt.eigh", "rmt.propagate", "rmt.undriven", "rmt.sample_v",
                   "rmt.observable", "rmt.initial_state", "rmt.other"),
    "response.self_s": ("response.diagonal", "response.tprime", "response.default_step",
                        "response.other"),
    "approximations.self_s": ("approximations",),
    "protocols.self_s": ("protocols",),
    "profiles.self_s": ("profiles",),
}


def _group_for(module_short: str, name: str):
    if module_short == "harness":
        return _HARNESS_GROUPS.get(name)  # other harness functions count as harness self time
    if module_short == "rmt":
        return _RMT_GROUPS.get(name, "rmt.other")
    if module_short == "response":
        return _RESPONSE_GROUPS.get(name, "response.other")
    return module_short


def _file_bytes(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


def _model_bytes(model) -> int:
    return sum(getattr(model, k).nbytes
               for k in ("energies", "v_matrix", "observable", "initial_state"))


def _measure(group, name, args, kwargs, result) -> int:
    """Work counter attached to a span: bytes moved, rows solved, model size."""
    if group == "harness.io":
        return _file_bytes(args[0] if name == "read_csv" else result)
    if group == "response.diagonal":
        return int(args[3] if len(args) > 3 else kwargs["n"])
    if group == "rmt.propagate":
        return _model_bytes(args[0] if args else kwargs["model"])
    return 0


class Tracer:
    """Records spans while installed; one instance per traced process."""

    def __init__(self, modules: dict):
        # modules: short name -> module object, e.g. {"rmt": typresp.rmt, ...}
        self.modules = modules
        self.spans = []  # [name, group, start, end, parent, outer, work]
        self._stack = []
        self._active = Counter()
        self._patches = []  # (owner, attribute, original, wrapper)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, group):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, group, 0.0, 0.0, stack[-1] if stack else -1, active[group] == 0, 0]
            spans.append(span)
            stack.append(idx)
            active[group] += 1
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                active[group] -= 1
                stack.pop()
            span[6] = _measure(group, fn.__name__, args, kwargs, result)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, function, span name, group) for everything to wrap."""
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    group = _group_for(short, attr)
                    if group is not None:
                        yield mod, attr, obj, f"{short}.{attr}", group
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, meth in vars(obj).items():
                        group = _group_for(short, f"{attr}.{mattr}")
                        if not mattr.startswith("_") and inspect.isfunction(meth) and group:
                            yield obj, mattr, meth, f"{short}.{attr}.{mattr}", group
        import numpy.linalg
        import scipy.linalg
        for owner, label in ((numpy.linalg, "numpy.linalg"), (scipy.linalg, "scipy.linalg")):
            yield owner, "eigh", owner.eigh, f"{label}.eigh", "rmt.eigh"

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for owner, attr, fn, name, group in list(self._targets()):
            wrapper = replaced.get(id(fn)) or self._wrap(fn, name, group)
            replaced[id(fn)] = wrapper
            self._patches.append((owner, attr, fn, wrapper))
            setattr(owner, attr, wrapper)
        # rebind `from .module import f` aliases in every traced module
        originals = {id(p[2]): p for p in self._patches}
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is not mod:
                    self._patches.append((mod, attr, obj, replaced[id(obj)]))
                    setattr(mod, attr, replaced[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, fn, _ in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def dump(self, path) -> None:
        keys = ("name", "group", "start", "end", "parent", "outer", "work")
        Path(path).write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


def summarize(spans) -> dict:
    """Per-layer metrics of the spans of one top-level call (a single root span)."""
    roots = sum(1 for s in spans if s[4] < 0)
    if roots != 1:
        raise ValueError(f"expected one root span, found {roots}")
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    incl, self_t, calls, work = Counter(), Counter(), Counter(), Counter()
    for i, (_, group, t0, t1, parent, outer, w) in enumerate(spans):
        dur = t1 - t0
        self_t[group] += dur - child[i]
        if outer:
            incl[group] += dur
            work[group] += w
        if parent < 0 or spans[parent][1] != group:
            calls[group] += 1
    out = {
        "rmt.eigh.s": incl["rmt.eigh"],
        "rmt.eigh.count": calls["rmt.eigh"],
        "rmt.propagate.s": incl["rmt.propagate"],
        "rmt.propagate.self_s": self_t["rmt.propagate"],
        "rmt.undriven.s": incl["rmt.undriven"],
        "rmt.sample_v.s": incl["rmt.sample_v"],
        "rmt.observable.s": incl["rmt.observable"],
        "rmt.initial_state.s": incl["rmt.initial_state"],
        "rmt.model_bytes": work["rmt.propagate"],
        "response.diagonal.s": incl["response.diagonal"],
        "response.rows": work["response.diagonal"],
        "response.tprime.s": incl["response.tprime"],
        "response.default_step.s": incl["response.default_step"],
        "approximations.s": incl["approximations"],
        "approximations.calls": calls["approximations"],
        "protocols.s": incl["protocols"],
        "protocols.calls": calls["protocols"],
        "profiles.s": incl["profiles"],
        "profiles.calls": calls["profiles"],
        "harness.io.bytes": work["harness.io"],
        "trace.spans": len(spans),
    }
    for metric, groups in SELF_GROUPS.items():
        out[metric] = sum(self_t[g] for g in groups)
    out["trace.self_sum_s"] = sum(out[m] for m in SELF_GROUPS)
    return out


COUNTERS = ("rmt.eigh.count", "rmt.model_bytes", "response.rows", "approximations.calls",
            "protocols.calls", "profiles.calls", "harness.io.bytes", "trace.spans")
