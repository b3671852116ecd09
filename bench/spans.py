"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps the public functions of the seven layer modules by
replacing module attributes, in the layer's own module and wherever the
package re-exports or imports the same function object, so calls that
cross layers inside the package and the CLI's lazy imports both land in
a wrapper.  Spans (layer, function, start, end, parent, work) stay in
memory until the run ends.  A span's self time is its duration minus the
part its child spans cover.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import os
import sys
import time

LAYERS = ("sde", "hopf", "frame", "analysis", "fitting", "csvio", "cli")

# evaluated once per drift call inside the step kernel; a span each would
# cost more than the kernel step it measures
_NOT_TRACED = {"hopf_drift", "hopf_jacobian"}

_SIMULATORS = {
    "integrate_path", "integrate_ensemble",
    "simulate_hopf_exact", "simulate_hopf_linear", "simulate_reduced",
}


_SUBCOMMANDS = {"simulate", "decompose", "analyze", "formula", "fit", "validate"}

# position of the IntegratorConfig and of the path count in each simulator
_CONFIG_AT = {"simulate_reduced": 2}
_PATHS_AT = {"integrate_ensemble": 2, "simulate_reduced": 4}


def _arg(args, kwargs, name, at):
    return kwargs[name] if name in kwargs else (args[at] if len(args) > at else None)


def _work(name, args, kwargs):
    """Work count of one call: (path-steps, steps) for simulators, samples
    for kde, bytes for csvio, the subcommand for ``cli.run``."""
    if name in _SIMULATORS:
        config = _arg(args, kwargs, "config", _CONFIG_AT.get(name, 1))
        paths = _arg(args, kwargs, "n_paths", _PATHS_AT[name]) if name in _PATHS_AT else 1
        return (config.n_steps * (paths or 1), config.n_steps)
    if name == "kde":
        return len(_arg(args, kwargs, "samples", 0))
    if name.startswith(("write_", "read_")):
        path = _arg(args, kwargs, "path", 0)
        return os.path.getsize(path) if os.path.exists(path) else 0
    if name == "run":
        argv = _arg(args, kwargs, "argv", 0) or sys.argv[1:]
        return next((a for a in argv if a in _SUBCOMMANDS), "")
    return None


class Recorder:
    """Holds the spans; ``install`` swaps the wrappers in, ``uninstall``
    restores the original functions."""

    def __init__(self):
        self.spans = []       # [layer, name, start, end, parent, work, raised]
        self.overhead = 0.0   # seconds spent in the recorder itself
        self._stack = []
        self._swapped = []    # (module, attribute, original)

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(span)
            t1 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                t2 = clock()
                stack.pop()
                span[2], span[3] = t1, t2
                span[5] = _work(name, args, kwargs)
                self.overhead += (t1 - t0) + (clock() - t2)

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "noisycycles" or n.startswith("noisycycles.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"noisycycles.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if (callable(fn) and not isinstance(fn, type) and name not in _NOT_TRACED
                        and getattr(fn, "__module__", None) == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._swapped.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped.clear()

    def take(self):
        """Hand over the spans recorded so far and start a new list."""
        spans, overhead = list(self.spans), self.overhead
        self.spans.clear()
        self.overhead = 0.0
        return spans, overhead


def _self_times(spans):
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _outermost(spans, names):
    """Spans of functions in ``names`` with no ancestor among them."""
    out = []
    for s in spans:
        if s[1] not in names:
            continue
        parent = s[4]
        while parent >= 0 and spans[parent][1] not in names:
            parent = spans[parent][4]
        if parent < 0:
            out.append(s)
    return out


def layer_metrics(spans, n_ops):
    """Per-layer figures, each a mean per op over ``n_ops`` ops, except the
    per-path-step costs and the batch width, which are ratios of totals."""
    busy = dict.fromkeys(LAYERS, 0.0)
    dur, calls, work = {}, {}, {}
    for s, own in zip(spans, _self_times(spans)):
        busy[s[0]] += own
        key = s[1] if s[0] != "cli" else f"cli.{s[5]}"
        dur[key] = dur.get(key, 0.0) + s[3] - s[2]
        calls[key] = calls.get(key, 0) + 1
        if isinstance(s[5], int):
            work[key] = work.get(key, 0) + s[5]

    def sims(*names):
        done = [s for s in _outermost(spans, set(names)) if not s[6]]
        return (sum(s[3] - s[2] for s in done), sum(s[5][0] for s in done),
                sum(s[5][1] for s in done), len(done))

    def us_per(seconds, path_steps):
        return seconds / path_steps * 1e6 if path_steps else 0.0

    def per_op(table, *keys):
        return sum(table.get(k, 0) for k in keys) / n_ops

    writes = [k for k in dur if k.startswith("write_")]
    reads = [k for k in dur if k.startswith("read_")]
    sde_s, sde_ps, sde_steps, sde_calls = sims("integrate_path", "integrate_ensemble")
    hopf_s, hopf_ps, _, _ = sims("simulate_hopf_exact", "simulate_hopf_linear")
    red_s, red_ps, _, _ = sims("simulate_reduced")
    m = {
        "sde.calls": sde_calls / n_ops,
        "sde.busy_s": busy["sde"] / n_ops,
        "sde.path_steps": sde_ps / n_ops,
        "sde.batch_width": sde_ps / sde_steps if sde_steps else 0.0,
        "sde.us_per_path_step": us_per(sde_s, sde_ps),
        "hopf.busy_s": busy["hopf"] / n_ops,
        "hopf.path_steps": hopf_ps / n_ops,
        "hopf.us_per_path_step": us_per(hopf_s, hopf_ps),
        "frame.find_limit_cycle_s": per_op(dur, "find_limit_cycle"),
        "frame.build_frame_s": per_op(dur, "build_frame"),
        "frame.reduce_s": per_op(dur, "reduce"),
        "frame.simulate_reduced_s": per_op(dur, "simulate_reduced"),
        "frame.reduced_us_per_path_step": us_per(red_s, red_ps),
        "frame.reconstruct_s": per_op(dur, "reconstruct"),
        "frame.busy_s": busy["frame"] / n_ops,
        "analysis.sample_acv_s": per_op(dur, "sample_acv"),
        "analysis.averaged_periodogram_s": per_op(dur, "averaged_periodogram"),
        "analysis.kde_s": per_op(dur, "kde"),
        "analysis.kde_samples": per_op(work, "kde"),
        "analysis.kurtosis_s": per_op(dur, "kurtosis"),
        "analysis.wk_transform_s": per_op(dur, "wk_transform"),
        "analysis.busy_s": busy["analysis"] / n_ops,
        "fitting.calls": per_op(calls, "fit"),
        "fitting.fit_s": per_op(dur, "fit"),
        "fitting.failed": sum(1 for s in spans if s[1] == "fit" and s[6]) / n_ops,
        "csvio.write_s": per_op(dur, *writes),
        "csvio.read_s": per_op(dur, *reads),
        "csvio.bytes_written": per_op(work, *writes),
        "csvio.bytes_read": per_op(work, *reads),
        "cli.self_s": busy["cli"] / n_ops,
    }
    for sub in ("simulate", "decompose", "analyze", "formula", "fit"):
        m[f"cli.{sub}_s"] = per_op(dur, f"cli.{sub}")
    return m
