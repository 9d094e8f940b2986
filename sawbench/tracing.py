"""Spans and counters around the public functions of each sawkit layer.

The tracer replaces a function at every name it is bound to in a loaded
``sawkit`` module, so a caller that imported it directly (``cli`` imports
``render_panels``; ``resonance``, ``tls``, ``xps`` and ``afm`` import
``fit_least_squares``) calls the wrapper too.  ``uninstall`` puts the
originals back, so traced and untraced rounds run in one process.

Every call records a span (layer, start, end, parent, input).  The
least-squares wrapper also counts the residual evaluations of the function
it is given, telling Jacobian columns from trial steps, and counts a trial
step as accepted when it lowers the best cost so far, which is the
engine's own acceptance rule.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: (module, function, layer).  A function missing from its module is an
#: error, so a rename shows up as a missing layer, not as a zero.
TARGETS = (
    ("spectra", "parse_s11_csv", "spectra.parse"),
    ("spectra", "parse_xps_csv", "spectra.parse"),
    ("spectra", "parse_afm_grid", "spectra.parse"),
    ("spectra", "parse_tempsweep_csv", "spectra.parse"),
    ("spectra", "parse_powersweep_csv", "spectra.parse"),
    ("spectra", "parse_walkoff_csv", "spectra.parse"),
    ("resonance", "estimate_initial_params", "resonance.init"),
    ("resonance", "fit_resonance", "resonance.fit"),
    ("lsq", "fit_least_squares", "lsq.fit"),
    ("lsq", "numeric_jacobian", "lsq.jacobian"),
    ("svg", "render_panels", "svg.render"),
    ("tls", "fit_fdelta", "tls.fit"),
    ("tls", "fit_power_sweep", "tls.fit"),
    ("xps", "shirley_background", "xps.shirley"),
    ("xps", "fit_bands", "xps.bands"),
    ("afm", "remove_line_tilt", "afm.flatten"),
    ("afm", "height_histogram", "afm.histogram"),
    ("afm", "fit_step_heights", "afm.steps"),
    ("walkoff", "smooth_curve", "walkoff"),
    ("walkoff", "find_zero_crossings", "walkoff"),
    ("walkoff", "find_tangencies", "walkoff"),
    ("cli", "main", "cli"),
)


class TraceError(RuntimeError):
    """A traced layer is missing or was never called."""


class Tracer:
    def __init__(self):
        self.spans = []          # [input, layer, start, end, parent index]
        self.child_time = []     # per span: time covered by its child spans
        self.calls = Counter()   # "module.function" -> calls
        self.counts_by_input = defaultdict(Counter)  # input -> counter -> total
        self.input = None
        self._stack = []
        self._jacobian_depth = 0
        self._patches = []       # (module, name, original)

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "sawkit" or name.startswith("sawkit.")}
        for mod_name, func, layer in TARGETS:
            mod = modules.get(f"sawkit.{mod_name}")
            original = getattr(mod, func, None)
            if original is None:
                raise TraceError(f"layer {layer}: sawkit.{mod_name}.{func} not found")
            wrapper = self._wrap(f"{mod_name}.{func}", layer, original)
            for owner in modules.values():
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, name, original))
                        setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, qualname, layer, original):
        if layer == "lsq.fit":
            return self._wrap_fit(qualname, original)

        def wrapper(*args, **kwargs):
            self.calls[qualname] += 1
            token = self._enter(layer)
            if layer == "lsq.jacobian":
                self._jacobian_depth += 1
            try:
                result = original(*args, **kwargs)
            finally:
                if layer == "lsq.jacobian":
                    self._jacobian_depth -= 1
                self._exit(token)
            self._count(layer, args, result)
            return result

        return wrapper

    def _count(self, layer, args, result):
        c = self.counts_by_input[self.input]
        if layer == "spectra.parse":
            c["spectra.parse_bytes"] += len(args[0])
        elif layer == "svg.render":
            c["svg.plots"] += 1
            c["svg.bytes"] += len(result)
        elif layer == "xps.shirley":
            c["xps.shirley_iterations"] += result.n_iterations

    def _wrap_fit(self, qualname, original):
        def fit(fun, p0, *args, **kwargs):
            self.calls[qualname] += 1
            c = self.counts_by_input[self.input]
            state = {"best": None, "jacobians": 0}
            jacobians_before = self.calls["lsq.numeric_jacobian"]

            def residual(p):
                r = fun(p)
                c["lsq.residual_evals"] += 1
                if self._jacobian_depth == 0:
                    arr = np.asarray(r, dtype=float)
                    cost = float(arr @ arr) if np.all(np.isfinite(arr)) else np.inf
                    if state["best"] is None:
                        state["best"] = cost
                    else:
                        c["lsq.trial_steps"] += 1
                        if cost < state["best"]:
                            c["lsq.accepted_steps"] += 1
                            state["best"] = cost
                return r

            token = self._enter("lsq.fit")
            try:
                result = original(residual, p0, *args, **kwargs)
            except Exception:
                c["lsq.iterations"] += self.calls["lsq.numeric_jacobian"] - jacobians_before
                raise
            finally:
                self._exit(token)
                c["lsq.fits"] += 1
            c["lsq.iterations"] += result.n_iterations
            return result

        return fit

    # -- spans ------------------------------------------------------------

    def _enter(self, layer):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([self.input, layer, time.perf_counter(), 0.0, parent])
        self.child_time.append(0.0)
        self._stack.append(index)
        return index

    def _exit(self, index):
        span = self.spans[index]
        span[3] = time.perf_counter()
        self._stack.pop()
        if span[4] >= 0:
            self.child_time[span[4]] += span[3] - span[2]

    # -- summaries --------------------------------------------------------

    def layer_times(self):
        """{input: {layer: (inclusive seconds, self seconds)}}."""
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
        for (inp, layer, start, end, _), child in zip(self.spans, self.child_time):
            acc = out[inp][layer]
            acc[0] += end - start
            acc[1] += end - start - child
        return out

    def require(self, functions):
        """Raise TraceError unless every named function was called."""
        missing = [f for f in functions if self.calls[f] == 0]
        if missing:
            raise TraceError("traced functions never called (renamed or bypassed?): "
                             + ", ".join(missing))
