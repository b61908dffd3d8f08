"""Per-layer tracing by wrapping falpha's entry points from the outside.

``Tracer.install`` replaces each traced function, in every falpha module
that holds it (so names taken with ``from ... import`` are covered too),
by a wrapper that records a call count and a self time: the span's
duration minus the time spent in traced child spans.  A call that enters
the same layer again from inside it (recursion, a wrapper delegating to
its inner set) runs unrecorded, so a count is the number of entries into
the layer.  ``Tracer.remove`` puts the originals back.
"""

from __future__ import annotations

import sys
import time

# (module, owner, attribute, layer name); owner None means a module-level
# function, otherwise the name of a class in the module
SPANS = (
    ("falpha._backend", None, "cantor_scaled", "kernels.cantor_scaled"),
    ("falpha._backend", None, "g_series_scaled", "kernels.g_series"),
    ("falpha.mass", "StaircaseEvaluator", "increment", "mass.increment"),
    ("falpha.mass", None, "mass", "mass.ladder"),
    ("falpha.mass", None, "coarse_mass", "mass.coarse_mass"),
    ("falpha.dimension", None, "gamma_dimension", "dimension.gamma"),
    ("falpha.dimension", None, "box_counts", "dimension.box_counts"),
    ("falpha.calculus", None, "integrate", "calculus.integrate"),
    ("falpha.calculus", None, "sup_inf_on", "calculus.sup_inf_on"),
    ("falpha.calculus", None, "derivative", "calculus.derivative"),
    ("falpha.physics", None, "time_of_flight", "physics.time_of_flight"),
    ("falpha.physics", None, "friction_velocity", "physics.friction_velocity"),
    ("falpha.physics", None, "diffusion_density", "physics.diffusion"),
    ("falpha.physics", None, "diffusion_variance", "physics.diffusion"),
    ("falpha.physics", None, "diffusion_residual", "physics.diffusion"),
    ("falpha.cli", None, "main", "cli.main"),
)

# set-query methods, wrapped on every class of falpha.sets defining them
SET_METHODS = (
    ("_isect", "sets.isect"),
    ("extremes_in", "sets.extremes_in"),
    ("_raw_gaps", "sets.raw_gaps"),
    ("net_points", "sets.net_points"),
)

LAYERS = sorted({name for *_, name in SPANS} | {n for _, n in SET_METHODS}
                | {"mass.stair"})


class Tracer:
    def __init__(self):
        self.stack = []           # open spans: [layer, child seconds]
        self.stats = {}           # layer -> [calls, self seconds]
        self.stair_hits = 0
        self.f_evals = 0
        self.pairs = set()        # (lo, hi) seen by sup_inf_on in one integrate
        self.distinct_pairs = 0
        self._undo = []

    def reset(self):
        self.stats = {name: [0, 0.0] for name in LAYERS}
        self.stair_hits = 0
        self.f_evals = 0
        self.pairs = set()
        self.distinct_pairs = 0

    def _span(self, layer, fn):
        stack = self.stack
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stat = tracer.stats[layer]
                stat[0] += 1
                stat[1] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced entry point of the imported falpha modules."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "falpha" or n.startswith("falpha.")}
        self.reset()
        for modname, owner, attr, layer in SPANS:
            mod = mods[modname]
            if owner is not None:
                cls = getattr(mod, owner)
                self._set(cls, attr, self._span(layer, cls.__dict__[attr]))
                continue
            orig = getattr(mod, attr)
            wrapped = self._span(layer, orig)
            for m in mods.values():
                for name, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, name, wrapped)
        sets = mods["falpha.sets"]
        for cls in vars(sets).values():
            if not (isinstance(cls, type) and issubclass(cls, sets.SetSpec)):
                continue
            for attr, layer in SET_METHODS:
                if attr in cls.__dict__ and cls is not sets.SetSpec:
                    self._set(cls, attr, self._span(layer, cls.__dict__[attr]))
        self._install_counters(mods)

    def _install_counters(self, mods):
        tracer = self
        ev = mods["falpha.mass"].StaircaseEvaluator
        value = self._span("mass.stair", ev.__dict__["value"])

        def stair(self_, x):
            if x in self_._cache:
                tracer.stair_hits += 1
            return value(self_, x)

        self._set(ev, "value", stair)
        self._set(ev, "__call__", stair)

        calc = mods["falpha.calculus"]
        fonf_call = calc.FOnF.__dict__["__call__"]

        def f_call(self_, x):
            tracer.f_evals += 1
            return fonf_call(self_, x)

        self._set(calc.FOnF, "__call__", f_call)

        sup_inf = calc.sup_inf_on

        def sup_inf_on(f, spec, interval, level=10):
            tracer.pairs.add((interval.lo, interval.hi))
            return sup_inf(f, spec, interval, level)

        integ = calc.integrate

        def integrate(*args, **kwargs):
            outer = not any(fr[0] == "calculus.integrate" for fr in tracer.stack)
            try:
                return integ(*args, **kwargs)
            finally:
                if outer:
                    tracer.distinct_pairs += len(tracer.pairs)
                    tracer.pairs.clear()

        for m in mods.values():
            for name, val in list(vars(m).items()):
                if val is sup_inf:
                    self._set(m, name, sup_inf_on)
                elif val is integ:
                    self._set(m, name, integrate)

    def remove(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    def snapshot(self):
        """Counts and self times of the pass traced since the last reset."""
        out = {}
        for name in LAYERS:
            calls, self_s = self.stats[name]
            out[name + ".calls"] = calls
            out[name + ".self_ms"] = self_s * 1e3
        stair_calls = self.stats["mass.stair"][0]
        out["mass.stair.hits"] = self.stair_hits
        out["mass.stair.hit_ratio"] = (
            self.stair_hits / stair_calls if stair_calls else 0.0)
        sup_calls = self.stats["calculus.sup_inf_on"][0]
        out["calculus.sup_inf_on.distinct_ratio"] = (
            self.distinct_pairs / sup_calls if sup_calls else 0.0)
        out["calculus.f_evals"] = self.f_evals
        return out
